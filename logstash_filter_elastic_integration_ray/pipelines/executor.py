"""Batch pipeline executor — the engine's hot path.

The reference's per-event flow (``EventProcessor.java:91-244``):
resolve event→index→pipeline, run the processor chain with
conditionals / on_failure / sub-pipelines, follow ``reroute`` to the
next pipeline with index-history cycle detection, emit originals for
failed events.  Here the *entire* flow — including the reroute loop —
executes inside one ``map_batches`` call per Arrow batch: masks replace
per-event control flow, kernels replace processor objects, and control
never leaves the worker until the batch is finished (no per-event async
machinery, no latches — SURVEY.md §3.2).

``EventProcessor`` is a picklable callable class, usable directly as a
``map_batches`` actor (compiled pipelines built once in ``__init__`` on
the driver, shipped in the closure)."""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..model import (
    META_FAILURE_MESSAGE,
    META_FAILURE_TAG,
    META_INDEX,
    META_TARGET_PIPELINE,
    FAILURE_TAG_VALUE,
    RESERVED_TIMESTAMP,
    ColumnBatch,
    append_tag,
    apply_timestamp_fallback,
    sanitize_reserved_fields,
)
from .compiler import CompiledPipeline, Step

MAX_REROUTES = 10  # static bound on data-dependent pipeline re-entry


def _is_string(col) -> bool:
    return isinstance(col, pa.Array) and (pa.types.is_string(col.type) or pa.types.is_large_string(col.type))


class PipelineState:
    """Per-batch execution masks — the columnar form of per-event flow."""

    def __init__(self, n: int):
        self.n = n
        self.failed = np.zeros(n, dtype=bool)
        self.dropped = np.zeros(n, dtype=bool)
        self.terminated = np.zeros(n, dtype=bool)
        self.reroute_pending = np.zeros(n, dtype=bool)
        self.reroute_dest = np.empty(n, dtype=object)
        self.reroute_dest[:] = None
        self.failure_messages = np.empty(n, dtype=object)
        self.failure_messages[:] = None
        self.failure_tags = np.empty(n, dtype=object)
        self.failure_tags[:] = None
        # local_done is managed per run_pipeline invocation (reroute
        # skips the *rest of the current pipeline* only)
        self.local_done = np.zeros(n, dtype=bool)

    def inactive(self) -> np.ndarray:
        return self.failed | self.dropped | self.terminated

    # -- control-kernel API -------------------------------------------------
    def mark_dropped(self, mask: np.ndarray) -> None:
        self.dropped |= mask

    def mark_terminated(self, mask: np.ndarray) -> None:
        self.terminated |= mask

    def mark_reroute(self, mask: np.ndarray, dest) -> None:
        """Reroute the masked rows to ``dest``: one index for all of
        them, or a list of one index per masked row."""
        self.reroute_pending |= mask
        self.reroute_dest[mask] = dest
        self.local_done |= mask

    def set_failure_messages(self, mask: np.ndarray, messages) -> None:
        """Set the failure message of the masked rows: one message for
        all of them, or a list of one per masked row."""
        self.failure_messages[mask] = messages


@dataclass
class RoutingConfig:
    """Compile-time routing — replaces the reference's remote resolvers
    (``ElasticsearchIndexNameToPipelineNameResolver.java:38-70`` becomes
    a broadcast dict; ``DatastreamEventToIndexNameResolver.java:28-54``
    becomes the type-dataset-namespace composition below)."""

    #: index name → pipeline name ("_none" bypasses; missing → no-op)
    index_to_pipeline: dict[str, str] = field(default_factory=dict)
    #: pipeline applied when no index can be resolved (engine extension
    #: for standalone pipelines; None → reference no-op pass-through)
    default_pipeline: str | None = None
    #: compose the index from data_stream.{type,dataset,namespace}
    use_datastream: bool = True
    #: sprintf-style event→pipeline-name template, e.g.
    #: ``%{[@metadata][target_pipeline]}``.  When set it OVERRIDES
    #: index-based resolution (EventProcessor.java:118-120); a row whose
    #: template doesn't fully resolve is a no-op pass-through
    #: (SprintfTemplateEventToPipelineNameResolver.java:51-60)
    pipeline_template: str | None = None


class EventProcessor:
    """Callable batch transform: ``pa.Table -> pa.Table``.

    Parameters
    ----------
    pipelines : compiled pipeline set (``compile_pipeline_set``)
    routing : RoutingConfig
    emit_private : include ``__meta_*`` columns in the output table
    """

    def __init__(
        self,
        pipelines: dict[str, CompiledPipeline],
        routing: RoutingConfig | None = None,
        emit_private: bool = True,
    ):
        self.pipelines = pipelines
        self.routing = routing or RoutingConfig()
        self.emit_private = emit_private
        # pinned once on the DRIVER at construction and serialized into
        # every worker task: the @timestamp-removed fallback stays
        # deterministic across task retries and batch splits
        import datetime as _dt

        self.run_now = _dt.datetime.now(_dt.timezone.utc).replace(tzinfo=None)

    # -- map_batches entry ---------------------------------------------------
    def __call__(self, table: pa.Table) -> pa.Table:
        batch = ColumnBatch(table)
        if batch.n == 0:
            return table
        state = PipelineState(batch.n)
        original = batch.snapshot()

        # 1. resolve index per row (DatastreamEventToIndexNameResolver.java:28-54)
        #    as int codes into the distinct index names; -1 is no index.
        #    A reroute appends its destination to ``index_names``.
        cur_index, index_names = self._resolve_index(batch)
        # 2. resolve pipeline name per row; None → no-op bypass.
        #    A configured template resolver overrides index-based
        #    resolution (EventProcessor.java:118-123).
        # routing runs on int codes into ``names``; -1 is no pipeline
        if self.routing.pipeline_template is not None:
            codes, uniques = pd.factorize(np.asarray(self._resolve_template_pipelines(batch), dtype=object))
        else:
            # one lookup per distinct index; index code -1 takes the last
            per_index, uniques = pd.factorize(np.array(
                [self._pipeline_for_index(ix) for ix in index_names] + [self._pipeline_for_index(None)],
                dtype=object))
            codes = per_index[cur_index]
        names = list(uniques)
        code_of = {name: c for c, name in enumerate(names)}
        index_code = {name: c for c, name in enumerate(index_names)}
        # index history for reroute cycle detection (EventProcessor.java:195-207)
        history: dict[int, set] = {}

        rounds = 0
        # success marker: set ONLY on rows whose final resolution actually
        # completed a pipeline run (EventProcessor.java:225-240 sets it in
        # the executePipeline completion; bypass/no-op rows complete via
        # the identity path :125-139 and do NOT get it)
        marker = np.zeros(batch.n, dtype=bool)
        pending = (codes >= 0) & ~state.inactive()
        while pending.any() and rounds < MAX_REROUTES:
            rounds += 1
            round_mask = pending.copy()
            for name, c in sorted((names[c], c) for c in np.unique(codes[pending])):
                mask = pending & (codes == c)
                pipe = self.pipelines.get(name)
                if pipe is None:
                    self._fail_rows(
                        state, mask,
                        np.full(batch.n, f"pipeline not loaded [{name}]", dtype=object), None,
                    )
                    continue
                self.run_pipeline(pipe, batch, mask, state, stack=(name,))
            marker |= round_mask & ~state.reroute_pending & ~state.failed & ~state.dropped
            # reroute handling
            pending = np.zeros(batch.n, dtype=bool)
            rr = state.reroute_pending & ~state.inactive()
            if rr.any():
                for i in np.nonzero(rr)[0]:
                    new_index = state.reroute_dest[i]
                    old = index_names[cur_index[i]] if cur_index[i] >= 0 else None
                    hist = history.setdefault(i, {old} if old else set())
                    if new_index in hist:
                        state.failure_messages[i] = (
                            f"index cycle detected while rerouting document: {sorted(hist)} -> {new_index}"
                        )
                        state.failed[i] = True
                        continue
                    hist.add(new_index)
                    if new_index is None:
                        cur_index[i] = -1
                    else:
                        if new_index not in index_code:
                            index_code[new_index] = len(index_names)
                            index_names.append(new_index)
                        cur_index[i] = index_code[new_index]
                    next_pipe = self._pipeline_for_index(new_index)
                    if next_pipe is not None:
                        if next_pipe not in code_of:
                            code_of[next_pipe] = len(names)
                            names.append(next_pipe)
                        codes[i] = code_of[next_pipe]
                        pending[i] = True
                    else:
                        # reroute resolved to no pipeline (or "_none"):
                        # the document completed successfully — the
                        # reference sets TARGET_PIPELINE=_none on this
                        # fall-through too (EventProcessor.java:232-240)
                        marker[i] = True
                state.reroute_pending[:] = False
                state.reroute_dest[:] = None

        # rows still mid-flight when the reroute bound was hit must NOT
        # be emitted as silent successes — fail them visibly
        if pending.any():
            for i in np.nonzero(pending)[0]:
                state.failure_messages[i] = (
                    f"too many reroutes (> {MAX_REROUTES}) while processing document"
                )
            state.failed |= pending

        # final index column: one Arrow take over the distinct names (a
        # list where Arrow cannot type them together)
        has_index = np.flatnonzero(cur_index >= 0)
        codes = cur_index[has_index]
        try:
            index_vals = pa.array(index_names).take(pa.array(codes))
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            index_vals = [index_names[c] for c in codes]
        batch.write_rows(META_INDEX, has_index, index_vals)

        # failed rows: restore originals + tag (EventProcessor.java:176-184, 246-252)
        if state.failed.any():
            batch.restore_rows(original, state.failed)
            append_tag(batch, state.failed, FAILURE_TAG_VALUE)
            rows = np.flatnonzero(state.failed)
            batch.write_rows(META_FAILURE_MESSAGE, rows, state.failure_messages[rows].tolist())
            tagged = rows[state.failure_tags[rows] != None]  # noqa: E711
            batch.write_rows(META_FAILURE_TAG, tagged, state.failure_tags[tagged].tolist())

        # success marker (EventProcessor.java:60-61,234)
        ok = marker & ~state.failed & ~state.dropped
        if ok.any():
            batch.set_scalar(META_TARGET_PIPELINE, "_none", ok)

        sanitize_reserved_fields(batch)
        if RESERVED_TIMESTAMP in original:
            # input carried the reserved field (Logstash-shaped) — a
            # pipeline that removed it gets the event.created / now
            # fallback (IngestDuplexMarshallerTest.java:187-227)
            apply_timestamp_fallback(batch, now=self.run_now)

        if state.dropped.any():
            batch.take_mask(~state.dropped)
        return batch.to_table(include_private=self.emit_private)

    # -- resolution ----------------------------------------------------------
    _DS_COLS = ("data_stream.type", "data_stream.dataset", "data_stream.namespace")

    def _resolve_index(self, batch: ColumnBatch) -> tuple[np.ndarray, list]:
        """``(codes, names)``: each row's index as an int64 code into
        the distinct index ``names``, -1 where the row has none.  A
        pre-existing ``__meta_index`` value wins; a row where it is
        null takes ``type-dataset-namespace`` when all three are
        non-empty strings.  Arrow string columns are composed and
        dictionary-encoded in Arrow; any other column (a list-valued
        dataset, say) goes through Python values, where a non-string
        part resolves to NO index
        (DatastreamEventToIndexNameResolverTest:65-74)."""
        meta = batch._cols.get(META_INDEX)
        if isinstance(meta, pa.Array) and pa.types.is_null(meta.type):
            meta = None  # an all-null column: no row has an index yet
        parts = [batch._cols.get(c) for c in self._DS_COLS]
        compose = self.routing.use_datastream and all(c is not None for c in parts)
        if all(map(_is_string, (parts if compose else []) + ([] if meta is None else [meta]))):
            index = None if meta is None else meta.cast(pa.string())
            if compose and (index is None or index.null_count):
                # null/empty on any part → unresolved
                nonempty = pc.fill_null(pc.not_equal(parts[0], ""), False)
                for c in parts[1:]:
                    nonempty = pc.and_(nonempty, pc.fill_null(pc.not_equal(c, ""), False))
                composed = pc.binary_join_element_wise(*parts, "-").cast(pa.string())
                composed = pc.if_else(nonempty, composed, pa.scalar(None, pa.string()))
                index = composed if index is None else pc.coalesce(index, composed)
            if index is None:
                return np.full(batch.n, -1, dtype=np.int64), []
            enc = pc.dictionary_encode(index)
            codes = enc.indices.fill_null(-1).to_numpy(zero_copy_only=False).astype(np.int64)
            return codes, enc.dictionary.to_pylist()
        out = batch.objects(META_INDEX) if meta is not None else np.full(batch.n, None, dtype=object)
        if compose:
            out = out.copy()
            t, d, ns = (batch.objects(c) for c in self._DS_COLS)
            for i in np.flatnonzero(out == None):  # noqa: E711
                if (
                    isinstance(t[i], str) and t[i]
                    and isinstance(d[i], str) and d[i]
                    and isinstance(ns[i], str) and ns[i]
                ):
                    out[i] = f"{t[i]}-{d[i]}-{ns[i]}"
        codes, uniques = pd.factorize(out)
        return codes.astype(np.int64), list(uniques)

    def _pipeline_for_index(self, index: str | None) -> str | None:
        if index is None:
            return self.routing.default_pipeline
        name = self.routing.index_to_pipeline.get(index)
        if name is None:
            return None
        if name == "_none":
            return None
        return name

    _SPRINTF_REF = re.compile(r"%\{([^}]+)\}")

    def _resolve_template_pipelines(self, batch: ColumnBatch) -> list:
        """Logstash-sprintf template resolution (overrides index-based).

        Fast path: every referenced column is an Arrow string array →
        one ``binary_join_element_wise`` composes all rows at once
        (null reference → null → no-op row, matching
        SprintfTemplateEventToPipelineNameResolver.java:51-60)."""
        template = self.routing.pipeline_template
        parts = self._SPRINTF_REF.split(template)
        # parts = [lit, ref, lit, ref, ..., lit]
        ref_names = []
        for j in range(1, len(parts), 2):
            ref = parts[j].strip()
            if ref.startswith("["):
                ref = ".".join(re.findall(r"\[([^\]]+)\]", ref))
            ref_names.append(ref)

        arrow_refs = []
        all_arrow = True
        for ref in ref_names:
            c = batch._cols.get(ref)
            if _is_string(c):
                arrow_refs.append(c)
            else:
                all_arrow = False
                break
        if all_arrow and ref_names:
            pieces = []
            for j, part in enumerate(parts):
                if j % 2 == 0:
                    if part:
                        pieces.append(part)  # scalar literal broadcasts
                else:
                    pieces.append(arrow_refs[j // 2])
            if len(pieces) == 1 and isinstance(pieces[0], str):
                composed = pa.array([pieces[0]] * batch.n)
            else:
                composed = pc.binary_join_element_wise(*pieces, "")
            vals = composed.to_pylist()
            return [None if (v is None or v == "_none") else v for v in vals]

        ref_cols = [batch.objects(r) if batch.has(r) else None for r in ref_names]
        out = []
        for i in range(batch.n):
            buf = []
            ok = True
            for j, part in enumerate(parts):
                if j % 2 == 0:
                    buf.append(part)
                else:
                    col = ref_cols[j // 2]
                    v = col[i] if col is not None else None
                    if v is None:
                        ok = False  # unresolved reference → no-op row
                        break
                    buf.append(str(v))
            if not ok:
                out.append(None)
                continue
            name = "".join(buf)
            out.append(None if name == "_none" else name)
        return out

    # -- pipeline execution --------------------------------------------------
    def run_pipeline(
        self,
        pipe: CompiledPipeline,
        batch: ColumnBatch,
        mask: np.ndarray,
        state: PipelineState,
        stack: tuple,
    ) -> None:
        saved_local = state.local_done
        state.local_done = np.zeros(batch.n, dtype=bool)
        failed_here = np.zeros(batch.n, dtype=bool)
        for step in pipe.steps:
            active = mask & ~state.inactive() & ~state.local_done & ~failed_here
            if not active.any():
                break
            self._run_step(step, batch, active, state, stack, failed_here)
        if failed_here.any():
            if pipe.on_failure:
                # pipeline-level catch block (docs/index.asciidoc:357-367)
                recovered = failed_here.copy()
                sub_failed = np.zeros(batch.n, dtype=bool)
                for step in pipe.on_failure:
                    act = recovered & ~state.inactive() & ~sub_failed
                    if not act.any():
                        break
                    self._run_step(step, batch, act, state, stack, sub_failed)
                if sub_failed.any():
                    self._fail_rows(state, sub_failed, state.failure_messages, state.failure_tags)
            else:
                self._fail_rows(state, failed_here, state.failure_messages, state.failure_tags)
        # a reroute inside this pipeline also skips the CALLING
        # pipeline's remaining processors (ES reroute semantics: "if the
        # current pipeline was called from a Pipeline processor, the
        # calling pipeline will be skipped, too") — propagate local_done
        # up instead of discarding it
        state.local_done = saved_local | state.local_done

    def _run_step(
        self,
        step: Step,
        batch: ColumnBatch,
        active: np.ndarray,
        state: PipelineState,
        stack: tuple,
        failed_here: np.ndarray,
    ) -> None:
        if step.condition is not None:
            try:
                cond = step.condition.evaluate(batch)
            except Exception:
                # per-row isolation: the reference evaluates conditionals
                # per event and fails only the offending document — one
                # bad row must not mass-fail the whole batch
                cond, cond_err = self._per_row_condition(step.condition, batch, active)
                bad = active & cond_err
                if bad.any():
                    self._record_step_failure(step, state, bad, failed_here,
                                              override_msg="error evaluating conditional")
                active = active & cond & ~cond_err
            else:
                active = active & cond
            if not active.any():
                return

        if getattr(step.kernel, "is_pipeline_call", False):
            self._run_pipeline_call(step, batch, active, state, stack, failed_here)
            return

        try:
            pre = batch.snapshot()  # shallow column-ref copy (O(#cols))
            err = step.kernel.apply(batch, active, state)
        except Exception:
            # a kernel that raised may have partially written some rows
            # (e.g. mid-write) — revert the attempt before isolating, or
            # read-modify-write kernels would re-apply on mutated input
            batch.restore_rows(pre, active)
            err = self._rowwise_fallback(step.kernel, batch, active, state)
        if err is not None and err.any():
            err = err & active
            if step.ignore_failure:
                return
            if step.on_failure:
                # per-processor catch block; handler context fields
                batch.set_scalar("_ingest.on_failure_processor_type", step.ptype, err)
                if step.tag:
                    batch.set_scalar("_ingest.on_failure_processor_tag", step.tag, err)
                rows = np.flatnonzero(err)
                batch.write_rows("_ingest.on_failure_message", rows, [
                    step.kernel.failure_message if m is None else m for m in state.failure_messages[rows]])
                sub_failed = np.zeros(batch.n, dtype=bool)
                for h in step.on_failure:
                    act = err & ~state.inactive() & ~sub_failed
                    if not act.any():
                        break
                    self._run_step(h, batch, act, state, stack, sub_failed)
                # handler context fields exist only INSIDE the on_failure
                # block (Elasticsearch removes them afterwards) — they
                # must not persist into the emitted output
                for ctx_col in ("_ingest.on_failure_processor_type",
                                "_ingest.on_failure_processor_tag",
                                "_ingest.on_failure_message"):
                    if batch.has(ctx_col):
                        batch.write_rows(ctx_col, rows, pa.nulls(len(rows)))
                        if not batch.valid_mask(ctx_col).any():
                            batch.drop(ctx_col)
                failed_here |= sub_failed
                return
            self._record_step_failure(step, state, err, failed_here)

    def _per_row_condition(
        self, condition, batch: ColumnBatch, active: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Error-path fallback: re-evaluate a conditional row by row so
        only rows where evaluation raises are failed (the reference
        evaluates per event — one poisoned value must not fail a 16k-row
        batch).  Returns (cond, err) boolean masks."""
        cond = np.zeros(batch.n, dtype=bool)
        err = np.zeros(batch.n, dtype=bool)
        names = batch.names()
        cols = {name: batch.objects(name) for name in names}
        for i in np.nonzero(active)[0]:
            single = ColumnBatch(num_rows=1)
            for name in names:
                arr = np.empty(1, dtype=object)
                arr[0] = cols[name][i]
                single.set(name, arr)
            try:
                cond[i] = bool(condition.evaluate(single)[0])
            except Exception:
                err[i] = True
        return cond, err

    def _record_step_failure(
        self,
        step: Step,
        state: PipelineState,
        err: np.ndarray,
        failed_here: np.ndarray,
        override_msg: str | None = None,
    ) -> None:
        for i in np.nonzero(err)[0]:
            if state.failure_messages[i] is None or override_msg is not None:
                state.failure_messages[i] = override_msg or step.kernel.failure_message
            state.failure_tags[i] = step.tag
        failed_here |= err

    def _run_pipeline_call(self, step, batch, active, state, stack, failed_here) -> None:
        name = step.kernel.name
        sub = self.pipelines.get(name)
        if sub is None:
            if step.kernel.ignore_missing_pipeline:
                return
            for i in np.nonzero(active)[0]:
                state.failure_messages[i] = f"Pipeline processor configured for non-existent pipeline [{name}]"
            failed_here |= active
            return
        if name in stack:
            for i in np.nonzero(active)[0]:
                state.failure_messages[i] = (
                    f"Cycle detected for pipeline: {name}"
                )
            failed_here |= active
            return
        # run sub-pipeline inline; its failures surface as THIS step's
        # failures so the caller's handlers / pipeline-level on_failure
        # see them (ES propagates the exception up through the pipeline
        # processor; a caller with an on_failure block catches it)
        sub_failed_before = state.failed.copy()
        self.run_pipeline(sub, batch, active, state, stack + (name,))
        new_failed = state.failed & ~sub_failed_before
        if new_failed.any():
            # un-commit: the failure belongs to this step in the caller
            state.failed &= sub_failed_before | ~new_failed
            if step.ignore_failure:
                return
            if step.on_failure:
                sub_failed = np.zeros(batch.n, dtype=bool)
                for h in step.on_failure:
                    act = new_failed & ~state.inactive() & ~sub_failed
                    if not act.any():
                        break
                    self._run_step(h, batch, act, state, stack, sub_failed)
                failed_here |= sub_failed
                return
            failed_here |= new_failed

    def _fail_rows(self, state: PipelineState, mask: np.ndarray, messages, tags) -> None:
        state.failed |= mask
        for i in np.nonzero(mask)[0]:
            if messages is not None and messages[i] is not None:
                state.failure_messages[i] = messages[i]
            if tags is not None and tags[i] is not None:
                state.failure_tags[i] = tags[i]

    def _rowwise_fallback(
        self, kernel, batch: ColumnBatch, active: np.ndarray, state: PipelineState
    ) -> np.ndarray | None:
        """A kernel raised on the whole batch: isolate the offending
        rows so they can't poison the batch (SURVEY.md §7.3 — kernels
        must never throw; retried Ray tasks must stay deterministic).

        Binary-split isolation: retry on halves recursively and only
        at single rows mark the error.  Vectorized kernels cost O(n)
        per apply regardless of mask width, so per-row retries always
        cost O(n²); splitting costs O(k·n·log n) for k bad rows — the
        common one-poisoned-row case drops from O(n²) to O(n log n)
        (all-rows-bad remains O(n²), same as before)."""
        err = np.zeros(batch.n, dtype=bool)
        pre = batch.snapshot()

        def isolate(rows: np.ndarray) -> None:
            sub = np.zeros(batch.n, dtype=bool)
            sub[rows] = True
            try:
                e = kernel.apply(batch, sub, state)
                if e is not None:
                    err[rows] |= e[rows]
                return
            except Exception:
                batch.restore_rows(pre, sub)  # revert partial writes
            if len(rows) == 1:
                err[rows[0]] = True
                return
            mid = len(rows) // 2
            isolate(rows[:mid])
            isolate(rows[mid:])

        idx = np.nonzero(active)[0]
        if len(idx):
            mid = len(idx) // 2 or 1
            # the full-batch apply already raised — start at halves
            isolate(idx[:mid])
            if len(idx) > 1:
                isolate(idx[mid:])
        return err if err.any() else None
