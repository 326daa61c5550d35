"""Flow-control kernels: drop, terminate, fail, pipeline, reroute,
date_index_name.

These mutate the executor's per-batch :class:`PipelineState` masks
instead of document fields — the columnar translation of the
reference's per-event control flow:

- ``drop`` cancels the event (``EventProcessor.java:185-189``,
  spec:360-391);
- ``terminate`` stops processing for the doc but keeps it
  (spec:1139-1167);
- ``fail`` raises → tag + annotate, original emitted unmodified
  (``EventProcessor.java:176-184,246-252``, spec:1250-1270);
- ``pipeline`` invokes a named sub-pipeline inline with cycle
  detection (``ingest/PipelineProcessor.java:75-90``,
  ``SmokeTest.java:162-238``);
- ``reroute`` rewrites ``data_stream.*`` + doc ``_index`` and skips the
  remaining processors of the current pipeline
  (``EventProcessor.java:192-228``, ``SmokeTest.java:267-388``);
- ``date_index_name`` computes a date-math index expression into
  ``_index`` (spec:278-301).
"""

from __future__ import annotations

import datetime as dt

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..model import ColumnBatch, META_INDEX
from .base import Kernel, KernelCompileError, register_processor, string_rows
from .grok import _normalize_field_path
from .mutate import render_template
from .parse import DateKernel, java_format_to_strptime


class DropKernel(Kernel):
    is_control = True

    def __init__(self, config: dict):
        pass

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        state.mark_dropped(mask)
        return None


@register_processor("drop")
def _drop_factory(config):
    return DropKernel(config)


class TerminateKernel(Kernel):
    is_control = True

    def __init__(self, config: dict):
        pass

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        state.mark_terminated(mask)
        return None


@register_processor("terminate")
def _terminate_factory(config):
    return TerminateKernel(config)


class FailKernel(Kernel):
    is_control = True
    failure_message = "fail processor invoked"

    def __init__(self, config: dict):
        self.message = config.get("message")
        if self.message is None:
            raise KernelCompileError("fail: requires [message]")

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        rendered = render_template(self.message, batch, mask)
        state.set_failure_messages(mask, str(self.message) if rendered is None else rendered)
        return mask.copy()  # every masked row "raises"


@register_processor("fail")
def _fail_factory(config):
    return FailKernel(config)


class PipelineKernel(Kernel):
    """Invoke a named sub-pipeline inline.  The executor intercepts this
    kernel (``is_pipeline_call``) and recurses into the compiled
    pipeline set with an execution stack for cycle detection —
    compile-time inlining is not possible for templated names."""

    is_control = True
    is_pipeline_call = True

    def __init__(self, config: dict):
        self.name = config.get("name")
        if not self.name:
            raise KernelCompileError("pipeline: requires [name]")
        self.ignore_missing_pipeline = bool(config.get("ignore_missing_pipeline", False))

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        raise RuntimeError("PipelineKernel must be executed by the pipeline executor")


@register_processor("pipeline")
def _pipeline_factory(config):
    return PipelineKernel(config)


class RerouteKernel(Kernel):
    is_control = True
    failure_message = "reroute failed"

    def __init__(self, config: dict):
        self.destination = config.get("destination")
        dataset = config.get("dataset")
        namespace = config.get("namespace")
        if self.destination is not None and (dataset is not None or namespace is not None):
            raise KernelCompileError("reroute: [destination] cannot be combined with [dataset]/[namespace]")
        # ES tries a list of values in order; the first that resolves wins
        self.datasets = [] if dataset is None else list(dataset) if isinstance(dataset, list) else [dataset]
        self.namespaces = [] if namespace is None else list(namespace) if isinstance(namespace, list) else [namespace]

    @staticmethod
    def _part(templates: list, batch: ColumnBatch, mask: np.ndarray, field: str, default: str) -> pa.Array:
        """One ``data_stream`` part for the masked rows: the first of
        ``templates`` that resolves to a non-empty value (a static value
        always does, a ``{{field}}`` template not when the field is
        missing), else the row's current ``field``, else ``default``."""
        k = int(mask.sum())
        cands = []
        for t in templates:
            rendered = render_template(t, batch, mask)
            if rendered is None:
                cands.append(pa.scalar(str(t)))
                break
            vals = pa.array(rendered, type=pa.string())
            cands.append(pc.if_else(pc.equal(vals, ""), pa.nulls(k, pa.string()), vals))
        else:
            if batch.has(field):
                cands.append(string_rows(batch, field, mask))
            cands.append(pa.scalar(default))
        return pc.coalesce(*cands) if len(cands) > 1 else pa.array([cands[0].as_py()] * k, pa.string())

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        if self.destination is not None:
            rendered = render_template(self.destination, batch, mask)
            dest = rendered if rendered is not None else str(self.destination)
            state.mark_reroute(mask, dest)
            return None
        rows = np.flatnonzero(mask)
        dtype = self._part([], batch, mask, "data_stream.type", "logs")
        dset = self._part(self.datasets, batch, mask, "data_stream.dataset", "generic")
        dns = self._part(self.namespaces, batch, mask, "data_stream.namespace", "default")
        batch.write_rows("data_stream.dataset", rows, dset)
        batch.write_rows("data_stream.namespace", rows, dns)
        state.mark_reroute(mask, pc.binary_join_element_wise(dtype, dset, dns, "-").to_pylist())
        return None


@register_processor("reroute")
def _reroute_factory(config):
    return RerouteKernel(config)


class DateIndexNameKernel(Kernel):
    """Compute a date-math index expression into ``_index``
    (spec:278-301: asserts index startswith ``<monthly-index-{2023-03-08``)."""

    is_control = True
    failure_message = "date_index_name failed"

    _ROUNDINGS = {"y", "M", "w", "d", "h", "H", "m", "s"}

    def __init__(self, config: dict):
        self.field = _normalize_field_path(config.get("field", ""))
        rounding = config.get("date_rounding")
        if not self.field or rounding not in self._ROUNDINGS:
            raise KernelCompileError("date_index_name: requires [field] and a valid [date_rounding]")
        self.rounding = rounding
        self.prefix = config.get("index_name_prefix", "")
        self.index_format = config.get("index_name_format", "yyyy-MM-dd")
        self.timezone = config.get("timezone", "UTC")
        formats = config.get("date_formats") or ["ISO8601"]
        self._parser = DateKernel({"field": self.field, "formats": formats, "timezone": config.get("timezone")})

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        fmt = java_format_to_strptime(self.index_format)
        rows, values = batch.read_rows(self.field, mask, stringify=True)
        err = np.zeros(batch.n, dtype=bool)
        ok_rows, out = [], []
        for i, v in zip(rows.tolist(), values):
            try:
                d = self._parser._parse_one(v) if v is not None else None
            except ValueError:
                d = None
            if d is None:
                err[i] = True
                continue
            ok_rows.append(i)
            out.append(
                f"<{self.prefix}{{{d.strftime(fmt)}||/{self.rounding}{{{self.index_format}|{self.timezone}}}}}>"
            )
        batch.write_rows(META_INDEX, np.array(ok_rows, dtype=np.int64), out)
        return err if err.any() else None


@register_processor("date_index_name")
def _date_index_name_factory(config):
    return DateIndexNameKernel(config)
