"""Kernel protocol + processor registry.

A ``Kernel`` is the compiled form of one ingest processor: a vectorized
batch transform.  Contract:

``apply(batch, mask, state) -> np.ndarray | None``
    Mutates ``batch`` **only on masked rows**.  Returns a per-row error
    mask (subset of ``mask``) for rows whose processing failed — the
    executor owns ``ignore_failure`` / ``on_failure`` / tag-and-pass-
    through semantics (reference: per-event failure isolation,
    ``EventProcessor.java:160-168, 246-252``).  Kernels should *return*
    error masks rather than raise; a raised exception triggers the
    executor's slow row-wise fallback so one bad row can't poison a
    batch (Ray task retries must stay deterministic — SURVEY.md §4.2).

``state`` is the executor's per-batch :class:`PipelineState`; only
flow-control kernels (drop/terminate/fail/reroute/pipeline) touch it.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable

import numpy as np
import pyarrow as pa

from ..model import ColumnBatch


class KernelCompileError(ValueError):
    """Raised at pipeline-compile time for invalid/unsupported configs —
    mirroring the reference failing pipeline *creation* for unsupported
    processors (docs/index.asciidoc:309-324)."""


class Kernel:
    #: error message used when the kernel flags rows without a custom one
    failure_message: str = "processor failed"
    #: flow-control kernels get special executor treatment
    is_control: bool = False

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        raise NotImplementedError

    def output_fields(self) -> list[str]:
        """Statically-known fields this kernel may add (schema inference)."""
        return []


PROCESSOR_REGISTRY: dict[str, Callable[[dict], Kernel]] = {}


def register_processor(name: str):
    def deco(factory: Callable[[dict], Kernel]):
        PROCESSOR_REGISTRY[name] = factory
        return factory

    return deco


def build_kernel(ptype: str, config: dict) -> Kernel:
    factory = PROCESSOR_REGISTRY.get(ptype)
    if factory is None:
        raise KernelCompileError(
            f"processor type [{ptype}] is not supported; pipeline creation fails "
            f"(reference behavior: docs/index.asciidoc:309-324)"
        )
    return factory(config)


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------

def string_rows(batch: ColumnBatch, field: str, mask: np.ndarray) -> pa.Array:
    """The rows ``mask`` selects of ``field`` as an Arrow string array
    (non-strings read as :meth:`ColumnBatch.read_rows` stringifies
    them).  A string column is filtered in Arrow, with no Python
    values."""
    col = batch._cols.get(field)
    if isinstance(col, pa.Array) and pa.types.is_string(col.type):
        return col.filter(pa.array(mask))
    return pa.array(batch.read_rows(field, mask, stringify=True)[1], type=pa.string())


_VALUE_CACHE_CAP = 65536
_CACHE_MISS = object()


def row_results(kernel, values: list, fn) -> list:
    """The per-row path: ``fn(value)`` of each value, a ``{field:
    value}`` dict, or None where ``fn`` raised or returned None.

    A kernel exposing a ``_value_cache`` dict gets input-value
    memoization: real log streams repeat user agents, domains and URLs
    heavily, so parse results are computed once per DISTINCT value per
    worker (None memoizes a failure too).  Only valid for pure
    ``fn(value)`` kernels."""
    cache = getattr(kernel, "_value_cache", None)
    out = []
    for s in values:
        res = _CACHE_MISS if cache is None else cache.get(s, _CACHE_MISS)
        if res is _CACHE_MISS:
            try:
                res = fn(s)
            except Exception:
                res = None
            if cache is not None and len(cache) < _VALUE_CACHE_CAP:
                cache[s] = res
        out.append(res)
    return out


def parse_rows(kernel, batch: ColumnBatch, mask: np.ndarray, fn, arrow_fn=None) -> np.ndarray | None:
    """The driver of the parse kernels: parse ``kernel.field`` on the
    rows ``mask`` selects into ``{field: value}`` per row, and write
    each field back into those rows.  A null ``field`` fails the row,
    or is skipped with ``kernel.ignore_missing``.  Returns the error
    mask, or None.

    ``arrow_fn(arr)`` gets the selected rows as one Arrow string array
    (non-strings read as strings) and returns ``(ok, bad, cols)``: numpy
    masks over ``arr`` of the rows it parsed and of the rows that fail,
    and ``{field: Arrow array over arr}`` in the key order ``fn`` gives a
    row, a null meaning the row writes nothing there.  Every other row
    goes through :func:`row_results` with ``fn``.  The writes are those
    of the per-row results for every row: one ``write_rows`` per field
    (a None value writes nothing), fields in the order they first
    appear over the rows, in a row's key order within the row."""
    present = batch.valid_mask(kernel.field)
    err = np.zeros(batch.n, dtype=bool)
    if not getattr(kernel, "ignore_missing", False):
        err |= mask & ~present
    active = mask & present
    rows = np.flatnonzero(active)
    ok, cols = np.zeros(len(rows), dtype=bool), {}
    if arrow_fn is not None and len(rows):
        ok, bad, cols = arrow_fn(string_rows(batch, kernel.field, active))
        err[rows[bad]] = True
        rest = np.flatnonzero(~(ok | bad))
    else:
        rest = np.arange(len(rows))
    results = []
    if len(rest):
        sel = np.zeros(batch.n, dtype=bool)
        sel[rows[rest]] = True
        results = row_results(kernel, batch.read_rows(kernel.field, sel, stringify=True)[1], fn)
        err[rows[rest[[r is None for r in results]]]] = True

    settled = [(j, res) for j, res in zip(rest.tolist(), results) if res is not None]
    at, results = rows[[j for j, _ in settled]], [res for _, res in settled]
    in_rows = dict.fromkeys(chain.from_iterable(results))
    hits = {}
    for f, col in cols.items():
        hit = ok & np.asarray(col.is_valid()) if col.null_count else ok
        if hit.any():
            hits[f] = hit
    # fields in the order they first appear: (position among ``rows``,
    # key position in that row); a row is settled in Arrow or per row
    first = {f: (0, p) for p, f in enumerate(in_rows)}
    if hits:
        first = {}
        for j, res in settled:
            for p, f in enumerate(res):
                first.setdefault(f, (j, p))
        for p, (f, hit) in enumerate(hits.items()):
            j = int(hit.argmax())
            if (j, p) < first.get(f, (len(rows), 0)):
                first[f] = (j, p)
    for f in sorted(first, key=first.__getitem__):
        vals = list(map(dict.get, results, repeat(f))) if f in in_rows else []
        keep = np.array([v is not None for v in vals], dtype=bool)
        vals = [v for v in vals if v is not None]
        hit = hits.get(f)
        if hit is None:
            batch.write_rows(f, at[keep], vals)
        elif vals:  # both paths wrote ``f``: one write, in row order
            by_row = sorted([*zip(rows[hit].tolist(), cols[f].filter(pa.array(hit)).to_pylist()),
                             *zip(at[keep].tolist(), vals)])
            batch.write_rows(f, np.array([i for i, _ in by_row]), [v for _, v in by_row])
        else:
            batch.write_rows(f, rows[hit], cols[f].filter(pa.array(hit)))
    return err if err.any() else None


def map_rows(batch: ColumnBatch, field: str, target: str, mask: np.ndarray, fn,
             ignore_missing: bool = False, arrow_fn=None) -> np.ndarray | None:
    """The one-field per-row kernel: write ``fn(value)`` of ``field`` to
    ``target`` on each row ``mask`` selects.  A row where ``fn`` raises
    ``TypeError``, ``ValueError`` or ``AttributeError`` fails and
    writes nothing; so does a row where ``field`` is null, unless
    ``ignore_missing`` (then it is skipped).  ``arrow_fn``, when the
    field is an Arrow string column, maps the selected rows in Arrow
    instead (an Arrow error falls back to ``fn``).  Returns the error
    mask, or None."""
    valid = batch.valid_mask(field)
    err = np.zeros(batch.n, dtype=bool) if ignore_missing else mask & ~valid
    active = mask & valid
    if not active.any():
        return err if err.any() else None
    col = batch._cols.get(field)
    if arrow_fn is not None and isinstance(col, pa.Array) and pa.types.is_string(col.type):
        try:
            new = arrow_fn(col.filter(pa.array(active)))
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            new = None  # e.g. a pattern RE2 cannot compile
        if new is not None:
            batch.write_rows(target, np.flatnonzero(active), new)
            return err if err.any() else None
    rows, vals = batch.read_rows(field, active)
    ok = np.ones(len(rows), dtype=bool)
    out = []
    for j, v in enumerate(vals):
        try:
            out.append(fn(v))
        except (TypeError, ValueError, AttributeError):
            ok[j] = False
    err[rows[~ok]] = True
    batch.write_rows(target, rows[ok], out)
    return err if err.any() else None
