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


def write_results(batch: ColumnBatch, rows: np.ndarray, results: list) -> None:
    """Write a per-row kernel's results back: ``results[j]`` is the
    ``{field: value}`` dict of row ``rows[j]`` (``None`` for a failed
    row, which writes nothing).  A ``None`` value writes nothing either
    (the row keeps its old value).  Each field is scattered once, by
    :meth:`ColumnBatch.write_rows`, in the order fields first appear."""
    ok = np.array([r is not None for r in results], dtype=bool)
    if not ok.all():
        rows = rows[ok]
        results = [r for r in results if r is not None]
    for f in dict.fromkeys(chain.from_iterable(results)):
        col = list(map(dict.get, results, repeat(f)))
        if None in col:
            keep = np.array([v is not None for v in col], dtype=bool)
            batch.write_rows(f, rows[keep], [v for v in col if v is not None])
        else:
            batch.write_rows(f, rows, col)


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
