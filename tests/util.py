"""Test helpers: run a pipeline definition over rows-as-dicts without
needing a Ray cluster (the executor is a plain callable over Arrow)."""

from __future__ import annotations

import re
from itertools import chain, repeat

import numpy as np
import pyarrow as pa
from hypothesis import strategies as st

from logstash_filter_elastic_integration_ray.model import ColumnBatch
from logstash_filter_elastic_integration_ray.pipelines import (
    EventProcessor,
    RoutingConfig,
    compile_pipeline_set,
)


def rows_to_table(rows: list[dict]) -> pa.Table:
    keys: list[str] = []
    for r in rows:
        for k in r:
            if k not in keys:
                keys.append(k)
    cols = {}
    for k in keys:
        vals = [r.get(k) for r in rows]
        try:
            cols[k] = pa.array(vals)
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            arr = np.empty(len(vals), dtype=object)
            arr[:] = vals
            cols[k] = arr
    batch = ColumnBatch(num_rows=len(rows))
    for k, v in cols.items():
        batch.set(k, v)
    return batch.to_table(include_private=True)


def table_to_rows(table: pa.Table) -> list[dict]:
    out = []
    for i in range(table.num_rows):
        row = {}
        for name in table.column_names:
            v = table.column(name)[i].as_py()
            if v is not None:
                row[name] = v
        out.append(row)
    return out


def run_pipeline(pipeline_def: dict, rows: list[dict], extra_pipelines: dict | None = None,
                 routing: RoutingConfig | None = None) -> list[dict]:
    defs = {"main": pipeline_def}
    if extra_pipelines:
        defs.update(extra_pipelines)
    routing = routing or RoutingConfig(default_pipeline="main", use_datastream=False)
    proc = EventProcessor(compile_pipeline_set(defs), routing)
    return table_to_rows(proc(rows_to_table(rows)))


# ---------------------------------------------------------------------------
# Per-row references of the parse kernels
# ---------------------------------------------------------------------------

def write_results(batch: ColumnBatch, rows: np.ndarray, results: list) -> None:
    """The per-row kernels' writer: ``results[j]`` is the ``{field:
    value}`` dict of row ``rows[j]`` (None for a failed row, which
    writes nothing).  A None value writes nothing either.  Each field
    is scattered once, in the order fields first appear."""
    ok = np.array([r is not None for r in results], dtype=bool)
    if not ok.all():
        rows = rows[ok]
        results = [r for r in results if r is not None]
    for f in dict.fromkeys(chain.from_iterable(results)):
        col = list(map(dict.get, results, repeat(f)))
        keep = np.array([v is not None for v in col], dtype=bool)
        batch.write_rows(f, rows[keep], [v for v in col if v is not None])


def per_row(kernel, batch: ColumnBatch, mask: np.ndarray, fn) -> np.ndarray | None:
    """A parse kernel's ``apply`` as plain Python: ``fn`` on the string
    of every selected row (a raise or None fails the row), the results
    written by :func:`write_results`; a null field fails the row unless
    ``ignore_missing``."""
    present = batch.valid_mask(kernel.field)
    err = np.zeros(batch.n, dtype=bool)
    if not getattr(kernel, "ignore_missing", False):
        err |= mask & ~present
    rows, values = batch.read_rows(kernel.field, mask & present, stringify=True)
    results = []
    for s in values:
        try:
            results.append(fn(s))
        except Exception:
            results.append(None)
    err[rows[[r is None for r in results]]] = True
    write_results(batch, rows, results)
    return err if err.any() else None


_BYTES_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*(b|kb|mb|gb|tb|pb)\s*$", re.I)
_BYTES_MULT = {"b": 1, "kb": 1 << 10, "mb": 1 << 20, "gb": 1 << 30, "tb": 1 << 40, "pb": 1 << 50}


def bytes_row(kernel):
    def parse(s: str):
        m = _BYTES_RE.match(s)
        if not m:
            raise ValueError(f"failed to parse setting [{s}]")
        num, unit = m.group(1), m.group(2).lower()
        return {kernel.target: int(float(num) * _BYTES_MULT[unit])}

    return parse


_TAG_RE = re.compile(r"<[^>]*>")
_MULTI_NL = re.compile(r"\n{2,}")


def html_strip_row(kernel):
    def parse(s: str):
        return {kernel.target: _MULTI_NL.sub("\n", _TAG_RE.sub("\n", s))}

    return parse


def run_processor(processor: dict, rows: list[dict], row_fn=None) -> pa.Table:
    """One processor over ``rows`` through the ``EventProcessor``; with
    ``row_fn(kernel) -> fn`` its kernel runs as :func:`per_row` of
    ``fn`` instead."""
    pipelines = compile_pipeline_set({"main": {"processors": [processor]}})
    if row_fn is not None:
        kernel = pipelines["main"].steps[0].kernel
        fn = row_fn(kernel)
        kernel.apply = lambda batch, mask, state: per_row(kernel, batch, mask, fn)
    proc = EventProcessor(pipelines, RoutingConfig(default_pipeline="main", use_datastream=False))
    return proc(rows_to_table(rows))


def texts(tokens, shaped=st.nothing()):
    """Strings glued from ``tokens`` and arbitrary short text, or drawn
    from ``shaped``; null and the empty string included."""
    piece = st.sampled_from(tokens) | st.text(max_size=3)
    return st.one_of(st.none(), st.just(""), st.lists(piece, max_size=8).map("".join), shaped, shaped, shaped)


def glued(*parts):
    """One string from one choice out of each list in ``parts``."""
    return st.tuples(*(st.sampled_from(p) for p in parts)).map("".join)


def rows_of(tokens, shaped=st.nothing()):
    """Rows of :func:`texts` in ``f`` (a null leaves ``f`` out), each
    with an int ``sel`` for a condition to select on."""
    return st.lists(st.tuples(texts(tokens, shaped), st.booleans()), min_size=1, max_size=12).map(
        lambda vs: [{"sel": int(b), **({} if v is None else {"f": v})} for v, b in vs])


def assert_same_as_per_row(processor: dict, rows: list[dict], row_fn) -> None:
    """The processor's output equals its per-row reference's, in values,
    types and column order."""
    out = run_processor(processor, rows)
    ref = run_processor(processor, rows, row_fn)
    assert out.schema == ref.schema, (out.schema, ref.schema)
    assert out.equals(ref), (out.to_pylist(), ref.to_pylist())
