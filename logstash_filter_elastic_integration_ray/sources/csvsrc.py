"""CSV source/sink.

Third source format beside parquet and JSONL: plenty of log exports
are CSV.  ``write_csv`` serializes timestamps as ISO-8601 strings
first (CSV has no temporal type, and round-tripping through the
default epoch rendering loses sub-second precision exactly like the
JSON writer — see sources/jsonl.py); ``read_csv`` restores the listed
timestamp columns to ``timestamp[us]`` and null-coalesces empty
strings, so the same pipelines run unchanged on a CSV dump.
Correctness is pinned by the ``transcripts_csv`` driver query, which
round-trips the transcripts table through CSV against the SAME DuckDB
oracle as the parquet source.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .io import engine_plan


def write_csv(ds, out_dir: str, *, timestamp_cols: list[str] | None = None) -> str:
    """Sharded CSV (one file per block), timestamps as ISO strings."""
    ts_cols = timestamp_cols or []
    if ts_cols:

        def to_iso(t: pa.Table) -> pa.Table:
            for c in ts_cols:
                if c in t.column_names:
                    i = t.column_names.index(c)
                    col = t.column(c)
                    if pa.types.is_temporal(col.type):
                        t = t.set_column(i, c, pc.cast(col, pa.string()))
            return t

        ds = ds.map_batches(to_iso, batch_format="pyarrow")
    ds.write_csv(out_dir)
    return out_dir


def read_csv(path, *, timestamp_cols: list[str] | None = None,
             string_cols: list[str] | None = None, **kwargs):
    """Read a CSV file/directory; listed timestamp columns parse from
    ISO-8601 back to ``timestamp[us]``.  ``string_cols`` names columns
    the CSV reader may mis-infer (an all-empty shard infers null type)
    that must come back as strings."""
    import ray.data as rd

    ds = engine_plan(rd.read_csv(path, **kwargs))
    ts_cols = timestamp_cols or []
    str_cols = string_cols or []

    def restore(t: pa.Table) -> pa.Table:
        for c in ts_cols:
            if c in t.column_names:
                i = t.column_names.index(c)
                col = t.column(c)
                if not pa.types.is_temporal(col.type):
                    t = t.set_column(i, c, col.cast(pa.string()).cast(pa.timestamp("us")))
                elif col.type != pa.timestamp("us"):
                    t = t.set_column(i, c, pc.cast(col, pa.timestamp("us")))
        for c in str_cols:
            if c in t.column_names:
                i = t.column_names.index(c)
                col = t.column(c)
                if not pa.types.is_string(col.type):
                    col = col.cast(pa.string())
                # CSV cannot distinguish null from "": restore the
                # parquet convention (missing value = null)
                col = pc.if_else(pc.equal(pc.fill_null(col, ""), ""),
                                 pa.scalar(None, pa.string()), col)
                t = t.set_column(i, c, col)
        return t

    return ds.map_batches(restore, batch_format="pyarrow")
