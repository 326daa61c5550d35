"""Per-column data-quality profiling (the deequ/great-expectations
surface): row count, null count, exact distinct count, min and max for
every requested column, as one long-format table.

Scale shape — a fold and a bounded exchange, never a row-sized collect:

- **count/null/min/max**: per-batch partials (ONE row per column per
  batch) merge through :func:`stages.fold.fold`; min/max stay TYPED
  through the merge (an int column's min must compare numerically, not
  lexicographically) and stringify only in the final row assembly.
- **exact distinct**: batches forward their DISTINCT (column, value)
  pairs only — the exchange is bounded by per-batch cardinality, a
  million repeats of one value forward one row; each pair lands in
  exactly one hash partition, so partition-local distinct counts sum
  to the exact global count.  NULLs are excluded, matching SQL
  ``count(DISTINCT x)``.
- final assembly joins the two ≤ num-columns-row tables driver-side —
  O(columns) driver state, the documented small-by-contract collect.

Values render as strings in the output (``min_val`` / ``max_val``) so
heterogeneous columns share one schema; int64 renders via ``str()``,
which matches SQL ``CAST(BIGINT AS VARCHAR)`` exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from logstash_filter_elastic_integration_ray.stages.exchange import exchange
from logstash_filter_elastic_integration_ray.stages.fold import fold


def _stats_partial(t: pa.Table, columns: list[str]) -> pa.Table:
    rows = []
    for c in columns:
        col = t.column(c)
        n = len(col)
        n_null = col.null_count
        is_int = pa.types.is_integer(col.type)
        mn_i = mx_i = None
        mn_s = mx_s = None
        if n - n_null > 0:
            mn, mx = pc.min(col).as_py(), pc.max(col).as_py()
            if is_int:
                mn_i, mx_i = int(mn), int(mx)
            else:
                mn_s, mx_s = str(mn), str(mx)
        rows.append((c, n, n_null, mn_i, mx_i, mn_s, mx_s))
    return pa.table({
        "col_name": pa.array([r[0] for r in rows], type=pa.string()),
        "n": pa.array([r[1] for r in rows], type=pa.int64()),
        "n_null": pa.array([r[2] for r in rows], type=pa.int64()),
        "min_i": pa.array([r[3] for r in rows], type=pa.int64()),
        "max_i": pa.array([r[4] for r in rows], type=pa.int64()),
        "min_s": pa.array([r[5] for r in rows], type=pa.string()),
        "max_s": pa.array([r[6] for r in rows], type=pa.string()),
    })


def _stats_merge(df: pd.DataFrame) -> pd.DataFrame:
    g = df.groupby("col_name", sort=False)
    out = pd.DataFrame({
        "n": g["n"].sum(),
        "n_null": g["n_null"].sum(),
        "min_i": g["min_i"].min(),
        "max_i": g["max_i"].max(),
        "min_s": g["min_s"].min(),
        "max_s": g["max_s"].max(),
    }).reset_index()
    return out


def _distinct_pairs(t: pa.Table, columns: list[str]) -> pa.Table:
    names: list[pa.Array] = []
    vals: list[pa.Array] = []
    for c in columns:
        col = t.column(c)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        col = col.drop_null()  # SQL count(DISTINCT x) ignores NULLs
        u = pc.unique(col)
        # injective stringification per column: int64 via Arrow cast
        # (== str()), strings identity — columns never mix values
        s = u.cast(pa.string())
        names.append(pa.array(np.repeat(c, len(s)), type=pa.string()))
        vals.append(s)
    if not names:
        out = pa.table({"col_name": pa.array([], type=pa.string()),
                        "val": pa.array([], type=pa.string())})
    else:
        out = pa.table({
            "col_name": pa.concat_arrays(names),
            "val": pa.concat_arrays([v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v for v in vals]),
        })
    return out


def _distinct_count_partition(df: pd.DataFrame) -> pd.DataFrame:
    d = df.drop_duplicates(["col_name", "val"])
    return d.groupby("col_name", sort=False).size().rename("n_distinct").reset_index()


def profile_columns(ds, *, columns: list[str], num_partitions: int = 32) -> pd.DataFrame:
    """Profile ``columns`` of ``ds``; returns the long-format pandas
    frame (col_name, n, n_null, n_distinct, min_val, max_val) — one
    row per column, O(columns) driver state."""
    stats = fold(ds, lambda t: _stats_partial(t, columns).to_pandas(),
                 lambda parts: _stats_merge(pd.concat(parts, ignore_index=True)))
    if stats is None:  # no rows: every column counts 0
        stats = _stats_partial(pa.table({c: pa.nulls(0) for c in columns}), columns).to_pandas()
    # route by value so one column's universe spreads over partitions
    # (a per-column route would serialize the widest column)
    dist = exchange(ds.map_batches(lambda t: _distinct_pairs(t, columns), batch_format="pyarrow"),
                    "val", num_partitions, _distinct_count_partition, "pandas").to_pandas()
    if "col_name" not in dist.columns:
        # an all-null / empty input forwards no distinct pairs at all,
        # and Ray's empty groupby yields a column-less frame
        dist = pd.DataFrame({"col_name": pd.Series([], dtype=object),
                             "n_distinct": pd.Series([], dtype=np.int64)})
    dist = dist.groupby("col_name", sort=False)["n_distinct"].sum().reset_index()
    out = stats.merge(dist, on="col_name", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype(np.int64)
    is_int = out["min_i"].notna() | out["max_i"].notna()
    out["min_val"] = np.where(
        is_int, out["min_i"].map(lambda v: None if pd.isna(v) else str(int(v))),
        out["min_s"])
    out["max_val"] = np.where(
        is_int, out["max_i"].map(lambda v: None if pd.isna(v) else str(int(v))),
        out["max_s"])
    for c in ("min_val", "max_val"):  # None, not NaN, for absent extrema
        out[c] = out[c].where(pd.notna(out[c]), None)
    out = out[["col_name", "n", "n_null", "n_distinct", "min_val", "max_val"]]
    # deterministic row order: the caller's column order
    order = {c: i for i, c in enumerate(columns)}
    return (out.sort_values("col_name", key=lambda s: s.map(order))
            .reset_index(drop=True))
