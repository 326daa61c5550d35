"""Behavioral event analytics: ordered funnels and cohort retention.

Two classic product-analytics wide operators over an (entity, ts,
event_type) stream, built on the repo's standard thin-exchange idioms:

- **funnel_steps**: per entity, the earliest strictly-ordered
  completion chain of K named steps (first ``steps[0]``, then the
  first ``steps[1]`` AFTER it, ...).  Rows are pre-filtered to the
  step types, so the single co-partition by entity carries only
  funnel-relevant rows; each partition resolves its entities with K
  masked segment-min passes over the entity runs — never a per-entity
  loop.

- **cohort_retention**: entities cohorted by their first-activity
  period; the output counts, per (cohort period, periods since), how
  many of the cohort's entities were active.  The exchange carries
  DISTINCT (entity, period) pairs per batch — a batch with a million
  events for one (user, week) forwards one row — then one
  co-partition by entity joins first-period to activity and the tiny
  (cohort, offset) count matrix reduces via the group-counts idiom.

Reference parity note: the reference engine (a per-event ingest
processor) has no cross-event analytics; these are engine-native wide
stages for the training-data/analytics surface, same policy as
stages/windows.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from logstash_filter_elastic_integration_ray.stages import segments
from logstash_filter_elastic_integration_ray.stages.exchange import exchange

__all__ = ["funnel_steps", "cohort_retention"]


def funnel_steps(
    ds,
    *,
    key: str,
    ts_col: str,
    type_col: str,
    steps: list[str],
    num_partitions: int = 32,
):
    """Earliest strictly-increasing completion chain of ``steps`` per
    ``key``: ``step1_ts = min(ts | type = steps[0])``, then
    ``step{k}_ts = min(ts | type = steps[k-1] AND ts > step{k-1}_ts)``.

    Output: one row per entity that entered the funnel (has any
    ``steps[0]`` event) with ``step{k}_ts`` timestamp columns (NULL
    once the chain breaks) and ``steps_completed``.

    Strictly-after semantics (``>``, not ``>=``): two steps sharing a
    timestamp do not both count, the standard ordered-funnel
    definition; the SQL twin uses the same comparison.

    A null ``ts_col`` on a step row raises ``ValueError``.

    Scale shape: the pre-filter to step types bounds the exchange at
    the funnel-relevant rows; per-partition work is K masked segment-min
    passes over the entity runs (:func:`funnel_partition`).  Entities
    hash-partition, so a single entity's events co-locate but distinct
    entities spread.
    """
    if len(steps) < 1:
        raise ValueError("funnel_steps: need at least one step")
    step_arr = pa.array(steps, type=pa.string())

    def prefilter(t: pa.Table) -> pa.Table:
        m = pc.is_in(t.column(type_col), value_set=step_arr)
        return t.filter(m).select([key, ts_col, type_col])

    def per_partition(df: pd.DataFrame) -> pa.Table:
        return funnel_partition(df, key=key, ts_col=ts_col, type_col=type_col, steps=steps)

    # NOTE: a funnel nobody entered yields a zero-ROW dataset; Ray
    # 2.49's to_pandas() drops the column schema of all-empty datasets
    # (map_batches UDFs are skipped on empty blocks, so a
    # schema-restoring guard can't fire either) — callers branching on
    # emptiness should check count() first, as the tests do.
    return exchange(ds.map_batches(prefilter, batch_format="pyarrow"), key,
                    num_partitions, per_partition, "pandas")


def funnel_partition(df: pd.DataFrame, *, key: str, ts_col: str, type_col: str,
                     steps: list[str]) -> pa.Table:
    """:func:`funnel_steps` over every row of the entities in ``df``:
    skip-till-next-match, one masked segment-min per step over each
    entity's run — step k's time is the least ts of a ``steps[k-1]``
    row after step k-1's."""
    codes, uniq = pd.factorize(df[key], use_na_sentinel=False)
    ts = df[ts_col].to_numpy()
    # factorize codes are dense in first-seen order, so run i is entity i
    r = segments.runs(codes, {ts_col: ts})
    ts_i = ts.astype("datetime64[us]").astype(np.int64)
    types = df[type_col].to_numpy()
    prev = np.ma.MaskedArray(np.full(len(uniq), np.iinfo(np.int64).min, dtype=np.int64))
    cols: dict[str, np.ma.MaskedArray] = {}
    completed = np.zeros(len(uniq), dtype=np.int64)
    for k, s in enumerate(steps, start=1):
        # an entity whose chain broke has prev masked: none of its rows pass
        cur = segments.min(r, ts_i, (types == s) & (ts_i > prev.data[codes])
                           & ~np.ma.getmaskarray(prev)[codes])
        completed += ~np.ma.getmaskarray(cur)
        cols[f"step{k}_ts"] = prev = cur
    entered = ~np.ma.getmaskarray(cols["step1_ts"])
    # the key from a row of each run: a null key stays null, not NaN
    first_rows = r.order[r.starts][entered]
    out: dict[str, pa.Array] = {key: pa.Array.from_pandas(df[key]).take(first_rows)}
    for name, vals in cols.items():
        out[name] = pa.array(vals[entered], type=pa.int64()).cast(pa.timestamp("us"))
    out["steps_completed"] = pa.array(completed[entered], type=pa.int64())
    return pa.table(out)


def cohort_retention(
    ds,
    *,
    key: str,
    ts_col: str,
    period_us: int = 7 * 24 * 3600 * 1_000_000,
    origin_us: int = 0,
    num_partitions: int = 32,
):
    """Cohort retention counts: entities cohort by the period of their
    FIRST activity (``floor((ts - origin) / period)``); for every
    (cohort_period, periods_since) cell, the number of the cohort's
    entities active in that later period.  ``periods_since = 0`` is the
    cohort size by construction.

    Output columns: ``cohort_period`` (int64 period index),
    ``periods_since`` (int64 ≥ 0), ``n_active`` (int64).

    Scale shape: batches forward DISTINCT (entity, period) pairs only;
    one co-partition by entity computes each entity's first period and
    emits its (cohort, offset) pairs; the resulting matrix is tiny
    (periods²) and reduces with a final co-partition by cohort.  No
    driver-side state anywhere.
    """

    def local_pairs(t: pa.Table) -> pa.Table:
        ts = (
            t.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        # exact int64 floor division (numpy floors toward -inf) — a
        # float64 divide+floor can mis-bin at exact period boundaries
        period = np.floor_divide(ts - np.int64(origin_us), np.int64(period_us))
        if len(period) and period.min() < 0:
            raise ValueError("cohort_retention: ts before origin")
        pairs = pa.table({key: t.column(key), "__period": pa.array(period)})
        # batch-local distinct: the exchange carries pairs, not rows
        df = pairs.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    def per_entity(df: pd.DataFrame) -> pa.Table:
        df = df.drop_duplicates()
        codes, _ = pd.factorize(df[key], use_na_sentinel=False)
        periods = df["__period"].to_numpy(dtype=np.int64)
        # factorize codes are dense, so run i is entity i
        cohort = segments.min(segments.runs(codes), periods).data[codes]
        return pa.table({
            "cohort_period": pa.array(cohort, type=pa.int64()),
            "periods_since": pa.array(periods - cohort, type=pa.int64()),
        })

    from logstash_filter_elastic_integration_ray.stages.aggregate import group_counts

    pairs = exchange(ds.map_batches(local_pairs, batch_format="pyarrow"), key,
                     num_partitions, per_entity, "pandas")

    def combine(t: pa.Table) -> pa.Table:
        combo = pc.add(
            pc.multiply(t.column("cohort_period"), pa.scalar(1 << 20, pa.int64())),
            t.column("periods_since"),
        )
        return pa.table({"__combo": combo})

    counted = group_counts(
        pairs.map_batches(combine, batch_format="pyarrow"),
        key="__combo", out_col="n_active", num_partitions=num_partitions,
    )

    def split(t: pa.Table) -> pa.Table:
        combo = t.column("__combo")
        return pa.table({
            "cohort_period": pc.divide(combo, pa.scalar(1 << 20, pa.int64())),
            "periods_since": pc.bit_wise_and(combo, pa.scalar((1 << 20) - 1, pa.int64())),
            "n_active": t.column("n_active"),
        })

    return counted.map_batches(split, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Markov transition matrix of per-entity event sequences
# ---------------------------------------------------------------------------


def markov_transitions(ds, *, key: str = "user_id",
                       order_cols: list[str] | None = None,
                       type_col: str = "event_type",
                       num_partitions: int = 32):
    """First-order Markov transition counts and probabilities over each
    entity's time-ordered event sequence — the product-analytics
    "what do users do next" matrix, the exact twin of::

        lead(type) OVER (PARTITION BY key ORDER BY order_cols...) pairs
        → GROUP BY (src, dst) → p = n / Σ_dst n

    Shape: ONE co-partition by entity (each partition lexsorts its
    entities and extracts adjacent pairs vectorized, emitting deduped
    (src, dst, cnt) partials — an entity with a million events forwards
    at most |types|² rows per block), then ONE exchange by src type
    where counts merge and the per-src marginal is a local sum.  The
    probability is one IEEE division on exact int64 counts (numpy and
    SQL agree bit-for-bit)."""
    order_cols = order_cols or ["ts", "event_id"]

    def pairs(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values([key] + order_cols, kind="mergesort")
        k = df[key].to_numpy()
        ty = df[type_col].to_numpy(dtype=object)
        if len(k) < 2:
            return pa.table({"src_type": pa.array([], type=pa.string()),
                             "dst_type": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        same = k[1:] == k[:-1]
        pf = pd.DataFrame({"src_type": ty[:-1][same], "dst_type": ty[1:][same]})
        cnt = pf.groupby(["src_type", "dst_type"], sort=False).size().reset_index(name="n")
        return pa.table({
            "src_type": pa.array(cnt["src_type"].to_numpy(dtype=object),
                                 type=pa.string()),
            "dst_type": pa.array(cnt["dst_type"].to_numpy(dtype=object),
                                 type=pa.string()),
            "n": pa.array(cnt["n"].to_numpy(dtype=np.int64)),
        })

    def finish(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby(["src_type", "dst_type"], sort=False)["n"].sum().reset_index()
        tot = agg.groupby("src_type", sort=False)["n"].transform("sum")
        n = agg["n"].to_numpy(dtype=np.int64)
        return pa.table({
            "src_type": pa.array(agg["src_type"].to_numpy(dtype=object),
                                 type=pa.string()),
            "dst_type": pa.array(agg["dst_type"].to_numpy(dtype=object),
                                 type=pa.string()),
            "n": pa.array(n),
            "p": pa.array(n.astype(np.float64)
                          / tot.to_numpy(dtype=np.int64).astype(np.float64)),
        })

    return exchange(exchange(ds, key, num_partitions, pairs, "pandas"), "src_type",
                    num_partitions, finish, "pandas")
