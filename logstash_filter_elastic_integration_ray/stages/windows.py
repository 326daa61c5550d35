"""Per-key ordered window analytics and exact distinct counting.

Two classic engine surfaces the corpus/aggregate stages don't cover:

- **grouped running aggregates** (``SUM(...) OVER (PARTITION BY key
  ORDER BY ...)`` / ``lag()``): every input row gets an output row, so
  the exchange necessarily carries the (thin) projected rows once —
  the minimum any window function must pay.  One co-partition by key
  hash, then ONE vectorized pass per partition over the key's sorted
  run from :func:`segments.runs` (segmented cumsums via run-boundary
  arithmetic — never a per-group Python loop; see
  stages/aggregate.py:_merge_table for why per-group Ray aggregates
  are ruled out).  Null keys, null order keys and ties follow the
  rules stated once in stages/segments.py.

- **exact count-distinct per group**: two-phase so the exchange
  carries *distinct (key, value) pairs per batch*, not rows — a batch
  with a million repeats of one pair forwards one row.  The final
  per-partition pass re-distincts and counts in pure Arrow, so exact
  int64 values (> 2^53) never round-trip through float64.

Reference parity note: the reference engine (a per-event ingest
processor, EventProcessor.java:91-108) has no window functions; these
are engine-native wide stages for the training-data-pipeline surface.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import segments
from .corpus import _bounds, _range_part

from logstash_filter_elastic_integration_ray.stages.aggregate import (
    _dict_codes,
    _first_occurrence_codes,
)

from .exchange import cogroup, exchange

__all__ = [
    "grouped_running",
    "grouped_running_scan",
    "grouped_rank_stats",
    "grouped_shift",
    "counter_increase",
    "grouped_ewma",
    "gapfill_resample",
    "distinct_count_by",
    "unpivot",
]


def _order_view(arr: np.ndarray) -> np.ndarray:
    """Sortable int64/float view of an order column (timestamps →
    microseconds)."""
    if arr.dtype.kind == "M":
        return arr.astype("datetime64[us]").astype(np.int64)
    return arr


def _window_runs(df: pd.DataFrame, key: str, order_cols: list[str]) -> segments.Runs:
    """``df``'s rows in per-key runs ordered by ``order_cols`` — the one
    sort behind every window plan here (grouped_running's partition
    pass and grouped_running_scan's final chunk alike)."""
    codes, _ = pd.factorize(df[key], use_na_sentinel=False)
    return segments.runs(codes, {c: df[c].to_numpy() for c in order_cols})


def _value_vector(series: pd.Series) -> np.ndarray:
    """value_col → null-free numpy vector: int64 when the source is
    integer-typed (exact, order-independent sums), float64 otherwise;
    nulls contribute 0 (the ``sum(coalesce(v, 0))`` twin)."""
    s = pd.to_numeric(series, errors="raise").fillna(0)
    return s.to_numpy(
        dtype=np.int64 if pd.api.types.is_integer_dtype(s) else np.float64
    )


def grouped_running(
    ds,
    *,
    key: str,
    order_cols: list[str],
    value_col: str,
    cnt_col: str = "run_cnt",
    sum_col: str = "run_sum",
    gap_col: str | None = "gap",
    min_col: str | None = None,
    max_col: str | None = None,
    num_partitions: int = 32,
    frame_rows: int | None = None,
):
    """Running (cumulative) count + sum of ``value_col`` per ``key``
    group in ``order_cols`` order, plus the lag delta of the first
    order column — the exact twin of::

        count(*)              OVER w  AS cnt_col
        sum(coalesce(v, 0))   OVER w  AS sum_col
        order0 - lag(order0)  OVER w  AS gap_col   -- NULL on group firsts
        min(v)                OVER w  AS min_col   -- when requested;
        max(v)                OVER w  AS max_col   -- nulls skipped,
                                                   -- all-null frame → NULL
        WINDOW w AS (PARTITION BY key ORDER BY order0, order1, ...
                     ROWS UNBOUNDED PRECEDING)

    ``frame_rows=f`` bounds the frame to ``ROWS BETWEEN f-1 PRECEDING
    AND CURRENT ROW`` (the rolling-window form): the sum/count cover
    the last ``f`` rows of the group, computed as a prefix-sum
    difference — still one vectorized pass, no per-row loop.  (The
    scan twin :func:`grouped_running_scan` intentionally does NOT take
    ``frame_rows``: a bounded frame needs the previous chunk's last
    ``f`` rows per key, which breaks its thin partials contract.)

    Determinism: pass order columns whose tuple is UNIQUE per key
    (e.g. ``[ts, event_id]``) — otherwise the running values at tied
    rows are order-dependent.  Order columns must be non-null (SQL
    null-ordering is dialect-dependent; this raises instead of
    guessing).  ``value_col`` should be int64 for an exactly
    order-independent sum (convert money to cents upstream); nulls in
    it contribute 0.  Timestamp order columns emit ``gap_col`` in
    MICROSECONDS (int64).

    Shape: one co-partition by key hash (every row must meet its
    group — the irreducible exchange of a window function; project to
    the needed columns BEFORE calling), then one sort into key runs + segmented
    cumsum per partition.  Output = input columns + the appended
    window columns, one row per input row.
    """

    # min/max output dtype follows the ARROW source type, exactly like
    # the scan twin — the per-partition pandas view degrades a
    # null-bearing int64 column to float64, which must not leak into a
    # per-plan dtype difference
    ext_is_int = (
        _col_is_integer(ds, value_col)
        if (min_col is not None or max_col is not None)
        else False
    )

    def per_partition(df: pd.DataFrame) -> pa.Table:
        orders = [df[c].to_numpy() for c in order_cols]
        r = _window_runs(df, key, order_cols)
        order, g = r.order, r.ids
        # 1-based running count: position within group
        cnt = r.pos + 1
        v = _value_vector(df[value_col])
        vs = v[order]
        cs0 = np.r_[0, np.cumsum(vs)]  # padded prefix: cs0[i+1]-cs0[j] = sum(vs[j:i+1])
        idx = np.arange(len(g), dtype=np.int64)
        group_start = r.head
        if frame_rows is None:
            lo = group_start
        else:
            # ROWS BETWEEN frame_rows-1 PRECEDING AND CURRENT ROW,
            # clipped at the group's first row
            lo = np.maximum(group_start, idx - frame_rows + 1)
            cnt = np.minimum(cnt, frame_rows)
        run_sum = cs0[idx + 1] - cs0[lo]
        out = df.iloc[order].reset_index(drop=True)
        out[cnt_col] = cnt
        out[sum_col] = run_sum
        if min_col is not None or max_col is not None:
            # SQL min/max semantics: nulls are SKIPPED (unlike the
            # documented sum(coalesce(v,0)) twin), an all-null frame is
            # NULL.  Exact for int64 > 2^53: nulls become per-op
            # sentinels on the original integer values — never a
            # float64 NaN round trip (pandas rolling would do exactly
            # that).  Bounded frames use the block-decomposition
            # sliding-window extreme: with block size f, a length-f
            # window either equals one block or spans exactly two, so
            # window-extreme = op(block_suffix[left], block_prefix[i]).
            raw = pd.to_numeric(df[value_col], errors="raise")
            is_int = ext_is_int
            notnull = raw.notna().to_numpy()[order]
            if is_int and pd.api.types.is_integer_dtype(raw):
                # int64 path (plain OR nullable Int64): stays int64
                # end-to-end, exact past 2^53 — na_value only fills the
                # masked slots, which notnull re-masks to sentinels
                rvals = raw.to_numpy(dtype=np.int64, na_value=0)[order]
                sentinels = {"min": np.iinfo(np.int64).max, "max": np.iinfo(np.int64).min}
            else:
                # an int column that arrived as float64 (some pandas
                # conversions of null-bearing arrow ints do this) keeps
                # exactness below 2^53
                rvals = raw.to_numpy(dtype=np.float64, na_value=np.nan)[order]
                sentinels = {"min": np.inf, "max": -np.inf}
            nn0 = np.r_[0, np.cumsum(notnull.astype(np.int64))]
            win_nn = nn0[idx + 1] - nn0[lo]

            def window_extreme(kind: str) -> np.ndarray:
                op = np.minimum if kind == "min" else np.maximum
                x = np.where(notnull, rvals, sentinels[kind])
                gb = pd.Series(x).groupby(g)
                cum = (gb.cummin() if kind == "min" else gb.cummax()).to_numpy()
                if frame_rows is None:
                    return cum
                f = frame_rows
                n = len(x)
                nb = -(-n // f)
                xp = np.r_[x, np.full(nb * f - n, sentinels[kind], dtype=x.dtype)]
                xp = xp.reshape(nb, f)
                pre = op.accumulate(xp, axis=1).ravel()[:n]
                suf = op.accumulate(xp[:, ::-1], axis=1)[:, ::-1].ravel()[:n]
                left = idx - f + 1
                win = op(suf[np.maximum(left, 0)], pre)
                # clipped at the group start (lo > left, incl. left<0):
                # the grouped cumulative IS the [group_start..i] extreme
                return np.where(lo > left, cum, win)

            for kind, col in (("min", min_col), ("max", max_col)):
                if col is None:
                    continue
                vals = window_extreme(kind)
                if is_int and vals.dtype != np.int64:
                    # float-path values for an int source: zero the
                    # (to-be-masked) ±inf sentinel slots, then cast
                    vals = np.where(win_nn == 0, 0, vals).astype(np.int64)
                arr = pd.array(vals, dtype="Int64" if is_int else "Float64")
                arr[win_nn == 0] = pd.NA  # empty (all-null) frame → SQL NULL
                out[col] = arr
        if gap_col is not None:
            o0 = _order_view(orders[0])[order]
            gap = np.empty(len(g), dtype=np.float64)
            gap[1:] = (o0[1:] - o0[:-1]).astype(np.float64)
            gap[r.new] = np.nan
            out[gap_col] = pd.array(
                np.where(np.isnan(gap), None, gap), dtype="Int64"
            )
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return exchange(ds, key, num_partitions, per_partition, "pandas")


def grouped_shift(
    ds,
    *,
    key: str,
    order_cols: list[str],
    value_col: str,
    lag: int | None = 1,
    lead: int | None = None,
    lag_col: str = "lag_v",
    lead_col: str = "lead_v",
    delta_col: str | None = None,
    num_partitions: int = 32,
):
    """Per-key ordered lead/lag of ``value_col`` — the exact twin of::

        lag(v, L)   OVER w  AS lag_col    -- when lag is given
        lead(v, D)  OVER w  AS lead_col   -- when lead is given
        v - lag(v, L) OVER w AS delta_col -- when delta_col is given
        WINDOW w AS (PARTITION BY key ORDER BY order0, order1, ...)

    SQL lag/lead semantics: offsets past the group boundary are NULL
    (no default-value form), and a NULL at the offset row stays NULL.
    ``delta_col`` is NULL wherever the lag is NULL or either value is
    NULL.  Order columns must be non-null and their tuple UNIQUE per
    key (same determinism contract as :func:`grouped_running`).

    dtype discipline: an integer source shifts as nullable Int64 —
    exact past 2^53, never a float64 NaN round trip; a float source
    shifts as Float64.  The delta of an integer source is Int64.

    Shape: identical to :func:`grouped_running` — one co-partition by
    key hash (the irreducible window exchange; project to the needed
    columns BEFORE calling), then one sort into key runs + index arithmetic
    per partition.  One output row per input row."""
    if lag is None and lead is None:
        raise ValueError("grouped_shift: need lag and/or lead")
    if delta_col is not None and lag is None:
        raise ValueError("grouped_shift: delta_col requires lag")
    ext_is_int = _col_is_integer(ds, value_col)

    def per_partition(df: pd.DataFrame) -> pa.Table:
        r = _window_runs(df, key, order_cols)
        order = r.order
        n = len(order)
        idx = np.arange(n, dtype=np.int64)
        group_start = r.head
        group_end = group_start + np.repeat(r.sizes, r.sizes) - 1
        raw = pd.to_numeric(df[value_col], errors="raise")
        notnull = raw.notna().to_numpy()[order]
        if ext_is_int and pd.api.types.is_integer_dtype(raw):
            vals = raw.to_numpy(dtype=np.int64, na_value=0)[order]
            out_dtype = "Int64"
        else:
            vals = raw.to_numpy(dtype=np.float64, na_value=0.0)[order]
            out_dtype = "Int64" if ext_is_int else "Float64"
            if ext_is_int:
                vals = vals.astype(np.int64)
        out = df.iloc[order].reset_index(drop=True)

        def shifted(offset: int) -> pd.arrays.IntegerArray:
            src = idx - offset
            ok = (src >= group_start) & (src <= group_end)
            src_c = np.clip(src, 0, n - 1)
            arr = pd.array(vals[src_c], dtype=out_dtype)
            arr[~(ok & notnull[src_c])] = pd.NA
            return arr, ok, src_c

        lag_arr = None
        if lag is not None:
            lag_arr, _, _ = shifted(lag)
            out[lag_col] = lag_arr
        if lead is not None:
            lead_arr, _, _ = shifted(-lead)
            out[lead_col] = lead_arr
        if delta_col is not None:
            cur = pd.array(vals, dtype=out_dtype)
            cur[~notnull] = pd.NA
            out[delta_col] = cur - lag_arr
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return exchange(ds, key, num_partitions, per_partition, "pandas")


def counter_increase(
    ds,
    *,
    key: str,
    order_cols: list[str],
    value_col: str,
    inc_col: str = "inc",
    num_partitions: int = 32,
):
    """Per-key increase of a cumulative counter with reset detection —
    the PromQL ``increase()`` convention over scraped counter readings
    (process restarts zero the counter, so a drop means "restarted";
    the post-reset reading itself is the increase since the reset).
    Exact twin of::

        CASE WHEN d IS NULL THEN NULL
             WHEN d < 0     THEN v      -- counter reset
             ELSE d END
        with d = v - lag(v) OVER (PARTITION BY key ORDER BY ...)

    NULL discipline follows SQL ``lag``: the first row of each key and
    any row whose own or previous reading is NULL gets a NULL increase
    (no PromQL-style null skipping — the SQL twin must be exact).

    Shape: composes :func:`grouped_shift` (the one irreducible window
    co-partition) with a stateless Arrow finish pass, so the exchange
    carries thin projected rows exactly once.  Integer counters stay
    exact int64 end-to-end."""
    shifted = grouped_shift(
        ds, key=key, order_cols=order_cols, value_col=value_col,
        lag=1, lag_col="__ctr_lag", delta_col="__ctr_d",
        num_partitions=num_partitions,
    )

    def finish(t: pa.Table) -> pa.Table:
        d = t.column("__ctr_d")
        v = t.column(value_col)
        # a float reading meeting an integer delta must round half away
        # from zero like SQL ``round`` — not truncate, and not Arrow's
        # default half-to-even — or the CASE twin diverges (unreachable
        # via grouped_shift today — its delta is float for float
        # sources — but pinned so a future caller can't silently hit it)
        if pa.types.is_integer(d.type) and pa.types.is_floating(v.type):
            v = pc.round(v, round_mode="half_towards_infinity")
        v = pc.cast(v, d.type)
        # Arrow if_else propagates a NULL condition to a NULL result,
        # which is exactly the CASE's d-IS-NULL branch
        inc = pc.if_else(pc.less(d, 0), v, d)
        keep = [c for c in t.column_names if c not in ("__ctr_lag", "__ctr_d")]
        return t.select(keep).append_column(inc_col, inc)

    return shifted.map_batches(finish, batch_format="pyarrow")


def grouped_rank_stats(
    ds,
    *,
    key: str,
    order_cols: list[str],
    peer_cols: list[str] | None = None,
    ntile: int | None = None,
    rank_col: str = "rnk",
    dense_col: str = "drnk",
    prank_col: str = "prnk",
    cdist_col: str = "cdist",
    ntile_col: str = "tile",
    num_partitions: int = 32,
):
    """The SQL rank family per ``key`` group — the exact twin of::

        rank()         OVER w  AS rank_col
        dense_rank()   OVER w  AS dense_col
        percent_rank() OVER w  AS prank_col   -- (rank-1)/(n-1), 0 if n=1
        cume_dist()    OVER w  AS cdist_col   -- peers_at_or_before / n
        ntile(T)       OVER wo AS ntile_col   -- when ntile is given
        WINDOW w  AS (PARTITION BY key ORDER BY peer_cols...),
               wo AS (PARTITION BY key ORDER BY order_cols...)

    Tie semantics are handled explicitly: ``peer_cols`` (default: all of
    ``order_cols``) defines the peer groups that rank/dense_rank/
    percent_rank/cume_dist share, while ``order_cols`` must be UNIQUE
    per key so that ntile's row positions — which SQL assigns by
    row_number, nondeterministic under ties — are deterministic here.
    Pass ``peer_cols`` as a strict prefix of ``order_cols`` to rank on
    a coarse key (many ties) while ntile splits on the full unique
    ordering, exactly as the two WINDOW clauses above do.

    percent_rank/cume_dist are single IEEE divisions of exact integers,
    so values are bit-identical to any engine computing the same
    definition.  ntile uses the standard allocation: with n rows and T
    tiles, the first ``n % T`` tiles get ``n//T + 1`` rows.

    Shape: identical to :func:`grouped_running` — one co-partition by
    key hash (the irreducible window exchange; project first), then one
    sort into key runs + boundary arithmetic per partition.  Ranks need the
    whole group co-located; for hot-key-skewed inputs rank (unlike
    running sums) cannot split across chunks without a second exchange,
    so this deliberately ships the hash plan only.  ``peer_cols`` must
    be a prefix of ``order_cols``.
    """
    peers = list(peer_cols) if peer_cols is not None else list(order_cols)
    if peers != list(order_cols)[:len(peers)]:
        raise ValueError(f"grouped_rank_stats: peer cols {peers!r} not a prefix of order_cols")

    def per_partition(df: pd.DataFrame) -> pa.Table:
        r = _window_runs(df, key, order_cols)
        order = r.order
        n = len(order)
        idx = np.arange(n, dtype=np.int64)
        group_start = r.head
        n_rows = np.repeat(r.sizes, r.sizes)
        # peer groups: runs of (key, peer cols) over the already sorted
        # rows (peers are a prefix of the order, so the sort keeps them)
        p = segments.runs((r.ids, *(_order_view(df[c].to_numpy())[order] for c in peers)))
        peer_first = p.head
        peer_last = peer_first + np.repeat(p.sizes, p.sizes) - 1
        rank = peer_first - group_start + 1
        dr_cum = np.cumsum(p.new.astype(np.int64))
        dense = dr_cum - dr_cum[group_start] + 1
        prank = np.where(n_rows > 1, (rank - 1) / np.maximum(n_rows - 1, 1), 0.0)
        cdist = (peer_last - group_start + 1) / n_rows
        out = df.iloc[order].reset_index(drop=True)
        out[rank_col] = rank
        out[dense_col] = dense
        out[prank_col] = prank
        out[cdist_col] = cdist
        if ntile is not None:
            pos = idx - group_start
            q, r = n_rows // ntile, n_rows % ntile
            big = r * (q + 1)  # rows covered by the (q+1)-sized tiles
            out[ntile_col] = np.where(
                pos < big, pos // np.maximum(q + 1, 1), r + (pos - big) // np.maximum(q, 1)
            ).astype(np.int64) + 1
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return exchange(ds, key, num_partitions, per_partition, "pandas")


def distinct_count_by(
    ds,
    *,
    key: str,
    val: str,
    out_col: str = "n_distinct",
    num_partitions: int = 32,
):
    """Exact ``count(DISTINCT val) GROUP BY key`` — SQL semantics: null
    values don't count (a group whose values are all null reports 0,
    and still appears), null keys form one group of their own.

    Two-phase: each batch forwards only its DISTINCT (key, val) pairs
    — a pair repeated a million times in one batch ships once, so a
    hot pair cannot widen the exchange; the exchange volume is bounded
    by the global distinct-pair count — then one co-partition by key
    hash and a per-partition re-distinct + count.  Everything stays
    Arrow end-to-end: exact int64 (> 2^53) keys and values never pass
    through pandas float64.

    Dedup is dictionary-encode + one ``np.unique`` over combined
    codes, NOT Arrow's multi-key ``Table.group_by``: pyarrow 16.1's
    multi-column grouper emits DUPLICATE groups when a key column
    holds nulls past a few dozen rows (reproduced: 1000 rows of
    ``("a", null|1)`` group to 57 rows instead of 2; single-column
    grouping is unaffected).
    """

    def _pair_codes(t: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(key_codes, val_codes, combined) with -1 = null — exact for
        any dtype because only dictionary INDICES are used."""
        kcodes = _dict_codes(t.column(key))
        vcodes = _dict_codes(t.column(val))
        combined = kcodes * np.int64(len(t) + 2) + vcodes
        return kcodes, vcodes, combined

    def local_distinct(t: pa.Table) -> pa.Table:
        t = t.select([key, val])
        if t.num_rows:
            _, _, combined = _pair_codes(t)
            _, first = np.unique(combined, return_index=True)
            t = t.take(np.sort(first))
        return t

    def per_partition(t: pa.Table) -> pa.Table:
        t = t.select([key, val])
        kcodes, vcodes, combined = _pair_codes(t)
        _, first = np.unique(combined, return_index=True)
        kc, vc = kcodes[first], vcodes[first]
        # one representative row index per key code (null key included)
        uk, rep = np.unique(kc, return_index=True)
        # distinct non-null values per key; all-null groups stay at 0
        pos = np.searchsorted(uk, kc[vc >= 0])
        counts = np.bincount(pos, minlength=len(uk)).astype(np.int64)
        return pa.table(
            {
                key: t.column(key).take(first[rep]),
                out_col: pa.array(counts, type=pa.int64()),
            }
        )

    return exchange(ds.map_batches(local_distinct, batch_format="pyarrow"), key,
                    num_partitions, per_partition, "pyarrow")


_NO_PREV = np.iinfo(np.int64).min  # sentinel: key has no earlier partition


def grouped_running_scan(
    ds,
    *,
    key: str,
    order_cols: list[str],
    value_col: str,
    cnt_col: str = "run_cnt",
    sum_col: str = "run_sum",
    gap_col: str | None = "gap",
    min_col: str | None = None,
    max_col: str | None = None,
    num_partitions: int = 32,
    bounds: tuple[int, int] | None = None,
):
    """Skew-safe twin of :func:`grouped_running` — identical output,
    different exchange: rows range-partition by the ORDER axis instead
    of hashing by key, so a hot key (one user holding half the events)
    spreads across all chunks instead of serializing one worker.

    ``min_col``/``max_col`` add ``min(v)/max(v) OVER w`` with the same
    SQL null-skipping semantics as the hash twin: the per-(key, chunk)
    partials carry mergeable min/max (nulls as per-op sentinels) plus a
    non-null count, the per-key prefix exchange adds their exclusive
    prefixes, and an all-null-so-far frame resolves to NULL.

    The classic distributed unbounded-preceding window plan:

    1. range-partition rows into contiguous ``order_cols[0]`` chunks
       (stages/corpus.py:_range_part — equal order values land in one
       chunk, so a key's rows are monotone across chunks);
    2. per-BATCH partials ``(key, chunk, sum, cnt, max_order)`` —
       segment reductions over (key, chunk) runs, no shuffle; a hot
       key adds ≤1 row per batch×chunk;
    3. per-key exclusive prefix over chunks: partials co-partition by
       key hash (the ONLY per-key exchange — thin rows bounded by
       keys × chunks, not data rows) → ``(key, chunk, base_sum,
       base_cnt, prev_order)``;
    4. bases union back with the rows (side-tagged, the
       stages/joins.py co-group trick), co-grouped by CHUNK: one local
       sorted scan per chunk plus per-key base offsets.

    Driver state is O(1) — the order bounds; nothing per-key or
    per-row is ever collected.  ``order_cols[0]`` must be int64-like
    (timestamps compare in microseconds); ``bounds`` (its min, max)
    skips the bounds pass.  Same semantics contract as
    :func:`grouped_running`: unique order tuple per key for
    determinism, non-null order columns, int64 ``value_col`` whose
    nulls contribute 0, timestamp gaps in microseconds.
    """
    order0 = order_cols[0]

    def _o0_int64(col):
        """Order column as int64 in MICROSECONDS for timestamps — the
        same unit :func:`_order_view` uses in the final pandas pass, so
        chunk-boundary ``prev_o`` values compare in one unit regardless
        of the source timestamp resolution (ns parquet vs us)."""
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.timestamp("us", getattr(col.type, "tz", None)))
        return col.cast(pa.int64())

    def project(t: pa.Table) -> pa.Table:
        for c in order_cols:
            if t.column(c).null_count:
                raise ValueError(f"grouped_running_scan: null in order column {c!r}")
        return t

    # exactly ONE full-data materialization: the projected rows are
    # consumed 2-3× (bounds pass, partials pass, final co-group), and
    # the cheap tag_range append-column map re-runs per consumer —
    # materializing `parted` TOO would double the object-store
    # footprint for no win
    ds = ds.map_batches(project, batch_format="pyarrow").materialize()

    # preserve the value dtype end-to-end: int64 stays exactly int64
    # (the hash twin's contract), float sums run in float64 — a silent
    # int64 truncation of float values would diverge from the twin
    val_is_int = _col_is_integer(ds, value_col)
    sum_pa = pa.int64() if val_is_int else pa.float64()
    sum_np = np.int64 if val_is_int else np.float64
    want_ext = min_col is not None or max_col is not None
    if val_is_int:
        SENT_MN, SENT_MX = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    else:
        SENT_MN, SENT_MX = np.inf, -np.inf

    if bounds is None:
        bounds = _bounds(ds, lambda b: _o0_int64(b.column(order0)).to_numpy(zero_copy_only=False))
        if bounds is None:
            raise ValueError("grouped_running_scan: empty dataset")
    lo, hi = bounds

    def tag_range(t: pa.Table) -> pa.Table:
        tmp = t.append_column("__o0int", _o0_int64(t.column(order0)))
        tmp = _range_part(tmp, "__o0int", lo, hi, num_partitions)
        return tmp.drop_columns("__o0int")

    # consumed twice (partials + final co-group) but NOT materialized:
    # it re-derives from the materialized projection with one cheap map
    parted = ds.map_batches(tag_range, batch_format="pyarrow")

    def batch_partials(t: pa.Table) -> pa.Table:
        """Per-(key, chunk) partial (sum, cnt, max_order) for one batch
        — segment sums keep int64 sums exact (bincount weights are
        float64)."""
        if t.num_rows == 0:
            cols = {
                key: t.column(key),
                "__chunk": pa.array([], type=pa.int64()),
                "s": pa.array([], type=sum_pa),
                "c": pa.array([], type=pa.int64()),
                "mo": pa.array([], type=pa.int64()),
            }
            if want_ext:
                cols["mn"] = pa.array([], type=sum_pa)
                cols["mx"] = pa.array([], type=sum_pa)
                cols["nn"] = pa.array([], type=pa.int64())
            return pa.table(cols)
        kcodes = _dict_codes(t.column(key))  # ≥ -1; -1 = null key
        chunk = t.column("__chunk").to_numpy().astype(np.int64)
        raw = pd.to_numeric(t.column(value_col).to_pandas(), errors="raise")
        v = raw.fillna(0).astype(sum_np).to_numpy()
        o = _o0_int64(t.column(order0)).to_numpy(zero_copy_only=False)
        r = segments.runs((kcodes, chunk))
        rep = r.order[r.starts]
        cols = {
            key: t.column(key).take(rep),
            "__chunk": pa.array(chunk[rep], type=pa.int64()),
            "s": pa.array(segments.sum(r, v), type=sum_pa),
            "c": pa.array(r.sizes, type=pa.int64()),
            "mo": pa.array(segments.max(r, o), type=pa.int64()),
        }
        if want_ext:
            # all-null runs keep the per-op sentinel (the identity), not
            # null: the prefix exchange merges them as values
            notnull = raw.notna().to_numpy()
            cols["mn"] = pa.array(segments.min(r, v, notnull).data, type=sum_pa)
            cols["mx"] = pa.array(segments.max(r, v, notnull).data, type=sum_pa)
            cols["nn"] = pa.array(segments.count(r, notnull), type=pa.int64())
        return pa.table(cols)

    partials = parted.map_batches(batch_partials, batch_format="pyarrow")

    def per_key_prefix(df: pd.DataFrame) -> pa.Table:
        """Merge one hash-partition's partials and emit, per (key,
        chunk), the exclusive prefix of (sum, cnt) over the key's
        earlier chunks plus the key's max order in its latest earlier
        chunk — everything the final scan needs."""
        codes, _ = pd.factorize(df[key], use_na_sentinel=False)
        chunk = df["__chunk"].to_numpy(dtype=np.int64)
        s = df["s"].to_numpy(dtype=sum_np)
        c = df["c"].to_numpy(dtype=np.int64)
        mo = df["mo"].to_numpy(dtype=np.int64)
        # collapse duplicate (key, chunk) partials from different batches
        r = segments.runs((codes, chunk))
        rep = r.order[r.starts]
        s2 = segments.sum(r, s).data
        c2 = segments.sum(r, c).data
        mo2 = segments.max(r, mo).data
        g2 = codes[rep]
        ch2 = chunk[rep]
        # rows are now sorted (key, chunk): segmented exclusive prefix
        k = segments.runs(g2)
        base_s = segments.prefix(k, s2)
        base_c = segments.prefix(k, c2)
        prev_o = np.empty(len(g2), dtype=np.int64)
        prev_o[1:] = mo2[:-1]
        prev_o[k.starts] = _NO_PREV
        out = df.iloc[rep].reset_index(drop=True)[[key]]
        out["__chunk"] = ch2  # range-chunk id — the co-group key below
        out["base_s"] = base_s
        out["base_c"] = base_c
        out["prev_o"] = prev_o
        if want_ext:
            mn = df["mn"].to_numpy(dtype=sum_np)
            mx = df["mx"].to_numpy(dtype=sum_np)
            nn = df["nn"].to_numpy(dtype=np.int64)
            mn2 = segments.min(r, mn).data
            mx2 = segments.max(r, mx).data
            nn2 = segments.sum(r, nn).data
            # exclusive per-key prefix min/max over chunks: shifted
            # segmented cummin/cummax, sentinel at each key's first chunk
            cmn = pd.Series(mn2).groupby(g2).cummin().to_numpy()
            cmx = pd.Series(mx2).groupby(g2).cummax().to_numpy()
            base_mn = np.empty_like(cmn)
            base_mx = np.empty_like(cmx)
            base_mn[1:], base_mx[1:] = cmn[:-1], cmx[:-1]
            base_mn[k.starts], base_mx[k.starts] = SENT_MN, SENT_MX
            out["base_mn"] = base_mn
            out["base_mx"] = base_mx
            out["base_nn"] = segments.prefix(k, nn2)
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    kparts = max(4, num_partitions // 4)
    bases = exchange(partials, key, kparts, per_key_prefix, "pandas")

    def final_chunk(rows: pd.DataFrame, bs: pd.DataFrame) -> pa.Table:
        if not len(rows):  # a chunk id no row fell into
            out = rows.drop(columns=["__chunk"])
            out[cnt_col] = np.zeros(0, dtype=np.int64)
            out[sum_col] = np.zeros(0, dtype=sum_np)
            for col in (min_col, max_col):
                if col is not None:
                    out[col] = pd.array([], dtype="Int64" if val_is_int else "Float64")
            if gap_col is not None:
                out[gap_col] = pd.array([], dtype="Int64")
            return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)
        # factorize rows' and bases' keys TOGETHER so codes align even
        # for null keys (Index.get_indexer does not match NaN↔None
        # reliably across dtypes)
        codes_all, uniques = pd.factorize(
            pd.concat([rows[key], bs[key]], ignore_index=True), use_na_sentinel=False
        )
        codes = codes_all[: len(rows)]
        bcodes = codes_all[len(rows):]
        orders = [rows[c].to_numpy() for c in order_cols]
        r = segments.runs(codes, dict(zip(order_cols, orders)))
        order, starts, sizes, new = r.order, r.starts, r.sizes, r.new
        g = codes[order]
        cnt = r.pos + 1
        v = _value_vector(rows[value_col]).astype(sum_np)
        vs = v[order]
        csum = np.cumsum(vs)
        local_base = np.repeat(np.r_[0, csum[starts[1:] - 1]], sizes)
        run_sum = csum - local_base
        # per-key offsets from the prefix exchange
        base_s = np.zeros(len(uniques), dtype=sum_np)
        base_c = np.zeros(len(uniques), dtype=np.int64)
        prev_o = np.full(len(uniques), _NO_PREV, dtype=np.int64)
        valid = bcodes >= 0
        base_s[bcodes[valid]] = bs["base_s"].to_numpy(dtype=sum_np)[valid]
        base_c[bcodes[valid]] = bs["base_c"].to_numpy(dtype=np.int64)[valid]
        prev_o[bcodes[valid]] = bs["prev_o"].to_numpy(dtype=np.int64)[valid]
        cnt = cnt + base_c[g]
        run_sum = run_sum + base_s[g]
        out = rows.iloc[order].reset_index(drop=True)
        out = out.drop(columns=["__chunk"])
        out[cnt_col] = cnt
        out[sum_col] = run_sum
        if want_ext:
            raw = pd.to_numeric(rows[value_col], errors="raise")
            notnull = raw.notna().to_numpy()[order]
            # within-chunk running min/max per key (sentinel-filled) …
            xmn = np.where(notnull, vs, SENT_MN)
            xmx = np.where(notnull, vs, SENT_MX)
            loc_mn = pd.Series(xmn).groupby(g).cummin().to_numpy()
            loc_mx = pd.Series(xmx).groupby(g).cummax().to_numpy()
            # … combined with the earlier-chunk prefix extremes
            base_mn_a = np.full(len(uniques), SENT_MN, dtype=sum_np)
            base_mx_a = np.full(len(uniques), SENT_MX, dtype=sum_np)
            base_nn_a = np.zeros(len(uniques), dtype=np.int64)
            base_mn_a[bcodes[valid]] = bs["base_mn"].to_numpy(dtype=sum_np)[valid]
            base_mx_a[bcodes[valid]] = bs["base_mx"].to_numpy(dtype=sum_np)[valid]
            base_nn_a[bcodes[valid]] = bs["base_nn"].to_numpy(dtype=np.int64)[valid]
            run_mn = np.minimum(loc_mn, base_mn_a[g])
            run_mx = np.maximum(loc_mx, base_mx_a[g])
            nn_cs = np.cumsum(notnull.astype(np.int64))
            loc_nn = nn_cs - np.repeat(np.r_[0, nn_cs[starts[1:] - 1]], sizes)
            win_nn = loc_nn + base_nn_a[g]
            for col, vals in ((min_col, run_mn), (max_col, run_mx)):
                if col is None:
                    continue
                arr = pd.array(vals, dtype="Int64" if val_is_int else "Float64")
                arr[win_nn == 0] = pd.NA  # all-null-so-far frame → SQL NULL
                out[col] = arr
        if gap_col is not None:
            o0 = _order_view(orders[0])[order]
            gap = np.empty(len(g), dtype=np.float64)
            gap[1:] = (o0[1:] - o0[:-1]).astype(np.float64)
            po = prev_o[g[new]]
            gap[new] = np.where(po == _NO_PREV, np.nan, (o0[new] - po).astype(np.float64))
            out[gap_col] = pd.array(np.where(np.isnan(gap), None, gap), dtype="Int64")
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return cogroup({"rows": (parted, "__chunk"), "bs": (bases, "__chunk")},
                   num_partitions, final_chunk, "pandas")


def _dataset_schema_of(ds) -> pa.Schema:
    s = ds.schema()
    return s.base_schema if hasattr(s, "base_schema") else s


def _col_is_integer(ds, col: str) -> bool:
    """Whether ``col`` is integer-typed, across Arrow AND pandas block
    schemas (``from_pandas`` datasets expose a PandasBlockSchema whose
    types are pandas dtypes, not Arrow fields)."""
    s = _dataset_schema_of(ds)
    if isinstance(s, pa.Schema):
        return pa.types.is_integer(s.field(col).type)
    t = dict(zip(s.names, s.types)).get(col)
    if isinstance(t, pa.DataType):
        return pa.types.is_integer(t)
    return pd.api.types.is_integer_dtype(t)





def unpivot(ds, *, id_cols: list[str], value_cols: list[str],
            var_col: str = "variable", val_col: str = "value"):
    """Wide → long melt: one output row per (input row, value column) —
    the exact twin of a ``UNION ALL`` of per-column selects (or SQL
    ``UNPIVOT INCLUDE NULLS``).  Stateless and embarrassingly parallel:
    a pure per-batch Arrow reshape, NO exchange at all — each batch
    melts in place and the streaming executor never shuffles.  Value
    columns must share (or cast to) a common Arrow type; output
    preserves nulls."""
    if not value_cols:
        raise ValueError("unpivot: value_cols must be non-empty")

    def melt(t: pa.Table) -> pa.Table:
        target = t.column(value_cols[0]).type
        pieces = []
        for c in value_cols:
            cols = {ic: t.column(ic) for ic in id_cols}
            cols[var_col] = pa.array([c] * t.num_rows, type=pa.string())
            cols[val_col] = t.column(c).cast(target)
            pieces.append(pa.table(cols))
        return pa.concat_tables(pieces)

    return ds.map_batches(melt, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# windowed event dedup (keep-first per key tuple within a tumbling window)
# ---------------------------------------------------------------------------

def _first_in_window(t: pa.Table, keys: list[str], ts_col: str, id_col: str,
                     win: np.ndarray) -> pa.Table:
    """Select each (keys..., window) tuple's first row by (ts, id) —
    one :func:`segments.runs`, no per-group loop.  ``win`` is the
    precomputed int64 window id per row."""
    r = segments.runs(tuple(t.column(k) for k in keys) + (win,),
                      {ts_col: t.column(ts_col).cast(pa.int64()),
                       id_col: t.column(id_col).cast(pa.int64())})
    keep = segments.first(r).data
    out = t.take(pa.array(keep, type=pa.int64()))
    return out.append_column("win", pa.array(win[keep]))


def window_dedup(ds, *, keys: list[str], ts_col: str = "ts",
                 id_col: str = "event_id", window_us: int,
                 num_partitions: int = 32):
    """Streaming-style event dedup: keep the FIRST row (by ``ts`` then
    ``id_col``) of each ``(keys..., tumbling window)`` tuple — the
    telemetry "suppress repeats within N minutes" operator.

    SQL twin: ``row_number() OVER (PARTITION BY keys...,
    epoch_us(ts) // W ORDER BY ts, id) = 1``.  Window ids are exact
    int64 floor-divisions (never float, whose 2^53 rounding could flip
    a boundary event into the neighboring window).

    Shape: each batch collapses to ≤ one row per live tuple BEFORE the
    exchange (a hot key re-firing millions of times in one window
    forwards one row per block), then one co-partition by ``keys[0]``
    finishes the argmin.  Output rows = survivors with their ``win``
    id; volume bounded by distinct tuples, not input rows."""

    def win_ids(t: pa.Table) -> np.ndarray:
        us = t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return us // np.int64(window_us)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            out = t.append_column("win", pa.array([], type=pa.int64()))
        else:
            out = _first_in_window(t, keys, ts_col, id_col, win_ids(t))
        return out

    def merge(t: pa.Table) -> pa.Table:
        win = t.column("win").to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.drop_columns(["win"])
        return _first_in_window(t, keys, ts_col, id_col, win)

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), keys[0],
                    num_partitions, merge, "pyarrow")


# ---------------------------------------------------------------------------
# time-RANGE window frames (RANGE BETWEEN INTERVAL ... PRECEDING AND CURRENT)
# ---------------------------------------------------------------------------

def grouped_range_sum(ds, *, key: str, ts_col: str, val_col: str,
                      range_us: int, sum_col: str = "range_sum",
                      cnt_col: str = "range_cnt", num_partitions: int = 32):
    """Time-range window aggregate — the frame the ROWS-based
    :func:`grouped_running` cannot express::

        sum(v)   OVER w AS sum_col
        count(*) OVER w AS cnt_col
        WINDOW w AS (PARTITION BY key ORDER BY ts
                     RANGE BETWEEN <range_us> PRECEDING AND CURRENT ROW)

    RANGE semantics exactly: the frame is every row of the group with
    ``ts`` in ``[ts_i − range_us, ts_i]`` INCLUSIVE — including peers
    of the current row that appear after it.  ``val_col`` must be
    int64 (convert money to cents upstream) so the prefix-sum
    difference is exact and order-independent; NULL values contribute
    0 to the sum but still count (SQL ``count(*)``).

    One co-partition by key, then ONE fully vectorized pass per
    partition — no per-group loop: rows sort into (key) runs by ts and each
    segment is lifted onto a disjoint int64 band
    (``seg_id·span + (ts − t_min)`` with ``span > ts-range + range_us``),
    which makes the whole partition ONE sorted axis where two global
    ``searchsorted`` calls find every row's frame bounds; frame sums
    are global-prefix-sum differences.  Falls back to a per-segment
    loop only if the band arithmetic would overflow int64 (≈ 4·10¹⁸ —
    key-cardinality × time-range far beyond any real partition)."""

    def run(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        if n == 0:
            out = df.copy()
            out[sum_col] = pd.Series([], dtype=np.int64)
            out[cnt_col] = pd.Series([], dtype=np.int64)
            return out
        if df[ts_col].isna().any():
            raise ValueError(
                f"grouped_range_sum: null {ts_col!r} (SQL null-ordering "
                "is dialect-dependent; filter or fill first)")
        codes = _dict_codes(pa.Array.from_pandas(df[key]))
        ts = df[ts_col].astype("int64").to_numpy()
        vals = df[val_col].fillna(0).astype(np.int64).to_numpy()
        r = segments.runs(codes, (ts,))
        order = r.order
        st, sv = ts[order], vals[order]
        seg_id = r.ids
        t0 = int(st.min())
        rel = st - t0
        span = int(rel.max()) + int(range_us) + 2
        n_segs = int(seg_id[-1]) + 1
        csum = np.cumsum(sv)
        if n_segs * span < (1 << 62):
            adj = seg_id * np.int64(span) + rel
            lo = np.searchsorted(adj, adj - np.int64(range_us), side="left")
            hi = np.searchsorted(adj, adj, side="right")
        else:  # pragma: no cover - astronomically large band fallback
            lo = np.empty(n, dtype=np.int64)
            hi = np.empty(n, dtype=np.int64)
            for s, e in zip(r.starts, r.starts + r.sizes):
                lo[s:e] = s + np.searchsorted(st[s:e], st[s:e] - range_us, "left")
                hi[s:e] = s + np.searchsorted(st[s:e], st[s:e], "right")
        sums_sorted = csum[hi - 1] - np.where(lo > 0, csum[np.maximum(lo - 1, 0)], 0)
        cnts_sorted = hi - lo
        sums = np.empty(n, dtype=np.int64)
        cnts = np.empty(n, dtype=np.int64)
        sums[order] = sums_sorted
        cnts[order] = cnts_sorted
        out = df.copy()
        out[sum_col] = sums
        out[cnt_col] = cnts
        return out

    return exchange(ds, key, num_partitions, run, "pandas")


# ---------------------------------------------------------------------------
# whole-partition broadcast window functions (first/last value, totals, share)
# ---------------------------------------------------------------------------

def group_broadcast(ds, *, key: str, order_cols: list[str], val_col: str,
                    num_partitions: int = 32):
    """The whole-partition window family — every row receives its
    group's aggregates::

        first_value(v) OVER (PARTITION BY key ORDER BY o...)   AS first_val
        last_value(v)  OVER (... ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND UNBOUNDED FOLLOWING)      AS last_val
        sum(v)   OVER (PARTITION BY key)                       AS grp_sum
        count(*) OVER (PARTITION BY key)                       AS grp_cnt
        CASE WHEN grp_sum = 0 THEN NULL
             ELSE CAST(v AS DOUBLE) / grp_sum END              AS share

    ``val_col`` must be int64 (exact order-independent totals); order
    columns must be non-null and unique per key for deterministic
    first/last.  One co-partition by key, one :func:`segments.runs` +
    segment gather/sum per partition — no per-group loop."""

    def run(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        if n == 0:
            out = df.copy()
            for c, dt in (("first_val", np.int64), ("last_val", np.int64),
                          ("grp_sum", np.int64), ("grp_cnt", np.int64),
                          ("share", np.float64)):
                out[c] = pd.Series([], dtype=dt)
            return out
        r = segments.runs(pa.Array.from_pandas(df[key]),
                          {oc: df[oc].to_numpy() for oc in order_cols})
        v = df[val_col].fillna(0).astype(np.int64).to_numpy()
        fv = np.empty(n, dtype=np.int64)
        lv = np.empty(n, dtype=np.int64)
        gs = np.empty(n, dtype=np.int64)
        gc = np.empty(n, dtype=np.int64)
        fv[r.order] = v[segments.first(r).data][r.ids]
        lv[r.order] = v[segments.last(r).data][r.ids]
        gs[r.order] = segments.sum(r, v).data[r.ids]
        gc[r.order] = r.sizes[r.ids]
        share = np.where(gs != 0, v.astype(np.float64) / gs.astype(np.float64),
                         np.nan)
        out = df.copy()
        out["first_val"] = fv
        out["last_val"] = lv
        out["grp_sum"] = gs
        out["grp_cnt"] = gc
        out["share"] = share
        out.loc[gs == 0, "share"] = None
        return out

    return exchange(ds, key, num_partitions, run, "pandas")


def gapfill_resample(ds, *, key: str, ts_col: str, val_col: str,
                     every_us: int, bkt_col: str = "bkt",
                     sum_col: str = "bucket_sum", fill_col: str = "filled_sum",
                     num_partitions: int = 32):
    """Fixed-width time-bucket resample per key with gap generation and
    forward fill — the exact twin of::

        WITH b AS (SELECT k, epoch_us(ts) // E AS bkt,
                          sum(v) AS bucket_sum GROUP BY k, bkt),
             r AS (SELECT k, min(bkt) lo, max(bkt) hi FROM b GROUP BY k),
             g AS (SELECT k, unnest(range(lo, hi + 1)) AS bkt FROM r)
        SELECT g.k, g.bkt, b.bucket_sum,
               last_value(b.bucket_sum IGNORE NULLS)
                 OVER (PARTITION BY g.k ORDER BY g.bkt) AS filled_sum
        FROM g LEFT JOIN b USING (k, bkt)

    Generated gap buckets carry a NULL ``sum_col`` and the
    forward-filled ``fill_col``; a key's range starts at its first
    observed bucket, so the fill never reads before the group (every
    group's first bucket is present by construction — the vectorized
    fill exploits exactly this invariant).  ``val_col`` must be
    integer-valued (money → cents upstream; exact int64 sums).

    Shape: per-batch partial (key, bkt, sum) rows — the exchange is
    distinct (key, bucket) pairs per batch, never events — then ONE
    co-partition by key; per partition one segment-sum merge, one
    arange-difference bucket expansion, one maximum.accumulate fill.
    Output volume is Σ(hi−lo+1) per key: bounded by time-range/E per
    key, independent of event count."""
    E = int(every_us)

    def partial(t: pa.Table) -> pa.Table:
        ts = t.column(ts_col).cast(pa.int64()).to_numpy()
        v = t.column(val_col).to_numpy(zero_copy_only=False).astype(np.int64)
        bkt = ts // E
        kcol = t.column(key)
        r = segments.runs((kcol, bkt))
        rep = r.order[r.starts]
        return pa.table({
            key: kcol.take(pa.array(rep, type=pa.int64())),
            bkt_col: pa.array(bkt[rep], type=pa.int64()),
            sum_col: pa.array(segments.sum(r, v), type=pa.int64()),
        })

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        codes, _ = pd.factorize(df[key], use_na_sentinel=False)
        bkt = df[bkt_col].to_numpy()
        # merge duplicate (key, bkt) partials, then one run per key
        r = segments.runs((codes, bkt))
        rep = r.order[r.starts]
        b = bkt[rep]
        s = segments.sum(r, df[sum_col].to_numpy()).data
        k = segments.runs(codes[rep])
        gstarts, gsizes = k.starts, k.sizes
        lo = b[gstarts]
        hi = b[gstarts + gsizes - 1]
        out_sizes = (hi - lo + 1).astype(np.int64)
        total = int(out_sizes.sum())
        goff = np.r_[0, np.cumsum(out_sizes)[:-1]]
        row_g = np.repeat(np.arange(len(gstarts)), out_sizes)
        flat_b = (np.arange(total, dtype=np.int64) - np.repeat(goff, out_sizes)
                  + np.repeat(lo, out_sizes))
        pos = (b - np.repeat(lo, gsizes)) + np.repeat(goff, gsizes)
        vals = np.zeros(total, dtype=np.int64)
        present = np.zeros(total, dtype=bool)
        vals[pos] = s
        present[pos] = True
        # forward fill: every group's first slot is present (lo = first
        # observed bucket), so a global maximum.accumulate of
        # last-present-index cannot leak across groups
        lastp = np.maximum.accumulate(
            np.where(present, np.arange(total, dtype=np.int64), -1))
        filled = vals[lastp]
        keys_first = df[key].to_numpy()[rep][gstarts]
        out = pd.DataFrame({key: keys_first[row_g]})
        out[bkt_col] = flat_b
        out[sum_col] = pd.array(vals, dtype="Int64")
        out.loc[~present, sum_col] = pd.NA
        out[fill_col] = filled
        return out

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), key,
                    num_partitions, per_partition, "pandas")


# ---------------------------------------------------------------------------
# interval coalescing (gaps-and-islands)
# ---------------------------------------------------------------------------


def merge_intervals(ds, *, key: str, start_col: str, end_col: str,
                    num_partitions: int = 32):
    """Coalesce overlapping-or-touching [start, end] intervals per key —
    the classic gaps-and-islands reduction (the availability/outage
    merge every ops pipeline runs).  Output one row per merged island:
    (key, start, end, n_merged).

    Semantics match the standard SQL formulation: an interval starts a
    new island iff its start is strictly greater than the running max
    end of all earlier intervals of the key (ordered by start, then
    end); touching intervals (start == prev end) MERGE.

    Shape: ONE co-partition by key, then one :func:`segments.runs` +
    segmented running-max + cumsum island-id pass per partition —
    never a per-key loop.  Exact int64 end-to-end (timestamps ride as
    µs)."""

    def coalesce(df: pd.DataFrame) -> pa.Table:
        k = df[key].to_numpy()
        s = df[start_col].to_numpy()
        e = df[end_col].to_numpy()
        s_i = s.astype("datetime64[us]").astype(np.int64) if np.issubdtype(
            s.dtype, np.datetime64) else s.astype(np.int64)
        e_i = e.astype("datetime64[us]").astype(np.int64) if np.issubdtype(
            e.dtype, np.datetime64) else e.astype(np.int64)
        codes, _ = pd.factorize(k, use_na_sentinel=False)
        r = segments.runs(codes, (s_i, e_i))
        order = r.order
        codes, s_i, e_i = codes[order], s_i[order], e_i[order]
        n = len(codes)
        if not n:
            return pa.table({key: pa.array([], type=pa.int64()),
                             start_col: pa.array([], type=pa.int64()),
                             end_col: pa.array([], type=pa.int64()),
                             "n_merged": pa.array([], type=pa.int64())})
        # segmented running max of end within each key: pandas'
        # Cython groupby cummax — C-speed, no per-segment Python loop
        acc = pd.Series(e_i).groupby(codes).cummax().to_numpy(dtype=np.int64)
        prev_max = np.empty(n, dtype=np.int64)
        prev_max[1:] = acc[:-1]
        prev_max[r.starts] = np.iinfo(np.int64).min
        # islands are runs of the sorted rows: a new key or a start past
        # every earlier end of the key
        isl = segments.runs(np.cumsum(r.new | (s_i > prev_max)))
        out_k = k[order][isl.starts]
        starts = s_i[isl.starts]
        # acc within a key is the running max; the island end is the
        # max end over the island's rows = its greatest acc value
        ends = segments.max(isl, acc).data
        counts = isl.sizes
        tkey = pa.array(out_k.astype(np.int64)) if np.issubdtype(
            out_k.dtype, np.integer) else pa.array(out_k, type=pa.string())
        st_dtype = df[start_col].dtype
        if np.issubdtype(st_dtype, np.datetime64):
            st_arr = pa.array(starts, type=pa.int64()).cast(pa.timestamp("us"))
            en_arr = pa.array(ends, type=pa.int64()).cast(pa.timestamp("us"))
        else:
            st_arr = pa.array(starts)
            en_arr = pa.array(ends)
        return pa.table({key: tkey, start_col: st_arr, end_col: en_arr,
                         "n_merged": pa.array(counts.astype(np.int64))})

    return exchange(ds, key, num_partitions, coalesce, "pandas")


# ---------------------------------------------------------------------------
# robust anomaly detection (median / MAD) over per-bucket counts
# ---------------------------------------------------------------------------


def _segment_median(codes: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exact per-group median of ``v`` (float64), returned row-aligned
    with the inputs: each group's run sorted by value, its middle rows
    picked by index.  Even-count groups average the two middles,
    matching DuckDB's ``median``/``quantile_cont(0.5)``; for values
    derived from modest int64 counts the average is exactly
    representable, so parity with the SQL twin is bitwise."""
    r = segments.runs(codes, (v,))
    sv = v[r.order]
    med = (sv[r.starts + (r.sizes - 1) // 2] + sv[r.starts + r.sizes // 2]) / 2.0
    out = np.empty(len(v), dtype=np.float64)
    out[r.order] = med[r.ids]
    return out


def mad_anomaly_counts(ds, *, group_col: str, bucket_col: str,
                       k: float = 3.0, out_col: str = "cnt",
                       num_partitions: int = 32):
    """Robust per-group spike detection over a per-bucket count series
    — the log-analytics "did this event type burst today?" primitive,
    done with median/MAD instead of mean/stddev so a single huge spike
    cannot mask itself by inflating its own baseline.

    Twin of::

        WITH c AS (SELECT g, b, count(*) AS cnt FROM t GROUP BY 1, 2),
             s AS (SELECT g, median(cnt) AS med, mad(cnt) AS mad
                   FROM c GROUP BY 1)
        SELECT c.g, c.b, c.cnt, s.med, s.mad,
               abs(cnt - med) > k * mad AS is_anomaly
        FROM c JOIN s USING (g)

    Shape: per-batch deduped (group, bucket, cnt) partials — a batch
    with a million rows of one (group, bucket) forwards ONE row — then
    ONE exchange by group hash; each partition finalizes counts and
    computes median + MAD with two sorted-run passes of index arithmetic
    (no per-group Python loop).  Driver state: none.  Output volume is
    the number of distinct (group, bucket) pairs — bounded by the time
    range, not the row count, so the exchange stays thin at any scale.
    Contract: one group's buckets fit in one partition (buckets are
    time-bounded; a 10-year hourly series is <1e5 rows per group).
    Null groups/buckets are excluded (the SQL twin's GROUP BY would
    keep them; callers wanting null groups pre-fill a sentinel)."""
    from .aggregate import _count_partials

    partials = _count_partials(ds, [group_col, bucket_col], out_col)

    def per_part(df: pd.DataFrame) -> pa.Table:
        g_dtype, b_dtype = df[group_col].dtype, df[bucket_col].dtype
        df = df.dropna(subset=[group_col, bucket_col])
        if not len(df):
            empty = pd.DataFrame({
                group_col: pd.Series(dtype=g_dtype),
                bucket_col: pd.Series(dtype=b_dtype),
                out_col: pd.Series(dtype=np.int64),
                "med": pd.Series(dtype=np.float64),
                "mad": pd.Series(dtype=np.float64),
                "is_anomaly": pd.Series(dtype=bool),
            })
            return pa.Table.from_pandas(empty, preserve_index=False).replace_schema_metadata(None)
        agg = (df.groupby([group_col, bucket_col], sort=False)[out_col]
               .sum().reset_index())
        codes, _ = pd.factorize(agg[group_col], sort=False)
        v = agg[out_col].to_numpy().astype(np.float64)
        med = _segment_median(codes, v)
        dev = np.abs(v - med)
        mad = _segment_median(codes, dev)
        agg["med"] = med
        agg["mad"] = mad
        agg["is_anomaly"] = dev > k * mad
        return pa.Table.from_pandas(agg, preserve_index=False).replace_schema_metadata(None)

    return exchange(partials, group_col, num_partitions, per_part, "pandas")


# ---------------------------------------------------------------------------
# heavy-change detection between two time windows
# ---------------------------------------------------------------------------


def heavy_change(ds, *, key: str, ts_col: str, a_range: tuple, b_range: tuple,
                 top_k: int = 50, num_partitions: int = 32):
    """Top-k keys whose event count changed most between two time
    windows (Cormode & Muthukrishnan's "what's new" deltoids question,
    answered exactly): the log-analytics "which users/endpoints
    changed behavior this week vs last week" primitive.

    Per-batch partials emit deduped (key, cnt_a, cnt_b) rows — only
    keys with at least one in-window row — then ONE exchange by key
    hash finalizes counts; each partition keeps its local top-k by
    (|delta| desc, key asc), so the final single-task cut sees at most
    ``num_partitions * top_k`` thin rows.  No driver state, no global
    sort.  Ties at the boundary are deterministic: (abs_delta desc,
    key asc) on both engines."""
    a0, a1 = a_range
    b0, b1 = b_range

    def partial(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        ts = t.column(ts_col)
        in_a = np.asarray(pc.and_(pc.greater_equal(ts, a0), pc.less(ts, a1)).fill_null(False))
        in_b = np.asarray(pc.and_(pc.greater_equal(ts, b0), pc.less(ts, b1)).fill_null(False))
        either = in_a | in_b
        kcol = t.column(key).filter(pa.array(either))
        if len(kcol) == 0:
            empty = pa.table({key: kcol,
                              "cnt_a": pa.array([], type=pa.int64()),
                              "cnt_b": pa.array([], type=pa.int64())})
            return empty
        codes, rep = _first_occurrence_codes(kcol)
        # float64 bincount weights are EXACT here: per-batch counts are
        # bounded by the batch row count (≪ 2^53); the cross-batch sum
        # happens downstream in int64 (pandas groupby sum)
        na = np.bincount(codes, weights=in_a[either].astype(np.float64),
                         minlength=len(rep)).astype(np.int64)
        nb = np.bincount(codes, weights=in_b[either].astype(np.float64),
                         minlength=len(rep)).astype(np.int64)
        out = pa.table({key: kcol.take(pa.array(rep, type=pa.int64())),
                        "cnt_a": pa.array(na), "cnt_b": pa.array(nb)})
        return out

    def _topk_frame(df: pd.DataFrame) -> pd.DataFrame:
        df["delta"] = df["cnt_b"] - df["cnt_a"]
        df["abs_delta"] = df["delta"].abs()
        df = df.sort_values(["abs_delta", key], ascending=[False, True],
                            kind="mergesort").head(top_k)
        return df[[key, "cnt_a", "cnt_b", "delta"]]

    def per_part(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby(key, sort=False)[["cnt_a", "cnt_b"]].sum().reset_index()
        return pa.Table.from_pandas(_topk_frame(agg), preserve_index=False).replace_schema_metadata(None)

    def final_cut(df: pd.DataFrame) -> pd.DataFrame:
        # ≤ num_partitions * top_k rows reach this single task; keys are
        # already final (each key lives in exactly one partition)
        return _topk_frame(df)

    return (
        exchange(ds.map_batches(partial, batch_format="pyarrow"), key,
                 num_partitions, per_part, "pandas")
        .repartition(1)
        .map_batches(final_cut, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# start/end span pairing (event correlation)
# ---------------------------------------------------------------------------


def pair_spans(ds, *, key: str, ts_col: str, type_col: str,
               start_val: str, end_val: str, id_col: str,
               num_partitions: int = 32):
    """Correlate start/end event pairs per key and compute durations —
    the logstash `aggregate`-filter shape ("task started / task
    finished → how long did it take") as a batch op.

    Semantics (deterministic and SQL-expressible): per key, the n-th
    start event in (ts, id) order pairs with the n-th end event in
    (ts, id) order — the twin of two ``row_number()`` windows joined
    on (key, rn).  Starts without a matching end keep NULL
    end/duration (a LEFT join from the start side); surplus ends are
    dropped.  A start with a NULL key keeps a NULL end (``ON s.key =
    e.key`` never matches NULL), and a NULL ``ts_col`` on a start or end
    row raises ``ValueError`` (SQL null ordering is dialect-dependent).
    Rows of other types never ride the exchange — they are filtered in
    the per-batch pass, so the co-partition carries only start/end rows.
    One exchange by key hash, then :func:`pair_partition` per partition:
    one :func:`segments.runs` and each row's position in its run, no
    per-key loop."""

    def thin(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        tv = t.column(type_col)
        is_s = pc.equal(tv, start_val).fill_null(False)
        is_e = pc.equal(tv, end_val).fill_null(False)
        keep = pc.or_(is_s, is_e)
        sub = t.filter(keep)
        out = pa.table({
            key: sub.column(key),
            ts_col: sub.column(ts_col),
            id_col: sub.column(id_col),
            "__is_start": pc.equal(sub.column(type_col), start_val),
        })
        return out

    def per_part(t: pa.Table) -> pa.Table:
        return pair_partition(t, key=key, ts_col=ts_col, id_col=id_col)

    return exchange(ds.map_batches(thin, batch_format="pyarrow"), key,
                    num_partitions, per_part, "pyarrow")


def pair_partition(t: pa.Table, *, key: str, ts_col: str, id_col: str) -> pa.Table:
    """:func:`pair_spans` over every start/end row (``__is_start``) of
    the keys in ``t``.  Every output column keeps its Arrow type from
    ``t``, so partitions with and without a null key agree."""
    is_start = t.column("__is_start").to_numpy(zero_copy_only=False).astype(bool)
    kv = t.column(key)
    # rank each start/end within its (key, kind) lane in (ts, id) order
    r = segments.runs((kv, ~is_start), {ts_col: t.column(ts_col), id_col: t.column(id_col)})
    rn = np.empty(t.num_rows, dtype=np.int64)
    rn[r.order] = r.pos + 1
    # SQL's ON s.key = e.key never matches a NULL key
    is_end = ~is_start & kv.is_valid().to_numpy(zero_copy_only=False)

    def lane(mask, prefix: str) -> pa.Table:
        rows = pa.array(np.flatnonzero(mask))
        return pa.table({key: kv.take(rows), "rn": pa.array(rn[mask]),
                         f"{prefix}_ts": t.column(ts_col).take(rows),
                         f"{prefix}_id": t.column(id_col).take(rows)})

    out = lane(is_start, "start").join(lane(is_end, "end"), keys=[key, "rn"],
                                       join_type="left outer")

    def micros(c):
        if pa.types.is_timestamp(c.type):
            c = c.cast(pa.timestamp("us", c.type.tz), safe=False)
        return c.cast(pa.int64())

    dur = pc.subtract(micros(out.column("end_ts")), micros(out.column("start_ts")))
    out = out.append_column("duration_us", dur).select(
        [key, "rn", "start_ts", "start_id", "end_ts", "end_id", "duration_us"])
    return out.sort_by([(key, "ascending"), ("rn", "ascending")]).combine_chunks()


def grouped_ewma(ds, *, key: str, order_cols: list[str], value_col: str,
                 alpha: float = 0.25, out_col: str = "ewma",
                 num_partitions: int = 32):
    """Per-row exponentially weighted moving average of ``value_col``
    per ``key`` group in ``order_cols`` order — the classic log/metric
    smoothing baseline (Holt's level component; the EWMA half of every
    "deviation from smoothed baseline" anomaly detector).

    Recurrence (left fold, first value seeds the accumulator)::

        y_1 = x_1
        y_i = alpha * x_i + (1 - alpha) * y_{i-1}

    evaluated with EXACTLY the scalar IEEE op order
    ``alpha*x + (1-alpha)*acc`` at every step, so the output is
    bit-identical to DuckDB's sequential
    ``list_reduce(list_slice(vals, 1, rn), (acc, x) ->
    a*x + (1.0 - a)*acc)`` twin.  Nulls in ``value_col`` contribute
    0.0 (the ``coalesce(v, 0)`` convention shared with
    :func:`grouped_running`); order columns must be non-null and
    unique per key for determinism (pass ``[ts, event_id]``).

    Shape: one co-partition by key hash (the irreducible window
    exchange), then per partition ONE sort into key runs + a rank-sequential /
    key-parallel loop: iteration r updates ALL groups that still have
    an r-th row with one fused numpy expression, so the Python-level
    loop count is max(group size) per partition — never rows, and
    never a per-key loop.  The recurrence is non-associative as
    specified (an associative (mul, add) linear-scan lifting exists
    but changes float rounding, breaking the sequential twin), so a
    single pathological million-row key bounds the loop; keys at that
    scale should be pre-bucketed by time range upstream.

    Reference parity note: the reference engine (per-event ingest
    processors, EventProcessor.java:91-108) has no cross-event state;
    this is an engine-native wide stage for the log-analytics surface.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"grouped_ewma: alpha must be in (0, 1], got {alpha}")
    beta = 1.0 - alpha

    def per_partition(df: pd.DataFrame) -> pa.Table:
        if not len(df):
            out = df.copy()
            out[out_col] = pd.Series(dtype=np.float64)
            return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)
        r = _window_runs(df, key, order_cols)
        order, starts, sizes = r.order, r.starts, r.sizes
        vs = pd.to_numeric(df[value_col], errors="raise").fillna(0.0).to_numpy(
            dtype=np.float64)[order]
        out_vals = np.empty(len(order), dtype=np.float64)
        # rank 0 seeds: y_1 = x_1
        y = vs[starts].copy()
        out_vals[starts] = y
        for r in range(1, int(sizes.max())):
            act = sizes > r
            ix = starts[act] + r
            # fused per-group step, identical IEEE ops to the scalar
            # a*x + (1-a)*acc (two multiplies, one add, this order)
            y[act] = alpha * vs[ix] + beta * y[act]
            out_vals[ix] = y[act]
        out = df.iloc[order].reset_index(drop=True)
        out[out_col] = out_vals
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return exchange(ds, key, num_partitions, per_partition, "pandas")


def sequence_integrity(ds, *, key: str, idx_col: str,
                       num_partitions: int = 32):
    """Per-key ordinal-sequence validation — the transcript-pipeline
    integrity gate ("does every conversation have a contiguous,
    duplicate-free run of turn indexes?"), equally the log-shipper
    sequence-number audit.  Twin of::

        SELECT key, count(*) AS n_turns,
               count(DISTINCT idx)          AS n_distinct,
               min(idx) AS min_idx, max(idx) AS max_idx,
               max(idx) - min(idx) + 1 - count(DISTINCT idx) AS n_missing,
               count(*) - count(DISTINCT idx)                AS n_dups,
               ...both zero...                               AS is_contiguous
        FROM t GROUP BY key

    Shape: per-batch deduped (key, idx, cnt) partials — a million
    repeats of one (key, idx) forward ONE row — then ONE exchange by
    key hash and a per-partition vectorized finalize (counts sum
    exactly in int64).  Exchange volume is bounded by the distinct
    (key, idx) pair count, so a hot conversation cannot widen it.
    Null keys/indexes are excluded (pre-fill a sentinel upstream to
    audit them).

    Reference parity note: the reference processes events one at a
    time (EventProcessor.java:91-108) and cannot see cross-event
    sequence gaps; this is an engine-native wide validation stage.
    """
    from .aggregate import _count_partials

    partials = _count_partials(ds, [key, idx_col], "__cnt")

    def per_part(df: pd.DataFrame) -> pa.Table:
        k_dtype = df[key].dtype
        df = df.dropna(subset=[key, idx_col])
        if not len(df):
            empty = pd.DataFrame({
                key: pd.Series(dtype=k_dtype),
                "n_turns": pd.Series(dtype=np.int64),
                "n_distinct": pd.Series(dtype=np.int64),
                "min_idx": pd.Series(dtype=np.int64),
                "max_idx": pd.Series(dtype=np.int64),
                "n_missing": pd.Series(dtype=np.int64),
                "n_dups": pd.Series(dtype=np.int64),
                "is_contiguous": pd.Series(dtype=bool),
            })
            return pa.Table.from_pandas(empty, preserve_index=False).replace_schema_metadata(None)
        # finalize pair counts (partials may repeat a pair across batches)
        pair = (df.groupby([key, idx_col], sort=False)["__cnt"]
                .sum().reset_index())
        idx = pair[idx_col].to_numpy(dtype=np.int64)
        cnt = pair["__cnt"].to_numpy(dtype=np.int64)
        codes, _ = pd.factorize(pair[key], sort=False)
        r = segments.runs(codes)
        n_turns = segments.sum(r, cnt).data
        n_distinct = r.sizes.astype(np.int64)
        mins = segments.min(r, idx).data
        maxs = segments.max(r, idx).data
        n_missing = maxs - mins + 1 - n_distinct
        n_dups = n_turns - n_distinct
        out = pd.DataFrame({
            key: pair[key].iloc[r.order[r.starts]].reset_index(drop=True),
            "n_turns": n_turns,
            "n_distinct": n_distinct,
            "min_idx": mins,
            "max_idx": maxs,
            "n_missing": n_missing,
            "n_dups": n_dups,
            "is_contiguous": (n_missing == 0) & (n_dups == 0),
        })
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return exchange(partials, key, num_partitions, per_part, "pandas")


def psi_drift(ds, *, val_col: str, ts_col: str, a_range: tuple, b_range: tuple,
              lo: float, hi: float, nbins: int, num_partitions: int = 8):
    """Population Stability Index between two time windows of a value
    distribution — the standard "did this metric's distribution shift
    week-over-week?" data-quality diagnostic (the histogram complement
    of :func:`heavy_change`'s per-key count deltas).

    Fixed equal-width bins over ``[lo, hi)`` (out-of-range values clip
    to the edge bins; null values drop).  Per bin::

        p_a = n_a / total_a          p_b = n_b / total_b
        psi_term = (p_a - p_b) * ln(p_a / p_b)   -- NULL when either
                                                 -- side's count is 0

    ``sum(psi_term)`` is the PSI; the per-bin rows are emitted so the
    shifted bins are visible.  Float discipline: bin = clip(floor((v -
    lo) / w)) with one IEEE op order shared with the SQL twin, counts
    exact int64, ratios IEEE double division, ``ln`` via per-row glibc
    ``math.log`` for DuckDB ``ln()`` bit-parity (the keyness
    convention, stages/textstats.py:token_keyness).

    Shape: per-batch bincount partials (≤ 2·nbins thin rows per batch,
    independent of row count) → co-partition by bin → per-partition
    exact sums → ONE ≤ nbins-row block computes totals + PSI.  No
    driver state, nothing materializes."""
    import math

    if nbins < 1:
        raise ValueError("psi_drift: nbins must be >= 1")
    w = (hi - lo) / nbins
    a_lo, a_hi = (np.datetime64(x, "us") for x in a_range)
    b_lo, b_hi = (np.datetime64(x, "us") for x in b_range)
    bin_ids = np.arange(nbins, dtype=np.int64)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            out = pa.table({
                "bin": pa.array([], type=pa.int64()),
                "n_a": pa.array([], type=pa.int64()),
                "n_b": pa.array([], type=pa.int64()),
            })
            return out
        ts = t.column(ts_col).to_numpy().astype("datetime64[us]")
        v_arr = t.column(val_col)
        if isinstance(v_arr, pa.ChunkedArray):
            v_arr = v_arr.combine_chunks()
        notnull = pc.is_valid(v_arr).to_numpy(zero_copy_only=False)
        v = np.asarray(v_arr.to_numpy(zero_copy_only=False), dtype=np.float64)
        in_a = (ts >= a_lo) & (ts < a_hi) & notnull
        in_b = (ts >= b_lo) & (ts < b_hi) & notnull
        keep = in_a | in_b
        bins = np.clip(np.floor((v[keep] - lo) / w), 0, nbins - 1).astype(np.int64)
        side_a = in_a[keep]
        n_a = np.bincount(bins[side_a], minlength=nbins).astype(np.int64)
        n_b = np.bincount(bins[~side_a], minlength=nbins).astype(np.int64)
        out = pa.table({"bin": bin_ids, "n_a": n_a, "n_b": n_b})
        return out

    def per_part(t: pa.Table) -> pa.Table:
        b = t.column("bin").to_numpy()
        r = segments.runs(b)
        return pa.table({
            "bin": b[r.order[r.starts]],
            "n_a": segments.sum(r, t.column("n_a").to_numpy()).data,
            "n_b": segments.sum(r, t.column("n_b").to_numpy()).data,
        })

    def final(t: pa.Table) -> pa.Table:
        b = t.column("bin").to_numpy()
        na = t.column("n_a").to_numpy()
        nb = t.column("n_b").to_numpy()
        # bins with no rows on either side don't exist in the SQL
        # twin's GROUP BY (bincount minlength materialized them)
        nz = (na + nb) > 0
        b, na, nb = b[nz], na[nz], nb[nz]
        ta = int(na.sum())
        tb = int(nb.sum())
        p_a = np.empty(len(b)); p_b = np.empty(len(b))
        psi = np.full(len(b), np.nan)
        for i in range(len(b)):  # ≤ nbins rows: glibc ln per row
            p_a[i] = na[i] / ta
            p_b[i] = nb[i] / tb
            if na[i] > 0 and nb[i] > 0:
                psi[i] = (p_a[i] - p_b[i]) * math.log(p_a[i] / p_b[i])
        order = np.argsort(b, kind="stable")
        return pa.table({
            "bin": pa.array(b[order]),
            "n_a": pa.array(na[order]),
            "n_b": pa.array(nb[order]),
            "p_a": pa.array(p_a[order]),
            "p_b": pa.array(p_b[order]),
            "psi_term": pa.array([None if np.isnan(x) else float(x)
                                  for x in psi[order]], type=pa.float64()),
        })

    merged = exchange(ds.map_batches(partial, batch_format="pyarrow"), "bin",
                      num_partitions, per_part, "pyarrow")
    return merged.repartition(1).map_batches(
        final, batch_format="pyarrow", batch_size=None
    )
