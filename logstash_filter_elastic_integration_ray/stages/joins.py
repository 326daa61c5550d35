"""Distributed as-of join — the both-sides-large path.

The reference engine has no joins at all (strictly per-event,
``EventProcessor.java:91-108``); the as-of join is an engine-native wide
operator for event-to-latest-fact enrichment.  Two execution shapes:

- **small right side** → broadcast (``ray.put`` once, per-batch
  ``pd.merge_asof`` inside ``map_batches``) — see the flagship query's
  previous revision; kept for dimension-sized right sides.
- **both sides large** → :func:`asof_join_bucketed` below: hash-bucket
  BOTH sides on the by-key, co-partition via one repartition+groupby,
  and run one vectorized ``pd.merge_asof`` per bucket.  Shuffle volume
  = both inputs exactly once; no side is ever collected to the driver
  or broadcast whole.

Partitioning assumption (documented per SURVEY §2.8): all rows of one
by-key land in one bucket, so a single bucket must fit in a worker's
heap — ``num_partitions`` scales with the cluster, and by-key skew is
bounded by the hottest single key (same contract as any hash
co-partitioned join).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..sources.io import engine_plan
from .corpus import _bounds
from .exchange import cogroup, copartition
from .fold import fold


def _dataset_schema(ds) -> pa.Schema:
    """Arrow schema of a Dataset, hoisted on the DRIVER (worker-side
    ``ds.schema()`` calls would trigger nested execution)."""
    s = ds.schema()
    return getattr(s, "base_schema", s)


def _disjoint_or_raise(left_cols, right_cols, opname: str) -> None:
    shared = set(left_cols) & set(right_cols)
    if shared:
        # the widened union folds same-named columns together and the
        # per-partition merge would suffix them, breaking the output
        # projection — fail loudly at the driver instead
        raise ValueError(
            f"{opname}: left and right share column names {sorted(shared)}; "
            "rename one side before joining"
        )


def _restore_int_dtypes(df: pd.DataFrame, schema: pa.Schema, plain_cols: set) -> pd.DataFrame:
    """Undo the float64 promotion pandas gives a null-bearing int
    column: join-key columns (``plain_cols``, null-free by contract)
    back to plain int64, payload columns to nullable Int64 so genuine
    source nulls survive instead of raising IntCastingNaNError."""
    for f in schema:
        if pa.types.is_integer(f.type):
            df[f.name] = df[f.name].astype("int64" if f.name in plain_cols else "Int64")
    return df


def asof_join_bucketed(
    left,
    right,
    *,
    on_left: str,
    on_right: str,
    by_left: str,
    by_right: str,
    direction: str = "backward",
    num_partitions: int = 32,
    output_schema: pa.Schema,
):
    """For each left row, the latest right row with the same by-key and
    ``on_right <= on_left`` (direction="backward").  Ties on
    ``on_right`` resolve to the right row that sorts LAST under a stable
    (on_right, remaining columns in schema order) sort — deterministic.

    Both inputs are Datasets; the result is a Dataset with
    ``output_schema`` = left columns + right payload columns.
    """
    left_schema = _dataset_schema(left)
    right_schema = _dataset_schema(right)
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    _disjoint_or_raise(left_cols, right_cols, "asof_join_bucketed")

    def per_bucket(l: pd.DataFrame, r: pd.DataFrame) -> pa.Table:
        # a side with no rows at all reaches here column-less
        if not len(l):
            return output_schema.empty_table()
        if not len(r):
            out = _restore_int_dtypes(l.copy(), left_schema, plain_cols=set())
            out = out.assign(**{c: None for c in right_cols})[[f.name for f in output_schema]]
            return pa.Table.from_pandas(out, preserve_index=False, schema=output_schema).replace_schema_metadata(None)
        # null on/by keys: merge_asof RAISES on them.  Left rows with a
        # null key can never match — split them out and emit them with
        # null right payload (the join is left-preserving); right rows
        # with a null key can never BE matched — drop them.
        l_null_mask = l[on_left].isna() | l[by_left].isna()
        l_null = _restore_int_dtypes(
            l[l_null_mask].copy(), left_schema, plain_cols=set()  # keys hold nulls here
        )
        l = l[~l_null_mask]
        r = r[~(r[on_right].isna() | r[by_right].isna())]
        # dtype restoration: join keys exact int64 (null-free now),
        # payload nullable so genuine source nulls survive
        l = _restore_int_dtypes(l, left_schema, plain_cols={on_left, by_left})
        r = _restore_int_dtypes(r, right_schema, plain_cols={on_right, by_right})
        l = l.sort_values(on_left, kind="mergesort").reset_index(drop=True)
        r = (
            r.sort_values([on_right] + [c for c in right_cols if c != on_right], kind="mergesort")
            .reset_index(drop=True)
        )
        if len(l) == 0:
            merged = l.assign(**{c: pd.Series(dtype="object") for c in right_cols if c not in l})
        else:
            merged = pd.merge_asof(
                l, r, left_on=on_left, right_on=on_right,
                left_by=by_left, right_by=by_right, direction=direction,
            )
        if len(l_null):
            merged = pd.concat(
                [merged, l_null.assign(**{c: None for c in right_cols})],
                ignore_index=True,
            )
        out = merged[[f.name for f in output_schema]]
        return pa.Table.from_pandas(out, preserve_index=False, schema=output_schema).replace_schema_metadata(None)

    return copartition({"l": (left, by_left), "r": (right, by_right)},
                       num_partitions, per_bucket, "pandas")


# ---------------------------------------------------------------------------
# range (interval) join — both sides large
# ---------------------------------------------------------------------------


def _multi_arange(starts: np.ndarray, ends: np.ndarray):
    """Vectorized concatenation of ``arange(starts[i], ends[i])`` —
    returns (which-interval index, value) pairs without a Python loop."""
    cnt = (ends - starts).astype(np.int64)
    cnt[cnt < 0] = 0
    total = int(cnt.sum())
    if total == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    iv_idx = np.repeat(np.arange(len(starts), dtype=np.int64), cnt)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate([[0], np.cumsum(cnt)[:-1]]), cnt
    )
    return iv_idx, starts[iv_idx] + offs


def _numeric_view(col) -> np.ndarray:
    """Column → a chunk-assignable float64 view (timestamps become
    microseconds).  Used ONLY for chunk math; matching inside a chunk
    compares the original values."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_timestamp(arr.type):
        arr = arr.cast(pa.int64())
    return arr.to_numpy(zero_copy_only=False).astype(np.float64)


def range_join_chunked(
    left,
    right,
    *,
    on_left: str,
    lo_right: str,
    hi_right: str,
    num_chunks: int = 64,
    output_schema: pa.Schema,
):
    """Inner interval join: every (left row, right interval) pair with
    ``lo_right <= on_left <= hi_right`` (SQL ``BETWEEN`` semantics;
    null keys/bounds never match).

    Distributed shape — the VALUE AXIS is the partition key (documented
    per SURVEY §2.8): a stats pass finds the global [min, max] of
    ``on_left``; left rows hash to the one chunk containing their
    value, right intervals REPLICATE to every chunk they overlap, and
    each chunk runs a vectorized sorted-array sweep (two binary
    searches per interval, multi-arange emission — O(n log n + output)
    per chunk, never O(n·m)).  A pair materializes only in the left
    row's home chunk, so no cross-chunk dedup is needed.  Shuffle
    volume = left once + right × (avg chunks per interval); intervals
    spanning the whole axis replicate everywhere — keep
    ``num_chunks × max interval width / axis width`` bounded."""
    left_schema = _dataset_schema(left)
    right_schema = _dataset_schema(right)
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    _disjoint_or_raise(left_cols, right_cols, "range_join_chunked")

    # ---- pass 1: global [mn, mx] of the left key (tiny partials) ------
    def keys(t: pa.Table) -> np.ndarray:
        v = _numeric_view(t.column(on_left))
        return v[~np.isnan(v)]

    st = _bounds(left, keys)
    empty = pa.table({f.name: pa.nulls(0, type=f.type) for f in output_schema})
    if st is None:
        import ray.data as rd

        return engine_plan(rd.from_arrow(empty))
    mn, mx = st
    width = (mx - mn) / num_chunks

    def chunk_of(v: np.ndarray) -> np.ndarray:
        if width <= 0:
            return np.zeros(len(v), dtype=np.int64)
        return np.clip(((v - mn) / width).astype(np.int64), 0, num_chunks - 1)

    def tag_left(t: pa.Table) -> pa.Table:
        v = _numeric_view(t.column(on_left))
        keep = ~np.isnan(v)
        t = t.filter(pa.array(keep))
        return t.append_column("__chunk", pa.array(chunk_of(v[keep])))

    def tag_right(t: pa.Table) -> pa.Table:
        lo = _numeric_view(t.column(lo_right))
        hi = _numeric_view(t.column(hi_right))
        keep = ~np.isnan(lo) & ~np.isnan(hi) & (hi >= mn) & (lo <= mx) & (lo <= hi)
        t = t.filter(pa.array(keep))
        c0 = chunk_of(np.maximum(lo[keep], mn))
        c1 = chunk_of(np.minimum(hi[keep], mx))
        row_idx, chunks = _multi_arange(c0, c1 + 1)
        t = t.take(pa.array(row_idx))
        return t.append_column("__chunk", pa.array(chunks))

    def per_chunk(l: pd.DataFrame, r: pd.DataFrame) -> pa.Table:
        if not len(l) or not len(r):
            return empty
        # keys are NaN-filtered in tag_left/tag_right; payload int
        # columns may carry genuine source nulls → nullable Int64
        l = _restore_int_dtypes(l[left_cols].copy(), left_schema, plain_cols={on_left})
        r = _restore_int_dtypes(r[right_cols].copy(), right_schema,
                                plain_cols={lo_right, hi_right})
        order = np.argsort(l[on_left].to_numpy(), kind="stable")
        l = l.iloc[order].reset_index(drop=True)
        lv = l[on_left].to_numpy()
        s = np.searchsorted(lv, r[lo_right].to_numpy(), side="left")
        e = np.searchsorted(lv, r[hi_right].to_numpy(), side="right")
        r_idx, l_idx = _multi_arange(s, e)
        out = pd.concat(
            [
                l.iloc[l_idx].reset_index(drop=True),
                r.iloc[r_idx].reset_index(drop=True),
            ],
            axis=1,
        )[[f.name for f in output_schema]]
        return pa.Table.from_pandas(out, preserve_index=False, schema=output_schema).replace_schema_metadata(None)

    return cogroup({"l": (left.map_batches(tag_left, batch_format="pyarrow"), "__chunk"),
                    "r": (right.map_batches(tag_right, batch_format="pyarrow"), "__chunk")},
                   num_chunks, per_chunk, "pandas")


# ---------------------------------------------------------------------------
# semi / anti join — both sides large
# ---------------------------------------------------------------------------


def hash_semi_join(left, right, *, left_key: str, right_key: str,
                   anti: bool = False, num_partitions: int = 32):
    """Distributed semi join (``anti=False``: left rows whose key
    appears in ``right``) or anti join (``anti=True``: left rows whose
    key does NOT).  Both sides large: the right side reduces to
    per-batch distinct keys (one int64 column — the minimum signal a
    membership test needs), then ONE exchange co-partitions left rows
    with the matching key set and each partition resolves membership
    with a vectorized ``isin``.  Right payload columns never shuffle;
    left rows ship exactly once.  Left columns pass through unchanged.

    Null semantics: null RIGHT keys are ignored (the SQL ``NOT IN``
    null-poisoning rule — one null makes NOT IN empty — is deliberately
    not reproduced); a null LEFT key matches nothing, so it drops under
    semi and survives under anti."""
    import pyarrow.compute as pc

    def right_keys(t: pa.Table) -> pa.Table:
        col = t.column(right_key)
        col = (col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col).drop_null()
        return pa.table({"__k": pa.array(np.unique(col.cast(pa.int64()).to_numpy(
            zero_copy_only=False)), type=pa.int64())})

    def left_rows(t: pa.Table) -> pa.Table:
        return t.append_column("__k", t.column(left_key).cast(pa.int64()))

    def resolve(rows: pa.Table, keys: pa.Table) -> pa.Table:
        # either side is column-less when its Dataset has no rows at all
        if not rows.num_rows:
            return rows.drop_columns([c for c in rows.column_names if c == "__k"])
        ks = keys.column("__k").combine_chunks() if keys.num_rows else pa.array([], pa.int64())
        hit = pc.fill_null(pc.is_in(rows.column("__k"), value_set=ks), False)
        return rows.filter(pc.invert(hit) if anti else hit).drop_columns(["__k"])

    return copartition({"rows": (left.map_batches(left_rows, batch_format="pyarrow"), "__k"),
                        "keys": (right.map_batches(right_keys, batch_format="pyarrow"), "__k")},
                       num_partitions, resolve, "pyarrow")


# ---------------------------------------------------------------------------
# Bloom-prefiltered semi / anti join
# ---------------------------------------------------------------------------

#: odd 64-bit mix constants for the double-hashing Bloom probes
_BLOOM_H1 = np.uint64(0x9E3779B97F4A7C15)
_BLOOM_H2 = np.uint64(0xC2B2AE3D27D4EB4F)


def _bloom_probes(keys: np.ndarray, m_bits: int, k: int):
    """k probe bit-positions per key via double hashing (h1 + i*h2):
    vectorized, no per-key loop.  Returns (n, k) int64 positions."""
    h = keys.astype(np.uint64)
    h1 = (h * _BLOOM_H1) >> np.uint64(1)
    h2 = (h * _BLOOM_H2) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits)).astype(np.int64)


def bloom_fold(ds, keys_of, m_bits: int, k: int) -> np.ndarray:
    """Bloom filter of ``keys_of(batch)`` (int64 keys) over ``ds`` as a
    packed uint64 word array: per-batch bitmaps OR-merged through
    :func:`stages.fold.fold` — the one construction behind the join
    prefilter and the incremental-dedup corpus sidecar.  OR is
    commutative and idempotent, so the merge order cannot change the
    filter; an empty ``ds`` gives all-zero words."""

    def partial(t: pa.Table) -> np.ndarray:
        pos = _bloom_probes(keys_of(t), m_bits, k).ravel()
        words = np.zeros(m_bits // 64, dtype=np.uint64)
        np.bitwise_or.at(words, pos // 64, np.uint64(1) << (pos % 64).astype(np.uint64))
        return words

    words = fold(ds, partial, np.bitwise_or.reduce)
    return np.zeros(m_bits // 64, dtype=np.uint64) if words is None else words


def build_key_bloom(right, right_key: str, *, m_bits: int = 1 << 20, k: int = 4):
    """Bloom filter of the right side's keys (:func:`bloom_fold`, m_bits/8
    bytes per batch — 128 KiB at the default 2^20 bits).  No false
    negatives ever; false-positive rate ~(1-e^{-kn/m})^k."""
    words = bloom_fold(
        right, lambda t: t.column(right_key).cast(pa.int64()).to_numpy(zero_copy_only=False),
        m_bits, k)
    return words, m_bits, k


def bloom_test(keys: np.ndarray, bloom) -> np.ndarray:
    """Vectorized membership probe: True = MAYBE present (verify),
    False = DEFINITELY absent."""
    words, m_bits, k = bloom
    pos = _bloom_probes(keys, m_bits, k)
    bits = (words[pos // 64] >> (pos % 64).astype(np.uint64)) & np.uint64(1)
    return bits.all(axis=1)


def hash_semi_join_bloom(left, right, *, left_key: str, right_key: str,
                         anti: bool = False, num_partitions: int = 32,
                         m_bits: int = 1 << 20, k: int = 4):
    """:func:`hash_semi_join` with a broadcast Bloom prefilter — the
    100-TB shape when the right key set is too big to broadcast exactly
    but the LEFT side is the expensive thing to shuffle.  Bloom-negative
    left rows never enter the exchange: for semi they are definite
    misses (dropped on the spot); for anti they are definite keepers
    (emitted directly, bypassing the shuffle).  Only the ambiguous
    bloom-positive slice — a few % of the left at typical fp rates —
    pays the co-partition, where the exact :func:`hash_semi_join`
    machinery resolves it.  Results are identical to the exact join by
    construction (Bloom filters have no false negatives)."""
    import ray

    bloom_words, mb, kk = build_key_bloom(right, right_key, m_bits=m_bits, k=k)
    bloom_ref = ray.put((bloom_words, mb, kk))
    if anti:
        # both output branches (definite keepers + exchange slice) read
        # the left side — materialize once so its upstream pipeline
        # does not execute twice (object-store spill beats a re-read)
        left = left.materialize()

    def split(maybe: bool):
        def fn(t: pa.Table) -> pa.Table:
            ks = t.column(left_key).cast(pa.int64()).to_numpy(zero_copy_only=False)
            mask = bloom_test(ks, ray.get(bloom_ref))
            return t.filter(pa.array(mask if maybe else ~mask))

        return fn

    maybe_rows = left.map_batches(split(True), batch_format="pyarrow")
    resolved = hash_semi_join(maybe_rows, right, left_key=left_key,
                              right_key=right_key, anti=anti,
                              num_partitions=num_partitions)
    if not anti:
        return resolved
    definite_keep = left.map_batches(split(False), batch_format="pyarrow")
    return definite_keep.union(resolved)


# ---------------------------------------------------------------------------
# CDC upsert merge (lakehouse MERGE / compaction)
# ---------------------------------------------------------------------------


def upsert_merge(base, changes, *, key: str, ts_col: str,
                 op_col: str | None = None, delete_op: str = "d",
                 num_partitions: int = 32):
    """Merge a change stream into a base table — the lakehouse
    MERGE/compaction primitive (Delta/Hudi-style copy-on-write
    semantics): per key, the row with the LATEST ``ts_col`` wins
    (base rows count as older than an equal-timestamp change); if the
    winning change row carries ``op_col == delete_op`` the key is a
    tombstone and drops from the output.

    Shape: ONE co-partition of base ∪ changes by key hash; each
    partition resolves its keys with one lexsort (key, ts, origin) —
    no driver state, no join.  Column sets must match between the two
    inputs (plus the optional ``op_col`` on the change side).

    Determinism: ties on (key, ts) break by origin (change beats
    base), then are an input-contract violation if two CHANGES share
    (key, ts) — the merge keeps the change that sorts last by the
    remaining columns' block order being irrelevant: callers should
    make (key, ts) unique per change batch, as every CDC log does."""
    base_schema = _dataset_schema(base)
    cols = [c for c in base_schema.names]

    def resolve(base: pd.DataFrame, changes: pd.DataFrame) -> pa.Table:
        # origin 1 (a change) beats 0 (base) at equal (key, ts); a side
        # with no rows at all reaches here column-less
        parts = []
        if key in base.columns:
            parts.append(base[cols].assign(__op="", __origin=0))
        if key in changes.columns:
            ops = changes[op_col].astype(object) if op_col is not None else ""
            parts.append(changes[cols].assign(__op=ops, __origin=1))
        df = pd.concat(parts, ignore_index=True)
        df = df.sort_values([key, ts_col, "__origin"], kind="mergesort")
        last = ~df.duplicated(subset=[key], keep="last")
        win = df[last]
        keep = win["__op"].to_numpy(dtype=object) != delete_op
        win = win[keep]
        out = {}
        for c in cols:
            v = win[c]
            f = base_schema.field(c)
            if pa.types.is_integer(f.type):
                out[c] = pa.array(v.to_numpy(dtype=np.int64), type=f.type)
            elif pa.types.is_timestamp(f.type):
                out[c] = pa.array(v.to_numpy(), type=f.type)
            else:
                out[c] = pa.array(v.to_numpy(dtype=object), type=f.type)
        return pa.table(out)

    return copartition({"base": (base, key), "changes": (changes, key)},
                       num_partitions, resolve, "pandas")
