"""Per-conversation aggregation — the engine-native "aggregate" stage.

The reference has no aggregation at all (strictly per-event; SURVEY.md
§2.8); the north rule adds ``groupby(conv_id)``-sorted-by-``turn_idx``
aggregation.  Scale design:

**Two-phase (partial + final), always.**  ``conv_partial_batch`` runs
inside ``map_batches`` and collapses each batch to ≤ one row per
conversation *before* any shuffle; the ``groupby(conv_id)`` then moves
only partials.  A hot conversation ("conv_id skew") therefore
contributes at most one row per input block to the shuffle — this is
the salted-repartition answer built into the operator rather than
bolted on: the partial phase is the salt (salt = block id), the final
groupby is the re-group by the real key.

**Order-proving aggregate without a sort.**  "first/last text by
turn_idx" and the ordered-turns fingerprint are computed *algebraically*
so no in-group sort or full-text shuffle is ever needed:

- first/last = argmin/argmax over ``turn_idx`` carried through merges;
- ``ordered_hash`` = Σ_i  h(text_i) · R^(turn_idx_i)  (mod P), a
  polynomial rolling fingerprint — commutative/associative in ``i`` but
  sensitive to each turn's *position*, so any mis-ordering or text
  change flips it.  P = 2^31 − 1 keeps partial sums inside int64 for
  billions of partials per key.

**Columnar, both phases.**  Neither phase builds a DataFrame or sorts a
string: ``conv_id`` is dictionary-encoded to int codes and one
:func:`segments.runs` by (code, turn) lays each conversation out as a
contiguous run; sums, counts and ts bounds are segment reductions over
the runs, and the first/last rows are ``take``-n at each run's
first/last non-null text.  The merge does the same over the partials
(``batch_format="pyarrow"``).

**Null semantics are SQL's, under any batching.**  first/last text is
the text of the least/greatest ``(turn_idx, text)`` whose text is not
null (null when there is none) — DuckDB ``arg_min(text, turn_idx)``
where turns are unique, and the text breaks a tie between repeated
turns so the answer never depends on batch order; a null ``conv_id`` is
a group; ts bounds skip nulls; in ``md5`` mode a null text adds nothing
to the hash (null when no text does), like SQL ``sum``.

The oracle-checked variant (``turns_concat`` = texts joined in
``turn_idx`` order, DuckDB ``string_agg(text, '|' ORDER BY turn_idx)``)
is exact but carries full text through the shuffle — fine at
correctness scale, superseded by ``ordered_hash`` at 10^12-turn scale.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.io import engine_plan
from . import segments
from .exchange import add_partition_col, exchange  # noqa: F401  (re-exported)

P = np.int64(2**31 - 1)
R = np.int64(1_000_003)

_POW_TABLE: np.ndarray | None = None
_POW_TABLE_SIZE = 65536


def _pow_table() -> np.ndarray:
    global _POW_TABLE
    if _POW_TABLE is None:
        t = np.empty(_POW_TABLE_SIZE, dtype=np.int64)
        v = 1
        for i in range(_POW_TABLE_SIZE):
            t[i] = v
            v = (v * int(R)) % int(P)
        _POW_TABLE = t
    return _POW_TABLE


def text_hash_mod_p(texts, mode: str = "fast") -> np.ndarray:
    """Deterministic string hash → mod P.

    ``fast`` (default): pandas hash_array — vectorized, stable across
    processes; used by the bench/headline path.
    ``md5``: first 60 bits of md5(text) — per-row but *SQL-expressible*
    (DuckDB: ``('0x' || substr(md5(text),1,15))::UBIGINT % P``), which
    is what lets the driver oracle-check the scalable aggregate
    end-to-end including the order fingerprint."""
    if mode == "md5":
        import hashlib

        out = np.fromiter(
            (
                int(hashlib.md5(("" if t is None else t).encode("utf-8")).hexdigest()[:15], 16)
                for t in texts
            ),
            dtype=np.int64,
            count=len(texts),
        )
        return out % P
    arr = pd.util.hash_array(np.asarray(texts, dtype=object), categorize=False)
    return (arr % np.uint64(P)).astype(np.int64)


def ordered_hash_contrib(texts, turn_idx: np.ndarray, mode: str = "fast") -> np.ndarray:
    """Per-row contribution to the order-sensitive fingerprint.

    ``fast``:  h(text) · R^turn_idx  (mod P) — polynomial rolling hash.
    ``md5``:   h_md5(text) · (turn_idx+1)  (mod P) — position-weighted
    sum; weaker mixing but exactly reproducible in ANSI SQL (no modular
    exponentiation needed), hence oracle-checkable.  Both are
    commutative/associative across rows (two-phase safe) yet sensitive
    to each turn's position."""
    t = np.asarray(turn_idx, dtype=np.int64)
    h = text_hash_mod_p(texts, mode)
    if mode == "md5":
        return (h * ((t % P) + 1)) % P  # h < 2^31, weight < 2^31 → fits int64
    table = _pow_table()
    if t.max(initial=0) < _POW_TABLE_SIZE:
        powers = table[t]
    else:  # rare: very long conversations
        powers = np.array([pow(int(R), int(x), int(P)) for x in t], dtype=np.int64)
    return (h * powers) % P  # fits: (2^31)^2 < 2^63


_I64_MAX = np.iinfo(np.int64).max
_I64_MIN = np.iinfo(np.int64).min

#: one partial row per (batch, conversation); ``min_turn``/``max_turn``
#: are the turns of ``first_text``/``last_text`` (null with them)
_PARTIAL_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("n_turns", pa.int64()),
        ("n_tool_calls", pa.int64()),
        ("first_ts", pa.timestamp("us")),
        ("last_ts", pa.timestamp("us")),
        ("min_turn", pa.int64()),
        ("max_turn", pa.int64()),
        ("first_text", pa.string()),
        ("last_text", pa.string()),
        ("hash_part", pa.int64()),
    ]
)

# timestamp[us] matches the parquet-born input (and the DuckDB oracle)
_MERGE_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("n_turns", pa.int64()),
        ("n_tool_calls", pa.int64()),
        ("first_ts", pa.timestamp("us")),
        ("last_ts", pa.timestamp("us")),
        ("first_text", pa.string()),
        ("last_text", pa.string()),
        ("ordered_hash", pa.int64()),
    ]
)


def _array(t: pa.Table, name: str, typ: pa.DataType) -> pa.Array:
    """Column ``name`` of ``t`` as one Array of type ``typ``."""
    return t.column(name).cast(typ).combine_chunks()


def _ints(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(int64 values with nulls as 0, validity) of an integer or
    timestamp Array."""
    valid = arr.is_valid().to_numpy(zero_copy_only=False)
    return pc.fill_null(arr.cast(pa.int64()), 0).to_numpy(), valid


def _turn_runs(codes: np.ndarray, turn: np.ndarray, text: pa.Array,
               ok: np.ndarray) -> segments.Runs:
    """Conversation runs ordered by (turn, text): ``text`` only breaks
    ties between ``ok`` rows of one conversation and turn, so its rank
    (a string sort) is computed only when such a tie exists."""
    r = segments.runs(codes, (turn,), ok=ok)
    if r.tied():
        rank = pc.rank(text, sort_keys="ascending", tiebreaker="dense").to_numpy()
        r = segments.runs(codes, (turn, rank), ok=ok)
    return r


def _ts(vals: np.ma.MaskedArray) -> pa.Array:
    return pa.array(vals, type=pa.timestamp("us"))


def _take(vals, rows: np.ma.MaskedArray) -> pa.Array:
    """``vals`` (an Arrow or numpy array) at ``rows``; null where masked."""
    if isinstance(vals, pa.Array):
        return vals.take(pa.array(rows))
    return pa.array(np.ma.MaskedArray(vals[rows.data], mask=rows.mask))


def _codes(arr: pa.Array) -> np.ndarray:
    """Dictionary codes of ``arr``; null is a key of its own."""
    return pc.dictionary_encode(arr, null_encoding="encode").indices.to_numpy()


def conv_partial_batch(batch: pa.Table, hash_mode: str = "fast") -> pa.Table:
    """Phase 1: collapse one Arrow batch to one partial row per conv.

    ``conv_id`` is dictionary-encoded to int codes and
    :func:`segments.runs` by (code, turn_idx) lays each conversation out
    as a run; counts, the ts bounds and the hash are segment reductions,
    and the first/last text rows are taken at each run's first/last
    non-null text."""
    if batch.num_rows == 0:
        return _PARTIAL_SCHEMA.empty_table()
    conv = _array(batch, "conv_id", pa.string())
    text = _array(batch, "text", pa.string())
    turn, turn_ok = _ints(_array(batch, "turn_idx", pa.int64()))
    if not turn_ok.all():
        raise ValueError("conv_partial_batch: null turn_idx")
    ts, ts_ok = _ints(_array(batch, "ts", pa.timestamp("us")))
    tool_ok = batch.column("tool").is_valid().to_numpy(zero_copy_only=False)
    text_ok = text.is_valid().to_numpy(zero_copy_only=False)
    contrib = ordered_hash_contrib(text.to_numpy(zero_copy_only=False), turn, hash_mode)
    # md5 mode is SQL's sum, which skips the NULL md5 of a NULL text
    contrib_ok = text_ok if hash_mode == "md5" else np.ones(len(turn), dtype=bool)

    r = _turn_runs(_codes(conv), turn, text, text_ok)
    first, last = segments.first(r, text_ok), segments.last(r, text_ok)
    return pa.Table.from_arrays(
        [
            conv.take(r.order[r.starts]),
            pa.array(r.sizes),
            pa.array(segments.count(r, tool_ok)),
            _ts(segments.min(r, ts, ts_ok)),
            _ts(segments.max(r, ts, ts_ok)),
            _take(turn, first),
            _take(turn, last),
            _take(text, first),
            _take(text, last),
            pa.array(segments.sum(r, contrib, contrib_ok) % P),
        ],
        schema=_PARTIAL_SCHEMA,
    )


def _merge_table(t: pa.Table) -> pa.Table:
    """Phase 2: merge all partials of one hash partition — one Python
    call per *partition*, not per conversation: Ray's per-group
    ``map_groups`` overhead is ~2 ms/group, which at millions of
    conversations would dominate wall time.

    Conversation runs ordered by ``min_turn`` carry the sums, the ts
    bounds and ``first_text``; runs ordered by ``max_turn`` carry
    ``last_text``.  Both order the codes alike, so run ``i`` is the
    same conversation in each."""
    if t.num_rows == 0:
        return _MERGE_SCHEMA.empty_table()
    t = t.select(_PARTIAL_SCHEMA.names).cast(_PARTIAL_SCHEMA).combine_chunks()
    col = {name: t.column(name).chunk(0) for name in t.column_names}
    codes = _codes(col["conv_id"])
    lo, lo_ok = _ints(col["min_turn"])
    hi, hi_ok = _ints(col["max_turn"])
    first_ts, first_ts_ok = _ints(col["first_ts"])
    last_ts, last_ts_ok = _ints(col["last_ts"])
    hash_part, hash_ok = _ints(col["hash_part"])

    r = _turn_runs(codes, lo, col["first_text"], lo_ok)
    head = [
        col["conv_id"].take(r.order[r.starts]),
        pa.array(segments.sum(r, col["n_turns"].to_numpy())),
        pa.array(segments.sum(r, col["n_tool_calls"].to_numpy())),
        _ts(segments.min(r, first_ts, first_ts_ok)),
        _ts(segments.max(r, last_ts, last_ts_ok)),
        _take(col["first_text"], segments.first(r, lo_ok)),
    ]
    ordered_hash = pa.array(segments.sum(r, hash_part, hash_ok) % P)
    r = _turn_runs(codes, hi, col["last_text"], hi_ok)
    return pa.Table.from_arrays(
        head + [_take(col["last_text"], segments.last(r, hi_ok)), ordered_hash],
        schema=_MERGE_SCHEMA,
    )


def _merge_partition(df: pd.DataFrame) -> pa.Table:
    """:func:`_merge_table` over a pandas frame of partials (columns
    beyond the partial schema are ignored)."""
    return _merge_table(pa.Table.from_pandas(df, preserve_index=False))


def conv_stats(ds, num_partitions: int = 64, hash_mode: str = "fast"):
    """conv_id → (n_turns, n_tool_calls, first/last ts, first/last text,
    ordered_hash).  Shuffle input = partials only (see module doc); the
    final merge hash-partitions the partials into ``num_partitions``
    groups (size ∝ cluster, not ∝ #conversations) and merges each with
    one columnar pass.  ``hash_mode="md5"`` switches the order
    fingerprint to the SQL-expressible variant (oracle-checked by the
    driver); ``"fast"`` is the vectorized bench path."""
    partials = ds.map_batches(
        lambda b: conv_partial_batch(b, hash_mode), batch_format="pyarrow"
    )
    return exchange(partials, "conv_id", num_partitions, _merge_table, "pyarrow")


def conv_stats_reference(table: pa.Table) -> pd.DataFrame:
    """Single-process oracle twin of :func:`conv_stats` (pytest uses it
    against the Ray path; independent code path: a plain Python loop per
    conversation).  Null ``conv_id`` is a group; first/last text are
    the text of the least/greatest (turn_idx, text) among non-null
    texts; ts bounds skip nulls."""
    groups: dict = {}
    for r in table.select(["conv_id", "turn_idx", "ts", "tool", "text"]).to_pylist():
        groups.setdefault(r["conv_id"], []).append(r)
    out = []
    for conv_id in sorted(groups, key=lambda c: (c is None, c or "")):
        g = groups[conv_id]
        contrib = ordered_hash_contrib(
            np.array([r["text"] for r in g], dtype=object), np.array([r["turn_idx"] for r in g]))
        texts = [(r["turn_idx"], r["text"]) for r in g if r["text"] is not None]
        stamps = [r["ts"] for r in g if r["ts"] is not None]
        out.append(
            {
                "conv_id": conv_id,
                "n_turns": len(g),
                "n_tool_calls": sum(r["tool"] is not None for r in g),
                "first_ts": min(stamps, default=None),
                "last_ts": max(stamps, default=None),
                "first_text": min(texts)[1] if texts else None,
                "last_text": max(texts)[1] if texts else None,
                "ordered_hash": int(contrib.astype(object).sum() % int(P)),
            }
        )
    return pd.DataFrame(out)


# ---------------------------------------------------------------------------
# long → wide pivot
# ---------------------------------------------------------------------------


def pivot_counts(ds, *, key: str, cat: str, categories: list[str],
                 prefix: str = "n_", num_partitions: int = 32):
    """Pivot a categorical column into fixed wide count columns — the
    exact twin of::

        SELECT key,
               count(*) FILTER (WHERE cat = c0) AS <prefix>c0, ...
        GROUP BY key

    ``categories`` is the pinned column list (pivot output schemas
    must be static in a distributed plan — discovering categories at
    run time would need an extra pass and make the schema
    data-dependent); rows whose category is not listed (or null)
    contribute to no column but DO keep their key present, matching
    the SQL GROUP BY.  Null keys form one group.

    Two-phase: per-batch partials via one ``bincount`` over combined
    (key, category) codes — a batch emits ONE wide row per distinct
    key it holds, so the exchange is keys × batches, never rows — then
    a co-partition by key hash and a vectorized column sum.
    """
    ncat = len(categories)
    if ncat == 0:
        raise ValueError("pivot_counts: categories must be non-empty")
    cols = [f"{prefix}{c}" for c in categories]
    cat_arr = pa.array(categories)

    def partial(t: pa.Table) -> pa.Table:
        kcol = t.column(key)
        if t.num_rows == 0:
            return pa.table({key: kcol, **{c: pa.array([], type=pa.int64()) for c in cols}})
        kcodes, kuniq_first = _first_occurrence_codes(kcol)
        # vectorized category→index mapping; unknown/null → ncat slot
        ccodes = (
            pc.fill_null(pc.index_in(t.column(cat), value_set=cat_arr), ncat)
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        nk = len(kuniq_first)
        counts = np.bincount(
            kcodes * np.int64(ncat + 1) + ccodes, minlength=nk * (ncat + 1)
        ).reshape(nk, ncat + 1)
        out = {key: kcol.take(kuniq_first)}
        for i, c in enumerate(cols):
            out[c] = pa.array(counts[:, i], type=pa.int64())
        return pa.table(out)

    def merge(t: pa.Table) -> pa.Table:
        """Pure-Arrow per-partition sum: a pandas round trip would
        degrade a null-bearing int64 key to float64 (exact > 2^53 keys
        corrupt and the output schema drifts per partition).  Segment
        sums, NOT ``bincount(weights=...)`` — the weighted
        bincount path accumulates in float64, silently rounding counts
        past 2^53 (the same reason group_counts below uses it)."""
        kcodes, kuniq_first = _first_occurrence_codes(t.column(key))
        # codes are dense 0..k-1, so run i is code i
        r = segments.runs(kcodes)
        out = {key: t.column(key).take(kuniq_first)}
        for c in cols:
            vals = t.column(c).to_numpy(zero_copy_only=False).astype(np.int64)
            out[c] = pa.array(segments.sum(r, vals).data, type=pa.int64())
        return pa.table(out)

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), key,
                    num_partitions, merge, "pyarrow")


def group_counts(ds, *, key: str, out_col: str = "n", num_partitions: int = 32):
    """Exact ``count(*) GROUP BY key`` at scale: per-batch partial
    counts (one row per distinct key per batch — the exchange is keys ×
    batches, never rows) merged by a co-partitioned pure-Arrow sum.
    Use this instead of Ray's ``groupby(key).count()`` whenever the key
    cardinality scales with the data — the native aggregate pays
    ~0.1 ms PER GROUP (measured round 3), which is 2½ minutes per
    million keys.  Null keys form one group, as in SQL."""

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({key: t.column(key), out_col: pa.array([], type=pa.int64())})
        kcodes, kuniq_first = _first_occurrence_codes(t.column(key))
        counts = np.bincount(kcodes, minlength=len(kuniq_first))
        return pa.table(
            {key: t.column(key).take(kuniq_first), out_col: pa.array(counts, type=pa.int64())}
        )

    def merge(t: pa.Table) -> pa.Table:
        kcodes, kuniq_first = _first_occurrence_codes(t.column(key))
        vals = t.column(out_col).to_numpy(zero_copy_only=False).astype(np.int64)
        # segment sums: exact int64 (bincount's weighted path sums in
        # float64).  Codes are dense 0..k-1 with every code present, so
        # run order == kuniq_first order.
        sums = segments.sum(segments.runs(kcodes), vals).data
        return pa.table(
            {key: t.column(key).take(kuniq_first), out_col: pa.array(sums, type=pa.int64())}
        )

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), key,
                    num_partitions, merge, "pyarrow")


def _dict_codes(col) -> np.ndarray:
    """Dictionary-encode a column to int64 codes with -1 for null —
    never materializes values through pandas (exact for int64 > 2^53,
    binary, anything Arrow can dictionary-encode)."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    d = pc.dictionary_encode(arr)
    if isinstance(d, pa.ChunkedArray):
        d = d.combine_chunks()
    return pc.fill_null(d.indices, -1).cast(pa.int64()).to_numpy(zero_copy_only=False)


def _first_occurrence_codes(col) -> tuple[np.ndarray, np.ndarray]:
    """Dense 0..k-1 codes (nulls get a code too) plus the first
    occurrence index of each code — built on :func:`_dict_codes`, so
    exact for any dtype."""
    idx = _dict_codes(col)
    uniq, first = np.unique(idx, return_index=True)
    # the +2 reserves a spare slot: the null code -1 indexes the LAST
    # element (numpy negative indexing) on both the write and the read,
    # so nulls get their own dense code without colliding with slot 0
    remap = np.empty(int(uniq.max()) + 2 if len(uniq) else 1, dtype=np.int64)
    remap[uniq] = np.arange(len(uniq), dtype=np.int64)
    return remap[idx], first


# ---------------------------------------------------------------------------
# ROLLUP / CUBE multi-level aggregates (SQL GROUP BY ROLLUP / CUBE)
# ---------------------------------------------------------------------------

def _multi_group_codes(cols: list) -> tuple[np.ndarray, np.ndarray]:
    """Dense 0..g-1 group codes over a TUPLE of columns plus one
    representative row index per group — the multi-key twin of
    :func:`_first_occurrence_codes` (nulls group like SQL ``GROUP
    BY``).  Built on per-column dictionary codes + one
    :func:`segments.runs`, so exact for any dtype including int64 >
    2^53."""
    r = segments.runs(tuple(_dict_codes(c) for c in reversed(cols)))
    gids = np.empty(len(r.order), dtype=np.int64)
    gids[r.order] = r.ids
    return gids, r.order[r.starts]


def _weighted_tuple_sums(t: pa.Table, keys: list[str], val_col: str):
    """Exact int64 sum of ``val_col`` per distinct key tuple: segment
    sums (never ``bincount(weights=...)``, which accumulates in float64
    and silently rounds past 2^53).  Returns (representative row
    indices, sums)."""
    r = segments.runs(tuple(_dict_codes(t.column(k)) for k in reversed(keys)))
    vals = t.column(val_col).to_numpy(zero_copy_only=False).astype(np.int64)
    return r.order[r.starts], segments.sum(r, vals).data


def _level_table(t: pa.Table, keys: list[str], keep: int, val_col: str,
                 n_keys: int, sums_rep=None) -> pa.Table:
    """One grouping-set level: aggregate ``t`` by ``keys[:keep]`` with
    NULLs for the rolled-away columns and the SQL ``GROUPING()`` id
    (leftmost key = most significant bit; bit set = aggregated)."""
    rep, sums = _weighted_tuple_sums(t, keys[:keep], val_col) if sums_rep is None else sums_rep
    cols: dict = {}
    for j, k in enumerate(keys):
        col = t.column(k)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if j < keep:
            cols[k] = col.take(pa.array(rep, type=pa.int64()))
        else:
            cols[k] = pa.nulls(len(rep), col.type)
    cols[val_col] = pa.array(sums, type=pa.int64())
    gid = (1 << (n_keys - keep)) - 1
    cols["grouping_id"] = pa.array(np.full(len(rep), gid, dtype=np.int64))
    return pa.table(cols)


def _count_partials(ds, keys: list[str], out_col: str):
    """Per-batch partial ``count(*)`` over the full key tuple — one row
    per distinct tuple per batch; callers exchange them by ``keys[0]``
    so every ROLLUP prefix level of a given first-key value is
    co-located."""

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({**{k: t.column(k) for k in keys},
                             out_col: pa.array([], type=pa.int64())})
        gids, rep = _multi_group_codes([t.column(k) for k in keys])
        counts = np.bincount(gids, minlength=len(rep))
        return pa.table({
            **{k: (t.column(k).combine_chunks()
                   if isinstance(t.column(k), pa.ChunkedArray) else t.column(k))
               .take(pa.array(rep, type=pa.int64())) for k in keys},
            out_col: pa.array(counts.astype(np.int64)),
        })

    return ds.map_batches(partial, batch_format="pyarrow")


def _grand_total(partials, keys: list[str], out_col: str, n_keys: int,
                 key_types: dict | None = None):
    """The () grouping set: the per-batch full-tuple partial counts are
    disjoint, so their plain sum IS the row total — one thin row per
    batch to a single-block reduce, driver state O(1).  Sourced from
    the PARTIALS (not the merged levels) so an all-empty input still
    yields SQL's one zero row: empty blocks run map_batches, but an
    empty groupby emits no groups at all."""
    total_gid = (1 << n_keys) - 1

    def part(t: pa.Table) -> pa.Table:
        s = pc.sum(t.column(out_col)).as_py() or 0
        cols = {k: pa.nulls(1, t.column(k).type) for k in keys}
        cols[out_col] = pa.array([int(s)], type=pa.int64())
        cols["grouping_id"] = pa.array([total_gid], type=pa.int64())
        return pa.table(cols)

    def merge(t: pa.Table) -> pa.Table:
        cols = {k: t.column(k).slice(0, 1) for k in keys}
        cols[out_col] = pa.array(
            [int(pc.sum(t.column(out_col)).as_py() or 0)], type=pa.int64())
        cols["grouping_id"] = t.column("grouping_id").slice(0, 1)
        return pa.table(cols)

    seeded = partials.map_batches(part, batch_format="pyarrow")
    if key_types is not None:
        # Ray Data never runs a UDF on a zero-row block, so an
        # all-empty input would otherwise produce NO rows where SQL's
        # empty grouping set produces one zero row; a typed seed row
        # (summing 0 into the reduce) restores the SQL semantics.
        import ray as _ray

        seed = pa.table({
            **{k: pa.nulls(1, key_types[k]) for k in keys},
            out_col: pa.array([0], type=pa.int64()),
            "grouping_id": pa.array([total_gid], type=pa.int64()),
        })
        seeded = seeded.union(engine_plan(_ray.data.from_arrow(seed)))
    return (seeded.repartition(1)
            .map_batches(merge, batch_format="pyarrow"))


def rollup_counts(ds, *, keys: list[str], out_col: str = "cnt",
                  num_partitions: int = 32, key_types: dict | None = None):
    """``count(*) GROUP BY ROLLUP(keys...)`` at scale — every prefix
    grouping set plus the grand total, with SQL ``GROUPING()`` ids.

    Distributed shape (ONE exchange over data-sized state): per-batch
    partial counts on the full tuple (keys × batches rows, never raw
    rows) partition by ``keys[0]``; since every ROLLUP level keeps
    ``keys[0]``, ALL prefix levels reduce partition-locally from the
    merged base — no second exchange.  The grand total sums the
    level-1 rows (one thin row per partition) through a single-block
    reduce.  A pathologically hot first key concentrates its tuples in
    one partition — same caveat as every key exchange here; the level
    rows are (tuple, int64) thin either way.

    SQL twin: ``GROUP BY ROLLUP(k1, .., kn)`` with
    ``GROUPING(k1, .., kn) AS grouping_id`` (leftmost key = most
    significant bit, DuckDB/ANSI semantics, verified against DuckDB)."""
    n = len(keys)
    if n < 1:
        raise ValueError("rollup_counts: needs at least one key")
    partials = _count_partials(ds, keys, out_col)

    def merge(t: pa.Table) -> pa.Table:
        parts = [_level_table(t, keys, i, out_col, n) for i in range(n, 0, -1)]
        return pa.concat_tables(parts)

    levels = exchange(partials, keys[0], num_partitions, merge, "pyarrow")
    total = _grand_total(partials, keys, out_col, n, key_types)
    return levels.union(total)


def cube_counts(ds, *, keys: list[str], out_col: str = "cnt",
                num_partitions: int = 32, key_types: dict | None = None):
    """``count(*) GROUP BY CUBE(k1, k2)`` (two keys) — all four
    grouping sets with SQL ``GROUPING()`` ids.

    Shape: the one data-sized exchange produces the (k1, k2) base and
    the (k1) level exactly as :func:`rollup_counts`; the (k2) level
    re-aggregates the BASE rows (already tuple-thin) through a second
    SMALL exchange partitioned by k2; the grand total reduces level-1
    rows through a single block."""
    if len(keys) != 2:
        raise ValueError("cube_counts: exactly two keys")
    k1, k2 = keys
    partials = _count_partials(ds, keys, out_col)

    def merge(t: pa.Table) -> pa.Table:
        return pa.concat_tables([
            _level_table(t, keys, 2, out_col, 2),
            _level_table(t, keys, 1, out_col, 2),
        ])

    levels = exchange(partials, k1, num_partitions, merge, "pyarrow")

    def k2_partial(t: pa.Table) -> pa.Table:
        base = t.filter(pc.equal(t.column("grouping_id"), pa.scalar(0, pa.int64())))
        rep, sums = _weighted_tuple_sums(base, [k2], out_col)
        c1 = base.column(k1)
        c1 = c1.combine_chunks() if isinstance(c1, pa.ChunkedArray) else c1
        c2 = base.column(k2)
        c2 = c2.combine_chunks() if isinstance(c2, pa.ChunkedArray) else c2
        return pa.table({
            k1: pa.nulls(len(rep), c1.type),
            k2: c2.take(pa.array(rep, type=pa.int64())),
            out_col: pa.array(sums, type=pa.int64()),
            "grouping_id": pa.array(np.full(len(rep), 2, dtype=np.int64)),
        })

    def k2_merge(t: pa.Table) -> pa.Table:
        rep, sums = _weighted_tuple_sums(t, [k2], out_col)
        c1 = t.column(k1)
        c1 = c1.combine_chunks() if isinstance(c1, pa.ChunkedArray) else c1
        c2 = t.column(k2)
        c2 = c2.combine_chunks() if isinstance(c2, pa.ChunkedArray) else c2
        return pa.table({
            k1: pa.nulls(len(rep), c1.type),
            k2: c2.take(pa.array(rep, type=pa.int64())),
            out_col: pa.array(sums, type=pa.int64()),
            "grouping_id": pa.array(np.full(len(rep), 2, dtype=np.int64)),
        })

    k2_level = exchange(levels.map_batches(k2_partial, batch_format="pyarrow"),
                        k2, num_partitions, k2_merge, "pyarrow")
    total = _grand_total(partials, keys, out_col, 2, key_types)
    return levels.union(k2_level).union(total)


def grouping_sets_counts(ds, *, keys: list[str], sets: list[list[str]],
                         out_col: str = "cnt", num_partitions: int = 32,
                         key_types: dict | None = None):
    """``count(*) GROUP BY GROUPING SETS(...)`` — the general form
    behind :func:`rollup_counts` / :func:`cube_counts`: any subsets of
    ``keys`` (the empty set = grand total), each row tagged with the
    SQL ``GROUPING()`` id (leftmost key = most significant bit).

    Shape: ONE data-sized exchange (full-tuple partials partitioned by
    ``keys[0]``) serves every requested set CONTAINING ``keys[0]``
    partition-locally — such a set pins the partition key, so all of a
    tuple's rows co-locate.  Each set NOT containing ``keys[0]``
    re-aggregates the tuple-thin base through one small exchange keyed
    by its own first column (consuming the lazy base pipeline once per
    such set — bounded re-execution over partials, never over raw
    rows).  The empty set reduces the partials through a single thin
    block."""
    n = len(keys)
    pos = {k: i for i, k in enumerate(keys)}
    norm: list[tuple[str, ...]] = []
    for s in sets:
        s = list(s)
        if not set(s) <= set(keys):
            raise ValueError(f"grouping set {s!r} not a subset of keys")
        t = tuple(sorted(set(s), key=pos.__getitem__))
        if t not in norm:
            norm.append(t)
    if not norm:
        raise ValueError("grouping_sets_counts: needs at least one set")

    def gid_of(subset: tuple[str, ...]) -> int:
        return sum(1 << (n - 1 - pos[k]) for k in keys if k not in subset)

    partials = _count_partials(ds, keys, out_col)
    with_k1 = [s for s in norm if s and keys[0] in s]
    without_k1 = [s for s in norm if s and keys[0] not in s]
    want_total = any(not s for s in norm)
    # the base (full tuple) feeds every without-k1 exchange; emit it
    # even when not itself requested, filtered from the final union
    need_base = bool(without_k1)
    emit_sets = list(with_k1)
    full = tuple(keys)
    if need_base and full not in emit_sets:
        emit_sets.append(full)

    def subset_table(t: pa.Table, subset: tuple[str, ...]) -> pa.Table:
        rep, sums = _weighted_tuple_sums(t, list(subset), out_col)
        cols: dict = {}
        for k in keys:
            col = t.column(k)
            col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
            if k in subset:
                cols[k] = col.take(pa.array(rep, type=pa.int64()))
            else:
                cols[k] = pa.nulls(len(rep), col.type)
        cols[out_col] = pa.array(sums, type=pa.int64())
        cols["grouping_id"] = pa.array(
            np.full(len(rep), gid_of(subset), dtype=np.int64))
        return pa.table(cols)

    def merge(t: pa.Table) -> pa.Table:
        return pa.concat_tables([subset_table(t, s) for s in emit_sets])

    levels = exchange(partials, keys[0], num_partitions, merge, "pyarrow")

    outs = []
    keep_gids = [gid_of(s) for s in with_k1]
    if keep_gids:
        gset = pa.array(keep_gids, type=pa.int64())
        outs.append(levels.map_batches(
            lambda t, _g=gset: t.filter(pc.is_in(t.column("grouping_id"), value_set=_g)),
            batch_format="pyarrow"))
    for s in without_k1:
        def sub_partial(t: pa.Table, _s=s) -> pa.Table:
            base = t.filter(pc.equal(t.column("grouping_id"), pa.scalar(0, pa.int64())))
            return subset_table(base, _s)

        def sub_merge(t: pa.Table, _s=s) -> pa.Table:
            return subset_table(t, _s)

        outs.append(exchange(levels.map_batches(sub_partial, batch_format="pyarrow"),
                             s[0], num_partitions, sub_merge, "pyarrow"))
    if want_total:
        outs.append(_grand_total(partials, keys, out_col, n, key_types))
    res = outs[0]
    for o in outs[1:]:
        res = res.union(o)
    return res


def group_mode(ds, *, key: str, val_col: str, num_partitions: int = 32):
    """Per-group mode: each key's most frequent value with the count,
    ties broken deterministically (count desc, value asc — the SQL
    ``row_number() OVER (ORDER BY cnt DESC, val)`` twin).

    Two-phase: batches forward distinct (key, value, cnt) rows — a
    million repeats of one pair forward one row — then one
    co-partition by key sums pair counts and takes the per-key argmax
    in a single sort pass (no per-group loop).  NULL values are
    excluded (SQL aggregates ignore NULLs); NULL keys form one group."""

    def partial(t: pa.Table) -> pa.Table:
        mask = pc.is_valid(t.column(val_col))
        t = t.filter(mask) if t.num_rows else t
        if t.num_rows == 0:
            return pa.table({key: t.column(key), val_col: t.column(val_col),
                             "cnt": pa.array([], type=pa.int64())})
        gids, rep = _multi_group_codes([t.column(key), t.column(val_col)])
        counts = np.bincount(gids, minlength=len(rep))
        return pa.table({
            key: t.column(key).take(pa.array(rep, type=pa.int64())),
            val_col: t.column(val_col).take(pa.array(rep, type=pa.int64())),
            "cnt": pa.array(counts.astype(np.int64)),
        })

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby([key, val_col], sort=False, dropna=False)["cnt"].sum().reset_index()
        agg = agg.sort_values([key, "cnt", val_col],
                              ascending=[True, False, True], kind="mergesort")
        top = agg[~agg.duplicated(key, keep="first")]
        return pd.DataFrame({
            key: top[key].to_numpy(),
            "mode_val": top[val_col].to_numpy(),
            "mode_cnt": top["cnt"].to_numpy(dtype=np.int64),
        })

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), key,
                    num_partitions, merge, "pandas")


# ---------------------------------------------------------------------------
# Per-group OLS regression (SQL regr_slope / regr_intercept / regr_r2)
# ---------------------------------------------------------------------------

def group_regr(ds, *, key: str, x_col: str, y_col: str, num_partitions: int = 32):
    """Per-group simple OLS regression of y on x — the ``GROUP BY``
    twin of :func:`~.sketches.exact_corr_stats`, with the same exact-sum
    discipline: per-batch per-key integer partials
    (n, Σx, Σy, Σx², Σy², Σxy) are computed in exact integers (int64
    segment sums behind an overflow guard, unbounded Python ints past it)
    and shipped as DECIMAL STRINGS — one row per key per batch, so the
    exchange is keys × batches, never rows — then ONE co-partition by
    key merges them and evaluates the fixed float expressions

        slope     = A / B                A = n·Σxy − Σx·Σy
        intercept = (Σy − slope·Σx) / n  B = n·Σx² − (Σx)²
        r2        = A² / (B·C)           C = n·Σy² − (Σy)²

    bit-identical to a HUGEINT SQL twin that evaluates the SAME
    expressions on the same exact sums (the engines' native streaming
    ``regr_*`` have unspecified accumulation order).  Columns must be
    integer-valued (convert money to cents upstream).  Rows with a NULL
    x or y are excluded (SQL ``regr_*`` semantics); NULL keys form one
    group; zero-variance groups (B = 0, or C = 0 for r2) yield NULL
    exactly like the twin's guarded CASE."""

    def partial(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.is_valid(t.column(x_col)), pc.is_valid(t.column(y_col)))
        t = t.filter(mask) if t.num_rows else t
        if t.num_rows == 0:
            return pa.table({
                key: t.column(key),
                "n": pa.array([], type=pa.int64()),
                "sx": pa.array([], type=pa.string()),
                "sy": pa.array([], type=pa.string()),
                "sxx": pa.array([], type=pa.string()),
                "syy": pa.array([], type=pa.string()),
                "sxy": pa.array([], type=pa.string()),
            })
        kcodes, kfirst = _first_occurrence_codes(t.column(key))
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        r = segments.runs(kcodes)
        k = len(kfirst)
        n_g = np.bincount(kcodes, minlength=k)
        mx = int(np.abs(x).max())
        my = int(np.abs(y).max())
        if max(mx, my) ** 2 * len(x) < (1 << 62):
            # vectorized exact int64 path (guarded against overflow)
            sums = [segments.sum(r, v) for v in (x, y, x * x, y * y, x * y)]
            cols = [np.array([str(int(s)) for s in col], dtype=object) for col in sums]
        else:  # huge magnitudes: per-group unbounded Python ints, still exact
            cols = [np.empty(k, dtype=object) for _ in range(5)]
            bounds = np.append(r.starts, len(x))
            for g in range(k):
                seg = r.order[bounds[g]:bounds[g + 1]]
                gx = [int(v) for v in x[seg]]
                gy = [int(v) for v in y[seg]]
                vals = (sum(gx), sum(gy), sum(v * v for v in gx),
                        sum(v * v for v in gy), sum(a * b for a, b in zip(gx, gy)))
                for c, v in zip(cols, vals):
                    c[g] = str(v)
        return pa.table({
            key: t.column(key).take(pa.array(kfirst, type=pa.int64())),
            "n": pa.array(n_g.astype(np.int64)),
            "sx": pa.array(cols[0], type=pa.string()),
            "sy": pa.array(cols[1], type=pa.string()),
            "sxx": pa.array(cols[2], type=pa.string()),
            "syy": pa.array(cols[3], type=pa.string()),
            "sxy": pa.array(cols[4], type=pa.string()),
        })

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        keys_out, n_out = [], []
        slope_out, icept_out, r2_out = [], [], []
        for kval, g in df.groupby(key, sort=False, dropna=False):
            n = int(g["n"].sum())
            sx = sum(int(v) for v in g["sx"])
            sy = sum(int(v) for v in g["sy"])
            sxx = sum(int(v) for v in g["sxx"])
            syy = sum(int(v) for v in g["syy"])
            sxy = sum(int(v) for v in g["sxy"])
            a = n * sxy - sx * sy
            b = n * sxx - sx * sx
            c = n * syy - sy * sy
            if b == 0:
                slope = icept = None
            else:
                slope = float(a) / float(b)
                icept = (float(sy) - slope * float(sx)) / float(n)
            r2 = ((float(a) * float(a)) / (float(b) * float(c))
                  if b != 0 and c != 0 else None)
            keys_out.append(kval)
            n_out.append(n)
            slope_out.append(slope)
            icept_out.append(icept)
            r2_out.append(r2)
        return pd.DataFrame({
            key: keys_out,
            "n": np.asarray(n_out, dtype=np.int64),
            "slope": pd.array(slope_out, dtype="float64"),
            "intercept": pd.array(icept_out, dtype="float64"),
            "r2": pd.array(r2_out, dtype="float64"),
        })

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), key,
                    num_partitions, merge, "pandas")


# ---------------------------------------------------------------------------
# Per-group arg-max / arg-min row selection
# ---------------------------------------------------------------------------

def group_argmax(ds, *, key: str, order_col: str, tiebreak_col: str,
                 keep_cols: list[str], descending: bool = True,
                 num_partitions: int = 32):
    """Each group's row at the extreme of ``order_col`` — the
    ``row_number() OVER (PARTITION BY key ORDER BY order_col DESC,
    tiebreak) = 1`` twin.  SQL's native ``arg_max`` leaves ties
    UNSPECIFIED; the explicit tiebreak column (ascending, expected
    unique within a group) makes the selection deterministic on both
    engines.

    Per-batch local keep-first caps a hot key at ONE row per block
    before the single co-partition by key, so a key holding half the
    corpus ships num_batches rows, not half the corpus.  NULL order
    values sort last (never selected while a non-NULL row exists) —
    DuckDB's default NULLS LAST, pandas' na_position='last'."""
    cols = [key, order_col, tiebreak_col] + [
        c for c in keep_cols if c not in (key, order_col, tiebreak_col)]

    def keep_first(df: pd.DataFrame) -> pd.DataFrame:
        df = df[cols].sort_values([key, order_col, tiebreak_col],
                                  ascending=[True, not descending, True],
                                  kind="mergesort", na_position="last")
        return df[~df.duplicated(key, keep="first")]

    return exchange(ds.map_batches(keep_first, batch_format="pandas"), key,
                    num_partitions, keep_first, "pandas")


# ---------------------------------------------------------------------------
# Per-group ordered string aggregation
# ---------------------------------------------------------------------------

def group_string_agg(ds, *, key: str, val_col: str, order_cols: list[str],
                     sep: str = ",", out_col: str = "agg",
                     num_partitions: int = 32):
    """Ordered per-group string concatenation — the exact twin of::

        string_agg(val, sep ORDER BY order0, order1, ...) GROUP BY key

    SQL string_agg semantics: NULL values are SKIPPED (contribute
    neither a token nor a separator); an all-NULL group yields NULL.
    The order tuple must be UNIQUE per key — string concatenation is
    the one aggregate where tie order is directly visible in the
    output bytes, so this is a correctness contract, not advice.

    Shape: one co-partition by key hash carrying (key, order..., val)
    rows — an ordered concat is NOT mergeable from per-batch partials
    (batch order interleaves arbitrarily with the order columns), so
    the rows ship once, like every ordered window stage.  Per
    partition: one :func:`segments.runs`, then a single pandas groupby
    join over the sorted view.  A pathological hot key produces one giant output
    string on one worker — cap upstream (group_topk) if a key can hold
    a meaningful fraction of the corpus."""
    cols = [key, *order_cols, val_col]

    def per_partition(df: pd.DataFrame) -> pd.DataFrame:
        codes, _ = pd.factorize(df[key], use_na_sentinel=False)
        r = segments.runs(codes, {c: df[c].to_numpy() for c in order_cols})
        vals = df[val_col].iloc[r.order]
        joined = (
            vals.dropna().astype(str)
            .groupby(r.ids[vals.notna().to_numpy()])
            .agg(sep.join)
        )
        agg = joined.reindex(np.arange(len(r))).astype(object).to_numpy()
        agg[pd.isna(agg)] = None  # all-NULL group → NULL, dtype stays string
        out = pd.DataFrame({key: df[key].to_numpy()[r.order[r.starts]]})
        out[out_col] = agg
        return out

    return exchange(ds.select_columns(cols), key, num_partitions, per_partition, "pandas")


# ---------------------------------------------------------------------------
# Per-group exact-sum distribution moments (variance / skewness / kurtosis)
# ---------------------------------------------------------------------------

def group_moments(ds, *, key: str, x_col: str, num_partitions: int = 32):
    """Per-group mean / population variance / stddev / skewness /
    kurtosis from EXACT integer power sums — the moments sibling of
    :func:`group_regr`, with the same discipline: per-batch per-key
    partials (n, Σx, Σx², Σx³, Σx⁴) in exact integers shipped as
    decimal strings (keys × batches exchange, never rows), ONE
    co-partition by key, then fixed float expressions on the exact
    sums::

        M2 = n·Σx² − (Σx)²                       (= n² · m2)
        M3 = n²·Σx³ − 3n·Σx·Σx² + 2(Σx)³         (= n³ · m3)
        M4 = n³·Σx⁴ − 4n²·Σx·Σx³ + 6n(Σx)²·Σx² − 3(Σx)⁴   (= n⁴ · m4)
        var_pop  = M2 / n²          std_pop = sqrt(var_pop)
        skew_pop = (M3 / n³) / (var_pop · std_pop)
        kurt_pop = (M4 / n⁴) / (var_pop · var_pop) − 3     (excess)

    bit-identical to a HUGEINT SQL twin evaluating the SAME expressions
    (native streaming ``skewness()``/``kurtosis()`` accumulate floats in
    unspecified order — and use sample corrections; this is the
    population form).  ``x_col`` must be integer-valued (money → cents
    upstream); NULLs are excluded like SQL aggregates; zero-variance
    groups yield NULL skew/kurt exactly like the twin's guarded CASE.

    int64-overflow discipline: x⁴ of a 5-digit cents value already
    exceeds int64, so the vectorized path is guarded per power — sums
    whose worst case fits use segment sums on int64; the rest switch the
    SAME segment sum to an object-dtype view (unbounded Python ints,
    still one C-loop pass, never a per-group Python loop)."""

    POWERS = ("s1", "s2", "s3", "s4")

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(x_col))) if t.num_rows else t
        if t.num_rows == 0:
            return pa.table({
                key: t.column(key),
                "n": pa.array([], type=pa.int64()),
                **{p: pa.array([], type=pa.string()) for p in POWERS},
            })
        kcodes, kfirst = _first_occurrence_codes(t.column(key))
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        r = segments.runs(kcodes)
        n_g = np.bincount(kcodes, minlength=len(kfirst))
        mx = max(int(np.abs(x).max()), 1)
        cols = {}
        xp64 = x.copy()
        xpobj = None
        for p, name in enumerate(POWERS, start=1):
            if mx ** p * len(x) < (1 << 62):
                if p > 1:
                    xp64 = xp64 * x  # exact: mx**p bounded above
                sums = segments.sum(r, xp64)
            else:
                if xpobj is None:  # first power past int64 range
                    xpobj = x.astype(object) ** p
                else:
                    xpobj = xpobj * x.astype(object)
                sums = segments.sum(r, xpobj)
            cols[name] = np.array([str(int(s)) for s in sums], dtype=object)
        return pa.table({
            key: t.column(key).take(pa.array(kfirst, type=pa.int64())),
            "n": pa.array(n_g.astype(np.int64)),
            **{p: pa.array(cols[p], type=pa.string()) for p in POWERS},
        })

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        rows = {key: [], "n": [], "mean": [], "var_pop": [],
                "std_pop": [], "skew_pop": [], "kurt_pop": []}
        for kval, g in df.groupby(key, sort=False, dropna=False):
            n = int(g["n"].sum())
            s1 = sum(int(v) for v in g["s1"])
            s2 = sum(int(v) for v in g["s2"])
            s3 = sum(int(v) for v in g["s3"])
            s4 = sum(int(v) for v in g["s4"])
            m2n = n * s2 - s1 * s1
            m3n = n * n * s3 - 3 * n * s1 * s2 + 2 * s1 * s1 * s1
            m4n = (n * n * n * s4 - 4 * n * n * s1 * s3
                   + 6 * n * s1 * s1 * s2 - 3 * s1 * s1 * s1 * s1)
            nf = float(n)
            mean = float(s1) / nf
            var = float(m2n) / (nf * nf)
            std = math.sqrt(var)
            if m2n == 0:
                skew = kurt = None
            else:
                skew = (float(m3n) / (nf * nf * nf)) / (var * std)
                kurt = (float(m4n) / (nf * nf * nf * nf)) / (var * var) - 3.0
            rows[key].append(kval)
            rows["n"].append(n)
            rows["mean"].append(mean)
            rows["var_pop"].append(var)
            rows["std_pop"].append(std)
            rows["skew_pop"].append(skew)
            rows["kurt_pop"].append(kurt)
        return pd.DataFrame({
            key: rows[key],
            "n": np.asarray(rows["n"], dtype=np.int64),
            "mean": pd.array(rows["mean"], dtype="float64"),
            "var_pop": pd.array(rows["var_pop"], dtype="float64"),
            "std_pop": pd.array(rows["std_pop"], dtype="float64"),
            "skew_pop": pd.array(rows["skew_pop"], dtype="float64"),
            "kurt_pop": pd.array(rows["kurt_pop"], dtype="float64"),
        })

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), key,
                    num_partitions, merge, "pandas")
