"""Distributed sketch / summary operators: heavy hitters (exact and
Misra-Gries), exact quantiles, and deterministic stratified sampling.

Scale design notes (the shapes that survive 100 TB):

- **exact heavy hitters**: per-batch ``value_counts`` partials (shuffle
  volume = distinct tokens per batch, not token occurrences), then a
  co-partition merge — every distinct token's TOTAL lands in exactly
  one hash partition, so per-partition top-k is globally complete and
  only ``partitions × k`` rows reach the final merge.
- **Misra-Gries top-k**: when the vocabulary itself is too large to
  shuffle, each batch compresses to a capacity-bounded summary and
  summaries merge pairwise (mergeable-summaries construction: sum,
  then subtract the (c+1)-th largest count).  Counts are lower bounds
  with error ≤ n/(c+1), so every item with frequency > n/(c+1) is
  guaranteed present — the classic frequent-items contract.
- **exact quantiles**: three STREAMING passes over a single pruned
  column (never a global sort): (1) min/max/count partials, (2) a
  fixed-width histogram (per-batch ``bincount`` → sparse partials →
  co-partition merge → ``num_bins`` rows on the driver), (3) for the
  target bins only, per-batch (value, count) unique partials.  A
  megabin of one repeated value collapses to one row per batch, so
  value skew cannot blow up the refine pass; a bin with too many
  DISTINCT values raises with advice to increase ``num_bins``.
- **stratified sampling**: a pure per-batch filter on a deterministic
  Lehmer-style hash of the id — no shuffle, no state, reproducible
  across engines (the same arithmetic is SQL-expressible, which is
  what makes the driver oracle exact).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import segments
from .aggregate import _first_occurrence_codes
from .exchange import exchange
from .fold import fold

# ---------------------------------------------------------------------------
# heavy hitters — exact two-phase
# ---------------------------------------------------------------------------


def token_count_partials(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-batch (token, cnt) partials: split on single spaces (the
    exact twin of DuckDB ``unnest(string_split(text, ' '))``) with one
    Arrow kernel and count with ONE vectorized ``value_counts``."""
    import pyarrow.compute as pc

    col = batch.column(text_col)
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = pc.list_flatten(pc.split_pattern(col.drop_null(), " "))
    if not len(flat):
        return pa.table({"token": pa.array([], type=pa.string()),
                         "cnt": pa.array([], type=pa.int64())})
    vc = pd.Series(flat.to_pandas(), dtype=object).value_counts(sort=False)
    return pa.table({
        "token": pa.array(vc.index.to_numpy(dtype=object), type=pa.string()),
        "cnt": pa.array(vc.to_numpy().astype(np.int64)),
    })


def top_k_tokens(ds, k: int = 20, text_col: str = "text", num_partitions: int = 32):
    """Exact global top-k tokens: (token, cnt), cnt desc / token asc.

    Two-phase: batch partials → co-partition sum (one vectorized pandas
    groupby per partition — never a per-group Ray aggregate) →
    per-partition top-k (complete because a token's total is confined
    to its hash partition) → tiny global merge of ``partitions × k``
    rows."""
    partials = ds.map_batches(
        lambda b: token_count_partials(b, text_col), batch_format="pyarrow"
    )
    schema = pa.schema([("token", pa.string()), ("cnt", pa.int64())])

    def merge_topk(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("token", as_index=False)["cnt"].sum()
        agg = agg.sort_values(["cnt", "token"], ascending=[False, True], kind="mergesort").head(k)
        return pa.Table.from_pandas(agg, preserve_index=False, schema=schema).replace_schema_metadata(None)

    def final(df: pd.DataFrame) -> pa.Table:
        out = df.sort_values(["cnt", "token"], ascending=[False, True], kind="mergesort").head(k)
        return pa.Table.from_pandas(out, preserve_index=False, schema=schema).replace_schema_metadata(None)

    return (
        exchange(partials, "token", num_partitions, merge_topk, "pandas")
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# heavy hitters — Misra-Gries (mergeable summaries)
# ---------------------------------------------------------------------------


def _mg_compress(tokens: np.ndarray, counts: np.ndarray, capacity: int):
    """Compress exact (token, count) rows to ≤ ``capacity`` entries by
    subtracting the (capacity+1)-th largest count from every entry and
    dropping non-positives — the Misra-Gries decrement, batched."""
    if len(tokens) <= capacity:
        return tokens, counts
    order = np.argsort(-counts, kind="stable")
    d = counts[order[capacity]]
    keep = counts > d
    return tokens[keep], counts[keep] - d


def mg_partials(batch: pa.Table, capacity: int, text_col: str = "text") -> pa.Table:
    t = token_count_partials(batch, text_col)
    toks = t.column("token").to_numpy(zero_copy_only=False)
    cnts = t.column("cnt").to_numpy()
    toks, cnts = _mg_compress(toks, cnts, capacity)
    return pa.table({"token": pa.array(toks, type=pa.string()),
                     "cnt": pa.array(cnts.astype(np.int64))})


def top_k_tokens_sketch(ds, k: int = 20, capacity: int = 1024,
                        text_col: str = "text", num_partitions: int = 8):
    """Approximate top-k via mergeable Misra-Gries summaries: (token,
    cnt) with cnt a LOWER bound, error ≤ total_tokens/(capacity+1).
    Use when the distinct-token universe is too large to shuffle —
    the shuffled volume is ``capacity`` rows per batch regardless of
    vocabulary size.  Every token with true frequency >
    total/(capacity+1) is guaranteed to surface (frequent-items
    contract); ranks among near-ties may differ from exact."""
    partials = ds.map_batches(
        lambda b: mg_partials(b, capacity, text_col), batch_format="pyarrow"
    )
    schema = pa.schema([("token", pa.string()), ("cnt", pa.int64())])

    def merge(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("token", as_index=False)["cnt"].sum()
        toks, cnts = _mg_compress(
            agg["token"].to_numpy(dtype=object), agg["cnt"].to_numpy(), capacity
        )
        out = pd.DataFrame({"token": toks, "cnt": cnts})
        return pa.Table.from_pandas(out, preserve_index=False, schema=schema).replace_schema_metadata(None)

    def final(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("token", as_index=False)["cnt"].sum()
        toks, cnts = _mg_compress(
            agg["token"].to_numpy(dtype=object), agg["cnt"].to_numpy(), capacity
        )
        out = (
            pd.DataFrame({"token": toks, "cnt": cnts})
            .sort_values(["cnt", "token"], ascending=[False, True], kind="mergesort")
            .head(k)
        )
        return pa.Table.from_pandas(out, preserve_index=False, schema=schema).replace_schema_metadata(None)

    return (
        exchange(partials, "token", num_partitions, merge, "pandas")
        .repartition(1)
        .map_batches(final, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# exact distributed quantiles (quantile_disc semantics)
# ---------------------------------------------------------------------------

#: distinct values a single target bin may hold before the refine pass
#: refuses (raise → caller increases num_bins); bounds driver memory
_REFINE_DISTINCT_CAP = 2_000_000


def _bin_of(vals: np.ndarray, mn: float, width: float, num_bins: int) -> np.ndarray:
    """The ONE binning formula used by both the histogram and refine
    passes — identical float arithmetic in both places means a value
    can never straddle a bin boundary between passes."""
    if width <= 0:
        return np.zeros(len(vals), dtype=np.int64)
    return np.clip(((vals - mn) / width).astype(np.int64), 0, num_bins - 1)


def exact_quantiles(ds, col: str, qs: list[float], num_bins: int = 4096,
                    num_partitions: int = 8, interp: bool = False) -> pd.DataFrame:
    """Exact ``quantile_disc`` over a numeric column WITHOUT a global
    sort: (q, value) with value = the element at 1-indexed rank
    ``max(1, ceil(q*n))`` of the sorted non-null column (DuckDB /
    ANSI ``percentile_disc`` semantics).

    ``interp=True`` switches to ``quantile_cont`` / ``percentile_cont``
    semantics: the value interpolates between the order statistics at
    ranks ``floor(h)+1`` and ``floor(h)+2`` for ``h = (n-1)·q``, as
    ``v_lo·(1−frac) + v_hi·frac`` — the exact expression DuckDB
    evaluates, verified bit-identical (the algebraically-equal
    ``v_lo + frac·(v_hi−v_lo)`` is NOT: it differs in the last ulp).

    Three streaming passes over the (pruned) input — min/max/count
    partials, fixed-width histogram, and per-target-bin (value, count)
    unique partials — shuffle tiny summaries only.  Pass ``ds`` as a
    cheap re-executable pipeline (a column-pruned ``read_parquet``):
    each pass re-executes it.
    """
    qs = sorted(set(float(q) for q in qs))

    # ---- pass 1: min / max / count partials ---------------------------
    def stats(t: pa.Table) -> tuple | None:
        v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        return (float(v.min()), float(v.max()), len(v)) if len(v) else None

    st = fold(ds, stats, lambda ps: (min(p[0] for p in ps), max(p[1] for p in ps),
                                     sum(p[2] for p in ps)))
    if st is None:
        return pd.DataFrame({"q": qs, "value": [np.nan] * len(qs)})
    mn, mx, n = st
    width = (mx - mn) / num_bins

    # ---- pass 2: histogram (sparse partials, co-partition merge) ------
    def hist(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        bins = _bin_of(v, mn, width, num_bins)
        bc = np.bincount(bins, minlength=num_bins)
        nz = np.flatnonzero(bc)
        return pa.table({"bin": pa.array(nz.astype(np.int64)),
                         "cnt": pa.array(bc[nz].astype(np.int64))})

    def merge_bins(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("bin", as_index=False)["cnt"].sum()
        return pa.Table.from_pandas(agg[["bin", "cnt"]], preserve_index=False).replace_schema_metadata(None)

    hist_df = exchange(ds.map_batches(hist, batch_format="pyarrow"), "bin", num_partitions,
                       merge_bins, "pandas").to_pandas()
    hist_df = hist_df.sort_values("bin")
    counts = np.zeros(num_bins, dtype=np.int64)
    counts[hist_df["bin"].to_numpy()] = hist_df["cnt"].to_numpy()
    cum = np.cumsum(counts)  # cum[b] = rows in bins 0..b

    # rank r(q) = max(1, ceil(q*n)); target bin = first b with cum[b] >= r
    if interp:
        qranks: dict = {}
        for q in qs:
            h = (n - 1) * q
            lo_r = int(np.floor(h)) + 1
            qranks[q] = (lo_r, min(lo_r + 1, n), h - np.floor(h))
        all_ranks = sorted({r for lo, hi, _ in qranks.values() for r in (lo, hi)})
    else:
        ranks = {q: max(1, int(np.ceil(q * n))) for q in qs}
        all_ranks = sorted(set(ranks.values()))
    target_bins = sorted(set(int(np.searchsorted(cum, r)) for r in all_ranks))

    # ---- pass 3: (value, count) unique partials for target bins only --
    tb = np.array(target_bins, dtype=np.int64)

    def refine(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        bins = _bin_of(v, mn, width, num_bins)
        keep = np.isin(bins, tb)
        if not keep.any():
            return pa.table({"bin": pa.array([], type=pa.int64()),
                             "value": pa.array([], type=pa.float64()),
                             "cnt": pa.array([], type=pa.int64())})
        sel_v, sel_b = v[keep], bins[keep]
        out_b, out_v, out_c = [], [], []
        for b in np.unique(sel_b):
            u, c = np.unique(sel_v[sel_b == b], return_counts=True)
            out_b.append(np.full(len(u), b, dtype=np.int64))
            out_v.append(u)
            out_c.append(c.astype(np.int64))
        return pa.table({"bin": pa.array(np.concatenate(out_b)),
                         "value": pa.array(np.concatenate(out_v)),
                         "cnt": pa.array(np.concatenate(out_c))})

    def merge_vals(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby(["bin", "value"], as_index=False)["cnt"].sum()
        return pa.Table.from_pandas(agg, preserve_index=False).replace_schema_metadata(None)

    vals_df = exchange(ds.map_batches(refine, batch_format="pyarrow"), "value", num_partitions,
                       merge_vals, "pandas").to_pandas()
    if len(vals_df) > _REFINE_DISTINCT_CAP:
        raise ValueError(
            f"target bins hold {len(vals_df)} distinct values "
            f"(cap {_REFINE_DISTINCT_CAP}); increase num_bins"
        )

    def val_at(r: int) -> float:
        b = int(np.searchsorted(cum, r))
        before = int(cum[b - 1]) if b > 0 else 0
        local_rank = r - before  # 1-indexed within bin b
        g = vals_df[vals_df["bin"] == b].sort_values("value")
        cc = g["cnt"].to_numpy().cumsum()
        pos = int(np.searchsorted(cc, local_rank))
        return float(g["value"].to_numpy()[pos])

    out = []
    for q in qs:
        if interp:
            lo_r, hi_r, frac = qranks[q]
            v_lo, v_hi = val_at(lo_r), val_at(hi_r)
            out.append((q, v_lo * (1.0 - frac) + v_hi * frac))
        else:
            out.append((q, val_at(ranks[q])))
    return pd.DataFrame(out, columns=["q", "value"])


# ---------------------------------------------------------------------------
# deterministic stratified sampling
# ---------------------------------------------------------------------------

#: Lehmer-style sampling hash modulus/multiplier — small enough that
#: ``id * MULT`` stays exact in BIGINT.  numpy's ``%`` is always
#: non-negative while SQL's keeps the dividend's sign, so the DuckDB
#: twin must spell the canonical non-negative mod
#: ``((id * 48271) % 65537 + 65537) % 65537 < floor(rate * 65537)``
#: to match bit-for-bit for negative ids too
_SAMPLE_MULT = 48271
_SAMPLE_MOD = 65537


def sample_stratified(ds, rates: dict[str, float], strata_col: str = "lang",
                      id_col: str = "doc_id", default_rate: float = 0.0):
    """Deterministic per-stratum sampling: keep a row iff
    ``(id * 48271) % 65537 < floor(rate[stratum] * 65537)``.

    A pure per-batch filter — no shuffle, no state, no randomness; the
    same row set is selected on every run, every engine, and every
    batch split (the sampling decision depends only on the row's own
    id), which is exactly what a reproducible training-data pipeline
    needs."""
    thresholds = {k: int(np.floor(float(v) * _SAMPLE_MOD)) for k, v in rates.items()}
    default_thr = int(np.floor(float(default_rate) * _SAMPLE_MOD))

    def keep(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = (ids * _SAMPLE_MULT) % _SAMPLE_MOD
        strata = pd.Series(t.column(strata_col).to_pylist(), dtype=object)
        thr = strata.map(thresholds).fillna(default_thr).to_numpy().astype(np.int64)
        return t.filter(pa.array(h < thr))

    return ds.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# per-group exact quantiles
# ---------------------------------------------------------------------------


def group_quantiles(ds, key: str, col: str, qs: list[float], names: list[str],
                    num_partitions: int = 32):
    """Exact per-group ``quantile_disc``: one output row per key with a
    column per requested quantile (rank ``max(1, ceil(q*n))``).

    Co-partition by key, then ONE vectorized pass per partition: sort
    by (key, value), find group boundaries, and gather every quantile
    of every group with pure index arithmetic — no per-group Python
    loop, no Ray per-group aggregate.  Contract: one key's rows fit in
    one partition (the standard hash co-partition bound); for a single
    key too large for that, use :func:`exact_quantiles` filtered to
    the key instead."""
    if len(qs) != len(names):
        raise ValueError("qs and names must pair up")

    def per_part(df: pd.DataFrame) -> pa.Table:
        in_key_dtype, in_col_dtype = df[key].dtype, df[col].dtype
        df = df[[key, col]].dropna()
        if not len(df):
            # dtypes must match what non-empty partitions infer, or the
            # dataset's blocks disagree on schema (int64 key/value runs
            # would collide with a hardcoded string/float64 empty)
            empty = pd.DataFrame(
                {key: pd.Series(dtype=in_key_dtype),
                 **{n: pd.Series(dtype=in_col_dtype) for n in names}}
            )
            return pa.Table.from_pandas(empty, preserve_index=False).replace_schema_metadata(None)
        df = df.sort_values([key, col], kind="mergesort")
        k = df[key].to_numpy()
        v = df[col].to_numpy()
        kr = segments.runs(k)  # k is sorted, so the runs keep the frame's order
        starts, n = kr.starts, kr.sizes
        cols = {key: k[starts]}
        for q, name in zip(qs, names):
            r = np.maximum(1, np.ceil(q * n).astype(np.int64))
            cols[name] = v[starts + r - 1]
        return pa.Table.from_pandas(pd.DataFrame(cols), preserve_index=False).replace_schema_metadata(None)

    return exchange(ds, key, num_partitions, per_part, "pandas")


# ---------------------------------------------------------------------------
# HyperLogLog distinct counting
# ---------------------------------------------------------------------------


def _hll_registers(values: np.ndarray, p: int) -> np.ndarray:
    """2^p max-rank registers from a uint64 hash array, vectorized:
    register index = top p bits, rank = 1 + leading zeros of the
    remaining 64-p bits (capped).  One segment max over the
    index-sorted ranks — no per-value loop."""
    m = 1 << p
    idx = (values >> np.uint64(64 - p)).astype(np.int64)
    rest = (values << np.uint64(p)) | (np.uint64(1) << np.uint64(p - 1))
    # leading zeros via float64 exponent is unsafe past 2^53; use the
    # bit_length identity on the shifted remainder instead
    nbits = np.zeros(len(rest), dtype=np.int64)
    x = rest.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = x >= (np.uint64(1) << np.uint64(shift))
        nbits[big] += shift
        x[big] >>= np.uint64(shift)
    rank = (64 - nbits).astype(np.uint8)  # 1 + clz(rest)
    regs = np.zeros(m, dtype=np.uint8)
    r = segments.runs(idx)
    regs[idx[r.order[r.starts]]] = segments.max(r, rank)
    return regs


def hll_partials(batch: pa.Table, col: str, p: int = 12) -> np.ndarray:
    """The batch's 2^p uint8 HLL registers.  Merging partials is an
    elementwise max — commutative and idempotent, so the estimate is
    EXACTLY batch-split invariant."""
    raw = batch.column(col)
    arr = np.asarray(raw.to_pylist(), dtype=object)
    arr = arr[[v is not None for v in arr]]
    if len(arr):
        h = pd.util.hash_array(arr, categorize=False)
        regs = _hll_registers(h, p)
    else:
        regs = np.zeros(1 << p, dtype=np.uint8)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Standard bias-corrected HLL estimate with the linear-counting
    small-range correction (public HyperLogLog formulation)."""
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int(np.sum(regs == 0))
    if est <= 2.5 * m and zeros:
        return float(m * np.log(m / zeros))
    return float(est)


def hll_distinct(ds, col: str, *, p: int = 12) -> float:
    """Approximate distinct count of ``col``: per-batch register
    partials (2^p bytes per batch — the only thing that moves), max-merged
    through :func:`stages.fold.fold`.  Relative error
    ~1.04/sqrt(2^p) (~1.6% at p=12).  Approximate by design → pinned by
    pytest accuracy bounds against exact counts, not a driver oracle
    (same policy as the Misra-Gries sketch above)."""
    regs = fold(ds, lambda b: hll_partials(b, col, p), np.maximum.reduce)
    return hll_estimate(np.zeros(1 << p, dtype=np.uint8) if regs is None else regs)


# ---------------------------------------------------------------------------
# KLL-style mergeable quantile sketch
# ---------------------------------------------------------------------------


class KllSketch:
    """Mergeable quantile sketch in the KLL style (public Karnin–Lang–
    Liberty formulation): a ladder of levels where level h holds items
    each representing 2^h originals; a full level sorts and keeps every
    other element (random offset), promoting the survivors.

    This is the ONE-PASS scale path beside :func:`exact_quantiles`
    (which needs 3 streaming passes): per-batch sketches are tiny
    (O(k log n) items), merge is associative, and rank error is
    bounded-probability O(1/k) — property-tested, not oracle-exact, so
    like Misra-Gries / HLL it ships without a driver query.

    Determinism: compaction offsets come from a counter-seeded Lehmer
    sequence, so a sketch built from the same items in the same order
    is reproducible; merge ORDER changes the sketch (not the bound),
    which is the standard trade for mergeability."""

    def __init__(self, k: int = 200):
        self.k = int(k)
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.n = 0
        self._rng_state = np.uint64(0x9E3779B97F4A7C15)

    def _coin(self) -> int:
        # deterministic coin: MINSTD step over an internal counter
        self._rng_state = (self._rng_state * np.uint64(6364136223846793005)
                           + np.uint64(1442695040888963407))
        return int(self._rng_state >> np.uint64(63))

    def _capacity(self, h: int) -> int:
        # geometrically decaying capacities, floor 8
        c = int(np.ceil(self.k * (2.0 / 3.0) ** (len(self.levels) - 1 - h)))
        return max(c, 8)

    def update_many(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if not len(v):
            return
        self.n += len(v)
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compress()

    def _compress(self) -> None:
        h = 0
        while h < len(self.levels):
            if len(self.levels[h]) > self._capacity(h):
                buf = np.sort(self.levels[h])
                off = self._coin()
                promoted = buf[off::2]
                self.levels[h] = np.empty(0, dtype=np.float64)
                if h + 1 == len(self.levels):
                    self.levels.append(np.empty(0, dtype=np.float64))
                self.levels[h + 1] = np.concatenate([self.levels[h + 1], promoted])
            h += 1

    def merge(self, other: "KllSketch") -> "KllSketch":
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, dtype=np.float64))
        for h, lvl in enumerate(other.levels):
            self.levels[h] = np.concatenate([self.levels[h], lvl])
        self.n += other.n
        self._compress()
        return self

    def quantile(self, q: float) -> float:
        items = np.concatenate(self.levels)
        weights = np.concatenate(
            [np.full(len(lvl), 1 << h, dtype=np.int64) for h, lvl in enumerate(self.levels)]
        )
        order = np.argsort(items)
        items, weights = items[order], weights[order]
        cum = np.cumsum(weights)
        target = max(1, int(np.ceil(float(q) * self.n)))
        idx = int(np.searchsorted(cum, target, side="left"))
        return float(items[min(idx, len(items) - 1)])


def kll_quantiles(ds, col: str, qs: list[float], *, k: int = 200) -> dict[float, float]:
    """One-pass approximate quantiles: per-batch KLL partial sketches
    (small — the only thing that moves) merged through
    :func:`stages.fold.fold`.  Use when the input cannot be re-executed
    for
    :func:`exact_quantiles`' three passes."""

    def partial(t: pa.Table) -> KllSketch:
        s = KllSketch(k)
        s.update_many(t.column(col).to_numpy(zero_copy_only=False).astype(np.float64))
        return s

    def merge(sketches: list) -> KllSketch:
        out = KllSketch(k)
        for s in sketches:
            out.merge(s)
        return out

    merged = fold(ds, partial, merge)
    if merged is None or merged.n == 0:
        raise ValueError("kll_quantiles: no non-null values")
    return {float(q): merged.quantile(q) for q in qs}


# ---------------------------------------------------------------------------
# count-min sketch (point-frequency estimation)
# ---------------------------------------------------------------------------

#: two independent 16-byte hash keys for Kirsch–Mitzenmacher double
#: hashing: row i probes ``(h1 + i*h2) mod w`` — d independent-enough
#: rows from two base hashes (public CMS + double-hashing results)
_CMS_KEY1 = "cms-row-hash-k01"
_CMS_KEY2 = "cms-row-hash-k02"


def _cms_indices(values: np.ndarray, d: int, w: int) -> np.ndarray:
    """(d, n) bucket indices for each value via double hashing.
    ``h2`` is forced odd so the probe stride never degenerates on an
    even ``w``."""
    h1 = pd.util.hash_array(values, categorize=False, hash_key=_CMS_KEY1)
    h2 = pd.util.hash_array(values, categorize=False, hash_key=_CMS_KEY2) | np.uint64(1)
    rows = np.arange(d, dtype=np.uint64)[:, None]
    return ((h1[None, :] + rows * h2[None, :]) % np.uint64(w)).astype(np.int64)


def cms_partials(batch: pa.Table, col: str, *, d: int = 4, w: int = 1 << 16,
                 weight_col: str | None = None) -> np.ndarray:
    """The batch's (d, w) int64 count-min counters.  Merging partials
    is an elementwise SUM — associative
    and commutative, so the merged sketch (hence every estimate) is
    EXACTLY batch-split invariant.  Counters accumulate via
    ``np.bincount`` per row (never ``ufunc.at`` — ~1 µs/element)."""
    raw = batch.column(col).to_pylist()
    if weight_col is not None:
        # null weights contribute nothing (SQL sum semantics) — an
        # int64-with-null column would otherwise round-trip through
        # float64 NaN and .astype(int64) it into INT64_MIN garbage
        wraw = batch.column(weight_col).to_pylist()
        keep = [i for i, v in enumerate(raw) if v is not None and wraw[i] is not None]
    else:
        keep = [i for i, v in enumerate(raw) if v is not None]
    counts = np.zeros((d, w), dtype=np.int64)
    if keep:
        vals = np.asarray([raw[i] for i in keep], dtype=object)
        idx = _cms_indices(vals, d, w)
        if weight_col is not None:
            wts = np.asarray([wraw[i] for i in keep], dtype=np.int64)
            # exact int64 accumulation: bincount's weighted path sums in
            # float64 (lossy past 2^53) — segment sums instead
            for r in range(d):
                cells = segments.runs(idx[r])
                counts[r][idx[r][cells.order[cells.starts]]] = segments.sum(cells, wts)
        else:
            for r in range(d):
                counts[r] = np.bincount(idx[r], minlength=w)
    return counts


def cms_build(ds, col: str, *, d: int = 4, w: int = 1 << 16,
              weight_col: str | None = None) -> np.ndarray:
    """Distributed count-min sketch of ``col``: per-batch counter
    partials (d×w int64 per batch — the only thing that moves; 2 MiB at
    the defaults) summed through :func:`stages.fold.fold`.  Guarantees
    (public CMS result): estimates NEVER
    undercount, and overcount by ≤ (e/w)·N with probability
    ≥ 1 − e^−d, N = total weight.  Approximate by design → pinned by
    pytest guarantee proofs against exact counts, not a driver oracle
    (same policy as Misra-Gries / HLL / KLL)."""

    table = fold(ds, lambda b: cms_partials(b, col, d=d, w=w, weight_col=weight_col), sum)
    return np.zeros((d, w), dtype=np.int64) if table is None else table


def cms_query(table: np.ndarray, values) -> np.ndarray:
    """Point-frequency estimates: min over the d rows' probed
    counters, vectorized over all queried values."""
    d, w = table.shape
    vals = np.asarray(list(values), dtype=object)
    idx = _cms_indices(vals, d, w)
    return np.min(table[np.arange(d)[:, None], idx], axis=0)


# ---------------------------------------------------------------------------
# per-group HyperLogLog distinct counting
# ---------------------------------------------------------------------------


def _hll_register_rows(kcodes: np.ndarray, hashes: np.ndarray, nk: int, p: int) -> np.ndarray:
    """(nk, 2^p) uint8 register matrix for hashed values grouped by
    dense key codes — ONE maximum.reduceat over the (key, register)
    sorted layout, no per-key loop."""
    m = 1 << p
    idx = (hashes >> np.uint64(64 - p)).astype(np.int64)
    rest = (hashes << np.uint64(p)) | (np.uint64(1) << np.uint64(p - 1))
    nbits = np.zeros(len(rest), dtype=np.int64)
    x = rest.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = x >= (np.uint64(1) << np.uint64(shift))
        nbits[big] += shift
        x[big] >>= np.uint64(shift)
    rank = (64 - nbits).astype(np.uint8)
    addr = kcodes * np.int64(m) + idx
    regs = np.zeros(nk * m, dtype=np.uint8)
    r = segments.runs(addr)
    regs[addr[r.order[r.starts]]] = segments.max(r, rank)
    return regs.reshape(nk, m)


def hll_estimate_rows(mat: np.ndarray) -> np.ndarray:
    """Vectorized bias-corrected HLL estimate per register row (with
    the linear-counting small-range correction) — the row-wise twin of
    :func:`hll_estimate`."""
    nk, m = mat.shape
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -mat.astype(np.float64)), axis=1)
    zeros = np.sum(mat == 0, axis=1)
    lc = np.where(zeros > 0, m * np.log(np.maximum(m / np.maximum(zeros, 1), 1.0)), est)
    return np.where((est <= 2.5 * m) & (zeros > 0), lc, est)


def hll_group_partials(batch: pa.Table, key: str, val: str, p: int) -> pa.Table:
    """One (key, 2^p-byte register blob) row per distinct key in the
    batch.  Merging rows of one key is an elementwise max —
    commutative and idempotent, so per-key estimates are EXACTLY
    batch-split invariant.  Null values register nothing; a key whose
    batch values are all null still emits (zero registers), so group
    presence survives like SQL GROUP BY.

    ``_first_occurrence_codes`` comes from the module-level import:
    this function executes ON WORKERS, where a function-body package
    import fails when the driver runs outside the repo directory."""
    m = 1 << p
    kcodes, first = _first_occurrence_codes(batch.column(key))
    nk = len(first)
    raw = batch.column(val).to_pylist()
    keep = np.array([v is not None for v in raw], dtype=bool)
    if keep.any():
        vals = np.asarray(raw, dtype=object)[keep]
        h = pd.util.hash_array(vals, categorize=False)
        mat = _hll_register_rows(kcodes[keep], h, nk, p)
    else:
        mat = np.zeros((nk, m), dtype=np.uint8)
    return pa.table(
        {
            key: batch.column(key).take(first),
            "regs": pa.array([mat[i].tobytes() for i in range(nk)], type=pa.binary()),
        }
    )


def hll_group_distinct(ds, *, key: str, val: str, p: int = 12,
                       out_col: str = "approx_distinct", num_partitions: int = 32):
    """Approximate ``count(DISTINCT val) GROUP BY key`` — the SCALE
    path beside the exact :func:`~logstash_filter_elastic_integration_ray.stages.windows.distinct_count_by`:
    when the global distinct-pair count itself is huge (the exact
    op's exchange is bounded by it), each batch instead forwards one
    2^p-byte register blob per key it holds, so the exchange is
    keys × batches REGARDLESS of value cardinality.  One co-partition
    by key hash, per-partition elementwise-max merge + vectorized
    row-wise estimation.  Relative error ~1.04/sqrt(2^p) (~1.6% at
    p=12).  Approximate by design → pinned by pytest accuracy bounds
    and exact-invariance proofs, not a driver oracle (same policy as
    Misra-Gries / HLL / KLL / CMS)."""
    m = 1 << p

    def merge(df: pd.DataFrame) -> pa.Table:
        codes, _ = pd.factorize(df[key], use_na_sentinel=False)
        blobs = np.frombuffer(b"".join(df["regs"].tolist()), dtype=np.uint8).reshape(len(df), m)
        r = segments.runs(codes)
        est = hll_estimate_rows(segments.max(r, blobs).data)
        rep = df.index.to_numpy()[r.order[r.starts]]
        out = df.loc[rep, [key]].reset_index(drop=True)
        out[out_col] = est
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return exchange(ds.map_batches(lambda t: hll_group_partials(t, key, val, p),
                                   batch_format="pyarrow"),
                    key, num_partitions, merge, "pandas")


def exact_corr_stats(ds, x_col: str, y_col: str) -> pd.DataFrame:
    """Pearson correlation + sample covariance over two INT64 columns
    via the exact-sum formulation: per-batch partials
    (n, Σx, Σy, Σx², Σy², Σxy) computed in unbounded Python ints
    (exact at any magnitude — Σx² over a 100 TB corpus overflows
    int64) and summed through :func:`stages.fold.fold`, and the final
    floats evaluate one fixed
    expression on exact integers —

        corr  = A / sqrt(B·C)          A = n·Σxy − Σx·Σy
        covar = A / (n·(n−1))          B = n·Σx² − (Σx)²
                                        C = n·Σy² − (Σy)²

    — bit-identical to a SQL twin that evaluates the SAME expression
    on the same exact sums (unlike the engines' native streaming
    ``corr()``, whose update order is unspecified).  Use integer
    measures (convert money to cents upstream); one streaming pass,
    no shuffle."""
    import math

    def partial(t: pa.Table) -> tuple:
        x = t.column(x_col).to_numpy(zero_copy_only=False).astype(np.int64)
        y = t.column(y_col).to_numpy(zero_copy_only=False).astype(np.int64)
        n_rows = len(x)
        mx = int(np.abs(x).max()) if n_rows else 0
        my = int(np.abs(y).max()) if n_rows else 0
        if n_rows and max(mx, my) ** 2 * n_rows < (1 << 62):
            # vectorized exact int64 path (guarded against overflow)
            return (n_rows, int(x.sum()), int(y.sum()), int((x * x).sum()),
                    int((y * y).sum()), int((x * y).sum()))
        # huge magnitudes: unbounded Python ints, still exact
        xs = [int(v) for v in x]
        ys = [int(v) for v in y]
        return (n_rows, sum(xs), sum(ys), sum(v * v for v in xs),
                sum(v * v for v in ys), sum(a * b for a, b in zip(xs, ys)))

    sums = fold(ds, partial, lambda ps: tuple(sum(v) for v in zip(*ps)))
    n, sx, sy, sxx, syy, sxy = sums or (0,) * 6
    a = n * sxy - sx * sy
    b = n * sxx - sx * sx
    c = n * syy - sy * sy
    corr = float(a) / math.sqrt(float(b) * float(c)) if b and c else float("nan")
    covar = float(a) / float(n * (n - 1)) if n > 1 else float("nan")
    return pd.DataFrame({"n": [n], "corr": [corr], "covar_samp": [covar]})


def equiwidth_histogram(ds, col: str, *, lo: float, hi: float, nbins: int) -> pd.DataFrame:
    """Equi-width histogram over a numeric column: per-batch
    ``bincount`` partials (one nbins-long count vector per batch) summed
    through :func:`stages.fold.fold` into (bin, bin_lo, cnt) rows.  Bin
    assignment is the ONE float
    expression shared verbatim with the SQL twin —

        bin = least(greatest(floor((x − lo) / w), 0), nbins − 1),
        w   = (hi − lo) / nbins

    — evaluated in IEEE double on both engines, so edge values bin
    identically; out-of-range values clamp to the edge bins; NULLs are
    dropped (SQL GROUP BY over a NULL-filtered expression).  Empty bins
    are omitted, like the GROUP BY twin.  ``bin_lo = lo + bin·w`` is
    the same single expression on both sides."""
    w = (hi - lo) / nbins

    def partial(t: pa.Table) -> np.ndarray:
        import pyarrow.compute as pc

        x = pc.drop_null(t.column(col)).to_numpy(zero_copy_only=False).astype(np.float64)
        idx = np.clip(np.floor((x - lo) / w), 0, nbins - 1).astype(np.int64)
        return np.bincount(idx, minlength=nbins)

    counts = fold(ds, partial, sum)
    if counts is None:
        counts = np.zeros(nbins, dtype=np.int64)
    bins = np.flatnonzero(counts).astype(np.int64)
    return pd.DataFrame({
        "bin": bins,
        "bin_lo": lo + bins * w,
        "cnt": counts[bins].astype(np.int64),
    })
