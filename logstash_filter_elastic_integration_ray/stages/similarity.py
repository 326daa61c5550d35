"""Similarity search over an embedding column (``list<float>``).

- :func:`brute_force_topk` — the exact baseline: per batch, a float64
  matmul of the batch's embeddings against a small broadcast query
  matrix, per-batch partial top-k, then a tiny per-query merge.  The
  shuffled volume is ``num_batches × k`` candidate rows, never the
  full table.
- :class:`IvfIndex` / :func:`ivf_topk` — the scale path: coarse
  k-means centroids (seeded, few iterations, trained on a sample),
  buckets assigned per batch; queries probe only the ``nprobe``
  nearest buckets.  Recall measured against brute force in tests.
- embedding-cosine near-dup: :func:`cosine_dup_pairs` reuses the same
  batch-matmul shape for pairs above a threshold.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

# module-level (NOT function-level): these are used inside map_groups
# UDFs that execute on workers, where the package is pickled by value
# and function-level relative imports raise ModuleNotFoundError
from .exchange import cogroup, copartition, exchange
from .dedup import _distinct_texts, distinct_pairs, hamming64


def _to_matrix(col) -> np.ndarray:
    """list<float> column → (n, d) float64 matrix, zero-copy-ish."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def topk_partial_batch(batch: pa.Table, queries: np.ndarray, query_ids: np.ndarray, k: int,
                       id_col: str = "vec_id", emb_col: str = "embedding") -> pa.Table:
    ids = batch.column(id_col).to_numpy()
    m = _normalize(_to_matrix(batch.column(emb_col)))
    sims = m @ queries.T  # (n, q)
    out_q, out_id, out_sim = [], [], []
    for qi in range(queries.shape[0]):
        col = sims[:, qi]
        kk = min(k + 1, len(col))  # +1 to survive self-match removal
        top = np.argpartition(-col, kk - 1)[:kk]
        for t in top:
            out_q.append(int(query_ids[qi]))
            out_id.append(int(ids[t]))
            out_sim.append(float(col[t]))
    return pa.table(
        {
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor_id": pa.array(out_id, type=pa.int64()),
            "cosine": pa.array(out_sim, type=pa.float64()),
        }
    )


def _final_topk(k: int, exclude_self: bool):
    def merge(g: pd.DataFrame) -> pa.Table:
        qid = int(g["query_id"].iloc[0])
        if exclude_self:
            g = g[g["neighbor_id"] != qid]
        # deterministic: cosine desc, neighbor_id asc tie-break
        g = g.sort_values(["cosine", "neighbor_id"], ascending=[False, True], kind="mergesort").head(k)
        return pa.table(
            {
                "query_id": pa.array(g["query_id"].to_numpy(), type=pa.int64()),
                "neighbor_id": pa.array(g["neighbor_id"].to_numpy(), type=pa.int64()),
                "rank": pa.array(np.arange(1, len(g) + 1, dtype=np.int64)),
            }
        )

    return merge


def brute_force_topk(ds, queries: np.ndarray, query_ids, k: int = 5, exclude_self: bool = True,
                     id_col: str = "vec_id", emb_col: str = "embedding"):
    """Exact cosine top-k: (query_id, neighbor_id, rank)."""
    q = _normalize(np.asarray(queries, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    partials = ds.map_batches(
        lambda b: topk_partial_batch(b, q, qids, k, id_col, emb_col), batch_format="pyarrow"
    )
    return partials.groupby("query_id").map_groups(_final_topk(k, exclude_self), batch_format="pandas")


class IvfIndex:
    """Coarse-quantizer (IVF) index: seeded mini k-means centroids."""

    def __init__(self, sample: np.ndarray, n_clusters: int = 16, iters: int = 10, seed: int = 42):
        rng = np.random.default_rng(seed)
        sample = _normalize(np.asarray(sample, dtype=np.float64))
        idx = rng.choice(len(sample), size=min(n_clusters, len(sample)), replace=False)
        cent = sample[np.sort(idx)].copy()
        for _ in range(iters):
            assign = np.argmax(sample @ cent.T, axis=1)
            for c in range(len(cent)):
                members = sample[assign == c]
                if len(members):
                    v = members.mean(axis=0)
                    norm = np.linalg.norm(v)
                    if norm > 0:
                        cent[c] = v / norm
        self.centroids = cent

    def assign(self, m: np.ndarray) -> np.ndarray:
        return np.argmax(_normalize(m) @ self.centroids.T, axis=1)


def ivf_topk(ds, index: IvfIndex, queries: np.ndarray, query_ids, k: int = 5, nprobe: int = 4,
             exclude_self: bool = True, id_col: str = "vec_id", emb_col: str = "embedding"):
    """Approximate top-k probing only the ``nprobe`` nearest buckets per
    query — per batch, rows outside every probed bucket are skipped
    before the matmul."""
    q = _normalize(np.asarray(queries, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    probes = np.argsort(-(q @ index.centroids.T), axis=1)[:, :nprobe]  # (q, nprobe)
    probe_union = set(int(x) for x in probes.ravel())

    def partial(batch: pa.Table) -> pa.Table:
        m = _to_matrix(batch.column(emb_col))
        buckets = index.assign(m)
        keep = np.isin(buckets, list(probe_union))
        if not keep.any():
            return pa.table(
                {
                    "query_id": pa.array([], type=pa.int64()),
                    "neighbor_id": pa.array([], type=pa.int64()),
                    "cosine": pa.array([], type=pa.float64()),
                }
            )
        sub = batch.filter(pa.array(keep))
        sub_buckets = buckets[keep]
        ids = sub.column(id_col).to_numpy()
        mm = _normalize(_to_matrix(sub.column(emb_col)))
        out_q, out_id, out_sim = [], [], []
        for qi in range(q.shape[0]):
            mask = np.isin(sub_buckets, probes[qi])
            if not mask.any():
                continue
            col = mm[mask] @ q[qi]
            cand_ids = ids[mask]
            kk = min(k + 1, len(col))
            top = np.argpartition(-col, kk - 1)[:kk]
            for t in top:
                out_q.append(int(qids[qi]))
                out_id.append(int(cand_ids[t]))
                out_sim.append(float(col[t]))
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(out_sim, type=pa.float64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("query_id").map_groups(_final_topk(k, exclude_self), batch_format="pandas")


def build_ivf_layout(ds, index: IvfIndex, out_dir: str,
                     id_col: str = "vec_id", emb_col: str = "embedding") -> str:
    """Persist the inverted file: assign each vector to its nearest
    centroid ONCE and write a bucket-partitioned parquet layout
    (``out_dir/bucket=N/``).  This is the "I" in IVF — queries then
    prune at the READ (only ``nprobe`` bucket directories are opened),
    so probe cost scales with nprobe/nlist, not dataset size."""

    def tag(t: pa.Table) -> pa.Table:
        buckets = index.assign(_to_matrix(t.column(emb_col)))
        # `bucket` becomes the hive partition directory; `bucket_id`
        # stays inside the files so pruned readers need no hive
        # inference over hand-picked paths
        t = t.append_column("bucket", pa.array(buckets.astype(np.int64)))
        return t.append_column("bucket_id", pa.array(buckets.astype(np.int64)))

    ds.map_batches(tag, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["bucket"]
    )
    return out_dir


def ivf_topk_pruned(layout_dir: str, index: IvfIndex, queries: np.ndarray, query_ids,
                    k: int = 5, nprobe: int = 4, exclude_self: bool = True,
                    id_col: str = "vec_id", emb_col: str = "embedding"):
    """Approximate top-k over a persisted IVF layout: per query, the
    ``nprobe`` nearest centroids pick the bucket directories; ONLY those
    directories are read (pruned ``read_parquet``), each batch matmuls
    against just the queries probing its bucket, and the per-query merge
    shuffles ``num_batches × k`` candidate rows."""
    q = _normalize(np.asarray(queries, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    probes = np.argsort(-(q @ index.centroids.T), axis=1)[:, :nprobe]  # (q, nprobe)
    probe_union = sorted({int(x) for x in probes.ravel()})
    import glob
    import os

    paths = [
        f
        for b in probe_union
        for f in sorted(glob.glob(os.path.join(layout_dir, f"bucket={b}", "*.parquet")))
    ]

    def partial(batch: pa.Table) -> pa.Table:
        buckets = batch.column("bucket_id").to_numpy().astype(np.int64)
        ids = batch.column(id_col).to_numpy()
        m = _normalize(_to_matrix(batch.column(emb_col)))
        out_q, out_id, out_sim = [], [], []
        for qi in range(q.shape[0]):
            mask = np.isin(buckets, probes[qi])
            if not mask.any():
                continue
            col = m[mask] @ q[qi]
            cand_ids = ids[mask]
            kk = min(k + 1, len(col))
            top = np.argpartition(-col, kk - 1)[:kk]
            for t in top:
                out_q.append(int(qids[qi]))
                out_id.append(int(cand_ids[t]))
                out_sim.append(float(col[t]))
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "neighbor_id": pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(out_sim, type=pa.float64()),
            }
        )

    from ..sources.io import read_parquet_clean

    ds = read_parquet_clean(paths)
    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("query_id").map_groups(_final_topk(k, exclude_self), batch_format="pandas")


def knn_join(left, right, *, index: "IvfIndex", k: int = 5, nprobe: int = 4,
             exclude_self: bool = False,
             left_id: str = "query_id", left_emb: str = "embedding",
             right_id: str = "vec_id", right_emb: str = "embedding"):
    """Distributed A×B k-nearest-neighbor JOIN — both sides LARGE
    Datasets (the retrieval-augmentation / SemDeDup-graph primitive
    the broadcast-query ``brute_force_topk`` cannot give: there the
    query side rides the task closure, here millions of queries
    stream).

    Shape (no broadcast of either side, no all-pairs):

    1. RIGHT rows route ONCE to their IVF bucket (one exchange,
       O(|R|·d) — each vector ships exactly once);
    2. LEFT rows fan out to their ``nprobe`` probed buckets (one
       exchange, O(|L|·nprobe·d) thin rows);
    3. per bucket ONE matrix-matrix matmul scores every resident
       (query, member) pair; local top-(k+1) per query with the
       deterministic (cosine desc, id asc) tie-break;
    4. final exchange by query merges ≤ nprobe·(k+1) candidate rows
       per query — hot queries are bounded by construction.

    Embeddings are L2-normalized BEFORE the exchanges (once per
    vector).  Returns (query_id, neighbor_id, rank) — same contract
    as ``ivf_topk``; recall vs exact is the standard IVF trade
    governed by nprobe/nlist.  Partitioning assumption: one IVF
    bucket's members fit one task (size nlist ∝ √|R| as usual; a
    pathological fat bucket shows up as one slow group, not a wrong
    answer)."""
    probe_mat = index.centroids.T

    def right_rows(t: pa.Table) -> pa.Table:
        m = _normalize(_to_matrix(t.column(right_emb)))
        buckets = np.argmax(m @ probe_mat, axis=1).astype(np.int64)
        return pa.table({
            "bucket": pa.array(buckets),
            "rid": t.column(right_id).cast(pa.int64()),
            "emb": _matrix_list_array(m),
        })

    def left_rows(t: pa.Table) -> pa.Table:
        m = _normalize(_to_matrix(t.column(left_emb)))
        ids = t.column(left_id).cast(pa.int64()).to_numpy(zero_copy_only=False)
        np_ = min(nprobe, probe_mat.shape[1])
        probes = np.argsort(-(m @ probe_mat), axis=1)[:, :np_]
        rep = np.repeat(np.arange(t.num_rows, dtype=np.int64), np_)
        return pa.table({
            "bucket": pa.array(probes.ravel().astype(np.int64)),
            "rid": pa.array(ids[rep]),
            "emb": _matrix_list_array(m[rep]),
        })

    empty = pa.table({
        "query_id": pa.array([], type=pa.int64()),
        "neighbor_id": pa.array([], type=pa.int64()),
        "cosine": pa.array([], type=pa.float64()),
    })

    def bucket_scores(left: pd.DataFrame, right: pd.DataFrame) -> pa.Table:
        if not len(left) or not len(right):
            return empty
        lm = np.vstack(left["emb"].to_numpy())
        rm = np.vstack(right["emb"].to_numpy())
        lids = left["rid"].to_numpy(dtype=np.int64)
        rids = right["rid"].to_numpy(dtype=np.int64)
        scores = lm @ rm.T  # (Q, M)
        kk = min(k + 1, scores.shape[1])
        # deterministic local cut: exact per-bucket top-kk under the
        # SAME (cosine desc, neighbor_id asc) order the final merge uses
        if kk < scores.shape[1]:
            part = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
        else:
            part = np.tile(np.arange(scores.shape[1]), (scores.shape[0], 1))
        rows = np.repeat(np.arange(scores.shape[0]), part.shape[1])
        cols = part.ravel()
        sc = scores[rows, cols]
        nid = rids[cols]
        order = np.lexsort((nid, -sc, rows))
        rows, sc, nid = rows[order], sc[order], nid[order]
        keep = (np.arange(len(rows)) -
                np.searchsorted(rows, rows, side="left")) < kk
        return pa.table({
            "query_id": pa.array(lids[rows[keep]]),
            "neighbor_id": pa.array(nid[keep]),
            "cosine": pa.array(sc[keep]),
        })

    probed = left.map_batches(left_rows, batch_format="pyarrow")
    routed = right.map_batches(right_rows, batch_format="pyarrow")
    cands = cogroup({"left": (probed, "bucket"), "right": (routed, "bucket")},
                    len(index.centroids), bucket_scores, "pandas")
    return cands.groupby("query_id").map_groups(
        _final_topk(k, exclude_self), batch_format="pandas")


def text_feature_embedding_batch(batch: pa.Table, dim: int = 64,
                                 text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Deterministic feature-hashing embedding of a text column: each
    token hashes to one of ``dim`` buckets with a ±1 sign, counts are
    L2-normalized.  Near-dup texts map to near-identical vectors, which
    makes the embedding-cosine near-dup path exercisable end-to-end
    without a model (no embedding model ships in this container; swap
    this stage for real batched inference in production)."""
    # vectors per DISTINCT text (dictionary-encode + gather): a
    # dup-heavy batch pays the hash + scatter for unique content only;
    # per-doc vectors are bit-unchanged (token hash stays the
    # definitional pd.util.hash_array, so fixture values cannot move)
    uniq, inverse = _distinct_texts(batch.column(text_col))
    u = len(uniq)
    out = np.zeros((u, dim), dtype=np.float64)
    words_all: list[str] = []
    offsets = [0]
    for t in uniq:
        words_all.extend((t or "").split(" "))  # never empty: ''.split(' ') == ['']
        offsets.append(len(words_all))
    if words_all:
        h = pd.util.hash_array(np.asarray(words_all, dtype=object), categorize=False)
        buckets = (h % np.uint64(dim)).astype(np.int64)
        signs = np.where((h >> np.uint64(32)) & np.uint64(1), 1.0, -1.0)
        doc_idx = np.repeat(np.arange(u, dtype=np.int64), np.diff(offsets))
        flat = np.bincount(doc_idx * dim + buckets, weights=signs, minlength=u * dim)
        out = flat.reshape(u, dim)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    out /= norms
    out = np.ascontiguousarray(out[inverse])
    n = batch.num_rows
    # zero-copy list column: one values buffer + arange offsets (the
    # per-row .tolist() built n×dim Python floats)
    emb = pa.ListArray.from_arrays(
        pa.array(np.arange(0, (n + 1) * dim, dim, dtype=np.int32), type=pa.int32()),
        pa.array(out.ravel(), type=pa.float64()),
    )
    return pa.table({id_col: batch.column(id_col), "embedding": emb})


# --------------------------------------------------------------------------
# embedding near-dup: SRP-LSH candidates → deferred exact verification
# --------------------------------------------------------------------------
def pair_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cosine of two (n, d) NORMALIZED float64 matrices — the
    single canonical kernel: the engine's verify stage and the
    plain-Python fixture generator both call THIS, so pinned cosine
    values are bit-identical by construction."""
    return np.einsum("ij,ij->i", a, b)


def srp_signature_rows(t: pa.Table, *, num_bits: int, bands: int, seed: int,
                       id_col: str, emb_col: str,
                       pre_normalized: bool = False) -> pa.Table:
    """Per batch: random-hyperplane (SRP/Charikar STOC'02) bit
    signatures → one THIN row per (doc, band): (bucket, id, sig).
    ``sig`` is the full packed ``num_bits``-bit signature (uint64, so
    num_bits ≤ 64); the float embedding does NOT ride the shuffle.

    ``pre_normalized=True`` skips the normalize for inputs that are
    ALREADY :func:`_normalized_emb_rows` output — re-normalizing a
    unit vector is not a float no-op (1/‖v‖ ≈ 1 ≠ 1 exactly), and a
    near-zero plane dot could flip a bit vs the pinned fixtures."""
    assert num_bits <= 64
    m = _to_matrix(t.column(emb_col))
    if not pre_normalized:
        m = _normalize(m)
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=(m.shape[1], num_bits))  # same every batch
    bits = (m @ planes) > 0  # (n, num_bits)
    packed = (bits.astype(np.uint64) * (np.uint64(1) << np.arange(num_bits, dtype=np.uint64))).sum(
        axis=1, dtype=np.uint64
    )
    ids = t.column(id_col).to_numpy().astype(np.int64)
    bits_per_band = num_bits // bands
    n = len(ids)
    band_mask = np.uint64((1 << bits_per_band) - 1)
    keys = np.empty(bands * n, dtype=np.int64)
    for b in range(bands):
        block = (packed >> np.uint64(b * bits_per_band)) & band_mask
        keys[b * n : (b + 1) * n] = (np.int64(b) << np.int64(57)) | block.astype(np.int64)
    return pa.table(
        {
            "bucket": pa.array(keys),
            id_col: pa.array(np.tile(ids, bands)),
            "sig": pa.array(np.tile(packed, bands)),
        }
    )


def hamming_cap(threshold: float, num_bits: int) -> int:
    """Hamming prefilter bound: a true pair at cosine == threshold has
    expected signature distance num_bits·θ/π; keep candidates within
    +5σ of that (binomial), so the prune loses essentially nothing
    while killing the random-pair false-positive bulk in-bucket."""
    import math

    p = math.acos(max(-1.0, min(1.0, threshold))) / math.pi
    mu = num_bits * p
    sd = math.sqrt(num_bits * p * (1.0 - p))
    return min(num_bits - 1, int(math.ceil(mu + 5.0 * sd)))


_PAIR_CHUNK = 512  # rows per hamming block: memory ≤ chunk × bucket


def _hamming_pairs_bucket(ids: np.ndarray, sigs: np.ndarray, ham_cap: int,
                          emit_a: list, emit_b: list) -> None:
    """All (a<b) id pairs in one bucket within hamming ≤ cap — chunked
    vectorized popcount, memory O(chunk × m), never an m×m float
    matrix."""
    m = len(ids)
    for s in range(0, m, _PAIR_CHUNK):
        e = min(s + _PAIR_CHUNK, m)
        ham = hamming64(sigs[s:e][:, None], sigs[None, :])  # (chunk, m)
        rr, cc = np.nonzero(ham <= ham_cap)
        keep = (rr + s) < cc  # upper triangle only
        ia, ib = ids[rr[keep] + s], ids[cc[keep]]
        emit_a.append(np.minimum(ia, ib))
        emit_b.append(np.maximum(ia, ib))


def _srp_candidate_pairs_partition(df: pd.DataFrame, ham_cap: int, id_col: str) -> pa.Table:
    """Per bucket: candidate (a, b) pairs passing the hamming
    prefilter.  Thin in and thin out — 16-byte pair rows; exact cosine
    verification happens later against the co-partitioned embeddings."""
    out_a: list = []
    out_b: list = []
    for _, g in df.groupby("bucket", sort=False):
        if len(g) < 2:
            continue
        _hamming_pairs_bucket(
            g[id_col].to_numpy(), g["sig"].to_numpy().astype(np.uint64), ham_cap, out_a, out_b
        )
    a = np.concatenate(out_a) if out_a else np.array([], dtype=np.int64)
    b = np.concatenate(out_b) if out_b else np.array([], dtype=np.int64)
    return pa.table({"a": pa.array(a.astype(np.int64)), "b": pa.array(b.astype(np.int64))})


def _srp_candidate_edges_partition(df: pd.DataFrame, ham_cap: int, id_col: str,
                                   exact_cap: int) -> pa.Table:
    """Per bucket: candidate EDGES for clustering — O(m) per bucket
    AND star-shaped for identical-signature groups, so the dup-heavy
    case converges in O(1) component rounds:

    1. IDENTICAL-signature groups collapse to stars (group-min →
       members) — an identical-doc megagroup contributes O(g) shallow
       edges instead of an O(g)-diameter chain that costs the
       connected-components loop O(log g) extra rounds.
    2. Cross-group candidates run over one REPRESENTATIVE per distinct
       signature: all hamming-passing rep pairs when ≤ ``exact_cap``
       reps, else star + windowed-exact passes over reps.  (Member-level cross edges are
       collapsed to rep-level — the documented connectivity
       approximation, same contract as the MinHash path.)

    All candidate edges are still verified later by exact cosine."""
    out_a: list = []
    out_b: list = []
    for _, g in df.groupby("bucket", sort=False):
        if len(g) < 2:
            continue
        ids = g[id_col].to_numpy()
        sigs = g["sig"].to_numpy().astype(np.uint64)
        order = np.lexsort((ids, sigs))  # (sig, id) — ids ascend within a group
        s_sorted, i_sorted = sigs[order], ids[order]
        new_grp = np.r_[True, s_sorted[1:] != s_sorted[:-1]]
        starts = np.flatnonzero(new_grp)
        sizes = np.diff(np.r_[starts, len(ids)])
        # group stars: root (min id) → other members, hamming 0 ≤ cap
        out_a.append(np.repeat(i_sorted[starts], sizes - 1))
        out_b.append(i_sorted[~new_grp])
        rep_ids, rep_sigs = i_sorted[starts], s_sorted[starts]
        r = len(starts)
        if r < 2:
            continue
        if r <= exact_cap:
            _hamming_pairs_bucket(rep_ids, rep_sigs, ham_cap, out_a, out_b)
            continue
        ro = np.argsort(rep_ids, kind="stable")
        root = ro[0]
        members = ro[1:]
        ham = hamming64(rep_sigs[members], np.full(len(members), rep_sigs[root], dtype=np.uint64))
        hit = members[ham <= ham_cap]
        out_a.append(np.minimum(rep_ids[root], rep_ids[hit]))
        out_b.append(np.maximum(rep_ids[root], rep_ids[hit]))
        # windowed exact pairs over the sig-sorted reps (50%-overlap
        # windows of ``exact_cap``): consecutive reps always co-window,
        # subsuming the old chain pass, and sort-interleaved near-dup
        # groups are recovered; O(r·cap) pairs per bucket, deduped by
        # the downstream distinct-pairs exchange
        step = exact_cap // 2
        for lo in range(0, r, step):
            hi = min(lo + exact_cap, r)
            _hamming_pairs_bucket(rep_ids[lo:hi], rep_sigs[lo:hi], ham_cap, out_a, out_b)
            if hi == r:
                break
    a = np.concatenate(out_a) if out_a else np.array([], dtype=np.int64)
    b = np.concatenate(out_b) if out_b else np.array([], dtype=np.int64)
    return pa.table({"a": pa.array(a.astype(np.int64)), "b": pa.array(b.astype(np.int64))})


def _matrix_list_array(m: np.ndarray) -> pa.ListArray:
    """(n, d) float64 matrix → list<float64> Arrow array without a
    Python object per row: one flattened values buffer + arithmetic
    offsets."""
    n, d = m.shape
    offsets = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int64), type=pa.int64())
    return pa.LargeListArray.from_arrays(offsets, pa.array(np.ascontiguousarray(m).reshape(-1))).cast(
        pa.list_(pa.float64())
    )


def _list_matrix(arr) -> np.ndarray:
    """list<float64> Arrow array → (n, d) float64 matrix.  Zero-copy
    flatten + reshape when row lengths are uniform (the embedding
    contract); per-row fallback otherwise."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.empty((0, 0), dtype=np.float64)
    if arr.null_count == 0:
        import pyarrow.compute as pc

        lens = pc.unique(pc.list_value_length(arr))
        if len(lens) == 1:
            d = lens[0].as_py()
            flat = np.asarray(pc.list_flatten(arr), dtype=np.float64)
            return flat.reshape(n, d)
    return np.vstack([np.asarray(e, dtype=np.float64) for e in arr.to_pylist()])


def _normalized_emb_rows(ds, id_col: str, emb_col: str):
    def rows(t: pa.Table) -> pa.Table:
        m = _normalize(_to_matrix(t.column(emb_col)))
        return pa.table(
            {
                id_col: t.column(id_col).cast(pa.int64()),
                "val": _matrix_list_array(m),
            }
        )

    return ds.map_batches(rows, batch_format="pyarrow")


def attach_pair_scores(pairs, value_rows, *, score_fn, threshold: float,
                       value_type: pa.DataType, score_col: str,
                       id_col: str = "doc_id", num_partitions: int = 32):
    """Score candidate (a, b) pairs against a per-id value column and
    keep pairs with score ≥ threshold → (a, b, <score_col>).

    ``value_rows`` is a Dataset (id_col, val); ``score_fn(a_vals,
    b_vals)`` takes two aligned ``pa.Array``/``pa.ChunkedArray`` of
    ``val`` payloads and returns a float64 score per pair.  Two
    join-free co-partition passes (``Dataset.join`` chokes on
    aggregate-derived sides): pass 1 keys pairs by ``a`` and attaches
    ``val_a``; pass 2 re-keys by ``b``, attaches ``val_b`` and scores.
    The value table ships ≤ 2× total — never ×bands — and pair rows
    are 16 bytes until scoring.  Both passes are Arrow end to end
    (``index_in`` probe + ``take`` gather): the payload column never
    becomes one Python object per row, which halved the engine's worst
    bench line when the payloads were 1M+ float lists."""
    import pyarrow.compute as pc

    out_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()), (score_col, pa.float64())])

    def _gather(p: pa.Table, key: str, v: pa.Table):
        """Probe pair keys against value keys: (pairs-with-a-value,
        their gathered payloads); missing ids drop (same contract as
        the reindex path this replaces)."""
        idx = pc.index_in(p.column(key).cast(pa.int64()),
                          value_set=v.column(id_col).cast(pa.int64()))
        ok = pc.is_valid(idx)
        return p.filter(ok), v.column("val").take(idx.filter(ok))

    def attach_a(pairs: pa.Table, vals: pa.Table) -> pa.Table:
        # a side with no rows at all reaches here column-less
        if pairs.num_rows == 0 or vals.num_rows == 0:
            return pa.table({"a": pa.array([], type=pa.int64()),
                             "b": pa.array([], type=pa.int64()),
                             "carry": pa.array([], type=value_type)})
        p, val_a = _gather(pairs, "a", vals)
        # re-keyed by b for pass 2, carrying val_a
        return pa.table({"a": p.column("a").cast(pa.int64()),
                         "b": p.column("b").cast(pa.int64()), "carry": val_a})

    def score_b(pairs: pa.Table, vals: pa.Table) -> pa.Table:
        if pairs.num_rows == 0 or vals.num_rows == 0:
            return out_schema.empty_table()
        p, val_b = _gather(pairs, "b", vals)
        if p.num_rows == 0:
            return out_schema.empty_table()
        scores = np.asarray(score_fn(p.column("carry"), val_b), dtype=np.float64)
        hit = scores >= threshold
        hit_arr = pa.array(hit)
        return pa.table(
            {
                "a": p.column("a").filter(hit_arr),
                "b": p.column("b").filter(hit_arr),
                score_col: pa.array(np.round(scores[hit], 9)),
            }
        )

    pass1 = copartition({"pairs": (pairs, "a"), "vals": (value_rows, id_col)},
                        num_partitions, attach_a, "pyarrow")
    return copartition({"pairs": (pass1, "b"), "vals": (value_rows, id_col)},
                       num_partitions, score_b, "pyarrow")


def _cosine_score_fn(a_vals, b_vals) -> np.ndarray:
    return pair_cosines(_list_matrix(a_vals), _list_matrix(b_vals))


def attach_pair_cosines(pairs, emb_rows, threshold: float, *, id_col: str = "doc_id",
                        num_partitions: int = 32):
    """Exact cosine for candidate pairs (≥ threshold) → (a, b, cosine);
    see :func:`attach_pair_scores`.  Scores via the shared
    :func:`pair_cosines` kernel so fixture values are bit-identical."""
    return attach_pair_scores(
        pairs, emb_rows, score_fn=_cosine_score_fn, threshold=threshold,
        value_type=pa.list_(pa.float64()), score_col="cosine",
        id_col=id_col, num_partitions=num_partitions,
    )


def embedding_dup_pairs(ds, threshold: float = 0.9, *, num_bits: int = 64, bands: int = 8,
                        seed: int = 42, id_col: str = "doc_id", emb_col: str = "embedding",
                        num_partitions: int = 32):
    """Distributed embedding-cosine near-dup pairs: (a, b, cosine) for
    every LSH-candidate pair with exact cosine ≥ threshold, a < b.

    Scale shape (the round-2 review's ×bands float shuffle and
    uncapped in-bucket m² matmul are both gone):

    1. THIN band rows — (bucket, id, packed 64-bit SRP signature),
       24 B/row; the float embedding never rides the band shuffle.
    2. Per bucket: hamming prefilter (chunked vectorized popcount,
       memory O(chunk×m)) keeps only pairs whose signature distance is
       consistent with cosine ≥ threshold (+5σ) — random-pair false
       positives die here, in-bucket, as 0 bytes of output.
    3. One global (a, b) groupby dedupes candidates across bands — a
       pair sharing 5 bands is verified once, not 5×.
    4. :func:`attach_pair_cosines` co-partitions candidates with the
       normalized embeddings (shipped ≤2× total) and scores exactly in
       float64.

    Output size is inherently O(#qualifying pairs) — a megagroup of k
    identical docs owes k(k-1)/2 rows.  When the consumer only needs
    clusters/survivors, use :func:`embedding_dedup` (O(m) end to end).
    Recall is the standard LSH trade-off (measured in tests); precision
    is exact."""

    cap = hamming_cap(threshold, num_bits)
    # one upstream execution: signature AND verify passes derive from
    # the same materialized normalized rows (see _verified_cosine_labels)
    emb_rows = _normalized_emb_rows(ds, id_col, emb_col).materialize()
    rows = emb_rows.map_batches(
        lambda t: srp_signature_rows(
            t, num_bits=num_bits, bands=bands, seed=seed, id_col=id_col,
            emb_col="val", pre_normalized=True,
        ),
        batch_format="pyarrow",
    )
    cands = exchange(rows, "bucket", num_partitions,
                     lambda df: _srp_candidate_pairs_partition(df, cap, id_col), "pandas")
    cands = distinct_pairs(cands, num_partitions)
    return attach_pair_cosines(
        cands, emb_rows, threshold, id_col=id_col, num_partitions=num_partitions
    )


def embedding_dedup(ds, threshold: float = 0.9, *, num_bits: int = 64, bands: int = 8,
                    seed: int = 42, id_col: str = "doc_id", emb_col: str = "embedding",
                    num_partitions: int = 32):
    """Embedding-cosine near-dup CLUSTERING → survivors Dataset
    (doc_id, cluster_size) — the O(m) scale path (same output contract
    as :func:`~..stages.dedup.minhash_lsh_dedup`).

    Thin SRP band rows → star+chain candidate edges per bucket (O(m)
    even for dup-heavy megabuckets) → exact float64 verification of
    the O(m) edge set via :func:`attach_pair_cosines` → distributed
    min-label connected components → survivors/singletons.  Nothing is
    ever O(m²) in time, memory, shuffle or output.  The input executes
    exactly once (see :func:`_verified_cosine_labels`): the survivor
    pass reads ids from the materialized normalized rows, not from a
    third re-execution of ``ds``'s upstream."""
    from ..stages.dedup import _survivors_from_labels

    labels, emb_rows = _verified_cosine_labels(
        ds, threshold=threshold, num_bits=num_bits, bands=bands, seed=seed,
        id_col=id_col, emb_col=emb_col, num_partitions=num_partitions,
    )
    return _survivors_from_labels(
        emb_rows.select_columns([id_col]), labels, id_col, num_partitions
    )


def _verified_cosine_labels(ds, *, threshold: float, num_bits: int, bands: int,
                            seed: int, id_col: str, emb_col: str,
                            num_partitions: int):
    """SRP candidates → exact cosine verify → component labels — the
    single shared core behind :func:`embedding_dedup` and
    :func:`embedding_decontaminate`.  Returns ``(labels, emb_rows)``:
    the (node, label) Dataset plus the MATERIALIZED normalized
    (id, val) rows every downstream pass should reuse.

    The input is consumed exactly ONCE: Ray Data has no common-
    subexpression reuse, so a lazy ``ds`` fanned into the signature,
    verify and survivor passes re-executes its whole upstream (read +
    featurization) per consumer — 3× the pipeline cost.  Materializing
    the PROJECTED normalized rows instead holds one embedding-column
    copy in the object store (spilling if needed) and derives all
    three passes from it; signatures skip the re-normalize so bits
    (and the pinned fixtures) are unchanged."""
    from ..stages.dedup import _EXACT_BUCKET_CAP, connected_components_min_label

    cap = hamming_cap(threshold, num_bits)
    emb_rows = _normalized_emb_rows(ds, id_col, emb_col).materialize()
    rows = emb_rows.map_batches(
        lambda t: srp_signature_rows(
            t, num_bits=num_bits, bands=bands, seed=seed, id_col=id_col,
            emb_col="val", pre_normalized=True,
        ),
        batch_format="pyarrow",
    )
    edges = exchange(rows, "bucket", num_partitions,
                     lambda df: _srp_candidate_edges_partition(df, cap, id_col, _EXACT_BUCKET_CAP),
                     "pandas")
    edges = distinct_pairs(edges, num_partitions)
    verified = attach_pair_cosines(
        edges, emb_rows, threshold, id_col=id_col, num_partitions=num_partitions
    ).select_columns(["a", "b"])
    labels = connected_components_min_label(verified, num_partitions=max(8, num_partitions // 4))
    return labels, emb_rows


def embedding_decontaminate(train, heldout, *, threshold: float = 0.9,
                            num_bits: int = 64, bands: int = 8, seed: int = 42,
                            id_col: str = "doc_id", emb_col: str = "embedding",
                            num_partitions: int = 32):
    """Cross-corpus EMBEDDING near-dup decontamination: flag every
    train doc whose cosine near-dup cluster (over the UNION of both
    corpora) contains a held-out doc — the semantic companion to
    :func:`~..stages.dedup.ngram_jaccard_decontaminate` (a rewrite that
    changes most surface tokens keeps a near-identical embedding).

    Returns (id_col, contaminated bool) for EVERY train doc.  Same
    contracts as the jaccard flavor: side identity rides IN the node id
    (id*2 + side, ids in [0, 2^62)), both corpora may be large, the
    held-out side is never broadcast."""
    from ..stages.dedup import contamination_flags, side_tagged_union

    # materialize=False: the labels core materializes the NORMALIZED
    # projection of the union; holding the raw union too would double
    # the embedding bytes in the object store.  The flag pass reads
    # tagged ids from the same materialized rows.
    union = side_tagged_union(train, heldout, id_col=id_col, payload_col=emb_col,
                              materialize=False)
    labels, emb_rows = _verified_cosine_labels(
        union, threshold=threshold, num_bits=num_bits, bands=bands, seed=seed,
        id_col=id_col, emb_col=emb_col, num_partitions=num_partitions,
    )
    return contamination_flags(labels, emb_rows.select_columns([id_col]),
                               id_col=id_col, num_partitions=num_partitions)


def cosine_dup_pairs(matrix: np.ndarray, ids: np.ndarray, threshold: float = 0.95,
                     block: int = 2048) -> pd.DataFrame:
    """All pairs with cosine ≥ threshold (in-memory blocked matmul) —
    the EXACT verifier primitive used by tests to measure the LSH
    path's recall; not a pipeline stage."""
    m = _normalize(np.asarray(matrix, dtype=np.float64))
    n = len(m)
    pa_, pb_ = [], []
    for s in range(0, n, block):
        sims = m[s : s + block] @ m.T
        for r in range(sims.shape[0]):
            gi = s + r
            hits = np.nonzero(sims[r] >= threshold)[0]
            for j in hits:
                if j > gi:
                    pa_.append(int(ids[gi]))
                    pb_.append(int(ids[j]))
    return pd.DataFrame({"a": pd.Series(pa_, dtype="int64"), "b": pd.Series(pb_, dtype="int64")})


# ---------------------------------------------------------------------------
# per-label embedding centroid drift (exact-integer cosine to global)
# ---------------------------------------------------------------------------

_DRIFT_SCALE = 1048576.0  # 2^20


def embedding_drift_by_label(ds, *, label_col: str = "label",
                             emb_col: str = "embedding",
                             num_partitions: int = 16):
    """Per-label centroid drift: cosine between each label's centroid
    and the GLOBAL centroid — the embedding-space analogue of the
    token-keyness drift diagnostic (which sources/labels sit far from
    the corpus mean).  Cosine is scale-invariant, so it evaluates on
    the exact integer SUM vectors directly (no division by counts):

    - every vector quantizes once: ``floor(v·2^20 + 0.5)`` int64 (the
      float64 widening and libm floor match SQL bit-for-bit);
    - per-batch per-(label, dim) int64 partial sums → ONE exchange by
      label merges exact sums (rows per batch = labels × dims, thin);
    - the label-sum table (K × d ints) is the ONLY driver state;
      dot/norm products run in unbounded Python ints (the HUGEINT twin)
      and the final cosine is ONE fixed float expression.

    Output (pandas — K rows): (label, n, cos_to_global); zero-norm
    sides yield 0.0 (matching the SQL CASE)."""
    import math

    def partials(t: pa.Table) -> pa.Table:
        m = _to_matrix(t.column(emb_col)).astype(np.float64)
        q = np.floor(m * _DRIFT_SCALE + 0.5).astype(np.int64)
        labels = t.column(label_col).to_numpy(zero_copy_only=False)
        uniq = np.unique(labels)
        rows_l, rows_d, rows_s, rows_c = [], [], [], []
        for lab in uniq:
            mask = labels == lab
            s = q[mask].sum(axis=0, dtype=np.int64)
            rows_l.append(np.full(q.shape[1], lab, dtype=np.int64))
            rows_d.append(np.arange(q.shape[1], dtype=np.int64))
            rows_s.append(s)
            rows_c.append(np.full(q.shape[1], int(mask.sum()), dtype=np.int64))
        out = pa.table({
            "label": pa.array(np.concatenate(rows_l) if rows_l else
                              np.empty(0, dtype=np.int64)),
            "dim": pa.array(np.concatenate(rows_d) if rows_d else
                            np.empty(0, dtype=np.int64)),
            "s": pa.array(np.concatenate(rows_s) if rows_s else
                          np.empty(0, dtype=np.int64)),
            "c": pa.array(np.concatenate(rows_c) if rows_c else
                          np.empty(0, dtype=np.int64)),
        })
        return out

    def merge(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby(["label", "dim"], sort=False)[["s", "c"]].sum().reset_index()
        return pa.table({
            "label": pa.array(agg["label"].to_numpy(dtype=np.int64)),
            "dim": pa.array(agg["dim"].to_numpy(dtype=np.int64)),
            "s": pa.array(agg["s"].to_numpy(dtype=np.int64)),
            "c": pa.array(agg["c"].to_numpy(dtype=np.int64)),
        })

    # K × d rows — the documented tiny driver state
    sums = exchange(ds.map_batches(partials, batch_format="pyarrow"), "label",
                    num_partitions, merge, "pandas").to_pandas()

    if not len(sums):
        return pd.DataFrame({"label": pd.Series(dtype=np.int64),
                             "n": pd.Series(dtype=np.int64),
                             "cos_to_global": pd.Series(dtype=np.float64)})
    dims = int(sums["dim"].max()) + 1
    labels = np.sort(sums["label"].unique())
    svec = {int(l): np.zeros(dims, dtype=object) for l in labels}
    for r in sums.itertuples():
        svec[int(r.label)][int(r.dim)] = int(r.s)
    ncnt = {int(r.label): int(r.c) for r in sums.itertuples() if r.dim == 0}
    gvec = [sum(int(svec[l][d]) for l in ncnt) for d in range(dims)]
    nb = sum(g * g for g in gvec)
    out_l, out_n, out_cos = [], [], []
    for l in sorted(ncnt):
        sv = [int(x) for x in svec[l]]
        dot = sum(a * b for a, b in zip(sv, gvec))
        na = sum(a * a for a in sv)
        if na == 0 or nb == 0:
            cos = 0.0
        else:
            cos = float(dot) / (math.sqrt(float(na)) * math.sqrt(float(nb)))
        out_l.append(l)
        out_n.append(ncnt[l])
        out_cos.append(cos)
    return pd.DataFrame({
        "label": np.array(out_l, dtype=np.int64),
        "n": np.array(out_n, dtype=np.int64),
        "cos_to_global": np.array(out_cos, dtype=np.float64),
    })
