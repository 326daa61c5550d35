"""Product quantization for embedding compression + ADC top-k search
(Jégou, Douze & Schmid, "Product Quantization for Nearest Neighbor
Search", TPAMI 2011 — the published design behind FAISS's IVF-PQ).

Why this exists at 100 TB: float32 embeddings at web scale are the
single largest byte volume in a curation pipeline (10⁹ docs × 1024
dims = 4 TB).  PQ stores m bytes per vector (here 8) — a 32–512×
compression — and answers top-k with an asymmetric distance
computation (ADC): per query, ONE (m × k) lookup table of exact
subspace distances, then each candidate scores as m table lookups.
The scan never touches floats.

Shape: training is the k-means loop shape (``stages/clustering.py``)
run over all m subspaces in ONE pass per iteration — per batch the
only thing that moves is an (m·k·d_sub + m·k)-int64 partial, summed
by :func:`stages.fold.fold`; encoding and scanning are stateless
streaming passes with the codebooks broadcast once.  Top-k merges
through per-batch local partials, the ``stages/similarity.py`` pattern.

Determinism contract (extends the k-means fixed-point contract):
subvectors quantize to int64 via the SHARED ``quantize`` kernel,
assignments/updates are exact integer arithmetic with first-min
tie-breaks, ADC distances are exact int64 sums, and final ranking
sorts (distance asc, neighbor_id asc) — bit-identical under any
batching and reproduced exactly by the plain single-process reference
(tools/reference_impls.py:pq_topk_reference).

Reference parity note: the reference plugin has no vector stage — this
is an engine-native training-data operator (SURVEY §2.9), the
compressed-ANN counterpart of the IVF layout in stages/similarity.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .clustering import (
    _sum_partials,
    assign_clusters,
    partial_sums,
    quantize,
    smallest_ids_init,
    update_centroids,
)
from .fold import fold
from .similarity import _to_matrix


def _split_dims(d: int, m: int) -> int:
    if d % m != 0:
        raise ValueError(f"embedding dim {d} not divisible into m={m} subspaces")
    return d // m


def pq_train(ds, *, m: int = 8, k: int = 16, n_iters: int = 8,
             id_col: str = "vec_id", emb_col: str = "embedding") -> np.ndarray:
    """Fit the (m, k, d_sub) int64 codebooks.

    Init: each subspace starts from the subvectors of the k globally
    smallest ids (the :func:`stages.clustering.kmeans_fit` rule — any
    id space, deterministic, duplicate ids raise).  Each iteration is
    ONE streaming pass; all m subspaces update together."""
    init = smallest_ids_init(ds, k, id_col, emb_col)
    d = init.shape[1]
    dsub = _split_dims(d, m)
    books = np.stack([init[:, j * dsub:(j + 1) * dsub].copy() for j in range(m)])

    for _ in range(n_iters):
        books_ref = ray.put(books)

        def batch_partials(batch: pa.Table) -> tuple:
            bks = ray.get(books_ref)
            x_int = quantize(_to_matrix(batch.column(emb_col)))
            sums = np.empty((m, k, dsub), dtype=np.int64)
            counts = np.empty((m, k), dtype=np.int64)
            for j in range(m):
                xj = x_int[:, j * dsub:(j + 1) * dsub]
                a = assign_clusters(xj, bks[j])
                sums[j], counts[j] = partial_sums(xj, a, k)
            return sums, counts

        acc_s, acc_c = fold(ds, batch_partials, _sum_partials)
        books = np.stack([
            update_centroids(books[j], acc_s[j], acc_c[j]) for j in range(m)])
    return books


def pq_encode(ds, books: np.ndarray, *, id_col: str = "vec_id",
              emb_col: str = "embedding"):
    """(id, codes) per row — codes is a fixed_size_list<uint8>[m]
    column (m bytes per vector, the whole point of PQ)."""
    m, k, dsub = books.shape
    books_ref = ray.put(books)

    def fn(batch: pa.Table) -> pa.Table:
        bks = ray.get(books_ref)
        x_int = quantize(_to_matrix(batch.column(emb_col)))
        n = x_int.shape[0]
        codes = np.empty((n, m), dtype=np.uint8)
        for j in range(m):
            codes[:, j] = assign_clusters(
                x_int[:, j * dsub:(j + 1) * dsub], bks[j]).astype(np.uint8)
        flat = pa.array(codes.reshape(-1), type=pa.uint8())
        return pa.table({
            id_col: batch.column(id_col),
            "codes": pa.FixedSizeListArray.from_arrays(flat, m),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def _adc_luts(books: np.ndarray, q_int: np.ndarray) -> np.ndarray:
    """(nq, m, k) int64 exact subspace squared distances."""
    m, k, dsub = books.shape
    nq = q_int.shape[0]
    luts = np.empty((nq, m, k), dtype=np.int64)
    for j in range(m):
        qj = q_int[:, j * dsub:(j + 1) * dsub]          # (nq, dsub)
        diff = qj[:, None, :] - books[j][None, :, :]     # (nq, k, dsub)
        luts[:, j, :] = np.einsum("qkd,qkd->qk", diff, diff)
    return luts


def pq_topk(codes_ds, books: np.ndarray, queries: np.ndarray, query_ids,
            topk: int = 10, *, id_col: str = "vec_id"):
    """(query_id, neighbor_id, rank) — ADC scan over the code column.

    Per batch: m uint8 gathers + one sum per candidate, a per-query
    local top-k partial (≤ topk rows per query per batch moves), final
    merge per query with (distance asc, neighbor_id asc) determinism."""
    import pandas as pd

    m = books.shape[0]
    q_int = quantize(np.asarray(queries, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    luts_ref = ray.put(_adc_luts(books, q_int))

    def partial(batch: pa.Table) -> pa.Table:
        luts = ray.get(luts_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        codes_col = batch.column("codes")
        if isinstance(codes_col, pa.ChunkedArray):
            codes_col = codes_col.combine_chunks()
        codes = codes_col.flatten().to_numpy(zero_copy_only=False).reshape(-1, m)
        out_q, out_id, out_d = [], [], []
        ar = np.arange(m)
        for qi in range(len(qids)):
            dist = luts[qi][ar[None, :], codes].sum(axis=1)
            kk = min(topk, len(dist))
            top = np.argpartition(dist, kk - 1)[:kk] if len(dist) > kk else np.arange(len(dist))
            out_q.extend([int(qids[qi])] * len(top))
            out_id.extend(ids[top].tolist())
            out_d.extend(dist[top].tolist())
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor_id": pa.array(out_id, type=pa.int64()),
            "dist": pa.array(out_d, type=pa.int64()),
        })

    def merge(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["dist", "neighbor_id"],
                          ascending=[True, True], kind="mergesort").head(topk)
        return pa.table({
            "query_id": pa.array(g["query_id"].to_numpy(), type=pa.int64()),
            "neighbor_id": pa.array(g["neighbor_id"].to_numpy(), type=pa.int64()),
            "rank": pa.array(np.arange(1, len(g) + 1, dtype=np.int64)),
        })

    partials = codes_ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("query_id").map_groups(merge, batch_format="pandas")


# ---------------------------------------------------------------------------
# IVF-PQ: the composed FAISS-style scale path — coarse inverted-file
# partitioning (prune at the READ) over PQ codes (16 bytes/vector on
# disk).  At 10⁹ vectors the probe reads nprobe/nlist of the corpus
# and only the code column: pruning × compression stack.
# ---------------------------------------------------------------------------


def build_ivfpq_layout(ds, index, books: np.ndarray, out_dir: str, *,
                       id_col: str = "vec_id", emb_col: str = "embedding") -> str:
    """One pass: coarse-assign each vector (``IvfIndex``), PQ-encode
    it, and write a bucket-partitioned parquet layout holding ONLY
    (id, codes, bucket_id) — the float embeddings never reach the
    layout, which is the storage win (16 B + id per vector)."""
    m, k, dsub = books.shape
    books_ref = ray.put(books)

    def tag(t: pa.Table) -> pa.Table:
        bks = ray.get(books_ref)
        mat = _to_matrix(t.column(emb_col))
        buckets = index.assign(mat)
        x_int = quantize(mat)
        n = x_int.shape[0]
        codes = np.empty((n, m), dtype=np.uint8)
        for j in range(m):
            codes[:, j] = assign_clusters(
                x_int[:, j * dsub:(j + 1) * dsub], bks[j]).astype(np.uint8)
        flat = pa.array(codes.reshape(-1), type=pa.uint8())
        return pa.table({
            id_col: t.column(id_col),
            "codes": pa.FixedSizeListArray.from_arrays(flat, m),
            "bucket": pa.array(buckets.astype(np.int64)),
            "bucket_id": pa.array(buckets.astype(np.int64)),
        })

    ds.map_batches(tag, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["bucket"])
    return out_dir


def ivfpq_topk(layout_dir: str, index, books: np.ndarray,
               queries: np.ndarray, query_ids, topk: int = 10, *,
               nprobe: int = 4, exclude_self: bool = True,
               id_col: str = "vec_id"):
    """(query_id, neighbor_id, rank) over the persisted IVF-PQ layout:
    per query the ``nprobe`` nearest coarse centroids pick bucket
    directories; ONLY those parquet files are opened, each batch runs
    the ADC scan for just the queries probing its bucket, and the
    final merge ranks (distance asc, neighbor_id asc)."""
    import glob
    import os

    import pandas as pd

    from ..sources.io import read_parquet_clean
    from .similarity import _normalize

    m = books.shape[0]
    qf = np.asarray(queries, dtype=np.float64)
    qids = np.asarray(query_ids, dtype=np.int64)
    probes = np.argsort(-(_normalize(qf) @ index.centroids.T), axis=1)[:, :nprobe]
    probe_union = sorted({int(x) for x in probes.ravel()})
    paths = [
        f
        for b in probe_union
        for f in sorted(glob.glob(os.path.join(layout_dir, f"bucket={b}", "*.parquet")))
    ]
    luts_ref = ray.put(_adc_luts(books, quantize(qf)))

    def partial(batch: pa.Table) -> pa.Table:
        luts = ray.get(luts_ref)
        buckets = batch.column("bucket_id").to_numpy().astype(np.int64)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        codes_col = batch.column("codes")
        if isinstance(codes_col, pa.ChunkedArray):
            codes_col = codes_col.combine_chunks()
        codes = codes_col.flatten().to_numpy(zero_copy_only=False).reshape(-1, m)
        ar = np.arange(m)
        out_q, out_id, out_d = [], [], []
        for qi in range(len(qids)):
            mask = np.isin(buckets, probes[qi])
            if not mask.any():
                continue
            cand_ids = ids[mask]
            dist = luts[qi][ar[None, :], codes[mask]].sum(axis=1)
            kk = min(topk + 1, len(dist))  # +1 to survive self-removal
            top = (np.argpartition(dist, kk - 1)[:kk]
                   if len(dist) > kk else np.arange(len(dist)))
            out_q.extend([int(qids[qi])] * len(top))
            out_id.extend(cand_ids[top].tolist())
            out_d.extend(dist[top].tolist())
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "neighbor_id": pa.array(out_id, type=pa.int64()),
            "dist": pa.array(out_d, type=pa.int64()),
        })

    def merge(g: pd.DataFrame) -> pa.Table:
        qid = int(g["query_id"].iloc[0])
        if exclude_self:
            g = g[g["neighbor_id"] != qid]
        g = g.sort_values(["dist", "neighbor_id"],
                          ascending=[True, True], kind="mergesort").head(topk)
        return pa.table({
            "query_id": pa.array(g["query_id"].to_numpy(), type=pa.int64()),
            "neighbor_id": pa.array(g["neighbor_id"].to_numpy(), type=pa.int64()),
            "rank": pa.array(np.arange(1, len(g) + 1, dtype=np.int64)),
        })

    ds = read_parquet_clean(paths)
    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("query_id").map_groups(merge, batch_format="pandas")
