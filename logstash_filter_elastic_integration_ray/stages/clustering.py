"""Distributed k-means clustering over an embedding column.

The canonical iterative Ray Data algorithm: each round broadcasts the
current centroids (``ray.put`` once, read zero-copy in every task),
``map_batches`` computes per-batch partial sums (k×d int64 per batch
— the ONLY data that moves), :func:`stages.fold.fold` sums them, and
the driver updates k tiny centroid vectors.  Nothing proportional to the dataset
ever reaches the driver or the shuffle layer, so the round cost at
100 TB is one streaming pass + a k×dim broadcast.

Determinism contract (shared with the batch-split-invariance tests and
the driver oracle fixture): embeddings are quantized to fixed-point
int64 (``round(x * 2**20)``) at the kernel boundary, so

- partial sums are exact int64 arithmetic → associative → the result
  is bit-identical under ANY batching/partitioning,
- centroid updates are integer floor-division → identical on the
  engine and the plain-Python reference (tools/reference_impls.py),
- distance comparisons are exact integer comparisons (``|x-c|²`` fits
  int64 for |x| < ~2^21 per coordinate), with ``argmin`` first-index
  tie-breaking.

Overflow headroom: per-coordinate |x·Q| ≲ 2^23 for unit-scale
embeddings; squared distance summed over 4096 dims stays < 2^63.
Partial sums: the summed int64 accumulator absorbs ~2^39 rows per
coordinate before overflow.

Reference parity note: the reference plugin has no clustering stage —
this is one of the engine-native large-scale training-data operators
(SURVEY §2.9) alongside dedup/similarity/textstats.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ..sources.io import engine_plan
from .fold import fold
from .similarity import _to_matrix

#: fixed-point scale — 20 fractional bits
_Q = 1 << 20


def quantize(m: np.ndarray) -> np.ndarray:
    """float matrix → fixed-point int64 via ``np.rint`` — ROUND HALF TO
    EVEN (banker's rounding), the IEEE default.  Both the engine and the
    plain-numpy oracle reference call THIS function, which is what makes
    the contract hold; an SQL ``round()`` (half away from zero) is NOT
    an equivalent re-derivation for coordinates landing exactly on .5."""
    return np.rint(np.asarray(m, dtype=np.float64) * _Q).astype(np.int64)


def assign_clusters(x_int: np.ndarray, cent_int: np.ndarray) -> np.ndarray:
    """Exact-integer nearest-centroid assignment, first-min tie-break.

    ``x_int`` (n, d) int64, ``cent_int`` (k, d) int64 → (n,) int64.
    Computed in row-chunks so the (chunk, k, d) broadcast stays small.
    """
    n = x_int.shape[0]
    k = cent_int.shape[0]
    out = np.empty(n, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, k * x_int.shape[1]))  # ~32 MB int64
    for s in range(0, n, chunk):
        xs = x_int[s : s + chunk]
        diff = xs[:, None, :] - cent_int[None, :, :]
        d2 = np.einsum("nkd,nkd->nk", diff, diff)
        out[s : s + chunk] = np.argmin(d2, axis=1)
    return out


def partial_sums(x_int: np.ndarray, assign: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster (sums (k,d) int64, counts (k,) int64) for one batch."""
    d = x_int.shape[1]
    sums = np.zeros((k, d), dtype=np.int64)
    counts = np.zeros(k, dtype=np.int64)
    for j in range(k):  # k is tiny; each pass is one vectorized reduction
        mask = assign == j
        c = int(mask.sum())
        if c:
            sums[j] = x_int[mask].sum(axis=0)
            counts[j] = c
    return sums, counts


def update_centroids(cent_int: np.ndarray, sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Integer floor-division update; empty clusters keep their centroid."""
    new = cent_int.copy()
    nz = counts > 0
    new[nz] = np.floor_divide(sums[nz], counts[nz][:, None])
    return new


def _sum_partials(parts: list) -> tuple:
    """Merge tuples of int64 arrays or ints (``(sums, counts)``, a
    gradient and its row count): exact sums, position by position."""
    return tuple(sum(x) for x in zip(*parts))


def _smallest(tables: list[pa.Table], k: int, id_col: str) -> pa.Table:
    """The ``k`` rows of ``tables`` with the smallest ``id_col``, in id
    order — the merge of :func:`smallest_ids_init` (keeping the k
    smallest of each part keeps every row of the k smallest overall,
    duplicates included)."""
    t = pa.concat_tables(tables)
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    return t.take(pa.array(np.argsort(ids, kind="stable")[:k]))


def smallest_ids_init(ds, k: int, id_col: str, emb_col: str) -> np.ndarray:
    """Quantized (k, d) embeddings of the ``k`` globally smallest ids,
    in id order — the deterministic init of k-means and PQ.  A per-batch
    local top-k folds to the driver (≤ k rows per merge, never the
    dataset), so any id space works, not just dense 0-based ids.
    Duplicate ids among the k smallest raise (their row order is not
    engine-reproducible, so silent arbitration would break the
    determinism contract), and so do fewer than k rows."""
    top = fold(ds, lambda t: _smallest([t.select([id_col, emb_col])], k, id_col),
               lambda ts: _smallest(ts, k, id_col))
    ids = [] if top is None else top.column(id_col).to_pylist()
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate ids among the {k} smallest: deterministic init impossible")
    if len(ids) < k:
        raise ValueError(f"need at least k={k} rows for init, got {len(ids)}")
    return quantize(_to_matrix(top.column(emb_col)))


def kmeans_fit(
    ds,
    *,
    k: int = 8,
    n_iters: int = 8,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> np.ndarray:
    """Fit k centroids over a Dataset's embedding column.

    Init: the embeddings of the ``k`` globally smallest ids
    (:func:`smallest_ids_init`).  Returns the fixed-point int64
    centroids.
    """
    cent_int = smallest_ids_init(ds, k, id_col, emb_col)

    for _ in range(n_iters):
        cent_ref = ray.put(cent_int)

        def batch_partials(batch: pa.Table) -> tuple:
            cent = ray.get(cent_ref)  # zero-copy plasma read, cached per node
            x_int = quantize(_to_matrix(batch.column(emb_col)))
            return partial_sums(x_int, assign_clusters(x_int, cent), cent.shape[0])

        sums, counts = fold(ds, batch_partials, _sum_partials)
        cent_int = update_centroids(cent_int, sums, counts)
    return cent_int


def kmeans_assign(ds, cent_int: np.ndarray, *, id_col: str = "vec_id", emb_col: str = "embedding"):
    """Final assignment pass: (id, cluster) per row."""
    cent_ref = ray.put(cent_int)

    def fn(batch: pa.Table) -> pa.Table:
        cent = ray.get(cent_ref)
        x_int = quantize(_to_matrix(batch.column(emb_col)))
        a = assign_clusters(x_int, cent)
        return pa.table({id_col: batch.column(id_col), "cluster": pa.array(a)})

    return ds.map_batches(fn, batch_format="pyarrow")


def kmeans_reference(m: np.ndarray, *, k: int = 8, n_iters: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Single-process plain-numpy reference (used by the oracle fixture
    generator and the pytest cross-check): identical fixed-point
    arithmetic, no Ray.  ``m`` rows must be ordered by id.  Returns
    (assignments, centroids_int)."""
    x_int = quantize(m)
    cent = x_int[:k].copy()
    for _ in range(n_iters):
        a = assign_clusters(x_int, cent)
        s, c = partial_sums(x_int, a, k)
        cent = update_centroids(cent, s, c)
    return assign_clusters(x_int, cent), cent


# ---------------------------------------------------------------------------
# SemDeDup — semantic deduplication via cluster-then-near-dup
# (Abbas et al. 2023, "SemDeDup: Data-efficient learning at web-scale
# through semantic deduplication" — public result).  k-means first, so
# the near-dup search runs WITHIN clusters only: the all-pairs cost is
# O(sum g_i^2) with g ~= n/k, and k is chosen proportional to n at
# scale (the published recipe), which bounds per-group work.
#
# Exactness contract (extends the k-means fixed-point contract): the
# eps test compares int64 dot products of NORMALIZED-then-QUANTIZED
# vectors against round(eps * Q * Q) — integer matmul is exact and
# order-independent, so the result is bit-identical under any batching
# and reproduced exactly by the plain reference.  Keeper selection is
# the published "farthest from centroid" rule, evaluated as the exact
# int64 squared distance ||quantize(x) - centroid_int||^2 (for unit
# vectors, lowest cosine-to-centroid == largest squared distance);
# ties keep the smallest id.
# ---------------------------------------------------------------------------

from .similarity import _normalize as _normalize_rows  # noqa: E402 — zero-norm guard + row division, single definition


def eps_q(eps: float) -> int:
    """The integer threshold for quantized-cosine >= eps."""
    return int(np.rint(np.float64(eps) * _Q * _Q))


def _semdedup_group(df, eps_int: int, id_col: str):
    """Within-cluster dup components + keeper choice (one cluster's
    rows are co-located by the groupby — vectors ride the shuffle
    exactly once, as this group).  Row-wise int64 matvec keeps memory
    O(g*d) while the work stays exact-integer."""
    import pandas as pd

    ids = df[id_col].to_numpy(dtype=np.int64)
    order = np.argsort(ids, kind="mergesort")
    ids = ids[order]
    nq = np.asarray(df["nq"].to_list(), dtype=np.int64)[order]
    dist2 = df["dist2"].to_numpy(dtype=np.int64)[order]
    cluster = int(df["cluster"].iloc[0])
    g = len(ids)

    parent = np.arange(g, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # identical-vector collapse (the minhash identical-signature idiom):
    # duplicate-heavy corpora put many IDENTICAL nq rows in one
    # cluster; members share every edge with their representative, so
    # pair-testing runs over distinct vectors only — exactly all-pairs
    # semantics: a member joins its rep's component iff the self-dot
    # clears eps (the intra-group edges) OR the rep has any eps-edge
    # (the member holds the identical edge to that neighbor).
    vord = np.lexsort(tuple(nq[:, c] for c in range(nq.shape[1] - 1, -1, -1)))
    vs = nq[vord]
    new_grp = np.r_[True, (vs[1:] != vs[:-1]).any(axis=1)]
    rep_pos = vord[new_grp]          # first (min-id) member per distinct vector
    grp_id = np.cumsum(new_grp) - 1  # distinct-vector index per sorted row
    r = len(rep_pos)
    reps = nq[rep_pos]
    rep_deg = np.zeros(r, dtype=bool)
    for i in range(r - 1):
        dots = reps[i + 1 :] @ reps[i]  # exact int64
        hits = np.flatnonzero(dots >= eps_int)
        if len(hits):
            rep_deg[i] = True
            rep_deg[i + 1 + hits] = True
            for j in hits:
                union(rep_pos[i], int(rep_pos[i + 1 + j]))
    self_ok = np.einsum("rd,rd->r", reps, reps) >= eps_int
    attach = self_ok | rep_deg
    for pos, gi in zip(vord, grp_id):
        if attach[gi] and pos != rep_pos[gi]:
            union(int(rep_pos[gi]), int(pos))
    roots = np.fromiter((find(int(i)) for i in range(g)), dtype=np.int64, count=g)
    # keeper per component: largest dist2, then smallest id (ids are
    # sorted ascending, so lexsort by (-dist2) within root and take
    # the first occurrence)
    ordk = np.lexsort((np.arange(g), -dist2, roots))
    first = np.r_[True, roots[ordk][1:] != roots[ordk][:-1]]
    keep = np.zeros(g, dtype=bool)
    keep[ordk[first]] = True
    return pd.DataFrame({id_col: ids, "cluster": np.full(g, cluster, dtype=np.int64),
                         "keep": keep})


def semdedup(ds, *, k: int = 8, n_iters: int = 8, eps: float = 0.9,
             id_col: str = "vec_id", emb_col: str = "embedding"):
    """(id, cluster, keep) per row: k-means fit + assign, then
    within-cluster exact-integer near-dup components; each component
    keeps its farthest-from-centroid member.

    The input is materialized first: the k-means loop consumes it
    n_iters+1 times and the assignment pass once more, so a lazy
    composed upstream (e.g. a text-feature embedding stage) would
    re-execute per consumption — the iterative-loop-state idiom
    (object-store spill beats recompute; rows here are thin id+vector
    rows, not text)."""
    ds = ds.materialize()
    cent_int = kmeans_fit(ds, k=k, n_iters=n_iters, id_col=id_col, emb_col=emb_col)
    cent_ref = ray.put(cent_int)
    eps_int = eps_q(eps)

    def prep(batch: pa.Table) -> pa.Table:
        cent = ray.get(cent_ref)
        m = _to_matrix(batch.column(emb_col))
        x_int = quantize(m)
        a = assign_clusters(x_int, cent)
        diff = x_int - cent[a]
        d2 = np.einsum("nd,nd->n", diff, diff)  # exact int64
        nq = quantize(_normalize_rows(m))
        d = nq.shape[1]
        return pa.table({
            id_col: batch.column(id_col),
            "cluster": pa.array(a),
            "dist2": pa.array(d2),
            "nq": pa.FixedSizeListArray.from_arrays(pa.array(nq.reshape(-1)), d),
        })

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(lambda df: _semdedup_group(df, eps_int, id_col),
                    batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# PCA over embeddings via EXACT integer second-moment sums
# ---------------------------------------------------------------------------

_PCA_SCALE = np.int64(1) << np.int64(20)


def _pca_moment_partials(t: pa.Table, emb_col: str) -> pa.Table:
    """(i, j, s) int64 partial second moments + (i, -1, s) first
    moments + one (-1, -1, n) count row per batch — d²+d+1 thin rows,
    the ONLY thing that moves.  Per-batch products fit int64
    (|q| ≤ ~2^23, batch ≤ 2^16 rows → ≤ 2^62)."""
    m = _to_matrix(t.column(emb_col)).astype(np.float64)
    q = np.floor(m * np.float64(_PCA_SCALE) + 0.5).astype(np.int64)
    d = q.shape[1]
    ss = q.T @ q  # exact: numpy int64 matmul
    s1 = q.sum(axis=0, dtype=np.int64)
    ii, jj = np.meshgrid(np.arange(d, dtype=np.int64),
                         np.arange(d, dtype=np.int64), indexing="ij")
    return pa.table({
        "i": pa.array(np.r_[ii.ravel(), np.arange(d, dtype=np.int64), -1]),
        "j": pa.array(np.r_[jj.ravel(), np.full(d, -1, dtype=np.int64), -1]),
        "s": pa.array(np.r_[ss.ravel(), s1, np.int64(t.num_rows)]),
    })


def _pca_merge(df) -> pa.Table:
    """Sum partials per (i, j) in UNBOUNDED Python ints (per-batch
    partials are ≤2^62 each; 10^6 batches would overflow an int64
    accumulator) → decimal strings, the group_moments convention."""
    import pandas as pd

    g = df.groupby(["i", "j"], sort=False)["s"].apply(
        lambda s: str(sum(int(x) for x in s))).reset_index()
    return pa.table({
        "i": pa.array(g["i"].to_numpy(dtype=np.int64)),
        "j": pa.array(g["j"].to_numpy(dtype=np.int64)),
        "s": pa.array(g["s"].to_numpy(dtype=object), type=pa.string()),
    })


def pca_fit(ds, *, n_components: int = 2, emb_col: str = "embedding",
            num_partitions: int = 32):
    """PCA components from EXACT integer moment sums: one streaming
    pass accumulates quantized first/second moments (d² + d + 1 rows
    per batch — never the data), one exchange merges them in unbounded
    ints, and the driver eigendecomposes the d×d covariance (the only
    driver state).  Determinism: exact sums → one fixed float
    expression per covariance cell → the same eigh input under ANY
    batching; eigenvector sign fixed by forcing the max-|coefficient|
    entry (lowest index on ties) positive.

    Returns (mean: float64[d], components: float64[d, p],
    explained_var: float64[p]) — population covariance (divide by n),
    eigenpairs sorted by eigenvalue desc then dimension asc."""
    from .exchange import exchange

    parts = ds.map_batches(lambda t: _pca_moment_partials(t, emb_col), batch_format="pyarrow")
    # d² + d + 1 rows — tiny by contract
    merged = exchange(parts, "i", num_partitions, _pca_merge, "pandas").to_pandas()
    n = 0
    s1: dict[int, int] = {}
    s2: dict[tuple[int, int], int] = {}
    for r in merged.itertuples():
        i, j, s = int(r.i), int(r.j), int(r.s)
        if i == -1:
            n += s
        elif j == -1:
            s1[i] = s1.get(i, 0) + s
        else:
            s2[(i, j)] = s2.get((i, j), 0) + s
    if n == 0:
        raise ValueError("pca_fit: empty dataset")
    d = max(s1) + 1
    cov = np.empty((d, d), dtype=np.float64)
    denom = float(n) * float(n) * float(_PCA_SCALE) * float(_PCA_SCALE)
    for i in range(d):
        for j in range(d):
            num = n * s2[(i, j)] - s1[i] * s1[j]  # exact big int
            cov[i, j] = float(num) / denom
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")[:n_components]
    w = evecs[:, order]
    for c in range(w.shape[1]):
        kmax = int(np.argmax(np.abs(w[:, c])))
        if w[kmax, c] < 0:
            w[:, c] = -w[:, c]
    mean = np.array([s1[i] for i in range(d)], dtype=np.float64) / (
        float(n) * float(_PCA_SCALE))
    return mean, w, evals[order]


def pca_transform(ds, mean: np.ndarray, components: np.ndarray, *,
                  id_col: str = "vec_id", emb_col: str = "embedding",
                  round_to: int = 9):
    """Project each vector onto the fitted components (stateless
    vectorized batches; the d×p matrix rides the task closure).
    Output: (id_col, pc1..pcP) rounded to ``round_to`` decimals (the
    module-wide fixture convention)."""
    p = components.shape[1]

    def project(t: pa.Table) -> pa.Table:
        m = _to_matrix(t.column(emb_col)).astype(np.float64)
        z = np.round((m - mean) @ components, round_to)
        cols = {id_col: t.column(id_col).cast(pa.int64())}
        for c in range(p):
            cols[f"pc{c + 1}"] = pa.array(z[:, c])
        return pa.table(cols)

    return ds.map_batches(project, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# greedy k-center coreset selection (diversity sampling)
# ---------------------------------------------------------------------------


def kcenter_select(ds, *, k: int = 32, id_col: str = "vec_id",
                   emb_col: str = "embedding"):
    """Greedy k-center (Gonzalez 1985, the 2-approximation farthest-
    point heuristic) — the diversity-sampling / coreset primitive:
    seed with the minimum id, then k-1 times add the point FARTHEST
    from its nearest already-chosen center (ties → min id).  Returns a
    k-row Dataset (rank, id, d2q) where d2q is the exact int64
    squared quantized distance at selection time — the coverage-radius
    sequence.

    Determinism: the same ``round(x·2^20)`` int64 quantization as
    k-means, so every distance and every comparison is exact integer
    arithmetic — bit-identical under any batching and trivially
    matched by the plain reference.

    Shape per iteration: ONE broadcast of the newest center (tiny),
    one streaming d2-min update pass over the materialized working set
    (per-row arithmetic, no exchange), and one argmax pass emitting a
    single thin row per block (driver state O(blocks)).  Total: k
    linear passes — the inherent cost of the greedy algorithm; loop
    state is materialized like the k-means loop."""
    if k < 1:
        raise ValueError("k must be >= 1")

    def load(t: pa.Table) -> pa.Table:
        q = quantize(_to_matrix(t.column(emb_col)))
        n, d = q.shape
        fsl = pa.FixedSizeListArray.from_arrays(pa.array(q.ravel()), d)
        return pa.table({
            "id": t.column(id_col).combine_chunks()
            if isinstance(t.column(id_col), pa.ChunkedArray) else t.column(id_col),
            "emb": fsl,
            "d2q": pa.array(np.full(n, np.iinfo(np.int64).max, dtype=np.int64)),
        })

    working = ds.map_batches(load, batch_format="pyarrow").materialize()
    seed = working.min("id")

    def emb_of(target_id: int):
        sub = working.filter(expr=f"id == {int(target_id)}").take(1)
        return np.asarray(sub[0]["emb"], dtype=np.int64)

    center = emb_of(seed)
    out_rows = [(0, int(seed), 0)]
    chosen = {int(seed)}
    for rank in range(1, int(k)):
        cref = ray.put(center)

        def update(t: pa.Table, _c=cref) -> pa.Table:
            c = ray.get(_c)
            x = np.asarray(t.column("emb").combine_chunks().values
                           if isinstance(t.column("emb"), pa.ChunkedArray)
                           else t.column("emb").values,
                           dtype=np.int64).reshape(t.num_rows, -1)
            diff = x - c[None, :]
            d2new = (diff * diff).sum(axis=1)
            d2 = np.minimum(
                t.column("d2q").to_numpy(zero_copy_only=False), d2new)
            return t.set_column(t.column_names.index("d2q"), "d2q",
                                pa.array(d2.astype(np.int64)))

        working = working.map_batches(update, batch_format="pyarrow").materialize()

        def farthest(t: pa.Table) -> tuple:
            """(d2q, -id, emb) of the batch's farthest row, smallest id
            among ties — ``max`` over these picks the global one."""
            d2 = t.column("d2q").to_numpy(zero_copy_only=False)
            ids = t.column("id").to_numpy(zero_copy_only=False).astype(np.int64)
            cand = np.flatnonzero(d2 == d2.max())
            pick = cand[np.argmin(ids[cand])]
            return (int(d2[pick]), -int(ids[pick]),
                    np.asarray(t.column("emb")[int(pick)].as_py(), dtype=np.int64))

        best = fold(working, farthest, lambda vs: max(vs, key=lambda v: v[:2]))
        bd2, bid = best[0], -best[1]
        if bid in chosen or bd2 == 0:
            # every remaining point coincides with a center: stop early
            break
        out_rows.append((rank, bid, bd2))
        chosen.add(bid)
        center = best[2]

    import ray.data as rd

    return engine_plan(rd.from_arrow(pa.table({
        "rank": pa.array([r[0] for r in out_rows], type=pa.int64()),
        id_col: pa.array([r[1] for r in out_rows], type=pa.int64()),
        "d2q": pa.array([r[2] for r in out_rows], type=pa.int64()),
    })))
