"""Integer fixed-point PageRank (stages/graph.py) vs the plain
dict-and-loop reference (tools/reference_impls.pagerank_reference):
bit-exact q values, batching invariance, dangling mass, ordering."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray

from logstash_filter_elastic_integration_ray.stages.graph import pagerank
from tools.reference_impls import pagerank_reference


#: shard counts every shard-engine reference test runs under
SHARDS = (1, 3, 8)


def _run(edges, blocks=1, P=4, **kw):
    ds = ray.data.from_arrow(pa.table({
        "src": pa.array([s for s, _ in edges], type=pa.int64()),
        "dst": pa.array([d for _, d in edges], type=pa.int64()),
    })).repartition(blocks)
    got = pagerank(ds, num_partitions=P, **kw).to_pandas()
    return {int(r.node): (int(r.q), float(r.rank)) for r in got.itertuples()}


def _want(edges, **kw):
    df = pagerank_reference(edges, **kw)
    return {int(r.node): (int(r.q), float(r.rank)) for r in df.itertuples()}


GRAPH = [
    (1, 2), (1, 3), (2, 3), (3, 1), (4, 3), (4, 3),  # parallel edge
    (5, 5),                                           # self-loop
    (6, 1),                                           # 7 is dangling (dst only)
    (6, 7),
]


@pytest.mark.parametrize("blocks", [1, 3])
def test_pagerank_bit_exact_vs_reference(ray_session, blocks):
    want = _want(GRAPH)
    for P in SHARDS:
        assert _run(GRAPH, blocks=blocks, P=P) == want  # q AND float rank, bitwise


def test_pagerank_star_hub_wins(ray_session):
    star = [(i, 0) for i in range(1, 8)]
    got = _run(star)
    hub_q = got[0][0]
    assert all(hub_q > q for n, (q, _) in got.items() if n != 0)
    want = _want(star)
    assert got == want


def test_pagerank_mass_bounded_and_iters(ray_session):
    got = _run(GRAPH, n_iters=3)
    want = _want(GRAPH, n_iters=3)
    assert got == want
    total = sum(q for q, _ in got.values())
    n = len(got)
    # leftover remainder discards < n units per iteration, never adds
    assert n * (1 << 32) - 3 * n <= total <= n * (1 << 32)


def test_pagerank_all_dangling(ray_session):
    # one edge creates two nodes; make both effectively near-dangling
    got = _run([(1, 2)], n_iters=2)
    want = _want([(1, 2)], n_iters=2)
    assert got == want


def test_pagerank_pregel_pure_sink_shard(ray_session):
    """A node owned by a shard that receives NO edges (pure sink) must
    still exist in the output with teleport-only mass."""
    # sink ids chosen so some land on edge-free shards at P=8
    edges = [(1, k) for k in range(100, 108)]
    ds = ray.data.from_arrow(pa.table({
        "src": pa.array([s for s, _ in edges], type=pa.int64()),
        "dst": pa.array([d for _, d in edges], type=pa.int64()),
    })).repartition(2)
    got = pagerank(ds, num_partitions=8).to_pandas()
    gmap = {int(r.node): (int(r.q), float(r.rank)) for r in got.itertuples()}
    assert gmap == _want(edges)


def test_empty_edge_set_typed_outputs_and_no_live_shards(ray_session):
    """Each shard program turns an edge set with no rows into its typed
    output (the seeds alone for hop distance), and no shard actor
    outlives the call."""
    import time

    from ray._private import state

    from logstash_filter_elastic_integration_ray.stages import graph

    empty = ray.data.from_arrow(pa.table({"src": pa.array([], type=pa.int64()),
                                          "dst": pa.array([], type=pa.int64())}))
    i64, f64 = pa.int64(), pa.float64()
    calls = [
        (lambda e: graph.pagerank(e, num_partitions=3), {"node": i64, "q": i64, "rank": f64}),
        (lambda e: graph.pagerank(e, num_partitions=3, seeds=[1]),
         {"node": i64, "q": i64, "rank": f64}),
        (lambda e: graph.hits(e, num_partitions=3),
         {"node": i64, "hub_q": i64, "auth_q": i64, "hub": f64, "auth": f64}),
        (lambda e: graph.core_numbers(e, num_partitions=3), {"node": i64, "core": i64}),
        (lambda e: graph.label_propagation(e, num_partitions=3), {"node": i64, "label": i64}),
        (lambda e: graph.betweenness_pivots(e, pivots=[1], num_partitions=3),
         {"node": i64, "bc": f64}),
        (lambda e: graph.harmonic_closeness_pivots(e, pivots=[1], num_partitions=3),
         {"pivot": i64, "n_reached": i64, "harmonic": f64, "closeness": f64}),
        (lambda e: graph.eccentricity_pivots(e, pivots=[1], num_partitions=3),
         {"pivot": i64, "eccentricity": i64, "n_reached": i64}),
        (lambda e: graph.hop_distances(e, seeds=[7], num_partitions=3),
         {"node": i64, "dist": i64}),
    ]
    for call, schema in calls:
        got = pa.concat_tables(ray.get(call(empty).to_arrow_refs()))
        assert got.schema == pa.schema(schema)
        assert got.to_pylist() == ([{"node": 7, "dist": 0}] if "dist" in schema else [])

    def live_shards():
        return [a for a in state.actors().values()
                if a["ActorClassName"].endswith("_Shard") and a["State"] != "DEAD"]

    deadline = time.time() + 30
    while live_shards() and time.time() < deadline:
        time.sleep(0.2)
    assert not live_shards()


# ---------------------------------------------------------------------------
# dHash + generic hamming dedup over code columns
# ---------------------------------------------------------------------------

from logstash_filter_elastic_integration_ray.stages.dedup import hamming_dedup_codes
from logstash_filter_elastic_integration_ray.stages.multimodal import (
    dhash64,
    encode_netpbm,
)


class TestDhash:
    def test_known_bits_and_brightness_invariance(self):
        # 8x9 gray: strictly increasing columns -> no "left > right" -> 0
        img = np.tile(np.arange(9, dtype=np.uint8) * 10, (8, 1))
        assert dhash64(encode_netpbm(img)) == 0
        # strictly decreasing -> all 64 bits set
        dec = img[:, ::-1].copy()
        assert dhash64(encode_netpbm(dec)) == (1 << 64) - 1
        # uniform brightness shift cancels
        assert dhash64(encode_netpbm(dec + 7)) == (1 << 64) - 1

    def test_rgb_gray_and_garbage(self):
        rgb = np.zeros((8, 9, 3), dtype=np.uint8)
        rgb[:, :, 1] = np.arange(9, dtype=np.uint8)[None, :] * 20
        assert dhash64(encode_netpbm(rgb)) == 0  # green gradient increasing
        assert dhash64(b"junk") is None

    def test_resample_path(self):
        # a 90x80 image with the same column pattern hashes like 9x8
        small = np.tile((np.arange(9, dtype=np.uint8)[::-1]) * 10, (8, 1))
        big = np.repeat(np.repeat(small, 10, axis=0), 10, axis=1)
        assert dhash64(encode_netpbm(big)) == dhash64(encode_netpbm(small))


def _uf_clusters(ids, codes, k):
    from tools.reference_impls import UnionFind, _hamming_int

    uf = UnionFind(ids)
    valid = [(i, c) for i, c in zip(ids, codes) if c is not None]
    for a in range(len(valid)):
        for b in range(a + 1, len(valid)):
            if _hamming_int(valid[a][1], valid[b][1]) <= k:
                uf.union(valid[a][0], valid[b][0])
    df = uf.clusters()
    return {int(r.doc_id): int(r.cluster_size) for r in df.itertuples()}


@pytest.mark.parametrize("blocks", [1, 3])
def test_hamming_dedup_codes_vs_union_find(ray_session, blocks):
    rng = np.random.default_rng(7)
    base = rng.integers(0, 2**63, 40, dtype=np.int64)
    ids, codes = [], []
    for i, b in enumerate(base):
        ids.append(i * 10)
        codes.append(int(b))
        if i % 3 == 0:  # 1-bit neighbor
            ids.append(i * 10 + 1)
            codes.append(int(b) ^ 1)
        if i % 5 == 0:  # identical code
            ids.append(i * 10 + 2)
            codes.append(int(b))
    ids.append(9999)
    codes.append(None)  # null code -> singleton
    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "dhash": pa.array(codes, type=pa.int64()),
    })).repartition(blocks)
    got = hamming_dedup_codes(ds, code_col="dhash", k=2,
                              num_partitions=4).to_pandas()
    gmap = {int(r.doc_id): int(r.cluster_size) for r in got.itertuples()}
    want = _uf_clusters(ids, [None if c is None else c & ((1 << 64) - 1)
                              for c in codes], 2)
    # compare on unsigned views: reference uses int keys
    assert gmap == want
    assert gmap[9999] == 1


# ---------------------------------------------------------------------------
# triangle counting
# ---------------------------------------------------------------------------

from logstash_filter_elastic_integration_ray.stages.graph import triangle_counts


def _tri_ref(edges):
    adj = {}
    for a, b in edges:
        if a == b:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    counts = {}
    for u in sorted(adj):
        for v in adj[u]:
            if v <= u:
                continue
            for w in adj[u] & adj[v]:
                if w > v:
                    for x in (u, v, w):
                        counts[x] = counts.get(x, 0) + 1
    return counts


def _run_tri(edges, blocks=1):
    ds = ray.data.from_arrow(pa.table({
        "src": pa.array([a for a, _ in edges], type=pa.int64()),
        "dst": pa.array([b for _, b in edges], type=pa.int64()),
    })).repartition(blocks)
    got = triangle_counts(ds, num_partitions=4).to_pandas()
    return {int(r.node): int(r.n_triangles) for r in got.itertuples()}


TRI_GRAPH = [
    (1, 2), (2, 3), (1, 3),          # triangle
    (3, 4), (4, 5), (3, 5), (4, 5),  # triangle + parallel edge
    (5, 6), (6, 7),                   # path, no triangle
    (8, 8),                           # self-loop dropped
    (2, 1),                           # reverse duplicate collapsed
    (1, 4), (2, 4),                   # (1,2,4) closes another triangle
]


@pytest.mark.parametrize("blocks", [1, 3])
def test_triangle_counts_matches_reference(ray_session, blocks):
    got = _run_tri(TRI_GRAPH, blocks=blocks)
    want = _tri_ref(TRI_GRAPH)
    assert got == want
    assert 6 not in got and 7 not in got and 8 not in got


def test_triangle_counts_clique(ray_session):
    n = 7
    k7 = [(i, j) for i in range(n) for j in range(i + 1, n)]
    got = _run_tri(k7)
    # each node of K7 is in C(6,2)=15 triangles
    assert got == {i: 15 for i in range(n)}


def test_triangle_counts_no_triangles(ray_session):
    got = _run_tri([(1, 2), (3, 4), (2, 3)])
    assert got == {}


# ---------------------------------------------------------------------------
# embedding drift by label
# ---------------------------------------------------------------------------

from logstash_filter_elastic_integration_ray.stages.similarity import (
    embedding_drift_by_label,
)


def _drift_ref(labels, vecs):
    import math

    q = {}
    cnt = {}
    for l, v in zip(labels, vecs):
        qv = [int(math.floor(float(x) * 1048576.0 + 0.5)) for x in v]
        if l not in q:
            q[l] = [0] * len(qv)
            cnt[l] = 0
        q[l] = [a + b for a, b in zip(q[l], qv)]
        cnt[l] += 1
    g = [sum(q[l][d] for l in q) for d in range(len(next(iter(q.values()))))]
    nb = sum(x * x for x in g)
    out = {}
    for l in sorted(q):
        dot = sum(a * b for a, b in zip(q[l], g))
        na = sum(a * a for a in q[l])
        cos = 0.0 if na == 0 or nb == 0 else (
            float(dot) / (math.sqrt(float(na)) * math.sqrt(float(nb))))
        out[l] = (cnt[l], cos)
    return out


@pytest.mark.parametrize("blocks", [1, 3])
def test_embedding_drift_matches_plain_ints(ray_session, blocks):
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, 60).astype(np.int64)
    vecs = rng.normal(size=(60, 8)).astype(np.float32)
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(60), type=pa.int64()),
        "label": pa.array(labels),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              type=pa.list_(pa.float32())),
    })).repartition(blocks)
    got = embedding_drift_by_label(ds, num_partitions=4)
    gmap = {int(r.label): (int(r.n), float(r.cos_to_global))
            for r in got.itertuples()}
    want = _drift_ref(labels.tolist(),
                      [np.asarray(v, dtype=np.float64) for v in vecs])
    assert gmap == want  # bitwise: same integer algorithm
    assert all(-1.0 <= c <= 1.0 for _, c in gmap.values())


def test_personalized_pagerank_bit_exact_and_concentrates(ray_session):
    from tools.reference_impls import pagerank_reference

    star = [(i, 0) for i in range(1, 8)] + [(0, 1)]
    ds = ray.data.from_arrow(pa.table({
        "src": pa.array([s for s, _ in star], type=pa.int64()),
        "dst": pa.array([d for _, d in star], type=pa.int64()),
    }))
    ref = pagerank_reference(star, seeds=[3])
    want = {int(r.node): int(r.q) for r in ref.itertuples()}
    for P in SHARDS:
        got = pagerank(ds, num_partitions=P, seeds=[3]).to_pandas()
        gmap = {int(r.node): int(r.q) for r in got.itertuples()}
        assert gmap == want
    # seed 3 holds strictly more mass than symmetric non-seed leaves
    assert gmap[3] > gmap[4]
    with pytest.raises(ValueError):
        pagerank(ds, seeds=[])


# ---------------------------------------------------------------------------
# HITS
# ---------------------------------------------------------------------------

from logstash_filter_elastic_integration_ray.stages.graph import hits


@pytest.mark.parametrize("blocks", [1, 3])
def test_hits_bit_exact_vs_reference(ray_session, blocks):
    from tools.reference_impls import hits_reference

    g = [(1, 2), (1, 3), (4, 3), (3, 2), (2, 5), (6, 3), (6, 2)]
    ds = ray.data.from_arrow(pa.table({
        "src": pa.array([s for s, _ in g], type=pa.int64()),
        "dst": pa.array([d for _, d in g], type=pa.int64()),
    })).repartition(blocks)
    ref = hits_reference(g)
    want = {int(r.node): (int(r.hub_q), int(r.auth_q), float(r.hub), float(r.auth))
            for r in ref.itertuples()}
    for P in SHARDS:
        got = hits(ds, num_partitions=P).to_pandas()
        gmap = {int(r.node): (int(r.hub_q), int(r.auth_q), float(r.hub), float(r.auth))
                for r in got.itertuples()}
        assert gmap == want
    # 2 and 3 receive from the most hubs -> top authorities
    top_auth = max(gmap, key=lambda n: gmap[n][1])
    assert top_auth in (2, 3)


def test_hits_rescale_engages(ray_session):
    from tools.reference_impls import hits_reference

    # dense bipartite core: scores grow ~ (n/2)^(2 iters) and cross 2^40
    g = [(i, 100 + j) for i in range(12) for j in range(12)]
    ds = ray.data.from_arrow(pa.table({
        "src": pa.array([s for s, _ in g], type=pa.int64()),
        "dst": pa.array([d for _, d in g], type=pa.int64()),
    }))
    ref = hits_reference(g, n_iters=8)
    want = {int(r.node): (int(r.hub_q), int(r.auth_q), float(r.hub), float(r.auth))
            for r in ref.itertuples()}
    for P in SHARDS:
        got = hits(ds, n_iters=8, num_partitions=P).to_pandas()
        gmap = {int(r.node): (int(r.hub_q), int(r.auth_q), float(r.hub), float(r.auth))
                for r in got.itertuples()}
        assert gmap == want
    assert max(q for q, *_ in gmap.values()) <= 1 << 41


class TestCoreNumbers:
    def _run(self, ray, edges, parts=3, P=4, **kw):
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.graph import core_numbers

        t = pa.table({"src": pa.array([e[0] for e in edges], type=pa.int64()),
                      "dst": pa.array([e[1] for e in edges], type=pa.int64())})
        out = core_numbers(rd.from_arrow(t).repartition(parts),
                           num_partitions=P, **kw)
        return dict(zip(*[out.to_pandas()[c].tolist() for c in ("node", "core")]))

    def test_known_graph(self, ray_session):
        import ray

        # K4 (nodes 0-3, coreness 3) + a path 3-4-5 (coreness 1)
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
        got = self._run(ray, edges)
        assert got == {0: 3, 1: 3, 2: 3, 3: 3, 4: 1, 5: 1}

    def test_parallel_reverse_self_edges_normalized(self, ray_session):
        import ray

        # duplicates/reverse/self edges must not inflate degrees
        edges = [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2), (2, 0)]
        got = self._run(ray, edges)
        assert got == {0: 2, 1: 2, 2: 2}

    def test_matches_peeling_reference_and_block_invariance(self, ray_session):
        import ray

        import reference_impls as ref

        rng = np.random.RandomState(17)
        n = 200
        edges = [(int(a), int(b)) for a, b in
                 zip(rng.randint(0, n, 900), rng.randint(0, n, 900))]
        expect = dict(zip(ref.kcore_reference(edges)["node"],
                          ref.kcore_reference(edges)["core"]))
        for parts in (1, 7):
            for P in SHARDS:
                assert self._run(ray, edges, parts=parts, P=P) == expect

    def test_nonconvergence_guard(self, ray_session):
        import ray

        import pytest

        # a path needs >1 h-index round (interior estimates cascade down)
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        with pytest.raises(RuntimeError):
            self._run(ray, edges, max_iters=1)


class TestHopDistances:
    def _ds(self, edges):
        import ray.data

        return ray.data.from_items(
            [{"src": int(s), "dst": int(d)} for s, d in edges]
        ).repartition(4)

    def _bfs(self, edges, seeds, directed=False):
        from collections import deque

        adj = {}
        for s, d in edges:
            adj.setdefault(s, set()).add(d)
            if not directed:
                adj.setdefault(d, set()).add(s)
        dist = {s: 0 for s in seeds}
        q = deque(seeds)
        while q:
            u = q.popleft()
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return dist

    def test_matches_bfs_reference_random_graph(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.graph import hop_distances

        rng = np.random.RandomState(17)
        edges = [(int(a), int(b)) for a, b in rng.randint(0, 120, (500, 2))]
        seeds = [0, 7, 99]
        for P in SHARDS:
            out = hop_distances(self._ds(edges), seeds=seeds,
                                num_partitions=P).to_pandas()
            got = dict(zip(out["node"].astype(int), out["dist"].astype(int)))
            assert got == self._bfs(edges, seeds)

    def test_directed_vs_undirected(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.graph import hop_distances

        edges = [(1, 2), (2, 3), (5, 1)]
        und = hop_distances(self._ds(edges), seeds=[1], num_partitions=2).to_pandas()
        got_u = dict(zip(und["node"].astype(int), und["dist"].astype(int)))
        assert got_u == {1: 0, 2: 1, 3: 2, 5: 1}
        dird = hop_distances(self._ds(edges), seeds=[1], num_partitions=2,
                             directed=True).to_pandas()
        got_d = dict(zip(dird["node"].astype(int), dird["dist"].astype(int)))
        # 5 → 1 is not traversable from 1 in the directed view
        assert got_d == {1: 0, 2: 1, 3: 2}

    def test_unreachable_omitted_and_multi_seed_min(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.graph import hop_distances

        edges = [(1, 2), (2, 3), (3, 4), (10, 11), (20, 21)]
        out = hop_distances(self._ds(edges), seeds=[1, 4, 10],
                            num_partitions=3).to_pandas()
        got = dict(zip(out["node"].astype(int), out["dist"].astype(int)))
        # node 3 is 2 hops from seed 1 but 1 hop from seed 4 → min wins
        assert got == {1: 0, 4: 0, 10: 0, 2: 1, 3: 1, 11: 1}
        assert 20 not in got and 21 not in got

    def test_empty_seeds_raise_and_max_iters_guard(self, ray_session):
        import pytest as _pytest

        from logstash_filter_elastic_integration_ray.stages.graph import hop_distances

        with _pytest.raises(ValueError, match="empty seed"):
            hop_distances(self._ds([(1, 2)]), seeds=[])
        chain = [(i, i + 1) for i in range(6)]
        with _pytest.raises(RuntimeError, match="frontier still active"):
            hop_distances(self._ds(chain), seeds=[0], num_partitions=2,
                          max_iters=2)

    def test_block_invariance(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.graph import hop_distances

        rng = np.random.RandomState(23)
        edges = [(int(a), int(b)) for a, b in rng.randint(0, 60, (200, 2))]
        outs = []
        for nblocks in (1, 7):
            ds = ray.data.from_items(
                [{"src": s, "dst": d} for s, d in edges]).repartition(nblocks)
            out = hop_distances(ds, seeds=[3, 44], num_partitions=3).to_pandas()
            outs.append(out.sort_values("node").reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestLabelPropagation:
    def test_two_cliques_with_bridge(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.graph import label_propagation

        # two 4-cliques {0..3} and {10..13} joined by one bridge edge:
        # LPA must label each clique by its minimum node and the bridge
        # must not merge them
        cliq = lambda base: [(base + i, base + j)
                             for i in range(4) for j in range(i + 1, 4)]
        edges = cliq(0) + cliq(10) + [(3, 10)]
        ds = ray.data.from_items([{"src": s, "dst": d} for s, d in edges])
        out = label_propagation(ds, n_iters=8, num_partitions=3).to_pandas()
        got = dict(zip(out["node"], out["label"]))
        assert all(got[v] == 0 for v in range(4))
        assert all(got[v] == 10 for v in range(10, 14))

    def test_matches_independent_reference_and_block_invariant(self, ray_session):
        import ray.data
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.graph import label_propagation

        # pseudo-random graph incl. self-loops + duplicate/reverse
        # edges (exercises normalization) and plurality ties
        rng = np.random.default_rng(11)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 40, size=(120, 2))]
        want = ref.label_propagation_reference(edges, n_iters=5)
        for nblocks in (1, 6):
            ds = ray.data.from_items(
                [{"src": s, "dst": d} for s, d in edges]).repartition(nblocks)
            for P in SHARDS:
                out = (label_propagation(ds, n_iters=5, num_partitions=P)
                       .to_pandas().sort_values("node").reset_index(drop=True))
                pd.testing.assert_frame_equal(out, want)

    def test_early_stop_is_fixpoint(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.graph import label_propagation

        # a clique pair converges in a few rounds (a PATH would 2-cycle
        # forever under synchronous updates — that's why the contract
        # fixes n_iters); once a round changes nothing, extra rounds
        # must not change the answer (early-stop = fixpoint contract)
        cliq = lambda base: [(base + i, base + j)
                             for i in range(4) for j in range(i + 1, 4)]
        edges = cliq(0) + cliq(10) + [(3, 10)]
        ds = ray.data.from_items([{"src": s, "dst": d} for s, d in edges])
        a = label_propagation(ds, n_iters=4, num_partitions=2).to_pandas()
        b = label_propagation(ds, n_iters=16, num_partitions=2).to_pandas()
        pd.testing.assert_frame_equal(
            a.sort_values("node").reset_index(drop=True),
            b.sort_values("node").reset_index(drop=True),
        )


class TestModularity:
    def test_hand_computed_two_cliques(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.graph import modularity

        # two triangles joined by a bridge, perfectly labeled:
        # m=7, E_in=6, deg_c = 7 each → Q = (4·7·6 − 98)/196 = 70/196
        edges = [(0, 1), (1, 2), (0, 2), (10, 11), (11, 12), (10, 12), (2, 10)]
        labels = ray.data.from_items(
            [{"node": v, "label": 0} for v in (0, 1, 2)]
            + [{"node": v, "label": 10} for v in (10, 11, 12)])
        ds = ray.data.from_items([{"src": s, "dst": d} for s, d in edges])
        out = modularity(ds, labels, num_partitions=2).to_pandas()
        assert int(out["m"].iloc[0]) == 7
        assert int(out["e_in"].iloc[0]) == 6
        assert int(out["sum_deg_sq"].iloc[0]) == 98
        assert float(out["modularity"].iloc[0]) == 70.0 / 196.0

    def test_matches_plain_reference_on_random_graph(self, ray_session):
        import ray.data
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.graph import (
            label_propagation,
            modularity,
        )

        rng = np.random.default_rng(5)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 30, size=(90, 2))]
        lab_df = ref.label_propagation_reference(edges, n_iters=5)
        lab = dict(zip(lab_df["node"], lab_df["label"]))

        # independent plain modularity: normalize, count within-label
        # edges and per-label degrees with dicts
        simple = set()
        for s, d in edges:
            if s != d:
                simple.add((min(s, d), max(s, d)))
        m = len(simple)
        e_in = sum(1 for a, b in simple if lab[a] == lab[b])
        deg: dict = {}
        for a, b in simple:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        dc: dict = {}
        for v, d in deg.items():
            dc[lab[v]] = dc.get(lab[v], 0) + d
        sds = sum(d * d for d in dc.values())
        want_q = float(4 * m * e_in - sds) / float(4 * m * m)

        ds = ray.data.from_items([{"src": s, "dst": d} for s, d in edges])
        labels = label_propagation(ds, n_iters=5, num_partitions=3)
        out = modularity(ds, labels, num_partitions=3).to_pandas()
        assert int(out["m"].iloc[0]) == m
        assert int(out["e_in"].iloc[0]) == e_in
        assert int(out["sum_deg_sq"].iloc[0]) == sds
        assert float(out["modularity"].iloc[0]) == want_q

    def test_empty_graph_raises(self, ray_session):
        import pytest as _pytest
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.graph import modularity

        ds = ray.data.from_items([{"src": 1, "dst": 1}])  # only a self-loop
        labels = ray.data.from_items([{"node": 1, "label": 1}])
        with _pytest.raises(ValueError):
            modularity(ds, labels, num_partitions=2)


class TestClusteringCoefficients:
    def test_k4_plus_pendant(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.graph import (
            clustering_coefficients,
        )

        # K4 (every node cc=1.0) plus a pendant node hanging off node 0
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(0, 99)]
        ds = ray.data.from_items([{"src": s, "dst": d} for s, d in edges])
        out = clustering_coefficients(ds, num_partitions=2).to_pandas()
        got = {int(r.node): (int(r.deg), int(r.n_triangles), float(r.cc))
               for r in out.itertuples()}
        assert got[99] == (1, 0, 0.0)          # pendant: deg<2 → 0
        assert got[0] == (4, 3, 0.5)           # 3 tri / C(4,2)=6
        for v in (1, 2, 3):
            assert got[v] == (3, 3, 1.0)

    def test_matches_plain_reference_random(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.graph import (
            clustering_coefficients,
        )

        rng = np.random.default_rng(3)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 25, size=(80, 2))]
        # plain adjacency-set reference
        adj: dict = {}
        for s, d in edges:
            if s != d:
                adj.setdefault(s, set()).add(d)
                adj.setdefault(d, set()).add(s)
        want = {}
        for v, nb in adj.items():
            nb = sorted(nb)
            t = sum(1 for i in range(len(nb)) for j in range(i + 1, len(nb))
                    if nb[j] in adj[nb[i]])
            deg = len(nb)
            cc = (2.0 * t) / (deg * (deg - 1)) if deg >= 2 else 0.0
            want[v] = (deg, t, cc)
        ds = ray.data.from_items(
            [{"src": s, "dst": d} for s, d in edges]).repartition(4)
        out = clustering_coefficients(ds, num_partitions=3).to_pandas()
        got = {int(r.node): (int(r.deg), int(r.n_triangles), float(r.cc))
               for r in out.itertuples()}
        assert got == want


class TestBetweennessPivots:
    def test_path_graph_all_pivots_exact(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.graph import (
            betweenness_pivots,
        )

        # path 0-1-2-3-4 with ALL nodes as pivots = exact betweenness
        # (directed-pair convention, no /2): interior node counts
        # bc(1)=6, bc(2)=8, endpoints 0
        edges = [(i, i + 1) for i in range(4)]
        ds = ray.data.from_items([{"src": s, "dst": d} for s, d in edges])
        out = betweenness_pivots(ds, pivots=range(5),
                                 num_partitions=2).to_pandas()
        got = dict(zip(out["node"], out["bc"]))
        assert got == {0: 0.0, 1: 6.0, 2: 8.0, 3: 6.0, 4: 0.0}

    def test_matches_reference_bitwise_and_block_invariant(self, ray_session):
        import ray.data
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.graph import (
            betweenness_pivots,
        )

        rng = np.random.default_rng(9)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 30, size=(70, 2))]
        pivots = [0, 5, 10, 15, 20, 25]
        want = ref.betweenness_pivots_reference(edges, pivots)
        for blocks in (1, 5):
            ds = ray.data.from_items(
                [{"src": s, "dst": d} for s, d in edges]).repartition(blocks)
            for P in SHARDS:
                out = (betweenness_pivots(ds, pivots=pivots, num_partitions=P)
                       .to_pandas().sort_values("node").reset_index(drop=True))
                pd.testing.assert_frame_equal(out, want)  # doubles BITWISE

    def test_diamond_split_paths(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.graph import (
            betweenness_pivots,
        )

        # diamond 0-{1,2}-3: two shortest 0→3 paths → each middle node
        # carries 0.5 per (0,3) direction; pivots {0, 3} → bc = 1.0
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        ds = ray.data.from_items([{"src": s, "dst": d} for s, d in edges])
        out = betweenness_pivots(ds, pivots=[0, 3],
                                 num_partitions=2).to_pandas()
        got = dict(zip(out["node"], out["bc"]))
        assert got[1] == 1.0 and got[2] == 1.0
        assert got[0] == 0.0 and got[3] == 0.0


class TestHarmonicCloseness:
    def test_path_graph_hand_values(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.graph import (
            harmonic_closeness_pivots,
        )

        # path 0-1-2-3-4; pivot 0: dists 1,2,3,4 → harmonic = 1 + 1/2
        # + 1/3 + 1/4, closeness = 4/10; pivot 2: dists 1,1,2,2 →
        # harmonic = 3.0, closeness = 4/6
        edges = [(i, i + 1) for i in range(4)]
        ds = ray.data.from_items([{"src": s, "dst": d} for s, d in edges])
        out = harmonic_closeness_pivots(ds, pivots=[0, 2],
                                        num_partitions=2).to_pandas()
        got = {int(r.pivot): (int(r.n_reached), float(r.harmonic),
                              float(r.closeness)) for r in out.itertuples()}
        import numpy as _np

        h0 = float(_np.add.reduceat(
            _np.array([1.0, 1 / 2, 1 / 3, 1 / 4]), [0])[0])
        assert got[0] == (4, h0, 4.0 / 10.0)
        assert got[2] == (4, 3.0, 4.0 / 6.0)

    def test_matches_reference_bitwise(self, ray_session):
        import ray.data
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.graph import (
            harmonic_closeness_pivots,
        )

        rng = np.random.default_rng(17)
        edges = [(int(a), int(b)) for a, b in rng.integers(0, 40, size=(90, 2))]
        pivots = [0, 8, 16, 24, 32]
        want = ref.harmonic_closeness_reference(edges, pivots)
        for blocks in (1, 4):
            ds = ray.data.from_items(
                [{"src": s, "dst": d} for s, d in edges]).repartition(blocks)
            for P in SHARDS:
                out = (harmonic_closeness_pivots(ds, pivots=pivots,
                                                 num_partitions=P)
                       .to_pandas().sort_values("pivot").reset_index(drop=True))
                pd.testing.assert_frame_equal(
                    out, want.sort_values("pivot").reset_index(drop=True))


class TestEccentricityPivots:
    def test_path_and_reference(self, ray_session):
        import ray.data
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.graph import (
            eccentricity_pivots,
        )

        # path 0-1-2-3-4: ecc(0)=4, ecc(2)=2
        edges = [(i, i + 1) for i in range(4)]
        ds = ray.data.from_items([{"src": s, "dst": d} for s, d in edges])
        out = eccentricity_pivots(ds, pivots=[0, 2],
                                  num_partitions=2).to_pandas()
        got = {int(r.pivot): (int(r.eccentricity), int(r.n_reached))
               for r in out.itertuples()}
        assert got == {0: (4, 4), 2: (2, 4)}

        rng = np.random.default_rng(21)
        redges = [(int(a), int(b)) for a, b in rng.integers(0, 35, size=(80, 2))]
        pivots = [0, 7, 14, 21]
        want = ref.eccentricity_reference(redges, pivots)
        ds2 = ray.data.from_items(
            [{"src": s, "dst": d} for s, d in redges]).repartition(3)
        for P in SHARDS:
            out2 = (eccentricity_pivots(ds2, pivots=pivots, num_partitions=P)
                    .to_pandas().sort_values("pivot").reset_index(drop=True))
            pd.testing.assert_frame_equal(
                out2, want.sort_values("pivot").reset_index(drop=True))
