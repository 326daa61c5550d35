"""Distributed link-graph analytics: PageRank over an edge table.

Link centrality is a published corpus-curation signal (web-graph
quality weighting for crawl data — the Common Crawl ranking family),
so the engine carries it as a first-class iterative op alongside
k-means / logreg.  The shape is the BSP message-passing one every
distributed PageRank uses:

- per iteration, TWO co-partition exchanges: ranks join edges by src
  (each edge emits its share, pre-summed per dst within the
  partition), then contribution partials join the node table by dst;
- loop state (the node table) is materialized per iteration exactly
  like the k-means centroid loop — the edges ride one exchange per
  iteration, which IS PageRank's cost model on any BSP system;
- the only driver state per iteration is two scalars (propagated-mass
  sum, base term).

Determinism (the property the float textbook formulation cannot give
on an unordered engine): ranks are int64 fixed-point micro-units
(SCALE = 2^32 per node).  Every per-edge share is an exact integer
floor division ``q // deg``; per-dst sums are exact int64 adds (any
order); damping is one integer ``(num · S) // den``; ALL rounding
remainders plus dangling mass plus teleport collapse into one global
leftover ``L = M − Σ propagated`` redistributed as ``L // n`` per node
(the sub-n remainder is deliberately discarded — ranking is unaffected
and the result stays a pure function of the graph, independent of
batch/partition boundaries).  The final float rank is ``q / 2^32``, an
exact power-of-two division.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.io import engine_plan
from .exchange import copartition, exchange, lookup
from .joins import _multi_arange

SCALE = np.int64(1) << np.int64(32)


def _node_table(edges, src_col: str, dst_col: str, num_partitions: int):
    """(node, deg) for every node appearing as src OR dst — one
    exchange; deg counts outgoing edges (0 = dangling)."""

    def sides(t: pa.Table) -> pa.Table:
        s = t.column(src_col).cast(pa.int64())
        d = t.column(dst_col).cast(pa.int64())
        out = pa.table({
            "node": pa.concat_arrays([s.combine_chunks(), d.combine_chunks()]),
            "is_src": pa.array(np.r_[np.ones(len(s), dtype=np.int64),
                                     np.zeros(len(d), dtype=np.int64)]),
        })
        # per-batch pre-collapse: one row per node per batch
        df = pd.DataFrame({"node": out.column("node").to_numpy(),
                           "is_src": out.column("is_src").to_numpy()})
        agg = df.groupby("node", sort=False)["is_src"].sum().reset_index()
        return pa.table({"node": pa.array(agg["node"].to_numpy(dtype=np.int64)),
                         "is_src": pa.array(agg["is_src"].to_numpy(dtype=np.int64))})

    def merge(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("node", sort=False)["is_src"].sum().reset_index()
        return pa.table({
            "node": pa.array(agg["node"].to_numpy(dtype=np.int64)),
            "deg": pa.array(agg["is_src"].to_numpy(dtype=np.int64)),
        })

    return exchange(edges.map_batches(sides, batch_format="pyarrow"), "node",
                    num_partitions, merge, "pandas")


def _int_edges(src_col: str, dst_col: str, out=("src", "dst")):
    """Batch fn: the edge endpoints as int64 columns named ``out``."""
    def fn(t: pa.Table) -> pa.Table:
        return pa.table({out[0]: t.column(src_col).cast(pa.int64()),
                         out[1]: t.column(dst_col).cast(pa.int64())})
    return fn


def pagerank(edges, *, n_iters: int = 8, damping_num: int = 85,
             damping_den: int = 100, num_partitions: int = 32,
             src_col: str = "src", dst_col: str = "dst",
             seeds=None, engine: str = "pregel"):
    """PageRank with damping ``damping_num/damping_den`` over an edge
    Dataset — exact int64 fixed-point (see module docstring), so the
    output is bit-identical under any batching / partitioning AND
    across the two engines.
    Returns (node, q, rank): q the fixed-point score, rank = q / 2^32.

    Self-loops count like any edge; parallel edges count twice (match
    the reference semantics of whatever produced the edge table —
    dedup first if simple-graph semantics are wanted).

    Magnitude bound: per-dst contribution sums are ≤ n·2^32 and damping
    multiplies by ``damping_num`` before dividing, so int64 holds up to
    ~2^24 nodes at the default SCALE; shard id spaces beyond that
    should lower SCALE (future knob) — noted, not silently wrong.

    ``seeds``: PERSONALIZED PageRank — the global leftover (teleport +
    dangling + rounding) redistributes only to the given node ids
    (``L // len(seeds)`` each; a seed id absent from the graph simply
    receives nothing).  Seeds are small-by-contract (they ride the task
    closure as one sorted int64 array).

    ``engine``:

    - ``"pregel"`` (default): the edge table streams ONCE into
      ``num_partitions`` shard actors (CSR by src-ownership hash);
      per superstep only the int64 contribution partials move —
      O(distinct (src-shard, dst) pairs), the edges are stationary.
      This is the shape every production graph system uses (Pregel /
      Giraph / GraphX): re-shuffling the edge table per iteration is
      PageRank's dominant cost on a pure-Dataset expression, and an
      iterative fixpoint over mutable sharded state is exactly the
      semantics the Dataset API cannot express.  Contract: the edge
      partitions must fit in cluster memory aggregate (CSR int64
      arrays ≈ 16 B/edge — 100 B-edge graphs need ~1.6 TB across the
      cluster, standard Pregel sizing).
    - ``"bsp"``: the original all-Dataset loop (two co-partition
      exchanges per iteration, edges ride every exchange).  Fully
      streaming / out-of-core — the fallback when the graph exceeds
      memory."""
    if engine == "pregel":
        return _pagerank_pregel(
            edges, n_iters=n_iters, damping_num=damping_num,
            damping_den=damping_den, num_partitions=num_partitions,
            src_col=src_col, dst_col=dst_col, seeds=seeds)
    if engine != "bsp":
        raise ValueError(f"unknown pagerank engine {engine!r}")
    return _pagerank_bsp(
        edges, n_iters=n_iters, damping_num=damping_num,
        damping_den=damping_den, num_partitions=num_partitions,
        src_col=src_col, dst_col=dst_col, seeds=seeds)


def _pagerank_bsp(edges, *, n_iters, damping_num, damping_den,
                  num_partitions, src_col, dst_col, seeds):
    """The all-Dataset BSP loop (see ``pagerank`` engine="bsp")."""
    nodes = _node_table(edges, src_col, dst_col, num_partitions).map_batches(
        lambda t: t.append_column(
            "q", pa.array(np.full(t.num_rows, int(SCALE), dtype=np.int64))),
        batch_format="pyarrow",
    ).materialize()
    n_nodes = int(nodes.count())
    if n_nodes == 0:
        import ray

        return engine_plan(ray.data.from_arrow(pa.table({
            "node": pa.array([], type=pa.int64()),
            "q": pa.array([], type=pa.int64()),
            "rank": pa.array([], type=pa.float64()),
        })))
    total_mass = n_nodes * int(SCALE)
    seed_arr = None
    if seeds is not None:
        seed_arr = np.unique(np.asarray(list(seeds), dtype=np.int64))
        if not len(seed_arr):
            raise ValueError("personalized PageRank needs >= 1 seed")

    def contribute(edge: pd.DataFrame, rank: pd.DataFrame) -> pa.Table:
        rank = rank.sort_values("node")
        deg = rank["deg"].to_numpy(dtype=np.int64)
        share = rank["q"].to_numpy(dtype=np.int64) // np.maximum(deg, 1)
        s = lookup(rank["node"].to_numpy(dtype=np.int64), share,
                   edge["src"].to_numpy(dtype=np.int64))
        agg = pd.DataFrame({"dst": edge["dst"].to_numpy(dtype=np.int64), "s": s}
                           ).groupby("dst", sort=False)["s"].sum().reset_index()
        return pa.table({
            "dst": pa.array(agg["dst"].to_numpy(dtype=np.int64)),
            "s": pa.array(agg["s"].to_numpy(dtype=np.int64)),
        })

    def apply_damping(contrib: pd.DataFrame, node: pd.DataFrame) -> pa.Table:
        # int64 all the way: a NaN-bearing map/fillna round trip would
        # float64 the sums, lossy past 2^53
        agg = contrib.groupby("dst", sort=True)["s"].sum()
        want = node["node"].to_numpy(dtype=np.int64)
        sv = lookup(agg.index.to_numpy(dtype=np.int64), agg.to_numpy(dtype=np.int64),
                    want, default=0)
        # exact integer damping: all rounding loss folds into the
        # global leftover redistributed next step
        prop = (damping_num * sv) // damping_den
        return pa.table({
            "node": pa.array(want),
            "deg": pa.array(node["deg"].to_numpy(dtype=np.int64)),
            "prop": pa.array(prop.astype(np.int64)),
        })

    edge_view = edges.map_batches(_int_edges(src_col, dst_col), batch_format="pyarrow")
    for _ in range(n_iters):
        contrib = copartition({"edge": (edge_view, "src"), "rank": (nodes, "node")},
                              num_partitions, contribute, "pandas")
        merged = copartition({"contrib": (contrib, "dst"), "node": (nodes, "node")},
                             num_partitions, apply_damping, "pandas").materialize()
        tot_prop = int(merged.sum("prop"))
        if seed_arr is None:
            base = (total_mass - tot_prop) // n_nodes

            def add_base(t: pa.Table, base=base) -> pa.Table:
                q = pc.add(t.column("prop"), pa.scalar(base, type=pa.int64()))
                return pa.table({"node": t.column("node"),
                                 "deg": t.column("deg"),
                                 "q": q})
        else:
            base = (total_mass - tot_prop) // len(seed_arr)

            def add_base(t: pa.Table, base=base, sd=seed_arr) -> pa.Table:
                nodes_np = t.column("node").to_numpy(zero_copy_only=False)
                pos = np.searchsorted(sd, nodes_np)
                is_seed = (pos < len(sd))
                is_seed &= sd[np.minimum(pos, len(sd) - 1)] == nodes_np
                add = np.where(is_seed, base, 0).astype(np.int64)
                q = pc.add(t.column("prop"), pa.array(add))
                return pa.table({"node": t.column("node"),
                                 "deg": t.column("deg"),
                                 "q": q})

        nodes = merged.map_batches(add_base, batch_format="pyarrow").materialize()

    def finish(t: pa.Table) -> pa.Table:
        q = t.column("q").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "node": t.column("node"),
            "q": t.column("q"),
            "rank": pa.array(q.astype(np.float64) / np.float64(2 ** 32)),
        })

    return nodes.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Pregel engine: stationary edge shards, only contributions move
# ---------------------------------------------------------------------------


def _owner_part(ids: np.ndarray, num_parts: int) -> np.ndarray:
    """Node-ownership hash (self-consistent within the pregel engine —
    it need not match add_partition_col, and collisions only co-locate)."""
    return (pd.util.hash_array(ids) % np.uint64(num_parts)).astype(np.int64)


class _PregelShardImpl:
    """One graph shard: owns the nodes whose ``_owner_part`` is
    ``part_id`` plus every edge whose SRC it owns, as CSR-ish numpy
    state grouped by destination shard.  Wrapped ``ray.remote`` lazily
    so importing this module never requires an initialized Ray."""

    def __init__(self, part_id: int, num_parts: int,
                 damping_num: int, damping_den: int):
        self.p, self.P = part_id, num_parts
        self.dn, self.dd = np.int64(damping_num), np.int64(damping_den)
        self._src: list = []
        self._dst: list = []
        self._ids: list = []

    def add_edges(self, src: np.ndarray, dst: np.ndarray) -> None:
        self._src.append(src)
        self._dst.append(dst)

    def add_nodes(self, ids: np.ndarray) -> None:
        self._ids.append(ids)

    def finalize(self) -> int:
        """Build sorted node array + out-degrees + per-target-shard
        (src local index, unique dst, reduceat segment starts)."""
        src = (np.concatenate(self._src) if self._src
               else np.empty(0, dtype=np.int64))
        dst = (np.concatenate(self._dst) if self._dst
               else np.empty(0, dtype=np.int64))
        extra = (np.concatenate(self._ids) if self._ids
                 else np.empty(0, dtype=np.int64))
        self._src = self._dst = self._ids = []
        nodes = np.unique(np.concatenate([src, extra]))
        self.nodes = nodes
        self.deg = (np.bincount(np.searchsorted(nodes, src),
                                minlength=len(nodes)).astype(np.int64)
                    if len(src) else np.zeros(len(nodes), dtype=np.int64))
        self.targets: list = []
        if len(dst):
            sidx = np.searchsorted(nodes, src)
            dpart = _owner_part(dst, self.P)
            order = np.lexsort((dst, dpart))
            src_i, dst_s, dp_s = sidx[order], dst[order], dpart[order]
            bounds = np.r_[0, np.flatnonzero(dp_s[1:] != dp_s[:-1]) + 1,
                           len(dp_s)]
            for b in range(len(bounds) - 1):
                lo, hi = int(bounds[b]), int(bounds[b + 1])
                seg = dst_s[lo:hi]
                starts = np.r_[0, np.flatnonzero(seg[1:] != seg[:-1]) + 1]
                self.targets.append((int(dp_s[lo]), src_i[lo:hi],
                                     seg[starts], starts.astype(np.int64)))
        self.q = np.full(len(nodes), int(SCALE), dtype=np.int64)
        self.prop = np.zeros(len(nodes), dtype=np.int64)
        return len(nodes)

    def contribs(self):
        """Per-destination-shard (unique dst, summed int64 shares) —
        pre-summed per dst locally, so the wire volume is O(distinct
        (this shard, dst) pairs), never O(edges)."""
        share = np.zeros(len(self.nodes), dtype=np.int64)
        live = self.deg > 0
        share[live] = self.q[live] // self.deg[live]
        out: list = [None] * self.P
        for t, src_i, uniq_dst, starts in self.targets:
            out[t] = (uniq_dst, np.add.reduceat(share[src_i], starts))
        # num_returns=1 wraps the WHOLE return in one ref, so a P=1
        # ring hands the bare item back rather than a 1-tuple
        return out[0] if self.P == 1 else tuple(out)

    def apply_and_sum(self, *incoming) -> int:
        """Sum inbound contributions into owned nodes, apply integer
        damping; returns this shard's propagated mass (exact int64)."""
        acc = np.zeros(len(self.nodes), dtype=np.int64)
        for item in incoming:
            if item is None:
                continue
            dst_ids, sums = item
            # an id this shard does not own means the routing broke
            acc[lookup(self.nodes, np.arange(len(self.nodes)), dst_ids)] += sums
        self.prop = (self.dn * acc) // self.dd
        return int(self.prop.sum())

    def add_base(self, base: int, seeds=None) -> None:
        if seeds is None:
            self.q = self.prop + np.int64(base)
        else:
            pos = np.searchsorted(seeds, self.nodes)
            ok = pos < len(seeds)
            ok &= seeds[np.minimum(pos, len(seeds) - 1)] == self.nodes
            self.q = self.prop + np.where(ok, np.int64(base), np.int64(0))

    def node_table(self) -> pa.Table:
        return pa.table({
            "node": pa.array(self.nodes),
            "q": pa.array(self.q),
            "rank": pa.array(self.q.astype(np.float64) / np.float64(2 ** 32)),
        })


def _pagerank_pregel(edges, *, n_iters, damping_num, damping_den,
                     num_partitions, src_col, dst_col, seeds):
    """Actor-sharded PageRank (see ``pagerank`` engine="pregel").
    The edge Dataset streams ONCE through a routing map_batches that
    pushes (src, dst) slices to their owning shard actors; every
    superstep after that moves only pre-summed int64 contribution
    partials between shards (driver handles refs only — O(P²) refs,
    never the data).  Null src/dst rows are dropped."""
    import ray
    import ray.data as rd

    P = int(num_partitions)
    seed_arr = None
    if seeds is not None:
        seed_arr = np.unique(np.asarray(list(seeds), dtype=np.int64))
        if not len(seed_arr):
            raise ValueError("personalized PageRank needs >= 1 seed")

    Shard = ray.remote(_PregelShardImpl)
    shards = [Shard.remote(p, P, damping_num, damping_den)
              for p in range(P)]

    def route(t: pa.Table) -> pa.Table:
        n_in = t.num_rows
        s_col = t.column(src_col).cast(pa.int64())
        d_col = t.column(dst_col).cast(pa.int64())
        if s_col.null_count or d_col.null_count:
            keep = pc.and_(pc.is_valid(s_col), pc.is_valid(d_col))
            s_col, d_col = s_col.filter(keep), d_col.filter(keep)
        src = s_col.to_numpy(zero_copy_only=False).astype(np.int64)
        dst = d_col.to_numpy(zero_copy_only=False).astype(np.int64)
        acks = []
        if len(src):
            spart = _owner_part(src, P)
            order = np.argsort(spart, kind="stable")
            ss, dd_, sp = src[order], dst[order], spart[order]
            bounds = np.r_[0, np.flatnonzero(sp[1:] != sp[:-1]) + 1, len(sp)]
            for b in range(len(bounds) - 1):
                lo, hi = int(bounds[b]), int(bounds[b + 1])
                acks.append(shards[int(sp[lo])].add_edges.remote(
                    ss[lo:hi], dd_[lo:hi]))
            # dst EXISTENCE must reach the dst's owner even when that
            # shard receives no edges (pure-sink / dangling nodes)
            dpart = _owner_part(dst, P)
            order2 = np.lexsort((dst, dpart))
            ds2, dp2 = dst[order2], dpart[order2]
            keep = np.r_[True, (ds2[1:] != ds2[:-1]) | (dp2[1:] != dp2[:-1])]
            ds2, dp2 = ds2[keep], dp2[keep]
            bounds = np.r_[0, np.flatnonzero(dp2[1:] != dp2[:-1]) + 1,
                           len(dp2)]
            for b in range(len(bounds) - 1):
                lo, hi = int(bounds[b]), int(bounds[b + 1])
                acks.append(shards[int(dp2[lo])].add_nodes.remote(ds2[lo:hi]))
            ray.get(acks)
        return pa.table({"n": pa.array([n_in], type=pa.int64())})

    edges.map_batches(route, batch_format="pyarrow").sum("n")
    counts = ray.get([s.finalize.remote() for s in shards])
    n_nodes = int(sum(counts))
    if n_nodes == 0:
        return engine_plan(rd.from_arrow(pa.table({
            "node": pa.array([], type=pa.int64()),
            "q": pa.array([], type=pa.int64()),
            "rank": pa.array([], type=pa.float64()),
        })))
    total_mass = n_nodes * int(SCALE)

    for _ in range(n_iters):
        outboxes = [s.contribs.options(num_returns=P).remote()
                    for s in shards]
        if P == 1:
            outboxes = [[r] for r in outboxes]
        props = [shards[t].apply_and_sum.remote(
                     *[outboxes[p][t] for p in range(P)])
                 for t in range(P)]
        tot_prop = int(sum(ray.get(props)))
        base = ((total_mass - tot_prop) // n_nodes if seed_arr is None
                else (total_mass - tot_prop) // len(seed_arr))
        ray.get([s.add_base.remote(base, seed_arr) for s in shards])

    refs = [s.node_table.remote() for s in shards]
    ray.wait(refs, num_returns=len(refs))  # outlive the actors
    return engine_plan(rd.from_arrow_refs(refs))


# ---------------------------------------------------------------------------
# exact triangle counting (degree-ordered wedge check)
# ---------------------------------------------------------------------------

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _pair_key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Partition key for a node PAIR — collisions only co-locate, the
    in-partition merge matches exact (a, b)."""
    return ((a.astype(np.uint64) * _MIX) ^ b.astype(np.uint64)).view(np.int64)


def triangle_counts(edges, *, num_partitions: int = 32,
                    src_col: str = "src", dst_col: str = "dst"):
    """Exact per-node triangle counts — the degree-ordered wedge-check
    algorithm (Suri & Vassilvitskii, WWW'11 MapReduce form): orient
    every edge from lower to higher (degree, id) rank so each node's
    out-degree is O(√m), generate wedges only between out-neighbors
    (total wedge volume O(m^1.5), the published bound — never naive
    Σ deg²), and close each wedge against the undirected edge set with
    one co-partition by pair key.  Every triangle is found exactly once
    (at its lowest-rank vertex) and credits all three corners.

    Input is treated as a SIMPLE UNDIRECTED graph: self-loops drop,
    parallel/reverse duplicates collapse in a dedup exchange first.
    Output: (node, n_triangles) for every node in ≥ 1 triangle.

    Exchanges: pair-dedup, degree, two orientation joins, wedge
    adjacency, wedge-close, final count — all hash co-partitions with
    int64-thin rows; the only super-linear volume is the wedge stream,
    which IS the algorithm's cost model."""

    def norm(t: pa.Table) -> pa.Table:
        a = t.column(src_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        b = t.column(dst_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keep = lo != hi
        df = pd.DataFrame({"a": lo[keep], "b": hi[keep]}).drop_duplicates()
        out = pa.table({"a": pa.array(df["a"].to_numpy(dtype=np.int64)),
                        "b": pa.array(df["b"].to_numpy(dtype=np.int64))})
        return out.append_column("pk", pa.array(_pair_key(
            df["a"].to_numpy(dtype=np.int64), df["b"].to_numpy(dtype=np.int64))))

    def dedup_pairs_part(df: pd.DataFrame) -> pa.Table:
        u = df[["a", "b"]].drop_duplicates()
        return pa.table({"a": pa.array(u["a"].to_numpy(dtype=np.int64)),
                         "b": pa.array(u["b"].to_numpy(dtype=np.int64))})

    simple = exchange(edges.map_batches(norm, batch_format="pyarrow"), "pk",
                      num_partitions, dedup_pairs_part, "pandas").materialize()

    def deg_all(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        nodes = np.concatenate([a, b])
        cnt = pd.Series(nodes).value_counts()
        return pa.table({"node": pa.array(cnt.index.to_numpy(dtype=np.int64)),
                         "d": pa.array(cnt.to_numpy(dtype=np.int64))})

    def merge_deg(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("node", sort=False)["d"].sum().reset_index()
        return pa.table({"node": pa.array(agg["node"].to_numpy(dtype=np.int64)),
                         "d": pa.array(agg["d"].to_numpy(dtype=np.int64))})

    degs = exchange(simple.map_batches(deg_all, batch_format="pyarrow"), "node",
                    num_partitions, merge_deg, "pandas").materialize()

    # orientation joins: attach deg(a) then deg(b) by co-partitioning
    # the edges with the degree table, then point low rank -> high rank
    def attach(key: str, out_col: str):
        def fn(edge: pd.DataFrame, deg: pd.DataFrame) -> pa.Table:
            deg = deg.sort_values("node")
            cols = {c: pa.array(edge[c].to_numpy(dtype=np.int64)) for c in edge.columns}
            cols[out_col] = pa.array(lookup(
                deg["node"].to_numpy(dtype=np.int64), deg["d"].to_numpy(dtype=np.int64),
                edge[key].to_numpy(dtype=np.int64)))
            return pa.table(cols)
        return fn

    with_da = copartition({"edge": (simple, "a"), "deg": (degs, "node")},
                          num_partitions, attach("a", "da"), "pandas")
    with_db = copartition({"edge": (with_da, "b"), "deg": (degs, "node")},
                          num_partitions, attach("b", "db"), "pandas")

    def orient(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        da = t.column("da").to_numpy(zero_copy_only=False)
        db = t.column("db").to_numpy(zero_copy_only=False)
        a_first = (da < db) | ((da == db) & (a < b))
        u = np.where(a_first, a, b)
        v = np.where(a_first, b, a)
        return pa.table({"u": pa.array(u.astype(np.int64)),
                         "v": pa.array(v.astype(np.int64))})

    oriented = with_db.map_batches(orient, batch_format="pyarrow").materialize()

    def wedges(df: pd.DataFrame) -> pa.Table:
        u = df["u"].to_numpy(dtype=np.int64)
        v = df["v"].to_numpy(dtype=np.int64)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        new = np.ones(len(u), dtype=bool)
        if len(u):
            new[1:] = u[1:] != u[:-1]
        seg_id = np.cumsum(new) - 1
        seg_end = np.cumsum(np.bincount(seg_id))[seg_id] if len(u) else np.array([], dtype=np.int64)
        idx = np.arange(len(u), dtype=np.int64)
        ii, jj = _multi_arange(idx + 1, seg_end)
        wu, wv, ww = u[ii], v[ii], v[jj]  # v sorted asc per segment → wv < ww
        out = pa.table({"wu": pa.array(wu), "x": pa.array(wv), "y": pa.array(ww)})
        return out.append_column("pk", pa.array(_pair_key(wv, ww)))

    wedge_rows = exchange(oriented, "u", num_partitions, wedges, "pandas")

    def edge_pairs(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"x": pa.array(a), "y": pa.array(b),
                         "pk": pa.array(_pair_key(a, b))})

    def close(wedge: pd.DataFrame, edge: pd.DataFrame) -> pa.Table:
        if not len(wedge):  # column-less when the graph has no wedge
            return pa.table({"node": pa.array([], type=pa.int64()),
                             "c": pa.array([], type=pa.int64())})
        m = wedge[["wu", "x", "y"]].merge(
            edge[["x", "y"]].drop_duplicates(), on=["x", "y"], how="inner")
        nodes = np.concatenate([m["wu"].to_numpy(dtype=np.int64),
                                m["x"].to_numpy(dtype=np.int64),
                                m["y"].to_numpy(dtype=np.int64)])
        cnt = pd.Series(nodes).value_counts() if len(nodes) else pd.Series(dtype=np.int64)
        return pa.table({"node": pa.array(cnt.index.to_numpy(dtype=np.int64)),
                         "c": pa.array(cnt.to_numpy(dtype=np.int64))})

    def final_counts(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("node", sort=False)["c"].sum().reset_index()
        return pa.table({
            "node": pa.array(agg["node"].to_numpy(dtype=np.int64)),
            "n_triangles": pa.array(agg["c"].to_numpy(dtype=np.int64)),
        })

    closed = copartition({"wedge": (wedge_rows, "pk"),
                          "edge": (simple.map_batches(edge_pairs, batch_format="pyarrow"), "pk")},
                         num_partitions, close, "pandas")
    return exchange(closed, "node", num_partitions, final_counts, "pandas")


# ---------------------------------------------------------------------------
# HITS hubs & authorities (exact-integer power iteration)
# ---------------------------------------------------------------------------


def hits(edges, *, n_iters: int = 8, num_partitions: int = 32,
         src_col: str = "src", dst_col: str = "dst",
         engine: str = "pregel"):
    """Kleinberg's HITS over a directed edge Dataset — hub and
    authority scores by power iteration, made bit-deterministic the
    same way PageRank is: scores are int64 and every update is an
    exact integer sum.  The textbook L2 normalization (a float
    division) is replaced by a DETERMINISTIC power-of-two rescale:
    after each half-step, if the maximum score exceeds 2^40 every
    score shifts right by the same amount (a pure function of the max,
    hence of the graph) — relative order and ratios are preserved to
    2^-40 and the final output normalizes once, so the floats are one
    fixed expression ``score / max_score``.

    Per iteration: authorities ← Σ hubs over in-edges (one co-partition
    by dst), hubs ← Σ authorities over out-edges (one by src); loop
    state materializes like the PageRank/k-means loops (very deep
    loops — dozens of iterations — accumulate Ray Data stats lineage;
    HITS converges in single digits, so the default 8 is the intended
    operating range).  Output: (node, hub_q, auth_q, hub, auth) with
    hub/auth in [0, 1].

    ``engine="pregel"`` (default): same stationary-edge-shard design
    as ``pagerank`` — each edge loads ONCE at both its src owner
    (forward, for the authority half-step) and its dst owner
    (reverse, for the hub half-step); per half-step only summed int64
    contributions move and the rescale shift is two driver scalars.
    ``engine="bsp"``: the all-Dataset loop (edges ride two exchanges
    per iteration) — fully streaming, the out-of-core fallback.  Both
    engines are the same exact-integer function, bit-identical."""
    if engine == "pregel":
        return _hits_pregel(edges, n_iters=n_iters,
                            num_partitions=num_partitions,
                            src_col=src_col, dst_col=dst_col)
    if engine != "bsp":
        raise ValueError(f"unknown hits engine {engine!r}")
    nodes = _node_table(edges, src_col, dst_col, num_partitions).map_batches(
        lambda t: pa.table({
            "node": t.column("node"),
            "h": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "a": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        }),
        batch_format="pyarrow",
    ).materialize()
    if int(nodes.count()) == 0:
        import ray

        return engine_plan(ray.data.from_arrow(pa.table({
            "node": pa.array([], type=pa.int64()),
            "hub_q": pa.array([], type=pa.int64()),
            "auth_q": pa.array([], type=pa.int64()),
            "hub": pa.array([], type=pa.float64()),
            "auth": pa.array([], type=pa.float64()),
        })))

    _CAP = np.int64(1) << np.int64(40)

    def sum_partial(val: str):
        # edges keyed by k carry the OTHER endpoint in o; the k-side
        # node rows carry the score being propagated
        def fn(edge: pd.DataFrame, node: pd.DataFrame) -> pa.Table:
            node = node.sort_values("node")
            s = lookup(node["node"].to_numpy(dtype=np.int64),
                       node[val].to_numpy(dtype=np.int64),
                       edge["k"].to_numpy(dtype=np.int64))
            agg = pd.DataFrame({"o": edge["o"].to_numpy(dtype=np.int64), "s": s}
                               ).groupby("o", sort=False)["s"].sum().reset_index()
            return pa.table({
                "node": pa.array(agg["o"].to_numpy(dtype=np.int64)),
                "s": pa.array(agg["s"].to_numpy(dtype=np.int64)),
            })
        return fn

    def apply_new(out_col: str):
        def fn(contrib: pd.DataFrame, node: pd.DataFrame) -> pa.Table:
            agg = contrib.groupby("node", sort=True)["s"].sum()
            want = node["node"].to_numpy(dtype=np.int64)
            cols = {"node": pa.array(want),
                    "h": pa.array(node["h"].to_numpy(dtype=np.int64)),
                    "a": pa.array(node["a"].to_numpy(dtype=np.int64))}
            cols[out_col] = pa.array(lookup(
                agg.index.to_numpy(dtype=np.int64), agg.to_numpy(dtype=np.int64),
                want, default=0).astype(np.int64))
            return pa.table(cols)
        return fn

    def half_step(nodes, edge_view, val: str, out_col: str):
        contrib = copartition({"edge": (edge_view, "k"), "node": (nodes, "node")},
                              num_partitions, sum_partial(val), "pandas")
        return copartition({"contrib": (contrib, "node"), "node": (nodes, "node")},
                           num_partitions, apply_new(out_col), "pandas")

    def rescale(ds_nodes, col: str):
        ds_nodes = ds_nodes.materialize()
        mx = ds_nodes.max(col)
        mx = int(mx) if mx is not None else 0
        shift = 0
        while (mx >> shift) > int(_CAP):
            shift += 1
        if shift == 0:
            return ds_nodes

        def sh(t: pa.Table, shift=shift, col=col) -> pa.Table:
            v = t.column(col).to_numpy(zero_copy_only=False) >> shift
            cols = {c: t.column(c) for c in t.column_names}
            cols[col] = pa.array(v.astype(np.int64))
            return pa.table(cols)

        return ds_nodes.map_batches(sh, batch_format="pyarrow").materialize()

    fwd = edges.map_batches(_int_edges(src_col, dst_col, ("k", "o")), batch_format="pyarrow")
    rev = edges.map_batches(_int_edges(dst_col, src_col, ("k", "o")), batch_format="pyarrow")
    for _ in range(n_iters):
        # authority half-step: a(v) = Σ h(u) over edges u→v
        nodes = rescale(half_step(nodes, fwd, "h", "a"), "a")
        # hub half-step: h(u) = Σ a(v) over edges u→v
        nodes = rescale(half_step(nodes, rev, "a", "h"), "h")

    hmax = int(nodes.max("h") or 1)
    amax = int(nodes.max("a") or 1)

    def finish(t: pa.Table) -> pa.Table:
        h = t.column("h").to_numpy(zero_copy_only=False).astype(np.int64)
        a = t.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "node": t.column("node"),
            "hub_q": pa.array(h),
            "auth_q": pa.array(a),
            "hub": pa.array(h.astype(np.float64) / np.float64(hmax)),
            "auth": pa.array(a.astype(np.float64) / np.float64(amax)),
        })

    return nodes.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# HITS Pregel engine (stationary edges, both orientations sharded)
# ---------------------------------------------------------------------------

_HITS_CAP = np.int64(1) << np.int64(40)


class _HitsShardImpl:
    """One HITS shard: owns nodes with ``_owner_part == part_id``,
    forward edges whose src it owns (grouped by dst shard) and reverse
    edges whose dst it owns (grouped by src shard)."""

    def __init__(self, part_id: int, num_parts: int):
        self.p, self.P = part_id, num_parts
        self._fs: list = []  # forward: (local src, remote dst)
        self._fd: list = []
        self._rs: list = []  # reverse: (local dst, remote src)
        self._rd: list = []

    def add_fwd(self, loc: np.ndarray, rem: np.ndarray) -> None:
        self._fs.append(loc)
        self._fd.append(rem)

    def add_rev(self, loc: np.ndarray, rem: np.ndarray) -> None:
        self._rs.append(loc)
        self._rd.append(rem)

    @staticmethod
    def _group(loc, rem, nodes, P):
        """[(target part, local idx, unique remote, reduceat starts)]"""
        out = []
        if len(rem):
            lidx = np.searchsorted(nodes, loc)
            rpart = _owner_part(rem, P)
            order = np.lexsort((rem, rpart))
            li, rm, rp = lidx[order], rem[order], rpart[order]
            bounds = np.r_[0, np.flatnonzero(rp[1:] != rp[:-1]) + 1, len(rp)]
            for b in range(len(bounds) - 1):
                lo, hi = int(bounds[b]), int(bounds[b + 1])
                seg = rm[lo:hi]
                starts = np.r_[0, np.flatnonzero(seg[1:] != seg[:-1]) + 1]
                out.append((int(rp[lo]), li[lo:hi], seg[starts],
                            starts.astype(np.int64)))
        return out

    def finalize(self) -> int:
        cat = (lambda xs: np.concatenate(xs) if xs
               else np.empty(0, dtype=np.int64))
        fs, fd, rs, rd = cat(self._fs), cat(self._fd), cat(self._rs), cat(self._rd)
        self._fs = self._fd = self._rs = self._rd = []
        # every owned endpoint arrives as the LOCAL side of one of the
        # two orientations, so the node set needs no separate routing
        self.nodes = np.unique(np.concatenate([fs, rs]))
        self.fwd = self._group(fs, fd, self.nodes, self.P)
        self.rev = self._group(rs, rd, self.nodes, self.P)
        self.h = np.ones(len(self.nodes), dtype=np.int64)
        self.a = np.ones(len(self.nodes), dtype=np.int64)
        return len(self.nodes)

    def _push(self, vals: np.ndarray, groups):
        out: list = [None] * self.P
        for t, li, uniq, starts in groups:
            out[t] = (uniq, np.add.reduceat(vals[li], starts))
        return out[0] if self.P == 1 else tuple(out)

    def push_hubs(self):
        """Authority half-step outbox: Σ h(u) toward each dst shard."""
        return self._push(self.h, self.fwd)

    def push_auths(self):
        """Hub half-step outbox: Σ a(v) toward each src shard."""
        return self._push(self.a, self.rev)

    def _recv(self, incoming) -> np.ndarray:
        acc = np.zeros(len(self.nodes), dtype=np.int64)
        for item in incoming:
            if item is None:
                continue
            ids, sums = item
            acc[lookup(self.nodes, np.arange(len(self.nodes)), ids)] += sums
        return acc

    def apply_auth(self, *incoming) -> int:
        self.a = self._recv(incoming)
        return int(self.a.max()) if len(self.a) else 0

    def apply_hub(self, *incoming) -> int:
        self.h = self._recv(incoming)
        return int(self.h.max()) if len(self.h) else 0

    def shift(self, col: str, shift: int) -> None:
        if col == "a":
            self.a = self.a >> np.int64(shift)
        else:
            self.h = self.h >> np.int64(shift)

    def maxes(self):
        return (int(self.h.max()) if len(self.h) else 0,
                int(self.a.max()) if len(self.a) else 0)

    def node_table(self, hmax: int, amax: int) -> pa.Table:
        return pa.table({
            "node": pa.array(self.nodes),
            "hub_q": pa.array(self.h),
            "auth_q": pa.array(self.a),
            "hub": pa.array(self.h.astype(np.float64) / np.float64(hmax)),
            "auth": pa.array(self.a.astype(np.float64) / np.float64(amax)),
        })


def _hits_pregel(edges, *, n_iters, num_partitions, src_col, dst_col):
    """Actor-sharded HITS (see ``hits`` engine="pregel")."""
    import ray
    import ray.data as rd

    P = int(num_partitions)
    Shard = ray.remote(_HitsShardImpl)
    shards = [Shard.remote(p, P) for p in range(P)]

    def route(t: pa.Table) -> pa.Table:
        n_in = t.num_rows
        s_col = t.column(src_col).cast(pa.int64())
        d_col = t.column(dst_col).cast(pa.int64())
        if s_col.null_count or d_col.null_count:
            keep = pc.and_(pc.is_valid(s_col), pc.is_valid(d_col))
            s_col, d_col = s_col.filter(keep), d_col.filter(keep)
        src = s_col.to_numpy(zero_copy_only=False).astype(np.int64)
        dst = d_col.to_numpy(zero_copy_only=False).astype(np.int64)
        acks = []
        for loc, rem, meth in ((src, dst, "add_fwd"), (dst, src, "add_rev")):
            if not len(loc):
                continue
            part = _owner_part(loc, P)
            order = np.argsort(part, kind="stable")
            ll, rr, pp = loc[order], rem[order], part[order]
            bounds = np.r_[0, np.flatnonzero(pp[1:] != pp[:-1]) + 1, len(pp)]
            for b in range(len(bounds) - 1):
                lo, hi = int(bounds[b]), int(bounds[b + 1])
                acks.append(getattr(shards[int(pp[lo])], meth).remote(
                    ll[lo:hi], rr[lo:hi]))
        if acks:
            ray.get(acks)
        return pa.table({"n": pa.array([n_in], type=pa.int64())})

    edges.map_batches(route, batch_format="pyarrow").sum("n")
    counts = ray.get([s.finalize.remote() for s in shards])
    if int(sum(counts)) == 0:
        return engine_plan(rd.from_arrow(pa.table({
            "node": pa.array([], type=pa.int64()),
            "hub_q": pa.array([], type=pa.int64()),
            "auth_q": pa.array([], type=pa.int64()),
            "hub": pa.array([], type=pa.float64()),
            "auth": pa.array([], type=pa.float64()),
        })))

    def _half(push_meth: str, apply_meth: str, col: str) -> None:
        outboxes = [getattr(s, push_meth).options(num_returns=P).remote()
                    for s in shards]
        if P == 1:
            outboxes = [[r] for r in outboxes]
        maxes = [getattr(shards[t], apply_meth).remote(
                     *[outboxes[p][t] for p in range(P)])
                 for t in range(P)]
        mx = max(ray.get(maxes))
        shift = 0
        while (mx >> shift) > int(_HITS_CAP):
            shift += 1
        if shift:
            ray.get([s.shift.remote(col, shift) for s in shards])

    for _ in range(n_iters):
        _half("push_hubs", "apply_auth", "a")   # a(v) = Σ h(u)
        _half("push_auths", "apply_hub", "h")   # h(u) = Σ a(v)

    hm_am = ray.get([s.maxes.remote() for s in shards])
    hmax = max((x[0] for x in hm_am), default=0) or 1
    amax = max((x[1] for x in hm_am), default=0) or 1
    refs = [s.node_table.remote(hmax, amax) for s in shards]
    ray.wait(refs, num_returns=len(refs))
    return engine_plan(rd.from_arrow_refs(refs))


# ---------------------------------------------------------------------------
# k-core decomposition (coreness of every node)
# ---------------------------------------------------------------------------


def simple_undirected(edges, *, num_partitions: int = 16,
                      src_col: str = "src", dst_col: str = "dst"):
    """Normalize an edge table to the undirected simple graph:
    self-loops dropped, parallel / reverse duplicates collapsed —
    one batch-local canon pass + one pair-keyed dedup exchange.
    Returns ``(a, b)`` rows with ``a < b``.  The shared front door of
    :func:`core_numbers`, :func:`label_propagation` and
    :func:`modularity` (triangle_counts keeps its pair-key variant —
    it needs the packed pair key downstream anyway)."""

    def canon(t: pa.Table) -> pa.Table:
        s = t.column(src_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        d = t.column(dst_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        keep = s != d
        a = np.minimum(s[keep], d[keep])
        b = np.maximum(s[keep], d[keep])
        df = pd.DataFrame({"a": a, "b": b}).drop_duplicates()
        return pa.table({"a": pa.array(df["a"].to_numpy(dtype=np.int64)),
                         "b": pa.array(df["b"].to_numpy(dtype=np.int64))})

    def dedup_part(df: pd.DataFrame) -> pa.Table:
        df = df[["a", "b"]].drop_duplicates()
        return pa.table({"a": pa.array(df["a"].to_numpy(dtype=np.int64)),
                         "b": pa.array(df["b"].to_numpy(dtype=np.int64))})

    return exchange(edges.map_batches(canon, batch_format="pyarrow"), "a",
                    num_partitions, dedup_part, "pandas")


def _both_dirs(t: pa.Table) -> pa.Table:
    """Simple ``(a, b)`` edges as the directed view holding both
    orientations, ``(src, dst)``."""
    a = t.column("a").to_numpy(zero_copy_only=False)
    b = t.column("b").to_numpy(zero_copy_only=False)
    return pa.table({
        "src": pa.array(np.r_[a, b].astype(np.int64)),
        "dst": pa.array(np.r_[b, a].astype(np.int64)),
    })


def _endpoints(t: pa.Table) -> pa.Table:
    """Both endpoints of simple ``(a, b)`` edges as one ``node`` column
    (a node appears once per incident edge)."""
    a = t.column("a").to_numpy(zero_copy_only=False)
    b = t.column("b").to_numpy(zero_copy_only=False)
    return pa.table({"node": pa.array(np.r_[a, b].astype(np.int64))})


def _nodes_of(edges2, num_partitions: int):
    """The distinct ``node`` ids of a both-orientations edge view."""
    def nodes_part(df: pd.DataFrame) -> pa.Table:
        return pa.table({"node": pa.array(np.unique(df["src"].to_numpy(dtype=np.int64)))})

    return exchange(edges2, "src", num_partitions, nodes_part, "pandas")


def core_numbers(edges, *, num_partitions: int = 16, max_iters: int = 64,
                 src_col: str = "src", dst_col: str = "dst"):
    """Coreness of every node — the distributed k-core decomposition of
    Montresor/De Pellegrini/Miorandi (2011) via the h-index fixpoint
    (Lü et al. 2016): each node starts at its degree and repeatedly
    lowers its estimate to the h-index of its neighbors' estimates
    (the largest h with ≥ h neighbors at ≥ h); the fixpoint IS the
    core number.  All arithmetic is integer — the result is exact and
    batch-invariant, and the plain reference uses the CLASSIC peeling
    algorithm (an independent method converging to the same values).

    Graph semantics: undirected simple graph — the input edge list is
    normalized first (self-loops dropped, parallel/reverse duplicates
    collapsed) with one pair-key exchange, exactly like
    :func:`triangle_counts`.

    Shape per iteration (BSP): estimates join the directed edge view
    by src (co-partition), messages (dst, src_est) join estimates by
    node (second co-partition), per-node h-index is one sort +
    ``min(rank, value)`` segment max — no per-node Python loop.  The
    changed-count is the only driver state.  Edges ride two exchanges
    per iteration — the BSP cost model; iteration count is bounded by
    the graph's degeneracy ordering depth (small for real graphs) and
    guarded by ``max_iters`` (raises on non-convergence rather than
    returning silently-wrong estimates)."""

    simple = simple_undirected(edges, num_partitions=num_partitions,
                               src_col=src_col, dst_col=dst_col)

    edges2 = simple.map_batches(_both_dirs, batch_format="pyarrow").materialize()

    # init: est = degree (count of directed-out rows per src)
    def deg_part(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("src", sort=False).size().rename("est").reset_index()
        return pa.table({"node": pa.array(agg["src"].to_numpy(dtype=np.int64)),
                         "est": pa.array(agg["est"].to_numpy(dtype=np.int64))})

    est = exchange(edges2, "src", num_partitions, deg_part, "pandas").materialize()

    def emit_messages(edge: pd.DataFrame, est: pd.DataFrame) -> pa.Table:
        est = est.sort_values("node")
        src_est = lookup(est["node"].to_numpy(dtype=np.int64),
                         est["est"].to_numpy(dtype=np.int64),
                         edge["src"].to_numpy(dtype=np.int64))
        return pa.table({
            "node": pa.array(edge["dst"].to_numpy(dtype=np.int64)),
            "nb_est": pa.array(src_est.astype(np.int64)),
        })

    def hindex_update(msg: pd.DataFrame, old: pd.DataFrame) -> pa.Table:
        n = msg["node"].to_numpy(dtype=np.int64)
        v = msg["nb_est"].to_numpy(dtype=np.int64)
        # sort by (node, est desc): negate for descending within node
        order = np.lexsort((-v, n))
        ns, vs = n[order], v[order]
        starts = np.flatnonzero(np.r_[True, ns[1:] != ns[:-1]]) if len(ns) else ns[:0]
        rank = np.arange(len(ns), dtype=np.int64) - np.repeat(
            starts, np.diff(np.r_[starts, len(ns)])) + 1
        minrv = np.minimum(rank, vs)
        h = np.maximum.reduceat(minrv, starts) if len(ns) else np.zeros(0, np.int64)
        hn = ns[starts]
        on = old["node"].to_numpy(dtype=np.int64)
        oe = old["est"].to_numpy(dtype=np.int64)
        oorder = np.argsort(on, kind="stable")
        on, oe = on[oorder], oe[oorder]
        new = np.minimum(oe, lookup(hn, h, on, default=oe))
        return pa.table({
            "node": pa.array(on),
            "est": pa.array(new.astype(np.int64)),
            "changed": pa.array((new != oe).astype(np.int64)),
        })

    for _ in range(int(max_iters)):
        msgs = copartition({"edge": (edges2, "src"), "est": (est, "node")},
                           num_partitions, emit_messages, "pandas")
        upd = copartition({"msg": (msgs, "node"), "old": (est, "node")},
                          num_partitions, hindex_update, "pandas").materialize()
        changed = int(upd.sum("changed") or 0)
        est = upd.drop_columns(["changed"]).materialize()
        if changed == 0:
            return est.map_batches(
                lambda t: pa.table({"node": t.column("node"),
                                    "core": t.column("est")}),
                batch_format="pyarrow")
    raise RuntimeError(
        f"core_numbers did not converge in {max_iters} h-index rounds")


def hop_distances(edges, *, seeds, num_partitions: int = 16,
                  max_iters: int = 128, src_col: str = "src",
                  dst_col: str = "dst", directed: bool = False):
    """Minimum hop distance from a seed set to every reachable node —
    multi-source BFS, the TrustRank-style link-distance primitive
    ("how many links from a trusted/spam seed is this page?") and the
    crawl-depth / blast-radius feature for web curation and incident
    triage.

    Exact and deterministic by construction: unweighted BFS levels are
    unique (no tie-breaking exists to get wrong), every round is
    integer arithmetic, and the round count is the seed set's graph
    eccentricity — guarded by ``max_iters`` (raises rather than
    returning a partial frontier).  Unreached nodes are omitted
    (document the NULL-means-unreachable convention at the join site).

    Shape (frontier BSP): the edge list loads ONCE into a stationary
    src-partitioned view; per round only the FRONTIER rides the
    exchanges — (1) frontier ∪ edges co-partitioned by src emit
    candidate dst rows (deduped per partition), (2) candidates ∪
    visited co-partitioned by node keep the genuinely new nodes, which
    become the next frontier with ``dist = round``.  Every frontier
    node's distance is final when assigned (BFS invariant), so rounds
    never revisit settled nodes; loop state materializes like the
    k-means loop, driver state is one changed-count scalar.

    ``seeds`` is small-by-contract (ships in task closures, like the
    personalized-PageRank teleport set); ``directed=False`` (default)
    normalizes to the undirected view by emitting both directions.
    """
    seed_arr = np.array(sorted({int(s) for s in seeds}), dtype=np.int64)
    if len(seed_arr) == 0:
        raise ValueError("hop_distances: empty seed set")

    def canon(t: pa.Table) -> pa.Table:
        s = t.column(src_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        d = t.column(dst_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        if directed:
            src, dst = s, d
        else:
            src, dst = np.r_[s, d], np.r_[d, s]
        # per-batch dedup only — min semantics tolerate cross-batch dups
        df = pd.DataFrame({"src": src, "dst": dst}).drop_duplicates()
        return pa.table({"src": pa.array(df["src"].to_numpy(dtype=np.int64)),
                         "dst": pa.array(df["dst"].to_numpy(dtype=np.int64))})

    edges2 = edges.map_batches(canon, batch_format="pyarrow").materialize()

    import ray.data as _rd

    dist = engine_plan(_rd.from_arrow(pa.table({
        "node": pa.array(seed_arr),
        "dist": pa.array(np.zeros(len(seed_arr), dtype=np.int64)),
    }))).materialize()
    frontier = dist

    def emit_candidates(edge: pd.DataFrame, frontier: pd.DataFrame) -> pa.Table:
        if not len(edge):  # column-less when the edge set is empty
            return pa.table({"node": pa.array([], type=pa.int64())})
        fr = np.unique(frontier["node"].to_numpy(dtype=np.int64))
        hit = np.isin(edge["src"].to_numpy(dtype=np.int64), fr)
        cand = np.unique(edge["dst"].to_numpy(dtype=np.int64)[hit])
        return pa.table({"node": pa.array(cand)})

    for r in range(1, int(max_iters) + 1):
        cands = copartition({"edge": (edges2, "src"), "frontier": (frontier, "node")},
                            num_partitions, emit_candidates, "pandas")

        def keep_new(cand: pd.DataFrame, seen: pd.DataFrame, _r: int = r) -> pa.Table:
            seen = np.unique(seen["node"].to_numpy(dtype=np.int64))
            # cand is column-less when the frontier has no out-edge
            cand = np.unique(cand["node"].to_numpy(dtype=np.int64)) if len(cand) else seen[:0]
            new = cand[~np.isin(cand, seen)]
            return pa.table({
                "node": pa.array(new),
                "dist": pa.array(np.full(len(new), _r, dtype=np.int64)),
            })

        new_nodes = copartition({"cand": (cands, "node"), "seen": (dist, "node")},
                                num_partitions, keep_new, "pandas").materialize()
        if int(new_nodes.count()) == 0:
            return dist
        dist = dist.union(new_nodes).materialize()
        frontier = new_nodes
    raise RuntimeError(
        f"hop_distances frontier still active after {max_iters} rounds")


def label_propagation(edges, *, n_iters: int = 5, num_partitions: int = 16,
                      src_col: str = "src", dst_col: str = "dst"):
    """Synchronous label-propagation community detection (Raghavan,
    Albert & Kumara 2007) made fully deterministic: every node starts
    labeled with its own id; each round, every node adopts the label
    that is MOST FREQUENT among its neighbors, ties broken by the
    SMALLEST label — the published algorithm's random tie-break
    replaced with an order statistic, so any batching / partitioning
    yields byte-identical output.  Exactly ``n_iters`` synchronous
    rounds run (stopping early only when a round changes nothing);
    synchronous LPA can 2-cycle on bipartite structures, so the fixed
    round count — not a convergence test — is the determinism contract,
    and the result is a pure function of (graph, n_iters).

    Graph semantics: undirected simple graph — edges are normalized
    first (self-loops dropped, parallel/reverse duplicates collapsed),
    the :func:`triangle_counts` / :func:`core_numbers` convention.
    Returns ``(node, label)`` for every edge endpoint.

    Shape per round (BSP, the :func:`core_numbers` message pattern):
    labels join the directed edge view by src (co-partition #1), the
    (dst, neighbor-label) messages join labels by node (co-partition
    #2), and the per-node plurality vote is one lexsort + two
    ``reduceat``-style segment passes — no per-node Python loop.  Loop
    state (the label table, thin int64 pairs) is materialized per
    round; the changed-count is the only driver state.  Edges ride two
    exchanges per round — the BSP cost model for any distributed LPA.
    """

    simple = simple_undirected(edges, num_partitions=num_partitions,
                               src_col=src_col, dst_col=dst_col)

    edges2 = simple.map_batches(_both_dirs, batch_format="pyarrow").materialize()
    labels = _initial_labels(edges2, num_partitions).materialize()

    def emit_messages(edge: pd.DataFrame, label: pd.DataFrame) -> pa.Table:
        label = label.sort_values("node")
        nb = lookup(label["node"].to_numpy(dtype=np.int64),
                    label["lbl"].to_numpy(dtype=np.int64),
                    edge["src"].to_numpy(dtype=np.int64))
        return pa.table({
            "node": pa.array(edge["dst"].to_numpy(dtype=np.int64)),
            "nb_lbl": pa.array(nb.astype(np.int64)),
        })

    def plurality_update(msg: pd.DataFrame, old: pd.DataFrame) -> pa.Table:
        n = msg["node"].to_numpy(dtype=np.int64)
        v = msg["nb_lbl"].to_numpy(dtype=np.int64)
        on = old["node"].to_numpy(dtype=np.int64)
        oe = old["lbl"].to_numpy(dtype=np.int64)
        oorder = np.argsort(on, kind="stable")
        on, oe = on[oorder], oe[oorder]
        if len(n):
            # (node, label) pair counts via one lexsort + segment diff
            order = np.lexsort((v, n))
            ns, vs = n[order], v[order]
            pair_new = np.r_[True, (ns[1:] != ns[:-1]) | (vs[1:] != vs[:-1])]
            starts = np.flatnonzero(pair_new)
            counts = np.diff(np.r_[starts, len(ns)])
            pn, pv = ns[starts], vs[starts]
            # plurality with min-label tie-break: sort pairs by
            # (node, count desc, label asc), take the first per node
            o2 = np.lexsort((pv, -counts, pn))
            pn2, pv2 = pn[o2], pv[o2]
            nstarts = np.flatnonzero(np.r_[True, pn2[1:] != pn2[:-1]])
            # a node no message reached keeps its label
            new = lookup(pn2[nstarts], pv2[nstarts], on, default=oe)
        else:
            new = oe
        return pa.table({
            "node": pa.array(on),
            "lbl": pa.array(new.astype(np.int64)),
            "changed": pa.array((new != oe).astype(np.int64)),
        })

    for _ in range(int(n_iters)):
        msgs = copartition({"edge": (edges2, "src"), "label": (labels, "node")},
                           num_partitions, emit_messages, "pandas")
        upd = copartition({"msg": (msgs, "node"), "old": (labels, "node")},
                          num_partitions, plurality_update, "pandas").materialize()
        changed = int(upd.sum("changed") or 0)
        labels = upd.drop_columns(["changed"]).materialize()
        if changed == 0:
            break
    return labels.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "label": t.column("lbl")}),
        batch_format="pyarrow")


def _initial_labels(edges2, num_partitions: int):
    """LPA round 0: every node of the both-orientations view labelled
    with its own id, as ``(node, lbl)``."""
    return _nodes_of(edges2, num_partitions).map_batches(
        lambda t: pa.table({"node": t.column("node"), "lbl": t.column("node")}),
        batch_format="pyarrow")


def modularity(edges, labels, *, num_partitions: int = 16,
               src_col: str = "src", dst_col: str = "dst"):
    """Newman–Girvan modularity Q of a community labelling over the
    undirected simple view of ``edges`` — the standard quality score
    for :func:`label_propagation` output (Newman 2004)::

        Q = Σ_c [ e_c/m − (deg_c/2m)² ]
          = (4m·E_in − Σ_c deg_c²) / 4m²

    where m is the simple-edge count, E_in the number of edges whose
    endpoints share a label, and deg_c the total degree of community
    c.  Every term is an exact int64 (HUGEINT on the SQL side); Q is
    ONE division of exact integers cast to double, so the scalar is
    bit-identical to any engine computing the same formula.

    ``labels`` is a ``(node, label)`` Dataset covering every edge
    endpoint (the :func:`label_propagation` contract).  Returns one
    row: ``(m, e_in, sum_deg_sq, modularity)``.

    Shape: the same normalization exchange as LPA, then two native
    hash-partitioned ``Dataset.join`` exchanges attach endpoint labels
    (thin int64 rows), E_in reduces to per-batch scalar partials, and
    the community degree sums go through one ``group_counts``-style
    exchange — per-label rows, never per-node, ride the final pass.
    Driver state: three scalars."""
    from .aggregate import group_counts

    simple = simple_undirected(edges, num_partitions=num_partitions,
                               src_col=src_col, dst_col=dst_col).materialize()
    m = int(simple.count())
    if m == 0:
        raise ValueError("modularity: graph has no simple edges")

    def rename(old: str, new_node: str, new_lbl: str):
        def fn(t: pa.Table) -> pa.Table:
            if t.num_columns == 0:
                return pa.table({new_node: pa.array([], type=pa.int64()),
                                 new_lbl: pa.array([], type=pa.int64())})
            return t.rename_columns([new_node, new_lbl])
        return fn

    la = labels.map_batches(rename("node", "a", "la"), batch_format="pyarrow")
    lb = labels.map_batches(rename("node", "b", "lb"), batch_format="pyarrow")
    tagged = simple.join(la, "inner", num_partitions=max(2, num_partitions // 4),
                         on=("a",)).join(
        lb, "inner", num_partitions=max(2, num_partitions // 4), on=("b",))

    def ein_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or t.num_rows == 0:
            return pa.table({"e_in": pa.array([0], type=pa.int64())})
        same = pc.sum(pc.cast(pc.equal(t.column("la"), t.column("lb")),
                              pa.int64())).as_py() or 0
        return pa.table({"e_in": pa.array([same], type=pa.int64())})

    e_in = int(tagged.map_batches(ein_partial, batch_format="pyarrow")
               .sum("e_in") or 0)

    deg = group_counts(simple.map_batches(_endpoints, batch_format="pyarrow"),
                       key="node", out_col="d", num_partitions=num_partitions)
    deg_tag = deg.map_batches(
        lambda t: t if t.num_columns else pa.table(
            {"node": pa.array([], type=pa.int64()),
             "d": pa.array([], type=pa.int64())}),
        batch_format="pyarrow",
    ).join(
        labels, "inner", num_partitions=max(2, num_partitions // 4),
        on=("node",),
    )
    # per-label degree SUM (not count): two-phase partial sums by label
    def deg_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            t = pa.table({"label": pa.array([], type=pa.int64()),
                          "d": pa.array([], type=pa.int64())})
        lbls = t.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        d = t.column("d").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(lbls, kind="stable")
        ls, ds_ = lbls[order], d[order]
        starts = np.flatnonzero(np.r_[True, ls[1:] != ls[:-1]])
        sums = np.add.reduceat(ds_, starts) if len(ls) else np.zeros(0, np.int64)
        return pa.table({"label": pa.array(ls[starts] if len(ls) else ls),
                         "dsum": pa.array(sums.astype(np.int64))})

    def sq_partial(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("label", sort=False)["dsum"].sum().to_numpy(dtype=np.int64)
        total = int((agg.astype(object) ** 2).sum()) if len(agg) else 0
        if total > np.iinfo(np.int64).max:
            raise OverflowError("modularity: sum of squared community "
                                "degrees exceeds int64")
        return pa.table({"sq": pa.array([total], type=pa.int64())})

    sum_deg_sq = int(
        exchange(deg_tag.map_batches(deg_partial, batch_format="pyarrow"), "label",
                 max(2, num_partitions // 4), sq_partial, "pandas")
        .sum("sq") or 0
    )

    num = 4 * m * e_in - sum_deg_sq
    q = float(num) / float(4 * m * m)
    import ray.data as _rd

    return engine_plan(_rd.from_arrow(pa.table({
        "m": pa.array([m], type=pa.int64()),
        "e_in": pa.array([e_in], type=pa.int64()),
        "sum_deg_sq": pa.array([sum_deg_sq], type=pa.int64()),
        "modularity": pa.array([q], type=pa.float64()),
    })))


def clustering_coefficients(edges, *, num_partitions: int = 16,
                            src_col: str = "src", dst_col: str = "dst"):
    """Local clustering coefficient per node over the undirected
    simple view: ``cc(v) = 2·T(v) / (deg(v)·(deg(v)−1))``, 0.0 when
    deg < 2 — the classic transitivity measure (Watts & Strogatz
    1998), here as a composition: :func:`simple_undirected` →
    degrees via ``group_counts`` (keys × batches exchange) +
    :func:`triangle_counts` (the O(m^1.5) wedge-check), merged by one
    node-keyed co-partition.  One row per simple-graph node:
    ``(node, deg, n_triangles, cc)``.  cc is ONE double division of
    exact int64s, so the scalar is bit-identical to any engine
    computing the same formula (nodes in no triangle join as T=0)."""
    from .aggregate import group_counts

    simple = simple_undirected(edges, num_partitions=num_partitions,
                               src_col=src_col, dst_col=dst_col).materialize()

    deg = group_counts(simple.map_batches(_endpoints, batch_format="pyarrow"),
                       key="node", out_col="deg",
                       num_partitions=num_partitions)
    # triangle_counts normalizes identically from the raw edges; feed
    # it the already-simple view (normalization is idempotent)
    tri = triangle_counts(simple, num_partitions=num_partitions,
                          src_col="a", dst_col="b")

    def merge(deg: pd.DataFrame, tri: pd.DataFrame) -> pa.Table:
        deg = deg.sort_values("node")
        n = deg["node"].to_numpy(dtype=np.int64)
        d = deg["deg"].to_numpy(dtype=np.int64)
        # a graph with no triangle at all has a column-less tri side
        tri_n = np.zeros(len(n), dtype=np.int64)
        if len(tri):
            tri = tri.sort_values("node")
            tri_n = lookup(tri["node"].to_numpy(dtype=np.int64),
                           tri["n_triangles"].to_numpy(dtype=np.int64), n, default=0)
        denom = d * (d - 1)
        cc = np.where(denom > 0, (2.0 * tri_n) / np.maximum(denom, 1), 0.0)
        return pa.table({
            "node": pa.array(n),
            "deg": pa.array(d),
            "n_triangles": pa.array(tri_n.astype(np.int64)),
            "cc": pa.array(cc.astype(np.float64)),
        })

    return copartition({"deg": (deg, "node"), "tri": (tri, "node")},
                       num_partitions, merge, "pandas")


def _pivot_view(edges, num_partitions: int, src_col: str, dst_col: str):
    """The both-orientations simple edge view and its node table — the
    shared input of the pivot BFS centralities."""
    simple = simple_undirected(edges, num_partitions=num_partitions,
                               src_col=src_col, dst_col=dst_col)
    edges2 = simple.map_batches(_both_dirs, batch_format="pyarrow").materialize()
    return edges2, _nodes_of(edges2, num_partitions).materialize()


def _pivot_bfs_levels(edges2, node_tbl, pivot_arr, *,
                      num_partitions: int, max_levels: int):
    """Synchronized multi-pivot BFS over a directed both-orientations
    edge view: one frontier⋈edges exchange + one settle exchange per
    level, ALL pivots advancing in the same wave; state rows are thin
    (pivot, node, σ) int64 triples.  Returns the per-level frontier
    Datasets (level = list index; σ = exact shortest-path counts) —
    the shared forward phase of :func:`betweenness_pivots` and
    :func:`harmonic_closeness_pivots`."""
    def init_frontier(t: pa.Table) -> pa.Table:
        nodes = t.column("node").to_numpy(zero_copy_only=False)
        hits = nodes[np.isin(nodes, pivot_arr)]
        return pa.table({
            "p": pa.array(hits.astype(np.int64)),
            "node": pa.array(hits.astype(np.int64)),
            "sigma": pa.array(np.ones(len(hits), dtype=np.int64)),
        })

    frontier = node_tbl.map_batches(init_frontier,
                                    batch_format="pyarrow").materialize()
    settled = frontier
    levels = [frontier]

    def emit_fwd(frontier: pd.DataFrame, edge: pd.DataFrame) -> pa.Table:
        m = edge[["src", "dst"]].merge(
            frontier[["node", "p", "sigma"]].rename(columns={"node": "src"}), on="src")
        g = m.groupby(["p", "dst"], as_index=False)["sigma"].sum()
        return pa.table({
            "p": pa.array(g["p"].to_numpy(dtype=np.int64)),
            "node": pa.array(g["dst"].to_numpy(dtype=np.int64)),
            "sigma": pa.array(g["sigma"].to_numpy(dtype=np.int64)),
        })

    def settle(msg: pd.DataFrame, settled: pd.DataFrame) -> pa.Table:
        st = settled[["p", "node"]]
        g = msg.groupby(["p", "node"], as_index=False)["sigma"].sum()
        new = g.merge(st, on=["p", "node"], how="left", indicator=True)
        new = new[new["_merge"] == "left_only"]
        return pa.table({
            "p": pa.array(new["p"].to_numpy(dtype=np.int64)),
            "node": pa.array(new["node"].to_numpy(dtype=np.int64)),
            "sigma": pa.array(new["sigma"].to_numpy(dtype=np.int64)),
        })

    for _ in range(int(max_levels)):
        msgs = copartition({"frontier": (frontier, "node"), "edge": (edges2, "src")},
                           num_partitions, emit_fwd, "pandas")
        new = copartition({"msg": (msgs, "node"), "settled": (settled, "node")},
                          num_partitions, settle, "pandas").materialize()
        if int(new.count()) == 0:
            break
        settled = settled.union(new).materialize()
        levels.append(new)
        frontier = new
    else:
        raise RuntimeError(
            f"_pivot_bfs_levels: BFS still active after {max_levels} levels")
    return levels


def betweenness_pivots(edges, *, pivots, num_partitions: int = 16,
                       max_levels: int = 64,
                       src_col: str = "src", dst_col: str = "dst"):
    """Pivot-sampled betweenness centrality (Brandes 2001 dependency
    accumulation; Bader et al. 2007 pivot approximation): exact
    single-source dependencies from a DETERMINISTIC pivot set, summed
    per node — bc(v) = Σ_p δ_p(v).  With pivots = all nodes this IS
    exact betweenness; with k pivots it is the standard k-sample
    estimate at k/n of the cost.

    Determinism contract (the published algorithm is float-valued, so
    accumulation ORDER is pinned): per (pivot, v) the successor terms
    (1+δ_w)/σ_w reduce in ascending-w order, per v the pivot
    dependencies reduce in ascending-pivot order — both via one
    lexsort + ``np.add.reduceat`` (numpy's deterministic PAIRWISE
    summation — the reference must use ``np.add.reduce``, not a
    sequential ``+=`` loop, which diverges by 1 ulp past the pairwise
    threshold) inside the owning partition, so any batching /
    partitioning yields byte-identical doubles and the plain reference
    reproduces them exactly.  Path counts σ are exact int64.

    Shape (BSP over the undirected simple view): forward = one
    frontier⋈edges exchange + one settle exchange per BFS level, ALL
    pivots advancing in the same synchronized wave — state rows are
    thin (pivot, node, σ) int64 triples, O(k·n) total; backward = the
    same two exchanges per level in reverse.  Per-level frontier
    tables are materialized (the loop-state discipline); driver state
    is the level count.  Raises after ``max_levels`` (disconnected
    remainders just stop contributing — that is BFS semantics, not an
    error)."""
    if not pivots:
        raise ValueError("betweenness_pivots: need at least one pivot")
    pivot_arr = np.array(sorted(int(p) for p in pivots), dtype=np.int64)

    edges2, node_tbl = _pivot_view(edges, num_partitions, src_col, dst_col)
    levels = _pivot_bfs_levels(edges2, node_tbl, pivot_arr,
                               num_partitions=num_partitions,
                               max_levels=max_levels)

    # backward dependency accumulation, deepest level first
    deltas = []  # one (p, node, delta) Dataset per level (levels[i])
    zero_delta = levels[-1].map_batches(
        lambda t: pa.table({
            "p": t.column("p"), "node": t.column("node"),
            "sigma": t.column("sigma"),
            "delta": pa.array(np.zeros(t.num_rows, dtype=np.float64)),
        }),
        batch_format="pyarrow",
    ).materialize()
    deltas.append(zero_delta)
    cur = zero_delta

    def emit_bwd(level: pd.DataFrame, edge: pd.DataFrame) -> pa.Table:
        # edge (v, w) keyed by w: both orientations exist in edges2,
        # so rows with src=w carry dst=v
        m = edge[["src", "dst"]].merge(
            level[["node", "p", "sigma", "delta"]].rename(columns={"node": "src"}),
            on="src")
        contrib = (1.0 + m["delta"].to_numpy(dtype=np.float64)) / m["sigma"].to_numpy()
        return pa.table({
            "p": pa.array(m["p"].to_numpy(dtype=np.int64)),
            "v": pa.array(m["dst"].to_numpy(dtype=np.int64)),
            "w": pa.array(m["src"].to_numpy(dtype=np.int64)),
            "contrib": pa.array(contrib.astype(np.float64)),
        })

    def acc_delta(contrib: pd.DataFrame, member: pd.DataFrame) -> pa.Table:
        lv = member
        if not len(lv):
            return pa.table({"p": pa.array([], type=pa.int64()),
                             "node": pa.array([], type=pa.int64()),
                             "sigma": pa.array([], type=pa.int64()),
                             "delta": pa.array([], type=pa.float64())})
        p = contrib["p"].to_numpy(dtype=np.int64)
        n = contrib["v"].to_numpy(dtype=np.int64)
        w = contrib["w"].to_numpy(dtype=np.int64)
        x = contrib["contrib"].to_numpy(dtype=np.float64)
        order = np.lexsort((w, n, p))
        p, n, x = p[order], n[order], x[order]
        new = np.r_[True, (p[1:] != p[:-1]) | (n[1:] != n[:-1])]
        starts = np.flatnonzero(new)
        sums = np.add.reduceat(x, starts) if len(x) else np.zeros(0)
        sdf = pd.DataFrame({"p": p[starts] if len(p) else p,
                            "node": n[starts] if len(n) else n,
                            "s": sums})
        out = lv[["p", "node", "sigma"]].merge(sdf, on=["p", "node"],
                                               how="left")
        s = out["s"].fillna(0.0).to_numpy()
        delta = out["sigma"].to_numpy(dtype=np.float64) * s
        return pa.table({
            "p": pa.array(out["p"].to_numpy(dtype=np.int64)),
            "node": pa.array(out["node"].to_numpy(dtype=np.int64)),
            "sigma": pa.array(out["sigma"].to_numpy(dtype=np.int64)),
            "delta": pa.array(delta.astype(np.float64)),
        })

    for li in range(len(levels) - 2, -1, -1):
        msgs = copartition({"level": (cur, "node"), "edge": (edges2, "src")},
                           num_partitions, emit_bwd, "pandas")
        cur = copartition({"contrib": (msgs, "v"), "member": (levels[li], "node")},
                          num_partitions, acc_delta, "pandas").materialize()
        deltas.append(cur)

    all_delta = deltas[0]
    for d in deltas[1:]:
        all_delta = all_delta.union(d)

    def final_bc(delta: pd.DataFrame, node: pd.DataFrame) -> pa.Table:
        nodes = np.unique(node["node"].to_numpy(dtype=np.int64))
        n = p = x = np.zeros(0, dtype=np.int64)
        if len(delta):  # column-less when no pivot is in the graph
            n = delta["node"].to_numpy(dtype=np.int64)
            p = delta["p"].to_numpy(dtype=np.int64)
            x = delta["delta"].to_numpy(dtype=np.float64)
            keep = p != n
            n, p, x = n[keep], p[keep], x[keep]
        order = np.lexsort((p, n))
        n, x = n[order], x[order]
        new = np.r_[True, n[1:] != n[:-1]]
        starts = np.flatnonzero(new)
        sums = np.add.reduceat(x, starts) if len(x) else np.zeros(0)
        bc = pd.Series(sums, index=n[starts] if len(n) else n).reindex(
            nodes).fillna(0.0)
        return pa.table({
            "node": pa.array(nodes),
            "bc": pa.array(bc.to_numpy(dtype=np.float64)),
        })

    return copartition({"delta": (all_delta, "node"), "node": (node_tbl, "node")},
                       num_partitions, final_bc, "pandas")


def harmonic_closeness_pivots(edges, *, pivots, num_partitions: int = 16,
                              max_levels: int = 64,
                              src_col: str = "src", dst_col: str = "dst"):
    """Exact harmonic and closeness centrality of a DETERMINISTIC
    pivot set (Marchiori & Latora 2000 harmonic; classic closeness):
    one synchronized multi-pivot BFS (:func:`_pivot_bfs_levels` — the
    betweenness forward phase, shared) gives every pivot its full
    distance vector; per pivot ``harmonic = Σ_{v≠p} 1/d(p,v)``
    (reachable v only), ``closeness = (reached−1)/Σ d(p,v)``.

    Determinism: Σd is exact int64; the harmonic float terms reduce in
    ascending-node order via the segmented ``np.add.reduceat`` kernel
    (the pinned summation spec shared with betweenness); closeness is
    ONE double division of exact ints.  Output: one row per pivot
    present in the graph — ``(pivot, n_reached, harmonic,
    closeness)``; a pivot reaching nothing reports 0.0 / 0.0."""
    if not pivots:
        raise ValueError("harmonic_closeness_pivots: need at least one pivot")
    pivot_arr = np.array(sorted(int(p) for p in pivots), dtype=np.int64)

    edges2, node_tbl = _pivot_view(edges, num_partitions, src_col, dst_col)

    levels = _pivot_bfs_levels(edges2, node_tbl, pivot_arr,
                               num_partitions=num_partitions,
                               max_levels=max_levels)

    def dist_rows(dist: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "p": t.column("p"), "node": t.column("node"),
                "dist": pa.array(np.full(t.num_rows, dist, dtype=np.int64)),
            })
        return fn

    all_rows = levels[0].map_batches(dist_rows(0), batch_format="pyarrow")
    for d, lvl in enumerate(levels[1:], start=1):
        all_rows = all_rows.union(
            lvl.map_batches(dist_rows(d), batch_format="pyarrow"))

    def finish(df: pd.DataFrame) -> pa.Table:
        p = df["p"].to_numpy(dtype=np.int64)
        n = df["node"].to_numpy(dtype=np.int64)
        d = df["dist"].to_numpy(dtype=np.int64)
        order = np.lexsort((n, p))
        p, d = p[order], d[order]
        new = np.r_[True, p[1:] != p[:-1]]
        starts = np.flatnonzero(new)
        cnt = np.diff(np.r_[starts, len(p)])
        sum_d = np.add.reduceat(d, starts) if len(p) else np.zeros(0, np.int64)
        inv = np.where(d > 0, 1.0 / np.maximum(d, 1), 0.0)
        harm = np.add.reduceat(inv, starts) if len(p) else np.zeros(0)
        reached = cnt - 1  # exclude the pivot itself (dist 0)
        closeness = np.where(sum_d > 0,
                             reached.astype(np.float64) /
                             np.maximum(sum_d, 1).astype(np.float64), 0.0)
        return pa.table({
            "pivot": pa.array(p[starts] if len(p) else p),
            "n_reached": pa.array(reached.astype(np.int64)),
            "harmonic": pa.array(harm.astype(np.float64)),
            "closeness": pa.array(closeness.astype(np.float64)),
        })

    return exchange(all_rows, "p", num_partitions, finish, "pandas")


def eccentricity_pivots(edges, *, pivots, num_partitions: int = 16,
                        max_levels: int = 64,
                        src_col: str = "src", dst_col: str = "dst"):
    """Exact eccentricity of a deterministic pivot set — the max BFS
    distance each pivot reaches in its component (max over pivots is
    the classic lower bound on the graph diameter; the iFUB family of
    diameter algorithms starts exactly here).  One synchronized
    multi-pivot BFS (:func:`_pivot_bfs_levels`, shared with
    betweenness/harmonic), then a per-pivot integer max — no floats
    anywhere.  Output: ``(pivot, eccentricity, n_reached)`` per pivot
    present in the graph."""
    if not pivots:
        raise ValueError("eccentricity_pivots: need at least one pivot")
    pivot_arr = np.array(sorted(int(p) for p in pivots), dtype=np.int64)

    edges2, node_tbl = _pivot_view(edges, num_partitions, src_col, dst_col)

    levels = _pivot_bfs_levels(edges2, node_tbl, pivot_arr,
                               num_partitions=num_partitions,
                               max_levels=max_levels)

    def dist_rows(dist: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "p": t.column("p"),
                "dist": pa.array(np.full(t.num_rows, dist, dtype=np.int64)),
            })
        return fn

    all_rows = levels[0].map_batches(dist_rows(0), batch_format="pyarrow")
    for d, lvl in enumerate(levels[1:], start=1):
        all_rows = all_rows.union(
            lvl.map_batches(dist_rows(d), batch_format="pyarrow"))

    def finish(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("p", as_index=False).agg(
            eccentricity=("dist", "max"), n=("dist", "size"))
        return pa.table({
            "pivot": pa.array(g["p"].to_numpy(dtype=np.int64)),
            "eccentricity": pa.array(
                g["eccentricity"].to_numpy(dtype=np.int64)),
            "n_reached": pa.array(g["n"].to_numpy(dtype=np.int64) - 1),
        })

    return exchange(all_rows, "p", num_partitions, finish, "pandas")
