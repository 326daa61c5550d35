"""Graph analytics over edge Datasets: one vertex-program shard engine
for the iterative algorithms, Dataset exchanges for the rest.

**The shard engine** (Pregel, Malewicz et al., SIGMOD 2010).  PageRank
(personalized too), HITS, k-core, hop distance, label propagation and
the pivot BFS under betweenness, harmonic closeness and eccentricity
are each one :class:`_Program` run by :func:`_run`:

- *load*: the edge Dataset streams once through a routing
  ``map_batches`` that pushes every edge to the shard actor owning its
  src (``_owner_part``).  A shard keeps its out-edges as an int64 CSR
  (:class:`_Csr`) and, when the program asks, the reverse orientation
  too.  Edges never move again.
- *send*: per superstep each shard turns its state into message rows
  ``(dst, ...)``, pre-combines them per destination (sum, min or none)
  and cuts them into one outbox per destination shard.
- *receive*: each shard applies its inboxes to the nodes it owns (a
  message for a node it does not own raises) and returns one small
  scalar: a changed count, the propagated mass, a max score.
- *next*: the driver folds those scalars into the next superstep's
  argument, or stops.  It holds refs and scalars only.

The shards are killed once their output tables are stored.

**Memory contract.**  The edges stay in shard memory for the whole
call: the int64 CSR is ≈ 16 B per directed edge across the cluster (an
undirected edge is two directed ones), plus O(n) int64 state per node
and O(k·n) for a k-pivot BFS.  There is no out-of-core path.

**Determinism.**  Every result is a pure function of the graph, the
same under any batching and any shard count:

- integer state (PageRank's fixed point, HITS scores, coreness,
  labels, distances, path counts σ) is exact int64 arithmetic, so its
  order of summation does not matter;
- float sums have a pinned order.  Betweenness sums successor terms
  ``(1+δ_w)/σ_w`` in ascending-``w`` order per (pivot, v), then the
  pivot dependencies in ascending pivot order per v; harmonic
  closeness sums ``1/d`` in ascending node order per pivot.  Each sum
  is one ``np.add.reduceat`` over the sorted rows at the owning shard
  (``segments.sum``).

PageRank is int64 fixed point: SCALE = 2^32 micro-units per node.
Every per-edge share is an exact floor division ``q // deg``, per-dst
sums are exact adds, damping is one integer ``(num · S) // den``, and
all rounding remainders plus dangling mass plus teleport collapse into
one global leftover ``L = M − Σ propagated``, redistributed as
``L // n`` per node (the sub-n remainder is discarded; ranking is
unaffected).  The float rank is ``q / 2^32``, an exact division.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.io import cluster_cpus, engine_plan
from . import segments
from .exchange import copartition, exchange, lookup
from .joins import _multi_arange

SCALE = np.int64(1) << np.int64(32)
_HITS_CAP = 1 << 40

# ---------------------------------------------------------------------------
# the shard engine
# ---------------------------------------------------------------------------


def _owner_part(ids: np.ndarray, num_parts: int) -> np.ndarray:
    """The shard owning each node id (collisions only co-locate)."""
    return (pd.util.hash_array(ids) % np.uint64(num_parts)).astype(np.int64)


def _split(part: np.ndarray, num_parts: int, cols: dict) -> list:
    """``cols`` (equal-length arrays) cut into one dict per part in
    ``[0, num_parts)``, rows in input order; a part with no row gets
    empty arrays."""
    out = [{k: v[:0] for k, v in cols.items()} for _ in range(num_parts)]
    r = segments.runs(part)
    for s, z in zip(r.starts, r.sizes):
        rows = r.order[s:s + z]
        out[int(part[rows[0]])] = {k: v[rows] for k, v in cols.items()}
    return out


def _combine(keys: tuple, vals: np.ndarray, op: str = "sum", order_by=()):
    """(first input row of each distinct ``keys`` tuple, ``op`` of
    ``vals`` over its rows in ``order_by`` order)."""
    r = segments.runs(keys, order_by)
    return r.order[r.starts], getattr(segments, op)(r, vals).data


def _per_node(n: int, i: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Sum of ``vals`` per local node index ``i`` (0 where none)."""
    head, s = _combine((i,), vals)
    out = np.zeros(n, dtype=vals.dtype)
    out[i[head]] = s
    return out


class _Csr:
    """One orientation of a shard's edges: ``src`` the local node index
    (sorted), ``dst`` the other endpoint's id, ``off`` the offsets of
    each local node's edges."""

    def __init__(self, nodes: np.ndarray, loc: np.ndarray, rem: np.ndarray,
                 simple: bool):
        i = lookup(nodes, np.arange(len(nodes)), loc)
        r = segments.runs((i, rem))
        rows = r.order[r.starts] if simple else r.order
        self.src, self.dst = i[rows], rem[rows]
        self.off = np.searchsorted(self.src, np.arange(len(nodes) + 1))

    def out(self, u: np.ndarray):
        """(index into ``u``, edge index) for every edge of the local
        nodes ``u``."""
        return _multi_arange(self.off[u], self.off[u + 1])


class _Shard:
    """One graph shard: the nodes whose ``_owner_part`` is ``part``,
    their out-edges (``fwd``) and, when loaded, their in-edges
    (``rev``).  ``program`` is this shard's own copy of the vertex
    program and keeps its state.  :func:`_run` wraps it ``ray.remote``,
    so importing this module never needs Ray."""

    def __init__(self, part: int, num_parts: int, program):
        self.part, self.P, self.program = part, num_parts, program
        self._in = {"fwd": [], "rev": [], "nodes": []}

    def add(self, kind: str, loc: np.ndarray, rem: np.ndarray) -> None:
        self._in[kind].append((loc, rem))

    def finalize(self, simple: bool) -> int:
        def cat(kind, j):
            xs = [x[j] for x in self._in[kind]]
            return np.concatenate(xs) if xs else np.zeros(0, dtype=np.int64)

        (fl, fr), (rl, rr) = [(cat(k, 0), cat(k, 1)) for k in ("fwd", "rev")]
        if simple:
            fl, fr = fl[fl != fr], fr[fl != fr]
        self.nodes = np.unique(np.concatenate([fl, rl, cat("nodes", 0)]))
        self.fwd = _Csr(self.nodes, fl, fr, simple)
        self.rev = _Csr(self.nodes, rl, rr, simple)
        self._in = None
        self.program.init(self)
        return len(self.nodes)

    def send(self, arg):
        """One outbox per shard: the program's message rows, combined
        per ``(keys..., dst)`` when it names an op."""
        rows, keys, op = self.program.send(self, arg)
        part = _owner_part(rows["dst"], self.P)
        if op is not None:
            r = segments.runs((part, *[rows[k] for k in keys], rows["dst"]))
            head = r.order[r.starts]
            rows = {k: (v[head] if k in keys or k == "dst"
                        else getattr(segments, op)(r, v).data)
                    for k, v in rows.items()}
            part = part[head]
        out = _split(part, self.P, rows)
        # num_returns=1 wraps the whole return in one ref
        return out[0] if self.P == 1 else tuple(out)

    def receive(self, *inboxes):
        rows = {k: np.concatenate([b[k] for b in inboxes]) for k in inboxes[0]}
        rows["i"] = lookup(self.nodes, np.arange(len(self.nodes)), rows.pop("dst"))
        return self.program.receive(self, rows)

    def output(self, arg) -> pa.Table:
        return self.program.output(self, arg)


class _Program:
    """A vertex program.  ``init``, ``send``, ``receive`` and
    ``output`` run on each shard's copy (``g`` is the shard).
    ``begin(n_nodes)`` and ``next(scalars)`` (one per shard) run on the
    driver's copy: each returns the next superstep's argument, which
    goes to ``output`` instead once it has set ``done``.

    ``send(g, arg)`` returns ``(rows, keys, op)``: message columns with
    ``dst``, the columns besides ``dst`` that key a combine, and the
    combine (``"sum"``, ``"min"`` or None to ship every row).
    ``receive(g, rows)`` gets the inbound rows with ``i``, the local
    index of ``dst``, and returns this shard's scalar."""

    done = False


def _run(edges, program: _Program, *, num_partitions: int | None, src_col: str,
         dst_col: str, reverse: str | None = None, simple: bool = False,
         extra_nodes=()):
    """Load ``edges`` into ``num_partitions`` shards (None: one per CPU
    of the cluster), run ``program`` to its end and return the Dataset
    of the shards' output tables.

    ``reverse``: None keeps out-edges only (a dst's shard still learns
    the node exists); ``"rev"`` also keeps every edge at its dst's
    shard as the reverse CSR; ``"both"`` adds each reversed edge to the
    out-edges (the undirected view).  ``simple`` drops self-loops and
    duplicate edges.  ``extra_nodes`` are owned even with no edge.
    Rows with a null endpoint are dropped."""
    import ray
    import ray.data as rd

    P = int(num_partitions or cluster_cpus())
    Shard = ray.remote(_Shard)
    shards = [Shard.remote(p, P, program) for p in range(P)]
    back = {None: "nodes", "rev": "rev", "both": "fwd"}[reverse]

    def push(kind, loc, rem):
        return [shards[p].add.remote(kind, c["loc"], c["rem"])
                for p, c in enumerate(_split(_owner_part(loc, P), P,
                                             {"loc": loc, "rem": rem}))
                if len(c["loc"])]

    def route(t: pa.Table) -> pa.Table:
        s = t.column(src_col).cast(pa.int64())
        d = t.column(dst_col).cast(pa.int64())
        if s.null_count or d.null_count:
            keep = pc.and_(pc.is_valid(s), pc.is_valid(d))
            s, d = s.filter(keep), d.filter(keep)
        src = s.to_numpy(zero_copy_only=False).astype(np.int64)
        dst = d.to_numpy(zero_copy_only=False).astype(np.int64)
        ray.get(push("fwd", src, dst) + push(back, dst, src))
        return pa.table({"n": pa.array([t.num_rows], type=pa.int64())})

    try:
        edges.map_batches(route, batch_format="pyarrow").materialize()
        extra = np.asarray(extra_nodes, dtype=np.int64)
        ray.get(push("nodes", extra, extra))
        arg = program.begin(sum(ray.get([s.finalize.remote(simple) for s in shards])))
        while not program.done:
            outs = [s.send.options(num_returns=P).remote(arg) for s in shards]
            if P == 1:
                outs = [[o] for o in outs]
            arg = program.next(ray.get([
                shards[t].receive.remote(*[o[t] for o in outs]) for t in range(P)]))
        refs = [s.output.remote(arg) for s in shards]
        ray.wait(refs, num_returns=P)
    finally:
        for s in shards:
            ray.kill(s)
    return engine_plan(rd.from_arrow_refs(refs))


# ---------------------------------------------------------------------------
# PageRank and HITS
# ---------------------------------------------------------------------------


class _PageRank(_Program):
    """``arg`` is the leftover share each node (each seed, when
    personalized) adds to its propagated mass before the next send:
    ``(M − Σ prop) // n`` (``// len(seeds)``) of the last superstep."""

    def __init__(self, n_iters, damping_num, damping_den, seeds):
        self.n_iters, self.seeds = int(n_iters), seeds
        self.dn, self.dd = np.int64(damping_num), np.int64(damping_den)

    def begin(self, n_nodes):
        self.n, self.left = n_nodes, self.n_iters
        self.done = n_nodes == 0 or self.left <= 0
        return None

    def next(self, props):
        self.left -= 1
        self.done = self.left == 0
        takers = self.n if self.seeds is None else len(self.seeds)
        return (self.n * int(SCALE) - sum(props)) // takers

    def init(self, g):
        self.q = np.full(len(g.nodes), int(SCALE), dtype=np.int64)
        self.takes_leftover = (np.ones(len(g.nodes), dtype=bool) if self.seeds is None
                               else np.isin(g.nodes, self.seeds))

    def _settle(self, base):
        if base is not None:
            self.q = self.prop + np.where(self.takes_leftover, np.int64(base), np.int64(0))

    def send(self, g, base):
        self._settle(base)
        share = self.q // np.maximum(np.diff(g.fwd.off), 1)
        return {"dst": g.fwd.dst, "s": share[g.fwd.src]}, (), "sum"

    def receive(self, g, rows):
        # exact integer damping: all rounding loss folds into the
        # global leftover redistributed next step
        self.prop = (self.dn * _per_node(len(g.nodes), rows["i"], rows["s"])) // self.dd
        return int(self.prop.sum())

    def output(self, g, base):
        self._settle(base)
        return pa.table({
            "node": pa.array(g.nodes),
            "q": pa.array(self.q),
            "rank": pa.array(self.q.astype(np.float64) / np.float64(2 ** 32)),
        })


def pagerank(edges, *, n_iters: int = 8, damping_num: int = 85,
             damping_den: int = 100, num_partitions: int | None = None,
             src_col: str = "src", dst_col: str = "dst", seeds=None):
    """PageRank with damping ``damping_num/damping_den`` over an edge
    Dataset — exact int64 fixed point (see the module docstring), so
    the output is bit-identical under any batching and shard count.
    Returns (node, q, rank): q the fixed-point score, rank = q / 2^32.

    Self-loops count like any edge; parallel edges count twice (dedup
    first if simple-graph semantics are wanted).  Runs on
    ``num_partitions`` shards; per superstep only the per-dst summed
    int64 shares move.

    Magnitude bound: per-dst contribution sums are ≤ n·2^32 and damping
    multiplies by ``damping_num`` before dividing, so int64 holds up to
    ~2^24 nodes at the default SCALE.

    ``seeds``: PERSONALIZED PageRank — the global leftover (teleport +
    dangling + rounding) goes only to the given node ids
    (``L // len(seeds)`` each; a seed id absent from the graph receives
    nothing).  Seeds are small by contract: they ride to every shard."""
    if seeds is not None:
        seeds = np.unique(np.asarray(list(seeds), dtype=np.int64))
        if not len(seeds):
            raise ValueError("personalized PageRank needs >= 1 seed")
    return _run(edges, _PageRank(n_iters, damping_num, damping_den, seeds),
                num_partitions=num_partitions, src_col=src_col, dst_col=dst_col)


class _Hits(_Program):
    """Half-steps alternate: ``"a"`` sums hubs along out-edges into
    authorities, ``"h"`` sums authorities along in-edges into hubs.
    ``arg`` carries the half to send and the power-of-two shift the
    previous half's max asked for."""

    def __init__(self, n_iters):
        self.halves = 2 * int(n_iters)

    def begin(self, n_nodes):
        self.step, self.top = 0, {"h": 1, "a": 1}
        self.done = n_nodes == 0 or self.halves <= 0
        return {"half": "a", "shift": ("a", 0), "top": self.top}

    def next(self, maxes):
        col = "ah"[self.step % 2]
        mx, shift = max(maxes), 0
        while (mx >> shift) > _HITS_CAP:
            shift += 1
        self.top[col] = (mx >> shift) or 1
        self.step += 1
        self.done = self.step == self.halves
        return {"half": "ah"[self.step % 2], "shift": (col, shift), "top": self.top}

    def init(self, g):
        self.s = {"h": np.ones(len(g.nodes), dtype=np.int64),
                  "a": np.ones(len(g.nodes), dtype=np.int64)}

    def _shift(self, arg):
        col, shift = arg["shift"]
        self.s[col] = self.s[col] >> np.int64(shift)

    def send(self, g, arg):
        self._shift(arg)
        self.half = arg["half"]
        csr, src_col = (g.fwd, "h") if self.half == "a" else (g.rev, "a")
        return {"dst": csr.dst, "x": self.s[src_col][csr.src]}, (), "sum"

    def receive(self, g, rows):
        self.s[self.half] = _per_node(len(g.nodes), rows["i"], rows["x"])
        return int(self.s[self.half].max()) if len(g.nodes) else 0

    def output(self, g, arg):
        self._shift(arg)
        h, a = self.s["h"], self.s["a"]
        return pa.table({
            "node": pa.array(g.nodes),
            "hub_q": pa.array(h),
            "auth_q": pa.array(a),
            "hub": pa.array(h.astype(np.float64) / np.float64(arg["top"]["h"])),
            "auth": pa.array(a.astype(np.float64) / np.float64(arg["top"]["a"])),
        })


def hits(edges, *, n_iters: int = 8, num_partitions: int | None = None,
         src_col: str = "src", dst_col: str = "dst"):
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

    Each edge loads at its src's shard (for the authority half-step)
    and at its dst's shard (for the hub half-step); per half-step only
    summed int64 scores move, and the shift is one driver scalar.
    Output: (node, hub_q, auth_q, hub, auth) with hub/auth in [0, 1]."""
    return _run(edges, _Hits(n_iters), num_partitions=num_partitions,
                src_col=src_col, dst_col=dst_col, reverse="rev")


# ---------------------------------------------------------------------------
# k-core, hop distance, label propagation
# ---------------------------------------------------------------------------


class _Rounds(_Program):
    """Driver side of a program that stops on a round that changes
    nothing: at most ``limit`` rounds, and past that either stop
    (``fail`` None) or raise ``RuntimeError(fail)``."""

    def __init__(self, limit: int, fail: str | None):
        self.limit, self.fail = int(limit), fail

    def begin(self, n_nodes):
        self.rounds = 0
        if self.limit <= 0 and self.fail:
            raise RuntimeError(self.fail)
        self.done = n_nodes == 0 or self.limit <= 0
        return 0

    def next(self, changed):
        self.rounds += 1
        self.done = sum(changed) == 0
        if not self.done and self.rounds >= self.limit:
            if self.fail:
                raise RuntimeError(self.fail)
            self.done = True
        return self.rounds


class _Core(_Rounds):
    """Coreness estimates, lowered each round to the h-index of the
    neighbours' estimates."""

    def init(self, g):
        self.est = np.diff(g.fwd.off)

    def send(self, g, _):
        return {"dst": g.fwd.dst, "v": self.est[g.fwd.src]}, (), None

    def receive(self, g, rows):
        i, v = rows["i"], rows["v"]
        # rank of each estimate among its node's, largest first
        r = segments.runs(i, (-v,))
        rank = np.empty(len(i), dtype=np.int64)
        rank[r.order] = r.pos + 1
        h = segments.max(r, np.minimum(rank, v)).data
        nodes = i[r.order[r.starts]]
        new = self.est.copy()
        new[nodes] = np.minimum(new[nodes], h)
        changed = int((new != self.est).sum())
        self.est = new
        return changed

    def output(self, g, _):
        return pa.table({"node": pa.array(g.nodes), "core": pa.array(self.est)})


def core_numbers(edges, *, num_partitions: int | None = None, max_iters: int = 64,
                 src_col: str = "src", dst_col: str = "dst"):
    """Coreness of every node — the distributed k-core decomposition of
    Montresor/De Pellegrini/Miorandi (2011) via the h-index fixpoint
    (Lü et al. 2016): each node starts at its degree and repeatedly
    lowers its estimate to the h-index of its neighbors' estimates
    (the largest h with ≥ h neighbors at ≥ h); the fixpoint IS the
    core number.  All arithmetic is integer — the result is exact and
    batch-invariant, and the plain reference uses the CLASSIC peeling
    algorithm (an independent method converging to the same values).

    Graph semantics: undirected simple graph — self-loops dropped,
    parallel/reverse duplicates collapsed at load.  One superstep per
    round ships every node's estimate to its neighbours; the h-index is
    one ``segments`` max per node.  The round count is bounded by the
    graph's degeneracy ordering depth and guarded by ``max_iters``
    (raises on non-convergence rather than returning silently-wrong
    estimates)."""
    return _run(edges, _Core(max_iters, f"core_numbers did not converge in "
                                        f"{max_iters} h-index rounds"),
                num_partitions=num_partitions, src_col=src_col, dst_col=dst_col,
                reverse="both", simple=True)


class _Hop(_Rounds):
    """BFS distances from the seeds; ``arg`` is the last settled level."""

    def __init__(self, seeds, max_iters):
        super().__init__(max_iters, f"hop_distances frontier still active "
                                    f"after {max_iters} rounds")
        self.seeds = seeds

    def init(self, g):
        self.dist = np.where(np.isin(g.nodes, self.seeds), 0, -1).astype(np.int64)

    def send(self, g, level):
        which, e = g.fwd.out(np.flatnonzero(self.dist == level))
        return ({"dst": g.fwd.dst[e], "d": np.full(len(e), level + 1, dtype=np.int64)},
                (), "min")

    def receive(self, g, rows):
        head, d = _combine((rows["i"],), rows["d"], "min")
        i = rows["i"][head]
        new = self.dist[i] < 0
        self.dist[i[new]] = d[new]
        return int(new.sum())

    def output(self, g, _):
        hit = self.dist >= 0
        return pa.table({"node": pa.array(g.nodes[hit]), "dist": pa.array(self.dist[hit])})


def hop_distances(edges, *, seeds, num_partitions: int | None = None,
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
    returning a partial frontier).  Seeds are returned at distance 0
    even with no edge; unreached nodes are omitted (document the
    NULL-means-unreachable convention at the join site).

    One superstep per round: only the frontier's out-edges send, one
    message per distinct target.  ``seeds`` is small by contract (it
    rides to every shard); ``directed=False`` (default) loads both
    directions of every edge."""
    seed_arr = np.array(sorted({int(s) for s in seeds}), dtype=np.int64)
    if len(seed_arr) == 0:
        raise ValueError("hop_distances: empty seed set")
    return _run(edges, _Hop(seed_arr, max_iters), num_partitions=num_partitions,
                src_col=src_col, dst_col=dst_col,
                reverse=None if directed else "both", simple=True,
                extra_nodes=seed_arr)


class _Lpa(_Rounds):
    """Labels, replaced each round by the neighbours' plurality label."""

    def init(self, g):
        self.lbl = g.nodes.copy()

    def send(self, g, _):
        return {"dst": g.fwd.dst, "v": self.lbl[g.fwd.src]}, (), None

    def receive(self, g, rows):
        i, v = rows["i"], rows["v"]
        pairs = segments.runs((i, v))
        head, cnt = pairs.order[pairs.starts], segments.count(pairs)
        pi, pv = i[head], v[head]
        # plurality with min-label tie-break: (count desc, label asc)
        win = segments.first(segments.runs(pi, (-cnt, pv))).data
        new = self.lbl.copy()
        new[pi[win]] = pv[win]
        changed = int((new != self.lbl).sum())
        self.lbl = new
        return changed

    def output(self, g, _):
        return pa.table({"node": pa.array(g.nodes), "label": pa.array(self.lbl)})


def label_propagation(edges, *, n_iters: int = 5, num_partitions: int | None = None,
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

    Graph semantics: undirected simple graph — self-loops dropped,
    parallel/reverse duplicates collapsed at load, the
    :func:`core_numbers` convention.  Returns ``(node, label)`` for
    every edge endpoint.  One superstep per round ships every label to
    the neighbours; the vote is two ``segments`` passes per shard."""
    return _run(edges, _Lpa(n_iters, None), num_partitions=num_partitions,
                src_col=src_col, dst_col=dst_col, reverse="both", simple=True)


# ---------------------------------------------------------------------------
# pivot BFS: betweenness, harmonic closeness, eccentricity
# ---------------------------------------------------------------------------


class _PivotBfs(_Program):
    """One BFS from every pivot at once over the undirected simple view,
    as dense ``(pivot, node)`` state: ``dist`` (-1 unreached) and ``sigma``
    (shortest-path counts).  ``arg`` is ``(phase, level)``:

    - ``"fwd"``: the nodes at ``level`` send σ to their neighbours; an
      unreached (pivot, node) settles at ``level + 1`` with the summed σ;
    - ``"bwd"`` (``mode="bc"``): the nodes at ``level + 1`` send
      ``(1+δ_w)/σ_w`` to their neighbours, and those at ``level`` sum
      them in ascending-``w`` order into δ;
    - ``"gather"`` (harmonic, eccentricity): every reached (pivot, node,
      dist) goes to the pivot's shard, which reduces it per pivot."""

    def __init__(self, pivots, max_levels, mode):
        self.pivots, self.max_levels, self.mode = pivots, int(max_levels), mode

    def begin(self, n_nodes):
        self.done = n_nodes == 0
        self.step = ("fwd", 0)
        return self.step

    def next(self, res):
        phase, level = self.step
        if phase == "fwd" and sum(res):
            if level + 1 >= self.max_levels:
                raise RuntimeError(f"pivot BFS still active after "
                                   f"{self.max_levels} levels")
            self.step = ("fwd", level + 1)
        elif phase == "fwd" and self.mode != "bc":
            self.step = ("gather", level)
        elif phase != "gather" and level > 0:
            # the deepest level sends first; level 0 holds the pivots
            self.step = ("bwd", level - 1)
        else:
            self.done = True
        return self.step

    def init(self, g):
        k, n = len(self.pivots), len(g.nodes)
        self.dist = np.full((k, n), -1, dtype=np.int64)
        self.sigma = np.zeros((k, n), dtype=np.int64)
        self.delta = np.zeros((k, n), dtype=np.float64)
        kp, at = np.nonzero(self.pivots[:, None] == g.nodes[None, :])
        self.dist[kp, at] = 0
        self.sigma[kp, at] = 1
        self.got = {"i": np.zeros(0, np.int64), "node": np.zeros(0, np.int64),
                    "d": np.zeros(0, np.int64)}

    def send(self, g, arg):
        self.step = arg
        self.phase, level = arg
        if self.phase == "gather":
            k, v = np.nonzero(self.dist >= 0)
            return ({"dst": self.pivots[k], "node": g.nodes[v], "d": self.dist[k, v]},
                    (), None)
        k, u = np.nonzero(self.dist == (level if self.phase == "fwd" else level + 1))
        which, e = g.fwd.out(u)
        k, u, dst = k[which], u[which], g.fwd.dst[e]
        if self.phase == "fwd":
            return {"dst": dst, "k": k, "s": self.sigma[k, u]}, ("k",), "sum"
        x = (1.0 + self.delta[k, u]) / self.sigma[k, u]
        return {"dst": dst, "k": k, "w": g.nodes[u], "x": x}, (), None

    def receive(self, g, rows):
        level, i = self.step[1], rows["i"]
        if self.phase == "gather":
            self.got = rows
            return 0
        k = rows["k"]
        if self.phase == "fwd":
            head, s = _combine((k, i), rows["s"])
            k, i = k[head], i[head]
            new = self.dist[k, i] < 0
            self.dist[k[new], i[new]] = level + 1
            self.sigma[k[new], i[new]] = s[new]
            return int(new.sum())
        # only predecessors (one level up) take a successor's term
        up = self.dist[k, i] == level
        head, s = _combine((k[up], i[up]), rows["x"][up], order_by=(rows["w"][up],))
        k, i = k[up][head], i[up][head]
        self.delta[k, i] = self.sigma[k, i].astype(np.float64) * s
        return 0

    def output(self, g, _):
        if self.mode == "bc":
            # Σ over pivots, ascending, of δ at every node each reached
            k, v = np.nonzero(self.dist > 0)
            head, s = _combine((v,), self.delta[k, v], order_by=(k,))
            bc = np.zeros(len(g.nodes), dtype=np.float64)
            bc[v[head]] = s
            return pa.table({"node": pa.array(g.nodes), "bc": pa.array(bc)})
        p, d = g.nodes[self.got["i"]], self.got["d"]
        r = segments.runs(p, (self.got["node"],))
        pivot = p[r.order[r.starts]]
        reached = segments.count(r) - 1  # the pivot itself is at 0
        if self.mode == "ecc":
            return pa.table({"pivot": pa.array(pivot),
                             "eccentricity": pa.array(segments.max(r, d).data),
                             "n_reached": pa.array(reached)})
        sum_d = segments.sum(r, d).data
        inv = np.where(d > 0, 1.0 / np.maximum(d, 1), 0.0)
        closeness = np.where(sum_d > 0, reached.astype(np.float64)
                             / np.maximum(sum_d, 1).astype(np.float64), 0.0)
        return pa.table({"pivot": pa.array(pivot),
                         "n_reached": pa.array(reached),
                         "harmonic": pa.array(segments.sum(r, inv).data),
                         "closeness": pa.array(closeness)})


def _pivot_bfs(edges, pivots, mode, *, num_partitions, max_levels, src_col,
               dst_col, name):
    if not pivots:
        raise ValueError(f"{name}: need at least one pivot")
    pivot_arr = np.unique(np.asarray([int(p) for p in pivots], dtype=np.int64))
    return _run(edges, _PivotBfs(pivot_arr, max_levels, mode),
                num_partitions=num_partitions, src_col=src_col, dst_col=dst_col,
                reverse="both", simple=True)


def betweenness_pivots(edges, *, pivots, num_partitions: int | None = None,
                       max_levels: int = 64,
                       src_col: str = "src", dst_col: str = "dst"):
    """Pivot-sampled betweenness centrality (Brandes 2001 dependency
    accumulation; Bader et al. 2007 pivot approximation): exact
    single-source dependencies from a DETERMINISTIC pivot set, summed
    per node — bc(v) = Σ_p δ_p(v).  With pivots = all nodes this IS
    exact betweenness; with k pivots it is the standard k-sample
    estimate at k/n of the cost.  One row per node of the undirected
    simple view: ``(node, bc)``.

    Determinism contract (the published algorithm is float-valued, so
    accumulation ORDER is pinned): per (pivot, v) the successor terms
    (1+δ_w)/σ_w reduce in ascending-w order, per v the pivot
    dependencies reduce in ascending-pivot order — each one
    ``np.add.reduceat`` over sorted rows (numpy's deterministic
    PAIRWISE summation — the reference must use the same kernel, not a
    sequential ``+=`` loop, which diverges by 1 ulp past the pairwise
    threshold) at v's shard, so any batching and shard count yields
    byte-identical doubles and the plain reference reproduces them
    exactly.  Path counts σ are exact int64.

    Shape: all pivots advance in one synchronized BFS wave, one
    superstep per level, then one superstep per level back up.
    Raises after ``max_levels`` (disconnected remainders just stop
    contributing — that is BFS semantics, not an error)."""
    return _pivot_bfs(edges, pivots, "bc", num_partitions=num_partitions,
                      max_levels=max_levels, src_col=src_col, dst_col=dst_col,
                      name="betweenness_pivots")


def harmonic_closeness_pivots(edges, *, pivots, num_partitions: int | None = None,
                              max_levels: int = 64,
                              src_col: str = "src", dst_col: str = "dst"):
    """Exact harmonic and closeness centrality of a DETERMINISTIC
    pivot set (Marchiori & Latora 2000 harmonic; classic closeness):
    the synchronized multi-pivot BFS of :func:`betweenness_pivots`
    gives every pivot its full distance vector; per pivot
    ``harmonic = Σ_{v≠p} 1/d(p,v)`` (reachable v only),
    ``closeness = (reached−1)/Σ d(p,v)``.

    Determinism: Σd is exact int64; the harmonic float terms reduce in
    ascending-node order with one ``np.add.reduceat`` at the pivot's
    shard (the pinned summation spec shared with betweenness);
    closeness is ONE double division of exact ints.  Output: one row
    per pivot present in the graph — ``(pivot, n_reached, harmonic,
    closeness)``; a pivot reaching nothing reports 0.0 / 0.0."""
    return _pivot_bfs(edges, pivots, "harmonic", num_partitions=num_partitions,
                      max_levels=max_levels, src_col=src_col, dst_col=dst_col,
                      name="harmonic_closeness_pivots")


def eccentricity_pivots(edges, *, pivots, num_partitions: int | None = None,
                        max_levels: int = 64,
                        src_col: str = "src", dst_col: str = "dst"):
    """Exact eccentricity of a deterministic pivot set — the max BFS
    distance each pivot reaches in its component (max over pivots is
    the classic lower bound on the graph diameter; the iFUB family of
    diameter algorithms starts exactly here).  The multi-pivot BFS of
    :func:`betweenness_pivots`, then a per-pivot integer max — no
    floats anywhere.  Output: ``(pivot, eccentricity, n_reached)`` per
    pivot present in the graph."""
    return _pivot_bfs(edges, pivots, "ecc", num_partitions=num_partitions,
                      max_levels=max_levels, src_col=src_col, dst_col=dst_col,
                      name="eccentricity_pivots")


# ---------------------------------------------------------------------------
# one-pass graph statistics on Datasets: triangles, clustering, modularity
# ---------------------------------------------------------------------------

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _pair_key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Partition key for a node PAIR — collisions only co-locate, the
    in-partition merge matches exact (a, b)."""
    return ((a.astype(np.uint64) * _MIX) ^ b.astype(np.uint64)).view(np.int64)


def _attach(key: str, val: str, out_col: str):
    """Co-partition merge: ``edge`` rows plus ``out_col``, the ``val`` of
    the ``side`` row whose ``node`` equals the edge's ``key`` (a miss
    raises)."""
    def fn(edge: pd.DataFrame, side: pd.DataFrame) -> pa.Table:
        side = side.sort_values("node")
        cols = {c: pa.array(edge[c].to_numpy(dtype=np.int64)) for c in edge.columns}
        cols[out_col] = pa.array(lookup(
            side["node"].to_numpy(dtype=np.int64), side[val].to_numpy(dtype=np.int64),
            edge[key].to_numpy(dtype=np.int64)))
        return pa.table(cols)
    return fn


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
    with_da = copartition({"edge": (simple, "a"), "side": (degs, "node")},
                          num_partitions, _attach("a", "d", "da"), "pandas")
    with_db = copartition({"edge": (with_da, "b"), "side": (degs, "node")},
                          num_partitions, _attach("b", "d", "db"), "pandas")

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
        r = segments.runs(u, (v,))
        u, v = u[r.order], v[r.order]
        # every later out-neighbour of the same u: v sorted asc → wv < ww
        ii, jj = _multi_arange(np.arange(len(u), dtype=np.int64) + 1,
                               np.repeat(r.starts + r.sizes, r.sizes))
        wu, wv, ww = u[ii], v[ii], v[jj]
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


def simple_undirected(edges, *, num_partitions: int = 16,
                      src_col: str = "src", dst_col: str = "dst"):
    """Normalize an edge table to the undirected simple graph:
    self-loops dropped, parallel / reverse duplicates collapsed —
    one batch-local canon pass + one pair-keyed dedup exchange.
    Returns ``(a, b)`` rows with ``a < b``.  The front door of
    :func:`modularity` and :func:`clustering_coefficients`
    (triangle_counts keeps its pair-key variant — it needs the packed
    pair key downstream anyway; the shard engine normalizes at load)."""

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


def _endpoints(t: pa.Table) -> pa.Table:
    """Both endpoints of simple ``(a, b)`` edges as one ``node`` column
    (a node appears once per incident edge)."""
    a = t.column("a").to_numpy(zero_copy_only=False)
    b = t.column("b").to_numpy(zero_copy_only=False)
    return pa.table({"node": pa.array(np.r_[a, b].astype(np.int64))})


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
    endpoint (the :func:`label_propagation` contract); a node without
    a label raises.  Returns one row: ``(m, e_in, sum_deg_sq,
    modularity)``.

    Shape: the :func:`simple_undirected` exchange, then two node-keyed
    co-partitions attach both endpoints' labels.  Each labelled edge
    counts once toward E_in when its labels agree and once toward the
    degree of each endpoint's community, so deg_c is the count of
    endpoint labels equal to c: per-batch (label, count) partials go
    through one label-keyed exchange.  Driver state: three scalars."""
    simple = simple_undirected(edges, num_partitions=num_partitions,
                               src_col=src_col, dst_col=dst_col).materialize()
    m = int(simple.count())
    if m == 0:
        raise ValueError("modularity: graph has no simple edges")

    with_la = copartition({"edge": (simple, "a"), "side": (labels, "node")},
                          num_partitions, _attach("a", "label", "la"), "pandas")
    tagged = copartition({"edge": (with_la, "b"), "side": (labels, "node")},
                         num_partitions, _attach("b", "label", "lb"),
                         "pandas").materialize()

    def ein_partial(t: pa.Table) -> pa.Table:
        same = pc.sum(pc.cast(pc.equal(t.column("la"), t.column("lb")),
                              pa.int64())).as_py() or 0
        return pa.table({"e_in": pa.array([same], type=pa.int64())})

    e_in = int(tagged.map_batches(ein_partial, batch_format="pyarrow")
               .sum("e_in") or 0)

    # per-label degree partials: one count per endpoint label
    def deg_partial(t: pa.Table) -> pa.Table:
        lbls = np.r_[t.column("la").to_numpy(zero_copy_only=False),
                     t.column("lb").to_numpy(zero_copy_only=False)].astype(np.int64)
        r = segments.runs(lbls)
        return pa.table({"label": pa.array(lbls[r.order[r.starts]]),
                         "dsum": pa.array(segments.count(r))})

    def sq_partial(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("label", sort=False)["dsum"].sum().to_numpy(dtype=np.int64)
        total = int((agg.astype(object) ** 2).sum()) if len(agg) else 0
        if total > np.iinfo(np.int64).max:
            raise OverflowError("modularity: sum of squared community "
                                "degrees exceeds int64")
        return pa.table({"sq": pa.array([total], type=pa.int64())})

    sum_deg_sq = int(
        exchange(tagged.map_batches(deg_partial, batch_format="pyarrow"), "label",
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
