"""The exchange primitive (stages/exchange.py): ``exchange`` and
``copartition`` return the same rows under any partition count and
block layout, an empty side keeps its columns, and ``lookup`` fails
loudly on a key that co-partitioning should have co-located."""

from __future__ import annotations

import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray

from logstash_filter_elastic_integration_ray.stages import graph
from logstash_filter_elastic_integration_ray.stages.exchange import (
    add_partition_col,
    cogroup,
    copartition,
    exchange,
    lookup,
    range_blocks,
)
from logstash_filter_elastic_integration_ray.stages.joins import (
    hash_semi_join,
    hash_semi_join_bloom,
    range_join_chunked,
)
from logstash_filter_elastic_integration_ray.stages.similarity import IvfIndex, knn_join

# the UDFs below are module-level: ship them to workers by value
ray.cloudpickle.register_pickle_by_value(sys.modules[__name__])

N = 200


def _ds(table: pa.Table, blocks: int):
    return ray.data.from_arrow(table).repartition(blocks)


def _rows(ds, cols) -> list:
    df = ds.to_pandas()
    return sorted(map(tuple, df[cols].itertuples(index=False, name=None)))


_KV = pa.table({
    "k": pa.array(np.arange(N) % 17, type=pa.int64()),
    "v": pa.array(np.arange(N), type=pa.int64()),
    "s": pa.array([f"s{i % 5}" for i in range(N)]),
})


def _sum_by_key(df: pd.DataFrame) -> pd.DataFrame:
    assert "__part" not in df.columns
    return df.groupby("k", as_index=False)["v"].sum()


@pytest.mark.parametrize("blocks", [1, 5])
@pytest.mark.parametrize("parts", [1, 3, 8])
def test_exchange_same_rows_any_partitioning(ray_session, parts, blocks):
    got = _rows(exchange(_ds(_KV, blocks), "k", parts, _sum_by_key, "pandas"), ["k", "v"])
    want = _rows(ray.data.from_pandas(_sum_by_key(_KV.to_pandas())), ["k", "v"])
    assert got == want


def test_exchange_string_key_pyarrow(ray_session):
    def count(t: pa.Table) -> pa.Table:
        assert t.column_names == ["k", "v", "s"]
        df = t.to_pandas().groupby("s", as_index=False).size()
        return pa.Table.from_pandas(df, preserve_index=False)

    got = _rows(exchange(_ds(_KV, 4), "s", 3, count, "pyarrow"), ["s", "size"])
    assert got == [(f"s{i}", N // 5) for i in range(5)]


def _operator_names(ds) -> set:
    """The operator names of an executed Dataset's stats, parents too."""
    names = set()
    todo = [ds._get_stats_summary()]
    while todo:
        s = todo.pop()
        names.add(s.base_name)
        todo += s.parents
    return names


@pytest.mark.parametrize("blocks", [64, 2])
def test_exchange_coalesces_only_more_blocks_than_partitions(ray_session, blocks):
    """``exchange`` adds its coalescing ``Repartition`` only when the
    plan holds more blocks than partitions; the rows are the same."""
    from tests.test_scheduling import _run_within

    step = -(-N // blocks)
    ds = ray.data.from_arrow([_KV.slice(i * step, step) for i in range(blocks)])
    out = _run_within(120, lambda: exchange(ds, "k", 4, _sum_by_key, "pandas").materialize())
    assert ("Repartition" in _operator_names(out)) == (blocks > 4)
    assert _rows(out, ["k", "v"]) == _rows(ray.data.from_pandas(_sum_by_key(_KV.to_pandas())), ["k", "v"])


#: more partitions than the session's 4 CPUs: each range block holds
#: two hash partitions
P8 = 8


def _parts_of(t: pa.Table, key: str) -> list:
    return add_partition_col(t.select([key]), P8, key=key).column("__part").to_pylist()


def _in_order(ds):
    """``ds`` with Ray's output order kept (its own context copy)."""
    ds.context.execution_options.preserve_order = True
    return ds


def _one_part(t: pa.Table, key: str):
    """The one hash partition of ``t``'s rows (None for no rows)."""
    parts = set(_parts_of(t, key))
    assert len(parts) <= 1, parts
    return parts.pop() if parts else None


@pytest.mark.parametrize("fmt", ["pandas", "pyarrow"])
def test_exchange_calls_fn_once_per_partition_in_order(ray_session, fmt):
    """P = 8 on 4 CPUs: ``fn`` runs exactly once per non-empty hash
    partition, sees that partition's rows only, and the outputs come
    in ``__part`` order."""
    def fn(b):
        t = b if isinstance(b, pa.Table) else pa.Table.from_pandas(b, preserve_index=False)
        return pa.table({"part": [_one_part(t, "k")], "rows": [t.num_rows]})

    out = exchange(_in_order(_ds(_KV, 5)), "k", P8, fn, fmt).to_pandas()
    sizes = np.bincount(_parts_of(_KV, "k"), minlength=P8)
    assert out["part"].tolist() == np.flatnonzero(sizes).tolist()
    assert out["rows"].tolist() == sizes[sizes > 0].tolist()


def test_exchange_formats_agree(ray_session):
    """``pandas`` and ``pyarrow`` runs of the same merge give the same
    rows in the same order."""
    def fn(b):
        df = b if isinstance(b, pd.DataFrame) else b.to_pandas()
        return df.sort_values("v").assign(first=df["v"].min())

    got = {fmt: exchange(_in_order(_ds(_KV, 3)), "s", P8, fn, fmt).to_pandas()
           for fmt in ("pandas", "pyarrow")}
    pd.testing.assert_frame_equal(got["pandas"], got["pyarrow"])
    assert sorted(got["pandas"]["v"]) == list(range(N))


def test_copartition_calls_fn_once_per_partition_in_order(ray_session):
    """Every partition reaches ``fn`` once, both sides holding only its
    rows, in ``__part`` order."""
    def fn(left: pa.Table, right: pa.Table) -> pa.Table:
        parts = {_one_part(left, "k"), _one_part(right, "key")} - {None}
        assert len(parts) <= 1, parts
        return pa.table({"part": pa.array([parts.pop() if parts else None], pa.int64()),
                         "left": [left.num_rows], "right": [right.num_rows]})

    out = copartition({"left": (_in_order(_ds(_KV.select(["k", "v"]), 5)), "k"),
                       "right": (_ds(_RIGHT, 2), "key")}, P8, fn, "pyarrow").to_pandas()
    assert len(out) == P8
    assert out["left"].tolist() == np.bincount(_parts_of(_KV, "k"), minlength=P8).tolist()
    assert out["right"].tolist() == np.bincount(_parts_of(_RIGHT, "key"), minlength=P8).tolist()
    assert out["part"].dropna().tolist() == sorted(set(out["part"].dropna()))


def test_cogroup_calls_fn_once_per_id_in_order(ray_session):
    def fn(left: pa.Table, right: pa.Table) -> pa.Table:
        ids = set(left.column("k").to_pylist()) | set(right.column("key").to_pylist())
        assert len(ids) == 1, ids
        return pa.table({"id": list(ids), "left": [left.num_rows]})

    out = cogroup({"left": (_in_order(_ds(_KV.select(["k", "v"]), 5)), "k"),
                   "right": (_ds(_RIGHT, 2), "key")}, 17, fn, "pyarrow").to_pandas()
    assert out["id"].tolist() == list(range(17))
    assert out["left"].tolist() == np.bincount(np.arange(N) % 17).tolist()


def test_range_blocks_sizing():
    """One range block per CPU, never more than the partitions or than
    the blocks the sort receives."""
    assert range_blocks(8, 8, 4) == 4
    assert range_blocks(2, 2, 4) == 2
    assert range_blocks(8, 8, 1) == 1
    assert range_blocks(8, 3, 4) == 3
    assert range_blocks(8, 1, 4) == 1
    assert range_blocks(64, 64, 16) == 16


@pytest.mark.parametrize("fmt", ["pandas", "pyarrow"])
def test_exchange_empty_range_blocks_are_typed(ray_session, fmt):
    """Keys that all hash into the first of the four ranges (P = 8 on 4
    CPUs, 4 input blocks): the three empty ranges still come out as
    blocks of ``fn``'s schema, so the output blocks concatenate, and
    ``fn`` still returns one row per non-empty partition."""
    cand = pa.table({"k": pa.array(np.arange(400), type=pa.int64())})
    keys = [k for k, p in zip(cand.column("k").to_pylist(), _parts_of(cand, "k")) if p < 2][:3]
    t = pa.table({"k": pa.array(np.repeat(keys, 8), type=pa.int64()),
                  "v": pa.array(np.arange(24), type=pa.int64())})

    def fn(b):
        t = b if isinstance(b, pa.Table) else pa.Table.from_pandas(b, preserve_index=False)
        return pa.table({"part": pa.array([_one_part(t, "k")], pa.int64()),
                         "v": pa.array([pc.sum(t.column("v")).as_py()], pa.int64())})

    out = exchange(_in_order(_ds(t, 4)), "k", P8, fn, fmt)
    got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert got.schema == pa.schema([("part", pa.int64()), ("v", pa.int64())])
    sums = np.bincount(_parts_of(t, "k"), weights=np.arange(24), minlength=P8)
    assert got.column("part").to_pylist() == sorted(set(_parts_of(t, "k")))
    assert got.column("v").to_pylist() == [int(sums[p]) for p in got.column("part").to_pylist()]


def _join_fn(left: pa.Table, right: pa.Table) -> pa.Table:
    assert left.column_names == ["k", "v"]
    assert right.column_names == ["key", "name"]
    r = right.sort_by("key")
    name = lookup(r.column("key").to_numpy(), np.asarray(r.column("name").to_pylist(), dtype=object),
                  left.column("k").to_numpy())
    return pa.table({"v": left.column("v"), "name": pa.array(name.tolist(), type=pa.string())})


_RIGHT = pa.table({"key": pa.array(np.arange(17), type=pa.int64()),
                   "name": pa.array([f"n{i}" for i in range(17)])})


@pytest.mark.parametrize("blocks", [1, 5])
@pytest.mark.parametrize("parts", [1, 3, 8])
def test_copartition_same_rows_any_partitioning(ray_session, parts, blocks):
    out = copartition({"left": (_ds(_KV.select(["k", "v"]), blocks), "k"),
                       "right": (_ds(_RIGHT, blocks), "key")},
                      parts, _join_fn, "pyarrow")
    got = _rows(out, ["v", "name"])
    assert got == sorted((v, f"n{v % 17}") for v in range(N))


def test_copartition_pandas_sides_keep_own_dtypes(ray_session):
    def fn(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
        # no widened union: an int side never turns float
        assert left["v"].dtype == np.int64 and right["key"].dtype == np.int64
        return pd.DataFrame({"n_left": [len(left)], "n_right": [len(right)]})

    out = copartition({"left": (_ds(_KV.select(["k", "v"]), 3), "k"),
                       "right": (_ds(_RIGHT, 2), "key")}, 4, fn, "pandas").to_pandas()
    assert out["n_left"].sum() == N and out["n_right"].sum() == 17


def test_copartition_empty_side_has_its_columns(ray_session):
    def fn(left: pa.Table, right: pa.Table) -> pa.Table:
        assert right.num_rows == 0 and right.schema == _RIGHT.schema
        return pa.table({"n": [left.num_rows]})

    empty = _RIGHT.slice(0, 0)
    out = copartition({"left": (_ds(_KV.select(["k", "v"]), 2), "k"),
                       "right": (ray.data.from_arrow(empty).materialize(), "key")},
                      3, fn, "pyarrow")
    assert int(out.sum("n")) == N
    # partitions the right side has no rows in, but other right rows do
    part_only = copartition({"left": (_ds(_KV.select(["k", "v"]), 2), "k"),
                             "right": (_ds(_RIGHT.slice(0, 1), 1), "key")}, 3,
                            lambda left, right: pa.table({"cols": [",".join(right.column_names)]}),
                            "pyarrow").to_pandas()
    assert set(part_only["cols"]) == {"key,name"}


@pytest.mark.parametrize("blocks", [1, 5])
def test_cogroup_one_id_per_call(ray_session, blocks):
    """Sides keyed by a ready group id meet per id, with no hashing:
    each call sees exactly one id, and every id in range gets a call."""
    groups = 17

    def fn(left: pa.Table, right: pa.Table) -> pa.Table:
        ids = set(left.column("k").to_pylist()) | set(right.column("key").to_pylist())
        assert len(ids) <= 1
        return pa.table({"left": [left.num_rows], "right": [right.num_rows]})

    out = cogroup({"left": (_ds(_KV.select(["k", "v"]), blocks), "k"),
                   "right": (_ds(_RIGHT, blocks), "key")}, groups, fn, "pyarrow").to_pandas()
    assert len(out) == groups
    assert sorted(out["left"]) == sorted(np.bincount(np.arange(N) % 17).tolist())
    assert out["right"].tolist() == [1] * groups


def test_range_join_chunked_matches_nested_loop(ray_session):
    """Intervals replicate into every chunk they overlap; a pair is
    emitted once, in the left row's own chunk."""
    rng = np.random.default_rng(3)
    xs = rng.integers(0, 1000, 300).astype(np.float64)
    lo = rng.integers(0, 1000, 40).astype(np.float64)
    hi = lo + rng.integers(0, 300, 40)
    left = pa.table({"x": xs, "lid": np.arange(300)})
    right = pa.table({"lo": lo, "hi": hi, "rid": np.arange(40)})
    schema = pa.schema([("lid", pa.int64()), ("rid", pa.int64()), ("x", pa.float64()),
                        ("lo", pa.float64()), ("hi", pa.float64())])
    out = range_join_chunked(_ds(left, 4), _ds(right, 3), on_left="x", lo_right="lo",
                             hi_right="hi", num_chunks=8, output_schema=schema)
    want = sorted((i, j) for i in range(300) for j in range(40) if lo[j] <= xs[i] <= hi[j])
    assert _rows(out, ["lid", "rid"]) == want


def test_knn_join_probing_every_bucket_is_exact(ray_session):
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(60, 6))
    index = IvfIndex(vecs, n_clusters=5)
    emb = pa.table({"vec_id": pa.array(np.arange(60), type=pa.int64()),
                    "embedding": pa.array(vecs.tolist(), type=pa.list_(pa.float64()))})
    queries = emb.rename_columns(["query_id", "embedding"])
    out = knn_join(_ds(queries, 3), _ds(emb, 2), index=index, k=3,
                   nprobe=len(index.centroids), exclude_self=True)
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    cos = unit @ unit.T
    np.fill_diagonal(cos, -np.inf)
    want = sorted((q, int(n), r + 1) for q in range(60)
                  for r, n in enumerate(np.lexsort((np.arange(60), -cos[q]))[:3]))
    assert _rows(out, ["query_id", "neighbor_id", "rank"]) == want


def _lazily_empty(table: pa.Table):
    """A side whose rows all drop in a map that is not yet executed:
    Ray runs no later map over its empty blocks, so the side reaches a
    co-partitioned merge without columns."""
    return ray.data.from_arrow(table).map_batches(
        lambda t: t.slice(0, 0), batch_format="pyarrow")


@pytest.mark.parametrize("join", ["semi", "anti", "bloom_semi", "bloom_anti"])
def test_semi_joins_of_an_empty_left(ray_session, join):
    left = _lazily_empty(_KV.select(["k", "v"]))
    right = ray.data.from_arrow(_RIGHT)
    fn = hash_semi_join_bloom if join.startswith("bloom") else hash_semi_join
    out = fn(left, right, left_key="k", right_key="key",
             anti=join.endswith("anti"), num_partitions=3)
    assert out.count() == 0


def test_lookup_hits_defaults_and_raises():
    keys = np.array([2, 5, 9], dtype=np.int64)
    vals = np.array([20, 50, 90], dtype=np.int64)
    assert lookup(keys, vals, np.array([9, 2])).tolist() == [90, 20]
    assert lookup(keys, vals, np.array([5, 6, 10]), default=0).tolist() == [50, 0, 0]
    old = np.array([-1, -2, -3])
    assert lookup(keys, vals, np.array([1, 5, 10]), default=old).tolist() == [-1, 50, -3]
    assert lookup(keys[:0], vals[:0], np.array([4]), default=7).tolist() == [7]
    with pytest.raises(KeyError):
        lookup(keys, vals, np.array([5, 6]))
    with pytest.raises(KeyError):
        lookup(keys, vals, np.array([10]))  # past the last key
    with pytest.raises(KeyError):
        lookup(keys[:0], vals[:0], np.array([1]))


def test_label_propagation_missing_label_raises():
    """A shard that receives a label message for a node it does not hold
    must fail, not hand that message to the next node id."""
    shard = graph._Shard(0, 1, graph._Lpa(2, None))
    shard.add("fwd", np.array([1, 2, 4]), np.array([2, 4, 1]))
    shard.add("fwd", np.array([2, 4, 1]), np.array([1, 2, 4]))
    assert shard.finalize(simple=True) == 3
    inbox = {"dst": np.array([2, 3]), "v": np.array([1, 1])}
    with pytest.raises(KeyError, match="not found"):
        shard.receive(inbox)


def test_hop_distances_of_an_empty_edge_set(ray_session):
    edges = _lazily_empty(pa.table({"src": pa.array([1], type=pa.int64()),
                                    "dst": pa.array([2], type=pa.int64())}))
    out = graph.hop_distances(edges, seeds=[7], num_partitions=3).to_pandas()
    assert out[["node", "dist"]].values.tolist() == [[7, 0]]
