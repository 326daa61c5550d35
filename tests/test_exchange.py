"""The exchange primitive (stages/exchange.py): ``exchange`` and
``copartition`` return the same rows under any partition count and
block layout, an empty side keeps its columns, and ``lookup`` fails
loudly on a key that co-partitioning should have co-located."""

from __future__ import annotations

import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray

from logstash_filter_elastic_integration_ray.stages import graph
from logstash_filter_elastic_integration_ray.stages.exchange import (
    cogroup,
    copartition,
    exchange,
    lookup,
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


def test_label_propagation_missing_label_raises(ray_session, monkeypatch):
    """A labels side that lost a node must fail the message join, not
    hand that node's neighbours the label of the next node id."""
    real = graph._initial_labels

    def drop_node_3(edges2, num_partitions):
        return real(edges2, num_partitions).filter(lambda r: r["node"] != 3)

    monkeypatch.setattr(graph, "_initial_labels", drop_node_3)
    edges = ray.data.from_arrow(pa.table({
        "src": pa.array([1, 2, 3, 4], type=pa.int64()),
        "dst": pa.array([2, 3, 4, 5], type=pa.int64()),
    }))
    with pytest.raises(Exception, match="not found"):
        graph.label_propagation(edges, n_iters=2, num_partitions=2).to_pandas()


def test_hop_distances_of_an_empty_edge_set(ray_session):
    edges = _lazily_empty(pa.table({"src": pa.array([1], type=pa.int64()),
                                    "dst": pa.array([2], type=pa.int64())}))
    out = graph.hop_distances(edges, seeds=[7], num_partitions=3).to_pandas()
    assert out[["node", "dist"]].values.tolist() == [[7, 0]]
