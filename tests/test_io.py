"""``sources/io.py:read_parquet_clean`` reads through a footer-only
source: its tables equal ``ray.data.read_parquet`` with the same
metadata-free schema (rows, order, block count) on every layout the
package reads, and building the Dataset submits no Ray task."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean


def _table(n: int, seed: int) -> pa.Table:
    rng = np.random.default_rng(seed)
    return pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64) + 1000 * seed),
        "text": pa.array([f"t{seed}-{i}" if i % 7 else None for i in range(n)]),
        "score": pa.array(rng.random(n)),
        "tags": pa.array([[f"k{i % 3}"] * (i % 4) for i in range(n)], type=pa.list_(pa.string())),
        "ts": pa.array(np.datetime64("2024-01-01", "us") + np.arange(n).astype("timedelta64[s]")),
    })


def _ray_reference(path, columns=None, **kwargs):
    """``ray.data.read_parquet`` with the first file's schema minus its
    metadata, pruned to ``columns``: what ``read_parquet_clean`` was."""
    import ray.data as rd

    first = path if isinstance(path, str) else path[0]
    if os.path.isdir(first):
        first = sorted(
            os.path.join(root, f) for root, _, files in os.walk(first) for f in files if f.endswith(".parquet")
        )[0]
    schema = pq.read_schema(first).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return rd.read_parquet(path, schema=schema, columns=columns, **kwargs)


def _blocks(ds) -> list[pa.Table]:
    import ray

    return [ray.get(r) for r in ds.to_arrow_refs()]


def _in_order(ds):
    """``ds`` materialized with its blocks in read order (Ray's default
    hands them over as their tasks finish)."""
    ds.context.execution_options.preserve_order = True
    return ds.materialize()


def _assert_same(path, columns=None, **kwargs) -> pa.Table:
    got = _in_order(read_parquet_clean(path, columns=columns, **kwargs))
    want = _in_order(_ray_reference(path, columns, **kwargs))
    got_blocks, want_blocks = _blocks(got), _blocks(want)
    assert got.num_blocks() == want.num_blocks()
    assert [b.num_rows for b in got_blocks] == [b.num_rows for b in want_blocks]
    assert all(b.schema.metadata is None for b in got_blocks)
    table = pa.concat_tables(got_blocks)
    assert table.equals(pa.concat_tables(want_blocks))
    assert got.schema().base_schema == want.schema().base_schema
    return table


def _write_dir(d, tables, **kwargs) -> str:
    os.makedirs(d, exist_ok=True)
    for i, t in enumerate(tables):
        pq.write_table(t, os.path.join(d, f"part-{i:04d}.parquet"), **kwargs)
    return str(d)


def test_directory_of_eight_files(ray_session, tmp_path):
    # several row groups per file, so every task reads row group by row group
    d = _write_dir(tmp_path / "d", [_table(300 + 17 * i, i) for i in range(8)], row_group_size=64)
    table = _assert_same(d, override_num_blocks=8)
    assert table.num_rows == sum(300 + 17 * i for i in range(8))
    _assert_same(d)


def test_one_file_split_into_blocks(ray_session, tmp_path):
    path = str(tmp_path / "one.parquet")
    pq.write_table(_table(5000, 1), path, row_group_size=1000)
    _assert_same(path, override_num_blocks=8)
    assert read_parquet_clean(path, override_num_blocks=8).materialize().num_blocks() == 8
    _assert_same(path)


def test_list_of_paths_keeps_their_order(ray_session, tmp_path):
    d = _write_dir(tmp_path / "d", [_table(50, i) for i in range(4)])
    paths = [os.path.join(d, f"part-{i:04d}.parquet") for i in (2, 0, 3)]
    table = _assert_same(paths)
    assert table.column("id").to_pylist()[:1] == [2000]


def test_columns_are_projected_in_the_given_order(ray_session, tmp_path):
    d = _write_dir(tmp_path / "d", [_table(120, i) for i in range(3)])
    table = _assert_same(d, columns=["ts", "id"], override_num_blocks=3)
    assert table.column_names == ["ts", "id"]


def test_pandas_written_files_lose_their_metadata(ray_session, tmp_path):
    d = tmp_path / "pd"
    os.makedirs(d)
    for i in range(3):
        df = pd.DataFrame({"a": np.arange(10) + 10 * i, "b": [f"v{j}" for j in range(10)]}, index=np.arange(10) * 3)
        df.to_parquet(d / f"f{i}.parquet")
    assert pq.read_schema(d / "f0.parquet").metadata
    table = _assert_same(str(d))
    assert "__index_level_0__" in table.column_names
    _assert_same(str(d), columns=["b"])


def test_bucket_layout_of_incremental_dedup(ray_session, tmp_path):
    """The ``bucket=`` hive layout ``stages/incremental.py`` writes and
    reads back by its ``content_hash`` column."""
    import ray.data as rd

    from logstash_filter_elastic_integration_ray.stages.incremental import _bucket_rows_fn

    hashes = rd.from_arrow(pa.table({"content_hash": pa.array([f"{i:032x}" for i in range(400)])}))
    layout = str(tmp_path / "hashes")
    hashes.map_batches(_bucket_rows_fn(8), batch_format="pyarrow").write_parquet(layout, partition_cols=["bucket"])
    table = _assert_same(layout, columns=["content_hash"])
    assert sorted(table.column("content_hash").to_pylist()) == [f"{i:032x}" for i in range(400)]


def test_directory_without_parquet_files_raises(tmp_path):
    os.makedirs(tmp_path / "empty")
    with pytest.raises(FileNotFoundError):
        read_parquet_clean(str(tmp_path / "empty"))


def test_building_the_dataset_submits_no_task(ray_session, tmp_path, monkeypatch):
    import ray.data as rd
    from ray.remote_function import RemoteFunction

    d = _write_dir(tmp_path / "d", [_table(40, i) for i in range(4)])
    calls = []
    submit = RemoteFunction._remote

    def counting(self, *args, **kwargs):
        calls.append(self)
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", counting)
    read_parquet_clean(d)
    assert calls == []
    rd.read_parquet(d)  # Ray's reader samples its files in tasks: the count sees them
    assert calls


def test_files_whose_schemas_differ_take_the_first_files(ray_session, tmp_path):
    """A later file's narrower type is cast and its missing column is
    null, as Arrow's scan under an explicit schema does."""
    d = tmp_path / "mixed"
    os.makedirs(d)
    pq.write_table(pa.table({"a": pa.array([1, 2], pa.int64()), "b": ["x", "y"]}), d / "f0.parquet")
    pq.write_table(pa.table({"a": pa.array([3], pa.int32())}), d / "f1.parquet")
    table = _assert_same(str(d))
    assert table.to_pydict() == {"a": [1, 2, 3], "b": ["x", "y", None]}
