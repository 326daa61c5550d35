"""The engine's Ray Data scheduling policy (``sources.io.engine_plan``):
every Dataset the package creates lets each operator use the whole box,
so a kernel stage runs tasks side by side, actor pools still finish, and
Datasets built outside the package keep Ray's defaults."""

import os
import threading
import time

import pyarrow as pa
import pyarrow.parquet as pq

from logstash_filter_elastic_integration_ray.sources.transcripts import synthesize_skewed_transcripts

FILES = 8


def _write_files(table: pa.Table, out_dir: str, files: int = FILES) -> str:
    os.makedirs(out_dir)
    step = -(-table.num_rows // files)
    for i in range(files):
        pq.write_table(table.slice(i * step, step), os.path.join(out_dir, f"part-{i:02d}.parquet"))
    return out_dir


def _transcripts_dir(tmp_path) -> tuple[pa.Table, str]:
    t = synthesize_skewed_transcripts(2000, n_convs=200)
    return t, _write_files(t, str(tmp_path / "transcripts"))


def _sorted(df):
    return df.sort_values("conv_id").reset_index(drop=True)


def _run_within(seconds: float, fn):
    """``fn()``'s result, failing the test if it has not returned after
    ``seconds`` (a hung plan leaves only a daemon thread behind)."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as e:  # re-raised in the test's thread
            out["error"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(seconds)
    assert not th.is_alive(), f"plan did not finish within {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_kernel_stage_runs_tasks_side_by_side(ray_session, tmp_path):
    """Under Ray Data's per-operator reservation the kernel stage of a
    ``conv_stats`` plan gets one CPU of the four and runs its batches
    one after another; under the engine's policy at least two overlap."""
    from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean
    from logstash_filter_elastic_integration_ray.stages.aggregate import conv_stats, conv_stats_reference

    t, in_dir = _transcripts_dir(tmp_path)
    calls_dir = str(tmp_path / "calls")
    os.makedirs(calls_dir)

    def kernel(batch: pa.Table) -> pa.Table:
        start = time.time()
        time.sleep(0.3)
        end = time.time()
        with open(os.path.join(calls_dir, f"{os.getpid()}-{start!r}"), "w") as f:
            f.write(f"{os.getpid()} {start!r} {end!r}")
        return batch

    ds = read_parquet_clean(in_dir, override_num_blocks=FILES).map_batches(
        kernel, batch_format="pyarrow", batch_size=128)
    mine = _sorted(conv_stats(ds, num_partitions=4).to_pandas())
    assert mine["n_turns"].tolist() == _sorted(conv_stats_reference(t))["n_turns"].tolist()

    calls = []
    for name in os.listdir(calls_dir):
        with open(os.path.join(calls_dir, name)) as f:
            pid, start, end = f.read().split()
        calls.append((float(start), float(end), int(pid)))
    calls.sort()
    assert len(calls) >= FILES
    overlapping = [(a, b) for i, a in enumerate(calls) for b in calls[i + 1:] if b[0] < a[1]]
    assert overlapping, f"every kernel call ran alone: {calls}"


def test_every_package_dataset_carries_the_policy(ray_session, tmp_path):
    """Each public reader in ``sources/`` returns a Dataset under the
    policy; a Dataset built outside the package, and the process-wide
    ``DataContext``, keep Ray's default."""
    import ray.data as rd
    from ray.data import DataContext

    from logstash_filter_elastic_integration_ray.sources.avrosrc import read_avro, write_avro
    from logstash_filter_elastic_integration_ray.sources.csvsrc import read_csv, write_csv
    from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean
    from logstash_filter_elastic_integration_ray.sources.ipcsrc import read_ipc, write_ipc
    from logstash_filter_elastic_integration_ray.sources.jsonl import (
        read_jsonl,
        read_jsonl_gz,
        read_jsonl_zst,
        write_jsonl,
        write_jsonl_gz,
        write_jsonl_zst,
    )
    from logstash_filter_elastic_integration_ray.sources.orcsrc import read_orc, write_orc
    from logstash_filter_elastic_integration_ray.sources.tfrecordsrc import read_tfrecord, write_tfrecord
    from logstash_filter_elastic_integration_ray.sources.transcripts import read_transcripts

    default = DataContext.get_current().op_resource_reservation_enabled
    assert default is True
    tiny = pa.table({"a": pa.array([1, 2, 3], type=pa.int64()), "s": ["x", "y", None]})
    user_ds = rd.from_arrow(tiny)
    assert user_ds.context.op_resource_reservation_enabled is default

    events = pa.table({"event_id": pa.array([1], type=pa.int64()),
                       "ts": pa.array([0], type=pa.timestamp("us")),
                       "user_id": pa.array([7], type=pa.int64()),
                       "event_type": ["message"], "props": ["{}"]})
    events_dir = tmp_path / "sf"
    events_dir.mkdir()
    pq.write_table(events, str(events_dir / "events.parquet"))
    readers = {
        "parquet": read_parquet_clean(_write_files(tiny, str(tmp_path / "pq"), 1)),
        "transcripts": read_transcripts(str(events_dir)),
    }
    for name, write, read in [
        ("csv", write_csv, read_csv),
        ("jsonl", write_jsonl, read_jsonl),
        ("jsonl_gz", write_jsonl_gz, read_jsonl_gz),
        ("jsonl_zst", write_jsonl_zst, read_jsonl_zst),
        ("ipc", write_ipc, read_ipc),
        ("orc", write_orc, read_orc),
        ("avro", write_avro, read_avro),
        ("tfrecord", write_tfrecord, read_tfrecord),
    ]:
        readers[name] = read(write(user_ds, str(tmp_path / name)))
    for name, ds in readers.items():
        assert ds.context.op_resource_reservation_enabled is False, name
        # a derived plan and a union led by it share the policy
        assert ds.map_batches(lambda b: b).context.op_resource_reservation_enabled is False, name
    assert readers["parquet"].union(user_ds).context.op_resource_reservation_enabled is False
    assert sorted(readers["csv"].to_pandas()["a"].tolist()) == [1, 2, 3]
    assert DataContext.get_current().op_resource_reservation_enabled is default
    assert user_ds.context.op_resource_reservation_enabled is default


def test_enrich_actor_pool_in_exchange_plan_finishes(ray_session, tmp_path):
    """The actor-pool enrich stage (``concurrency=(2, 8)``, one CPU per
    actor) inside a plan with an exchange, on a Dataset under the
    policy, neither starves nor hangs, and its ``conv_stats`` equals the
    task-based enrich path's."""
    from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean
    from logstash_filter_elastic_integration_ray.stages.aggregate import conv_stats, conv_stats_reference
    from logstash_filter_elastic_integration_ray.stages.enrich import enrich_stage, make_enrich_fn
    from logstash_filter_elastic_integration_ray.state.lookups import INTEGRATIONS_LOOKUP, broadcast

    t, in_dir = _transcripts_dir(tmp_path)
    ref = broadcast(INTEGRATIONS_LOOKUP)

    def source():
        return read_parquet_clean(in_dir, override_num_blocks=FILES)

    actor = _run_within(240, lambda: _sorted(conv_stats(
        enrich_stage(source(), ref, batch_size=64), num_partitions=4).to_pandas()))
    function = _sorted(conv_stats(
        source().map_batches(make_enrich_fn(ref), batch_format="pyarrow", batch_size=64),
        num_partitions=4).to_pandas())
    expected = _sorted(conv_stats_reference(t))
    for col in ["conv_id", "n_turns", "n_tool_calls", "first_text", "last_text", "ordered_hash"]:
        assert actor[col].tolist() == function[col].tolist() == expected[col].tolist(), col
