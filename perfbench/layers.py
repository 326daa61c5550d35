"""The traced run: per-layer numbers, each measured from outside its
layer by timing calls into the layer's public functions.

A Ray-free pass runs every kernel in this process over the same read
blocks and ``BATCH_SIZE`` batches a Ray job sees, in job order:

    read (pyarrow, one file = one block) → ``assign_datastream`` →
    ``EventProcessor`` → ``make_enrich_fn`` → ``conv_partial_batch`` +
    ``add_partition_col`` → the per-partition merge of ``conv_stats``

Its sum over the layers a workload's job uses is the single-process
baseline.  The Ray side then times warm jobs of the workload, reads
the exchange operators from one ``conv_stats`` job's Ray Data stats, and
times ``fanout_write`` over the Ray-free ``EventProcessor`` output.
"""

from __future__ import annotations

import os
import re
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import expect
import gen
import jobs as jobs_mod

#: warm Ray jobs timed for ``ray.overhead_s`` (their median is used)
RAY_JOBS = 3

#: the Ray-free layers each workload's job runs, in job order
JOB_LAYERS = {
    "conv_stats": ["sources.read_s", "flagship.assign_s", "executor.self_s", "enrich.self_s",
                   "aggregate.partial_s", "aggregate.merge_s"],
    "route_fanout": ["sources.read_s", "flagship.assign_s", "executor.self_s", "sinks.write_s"],
}

#: the Ray Data operators that make up ``conv_stats``' exchange
EXCHANGE_OPS = ("Repartition", "Sort")


def _timed(spans: dict, name: str, fn, items: list) -> list:
    t0 = time.perf_counter()
    out = [fn(x) for x in items]
    spans[name] = time.perf_counter() - t0
    return out


def _count(mask) -> int:
    return pc.sum(pc.fill_null(mask, False).cast(pa.int64())).as_py() or 0


def routing_counts(assigned: list[pa.Table], processed: list[pa.Table]) -> dict:
    """Rerouted, failed and unrouted rows, from the ``EventProcessor``
    output's ``__meta_index`` and ``__meta_failure_*`` columns.  A row
    is rerouted when its final index differs from the one its
    ``data_stream.*`` columns named on the way in."""
    from logstash_filter_elastic_integration_ray.model import (
        META_FAILURE_MESSAGE,
        META_FAILURE_TAG,
        META_INDEX,
    )

    rerouted = failed = unrouted = 0
    for before, after in zip(assigned, processed):
        if before.num_rows != after.num_rows:
            raise RuntimeError("EventProcessor dropped rows; rerouted rows cannot be aligned")
        if META_INDEX not in after.column_names:
            unrouted += after.num_rows
        else:
            index = after[META_INDEX]
            start = pc.binary_join_element_wise(
                before["data_stream.type"], before["data_stream.dataset"], before["data_stream.namespace"], "-"
            )
            unrouted += index.null_count
            rerouted += _count(pc.not_equal(index, start))
        fail_cols = [c for c in (META_FAILURE_MESSAGE, META_FAILURE_TAG) if c in after.column_names]
        if fail_cols:
            mask = pc.is_valid(after[fail_cols[0]])
            for c in fail_cols[1:]:
                mask = pc.or_(mask, pc.is_valid(after[c]))
            failed += _count(mask)
    return {"executor.rerouted_rows": rerouted, "executor.failed_rows": failed,
            "executor.unrouted_rows": unrouted}


def kernel_pass(inp: gen.Input, partitions: int) -> tuple[dict, list[pa.Table]]:
    """Every layer's kernel once, Ray-free; (metrics, EventProcessor output)."""
    from logstash_filter_elastic_integration_ray.pipelines.flagship import (
        assign_datastream,
        build_event_processor,
    )
    from logstash_filter_elastic_integration_ray.stages import aggregate
    from logstash_filter_elastic_integration_ray.stages.enrich import make_enrich_fn
    from logstash_filter_elastic_integration_ray.state.lookups import INTEGRATIONS_LOOKUP

    files = sorted(os.path.join(inp.data_dir, f) for f in os.listdir(inp.data_dir))
    proc = build_event_processor()
    enrich = make_enrich_fn(INTEGRATIONS_LOOKUP)
    spans: dict[str, float] = {}

    blocks = _timed(spans, "sources.read_s", pq.read_table, files)
    batches = gen.batches(blocks)
    assigned = _timed(spans, "flagship.assign_s", assign_datastream, batches)
    processed = _timed(spans, "executor.self_s", proc, assigned)
    enriched = _timed(spans, "enrich.self_s", enrich, processed)
    partials = _timed(
        spans, "aggregate.partial_s",
        lambda b: aggregate.add_partition_col(aggregate.conv_partial_batch(b), partitions), enriched,
    )
    # the exchange itself is Ray's; here each partition's partials are
    # simply gathered before the timed merge
    gathered = pa.concat_tables(partials)
    groups = [gathered.filter(pc.equal(gathered["__part"], p)) for p in range(partitions)]
    merged = _timed(spans, "aggregate.merge_s",
                    lambda g: aggregate._merge_partition(g.to_pandas()), [g for g in groups if g.num_rows])

    turns = sum(b.num_rows for b in batches)
    keys = pa.chunked_array(
        [pc.binary_join_element_wise(pc.fill_null(b["role"], ""), pc.fill_null(b["tool"], ""), "\x1f")
         for b in batches]
    )
    metrics = {
        **spans,
        "executor.rows_per_s": turns / spans["executor.self_s"],
        **routing_counts(assigned, processed),
        "enrich.distinct_keys": pc.count_distinct(keys).as_py(),
        "aggregate.collapse_ratio": gathered.num_rows / turns,
        "aggregate.groups_out": sum(m.num_rows for m in merged),
    }
    return metrics, processed


def _summaries(summary):
    """A Dataset's stats summary and all its parents'."""
    yield summary
    for parent in summary.parents:
        yield from _summaries(parent)


def _tasks(op) -> int:
    m = re.search(r"(\d+) tasks executed", op.block_execution_summary_str)
    return int(m.group(1)) if m else 0


def exchange_stats(ds) -> dict:
    """The exchange and task counts of one executed ``conv_stats``
    Dataset, from Ray Data's own stats.  Rows and bytes are those each
    exchange stage's reduce side output, summed over both stages; the
    block skew is over the blocks the merge receives."""
    secs = rows = nbytes = tasks = 0
    merge_blocks = None
    for s in _summaries(ds._get_stats_summary()):
        for op in s.operators_stats:
            tasks += _tasks(op)
        if s.base_name not in EXCHANGE_OPS:
            continue
        # an all-to-all operator starts once all its input is in
        secs += max(op.latest_end_time for op in s.operators_stats) - min(
            op.earliest_start_time for op in s.operators_stats)
        reduce_op = s.operators_stats[-1]
        rows += reduce_op.output_num_rows["sum"]
        nbytes += reduce_op.output_size_bytes["sum"]
        if s.base_name == "Sort":
            merge_blocks = reduce_op.output_num_rows
    if merge_blocks is None:
        raise RuntimeError(f"no {EXCHANGE_OPS} operators in the conv_stats stats")
    return {
        "exchange.s": secs,
        "exchange.rows": rows,
        "exchange.bytes": nbytes,
        "exchange.block_skew": merge_blocks["max"] / merge_blocks["mean"],
        "ray.tasks": tasks,
    }


def dir_size(path: str) -> tuple[int, int]:
    """(bytes, Parquet files) under ``path``."""
    nbytes = files = 0
    for root, _, names in os.walk(path):
        for n in names:
            if n.endswith(".parquet"):
                files += 1
                nbytes += os.path.getsize(os.path.join(root, n))
    return nbytes, files


def ray_pass(jobs: jobs_mod.Jobs, processed: list[pa.Table], emit) -> dict:
    """Warm Ray jobs of the workload, one ``conv_stats`` job's exchange
    stats and one timed ``fanout_write``; every job is checked."""
    import ray.data as rd
    from logstash_filter_elastic_integration_ray.stages.sinks import fanout_write, sink_counts_from_dir

    def checked(name, fn):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        ok = jobs.check(result[0] if isinstance(result, tuple) else result)
        emit({"event": "job", "name": name, "s": dt, "ok": ok})
        return dt, result

    checked("cold", jobs.run)
    conv_job = jobs.inp.workload != "route_fanout"
    times, last = [], None
    for _ in range(RAY_JOBS):
        dt, last = checked("warm", jobs.conv_stats if conv_job else jobs.run)
        times.append(dt)
    if conv_job:
        stats_ds = last[1]
    else:  # route_fanout's job has no exchange: probe one conv_stats job
        t0 = time.perf_counter()
        table, stats_ds = jobs.conv_stats()
        dt = time.perf_counter() - t0
        ok = gen.normalize_conv_stats(table).equals(jobs.inp.expected_conv_stats())
        emit({"event": "job", "name": "exchange-probe", "s": dt, "ok": ok})
    metrics = {"ray.job_s": statistics.median(times), **exchange_stats(stats_ds)}

    out = jobs.fresh_out_dir()
    expected_sinks = expect.sink_counts(jobs.inp.expected_summary())
    t0 = time.perf_counter()
    fanout_write(rd.from_arrow(processed), out)
    metrics["sinks.write_s"] = time.perf_counter() - t0
    ok = sink_counts_from_dir(out) == expected_sinks
    emit({"event": "job", "name": "sink-probe", "s": metrics["sinks.write_s"], "ok": ok})
    metrics["sinks.bytes_written"], metrics["sinks.files"] = dir_size(out)
    return metrics


def traced_metrics(jobs: jobs_mod.Jobs, emit) -> dict:
    """All per-layer metrics of one workload (the cluster is running)."""
    kernels, processed = kernel_pass(jobs.inp, jobs.partitions)
    ray_side = ray_pass(jobs, processed, emit)
    metrics = {**kernels, **ray_side}
    layers = JOB_LAYERS["route_fanout" if jobs.inp.workload == "route_fanout" else "conv_stats"]
    kernel_s = sum(metrics[name] for name in layers)
    metrics["baseline.turns_per_s"] = jobs.inp.turns / kernel_s
    # what the job takes beyond its kernels spread perfectly over the
    # cluster's CPUs (on one CPU: the job time minus the kernel sum)
    metrics["ray.overhead_s"] = metrics["ray.job_s"] - kernel_s / jobs_mod.cpus()
    return metrics
