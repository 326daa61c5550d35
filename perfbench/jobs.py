"""The Ray side of the benchmark: cluster start, the workload jobs and
their correctness checks.

Every job reads the generated Parquet and goes through the package's
public stage functions, exactly as a pipeline user composes them:

- ``flagship`` and ``conv_agg_interleaved``: ``read_parquet_clean`` →
  ``assign_datastream`` → ``build_event_processor()`` →
  ``make_enrich_fn`` → ``conv_stats``; the result rows come back to the
  driver and must equal the expected ``conv_stats`` rows.
- ``route_fanout``: ``read_parquet_clean`` → ``assign_datastream`` →
  ``build_event_processor()`` → ``fanout_write`` into a fresh directory;
  the rows per sink must equal the expected per-sink counts.

``conv_stats`` reads only columns the parse, route and enrich stages
leave alone, so the output of those stages is checked by one more job
per run (``check_outputs``): its ``expect.py`` summary must equal the
one worked out from the input rows.
"""

from __future__ import annotations

import itertools
import logging
import os
import shutil

import pyarrow as pa

import expect
import gen

PACKAGE = "logstash_filter_elastic_integration_ray"

#: AF_UNIX socket paths are limited to 107 bytes, and Ray puts its
#: sockets at ``<temp dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store``
_SOCKET_SUFFIX_LEN = len("/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store")
_MAX_SOCKET_PATH = 107

#: Ray's object store; the largest exchange moves about 40 MB through it
OBJECT_STORE_BYTES = 512 * 1024 * 1024

#: this benchmark's directory; Ray workers import ``expect`` from it
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def checkout_root() -> str:
    """The checkout this benchmark file belongs to (whatever the cwd)."""
    return os.path.dirname(BENCH_DIR)


def cache_root(root: str) -> str:
    return os.path.join(root, ".bench_cache")


def out_root(root: str) -> str:
    """Where jobs write their fan-out output."""
    return os.path.join(cache_root(root), "out")


def cpus() -> int:
    return len(os.sched_getaffinity(0))


def ray_temp_dir(root: str) -> str | None:
    """Ray's session directory inside the checkout, or ``None`` (Ray's
    default) when the checkout path is too long for Ray's sockets."""
    path = os.path.join(cache_root(root), "ray")
    return path if len(path) + _SOCKET_SUFFIX_LEN <= _MAX_SOCKET_PATH else None


def remove_leftovers(root: str) -> None:
    """Drop Ray's session directory and the fan-out output once every
    process of a run has ended."""
    for path in (ray_temp_dir(root), out_root(root)):
        if path:
            shutil.rmtree(path, ignore_errors=True)


def start_ray(root: str) -> None:
    """A fresh local cluster sized to this process's CPU affinity.

    The workers import the package from ``root`` (and ``expect`` from
    ``BENCH_DIR``) through ``PYTHONPATH`` in the job's ``runtime_env``:
    without it a driver started outside the checkout root loses every
    task to ``ModuleNotFoundError``."""
    import ray
    from ray.data import DataContext

    pythonpath = os.pathsep.join([root, BENCH_DIR] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    ray.init(
        address="local",
        num_cpus=cpus(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        runtime_env={"env_vars": {"PYTHONPATH": pythonpath}},
        _temp_dir=ray_temp_dir(root),
    )
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


class Jobs:
    """What every job of one cluster shares: the compiled
    ``EventProcessor`` and the broadcast enrich lookup.  Building it is
    part of set-up, like ``ray.init``."""

    def __init__(self, inp: gen.Input):
        from logstash_filter_elastic_integration_ray.pipelines.flagship import build_event_processor
        from logstash_filter_elastic_integration_ray.state.lookups import INTEGRATIONS_LOOKUP, broadcast

        self.inp = inp
        self.proc = build_event_processor()
        self.lookup_ref = broadcast(INTEGRATIONS_LOOKUP)
        #: merge partitions: ``bench.py``'s 2 per CPU, but at least 4 so a
        #: 1-CPU box still shows how the exchange spreads the partials
        self.partitions = max(4, 2 * cpus())
        if inp.workload == "route_fanout":
            self.expected = expect.sink_counts(inp.expected_summary())
        else:
            self.expected = inp.expected_conv_stats()
        self._out_root = out_root(checkout_root())
        self._out_ids = itertools.count()

    def parsed(self):
        from logstash_filter_elastic_integration_ray.pipelines.flagship import assign_datastream
        from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean

        return (
            read_parquet_clean(self.inp.data_dir, override_num_blocks=gen.FILES)
            .map_batches(assign_datastream, batch_format="pyarrow")
            .map_batches(self.proc, batch_format="pyarrow", batch_size=gen.BATCH_SIZE)
        )

    def enriched(self):
        from logstash_filter_elastic_integration_ray.stages.enrich import make_enrich_fn

        return self.parsed().map_batches(make_enrich_fn(self.lookup_ref), batch_format="pyarrow")

    def conv_stats(self):
        """(the result rows, the executed Dataset for its stats)."""
        from logstash_filter_elastic_integration_ray.stages.aggregate import conv_stats

        ds = conv_stats(self.enriched(), num_partitions=self.partitions)
        blocks = [b for b in ds.iter_batches(batch_format="pyarrow", batch_size=None) if b.num_rows]
        return pa.concat_tables(blocks), ds

    def fresh_out_dir(self) -> str:
        """A directory no job wrote before: ``write_parquet`` into an
        existing one appends files and would double the counts."""
        path = os.path.join(self._out_root, f"{os.getpid()}-{next(self._out_ids)}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def fanout(self) -> str:
        from logstash_filter_elastic_integration_ray.stages.sinks import fanout_write

        return fanout_write(self.parsed(), self.fresh_out_dir())

    def run(self):
        """One job of this workload; returns what ``check`` takes."""
        if self.inp.workload == "route_fanout":
            return self.fanout()
        return self.conv_stats()[0]

    def check(self, result) -> bool:
        """Does ``result`` equal the expected answer?  Removes a fan-out
        directory once counted."""
        if self.inp.workload == "route_fanout":
            from logstash_filter_elastic_integration_ray.stages.sinks import sink_counts_from_dir

            try:
                return sink_counts_from_dir(result) == self.expected
            finally:
                shutil.rmtree(result, ignore_errors=True)
        return gen.normalize_conv_stats(result).equals(self.expected)

    def check_outputs(self) -> str | None:
        """One extra job over the parsed, routed and enriched rows: ``None``
        when their summary is the expected one, else what differs."""
        ds = self.enriched().map_batches(expect.output_summary, batch_format="pyarrow", batch_size=None)
        got = expect.add_summaries(ds.iter_batches(batch_format="pyarrow", batch_size=None))
        want = self.inp.expected_summary()
        diff = {k: (got.get(k), want.get(k)) for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)}
        return f"output summary differs (got, expected): {diff}" if diff else None


def process_tree_vmhwm_mb(pid: int) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pid`` and all its
    descendants, in MiB, read from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:  # the process ended while we listed
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    total_kb = 0
    todo = [pid]
    while todo:
        p = todo.pop()
        todo.extend(children.get(p, []))
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024
