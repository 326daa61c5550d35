"""Ray-free time per processor tag of the flagship ``EventProcessor``.

Reads a perfbench input (``.bench_cache/inputs/<workload>-s<seed>-...``,
or its ``data/`` directory), cuts it into the batches a Ray job sees
(``perfbench/gen.py:batches``), runs ``assign_datastream`` and then the
flagship ``EventProcessor`` over them in this process, and prints, per
processor, the calls, the rows its kernel was handed (the step's mask
after its condition), how many of those the per-row path parsed
(``functions/base.py:row_results``, where a parse kernel's Arrow path
leaves a row), and the seconds spent in its condition and in its
kernel.  A ``pipeline`` step's seconds include the steps of the pipeline
it calls.  The last line is the whole ``EventProcessor`` over all
batches.  Each figure is the best of ``--repeat`` passes.

Usage: python tools/profile_executor.py <input dir> [--repeat N]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import defaultdict

import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))


def _steps(pipelines):
    """(pipeline id, step) of every step, on_failure handlers included."""

    def walk(pid, steps):
        for s in steps or ():
            yield pid, s
            yield from walk(pid, s.on_failure)

    for pid, pipe in pipelines.items():
        yield from walk(pid, pipe.steps)
        yield from walk(pid, pipe.on_failure)


def _label(pid, step) -> str:
    if step.tag:
        return step.tag
    if step.ptype == "pipeline":
        return f"{pid} → pipeline {step.kernel.name}"
    return f"{pid} → {step.ptype}"


def instrument(proc) -> dict:
    """Wrap every step's condition and kernel of ``proc`` with timers,
    and the per-row parse path with a row count; returns the dict they
    add to: label → [calls, rows, cond_s, apply_s, per-row rows]."""
    from logstash_filter_elastic_integration_ray.functions import base

    stats: dict = defaultdict(lambda: [0, 0, 0.0, 0.0, 0])
    pipeline_calls = {}
    applying: list = []  # label of the kernel running now
    row_results = getattr(base.row_results, "__wrapped__", base.row_results)

    def counted_rows(kernel, values, fn):
        stats[applying[-1]][4] += len(values)
        return row_results(kernel, values, fn)

    counted_rows.__wrapped__ = row_results
    base.row_results = counted_rows

    for pid, step in _steps(proc.pipelines):
        label = _label(pid, step)
        if step.condition is not None:
            cond = step.condition

            def timed_cond(batch, _eval=cond.evaluate, _label=label):
                t0 = time.perf_counter()
                try:
                    return _eval(batch)
                finally:
                    stats[_label][2] += time.perf_counter() - t0

            cond.evaluate = timed_cond
        if step.ptype == "pipeline":
            pipeline_calls[id(step)] = label
            continue
        kernel = step.kernel

        def timed_apply(batch, mask, state, _apply=kernel.apply, _label=label):
            applying.append(_label)
            t0 = time.perf_counter()
            try:
                return _apply(batch, mask, state)
            finally:
                applying.pop()
                s = stats[_label]
                s[0] += 1
                s[1] += int(mask.sum())
                s[3] += time.perf_counter() - t0

        kernel.apply = timed_apply

    call = proc._run_pipeline_call

    def timed_call(step, batch, active, state, stack, failed_here):
        t0 = time.perf_counter()
        try:
            return call(step, batch, active, state, stack, failed_here)
        finally:
            s = stats[pipeline_calls[id(step)]]
            s[0] += 1
            s[1] += int(active.sum())
            s[3] += time.perf_counter() - t0

    proc._run_pipeline_call = timed_call
    return stats


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("input_dir")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)

    import gen
    from logstash_filter_elastic_integration_ray.pipelines.flagship import (
        assign_datastream,
        build_event_processor,
    )

    data_dir = args.input_dir
    if os.path.isdir(os.path.join(data_dir, "data")):
        data_dir = os.path.join(data_dir, "data")
    files = sorted(os.path.join(data_dir, f) for f in os.listdir(data_dir) if f.endswith(".parquet"))
    batches = [assign_datastream(b) for b in gen.batches([pq.read_table(f) for f in files])]
    rows = sum(b.num_rows for b in batches)

    best: dict = {}
    best_total = float("inf")
    for _ in range(max(1, args.repeat)):
        proc = build_event_processor()
        stats = instrument(proc)
        t0 = time.perf_counter()
        for b in batches:
            proc(b)
        best_total = min(best_total, time.perf_counter() - t0)
        for label, (calls, n, cond_s, apply_s, per_row) in stats.items():
            prev = best.get(label)
            if prev is None:
                best[label] = [calls, n, cond_s, apply_s, per_row]
            else:
                prev[2] = min(prev[2], cond_s)
                prev[3] = min(prev[3], apply_s)

    print(f"{len(batches)} batches, {rows} rows, best of {args.repeat}")
    print(f"{'processor':<52} {'calls':>6} {'rows in':>8} {'per row':>8} {'if s':>8} {'apply s':>8}")
    for label, (calls, n, cond_s, apply_s, per_row) in best.items():
        print(f"{label:<52} {calls:>6} {n:>8} {per_row:>8} {cond_s:>8.3f} {apply_s:>8.3f}")
    print(f"{'EventProcessor total':<52} {'':>6} {rows:>8} {'':>8} {'':>8} {best_total:>8.3f}")


if __name__ == "__main__":
    main()
