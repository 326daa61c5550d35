"""The Ray driver of one benchmark run, started by ``run.py`` in a
process group of its own.

It reports progress to ``run.py`` as ``PERFBENCH <json>`` lines on
standard output, one per checked job, so the supervisor can time out a
wedged job, kill the whole group, and still report what finished.

Untraced (``--trace 0``), closed loop, one job at a time:

1. ``ray.init`` → build the ``EventProcessor`` and the broadcast lookup
   → the cold first job, timed as one ``setup`` event.  With
   ``--setup-only`` the driver stops here: ``run.py`` starts one such
   driver per extra cold start, so every cold start is a fresh process;
2. the ``check_outputs`` job (untimed);
3. warm jobs until ``--seconds`` have passed;
4. the peak resident set of this process and all its Ray descendants.

Traced (``--trace 1``): ``layers.traced_metrics`` and the
``check_outputs`` job on one cluster.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import gen
import jobs as jobs_mod
import layers

PREFIX = "PERFBENCH "
#: warm jobs per untraced run even when ``--seconds`` is shorter
MIN_WARM_JOBS = 4


def emit(event: dict) -> None:
    print(PREFIX + json.dumps(event), flush=True)


def attempt(jobs: jobs_mod.Jobs) -> tuple[float, bool, str | None]:
    """One job: (wall seconds to its result, correct?, error)."""
    t0 = time.perf_counter()
    try:
        result = jobs.run()
    except Exception as e:  # a failed job is counted, not fatal
        return time.perf_counter() - t0, False, repr(e)
    dt = time.perf_counter() - t0
    return dt, jobs.check(result), None


def cold_start(root: str, inp: gen.Input) -> jobs_mod.Jobs:
    t0 = time.perf_counter()
    jobs_mod.start_ray(root)
    jobs = jobs_mod.Jobs(inp)
    job_s, ok, err = attempt(jobs)
    emit({"event": "setup", "s": time.perf_counter() - t0, "job_s": job_s, "ok": ok, "error": err})
    return jobs


def output_check(jobs: jobs_mod.Jobs) -> None:
    t0 = time.perf_counter()
    try:
        err = jobs.check_outputs()
    except Exception as e:  # a failed job is counted, not fatal
        err = repr(e)
    emit({"event": "job", "name": "output-check", "s": time.perf_counter() - t0, "ok": err is None, "error": err})


def timed_run(root: str, inp: gen.Input, seconds: float, setup_only: bool) -> None:
    jobs = cold_start(root, inp)
    if setup_only:
        return
    output_check(jobs)
    start, done = time.perf_counter(), 0
    while time.perf_counter() - start < seconds or done < MIN_WARM_JOBS:
        job_s, ok, err = attempt(jobs)
        emit({"event": "job", "name": "warm", "s": job_s, "ok": ok, "error": err})
        done += 1
    emit({"event": "rss", "mb": jobs_mod.process_tree_vmhwm_mb(os.getpid())})


def traced_run(root: str, inp: gen.Input) -> None:
    jobs_mod.start_ray(root)
    jobs = jobs_mod.Jobs(inp)
    metrics = layers.traced_metrics(jobs, emit)
    output_check(jobs)
    emit({"event": "layers", "metrics": metrics})


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--input", required=True, help="a generated input directory")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help="stop after the cold first job")
    args = p.parse_args()

    root = jobs_mod.checkout_root()
    sys.path.insert(0, root)
    inp = gen.Input(args.input)
    import ray

    try:
        if args.trace:
            traced_run(root, inp)
        else:
            timed_run(root, inp, args.seconds, args.setup_only)
    finally:
        ray.shutdown()
    emit({"event": "done"})


if __name__ == "__main__":
    main()
