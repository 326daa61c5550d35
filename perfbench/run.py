"""Transcript-pipeline benchmark: one workload, one run.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 10 --trace 0

Works from any checkout and any cwd: the package is imported from the
checkout this file sits in.  The input is generated from ``--seed``
(cached under ``.bench_cache/``), then separate driver processes
(``worker.py``, each in a process group of its own, one after the
other: one per cold start) run the Ray jobs while this process enforces
a timeout on every job and on the whole run, kills a group when one
expires, and makes sure every process the run started has ended.

The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``: ``turns_per_s``,
``setup_s``, ``peak_rss_mb``) or the per-layer ones (``--trace 1``).
The line before it holds the box and the measured workload facts.
Workloads, metrics and what each layer should move are described in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time

import gen
import jobs as jobs_mod
from worker import PREFIX

#: longest wait for one job (or one set-up) before the run gives up on it
JOB_TIMEOUT_S = 60.0
#: the whole run, generation included, ends well inside 180 s
RUN_BUDGET_S = 165.0
#: time the driver gets to shut its cluster down before it is killed
SHUTDOWN_GRACE_S = 20.0
#: cold starts per untraced run, each in a fresh driver process;
#: ``setup_s`` is their median
SETUPS = 2

def group_alive(pgid: int) -> list[int]:
    """Processes of group ``pgid`` that have not exited (zombies are
    exited: nobody in a container may be left to reap them)."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def stop_group(proc: subprocess.Popen, grace: float) -> None:
    """Let the driver exit on its own for ``grace`` seconds, then kill
    its whole process group, and wait until every member has ended."""
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        pass
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        proc.poll()
        if proc.returncode is not None and not group_alive(proc.pid):
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        time.sleep(0.1)
    raise RuntimeError(f"processes of group {proc.pid} survived SIGKILL: {group_alive(proc.pid)}")


def supervise(cmd: list[str], cwd: str, budget_end: float) -> tuple[list[dict], bool, float | None]:
    """Run the driver; (its events, whether a job timed out, the
    process tree's peak RSS read just before a timeout kill)."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, start_new_session=True)
    events: list[dict] = []
    timed_out, rss = False, None
    buf = b""
    last = time.monotonic()
    interrupted = True
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                wait = min(last + JOB_TIMEOUT_S, budget_end) - time.monotonic()
                if wait <= 0:
                    timed_out = True
                    rss = jobs_mod.process_tree_vmhwm_mb(proc.pid)
                    break
                if not sel.select(wait):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                *lines, buf = (buf + chunk).split(b"\n")
                for raw in lines:
                    line = raw.decode(errors="replace")
                    if line.startswith(PREFIX):
                        events.append(json.loads(line[len(PREFIX):]))
                        last = time.monotonic()
                    else:
                        print(line, file=sys.stderr)
        interrupted = False
    finally:
        stop_group(proc, 0 if timed_out or interrupted else SHUTDOWN_GRACE_S)
        proc.stdout.close()
    if proc.returncode and not timed_out:
        print(f"perfbench: driver exited with code {proc.returncode}", file=sys.stderr)
    return events, timed_out, rss


def box_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        # what `nproc` reports: it honours this variable
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "ray": importlib.metadata.version("ray"),
        "pyarrow": importlib.metadata.version("pyarrow"),
    }


def metric_units(root: str, kind: str) -> dict[str, str]:
    """``kind`` (``end_to_end`` or ``per_layer``) metric names → units,
    from the checkout's ``BENCHMARK.json``."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def metrics_with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_drivers(cmd: list[str], drivers: int, root: str, budget_end: float):
    """Run ``drivers`` drivers one after the other, all but the last with
    ``--setup-only``; (their events, whether one was lost, the peak RSS
    read before a timeout kill).  A lost driver (timed out or died
    before it finished) ends the run."""
    events: list[dict] = []
    for k in range(drivers):
        got, timed_out, rss = supervise(cmd + ["--setup-only"] * (k < drivers - 1), root, budget_end)
        events += got
        if timed_out or not any(e["event"] == "done" for e in got):
            return events, True, rss
    return events, False, None


def summarize(inp: gen.Input, trace: int, events: list[dict], lost: bool, rss: float | None,
              units: dict[str, str]):
    """(result, job facts), or (None, facts) when the run produced too
    little to report every metric."""
    setups = [e for e in events if e["event"] == "setup"]
    jobs = [e for e in events if e["event"] == "job"]
    # a lost driver counts as one more failed job
    attempted = len(setups) + len(jobs) + lost
    failed = sum(not e["ok"] for e in setups + jobs) + lost
    errors = sorted({e["error"] for e in setups + jobs if e.get("error")})
    facts = {"attempted": attempted, "failed": failed, "job_fail_frac": failed / max(attempted, 1),
             "lost_driver": lost, "errors": errors}
    if trace:
        layer = next((e["metrics"] for e in events if e["event"] == "layers"), None)
        if layer is None:
            return None, facts
        facts["ray.job_s"] = layer["ray.job_s"]
        metrics = metrics_with_units(layer, units)
    else:
        warm = [e["s"] for e in jobs if e["ok"] and e["name"] == "warm"]
        setup = [e["s"] for e in setups if e["ok"]]
        rss = next((e["mb"] for e in events if e["event"] == "rss"), rss)
        if rss is None:
            return None, facts
        facts.update(warm_jobs=len(warm), warm_job_s=warm, setup_runs_s=setup)
        metrics = metrics_with_units(
            {
                # a run with no correct warm job has no throughput
                "turns_per_s": inp.turns / statistics.median(warm) if warm else 0.0,
                "setup_s": statistics.median(setup) if setup else JOB_TIMEOUT_S,
                "peak_rss_mb": rss,
            },
            units,
        )
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, facts


def main() -> int:
    p = argparse.ArgumentParser(description="Transcript-pipeline benchmark (one workload, one run).")
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the warm closed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics instead of end-to-end ones")
    args = p.parse_args()
    # a terminated run still stops the driver's process group (finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    budget_end = started + RUN_BUDGET_S

    root = jobs_mod.checkout_root()
    if not os.path.isfile(os.path.join(root, jobs_mod.PACKAGE, "__init__.py")):
        print(f"perfbench: package {jobs_mod.PACKAGE} not found in {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, root)

    inp = gen.ensure_input(jobs_mod.cache_root(root), args.workload, args.seed)
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"),
           "--input", inp.path, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    events, lost, rss = run_drivers(cmd, 1 if args.trace else SETUPS, root, budget_end)
    jobs_mod.remove_leftovers(root)
    units = metric_units(root, "per_layer" if args.trace else "end_to_end")
    result, facts = summarize(inp, args.trace, events, lost, rss, units)
    facts["run_s"] = time.monotonic() - started
    print(json.dumps({"box": box_facts(), "workload": inp.facts, "jobs": facts}))
    if result is None:
        print("perfbench: the run ended before it could report its metrics", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
