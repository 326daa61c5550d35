"""Self-tests of the benchmark itself (not of the package).

    python3 perfbench/selftest.py

1. Generators: the same seed gives byte-identical Parquet; another
   seed gives other rows with the same measured properties, within
   ``TOLERANCE``.
2. The pyarrow ``conv_stats`` twin equals ``conv_stats_reference``.
3. The summary ``expect.py`` works out from the input rows equals the
   one of the package's Ray-free ``EventProcessor`` and enrich output.
4. One tiny Ray job and its ``check_outputs`` job, run by a driver whose
   cwd is a fresh temporary directory outside the checkout and whose
   ``PYTHONPATH`` is empty: the workers must still import the package
   and ``expect``.

Exits 0 when all pass.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tempfile

import pyarrow.parquet as pq

import expect
import gen
import jobs as jobs_mod

#: how far a fact may differ between two seeds: max(relative, absolute)
TOLERANCE = {"relative": 0.1, "absolute": 0.02}
TINY_TURNS = 2000


def parquet_bytes(table) -> bytes:
    buf = io.BytesIO()
    pq.write_table(table, buf)
    return buf.getvalue()


def check_generators() -> list[str]:
    problems = []
    for w in gen.WORKLOADS:
        a = gen.make_table(w, 1)
        if parquet_bytes(a) != parquet_bytes(gen.make_table(w, 1)):
            problems.append(f"{w}: seed 1 twice gave different bytes")
        b = gen.make_table(w, 2)
        if a.equals(b):
            problems.append(f"{w}: seeds 1 and 2 gave the same rows")
        fa, fb = gen.input_facts(a), gen.input_facts(b)
        for k in fa:
            limit = max(TOLERANCE["relative"] * abs(fa[k]), TOLERANCE["absolute"])
            if abs(fa[k] - fb[k]) > limit:
                problems.append(f"{w}: {k} is {fa[k]} for seed 1 but {fb[k]} for seed 2")
    return problems


def check_twin() -> list[str]:
    import pyarrow as pa
    from logstash_filter_elastic_integration_ray.stages.aggregate import conv_stats_reference

    problems = []
    for w in gen.WORKLOADS:
        t = gen.make_table(w, 3, TINY_TURNS)
        ref = gen.normalize_conv_stats(pa.Table.from_pandas(conv_stats_reference(t), preserve_index=False))
        if not gen.conv_stats_twin(t).equals(ref):
            problems.append(f"{w}: conv_stats twin differs from conv_stats_reference")
    return problems


def check_expected_summary() -> list[str]:
    from logstash_filter_elastic_integration_ray.pipelines.flagship import (
        assign_datastream,
        build_event_processor,
    )
    from logstash_filter_elastic_integration_ray.stages.enrich import make_enrich_fn
    from logstash_filter_elastic_integration_ray.state.lookups import INTEGRATIONS_LOOKUP

    proc, enrich = build_event_processor(), make_enrich_fn(INTEGRATIONS_LOOKUP)
    problems = []
    for w in gen.WORKLOADS:
        t = gen.make_table(w, 3, TINY_TURNS)
        got = expect.add_summaries(expect.output_summary(enrich(proc(assign_datastream(b))))
                                   for b in gen.batches(gen.file_slices(t)))
        if got != expect.expected_summary(t):
            problems.append(f"{w}: output summary {got} differs from the expected {expect.expected_summary(t)}")
    return problems


def tiny_job() -> int:
    """The Ray driver of check 4 (run with its cwd outside the checkout)."""
    import ray

    root = jobs_mod.checkout_root()
    sys.path.insert(0, root)
    inp = gen.ensure_input(jobs_mod.cache_root(root), "flagship", 0, TINY_TURNS)
    jobs_mod.start_ray(root)
    try:
        jobs = jobs_mod.Jobs(inp)
        ok = jobs.check(jobs.run())
        err = jobs.check_outputs()
        if err:
            print(err)
        ok = ok and err is None
    finally:
        ray.shutdown()
        jobs_mod.remove_leftovers(root)
    print("tiny job", "correct" if ok else "WRONG")
    return 0 if ok else 1


def check_from_elsewhere() -> list[str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with tempfile.TemporaryDirectory() as cwd:
        p = subprocess.run([sys.executable, os.path.abspath(__file__), "--tiny-job"],
                           cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    if p.returncode:
        return [f"tiny job from {cwd} failed ({p.returncode}): {p.stdout[-500:]} {p.stderr[-2000:]}"]
    return []


def main() -> int:
    if sys.argv[1:] == ["--tiny-job"]:
        return tiny_job()
    sys.path.insert(0, jobs_mod.checkout_root())
    problems = check_generators() + check_twin() + check_expected_summary() + check_from_elsewhere()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
