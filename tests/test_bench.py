"""``bench.py --scaling`` reports an 8→32 efficiency only when the
process may run on 32 CPUs; below that the line says it is not a
scaling measurement, with the same keys."""

import json
import subprocess

import pytest

import bench

KEYS = {"metric", "value", "unit", "affinity_cpus", "sec_8", "sec_32",
        "turns_per_sec_8", "turns_per_sec_32", "sf"}


def _fake_runs(monkeypatch, affinity: int):
    def run(args, env, **kw):
        sec = {"8": 4.0, "32": 2.0}[env["RAY_GRAFT_CPUS"]]
        line = json.dumps({"value": sec, "turns_per_sec": 1000 / sec})
        return subprocess.CompletedProcess(args, 0, stdout=line + "\n")

    monkeypatch.setattr(bench.subprocess, "run", run)
    monkeypatch.setattr(bench.os, "sched_getaffinity", lambda pid: set(range(affinity)))


@pytest.mark.parametrize("affinity", [1, 4, 31])
def test_scaling_below_32_cpus_is_labelled_not_measured(monkeypatch, affinity):
    _fake_runs(monkeypatch, affinity)
    out = bench.run_scaling(headline_only=True)
    assert set(out) == KEYS
    assert out["value"] is None
    assert out["affinity_cpus"] == affinity
    assert out["metric"].startswith("not a scaling measurement")
    assert (out["sec_8"], out["sec_32"]) == (4.0, 2.0)


def test_scaling_on_32_cpus_reports_efficiency(monkeypatch):
    _fake_runs(monkeypatch, 32)
    out = bench.run_scaling(headline_only=True)
    assert set(out) == KEYS
    assert out["affinity_cpus"] == 32
    assert out["value"] == pytest.approx((4.0 / 2.0) / 4)
    assert out["metric"].startswith("scaling efficiency")
