"""CLI surface: validate + run with resume (subprocess; owns its own
Ray session, so it doesn't use the shared fixture)."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "logstash_filter_elastic_integration_ray", *args],
        capture_output=True, text=True, cwd=REPO, **kw,
    )


def test_cli_validate_ok_and_unsupported(tmp_path):
    pipes = tmp_path / "pipes"
    os.makedirs(pipes)
    (pipes / "good.json").write_text(json.dumps({"processors": [{"set": {"field": "a", "value": 1}}]}))
    r = _run(["validate", "--pipelines", str(pipes)])
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout.strip().splitlines()[-1])
    assert doc["ok"] and doc["pipelines"]["good"]["processors"] == 1

    (pipes / "bad.json").write_text(json.dumps({"processors": [{"inference": {"model_id": "m"}}]}))
    r = _run(["validate", "--pipelines", str(pipes)])
    assert r.returncode == 1
    assert "inference" in json.loads(r.stdout.strip().splitlines()[-1])["error"]


def test_cli_run_and_resume(tmp_path):
    from logstash_filter_elastic_integration_ray.sources.transcripts import derive_transcripts_table

    pipes = tmp_path / "pipes"
    os.makedirs(pipes)
    (pipes / "p.json").write_text(json.dumps({
        "mark": {"processors": [{"set": {"field": "mark", "value": "yes"}}]}
    }))
    t = derive_transcripts_table(pq.read_table("/root/testdata/sf0.001/events.parquet")).slice(0, 200)
    pq.write_table(t, str(tmp_path / "in.parquet"))

    args = ["run", "--pipelines", str(pipes), "--input", str(tmp_path / "in.parquet"),
            "--output", str(tmp_path / "out"), "--default-pipeline", "mark", "--num-cpus", "4"]
    r = _run(args)
    assert r.returncode == 0, r.stderr[-2000:]
    doc = json.loads(r.stdout.strip().splitlines()[-1])
    assert doc["shards"] == 1
    assert sum(doc["sink_counts"].values()) == 200

    manifest = tmp_path / "out" / "shard-00000" / "_MANIFEST.json"
    mtime = os.path.getmtime(manifest)
    r2 = _run(args)
    assert r2.returncode == 0
    assert json.loads(r2.stdout.strip().splitlines()[-1])["sink_counts"] == doc["sink_counts"]
    assert os.path.getmtime(manifest) == mtime  # resumed, not rebuilt


def test_cli_run_jsonl_input(tmp_path):
    from logstash_filter_elastic_integration_ray.sources.transcripts import derive_transcripts_table

    pipes = tmp_path / "pipes"
    os.makedirs(pipes)
    (pipes / "p.json").write_text(json.dumps({
        "mark": {"processors": [{"set": {"field": "mark", "value": "yes"}}]}
    }))
    t = derive_transcripts_table(pq.read_table("/root/testdata/sf0.001/events.parquet")).slice(0, 50)
    lines = []
    for row in t.to_pylist():
        row["ts"] = row["ts"].isoformat()
        lines.append(json.dumps(row))
    (tmp_path / "in.jsonl").write_text("\n".join(lines) + "\n")

    r = _run(["run", "--pipelines", str(pipes), "--input", str(tmp_path / "in.jsonl"),
              "--output", str(tmp_path / "out"), "--default-pipeline", "mark",
              "--timestamp-cols", "ts", "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-2000:]
    doc = json.loads(r.stdout.strip().splitlines()[-1])
    assert sum(doc["sink_counts"].values()) == 50


def test_cli_run_ndjson_and_mixed_shard(tmp_path):
    from logstash_filter_elastic_integration_ray.sources.transcripts import derive_transcripts_table

    pipes = tmp_path / "pipes"
    os.makedirs(pipes)
    (pipes / "p.json").write_text(json.dumps({
        "mark": {"processors": [{"set": {"field": "mark", "value": "yes"}}]}
    }))
    t = derive_transcripts_table(pq.read_table("/root/testdata/sf0.001/events.parquet")).slice(0, 40)
    half = t.slice(0, 20)
    lines = []
    for row in half.to_pylist():
        row["ts"] = row["ts"].isoformat()
        lines.append(json.dumps(row))
    (tmp_path / "in.ndjson").write_text("\n".join(lines) + "\n")
    pq.write_table(t.slice(20, 20), str(tmp_path / "in.parquet"))

    # one shard containing BOTH formats (shard-size 2 → single shard)
    r = _run(["run", "--pipelines", str(pipes),
              "--input", str(tmp_path / "in.ndjson"), str(tmp_path / "in.parquet"),
              "--output", str(tmp_path / "out"), "--default-pipeline", "mark",
              "--timestamp-cols", "ts", "--shard-size", "2", "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-2000:]
    doc = json.loads(r.stdout.strip().splitlines()[-1])
    assert sum(doc["sink_counts"].values()) == 40
