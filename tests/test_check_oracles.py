"""``tools/check_oracles.py`` isolates driver crashes: a chunk whose
child driver dies is retried once, a query still unreported counts as
a failure, the summary line sums the reported per-query seconds and
counts Ray's schema warnings on the children's stderr, and a total line
sums each query's Dataset executions and actors.  The child here
is a stand-in that prints result lines, so no Ray runs."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import check_oracles  # noqa: E402

# argv: tools dir, a scratch dir (in place of sf_dir), query names.
# "flaky" kills its driver the first time only, "dead" every time;
# "a" logs one schema warning.
FAKE_CHILD = """
import os, sys
for n in sys.argv[3:]:
    if n == "a":
        print("Operator produced a RefBundle with a different schema than the previous one.",
              file=sys.stderr, flush=True)
    once = os.path.join(sys.argv[2], "once")
    if n == "flaky" and not os.path.exists(once):
        open(once, "w").close()
        os._exit(3)
    if n == "dead":
        os._exit(4)
    print(f"PASS {n} (1 rows, 0.50 s)", flush=True)
"""


def test_dead_driver_retried_once_then_reported(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(check_oracles, "CHILD", FAKE_CHILD)
    monkeypatch.setattr(check_oracles, "CHUNK", 2)
    ok = check_oracles.gate(str(tmp_path), ["a", "flaky", "b", "dead", "c"])
    out = capsys.readouterr().out
    assert not ok
    assert out.count("DRIVER DIED") == 3  # flaky once, dead twice
    assert "FAIL dead: no result, its driver died twice" in out
    assert out.rstrip().endswith(
        "4 pass, 1 fail, 0 rows-only; 2.0 s summed over queries; 3 driver deaths; "
        "1 schema warnings")


def test_all_reported_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(check_oracles, "CHILD", FAKE_CHILD)
    assert check_oracles.gate(str(tmp_path), ["a", "b", "c"])
    captured = capsys.readouterr()
    assert "3 pass, 0 fail" in captured.out
    assert captured.out.rstrip().endswith("0 driver deaths; 1 schema warnings")
    assert "RefBundle with a different schema" in captured.err  # echoed


def test_schema_warnings_counted_by_previous_first_column(tmp_path, monkeypatch, capsys):
    child = """
import sys
for previous in ("__part: int64", "__part: int64", "PandasBlockSchema(names=['conv_id', 'n'], types=[])"):
    print("Operator produced a RefBundle with a different schema than the previous one. "
          f"Previous schema: {previous}", file=sys.stderr, flush=True)
    print("text: string, new schema: . This may lead to unexpected behavior.", file=sys.stderr, flush=True)
for n in sys.argv[3:]:
    print(f"PASS {n} (1 rows, 0.50 s)", flush=True)
"""
    monkeypatch.setattr(check_oracles, "CHILD", child)
    monkeypatch.setattr(check_oracles, "CHUNK", 1)
    assert check_oracles.gate(str(tmp_path), ["a", "b"])
    lines = capsys.readouterr().out.rstrip().splitlines()
    assert lines[-2] == "schema warnings by first column of the previous schema: __part 4, conv_id 2"
    assert lines[-1].endswith("0 driver deaths; 6 schema warnings")


def test_plan_cost_per_query_and_total(tmp_path, monkeypatch, capsys):
    child = """
import sys
for i, n in enumerate(sys.argv[3:]):
    print(f"PASS {n} (1 rows, 0.50 s) [{i + 1} executions, {2 * i} actors]", flush=True)
"""
    monkeypatch.setattr(check_oracles, "CHILD", child)
    assert check_oracles.gate(str(tmp_path), ["a", "b", "c"])
    lines = capsys.readouterr().out.rstrip().splitlines()
    assert "PASS c (1 rows, 0.50 s) [3 executions, 4 actors]" in lines
    assert lines[-3] == "plan cost: 6 Dataset executions, 6 actors started, over 3 counted queries"
    assert lines[-1].startswith("3 pass, 0 fail, 0 rows-only; 1.5 s summed over queries")
