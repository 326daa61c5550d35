"""``tools/check_oracles.py`` isolates driver crashes: a chunk whose
child driver dies is retried once, a query still unreported counts as
a failure, and the summary line sums the reported per-query seconds.
The child here is a stand-in that prints result lines, so no Ray runs."""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import check_oracles  # noqa: E402

# argv: tools dir, a scratch dir (in place of sf_dir), query names.
# "flaky" kills its driver the first time only, "dead" every time.
FAKE_CHILD = """
import os, sys
for n in sys.argv[3:]:
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
        "4 pass, 1 fail, 0 rows-only; 2.0 s summed over queries; 3 driver deaths")


def test_all_reported_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(check_oracles, "CHILD", FAKE_CHILD)
    assert check_oracles.gate(str(tmp_path), ["a", "b", "c"])
    assert "3 pass, 0 fail" in capsys.readouterr().out
