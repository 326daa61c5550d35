"""``tools/profile_executor.py`` prints one line per flagship processor
with the rows its kernel was handed and how many of them the per-row
parse path took, and the whole EventProcessor."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_profile_executor_lists_every_tag(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    gen.write_parquet_files(gen.make_table("flagship", 0, 800), str(tmp_path / "data"))

    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "profile_executor.py"), str(tmp_path), "--repeat", "1"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    assert out[0] == "8 batches, 800 rows, best of 1"
    rows = {line.split()[0]: line.split() for line in out[2:-1]}
    for tag in ("parse-toolcall", "parse-access", "parse-web", "error-to-alerts", "alert-mark"):
        assert tag in rows, tag
    assert int(rows["parse-access"][-4]) == 100  # every 8th turn is an access line
    # every flagship parse row is settled in Arrow
    for tag in ("parse-access", "toolcall-bytes", "parse-html", "web-uri", "parse-kv", "parse-csv"):
        assert int(rows[tag][-4]) > 0 and int(rows[tag][-3]) == 0, rows[tag]
    assert int(rows["parse-json"][-3]) == int(rows["parse-json"][-4])  # json stays per row
    assert out[-1].startswith("EventProcessor total") and int(out[-1].split()[-2]) == 800
