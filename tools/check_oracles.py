"""Local stand-in for the driver's correctness gate: run every
``queries()`` entry and its ``oracle_sql()`` twin on the same sf dir,
compare row count, column names and order-insensitive values.  Each
PASS/FAIL line ends with the query's wall seconds (run + collect, not
the oracle SQL).

The queries run in chunks of ``CHUNK`` in child driver processes, one
Ray cluster each, so a Ray core crash ends one chunk, not the run: the
queries of a chunk whose driver died before reporting them are retried
once in a fresh driver, and a query that still has no result counts as
a failure.  The summary line adds the sum of the per-query seconds.

Usage: python tools/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: queries per child driver process
CHUNK = 25

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    # the except must wrap ONLY the import: a worker-side
    # ModuleNotFoundError raised by .to_pandas() inherits ImportError
    # (Ray dual-inherits the original type) and must surface, not fall
    # through to "unsupported result type"
    try:
        import ray.data

        _rd = ray.data
    except ImportError:
        _rd = None
    if _rd is not None and isinstance(res, _rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    raise TypeError(f"unsupported result type {type(res)}")


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def compare(name: str, mine: pd.DataFrame, oracle: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(mine.columns) != sorted(oracle.columns):
        problems.append(f"columns differ: mine={sorted(mine.columns)} oracle={sorted(oracle.columns)}")
        return problems
    # dtype-kind parity: the driver hashes canonicalized VALUES — integer
    # widths are canonicalized (int32 vs int64 hash the same, observed in
    # round 1), but int-vs-float flips the hash even when an exact
    # numeric compare passes (DuckDB HUGEINT → float64) — catch locally
    for c in sorted(mine.columns):
        km, ko = mine[c].dtype.kind, oracle[c].dtype.kind
        if km != ko:
            problems.append(
                f"dtype kind differs in column {c}: mine={mine[c].dtype} oracle={oracle[c].dtype}"
            )
    if len(mine) != len(oracle):
        problems.append(f"row count differs: mine={len(mine)} oracle={len(oracle)}")
    a, b = canon(mine), canon(oracle)
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            if av.dtype.kind == "f" or bv.dtype.kind == "f":
                ok = np.allclose(av.astype(float), bv.astype(float), rtol=0, atol=0, equal_nan=True)
                exact = ok
            else:
                exact = (pd.Series(av).fillna("<NA>") == pd.Series(bv).fillna("<NA>")).all()
            if not exact:
                mism = np.nonzero(~(pd.Series(av).fillna("<NA>") == pd.Series(bv).fillna("<NA>")).to_numpy())[0][:3]
                problems.append(f"values differ in column {c}; first rows {mism.tolist()}: "
                                f"mine={[av[i] for i in mism]} oracle={[bv[i] for i in mism]}")
    return problems


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = sys.argv[2:]

    import __ray_entry__ as e

    names = [n for n in e.queries() if not only or n in only]
    sys.exit(0 if gate(sf_dir, names) else 1)


def run_chunk(sf_dir: str, names: list[str]) -> None:
    """Run the queries ``names`` in this process: one result line per
    query, flushed as it is known."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    qs = e.queries()
    oracles = e.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    for name in names:
        fn = qs[name]
        t0 = time.perf_counter()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as ex:
            import traceback
            traceback.print_exc()
            print(f"FAIL {name} ({time.perf_counter() - t0:.2f} s): "
                  f"query raised {type(ex).__name__}: {ex}", flush=True)
            continue
        secs = time.perf_counter() - t0
        sql = oracles.get(name)
        if sql is None:
            print(f"ROWS-ONLY {name}: {len(mine)} rows, cols={list(mine.columns)}", flush=True)
            continue
        try:
            oracle = con.sql(sql).df()
        except Exception as ex:
            print(f"FAIL {name} ({secs:.2f} s): oracle SQL raised {ex}", flush=True)
            continue
        try:
            problems = compare(name, mine, oracle)
        except Exception as ex:
            problems = [f"compare raised {type(ex).__name__}: {ex}"]
        if problems:
            print(f"FAIL {name} ({len(mine)} vs {len(oracle)} rows, {secs:.2f} s):\n"
                  + "\n".join(f"   - {p}" for p in problems), flush=True)
        else:
            print(f"PASS {name} ({len(mine)} rows, {secs:.2f} s)", flush=True)
    ray.shutdown()


#: a child's result line: status, query name, and its seconds if timed
RESULT = re.compile(r"^(PASS|FAIL|ROWS-ONLY) (\S+?):? (?:\(.*?([\d.]+) s\))?")

CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import check_oracles; "
         "check_oracles.run_chunk(sys.argv[2], sys.argv[3:])")


def run_child(sf_dir: str, names: list[str]) -> tuple[dict, int]:
    """Run ``names`` in a child driver, echoing its output: ({query:
    (status, seconds)} for the queries it reported, its exit code)."""
    results = {}
    with subprocess.Popen(
        [sys.executable, "-c", CHILD, os.path.dirname(os.path.abspath(__file__)), sf_dir, *names],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        for line in proc.stdout:
            print(line, end="", flush=True)
            m = RESULT.match(line)
            if m and m.group(2) in names:
                results[m.group(2)] = (m.group(1), float(m.group(3) or 0.0))
    return results, proc.returncode


def gate(sf_dir: str, names: list[str]) -> bool:
    """Run ``names`` chunk by chunk in child drivers and print the
    summary; True when every query passed."""
    results: dict = {}
    deaths = 0
    for i in range(0, len(names), CHUNK):
        chunk = names[i:i + CHUNK]
        for attempt in (1, 2):
            todo = [n for n in chunk if n not in results]
            if not todo:
                break
            got, code = run_child(sf_dir, todo)
            results.update(got)
            missing = [n for n in todo if n not in got]
            if missing:
                deaths += 1
                print(f"DRIVER DIED (exit code {code}, attempt {attempt}) before reporting "
                      f"{len(missing)} queries, from {missing[0]}", flush=True)
    lost = [n for n in names if n not in results]
    for n in lost:
        print(f"FAIL {n}: no result, its driver died twice")
    status = [s for s, _ in results.values()]
    n_pass, n_noracle = status.count("PASS"), status.count("ROWS-ONLY")
    n_fail = status.count("FAIL") + len(lost)
    secs = sum(t for _, t in results.values())
    print(f"\n{n_pass} pass, {n_fail} fail, {n_noracle} rows-only; "
          f"{secs:.1f} s summed over queries; {deaths} driver deaths")
    return n_fail == 0


if __name__ == "__main__":
    main()
