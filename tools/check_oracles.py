"""Local stand-in for the driver's correctness gate: run every
``queries()`` entry and its ``oracle_sql()`` twin on the same sf dir,
compare row count, column names and order-insensitive values.  Each
PASS/FAIL line ends with the query's wall seconds (run + collect, not
the oracle SQL).

The queries run in chunks of ``CHUNK`` in child driver processes, one
Ray cluster each, so a Ray core crash ends one chunk, not the run: the
queries of a chunk whose driver died before reporting them are retried
once in a fresh driver, and a query that still has no result counts as
a failure.  The summary line adds the sum of the per-query seconds and
the number of Ray's ``RefBundle with a different schema`` warnings the
children logged (their stderr is echoed to this process's stderr); the
line before it splits that count by the first column of the warning's
previous schema, so two checkouts' runs can be compared column by
column.

Each result line also states the query's plan cost: the Dataset
executions it ran and the Ray actors it started, counted in the child
by wrapping ``StreamingExecutor.execute`` and ``ActorClass._remote``
(the engine itself is untouched); a total line sums them.

Usage: python tools/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from collections import Counter

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


def count_calls(cls, name: str, counts: Counter, key: str) -> None:
    """Wrap ``cls.name`` so that each call adds one to ``counts[key]``,
    except a ``get_if_exists`` call: that looks a named actor up (Ray
    Data does so for its helper actors at each execution)."""
    orig = getattr(cls, name)

    def counted(*args, **kwargs):
        if not kwargs.get("get_if_exists"):
            counts[key] += 1
        return orig(*args, **kwargs)

    setattr(cls, name, counted)


def run_chunk(sf_dir: str, names: list[str]) -> None:
    """Run the queries ``names`` in this process: one result line per
    query, flushed as it is known."""
    import ray
    from ray.actor import ActorClass
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

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

    calls = Counter()
    count_calls(StreamingExecutor, "execute", calls, "executions")
    count_calls(ActorClass, "_remote", calls, "actors")

    for name in names:
        fn = qs[name]
        calls.clear()
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
        cost = f"[{calls['executions']} executions, {calls['actors']} actors]"
        sql = oracles.get(name)
        if sql is None:
            print(f"ROWS-ONLY {name}: {cost} {len(mine)} rows, cols={list(mine.columns)}",
                  flush=True)
            continue
        try:
            oracle = con.sql(sql).df()
        except Exception as ex:
            print(f"FAIL {name} ({secs:.2f} s) {cost}: oracle SQL raised {ex}", flush=True)
            continue
        try:
            problems = compare(name, mine, oracle)
        except Exception as ex:
            problems = [f"compare raised {type(ex).__name__}: {ex}"]
        if problems:
            print(f"FAIL {name} ({len(mine)} vs {len(oracle)} rows, {secs:.2f} s) {cost}:\n"
                  + "\n".join(f"   - {p}" for p in problems), flush=True)
        else:
            print(f"PASS {name} ({len(mine)} rows, {secs:.2f} s) {cost}", flush=True)
    ray.shutdown()


#: a child's result line: status, query name, its seconds if timed and
#: its plan cost if counted
RESULT = re.compile(r"^(PASS|FAIL|ROWS-ONLY) (\S+?):? (?:\(.*?([\d.]+) s\))?"
                    r"(?: ?\[(\d+) executions, (\d+) actors\])?")

CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import check_oracles; "
         "check_oracles.run_chunk(sys.argv[2], sys.argv[3:])")


#: Ray Data's warning for a block whose schema differs from the last
SCHEMA_WARNING = "RefBundle with a different schema"
#: the first column of the warning's previous schema: a pyarrow schema
#: prints one ``name: type`` per line, a pandas block's schema
#: ``PandasBlockSchema(names=['name', ...``
PREVIOUS_FIRST = re.compile(r"Previous schema: (?:PandasBlockSchema\(names=\[')?([^:',]+)")


def run_child(sf_dir: str, names: list[str]) -> tuple[dict, int, Counter]:
    """Run ``names`` in a child driver, echoing its output: ({query:
    (status, seconds, executions, actors)} for the queries it reported
    (None for an uncounted cost), its exit code, the
    ``SCHEMA_WARNING`` lines on its stderr counted by the first column
    of their previous schema, ``?`` where none prints)."""
    results = {}
    warnings = Counter()

    def drain(stream) -> None:
        for line in stream:
            sys.stderr.write(line)
            if SCHEMA_WARNING in line:
                m = PREVIOUS_FIRST.search(line)
                warnings[m.group(1) if m else "?"] += 1

    with subprocess.Popen(
        [sys.executable, "-c", CHILD, os.path.dirname(os.path.abspath(__file__)), sf_dir, *names],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        err_reader = threading.Thread(target=drain, args=(proc.stderr,), daemon=True)
        err_reader.start()
        for line in proc.stdout:
            print(line, end="", flush=True)
            m = RESULT.match(line)
            if m and m.group(2) in names:
                cost = tuple(None if g is None else int(g) for g in m.group(4, 5))
                results[m.group(2)] = (m.group(1), float(m.group(3) or 0.0), *cost)
        err_reader.join()
    return results, proc.returncode, warnings


def gate(sf_dir: str, names: list[str]) -> bool:
    """Run ``names`` chunk by chunk in child drivers and print the
    summary; True when every query passed."""
    results: dict = {}
    deaths = 0
    warnings = Counter()
    for i in range(0, len(names), CHUNK):
        chunk = names[i:i + CHUNK]
        for attempt in (1, 2):
            todo = [n for n in chunk if n not in results]
            if not todo:
                break
            got, code, warned = run_child(sf_dir, todo)
            results.update(got)
            warnings.update(warned)
            missing = [n for n in todo if n not in got]
            if missing:
                deaths += 1
                print(f"DRIVER DIED (exit code {code}, attempt {attempt}) before reporting "
                      f"{len(missing)} queries, from {missing[0]}", flush=True)
    lost = [n for n in names if n not in results]
    for n in lost:
        print(f"FAIL {n}: no result, its driver died twice")
    status = [r[0] for r in results.values()]
    n_pass, n_noracle = status.count("PASS"), status.count("ROWS-ONLY")
    n_fail = status.count("FAIL") + len(lost)
    secs = sum(r[1] for r in results.values())
    counted = [r for r in results.values() if r[2] is not None]
    print(f"\nplan cost: {sum(r[2] for r in counted)} Dataset executions, "
          f"{sum(r[3] for r in counted)} actors started, over {len(counted)} counted queries")
    by_column = sorted(warnings.items(), key=lambda kv: (-kv[1], kv[0]))
    print("schema warnings by first column of the previous schema: "
          + (", ".join(f"{c} {n}" for c, n in by_column) or "none"))
    print(f"{n_pass} pass, {n_fail} fail, {n_noracle} rows-only; "
          f"{secs:.1f} s summed over queries; {deaths} driver deaths; "
          f"{warnings.total()} schema warnings")
    return n_fail == 0


if __name__ == "__main__":
    main()
