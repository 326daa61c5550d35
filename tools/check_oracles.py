"""Local stand-in for the driver's correctness gate: run every
``queries()`` entry and its ``oracle_sql()`` twin on the same sf dir,
compare row count, column names and order-insensitive values.  Each
PASS/FAIL line ends with the query's wall seconds (run + collect, not
the oracle SQL).

Usage: python tools/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

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
    only = set(sys.argv[2:])

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

    n_pass = n_fail = n_noracle = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as ex:
            import traceback
            traceback.print_exc()
            print(f"FAIL {name} ({time.perf_counter() - t0:.2f} s): "
                  f"query raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        secs = time.perf_counter() - t0
        sql = oracles.get(name)
        if sql is None:
            print(f"ROWS-ONLY {name}: {len(mine)} rows, cols={list(mine.columns)}")
            n_noracle += 1
            continue
        try:
            oracle = con.sql(sql).df()
        except Exception as ex:
            print(f"FAIL {name}: oracle SQL raised {ex}")
            n_fail += 1
            continue
        try:
            problems = compare(name, mine, oracle)
        except Exception as ex:
            problems = [f"compare raised {type(ex).__name__}: {ex}"]
        if problems:
            print(f"FAIL {name} ({len(mine)} vs {len(oracle)} rows, {secs:.2f} s):")
            for p in problems:
                print(f"   - {p}")
            n_fail += 1
        else:
            print(f"PASS {name} ({len(mine)} rows, {secs:.2f} s)")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail, {n_noracle} rows-only")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
