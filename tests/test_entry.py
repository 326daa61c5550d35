"""Driver-contract smoke: entry() and a few queries() run and agree
with their oracles at sf0.001."""

import duckdb
import pandas as pd
import pytest

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()
SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def test_entry_returns_rows(ray_session):
    import __ray_entry__ as e

    res = e.entry()
    df = res.to_pandas()
    assert len(df) > 0
    assert "conv_id" in df.columns


@pytest.mark.parametrize("name", ["transcripts_source", "grok_toolcalls", "route_counts", "conv_stats"])
def test_query_matches_oracle(ray_session, duck, name):
    import __ray_entry__ as e

    mine = e.queries()[name](SF)
    try:
        import ray.data

        if isinstance(mine, ray.data.Dataset):
            mine = mine.to_pandas()
    except ImportError:
        pass
    oracle = duck.sql(e.oracle_sql()[name]).df()
    a, b = _canon(pd.DataFrame(mine)), _canon(oracle)
    assert list(a.columns) == list(b.columns)
    assert len(a) == len(b)
    for c in a.columns:
        assert (a[c].fillna("<NA>") == b[c].fillna("<NA>")).all(), c


def test_every_query_has_callable():
    import __ray_entry__ as e

    qs = e.queries()
    assert len(qs) >= 40
    oracles = e.oracle_sql()
    # round-2 invariant: EVERY query is oracle-checked (SQL or pinned
    # fixture) — no rows-only entries left
    assert set(oracles) == set(qs), set(qs) - set(oracles)


def test_registry_self_rotates_never_green_first():
    """The driver samples ~50 queries per round, so queries() must put
    every entry WITHOUT a green row in a committed CORRECTNESS_r*.json
    artifact ahead of all previously-confirmed ones, with the 8
    processor-conformance queries pinned at the very front until the
    driver confirms them (VERDICT r3 #1/#2)."""
    import __ray_entry__ as e

    qs = list(e.queries())
    green = e._driver_green()
    assert green, "artifacts exist in-repo, so green must be non-empty"
    never = [q for q in qs if q not in green]
    assert qs[: len(never)] == never, "never-green entries must lead contiguously"
    eight = [
        "append_tags", "remove_conditional", "sort_path_parts",
        "foreach_upper_path", "dot_expander_json", "date_index_name_monthly",
        "community_id_flows", "geoip_kv",
    ]
    pinned_first = [q for q in eight if q not in green]
    assert qs[: len(pinned_first)] == pinned_first


def test_queries_run_with_driver_outside_repo(tmp_path):
    """The driver's cwd is NOT guaranteed to be the repo directory, so
    workers may be unable to ``import`` the package or ``__ray_entry__``
    at all — everything they run must arrive pickled by value.  Round-4
    regression: geoip's apply-time lazy import and ``__ray_entry__``'s
    module-level batch helpers (community_id / url queries) both broke
    exactly this way.  Spawns a fresh driver with cwd=/tmp-like dir and
    runs the five previously-broken queries at sf0.001 (``clean_text_docs``
    first, before any other query has run on the workers)."""
    import os
    import subprocess
    import sys
    import textwrap

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {root!r})
        import ray
        ray.init(address="local", num_cpus=4, include_dashboard=False)
        import __ray_entry__ as e
        for name in ("clean_text_docs", "geoip_kv", "community_id_flows", "url_canonicalize", "url_dedup"):
            df = e.queries()[name]("/root/testdata/sf0.001")
            import ray.data
            if isinstance(df, ray.data.Dataset):
                df = df.to_pandas()
            import pandas as pd
            df = pd.DataFrame(df)
            assert len(df) > 0, name
            # the geoip / community_id outputs must contain real derived
            # values, not the all-null rows a swallowed worker-side
            # failure produces
            if name == "geoip_kv":
                assert df["city"].notna().any(), "geoip produced no lookups"
            if name == "community_id_flows":
                assert df["cid"].notna().any()
        ray.shutdown()
        print("CWD_INDEPENDENT_OK")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=600,
        env={k: v for k, v in __import__("os").environ.items() if k != "PYTHONPATH"},
    )
    assert "CWD_INDEPENDENT_OK" in proc.stdout, proc.stdout[-2000:] + proc.stderr[-2000:]
