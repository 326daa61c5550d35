"""grouped_running / distinct_count_by (stages/windows.py): plain
pandas reference equality, SQL-twin semantics on the null edges,
exact int64 preservation, and batch-split invariance."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def _events_frame(n=500, seed=11):
    rng = np.random.RandomState(seed)
    ts = np.datetime64("2025-01-01", "us") + rng.randint(
        0, 10_000_000, n
    ).astype("timedelta64[us]")
    return pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.randint(0, 40, n).astype(np.int64),
            "ts": ts,
            "cents": rng.randint(-50, 200, n).astype(np.int64),
        }
    )


def _running_reference(df: pd.DataFrame) -> pd.DataFrame:
    df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort").copy()
    g = df.groupby("user_id", sort=False)
    df["run_cnt"] = g.cumcount() + 1
    df["run_sum"] = g["cents"].transform(lambda s: s.fillna(0).cumsum())
    gap = g["ts"].diff()
    df["gap"] = pd.array(
        [None if pd.isna(x) else int(x / np.timedelta64(1, "us")) for x in gap],
        dtype="Int64",
    )
    return df.sort_values("event_id").reset_index(drop=True)


class TestGroupedRunning:
    def test_matches_reference(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_running

        df = _events_frame()
        ds = ray.data.from_pandas(df).repartition(6)
        out = (
            grouped_running(
                ds, key="user_id", order_cols=["ts", "event_id"],
                value_col="cents", num_partitions=4,
            )
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        ref = _running_reference(df)
        assert out["run_cnt"].tolist() == ref["run_cnt"].tolist()
        assert out["run_sum"].tolist() == ref["run_sum"].tolist()
        assert out["gap"].astype("Int64").equals(ref["gap"])

    def test_null_values_contribute_zero(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_running

        df = pd.DataFrame(
            {
                "event_id": np.arange(4, dtype=np.int64),
                "user_id": np.array([1, 1, 1, 1], dtype=np.int64),
                "ts": pd.to_datetime(["2025-01-01", "2025-01-02", "2025-01-03", "2025-01-04"]),
                "cents": pd.array([10, None, 5, None], dtype="Int64"),
            }
        )
        out = (
            grouped_running(
                ray.data.from_pandas(df), key="user_id",
                order_cols=["ts", "event_id"], value_col="cents",
                num_partitions=2,
            )
            .to_pandas()
            .sort_values("event_id")
        )
        # null rows still count, contribute 0 to the running sum
        assert out["run_cnt"].tolist() == [1, 2, 3, 4]
        assert out["run_sum"].tolist() == [10, 10, 15, 15]
        assert out["gap"].tolist()[0] is pd.NA or pd.isna(out["gap"].tolist()[0])
        assert out["gap"].tolist()[1:] == [86400_000_000] * 3

    def test_null_order_col_raises(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_running

        df = pd.DataFrame(
            {
                "event_id": np.array([0, 1], dtype=np.int64),
                "user_id": np.array([1, 1], dtype=np.int64),
                "ts": pd.to_datetime(["2025-01-01", None]),
                "cents": np.array([1, 2], dtype=np.int64),
            }
        )
        with pytest.raises(Exception, match="null in order column"):
            grouped_running(
                ray.data.from_pandas(df), key="user_id",
                order_cols=["ts"], value_col="cents", num_partitions=1,
            ).to_pandas()

    def test_batch_split_invariance(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_running

        df = _events_frame(n=300, seed=5)
        outs = []
        for nblocks in (1, 9):
            ds = ray.data.from_pandas(df).repartition(nblocks)
            out = grouped_running(
                ds, key="user_id", order_cols=["ts", "event_id"],
                value_col="cents", num_partitions=4,
            ).to_pandas().sort_values("event_id").reset_index(drop=True)
            outs.append(out)
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestRunningMinMax:
    def _run(self, df, frame_rows=None, num_partitions=4):
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_running

        ds = rd.from_arrow(
            pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)
        ).repartition(3)
        out = grouped_running(
            ds, key="user_id", order_cols=["ts", "event_id"], value_col="cents",
            gap_col=None, min_col="run_min", max_col="run_max",
            num_partitions=num_partitions, frame_rows=frame_rows,
        ).to_pandas()
        return out.sort_values("event_id").reset_index(drop=True)

    def test_unbounded_matches_pandas(self, ray_session):
        df = _events_frame()
        got = self._run(df)
        ref = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort").copy()
        g = ref.groupby("user_id", sort=False)["cents"]
        ref["run_min"] = g.cummin()
        ref["run_max"] = g.cummax()
        ref = ref.sort_values("event_id").reset_index(drop=True)
        assert got["run_min"].tolist() == ref["run_min"].tolist()
        assert got["run_max"].tolist() == ref["run_max"].tolist()

    def test_null_values_skipped_like_sql(self, ray_session):
        # min/max SKIP nulls (unlike the sum twin's coalesce-to-0) and
        # an all-null-so-far frame is NULL — pin against DuckDB itself
        import duckdb
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_running

        rows = [
            {"event_id": 0, "user_id": 1, "ts": 0, "cents": None},
            {"event_id": 1, "user_id": 1, "ts": 1, "cents": -7},
            {"event_id": 2, "user_id": 1, "ts": 2, "cents": None},
            {"event_id": 3, "user_id": 1, "ts": 3, "cents": 4},
            {"event_id": 4, "user_id": 2, "ts": 0, "cents": None},
        ]
        t = pa.Table.from_pylist(rows)
        got = grouped_running(
            rd.from_arrow(t).repartition(2), key="user_id",
            order_cols=["ts", "event_id"], value_col="cents", gap_col=None,
            min_col="run_min", max_col="run_max", num_partitions=2,
        ).to_pandas().sort_values("event_id")
        con = duckdb.connect()
        con.register("t", t)
        exp = con.execute(
            "SELECT event_id, min(cents) OVER w AS run_min, max(cents) OVER w AS run_max "
            "FROM t WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS UNBOUNDED PRECEDING) ORDER BY event_id"
        ).df()
        for c in ("run_min", "run_max"):
            assert [None if pd.isna(x) else int(x) for x in got[c]] == \
                   [None if pd.isna(x) else int(x) for x in exp[c]], c

    def test_bounded_frame_exact_beyond_2_53(self, ray_session):
        # the block-decomposition window extreme must not round int64
        # through float64 (pandas rolling would)
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_running

        big = 2**53
        vals = [big + 3, big + 1, big + 2, big + 5, big + 4, big + 6]
        t = pa.table({
            "event_id": pa.array(range(6), type=pa.int64()),
            "user_id": pa.array([1] * 6, type=pa.int64()),
            "ts": pa.array(range(6), type=pa.int64()),
            "cents": pa.array(vals, type=pa.int64()),
        })
        got = grouped_running(
            rd.from_arrow(t), key="user_id", order_cols=["ts", "event_id"],
            value_col="cents", gap_col=None, min_col="run_min",
            max_col="run_max", num_partitions=1, frame_rows=3,
        ).to_pandas().sort_values("event_id")
        exp_min = [min(vals[max(0, i - 2): i + 1]) for i in range(6)]
        exp_max = [max(vals[max(0, i - 2): i + 1]) for i in range(6)]
        assert got["run_min"].tolist() == exp_min
        assert got["run_max"].tolist() == exp_max

    def test_bounded_frame_matches_pandas_rolling(self, ray_session):
        df = _events_frame(300, seed=5)
        got = self._run(df, frame_rows=4)
        ref = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort").copy()
        roll = ref.groupby("user_id", sort=False)["cents"].rolling(4, min_periods=1)
        ref["run_min"] = roll.min().reset_index(level=0, drop=True)
        ref["run_max"] = roll.max().reset_index(level=0, drop=True)
        ref = ref.sort_values("event_id").reset_index(drop=True)
        assert got["run_min"].tolist() == ref["run_min"].astype(np.int64).tolist()
        assert got["run_max"].tolist() == ref["run_max"].astype(np.int64).tolist()


class TestDistinctCountBy:
    def test_matches_reference_with_null_edges(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import distinct_count_by

        rng = np.random.RandomState(3)
        n = 1000
        df = pd.DataFrame(
            {
                "k": rng.choice(["a", "b", "c", None], n),
                "v": pd.array(
                    [None if i % 13 == 0 else int(rng.randint(0, 30)) for i in range(n)],
                    dtype="Int64",
                ),
            }
        )
        # an all-null-value group must still appear, with count 0
        df = pd.concat(
            [df, pd.DataFrame({"k": ["only-nulls"] * 3, "v": pd.array([None] * 3, dtype="Int64")})],
            ignore_index=True,
        )
        t = pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)
        out = (
            distinct_count_by(
                ray.data.from_arrow(t).repartition(7), key="k", val="v",
                out_col="n_v", num_partitions=4,
            )
            .to_pandas()
        )
        got = {row["k"]: row["n_v"] for _, row in out.iterrows()}
        ref = df.groupby("k", dropna=False)["v"].nunique()
        for k, expect in ref.items():
            kk = None if pd.isna(k) else k
            assert got[kk] == expect, (kk, got[kk], expect)
        assert got["only-nulls"] == 0
        assert len(got) == len(ref)

    def test_exact_beyond_2_53(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import distinct_count_by

        # two values that collide when rounded through float64
        big = (1 << 60) + 0
        t = pa.table(
            {
                "k": pa.array(["x"] * 4),
                "v": pa.array([big, big + 1, big, big + 1], type=pa.int64()),
            }
        )
        out = distinct_count_by(
            ray.data.from_arrow(t), key="k", val="v", num_partitions=2
        ).to_pandas()
        assert out["n_distinct"].tolist() == [2]

    def test_batch_split_invariance(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import distinct_count_by

        rng = np.random.RandomState(8)
        t = pa.table(
            {
                "k": pa.array(rng.randint(0, 20, 800), type=pa.int64()),
                "v": pa.array(rng.randint(0, 50, 800), type=pa.int64()),
            }
        )
        outs = []
        for nblocks in (1, 11):
            out = distinct_count_by(
                ray.data.from_arrow(t).repartition(nblocks),
                key="k", val="v", num_partitions=4,
            ).to_pandas().sort_values("k").reset_index(drop=True)
            outs.append(out)
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestGroupedRunningScan:
    """grouped_running_scan: exact equality with grouped_running (which
    is itself pinned to the pandas window reference), hot-key skew,
    null keys, chunk-count invariance."""

    def _check_equal(self, df, num_partitions_scan, key="user_id"):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import (
            grouped_running,
            grouped_running_scan,
        )

        ds = ray.data.from_pandas(df).repartition(5)
        kw = dict(key=key, order_cols=["ts", "event_id"], value_col="cents",
                  gap_col="gap")
        a = (
            grouped_running(ds, num_partitions=4, **kw)
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        )
        b = (
            grouped_running_scan(ds, num_partitions=num_partitions_scan, **kw)
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        )
        for col in ("run_cnt", "run_sum"):
            assert a[col].tolist() == b[col].tolist(), col
        assert a["gap"].astype("Int64").equals(b["gap"].astype("Int64"))

    def test_matches_hash_path(self, ray_session):
        self._check_equal(_events_frame(n=600, seed=21), num_partitions_scan=6)

    def _check_minmax_equal(self, df, num_partitions_scan):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import (
            grouped_running,
            grouped_running_scan,
        )

        ds = ray.data.from_pandas(df).repartition(5)
        kw = dict(key="user_id", order_cols=["ts", "event_id"], value_col="cents",
                  gap_col=None, min_col="run_min", max_col="run_max")
        a = (
            grouped_running(ds, num_partitions=4, **kw)
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        )
        b = (
            grouped_running_scan(ds, num_partitions=num_partitions_scan, **kw)
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        )
        for col in ("run_cnt", "run_sum"):
            assert a[col].tolist() == b[col].tolist(), col
        for col in ("run_min", "run_max"):
            # extension-dtype equals: NA == NA (a list compare would
            # fail on the NA rows)
            assert a[col].dtype == b[col].dtype, col
            assert a[col].equals(b[col]), col

    def test_minmax_matches_hash_path(self, ray_session):
        self._check_minmax_equal(_events_frame(n=500, seed=31), num_partitions_scan=7)

    def test_minmax_hot_key_with_null_values(self, ray_session):
        # one user owns 70% of events AND a third of values are null —
        # the scan's mergeable extremes must agree with the hash plan's
        # null-skipping semantics across chunk boundaries
        df = _events_frame(n=450, seed=13)
        df.loc[df.index[:315], "user_id"] = 3
        cents = df["cents"].astype("object")
        cents.iloc[::3] = None
        df["cents"] = pd.array(cents, dtype="Int64")
        self._check_minmax_equal(df, num_partitions_scan=9)
        self._check_minmax_equal(df, num_partitions_scan=1)

    def test_hot_key_spreads(self, ray_session):
        # one user owns 70% of events — the scan path must still agree
        df = _events_frame(n=500, seed=9)
        df.loc[df.index[:350], "user_id"] = 7
        self._check_equal(df, num_partitions_scan=8)

    def test_single_chunk_and_many_chunks_agree(self, ray_session):
        df = _events_frame(n=200, seed=2)
        self._check_equal(df, num_partitions_scan=1)
        self._check_equal(df, num_partitions_scan=17)

    def test_string_key_with_nulls(self, ray_session):
        rng = np.random.RandomState(4)
        n = 300
        df = pd.DataFrame(
            {
                "event_id": np.arange(n, dtype=np.int64),
                "user_id": rng.choice(["a", "b", None], n),
                "ts": np.datetime64("2025-02-01", "us")
                + rng.randint(0, 1_000_000, n).astype("timedelta64[us]"),
                "cents": rng.randint(0, 100, n).astype(np.int64),
            }
        )
        self._check_equal(df, num_partitions_scan=5, key="user_id")

    def test_explicit_bounds_and_null_order_raises(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_running_scan

        df = _events_frame(n=100, seed=1)
        lo = int(df["ts"].min().value // 1000)
        hi = int(df["ts"].max().value // 1000)
        out = grouped_running_scan(
            ray.data.from_pandas(df), key="user_id",
            order_cols=["ts", "event_id"], value_col="cents",
            num_partitions=4, bounds=(lo, hi),
        ).to_pandas()
        assert len(out) == len(df)

        df2 = df.copy()
        df2.loc[0, "ts"] = pd.NaT
        with pytest.raises(Exception, match="null in order column"):
            grouped_running_scan(
                ray.data.from_pandas(df2), key="user_id",
                order_cols=["ts", "event_id"], value_col="cents",
                num_partitions=4,
            ).to_pandas()


class TestRollingFrame:
    def test_matches_pandas_rolling(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_running

        df = _events_frame(n=400, seed=13)
        out = (
            grouped_running(
                ray.data.from_pandas(df).repartition(5), key="user_id",
                order_cols=["ts", "event_id"], value_col="cents",
                cnt_col="win_cnt", sum_col="win_sum", gap_col=None,
                num_partitions=4, frame_rows=5,
            )
            .to_pandas().sort_values("event_id").reset_index(drop=True)
        )
        ref = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort").copy()
        g = ref.groupby("user_id", sort=False)
        ref["win_sum"] = g["cents"].transform(
            lambda s: s.rolling(5, min_periods=1).sum()
        ).astype(np.int64)
        ref["win_cnt"] = g["cents"].transform(
            lambda s: s.rolling(5, min_periods=1).count()
        ).astype(np.int64)
        ref = ref.sort_values("event_id").reset_index(drop=True)
        assert out["win_sum"].tolist() == ref["win_sum"].tolist()
        assert out["win_cnt"].tolist() == ref["win_cnt"].tolist()

    def test_frame_one_is_identity(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_running

        df = _events_frame(n=60, seed=4)
        out = grouped_running(
            ray.data.from_pandas(df), key="user_id",
            order_cols=["ts", "event_id"], value_col="cents",
            gap_col=None, num_partitions=2, frame_rows=1,
        ).to_pandas().sort_values("event_id")
        assert out["run_sum"].tolist() == out["cents"].tolist()
        assert set(out["run_cnt"]) == {1}


class TestPivotCounts:
    def test_matches_reference(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.aggregate import pivot_counts

        rng = np.random.RandomState(6)
        n = 900
        df = pd.DataFrame(
            {
                "k": rng.randint(0, 25, n).astype(np.int64),
                "c": rng.choice(["a", "b", "c", "zz", None], n),
            }
        )
        t = pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)
        out = (
            pivot_counts(
                ray.data.from_arrow(t).repartition(6), key="k", cat="c",
                categories=["a", "b", "c"], prefix="n_", num_partitions=4,
            )
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        ref = (
            df.assign(**{f"n_{x}": (df["c"] == x).astype(np.int64) for x in "abc"})
            .groupby("k", as_index=False)[["n_a", "n_b", "n_c"]]
            .sum()
            .sort_values("k")
            .reset_index(drop=True)
        )
        # unknown 'zz' and null categories count nowhere but keys persist
        pd.testing.assert_frame_equal(
            out.astype({"n_a": np.int64, "n_b": np.int64, "n_c": np.int64}), ref
        )
        assert len(out) == df["k"].nunique()

    def test_batch_split_invariance(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.aggregate import pivot_counts

        rng = np.random.RandomState(14)
        t = pa.table(
            {
                "k": pa.array(rng.randint(0, 10, 500), type=pa.int64()),
                "c": pa.array(rng.choice(["x", "y"], 500)),
            }
        )
        outs = []
        for nblocks in (1, 8):
            out = pivot_counts(
                ray.data.from_arrow(t).repartition(nblocks), key="k", cat="c",
                categories=["x", "y"], num_partitions=3,
            ).to_pandas().sort_values("k").reset_index(drop=True)
            outs.append(out)
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestUnpivot:
    def test_melt_matches_reference_and_preserves_nulls(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import unpivot

        t = pa.table(
            {
                "id": pa.array([1, 2], type=pa.int64()),
                "a": pa.array([1.5, None], type=pa.float64()),
                "b": pa.array([2.0, 3.0], type=pa.float64()),
            }
        )
        out = (
            unpivot(ray.data.from_arrow(t), id_cols=["id"], value_cols=["a", "b"])
            .to_pandas().sort_values(["id", "variable"]).reset_index(drop=True)
        )
        assert len(out) == 4
        assert out["variable"].tolist() == ["a", "b", "a", "b"]
        vals = out["value"].tolist()
        assert vals[0] == 1.5 and vals[1] == 2.0 and vals[3] == 3.0
        assert pd.isna(vals[2])


class TestGroupedRankStats:
    """grouped_rank_stats vs a plain pandas rank-family reference:
    SQL tie semantics on a coarse peer key, ntile allocation, and
    batch-split invariance."""

    @staticmethod
    def _frame(n=400, seed=23):
        rng = np.random.RandomState(seed)
        return pd.DataFrame({
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.randint(0, 25, n).astype(np.int64),
            # low-cardinality score → heavy ties within a user
            "score": rng.randint(0, 5, n).astype(np.int64),
        })

    @staticmethod
    def _reference(df: pd.DataFrame, tiles=4) -> pd.DataFrame:
        df = df.sort_values(["user_id", "score", "event_id"], kind="mergesort").copy()
        g = df.groupby("user_id", sort=False)
        df["rnk"] = g["score"].rank(method="min").astype(np.int64)
        df["drnk"] = g["score"].rank(method="dense").astype(np.int64)
        n = g["score"].transform("size").to_numpy()
        df["prnk"] = np.where(n > 1, (df["rnk"].to_numpy() - 1) / np.maximum(n - 1, 1), 0.0)
        df["cdist"] = g["score"].rank(method="max").to_numpy() / n
        pos = g.cumcount().to_numpy()
        q, r = n // tiles, n % tiles
        big = r * (q + 1)
        df["tile"] = np.where(
            pos < big, pos // np.maximum(q + 1, 1), r + (pos - big) // np.maximum(q, 1)
        ).astype(np.int64) + 1
        return df.sort_values("event_id").reset_index(drop=True)

    def _run(self, df, ray_session, num_partitions=8, blocks=5):
        import ray

        from logstash_filter_elastic_integration_ray.stages.windows import (
            grouped_rank_stats,
        )

        ds = ray.data.from_arrow(
            pa.Table.from_pandas(df, preserve_index=False)
        ).repartition(blocks)
        out = grouped_rank_stats(
            ds, key="user_id", order_cols=["score", "event_id"],
            peer_cols=["score"], ntile=4, num_partitions=num_partitions,
        ).to_pandas()
        return out.sort_values("event_id").reset_index(drop=True)

    def test_matches_reference(self, ray_session):
        df = self._frame()
        got = self._run(df, ray_session)
        exp = self._reference(df)
        for c in ("rnk", "drnk", "tile"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
        for c in ("prnk", "cdist"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c  # exact IEEE

    def test_partition_and_batch_invariance(self, ray_session):
        df = self._frame(seed=7)
        a = self._run(df, ray_session, num_partitions=3, blocks=2)
        b = self._run(df, ray_session, num_partitions=13, blocks=9)
        pd.testing.assert_frame_equal(a, b)

    def test_single_row_groups(self, ray_session):
        df = pd.DataFrame({
            "event_id": np.array([0, 1, 2], dtype=np.int64),
            "user_id": np.array([10, 11, 12], dtype=np.int64),
            "score": np.array([5, 5, 5], dtype=np.int64),
        })
        got = self._run(df, ray_session, num_partitions=2, blocks=1)
        assert (got["rnk"] == 1).all() and (got["prnk"] == 0.0).all()
        assert (got["cdist"] == 1.0).all() and (got["tile"] == 1).all()

    def test_ntile_fewer_rows_than_tiles(self, ray_session):
        # n < T: each row gets its own tile, 1-based in order
        df = pd.DataFrame({
            "event_id": np.array([0, 1], dtype=np.int64),
            "user_id": np.array([1, 1], dtype=np.int64),
            "score": np.array([3, 1], dtype=np.int64),
        })
        got = self._run(df, ray_session, num_partitions=1, blocks=1)
        by_score = got.sort_values("score")
        assert by_score["tile"].tolist() == [1, 2]

    def test_null_order_raises(self, ray_session):
        import ray

        from logstash_filter_elastic_integration_ray.stages.windows import (
            grouped_rank_stats,
        )

        df = pd.DataFrame({
            "event_id": pd.array([0, None], dtype="Int64"),
            "user_id": np.array([1, 1], dtype=np.int64),
            "score": np.array([1, 2], dtype=np.int64),
        })
        ds = ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))
        with pytest.raises(Exception, match="null in order column"):
            grouped_rank_stats(
                ds, key="user_id", order_cols=["score", "event_id"],
                num_partitions=2,
            ).materialize()


class TestGroupedRangeSum:
    W = 120_000_000  # 2 minutes

    def _df(self, n=400, seed=13):
        rng = np.random.RandomState(seed)
        base = np.datetime64("2025-06-01T00:00:00", "us")
        return pd.DataFrame({
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.randint(0, 15, n).astype(np.int64),
            "ts": base + rng.randint(0, 1_800_000_000, n).astype("timedelta64[us]"),
            "cents": rng.randint(-100, 300, n).astype(np.int64),
        })

    def _run(self, df, blocks=5, parts=7):
        import ray

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_range_sum

        ds = ray.data.from_pandas(df).repartition(blocks)
        out = grouped_range_sum(ds, key="user_id", ts_col="ts",
                                val_col="cents", range_us=self.W,
                                num_partitions=parts).to_pandas()
        return out.sort_values("event_id").reset_index(drop=True)

    def _reference(self, df):
        import duckdb

        con = duckdb.connect()
        con.register("t", df)
        out = con.execute(
            "SELECT event_id, CAST(sum(cents) OVER w AS BIGINT) AS range_sum, "
            "count(*) OVER w AS range_cnt FROM t "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts "
            "RANGE BETWEEN INTERVAL 2 MINUTES PRECEDING AND CURRENT ROW) "
            "ORDER BY event_id"
        ).df()
        con.close()
        return out

    def test_matches_duckdb(self, ray_session):
        df = self._df()
        got = self._run(df)
        exp = self._reference(df)
        assert got["range_sum"].tolist() == exp["range_sum"].tolist()
        assert got["range_cnt"].tolist() == exp["range_cnt"].tolist()

    def test_peers_after_current_row_included(self, ray_session):
        # RANGE frames include the WHOLE peer group (equal ts), even
        # peers "after" the current row — the distinction from ROWS
        base = np.datetime64("2025-06-01T00:00:00", "us")
        df = pd.DataFrame({
            "event_id": np.arange(3, dtype=np.int64),
            "user_id": np.zeros(3, dtype=np.int64),
            "ts": np.array([base, base, base + np.timedelta64(1, "s")]),
            "cents": np.array([5, 7, 100], dtype=np.int64),
        })
        got = self._run(df, blocks=3, parts=2)
        exp = self._reference(df)
        assert got["range_sum"].tolist() == exp["range_sum"].tolist() == [12, 12, 112]
        assert got["range_cnt"].tolist() == exp["range_cnt"].tolist() == [2, 2, 3]

    def test_partition_invariance(self, ray_session):
        df = self._df(150, seed=2)
        a = self._run(df, blocks=1, parts=2)
        b = self._run(df, blocks=9, parts=13)
        pd.testing.assert_frame_equal(a, b)


class TestGroupBroadcast:
    def test_matches_duckdb(self, ray_session):
        import duckdb
        import ray

        from logstash_filter_elastic_integration_ray.stages.windows import group_broadcast

        rng = np.random.RandomState(21)
        n = 300
        df = pd.DataFrame({
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.randint(0, 20, n).astype(np.int64),
            "ts": (np.datetime64("2025-01-01", "us")
                   + rng.randint(0, 10**9, n).astype("timedelta64[us]")),
            "cents": rng.randint(-50, 150, n).astype(np.int64),
        })
        ds = ray.data.from_pandas(df).repartition(6)
        got = (group_broadcast(ds, key="user_id",
                               order_cols=["ts", "event_id"],
                               val_col="cents", num_partitions=5)
               .to_pandas().sort_values("event_id").reset_index(drop=True))
        con = duckdb.connect()
        con.register("t", df)
        exp = con.execute(
            "SELECT event_id, "
            "first_value(cents) OVER w AS first_val, "
            "last_value(cents) OVER (PARTITION BY user_id ORDER BY ts, event_id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS last_val, "
            "CAST(sum(cents) OVER (PARTITION BY user_id) AS BIGINT) AS grp_sum, "
            "count(*) OVER (PARTITION BY user_id) AS grp_cnt, "
            "CASE WHEN sum(cents) OVER (PARTITION BY user_id) = 0 THEN NULL "
            "ELSE CAST(cents AS DOUBLE) / sum(cents) OVER (PARTITION BY user_id) "
            "END AS share FROM t "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id) "
            "ORDER BY event_id"
        ).df()
        con.close()
        for c in ("first_val", "last_val", "grp_sum", "grp_cnt"):
            assert got[c].tolist() == exp[c].tolist(), c
        a = got["share"].to_numpy(dtype=float)
        b = exp["share"].to_numpy(dtype=float)
        assert ((a == b) | (np.isnan(a) & np.isnan(b))).all()

    def test_zero_total_share_null_and_invariance(self, ray_session):
        import ray

        from logstash_filter_elastic_integration_ray.stages.windows import group_broadcast

        df = pd.DataFrame({
            "event_id": np.arange(4, dtype=np.int64),
            "user_id": np.array([1, 1, 2, 2], dtype=np.int64),
            "ts": np.repeat(np.datetime64("2025-01-01", "us"), 4)
            + np.arange(4).astype("timedelta64[us]"),
            "cents": np.array([5, -5, 3, 4], dtype=np.int64),
        })
        a = (group_broadcast(ray.data.from_pandas(df).repartition(1),
                             key="user_id", order_cols=["ts", "event_id"],
                             val_col="cents", num_partitions=2)
             .to_pandas().sort_values("event_id").reset_index(drop=True))
        b = (group_broadcast(ray.data.from_pandas(df).repartition(4),
                             key="user_id", order_cols=["ts", "event_id"],
                             val_col="cents", num_partitions=7)
             .to_pandas().sort_values("event_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)
        assert a.loc[a.user_id == 1, "share"].isna().all()  # total 0 → NULL
        assert a.loc[a.user_id == 2, "grp_sum"].tolist() == [7, 7]


# ---------------------------------------------------------------------------
# mad_anomaly_counts / heavy_change
# ---------------------------------------------------------------------------


def _mad_reference(df, group_col, bucket_col):
    c = (df.dropna(subset=[group_col, bucket_col])
         .groupby([group_col, bucket_col], sort=False).size()
         .rename("cnt").reset_index())
    rows = []
    for g, sub in c.groupby(group_col, sort=False):
        v = np.sort(sub["cnt"].to_numpy().astype(np.float64))
        n = len(v)
        med = (v[(n - 1) // 2] + v[n // 2]) / 2.0
        dev = np.sort(np.abs(sub["cnt"].to_numpy().astype(np.float64) - med))
        mad = (dev[(n - 1) // 2] + dev[n // 2]) / 2.0
        for _, r in sub.iterrows():
            d = abs(float(r["cnt"]) - med)
            rows.append((g, r[bucket_col], int(r["cnt"]), med, mad, d > 3.0 * mad))
    out = pd.DataFrame(rows, columns=[group_col, bucket_col, "cnt", "med", "mad", "is_anomaly"])
    return out.sort_values([group_col, bucket_col]).reset_index(drop=True)


class TestMadAnomalyCounts:
    def _frame(self, n=4000, seed=7):
        rng = np.random.RandomState(seed)
        day = rng.randint(0, 30, n)
        # plant a burst: event type 'c' on day 12 gets 8x traffic
        et = np.array(["a", "b", "c", "d"])[rng.randint(0, 4, n)]
        burst = rng.randint(0, 30, n) < 4
        day = np.where((et == "c") & burst, 12, day)
        ts = (np.datetime64("2025-02-01", "us")
              + day.astype("timedelta64[D]").astype("timedelta64[us]")
              + rng.randint(0, 86_400_000_000, n).astype("timedelta64[us]"))
        return pd.DataFrame({"et": et, "ts": ts})

    def _bucketed(self, df):
        out = df.copy()
        out["bucket"] = out["ts"].dt.floor("D")
        return out[["et", "bucket"]]

    def test_matches_reference_and_flags_burst(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import mad_anomaly_counts

        df = self._bucketed(self._frame())
        ds = ray.data.from_pandas(df).repartition(7)
        out = (mad_anomaly_counts(ds, group_col="et", bucket_col="bucket",
                                  num_partitions=4)
               .to_pandas().sort_values(["et", "bucket"]).reset_index(drop=True))
        ref = _mad_reference(df, "et", "bucket")
        pd.testing.assert_frame_equal(
            out[["et", "bucket", "cnt", "med", "mad", "is_anomaly"]], ref,
            check_dtype=False)
        flagged = out[out["is_anomaly"]]
        assert ("c" in flagged["et"].tolist()
                and pd.Timestamp("2025-02-13") in flagged["bucket"].tolist())

    def test_block_invariance(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import mad_anomaly_counts

        df = self._bucketed(self._frame(n=1500, seed=3))
        outs = []
        for parts in (1, 9):
            ds = ray.data.from_pandas(df).repartition(parts)
            outs.append(mad_anomaly_counts(ds, group_col="et", bucket_col="bucket",
                                           num_partitions=3)
                        .to_pandas().sort_values(["et", "bucket"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_even_group_interpolation(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import mad_anomaly_counts

        # 4 buckets with counts 1,2,4,10 → med 3.0, mad 1.5 (DuckDB parity)
        rows = []
        for b, cnt in enumerate((1, 2, 4, 10)):
            rows += [("g", pd.Timestamp("2025-03-01") + pd.Timedelta(days=b))] * cnt
        df = pd.DataFrame(rows, columns=["et", "bucket"])
        out = (mad_anomaly_counts(ray.data.from_pandas(df), group_col="et",
                                  bucket_col="bucket", num_partitions=2)
               .to_pandas().sort_values("bucket").reset_index(drop=True))
        assert out["med"].tolist() == [3.0] * 4
        assert out["mad"].tolist() == [1.5] * 4
        assert out["is_anomaly"].tolist() == [False, False, False, True]


class TestHeavyChange:
    A = (np.datetime64("2025-02-01", "us"), np.datetime64("2025-02-08", "us"))
    B = (np.datetime64("2025-02-08", "us"), np.datetime64("2025-02-15", "us"))

    def _frame(self, n=6000, seed=13):
        rng = np.random.RandomState(seed)
        uid = rng.zipf(1.6, n).astype(np.int64) % 200
        ts = (np.datetime64("2025-01-28", "us")
              + rng.randint(0, 25 * 86_400_000_000, n).astype("timedelta64[us]"))
        return pd.DataFrame({"user_id": uid, "ts": ts})

    def _reference(self, df, k):
        a0, a1 = self.A
        b0, b1 = self.B
        in_a = (df["ts"] >= a0) & (df["ts"] < a1)
        in_b = (df["ts"] >= b0) & (df["ts"] < b1)
        sub = df[in_a | in_b].copy()
        sub["cnt_a"] = in_a[in_a | in_b].astype(np.int64)
        sub["cnt_b"] = in_b[in_a | in_b].astype(np.int64)
        agg = sub.groupby("user_id", sort=False)[["cnt_a", "cnt_b"]].sum().reset_index()
        agg["delta"] = agg["cnt_b"] - agg["cnt_a"]
        agg["abs_delta"] = agg["delta"].abs()
        agg = agg.sort_values(["abs_delta", "user_id"], ascending=[False, True],
                              kind="mergesort").head(k)
        return agg[["user_id", "cnt_a", "cnt_b", "delta"]].reset_index(drop=True)

    def test_matches_reference(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import heavy_change

        df = self._frame()
        ds = ray.data.from_pandas(df).repartition(8)
        out = heavy_change(ds, key="user_id", ts_col="ts", a_range=self.A,
                           b_range=self.B, top_k=25, num_partitions=4).to_pandas()
        ref = self._reference(df, 25)
        pd.testing.assert_frame_equal(out.reset_index(drop=True), ref,
                                      check_dtype=False)

    def test_single_window_keys_and_block_invariance(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import heavy_change

        # keys seen only in window A (or only B) must still rank
        df = pd.DataFrame({
            "user_id": np.array([1, 1, 1, 2, 2, 3], dtype=np.int64),
            "ts": np.array(["2025-02-02", "2025-02-03", "2025-02-04",
                            "2025-02-09", "2025-02-10", "2025-01-01"],
                           dtype="datetime64[us]"),
        })
        outs = []
        for parts in (1, 5):
            ds = ray.data.from_pandas(df).repartition(parts)
            outs.append(heavy_change(ds, key="user_id", ts_col="ts",
                                     a_range=self.A, b_range=self.B,
                                     top_k=10, num_partitions=3).to_pandas())
        pd.testing.assert_frame_equal(outs[0], outs[1])
        got = {int(r.user_id): (int(r.cnt_a), int(r.cnt_b), int(r.delta))
               for r in outs[0].itertuples()}
        # user 3 has no in-window rows: absent
        assert got == {1: (3, 0, -3), 2: (0, 2, 2)}


class TestPairSpans:
    def _frame(self, n=3000, seed=29):
        rng = np.random.RandomState(seed)
        return pd.DataFrame({
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.randint(0, 60, n).astype(np.int64),
            "event_type": np.array(["start", "end", "click", "view"])[
                rng.randint(0, 4, n)],
            "ts": (np.datetime64("2025-04-01", "us")
                   + rng.randint(0, 10**9, n).astype("timedelta64[us]")),
        })

    def _reference(self, df):
        rows = []
        for u, sub in df.groupby("user_id"):
            s = sub[sub["event_type"] == "start"].sort_values(
                ["ts", "event_id"], kind="mergesort")
            e = sub[sub["event_type"] == "end"].sort_values(
                ["ts", "event_id"], kind="mergesort")
            for i in range(len(s)):
                srow = s.iloc[i]
                if i < len(e):
                    erow = e.iloc[i]
                    dur = int((erow["ts"] - srow["ts"]) / np.timedelta64(1, "us"))
                    rows.append((u, i + 1, srow["ts"], srow["event_id"],
                                 erow["ts"], erow["event_id"], dur))
                else:
                    rows.append((u, i + 1, srow["ts"], srow["event_id"],
                                 None, None, None))
        out = pd.DataFrame(rows, columns=["user_id", "rn", "start_ts", "start_id",
                                          "end_ts", "end_id", "duration_us"])
        return out.sort_values(["user_id", "rn"]).reset_index(drop=True)

    def test_matches_reference(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import pair_spans

        df = self._frame()
        ds = ray.data.from_pandas(df).repartition(7)
        out = (pair_spans(ds, key="user_id", ts_col="ts", type_col="event_type",
                          start_val="start", end_val="end", id_col="event_id",
                          num_partitions=4)
               .to_pandas().sort_values(["user_id", "rn"]).reset_index(drop=True))
        ref = self._reference(df)
        assert len(out) == len(ref)
        assert out["user_id"].tolist() == ref["user_id"].tolist()
        assert out["rn"].tolist() == ref["rn"].tolist()
        assert out["start_id"].tolist() == ref["start_id"].tolist()
        assert (out["end_id"].astype("Int64").fillna(-1).tolist()
                == ref["end_id"].astype("Int64").fillna(-1).tolist())
        assert (out["duration_us"].astype("Int64").fillna(-1).tolist()
                == ref["duration_us"].astype("Int64").fillna(-1).tolist())

    def test_unmatched_and_surplus_and_invariance(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import pair_spans

        df = pd.DataFrame({
            "event_id": np.arange(9, dtype=np.int64),
            "user_id": pd.array([1, 1, 1, 2, 2, 2, 2, None, None], dtype="Int64"),
            "event_type": ["start", "start", "end",      # u1: 2 starts, 1 end
                           "end", "start", "end", "end",  # u2: surplus ends
                           "start", "end"],               # null user: never pairs
            "ts": np.array(["2025-04-01T00:00:00", "2025-04-01T00:01:00",
                            "2025-04-01T00:02:00", "2025-04-01T00:00:30",
                            "2025-04-01T00:01:30", "2025-04-01T00:02:30",
                            "2025-04-01T00:03:30", "2025-04-01T00:00:10",
                            "2025-04-01T00:00:20"], dtype="datetime64[us]"),
        })
        outs = []
        for parts in (1, 4):
            ds = ray.data.from_pandas(df).repartition(parts)
            outs.append(pair_spans(ds, key="user_id", ts_col="ts",
                                   type_col="event_type", start_val="start",
                                   end_val="end", id_col="event_id",
                                   num_partitions=3)
                        .to_pandas().sort_values(["user_id", "rn"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1])
        o = outs[0]
        # u1: first start pairs the only end; second start unmatched
        assert o[o.user_id == 1]["end_id"].astype("Int64").fillna(-1).tolist() == [2, -1]
        assert o[o.user_id == 1]["duration_us"].astype("Int64").fillna(-1).tolist() == [120_000_000, -1]
        # u2: one start pairs the FIRST end in its lane order (event 3 at 00:00:30
        # precedes the start but index pairing is by rank, so rn 1 end is event 3)
        u2 = o[o.user_id == 2]
        assert len(u2) == 1 and int(u2["end_id"].iloc[0]) == 3
        # a null key never matches an end (SQL ON s.key = e.key), so its
        # start keeps a NULL end
        nul = o[o.user_id.isna()]
        assert nul["start_id"].tolist() == [7]
        assert nul["end_id"].astype("Int64").fillna(-1).tolist() == [-1]
        # a null ts on an end row raises, as the sibling window kernels do
        bad = df.copy()
        bad.loc[5, "ts"] = pd.NaT
        with pytest.raises(Exception, match="null in order column"):
            pair_spans(ray.data.from_pandas(bad), key="user_id", ts_col="ts",
                       type_col="event_type", start_val="start", end_val="end",
                       id_col="event_id", num_partitions=3).materialize()
        # int keys spread over partitions, only one of which holds the
        # null key: every output block types the key int64 (a pandas
        # partition would type it double beside a null, int64 without)
        keyed = pd.DataFrame({
            "event_id": np.arange(12, dtype=np.int64),
            "user_id": pd.array([1, 1, 2, 2, 3, 3, 4, 4, 5, 5, None, None], dtype="Int64"),
            "event_type": ["start", "end"] * 6,
            "ts": np.datetime64("2025-04-01", "us") + np.arange(12).astype("timedelta64[s]"),
        })
        spans = pair_spans(ray.data.from_pandas(keyed), key="user_id", ts_col="ts",
                           type_col="event_type", start_val="start", end_val="end",
                           id_col="event_id", num_partitions=4)
        blocks = pa.concat_tables(ray.get(spans.to_arrow_refs()))
        assert blocks.schema.field("user_id").type == pa.int64()
        assert sorted(blocks.column("end_id").to_pylist(), key=str) == [1, 3, 5, 7, 9, None]


def _ewma_reference(df: pd.DataFrame, alpha=0.25) -> dict:
    """Scalar left fold per key, exact IEEE op order a*x + (1-a)*acc."""
    out = {}
    beta = 1.0 - alpha
    for _, sub in df.sort_values(
        ["user_id", "ts", "event_id"], kind="mergesort"
    ).groupby("user_id", sort=False):
        y = None
        for eid, x in zip(sub["event_id"], sub["cents"].astype(np.float64)):
            x = 0.0 if pd.isna(x) else float(x)
            y = x if y is None else alpha * x + beta * y
            out[int(eid)] = y
    return out


class TestGroupedEwma:
    def test_bitwise_matches_sequential_fold(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_ewma

        df = _events_frame(400, seed=3)
        ds = ray.data.from_pandas(df).repartition(5)
        out = grouped_ewma(
            ds, key="user_id", order_cols=["ts", "event_id"],
            value_col="cents", alpha=0.25, num_partitions=4,
        ).to_pandas()
        ref = _ewma_reference(df)
        got = dict(zip(out["event_id"].astype(int), out["ewma"]))
        assert len(got) == len(ref)
        for eid, v in ref.items():
            # bit-exact: the vectorized rank loop performs the SAME
            # float ops as the scalar fold
            assert got[eid] == v, (eid, got[eid], v)

    def test_block_invariance(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_ewma

        df = _events_frame(300, seed=7)
        outs = []
        for nblocks in (1, 4, 11):
            ds = ray.data.from_pandas(df).repartition(nblocks)
            out = grouped_ewma(
                ds, key="user_id", order_cols=["ts", "event_id"],
                value_col="cents", num_partitions=3,
            ).to_pandas().sort_values("event_id").reset_index(drop=True)
            outs.append(out["ewma"].to_numpy())
        assert (outs[0] == outs[1]).all() and (outs[0] == outs[2]).all()

    def test_null_values_contribute_zero(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_ewma

        df = pd.DataFrame({
            "event_id": np.arange(4, dtype=np.int64),
            "user_id": np.zeros(4, dtype=np.int64),
            "ts": pd.to_datetime(
                ["2025-01-01", "2025-01-02", "2025-01-03", "2025-01-04"]
            ),
            "cents": pd.array([8.0, None, 4.0, None], dtype="Float64"),
        })
        out = grouped_ewma(
            ray.data.from_pandas(df), key="user_id",
            order_cols=["ts", "event_id"], value_col="cents",
            alpha=0.25, num_partitions=2,
        ).to_pandas().sort_values("event_id")
        # y1=8, y2=.25*0+.75*8=6, y3=.25*4+.75*6=5.5, y4=.75*5.5=4.125
        assert out["ewma"].tolist() == [8.0, 6.0, 5.5, 4.125]

    def test_alpha_bounds(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import grouped_ewma

        df = _events_frame(10)
        with pytest.raises(ValueError, match="alpha"):
            grouped_ewma(
                ray.data.from_pandas(df), key="user_id",
                order_cols=["ts"], value_col="cents", alpha=0.0,
            )


class TestSequenceIntegrity:
    def _frame(self):
        # conv a: [0,1,2,4,4] → missing 3, dup 4
        # conv b: [1,2,3]     → contiguous (min 1 is fine)
        # conv c: [7]         → contiguous single
        return pd.DataFrame({
            "conv_id": ["a"] * 5 + ["b"] * 3 + ["c"],
            "turn_idx": np.array([0, 1, 2, 4, 4, 1, 2, 3, 7], dtype=np.int32),
        })

    def test_semantics(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import sequence_integrity

        out = sequence_integrity(
            ray.data.from_pandas(self._frame()).repartition(3),
            key="conv_id", idx_col="turn_idx", num_partitions=2,
        ).to_pandas().set_index("conv_id").sort_index()
        a = out.loc["a"]
        assert (a["n_turns"], a["n_distinct"], a["min_idx"], a["max_idx"]) == (5, 4, 0, 4)
        assert (a["n_missing"], a["n_dups"], a["is_contiguous"]) == (1, 1, False)
        b = out.loc["b"]
        assert (b["n_turns"], b["n_missing"], b["n_dups"]) == (3, 0, 0)
        assert bool(b["is_contiguous"])
        c = out.loc["c"]
        assert (c["n_turns"], c["min_idx"], c["max_idx"]) == (1, 7, 7)
        assert bool(c["is_contiguous"])

    def test_hot_key_forwards_deduped_pairs(self, ray_session):
        """A million-repeat (key, idx) pair in one batch rides the
        exchange as ONE partial row — verified via reference equality
        on a frame with extreme repetition."""
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import sequence_integrity

        df = pd.DataFrame({
            "conv_id": ["hot"] * 50_000 + ["cold"],
            "turn_idx": np.r_[np.zeros(50_000, dtype=np.int64),
                              np.array([2], dtype=np.int64)],
        })
        out = sequence_integrity(
            ray.data.from_pandas(df).repartition(4),
            key="conv_id", idx_col="turn_idx", num_partitions=2,
        ).to_pandas().set_index("conv_id")
        assert out.loc["hot", "n_turns"] == 50_000
        assert out.loc["hot", "n_dups"] == 49_999
        assert out.loc["hot", "n_missing"] == 0

    def test_block_invariance(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import sequence_integrity

        rng = np.random.RandomState(5)
        df = pd.DataFrame({
            "conv_id": [f"c{v}" for v in rng.randint(0, 30, 2000)],
            "turn_idx": rng.randint(0, 25, 2000).astype(np.int32),
        })
        frames = []
        for nblocks in (1, 7):
            out = sequence_integrity(
                ray.data.from_pandas(df).repartition(nblocks),
                key="conv_id", idx_col="turn_idx", num_partitions=3,
            ).to_pandas().sort_values("conv_id").reset_index(drop=True)
            frames.append(out)
        pd.testing.assert_frame_equal(frames[0], frames[1])


class TestPsiDrift:
    def _frame(self):
        rng = np.random.RandomState(9)
        n = 4000
        ts = np.r_[
            np.datetime64("2025-03-01", "us")
            + rng.randint(0, 86_400_000_000, n // 2).astype("timedelta64[us]"),
            np.datetime64("2025-03-02", "us")
            + rng.randint(0, 86_400_000_000, n // 2).astype("timedelta64[us]"),
        ]
        # window B shifted right: drift must be detected
        vals = np.r_[rng.uniform(0, 80, n // 2), rng.uniform(20, 100, n // 2)]
        return pd.DataFrame({"ts": ts, "value": vals})

    def _reference(self, df, lo=0.0, hi=100.0, nbins=10):
        import math

        w = (hi - lo) / nbins
        a = df[df["ts"] < np.datetime64("2025-03-02", "us")]["value"]
        b = df[df["ts"] >= np.datetime64("2025-03-02", "us")]["value"]
        bins_a = np.clip(np.floor((a.to_numpy() - lo) / w), 0, nbins - 1).astype(int)
        bins_b = np.clip(np.floor((b.to_numpy() - lo) / w), 0, nbins - 1).astype(int)
        na = np.bincount(bins_a, minlength=nbins)
        nb = np.bincount(bins_b, minlength=nbins)
        out = {}
        for i in range(nbins):
            if na[i] + nb[i] == 0:
                continue
            pa_, pb_ = na[i] / int(na.sum()), nb[i] / int(nb.sum())
            term = ((pa_ - pb_) * math.log(pa_ / pb_)
                    if na[i] > 0 and nb[i] > 0 else None)
            out[i] = (int(na[i]), int(nb[i]), pa_, pb_, term)
        return out

    def test_matches_reference(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import psi_drift

        df = self._frame()
        out = psi_drift(
            ray.data.from_pandas(df).repartition(6),
            val_col="value", ts_col="ts",
            a_range=("2025-03-01", "2025-03-02"),
            b_range=("2025-03-02", "2025-03-03"),
            lo=0.0, hi=100.0, nbins=10, num_partitions=3,
        ).to_pandas().set_index("bin")
        ref = self._reference(df)
        assert sorted(out.index) == sorted(ref)
        for i, (na, nb, pa_, pb_, term) in ref.items():
            row = out.loc[i]
            assert (row["n_a"], row["n_b"]) == (na, nb)
            assert row["p_a"] == pa_ and row["p_b"] == pb_
            if term is None:
                assert pd.isna(row["psi_term"])
            else:
                assert row["psi_term"] == term  # bit-exact glibc ln
        # the planted shift must register: the disjoint tails (values
        # only one window can produce) surface as one-sided NULL-term
        # bins, and the overlapping bins still carry positive PSI
        assert out["psi_term"].isna().sum() >= 2
        assert out["psi_term"].dropna().sum() > 0.0

    def test_zero_side_bin_is_null_and_clipping(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import psi_drift

        df = pd.DataFrame({
            "ts": np.array(
                ["2025-03-01T01", "2025-03-01T02", "2025-03-02T01", "2025-03-02T02"],
                dtype="datetime64[us]"),
            # -5 clips into bin 0; 250 clips into bin 9
            "value": [-5.0, 95.0, 95.0, 250.0],
        })
        out = psi_drift(
            ray.data.from_pandas(df), val_col="value", ts_col="ts",
            a_range=("2025-03-01", "2025-03-02"),
            b_range=("2025-03-02", "2025-03-03"),
            lo=0.0, hi=100.0, nbins=10, num_partitions=2,
        ).to_pandas().set_index("bin")
        assert set(out.index) == {0, 9}
        assert pd.isna(out.loc[0, "psi_term"])  # n_b == 0
        assert out.loc[9, "n_a"] == 1 and out.loc[9, "n_b"] == 2

    def test_block_invariance(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import psi_drift

        df = self._frame()
        outs = []
        for nblocks in (1, 9):
            out = psi_drift(
                ray.data.from_pandas(df).repartition(nblocks),
                val_col="value", ts_col="ts",
                a_range=("2025-03-01", "2025-03-02"),
                b_range=("2025-03-02", "2025-03-03"),
                lo=0.0, hi=100.0, nbins=10, num_partitions=3,
            ).to_pandas().sort_values("bin").reset_index(drop=True)
            outs.append(out)
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestCounterIncrease:
    """counter_increase (stages/windows.py): PromQL increase() with
    reset detection, SQL lag NULL discipline."""

    @staticmethod
    def _reference(df: pd.DataFrame) -> dict:
        out = {}
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        for _, g in df.groupby("user_id", sort=False):
            prev = None
            for _, row in g.iterrows():
                v = row["cents"] if pd.notna(row["cents"]) else None
                d = None if (prev is None or v is None) else v - prev
                if d is None:
                    inc = None
                elif d < 0:
                    inc = v
                else:
                    inc = d
                out[int(row["event_id"])] = inc
                prev = v
        return out

    def test_matches_plain_reference_with_resets(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import counter_increase

        df = _events_frame(n=400, seed=23)
        # make it counter-like: mostly rising, planted resets
        df["cents"] = np.abs(df["cents"]).cumsum() % 997  # wraps → resets
        ref = self._reference(df)
        out = counter_increase(
            ray.data.from_pandas(df.rename(columns={"cents": "cents"})),
            key="user_id", order_cols=["ts", "event_id"], value_col="cents",
            num_partitions=4,
        ).to_pandas()
        got = {int(r.event_id): (None if pd.isna(r.inc) else int(r.inc))
               for r in out.itertuples()}
        assert got == ref
        # both branches exercised
        incs = [v for v in ref.values() if v is not None]
        assert any(v < 0 for _, v in _counter_deltas(df)) and incs

    def test_null_reading_propagates_like_sql_lag(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import counter_increase

        df = pd.DataFrame({
            "event_id": np.arange(5, dtype=np.int64),
            "user_id": np.zeros(5, dtype=np.int64),
            "ts": pd.to_datetime("2025-01-01") + pd.to_timedelta(np.arange(5), "s"),
            "cents": pd.array([10, None, 30, 20, 25], dtype="Int64"),
        })
        out = counter_increase(
            ray.data.from_pandas(df), key="user_id",
            order_cols=["ts", "event_id"], value_col="cents", num_partitions=2,
        ).to_pandas().sort_values("event_id")
        # first row NULL; rows adjacent to the NULL reading NULL;
        # 30→20 is a reset → 20; 20→25 is +5
        assert [None if pd.isna(v) else int(v) for v in out["inc"]] == \
            [None, None, None, 20, 5]

    def test_block_split_invariance(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import counter_increase

        df = _events_frame(n=300, seed=7)
        outs = []
        for blocks in (1, 7):
            ds = ray.data.from_pandas([d for d in np.array_split(df, blocks)])
            out = counter_increase(
                ds, key="user_id", order_cols=["ts", "event_id"],
                value_col="cents", num_partitions=3,
            ).to_pandas().sort_values("event_id").reset_index(drop=True)
            outs.append(out)
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_float_counter_matches_case_twin(self, ray_session):
        """ADVICE r4: a float-valued counter must round, never
        truncate, wherever a float reading meets an integer delta —
        and the float path itself must match the SQL CASE twin."""
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.windows import counter_increase

        df = pd.DataFrame({
            "event_id": np.arange(6, dtype=np.int64),
            "user_id": np.zeros(6, dtype=np.int64),
            "ts": pd.to_datetime("2025-01-01") + pd.to_timedelta(np.arange(6), "s"),
            "reading": np.array([1.5, 3.25, 2.75, 2.75, 10.0, 4.5]),
        })
        out = counter_increase(
            ray.data.from_pandas(df), key="user_id",
            order_cols=["ts", "event_id"], value_col="reading",
            num_partitions=2,
        ).to_pandas().sort_values("event_id")
        want = [None, 1.75, 2.75, 0.0, 7.25, 4.5]
        got = [None if pd.isna(v) else float(v) for v in out["inc"]]
        assert got == want


def _counter_deltas(df: pd.DataFrame):
    df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    for _, g in df.groupby("user_id", sort=False):
        v = g["cents"].to_numpy()
        for i in range(1, len(v)):
            yield int(g["event_id"].iloc[i]), int(v[i] - v[i - 1])


_win_row = st.tuples(
    st.one_of(st.none(), st.integers(0, 3)),   # key (None = null)
    st.integers(0, 40),                         # ts µs: windows of 10, ties common
    st.sampled_from(["start", "end", "other"]),
)


def _canon_rows(t: pa.Table, by: str) -> list:
    return sorted(t.to_pylist(), key=lambda r: r[by])


@settings(max_examples=60, deadline=None)
@given(st.lists(_win_row, min_size=1, max_size=40),
       st.lists(st.integers(0, 40), max_size=3),
       st.lists(st.integers(0, 2), min_size=5, max_size=5),
       st.randoms(use_true_random=False))
def test_window_kernels_random_split_invariant(rows, cuts, part_of, rnd):
    """Each batch kernel on random cuts, then its merge, equals one pass
    over the whole batch: ``window_dedup``'s keep-first partial and
    merge (cut by rows) and ``pair_spans``' partition kernel (cut by key,
    rows shuffled), null keys included."""
    from logstash_filter_elastic_integration_ray.stages.windows import (
        _first_in_window,
        pair_partition,
    )

    n = len(rows)
    t = pa.table({
        "k": pa.array([k for k, _, _ in rows], type=pa.int64()),
        "ts": pa.array([s for _, s, _ in rows], type=pa.int64()),
        "event_id": pa.array(np.arange(n), type=pa.int64()),
    })
    win = t.column("ts").to_numpy() // 10
    whole = _first_in_window(t, ["k"], "ts", "event_id", win)
    bounds = [0, *sorted({min(c, n) for c in cuts}), n]
    parts = pa.concat_tables([
        _first_in_window(t.slice(a, b - a), ["k"], "ts", "event_id", win[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])])
    merged = _first_in_window(parts.drop_columns(["win"]), ["k"], "ts", "event_id",
                              parts.column("win").to_numpy())
    assert _canon_rows(merged, "event_id") == _canon_rows(whole, "event_id")

    keep = np.array([e != "other" for _, _, e in rows], dtype=bool)
    spans = pa.table({
        "k": pa.array([k for k, _, _ in rows], type=pa.int64()),
        "ts": pa.array(np.datetime64("2025-01-01", "us")
                       + np.array([s for _, s, _ in rows]).astype("timedelta64[us]")),
        "event_id": pa.array(np.arange(n), type=pa.int64()),
        "__is_start": pa.array([e == "start" for _, _, e in rows]),
    }).filter(pa.array(keep))
    run = lambda d: pair_partition(d, key="k", ts_col="ts", id_col="event_id")  # noqa: E731
    part = np.array([part_of[4 if k is None else k] for k in spans.column("k").to_pylist()])
    pieces = []
    for p in range(3):
        idx = np.flatnonzero(part == p)
        rnd.shuffle(idx)
        if len(idx):
            pieces.append(run(spans.take(pa.array(idx))))
    if spans.num_rows:
        # concat_tables raises if two partitions typed a column apart
        assert (_canon_rows(pa.concat_tables(pieces), "start_id")
                == _canon_rows(run(spans), "start_id"))
