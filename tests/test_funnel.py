"""funnel_steps / cohort_retention (stages/funnel.py): plain-Python
reference equality, strictly-after semantics, chain breaks, cohort
boundary exactness, and batch/partition invariance."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

WEEK_US = 7 * 24 * 3600 * 1_000_000
ORIGIN = np.datetime64("2025-01-06", "us")  # a Monday


def _events(n=600, seed=5):
    rng = np.random.RandomState(seed)
    ts = ORIGIN + rng.randint(0, 40 * 24 * 3600 * 1_000_000, n).astype(
        "timedelta64[us]"
    )
    return pd.DataFrame({
        "user_id": rng.randint(0, 30, n).astype(np.int64),
        "ts": ts,
        "event_type": rng.choice(
            ["view", "click", "purchase", "error"], n, p=[0.4, 0.3, 0.1, 0.2]
        ),
    })


def _funnel_reference(df: pd.DataFrame, steps) -> pd.DataFrame:
    rows = []
    for uid, g in df.groupby("user_id"):
        g = g.sort_values("ts")
        prev = None
        stamps = []
        for s in steps:
            cand = g[(g.event_type == s)]
            if prev is not None:
                cand = cand[cand.ts > prev]
            t = cand.ts.min() if len(cand) else pd.NaT
            if pd.isna(t):
                stamps.append(pd.NaT)
                prev = None
                # chain broken: everything after is NaT
                stamps.extend([pd.NaT] * (len(steps) - len(stamps)))
                break
            stamps.append(t)
            prev = t
        if pd.isna(stamps[0]):
            continue
        completed = int(pd.Series(stamps).notna().sum())
        # completed counts the consecutive prefix only
        cons = 0
        for t in stamps:
            if pd.isna(t):
                break
            cons += 1
        rows.append({"user_id": uid,
                     **{f"step{i+1}_ts": t for i, t in enumerate(stamps)},
                     "steps_completed": cons})
    return pd.DataFrame(rows).sort_values("user_id").reset_index(drop=True)


def _run_funnel(df, steps, blocks=4, num_partitions=6):
    import ray

    from logstash_filter_elastic_integration_ray.stages.funnel import funnel_steps

    ds = ray.data.from_arrow(
        pa.Table.from_pandas(df, preserve_index=False)
    ).repartition(blocks)
    out = funnel_steps(
        ds, key="user_id", ts_col="ts", type_col="event_type",
        steps=steps, num_partitions=num_partitions,
    ).to_pandas()
    if out.empty:  # Ray to_pandas drops schema on all-empty datasets
        return out
    return out.sort_values("user_id").reset_index(drop=True)


class TestFunnelSteps:
    def test_matches_reference(self, ray_session):
        df = _events()
        steps = ["view", "click", "purchase"]
        got = _run_funnel(df, steps)
        exp = _funnel_reference(df, steps)
        assert len(got) == len(exp)
        assert (got["user_id"].to_numpy() == exp["user_id"].to_numpy()).all()
        for c in ("step1_ts", "step2_ts", "step3_ts"):
            a, b = pd.to_datetime(got[c]), pd.to_datetime(exp[c])
            assert ((a.isna() == b.isna()) & ((a == b) | a.isna())).all(), c
        assert (
            got["steps_completed"].to_numpy() == exp["steps_completed"].to_numpy()
        ).all()

    def test_strictly_after_shared_timestamp(self, ray_session):
        t0 = pd.Timestamp("2025-01-06 12:00:00")
        df = pd.DataFrame({
            "user_id": np.array([1, 1, 2, 2], dtype=np.int64),
            # user 1: click at the SAME instant as view → must not count;
            # user 2: click strictly later → counts
            "ts": [t0, t0, t0, t0 + pd.Timedelta(seconds=1)],
            "event_type": ["view", "click", "view", "click"],
        })
        got = _run_funnel(df, ["view", "click"], blocks=1, num_partitions=2)
        got = got.set_index("user_id")
        assert got.loc[1, "steps_completed"] == 1
        assert pd.isna(got.loc[1, "step2_ts"])
        assert got.loc[2, "steps_completed"] == 2

    def test_never_entered_user_absent(self, ray_session):
        df = pd.DataFrame({
            "user_id": np.array([7], dtype=np.int64),
            "ts": [pd.Timestamp("2025-01-06")],
            "event_type": ["click"],  # no 'view' → never entered
        })
        got = _run_funnel(df, ["view", "click"], blocks=1, num_partitions=2)
        assert len(got) == 0

    def test_partition_invariance(self, ray_session):
        df = _events(seed=9)
        a = _run_funnel(df, ["view", "click"], blocks=1, num_partitions=2)
        b = _run_funnel(df, ["view", "click"], blocks=7, num_partitions=11)
        pd.testing.assert_frame_equal(a, b)


def _cohort_reference(df: pd.DataFrame) -> pd.DataFrame:
    origin = ORIGIN.astype(np.int64)
    period = (df.ts.to_numpy().astype("datetime64[us]").astype(np.int64) - origin) // WEEK_US
    act = pd.DataFrame({"user_id": df.user_id, "period": period}).drop_duplicates()
    first = act.groupby("user_id")["period"].min().rename("cohort")
    act = act.join(first, on="user_id")
    out = (
        act.assign(periods_since=act.period - act.cohort)
        .groupby(["cohort", "periods_since"]).size().rename("n_active").reset_index()
        .rename(columns={"cohort": "cohort_period"})
    )
    return out.sort_values(["cohort_period", "periods_since"]).reset_index(drop=True)


class TestCohortRetention:
    def _run(self, df, blocks=4, num_partitions=6):
        import ray

        from logstash_filter_elastic_integration_ray.stages.funnel import (
            cohort_retention,
        )

        ds = ray.data.from_arrow(
            pa.Table.from_pandas(df, preserve_index=False)
        ).repartition(blocks)
        out = cohort_retention(
            ds, key="user_id", ts_col="ts", origin_us=int(ORIGIN.astype(np.int64)),
            num_partitions=num_partitions,
        ).to_pandas()
        return out.sort_values(["cohort_period", "periods_since"]).reset_index(drop=True)

    def test_matches_reference(self, ray_session):
        df = _events()
        got = self._run(df)
        exp = _cohort_reference(df)
        assert (got.to_numpy() == exp.to_numpy()).all()

    def test_exact_period_boundary(self, ray_session):
        # an event EXACTLY one period after origin must bin to period 1,
        # not 0 (the float-divide failure mode the int64 floor_divide
        # implementation guards against)
        df = pd.DataFrame({
            "user_id": np.array([1, 1], dtype=np.int64),
            "ts": [pd.Timestamp(ORIGIN), pd.Timestamp(ORIGIN + np.timedelta64(WEEK_US, "us"))],
        })
        got = self._run(df, blocks=1, num_partitions=2)
        assert got.periods_since.tolist() == [0, 1]
        assert got.n_active.tolist() == [1, 1]

    def test_ts_before_origin_raises(self, ray_session):
        df = pd.DataFrame({
            "user_id": np.array([1], dtype=np.int64),
            "ts": [pd.Timestamp(ORIGIN - np.timedelta64(1, "us"))],
        })
        with pytest.raises(Exception, match="before origin"):
            self._run(df, blocks=1, num_partitions=1)

    def test_partition_invariance(self, ray_session):
        df = _events(seed=3)
        a = self._run(df, blocks=1, num_partitions=2)
        b = self._run(df, blocks=9, num_partitions=13)
        pd.testing.assert_frame_equal(a, b)

    def test_cohort_zero_is_cohort_size(self, ray_session):
        df = _events(seed=13)
        got = self._run(df)
        exp = _cohort_reference(df)
        base = got[got.periods_since == 0].set_index("cohort_period")["n_active"]
        ebase = exp[exp.periods_since == 0].set_index("cohort_period")["n_active"]
        assert (base == ebase).all()


_funnel_row = st.tuples(
    st.one_of(st.none(), st.integers(0, 4)),                 # user (None = null key)
    st.integers(0, 12),                                       # ts: ties are common
    st.sampled_from(["view", "click", "purchase", "error"]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_funnel_row, min_size=1, max_size=40),
       st.lists(st.integers(0, 2), min_size=6, max_size=6), st.randoms(use_true_random=False))
def test_funnel_partition_random_split_invariant(rows, part_of, rnd):
    """The per-partition kernel over any split of the entities into
    partitions, rows in any order, equals one pass over every row."""
    from logstash_filter_elastic_integration_ray.stages.funnel import funnel_partition

    steps = ["view", "click", "purchase"]
    df = pd.DataFrame({
        "user_id": pd.array([u for u, _, _ in rows], dtype="Int64"),
        "ts": ORIGIN + np.array([t for _, t, _ in rows]).astype("timedelta64[s]"),
        "event_type": [e for _, _, e in rows],
    })

    def canon(t: pa.Table) -> list:
        return sorted(t.to_pylist(), key=lambda r: (r["user_id"] is None, r["user_id"] or 0))

    run = lambda part: funnel_partition(part, key="user_id", ts_col="ts",  # noqa: E731
                                        type_col="event_type", steps=steps)
    whole = run(df)
    part = np.array([part_of[5 if u is None else u] for u, _, _ in rows])
    pieces = []
    for p in range(3):
        sub = df[part == p]
        idx = list(range(len(sub)))
        rnd.shuffle(idx)
        if len(sub):
            pieces.append(run(sub.iloc[idx].reset_index(drop=True)))
    assert canon(pa.concat_tables(pieces)) == canon(whole)
