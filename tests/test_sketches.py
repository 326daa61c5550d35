"""Sketch/summary stage tests: exact heavy hitters, Misra-Gries
guarantee, exact distributed quantiles, deterministic stratified
sampling."""

import pickle

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logstash_filter_elastic_integration_ray.stages.sketches import (
    _SAMPLE_MOD,
    _SAMPLE_MULT,
    _mg_compress,
    exact_quantiles,
    mg_partials,
    sample_stratified,
    token_count_partials,
    top_k_tokens,
    top_k_tokens_sketch,
)


def _zipf_docs(n_docs=200, seed=3):
    """Documents whose token frequencies follow a zipf-ish law."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(500)]
    p = 1.0 / np.arange(1, len(vocab) + 1)
    p /= p.sum()
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(5, 40), p=p)) for _ in range(n_docs)
    ]
    return pa.table({"doc_id": pa.array(range(n_docs), type=pa.int64()),
                     "text": pa.array(texts)})


def _exact_counts(table: pa.Table) -> pd.Series:
    toks = []
    for t in table.column("text").to_pylist():
        toks.extend(t.split(" "))
    return pd.Series(toks).value_counts()


def test_token_count_partials_match_plain_counts():
    t = _zipf_docs(50)
    part = token_count_partials(t).to_pandas().set_index("token")["cnt"]
    exact = _exact_counts(t)
    assert part.sort_index().equals(exact.sort_index().astype("int64"))


def test_top_k_tokens_exact(ray_session):
    import ray.data as rd

    t = _zipf_docs(200)
    exact = _exact_counts(t)
    expect = (
        exact.rename_axis("token").reset_index(name="cnt")
        .sort_values(["cnt", "token"], ascending=[False, True], kind="mergesort")
        .head(10).reset_index(drop=True)
    )
    got = (
        top_k_tokens(rd.from_arrow(t).repartition(7), k=10)
        .to_pandas().reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, expect.astype({"cnt": "int64"}))


def test_mg_compress_properties():
    toks = np.array([f"t{i}" for i in range(10)], dtype=object)
    cnts = np.array([100, 90, 80, 5, 4, 3, 3, 2, 2, 1], dtype=np.int64)
    kt, kc = _mg_compress(toks, cnts, capacity=3)
    assert len(kt) <= 3
    # every kept count is an underestimate by exactly the 4th-largest
    assert list(kc) == [95, 85, 75]
    # no compression needed when under capacity
    kt2, kc2 = _mg_compress(toks[:3], cnts[:3], capacity=3)
    assert list(kc2) == [100, 90, 80]


def test_mg_sketch_frequent_items_guarantee(ray_session):
    import ray.data as rd

    t = _zipf_docs(300, seed=11)
    exact = _exact_counts(t)
    total = int(exact.sum())
    capacity = 64
    got = top_k_tokens_sketch(
        rd.from_arrow(t).repartition(5), k=30, capacity=capacity
    ).to_pandas()
    got_tokens = set(got["token"])
    # Misra-Gries contract: every token with true frequency >
    # total/(capacity+1) must surface, and reported counts are lower
    # bounds within total/(capacity+1) of truth
    bar = total / (capacity + 1)
    for tok, cnt in exact.items():
        if cnt > bar:
            assert tok in got_tokens, f"{tok} ({cnt} > {bar}) missing"
    for _, row in got.iterrows():
        true = int(exact.get(row["token"], 0))
        assert row["cnt"] <= true
        assert true - row["cnt"] <= bar + 1e-9


def _qdisc(values, q):
    """quantile_disc ground truth: element at rank max(1, ceil(q*n))."""
    s = np.sort(np.asarray(values))
    r = max(1, int(np.ceil(q * len(s))))
    return s[r - 1]


def test_exact_quantiles_matches_definition(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(5)
    vals = np.concatenate([
        rng.integers(0, 10_000, size=5000),       # uniform
        np.full(3000, 42),                        # heavy duplication
        rng.normal(5000, 100, size=2000).astype(np.int64),
    ]).astype(np.float64)
    ds = rd.from_arrow(pa.table({"v": pa.array(vals)})).repartition(9)
    qs = [0.01, 0.25, 0.5, 0.75, 0.99, 1.0]
    got = exact_quantiles(ds, "v", qs, num_bins=64)
    for _, row in got.iterrows():
        assert row["value"] == _qdisc(vals, row["q"]), row["q"]


def test_exact_quantiles_single_value_and_nulls(ray_session):
    import ray.data as rd

    t = pa.table({"v": pa.array([7.0, None, 7.0, 7.0, None], type=pa.float64())})
    got = exact_quantiles(rd.from_arrow(t), "v", [0.5, 0.9])
    assert list(got["value"]) == [7.0, 7.0]
    empty = pa.table({"v": pa.array([None, None], type=pa.float64())})
    got2 = exact_quantiles(rd.from_arrow(empty), "v", [0.5])
    assert np.isnan(got2["value"].iloc[0])


def test_exact_quantiles_batch_split_invariant(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(8)
    vals = rng.normal(0, 1, size=4000)
    t = pa.table({"v": pa.array(vals)})
    a = exact_quantiles(rd.from_arrow(t).repartition(3), "v", [0.1, 0.5, 0.9])
    b = exact_quantiles(rd.from_arrow(t).repartition(17), "v", [0.1, 0.5, 0.9])
    pd.testing.assert_frame_equal(a, b)


def test_sample_stratified_deterministic_and_exact(ray_session):
    import ray.data as rd

    n = 2000
    langs = np.array(["en", "de", "fr", "zh"])[np.arange(n) % 4]
    t = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                  "lang": pa.array(langs)})
    rates = {"en": 0.5, "de": 0.25, "fr": 0.1}
    got = sample_stratified(rd.from_arrow(t).repartition(6), rates,
                            default_rate=0.05).to_pandas()
    # plain-python twin of the contract
    keep = []
    for i in range(n):
        thr = int(np.floor(rates.get(langs[i], 0.05) * _SAMPLE_MOD))
        if (i * _SAMPLE_MULT) % _SAMPLE_MOD < thr:
            keep.append(i)
    assert sorted(got["doc_id"]) == keep
    # batching must not change the selection
    got2 = sample_stratified(rd.from_arrow(t).repartition(1), rates,
                             default_rate=0.05).to_pandas()
    assert sorted(got2["doc_id"]) == keep
    # rates land near the target on uniform ids
    en = got[got["lang"] == "en"]
    assert abs(len(en) / (n / 4) - 0.5) < 0.1


def test_group_quantiles_matches_definition(ray_session):
    import ray.data as rd

    from logstash_filter_elastic_integration_ray.stages.sketches import group_quantiles

    rng = np.random.default_rng(13)
    keys = np.array(["a", "b", "c"])[rng.integers(0, 3, size=3000)]
    vals = rng.integers(0, 1000, size=3000).astype(np.float64)
    t = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    got = (
        group_quantiles(rd.from_arrow(t).repartition(5), "k", "v",
                        [0.5, 0.9], ["p50", "p90"])
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    for _, row in got.iterrows():
        g = vals[keys == row["k"]]
        assert row["p50"] == _qdisc(g, 0.5)
        assert row["p90"] == _qdisc(g, 0.9)
    assert list(got["k"]) == ["a", "b", "c"]


def test_range_join_chunked_matches_bruteforce(ray_session):
    import ray.data as rd

    from logstash_filter_elastic_integration_ray.stages.joins import range_join_chunked

    rng = np.random.default_rng(21)
    n, m = 2000, 40
    lv = rng.uniform(0, 1000, size=n)
    t_left = pa.table({"lid": pa.array(np.arange(n, dtype=np.int64)), "x": pa.array(lv)})
    lo = rng.uniform(-50, 980, size=m)
    span = rng.uniform(0, 60, size=m)
    hi = lo + span
    hi[0] = 2000.0  # one interval spanning past the axis end
    lo[1] = -100.0  # one starting before the axis
    t_right = pa.table({
        "rid": pa.array(np.arange(m, dtype=np.int64)),
        "lo": pa.array(lo), "hi": pa.array(hi),
    })
    out_schema = pa.schema([
        ("lid", pa.int64()), ("x", pa.float64()),
        ("rid", pa.int64()), ("lo", pa.float64()), ("hi", pa.float64()),
    ])
    got = range_join_chunked(
        rd.from_arrow(t_left).repartition(6), rd.from_arrow(t_right).repartition(3),
        on_left="x", lo_right="lo", hi_right="hi", num_chunks=8,
        output_schema=out_schema,
    ).to_pandas()
    expect = {
        (int(i), int(j))
        for i in range(n) for j in range(m)
        if lo[j] <= lv[i] <= hi[j]
    }
    assert set(zip(got["lid"], got["rid"])) == expect
    assert len(got) == len(expect)  # no duplicate pairs across chunks


def test_range_join_chunked_null_and_empty(ray_session):
    import ray.data as rd

    from logstash_filter_elastic_integration_ray.stages.joins import range_join_chunked

    t_left = pa.table({"lid": pa.array([1, 2, 3], type=pa.int64()),
                       "x": pa.array([1.0, None, 3.0], type=pa.float64())})
    t_right = pa.table({"rid": pa.array([10, 11], type=pa.int64()),
                        "lo": pa.array([0.5, None], type=pa.float64()),
                        "hi": pa.array([5.0, 4.0], type=pa.float64())})
    out_schema = pa.schema([("lid", pa.int64()), ("rid", pa.int64())])
    full = pa.schema([("lid", pa.int64()), ("x", pa.float64()),
                      ("rid", pa.int64()), ("lo", pa.float64()), ("hi", pa.float64())])
    got = range_join_chunked(
        rd.from_arrow(t_left), rd.from_arrow(t_right),
        on_left="x", lo_right="lo", hi_right="hi", num_chunks=4,
        output_schema=full,
    ).to_pandas()
    # null key rows and null-bound intervals never match
    assert set(zip(got["lid"], got["rid"])) == {(1, 10), (3, 10)}

    empty_left = pa.table({"lid": pa.array([], type=pa.int64()),
                           "x": pa.array([], type=pa.float64())})
    got2 = range_join_chunked(
        rd.from_arrow(empty_left), rd.from_arrow(t_right),
        on_left="x", lo_right="lo", hi_right="hi", num_chunks=4,
        output_schema=full,
    ).to_pandas()
    assert len(got2) == 0


class TestHyperLogLog:
    def test_accuracy_and_partition_invariance(self, ray_session):
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.sketches import hll_distinct

        rng = np.random.default_rng(11)
        # 100k values, ~40k distinct
        vals = rng.integers(0, 40_000, size=100_000).astype(np.int64)
        exact = len(np.unique(vals))
        t = pa.table({"v": pa.array(vals)})
        est1 = hll_distinct(rd.from_arrow(t).repartition(3), "v", p=12)
        # 1.04/sqrt(4096) ~ 1.6% std error; allow 5 sigma
        assert abs(est1 - exact) / exact < 0.08, (est1, exact)
        # register max-merge is commutative/idempotent -> the estimate
        # is EXACTLY identical under any partitioning
        est2 = hll_distinct(rd.from_arrow(t).repartition(17), "v", p=12)
        assert est1 == est2

    def test_small_range_linear_counting(self, ray_session):
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.sketches import hll_distinct

        t = pa.table({"v": pa.array(np.arange(50, dtype=np.int64))})
        est = hll_distinct(rd.from_arrow(t), "v", p=12)
        assert abs(est - 50) < 3  # linear counting is near-exact here

    def test_string_column_and_nulls(self, ray_session):
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.sketches import hll_distinct

        t = pa.table({"v": pa.array(["a", "b", None, "a", "c", None], type=pa.string())})
        est = hll_distinct(rd.from_arrow(t), "v", p=12)
        assert abs(est - 3) < 1


class TestBloomSemiJoin:
    def test_identical_to_exact_join(self, ray_session):
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.joins import (
            hash_semi_join,
            hash_semi_join_bloom,
        )

        rng = np.random.default_rng(5)
        left = pa.table({
            "k": pa.array(np.arange(2000, dtype=np.int64)),
            "val": pa.array(rng.integers(0, 10, size=2000).astype(np.int64)),
        })
        right = pa.table({"fk": pa.array(rng.integers(0, 3000, size=1500).astype(np.int64))})
        lds, rds = rd.from_arrow(left).repartition(5), rd.from_arrow(right).repartition(3)
        for anti in (False, True):
            exact = sorted(r["k"] for r in hash_semi_join(
                lds, rds, left_key="k", right_key="fk", anti=anti, num_partitions=4).take_all())
            bloom = sorted(r["k"] for r in hash_semi_join_bloom(
                lds, rds, left_key="k", right_key="fk", anti=anti, num_partitions=4,
                m_bits=1 << 14).take_all())
            assert bloom == exact, f"anti={anti}"

    def test_bloom_never_false_negative(self):
        from logstash_filter_elastic_integration_ray.stages.joins import (
            _bloom_probes,
            bloom_test,
        )

        rng = np.random.default_rng(9)
        keys = rng.integers(-2**62, 2**62, size=5000).astype(np.int64)
        m_bits, k = 1 << 16, 4
        words = np.zeros(m_bits // 64, dtype=np.uint64)
        pos = _bloom_probes(keys, m_bits, k).ravel()
        np.bitwise_or.at(words, pos // 64, np.uint64(1) << (pos % 64).astype(np.uint64))
        assert bloom_test(keys, (words, m_bits, k)).all()
        # false-positive rate stays near theory on fresh keys
        fresh = rng.integers(2**62, 2**63 - 1, size=5000).astype(np.int64)
        fp = bloom_test(fresh, (words, m_bits, k)).mean()
        assert fp < 0.05


class TestKllSketch:
    def test_rank_error_bound(self):
        from logstash_filter_elastic_integration_ray.stages.sketches import KllSketch

        rng = np.random.default_rng(13)
        vals = rng.normal(size=200_000)
        s = KllSketch(k=200)
        for chunk in np.array_split(vals, 40):
            s.update_many(chunk)
        srt = np.sort(vals)
        n = len(vals)
        for q in (0.01, 0.25, 0.5, 0.75, 0.99):
            est = s.quantile(q)
            # rank of the estimate must be within ~2% of the target
            rank = np.searchsorted(srt, est) / n
            assert abs(rank - q) < 0.02, (q, rank)

    def test_merge_preserves_bound_and_counts(self):
        from logstash_filter_elastic_integration_ray.stages.sketches import KllSketch

        rng = np.random.default_rng(7)
        a_vals, b_vals = rng.uniform(size=50_000), rng.uniform(10, 11, size=50_000)
        a, b = KllSketch(200), KllSketch(200)
        a.update_many(a_vals)
        b.update_many(b_vals)
        a.merge(b)
        assert a.n == 100_000
        # median of the merged stream sits at the boundary between the
        # two disjoint value ranges
        med = a.quantile(0.5)
        assert 0.9 < med < 10.1
        srt = np.sort(np.concatenate([a_vals, b_vals]))
        rank = np.searchsorted(srt, med) / len(srt)
        assert abs(rank - 0.5) < 0.03

    def test_roundtrip_and_determinism(self):
        from logstash_filter_elastic_integration_ray.stages.sketches import KllSketch

        rng = np.random.default_rng(3)
        vals = rng.normal(size=30_000)
        s1, s2 = KllSketch(128), KllSketch(128)
        s1.update_many(vals)
        s2.update_many(vals)
        # same items, same order -> identical sketch (deterministic coins)
        assert all(np.array_equal(x, y) for x, y in zip(s1.levels, s2.levels))
        # fold ships sketches pickled; the round trip keeps every level
        back = pickle.loads(pickle.dumps(s1))
        assert back.n == s1.n and back.quantile(0.5) == s1.quantile(0.5)
        assert all(np.array_equal(x, y) for x, y in zip(back.levels, s1.levels))

    def test_distributed_partials(self, ray_session):
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.sketches import kll_quantiles

        rng = np.random.default_rng(17)
        vals = rng.exponential(size=80_000)
        t = pa.table({"v": pa.array(vals)})
        qs = kll_quantiles(rd.from_arrow(t).repartition(9), "v", [0.5, 0.9], k=200)
        srt = np.sort(vals)
        for q, est in qs.items():
            rank = np.searchsorted(srt, est) / len(vals)
            assert abs(rank - q) < 0.03, (q, rank)


class TestCountMin:
    """cms_build/cms_query (stages/sketches.py): the one-sided
    guarantee (never undercount), the (e/w)*N error bound on a Zipfian
    corpus, exact batch-split invariance of the merged table, and
    weighted counting."""

    @staticmethod
    def _zipf_tokens(n=20000, v=500, seed=3):
        rng = np.random.RandomState(seed)
        ranks = rng.zipf(1.3, size=n) % v
        return np.array([f"tok{r}" for r in ranks], dtype=object)

    def test_never_undercounts_and_error_bound(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.sketches import cms_build, cms_query

        toks = self._zipf_tokens()
        ds = ray.data.from_arrow(pa.table({"token": pa.array(toks, type=pa.string())}))
        d, w = 5, 1 << 12
        table = cms_build(ds, "token", d=d, w=w)
        assert int(table[0].sum()) == len(toks)  # every row sums to N
        uniq, exact = np.unique(toks, return_counts=True)
        est = cms_query(table, uniq)
        assert (est >= exact).all(), "CMS must never undercount"
        bound = np.e / w * len(toks)
        frac_within = np.mean(est - exact <= bound)
        # the union bound gives P(err > bound) <= e^-d per item; allow slack
        assert frac_within >= 0.99

    def test_merged_table_batch_split_invariant(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.sketches import cms_build

        toks = self._zipf_tokens(n=5000)
        t = pa.table({"token": pa.array(toks, type=pa.string())})
        tables = []
        for nblocks in (1, 9):
            ds = ray.data.from_arrow(t).repartition(nblocks)
            tables.append(cms_build(ds, "token", d=3, w=1 << 10))
        assert (tables[0] == tables[1]).all()

    def test_weighted_counts_and_nulls(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.sketches import cms_build, cms_query

        t = pa.table(
            {
                "k": pa.array(["a", "b", "a", None, "c"]),
                "n": pa.array([10, 2, 5, 99, 1], type=pa.int64()),
            }
        )
        ds = ray.data.from_arrow(t)
        table = cms_build(ds, "k", d=4, w=1 << 8, weight_col="n")
        est = cms_query(table, ["a", "b", "c"])
        # tiny key space, wide table: estimates are exact; null row excluded
        assert est.tolist() == [15, 2, 1]


class TestHllGroupDistinct:
    """hll_group_distinct (stages/sketches.py): per-key accuracy vs
    exact nunique, EXACT batch-split invariance of estimates, null
    semantics, and register-level agreement with the global sketch."""

    @staticmethod
    def _frame(n=30000, k=12, seed=7):
        rng = np.random.RandomState(seed)
        return pd.DataFrame(
            {
                "k": rng.randint(0, k, n).astype(np.int64),
                # per-key cardinalities spread over two decades
                "v": (rng.randint(0, 5000, n) % (rng.randint(0, k, n) * 400 + 25)).astype(np.int64),
            }
        )

    def test_accuracy_per_key(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.sketches import hll_group_distinct

        df = self._frame()
        ds = ray.data.from_pandas(df).repartition(6)
        out = hll_group_distinct(ds, key="k", val="v", p=12, num_partitions=4).to_pandas()
        exact = df.groupby("k")["v"].nunique()
        assert len(out) == len(exact)
        for _, row in out.iterrows():
            e = exact[row["k"]]
            assert abs(row["approx_distinct"] - e) / max(e, 1) < 0.08, (row["k"], row["approx_distinct"], e)

    def test_batch_split_invariance_exact(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.sketches import hll_group_distinct

        df = self._frame(n=5000, k=5, seed=3)
        outs = []
        for nblocks in (1, 9):
            out = (
                hll_group_distinct(
                    ray.data.from_pandas(df).repartition(nblocks),
                    key="k", val="v", p=10, num_partitions=3,
                )
                .to_pandas().sort_values("k").reset_index(drop=True)
            )
            outs.append(out)
        pd.testing.assert_frame_equal(outs[0], outs[1])

    def test_nulls_and_single_key_matches_global(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.sketches import (
            hll_distinct,
            hll_group_distinct,
        )

        rng = np.random.RandomState(5)
        vals = [None if i % 7 == 0 else int(rng.randint(0, 800)) for i in range(4000)]
        df = pd.DataFrame({"k": ["only"] * 4000, "v": pd.array(vals, dtype="Int64")})
        t = pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)
        ds = ray.data.from_arrow(t).repartition(4)
        grouped = hll_group_distinct(ds, key="k", val="v", p=11, num_partitions=2).to_pandas()
        global_est = hll_distinct(ds, "v", p=11)
        assert len(grouped) == 1
        # same hash, same registers → identical estimate
        assert abs(grouped["approx_distinct"].iloc[0] - global_est) < 1e-9

        # an all-null group estimates 0 and still appears
        df2 = pd.DataFrame({"k": ["a", "b", "b"], "v": pd.array([1, None, None], dtype="Int64")})
        t2 = pa.Table.from_pandas(df2, preserve_index=False).replace_schema_metadata(None)
        out2 = (
            hll_group_distinct(ray.data.from_arrow(t2), key="k", val="v", p=10, num_partitions=2)
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        assert out2["k"].tolist() == ["a", "b"]
        assert out2["approx_distinct"].tolist()[1] == 0.0
        assert abs(out2["approx_distinct"].tolist()[0] - 1.0) < 0.01


class TestQuantileCont:
    def test_bitwise_parity_with_duckdb(self, ray_session):
        import duckdb
        import ray

        from logstash_filter_elastic_integration_ray.stages.sketches import exact_quantiles

        rng = np.random.RandomState(3)
        v = np.concatenate([rng.randn(5003) * 50, np.repeat(7.25, 40)])
        df = pd.DataFrame({"v": v})
        ds = ray.data.from_pandas(df).repartition(7)
        qs = [0.0, 0.013, 0.25, 0.5, 0.7777, 0.9, 1.0]
        mine = exact_quantiles(ds, "v", qs, interp=True)
        con = duckdb.connect()
        con.register("t", df)
        for q, mv in zip(mine["q"], mine["value"]):
            d = con.execute(f"SELECT quantile_cont(v, {q})::DOUBLE FROM t").fetchone()[0]
            assert d == mv, (q, d, mv)
        con.close()

    def test_disc_unchanged(self, ray_session):
        import ray

        from logstash_filter_elastic_integration_ray.stages.sketches import exact_quantiles

        v = np.arange(101, dtype=np.float64)
        ds = ray.data.from_pandas(pd.DataFrame({"v": v}))
        res = exact_quantiles(ds, "v", [0.5, 0.9])
        assert res["value"].tolist() == [50.0, 90.0]


class TestExactCorr:
    def test_matches_numpy_and_overflow_path(self, ray_session):
        import ray

        from logstash_filter_elastic_integration_ray.stages.sketches import exact_corr_stats

        rng = np.random.RandomState(9)
        x = rng.randint(-1000, 1000, 500).astype(np.int64)
        y = (3 * x + rng.randint(-200, 200, 500)).astype(np.int64)
        df = pd.DataFrame({"x": x, "y": y})
        ds = ray.data.from_pandas(df).repartition(6)
        out = exact_corr_stats(ds, "x", "y")
        # exact-sum formula evaluated the same way
        import math

        n = 500
        sx, sy = int(x.sum()), int(y.sum())
        sxx = int((x.astype(object) ** 2).sum())
        syy = int((y.astype(object) ** 2).sum())
        sxy = int((x.astype(object) * y.astype(object)).sum())
        a = n * sxy - sx * sy
        exp_corr = float(a) / math.sqrt(
            float(n * sxx - sx * sx) * float(n * syy - sy * sy))
        assert out["corr"][0] == exp_corr
        assert out["covar_samp"][0] == float(a) / float(n * (n - 1))
        assert out["corr"][0] > 0.9  # sanity: strongly correlated

    def test_huge_magnitudes_stay_exact(self, ray_session):
        import ray

        from logstash_filter_elastic_integration_ray.stages.sketches import exact_corr_stats

        big = np.int64(2**40)
        df = pd.DataFrame({
            "x": np.array([big, -big, big, -big], dtype=np.int64),
            "y": np.array([big, -big, big, -big], dtype=np.int64),
        })
        ds = ray.data.from_pandas(df)
        out = exact_corr_stats(ds, "x", "y")
        assert out["corr"][0] == 1.0  # identical columns → exactly 1
