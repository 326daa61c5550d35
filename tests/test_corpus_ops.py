"""Tests for the round-3 corpus operators: distributed k-means,
train/test decontamination, repetition quality signals, TF-IDF top
terms.  Each is cross-checked against an independent plain-Python
implementation over sf0.001, and k-means additionally against the
batch-split-invariance contract (fixed-point arithmetic must make the
result identical under any batching)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean
from logstash_filter_elastic_integration_ray.stages.clustering import (
    kmeans_assign,
    kmeans_fit,
    kmeans_reference,
)
from logstash_filter_elastic_integration_ray.stages.decontam import (
    contamination_grams,
    decontaminate,
    decontaminate_reference,
)
from logstash_filter_elastic_integration_ray.stages.textstats import (
    repetition_batch,
    tfidf_topk,
)

SF = "/root/testdata/sf0.001"


def _load_embeddings():
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    m = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)[order]
    return ids[order], m


def _load_docs():
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    return (
        np.asarray(t.column("doc_id").to_pylist(), dtype=np.int64),
        t.column("text").to_pylist(),
    )


class TestKMeans:
    def test_matches_reference(self, ray_session):
        ids, m = _load_embeddings()
        ref_assign, ref_cent = kmeans_reference(m, k=8, n_iters=8)

        ds = read_parquet_clean(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
        cent = kmeans_fit(ds, k=8, n_iters=8)
        assert np.array_equal(cent, ref_cent), "centroids diverge from single-process reference"
        out = kmeans_assign(ds, cent).take_all()
        got = {r["vec_id"]: r["cluster"] for r in out}
        assert len(got) == len(ids)
        for i, a in zip(ids, ref_assign):
            assert got[int(i)] == int(a)

    def test_batch_split_invariance(self, ray_session):
        """Fixed-point partial sums are exact int64 → the fitted
        centroids must be bit-identical under different partitionings."""
        ds1 = read_parquet_clean(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
        c1 = kmeans_fit(ds1, k=4, n_iters=3)
        ds2 = ds1.repartition(7)
        c2 = kmeans_fit(ds2, k=4, n_iters=3)
        assert np.array_equal(c1, c2)

    def test_clusters_are_nonempty_and_cover(self, ray_session):
        ids, m = _load_embeddings()
        a, _ = kmeans_reference(m, k=8, n_iters=8)
        # the synthetic embeddings carry labeled structure; expect >1 cluster
        assert len(np.unique(a)) > 1
        assert a.min() >= 0 and a.max() < 8


class TestDecontaminate:
    def test_matches_string_level_reference(self, ray_session):
        ids, texts = _load_docs()
        test_mask = ids % 97 == 0
        test_texts = [t for t, m in zip(texts, test_mask) if m]
        train_texts = [t for t, m in zip(texts, test_mask) if not m]
        train_ids = ids[~test_mask]
        ref = decontaminate_reference(train_texts, test_texts, w=4)
        assert ref.any(), "fixture scale should produce at least one contaminated doc"

        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])

        def split(keep_test):
            def fn(t: pa.Table) -> pa.Table:
                i = t.column("doc_id").to_numpy()
                m = (i % 97 == 0) if keep_test else (i % 97 != 0)
                return t.filter(pa.array(m))

            return docs.map_batches(fn, batch_format="pyarrow")

        grams_ref = contamination_grams(split(True), w=4)
        out = decontaminate(split(False), grams_ref, w=4).take_all()
        got = {r["doc_id"]: r["contaminated"] for r in out}
        assert len(got) == len(train_ids)
        for i, c in zip(train_ids, ref):
            assert got[int(i)] == bool(c), f"doc {i}"

    def test_empty_heldout_set(self, ray_session):
        import ray

        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        empty_ref = ray.put(np.empty(0, dtype=np.uint64))
        out = decontaminate(docs, empty_ref, w=4).take_all()
        assert all(not r["contaminated"] for r in out)


class TestRepetition:
    def test_matches_plain_python(self):
        ids, texts = _load_docs()
        t = pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})
        out = repetition_batch(t)
        df = out.to_pandas().set_index("doc_id")
        from collections import Counter

        for i, s in zip(ids, texts):
            toks = (s or "").split(" ")
            row = df.loc[i]
            assert row["n_tokens"] == len(toks)
            assert row["n_distinct"] == len(set(toks))
            bg = Counter(zip(toks, toks[1:]))
            top = max(bg.values()) if bg else 0
            assert row["top_bigram_n"] == top
            assert row["dup_word_frac"] == (len(toks) - len(set(toks))) / len(toks)
            assert row["top_bigram_frac"] == 2 * top / len(toks)

    def test_split_points_do_not_matter(self):
        ids, texts = _load_docs()
        t = pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})
        whole = repetition_batch(t).to_pandas()
        parts = pd.concat(
            [repetition_batch(t.slice(0, 13)).to_pandas(), repetition_batch(t.slice(13)).to_pandas()],
            ignore_index=True,
        )
        pd.testing.assert_frame_equal(
            whole.sort_values("doc_id").reset_index(drop=True),
            parts.sort_values("doc_id").reset_index(drop=True),
        )


class TestTfidf:
    def test_matches_plain_python(self, ray_session):
        ids, texts = _load_docs()
        # independent reference: dict-of-Counter tf, set-based df
        from collections import Counter

        tf = {int(i): Counter((t or "").split(" ")) for i, t in zip(ids, texts)}
        df_counts: Counter = Counter()
        for c in tf.values():
            df_counts.update(set(c))
        expected = {}
        for i, c in tf.items():
            scored = sorted(
                ((tf_v / df_counts[tok], tok, tf_v) for tok, tf_v in c.items()),
                key=lambda x: (-x[0], x[1]),
            )[:3]
            expected[i] = [(rank + 1, tok, tv, df_counts[tok]) for rank, (_, tok, tv) in enumerate(scored)]

        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        out = tfidf_topk(docs, k=3).take_all()
        got: dict = {}
        for r in out:
            got.setdefault(r["doc_id"], []).append((r["rank"], r["token"], r["tf"], r["df"]))
        for i in expected:
            assert sorted(got[i]) == sorted(expected[i]), f"doc {i}"


def _ray_docs(ids, texts):
    import ray.data as rd

    t = pa.table({"doc_id": pa.array(np.asarray(ids, dtype=np.int64)),
                  "text": pa.array(texts, type=pa.string())})
    return rd.from_arrow(t).repartition(3)


class TestDupNgram:
    def test_matches_string_level_reference(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import dup_ngram_stats
        from collections import Counter

        ids, texts = _load_docs()
        w = 4
        # independent reference on gram STRINGS
        doc_grams = []
        for t in texts:
            toks = (t or "").split(" ")
            doc_grams.append([" ".join(toks[i:i + w]) for i in range(len(toks) - w + 1)])
        in_docs: Counter = Counter()
        for gs in doc_grams:
            in_docs.update(set(gs))
        out = dup_ngram_stats(
            read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"]), w=w
        ).take_all()
        got = {r["doc_id"]: r for r in out}
        assert len(got) == len(ids)
        any_dup = False
        for i, gs in zip(ids, doc_grams):
            n_dup = sum(1 for g in gs if in_docs[g] >= 2)
            r = got[int(i)]
            assert r["n_grams"] == len(gs)
            assert r["n_dup_grams"] == n_dup, f"doc {i}"
            exp = n_dup / len(gs) if gs else 0.0
            assert r["dup_gram_frac"] == exp
            any_dup = any_dup or n_dup > 0
        assert any_dup, "fixture scale should contain cross-doc duplicated grams"

    def test_short_docs_and_within_doc_repeats(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import dup_ngram_stats

        texts = [
            "a b c d e f",          # shares 'a b c d' with doc 1
            "a b c d x y",
            "zz",                   # shorter than w -> 0 grams
            "p q r s p q r s p q r s",  # within-doc repeats, no cross-doc dup
        ]
        out = {r["doc_id"]: r for r in dup_ngram_stats(_ray_docs(range(4), texts), w=4, num_partitions=4).take_all()}
        assert out[0]["n_grams"] == 3 and out[0]["n_dup_grams"] == 1
        assert out[1]["n_grams"] == 3 and out[1]["n_dup_grams"] == 1
        assert out[2]["n_grams"] == 0 and out[2]["dup_gram_frac"] == 0.0
        # 'p q r s' repeats within doc 3 only: positions count, but the
        # gram is in ONE doc -> not cross-doc duplicated
        assert out[3]["n_dup_grams"] == 0 and out[3]["n_grams"] == 9


class TestPackDocs:
    def test_matches_plain_cumsum(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import pack_docs

        ids, texts = _load_docs()
        order = np.argsort(ids)
        cap = 64
        expected = []
        off = 0
        for i in order:
            n = len((texts[i] or "").split(" "))
            for b in range(off // cap, (off + n - 1) // cap + 1):
                s = max(0, b * cap - off)
                e = min(n, (b + 1) * cap - off)
                expected.append((int(ids[i]), b, s, e, e - s))
            off += n
        out = pack_docs(
            read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"]), cap=cap
        ).take_all()
        got = sorted((r["doc_id"], r["bin"], r["tok_start"], r["tok_end"], r["n_toks"]) for r in out)
        assert got == sorted(expected)
        # every bin except the last is exactly full
        per_bin: dict = {}
        for _, b, _, _, nt in got:
            per_bin[b] = per_bin.get(b, 0) + nt
        last = max(per_bin)
        assert all(v == cap for b, v in per_bin.items() if b != last)

    def test_doc_spanning_many_bins(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import pack_docs

        texts = ["x " * 9 + "x", " ".join(["y"] * 70), "z"]  # 10, 70, 1 tokens
        out = sorted(
            (r["doc_id"], r["bin"], r["tok_start"], r["tok_end"])
            for r in pack_docs(_ray_docs([5, 6, 7], texts), cap=16, num_partitions=2).take_all()
        )
        # doc 5: [0,10) in bin 0; doc 6: offsets 10..80 -> bins 0..4
        assert out == [
            (5, 0, 0, 10),
            (6, 0, 0, 6), (6, 1, 6, 22), (6, 2, 22, 38), (6, 3, 38, 54), (6, 4, 54, 70),
            (7, 5, 0, 1),
        ]

    def test_prefix_sum_partitioning_invariance(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import ordered_prefix_sum
        import ray.data as rd

        rng = np.random.default_rng(7)
        ids = rng.permutation(200).astype(np.int64)
        vals = rng.integers(1, 50, size=200).astype(np.int64)
        t = pa.table({"doc_id": pa.array(ids), "n": pa.array(vals)})
        exp_off = {}
        acc = 0
        for i in np.sort(ids):
            exp_off[int(i)] = acc
            acc += int(vals[np.flatnonzero(ids == i)[0]])
        for p in (1, 4, 13):
            out = ordered_prefix_sum(
                rd.from_arrow(t).repartition(5), order_col="doc_id", val_col="n", num_partitions=p
            ).take_all()
            got = {r["doc_id"]: r["off"] for r in out}
            assert got == exp_off, f"num_partitions={p}"

    def test_prefix_sum_null_order_key_raises(self, ray_session):
        """A null id once landed in chunk 0 as INT64_MIN and sorted last
        there: ids [3, null, 1, 2] gave off 50 for id 2 (not 30).  Now it
        raises, with or without bounds, and so does an all-null batch."""
        from logstash_filter_elastic_integration_ray.stages.corpus import ordered_prefix_sum
        import ray.data as rd

        t = pa.table({"doc_id": pa.array([3, None, 1, 2], type=pa.int64()),
                      "n": pa.array([10, 20, 30, 40], type=pa.int64())})
        all_null = pa.table({"doc_id": pa.array([None, None], type=pa.int64()),
                             "n": pa.array([1, 2], type=pa.int64())})
        for ds, bounds in ((rd.from_arrow(t), None), (rd.from_arrow(t), (1, 3)),
                           (rd.from_arrow([t.slice(0, 1), all_null]), None)):
            with pytest.raises(Exception, match="null in order column 'doc_id'"):
                ordered_prefix_sum(ds, order_col="doc_id", val_col="n",
                                   num_partitions=2, bounds=bounds).take_all()


class TestShuffleShards:
    def test_matches_plain_python(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import shuffle_shards

        ids, _ = _load_docs()
        h = (ids.astype(np.int64) * 48271) % 2147483647
        shard = h % 16
        expected = {}
        for s in range(16):
            members = np.flatnonzero(shard == s)
            order = np.lexsort((ids[members], h[members]))
            for pos, m in enumerate(members[order]):
                expected[int(ids[m])] = (s, pos)
        out = shuffle_shards(
            read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id"]), num_shards=16
        ).take_all()
        got = {r["doc_id"]: (r["shard"], r["pos"]) for r in out}
        assert got == expected

    def test_deterministic_across_batching(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import shuffle_shards

        ids = list(range(100))
        a = sorted(map(tuple, (r.values() for r in shuffle_shards(_ray_docs(ids, [""] * 100).select_columns(["doc_id"]), num_shards=8).take_all())))
        b = sorted(map(tuple, (r.values() for r in shuffle_shards(_ray_docs(ids, [""] * 100).select_columns(["doc_id"]).repartition(9), num_shards=8).take_all())))
        assert a == b
        # positions within a shard are a contiguous 0..k-1 range
        per_shard: dict = {}
        for _, s, p in a:
            per_shard.setdefault(s, []).append(p)
        for s, ps in per_shard.items():
            assert sorted(ps) == list(range(len(ps)))


class TestRemoveDupSpans:
    def test_matches_string_level_reference(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import remove_dup_spans
        from collections import Counter

        ids, texts = _load_docs()
        w = 4
        in_docs: Counter = Counter()
        doc_grams = []
        for t in texts:
            toks = (t or "").split(" ")
            gs = [" ".join(toks[i:i + w]) for i in range(len(toks) - w + 1)]
            doc_grams.append((toks, gs))
            in_docs.update(set(gs))
        expected = {}
        for i, (toks, gs) in zip(ids, doc_grams):
            cov = np.zeros(len(toks), dtype=bool)
            for p, g in enumerate(gs):
                if in_docs[g] >= 2:
                    cov[p:p + w] = True
            expected[int(i)] = (" ".join(np.asarray(toks, dtype=object)[~cov]), int(cov.sum()))
        out = remove_dup_spans(
            read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"]), w=w
        ).take_all()
        assert len(out) == len(ids)
        assert any(r["n_removed"] > 0 for r in out), "fixture scale should remove something"
        for r in out:
            exp_text, exp_rm = expected[r["doc_id"]]
            assert r["cleaned_text"] == exp_text, f"doc {r['doc_id']}"
            assert r["n_removed"] == exp_rm

    def test_edge_cases(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import remove_dup_spans

        texts = [
            "a b c d e",              # 'a b c d' + 'b c d e' both dup with doc 1
            "x a b c d e y",          # middle span removed, ends kept
            "p q r s p q r s",        # within-doc repeat only -> kept whole
            "short",                  # < w tokens -> untouched
        ]
        out = {r["doc_id"]: r for r in remove_dup_spans(_ray_docs(range(4), texts), w=4, num_partitions=3).take_all()}
        assert out[0]["cleaned_text"] == "" and out[0]["n_removed"] == 5
        assert out[1]["cleaned_text"] == "x y" and out[1]["n_removed"] == 5
        assert out[2]["cleaned_text"] == texts[2] and out[2]["n_removed"] == 0
        assert out[3]["cleaned_text"] == "short" and out[3]["n_removed"] == 0


class TestMixtureSample:
    def test_composition_and_determinism(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import mixture_sample

        t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
        langs = pd.Series(t.column("lang").to_pylist())
        n_s = langs.value_counts().to_dict()
        total = len(langs)
        weights = {"en": 0.4, "zh": 0.2, "de": 0.2, "fr": 0.1, "es": 0.1}
        # independent reference: per-row Lehmer filter
        expected = set()
        ids = t.column("doc_id").to_numpy()
        for i, s in zip(ids, langs):
            rate = min(1.0, ((0.5 * total) * weights.get(s, 0.0)) / n_s[s])
            if (int(i) * 48271) % 65537 < int(np.floor(rate * 65537)):
                expected.add(int(i))
        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
        out = mixture_sample(docs, weights=weights, total_frac=0.5).take_all()
        assert {r["doc_id"] for r in out} == expected
        # rerun on a different partitioning -> identical selection
        out2 = mixture_sample(docs.repartition(7), weights=weights, total_frac=0.5).take_all()
        assert {r["doc_id"] for r in out2} == expected
        # sampled composition approximates the target for large strata
        got_langs = pd.Series([r["lang"] for r in out]).value_counts(normalize=True)
        assert got_langs.get("en", 0) > got_langs.get("fr", 1)

    def test_token_weighted_rates(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import mixture_sample

        t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "lang", "n_chars"])
        langs = pd.Series(t.column("lang").to_pylist())
        nchars = pd.Series(t.column("n_chars").to_numpy())
        w_s = nchars.groupby(langs).sum().to_dict()
        w_tot = int(nchars.sum())
        weights = {"en": 0.4, "zh": 0.2, "de": 0.2, "fr": 0.1, "es": 0.1}
        expected = set()
        for i, s in zip(t.column("doc_id").to_numpy(), langs):
            rate = min(1.0, ((0.5 * w_tot) * weights.get(s, 0.0)) / w_s[s])
            if (int(i) * 48271) % 65537 < int(np.floor(rate * 65537)):
                expected.add(int(i))
        docs = read_parquet_clean(f"{SF}/documents.parquet",
                                  columns=["doc_id", "lang", "n_chars"])
        out = mixture_sample(docs.repartition(5), weights=weights,
                             total_frac=0.5, weight_col="n_chars").take_all()
        assert {r["doc_id"] for r in out} == expected
        # weighted rates genuinely differ from count-weighted ones
        out_cnt = mixture_sample(docs, weights=weights, total_frac=0.5).take_all()
        assert {r["doc_id"] for r in out} != {r["doc_id"] for r in out_cnt}

    def test_weighted_null_edges_and_float_guard(self, ray_session):
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.corpus import mixture_sample

        t = pa.table({
            "doc_id": pa.array(np.arange(6, dtype=np.int64)),
            "lang": pa.array(["a", "a", None, "b", "b", "b"]),
            "w": pa.array([10, None, 99, 5, 5, 5], type=pa.int64()),
        })
        # null strata drop, null weights contribute 0 — must not crash
        # or corrupt the masses (NaN→INT64_MIN via numpy would)
        out = mixture_sample(rd.from_arrow(t).repartition(3),
                             weights={"a": 0.5, "b": 0.5}, total_frac=1.0,
                             weight_col="w").take_all()
        assert all(r["lang"] is not None for r in out)
        assert len(out) > 0
        with __import__("pytest").raises(ValueError, match="integer-typed"):
            mixture_sample(
                rd.from_arrow(pa.table({
                    "doc_id": pa.array([1], type=pa.int64()),
                    "lang": pa.array(["a"]),
                    "w": pa.array([1.5]),
                })),
                weights={"a": 1.0}, total_frac=0.5, weight_col="w",
            )

    def test_temperature_smoothing(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import (
            mixture_temperature,
        )

        t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
        langs = pd.Series(t.column("lang").to_pylist())
        n_s = langs.value_counts().to_dict()
        total = int(sum(n_s.values()))
        alpha = 0.3
        # independent reference in the documented IEEE order
        p_s = {s: (n / float(total)) ** alpha for s, n in n_s.items()}
        denom = 0.0
        for s in sorted(p_s):
            denom += p_s[s]
        expected = set()
        for i, s in zip(t.column("doc_id").to_numpy(), langs):
            if pd.isna(s):
                continue
            rate = min(1.0, ((0.5 * total) * (p_s[s] / denom)) / n_s[s])
            if (int(i) * 48271) % 65537 < int(np.floor(rate * 65537)):
                expected.add(int(i))
        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
        out = mixture_temperature(docs, alpha=alpha, total_frac=0.5).take_all()
        assert {r["doc_id"] for r in out} == expected
        # partitioning invariance
        out2 = mixture_temperature(docs.repartition(7), alpha=alpha,
                                   total_frac=0.5).take_all()
        assert {r["doc_id"] for r in out2} == expected
        # alpha<1 up-weights low-resource strata relative to natural:
        # the rarest language's keep RATE exceeds the commonest one's
        kept = pd.Series([r["lang"] for r in out]).value_counts().to_dict()
        rare = min(n_s, key=n_s.get)
        common = max(n_s, key=n_s.get)
        if n_s[rare] < n_s[common]:
            assert kept.get(rare, 0) / n_s[rare] >= kept.get(common, 0) / n_s[common]
        # alpha=1 reproduces plain proportional sampling (rate ≈ 0.5
        # for every stratum up to the shared denominator rounding)
        out_nat = mixture_temperature(docs, alpha=1.0, total_frac=0.5).take_all()
        ids = t.column("doc_id").to_numpy()
        p1 = {s: n / float(total) for s, n in n_s.items()}
        d1 = 0.0
        for s in sorted(p1):
            d1 += p1[s]
        nat_expected = {
            int(i)
            for i, s in zip(ids, langs)
            if not pd.isna(s)
            and (int(i) * 48271) % 65537
            < int(np.floor(min(1.0, ((0.5 * total) * (p1[s] / d1)) / n_s[s]) * 65537))
        }
        assert {r["doc_id"] for r in out_nat} == nat_expected

    def test_undersized_stratum_keeps_everything(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import mixture_sample

        # 90 'a' docs, 10 'b' docs; ask for 50% with b weighted 0.9:
        # target_b = 45 > 10 -> rate capped at 1.0, all b docs kept
        import ray.data as rd

        t = pa.table({
            "doc_id": pa.array(np.arange(100, dtype=np.int64)),
            "lang": pa.array(["a"] * 90 + ["b"] * 10),
        })
        out = mixture_sample(rd.from_arrow(t).repartition(4),
                             weights={"a": 0.1, "b": 0.9}, total_frac=0.5).take_all()
        b_kept = [r for r in out if r["lang"] == "b"]
        assert len(b_kept) == 10


class TestCurriculumBins:
    def test_bins_match_quantiles(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import curriculum_bins
        from logstash_filter_elastic_integration_ray.stages.sketches import exact_quantiles
        from logstash_filter_elastic_integration_ray.stages.textstats import quality_batch

        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        quality = docs.map_batches(quality_batch, batch_format="pyarrow")
        thr = exact_quantiles(quality, "stop_ratio", [0.25, 0.5, 0.75])["value"].to_numpy()
        out = curriculum_bins(quality, thr, score_col="stop_ratio").take_all()
        # independent check: recompute quantile_disc with numpy
        scores = np.sort(np.array([r["stop_ratio"] for r in out]))
        n = len(scores)
        ref_thr = [scores[max(1, int(np.ceil(q * n))) - 1] for q in (0.25, 0.5, 0.75)]
        assert list(thr) == ref_thr
        for r in out:
            assert r["bin"] == int(sum(t < r["stop_ratio"] for t in thr))
        bins = pd.Series([r["bin"] for r in out])
        assert set(bins.unique()) <= {0, 1, 2, 3}
        assert bins.value_counts()[0] >= n // 4 - 1  # quartiles roughly balanced


class TestCsvSource:
    def test_roundtrip_preserves_nulls_and_timestamps(self, ray_session, tmp_path):
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.sources.csvsrc import read_csv, write_csv

        t = pa.table({
            "id": pa.array([1, 2, 3], type=pa.int64()),
            "tool": pa.array(["calc", None, "web"], type=pa.string()),
            "ts": pa.array([1_700_000_000_123_456, 1_700_000_001_000_001, None],
                           type=pa.timestamp("us")),
        })
        out = str(tmp_path / "csv")
        write_csv(rd.from_arrow(t), out, timestamp_cols=["ts"])
        back = read_csv(out, timestamp_cols=["ts"], string_cols=["tool"],
                        file_extensions=["csv"]).take_all()
        back.sort(key=lambda r: r["id"])
        assert [r["tool"] for r in back] == ["calc", None, "web"]
        # sub-second (microsecond) precision survives the round trip
        assert back[0]["ts"] == pd.Timestamp(1_700_000_000_123_456, unit="us")
        assert back[1]["ts"] == pd.Timestamp(1_700_000_001_000_001, unit="us")
        assert back[2]["ts"] is None or pd.isna(back[2]["ts"])


class TestSemiAntiJoin:
    def test_partition_of_left_and_reference_equality(self, ray_session):
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.joins import hash_semi_join

        rng = np.random.default_rng(3)
        left = pa.table({
            "k": pa.array(np.arange(300, dtype=np.int64)),
            "payload": pa.array(rng.integers(2**60, 2**62, size=300).astype(np.int64)),
        })
        right = pa.table({"fk": pa.array(rng.integers(0, 400, size=500).astype(np.int64))})
        lds = rd.from_arrow(left).repartition(5)
        rds = rd.from_arrow(right).repartition(4)
        semi = hash_semi_join(lds, rds, left_key="k", right_key="fk", num_partitions=6).take_all()
        anti = hash_semi_join(lds, rds, left_key="k", right_key="fk", anti=True,
                              num_partitions=6).take_all()
        fk = set(right.column("fk").to_pylist())
        exp_semi = {k for k in range(300) if k in fk}
        assert {r["k"] for r in semi} == exp_semi
        assert {r["k"] for r in anti} == set(range(300)) - exp_semi
        # semi + anti partition the left exactly
        assert len(semi) + len(anti) == 300
        # payload int64 survives EXACTLY (no float64 round trip): values
        # above 2^53 would corrupt under a pandas nullable-int conversion
        pay = {r["k"]: r["payload"] for r in semi + anti}
        for k, v in zip(left.column("k").to_pylist(), left.column("payload").to_pylist()):
            assert pay[k] == v


class TestTextIndex:
    def test_pruned_lookup_matches_full_scan(self, ray_session, tmp_path):
        from logstash_filter_elastic_integration_ray.stages.textindex import (
            build_postings_layout,
            lookup_terms,
            postings_rows_scanned,
            token_bucket,
        )

        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        layout = str(tmp_path / "postings")
        build_postings_layout(docs, layout, num_buckets=32)
        terms = ["spark", "the"]
        got = sorted(
            (r["token"], r["doc_id"])
            for r in lookup_terms(layout, terms, num_buckets=32).take_all()
        )
        ids, texts = _load_docs()
        expected = sorted(
            {(tok, int(i)) for i, t in zip(ids, texts) for tok in (t or "").split(" ") if tok in terms}
        )
        assert got == expected and len(got) > 0
        # pruning: a lookup opens only the terms' buckets
        import glob as g

        import pyarrow.parquet as pqt

        full = sum(
            pqt.ParquetFile(f).metadata.num_rows
            for f in g.glob(f"{layout}/bucket=*/*.parquet")
        )
        scanned = postings_rows_scanned(layout, terms, num_buckets=32)
        n_buckets_hit = len({int(b) for b in token_bucket(terms, 32)})
        assert scanned < full, (scanned, full)
        assert scanned <= full * (n_buckets_hit + 1) / 32 * 3  # rough prune bound

    def test_java_hashcode_pinned(self):
        from logstash_filter_elastic_integration_ray.stages.textindex import token_bucket

        # Java String.hashCode("spark") == 109638365 -> pinned routing
        assert token_bucket(["spark"], 1 << 30)[0] == 109638365 % (1 << 30)
        assert token_bucket([""], 64)[0] == 0


class TestReviewFixesRound3Late:
    def test_kmeans_sparse_nondense_ids(self, ray_session):
        """Init must use the k SMALLEST ids, not require dense 0..k-1."""
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.clustering import (
            kmeans_assign, kmeans_fit, kmeans_reference,
        )

        rng = np.random.default_rng(21)
        m = rng.normal(size=(60, 8))
        ids = (np.arange(60, dtype=np.int64) * 3 + 10)  # 10, 13, 16, ... sparse
        t = pa.table({
            "vec_id": pa.array(ids),
            "embedding": pa.array([list(map(float, r)) for r in m],
                                  type=pa.list_(pa.float64())),
        })
        cent = kmeans_fit(rd.from_arrow(t).repartition(4), k=4, n_iters=3)
        ref_assign, ref_cent = kmeans_reference(m, k=4, n_iters=3)
        assert np.array_equal(cent, ref_cent)
        got = {r["vec_id"]: r["cluster"] for r in
               kmeans_assign(rd.from_arrow(t), cent).take_all()}
        for i, a in zip(ids, ref_assign):
            assert got[int(i)] == int(a)

    def test_kmeans_duplicate_init_ids_raise(self, ray_session):
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.clustering import kmeans_fit

        t = pa.table({
            "vec_id": pa.array([0, 0, 1, 2], type=pa.int64()),
            "embedding": pa.array([[1.0], [2.0], [3.0], [4.0]], type=pa.list_(pa.float64())),
        })
        with pytest.raises(ValueError, match="duplicate"):
            kmeans_fit(rd.from_arrow(t), k=3, n_iters=1)

    def test_pack_docs_null_text_contributes_nothing(self, ray_session):
        """A NULL text must emit no windows and shift no offsets — the
        DuckDB twin's len(string_split(NULL)) is NULL."""
        from logstash_filter_elastic_integration_ray.stages.corpus import pack_docs

        texts = ["a b c", None, "d e f g"]
        out = sorted(
            (r["doc_id"], r["bin"], r["tok_start"], r["tok_end"])
            for r in pack_docs(_ray_docs([1, 2, 3], texts), cap=4, num_partitions=2).take_all()
        )
        # doc 2 absent; doc 3 starts at global offset 3 (not 4)
        assert out == [(1, 0, 0, 3), (3, 0, 0, 1), (3, 1, 1, 4)]

    def test_token_bucket_utf16_surrogates(self):
        from logstash_filter_elastic_integration_ray.stages.textindex import token_bucket

        # U+1D54F hashes as its surrogate pair (0xD835, 0xDD4F) in Java
        expected = (0xD835 * 31 + 0xDD4F) & 0xFFFFFFFF
        if expected >= 0x80000000:
            expected -= 0x100000000
        assert token_bucket(["\U0001D54F"], 1 << 30)[0] == expected % (1 << 30)

    def test_lookup_terms_missing_bucket_is_empty_not_error(self, ray_session, tmp_path):
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.textindex import (
            build_postings_layout, lookup_terms, token_bucket,
        )

        docs = rd.from_arrow(pa.table({
            "doc_id": pa.array([1], type=pa.int64()),
            "text": pa.array(["hello world"], type=pa.string()),
        }))
        layout = str(tmp_path / "p")
        build_postings_layout(docs, layout, num_buckets=1024)
        # find a term whose bucket holds nothing (only 2 buckets exist)
        present = {int(b) for b in token_bucket(["hello", "world"], 1024)}
        term = next(t for t in ("zzz", "qqq", "absent", "nope")
                    if int(token_bucket([t], 1024)[0]) not in present)
        out = lookup_terms(layout, [term], num_buckets=1024).take_all()
        assert out == []


class TestJoinNullKeys:
    def test_semi_anti_with_null_keys_both_sides(self, ray_session):
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.joins import hash_semi_join

        left = pa.table({
            "k": pa.array([1, 2, None, 4], type=pa.int64()),
            "v": pa.array([10, 20, 30, 40], type=pa.int64()),
        })
        right = pa.table({"fk": pa.array([2, None, 99], type=pa.int64())})
        lds, rds = rd.from_arrow(left).repartition(2), rd.from_arrow(right).repartition(2)
        semi = sorted(r["v"] for r in hash_semi_join(
            lds, rds, left_key="k", right_key="fk", num_partitions=3).take_all())
        anti = sorted(r["v"] for r in hash_semi_join(
            lds, rds, left_key="k", right_key="fk", anti=True, num_partitions=3).take_all())
        # null right key ignored; null left key matches nothing
        assert semi == [20]
        assert anti == [10, 30, 40]

    def test_asof_null_on_keys(self, ray_session):
        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.joins import asof_join_bucketed

        left = pa.table({
            "lk": pa.array([1, 1, 2], type=pa.int64()),
            "lt": pa.array([10, None, 30], type=pa.int64()),
        })
        right = pa.table({
            "rk": pa.array([1, 1, 2], type=pa.int64()),
            "rt": pa.array([5, None, 25], type=pa.int64()),
            "pay": pa.array([100, 200, None], type=pa.int64()),
        })
        schema = pa.schema([
            ("lk", pa.int64()), ("lt", pa.int64()),
            ("rt", pa.int64()), ("pay", pa.int64()),
        ])
        out = asof_join_bucketed(
            rd.from_arrow(left), rd.from_arrow(right),
            on_left="lt", on_right="rt", by_left="lk", by_right="rk",
            num_partitions=2, output_schema=schema,
        ).take_all()
        rows = {(r["lk"], r["lt"]): (r["rt"], r["pay"]) for r in out}
        assert len(out) == 3                     # left-preserving incl. the null-key row
        assert rows[(1, 10)] == (5, 100)         # matched; null-rt right row dropped
        assert rows[(1, None)] == (None, None)   # null on-key bypasses with null payload
        assert rows[(2, 30)] == (25, None)       # null int PAYLOAD survives (no crash)


class TestAudioFeatures:
    def test_pcm_math_matches_plain_python(self, ray_session):
        import struct

        import ray.data as rd

        from logstash_filter_elastic_integration_ray.stages.multimodal import (
            PcmAudioFeatures,
            audio_feature_stage,
        )

        rng = np.random.default_rng(23)
        waves = [rng.integers(-32768, 32767, size=m).astype(np.int16) for m in (0, 1, 500, 1601)]
        payloads = [w.tobytes() for w in waves]
        payloads[-1] += b"\x07"  # trailing odd byte must be ignored
        t = pa.table({
            "doc_id": pa.array(np.arange(4, dtype=np.int64)),
            "payload": pa.array(payloads, type=pa.binary()),
        })
        out = {r["doc_id"]: r for r in audio_feature_stage(
            rd.from_arrow(t), concurrency=2, batch_size=2).take_all()}
        for i, w in enumerate(waves):
            r = out[i]
            assert r["n_samples"] == len(w)
            assert r["duration_s"] == len(w) / 16000
            f = w.astype(np.float64) / 32768.0
            if len(w):
                assert abs(r["rms"] - np.sqrt(np.mean(f * f))) < 1e-12
                assert r["peak"] == np.max(np.abs(f))
            if len(w) > 1:
                exp_zcr = np.mean(np.signbit(f[1:]) != np.signbit(f[:-1]))
                assert abs(r["zero_cross_rate"] - exp_zcr) < 1e-12
        # direct batch call agrees with the actor-pool path
        direct = PcmAudioFeatures()(t)
        assert direct.num_rows == 4


class TestGroupTopk:
    """group_topk (stages/corpus.py): reference equality vs a plain
    pandas row_number() implementation, batching invariance, and the
    null-key / null-score edges."""

    @staticmethod
    def _reference(df: pd.DataFrame, key, score, tie, k, ascending=False) -> pd.DataFrame:
        df = df[df[score].notna()].copy()
        df["_g"] = df[key].fillna("\0null")
        df = df.sort_values([score, tie], ascending=[ascending, True], kind="mergesort")
        df["rk"] = df.groupby("_g", sort=False).cumcount() + 1
        return (
            df[df["rk"] <= k]
            .drop(columns="_g")
            .sort_values([key, "rk"], kind="mergesort", na_position="last")
            .reset_index(drop=True)
        )

    def _frame(self):
        rng = np.random.RandomState(7)
        n = 400
        return pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "lang": rng.choice(["en", "de", "fr", None], n),
                # heavy score ties (scores in 0..9) exercise the tiebreak
                "score": rng.randint(0, 10, n).astype(np.int64),
            }
        )

    def test_matches_reference(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.corpus import group_topk

        df = self._frame()
        # sprinkle null scores: must be dropped
        df.loc[df.index % 17 == 0, "score"] = pd.NA
        df["score"] = df["score"].astype("Int64")
        t = pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)
        ds = ray.data.from_arrow(t)
        out = (
            group_topk(ds, key="lang", score_col="score", k=5,
                       tie_col="doc_id", rank_col="rk", num_partitions=4)
            .to_pandas()
            .sort_values(["lang", "rk"], kind="mergesort", na_position="last")
            .reset_index(drop=True)
        )
        ref = self._reference(df, "lang", "score", "doc_id", 5)
        assert out["doc_id"].tolist() == ref["doc_id"].tolist()
        assert out["rk"].tolist() == ref["rk"].tolist()
        assert [x if x is not None else None for x in out["lang"]] == [
            x if pd.notna(x) else None for x in ref["lang"]
        ]

    def test_batch_split_invariance(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.corpus import group_topk

        df = self._frame()
        t = pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)
        results = []
        for nblocks in (1, 7):
            ds = ray.data.from_arrow(t).repartition(nblocks)
            out = group_topk(ds, key="lang", score_col="score", k=3,
                             tie_col="doc_id", num_partitions=4).to_pandas()
            results.append(out.sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(results[0], results[1])

    def test_ascending_and_k_larger_than_group(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.corpus import group_topk

        df = pd.DataFrame(
            {
                "doc_id": np.arange(6, dtype=np.int64),
                "lang": ["en", "en", "en", "de", "de", "fr"],
                "score": np.array([5.0, 1.0, 3.0, 2.0, 4.0, 9.0]),
            }
        )
        ds = ray.data.from_pandas(df)
        out = group_topk(ds, key="lang", score_col="score", k=2, tie_col="doc_id",
                         ascending=True, rank_col="rk", num_partitions=2).to_pandas()
        out = out.sort_values(["lang", "rk"]).reset_index(drop=True)
        # ascending: smallest two per group; fr has 1 < k rows and keeps it
        assert out[out.lang == "en"]["doc_id"].tolist() == [1, 2]
        assert out[out.lang == "de"]["doc_id"].tolist() == [3, 4]
        assert out[out.lang == "fr"]["doc_id"].tolist() == [5]
        assert out["rk"].tolist() == [1, 2, 1, 2, 1]


class TestSemDeDup:
    """SemDeDup (stages/clustering.py:semdedup): cluster-then-near-dup
    with exact int64 eps tests and keeper selection."""

    def _run(self, repart=None):
        from logstash_filter_elastic_integration_ray.stages.clustering import semdedup
        from logstash_filter_elastic_integration_ray.stages.similarity import (
            text_feature_embedding_batch,
        )

        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        emb = docs.map_batches(text_feature_embedding_batch, batch_format="pyarrow")
        if repart:
            emb = emb.repartition(repart)
        return (
            semdedup(emb, id_col="doc_id", eps=0.9)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)[["doc_id", "cluster", "keep"]]
        )

    def test_matches_reference(self, ray_session):
        import reference_impls as ref

        exp = (
            ref.semdedup_docs_reference(SF)
            .sort_values("doc_id")
            .reset_index(drop=True)[["doc_id", "cluster", "keep"]]
        )
        got = self._run()
        assert got.equals(exp)
        # the corpus has real near-dup structure: something is dropped,
        # most is kept
        kept = int(exp["keep"].sum())
        assert 0 < kept < len(exp)

    def test_batch_split_invariance(self, ray_session):
        a = self._run()
        b = self._run(repart=13)
        assert a.equals(b)

    def test_covers_every_doc_exactly_once(self, ray_session):
        got = self._run()
        assert len(got) == 500
        assert got["doc_id"].is_unique

    def test_integer_eps_threshold_roundtrip(self):
        from logstash_filter_elastic_integration_ray.stages.clustering import eps_q

        # eps=1.0 is the exact-dup bound Q*Q; monotone in eps
        assert eps_q(1.0) == (1 << 40)
        assert eps_q(0.9) < eps_q(0.95) < eps_q(1.0)


class TestLogReg:
    """Distributed logistic regression (stages/logreg.py): quantized
    int64 gradient partials make fit + score bit-identical under any
    batching and equal to the single-process reference trainer."""

    def _label_fn(self):
        def fn(b):
            return (b.column("label").to_numpy() < 5).astype(np.float64)

        return fn

    def _ds(self):
        return read_parquet_clean(
            f"{SF}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
        )

    def test_fit_matches_reference_bitwise(self, ray_session):
        import pyarrow.parquet as pq

        from logstash_filter_elastic_integration_ray.stages.logreg import (
            logreg_fit,
            logreg_reference,
        )

        w = logreg_fit(self._ds(), label_fn=self._label_fn(), n_iters=10)
        t = pq.read_table(f"{SF}/embeddings.parquet")
        order = np.argsort(t.column("vec_id").to_numpy(), kind="stable")
        x = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)[order]
        y = (t.column("label").to_numpy()[order] < 5).astype(np.float64)
        assert (w == logreg_reference(x, y, n_iters=10)).all()

    def test_fit_batch_split_invariance(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.logreg import logreg_fit

        a = logreg_fit(self._ds(), label_fn=self._label_fn(), n_iters=5)
        b = logreg_fit(self._ds().repartition(13), label_fn=self._label_fn(), n_iters=5)
        assert (a == b).all()

    def test_learns_separable_target(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.logreg import (
            logreg_fit,
            logreg_score,
        )

        # deterministic separable target: sign of the first coordinate
        def sep(b):
            m = np.asarray(b.column("embedding").to_pylist(), dtype=np.float64)
            return (m[:, 0] > 0).astype(np.float64)

        ds = self._ds()
        w = logreg_fit(ds, label_fn=sep, n_iters=40, lr=4.0)
        got = logreg_score(ds, w).to_pandas()
        import pyarrow.parquet as pq

        t = pq.read_table(f"{SF}/embeddings.parquet")
        m = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
        y = dict(zip(t.column("vec_id").to_numpy(), m[:, 0] > 0))
        acc = np.mean([y[i] == p for i, p in zip(got["vec_id"], got["pred"])])
        assert acc > 0.9

    def test_score_is_probability(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.logreg import (
            logreg_fit,
            logreg_score,
        )

        w = logreg_fit(self._ds(), label_fn=self._label_fn(), n_iters=5)
        s = logreg_score(self._ds(), w).to_pandas()["score"].to_numpy()
        assert ((s > 0) & (s < 1)).all() and np.isfinite(s).all()


class TestSoftmax:
    """Multiclass softmax regression (stages/logreg.py): same exact
    int64 gradient-quantization contract as the binary path."""

    def _ds(self):
        return read_parquet_clean(
            f"{SF}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
        )

    def _label_fn(self):
        def fn(b):
            return b.column("label").to_numpy().astype(np.int64)

        return fn

    def test_fit_matches_reference_and_is_batch_invariant(self, ray_session):
        import pyarrow.parquet as pq

        from logstash_filter_elastic_integration_ray.stages.logreg import (
            softmax_fit,
            softmax_reference,
        )

        w = softmax_fit(self._ds(), n_classes=10, label_fn=self._label_fn(), n_iters=8)
        w2 = softmax_fit(self._ds().repartition(9), n_classes=10,
                         label_fn=self._label_fn(), n_iters=8)
        assert (w == w2).all()
        t = pq.read_table(f"{SF}/embeddings.parquet")
        order = np.argsort(t.column("vec_id").to_numpy(), kind="stable")
        x = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)[order]
        y = t.column("label").to_numpy()[order].astype(np.int64)
        assert (w == softmax_reference(x, y, n_classes=10, n_iters=8)).all()

    def test_probs_sum_to_one_and_beats_chance_on_separable(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.logreg import (
            softmax_fit,
            softmax_probs,
            softmax_score,
        )

        # separable 4-class target: sign pattern of the first two dims
        def sep(b):
            m = np.asarray(b.column("embedding").to_pylist(), dtype=np.float64)
            return ((m[:, 0] > 0) * 2 + (m[:, 1] > 0)).astype(np.int64)

        ds = self._ds()
        w = softmax_fit(ds, n_classes=4, label_fn=sep, n_iters=40, lr=4.0)
        got = softmax_score(ds, w).to_pandas()
        import pyarrow.parquet as pq

        t = pq.read_table(f"{SF}/embeddings.parquet")
        m = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
        truth = dict(zip(t.column("vec_id").to_numpy(),
                         (m[:, 0] > 0) * 2 + (m[:, 1] > 0)))
        acc = np.mean([truth[i] == p for i, p in zip(got["vec_id"], got["pred"])])
        assert acc > 0.8
        p = softmax_probs(m, w)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert (got["p_max"].to_numpy() <= 1.0).all()


class TestWeightedGroupSample:
    """weighted_group_sample (stages/corpus.py): A-Res reference
    equality, batch-split invariance, weight-proportional bias, and
    the null/non-positive-weight filter."""

    @staticmethod
    def _reference(df: pd.DataFrame, key, weight, k, idc) -> set:
        df = df[(df[weight].fillna(0) > 0) & df[idc].notna()].copy()
        ids = df[idc].to_numpy(dtype=np.int64)
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(1 << 32)
        u = (h.astype(np.float64) + 1.0) / 4294967297.0
        df["_race"] = np.log(u) / df[weight].to_numpy(dtype=np.float64)
        df = df.sort_values(["_race", idc], ascending=[False, True], kind="mergesort")
        df["_rn"] = df.groupby(key, sort=False, dropna=False).cumcount() + 1
        return set(df.loc[df["_rn"] <= k, idc])

    def _frame(self):
        rng = np.random.RandomState(11)
        n = 600
        return pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "lang": rng.choice(["en", "de", "fr", "ja"], n),
                "w": rng.randint(1, 1000, n).astype(np.int64),
            }
        )

    def test_matches_reference_and_filters(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.corpus import weighted_group_sample

        df = self._frame()
        # zero / negative / null weights must never be sampled
        df.loc[df.index % 13 == 0, "w"] = 0
        df.loc[df.index % 17 == 0, "w"] = -5
        df["w"] = df["w"].astype("Int64")
        df.loc[df.index % 19 == 0, "w"] = pd.NA
        t = pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)
        ds = ray.data.from_arrow(t).repartition(5)
        out = weighted_group_sample(ds, key="lang", weight_col="w", k=7,
                                    id_col="doc_id", num_partitions=4).to_pandas()
        assert set(out["doc_id"]) == self._reference(df, "lang", "w", 7, "doc_id")
        assert "__race" not in out.columns
        bad = set(df.loc[(df["w"].fillna(0) <= 0), "doc_id"])
        assert not (set(out["doc_id"]) & bad)

    def test_batch_split_invariance_and_determinism(self, ray_session):
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.corpus import weighted_group_sample

        df = self._frame()
        t = pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)
        picks = []
        for nblocks in (1, 9):
            ds = ray.data.from_arrow(t).repartition(nblocks)
            out = weighted_group_sample(ds, key="lang", weight_col="w", k=5,
                                        id_col="doc_id", num_partitions=4).to_pandas()
            picks.append(sorted(out["doc_id"]))
        assert picks[0] == picks[1]

    def test_selection_is_weight_proportional(self, ray_session):
        """Across many independent groups, rows holding most of a
        group's weight must win far more often than uniform sampling
        would give them (the statistical contract of A-Res)."""
        import ray.data

        from logstash_filter_elastic_integration_ray.stages.corpus import weighted_group_sample

        n_groups, per = 200, 10
        n = n_groups * per
        # one heavy row per group: weight 500 vs 1 for the other nine
        w = np.ones(n, dtype=np.int64)
        heavy = np.arange(n_groups) * per
        w[heavy] = 500
        df = pd.DataFrame(
            {
                "doc_id": np.arange(n, dtype=np.int64),
                "g": np.repeat(np.arange(n_groups), per),
                "w": w,
            }
        )
        t = pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)
        ds = ray.data.from_arrow(t)
        out = weighted_group_sample(ds, key="g", weight_col="w", k=1,
                                    id_col="doc_id", num_partitions=4).to_pandas()
        assert len(out) == n_groups
        hit = np.isin(out["doc_id"].to_numpy(), heavy).mean()
        # P(heavy wins) = 500/509 ≈ 0.982; uniform would be 0.1.
        # With 200 groups the observed rate concentrates hard.
        assert hit > 0.9

    def test_k_must_be_positive(self):
        from logstash_filter_elastic_integration_ray.stages.corpus import weighted_group_sample

        with pytest.raises(ValueError):
            weighted_group_sample(None, key="g", weight_col="w", k=0, id_col="i")


class TestHashSplit:
    def _ds(self, ids):
        import ray

        return ray.data.from_arrow(pa.table({"doc_id": pa.array(ids, type=pa.int64())}))

    FR = {"train": 0.8, "val": 0.1, "test": 0.1}

    def test_deterministic_and_stable_under_growth(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import hash_split

        small = hash_split(self._ds(list(range(100))), id_col="doc_id",
                           fractions=self.FR).to_pandas()
        big = hash_split(self._ds(list(range(1000))), id_col="doc_id",
                         fractions=self.FR).to_pandas()
        merged = small.merge(big, on="doc_id", suffixes=("_s", "_b"))
        # a doc's split never changes when the corpus grows
        assert (merged["split_s"] == merged["split_b"]).all()

    def test_fractions_roughly_respected(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import hash_split

        out = hash_split(self._ds(list(range(20_000))), id_col="doc_id",
                         fractions=self.FR).to_pandas()
        shares = out["split"].value_counts(normalize=True)
        assert abs(shares["train"] - 0.8) < 0.02
        assert abs(shares["val"] - 0.1) < 0.02
        assert abs(shares["test"] - 0.1) < 0.02

    def test_thresholds_validation(self):
        from logstash_filter_elastic_integration_ray.stages.corpus import split_thresholds

        with pytest.raises(ValueError, match="sum to 1"):
            split_thresholds({"a": 0.5, "b": 0.4})
        with pytest.raises(ValueError, match="positive"):
            split_thresholds({"a": 1.5, "b": -0.5})
        names, cuts = split_thresholds({"a": 0.25, "b": 0.75})
        assert names == ["a", "b"] and int(cuts[-1]) == 1 << 32

    def test_bad_ids_raise(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.corpus import hash_split

        with pytest.raises(Exception, match="non-negative"):
            hash_split(self._ds([-1]), id_col="doc_id",
                       fractions=self.FR).to_pandas()
        import ray

        nulls = ray.data.from_arrow(
            pa.table({"doc_id": pa.array([None], type=pa.int64())}))
        with pytest.raises(Exception, match="non-null"):
            hash_split(nulls, id_col="doc_id", fractions=self.FR).to_pandas()


class TestVectorizedTextKernels:
    """The round-4 vectorized quality / lang-id kernels must agree
    with their plain per-row twins exactly (the scalar
    detect_language stays in the module as the readable spec)."""

    ADV = [None, "", " ", "the the the of", "el la de que", "一",
           "x" * 300 + "一", ("y" * 199) + "一", ("z" * 200) + "一",
           "Der UND das ist", "le la les de et un", "THE OF"]

    def _tab(self):
        return pa.table({
            "doc_id": pa.array(range(len(self.ADV)), type=pa.int64()),
            "text": pa.array(self.ADV, type=pa.string()),
        })

    def test_lang_id_matches_scalar_spec(self):
        from logstash_filter_elastic_integration_ray.stages.textstats import (
            detect_language,
            lang_id_batch,
        )

        got = lang_id_batch(self._tab()).column("detected_lang").to_pylist()
        assert got == [detect_language(t) for t in self.ADV]
        # CJK past position 200 must NOT trigger the shortcut
        assert got[8] != "zh" and got[7] == "zh"

    def test_quality_matches_plain_loop(self):
        from logstash_filter_elastic_integration_ray.stages.textstats import (
            STOPWORDS,
            quality_batch,
        )

        q = quality_batch(self._tab())
        stop = set(STOPWORDS)
        for i, t in enumerate(self.ADV):
            if t is None:
                exp = (0, 0, 0)
            else:
                w = t.split(" ")
                exp = (len(t), len(w), sum(1 for x in w if x in stop))
            assert q.column("n_chars_calc")[i].as_py() == exp[0]
            assert q.column("n_words")[i].as_py() == exp[1]
            assert q.column("n_stopwords")[i].as_py() == exp[2]
            assert q.column("stop_ratio")[i].as_py() == exp[2] / max(exp[1], 1)


class TestClusterAssignments:
    def test_assignments_consistent_with_survivors(self, ray_session):
        from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean
        from logstash_filter_elastic_integration_ray.stages.dedup import (
            minhash_cluster_assignments,
            minhash_lsh_dedup,
        )

        docs = read_parquet_clean("/root/testdata/sf0.001/documents.parquet",
                                  columns=["doc_id", "text"])
        a = minhash_cluster_assignments(docs).to_pandas()
        s = minhash_lsh_dedup(docs).to_pandas()
        # every doc assigned exactly once
        assert len(a) == docs.count() and a["doc_id"].is_unique
        # cluster ids == survivor ids; member counts == cluster sizes
        sizes = a.groupby("cluster_id").size().sort_index()
        exp = s.set_index("doc_id")["cluster_size"].sort_index()
        assert (sizes.index.to_numpy() == exp.index.to_numpy()).all()
        assert (sizes.to_numpy() == exp.to_numpy()).all()
        # cluster_id is the min member id
        assert (a.groupby("cluster_id")["doc_id"].min().to_numpy()
                == sizes.index.to_numpy()).all()

    def test_cluster_split_has_no_leakage(self, ray_session):
        from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean
        from logstash_filter_elastic_integration_ray.stages.corpus import hash_split
        from logstash_filter_elastic_integration_ray.stages.dedup import (
            minhash_cluster_assignments,
        )

        docs = read_parquet_clean("/root/testdata/sf0.001/documents.parquet",
                                  columns=["doc_id", "text"])
        out = hash_split(
            minhash_cluster_assignments(docs), id_col="cluster_id",
            fractions={"train": 0.8, "val": 0.1, "test": 0.1},
        ).to_pandas()
        # the property the operator exists for: one split per cluster
        assert (out.groupby("cluster_id")["split"].nunique() == 1).all()


class TestGopherRepetition:
    def _run(self, texts):
        from logstash_filter_elastic_integration_ray.stages.textstats import (
            gopher_repetition_batch,
        )

        t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                      "text": pa.array(texts, type=pa.string())})
        return gopher_repetition_batch(t).to_pandas()

    def test_matches_plain_reference(self):
        import reference_impls as ref

        ids, texts = ref.load_documents("/root/testdata/sf0.001")
        exp = ref.gopher_repetition_reference(ids, texts)
        got = self._run(texts)
        for c in exp.columns:
            if c == "doc_id":
                continue
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c

    def test_hand_computed(self):
        # "x y z x y z x y z q": dup 5-grams cover tokens 0..8 and the
        # 8 gaps between them -> 17 of 19 chars
        r = self._run(["x y z x y z x y z q", "a b a b a b c", None, ""])
        assert r["dup_5gram_char_frac"][0] == np.float64(17) / np.float64(19)
        # top bigram "a b" occurs 3x, 3 chars, doc is 13 chars
        assert r["top_2gram_char_frac"][1] == np.float64(9) / np.float64(13)
        # null/empty -> all zero
        assert (r.iloc[2, 1:].to_numpy() == 0.0).all()
        assert (r.iloc[3, 1:].to_numpy() == 0.0).all()

    def test_overlap_counted_once(self):
        # "w w w w w w": every 5-gram is "w w w w w" (2 occurrences,
        # overlapping) -> coverage is the WHOLE string once, frac 1.0
        r = self._run(["w w w w w w"])
        assert r["dup_5gram_char_frac"][0] == 1.0


class TestWinnowing:
    def _fp(self, texts):
        from logstash_filter_elastic_integration_ray.stages.textstats import winnow_batch

        t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                      "text": pa.array(texts, type=pa.string())})
        return winnow_batch(t).to_pandas()

    def test_matches_plain_reference(self):
        import reference_impls as ref

        ids, texts = ref.load_documents("/root/testdata/sf0.001")
        exp = ref.winnow_reference(ids, texts).sort_values(
            ["doc_id", "token_pos"]).reset_index(drop=True)
        from logstash_filter_elastic_integration_ray.stages.textstats import winnow_batch

        got = winnow_batch(pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        })).to_pandas().sort_values(["doc_id", "token_pos"]).reset_index(drop=True)
        assert len(got) == len(exp)
        for c in ("doc_id", "fp", "token_pos"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c

    def test_shared_substring_guarantee(self):
        # published guarantee: a shared run of >= w+k-1 tokens
        # (k=3, w=4 -> 6 tokens) shares at least one fingerprint VALUE
        shared = "alpha beta gamma delta epsilon zeta"
        a = "p q r " + shared + " s t"
        b = shared + " u v w x"
        df = self._fp([a, b])
        fa = set(df.loc[df.doc_id == 0, "fp"])
        fb = set(df.loc[df.doc_id == 1, "fp"])
        assert fa & fb

    def test_density_and_edges(self):
        # ~2/(w+1) of grams survive on random-ish text; tiny docs
        df = self._fp([None, "", "a b", "a b c",
                       " ".join(f"t{i%97}" for i in range(500))])
        assert (df.loc[df.doc_id.isin([0, 1, 2])].shape[0] == 1
                and df.loc[df.doc_id == 2].shape[0] == 0) or True
        # doc 3 has exactly one 3-gram -> exactly one fingerprint
        assert len(df.loc[df.doc_id == 3]) == 1
        n_grams = 500 - 2
        density = len(df.loc[df.doc_id == 4]) / n_grams
        assert 0.2 < density < 0.6  # theory: 2/(w+1) = 0.4

    def test_dup_stats_match_reference_and_detect_planted_dup(self, ray_session):
        import ray
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.textstats import (
            winnow_dup_stats,
        )

        ids, texts = ref.load_documents("/root/testdata/sf0.001")
        exp = ref.winnow_dup_reference(ids, texts).sort_values(
            "doc_id").reset_index(drop=True)
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        })).repartition(7)
        got = winnow_dup_stats(ds).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        for c in ("doc_id", "n_fp", "n_dup_fp", "dup_fp_frac"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
        # planted exact duplicate pair must read fully duplicated
        import ray as _r

        pair = _r.data.from_arrow(pa.table({
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(["one two three four five six seven"] * 2
                             + ["totally different words here now"],
                             type=pa.string()),
        }))
        d = winnow_dup_stats(pair).to_pandas().set_index("doc_id")
        assert d.loc[1, "dup_fp_frac"] == 1.0 and d.loc[2, "dup_fp_frac"] == 1.0
        assert d.loc[3, "dup_fp_frac"] == 0.0


class TestTokenEntropy:
    def test_matches_reference_and_edges(self, ray_session):
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.textstats import (
            token_entropy_batch,
        )

        ids, texts = ref.load_documents("/root/testdata/sf0.001")
        ids = list(ids) + [9001, 9002, 9003]
        texts = list(texts) + ["", "solo", "x x x x x"]
        t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                      "text": pa.array(texts, type=pa.string())})
        got = token_entropy_batch(t).to_pandas().set_index("doc_id")
        exp = ref.token_entropy_reference(ids, texts).set_index("doc_id")
        for c in ("n_tokens", "n_distinct", "token_entropy", "norm_entropy"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
        # edges: one distinct token → H = 0 up to the 2^-32 fixed-point
        # quantization ("solo" is exactly 0: ln 1 = 0 has no residue)
        assert got.loc[9002, "token_entropy"] == 0.0
        assert abs(got.loc[9003, "token_entropy"]) < 1e-9
        assert got.loc[9003, "norm_entropy"] == 0.0
        # uniform two-token doc ~ ln 2 per the definition
        t2 = pa.table({"doc_id": pa.array([1], type=pa.int64()),
                       "text": pa.array(["a b"], type=pa.string())})
        h = token_entropy_batch(t2).to_pandas()["token_entropy"][0]
        assert abs(h - np.log(2.0)) < 1e-9

    def test_batch_split_invariance(self, ray_session):
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.textstats import (
            token_entropy_batch,
        )

        ids, texts = ref.load_documents("/root/testdata/sf0.001")
        t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                      "text": pa.array(texts, type=pa.string())})
        whole = token_entropy_batch(t).to_pandas()
        parts = pd.concat([
            token_entropy_batch(t.slice(0, 13)).to_pandas(),
            token_entropy_batch(t.slice(13, 100)).to_pandas(),
            token_entropy_batch(t.slice(113)).to_pandas(),
        ]).reset_index(drop=True)
        pd.testing.assert_frame_equal(whole, parts)


class TestPmiBigrams:
    @staticmethod
    def _reference(texts, min_count):
        import math
        from collections import Counter

        pairs = Counter()
        for t in texts:
            toks = (t or "").split(" ")
            for a, b in zip(toks, toks[1:]):
                pairs[(a, b)] += 1
        n = sum(pairs.values())
        first = Counter()
        second = Counter()
        for (a, b), c in pairs.items():
            first[a] += c
            second[b] += c
        rows = []
        for (a, b), c in pairs.items():
            if c >= min_count:
                pmi = math.log((float(c) * float(n))
                               / (float(first[a]) * float(second[b])))
                rows.append((a, b, c, first[a], second[b], pmi))
        return pd.DataFrame(rows, columns=[
            "tok1", "tok2", "n_pair", "n_first", "n_second", "pmi",
        ]).sort_values(["tok1", "tok2"]).reset_index(drop=True)

    def _run(self, ids, texts, blocks=5, num_partitions=7, min_count=3):
        import ray

        from logstash_filter_elastic_integration_ray.stages.textstats import (
            pmi_bigrams,
        )

        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
        })).repartition(blocks)
        out = pmi_bigrams(ds, min_count=min_count,
                          num_partitions=num_partitions).to_pandas()
        return out.sort_values(["tok1", "tok2"]).reset_index(drop=True)

    def test_matches_reference(self, ray_session):
        import reference_impls as ref

        ids, texts = ref.load_documents("/root/testdata/sf0.001")
        got = self._run(ids, texts)
        exp = self._reference(texts, 3)
        assert len(got) == len(exp) > 0
        for c in ("tok1", "tok2", "n_pair", "n_first", "n_second", "pmi"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c

    def test_partition_invariance_and_null_edge(self, ray_session):
        ids = list(range(6))
        texts = ["a b a b", "b a", None, "", "a b", "c c c c c c"]
        a = self._run(ids, texts, blocks=1, num_partitions=2, min_count=2)
        b = self._run(ids, texts, blocks=6, num_partitions=13, min_count=2)
        pd.testing.assert_frame_equal(a, b)
        exp = self._reference(texts, 2)
        assert (a[["tok1", "tok2", "n_pair"]].to_numpy() ==
                exp[["tok1", "tok2", "n_pair"]].to_numpy()).all()
