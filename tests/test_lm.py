"""Tests for the bigram-LM perplexity stage (stages/lm.py): equality
with the independent string-keyed plain reference over sf0.001,
batch-split invariance (bit-identical floats), and the edge-case
matrix (null/empty text, single token, fully-OOV doc, empty train
corpus, min_count pruning)."""

import numpy as np
import pyarrow as pa
import ray

from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean
from logstash_filter_elastic_integration_ray.stages.lm import (
    ALPHA,
    BigramLM,
    _score_arrays,
    perplexity_score,
    train_bigram_lm,
)

SF = "/root/testdata/sf0.001"


def _ref_df(mod=5, min_count=1):
    import reference_impls as ref

    ids, texts = ref.load_documents(SF)
    return ref.perplexity_reference(ids, texts, mod=mod, min_count=min_count)


def _split(docs, eq):
    def fn(t: pa.Table) -> pa.Table:
        m = (t.column("doc_id").to_numpy() % 5 == 0) == eq
        return t.filter(pa.array(m))

    return docs.map_batches(fn, batch_format="pyarrow")


def _run(repart=None):
    docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    lm_ref = train_bigram_lm(_split(docs, True))
    score = _split(docs, False)
    if repart:
        score = score.repartition(repart)
    return (
        perplexity_score(score, lm_ref)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


class TestPerplexityDistributed:
    def test_matches_reference_bitwise(self, ray_session):
        exp = _ref_df().sort_values("doc_id").reset_index(drop=True)
        got = _run()
        assert (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()
        # exact float equality, not allclose — the formula contract
        assert (got["logppl"].to_numpy() == exp["logppl"].to_numpy()).all()

    def test_batch_split_invariance(self, ray_session):
        a = _run()
        b = _run(repart=17)
        assert (a["logppl"].to_numpy() == b["logppl"].to_numpy()).all()

    def test_scores_are_positive_and_finite(self, ray_session):
        got = _run()
        v = got["logppl"].to_numpy()
        assert np.isfinite(v).all()
        assert (v > 0).all()  # probabilities < 1 => -log2 > 0


def _lm_from_texts(texts, min_count=1):
    """Single-process LM via the same kernels (no Ray)."""
    from logstash_filter_elastic_integration_ray.stages.decontam import (
        flat_token_hashes,
        gram_hashes,
    )
    from logstash_filter_elastic_integration_ray.stages.lm import _count_table

    col = pa.array(texts, type=pa.string())
    fh, counts = flat_token_hashes(col)
    bh, _ = gram_hashes(fh, counts, 2)
    uh, uc = _count_table(fh)
    bhh, bc = _count_table(bh)
    if min_count > 1:
        keep = uc >= min_count
        uh, uc = uh[keep], uc[keep]
        keep = bc >= min_count
        bhh, bc = bhh[keep], bc[keep]
    return BigramLM(uh, uc, bhh, bc, int(len(fh)))


def _score_texts(lm, texts):
    from logstash_filter_elastic_integration_ray.stages.decontam import flat_token_hashes

    fh, counts = flat_token_hashes(pa.array(texts, type=pa.string()))
    return _score_arrays(lm, fh, counts)


class TestPerplexityKernel:
    def test_known_corpus_hand_computed(self):
        # train: "a b a b" -> uni a:2 b:2 N=4; bi (a,b):2 (b,a):1
        lm = _lm_from_texts(["a b a b"])
        s = _score_texts(lm, ["a b"])
        # S(a)=2/4, S(b|a)=2/2=1 -> logppl = -(log2(.5)+log2(1))/2 = 0.5
        assert s[0] == 0.5

    def test_oov_token_backs_off_to_alpha_over_n(self):
        lm = _lm_from_texts(["a b a b"])
        s = _score_texts(lm, ["z"])
        assert s[0] == -np.log2(np.float64(ALPHA) / np.float64(4))

    def test_unseen_bigram_backs_off(self):
        lm = _lm_from_texts(["a b a b"])
        # "b b": S(b)=2/4; bigram (b,b) unseen -> ALPHA * S_uni(b)
        s = _score_texts(lm, ["b b"])
        exp = -(np.log2(np.float64(0.5)) + np.log2(np.float64(ALPHA) * np.float64(0.5))) / 2.0
        assert s[0] == exp

    def test_null_and_empty_text(self):
        lm = _lm_from_texts(["a b"])
        # null -> "" -> [""] one OOV token; "" same; both finite
        s = _score_texts(lm, [None, ""])
        assert np.isfinite(s).all()
        assert s[0] == s[1]

    def test_single_token_doc_uses_unigram_only(self):
        lm = _lm_from_texts(["a b a b"])
        s = _score_texts(lm, ["a"])
        assert s[0] == -np.log2(np.float64(2) / np.float64(4))

    def test_empty_train_corpus(self, ray_session):
        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        empty = docs.filter(lambda r: False)
        lm_ref = train_bigram_lm(empty)
        lm = ray.get(lm_ref)
        assert lm.n_total == 0 and len(lm.uni_h) == 0
        got = perplexity_score(docs.limit(5), lm_ref).to_pandas()
        assert np.isfinite(got["logppl"].to_numpy()).all()

    def test_min_count_pruning_matches_reference(self, ray_session):
        import reference_impls as ref

        exp = (
            ref.perplexity_reference(*ref.load_documents(SF), min_count=3)
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        lm_ref = train_bigram_lm(_split(docs, True), min_count=3)
        got = (
            perplexity_score(_split(docs, False), lm_ref)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert (got["logppl"].to_numpy() == exp["logppl"].to_numpy()).all()


# ---------------------------------------------------------------------------
# interpolated Kneser–Ney trigram LM (stages/lm.py KN section)
# ---------------------------------------------------------------------------

def _kn_ref_df(mod=5):
    import reference_impls as ref

    ids, texts = ref.load_documents(SF)
    return ref.kn_perplexity_reference(ids, texts, mod=mod)


def _kn_run(repart=None):
    from logstash_filter_elastic_integration_ray.stages.lm import (
        kn_perplexity_score,
        train_kn_lm,
    )

    docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    lm_ref = train_kn_lm(_split(docs, True))
    score = _split(docs, False)
    if repart:
        score = score.repartition(repart)
    return (
        kn_perplexity_score(score, lm_ref)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


class TestKnPerplexityDistributed:
    def test_matches_reference_bitwise(self, ray_session):
        exp = _kn_ref_df().sort_values("doc_id").reset_index(drop=True)
        got = _kn_run()
        assert (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()
        assert (got["kn_logppl"].to_numpy() == exp["kn_logppl"].to_numpy()).all()

    def test_batch_split_invariance(self, ray_session):
        a = _kn_run()
        b = _kn_run(repart=17)
        assert (a["kn_logppl"].to_numpy() == b["kn_logppl"].to_numpy()).all()

    def test_scores_are_positive_and_finite(self, ray_session):
        v = _kn_run()["kn_logppl"].to_numpy()
        assert np.isfinite(v).all()
        assert (v > 0).all()


def _kn_lm_from_texts(texts):
    """Single-process KN model via the same kernels (no Ray reduce)."""
    from logstash_filter_elastic_integration_ray.stages.lm import (
        KnTrigramLM,
        _kn_train_partial,
    )

    t = pa.table({"text": pa.array(texts, type=pa.string())})
    return KnTrigramLM(_kn_train_partial(t, "text"))


def _kn_score_texts(lm, texts):
    from logstash_filter_elastic_integration_ray.stages.decontam import (
        flat_token_hashes,
    )
    from logstash_filter_elastic_integration_ray.stages.lm import _kn_score_arrays

    fh, counts = flat_token_hashes(pa.array(texts, type=pa.string()))
    return _kn_score_arrays(lm, fh, counts)


def _kn_ref_score(train_texts, score_texts):
    """Reference scores via the string-keyed dict impl (mod split:
    even synthetic ids = train, odd = score)."""
    import reference_impls as ref

    ids = np.array(
        [2 * i for i in range(len(train_texts))]
        + [2 * i + 1 for i in range(len(score_texts))], dtype=np.int64)
    texts = list(train_texts) + list(score_texts)
    return ref.kn_perplexity_reference(ids, texts, mod=2)["kn_logppl"].to_numpy()


class TestKnPerplexityKernel:
    def test_trigram_path_matches_dict_reference(self):
        train = ["a b a b c", "a b c d e a b"]
        score = ["a b c", "b a b a", "z z z", "a"]
        lm = _kn_lm_from_texts(train)
        got = _kn_score_texts(lm, score)
        exp = _kn_ref_score(train, score)
        assert (got == exp).all()

    def test_oov_doc_is_finite(self):
        lm = _kn_lm_from_texts(["a b c a b"])
        s = _kn_score_texts(lm, ["x y z"])
        assert np.isfinite(s).all() and (s > 0).all()

    def test_null_and_empty_text(self):
        lm = _kn_lm_from_texts(["a b c"])
        s = _kn_score_texts(lm, [None, ""])
        assert np.isfinite(s).all()
        assert s[0] == s[1]

    def test_single_and_two_token_docs_use_lower_orders(self):
        train = ["a b a b c"]
        lm = _kn_lm_from_texts(train)
        got = _kn_score_texts(lm, ["a", "a b"])
        exp = _kn_ref_score(train, ["a", "a b"])
        assert (got == exp).all()

    def test_empty_train_corpus(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.lm import (
            kn_perplexity_score,
            train_kn_lm,
        )

        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        empty = docs.filter(lambda r: False)
        lm_ref = train_kn_lm(empty)
        lm = ray.get(lm_ref)
        assert lm.B == 0 and lm.U == 0
        got = kn_perplexity_score(docs.limit(5), lm_ref).to_pandas()
        assert np.isfinite(got["kn_logppl"].to_numpy()).all()


class TestPerplexityGap:
    def test_matches_reference_bitwise(self, ray_session):
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.lm import (
            perplexity_gap_score,
        )

        ids, texts = ref.load_documents(SF)
        exp = (ref.perplexity_gap_reference(ids, texts)
               .sort_values("doc_id").reset_index(drop=True))
        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        lm_ref = train_bigram_lm(_split(docs, True))
        lm_corpus = train_bigram_lm(_split(docs, False))
        got = (perplexity_gap_score(_split(docs, False), lm_ref, lm_corpus)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        for c in ("logppl_ref", "logppl_corpus", "gap"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c

    def test_gap_is_difference(self, ray_session):
        from logstash_filter_elastic_integration_ray.stages.lm import (
            perplexity_gap_score,
        )

        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        lm_ref = train_bigram_lm(_split(docs, True))
        lm_corpus = train_bigram_lm(_split(docs, False))
        got = perplexity_gap_score(_split(docs, False).limit(50), lm_ref, lm_corpus).to_pandas()
        assert (got["gap"].to_numpy()
                == got["logppl_ref"].to_numpy() - got["logppl_corpus"].to_numpy()).all()
