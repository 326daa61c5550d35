"""Property-based checks for the eighth-session kernels: the KN
trigram scorer and the PQ codec agree with their plain references on
RANDOM inputs (the pinned fixtures check one corpus; these check the
formula space)."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

# small token alphabet → dense n-gram collisions, the hard case for
# the continuation-count tables
_token = st.sampled_from(list("abcdef"))
_doc = st.lists(_token, min_size=0, max_size=12).map(lambda ts: " ".join(ts))
_corpus = st.lists(_doc, min_size=1, max_size=8)


def _kn_engine(train_texts, score_texts):
    from logstash_filter_elastic_integration_ray.stages.decontam import (
        flat_token_hashes,
    )
    from logstash_filter_elastic_integration_ray.stages.lm import (
        KnTrigramLM,
        _kn_score_arrays,
        _kn_train_partial,
    )

    t = pa.table({"text": pa.array(train_texts, type=pa.string())})
    lm = KnTrigramLM(_kn_train_partial(t, "text"))
    fh, counts = flat_token_hashes(pa.array(score_texts, type=pa.string()))
    return _kn_score_arrays(lm, fh, counts)


def _kn_reference(train_texts, score_texts):
    import reference_impls as ref

    ids = np.array([2 * i for i in range(len(train_texts))]
                   + [2 * i + 1 for i in range(len(score_texts))], dtype=np.int64)
    texts = list(train_texts) + list(score_texts)
    return ref.kn_perplexity_reference(ids, texts, mod=2)["kn_logppl"].to_numpy()


@settings(max_examples=60, deadline=None)
@given(_corpus, _corpus)
def test_kn_scorer_matches_reference_on_random_corpora(train, score):
    got = _kn_engine(train, score)
    exp = _kn_reference(train, score)
    assert got.shape == exp.shape
    assert (got == exp).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_pq_adc_equals_direct_distance_on_codebook_vectors(seed):
    """For a vector that IS a codeword in every subspace, the ADC
    distance must equal the exact int64 distance between quantized
    query and that codeword — the lookup-table identity."""
    from logstash_filter_elastic_integration_ray.stages.clustering import (
        assign_clusters,
        quantize,
    )
    from logstash_filter_elastic_integration_ray.stages.pq import _adc_luts

    rng = np.random.default_rng(seed)
    m, k, dsub = 4, 8, 3
    books = quantize(rng.normal(size=(m, k, dsub)))
    q = rng.normal(size=(1, m * dsub))
    q_int = quantize(q)
    luts = _adc_luts(books, q_int)
    code = rng.integers(0, k, size=m)
    adc = luts[0][np.arange(m), code].sum()
    direct = 0
    for j in range(m):
        diff = q_int[0, j * dsub:(j + 1) * dsub] - books[j][code[j]]
        direct += int((diff * diff).sum())
    assert int(adc) == direct
    # and assignment of an exact codeword returns its own index
    for j in range(m):
        a = assign_clusters(books[j][code[j]][None, :], books[j])
        assert books[j][a[0]].tolist() == books[j][code[j]].tolist()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
def test_kn_type_tables_merge_associatively(seed, n_chunks):
    """Splitting a corpus into any number of chunks and merging the
    per-chunk type tables gives the same model tables as one-shot
    counting (the tree-reduce correctness property)."""
    from logstash_filter_elastic_integration_ray.stages.lm import (
        _kn_merge,
        _kn_train_partial,
    )

    rng = np.random.default_rng(seed)
    toks = list("abcd")
    docs = [" ".join(rng.choice(toks, size=rng.integers(0, 10)))
            for _ in range(8)]
    whole = _kn_train_partial(pa.table({"text": pa.array(docs, type=pa.string())}), "text")
    bounds = np.linspace(0, len(docs), n_chunks + 1).astype(int)
    parts = [
        _kn_train_partial(
            pa.table({"text": pa.array(docs[a:b], type=pa.string())}), "text")
        for a, b in zip(bounds[:-1], bounds[1:]) if b > a
    ]
    merged = _kn_merge(parts)
    for key in whole:
        assert (whole[key] == merged[key]).all(), key
