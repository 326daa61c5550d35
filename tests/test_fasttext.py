"""Tests for the fastText-style hashed-n-gram quality classifier
(stages/fasttext.py): bitwise equality with the plain one-shot-numpy
reference over sf0.001, batching invariance of the trained weights,
featurizer properties, and the label kernel's equivalence to
split-membership."""

import numpy as np
import pyarrow as pa

from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean
from logstash_filter_elastic_integration_ray.stages.fasttext import (
    doc_features,
    fasttext_fit,
    fasttext_score,
    token_presence_labels,
)

SF = "/root/testdata/sf0.001"


def _split(docs, eq, mod=3):
    def fn(t: pa.Table) -> pa.Table:
        m = (t.column("doc_id").to_numpy() % mod == 0) == eq
        return t.filter(pa.array(m))

    return docs.map_batches(fn, batch_format="pyarrow")


def _ref_df():
    import reference_impls as ref

    ids, texts = ref.load_documents(SF)
    return (ref.fasttext_quality_reference(ids, texts)
            .sort_values("doc_id").reset_index(drop=True))


class TestFasttextDistributed:
    def test_matches_reference_bitwise(self, ray_session):
        exp = _ref_df()
        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        w = fasttext_fit(_split(docs, True), label_fn=token_presence_labels,
                         n_iters=100, lr=2.0)
        got = (fasttext_score(_split(docs, False), w).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        assert (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()
        assert (got["score"].to_numpy() == exp["score"].to_numpy()).all()
        assert (got["pred"].to_numpy() == exp["pred"].to_numpy()).all()

    def test_weights_batching_invariant(self, ray_session):
        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        w1 = fasttext_fit(_split(docs, True), label_fn=token_presence_labels,
                          n_iters=5, lr=2.0)
        w2 = fasttext_fit(_split(docs, True).repartition(13),
                          label_fn=token_presence_labels, n_iters=5, lr=2.0)
        assert (w1 == w2).all()

    def test_classifier_beats_base_rate(self, ray_session):
        """The point of the op: the learned model must actually
        discriminate (always-predict-majority was the failure mode the
        log1p featurizer fixed)."""
        exp = _ref_df()
        import reference_impls as ref

        ids, texts = ref.load_documents(SF)
        y = np.array(["spark" in (t or "").split(" ")
                      for i, t in zip(ids, texts) if i % 3 != 0])
        acc = (exp["pred"].to_numpy() == y).mean()
        base = max(y.mean(), 1 - y.mean())
        assert acc > base + 0.05


class TestFasttextKernels:
    def test_doc_features_shape_and_determinism(self):
        t = pa.table({"text": pa.array(["a b c a", "x y", None, ""])})
        x1 = doc_features(t, "text", 64)
        x2 = doc_features(t, "text", 64)
        assert x1.shape == (4, 64)
        assert (x1 == x2).all()
        # log1p counts: "a b c a" has 4 unigrams + 3 bigrams = 7 grams
        assert np.expm1(x1[0]).sum().round(6) == 7.0

    def test_doc_features_per_doc_equals_batch(self):
        """DEFINITIONAL contract: featurizing one doc at a time (the
        reference's path) equals the batched kernel row-for-row."""
        texts = ["a b c", "spark spark x", "", "q w e r t y"]
        batch = doc_features(pa.table({"text": pa.array(texts)}), "text", 128)
        for i, t in enumerate(texts):
            one = doc_features(pa.table({"text": pa.array([t])}), "text", 128)
            assert (one[0] == batch[i]).all()

    def test_labels_match_split_membership(self):
        texts = ["spark a b", "a spark", "sparkly x", "x sparks",
                 None, "", "spark"]
        got = token_presence_labels(pa.table({"text": pa.array(texts, type=pa.string())}))
        exp = np.array([1.0 if "spark" in ((t or "").split(" ")) else 0.0
                        for t in texts])
        assert (got == exp).all()

    def test_empty_batch(self):
        t = pa.table({"text": pa.array([], type=pa.string())})
        assert doc_features(t, "text", 32).shape == (0, 32)
        assert len(token_presence_labels(t)) == 0
