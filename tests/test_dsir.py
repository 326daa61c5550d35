"""Tests for DSIR importance resampling (stages/dsir.py): equality
with the independent plain reference over sf0.001, batch-split
invariance (bit-identical floats), and the edge-case matrix (empty
target, k larger than the raw side, null text, negative ids)."""

import numpy as np
import pyarrow as pa
import pytest
import ray

from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean
from logstash_filter_elastic_integration_ray.stages.dsir import (
    dsir_log_ratio,
    dsir_pipeline,
    dsir_score,
    dsir_select,
    hashed_ngram_counts,
)

SF = "/root/testdata/sf0.001"


def _ref_df(mod=7, k=100):
    import reference_impls as ref

    ids, texts = ref.load_documents(SF)
    return ref.dsir_reference(ids, texts, mod=mod, k=k)


def _split(docs, eq, mod=7):
    def fn(t: pa.Table) -> pa.Table:
        m = (t.column("doc_id").to_numpy() % mod == 0) == eq
        return t.filter(pa.array(m))

    return docs.map_batches(fn, batch_format="pyarrow")


def _run(k=100, repart=None):
    docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    target = _split(docs, True)
    raw = _split(docs, False)
    if repart:
        raw = raw.repartition(repart)
    return (
        dsir_pipeline(raw.materialize(), target, k=k)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )


class TestDsirDistributed:
    def test_matches_reference_bitwise(self, ray_session):
        exp = _ref_df().sort_values("doc_id").reset_index(drop=True)
        got = _run()
        assert (got["doc_id"].to_numpy() == exp["doc_id"].to_numpy()).all()
        # exact float equality, not allclose — the formula contract
        assert (got["dsir_logw"].to_numpy() == exp["dsir_logw"].to_numpy()).all()

    def test_batch_split_invariance(self, ray_session):
        a = _run()
        b = _run(repart=17)
        assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()
        assert (a["dsir_logw"].to_numpy() == b["dsir_logw"].to_numpy()).all()

    def test_k_larger_than_raw_keeps_everything(self, ray_session):
        got = _run(k=10_000)
        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id"])
        ids = docs.to_pandas()["doc_id"].to_numpy()
        n_raw = int((ids % 7 != 0).sum())
        assert len(got) == n_raw

    def test_target_docs_never_selected(self, ray_session):
        got = _run()
        assert (got["doc_id"].to_numpy() % 7 != 0).all()


class TestDsirKernels:
    def _counts(self, texts, m=64):
        ds = ray.data.from_arrow(
            pa.table({"doc_id": list(range(len(texts))),
                      "text": pa.array(texts, type=pa.string())})
        )
        return ds, hashed_ngram_counts(ds, m=m, text_col="text")

    def test_count_vector_totals(self, ray_session):
        # "a b c" -> 3 unigrams + 2 bigrams = 5 features
        _, vec = self._counts(["a b c"])
        assert vec.sum() == 5
        # null/empty add one empty-string token, no bigrams
        _, vec2 = self._counts([None, ""])
        assert vec2.sum() == 2

    def test_log_ratio_prefers_target_buckets(self):
        t = np.zeros(8, dtype=np.int64)
        r = np.zeros(8, dtype=np.int64)
        t[3] = 100
        r[5] = 100
        lam = dsir_log_ratio(t, r)
        assert lam[3] > 0 > lam[5]
        assert np.isfinite(lam).all()

    def test_score_empty_and_null_docs_finite(self, ray_session):
        m = 64
        ds, vec = self._counts(["x y", None, ""], m=m)
        lam_ref = ray.put(dsir_log_ratio(vec, vec))  # lam == 0 everywhere
        got = dsir_score(ds, lam_ref, m=m, id_col="doc_id").to_pandas()
        assert (got["dsir_logw"].to_numpy() == 0.0).all()

    def test_negative_id_raises(self, ray_session):
        ds = ray.data.from_arrow(
            pa.table({"doc_id": [-1], "dsir_logw": [0.0]})
        )
        with pytest.raises(Exception, match="non-negative"):
            dsir_select(ds, k=1).to_pandas()

    def test_select_is_weight_monotone_under_equal_gumbel(self, ray_session):
        # same id -> same gumbel; distinct ids with huge logw gap:
        # the top-k must contain the largest-logw rows
        n = 50
        ds = ray.data.from_arrow(
            pa.table({"doc_id": list(range(n)),
                      "dsir_logw": [float(1000 * i) for i in range(n)]})
        )
        got = dsir_select(ds, k=5).to_pandas()
        assert sorted(got["doc_id"].tolist()) == list(range(n - 5, n))
