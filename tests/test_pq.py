"""Product-quantization ANN (stages/pq.py): equality with the
independently-derived per-subspace reference, batching invariance,
compression invariants, and recall sanity vs the exact brute-force
baseline."""

import numpy as np
import pyarrow as pa

from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean
from logstash_filter_elastic_integration_ray.stages.pq import (
    pq_encode,
    pq_topk,
    pq_train,
)

SF = "/root/testdata/sf0.001"


def _emb():
    return read_parquet_clean(f"{SF}/embeddings.parquet",
                              columns=["vec_id", "embedding"])


def _mod(ds, eq):
    def fn(t: pa.Table) -> pa.Table:
        m = (t.column("vec_id").to_numpy() % 100 == 0) == eq
        return t.filter(pa.array(m))

    return ds.map_batches(fn, batch_format="pyarrow")


def _run(repart=None):
    emb = _emb()
    books = pq_train(emb, m=16, k=32, n_iters=8)
    q_rows = sorted(_mod(emb, True).take_all(), key=lambda r: r["vec_id"])
    queries = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in q_rows])
    qids = [r["vec_id"] for r in q_rows]
    corpus = _mod(emb, False)
    if repart:
        corpus = corpus.repartition(repart)
    codes = pq_encode(corpus, books)
    return (pq_topk(codes, books, queries, qids, topk=10).to_pandas()
            .sort_values(["query_id", "rank"]).reset_index(drop=True)), books


class TestPqDistributed:
    def test_matches_reference(self, ray_session):
        import reference_impls as ref

        exp = (ref.pq_topk_reference(SF)
               .sort_values(["query_id", "rank"]).reset_index(drop=True))
        got, _ = _run()
        for c in ("query_id", "neighbor_id", "rank"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c

    def test_batching_invariance(self, ray_session):
        a, _ = _run()
        b, _ = _run(repart=17)
        assert a.equals(b)

    def test_codes_are_m_bytes(self, ray_session):
        emb = _emb()
        books = pq_train(emb, m=16, k=32, n_iters=2)
        codes = pq_encode(emb, books).take_batch(50, batch_format="pyarrow")
        col = codes["codes"]
        assert pa.types.is_fixed_size_list(col.type) and col.type.list_size == 16
        flat = col.combine_chunks().flatten().to_numpy(zero_copy_only=False)
        assert flat.dtype == np.uint8 and (flat < 32).all()

    def test_recall_vs_brute_force(self, ray_session):
        """PQ is approximate by design — pin a recall@10 floor against
        the exact baseline instead of equality (16 subspaces of 4 dims
        at k=32 on 64-dim embeddings measures 0.50 here vs ≈2% chance)."""
        from logstash_filter_elastic_integration_ray.stages.similarity import (
            brute_force_topk,
        )

        got, _ = _run()
        emb = _emb()
        q_rows = sorted(_mod(emb, True).take_all(), key=lambda r: r["vec_id"])
        queries = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in q_rows])
        qids = [r["vec_id"] for r in q_rows]
        # brute force is cosine; PQ is L2 — equivalent ordering only for
        # unit vectors, so compare against L2-exact instead: compute
        # directly with numpy over the corpus
        corpus_rows = _mod(emb, False).take_all()
        cids = np.array([r["vec_id"] for r in corpus_rows], dtype=np.int64)
        cmat = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in corpus_rows])
        recalls = []
        for qi, qv in enumerate(queries):
            d = ((cmat - qv[None, :]) ** 2).sum(axis=1)
            exact = set(cids[np.lexsort((cids, d))[:10]].tolist())
            approx = set(got[got["query_id"] == qids[qi]]["neighbor_id"].tolist())
            recalls.append(len(exact & approx) / 10)
        assert np.mean(recalls) >= 0.35, recalls


class TestIvfPq:
    def _setup(self, tmp_path):
        import pyarrow.parquet as pqt

        from logstash_filter_elastic_integration_ray.stages.pq import (
            build_ivfpq_layout,
            pq_train,
        )
        from logstash_filter_elastic_integration_ray.stages.similarity import (
            IvfIndex,
            _to_matrix,
        )

        emb = _emb()
        sample = _to_matrix(
            pqt.read_table(f"{SF}/embeddings.parquet", columns=["embedding"])
            .column("embedding"))[:2048]
        index = IvfIndex(sample)
        books = pq_train(emb, m=16, k=32, n_iters=8)
        layout = build_ivfpq_layout(emb, index, books, str(tmp_path / "ivfpq"))
        q_rows = sorted(_mod(emb, True).take_all(), key=lambda r: r["vec_id"])
        queries = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in q_rows])
        qids = [r["vec_id"] for r in q_rows]
        return layout, index, books, queries, qids

    def test_matches_reference(self, ray_session, tmp_path):
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.pq import ivfpq_topk

        layout, index, books, queries, qids = self._setup(tmp_path)
        exp = (ref.ivfpq_topk_reference(SF)
               .sort_values(["query_id", "rank"]).reset_index(drop=True))
        got = (ivfpq_topk(layout, index, books, queries, qids, topk=10, nprobe=4)
               .to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True))
        for c in ("query_id", "neighbor_id", "rank"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c

    def test_layout_is_code_only_and_pruned(self, ray_session, tmp_path):
        """The storage contract: the layout holds ONLY id + 16-byte
        codes + bucket (no float embeddings), and a probe opens only
        its nprobe bucket directories."""
        import glob
        import os

        import pyarrow.parquet as pqt

        layout, index, books, queries, qids = self._setup(tmp_path)
        f = glob.glob(os.path.join(layout, "bucket=*", "*.parquet"))[0]
        schema = pqt.read_schema(f)
        assert "embedding" not in schema.names
        assert set(schema.names) >= {"vec_id", "codes", "bucket_id"}
        n_buckets = len(glob.glob(os.path.join(layout, "bucket=*")))
        assert n_buckets > 4  # nprobe=4 < nlist → the read is a real prune
