"""Tests for the incremental-ingestion dedup stage
(stages/incremental.py) and SFT pair extraction (stages/sft.py), each
cross-checked against an independent plain-Python reference."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from logstash_filter_elastic_integration_ray.stages.incremental import (
    build_hash_corpus,
    corpus_rows_scanned,
    dedup_against_corpus,
    hash_hex_to_u64,
)
from logstash_filter_elastic_integration_ray.stages.sft import (
    context_response_pairs,
    context_response_reference,
)


def _md5(s: str) -> str:
    return hashlib.md5(s.encode("utf-8")).hexdigest()


class TestIncrementalDedup:
    def _docs(self, ids, texts):
        return rd.from_arrow(
            pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                      "text": pa.array(texts, type=pa.string())})
        ).repartition(4)

    def test_matches_set_reference(self, ray_session, tmp_path):
        # reference corpus: 40 docs; new batch: re-crawled corpus docs,
        # internal dups, and fresh content
        ref_texts = [f"corpus doc {i} body" for i in range(40)]
        build_hash_corpus(
            self._docs(list(range(40)), ref_texts), str(tmp_path / "c"),
            num_buckets=8,
        )
        new_ids = list(range(100, 160))
        new_texts = (
            [f"corpus doc {i} body" for i in range(15)]        # re-crawl hits
            + [f"fresh doc {i}" for i in range(30)]             # genuinely new
            + [f"fresh doc {i}" for i in range(15)]             # internal dups
        )
        got = dedup_against_corpus(
            self._docs(new_ids, new_texts), str(tmp_path / "c"), num_partitions=4
        ).take_all()

        ref_hashes = {_md5(t) for t in ref_texts}
        expect = {}
        for i, t in zip(new_ids, new_texts):
            h = _md5(t)
            if h in ref_hashes:
                continue
            expect[h] = min(expect.get(h, i), i)
        assert {(r["content_hash"], r["doc_id"]) for r in got} == set(expect.items())

    def test_disjoint_batch_is_untouched(self, ray_session, tmp_path):
        build_hash_corpus(
            self._docs([1, 2], ["a", "b"]), str(tmp_path / "c"), num_buckets=4
        )
        got = dedup_against_corpus(
            self._docs([10, 11, 12], ["x", "y", "z"]), str(tmp_path / "c"),
            num_partitions=2,
        ).take_all()
        assert sorted(r["doc_id"] for r in got) == [10, 11, 12]

    def test_bucket_pruning_evidence(self, ray_session, tmp_path):
        texts = [f"doc {i}" for i in range(200)]
        build_hash_corpus(
            self._docs(list(range(200)), texts), str(tmp_path / "c"),
            num_buckets=16,
        )
        full = corpus_rows_scanned(str(tmp_path / "c"), [_md5(t) for t in texts])
        assert full == 200
        one = corpus_rows_scanned(str(tmp_path / "c"), [_md5(texts[0])])
        # a single ambiguous hash opens one bucket ≈ corpus/num_buckets
        assert one < full / 4

    def test_hex_u64_routing_is_prefix_of_digest(self):
        h = _md5("hello")
        (u,) = hash_hex_to_u64(pa.array([h], type=pa.string()))
        assert u == int(h[:16], 16)

    def test_sequential_ingest_loop(self, ray_session, tmp_path):
        # the full incremental loop: ingest batch 1, EXTEND the corpus
        # with its survivors, then batch 2 (overlapping batch 1 AND the
        # original corpus) must only keep genuinely-new content
        from logstash_filter_elastic_integration_ray.stages.incremental import (
            extend_hash_corpus,
        )

        build_hash_corpus(
            self._docs([1, 2], ["base a", "base b"]), str(tmp_path / "c"),
            num_buckets=4,
        )
        batch1 = self._docs([10, 11], ["batch1 x", "batch1 y"])
        s1 = dedup_against_corpus(batch1, str(tmp_path / "c"), num_partitions=2)
        s1 = s1.materialize()
        assert sorted(r["doc_id"] for r in s1.take_all()) == [10, 11]
        extend_hash_corpus(s1.select_columns(["content_hash"]), str(tmp_path / "c"))

        batch2 = self._docs(
            [20, 21, 22, 23],
            ["batch1 x",      # now in the EXTENDED corpus → drop
             "base a",        # in the original corpus → drop
             "fresh z",       # genuinely new → keep
             "fresh z"],      # internal dup → one survivor
        )
        got = dedup_against_corpus(
            batch2, str(tmp_path / "c"), num_partitions=2
        ).take_all()
        assert [(r["doc_id"], r["content_hash"]) for r in got] == [
            (22, _md5("fresh z"))
        ]

    def test_empty_corpus_bootstrap(self, ray_session, tmp_path):
        # first-ever ingest: the reference corpus is empty (write_parquet
        # emits no files) — the sidecar must still build, and every new
        # doc must pass through bloom-negative
        build_hash_corpus(
            self._docs([], []), str(tmp_path / "c"), num_buckets=4
        )
        got = dedup_against_corpus(
            self._docs([5, 6], ["p", "q"]), str(tmp_path / "c"), num_partitions=2
        ).take_all()
        assert sorted(r["doc_id"] for r in got) == [5, 6]


class TestJaccardDecontaminate:
    def _run(self, train_rows, held_rows, **kw):
        from logstash_filter_elastic_integration_ray.stages.dedup import (
            ngram_jaccard_decontaminate,
        )

        train = rd.from_arrow(pa.Table.from_pylist(train_rows)).repartition(3)
        held = rd.from_arrow(pa.Table.from_pylist(held_rows)).repartition(2)
        got = ngram_jaccard_decontaminate(train, held, num_partitions=4, **kw).take_all()
        return {r["doc_id"]: r["contaminated"] for r in got}

    def test_synthetic_semantics(self, ray_session):
        base = "the quick brown fox jumps over the lazy dog again and again today"
        near = base.replace("today", "tonight")  # jaccard > 0.8 vs base
        train = [
            {"doc_id": 1, "text": base},              # direct near-dup of held 100
            {"doc_id": 2, "text": near},              # transitive via doc 1
            {"doc_id": 3, "text": "completely different words about distributed systems and ray data pipelines"},
            {"doc_id": 4, "text": "completely different words about distributed systems and ray data pipelines"},
            # 3 and 4 are dups of EACH OTHER only → must stay clean
        ]
        held = [{"doc_id": 100, "text": base}]
        got = self._run(train, held)
        assert got == {1: True, 2: True, 3: False, 4: False}

    def test_matches_reference_sf0001(self, ray_session):
        import reference_impls as ref

        ids, texts = ref.load_documents("/root/testdata/sf0.001")
        tr = [(i, t) for i, t in zip(ids, texts) if i % 5 != 0]
        hd = [(i, t) for i, t in zip(ids, texts) if i % 5 == 0]
        exp = ref.ngram_jaccard_decontaminate_reference(
            [i for i, _ in tr], [t for _, t in tr],
            [i for i, _ in hd], [t for _, t in hd],
        )
        got = self._run(
            [{"doc_id": int(i), "text": t} for i, t in tr],
            [{"doc_id": int(i), "text": t} for i, t in hd],
        )
        assert got == dict(zip(exp["doc_id"], exp["contaminated"]))
        assert any(got.values())  # the split must exercise real signal

    def test_id_range_guard(self, ray_session):
        with __import__("pytest").raises(Exception, match="2\\^62"):
            self._run([{"doc_id": 1 << 62, "text": "x"}], [{"doc_id": 1, "text": "y"}])


class TestEmbeddingDecontaminate:
    def test_synthetic_and_reference(self, ray_session):
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.similarity import (
            embedding_decontaminate,
            text_feature_embedding_batch,
        )

        # reference equality over the real sf0.001 docs, %5 split
        exp = ref.embedding_decontaminate_reference("/root/testdata/sf0.001")
        import pyarrow.parquet as pq

        t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                          columns=["doc_id", "text"])
        emb = text_feature_embedding_batch(t)
        ids = emb.column("doc_id").to_numpy()
        train = rd.from_arrow(emb.filter(pa.array(ids % 5 != 0))).repartition(3)
        held = rd.from_arrow(emb.filter(pa.array(ids % 5 == 0))).repartition(2)
        got = {
            r["doc_id"]: r["contaminated"]
            for r in embedding_decontaminate(train, held, num_partitions=4).take_all()
        }
        assert got == dict(zip(exp["doc_id"], exp["contaminated"]))
        assert any(got.values()) and not all(got.values())


class TestSftPairs:
    ROWS = [
        # conv A: standard user/assistant alternation
        {"conv_id": "A", "turn_idx": 0, "role": "user", "text": "hi"},
        {"conv_id": "A", "turn_idx": 1, "role": "assistant", "text": "hello"},
        {"conv_id": "A", "turn_idx": 2, "role": "tool", "text": "lookup()"},
        {"conv_id": "A", "turn_idx": 3, "role": "assistant", "text": "done"},
        # conv B: assistant FIRST (empty context → NULL), null text mid-conv
        {"conv_id": "B", "turn_idx": 0, "role": "assistant", "text": "opening"},
        {"conv_id": "B", "turn_idx": 1, "role": "user", "text": None},
        {"conv_id": "B", "turn_idx": 2, "role": "assistant", "text": "reply"},
        # conv C: no assistant turns at all
        {"conv_id": "C", "turn_idx": 0, "role": "user", "text": "alone"},
    ]

    def _ds(self, num_blocks=3):
        return rd.from_arrow(pa.Table.from_pylist(self.ROWS)).repartition(num_blocks)

    def test_matches_reference(self, ray_session):
        got = context_response_pairs(self._ds(), num_partitions=3).take_all()
        expect = context_response_reference(self.ROWS)
        key = lambda r: (r["conv_id"], r["turn_idx"])
        assert sorted(
            ({k: r[k] for k in ("conv_id", "turn_idx", "context",
                                "n_context_turns", "response")} for r in got),
            key=key,
        ) == sorted(expect, key=key)
        by = {(r["conv_id"], r["turn_idx"]): r for r in got}
        assert by[("A", 3)]["context"] == "user: hi\nassistant: hello\ntool: lookup()"
        assert by[("B", 0)]["context"] is None  # empty frame → SQL NULL
        assert by[("B", 0)]["n_context_turns"] == 0
        assert by[("B", 2)]["context"] == "assistant: opening\nuser: "  # null text renders ''
        assert not any(r["conv_id"] == "C" for r in got)

    def test_batching_invariance(self, ray_session):
        a = context_response_pairs(self._ds(1), num_partitions=2).take_all()
        b = context_response_pairs(self._ds(5), num_partitions=3).take_all()
        key = lambda r: (r["conv_id"], r["turn_idx"])
        assert sorted(a, key=key) == sorted(b, key=key)

    def test_max_context_chars_keeps_tail(self, ray_session):
        got = context_response_pairs(
            self._ds(), max_context_chars=10, num_partitions=2
        ).take_all()
        by = {(r["conv_id"], r["turn_idx"]): r for r in got}
        full = "user: hi\nassistant: hello\ntool: lookup()"
        assert by[("A", 3)]["context"] == full[-10:]
        assert by[("B", 0)]["context"] is None  # cap never fabricates context

    def test_null_role_skipped_like_string_agg(self, ray_session):
        # string_agg(role || ': ' || COALESCE(text,''), sep) NULLs the
        # whole element when role is NULL and SKIPS it — but count(*)
        # still counts the row; pin the engine against DuckDB itself
        rows = [
            {"conv_id": "N", "turn_idx": 0, "role": None, "text": "sys"},
            {"conv_id": "N", "turn_idx": 1, "role": "user", "text": "hi"},
            {"conv_id": "N", "turn_idx": 2, "role": "assistant", "text": "yo"},
            {"conv_id": "M", "turn_idx": 0, "role": None, "text": "only-null"},
            {"conv_id": "M", "turn_idx": 1, "role": "assistant", "text": "a"},
        ]
        got = context_response_pairs(
            rd.from_arrow(pa.Table.from_pylist(rows)), num_partitions=2
        ).take_all()
        by = {(r["conv_id"], r["turn_idx"]): r for r in got}
        assert by[("N", 2)]["context"] == "user: hi"
        assert by[("N", 2)]["n_context_turns"] == 2
        assert by[("M", 1)]["context"] is None  # all elements skipped
        assert by[("M", 1)]["n_context_turns"] == 1
        import duckdb

        con = duckdb.connect()
        con.register("t", pa.Table.from_pylist(rows))
        exp = con.execute(
            "SELECT conv_id, turn_idx, "
            "string_agg(role || ': ' || COALESCE(text, ''), chr(10)) OVER w AS context, "
            "CAST(count(*) OVER w AS BIGINT) AS n_context_turns, text AS response "
            "FROM t WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) "
            "QUALIFY role = 'assistant'"
        ).fetch_arrow_table().to_pylist()
        key = lambda r: (r["conv_id"], r["turn_idx"])
        assert sorted(got, key=key) == sorted(exp, key=key)

    def test_nonpositive_cap_raises(self, ray_session):
        with pytest.raises(ValueError, match="max_context_chars"):
            context_response_pairs(self._ds(), max_context_chars=0)
        with pytest.raises(ValueError, match="max_context_chars"):
            context_response_reference(self.ROWS, max_context_chars=0)

    def test_null_order_raises(self, ray_session):
        rows = [dict(self.ROWS[0]), dict(self.ROWS[1])]
        rows[1]["turn_idx"] = None
        with pytest.raises(Exception, match="null in order column"):
            context_response_pairs(
                rd.from_arrow(pa.Table.from_pylist(rows)), num_partitions=1
            ).take_all()
