"""Round-4 curation ops: window_dedup (stages/windows.py),
blocklist_flag_batch / oov_rate (stages/textstats.py) — plain
pandas/python reference equality, batching invariance, edge cases."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logstash_filter_elastic_integration_ray.stages.textstats import (
    blocklist_flag_batch,
    oov_rate,
    oov_score_batch,
)
from logstash_filter_elastic_integration_ray.stages.windows import window_dedup


def _events(n=600, seed=5):
    rng = np.random.RandomState(seed)
    base = np.datetime64("2025-03-01T00:00:00", "us")
    ts = base + rng.randint(0, 3_600_000_000, n).astype("timedelta64[us]")
    return pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.randint(0, 25, n).astype(np.int64),
        "event_type": np.array(["click", "view", "buy"], dtype=object)[
            rng.randint(0, 3, n)
        ],
        "ts": ts,
    })


class TestWindowDedup:
    W = 60_000_000  # 1 minute

    def _reference(self, df):
        d = df.copy()
        d["win"] = d["ts"].astype("int64") // self.W
        d = d.sort_values(["user_id", "event_type", "win", "ts", "event_id"],
                          kind="mergesort")
        keep = ~d.duplicated(["user_id", "event_type", "win"], keep="first")
        return (d[keep].sort_values("event_id").reset_index(drop=True)
                [["event_id", "user_id", "event_type", "ts", "win"]])

    def _run(self, df, blocks=6, parts=7):
        import ray

        ds = ray.data.from_pandas(df).repartition(blocks)
        out = window_dedup(ds, keys=["user_id", "event_type"],
                           window_us=self.W, num_partitions=parts).to_pandas()
        return (out.sort_values("event_id").reset_index(drop=True)
                [["event_id", "user_id", "event_type", "ts", "win"]])

    def test_matches_reference(self, ray_session):
        df = _events()
        pd.testing.assert_frame_equal(self._run(df), self._reference(df))

    def test_batching_invariance_and_tie(self, ray_session):
        df = _events(200, seed=9)
        # forced tie: two events, same key, same ts → min event_id wins
        df.loc[1, ["user_id", "event_type", "ts"]] = df.loc[0, ["user_id", "event_type", "ts"]]
        a = self._run(df, blocks=1, parts=2)
        b = self._run(df, blocks=11, parts=13)
        pd.testing.assert_frame_equal(a, b)
        pd.testing.assert_frame_equal(a, self._reference(df))
        assert 0 in a["event_id"].values and 1 not in a["event_id"].values

    def test_hot_key_collapses_per_batch(self, ray_session):
        # one (user,type,window) tuple firing 10k times still yields 1 row
        df = pd.DataFrame({
            "event_id": np.arange(10_000, dtype=np.int64),
            "user_id": np.zeros(10_000, dtype=np.int64),
            "event_type": np.repeat("click", 10_000).astype(object),
            "ts": np.repeat(np.datetime64("2025-03-01T00:00:30", "us"), 10_000),
        })
        out = self._run(df, blocks=8, parts=4)
        assert len(out) == 1 and out["event_id"].iloc[0] == 0


class TestBlocklist:
    PHRASES = ["slow table", "SPARK", "hash value"]

    def test_matches_reference_and_edges(self):
        texts = [
            "a slow table is slow", "spark and Spark", None, "",
            "hash value slow table spark", "nothing here",
        ]
        t = pa.table({"doc_id": pa.array(range(6), type=pa.int64()),
                      "text": pa.array(texts, type=pa.string())})
        got = blocklist_flag_batch(t, self.PHRASES).to_pandas()
        exp_hits = []
        for x in texts:
            low = (x or "").lower()
            exp_hits.append(sum(p.lower() in low for p in self.PHRASES))
        assert got["n_blocklist_hits"].tolist() == exp_hits
        assert got["blocked"].tolist() == [h > 0 for h in exp_hits]


class TestOovRate:
    def test_matches_reference(self, ray_session):
        import ray

        rng = np.random.RandomState(3)
        words = np.array(["aa", "bb", "cc", "dd", "ee", "ff", "gg"])
        texts = [" ".join(words[rng.randint(0, 7, rng.randint(1, 12))])
                 for _ in range(80)] + ["", None]
        ids = np.arange(82, dtype=np.int64)
        df = pd.DataFrame({"doc_id": ids, "text": texts})
        ds = ray.data.from_pandas(df).repartition(5)
        got = (oov_rate(ds, vocab_size=3).to_pandas()
               .sort_values("doc_id").reset_index(drop=True))
        # reference: exact top-3 tokens (cnt desc, token asc)
        from collections import Counter

        cnt = Counter()
        for x in texts:
            cnt.update((x or "").split(" "))
        vocab = set(t for t, _ in sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:3])
        rows = []
        for i, x in zip(ids, texts):
            toks = (x or "").split(" ")
            n_oov = sum(t not in vocab for t in toks)
            rows.append((i, len(toks), n_oov, n_oov / len(toks)))
        exp = pd.DataFrame(rows, columns=["doc_id", "n_tokens", "n_oov", "oov_rate"])
        for c in ("n_tokens", "n_oov", "oov_rate"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c

    def test_score_batch_empty(self):
        t = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "text": pa.array([], type=pa.string())})
        out = oov_score_batch(t, pa.array(["x"], type=pa.string()))
        assert out.num_rows == 0


class TestCdcChunks:
    def test_matches_sequential_reference(self, ray_session):
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.corpus import cdc_chunk_batch

        ids, texts = ref.load_documents("/root/testdata/sf0.001")
        ids = list(ids) + [9001, 9002, 9003]
        texts = list(texts) + ["", "short", "x" * 2000]
        t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                      "text": pa.array(texts, type=pa.string())})
        got = cdc_chunk_batch(t).to_pandas().reset_index(drop=True)
        exp = ref.cdc_chunks_reference(ids, texts).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp)

    def test_boundary_resync_after_insertion(self):
        # the CDC property: inserting bytes near the head re-syncs
        # boundaries, so most tail chunk hashes still match
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.corpus import cdc_chunk_batch

        rng = np.random.RandomState(0)
        base = " ".join(rng.choice(["alpha", "beta", "gamma", "delta"], 600))
        edited = "INSERTED PREFIX " + base
        t = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                      "text": pa.array([base, edited], type=pa.string())})
        out = cdc_chunk_batch(t).to_pandas()
        h1 = set(out[out.doc_id == 1]["chunk_md5"])
        h2 = set(out[out.doc_id == 2]["chunk_md5"])
        # the tail re-synchronizes: most chunks shared despite the edit
        assert len(h1 & h2) >= 0.7 * len(h1)

    def test_chunk_invariants(self):
        from logstash_filter_elastic_integration_ray.stages.corpus import cdc_chunk_batch

        t = pa.table({"doc_id": pa.array([1], type=pa.int64()),
                      "text": pa.array(["y" * 1000], type=pa.string())})
        out = cdc_chunk_batch(t, min_size=16, max_size=256).to_pandas()
        # contiguous cover, sizes within [min, max] except possibly last
        assert out["start"].iloc[0] == 0 and out["end"].iloc[-1] == 1000
        assert (out["start"].iloc[1:].to_numpy() == out["end"].iloc[:-1].to_numpy()).all()
        sizes = (out["end"] - out["start"]).to_numpy()
        assert (sizes[:-1] >= 16).all() and (sizes <= 256).all()


class TestCdcDupStats:
    def test_planted_duplicates(self, ray_session):
        import ray

        from logstash_filter_elastic_integration_ray.stages.corpus import cdc_dup_stats

        rng = np.random.RandomState(1)
        words = ["alpha", "beta", "gamma", "delta", "epsi"]
        other = ["zeta", "theta", "kappa", "sigma", "omega"]
        shared = " ".join(rng.choice(words, 400))
        # doc 3 draws from a DISJOINT vocabulary — no accidental
        # 16-byte chunk collisions with the shared text
        uniq1 = " ".join(rng.choice(other, 400))
        uniq2 = " ".join(rng.choice(other, 400))
        df = pd.DataFrame({
            "doc_id": np.array([1, 2, 3], dtype=np.int64),
            "text": [shared, shared, uniq1 + " zzz " + uniq2],
        })
        ds = ray.data.from_pandas(df).repartition(3)
        out = (cdc_dup_stats(ds, num_partitions=5).to_pandas()
               .set_index("doc_id"))
        # identical docs: every byte duplicated
        assert out.loc[1, "dup_frac"] == 1.0 and out.loc[2, "dup_frac"] == 1.0
        assert out.loc[3, "dup_frac"] == 0.0
        assert out.loc[1, "n_bytes"] == len(shared.encode())

    def test_partition_invariance(self, ray_session):
        import ray
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.corpus import cdc_dup_stats

        ids, texts = ref.load_documents("/root/testdata/sf0.001")
        df = pd.DataFrame({"doc_id": np.asarray(ids, dtype=np.int64),
                           "text": texts})
        a = (cdc_dup_stats(ray.data.from_pandas(df).repartition(1),
                           num_partitions=2).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
        b = (cdc_dup_stats(ray.data.from_pandas(df).repartition(7),
                           num_partitions=13).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)


class TestNormalizeText:
    def test_matches_reference(self):
        import re

        from logstash_filter_elastic_integration_ray.stages.textstats import normalize_text_batch

        texts = ["  Héllo,   WORLD!! ", "café  x", None, "",
                 "Tab\tand\nnewline  MIX 42_a", "é combining", "ALL: 99%"]
        t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                      "text": pa.array(texts, type=pa.string())})
        got = normalize_text_batch(t).to_pandas()

        def ref(s):
            if s is None:
                return None
            s = re.sub(r"[^ -~]", "", s).lower()
            s = re.sub(r"[^a-z0-9_ ]", "", s)
            s = re.sub(r" +", " ", s)
            return s.strip()

        exp = [ref(s) for s in texts]
        assert got["norm_text"].where(got["norm_text"].notna(), None).tolist() == exp
        assert got["n_chars_norm"].tolist() == [len(e or "") for e in exp]


class TestProfileColumns:
    def test_matches_duckdb(self, ray_session):
        import duckdb
        import ray

        from logstash_filter_elastic_integration_ray.stages.profile import profile_columns

        rng = np.random.RandomState(4)
        df = pd.DataFrame({
            "i": pd.array(
                [None if x % 11 == 0 else x * 37 for x in range(300)],
                dtype="Int64"),
            "s": [None if x % 7 == 0 else f"v{x % 13}" for x in range(300)],
        })
        ds = ray.data.from_pandas(df).repartition(6)
        got = profile_columns(ds, columns=["i", "s"], num_partitions=5)
        con = duckdb.connect()
        con.register("t", df)
        exp = con.execute(
            " UNION ALL ".join(
                f"SELECT '{c}' AS col_name, count(*) AS n, "
                f"count(*) - count({c}) AS n_null, "
                f"count(DISTINCT {c}) AS n_distinct, "
                f"CAST(min({c}) AS VARCHAR) AS min_val, "
                f"CAST(max({c}) AS VARCHAR) AS max_val FROM t"
                for c in ["i", "s"])
        ).df()
        con.close()
        for c in ("n", "n_null", "n_distinct", "min_val", "max_val"):
            assert got[c].tolist() == exp[c].tolist(), c

    def test_all_null_column(self, ray_session):
        import ray

        from logstash_filter_elastic_integration_ray.stages.profile import profile_columns

        df = pd.DataFrame({"x": pd.array([None, None], dtype="Int64")})
        out = profile_columns(ray.data.from_pandas(df), columns=["x"])
        r = out.iloc[0]
        assert r["n"] == 2 and r["n_null"] == 2 and r["n_distinct"] == 0
        assert r["min_val"] is None and r["max_val"] is None
        # no rows at all: the column is still reported, with zero counts
        r = profile_columns(ray.data.from_pandas(df.iloc[:0]), columns=["x"]).iloc[0]
        assert r["n"] == 0 and r["n_null"] == 0 and r["n_distinct"] == 0
        assert r["min_val"] is None and r["max_val"] is None

    def test_exact_past_2_53(self, ray_session):
        import ray

        from logstash_filter_elastic_integration_ray.stages.profile import profile_columns

        big = 2**60
        df = pd.DataFrame({"x": pd.array([big, big + 1, big + 1], dtype="Int64")})
        out = profile_columns(ray.data.from_pandas(df).repartition(3), columns=["x"])
        r = out.iloc[0]
        assert r["n_distinct"] == 2
        assert r["min_val"] == str(big) and r["max_val"] == str(big + 1)


class TestPiiScrub:
    def test_matches_python_reference(self):
        import re

        from logstash_filter_elastic_integration_ray.stages.textstats import PII_RULES, pii_scrub_batch

        texts = [
            "mail me at bob.smith+x@sub.example.co.uk now",
            "server 10.1.2.300 and 192.168.0.1!",
            "call +1-202-555-0143 or 0044-20-7946-0958",
            None, "",
            "a@b.io 1.2.3.4 +123456789",
        ]
        t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                      "text": pa.array(texts, type=pa.string())})
        got = pii_scrub_batch(t).to_pandas()
        for i, x in enumerate(texts):
            cur = x
            counts = []
            for pat, repl in PII_RULES:
                counts.append(len(re.findall(pat, cur or "")))
                cur = None if cur is None else re.sub(pat, repl, cur)
            assert (got["scrubbed"][i] is None and cur is None) or got["scrubbed"][i] == cur
            assert [got["n_emails"][i], got["n_ips"][i], got["n_phones"][i]] == counts


class TestLogTemplates:
    def test_wildcards_and_constants(self, ray_session):
        import ray

        from logstash_filter_elastic_integration_ray.stages.textstats import log_templates

        texts = (["GET /api/%d 200" % i for i in range(20)]
                 + ["POST /api/9 500", "POST /api/9 500"]
                 + ["boot ok"] * 3 + [None, ""])
        df = pd.DataFrame({"text": texts})
        ds = ray.data.from_pandas(df).repartition(5)
        out = (log_templates(ds, num_partitions=3).to_pandas()
               .set_index("n_tokens").sort_index())
        # 3-token group mixes GET/POST → method + path vary, code varies
        assert out.loc[3, "template"] == "<*> <*> <*>"
        assert out.loc[3, "n_lines"] == 22
        assert out.loc[2, "template"] == "boot ok"
        assert out.loc[2, "n_lines"] == 3
        # null/empty → single empty token group
        assert out.loc[1, "template"] == ""
        assert out.loc[1, "n_lines"] == 2

    def test_partition_invariance(self, ray_session):
        import ray

        from logstash_filter_elastic_integration_ray.stages.textstats import log_templates

        rng = np.random.RandomState(7)
        texts = ["svc=%d msg ok" % rng.randint(0, 5) for _ in range(60)]
        df = pd.DataFrame({"text": texts})
        a = (log_templates(ray.data.from_pandas(df).repartition(1),
                           num_partitions=2).to_pandas()
             .sort_values("n_tokens").reset_index(drop=True))
        b = (log_templates(ray.data.from_pandas(df).repartition(7),
                           num_partitions=5).to_pandas()
             .sort_values("n_tokens").reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)
        assert a["template"].iloc[0] == "<*> msg ok"
