"""Tests for the BPE tokenizer stage (stages/bpe.py): hand-computed
merge learning, reference equality over sf0.001, batch/partition
invariance, top-V pruning exactness, and encode edge cases."""

import numpy as np
import pyarrow as pa
import pytest

from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean
from logstash_filter_elastic_integration_ray.stages.bpe import (
    EOW,
    BpeEncoder,
    bpe_encode,
    corpus_word_freq,
    encode_word,
    learn_merges,
    train_bpe,
    word_symbols,
)

SF = "/root/testdata/sf0.001"


class TestBpeKernels:
    def test_word_symbols(self):
        assert word_symbols("ab") == ("a", "b", EOW)

    def test_learn_merges_hand_computed(self):
        # "low" x5, "lower" x2: most frequent pair is (l, o) with 7
        wf = {"low": 5, "lower": 2}
        m = learn_merges(wf, 3)
        assert m[0] == ("l", "o")
        assert m[1] == ("lo", "w")  # "low" now [lo w </w>], pair (lo,w)=7
        # round 3: "low" -> [low </w>] (5), "lower" -> [low e r </w>] (2)
        assert m[2] == ("low", EOW)

    def test_tie_break_lexicographic(self):
        # "ab" and "cd" both appear once -> pairs (a,b),(b,</w>),(c,d),
        # (d,</w>) all count 1; smallest pair lexicographically wins
        m = learn_merges({"ab": 1, "cd": 1}, 1)
        assert m[0] == ("a", "b")

    def test_encode_applies_lowest_rank_first(self):
        ranks = {("l", "o"): 0, ("lo", "w"): 1, ("low", EOW): 2}
        assert encode_word("low", ranks) == ["low" + EOW]
        assert encode_word("lower", ranks) == ["low", "e", "r", EOW]
        assert encode_word("xyz", ranks) == ["x", "y", "z", EOW]

    def test_encode_empty_word(self):
        assert encode_word("", {}) == [EOW]

    def test_learn_merges_exhausts_early(self):
        # single 1-char word: only pair is (a, </w>); after merging it
        # nothing remains
        m = learn_merges({"a": 3}, 10)
        assert m == [("a", EOW)]


class TestBpeDistributed:
    def _docs(self):
        return read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])

    def test_matches_reference(self, ray_session):
        import reference_impls as ref

        ids, texts = ref.load_documents(SF)
        exp = ref.bpe_reference(ids, texts, n_merges=120).sort_values(
            "doc_id").reset_index(drop=True)
        merges = train_bpe(self._docs(), n_merges=120)
        got = (
            bpe_encode(self._docs(), merges)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert got.equals(exp)

    def test_partition_invariance(self, ray_session):
        import ray

        m1 = ray.get(train_bpe(self._docs(), n_merges=60))
        m2 = ray.get(train_bpe(self._docs().repartition(13), n_merges=60))
        assert m1 == m2

    def test_top_v_pruning_is_exact_global(self, ray_session):
        import reference_impls as ref

        ids, texts = ref.load_documents(SF)
        counts: dict = {}
        for t in texts:
            for w in (t or "").split(" "):
                counts[w] = counts.get(w, 0) + 1
        items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
        wf = corpus_word_freq(self._docs(), top_v=50)
        assert wf == dict(items)

    def test_encoder_memo_caches(self):
        import ray

        merges_ref = ray.put([("a", "b")])
        enc = BpeEncoder(merges_ref)
        t = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                      "text": pa.array(["ab ab", "ab"], type=pa.string())})
        out = enc(t)
        assert out.column("n_bpe").to_pylist() == [4, 2]  # [ab, </w>] per word
        assert out.column("bpe_text").to_pylist()[0] == f"ab {EOW} ab {EOW}"
        assert "ab" in enc.memo and len(enc.memo) == 1

    def test_null_text(self):
        import ray

        enc = BpeEncoder(ray.put([]))
        t = pa.table({"doc_id": pa.array([1], type=pa.int64()),
                      "text": pa.array([None], type=pa.string())})
        out = enc(t)
        # null -> "" -> [""] -> [</w>]: one token
        assert out.column("n_bpe").to_pylist() == [1]


class TestBpePack:
    def test_pack_rows_equals_pack_docs_on_whitespace_counts(self, ray_session):
        """pack_rows is the same machinery as pack_docs — feeding it
        whitespace counts must reproduce pack_docs exactly."""
        import pyarrow.compute as pc

        from logstash_filter_elastic_integration_ray.stages.corpus import (
            pack_docs,
            pack_rows,
        )

        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])

        def count(t: pa.Table) -> pa.Table:
            n = pc.fill_null(
                pc.list_value_length(pc.split_pattern(t.column("text"), " ")), 0
            ).cast(pa.int64())
            return pa.table({"doc_id": t.column("doc_id"), "n_tok": n})

        a = pack_docs(docs, cap=256).to_pandas().sort_values(
            ["doc_id", "bin"]).reset_index(drop=True)
        b = pack_rows(docs.map_batches(count, batch_format="pyarrow"),
                      cap=256, n_col="n_tok").to_pandas().sort_values(
            ["doc_id", "bin"]).reset_index(drop=True)
        assert a.equals(b)

    def test_bpe_pack_windows_are_exact(self, ray_session):
        """Every 256-token window of the BPE-packed stream is full
        except the last, and per-doc slices cover each doc exactly."""
        from logstash_filter_elastic_integration_ray.stages.bpe import (
            bpe_encode,
            train_bpe,
        )
        from logstash_filter_elastic_integration_ray.stages.corpus import pack_rows

        docs = read_parquet_clean(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        merges = train_bpe(docs, n_merges=60)
        sized = bpe_encode(docs, merges).select_columns(["doc_id", "n_bpe"])
        out = pack_rows(sized, cap=256, n_col="n_bpe").to_pandas()
        per_bin = out.groupby("bin")["n_toks"].sum().sort_index()
        assert (per_bin.iloc[:-1] == 256).all()
        assert 0 < per_bin.iloc[-1] <= 256
        # per-doc coverage: slices tile [0, n_doc)
        g = out.sort_values(["doc_id", "bin"]).groupby("doc_id")
        assert (g["tok_start"].first() == 0).all()
        assert (out.groupby("doc_id")
                   .apply(lambda d: (d["tok_end"].iloc[:-1].to_numpy()
                                     == d["tok_start"].iloc[1:].to_numpy()).all(),
                          include_groups=False)).all()


class TestUnigram:
    def test_expected_counts_match_bruteforce_enumeration(self):
        """Forward–backward posterior counts == direct enumeration of
        every segmentation (an independent algorithm)."""
        import itertools
        import math

        from logstash_filter_elastic_integration_ray.stages.unigram import (
            word_expected_counts,
        )

        logp = {"a": math.log(0.3), "b": math.log(0.2), "ab": math.log(0.35),
                "ba": math.log(0.1), "aba": math.log(0.05)}
        w = "abab"
        # enumerate all segmentations via cut masks
        segs = []
        n = len(w)
        for mask in itertools.product([0, 1], repeat=n - 1):
            cuts = [0] + [i + 1 for i, m in enumerate(mask) if m] + [n]
            pieces = [w[cuts[k]:cuts[k + 1]] for k in range(len(cuts) - 1)]
            if all(p in logp for p in pieces):
                segs.append(pieces)
        probs = [math.exp(sum(logp[p] for p in s)) for s in segs]
        z = sum(probs)
        want: dict[str, float] = {}
        for s, pr in zip(segs, probs):
            for p in s:
                want[p] = want.get(p, 0.0) + pr / z
        got = word_expected_counts(w, logp, 3)
        assert set(got) == set(want)
        for p in want:
            assert abs(got[p] - want[p]) < 1e-12

    def test_viterbi_matches_bruteforce(self):
        import itertools
        import math

        from logstash_filter_elastic_integration_ray.stages.unigram import (
            viterbi_encode,
        )

        logp = {"a": math.log(0.25), "b": math.log(0.2), "ab": math.log(0.3),
                "bb": math.log(0.15), "abb": math.log(0.1)}
        for w in ["abb", "abab", "bbbb", "aabba"]:
            n = len(w)
            best, best_score = None, -math.inf
            for mask in itertools.product([0, 1], repeat=n - 1):
                cuts = [0] + [i + 1 for i, m in enumerate(mask) if m] + [n]
                pieces = [w[cuts[k]:cuts[k + 1]] for k in range(len(cuts) - 1)]
                if not all(p in logp for p in pieces):
                    continue
                sc = sum(logp[p] for p in pieces)
                if sc > best_score:
                    best_score, best = sc, pieces
            got = viterbi_encode(w, logp, 3)
            assert sum(logp[p] for p in got) == pytest.approx(best_score)

    def test_unk_fallback_and_empty(self):
        import math

        from logstash_filter_elastic_integration_ray.stages.unigram import (
            viterbi_encode,
        )

        logp = {"a": math.log(0.9)}
        assert viterbi_encode("axa", logp, 4) == ["a", "x", "a"]

    def test_em_train_matches_independent_bruteforce_em(self):
        """Full EM cross-check (ADVICE r4): an independent
        single-process EM — enumeration E-step (every segmentation via
        cut masks, no lattice), Counter-based seeding, M-step written
        from the documented contract — must agree with em_train on the
        surviving vocabulary and its log-probabilities.  The engine's
        E-step is forward–backward, so agreement here pins the whole
        training loop, not just the plumbing."""
        import itertools
        import math
        from collections import Counter

        from logstash_filter_elastic_integration_ray.stages.unigram import (
            UNK_LOGP,
            em_train,
        )

        def brute_expected(w, logp, max_len):
            n = len(w)
            segs = []
            for mask in itertools.product([0, 1], repeat=n - 1):
                cuts = [0] + [i + 1 for i, m in enumerate(mask) if m] + [n]
                pieces = [w[cuts[k]:cuts[k + 1]] for k in range(len(cuts) - 1)]
                if all(len(p) <= max_len and p in logp for p in pieces):
                    segs.append(pieces)
            if not segs:
                return {}
            probs = [math.exp(sum(logp[p] for p in s)) for s in segs]
            z = sum(probs)
            out: dict[str, float] = {}
            for s, pr in zip(segs, probs):
                for p in s:
                    out[p] = out.get(p, 0.0) + pr / z
            return out

        def em_independent(word_freq, *, seed_size, max_piece_len, n_iters,
                           final_size=None):
            sub: Counter = Counter()
            for w, f in word_freq.items():
                for i in range(len(w)):
                    for ln in range(1, max_piece_len + 1):
                        if i + ln <= len(w):
                            sub[w[i:i + ln]] += f
            chars = sorted({c for w in word_freq for c in w})
            multi = sorted((s for s in sub if len(s) > 1),
                           key=lambda s: (-sub[s], s))[:seed_size]
            vocab = chars + multi
            total = sum(sub[s] for s in vocab)
            logp = {s: math.log(sub[s] / total) for s in vocab}
            for _ in range(n_iters):
                q: dict[str, int] = {}
                for w in sorted(word_freq):
                    f = word_freq[w]
                    for s, e in brute_expected(w, logp, max_piece_len).items():
                        q[s] = q.get(s, 0) + int(math.floor(e * f * (1 << 20) + 0.5))
                total_q = sum(q.get(s, 0) for s in logp)
                if total_q == 0:
                    break
                nxt: dict[str, float] = {}
                for s in logp:
                    c = q.get(s, 0)
                    if c > 0:
                        nxt[s] = math.log(c / total_q)
                    elif len(s) == 1:
                        nxt[s] = UNK_LOGP
                logp = nxt
            if final_size is not None:
                singles = [s for s in logp if len(s) == 1]
                multi2 = sorted((s for s in logp if len(s) > 1),
                                key=lambda s: (-logp[s], s))
                keep = set(singles) | set(
                    multi2[: max(0, final_size - len(singles))])
                kept = {s: logp[s] for s in keep}
                terms = [kept[s] for s in sorted(kept)]
                m = max(terms)
                zs = m + math.log(sum(math.exp(t - m) for t in terms))
                logp = {s: kept[s] - zs for s in kept}
            return logp

        wf = {"abab": 7, "aba": 5, "bab": 4, "bb": 3, "aab": 2}
        for kwargs in (
            {"seed_size": 12, "max_piece_len": 3, "n_iters": 3},
            {"seed_size": 8, "max_piece_len": 4, "n_iters": 4,
             "final_size": 6},
        ):
            got = em_train(wf, **kwargs)
            want = em_independent(wf, **kwargs)
            assert set(got) == set(want)
            for s in want:
                # quantization may flip a ±1-ulp E-step difference by
                # one integer count; tolerance covers that, nothing more
                assert abs(got[s] - want[s]) < 1e-5, s

    def test_em_concentrates_on_frequent_pieces(self):
        from logstash_filter_elastic_integration_ray.stages.unigram import (
            em_train,
            viterbi_encode,
        )

        wf = {"hello": 50, "help": 30, "low": 40, "yellow": 10}
        logp = em_train(wf, seed_size=40, max_piece_len=5, n_iters=4)
        assert viterbi_encode("hello", logp, 5)[0] in ("hello", "hell", "hel")
        # single-char coverage always survives
        assert all(c in logp for c in "helowyp")

    def test_distributed_encode_matches_plain_reference(self, ray_session):
        import ray.data
        import reference_impls as ref

        from logstash_filter_elastic_integration_ray.stages.unigram import (
            train_unigram,
            unigram_encode,
        )

        ids, texts = ref.load_documents("/root/testdata/sf0.001")
        want = ref.unigram_reference(ids, texts, seed_size=256,
                                     max_piece_len=6, n_iters=2,
                                     final_size=128, top_v=512)
        docs = ray.data.from_items(
            [{"doc_id": int(i), "text": t} for i, t in zip(ids, texts)]
        ).repartition(5)
        logp = train_unigram(docs, seed_size=256, max_piece_len=6,
                             n_iters=2, final_size=128, top_v=512)
        got = (
            unigram_encode(docs, logp, max_piece_len=6)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        want = want.sort_values("doc_id").reset_index(drop=True)
        assert got["n_pieces"].tolist() == want["n_pieces"].tolist()
        assert got["uni_text"].tolist() == want["uni_text"].tolist()
