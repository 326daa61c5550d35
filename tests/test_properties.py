"""Property-based tests (hypothesis) — beyond the reference's own test
strategy (it has none, SURVEY.md §5.5): invariants that must hold for
ARBITRARY inputs, not just the conformance fixtures."""

import string

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logstash_filter_elastic_integration_ray.model import ColumnBatch, sanitize_reserved_fields
from logstash_filter_elastic_integration_ray.sources.render import nest_row
from tests.util import run_pipeline

words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(-5, 5), words,
                          st.lists(words, max_size=3)), min_size=1, max_size=8))
def test_sanitize_is_idempotent(values):
    def run(vals):
        b = ColumnBatch(num_rows=len(vals))
        b.set("tags", list(vals))
        b.set("@version", list(vals))
        sanitize_reserved_fields(b)
        return (list(b.objects("tags")), list(b.objects("@version")),
                list(b.objects("_tags")) if b.has("_tags") else None)

    once = run(values)
    # sanitizing the already-sanitized values must change nothing
    b2 = ColumnBatch(num_rows=len(values))
    b2.set("tags", once[0])
    b2.set("@version", once[1])
    sanitize_reserved_fields(b2)
    assert list(b2.objects("tags")) == once[0]
    assert list(b2.objects("@version")) == once[1]
    assert not b2.has("_tags")  # nothing left to quarantine


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(words, st.integers(0, 10**9)), min_size=1, max_size=10))
def test_grok_roundtrip_random_kv(pairs):
    rows = [{"m": f"{w} id={n} end"} for w, n in pairs]
    out = run_pipeline(
        {"processors": [{"grok": {"field": "m", "patterns": [r"^%{WORD:w} id=%{INT:n:long} end$"]}}]},
        rows,
    )
    for (w, n), r in zip(pairs, out):
        assert r["w"] == w
        assert r["n"] == n


@settings(max_examples=40, deadline=None)
@given(st.lists(words, min_size=2, max_size=6))
def test_dissect_split_join_roundtrip(tokens):
    line = "|".join(tokens)
    out = run_pipeline(
        {"processors": [
            {"split": {"field": "m", "separator": "\\|", "target_field": "parts", "preserve_trailing": True}},
            {"join": {"field": "parts", "separator": "|", "target_field": "rejoined"}},
        ]},
        [{"m": line}],
    )
    assert out[0]["rejoined"] == line
    assert out[0]["parts"] == tokens


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.text(alphabet=string.ascii_lowercase + ".", min_size=1, max_size=10)
                       .filter(lambda s: not s.startswith(".") and not s.endswith(".") and ".." not in s),
                       st.integers(0, 100), min_size=1, max_size=6))
def test_nest_row_preserves_all_values(flat):
    nested = nest_row(dict(flat))

    def collect(d, prefix=""):
        out = {}
        for k, v in d.items():
            key = f"{prefix}.{k}" if prefix else k
            if isinstance(v, dict):
                out.update(collect(v, key))
            else:
                out[key] = v
        return out

    # every value survives (possibly under its literal dotted key)
    assert sorted(collect(nested).values()) == sorted(v for v in flat.values())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_ordered_hash_is_order_sensitive(seed):
    from logstash_filter_elastic_integration_ray.stages.aggregate import ordered_hash_contrib, P

    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    texts = np.array([f"t{rng.integers(0, 1000)}" for _ in range(n)], dtype=object)
    idx = np.arange(n)
    h1 = int(ordered_hash_contrib(texts, idx).sum() % int(P))
    # swapping two distinct texts' positions must change the hash
    if len(set(texts.tolist())) >= 2:
        i, j = sorted(rng.choice(np.flatnonzero([True] * n), size=2, replace=False))
        if texts[i] != texts[j]:
            swapped = texts.copy()
            swapped[i], swapped[j] = swapped[j], swapped[i]
            h2 = int(ordered_hash_contrib(swapped, idx).sum() % int(P))
            assert h1 != h2
    # permuting rows WITHOUT changing (text, turn_idx) pairs must not
    perm = rng.permutation(n)
    h3 = int(ordered_hash_contrib(texts[perm], idx[perm]).sum() % int(P))
    assert h1 == h3


def _conv_rows_table(rows) -> pa.Table:
    base = np.datetime64("2026-01-01", "us")
    return pa.table({
        "conv_id": pa.array([c for c, *_ in rows], type=pa.string()),
        "turn_idx": pa.array([t for _, t, *_ in rows], type=pa.int32()),
        "role": pa.array(["user"] * len(rows)),
        "text": pa.array([x for *_, x, _, _ in rows], type=pa.string()),
        "tool": pa.array(["t" if tool else None for *_, tool, _ in rows], type=pa.string()),
        "ts": pa.array([None if s is None else base + np.timedelta64(s, "s") for *_, s in rows],
                       type=pa.timestamp("us")),
    })


def _canon_stats(t: pa.Table) -> list:
    """conv_stats rows as dicts, null conv_id last."""
    from logstash_filter_elastic_integration_ray.stages.aggregate import _MERGE_SCHEMA

    rows = t.select(_MERGE_SCHEMA.names).cast(_MERGE_SCHEMA).to_pylist()
    return sorted(rows, key=lambda r: (r["conv_id"] is None, r["conv_id"] or ""))


_conv_row = st.tuples(
    st.one_of(st.none(), st.integers(0, 4).map(lambda c: f"c{c}")),
    # few turns, so (conv_id, turn_idx) repeats; >= 65536 takes the pow-table fallback
    st.one_of(st.integers(0, 6), st.integers(65530, 65540)),
    st.one_of(st.none(), st.sampled_from(["", "a", "b", "zz"])),
    st.booleans(),
    st.one_of(st.none(), st.integers(0, 10**6)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_conv_row, min_size=1, max_size=40),
       st.lists(st.integers(0, 40), max_size=3))
def test_conv_partial_merge_invariant(rows, cuts):
    """Two-phase aggregation must equal single-pass and the reference
    regardless of how rows are split into batches (the invariant the
    Ray pipeline relies on for ANY block layout) — with null conv_id,
    text, tool and ts, repeated (conv_id, turn_idx) rows, and turns past
    the pow table."""
    from logstash_filter_elastic_integration_ray.stages.aggregate import (
        _merge_partition,
        _merge_table,
        conv_partial_batch,
        conv_stats_reference,
    )

    base = _conv_rows_table(rows)
    bounds = [0, *sorted({min(c, base.num_rows) for c in cuts}), base.num_rows]
    pieces = [base.slice(a, b - a) for a, b in zip(bounds[:-1], bounds[1:])]
    for mode in ("fast", "md5"):
        split = _merge_table(pa.concat_tables([conv_partial_batch(p, mode) for p in pieces]))
        single = _merge_table(conv_partial_batch(base, mode))
        assert _canon_stats(split) == _canon_stats(single), mode
    # the pandas adapter over the same partials agrees too
    parts = pa.concat_tables([conv_partial_batch(p) for p in pieces])
    assert _canon_stats(_merge_partition(parts.to_pandas())) == _canon_stats(_merge_table(parts))
    ref = pa.Table.from_pandas(conv_stats_reference(base), preserve_index=False)
    assert _canon_stats(_merge_table(parts)) == _canon_stats(ref)


@pytest.mark.parametrize("batch_rows", [1, 2, None])
def test_conv_stats_nulls_match_sql_twin(batch_rows):
    """``conv_stats`` in md5 mode equals its DuckDB twin (the
    ``conv_stats_scalable`` oracle) under any batching, with null text,
    tool, ts and conv_id: first/last text skip null texts, the null
    conv_id is a group, a null text adds nothing to the hash."""
    import duckdb

    import __ray_entry__ as e
    from logstash_filter_elastic_integration_ray.sources.transcripts import transcripts_sql
    from logstash_filter_elastic_integration_ray.stages.aggregate import _merge_table, conv_partial_batch

    transcripts = _conv_rows_table([
        ("c", 0, None, False, 5), ("c", 1, "b", True, None), ("c", 2, None, False, 1),
        (None, 3, "x", False, None), (None, 0, None, True, None),
        ("d", 7, None, False, None), ("d", 2, None, False, 9),
        ("e", 4, "late", False, 3), ("e", 1, "", True, 4), ("e", 9, "last", False, 2),
    ])
    n = transcripts.num_rows
    k = batch_rows or n
    parts = [conv_partial_batch(transcripts.slice(i, k), "md5") for i in range(0, n, k)]
    mine = _canon_stats(_merge_table(pa.concat_tables(parts)))
    # the twin's SELECT, over this table instead of the derived one
    twin = e.oracle_sql()["conv_stats_scalable"].removeprefix(transcripts_sql(""))
    con = duckdb.connect()
    con.register("transcripts", transcripts)
    want = _canon_stats(con.sql(twin).arrow())
    assert mine == want
    assert [(r["conv_id"], r["first_text"], r["last_text"]) for r in mine] == [
        ("c", "b", "b"), ("d", None, None), ("e", "", "last"), (None, "x", "x")]


# ---------------------------------------------------------------------------
# round-4 second-session kernels: BPE, Stupid-Backoff LM, SemDeDup group
# ---------------------------------------------------------------------------

_corpus_words = st.text(alphabet="abcde", min_size=0, max_size=6)


@given(st.lists(st.tuples(_corpus_words, st.integers(1, 9)),
                min_size=1, max_size=12),
       st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_bpe_training_segmentation_matches_encode(pairs, n_merges):
    """Encoding a TRAINING word with the learned ranks reproduces the
    segmentation the trainer itself arrived at (the published BPE
    inference/training consistency property), and token pieces always
    reassemble the original word."""
    from logstash_filter_elastic_integration_ray.stages.bpe import (
        EOW,
        encode_word,
        learn_merges,
    )

    wf = {}
    for w, c in pairs:
        wf[w] = wf.get(w, 0) + c
    merges = learn_merges(wf, n_merges)
    ranks = {p: i for i, p in enumerate(merges)}

    def trainer_segmentation(word):
        # replay the trainer's fold: apply each merge in LEARNED order,
        # all occurrences left to right
        s = list(word) + [EOW]
        for a, b in merges:
            out, i = [], 0
            while i < len(s):
                if i < len(s) - 1 and s[i] == a and s[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            s = out
        return s

    for w in wf:
        enc = encode_word(w, ranks)
        assert "".join(enc) == w + EOW
        assert enc == trainer_segmentation(w)


@given(st.lists(st.lists(_corpus_words, min_size=0, max_size=8),
                min_size=1, max_size=10),
       st.lists(st.lists(_corpus_words, min_size=0, max_size=8),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_lm_score_matches_string_dict_reference(score_docs, train_docs):
    """The vectorized hash-keyed scorer equals a string-keyed plain
    implementation of the identical Stupid-Backoff formula on random
    corpora (collision odds are negligible at this size)."""
    import numpy as np
    import pyarrow as pa

    from logstash_filter_elastic_integration_ray.stages.decontam import (
        flat_token_hashes,
        gram_hashes,
    )
    from logstash_filter_elastic_integration_ray.stages.lm import (
        ALPHA,
        BigramLM,
        _count_table,
        _score_arrays,
    )

    train_texts = [" ".join(d) for d in train_docs]
    score_texts = [" ".join(d) for d in score_docs]
    col = pa.array(train_texts, type=pa.string())
    fh, counts = flat_token_hashes(col)
    bh, _ = gram_hashes(fh, counts, 2)
    uh, uc = _count_table(fh)
    bhh, bc = _count_table(bh)
    lm = BigramLM(uh, uc, bhh, bc, int(len(fh)))
    sfh, scounts = flat_token_hashes(pa.array(score_texts, type=pa.string()))
    got = _score_arrays(lm, sfh, scounts)

    # plain string-dict twin
    uni, bi, n_total = {}, {}, 0
    for t in train_texts:
        toks = t.split(" ")
        n_total += len(toks)
        for w in toks:
            uni[w] = uni.get(w, 0) + 1
        for a, b in zip(toks, toks[1:]):
            bi[(a, b)] = bi.get((a, b), 0) + 1
    n = np.float64(max(n_total, 1))
    for row, t in enumerate(score_texts):
        toks = t.split(" ")
        s = np.empty(len(toks))
        for j, w in enumerate(toks):
            cu = np.float64(uni.get(w, 0))
            su = cu / n if cu > 0 else np.float64(ALPHA) / n
            if j == 0:
                s[j] = su
            else:
                cp = np.float64(uni.get(toks[j - 1], 0))
                cb = np.float64(bi.get((toks[j - 1], w), 0))
                s[j] = cb / cp if (cb > 0 and cp > 0) else np.float64(ALPHA) * su
        exp = float(-np.add.reduceat(np.log2(s), [0])[0] / np.float64(len(toks)))
        assert got[row] == exp


@given(st.integers(2, 24), st.integers(1, 5), st.floats(0.5, 0.99),
       st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_semdedup_group_equals_all_pairs(n, dups, eps, seed):
    """The identical-vector-collapse group kernel equals brute-force
    all-pairs union-find + keeper selection, including corpora where
    every vector appears `dups` times."""
    import numpy as np
    import pandas as pd

    from logstash_filter_elastic_integration_ray.stages.clustering import (
        _semdedup_group,
        eps_q,
    )

    rng = np.random.default_rng(seed)
    base = rng.integers(-(1 << 20), 1 << 20, size=(n, 4), dtype=np.int64)
    nq = np.repeat(base, dups, axis=0)
    g = len(nq)
    ids = np.arange(g, dtype=np.int64) * 7 + 3
    dist2 = rng.integers(0, 1 << 30, size=g).astype(np.int64)
    # identical vectors must carry identical dist2 (they are the same
    # point); enforce by recomputing per base row
    dist2 = np.repeat(dist2[:n], dups)[:g]
    eps_int = eps_q(eps)

    df = pd.DataFrame({"vec_id": ids, "cluster": np.zeros(g, dtype=np.int64),
                       "dist2": dist2, "nq": [r for r in nq]})
    got = pa_sort(_semdedup_group(df, eps_int, "vec_id"))

    # brute force
    parent = list(range(g))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = np.argsort(ids, kind="mergesort")
    sid, snq, sd2 = ids[order], nq[order], dist2[order]
    for i in range(g):
        for j in range(i + 1, g):
            if int(snq[i] @ snq[j]) >= eps_int:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    comp = {}
    for i in range(g):
        comp.setdefault(find(i), []).append(i)
    keep = np.zeros(g, dtype=bool)
    for members in comp.values():
        best = max(members, key=lambda p: (int(sd2[p]), -int(sid[p])))
        keep[best] = True
    exp = pa_sort(pd.DataFrame({"vec_id": sid, "cluster": 0, "keep": keep}))
    assert (got["vec_id"].to_numpy() == exp["vec_id"].to_numpy()).all()
    assert (got["keep"].to_numpy() == exp["keep"].to_numpy()).all()


def pa_sort(df):
    return df.sort_values("vec_id").reset_index(drop=True)


@given(st.lists(st.lists(_corpus_words, min_size=0, max_size=8),
                min_size=1, max_size=12),
       st.integers(1, 5), st.integers(8, 64))
@settings(max_examples=60, deadline=None)
def test_dsir_batched_kernels_match_per_doc_plain_path(docs, split, m):
    """DSIR count partials and segment-summed scores are invariant to
    batch splits and equal a per-doc plain evaluation of the identical
    formula (the contract the pinned fixture relies on)."""
    import numpy as np
    import pyarrow as pa

    from logstash_filter_elastic_integration_ray.stages.dsir import (
        _count_partial,
        _doc_buckets,
        _segment_sums,
        dsir_log_ratio,
    )

    texts = [" ".join(d) for d in docs]
    full = pa.table({"text": pa.array(texts, type=pa.string())})

    # count build: one blob over the full corpus == sum of per-split blobs
    whole = np.frombuffer(
        _count_partial(full, "text", m).column("counts")[0].as_py(),
        dtype=np.int64)
    parts = np.zeros(m, dtype=np.int64)
    for lo in range(0, len(texts), split):
        t = pa.table({"text": pa.array(texts[lo:lo + split], type=pa.string())})
        parts = parts + np.frombuffer(
            _count_partial(t, "text", m).column("counts")[0].as_py(),
            dtype=np.int64)
    assert (whole == parts).all()

    # scoring: batched segment sums == per-doc standalone reduceat sums
    lam = dsir_log_ratio(whole, parts + 1)  # any two valid models
    ub, counts, bb, bdoc = _doc_buckets(full, "text", m)
    s_uni = _segment_sums(lam[ub], counts)
    bi_len = (np.bincount(bdoc, minlength=len(counts)).astype(np.int64)
              if len(bdoc) else np.zeros(len(counts), dtype=np.int64))
    got = s_uni + _segment_sums(lam[bb], bi_len)

    for i, txt in enumerate(texts):
        one = pa.table({"text": pa.array([txt], type=pa.string())})
        u1, _, b1, _ = _doc_buckets(one, "text", m)
        su = np.add.reduceat(lam[u1], [0])[0] if len(u1) else np.float64(0.0)
        sb = np.add.reduceat(lam[b1], [0])[0] if len(b1) else np.float64(0.0)
        assert got[i] == np.float64(su) + np.float64(sb)


@given(st.lists(st.lists(_corpus_words, min_size=0, max_size=12),
                min_size=1, max_size=8),
       st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_gram_cursor_ladder_equals_per_width_loop(docs, w):
    """The incremental rolling-hash ladder (_GramCursor) must produce
    exactly decontam.gram_hashes' per-width values and validity."""
    import numpy as np
    import pyarrow as pa

    from logstash_filter_elastic_integration_ray.stages.decontam import (
        flat_token_hashes,
        gram_hashes,
    )
    from logstash_filter_elastic_integration_ray.stages.textstats import _GramCursor

    texts = [" ".join(d) for d in docs]
    fh, counts = flat_token_hashes(pa.array(texts, type=pa.string()))
    gh, gdoc = gram_hashes(fh, counts, w)
    ch, cdoc, cpos = _GramCursor(fh, counts).at(w)
    assert (ch == gh).all()
    assert (cdoc == gdoc).all()
    # positions are the valid window starts in flat order
    assert (np.diff(cpos) > 0).all() if len(cpos) > 1 else True


# ---------------------------------------------------------------------------
# round-4 session additions: CDC boundaries, token entropy, PII scrub
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=3000))
def test_cdc_boundaries_cover_and_bound(data):
    from logstash_filter_elastic_integration_ray.stages.corpus import cdc_boundaries

    ends = cdc_boundaries(np.frombuffer(data, dtype=np.uint8),
                          mask_bits=5, min_size=8, max_size=64)
    n = len(data)
    if n == 0:
        assert len(ends) == 0
        return
    # strictly increasing, exact cover of [0, n]
    assert ends[-1] == n
    assert (np.diff(np.concatenate(([0], ends))) > 0).all()
    sizes = np.diff(np.concatenate(([0], ends)))
    assert (sizes <= 64).all()
    assert (sizes[:-1] >= 8).all()


@settings(max_examples=25, deadline=None)
@given(st.text(alphabet=string.printable, min_size=0, max_size=600))
def test_cdc_vectorized_equals_sequential(text):
    import reference_impls as ref

    from logstash_filter_elastic_integration_ray.stages.corpus import cdc_chunk_batch

    t = pa.table({"doc_id": pa.array([1], type=pa.int64()),
                  "text": pa.array([text], type=pa.string())})
    got = cdc_chunk_batch(t).to_pandas().reset_index(drop=True)
    exp = ref.cdc_chunks_reference([1], [text]).reset_index(drop=True)
    assert got.equals(exp)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(
    alphabet=string.ascii_lowercase + " ", max_size=40)),
    min_size=1, max_size=10))
def test_token_entropy_bounds(texts):
    from logstash_filter_elastic_integration_ray.stages.textstats import token_entropy_batch

    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    out = token_entropy_batch(t).to_pandas()
    # H in [0 - eps, ln(n_distinct)]; norm in [0, 1]
    eps = 1e-9
    assert (out["token_entropy"] >= -eps).all()
    bound = np.log(np.maximum(out["n_distinct"].to_numpy(), 1).astype(float))
    assert (out["token_entropy"] <= bound + eps).all()
    assert ((out["norm_entropy"] >= 0) & (out["norm_entropy"] <= 1 + eps)).all()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(
    alphabet=string.ascii_letters + string.digits + " @.+-_",
    max_size=60)), min_size=1, max_size=8))
def test_pii_scrub_idempotent(texts):
    from logstash_filter_elastic_integration_ray.stages.textstats import pii_scrub_batch

    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    once = pii_scrub_batch(t)
    t2 = pa.table({"doc_id": once.column("doc_id"),
                   "text": once.column("scrubbed")})
    twice = pii_scrub_batch(t2)
    # placeholders contain no digits or @domains → a second scrub is a
    # no-op and finds nothing
    assert twice.column("scrubbed").to_pylist() == once.column("scrubbed").to_pylist()
    for c in ("n_emails", "n_ips", "n_phones"):
        assert sum(twice.column(c).to_pylist()) == 0
