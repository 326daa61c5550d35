"""N-gram language-model perplexity scoring (the CCNet quality signal):
train a bigram LM with Stupid Backoff on a REFERENCE corpus, score
every document of the big corpus by per-token log-perplexity.

Published design this follows (public results only):

- CCNet (Wenzek et al., LREC 2020) filters web text by the perplexity
  of a small LM *trained on a curated reference corpus* (Wikipedia) —
  so the train side is small by construction and the score side is the
  100 TB crawl.
- Stupid Backoff (Brants et al., EMNLP 2007): the count-ratio score
  ``S(w_i | w_{i-1}) = c(w_{i-1} w_i) / c(w_{i-1})`` when the bigram
  was seen, else ``alpha * S(w_i)`` with ``S(w) = c(w) / N`` — no
  discounting, exact integer counts, which keeps the whole model
  mergeable and the score bit-deterministic.

Shape at 100 TB (mirrors ``stages/decontam.py``, the other
small-by-contract broadcast):

- **Train**: per-batch LOCAL token/bigram counts (two thin uint64-hash
  count tables per batch) merge through :func:`stages.fold.fold`; the
  driver prunes rows below ``min_count`` and broadcasts two sorted
  (hash, count) arrays via ``ray.put`` — O(pruned vocab) driver state,
  by contract ≪ corpus (the reference corpus is GBs when the crawl is
  TBs).  A reference corpus too large for one driver table should
  instead co-partition score-side grams with train-side counts by hash
  (the ``dup_ngram_stats`` exchange shape).
- **Score**: ONE streaming ``map_batches`` pass — no shuffle, no join,
  nothing driver-side proportional to the corpus.  Per batch: one
  Arrow split kernel, one ``hash_array`` call, one rolling pair-hash,
  two ``searchsorted`` probes, one segmented ``add.reduceat``.

Tokenization contract: split on single spaces (DuckDB
``string_split(text, ' ')``), the repo-wide twin.  Token identity is
tested on 64-bit hashes — collision probability ~vocab²/2⁶⁴, the
standard trade for never shipping token strings (same note as
``stages/decontam.py``).

Float determinism: scores are ratios of exact int64 counts evaluated
in float64, ``np.log2`` elementwise, and a LEFT-TO-RIGHT per-doc sum
(``np.add.reduceat``) — the pinned-fixture oracle's plain single-node
reference (tools/reference_impls.py) evaluates the identical formula
with string-keyed dicts and must match byte-for-byte.

Reference parity note: the reference plugin (elastic/
logstash-filter-elastic_integration) has no LM stage — this is an
engine-native training-data operator (SURVEY §2.9), the
model-scoring counterpart of the heuristic gates in
stages/textstats.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from . import segments
from .decontam import flat_token_hashes, gram_hashes
from .dsir import _segment_sums
from .exchange import lookup
from .fold import fold

#: Stupid Backoff's published back-off multiplier.
ALPHA = 0.4


def _count_table(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted unique hashes, int64 counts) of a uint64 array."""
    if len(h) == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    u, c = np.unique(h, return_counts=True)
    return u, c.astype(np.int64)


def _merge_tables(hs: list[np.ndarray], cs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Exact merge of sorted (hash, count) tables: concat + one run per
    hash, counts summed — int64 counts, no float."""
    h = np.concatenate(hs)
    c = np.concatenate(cs)
    if len(h) == 0:
        return h.astype(np.uint64), c.astype(np.int64)
    r = segments.runs(h)
    return h[r.order[r.starts]], segments.sum(r, c).data


def _merge_counts(parts: list) -> tuple:
    """Merge ``_train_partial`` values: count tables per hash, token
    totals summed."""
    uni = _merge_tables([p[0] for p in parts], [p[1] for p in parts])
    bi = _merge_tables([p[2] for p in parts], [p[3] for p in parts])
    return (*uni, *bi, sum(p[4] for p in parts))


def _train_partial(t: pa.Table, text_col: str) -> tuple:
    """(unigram hashes, counts, bigram hashes, counts, tokens) of a batch."""
    fh, counts = flat_token_hashes(t.column(text_col))
    bh, _ = gram_hashes(fh, counts, 2)
    return (*_count_table(fh), *_count_table(bh), int(len(fh)))


class BigramLM:
    """Broadcast payload: sorted hash + count arrays and the total
    token count N.  ~16 B per pruned vocab entry."""

    def __init__(self, uni_h, uni_c, bi_h, bi_c, n_total: int):
        self.uni_h, self.uni_c = uni_h, uni_c
        self.bi_h, self.bi_c = bi_h, bi_c
        self.n_total = n_total

    def lookup_uni(self, h: np.ndarray) -> np.ndarray:
        return lookup(self.uni_h, self.uni_c, h, default=0)

    def lookup_bi(self, h: np.ndarray) -> np.ndarray:
        return lookup(self.bi_h, self.bi_c, h, default=0)


def train_bigram_lm(ref_corpus, *, min_count: int = 1, text_col: str = "text"):
    """Count unigrams + bigrams of the reference corpus and broadcast
    the pruned model (``ObjectRef`` of :class:`BigramLM`).

    Per-batch local count tables merge through :func:`stages.fold.fold`."""
    merged = fold(ref_corpus, lambda t: _train_partial(t, text_col), _merge_counts)
    if merged is None:  # empty train corpus
        merged = _train_partial(pa.table({text_col: pa.array([], pa.string())}), text_col)
    uni_h, uni_c, bi_h, bi_c, total = merged
    if min_count > 1:
        keep = uni_c >= min_count
        uni_h, uni_c = uni_h[keep], uni_c[keep]
        keep = bi_c >= min_count
        bi_h, bi_c = bi_h[keep], bi_c[keep]
    return ray.put(BigramLM(uni_h, uni_c, bi_h, bi_c, int(total)))


def _score_arrays(lm: BigramLM, fh: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-doc log2-perplexity over the flat token-hash array.

    Position 0 of each doc scores by the unigram model; positions i≥1
    by Stupid Backoff.  Exact formula (shared verbatim with the
    fixture reference — keep in sync with
    tools/reference_impls.py:perplexity_reference):

        S_uni(w)  = c(w)/N   if c(w) > 0 else  ALPHA/N
        S(w|p)    = c(p,w)/c(p)            if c(p,w) > 0
                    ALPHA * S_uni(w)       otherwise
        logppl    = -(1/T) * sum_i log2(S_i),   0.0 for empty docs
    """
    n_docs = len(counts)
    out = np.zeros(n_docs, dtype=np.float64)
    if len(fh) == 0:
        return out
    n_total = np.float64(max(lm.n_total, 1))
    uni_c = lm.lookup_uni(fh).astype(np.float64)
    s_uni = np.where(uni_c > 0, uni_c / n_total, ALPHA / n_total)

    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), counts)
    n_pos = len(fh) - 1
    s = s_uni.copy()
    if n_pos > 0:
        bi_h, _ = gram_hashes(fh, counts, 2)
        intra = doc_idx[:n_pos] == doc_idx[1:]
        bi_c = np.zeros(n_pos, dtype=np.float64)
        bi_c[intra] = lm.lookup_bi(bi_h).astype(np.float64)
        prefix_c = uni_c[:-1]
        backoff = ALPHA * s_uni[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(prefix_c > 0, bi_c / np.maximum(prefix_c, 1.0), 0.0)
        cond = np.where((bi_c > 0) & (prefix_c > 0), ratio, backoff)
        s[1:] = np.where(intra, cond, s_uni[1:])

    logs = np.log2(s)
    nz = counts > 0
    out[nz] = -_segment_sums(logs, counts)[nz] / counts[nz].astype(np.float64)
    return out


def perplexity_score(ds, lm_ref, *, text_col: str = "text", id_col: str = "doc_id"):
    """(id, logppl) per corpus doc — one streaming vectorized pass."""

    def probe(t: pa.Table) -> pa.Table:
        lm = ray.get(lm_ref)
        fh, counts = flat_token_hashes(t.column(text_col))
        logppl = _score_arrays(lm, fh, counts)
        return pa.table({id_col: t.column(id_col), "logppl": pa.array(logppl)})

    return ds.map_batches(probe, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Interpolated Kneser–Ney trigram LM (the KenLM/CCNet discipline)
# ---------------------------------------------------------------------------
#
# Published design this follows (public results only):
#
# - Kneser & Ney (ICASSP 1995) / Chen & Goodman (1998): interpolated
#   KN smoothing — absolute discount D at every order, lower orders
#   use CONTINUATION counts (how many distinct contexts a gram
#   completes), not raw counts.
# - CCNet (Wenzek et al., LREC 2020) scores web text with a KenLM
#   5-gram KN model trained on Wikipedia; the trigram order here keeps
#   the model table driver-buildable while exercising the full KN
#   recursion (highest order on raw counts, middle on continuation
#   counts, unigram on continuation counts interpolated with uniform).
#
# Exact formula (shared VERBATIM with
# tools/reference_impls.py:kn_perplexity_reference — keep in sync):
#
#   p1(w)    = max(N1+(.w) - D, 0)/B + (D * W1 / B) * (1/(U+1))
#              (1/(U+1) when B == 0)
#   p2(w|v)  = (max(N1+(.vw) - D, 0) + D * N1+(v.) * p1(w)) / N1+(.v.)
#              when N1+(.v.) > 0, else p1(w)
#   p3(w|uv) = (max(c3(uvw) - D, 0) + D * N1+(uv.) * p2(w|v)) / c*(uv)
#              when c*(uv) > 0, else p2(w|v)
#   logppl   = -(1/T) * sum_i log2(p_i),  position 0 -> p1,
#              position 1 -> p2, positions >= 2 -> p3; 0.0 for T == 0
#
# where B = distinct bigram types, U = distinct unigram types, W1 =
# distinct bigram-suffix types, N1+(.w)/N1+(v.) from the bigram type
# set, N1+(.vw)/N1+(.v.)/N1+(uv.) from the trigram type set, and
# c*(uv) = sum_w c3(uvw) (the trigram-prefix marginal, so the highest
# order normalizes over exactly the mass it distributes).
#
# Shape at 100 TB: identical to the bigram LM above — the train side
# is small-by-contract (CCNet trains on curated GBs to score crawled
# TBs).  Per-batch partials carry the distinct-type tables WITH the
# component hashes each derived count groups on (prefix / suffix /
# middle ride as satellite columns — deterministic functions of the
# type, so any occurrence's value is THE value); stages/fold.py merges
# them and the driver groups the final pruned
# tables with O(model) numpy passes.  Scoring is ONE streaming
# map_batches pass: three rolling-hash arrays, seven searchsorted
# probes, one segmented add.reduceat.

#: KN absolute discount (the standard fixed value; Chen & Goodman's
#: estimated D = n1/(n1+2*n2) is corpus-dependent — a FIXED discount
#: keeps the fixture contract independent of count-of-count noise).
KN_D = 0.75

from .decontam import _GRAM_B  # noqa: E402  (rolling base shared with gram_hashes)


def _type_table(h: np.ndarray, *sats: np.ndarray):
    """Distinct-type count table with satellite columns.

    Returns (sorted unique hashes, int64 counts, sat0 at first
    occurrence, sat1 ...).  Satellites are deterministic functions of
    the type, so the first occurrence's value is the value."""
    if len(h) == 0:
        return (np.empty(0, np.uint64), np.empty(0, np.int64),
                *[np.empty(0, s.dtype) for s in sats])
    r = segments.runs(h)
    head = r.order[r.starts]
    return (h[head], r.sizes.astype(np.int64), *[s[head] for s in sats])


def _merge_typed(hs, cs, sats_list):
    """Merge sorted (hash, count, satellites...) tables: concat + one
    run per hash, counts summed; satellites at each run's first row."""
    h = np.concatenate(hs)
    if len(h) == 0:
        return (h.astype(np.uint64), np.empty(0, np.int64),
                *[np.empty(0, s[0].dtype if len(s) else np.uint64) for s in sats_list])
    c = np.concatenate(cs)
    sats = [np.concatenate(s) for s in sats_list]
    r = segments.runs(h)
    head = r.order[r.starts]
    return (h[head], segments.sum(r, c).data, *[s[head] for s in sats])


def _kn_train_partial(t: pa.Table, text_col: str) -> dict:
    """One batch's KN type tables, keyed as :class:`KnTrigramLM` reads them."""
    fh, counts = flat_token_hashes(t.column(text_col))
    n = len(fh)
    doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # raw rolling hashes over ALL start positions (validity masked below)
    bh_raw = fh[:-1] * _GRAM_B + fh[1:] if n >= 2 else np.empty(0, np.uint64)
    th_raw = (bh_raw[:-1] * _GRAM_B + fh[2:]) if n >= 3 else np.empty(0, np.uint64)
    intra1 = doc_idx[:-1] == doc_idx[1:] if n >= 2 else np.empty(0, bool)
    intra2 = (doc_idx[:-2] == doc_idx[2:]) if n >= 3 else np.empty(0, bool)

    bh = bh_raw[intra1]
    bi_pre_u = fh[:-1][intra1]   # v of (v, w)
    bi_suf_u = fh[1:][intra1]    # w of (v, w)
    th = th_raw[intra2]
    tri_pre = bh_raw[:-1][intra2]   # bigram hash of (u, v)
    tri_suf = bh_raw[1:][intra2]    # bigram hash of (v, w)
    tri_v = fh[1:-1][intra2]        # middle token v

    t_h, t_c, t_pre, t_suf, t_v = _type_table(th, tri_pre, tri_suf, tri_v)
    b_h, b_c, b_pre, b_suf = _type_table(bh, bi_pre_u, bi_suf_u)
    u_h, u_c = _count_table(fh)
    return dict(tri_h=t_h, tri_c=t_c, tri_pre=t_pre, tri_suf=t_suf,
                tri_v=t_v, bi_h=b_h, bi_c=b_c, bi_pre=b_pre,
                bi_suf=b_suf, uni_h=u_h, uni_c=u_c)


def _kn_merge(rows: list[dict]) -> dict:
    """Merge :func:`_kn_train_partial` values: counts summed per type."""
    t_h, t_c, t_pre, t_suf, t_v = _merge_typed(
        [r["tri_h"] for r in rows], [r["tri_c"] for r in rows],
        [[r["tri_pre"] for r in rows], [r["tri_suf"] for r in rows],
         [r["tri_v"] for r in rows]])
    b_h, b_c, b_pre, b_suf = _merge_typed(
        [r["bi_h"] for r in rows], [r["bi_c"] for r in rows],
        [[r["bi_pre"] for r in rows], [r["bi_suf"] for r in rows]])
    u_h, u_c = _merge_tables([r["uni_h"] for r in rows],
                             [r["uni_c"] for r in rows])
    return dict(tri_h=t_h, tri_c=t_c, tri_pre=t_pre, tri_suf=t_suf,
                tri_v=t_v, bi_h=b_h, bi_c=b_c, bi_pre=b_pre,
                bi_suf=b_suf, uni_h=u_h, uni_c=u_c)


def _group_count(keys: np.ndarray, weights: np.ndarray | None = None):
    """(sorted unique keys, per-key sum of weights — or type count)."""
    if len(keys) == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    r = segments.runs(keys)
    k = keys[r.order[r.starts]]
    if weights is None:
        return k, r.sizes.astype(np.int64)
    return k, segments.sum(r, weights).data


class KnTrigramLM:
    """Broadcast payload: seven sorted lookup tables + four scalars."""

    def __init__(self, m: dict):
        # highest order: raw trigram counts + prefix marginals
        self.tri_h, self.tri_c = m["tri_h"], m["tri_c"]
        self.pre_h, self.pre_cstar = _group_count(m["tri_pre"], m["tri_c"])
        _, self.pre_t3p = _group_count(m["tri_pre"])
        # middle order: continuation counts from trigram types
        self.suf_h, self.suf_cont2 = _group_count(m["tri_suf"])
        self.mid_h, self.mid_c = _group_count(m["tri_v"])
        # from bigram types: N1+(v.), N1+(.w), B, W1
        self.t2p_h, self.t2p_c = _group_count(m["bi_pre"])
        self.cont1_h, self.cont1_c = _group_count(m["bi_suf"])
        self.B = int(len(m["bi_h"]))
        self.W1 = int(len(self.cont1_h))
        self.U = int(len(m["uni_h"]))


def train_kn_lm(ref_corpus, *, text_col: str = "text"):
    """Count trigram/bigram/unigram TYPE tables of the reference corpus
    (component hashes riding as satellites), merge them through
    :func:`stages.fold.fold`, build the seven KN lookup tables on the
    driver, broadcast once."""
    merged = fold(ref_corpus, lambda t: _kn_train_partial(t, text_col), _kn_merge)
    if merged is None:  # empty train corpus
        merged = _kn_train_partial(pa.table({text_col: pa.array([], pa.string())}), text_col)
    return ray.put(KnTrigramLM(merged))


def _kn_score_arrays(lm: KnTrigramLM, fh: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-doc KN log2-perplexity over the flat token-hash array.

    Keep the float expressions in sync with
    tools/reference_impls.py:kn_perplexity_reference — the fixture
    contract is bitwise."""
    n_docs = len(counts)
    out = np.zeros(n_docs, dtype=np.float64)
    n = len(fh)
    if n == 0:
        return out
    D = np.float64(KN_D)
    unif = np.float64(1.0) / (np.float64(lm.U) + np.float64(1.0))

    # level 1 — every position
    cont1 = lookup(lm.cont1_h, lm.cont1_c, fh, default=0).astype(np.float64)
    if lm.B > 0:
        B = np.float64(lm.B)
        p1 = np.maximum(cont1 - D, 0.0) / B + (D * np.float64(lm.W1) / B) * unif
    else:
        p1 = np.full(n, unif, dtype=np.float64)

    s = p1.copy()
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), counts)

    if n >= 2:
        bh_raw = fh[:-1] * _GRAM_B + fh[1:]
        intra1 = doc_idx[:-1] == doc_idx[1:]
        cont2 = lookup(lm.suf_h, lm.suf_cont2, bh_raw, default=0).astype(np.float64)
        mid = lookup(lm.mid_h, lm.mid_c, fh[:-1], default=0).astype(np.float64)
        t2p = lookup(lm.t2p_h, lm.t2p_c, fh[:-1], default=0).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            p2_num = (np.maximum(cont2 - D, 0.0) + D * t2p * p1[1:])
            p2_cond = np.where(mid > 0, p2_num / np.maximum(mid, 1.0), p1[1:])
        s[1:] = np.where(intra1, p2_cond, p1[1:])

        if n >= 3:
            th_raw = bh_raw[:-1] * _GRAM_B + fh[2:]
            intra2 = doc_idx[:-2] == doc_idx[2:]
            c3 = lookup(lm.tri_h, lm.tri_c, th_raw, default=0).astype(np.float64)
            cstar = lookup(lm.pre_h, lm.pre_cstar, bh_raw[:-1], default=0).astype(np.float64)
            t3p = lookup(lm.pre_h, lm.pre_t3p, bh_raw[:-1], default=0).astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                p3_num = (np.maximum(c3 - D, 0.0) + D * t3p * p2_cond[1:])
                p3_cond = np.where(cstar > 0, p3_num / np.maximum(cstar, 1.0),
                                   p2_cond[1:])
            s[2:] = np.where(intra2, p3_cond, s[2:])

    logs = np.log2(s)
    nz = counts > 0
    out[nz] = -_segment_sums(logs, counts)[nz] / counts[nz].astype(np.float64)
    return out


def kn_perplexity_score(ds, lm_ref, *, text_col: str = "text", id_col: str = "doc_id"):
    """(id, kn_logppl) per corpus doc — one streaming vectorized pass."""

    def probe(t: pa.Table) -> pa.Table:
        lm = ray.get(lm_ref)
        fh, counts = flat_token_hashes(t.column(text_col))
        logppl = _kn_score_arrays(lm, fh, counts)
        return pa.table({id_col: t.column(id_col), "kn_logppl": pa.array(logppl)})

    return ds.map_batches(probe, batch_format="pyarrow")


def perplexity_gap_score(ds, lm_ref_ref, lm_corpus_ref, *,
                         text_col: str = "text", id_col: str = "doc_id"):
    """Excess-loss data selection signal (the DoReMi/RHO-loss shape,
    published as public results: score each example by the DIFFERENCE
    between a reference-corpus model's loss and the corpus' own
    model's loss; examples the curated reference likes more than the
    raw corpus does are the ones worth keeping).

    Both broadcast LMs score every doc in ONE streaming pass —
    ``gap = logppl_ref − logppl_corpus`` (negative = looks like the
    curated reference).  Same scale contract as
    :func:`perplexity_score`: driver state is two pruned count-table
    models, nothing proportional to the scored corpus moves."""

    def probe(t: pa.Table) -> pa.Table:
        lm_r = ray.get(lm_ref_ref)
        lm_c = ray.get(lm_corpus_ref)
        fh, counts = flat_token_hashes(t.column(text_col))
        ppl_ref = _score_arrays(lm_r, fh, counts)
        ppl_corpus = _score_arrays(lm_c, fh, counts)
        return pa.table({
            id_col: t.column(id_col),
            "logppl_ref": pa.array(ppl_ref),
            "logppl_corpus": pa.array(ppl_corpus),
            "gap": pa.array(ppl_ref - ppl_corpus),
        })

    return ds.map_batches(probe, batch_format="pyarrow")
