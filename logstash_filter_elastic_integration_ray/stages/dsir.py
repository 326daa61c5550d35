"""DSIR-style data selection via importance resampling over hashed
n-gram features (the published recipe of Xie et al., "Data Selection
for Language Models via Importance Resampling", NeurIPS 2023):

1. **Featurize** every document as a bag of hashed unigram + bigram
   buckets (``m`` buckets; the paper uses hashed n-grams precisely so
   the feature space is fixed-size no matter the corpus).
2. **Fit** two bag-of-buckets categorical models — ``p_target`` on the
   small curated target corpus, ``p_raw`` on the big raw corpus — from
   exact int64 bucket counts with add-``smoothing``.
3. **Score** each raw document with the log importance weight
   ``log w = sum_b c_doc[b] * (log p_target[b] - log p_raw[b])``.
4. **Resample** k documents without replacement via the Gumbel
   top-k trick — equivalent to sampling proportional to ``w`` — with
   the Gumbel noise derived deterministically from the row id (the
   same Knuth-hash uniform :func:`stages.corpus.weighted_group_sample`
   uses), so re-runs, retries and any batching select the same docs.

Shape at 100 TB:

- Both count builds move ONE dense ``m``-length int64 vector per batch
  (64 KiB at the default m=8192) through :func:`stages.fold.fold` —
  the driver holds exactly one m-vector per side.  The log-ratio
  vector ``lam`` (m float64) broadcasts once via ``ray.put``.
- Scoring is ONE streaming ``map_batches`` pass: one Arrow split
  kernel, one vectorized hash, two gathers into ``lam``, two segmented
  left-to-right ``add.reduceat`` sums.  No shuffle, no join, no driver
  state proportional to the corpus.
- Selection rides :func:`stages.corpus.group_topk` under a constant
  key — every batch forwards at most k rows, so the exchange is
  O(k · blocks) and the winner set is exact.

Float determinism: bucket counts are exact int64; ``lam`` is computed
once from them (elementwise float64 divide + ``np.log``); per-doc
scores sum ``lam`` gathers LEFT-TO-RIGHT per segment via
``np.add.reduceat`` — the pinned-fixture oracle's plain single-node
reference (tools/reference_impls.py:dsir_reference) evaluates the
identical formula and must match byte-for-byte.

Reference parity note: the reference plugin
(elastic/logstash-filter-elastic_integration) has no data-selection
stage — this is an engine-native training-data operator (SURVEY §2.9),
the importance-weighting counterpart of the perplexity gate in
stages/lm.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from . import segments
from .corpus import _RACE_MOD, _RACE_MULT, group_topk
from .decontam import flat_token_hashes, gram_hashes
from .fold import fold

#: Default hashed-feature bucket count (the paper uses 10^4; a power
#: of two keeps the modulo cheap and the partial 64 KiB).
M_DEFAULT = 8192


def _doc_buckets(t: pa.Table, text_col: str, m: int):
    """(unigram buckets, token counts/doc, bigram buckets, bigram doc
    index) for one batch — buckets are int64 in [0, m)."""
    fh, counts = flat_token_hashes(t.column(text_col))
    bh, bdoc = gram_hashes(fh, counts, 2)
    mm = np.uint64(m)
    return (fh % mm).astype(np.int64), counts, (bh % mm).astype(np.int64), bdoc


def _count_partial(t: pa.Table, text_col: str, m: int) -> np.ndarray:
    ub, _, bb, _ = _doc_buckets(t, text_col, m)
    return (np.bincount(ub, minlength=m) + np.bincount(bb, minlength=m)).astype(np.int64)


def hashed_ngram_counts(ds, *, m: int = M_DEFAULT,
                        text_col: str = "text") -> np.ndarray:
    """Exact int64 bucket-count vector of a corpus' hashed unigram +
    bigram features: per-batch dense partials summed by
    :func:`stages.fold.fold`."""
    vec = fold(ds, lambda t: _count_partial(t, text_col, m), sum)
    return np.zeros(m, dtype=np.int64) if vec is None else vec


def dsir_log_ratio(target_counts: np.ndarray, raw_counts: np.ndarray,
                   *, smoothing: float = 1.0) -> np.ndarray:
    """``lam[b] = log p_target[b] - log p_raw[b]`` with add-smoothing,
    computed elementwise in float64 from the exact count vectors.
    Keep in sync with tools/reference_impls.py:dsir_reference."""
    m = len(target_counts)
    s = np.float64(smoothing)
    pt = (target_counts.astype(np.float64) + s) / (
        np.float64(target_counts.sum()) + s * np.float64(m))
    pr = (raw_counts.astype(np.float64) + s) / (
        np.float64(raw_counts.sum()) + s * np.float64(m))
    return np.log(pt) - np.log(pr)


def _segment_sums(vals: np.ndarray, seg_lengths: np.ndarray) -> np.ndarray:
    """Sums of the flat ``vals`` cut into consecutive ``seg_lengths``
    (0 for empty segments), in ``vals``' dtype — exact for integers."""
    seg = np.repeat(np.arange(len(seg_lengths), dtype=np.int64), seg_lengths)
    r = segments.runs(seg)
    out = np.zeros(len(seg_lengths), dtype=np.asarray(vals).dtype)
    out[seg[r.order[r.starts]]] = segments.sum(r, vals)
    return out


def dsir_score(ds, lam_ref, *, m: int = M_DEFAULT, text_col: str = "text",
               id_col: str = "doc_id"):
    """(id, dsir_logw) per doc — one streaming vectorized pass.
    ``lam_ref`` is the ``ray.put`` ObjectRef of the log-ratio vector."""

    def probe(t: pa.Table) -> pa.Table:
        lam = ray.get(lam_ref)
        ub, counts, bb, bdoc = _doc_buckets(t, text_col, m)
        s_uni = _segment_sums(lam[ub], counts)
        bi_lengths = np.bincount(bdoc, minlength=len(counts)).astype(np.int64) \
            if len(bdoc) else np.zeros(len(counts), dtype=np.int64)
        s_bi = _segment_sums(lam[bb], bi_lengths)
        return pa.table({id_col: t.column(id_col),
                         "dsir_logw": pa.array(s_uni + s_bi,
                                               type=pa.float64())})

    return ds.map_batches(probe, batch_format="pyarrow")


def dsir_select(scored, *, k: int, id_col: str = "doc_id",
                logw_col: str = "dsir_logw", num_partitions: int = 32):
    """Gumbel top-k resampling: keep the k docs with the largest
    ``logw + Gumbel(id)`` — a without-replacement sample proportional
    to the importance weight (public Gumbel-max result), deterministic
    because the Gumbel draw comes from the row id, not an RNG.

    Distributed via :func:`group_topk` under a constant key: each
    batch forwards at most k rows, the final reduce sees O(k · blocks).
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def race(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        t = t.filter(pc.is_valid(t.column(id_col)))
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if (ids < 0).any():
            raise ValueError("dsir_select: ids must be non-negative")
        h = (ids.astype(np.uint64) * _RACE_MULT) % _RACE_MOD
        u = (h.astype(np.float64) + 1.0) / 4294967297.0  # (0, 1)
        g = -np.log(-np.log(u))
        logw = t.column(logw_col).to_numpy(zero_copy_only=False).astype(np.float64)
        t = t.append_column("__gumbel_race",
                            pa.array(logw + g, type=pa.float64()))
        return t.append_column("__one", pa.array(np.ones(len(ids), dtype=np.int8)))

    winners = group_topk(
        scored.map_batches(race, batch_format="pyarrow"),
        key="__one", score_col="__gumbel_race", k=k, tie_col=id_col,
        num_partitions=num_partitions,
    )
    return winners.drop_columns(["__one", "__gumbel_race"])


def dsir_pipeline(raw, target, *, k: int, m: int = M_DEFAULT,
                  smoothing: float = 1.0, text_col: str = "text",
                  id_col: str = "doc_id", num_partitions: int = 32):
    """End-to-end DSIR: fit both bucket models, broadcast the log-ratio
    vector once, score the raw corpus in one streaming pass, Gumbel
    top-k resample.  ``raw`` is consumed twice (count build + scoring)
    — callers with an expensive upstream should ``materialize()`` it,
    as :mod:`stages.dedup` documents for the same pattern."""
    tc = hashed_ngram_counts(target, m=m, text_col=text_col)
    rc = hashed_ngram_counts(raw, m=m, text_col=text_col)
    lam_ref = ray.put(dsir_log_ratio(tc, rc, smoothing=smoothing))
    scored = dsir_score(raw, lam_ref, m=m, text_col=text_col, id_col=id_col)
    return dsir_select(scored, k=k, id_col=id_col,
                       num_partitions=num_partitions)
