"""fastText-style linear text classifier over hashed bag-of-n-gram
features — the published "quality classifier" slot of large-scale
pipelines (GPT-3 / LLaMA filter CommonCrawl with a linear classifier
over hashed text features trained to separate curated from crawled
text; fastText (Joulin et al., EACL 2017) is the canonical
architecture: averaged hashed n-gram embeddings + a linear head).

This stage composes two existing proven pieces:

- the DSIR featurizer discipline (``stages/dsir.py``): hashed
  unigram+bigram BUCKET features, where bucket collisions are part of
  the feature definition — both engine and the plain reference must
  hash identically (shared definitional kernel), while the training
  machinery stays independent on each side;
- the quantized-int64 full-batch gradient-descent trainer
  (``stages/logreg.py``): per-sample fixed-point gradient quantization
  makes the partial sums exact integer arithmetic — associative, so
  the fold (``stages/fold.py``) is bit-identical under ANY batching.

Feature definition (shared verbatim with the reference):
``x[doc, b] = log1p(count of unigram/bigram hashes with h % d == b)``
— sublinear tf scaling (the classic tf-weighting variant), which keeps
feature magnitudes O(1) so full-batch gradient descent separates
token-presence signals in tens of steps (plain averaged counts are
~1/doclen and provably length-invariant — measured at chance accuracy
on the presence tasks this classifier exists for).

Shape at 100 TB: identical to ``stages/logreg.py`` — per gradient
step one (d+1)-long int64 row per batch moves, tree-merged
worker-side; scoring is one streaming pass.  Features are recomputed
per step from the materialized text (vectorized bincount over
``doc_idx * d + bucket``), trading FLOPs for never materializing an
n×d float matrix in the object store.

Reference parity note: the reference plugin has no model stage — this
is an engine-native training-data operator (SURVEY §2.9).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .decontam import flat_token_hashes, gram_hashes
from .logreg import logreg_fit, margin, sigmoid


def doc_features(t: pa.Table, text_col: str, d: int) -> np.ndarray:
    """(n_docs, d) float64 hashed-n-gram feature matrix for a batch.

    DEFINITIONAL kernel — the plain reference calls this same function
    per doc (bucket collisions are part of the feature definition,
    same policy as ``stages/dsir.py:_doc_buckets``)."""
    fh, counts = flat_token_hashes(t.column(text_col))
    n = len(counts)
    if n == 0:
        return np.empty((0, d), dtype=np.float64)
    dd = np.uint64(d)
    doc_u = np.repeat(np.arange(n, dtype=np.int64), counts)
    bh, doc_b = gram_hashes(fh, counts, 2)
    idx = np.concatenate([
        doc_u * d + (fh % dd).astype(np.int64),
        doc_b * d + (bh % dd).astype(np.int64),
    ])
    cnt = np.bincount(idx, minlength=n * d).reshape(n, d)
    return np.log1p(cnt.astype(np.float64))


def fasttext_fit(ds, *, label_fn, d: int = 256, n_iters: int = 20,
                 lr: float = 1.0, text_col: str = "text") -> np.ndarray:
    """Train the linear head over hashed n-gram features; returns the
    (d+1,) weight vector (bias last).  ``label_fn(batch) -> {0,1}``
    derives the target in-batch (a column read or a deterministic
    rule), so labels never need a shuffle join."""
    return logreg_fit(
        ds, label_fn=label_fn, n_iters=n_iters, lr=lr,
        feats_fn=lambda b: doc_features(b, text_col, d))


def fasttext_score(ds, w: np.ndarray, *, id_col: str = "doc_id",
                   text_col: str = "text", d: int = 256):
    """(id, score, pred) per doc — one streaming vectorized pass."""
    w_ref = ray.put(w)

    def fn(batch: pa.Table) -> pa.Table:
        x = doc_features(batch, text_col, d)
        p = sigmoid(margin(x, ray.get(w_ref)))
        return pa.table({
            id_col: batch.column(id_col),
            "score": pa.array(p),
            "pred": pa.array(p >= 0.5),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def token_presence_labels(t: pa.Table, *, text_col: str = "text",
                          token: str = "spark") -> np.ndarray:
    """Deterministic in-batch label rule for the self-contained driver
    query: 1 when the doc's space-split tokens contain ``token``.
    Space-delimited substring match — exactly ``token in
    text.split(" ")`` (the reference's formulation) because tokens are
    single-space separated."""
    import pyarrow.compute as pc

    col = t.column(text_col)
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    padded = pc.binary_join_element_wise(" ", pc.fill_null(col, ""), " ", "")
    hit = pc.match_substring(padded, f" {token} ")
    return hit.to_numpy(zero_copy_only=False).astype(np.float64)
