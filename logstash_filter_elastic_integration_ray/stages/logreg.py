"""Distributed logistic-regression training + scoring over an
embedding column — the model-based quality-classifier stage of a
training-data pipeline (the fasttext/CCNet "quality model" slot:
train a small linear model on labeled examples, score the whole
corpus, filter on the probability).

Shape at 100 TB (the k-means template, stages/clustering.py): each
full-batch gradient step broadcasts the (d+1)-float weight vector
(``ray.put`` once, zero-copy read per task), ``map_batches`` computes
per-batch partial gradients — ONE (d+1)-long int64 vector per batch
is all that moves — :func:`stages.fold.fold` sums them, and the driver
updates d+1 floats.  Nothing proportional to the dataset
ever reaches the driver; scoring is one streaming pass.

Determinism contract (bit-identical under ANY batching, proven by the
fixture oracle + pytest):

- the margin ``z = X·w`` is evaluated with ``np.einsum("nd,d->n")``
  (sequential per-row reduction — no BLAS-threading variance),
- per-SAMPLE gradient contributions ``r_i * x_i`` are quantized to
  fixed-point int64 (``np.rint(g * 2^28)``) BEFORE summation, so the
  partial-gradient sum is exact integer arithmetic — associative,
  batching-invariant — and the float weight update happens once per
  step on the driver from the same integers,
- the plain single-process reference (tools/reference_impls.py)
  evaluates the identical formulas and must match byte-for-byte.

Overflow headroom: |r| ≤ 1 and unit-scale features keep each
contribution ≲ 2^29; an int64 coordinate absorbs ~2^34 rows before
the summed gradient overflows.

Reference parity note: the reference plugin has no model stage — this
is an engine-native training-data operator (SURVEY §2.9), the
trainable counterpart of the heuristic quality gates in
stages/textstats.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from .clustering import _sum_partials
from .fold import fold
from .similarity import _to_matrix

#: fixed-point scale for gradient quantization — 28 fractional bits
_GSCALE = np.float64(1 << 28)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically-stable elementwise sigmoid (shared definitional
    kernel — both engine and reference call this)."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def margin(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``X·w + b`` with a deterministic sequential per-row reduction.
    ``w`` is (d+1,) with the bias last."""
    return np.einsum("nd,d->n", x, w[:-1]) + w[-1]


def grad_partial_int(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One batch's quantized partial gradient: (d+1,) int64 — the
    logistic-loss gradient contributions ``(sigmoid(z)-y) * [x, 1]``,
    each QUANTIZED PER SAMPLE then summed exactly."""
    r = sigmoid(margin(x, w)) - y
    g = np.rint(r[:, None] * x * _GSCALE).astype(np.int64).sum(axis=0)
    gb = np.rint(r * _GSCALE).astype(np.int64).sum()
    return np.r_[g, gb]


def _descend(ds, n_iters: int, lr: float, grad_of, what: str) -> np.ndarray:
    """Full-batch gradient descent over the materialized ``ds``.
    ``grad_of(batch, w)`` is one batch's quantized int64 gradient at
    ``w`` (zeros of the gradient's shape when ``w`` is None)."""
    ds = ds.materialize()
    w = None
    for _ in range(n_iters):
        w_ref = ray.put(w)
        got = fold(ds, lambda b: (grad_of(b, ray.get(w_ref)), b.num_rows), _sum_partials)
        if got is None:
            raise ValueError(f"{what}: input dataset has no rows")
        g_int, n_total = got
        if w is None:
            w = np.zeros(g_int.shape, dtype=np.float64)
        grad = g_int.astype(np.float64) / _GSCALE / np.float64(max(n_total, 1))
        w = w - np.float64(lr) * grad
    return w


def logreg_fit(ds, *, label_fn, n_iters: int = 20, lr: float = 1.0,
               emb_col: str = "embedding", feats_fn=None) -> np.ndarray:
    """Full-batch gradient descent; returns the (d+1,) weight vector.

    ``label_fn(batch) -> float64 {0,1} array`` derives the target from
    the batch (a column read or a deterministic rule), so the label
    never needs a separate shuffle-joined table.

    ``feats_fn(batch) -> (n, d) float64`` overrides the default
    feature read (the ``emb_col`` matrix) — the hashed-text classifier
    (``stages/fasttext.py``) plugs its featurizer in here.

    The input is materialized first (the iterative-loop-state idiom,
    same as :func:`stages.clustering.semdedup`): the loop consumes it
    ``n_iters`` times, and a lazy composed upstream would re-execute
    its whole lineage per gradient step.
    """

    def grad_of(batch: pa.Table, w) -> np.ndarray:
        x = (feats_fn(batch) if feats_fn is not None
             else _to_matrix(batch.column(emb_col)))
        if w is None:
            w = np.zeros(x.shape[1] + 1, dtype=np.float64)
        y = np.asarray(label_fn(batch), dtype=np.float64)
        return grad_partial_int(x, y, w)

    return _descend(ds, n_iters, lr, grad_of, "logreg_fit")


def logreg_score(ds, w: np.ndarray, *, id_col: str = "vec_id",
                 emb_col: str = "embedding"):
    """(id, score, pred) per row — one streaming vectorized pass."""
    w_ref = ray.put(w)

    def fn(batch: pa.Table) -> pa.Table:
        x = _to_matrix(batch.column(emb_col))
        p = sigmoid(margin(x, ray.get(w_ref)))
        return pa.table({
            id_col: batch.column(id_col),
            "score": pa.array(p),
            "pred": pa.array(p >= 0.5),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def logreg_reference(x: np.ndarray, y: np.ndarray, *, n_iters: int = 20,
                     lr: float = 1.0) -> np.ndarray:
    """Single-process reference trainer: identical quantized-gradient
    formula, no Ray (int64 sums are associative, so one-shot summation
    here equals the engine's fold exactly)."""
    w = np.zeros(x.shape[1] + 1, dtype=np.float64)
    for _ in range(n_iters):
        g_int = grad_partial_int(x, np.asarray(y, dtype=np.float64), w)
        grad = g_int.astype(np.float64) / _GSCALE / np.float64(max(len(y), 1))
        w = w - np.float64(lr) * grad
    return w


# ---------------------------------------------------------------------------
# multiclass softmax regression — same broadcast + quantized-int64
# partial-gradient machinery, K classes at once.  A batch's gradient
# is one (K, d+1) int64 array; everything else is the binary path's
# :func:`_descend` (and shares its determinism contract).
# ---------------------------------------------------------------------------

def softmax_probs(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(n, K) class probabilities.  ``w`` is (K, d+1), bias last.
    ``einsum`` with default optimize=False keeps the reduction a
    sequential C loop (no BLAS-threading variance); the per-row
    max-shift + K-term sum have fixed evaluation order."""
    z = np.einsum("nd,kd->nk", x, w[:, :-1]) + w[None, :, -1]
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_grad_partial_int(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One batch's quantized partial gradient, flattened (K*(d+1),)
    int64 — per-sample residuals ``p_ik - 1[y_i = k]`` quantized
    against each feature before the exact integer sum."""
    k = w.shape[0]
    y = np.asarray(y, dtype=np.int64)
    if len(y) and not ((y >= 0) & (y < k)).all():
        raise ValueError(f"labels must be in [0, {k}); got range "
                         f"[{y.min()}, {y.max()}]")
    p = softmax_probs(x, w)
    r = p.copy()
    r[np.arange(len(y)), y] -= 1.0
    # quantize per (sample, class, feature) BEFORE summing: build the
    # (n, k, d+1) contributions in chunks to bound memory
    out = np.zeros((k, x.shape[1] + 1), dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, k * (x.shape[1] + 1)))
    for s in range(0, x.shape[0], chunk):
        rs, xs = r[s:s + chunk], x[s:s + chunk]
        contrib = rs[:, :, None] * np.concatenate(
            [xs, np.ones((len(xs), 1))], axis=1)[:, None, :]
        out += np.rint(contrib * _GSCALE).astype(np.int64).sum(axis=0)
    return out.reshape(-1)


def softmax_fit(ds, *, n_classes: int, label_fn, n_iters: int = 20, lr: float = 1.0,
                emb_col: str = "embedding") -> np.ndarray:
    """Full-batch softmax GD; returns (K, d+1) weights.  ``label_fn``
    maps a batch to int class ids in [0, n_classes)."""

    def grad_of(batch: pa.Table, w) -> np.ndarray:
        x = _to_matrix(batch.column(emb_col))
        if w is None:
            w = np.zeros((n_classes, x.shape[1] + 1), dtype=np.float64)
        y = np.asarray(label_fn(batch), dtype=np.int64)
        return softmax_grad_partial_int(x, y, w).reshape(n_classes, -1)

    return _descend(ds, n_iters, lr, grad_of, "softmax_fit")


def softmax_score(ds, w: np.ndarray, *, id_col: str = "vec_id",
                  emb_col: str = "embedding"):
    """(id, pred, p_max) per row — argmax class (first-max tie-break)."""
    w_ref = ray.put(w)

    def fn(batch: pa.Table) -> pa.Table:
        x = _to_matrix(batch.column(emb_col))
        p = softmax_probs(x, ray.get(w_ref))
        return pa.table({
            id_col: batch.column(id_col),
            "pred": pa.array(np.argmax(p, axis=1).astype(np.int64)),
            "p_max": pa.array(p.max(axis=1)),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def softmax_reference(x: np.ndarray, y: np.ndarray, *, n_classes: int,
                      n_iters: int = 20, lr: float = 1.0) -> np.ndarray:
    """Single-process twin of :func:`softmax_fit` (int64 partial sums
    are associative, so one-shot summation equals the fold)."""
    w = np.zeros((n_classes, x.shape[1] + 1), dtype=np.float64)
    for _ in range(n_iters):
        g_int = softmax_grad_partial_int(x, np.asarray(y, dtype=np.int64), w)
        grad = g_int.reshape(n_classes, -1).astype(np.float64) / _GSCALE / np.float64(max(len(y), 1))
        w = w - np.float64(lr) * grad
    return w
