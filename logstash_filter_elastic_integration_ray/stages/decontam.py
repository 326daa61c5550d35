"""Train/test decontamination: flag training documents that share any
token n-gram with a held-out (test/benchmark) document set.

Shape at 100 TB: the held-out side is small by construction (benchmark
suites are MBs, the corpus is TBs), so its distinct n-gram hashes are
collected once, sorted, and broadcast via ``ray.put``; the corpus side
is ONE streaming ``map_batches`` pass with a vectorized membership
probe (``searchsorted``) — no shuffle, no join, nothing driver-side
proportional to the corpus.

Vectorization: tokens come from ``pyarrow.compute.split_pattern`` (one
Arrow kernel per batch), all tokens are hashed with ONE vectorized
pass (polars hashes the Arrow string buffer directly — no Python
object per token; pandas ``hash_array`` is the fallback), and n-gram
hashes are a W-step rolling polynomial over the token-hash array (W
shifted vector ops, no per-doc loop).  Gram equality is tested on
64-bit hashes — collision probability ~n²/2⁶⁴, documented as the
standard trade for never shipping gram *strings* anywhere.

Tokenization contract: split on single spaces, exactly DuckDB's
``string_split(text, ' ')``, so the SQL oracle reproduces the result.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .fold import fold

#: odd multiplier for the rolling gram hash (uint64 wraparound)
_GRAM_B = np.uint64(0x9E3779B97F4A7C15)


try:  # vectorized Arrow-native string hashing (no Python-object round
    import polars as _pl  # trip); the pandas path below is the fallback
except ImportError:  # pragma: no cover - polars ships in this container
    _pl = None


def flat_token_hashes(texts_col) -> tuple[np.ndarray, np.ndarray]:
    """Split a string column on single spaces and hash every token.

    Returns (flat_hashes uint64 over all tokens, token counts per doc).
    One Arrow split kernel + ONE vectorized hash pass per batch —
    polars hashes the Arrow string buffer directly (measured 13×
    faster than the ``to_pylist`` + ``pd.util.hash_array`` path, which
    materialized a Python object per token and serialized the hot
    loop of every hash-based text stage).  Hash VALUES never surface
    in any caller's output — they key membership tests, exchanges and
    distinct counts only — so the two paths are interchangeable up to
    the documented ~n²/2⁶⁴ collision odds.
    """
    col = texts_col.combine_chunks() if isinstance(texts_col, pa.ChunkedArray) else texts_col
    col = pc.fill_null(col, "")
    toks = pc.split_pattern(col, " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = toks.flatten()
    if len(flat) == 0:
        return np.empty(0, dtype=np.uint64), counts
    if _pl is not None:
        h = _pl.from_arrow(flat).hash(seed=0).to_numpy()
        return np.ascontiguousarray(h, dtype=np.uint64), counts
    obj = np.asarray(flat.to_pylist(), dtype=object)
    return pd.util.hash_array(obj, categorize=False), counts


def gram_hashes(flat_h: np.ndarray, counts: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Rolling w-gram hashes over the flat token-hash array.

    Returns (gram hash per valid start position, doc index per valid
    position).  A start position is valid when the whole window lies
    inside one document.
    """
    n_flat = len(flat_h)
    n_pos = n_flat - w + 1
    if n_pos <= 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    h = np.zeros(n_pos, dtype=np.uint64)
    for j in range(w):
        h = h * _GRAM_B + flat_h[j : j + n_pos]
    doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    valid = doc_idx[:n_pos] == doc_idx[w - 1 :]
    return h[valid], doc_idx[:n_pos][valid]


def contamination_grams(ds, *, w: int = 8, text_col: str = "text"):
    """Distinct n-gram hashes of the held-out set, as a sorted uint64
    array in the object store (``ObjectRef``).

    Per-batch distinct grams, merged as sorted unions through
    :func:`stages.fold.fold` — the held-out side is small by contract;
    a held-out set too large for one driver array should instead
    co-partition both sides by gram hash (same kernels, join shape)."""

    def batch_grams(t: pa.Table) -> np.ndarray:
        fh, counts = flat_token_hashes(t.column(text_col))
        return np.unique(gram_hashes(fh, counts, w)[0])

    grams = fold(ds, batch_grams, lambda gs: np.unique(np.concatenate(gs)))
    return ray.put(np.empty(0, dtype=np.uint64) if grams is None else grams)


def decontaminate(ds, grams_ref, *, w: int = 8, text_col: str = "text", id_col: str = "doc_id"):
    """One streaming pass: (id, contaminated bool) per corpus doc."""

    def probe(t: pa.Table) -> pa.Table:
        grams = ray.get(grams_ref)
        fh, counts = flat_token_hashes(t.column(text_col))
        gh, doc_idx = gram_hashes(fh, counts, w)
        contaminated = np.zeros(t.num_rows, dtype=bool)
        if len(gh) and len(grams):
            pos = np.searchsorted(grams, gh)
            pos = np.minimum(pos, len(grams) - 1)
            hit = grams[pos] == gh
            contaminated[np.unique(doc_idx[hit])] = True
        return pa.table({id_col: t.column(id_col), "contaminated": pa.array(contaminated)})

    return ds.map_batches(probe, batch_format="pyarrow")


def decontaminate_reference(texts: list, test_texts: list, w: int = 8) -> np.ndarray:
    """Plain-Python string-level reference (pytest cross-check): exact
    gram-string membership, no hashing."""
    test_grams = set()
    for t in test_texts:
        toks = (t or "").split(" ")
        for i in range(len(toks) - w + 1):
            test_grams.add(" ".join(toks[i : i + w]))
    out = np.zeros(len(texts), dtype=bool)
    for i, t in enumerate(texts):
        toks = (t or "").split(" ")
        for j in range(len(toks) - w + 1):
            if " ".join(toks[j : j + w]) in test_grams:
                out[i] = True
                break
    return out
