"""Vocabulary typo clustering — the SymSpell / FastSS symmetric-delete
recipe (public algorithm: Garbe's SymSpell, Bocek et al.'s FastSS):
two words are within Levenshtein distance 1 iff they share a member of
their {word} ∪ 1-deletion neighborhoods, so bucketing by deletion
variants is a COMPLETE candidate filter for ed ≤ 1 — no all-pairs scan
over the vocabulary, ever.  The corpus-cleaning use is vocabulary
normalization: map every token to its typo-cluster's dominant spelling.

Distributed shape:

1. distinct (word, count) vocabulary via one exchange by word (counts
   merge; per-batch pre-collapse bounds hot words at one row per
   block);
2. each distinct word emits (variant-hash, word) rows for itself and
   its ≤ len 1-deletion variants — O(len) thin rows per DISTINCT word;
3. one exchange by variant hash; per bucket, candidate pairs verify
   exact ed ≤ 1 (buckets are alphabet-bounded by construction; a
   pathological megabucket falls back to star-vs-first, documented);
4. verified edges feed the shared min-label connected components;
5. labels co-partition with the vocabulary by word hash; each cluster
   resolves its canonical spelling = (count desc, word asc) argmax and
   every member maps to it.

Node identity is the word's 64-bit hash (the module-wide hash-equality
convention; a collision merges two clusters with probability ~2^-64).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import copartition, exchange, lookup
from .dedup import _hash64_arrow, connected_components_min_label

_BUCKET_CAP = 256


def _ed1(u: str, v: str) -> bool:
    """Exact Levenshtein-distance ≤ 1 for DISTINCT words (one
    substitution, insertion, or deletion)."""
    lu, lv = len(u), len(v)
    if lu == lv:
        return sum(a != b for a, b in zip(u, v)) <= 1
    if abs(lu - lv) != 1:
        return False
    if lu > lv:
        u, v, lu, lv = v, u, lv, lu
    # u is shorter: one skip allowed in v
    i = 0
    while i < lu and u[i] == v[i]:
        i += 1
    return u[i:] == v[i + 1:]


def _word_counts(ds, text_col: str, num_partitions: int):
    def partials(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pc.split_pattern(pc.fill_null(col, ""), " ")
        flat = toks.flatten()
        df = pd.DataFrame({"word": flat.to_pandas().to_numpy(dtype=object)})
        cnt = df.groupby("word", sort=False).size()
        return pa.table({
            "word": pa.array(cnt.index.to_numpy(dtype=object), type=pa.string()),
            "cnt": pa.array(cnt.to_numpy(dtype=np.int64)),
        })

    def merge(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("word", sort=False)["cnt"].sum()
        return pa.table({
            "word": pa.array(agg.index.to_numpy(dtype=object), type=pa.string()),
            "cnt": pa.array(agg.to_numpy(dtype=np.int64)),
        })

    return exchange(ds.map_batches(partials, batch_format="pyarrow"), "word",
                    num_partitions, merge, "pandas")


def _variant_rows(t: pa.Table) -> pa.Table:
    """(variant-hash, word) rows for each distinct word's symmetric-
    delete neighborhood ({word} ∪ 1-deletions)."""
    words = t.column("word").to_pylist()
    out_w: list[str] = []
    variants: list[str] = []
    for w in words:
        w = w or ""
        seen = {w}
        for i in range(len(w)):
            seen.add(w[:i] + w[i + 1:])
        for v in seen:
            out_w.append(w)
            variants.append(v)
    vh = _hash64_arrow(pa.array(variants, type=pa.string())).view(np.int64)
    return pa.table({
        "vh": pa.array(vh),
        "word": pa.array(out_w, type=pa.string()),
    })


def _bucket_edges(df: pd.DataFrame) -> pa.Table:
    """Per variant-hash bucket: verified ed≤1 edges between the
    bucket's DISTINCT words, as (word-hash a, word-hash b) int64
    pairs."""
    ea: list[int] = []
    eb: list[int] = []
    for _, g in df.groupby("vh", sort=False):
        words = sorted(set(g["word"].tolist()))
        m = len(words)
        if m < 2:
            continue
        hs = _hash64_arrow(pa.array(words, type=pa.string())).view(np.int64)
        if m > _BUCKET_CAP:
            # pathological megabucket: star vs the first word only
            # (documented approximation, cap keeps the pair cost linear)
            for j in range(1, m):
                if _ed1(words[0], words[j]):
                    ea.append(int(min(hs[0], hs[j])))
                    eb.append(int(max(hs[0], hs[j])))
            continue
        for i in range(m):
            wi = words[i]
            for j in range(i + 1, m):
                if _ed1(wi, words[j]):
                    ea.append(int(min(hs[i], hs[j])))
                    eb.append(int(max(hs[i], hs[j])))
    return pa.table({"a": pa.array(np.asarray(ea, dtype=np.int64)),
                     "b": pa.array(np.asarray(eb, dtype=np.int64))})


def typo_clusters(ds, *, text_col: str = "text", num_partitions: int = 32):
    """Vocabulary normalization map: (word, canon, cnt) for every
    distinct corpus token, where ``canon`` is the word's ed≤1
    typo-cluster's most frequent member (ties: lexicographically
    smallest) — ``canon == word`` for singletons.  See the module
    docstring for the distributed shape."""
    vocab = _word_counts(ds, text_col, num_partitions).materialize()

    edges = exchange(vocab.map_batches(_variant_rows, batch_format="pyarrow"), "vh",
                     num_partitions, _bucket_edges, "pandas")
    labels = connected_components_min_label(
        edges, num_partitions=max(8, num_partitions // 4))

    # two co-partitions: labels attach to words by WORD HASH (a cluster
    # spans many hashes, so canon cannot resolve here), then everything
    # exchanges by LABEL where the canon argmax is local
    def word_rows(t: pa.Table) -> pa.Table:
        col = t.column("word")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return pa.table({"k": pa.array(_hash64_arrow(col).view(np.int64)),
                         "word": col, "cnt": t.column("cnt")})

    def attach_label(word: pd.DataFrame, label: pd.DataFrame) -> pa.Table:
        # int64 all the way (a NaN-bearing left merge would float64 the
        # 64-bit hashes); a word in no typo edge labels itself, and the
        # label side is column-less when the vocabulary has no edge
        want = word["k"].to_numpy(dtype=np.int64)
        lab = want
        if len(label):
            lb = label[["node", "label"]].drop_duplicates().sort_values("node", kind="stable")
            lab = lookup(lb["node"].to_numpy(dtype=np.int64),
                         lb["label"].to_numpy(dtype=np.int64), want, default=want)
        return pa.table({
            "word": pa.array(word["word"].to_numpy(dtype=object), type=pa.string()),
            "cnt": pa.array(word["cnt"].to_numpy(dtype=np.int64)),
            "label": pa.array(lab.astype(np.int64)),
        })

    def resolve_canon(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["label", "cnt", "word"],
                            ascending=[True, False, True], kind="mergesort")
        canon = df.groupby("label", sort=False)["word"].transform("first")
        return pa.table({
            "word": pa.array(df["word"].to_numpy(dtype=object), type=pa.string()),
            "canon": pa.array(canon.to_numpy(dtype=object), type=pa.string()),
            "cnt": pa.array(df["cnt"].to_numpy(dtype=np.int64)),
        })

    labelled = copartition({"word": (vocab.map_batches(word_rows, batch_format="pyarrow"), "k"),
                            "label": (labels, "node")},
                           num_partitions, attach_label, "pandas")
    return exchange(labelled, "label", num_partitions, resolve_canon, "pandas")
