"""Text analysis stages over the ``documents`` table: token counting,
quality scoring, language-ID, document fingerprinting.

All are stateless vectorized ``map_batches`` transforms (no actor
state needed — the stopword/profile tables are module constants, loaded
once per worker process at import).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# module-level (NOT function-level): used inside map_batches / map_groups
# UDFs that execute on workers, where the package is pickled by value and
# function-level relative imports raise ModuleNotFoundError
from . import segments
from .exchange import exchange
from .corpus import _dup_partials
from .decontam import _GRAM_B, flat_token_hashes, gram_hashes
from .dsir import _segment_sums
from .dedup import _distinct_texts, _hash64_arrow
from .sketches import top_k_tokens

STOPWORDS = ("the", "a", "and", "of", "to", "in", "is")

#: tiny language profiles for the n-gram/stopword heuristic language ID
_LANG_PROFILES: dict[str, frozenset] = {
    "en": frozenset({"the", "and", "of", "to", "a", "in", "is", "it", "that", "for"}),
    "es": frozenset({"el", "la", "de", "que", "y", "los", "las", "un", "una", "es"}),
    "de": frozenset({"der", "die", "das", "und", "ist", "ein", "eine", "nicht", "mit", "zu"}),
    "fr": frozenset({"le", "la", "les", "de", "et", "un", "une", "est", "pour", "que"}),
}


#: BPE-ish tokenizer regex (GPT-2 style: contractions, letter runs,
#: digit runs, punctuation runs, whitespace) restricted to RE2 syntax
#: so Arrow's count_substring_regex and DuckDB's regexp_extract_all
#: agree byte-for-byte — the SQL twin is len(regexp_extract_all(...)).
BPE_TOKEN_REGEX = r"'s|'t|'re|'ve|'m|'ll|'d| ?[a-zA-Z]+| ?[0-9]+| ?[^\sa-zA-Z0-9]+|\s+"


def bpe_token_count_batch(batch: pa.Table, text_col: str = "text",
                          id_col: str = "doc_id") -> pa.Table:
    """(id, n_bpe_tokens) — non-overlapping :data:`BPE_TOKEN_REGEX`
    matches, counted by one vectorized Arrow RE2 kernel (null text →
    0, matching the SQL ``COALESCE``)."""
    import pyarrow.compute as pc

    n = pc.fill_null(
        pc.count_substring_regex(batch.column(text_col), BPE_TOKEN_REGEX), 0
    ).cast(pa.int64())
    return pa.table({id_col: batch.column(id_col), "n_bpe_tokens": n})


def token_count_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_tokens — tokens split on single spaces (exact twin of
    DuckDB ``length(string_split(text, ' '))``; null text counts 0).
    Pure Arrow — no per-row Python loop."""
    col = batch.column("text")
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = pc.list_value_length(pc.split_pattern(pc.fill_null(col, ""), " "))
    n = pc.if_else(pc.is_null(col), pa.scalar(0, type=pa.int64()), n.cast(pa.int64()))
    return pa.table({"doc_id": batch.column("doc_id"), "n_tokens": n})


def quality_batch(batch: pa.Table) -> pa.Table:
    """Quality metrics: char/word counts, stopword count + ratio.

    ``stop_ratio`` is an exact int/int double division so the DuckDB
    oracle reproduces it bit-for-bit.  Fully vectorized: one Arrow
    split kernel, one ``is_in`` membership pass over the flat token
    array, one segment sum per doc — no per-row Python (the
    old loop measured 0.57 s per 80k docs single-core; null text
    yields all-zero counts, same as before)."""
    col = batch.column("text")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n_chars = pc.fill_null(pc.utf8_length(col), 0).cast(pa.int64())
    toks = pc.split_pattern(col, " ")
    n_words = pc.fill_null(pc.list_value_length(toks), 0).cast(pa.int64())
    lengths = n_words.to_numpy(zero_copy_only=False)
    flat = toks.flatten()
    # cast bool→int8 in Arrow before to_numpy: the boolean conversion
    # path materializes per-element, ~10× the int8 buffer view
    is_stop = pc.cast(
        pc.is_in(flat, value_set=pa.array(STOPWORDS)), pa.int8()
    ).to_numpy(zero_copy_only=False).astype(np.int64)
    n_stop = _segment_sums(is_stop, lengths)
    ratio = n_stop / np.maximum(lengths, 1)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars_calc": n_chars,
            "n_words": n_words,
            "n_stopwords": pa.array(n_stop),
            "stop_ratio": pa.array(ratio),
        }
    )


def detect_language(text: str) -> str:
    """Plain per-string twin of :func:`lang_id_batch` (kept as the
    readable spec + test reference; the batch kernel must agree)."""
    if not text:
        return "und"
    # CJK shortcut
    if any("一" <= ch <= "鿿" for ch in text[:200]):
        return "zh"
    words = text.lower().split(" ")
    best, best_score = "und", 0
    for lang, profile in _LANG_PROFILES.items():
        score = sum(1 for w in words if w in profile)
        if score > best_score:
            best, best_score = lang, score
    return best


#: profile membership arrays for the vectorized is_in passes
_PROFILE_ARRAYS = [(lang, pa.array(sorted(words)))
                   for lang, words in _LANG_PROFILES.items()]


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """Vectorized language ID, exactly :func:`detect_language` per row
    (pinned by test equality): CJK presence in the first 200 code
    points via one RE2 char-class match, then one ``is_in`` membership
    pass per profile over the flat lowercased token array with
    segmented sums; ties/zero scores resolve first-profile-wins /
    "und" exactly like the scalar loop (``np.argmax`` is first-max).
    The old per-row loop measured 1.7 s per 80k docs single-core."""
    col = batch.column("text")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    head = pc.utf8_slice_codeunits(col, 0, 200)
    cjk = pc.cast(
        pc.fill_null(pc.match_substring_regex(head, "[一-鿿]"), False), pa.int8()
    ).to_numpy(zero_copy_only=False).astype(bool)
    toks = pc.split_pattern(pc.utf8_lower(col), " ")
    lengths = pc.fill_null(pc.list_value_length(toks), 0).cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    flat = toks.flatten()
    scores = np.zeros((len(_PROFILE_ARRAYS), n), dtype=np.int64)
    for i, (_lang, arr) in enumerate(_PROFILE_ARRAYS):
        member = pc.cast(pc.is_in(flat, value_set=arr), pa.int8()).to_numpy(
            zero_copy_only=False).astype(np.int64)
        scores[i] = _segment_sums(member, lengths)
    best_idx = np.argmax(scores, axis=0)
    best_score = scores[best_idx, np.arange(n)]
    names = np.array([lang for lang, _ in _PROFILE_ARRAYS], dtype=object)
    langs = np.where(best_score > 0, names[best_idx], "und")
    langs = np.where(cjk, "zh", langs)
    return pa.table({"doc_id": batch.column("doc_id"),
                     "detected_lang": pa.array(langs, type=pa.string())})


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """doc_id, content_hash (md5-hex, DuckDB ``md5(text)`` twin) +
    rolling 64-bit polynomial hash (the streaming-friendly variant).
    Hashes compute once per DISTINCT text and gather — the Horner
    char loop over every duplicate was this kernel's whole cost on
    dup-heavy batches (3.7 s → ~0.3 s per 80k docs)."""
    uniq, inverse = _distinct_texts(batch.column("text"))
    md5s, rolls = [], []
    P = (1 << 61) - 1
    B = 131
    for s in uniq:
        md5s.append(hashlib.md5(s.encode("utf-8")).hexdigest())
        h = 0
        for ch in s:
            h = (h * B + ord(ch)) % P
        rolls.append(f"{h:016x}")
    md5_arr = pa.array(md5s, type=pa.string())
    roll_arr = pa.array(rolls, type=pa.string())
    idx = pa.array(inverse)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "content_hash": md5_arr.take(idx),
            "rolling_hash": roll_arr.take(idx),
        }
    )


# ---------------------------------------------------------------------------
# repetition / Gopher-style quality signals
# ---------------------------------------------------------------------------

def repetition_batch(batch: pa.Table) -> pa.Table:
    """Gopher-style repetition signals, fully vectorized: token count,
    distinct-token count, duplicate-word fraction, and the count/token-
    fraction of the most frequent bigram.

    One ``split_pattern`` + one ``hash_array`` per batch; distinct and
    top-bigram counts come from (doc, hash) runs over the flat
    token-hash array (no per-doc Python loop).  Distinctness
    is tested on 64-bit token hashes (collision odds ~n²/2⁶⁴).
    ``top_bigram_frac = 2·top/n`` can exceed 1.0 for overlapping
    repeats (e.g. "a a a"); it is a monotone repetition signal, not a
    coverage measure — the SQL oracle computes the identical formula.
    """
    fh, counts = flat_token_hashes(batch.column("text"))
    n_docs = len(counts)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), counts)

    # distinct tokens per doc: one run per distinct (doc, hash)
    r = segments.runs((doc_idx, fh))
    n_distinct = np.bincount(doc_idx[r.order[r.starts]], minlength=n_docs)

    # most frequent bigram per doc: longest (doc, gram) run per doc
    gh, gdoc = gram_hashes(fh, counts, 2)
    top = np.zeros(n_docs, dtype=np.int64)
    if len(gh):
        r = segments.runs((gdoc, gh))
        run_doc = segments.runs(gdoc[r.order[r.starts]])
        top[gdoc[r.order[r.starts]][run_doc.starts]] = segments.max(run_doc, r.sizes)

    n_tokens = counts  # always >= 1: '' splits to ['']
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens": pa.array(n_tokens),
            "n_distinct": pa.array(n_distinct),
            "dup_word_frac": pa.array((n_tokens - n_distinct) / n_tokens),
            "top_bigram_n": pa.array(top),
            "top_bigram_frac": pa.array(2 * top / n_tokens),
        }
    )


# ---------------------------------------------------------------------------
# TF-IDF top terms per document — fully distributed, no driver state
# ---------------------------------------------------------------------------

def _tf_rows(t: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """Thin per-batch (doc_id, token, tf) rows — one row per DISTINCT
    (doc, token), so a token's global df is simply its global row
    count.  Text tokens leave the batch exactly once, as these rows.

    Vectorized: dictionary-encode the flat token array (no Python
    string objects), then one run per (doc, code) replaces the pandas
    object groupby (which dominated the batch cost)."""
    col = t.column(text_col).combine_chunks() if isinstance(t.column(text_col), pa.ChunkedArray) else t.column(text_col)
    toks = pc.split_pattern(pc.fill_null(col, ""), " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = toks.flatten()
    ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    if len(flat) == 0:
        return pa.table({"doc_id": pa.array([], type=pa.int64()),
                         "token": pa.array([], type=pa.string()),
                         "tf": pa.array([], type=pa.int64())})
    de = flat.dictionary_encode()
    codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    doc_rep = np.repeat(ids, counts)
    r = segments.runs((doc_rep, codes))
    head = r.order[r.starts]
    return pa.table(
        {
            "doc_id": pa.array(doc_rep[head], type=pa.int64()),
            "token": de.dictionary.take(pa.array(codes[head])),
            "tf": pa.array(r.sizes.astype(np.int64)),
        }
    )


def _score_token_partition(df: pd.DataFrame) -> pa.Table:
    """All rows for a token land in one partition, so df is a local
    ``transform('size')`` — no broadcast, no driver collect."""
    dfc = df.groupby("token", sort=False)["doc_id"].transform("size").to_numpy(dtype=np.int64)
    score = df["tf"].to_numpy(dtype=np.float64) / dfc
    return pa.table(
        {
            "doc_id": pa.array(df["doc_id"].to_numpy(), type=pa.int64()),
            "token": pa.array(df["token"].to_numpy(), type=pa.string()),
            "tf": pa.array(df["tf"].to_numpy(), type=pa.int64()),
            "df": pa.array(dfc),
            "score": pa.array(score),
        }
    )


def _topk_doc_partition(df: pd.DataFrame, k: int) -> pa.Table:
    df = df.sort_values(["doc_id", "score", "token"],
                        ascending=[True, False, True], kind="mergesort")
    rank = df.groupby("doc_id", sort=False).cumcount().to_numpy() + 1
    keep = rank <= k
    out = df[keep]
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"].to_numpy(), type=pa.int64()),
            "rank": pa.array(rank[keep], type=pa.int64()),
            "token": pa.array(out["token"].to_numpy(), type=pa.string()),
            "tf": pa.array(out["tf"].to_numpy(), type=pa.int64()),
            "df": pa.array(out["df"].to_numpy(), type=pa.int64()),
        }
    )


def tfidf_topk(ds, *, k: int = 3, num_partitions: int = 32,
               text_col: str = "text", id_col: str = "doc_id"):
    """Per-doc top-k tokens by ``tf/df`` with NO driver-side state
    (VERDICT r3 "What's wrong" #1 replaced the broadcast-vocabulary
    design: at web scale the distinct-token vocabulary is 10^8-10^9
    rows, far too large to collect and ship).

    Two thin exchanges, both O(distinct (doc, token) pairs), text never
    rides a shuffle:

    1. (doc_id, token, tf) rows hash-partition by TOKEN — a token's df
       is its local row count (rows are per-distinct-doc by
       construction), so scoring is partition-local;
    2. scored rows hash-partition by DOC — top-k is partition-local.

    The idf weighting is log-free (``tf/df``): the score of two
    (tf, df) pairs with equal real ratio is the identical IEEE double
    on every engine, so ranking is cross-engine deterministic —
    ``tf*ln(N/df)`` is not, because ``ln`` is not correctly rounded and
    mathematically equal scores like ``2*ln4 = 4*ln2`` can order
    differently per libm.  Ties break by token ascending."""
    tf_rows = ds.map_batches(lambda t: _tf_rows(t, text_col, id_col),
                             batch_format="pyarrow")
    scored = exchange(tf_rows, "token", num_partitions, _score_token_partition, "pandas")
    return exchange(scored, "doc_id", num_partitions,
                    lambda df: _topk_doc_partition(df, k), "pandas")



# ---------------------------------------------------------------------------
# Gopher char-fraction repetition signals (Rae et al. 2021, table A1)
# ---------------------------------------------------------------------------

class _GramCursor:
    """Incremental rolling-hash ladder: the width-w gram hashes come
    from the width-(w-1) hashes with ONE multiply-add
    (``h_w = h_{w-1}[:-1] * B + fh[w-1:]``), so walking w = 2..10
    costs 9 vector ops instead of 2+3+...+10 = 54.  Hash values are
    identical to decontam.gram_hashes' per-width loop."""

    def __init__(self, fh: np.ndarray, counts: np.ndarray):
        self.fh = fh
        self.doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        self._h = fh.copy()  # width 1
        self._w = 1

    def at(self, w: int):
        """(gram hashes, doc index, start position) for width ``w`` —
        widths must be requested in increasing order."""

        if w < self._w:
            raise ValueError("widths must be non-decreasing")
        while self._w < w:
            self._h = self._h[:-1] * _GRAM_B + self.fh[self._w:]
            self._w += 1
        n_pos = len(self._h)
        if n_pos <= 0:
            z = np.empty(0, dtype=np.int64)
            return np.empty(0, dtype=np.uint64), z, z
        valid = self.doc_idx[:n_pos] == self.doc_idx[w - 1:]
        pos = np.flatnonzero(valid).astype(np.int64)
        return self._h[valid], self.doc_idx[pos], pos


def _gram_pos(fh: np.ndarray, counts: np.ndarray, w: int):
    """Like decontam.gram_hashes but also returns each valid gram's
    START index into the flat token array."""
    return _GramCursor(fh, counts).at(w)


def _gram_runs(gh, gdoc, gpos):
    """(doc, gram) runs ordered by start position, and per run: doc,
    earliest start position and the row of that occurrence."""
    r = segments.runs((gdoc, gh), (gpos,))
    head = r.order[r.starts]
    return r, gdoc[head], gpos[head], head


def gopher_repetition_batch(batch: pa.Table, *, top_ns=(2, 3, 4),
                            dup_ns=(5, 6, 7, 8, 9, 10),
                            text_col: str = "text",
                            id_col: str = "doc_id") -> pa.Table:
    """The char-fraction half of the published Gopher repetition rules
    (the count-based half lives in :func:`repetition_batch`):

    - ``top_{n}gram_char_frac`` (n = 2..4): occurrences of the doc's
      most frequent n-gram × the gram's character length ÷ the doc's
      character length.  Tie on count → the gram occurring EARLIEST in
      the doc (string-computable, so the plain reference needs no hash).
    - ``dup_{n}gram_char_frac`` (n = 5..10): fraction of the doc's
      characters covered by AT LEAST one n-gram that occurs more than
      once — overlaps counted ONCE (interval union over token + gap
      coverage via two bincount difference arrays; `np.add.at` is
      ~1 µs/element, note 7).

    Character spans follow the original string: a gram covers its
    tokens plus the separators between them; the denominator is
    ``len(text)``.  Fully vectorized; per-doc fractions are exact
    int/int float64 divisions, so the pinned fixture's plain per-doc
    reference (tools/reference_impls.py:gopher_repetition_reference)
    must match byte-for-byte."""
    # fractions are pure functions of the text: compute per DISTINCT
    # text and gather (the dup-heavy shape pays for unique content
    # only — the 9 per-width lexsorts dominate this kernel)
    uniq, inverse = _distinct_texts(batch.column(text_col))
    col = pa.array(uniq, type=pa.string())
    n_chars = pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
    denom = np.maximum(n_chars, 1).astype(np.float64)
    toks = pc.split_pattern(col, " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = toks.flatten()
    tok_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    fh = _hash64_arrow(flat)
    n_docs = len(counts)
    n_flat = len(fh)
    csum = np.r_[0, np.cumsum(tok_len)]

    out = {id_col: batch.column(id_col)}
    # the cursor hands out widths in increasing order; precompute the
    # gram streams for every requested width so callers may pass the
    # two tuples in any order
    cursor = _GramCursor(fh, counts)
    grams = {n: cursor.at(n) for n in sorted(set(top_ns) | set(dup_ns))}

    for n in top_ns:
        frac = np.zeros(n_docs, dtype=np.float64)
        gh, gdoc, gpos = grams[n]
        if len(gh):
            glen = csum[gpos + n] - csum[gpos] + (n - 1)  # chars incl. gaps
            r, run_doc, run_first, head = _gram_runs(gh, gdoc, gpos)
            run_len, run_chars = r.sizes, glen[head]
            # per doc, the most frequent gram; a tie → the earliest
            chosen = segments.first(segments.runs(run_doc, (-run_len, run_first))).data
            num = (run_len[chosen] * run_chars[chosen]).astype(np.float64)
            frac[run_doc[chosen]] = num / denom[run_doc[chosen]]
        out[f"top_{n}gram_char_frac"] = pa.array(frac[inverse])

    for n in dup_ns:
        frac = np.zeros(n_docs, dtype=np.float64)
        gh, gdoc, gpos = grams[n]
        if len(gh):
            r = _gram_runs(gh, gdoc, gpos)[0]
            # per-position occurrence count: run length back-scattered
            pos_count = np.empty(len(gh), dtype=np.int64)
            pos_count[r.order] = np.repeat(r.sizes, r.sizes)
            dup_pos = gpos[pos_count >= 2]
            if len(dup_pos):
                # token coverage [p, p+n) and gap coverage [p, p+n-1)
                tok_cov = np.cumsum(
                    np.bincount(dup_pos, minlength=n_flat + 1)[:n_flat]
                    - np.bincount(dup_pos + n, minlength=n_flat + 1)[:n_flat]
                ) > 0
                gap_cov = np.cumsum(
                    np.bincount(dup_pos, minlength=n_flat + 1)[:n_flat]
                    - np.bincount(dup_pos + n - 1, minlength=n_flat + 1)[:n_flat]
                ) > 0
                covered = _segment_sums(tok_len * tok_cov, counts)
                gaps = _segment_sums(gap_cov.astype(np.int64), counts)
                # a doc's LAST token has no following gap inside the doc;
                # gram validity guarantees gap_cov is False there, so the
                # per-doc segment sum over flat indices is exact
                frac = (covered + gaps).astype(np.float64) / denom
        out[f"dup_{n}gram_char_frac"] = pa.array(frac[inverse])

    return pa.table(out)


# ---------------------------------------------------------------------------
# winnowing fingerprints (Schleimer/Wilkerson/Aiken, SIGMOD 2003)
# ---------------------------------------------------------------------------

def winnow_batch(batch: pa.Table, *, k: int = 3, w: int = 4,
                 text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Winnowed document fingerprints: hash every word k-gram, then in
    each window of ``w`` consecutive k-gram hashes keep the MINIMUM
    (ties → rightmost, the published rule); the distinct selected
    (position, hash) pairs are the doc's fingerprints.

    The published guarantee: any substring match of at least
    ``w + k - 1`` tokens between two docs shares at least one selected
    fingerprint, while only ~2/(w+1) of all gram hashes survive — the
    sampling that cuts a cross-doc duplicate-detection exchange by ~w×
    versus shipping every gram (``stages/corpus.py:dup_ngram_stats``).
    A doc with fewer than ``w`` k-grams (but ≥ 1) contributes the
    minimum of what it has; docs with < k tokens contribute nothing.

    Fully vectorized: the gram ladder + one strided (n_windows × w)
    minimum with a flipped-argmin rightmost tie-break, chunked so the
    temporary stays bounded.  Output: one row per distinct selected
    fingerprint — (id, fp int64 = the uint64 gram hash viewed signed,
    token_pos).  Hashes never leave the engine except through the
    pinned fixture, which regenerates with the shared definitional
    hash (tools/reference_impls.py:winnow_reference)."""
    if k < 1 or w < 1:
        raise ValueError("winnow_batch: require k >= 1 and w >= 1")
    col = batch.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")
    toks = pc.split_pattern(col, " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    fh = _hash64_arrow(toks.flatten())
    ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)

    gh, gdoc, gpos = _GramCursor(fh, counts).at(k)
    n_grams = len(gh)
    out_id: list[np.ndarray] = []
    out_fp: list[np.ndarray] = []
    out_pos: list[np.ndarray] = []
    if n_grams:
        # gram runs are doc-contiguous; per-doc gram counts
        gcounts = np.bincount(gdoc, minlength=len(counts))
        # windows of w grams, clamped to min(w, doc grams) per doc:
        # handled by evaluating FULL windows over the flat array and
        # masking doc-crossing ones, plus one whole-doc window for
        # docs with 1 <= grams < w
        n_win = n_grams - w + 1
        if n_win > 0:
            from numpy.lib.stride_tricks import sliding_window_view

            win = sliding_window_view(gh, w)           # (n_win, w) view
            wdoc_ok = gdoc[:n_win] == gdoc[w - 1:]
            # rightmost argmin: flip columns, argmin takes the FIRST
            # (= rightmost in original order) minimal entry
            rel = w - 1 - np.argmin(win[:, ::-1], axis=1)
            sel = (np.arange(n_win) + rel)[wdoc_ok]
            out_id.append(gdoc[sel])
            out_fp.append(gh[sel].view(np.int64))
            out_pos.append(gpos[sel])
        small = np.flatnonzero((gcounts >= 1) & (gcounts < w))
        if len(small):
            gstarts = np.r_[0, np.cumsum(gcounts)][:-1]
            for d in small:  # rare tail: tiny docs only
                lo, hi = gstarts[d], gstarts[d] + gcounts[d]
                seg = gh[lo:hi]
                rel = len(seg) - 1 - int(np.argmin(seg[::-1]))
                out_id.append(np.array([d], dtype=np.int64))
                out_fp.append(seg[rel:rel + 1].view(np.int64))
                out_pos.append(gpos[lo + rel:lo + rel + 1])
    if out_id:
        rdoc = np.concatenate(out_id)
        rfp = np.concatenate(out_fp)
        rpos = np.concatenate(out_pos)
        # distinct (doc, pos) selections — adjacent windows often pick
        # the same gram; that dedup IS the winnowing compression
        keep = segments.first(segments.runs((rdoc, rpos))).data
        rdoc, rfp, rpos = rdoc[keep], rfp[keep], rpos[keep]
    else:
        rdoc = np.empty(0, dtype=np.int64)
        rfp = np.empty(0, dtype=np.int64)
        rpos = np.empty(0, dtype=np.int64)
    # token_pos is doc-relative: subtract the doc's flat base
    doc_base = np.r_[0, np.cumsum(counts)][:-1]
    return pa.table({
        id_col: pa.array(ids[rdoc] if len(rdoc) else rdoc),
        "fp": pa.array(rfp),
        "token_pos": pa.array(rpos - doc_base[rdoc] if len(rdoc) else rpos),
    })


def _winnow_doc_counts(batch: pa.Table, k: int, w: int,
                       text_col: str, id_col: str) -> pa.Table:
    """Per-batch (fp, doc_id, cnt) rows over the WINNOWED selections —
    the thin side of :func:`winnow_dup_stats`'s exchange.  Docs that
    produced no fingerprints (fewer than k tokens) emit one
    (0, doc_id, 0) marker row so they survive with ``n_fp = 0``
    (cnt = 0 rows are excluded from the per-fp dup test), exactly the
    :func:`stages.corpus._gram_doc_counts` contract."""
    fps = winnow_batch(batch, k=k, w=w, text_col=text_col, id_col=id_col)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    if fps.num_rows:
        df = pd.DataFrame({"g": fps.column("fp").to_numpy(),
                           "d": fps.column(id_col).to_numpy()})
        agg = df.groupby(["g", "d"], sort=False).size().reset_index(name="cnt")
        g_out = agg["g"].to_numpy(dtype=np.int64)
        d_out = agg["d"].to_numpy(dtype=np.int64)
        c_out = agg["cnt"].to_numpy(dtype=np.int64)
        seen_ids = set(int(x) for x in np.unique(d_out))
    else:
        g_out = np.empty(0, dtype=np.int64)
        d_out = np.empty(0, dtype=np.int64)
        c_out = np.empty(0, dtype=np.int64)
        seen_ids = set()
    missing = np.array([i for i in ids if int(i) not in seen_ids], dtype=np.int64)
    if len(missing):
        g_out = np.concatenate([g_out, np.zeros(len(missing), dtype=np.int64)])
        d_out = np.concatenate([d_out, missing])
        c_out = np.concatenate([c_out, np.zeros(len(missing), dtype=np.int64)])
    return pa.table({"g": pa.array(g_out), "d": pa.array(d_out),
                     "cnt": pa.array(c_out)})


def winnow_dup_stats(ds, *, k: int = 3, w: int = 4, num_partitions: int = 32,
                     text_col: str = "text", id_col: str = "doc_id"):
    """Per-doc count/fraction of winnowed fingerprints that occur in at
    least one OTHER document — the cross-doc duplicate signal of
    ``stages/corpus.py:dup_ngram_stats`` computed over the winnowed
    SAMPLE instead of every gram position.  Same two thin co-partition
    exchanges (by fp, then by doc), but the fp side carries only
    ~2/(w+1) of the gram volume while the winnowing guarantee keeps
    every shared run of ≥ w+k-1 tokens detectable — the sampling that
    makes this affordable at 100 TB when full-gram stats are not."""
    pairs = ds.map_batches(
        lambda b: _winnow_doc_counts(b, k, w, text_col, id_col),
        batch_format="pyarrow",
    )
    partials = exchange(pairs, "g", num_partitions, _dup_partials, "pandas")

    def final(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("doc_id", sort=False)[["n_grams", "n_dup"]].sum().reset_index()
        n = agg["n_grams"].to_numpy(dtype=np.int64)
        d = agg["n_dup"].to_numpy(dtype=np.int64)
        frac = np.divide(d, n, out=np.zeros(len(n), dtype=np.float64), where=n > 0)
        return pa.table({
            "doc_id": pa.array(agg["doc_id"].to_numpy(dtype=np.int64)),
            "n_fp": pa.array(n),
            "n_dup_fp": pa.array(d),
            "dup_fp_frac": pa.array(frac),
        })

    return exchange(partials, "doc_id", num_partitions, final, "pandas")


# ---------------------------------------------------------------------------
# token-entropy quality signal (Shannon entropy of the doc's unigram
# distribution — the information-density cousin of repetition_batch)
# ---------------------------------------------------------------------------

def token_entropy_batch(batch: pa.Table, text_col: str = "text",
                        id_col: str = "doc_id") -> pa.Table:
    """Per-doc Shannon entropy of the token distribution:
    ``H = ln(n) - (Σ c·ln c)/n`` over unigram counts ``c``, plus the
    ``H / ln(n_distinct)`` normalization (0 when a doc has one distinct
    token — a repetition-insensitive [0, 1] quality score).

    Stateless and fully vectorized: one ``flat_token_hashes`` split and
    one run per (doc, hash) for the counts.  The per-doc Σ uses the
    repo's int64 fixed-point idiom (``floor(c·ln c · 2³² + ½)`` —
    exact integer sums are order-independent, unlike float addition,
    where even a segment sum's pairwise order breaks ULP parity
    with a sequential reference), so the value is deterministic under
    any batching/token order at ~2⁻³² relative quantization — the
    pinned-fixture oracle relies on this.
    """
    fh, counts = flat_token_hashes(batch.column(text_col))
    n_docs = len(counts)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), counts)

    # run lengths per (doc, token-hash) — c values
    r = segments.runs((doc_idx, fh))
    rl = r.sizes.astype(np.float64)
    addend = np.floor(rl * np.log(rl) * 2.0**32 + 0.5).astype(np.int64)
    docs = segments.runs(doc_idx[r.order[r.starts]])
    s_fp = np.zeros(n_docs, dtype=np.int64)
    n_distinct = np.zeros(n_docs, dtype=np.int64)
    d = doc_idx[r.order[r.starts]][docs.starts]
    s_fp[d] = segments.sum(docs, addend)
    n_distinct[d] = docs.sizes
    n = counts.astype(np.float64)  # '' splits to [''] → n >= 1
    entropy = np.log(n) - (s_fp.astype(np.float64) / 2.0**32) / n
    denom = np.log(n_distinct.astype(np.float64))
    norm = np.divide(entropy, denom, out=np.zeros(n_docs, dtype=np.float64),
                     where=n_distinct > 1)
    return pa.table({
        id_col: batch.column(id_col),
        "n_tokens": pa.array(counts),
        "n_distinct": pa.array(n_distinct),
        "token_entropy": pa.array(entropy),
        "norm_entropy": pa.array(norm),
    })


# ---------------------------------------------------------------------------
# corpus-wide PMI bigram statistics
# ---------------------------------------------------------------------------

def _bigram_pair_counts(t: pa.Table, text_col: str) -> pa.Table:
    """Per-batch (tok1, tok2, cnt) partial counts over adjacent token
    pairs — one dictionary-encode per side, pairs deduped by combined
    code, so the exchange carries each batch's DISTINCT pairs once."""
    col = t.column(text_col)
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    toks = pc.split_pattern(pc.fill_null(col, ""), " ")
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = toks.flatten()
    n_flat = len(flat)
    if n_flat == 0:
        return pa.table({"tok1": pa.array([], type=pa.string()),
                         "tok2": pa.array([], type=pa.string()),
                         "cnt": pa.array([], type=pa.int64())})
    # positions whose successor is in the same doc
    ends = np.cumsum(lens)  # exclusive doc ends in flat coords
    valid = np.ones(n_flat, dtype=bool)
    valid[ends - 1] = False  # last token of each doc starts no bigram
    pos = np.flatnonzero(valid)
    de = flat.dictionary_encode()
    codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    k = len(de.dictionary)
    combo = codes[pos] * np.int64(k) + codes[pos + 1]
    uniq, first, cnt = np.unique(combo, return_index=True, return_counts=True)
    p = pos[first]
    return pa.table({
        "tok1": de.dictionary.take(pa.array(codes[p])),
        "tok2": de.dictionary.take(pa.array(codes[p + 1])),
        "cnt": pa.array(cnt.astype(np.int64)),
    })


def pmi_bigrams(ds, *, min_count: int = 5, num_partitions: int = 32,
                text_col: str = "text"):
    """Corpus-wide pointwise mutual information of adjacent token
    pairs: every bigram with global count ≥ ``min_count``, its
    marginals, and ``pmi = ln(n_pair·N / (n_first·n_second))`` where
    all probabilities come from the bigram stream (``n_first`` = count
    of bigrams starting with tok1, ``n_second`` = ending with tok2,
    ``N`` = total bigrams).

    Distributed shape — text tokens leave each batch once, as deduped
    (tok1, tok2, cnt) partials; no driver-side vocabulary:

    1. partition partials BY TOK1: one exchange merges pair counts
       (all rows of a pair share tok1) AND yields ``n_first`` as a
       partition-local sum — no separate unigram pass;
    2. partition the merged rows BY TOK2: ``n_second`` is again a
       local sum; candidates filter to ``cnt ≥ min_count`` and PMI
       evaluates there.  ``N`` is one scalar from a shuffle-free
       column-pruned pass over the text.

    A pathologically hot first token concentrates its pairs in one
    partition (same caveat as the gram exchanges in
    stages/corpus.py:dup_ngram_stats); rows are (string, string,
    int64) thin either way.

    Determinism: counts are exact int64; each PMI is
    ``math.log((p·N)/(f·s))`` evaluated per OUTPUT row — glibc ``log``
    of a correctly-rounded double, bit-identical to DuckDB's ``ln`` of
    the same expression (NumPy's vectorized log is NOT used: its SIMD
    path may differ from libm in the last bit).  The loop is bounded
    by the candidate count, not the corpus.
    """
    import math

    n_total = ds.map_batches(
        lambda t: pa.table({"nb": pa.array([int(np.maximum(
            pc.list_value_length(pc.split_pattern(
                pc.fill_null(t.column(text_col), ""), " "))
            .to_numpy(zero_copy_only=False).astype(np.int64) - 1, 0).sum())],
            type=pa.int64())}),
        batch_format="pyarrow",
    ).sum("nb")

    partials = ds.map_batches(
        lambda t: _bigram_pair_counts(t, text_col),
        batch_format="pyarrow",
    )

    def merge_by_tok1(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby(["tok1", "tok2"], sort=False)["cnt"].sum().reset_index()
        first = agg.groupby("tok1", sort=False)["cnt"].transform("sum")
        return pa.table({
            "tok1": pa.array(agg["tok1"].to_numpy(), type=pa.string()),
            "tok2": pa.array(agg["tok2"].to_numpy(), type=pa.string()),
            "n_pair": pa.array(agg["cnt"].to_numpy(dtype=np.int64)),
            "n_first": pa.array(first.to_numpy(dtype=np.int64)),
        })

    def finish_by_tok2(df: pd.DataFrame) -> pa.Table:
        second = df.groupby("tok2", sort=False)["n_pair"].transform("sum")
        keep = df["n_pair"].to_numpy(dtype=np.int64) >= min_count
        p = df["n_pair"].to_numpy(dtype=np.int64)[keep]
        f = df["n_first"].to_numpy(dtype=np.int64)[keep]
        s = second.to_numpy(dtype=np.int64)[keep]
        n = float(n_total)
        pmi = np.array(
            [math.log((float(pi) * n) / (float(fi) * float(si)))
             for pi, fi, si in zip(p, f, s)],
            dtype=np.float64,
        )
        return pa.table({
            "tok1": pa.array(df["tok1"].to_numpy()[keep], type=pa.string()),
            "tok2": pa.array(df["tok2"].to_numpy()[keep], type=pa.string()),
            "n_pair": pa.array(p),
            "n_first": pa.array(f),
            "n_second": pa.array(s),
            "pmi": pa.array(pmi),
        })

    by_tok1 = exchange(partials, "tok1", num_partitions, merge_by_tok1, "pandas")
    return exchange(by_tok1, "tok2", num_partitions, finish_by_tok2, "pandas")


# ---------------------------------------------------------------------------
# corpus keyness (Dunning log-likelihood between two sub-corpora)
# ---------------------------------------------------------------------------


def token_keyness(ds, *, side_col: str, side_a, text_col: str = "text",
                  min_count: int = 10, num_partitions: int = 32):
    """Dunning log-likelihood (G²) keyness of every token between two
    sub-corpora — the published corpus-linguistics statistic for
    "which tokens are over-represented where" (Dunning 1993), the
    distribution-drift diagnostic a curation pipeline runs when mixing
    sources.  Side A = rows where ``side_col == side_a``; B = the rest.
    Output per token with combined count ≥ ``min_count``:
    (token, n_a, n_b, g2, direction) where
    ``g2 = 2·(a·ln(a/e1) + b·ln(b/e2))``, ``e1 = Na·(a+b)/(Na+Nb)``,
    zero-count terms contribute 0, and ``direction`` marks the
    over-represented side by the exact integer cross-product test
    ``a·Nb > b·Na`` (no float ratio — exact at any count magnitude).

    Distributed shape: tokens leave each batch once as deduped
    (token, n_a, n_b) partials; ONE exchange by token merges counts
    and scores candidates partition-locally.  Totals Na/Nb are two
    int64 scalars from a shuffle-free pass (no vocabulary at the
    driver).  Each G² term is ``math.log`` per OUTPUT row — glibc log
    of a correctly-rounded double, bit-identical to DuckDB's ``ln`` of
    the same expression (the loop is bounded by candidates, not the
    corpus)."""
    import math

    def side_counts(t: pa.Table):
        col = t.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pc.split_pattern(pc.fill_null(col, ""), " ")
        counts = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        side = pc.fill_null(
            pc.equal(t.column(side_col), pa.scalar(side_a)), False
        ).to_numpy(zero_copy_only=False)
        return toks, counts, side

    def totals(t: pa.Table) -> pa.Table:
        _, counts, side = side_counts(t)
        return pa.table({
            "na": pa.array([int(counts[side].sum())], type=pa.int64()),
            "nb": pa.array([int(counts[~side].sum())], type=pa.int64()),
        })

    tot = ds.map_batches(totals, batch_format="pyarrow").sum(["na", "nb"])
    n_a_tot, n_b_tot = int(tot["sum(na)"]), int(tot["sum(nb)"])

    def partials(t: pa.Table) -> pa.Table:
        toks, counts, side = side_counts(t)
        flat = toks.flatten()
        is_a = np.repeat(side, counts).astype(np.int64)
        df = pd.DataFrame({"token": flat.to_pandas().to_numpy(dtype=object),
                           "a": is_a})
        g = df.groupby("token", sort=False)["a"]
        n_a = g.sum()
        n_all = g.size()
        out = pa.table({
            "token": pa.array(n_a.index.to_numpy(dtype=object), type=pa.string()),
            "n_a": pa.array(n_a.to_numpy(dtype=np.int64)),
            "n_b": pa.array((n_all - n_a).to_numpy(dtype=np.int64)),
        })
        return out

    def finish(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("token", sort=False)[["n_a", "n_b"]].sum().reset_index()
        a = agg["n_a"].to_numpy(dtype=np.int64)
        b = agg["n_b"].to_numpy(dtype=np.int64)
        keep = (a + b) >= min_count
        a, b = a[keep], b[keep]
        n = float(n_a_tot + n_b_tot)
        g2 = np.empty(len(a), dtype=np.float64)
        direction = np.empty(len(a), dtype=object)
        for j in range(len(a)):
            ai, bi = int(a[j]), int(b[j])
            e1 = (float(n_a_tot) * float(ai + bi)) / n
            e2 = (float(n_b_tot) * float(ai + bi)) / n
            ta = float(ai) * math.log(float(ai) / e1) if ai > 0 else 0.0
            tb = float(bi) * math.log(float(bi) / e2) if bi > 0 else 0.0
            g2[j] = 2.0 * (ta + tb)
            direction[j] = "a" if ai * n_b_tot > bi * n_a_tot else "b"
        return pa.table({
            "token": pa.array(agg["token"].to_numpy(dtype=object)[keep],
                              type=pa.string()),
            "n_a": pa.array(a),
            "n_b": pa.array(b),
            "g2": pa.array(g2),
            "direction": pa.array(direction, type=pa.string()),
        })

    return exchange(ds.map_batches(partials, batch_format="pyarrow"), "token",
                    num_partitions, finish, "pandas")


# ---------------------------------------------------------------------------
# compression-ratio quality signal
# ---------------------------------------------------------------------------


def compression_ratio_batch(batch: pa.Table, text_col: str = "text",
                            id_col: str = "doc_id", level: int = 6) -> pa.Table:
    """Per-doc zlib compression ratio — the cheap repetition/boilerplate
    proxy several published curation recipes gate on (highly repetitive
    or templated text compresses far below prose; random noise barely
    compresses).  ``ratio = compressed_bytes / max(1, utf8_bytes)``.

    Stateless batch kernel; the per-row cost is one C zlib call (no
    Python-level loop work beyond dispatch).  DEFLATE output for a
    given (input, level) is deterministic for the pinned zlib build, so
    the fixture from the plain reference is byte-stable."""
    import zlib

    col = batch.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    texts = col.to_pylist()
    n = len(texts)
    raw = np.zeros(n, dtype=np.int64)
    comp = np.zeros(n, dtype=np.int64)
    for i, t in enumerate(texts):
        b = (t or "").encode("utf-8")
        raw[i] = len(b)
        comp[i] = len(zlib.compress(b, level))
    ratio = comp.astype(np.float64) / np.maximum(raw, 1).astype(np.float64)
    return pa.table({
        id_col: batch.column(id_col),
        "n_bytes": pa.array(raw),
        "z_bytes": pa.array(comp),
        "z_ratio": pa.array(ratio),
    })


# ---------------------------------------------------------------------------
# exact per-group top-k tokens (top terms per language / source)
# ---------------------------------------------------------------------------


def group_top_tokens(ds, *, group_col: str, k: int = 10,
                     text_col: str = "text", num_partitions: int = 32):
    """Exact top-``k`` tokens by count per group (e.g. top terms per
    language) with rank — the GROUP BY twin of the global
    heavy-hitter pass, tie-break (count desc, token asc).

    Distributed shape: deduped (group, token, cnt) partials leave each
    batch once; ONE exchange by token merges counts (all rows of a
    (group, token) pair share the token, so counts finalize
    partition-locally) and prunes each group to its per-partition
    top-k — the global top-k is a subset of the union of per-partition
    top-k's once counts are final, so the second exchange (by group)
    carries at most k rows per group per partition and selection is
    local.  No driver-side vocabulary.  NULL group keys are excluded
    (the SQL twin filters them; mirror with WHERE group IS NOT NULL)."""

    def partials(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        toks = pc.split_pattern(pc.fill_null(col, ""), " ")
        counts = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        grp = t.column(group_col).to_pandas().to_numpy(dtype=object)
        df = pd.DataFrame({
            "g": np.repeat(grp, counts),
            "token": toks.flatten().to_pandas().to_numpy(dtype=object),
        })
        cnt = df.groupby(["g", "token"], sort=False).size().reset_index(name="cnt")
        out = pa.table({
            "g": pa.array(cnt["g"].to_numpy(dtype=object), type=pa.string()),
            "token": pa.array(cnt["token"].to_numpy(dtype=object),
                              type=pa.string()),
            "cnt": pa.array(cnt["cnt"].to_numpy(dtype=np.int64)),
        })
        return out

    def _topk_frame(df: pd.DataFrame) -> pd.DataFrame:
        # rank by (cnt desc, token asc) within group, keep <= k
        df = df.sort_values(["g", "cnt", "token"],
                            ascending=[True, False, True], kind="mergesort")
        rnk = df.groupby("g", sort=False).cumcount() + 1
        return df[rnk <= k].assign(rnk=rnk[rnk <= k])

    def merge_prune(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby(["g", "token"], sort=False)["cnt"].sum().reset_index()
        pruned = _topk_frame(agg)
        return pa.table({
            "g": pa.array(pruned["g"].to_numpy(dtype=object), type=pa.string()),
            "token": pa.array(pruned["token"].to_numpy(dtype=object),
                              type=pa.string()),
            "cnt": pa.array(pruned["cnt"].to_numpy(dtype=np.int64)),
        })

    def finish(df: pd.DataFrame) -> pa.Table:
        top = _topk_frame(df[["g", "token", "cnt"]])
        return pa.table({
            group_col: pa.array(top["g"].to_numpy(dtype=object),
                                type=pa.string()),
            "token": pa.array(top["token"].to_numpy(dtype=object),
                              type=pa.string()),
            "cnt": pa.array(top["cnt"].to_numpy(dtype=np.int64)),
            "rnk": pa.array(top["rnk"].to_numpy(dtype=np.int64)),
        })

    pruned = exchange(ds.map_batches(partials, batch_format="pyarrow"), "token",
                      num_partitions, merge_prune, "pandas")
    return exchange(pruned, "g", num_partitions, finish, "pandas")


# ---------------------------------------------------------------------------
# blocklist phrase filter (C4-style badword/boilerplate gating)
# ---------------------------------------------------------------------------

def blocklist_flag_batch(batch: pa.Table, phrases: list[str],
                         text_col: str = "text",
                         id_col: str = "doc_id") -> pa.Table:
    """Per-doc blocklist hits: how many of ``phrases`` occur as a
    (lowercased) substring, plus the keep/drop flag — the published C4
    recipe gates docs on a phrase blocklist exactly like this.

    Stateless and vectorized: one ``utf8_lower`` pass then one Arrow
    ``match_substring`` kernel per phrase (K small passes over
    contiguous buffers beats one giant alternation regex for K in the
    tens).  SQL twin: ``contains(lower(text), p)`` summed per phrase."""
    low = pc.utf8_lower(pc.fill_null(batch.column(text_col), ""))
    n = batch.num_rows
    hits = np.zeros(n, dtype=np.int64)
    for p in phrases:
        m = pc.match_substring(low, p.lower()).to_numpy(zero_copy_only=False)
        hits += m.astype(np.int64)
    return pa.table({
        id_col: batch.column(id_col),
        "n_blocklist_hits": pa.array(hits),
        "blocked": pa.array(hits > 0),
    })


# ---------------------------------------------------------------------------
# OOV rate against an exact top-V corpus vocabulary
# ---------------------------------------------------------------------------

def oov_score_batch(batch: pa.Table, vocab: pa.Array,
                    text_col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
    """Per-doc out-of-vocabulary stats against a broadcast vocabulary:
    ``n_oov`` tokens not in ``vocab``, and the single-division rate
    (IEEE-deterministic, bit-identical to SQL's
    ``CAST(n_oov AS DOUBLE)/n_tokens``).  One Arrow ``is_in`` over the
    flattened tokens + one segment sum per doc — no per-row loop."""
    col = batch.column(text_col)
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    toks = pc.split_pattern(pc.fill_null(col, ""), " ")
    counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = toks.flatten()
    inv = pc.is_in(flat, value_set=vocab).to_numpy(zero_copy_only=False)
    n_oov = _segment_sums((~inv).astype(np.int64), counts)
    rate = n_oov.astype(np.float64) / counts.astype(np.float64)
    return pa.table({
        id_col: batch.column(id_col),
        "n_tokens": pa.array(counts),
        "n_oov": pa.array(n_oov),
        "oov_rate": pa.array(rate),
    })


def oov_rate(ds, *, vocab_size: int = 30, text_col: str = "text",
             id_col: str = "doc_id", num_partitions: int = 32):
    """OOV scoring pipeline: exact global top-``vocab_size`` tokens
    (cnt desc / token asc tie-break — the two-phase
    stages/sketches.py:top_k_tokens exchange, whose shuffle is distinct
    tokens × batches) collected as O(V) driver state, broadcast once
    via ``ray.put``, then ONE stateless scoring pass."""
    import ray

    vocab_tbl = top_k_tokens(ds, k=vocab_size, text_col=text_col,
                             num_partitions=num_partitions).to_pandas()
    vocab = pa.array(vocab_tbl["token"].tolist(), type=pa.string())
    ref = ray.put(vocab)

    def score(t: pa.Table) -> pa.Table:
        return oov_score_batch(t, ray.get(ref), text_col, id_col)

    return ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# text normalization (curation preprocessing)
# ---------------------------------------------------------------------------

def normalize_text_batch(batch: pa.Table, text_col: str = "text",
                         id_col: str = "doc_id") -> pa.Table:
    """Aggressive web-text normalization: strip non-ASCII codepoints,
    lowercase, strip everything but ``[a-z0-9_ ]``, squeeze runs of
    spaces, trim — the canonical form fed to exact dedup / n-gram
    stats so trivially-reformatted copies collide.

    All five steps are codepoint-level RE2 / ASCII kernels, so the
    result is bit-identical to the DuckDB twin (Arrow's
    ``utf8_normalize`` is deliberately NOT used: this pyarrow build
    does not compose combining marks, so an NFC step would diverge
    from SQL's ``nfc_normalize``).  Stateless map — no shuffle."""
    col = batch.column(text_col)
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    x = pc.replace_substring_regex(col, r"[^ -~]", "")
    x = pc.utf8_lower(x)
    x = pc.replace_substring_regex(x, r"[^a-z0-9_ ]", "")
    x = pc.replace_substring_regex(x, r" +", " ")
    x = pc.utf8_trim_whitespace(x)
    return pa.table({
        id_col: batch.column(id_col),
        "norm_text": x,
        "n_chars_norm": pc.utf8_length(pc.fill_null(x, "")).cast(pa.int64()),
    })


# ---------------------------------------------------------------------------
# PII scrubbing (curation-side redaction: emails / IPv4 / phone numbers)
# ---------------------------------------------------------------------------

#: (pattern, replacement) in application order — email first (its
#: local part may contain digits a later rule would mangle), then
#: IPv4 (dots break the phone pattern, so phone can't eat octets),
#: then phone.  RE2 syntax only: DuckDB's regexp_replace is RE2 too,
#: so the SQL twin applies the IDENTICAL patterns byte-for-byte.
PII_RULES: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    (r"\+?\d[\d-]{7,}\d", "<PHONE>"),
]


def pii_scrub_batch(batch: pa.Table, text_col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
    """Scrub emails / IPv4 addresses / phone numbers from ``text_col``
    (the document-corpus counterpart of the transcript ``redact``
    processor): K global RE2 replacements over contiguous Arrow
    buffers, plus per-kind hit counts — stateless, no shuffle."""
    col = batch.column(text_col)
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    counts = {}
    x = col
    for (pat, repl), name in zip(PII_RULES, ("n_emails", "n_ips", "n_phones")):
        counts[name] = pc.count_substring_regex(
            pc.fill_null(x, ""), pat).cast(pa.int64())
        x = pc.replace_substring_regex(x, pat, repl)
    return pa.table({
        id_col: batch.column(id_col),
        "scrubbed": x,
        **counts,
    })


# ---------------------------------------------------------------------------
# log template mining (Drain-family position-wildcard templates)
# ---------------------------------------------------------------------------

def log_templates(ds, *, text_col: str = "text", wildcard: str = "<*>",
                  num_partitions: int = 32):
    """Mine log-line templates: lines group by token count, and each
    token position that varies within the group becomes a wildcard —
    the deterministic core of the Drain-family log-template miners
    (per-position variability instead of Drain's online similarity
    tree, so the result is a pure function of the corpus).

    Output: one row per group — (n_tokens, template, n_lines).

    Shape: batches forward DISTINCT (group, position, token) triples
    (a million identical log lines forward one triple per position)
    plus one (group, count) row per batch; ONE exchange by group, then
    a per-partition pandas pass computes per-position distinct counts
    and joins the template string.  SQL twin: parallel
    ``unnest(range(...)) / unnest(tokens)`` + ``count(DISTINCT)`` +
    ordered ``string_agg``."""

    def partial(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        toks = pc.split_pattern(pc.fill_null(col, ""), " ")
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = toks.flatten()
        n_flat = len(flat)
        if n_flat == 0:
            return pa.table({
                "grp": pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64()),
                "tok": pa.array([], type=pa.string()),
                "cnt": pa.array([], type=pa.int64()),
            })
        grp = np.repeat(lens, lens)
        ends = np.cumsum(lens)
        pos = np.arange(n_flat, dtype=np.int64) - np.repeat(ends - lens, lens) + 1
        de = flat.dictionary_encode()
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        k = np.int64(len(de.dictionary))
        max_pos = np.int64(int(pos.max()) + 1)
        combo = (grp * max_pos + pos) * k + codes
        uniq, first = np.unique(combo, return_index=True)
        f = pa.array(first, type=pa.int64())
        triples = pa.table({
            "grp": pa.array(grp[first]),
            "pos": pa.array(pos[first]),
            "tok": flat.take(f),
            "cnt": pa.array(np.zeros(len(first), dtype=np.int64)),
        })
        gu, gc = np.unique(lens, return_counts=True)
        counts = pa.table({
            "grp": pa.array(gu.astype(np.int64)),
            "pos": pa.array(np.full(len(gu), -1, dtype=np.int64)),
            "tok": pa.nulls(len(gu), pa.string()),
            "cnt": pa.array(gc.astype(np.int64)),
        })
        return pa.concat_tables([triples, counts])

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        lines = (df[df["pos"] == -1].groupby("grp", sort=False)["cnt"].sum())
        tok = df[df["pos"] >= 0]
        pp = (tok.drop_duplicates(["grp", "pos", "tok"])
              .groupby(["grp", "pos"], sort=False)
              .agg(nd=("tok", "size"), mn=("tok", "min")).reset_index())
        pp["piece"] = np.where(pp["nd"].to_numpy() > 1, wildcard, pp["mn"])
        pp = pp.sort_values(["grp", "pos"], kind="mergesort")
        tpl = pp.groupby("grp", sort=False)["piece"].agg(" ".join)
        out = pd.DataFrame({
            "n_tokens": tpl.index.to_numpy(dtype=np.int64),
            "template": tpl.to_numpy(),
            "n_lines": lines.reindex(tpl.index).to_numpy(dtype=np.int64),
        })
        return out

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), "grp",
                    num_partitions, merge, "pandas")


# ---------------------------------------------------------------------------
# Unicode text cleaning: strip + NFC normalization (ftfy-lite)
# ---------------------------------------------------------------------------

#: zero-width chars + C0 controls (minus \t \n \r) + DEL — the
#: characters web-crawl curation drops before tokenization; the class
#: is shared CHARACTER-FOR-CHARACTER with the SQL twin's RE2 form
_CLEAN_CLASS_SQL = (r"[\x{200B}\x{200C}\x{200D}\x{FEFF}"
                    r"\x{00}-\x{08}\x{0B}\x{0C}\x{0E}-\x{1F}\x{7F}]")
_CLEAN_RE = None


def _clean_re():
    global _CLEAN_RE
    if _CLEAN_RE is None:
        import re

        _CLEAN_RE = re.compile(
            "[​‌‍﻿"
            "\x00-\x08\x0b\x0c\x0e-\x1f\x7f]")
    return _CLEAN_RE


def clean_text_batch(batch: pa.Table, *, text_col: str = "text",
                     out_col: str = "clean_text") -> pa.Table:
    """Unicode normalization for corpus curation: strip zero-width /
    control characters, then NFC-compose (combining sequences fold to
    precomposed codepoints — the canonical form dedup hashes and
    tokenizers expect; mojibake-adjacent junk like U+FEFF BOMs and
    C0 noise disappears).  Pure function of the text → computed once
    per DISTINCT text and gathered (the dup-heavy shape pays for
    unique content only); an all-ASCII string skips the NFC call
    entirely (identity on ASCII).  SQL twin:
    ``nfc_normalize(regexp_replace(text, _CLEAN_CLASS_SQL, '', 'g'))``
    — DuckDB's ICU path and Python's unicodedata implement the same
    published Unicode algorithm, pinned equal in tests."""
    import unicodedata

    uniq, inverse = _distinct_texts(batch.column(text_col))
    pat = _clean_re()
    cleaned = []
    for s in uniq:
        s2 = pat.sub("", s)
        cleaned.append(s2 if s2.isascii()
                       else unicodedata.normalize("NFC", s2))
    # nulls folded to "" by _distinct_texts; restore null per input row
    out = pa.array(cleaned, type=pa.string()).take(pa.array(inverse))
    mask = batch.column(text_col).is_null()
    if isinstance(mask, pa.ChunkedArray):
        mask = mask.combine_chunks()
    if pc.any(mask).as_py():
        out = pc.if_else(mask, pa.nulls(len(out), pa.string()), out)
    return batch.append_column(out_col, out)


# ---------------------------------------------------------------------------
# C4-style line filtering (Raffel et al. 2020, §2.2)
# ---------------------------------------------------------------------------


def c4_line_filter_batch(batch: pa.Table, *, text_col: str = "text",
                         id_col: str = "doc_id",
                         min_kept_lines: int = 3) -> pa.Table:
    """The published C4 cleaning rules, vectorized, line-level first:

    - keep only lines that END in a terminal punctuation mark
      (``. ! ?`` or a double quote) AND contain ≥ 5 space-separated
      words AND do not contain the word "javascript" (case-folded);
    - then drop the whole page if it contains "lorem ipsum"
      (case-folded), contains ``{``, or fewer than ``min_kept_lines``
      lines survive (C4 counts sentences via an English splitter; this
      engine's documented variant counts KEPT LINES — deterministic
      and language-independent).

    Fully vectorized: one split to flat lines, three Arrow predicate
    kernels over the flat array, one ListArray rebuild +
    ``pc.binary_join`` for the surviving text — no per-row Python.
    Output: (doc_id, kept_lines, dropped, reason, clean_text) with
    clean_text NULL on dropped pages; reason ∈ {lorem_ipsum, brace,
    too_few_lines, NULL} (first failing rule in that fixed order).
    The rule expressions are shared with the DuckDB twin
    (list_filter + regexp_matches) so both sides agree byte-for-byte."""
    col = batch.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    filled = pc.fill_null(col, "")
    lines = pc.split_pattern(filled, "\n")
    counts = pc.list_value_length(lines).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = lines.flatten()
    terminal = pc.match_substring_regex(flat, '[.!?"]$')
    wordy = pc.greater_equal(
        pc.add(pc.count_substring(flat, " "), 1), pa.scalar(5))
    no_js = pc.invert(pc.match_substring(flat, "javascript",
                                         ignore_case=True))
    keep = pc.and_(pc.and_(terminal, wordy), no_js)
    keep_np = keep.to_numpy(zero_copy_only=False).astype(bool)
    doc_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    kept_per_doc = np.bincount(doc_idx[keep_np], minlength=len(counts)).astype(np.int64)
    # rebuild list<string> of surviving lines and join with \n
    kept_flat = flat.filter(keep)
    offsets = np.r_[0, np.cumsum(kept_per_doc)].astype(np.int32)
    kept_lists = pa.ListArray.from_arrays(pa.array(offsets),
                                          kept_flat.combine_chunks()
                                          if isinstance(kept_flat, pa.ChunkedArray)
                                          else kept_flat)
    joined = pc.binary_join(kept_lists, "\n")
    lower = pc.utf8_lower(filled)
    lorem = pc.match_substring(lower, "lorem ipsum").to_numpy(zero_copy_only=False).astype(bool)
    brace = pc.match_substring(filled, "{").to_numpy(zero_copy_only=False).astype(bool)
    few = kept_per_doc < min_kept_lines
    dropped = lorem | brace | few
    reason = np.where(lorem, "lorem_ipsum",
                      np.where(brace, "brace",
                               np.where(few, "too_few_lines", None)))
    clean = pc.if_else(pa.array(dropped), pa.nulls(len(counts), pa.string()),
                       joined)
    return pa.table({
        id_col: batch.column(id_col),
        "kept_lines": pa.array(kept_per_doc),
        "dropped": pa.array(dropped),
        "reason": pa.array(reason.tolist(), type=pa.string()),
        "clean_text": clean,
    })


# ---------------------------------------------------------------------------
# Gopher quality rules (Rae et al. 2021, table A1)
# ---------------------------------------------------------------------------

#: the published stop set Gopher requires ≥ 2 hits from
_GOPHER_STOPS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_quality_batch(batch: pa.Table, *, text_col: str = "text",
                         id_col: str = "doc_id") -> pa.Table:
    """The published Gopher document-quality rules (Rae et al. 2021,
    table A1), each as its own boolean so downstream curation can mix
    thresholds:

    - ``ok_word_count``: 50 ≤ word count ≤ 100 000;
    - ``ok_mean_word_len``: mean word length in [3, 10] (exact int/int
      float division, shared with the SQL twin);
    - ``ok_symbol_ratio``: (# of ``#`` or ``...`` occurrences) / words
      ≤ 0.1;
    - ``ok_alpha_words``: ≥ 80% of words contain ≥ 1 ASCII letter;
    - ``ok_stop_hits``: ≥ 2 hits from the published 8-word stop set;
    - ``pass_gopher``: all of the above.

    One split to flat tokens, Arrow predicate kernels + segmented
    sums — no per-row Python.  Null text fails all bounds (0 words)."""
    col = batch.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    filled = pc.fill_null(col, "")
    toks = pc.split_pattern(filled, " ")
    n_words = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    # "" splits to [""] — count a lone empty token as zero words
    empty = pc.equal(pc.utf8_length(filled), 0).to_numpy(zero_copy_only=False).astype(bool)
    n_words = np.where(empty, 0, n_words)
    flat = toks.flatten()
    tok_len = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    has_alpha = pc.match_substring_regex(flat, "[A-Za-z]").to_numpy(
        zero_copy_only=False).astype(np.int64)
    is_stop = pc.cast(pc.is_in(pc.utf8_lower(flat),
                               value_set=pa.array(_GOPHER_STOPS)),
                      pa.int8()).to_numpy(zero_copy_only=False).astype(np.int64)
    lens_for_seg = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    sum_len = _segment_sums(tok_len, lens_for_seg)
    sum_alpha = _segment_sums(has_alpha, lens_for_seg)
    sum_stop = _segment_sums(is_stop, lens_for_seg)
    n_hash = pc.count_substring(filled, "#").to_numpy(zero_copy_only=False).astype(np.int64)
    n_ell = pc.count_substring(filled, "...").to_numpy(zero_copy_only=False).astype(np.int64)
    wsafe = np.maximum(n_words, 1)
    mean_len = sum_len / wsafe
    sym_ratio = (n_hash + n_ell) / wsafe
    alpha_frac = sum_alpha / wsafe
    ok_wc = (n_words >= 50) & (n_words <= 100_000)
    ok_mwl = (mean_len >= 3.0) & (mean_len <= 10.0) & (n_words > 0)
    ok_sym = sym_ratio <= 0.1
    ok_alpha = (alpha_frac >= 0.8) & (n_words > 0)
    ok_stop = sum_stop >= 2
    return pa.table({
        id_col: batch.column(id_col),
        "n_words": pa.array(n_words),
        "mean_word_len": pa.array(mean_len),
        "symbol_ratio": pa.array(sym_ratio),
        "alpha_word_frac": pa.array(alpha_frac),
        "stop_hits": pa.array(sum_stop),
        "ok_word_count": pa.array(ok_wc),
        "ok_mean_word_len": pa.array(ok_mwl),
        "ok_symbol_ratio": pa.array(ok_sym),
        "ok_alpha_words": pa.array(ok_alpha),
        "ok_stop_hits": pa.array(ok_stop),
        "pass_gopher": pa.array(ok_wc & ok_mwl & ok_sym & ok_alpha & ok_stop),
    })


# ---------------------------------------------------------------------------
# entropy-based secret / credential scanning
# ---------------------------------------------------------------------------

SECRET_RUN_REGEX = r"[A-Za-z0-9+/=_\-]{20,}"
SECRET_ENTROPY_THRESHOLD = 3.5


def secret_scan_batch(batch: pa.Table, *, text_col: str = "text",
                      id_col: str = "doc_id") -> pa.Table:
    """Detect high-entropy credential-like token runs — the
    entropy-based complement of the pattern-based ``redact`` processor
    (the gitleaks/trufflehog discipline: API keys and tokens look like
    long base64/hex runs with near-maximal character entropy, which no
    fixed pattern list catches).

    Per row, every maximal ``[A-Za-z0-9+/=_-]{20,}`` run is a
    candidate; per DISTINCT ``(id, candidate)`` pair one output row
    carries the run, its length, its Shannon character entropy (bits)
    and ``is_secret = entropy >= 3.5``.

    Float discipline: entropy is ``0.0 - Σ (c/n)·log2(c/n)`` summed
    over distinct characters in CODEPOINT order with per-term glibc
    ``math.log2`` — bit-identical to the DuckDB twin's
    ``0.0 - list_sum(list(... ORDER BY ch))`` (the
    mixture_temperature ordered-IEEE convention).  The leading
    ``0.0 -`` is deliberate: a constant run has term sum ``0.0`` and
    Python unary minus would emit ``-0.0`` where SQL emits ``0.0``.

    Shape: stateless per-batch kernel — candidate extraction is
    vectorized (polars ``str.extract_all`` over the Arrow column,
    zero-copy in/out), entropy is memoized per DISTINCT candidate
    string (a batch of repeated boilerplate keys costs one Counter
    pass).  No shuffle, no state; compose with a groupby downstream
    for corpus-level secret inventories."""
    import math
    from collections import Counter

    import polars as pl

    col = batch.column(text_col)
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    ids = batch.column(id_col)
    ids = ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids

    s = pl.from_arrow(pa.table({"t": col}))["t"]
    runs = s.fill_null("").str.extract_all(SECRET_RUN_REGEX)
    lens = runs.list.len().to_numpy().astype(np.int64)
    flat = runs.explode().drop_nulls().to_numpy()
    if len(flat) == 0:
        return pa.table({
            id_col: pa.array([], type=ids.type),
            "candidate": pa.array([], type=pa.string()),
            "n_chars": pa.array([], type=pa.int64()),
            "entropy": pa.array([], type=pa.float64()),
            "is_secret": pa.array([], type=pa.bool_()),
        })
    row_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    # distinct (row, candidate): np.unique over the pair key
    cand_codes, cand_uniq = pd.factorize(flat, sort=False)
    pair = row_of * np.int64(len(cand_uniq) + 1) + cand_codes
    _, first = np.unique(pair, return_index=True)
    first = np.sort(first)
    rows, cands = row_of[first], flat[first]

    memo: dict[str, float] = {}

    def ent(sv: str) -> float:
        e = memo.get(sv)
        if e is None:
            n = len(sv)
            cnt = Counter(sv)
            tot = 0.0
            for ch in sorted(cnt):
                p = cnt[ch] / n
                tot += p * math.log2(p)
            e = 0.0 - tot
            memo[sv] = e
        return e

    ents = np.array([ent(c) for c in cands], dtype=np.float64)
    return pa.table({
        id_col: ids.take(pa.array(rows, type=pa.int64())),
        "candidate": pa.array(cands.tolist(), type=pa.string()),
        "n_chars": pa.array([len(c) for c in cands], type=pa.int64()),
        "entropy": pa.array(ents),
        "is_secret": pa.array(ents >= SECRET_ENTROPY_THRESHOLD),
    })
