"""Unigram-LM tokenizer (SentencePiece-style): distributed vocabulary
statistics + EM training + actor-pool Viterbi encode.

The published algorithm (Kudo 2018, "Subword Regularization: Improving
Neural Network Translation Models with Multiple Subword Candidates"):
a vocabulary of substring pieces with unigram probabilities is fit by
EM over the segmentation lattice of each word, and text is encoded with
the Viterbi-best segmentation.  Like the BPE trainer (stages/bpe.py),
the published training procedure runs over the WORD-FREQUENCY table,
not the raw corpus — so the distributed work is (a) the exact
corpus-wide word count and (b) the streaming encode pass, while the EM
iterations run on the pruned top-V table, which is vocabulary-sized by
construction.  (If the word table ever outgrew one process, the E-step
is embarrassingly parallel over words with int64-quantized expected
counts — the stages/logreg.py partial discipline — but the pruned
table makes that machinery unnecessary here.)

Determinism (any batching / partitioning yields byte-identical
output, and the fixture reference must agree exactly):

- word counts exact int64, top-V ties (count desc, word asc);
- seed-piece selection ties (substring count desc, piece asc);
- EM expected counts accumulate per word in a fixed order and are
  QUANTIZED to int64 (``floor(e·f·2^20 + 0.5)``) before summation, so
  the M-step sees order-independent integer totals;
- lattice forward/backward/Viterbi run in log space (no underflow on
  pathological long words) with a fixed left-to-right, shorter-span-
  first summation order; logsumexp uses the running-max convention
  below, fixed order;
- Viterbi tie-break prefers the LONGER final piece (smaller split
  point), fully specified.

Tokenization contract: words split on single spaces (the repo-wide
DuckDB ``string_split`` twin); pieces never span word boundaries.
Characters outside the learned vocabulary fall back to a per-character
segmentation with the UNK log-probability (no crash on unseen bytes).

Reference parity note: the reference plugin has no tokenizer stage —
engine-native training-data operator (SURVEY §2.9), the probabilistic
counterpart of the deterministic-merge BPE trainer in stages/bpe.py.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .dsir import _segment_sums

#: fixed-point scale for int64 expected-count quantization
_Q = float(1 << 20)

#: log-probability charged for a character absent from the vocabulary
UNK_LOGP = -20.0


# ---------------------------------------------------------------------------
# pure definitional kernels (shared with the fixture reference)
# ---------------------------------------------------------------------------

def seed_pieces(word_freq: dict[str, int], *, seed_size: int = 1024,
                max_piece_len: int = 8) -> dict[str, float]:
    """Initial piece vocabulary + log-probabilities.

    Every character that occurs is kept (coverage guarantee); the
    ``seed_size`` most frequent multi-character substrings (length ≤
    ``max_piece_len``) join them.  Initial probability is proportional
    to the substring's corpus frequency — ties (count desc, piece asc).
    Pure function of the word-frequency table."""
    sub_counts: dict[str, int] = {}
    for w, f in word_freq.items():
        n = len(w)
        for i in range(n):
            hi = min(i + max_piece_len, n)
            for j in range(i + 1, hi + 1):
                s = w[i:j]
                sub_counts[s] = sub_counts.get(s, 0) + f
    chars = sorted({c for w in word_freq for c in w})
    multi = sorted(
        (s for s in sub_counts if len(s) > 1),
        key=lambda s: (-sub_counts[s], s),
    )[:seed_size]
    vocab = chars + multi
    total = 0
    for s in vocab:
        total += sub_counts[s]
    if total == 0:
        return {}
    return {s: math.log(sub_counts[s] / total) for s in vocab}


def _logsumexp(terms: list[float]) -> float:
    """Fixed-order logsumexp: running max, then one exp-sum pass in
    the SAME order the terms were produced."""
    m = -math.inf
    for t in terms:
        if t > m:
            m = t
    if m == -math.inf:
        return m
    acc = 0.0
    for t in terms:
        acc += math.exp(t - m)
    return m + math.log(acc)


def _lattice_spans(w: str, logp: dict[str, float], max_len: int):
    """All in-vocabulary spans (j, i, lp) of ``w`` — j ascending, then
    i ascending (the fixed summation order)."""
    n = len(w)
    out = []
    for j in range(n):
        hi = min(j + max_len, n)
        for i in range(j + 1, hi + 1):
            lp = logp.get(w[j:i])
            if lp is not None:
                out.append((j, i, lp))
    return out


def word_expected_counts(w: str, logp: dict[str, float],
                         max_len: int) -> dict[str, float]:
    """E-step for one word: posterior expected count of each piece
    over the segmentation lattice (forward–backward in log space).
    Returns {} when the word cannot be segmented (all-OOV chars are
    charged to UNK and excluded from vocabulary statistics)."""
    n = len(w)
    spans = _lattice_spans(w, logp, max_len)
    fwd_in: list[list[tuple[int, float]]] = [[] for _ in range(n + 1)]
    bwd_out: list[list[tuple[int, float]]] = [[] for _ in range(n + 1)]
    for j, i, lp in spans:
        fwd_in[i].append((j, lp))
        bwd_out[j].append((i, lp))
    la = [-math.inf] * (n + 1)
    la[0] = 0.0
    for i in range(1, n + 1):
        la[i] = _logsumexp([la[j] + lp for j, lp in fwd_in[i]])
    if la[n] == -math.inf:
        return {}
    lb = [-math.inf] * (n + 1)
    lb[n] = 0.0
    for j in range(n - 1, -1, -1):
        lb[j] = _logsumexp([lp + lb[i] for i, lp in bwd_out[j]])
    exp_counts: dict[str, float] = {}
    for j, i, lp in spans:
        post = la[j] + lp + lb[i] - la[n]
        if post > -745.0:  # exp underflow floor
            s = w[j:i]
            exp_counts[s] = exp_counts.get(s, 0.0) + math.exp(post)
    return exp_counts


def em_train(word_freq: dict[str, int], *, seed_size: int = 1024,
             max_piece_len: int = 8, n_iters: int = 4,
             final_size: int | None = None) -> dict[str, float]:
    """EM over the word-frequency table: seed → ``n_iters`` rounds of
    (lattice expected counts, quantized int64) → renormalize.  An
    optional final prune keeps the ``final_size`` most probable pieces
    (single characters always survive; ties prob desc via the integer
    totals, piece asc).  Pure function — both the engine and the
    fixture reference call THIS."""
    logp = seed_pieces(word_freq, seed_size=seed_size,
                       max_piece_len=max_piece_len)
    if not logp:
        return {}
    words = sorted(word_freq)
    for _ in range(n_iters):
        q: dict[str, int] = {}
        for w in words:
            f = word_freq[w]
            for s, e in word_expected_counts(w, logp, max_piece_len).items():
                q[s] = q.get(s, 0) + int(math.floor(e * f * _Q + 0.5))
        total = 0
        for s in logp:
            total += q.get(s, 0)
        if total == 0:
            break
        nxt: dict[str, float] = {}
        for s in logp:
            c = q.get(s, 0)
            if c > 0:
                nxt[s] = math.log(c / total)
            elif len(s) == 1:
                # a zero-count single char keeps a finite floor so the
                # coverage guarantee survives (it can still segment an
                # otherwise-OOV word)
                nxt[s] = UNK_LOGP
        logp = nxt
    if final_size is not None:
        singles = [s for s in logp if len(s) == 1]
        multi = sorted((s for s in logp if len(s) > 1),
                       key=lambda s: (-logp[s], s))
        keep = set(singles) | set(multi[: max(0, final_size - len(singles))])
        kept = {s: logp[s] for s in keep}
        # renormalize over the survivors (probabilities, fixed order)
        zs = _logsumexp([kept[s] for s in sorted(kept)])
        logp = {s: kept[s] - zs for s in kept}
    return logp


def viterbi_encode(w: str, logp: dict[str, float],
                   max_len: int) -> list[str]:
    """Viterbi-best segmentation of one word.  Characters missing from
    the vocabulary are charged ``UNK_LOGP`` as single-char pieces, so
    every word segments.  Tie-break: the LONGER final piece (smaller
    split point) wins."""
    n = len(w)
    best = [-math.inf] * (n + 1)
    back = [0] * (n + 1)
    best[0] = 0.0
    for i in range(1, n + 1):
        b, bj = -math.inf, i - 1
        lo = max(0, i - max_len)
        for j in range(lo, i):
            lp = logp.get(w[j:i])
            if lp is None:
                if i - j == 1:
                    lp = UNK_LOGP
                else:
                    continue
            cand = best[j] + lp
            # strictly-greater keeps the smallest j (longest piece)
            # because j ascends
            if cand > b:
                b, bj = cand, j
        best[i], back[i] = b, bj
    out: list[str] = []
    i = n
    while i > 0:
        j = back[i]
        out.append(w[j:i])
        i = j
    out.reverse()
    return out


# ---------------------------------------------------------------------------
# distributed train + actor-pool encode
# ---------------------------------------------------------------------------

def train_unigram(ds, *, seed_size: int = 1024, max_piece_len: int = 8,
                  n_iters: int = 4, final_size: int | None = None,
                  top_v: int = 4096, min_freq: int = 1,
                  text_col: str = "text"):
    """Distributed exact word count (stages/bpe.py:corpus_word_freq —
    one hash exchange, O(P·V) driver state) → EM on the pruned table →
    the piece log-probability table in the object store."""
    from .bpe import corpus_word_freq

    wf = corpus_word_freq(ds, top_v=top_v, min_freq=min_freq,
                          text_col=text_col)
    return ray.put(em_train(wf, seed_size=seed_size,
                            max_piece_len=max_piece_len,
                            n_iters=n_iters, final_size=final_size))


class UnigramEncoder:
    """Callable-class ``map_batches`` stage: the piece table loads ONCE
    per actor; a per-actor memo caches Viterbi segmentations across
    batches (same shape as stages/bpe.py:BpeEncoder)."""

    MEMO_CAP = 1_000_000

    def __init__(self, logp_ref, max_piece_len: int = 8,
                 text_col: str = "text", id_col: str = "doc_id"):
        self.logp = ray.get(logp_ref)
        self.max_len = max_piece_len
        self.text_col, self.id_col = text_col, id_col
        self.memo: dict[str, tuple[str, int]] = {}

    def _encode(self, word: str) -> tuple[str, int]:
        got = self.memo.get(word)
        if got is None:
            if len(self.memo) >= self.MEMO_CAP:
                self.memo.clear()
            enc = viterbi_encode(word, self.logp, self.max_len) if word else []
            got = self.memo[word] = (" ".join(enc), len(enc))
        return got

    def __call__(self, t: pa.Table) -> pa.Table:
        col = t.column(self.text_col)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        toks = pc.split_pattern(pc.fill_null(col, ""), " ")
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = toks.flatten()
        if len(flat) == 0:
            return pa.table({
                self.id_col: t.column(self.id_col),
                "n_pieces": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                "uni_text": pa.array([""] * t.num_rows, type=pa.string()),
            })
        de = flat.dictionary_encode()
        indices = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        words = de.dictionary.to_pylist()
        piece_strs = np.empty(len(words), dtype=object)
        piece_ns = np.empty(len(words), dtype=np.int64)
        for k, w in enumerate(words):
            piece_strs[k], piece_ns[k] = self._encode(w)
        totals = _segment_sums(piece_ns[indices], counts)
        flat_pieces = pa.array(piece_strs[indices], type=pa.string())
        la = pa.ListArray.from_arrays(toks.offsets, flat_pieces)
        joined = pc.binary_join(la, " ")
        return pa.table({
            self.id_col: t.column(self.id_col),
            "n_pieces": pa.array(totals),
            "uni_text": joined,
        })


def unigram_encode(ds, logp_ref, *, max_piece_len: int = 8,
                   text_col: str = "text", id_col: str = "doc_id",
                   concurrency=(1, 8)):
    """(id, n_pieces, uni_text) per doc — stateful actor-pool stage."""
    return ds.map_batches(
        UnigramEncoder,
        fn_constructor_kwargs={"logp_ref": logp_ref,
                               "max_piece_len": max_piece_len,
                               "text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
        concurrency=concurrency,
    )
