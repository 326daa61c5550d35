"""BPE tokenizer: distributed vocabulary learning + actor-pool encode.

The published algorithm (Sennrich et al. 2016, "Neural Machine
Translation of Rare Words with Subword Units"): BPE merges are learned
from the WORD-FREQUENCY table, not the raw corpus — so the distributed
work is (a) the exact corpus-wide word count and (b) the streaming
encode pass, while merge learning itself runs on the pruned table
(top-V words), which is vocabulary-sized by construction.  This is the
same split HF/sentencepiece trainers use.

Shape at 100 TB:

- **Word count**: per-batch local ``np.unique`` counts → ONE hash
  exchange co-partitions (word, count) rows by word → exact int64
  partition sums.  A word's rows all land in one partition, so the
  per-partition top-V by (count, word) is a superset-free exact
  global top-V after the driver merges P×V rows — driver state O(P·V),
  never the vocabulary.
- **Merge learning**: O(n_merges · V · len) on the pruned table —
  driver-side by published design (the table is top-V small).
- **Encode**: a stateful ACTOR-POOL ``map_batches`` stage — merge
  ranks load once per actor in ``__init__`` (broadcast via
  ``ray.put``), and a per-actor memo caches encoded words across
  batches (Zipf: the hot vocabulary dominates), so steady-state encode
  cost is a dict lookup per distinct word.

Determinism: counts are exact int64; the merge-selection tie-break is
(count desc, pair lexicographically asc); encoding merges the
lowest-rank adjacent pair first, left-to-right — all fully specified,
so any batching/partitioning yields byte-identical output, and the
fixture oracle's plain dict-counting reference must agree exactly.

Tokenization contract: words split on single spaces (the repo-wide
DuckDB ``string_split`` twin); each word ends with the ``</w>``
end-of-word symbol per the published algorithm.

Reference parity note: the reference plugin has no tokenizer stage —
engine-native training-data operator (SURVEY §2.9); the learned
counterpart of the whitespace/BPE-regex token counters in
stages/textstats.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .dsir import _segment_sums
from .exchange import exchange

#: end-of-word marker (the published algorithm's word-boundary symbol)
EOW = "</w>"


# ---------------------------------------------------------------------------
# pure definitional kernels (shared with the fixture reference)
# ---------------------------------------------------------------------------

def word_symbols(word: str) -> tuple[str, ...]:
    """A word's initial symbol sequence: its characters + EOW."""
    return tuple(word) + (EOW,)


def learn_merges(word_freq: dict[str, int], n_merges: int) -> list[tuple[str, str]]:
    """Classic BPE merge learning over a word-frequency table.

    Each round merges the most frequent adjacent symbol pair; ties
    break by lexicographically smallest pair.  Stops early when no
    pair remains.  Pure function of the table — both the engine and
    the fixture reference call THIS."""
    seqs: dict[str, list[str]] = {w: list(word_symbols(w)) for w in word_freq}
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        counts: dict[tuple[str, str], int] = {}
        for w, f in word_freq.items():
            s = seqs[w]
            for i in range(len(s) - 1):
                p = (s[i], s[i + 1])
                counts[p] = counts.get(p, 0) + f
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        a, b = best
        ab = a + b
        for w in word_freq:
            s = seqs[w]
            if len(s) < 2:
                continue
            out, i = [], 0
            while i < len(s):
                if i < len(s) - 1 and s[i] == a and s[i + 1] == b:
                    out.append(ab)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            seqs[w] = out
    return merges


def encode_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Encode one word with learned merges: repeatedly merge the
    LOWEST-rank adjacent pair present (all its occurrences, left to
    right) until no mergeable pair remains — the published inference
    procedure."""
    s = list(word_symbols(word))
    while len(s) > 1:
        best_rank, best_pair = None, None
        for i in range(len(s) - 1):
            r = ranks.get((s[i], s[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_pair = r, (s[i], s[i + 1])
        if best_pair is None:
            break
        a, b = best_pair
        ab = a + b
        out, i = [], 0
        while i < len(s):
            if i < len(s) - 1 and s[i] == a and s[i + 1] == b:
                out.append(ab)
                i += 2
            else:
                out.append(s[i])
                i += 1
        s = out
    return s


# ---------------------------------------------------------------------------
# distributed word count → pruned table → merges
# ---------------------------------------------------------------------------

def _batch_word_counts(t: pa.Table, text_col: str) -> pa.Table:
    col = t.column(text_col)
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    toks = pc.split_pattern(pc.fill_null(col, ""), " ")
    flat = toks.flatten()
    if len(flat) == 0:
        return pa.table({"word": pa.array([], type=pa.string()),
                         "cnt": pa.array([], type=pa.int64())})
    vc = flat.value_counts()  # one Arrow kernel, no Python objects
    return pa.table({"word": vc.field("values"),
                     "cnt": vc.field("counts").cast(pa.int64())})


def _topv_partition(df: pd.DataFrame, top_v: int, min_freq: int) -> pa.Table:
    g = df.groupby("word", sort=False)["cnt"].sum().reset_index()
    g = g[g["cnt"] >= min_freq]
    g = g.sort_values(["cnt", "word"], ascending=[False, True],
                      kind="mergesort").head(top_v)
    return pa.table({"word": pa.array(g["word"].to_numpy(), type=pa.string()),
                     "cnt": pa.array(g["cnt"].to_numpy(), type=pa.int64())})


def corpus_word_freq(ds, *, top_v: int = 4096, min_freq: int = 1,
                     text_col: str = "text",
                     num_partitions: int = 32) -> dict[str, int]:
    """Exact global top-V word-frequency table (ties: word asc)."""
    counts = ds.map_batches(lambda t: _batch_word_counts(t, text_col),
                            batch_format="pyarrow")
    per_part = exchange(counts, "word", num_partitions,
                        lambda df: _topv_partition(df, top_v, min_freq), "pandas")
    rows = per_part.take_all()  # ≤ P × V rows, by construction
    df = pd.DataFrame(rows)
    if df.empty:
        return {}
    df = df.sort_values(["cnt", "word"], ascending=[False, True],
                        kind="mergesort").head(top_v)
    return dict(zip(df["word"], df["cnt"].astype(int)))


def train_bpe(ds, *, n_merges: int = 200, top_v: int = 4096,
              min_freq: int = 1, text_col: str = "text"):
    """Distributed word count → driver-side merge learning → merge
    list in the object store (``ObjectRef`` of list[(str, str)])."""
    wf = corpus_word_freq(ds, top_v=top_v, min_freq=min_freq, text_col=text_col)
    return ray.put(learn_merges(wf, n_merges))


# ---------------------------------------------------------------------------
# actor-pool encode
# ---------------------------------------------------------------------------

class BpeEncoder:
    """Callable-class ``map_batches`` stage: merge ranks load ONCE per
    actor; a per-actor memo caches encoded words across batches."""

    #: memo cap — web-corpus "words" (urls, hashes, numbers) grow with
    #: corpus size rather than Zipf-saturating, so an unbounded cache
    #: would exhaust a long-lived actor; on overflow the cache resets
    #: (the hot vocabulary repopulates within a batch or two)
    MEMO_CAP = 1_000_000

    def __init__(self, merges_ref, text_col: str = "text", id_col: str = "doc_id"):
        merges = ray.get(merges_ref)
        self.ranks = {p: i for i, p in enumerate(merges)}
        self.text_col, self.id_col = text_col, id_col
        #: word -> (joined piece string, piece count)
        self.memo: dict[str, tuple[str, int]] = {}

    def _encode(self, word: str) -> tuple[str, int]:
        """(joined piece string, piece count) for one word, memoized."""
        got = self.memo.get(word)
        if got is None:
            if len(self.memo) >= self.MEMO_CAP:
                self.memo.clear()
            enc = encode_word(word, self.ranks)
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
                "n_bpe": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
                "bpe_text": pa.array([""] * t.num_rows, type=pa.string()),
            })
        # encode each DISTINCT word once per batch (dictionary-encode the
        # flat token array), then rebuild per-token rows by vectorized
        # take — the per-token Python loop was the single-actor
        # throughput cap (profiled 2× slower than this shape)
        de = flat.dictionary_encode()
        indices = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        words = de.dictionary.to_pylist()
        piece_strs = np.empty(len(words), dtype=object)
        piece_ns = np.empty(len(words), dtype=np.int64)
        for k, w in enumerate(words):
            piece_strs[k], piece_ns[k] = self._encode(w)
        totals = _segment_sums(piece_ns[indices], counts)
        # per-doc join via one Arrow kernel over the rebuilt list array
        flat_pieces = pa.array(piece_strs[indices], type=pa.string())
        la = pa.ListArray.from_arrays(toks.offsets, flat_pieces)
        joined = pc.binary_join(la, " ")
        return pa.table({
            self.id_col: t.column(self.id_col),
            "n_bpe": pa.array(totals),
            "bpe_text": joined,
        })


def bpe_encode(ds, merges_ref, *, text_col: str = "text", id_col: str = "doc_id",
               concurrency=(1, 8)):
    """(id, n_bpe, bpe_text) per doc — stateful actor-pool stage.

    ``concurrency`` is an autoscaling (min, max) pool like the enrich
    stage: a fixed pool sized at the cluster's CPU count can reserve
    every slot and starve the upstream read tasks on small clusters."""
    return ds.map_batches(
        BpeEncoder,
        fn_constructor_kwargs={"merges_ref": merges_ref,
                               "text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
        concurrency=concurrency,
    )
