"""Corpus-level training-data operators that need genuinely new
distributed shapes:

- **cross-doc duplicated n-gram stats** (the Gopher/RefinedWeb
  "fraction of a document covered by n-grams that also occur in other
  documents" signal): a big-to-big exchange keyed on gram hash — the
  gram vocabulary scales with the corpus, so unlike decontamination
  (small held-out side, broadcast) neither side can be broadcast.
  Shape: thin (gram, doc, cnt) rows → co-partition by gram (dup test
  is exact per gram because all of a gram's rows co-locate) → per-doc
  partials → co-partition by doc → sum.  Two exchanges, int64 rows
  only; text never leaves the first pass.

- **token-budget sequence packing** (GPT-style concat-and-cut): docs in
  ``order_col`` order are laid on one global token axis and cut every
  ``cap`` tokens; a doc emits one row per context window it overlaps.
  Needs an exact global ordered prefix sum — implemented as the classic
  two-phase scan: contiguous range partitions, per-partition totals
  (per-batch partials, no shuffle), driver prefix over the tiny totals
  vector, then one co-partitioned pass adds local cumsum + broadcast
  base.  Partitioning assumption: ``order_col`` range-partitions evenly
  (ids are dense-ish); skewed id spaces should pass explicit bounds.

- **deterministic shuffle-shard export**: training-data shuffling must
  be reproducible, so instead of ``random_shuffle`` the permutation is
  a Lehmer hash ``(id * 48271) % (2^31 - 1)`` (MINSTD; exact in int64
  for ids < 1.9e14, and SQL-expressible so the oracle is bit-exact —
  via the canonical non-negative mod ``((x % p) + p) % p``, because
  numpy's ``%`` is always non-negative while SQL's keeps the
  dividend's sign for negative ids).
  Shard = h mod S; within-shard position = rank by (h, id).  The only
  exchange co-partitions rows by their final shard — exactly the
  all-to-all a shuffled export must pay, and nothing more.

All kernels are vectorized (one Arrow split / one ``hash_array`` /
numpy arithmetic per batch); reductions use the co-partition +
one-vectorized-pass-per-partition shape (never per-group Ray
aggregates — see stages/aggregate.py:_merge_table).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.io import engine_plan
from .exchange import copartition, exchange
from .decontam import flat_token_hashes, gram_hashes
from .dedup import _hash64_arrow

# ---------------------------------------------------------------------------
# cross-doc duplicated n-gram fraction
# ---------------------------------------------------------------------------


def _gram_doc_counts(batch: pa.Table, w: int, text_col: str, id_col: str) -> pa.Table:
    """Per-batch (gram-hash, doc_id, cnt) rows: cnt = positions of that
    gram in that doc.  Docs with no grams (fewer than ``w`` tokens)
    emit one (0, doc_id, 0) marker row so they survive to the output
    with ``n_grams = 0`` (cnt = 0 rows are excluded from the per-gram
    dup test, so a real gram hashing to 0 is still counted correctly).
    """
    fh, counts = flat_token_hashes(batch.column(text_col))
    gh, doc_idx = gram_hashes(fh, counts, w)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    if len(gh):
        df = pd.DataFrame({"g": gh.view(np.int64), "d": ids[doc_idx]})
        agg = df.groupby(["g", "d"], sort=False).size().reset_index(name="cnt")
        g_out = agg["g"].to_numpy()
        d_out = agg["d"].to_numpy()
        c_out = agg["cnt"].to_numpy(dtype=np.int64)
        seen = np.zeros(len(ids), dtype=bool)
        seen[np.unique(doc_idx)] = True
    else:
        g_out = np.empty(0, dtype=np.int64)
        d_out = np.empty(0, dtype=np.int64)
        c_out = np.empty(0, dtype=np.int64)
        seen = np.zeros(len(ids), dtype=bool)
    if not seen.all():
        empty_ids = ids[~seen]
        g_out = np.concatenate([g_out, np.zeros(len(empty_ids), dtype=np.int64)])
        d_out = np.concatenate([d_out, empty_ids])
        c_out = np.concatenate([c_out, np.zeros(len(empty_ids), dtype=np.int64)])
    return pa.table({"g": pa.array(g_out), "d": pa.array(d_out), "cnt": pa.array(c_out)})


def _dup_partials(df: pd.DataFrame) -> pa.Table:
    """One gram partition → per-doc (n_grams, n_dup) partials.  All of
    a gram's (doc, cnt) rows are in this partition, so 'appears in ≥ 2
    docs' is decided exactly here."""
    real = df["cnt"].to_numpy() > 0
    ndocs = df.loc[real].groupby("g")["d"].transform("size")
    dup = np.zeros(len(df), dtype=bool)
    dup[np.flatnonzero(real)] = ndocs.to_numpy() >= 2
    cnt = df["cnt"].to_numpy(dtype=np.int64)
    per = pd.DataFrame(
        {"doc_id": df["d"].to_numpy(), "n_grams": cnt, "n_dup": np.where(dup, cnt, 0)}
    ).groupby("doc_id", sort=False).sum().reset_index()
    return pa.Table.from_pandas(per, preserve_index=False).replace_schema_metadata(None)


def _dup_final(df: pd.DataFrame) -> pa.Table:
    agg = df.groupby("doc_id", sort=False)[["n_grams", "n_dup"]].sum().reset_index()
    n = agg["n_grams"].to_numpy(dtype=np.int64)
    d = agg["n_dup"].to_numpy(dtype=np.int64)
    frac = np.divide(d, n, out=np.zeros(len(n), dtype=np.float64), where=n > 0)
    return pa.table(
        {
            "doc_id": pa.array(agg["doc_id"].to_numpy(dtype=np.int64)),
            "n_grams": pa.array(n),
            "n_dup_grams": pa.array(d),
            "dup_gram_frac": pa.array(frac),
        }
    )


def dup_ngram_stats(ds, *, w: int = 4, num_partitions: int = 32,
                    text_col: str = "text", id_col: str = "doc_id"):
    """Per-doc count/fraction of gram *positions* whose w-gram occurs
    in at least one other document.  Gram equality is tested on 64-bit
    rolling hashes (collision odds ~n²/2⁶⁴ — the standard trade for
    never shipping gram strings through the exchange); the tokenizer is
    the exact twin of DuckDB ``string_split(text, ' ')``."""
    pairs = ds.map_batches(
        lambda b: _gram_doc_counts(b, w, text_col, id_col), batch_format="pyarrow"
    )
    partials = exchange(pairs, "g", num_partitions, _dup_partials, "pandas")
    return exchange(partials, "doc_id", num_partitions, _dup_final, "pandas")


# ---------------------------------------------------------------------------
# distributed ordered prefix sum + token packing
# ---------------------------------------------------------------------------


def _range_part(batch: pa.Table, key: str, lo: int, hi: int, p: int) -> pa.Table:
    ids = batch.column(key).to_numpy(zero_copy_only=False).astype(np.int64)
    span = max(hi - lo + 1, 1)
    if span <= (1 << 62) // max(p, 1):
        part = np.clip((ids - lo) * p // span, 0, p - 1)
    else:
        # snowflake-scale id ranges: (ids-lo)*p would wrap int64 and
        # silently break partition monotonicity.  float64 division is
        # weakly monotone (x*c and x/c are monotone for positive c),
        # which is ALL the scan needs — boundary rounding merely moves
        # a few rows to the neighboring contiguous chunk.
        part = np.clip(
            np.floor((ids - lo).astype(np.float64) * (p / span)).astype(np.int64),
            0, p - 1,
        )
    return batch.append_column("__chunk", pa.array(part))


def ordered_prefix_sum(ds, *, order_col: str, val_col: str,
                       num_partitions: int = 32, bounds: tuple[int, int] | None = None):
    """Exclusive prefix sum of ``val_col`` in ``order_col`` order,
    returned as a Dataset with an added ``off`` column.

    Two-phase scan: rows range-partition by ``order_col`` into
    contiguous chunks; per-partition totals come from per-batch partial
    sums (tiny, no shuffle); the driver prefixes the P-element totals
    vector; then ONE co-partitioned exchange sorts each chunk locally,
    cumsums, and adds the broadcast base.  Driver state is O(P), never
    O(rows).  The materialized intermediate is the thin (order, val)
    projection — ~16 B/row, the minimum state any exact global scan
    must see more than once (bounds pass + totals pass + scan); the
    object store spills it rather than re-running the upstream
    projecting stage once per consumer.  ``bounds`` (min, max of
    ``order_col``) skips the extra
    pass when the caller knows the id range; dense-ish ids range-
    partition evenly — a skewed id space should pass explicit bounds or
    pre-bucket."""
    ds = ds.materialize()  # thin projection; up to 3 consumers below

    if bounds is None:
        stats = ds.map_batches(
            lambda b: pa.table(
                {
                    "lo": pa.array([int(pc.min(b.column(order_col)).as_py())], type=pa.int64()),
                    "hi": pa.array([int(pc.max(b.column(order_col)).as_py())], type=pa.int64()),
                }
            ) if b.num_rows else pa.table({"lo": pa.array([], type=pa.int64()),
                                           "hi": pa.array([], type=pa.int64())}),
            batch_format="pyarrow",
        ).take_all()
        if not stats:
            raise ValueError("ordered_prefix_sum: empty dataset")
        lo = min(r["lo"] for r in stats)
        hi = max(r["hi"] for r in stats)
    else:
        lo, hi = bounds

    # lazy over the materialized projection: the totals pass and the
    # scan each re-run only this cheap append-column map
    parted = ds.map_batches(
        lambda b: _range_part(b, order_col, lo, hi, num_partitions), batch_format="pyarrow"
    )

    totals_rows = parted.map_batches(
        lambda b: pa.Table.from_pandas(
            pd.DataFrame(
                {
                    "__chunk": b.column("__chunk").to_numpy(),
                    "s": b.column(val_col).to_numpy(zero_copy_only=False).astype(np.int64),
                }
            ).groupby("__chunk", sort=False).sum().reset_index(),
            preserve_index=False,
        ).replace_schema_metadata(None),
        batch_format="pyarrow",
    ).take_all()
    totals = np.zeros(num_partitions, dtype=np.int64)
    for r in totals_rows:
        totals[r["__chunk"]] += r["s"]
    bases = np.zeros(num_partitions, dtype=np.int64)
    bases[1:] = np.cumsum(totals)[:-1]

    def scan(df: pd.DataFrame) -> pa.Table:
        chunk = int(df["__chunk"].iloc[0])
        df = df.sort_values(order_col, kind="stable")
        vals = df[val_col].to_numpy(dtype=np.int64)
        off = np.zeros(len(vals), dtype=np.int64)
        off[1:] = np.cumsum(vals)[:-1]
        out = df.drop(columns="__chunk").assign(off=off + bases[chunk])
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    # the chunk id already is the partition: group on it, no hash
    return parted.groupby("__chunk").map_groups(scan, batch_format="pandas")


def _explode_bins(batch: pa.Table, cap: int, id_col: str) -> pa.Table:
    ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
    off = batch.column("off").to_numpy(zero_copy_only=False).astype(np.int64)
    first = off // cap
    last = (off + n - 1) // cap
    # n == 0 (NULL text) emits no windows — the oracle's
    # generate_series over a NULL count is empty ('' still counts as
    # one token on both sides)
    reps = np.where(n > 0, last - first + 1, 0)
    doc_rep = np.repeat(np.arange(len(ids), dtype=np.int64), reps)
    starts_r = np.repeat(first, reps)
    within = np.arange(len(doc_rep), dtype=np.int64)
    seg0 = np.zeros(len(ids), dtype=np.int64)
    seg0[1:] = np.cumsum(reps)[:-1]
    bins = starts_r + (within - np.repeat(seg0, reps))
    off_r, n_r = off[doc_rep], n[doc_rep]
    tok_start = np.maximum(0, bins * cap - off_r)
    tok_end = np.minimum(n_r, (bins + 1) * cap - off_r)
    return pa.table(
        {
            "doc_id": pa.array(ids[doc_rep]),
            "bin": pa.array(bins),
            "tok_start": pa.array(tok_start),
            "tok_end": pa.array(tok_end),
            "n_toks": pa.array(tok_end - tok_start),
        }
    )


def pack_docs(ds, *, cap: int = 256, num_partitions: int = 32,
              text_col: str = "text", id_col: str = "doc_id",
              bounds: tuple[int, int] | None = None):
    """Concat-and-cut sequence packing: docs in ``id_col`` order lie on
    one global token axis cut every ``cap`` tokens; emits one row per
    (doc, context-window) overlap with the doc-local token slice.
    Token counts are single-space splits (DuckDB ``len(string_split)``
    twin).  Only the (id, n) projection rides the scan — text is
    dropped in the first pass."""

    def tok_counts(t: pa.Table) -> pa.Table:
        # pure Arrow — no token hashing/object materialization; a NULL
        # text counts 0 tokens (DuckDB len(string_split(NULL)) is NULL
        # and contributes nothing to the window sum), while '' counts 1
        col = t.column(text_col)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        counts = pc.fill_null(
            pc.list_value_length(pc.split_pattern(col, " ")), 0
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({id_col: t.column(id_col), "n": pa.array(counts)})

    sized = ds.map_batches(tok_counts, batch_format="pyarrow")
    return pack_rows(sized, cap=cap, num_partitions=num_partitions,
                     id_col=id_col, n_col="n", bounds=bounds)


def pack_rows(sized, *, cap: int = 256, num_partitions: int = 32,
              id_col: str = "doc_id", n_col: str = "n",
              bounds: tuple[int, int] | None = None):
    """:func:`pack_docs` over PRE-COMPUTED per-doc token counts — the
    composition seam for learned tokenizers (e.g. pack by
    ``stages/bpe.py`` token counts instead of whitespace splits).
    ``sized`` rows are (id, count); same ordered-prefix-sum + explode
    machinery, same output schema."""
    if n_col != "n":
        def ren(t: pa.Table) -> pa.Table:
            return pa.table({id_col: t.column(id_col), "n": t.column(n_col)})

        sized = sized.map_batches(ren, batch_format="pyarrow")
    else:
        sized = sized.select_columns([id_col, "n"])
    with_off = ordered_prefix_sum(
        sized, order_col=id_col, val_col="n",
        num_partitions=num_partitions, bounds=bounds,
    )
    return with_off.map_batches(lambda b: _explode_bins(b, cap, id_col), batch_format="pyarrow")


# ---------------------------------------------------------------------------
# deterministic shuffle-shard export
# ---------------------------------------------------------------------------

#: MINSTD Lehmer constants — ``id * 48271`` stays exact in int64 for
#: ids < 1.9e14, and the identical arithmetic runs in DuckDB BIGINT,
#: which is what makes the oracle bit-exact (same convention as
#: stages/sketches.py stratified sampling).
_SHUF_MULT = 48271
_SHUF_MOD = 2147483647  # 2^31 - 1 (prime) -> h is a permutation of ids mod p


def shuffle_shards(ds, *, num_shards: int = 16, sub_buckets: int = 8,
                   id_col: str = "doc_id"):
    """Deterministic training-data shuffle: shard and within-shard
    position from a Lehmer hash of the id — reproducible across runs,
    engines and batch splits (``random_shuffle`` is not).

    A shard is NOT one task: at scale a shard holds dataset/S rows, so
    each shard's rank space is split into ``sub_buckets`` contiguous
    h-ranges.  Per-batch (shard, bucket) counts go to the driver (S×B
    ints — no shuffle); the driver prefixes each shard's bucket counts
    into per-bucket rank bases; ONE exchange co-partitions rows by
    (shard, bucket) and each partition sorts its own slice by (h, id)
    and adds its base.  Equal h never spans buckets, so the composed
    ranks equal a whole-shard sort.  Returns (id, shard, pos); compose
    with the fan-out sink to write one directory per shard."""
    n_parts = num_shards * sub_buckets

    def hash_assign(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        h = (ids * _SHUF_MULT) % _SHUF_MOD
        bucket = h * sub_buckets // _SHUF_MOD
        return pa.table(
            {
                id_col: pa.array(ids),
                "h": pa.array(h),
                "__bucket": pa.array((h % num_shards) * sub_buckets + bucket),
            }
        )

    assigned = ds.map_batches(hash_assign, batch_format="pyarrow").materialize()
    # consumed twice: the count pass and the rank exchange

    count_rows = assigned.map_batches(
        lambda t: pa.Table.from_pandas(
            pd.DataFrame({"__bucket": t.column("__bucket").to_numpy()})
            .groupby("__bucket", sort=False).size().reset_index(name="c"),
            preserve_index=False,
        ).replace_schema_metadata(None),
        batch_format="pyarrow",
    ).take_all()
    counts = np.zeros(n_parts, dtype=np.int64)
    for r in count_rows:
        counts[r["__bucket"]] += r["c"]
    per_shard = counts.reshape(num_shards, sub_buckets)
    bases = np.zeros_like(per_shard)
    bases[:, 1:] = np.cumsum(per_shard, axis=1)[:, :-1]
    bases = bases.reshape(-1)

    def rank_bucket(df: pd.DataFrame) -> pa.Table:
        bucket = int(df["__bucket"].iloc[0])
        df = df.sort_values(["h", id_col], kind="stable")
        return pa.table(
            {
                id_col: pa.array(df[id_col].to_numpy(dtype=np.int64)),
                "shard": pa.array(np.full(len(df), bucket // sub_buckets, dtype=np.int64)),
                "pos": pa.array(bases[bucket] + np.arange(len(df), dtype=np.int64)),
            }
        )

    return (
        assigned.repartition(n_parts)
        .groupby("__bucket")
        .map_groups(rank_bucket, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# duplicated-span REMOVAL (rewrites text, not just stats)
# ---------------------------------------------------------------------------


def _doc_dup_grams(df: pd.DataFrame) -> pa.Table:
    """One gram partition → (d, g) rows for every (doc, gram) whose
    gram occurs in ≥ 2 docs (the exchange-back payload: which of MY
    grams are corpus-duplicated)."""
    ndocs = df.groupby("g")["d"].transform("size").to_numpy()
    keep = ndocs >= 2
    return pa.table(
        {
            "d": pa.array(df["d"].to_numpy()[keep].astype(np.int64)),
            "g": pa.array(df["g"].to_numpy()[keep].astype(np.int64)),
        }
    )


def _rebuild_partition(docs: pd.DataFrame, dup: pd.DataFrame, w: int,
                       id_col: str) -> pa.Table:
    """One doc partition: its docs (d, text) and their dup-gram sets
    (d, g; column-less when the corpus has no duplicated gram).
    Re-derives gram positions locally (grams were computed from these
    exact texts in pass 1, so hashes agree), marks covered token ranges
    with a diff-array, and rebuilds each doc's text from the surviving
    tokens."""
    ids = docs["d"].to_numpy(dtype=np.int64)
    texts = docs["text"].tolist()
    col = pa.array([t if t is not None else "" for t in texts], type=pa.string())
    fh, counts = flat_token_hashes(col)
    gh, doc_idx = gram_hashes(fh, counts, w)

    starts = np.zeros(len(ids), dtype=np.int64)
    if len(ids):
        starts[1:] = np.cumsum(counts)[:-1]
    covered = np.zeros(len(fh) + 1, dtype=np.int64)
    if len(gh) and len(dup):
        # exact (doc, gram) membership via a vectorized int64 merge;
        # global flat position of each valid gram start: valid grams are
        # the in-doc windows in order, so reconstruct from per-doc counts
        gram_per_doc = np.maximum(counts - w + 1, 0)
        gseg = np.zeros(len(ids), dtype=np.int64)
        gseg[1:] = np.cumsum(gram_per_doc)[:-1]
        within = np.arange(len(gh), dtype=np.int64) - np.repeat(gseg, gram_per_doc)
        flat_pos = np.repeat(starts, gram_per_doc) + within
        probe = pd.DataFrame({"d": ids[doc_idx], "g": gh.view(np.int64), "i": flat_pos})
        hit = probe.merge(dup[["d", "g"]].drop_duplicates(), on=["d", "g"], how="inner")
        hs = hit["i"].to_numpy(dtype=np.int64)
        np.add.at(covered, hs, 1)
        np.add.at(covered, hs + w, -1)
    cov_mask = np.cumsum(covered[:-1]) > 0

    toks = pc.split_pattern(pc.fill_null(col, ""), " ")
    flat_toks = np.asarray(toks.flatten().to_pylist(), dtype=object)
    tok_doc = np.repeat(np.arange(len(ids), dtype=np.int64), counts)
    keep = ~cov_mask
    kept = pd.Series(flat_toks[keep]).groupby(tok_doc[keep]).agg(" ".join)
    cleaned = kept.reindex(np.arange(len(ids))).fillna("").to_numpy(dtype=object)
    n_removed = np.zeros(len(ids), dtype=np.int64)
    if len(fh):
        rem_counts = pd.Series(tok_doc[cov_mask]).value_counts()
        n_removed[rem_counts.index.to_numpy()] = rem_counts.to_numpy()
    return pa.table(
        {
            id_col: pa.array(ids),
            "cleaned_text": pa.array(cleaned, type=pa.string()),
            "n_removed": pa.array(n_removed),
        }
    )


def remove_dup_spans(ds, *, w: int = 4, num_partitions: int = 32,
                     text_col: str = "text", id_col: str = "doc_id"):
    """CCNet/RefinedWeb-style cleaning: REMOVE every token covered by a
    w-gram that occurs in at least one other document, emitting the
    rewritten text.  Three passes:

    1. thin distinct (gram, doc) pairs → co-partition by gram (exact
       dup test, as :func:`dup_ngram_stats`);
    2. dup (doc, gram) rows exchange BACK keyed by doc — the doc's own
       dup-gram set, still int64-thin;
    3. docs and their dup sets co-partition by doc (the only exchange
       text rides, exactly once); positions re-derive locally and a
       diff-array marks covered ranges.

    Within-doc-only repeats are kept (they are not corpus duplication).
    Gram equality is 64-bit-hash-based as everywhere in this module."""

    def gram_doc_pairs(t: pa.Table) -> pa.Table:
        fh, counts = flat_token_hashes(t.column(text_col))
        gh, doc_idx = gram_hashes(fh, counts, w)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(gh):
            return pa.table({"g": pa.array([], type=pa.int64()),
                             "d": pa.array([], type=pa.int64())})
        df = pd.DataFrame({"g": gh.view(np.int64), "d": ids[doc_idx]}).drop_duplicates()
        return pa.table({"g": pa.array(df["g"].to_numpy()),
                         "d": pa.array(df["d"].to_numpy())})

    pairs = ds.map_batches(gram_doc_pairs, batch_format="pyarrow")
    doc_dup = exchange(pairs, "g", num_partitions, _doc_dup_grams, "pandas")
    docs = ds.map_batches(
        lambda t: pa.table({"d": t.column(id_col).cast(pa.int64()), "text": t.column(text_col)}),
        batch_format="pyarrow")
    return copartition({"docs": (docs, "d"), "dup": (doc_dup, "d")}, num_partitions,
                       lambda docs, dup: _rebuild_partition(docs, dup, w, id_col), "pandas")


# ---------------------------------------------------------------------------
# corpus-wide line-level dedup (RefinedWeb / C4 line filtering)
# ---------------------------------------------------------------------------


def _split_lines(col, sep: str):
    """Split a string column on ``sep`` → (flat line array, per-doc
    line counts).  One Arrow kernel, no Python loop."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lines = pc.split_pattern(pc.fill_null(col, ""), sep)
    counts = pc.list_value_length(lines).to_numpy(zero_copy_only=False).astype(np.int64)
    return lines.flatten(), counts


def _first_rest(h: np.ndarray, d: np.ndarray, i: np.ndarray):
    """Indices of the (d, i)-minimal instance per distinct ``h`` and of
    every other instance — one lexsort, no per-group loop."""
    order = np.lexsort((i, d, h))
    hs = h[order]
    first = np.ones(len(hs), dtype=bool)
    if len(hs):
        first[1:] = hs[1:] != hs[:-1]
    return order[first], order[~first]


def _line_instance_arrays(t: pa.Table, text_col: str, id_col: str,
                          sep: str, min_len: int):
    """(h, d, i) arrays for every PARTICIPATING line instance of a
    batch: h = 64-bit line hash, d = doc id, i = within-doc line index.
    Lines shorter than ``min_len`` chars never participate."""
    flat, counts = _split_lines(t.column(text_col), sep)
    ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    total = int(counts.sum())
    if not total:
        z = np.empty(0, dtype=np.int64)
        return z, z, z
    starts = np.zeros(len(ids), dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    m = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64) >= min_len
    h = _hash64_arrow(flat.filter(pa.array(m))).view(np.int64)
    return h, np.repeat(ids, counts)[m], within[m]


def _line_drop_rows(df: pd.DataFrame) -> pa.Table:
    """One line-hash partition → the (doc, idx) instances to DROP:
    every instance of a hash except the globally (d, i)-first."""
    h = df["h"].to_numpy(dtype=np.int64)
    d = df["d"].to_numpy(dtype=np.int64)
    i = df["i"].to_numpy(dtype=np.int64)
    _, rest = _first_rest(h, d, i)
    return pa.table({"d": pa.array(d[rest]), "i": pa.array(i[rest])})


def _rebuild_lines_partition(docs: pd.DataFrame, drops: pd.DataFrame, sep: str,
                             id_col: str) -> pa.Table:
    """One doc partition: its docs (d, text) and their drop lists (d, i;
    column-less when no line repeats anywhere).  Re-splits each text
    locally and rebuilds it from the surviving lines; a doc whose every
    line was removed yields NULL (SQL string_agg-with-FILTER
    semantics)."""
    ids = docs["d"].to_numpy(dtype=np.int64)
    col = pa.array([t if t is not None else "" for t in docs["text"].tolist()],
                   type=pa.string())
    flat, counts = _split_lines(col, sep)
    total = int(counts.sum())
    starts = np.zeros(len(ids), dtype=np.int64)
    if len(ids):
        starts[1:] = np.cumsum(counts)[:-1]
    line_doc = np.repeat(np.arange(len(ids), dtype=np.int64), counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    keep = np.ones(total, dtype=bool)
    if len(drops) and total:
        probe = pd.DataFrame({"d": ids[line_doc], "i": within,
                              "p": np.arange(total, dtype=np.int64)})
        hit = probe.merge(drops[["d", "i"]].drop_duplicates(), on=["d", "i"], how="inner")
        keep[hit["p"].to_numpy(dtype=np.int64)] = False
    # all-Arrow rebuild: filter the flat line array, reassemble per-doc
    # lists from kept-count offsets, one binary_join — no Python-object
    # strings (the .to_pylist() + pandas-join path cost 1 s / 20k docs)
    if total:
        keep_counts = np.bincount(line_doc[keep], minlength=len(ids)).astype(np.int64)
        n_removed = np.bincount(line_doc[~keep], minlength=len(ids)).astype(np.int64)
    else:
        keep_counts = np.zeros(len(ids), dtype=np.int64)
        n_removed = np.zeros(len(ids), dtype=np.int64)
    offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(keep_counts)
    la = pa.LargeListArray.from_arrays(pa.array(offsets, type=pa.int64()),
                                       flat.filter(pa.array(keep)))
    joined = pc.binary_join(la, sep).cast(pa.string())
    text_arr = pc.if_else(pa.array(keep_counts == 0),
                          pa.scalar(None, type=pa.string()), joined)
    return pa.table({
        id_col: pa.array(ids),
        "text": text_arr,
        "n_removed": pa.array(n_removed),
    })


def dedup_lines(ds, *, sep: str = "\n", min_len: int = 1,
                num_partitions: int = 32, text_col: str = "text",
                id_col: str = "doc_id"):
    """Corpus-wide line-level dedup with text rewrite — the
    RefinedWeb/C4 boilerplate-removal recipe: among all instances of
    the same line across the WHOLE corpus, only the globally first by
    (doc id, line index) survives; every doc is rewritten from its
    surviving lines (``sep``-joined; a doc that loses every line yields
    NULL text).  Lines shorter than ``min_len`` chars never participate
    (always kept, never counted).  Output: (id, text, n_removed).

    Distributed shape — text rides exactly one exchange:

    1. per batch, instances collapse to the batch-local (d, i)-minimum
       per distinct line hash (a boilerplate line repeated a million
       times in one block forwards ONE row); the local non-minima are
       already-resolved drops and skip the hash exchange entirely;
    2. the minima co-partition by line hash; each partition keeps the
       global first per hash and emits the rest as (d, i) drops;
    3. drops (both kinds) exchange back keyed by doc, co-partitioned
       with the docs themselves — the only exchange text rides — and
       each partition rebuilds its texts locally.

    Line equality is 64-bit-hash-based as everywhere in this module
    (a collision merges two distinct lines with probability ~2^-64)."""

    def instance_rows(t: pa.Table) -> pa.Table:
        h, d, i = _line_instance_arrays(t, text_col, id_col, sep, min_len)
        first, rest = _first_rest(h, d, i)
        kind = np.zeros(len(h), dtype=np.int8)
        kind[rest] = 1
        return pa.table({"h": pa.array(h), "d": pa.array(d),
                         "i": pa.array(i), "kind": pa.array(kind)})

    # thin int64 rows (no text) materialized ONCE so the text is
    # scanned twice total (here + the docs side), not three times; at scale
    # these rows are line-count-sized and spill fine
    partials = ds.map_batches(instance_rows, batch_format="pyarrow").materialize()

    def only_minima(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("kind"), 0))
        return t.select(["h", "d", "i"])

    def only_local_drops(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("kind"), 1))
        return t.select(["d", "i"])

    exchange_drops = exchange(partials.map_batches(only_minima, batch_format="pyarrow"), "h",
                              num_partitions, _line_drop_rows, "pandas")
    drops = exchange_drops.union(partials.map_batches(only_local_drops, batch_format="pyarrow"))
    docs = ds.map_batches(
        lambda t: pa.table({"d": t.column(id_col).cast(pa.int64()), "text": t.column(text_col)}),
        batch_format="pyarrow")
    return copartition({"docs": (docs, "d"), "drops": (drops, "d")}, num_partitions,
                       lambda docs, drops: _rebuild_lines_partition(docs, drops, sep, id_col),
                       "pandas")


# ---------------------------------------------------------------------------
# data-mixture sampling
# ---------------------------------------------------------------------------


def mixture_sample(ds, *, weights: dict, total_frac: float,
                   strata_col: str = "lang", id_col: str = "doc_id",
                   weight_col: str | None = None):
    """Deterministic data-mixture sampling: draw ~``total_frac`` of the
    corpus with composition targeting ``weights`` (per-stratum shares
    summing to 1).  Per-stratum keep rate = min(1, target_mass_s /
    mass_s) — a stratum too small to meet its share contributes all it
    has.  ``weight_col`` switches the mass from row COUNTS to that
    column's SUM (token-weighted mixtures — practitioners target token
    shares, not document shares; selection stays per-doc, so the
    achieved share is the expectation over the kept docs).

    Shape: one tiny per-batch count reduce (S strata rows to the
    driver), then the stateless Lehmer filter from
    stages/sketches.py:sample_stratified — no shuffle at all; the
    selection is reproducible across runs/engines/batch splits.  The
    rate arithmetic is ordered ``((total_frac * N) * w) / n_s`` so the
    SQL oracle computes the identical IEEE double."""
    from .sketches import sample_stratified

    if weight_col is not None:
        from .joins import _dataset_schema

        wtype = _dataset_schema(ds).field(weight_col).type
        if not pa.types.is_integer(wtype):
            # float partial sums would be batch-order-dependent and
            # diverge from the SQL twin's exact integer sum
            raise ValueError(
                "mixture_sample: weight_col must be integer-typed (token/char counts)"
            )

    def counts(t: pa.Table) -> pa.Table:
        s = pd.Series(t.column(strata_col).to_pylist(), dtype=object)
        if weight_col is None:
            vc = s.value_counts(sort=False)  # null strata drop (rate 0)
        else:
            import pyarrow.compute as pc

            # exact int64 via Arrow (a numpy round trip of a
            # null-bearing int column would NaN→INT64_MIN the sums);
            # null weights contribute 0, null strata drop — matching
            # count mode and the SQL sum() twin
            w = pd.Series(
                pc.fill_null(t.column(weight_col), 0)
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False)
            )
            keep = s.notna()
            vc = w[keep.to_numpy()].groupby(s[keep].to_numpy()).sum()
        return pa.table({"s": pa.array(vc.index.to_numpy(), type=pa.string()),
                         "n": pa.array(vc.to_numpy().astype(np.int64))})

    rows = ds.map_batches(counts, batch_format="pyarrow").take_all()
    n_s: dict = {}
    for r in rows:
        n_s[r["s"]] = n_s.get(r["s"], 0) + r["n"]
    total = sum(n_s.values())
    rates = {
        s: min(1.0, ((total_frac * total) * float(weights.get(s, 0.0))) / n)
        for s, n in n_s.items()
    }
    return sample_stratified(ds, rates, strata_col=strata_col, id_col=id_col,
                             default_rate=0.0)


def mixture_temperature(ds, *, alpha: float, total_frac: float,
                        strata_col: str = "lang", id_col: str = "doc_id"):
    """Temperature-smoothed mixture sampling — the published
    multilingual recipe (exponentiated sampling, e.g. XLM-R /
    mC4 with alpha≈0.3): target shares are NOT given by the user but
    derived from the corpus itself, ``w_s ∝ share_s^alpha``, which
    up-weights low-resource strata (alpha<1) while keeping the
    ordering.  alpha=1 reproduces the natural distribution; alpha=0
    is uniform over strata.

    Shape: identical to :func:`mixture_sample` — one tiny per-stratum
    count reduce (S rows to the driver), smoothed weights computed on
    the driver, then the stateless Lehmer filter.  No shuffle.

    IEEE-parity contract with the SQL twin: shares divide exact int64
    counts, ``pow`` is the libm call both engines make, and the
    normalizing denominator is summed in ASCENDING STRATUM ORDER
    (the twin uses ``list_sum(list(p ORDER BY s))``) so every rate is
    the bit-identical double on both sides."""
    from .sketches import sample_stratified

    def counts(t: pa.Table) -> pa.Table:
        s = pd.Series(t.column(strata_col).to_pylist(), dtype=object)
        vc = s.value_counts(sort=False)  # null strata drop (rate 0)
        return pa.table({"s": pa.array(vc.index.to_numpy(), type=pa.string()),
                         "n": pa.array(vc.to_numpy().astype(np.int64))})

    rows = ds.map_batches(counts, batch_format="pyarrow").take_all()
    n_s: dict = {}
    for r in rows:
        n_s[r["s"]] = n_s.get(r["s"], 0) + r["n"]
    total = sum(n_s.values())
    # ordered arithmetic, mirrored verbatim by the SQL twin
    p_s = {s: (n / float(total)) ** float(alpha) for s, n in n_s.items()}
    denom = 0.0
    for s in sorted(p_s):
        denom += p_s[s]
    rates = {
        s: min(1.0, ((total_frac * total) * (p_s[s] / denom)) / n)
        for s, n in n_s.items()
    }
    return sample_stratified(ds, rates, strata_col=strata_col, id_col=id_col,
                             default_rate=0.0)


# ---------------------------------------------------------------------------
# curriculum binning by global score quantiles
# ---------------------------------------------------------------------------


def curriculum_bins(scored, thresholds: np.ndarray, *, score_col: str,
                    id_col: str = "doc_id"):
    """Assign each row the curriculum bucket of its score against the
    broadcast global quantile ``thresholds`` (ascending):
    ``bin = #{t : t < score}`` — the exact twin of the SQL CASE ladder
    ``score > t_hi → k``.  One stateless streaming pass; thresholds
    come from stages/sketches.py:exact_quantiles (tiny shuffles)."""
    thr = np.asarray(thresholds, dtype=np.float64)

    def assign(t: pa.Table) -> pa.Table:
        s = t.column(score_col).to_numpy(zero_copy_only=False).astype(np.float64)
        bins = np.searchsorted(thr, s, side="left").astype(np.int64)
        return pa.table(
            {
                id_col: t.column(id_col),
                score_col: t.column(score_col),
                "bin": pa.array(bins),
            }
        )

    return scored.map_batches(assign, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# per-group top-k retention
# ---------------------------------------------------------------------------


def _topk_select(keys: np.ndarray, score: np.ndarray, tie: np.ndarray, k: int,
                 ascending: bool):
    """Indices (into the input arrays) of each group's top-k rows plus
    their 1-based within-group rank, fully vectorized.

    Order within a group is (score asc|desc, tie asc) — a TOTAL order
    when ``tie`` is unique, which is what makes the selection (and the
    SQL ``row_number()`` twin) deterministic.  Descending int64 scores
    sort by bitwise-NOT (monotone decreasing, no INT64_MIN overflow);
    floats by negation."""
    if ascending:
        skey = score
    elif np.issubdtype(score.dtype, np.integer):
        skey = ~score
    else:
        skey = -score
    order = np.lexsort((tie, skey, keys))
    ks = keys[order]
    new = np.r_[True, ks[1:] != ks[:-1]]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.r_[starts, len(ks)])
    rank = np.arange(len(ks), dtype=np.int64) - np.repeat(starts, sizes)
    keep = rank < k
    return order[keep], rank[keep] + 1


def group_topk(ds, *, key: str, score_col: str, k: int, tie_col: str,
               ascending: bool = False, rank_col: str | None = None,
               num_partitions: int = 32):
    """Keep each group's top-``k`` rows by ``score_col`` (ties broken by
    ``tie_col`` ascending — pass a unique id so the result is
    deterministic).  The classic corpus-curation retention op ("keep
    the best k documents per host/url/lang").

    Two-phase so the exchange never carries the corpus: a per-BATCH
    local top-k first (a batch forwards at most ``k`` rows per
    distinct key it holds — a hot key is capped at ``k`` rows per
    upstream block, so skew cannot widen the shuffle), then one
    co-partition by key hash and a single vectorized global pass per
    partition.  Null scores are dropped (mirror the SQL twin with
    ``WHERE score IS NOT NULL``); null keys form one group of their
    own, matching SQL ``PARTITION BY``.

    ``rank_col`` (optional) appends the 1-based within-group rank —
    the exact twin of ``row_number() OVER (PARTITION BY key ORDER BY
    score DESC, tie ASC)``."""
    if k < 1:
        raise ValueError("k must be >= 1")

    def local_topk(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(score_col)))
        if t.num_rows == 0:
            return t
        codes, _ = pd.factorize(t.column(key).to_pandas(), use_na_sentinel=False)
        score = t.column(score_col).to_numpy(zero_copy_only=False)
        tie = t.column(tie_col).to_numpy(zero_copy_only=False)
        idx, _rk = _topk_select(codes, score, tie, k, ascending)
        return t.take(np.sort(idx))

    def final_topk(df: pd.DataFrame) -> pa.Table:
        codes, _ = pd.factorize(df[key], use_na_sentinel=False)
        idx, rk = _topk_select(codes, df[score_col].to_numpy(),
                               df[tie_col].to_numpy(), k, ascending)
        out = df.iloc[idx]
        if rank_col is not None:
            out = out.assign(**{rank_col: rk})
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return exchange(ds.map_batches(local_topk, batch_format="pyarrow"), key,
                    num_partitions, final_topk, "pandas")


# ---------------------------------------------------------------------------
# document chunking (RAG-style overlapping token windows)
# ---------------------------------------------------------------------------

def chunk_docs(ds, *, window: int = 64, stride: int = 48,
               text_col: str = "text", id_col: str = "doc_id"):
    """Split each document into overlapping token-window chunks —
    the retrieval/embedding preprocessing step (LangChain/LlamaIndex
    style fixed-size chunking, a public pattern): chunk ``i`` covers
    tokens ``[i*stride, i*stride + window)``; the last chunk may be
    shorter; a doc always yields >= 1 chunk (empty text = one
    one-token chunk, Python/SQL split semantics agree).

    Embarrassingly parallel (`map_batches` row expansion, no shuffle):
    chunk COUNT per doc is ceil(n_tokens/stride), so output volume is
    ~window/stride x input — bounded and predictable at 100 TB.  Chunk
    text is sliced from the ORIGINAL string by precomputed token
    offsets (single-space split => token i starts at
    prefix_len(i) + i), never re-joined token-by-token.

    Output: (id_col, chunk_idx, chunk_text, n_tokens)."""
    if window < 1 or stride < 1 or stride > window:
        raise ValueError("chunk_docs: require 1 <= stride <= window")

    def chunk_batch(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        texts = pc.fill_null(col, "").to_pylist()
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        out_ids: list[int] = []
        out_idx: list[int] = []
        out_text: list[str] = []
        out_n: list[int] = []
        for d, txt in enumerate(texts):
            lens = [len(tok) for tok in txt.split(" ")]
            n = len(lens)
            # start offset of token i in txt = sum(lens[:i]) + i
            off = np.empty(n + 1, dtype=np.int64)
            off[0] = 0
            np.cumsum(np.asarray(lens, dtype=np.int64) + 1, out=off[1:])
            did = int(ids[d])
            for ci, g in enumerate(range(0, n, stride)):
                e = min(g + window, n)
                out_ids.append(did)
                out_idx.append(ci)
                out_text.append(txt[off[g] : off[e] - 1])
                out_n.append(e - g)
        return pa.table(
            {
                id_col: pa.array(out_ids, type=pa.int64()),
                "chunk_idx": pa.array(out_idx, type=pa.int64()),
                "chunk_text": pa.array(out_text, type=pa.string()),
                "n_tokens": pa.array(out_n, type=pa.int64()),
            }
        )

    return ds.map_batches(chunk_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# deterministic weighted sampling without replacement (per group)
# ---------------------------------------------------------------------------

#: Knuth multiplicative-hash constant for the deterministic uniform
#: draw — small enough that DuckDB HUGEINT and numpy uint64 wraparound
#: agree on the low 32 bits of the product (both are the exact
#: product's low bits).
_RACE_MULT = np.uint64(2654435761)
_RACE_MOD = np.uint64(1) << np.uint64(32)


def weighted_group_sample(ds, *, key: str, weight_col: str, k: int,
                          id_col: str, num_partitions: int = 32):
    """Sample ``k`` rows per group with probability proportional to
    ``weight_col``, WITHOUT replacement, fully deterministic — the
    Efraimidis–Spirakis A-Res scheme (a published public algorithm):
    each row draws u = hash(id) mapped into (0, 1] and races with key
    ln(u)/w; a group's k largest race keys win.  Deterministic because
    u comes from the row id, not an RNG — re-runs, retries and any
    batching produce the same sample (the property a reproducible
    training-data pipeline needs).

    Distributed shape: the race key is a stateless vectorized
    map_batches, then the existing :func:`group_topk` two-phase
    machinery — a batch forwards at most k rows per distinct key it
    holds, so the exchange is k·groups rows no matter how skewed the
    corpus.  No driver state; scales like group_topk.

    Rows with null/non-positive weight or null id never race (the SQL
    twin filters ``weight > 0``).  The race column is dropped from the
    output: its float64 value is numpy-libm-computed and has no
    cross-engine bit contract — selection order does, the score does
    not.

    SQL twin (DuckDB)::

        row_number() OVER (PARTITION BY key ORDER BY
            ln((((CAST(id AS HUGEINT) * 2654435761) % 4294967296) + 1)
               / 4294967297.0) / weight DESC, id) <= k
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def race(t: pa.Table) -> pa.Table:
        mask = pc.and_kleene(
            pc.greater(pc.coalesce(t.column(weight_col), pa.scalar(0)), 0),
            pc.is_valid(t.column(id_col)),
        )
        t = t.filter(pc.fill_null(mask, False))
        if t.num_rows == 0:
            return t.append_column("__race", pa.array([], type=pa.float64()))
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if (ids < 0).any():
            raise ValueError("weighted_group_sample: ids must be non-negative")
        w = t.column(weight_col).to_numpy(zero_copy_only=False).astype(np.float64)
        h = (ids.astype(np.uint64) * _RACE_MULT) % _RACE_MOD
        u = (h.astype(np.float64) + 1.0) / 4294967297.0  # (0, 1]
        return t.append_column("__race", pa.array(np.log(u) / w, type=pa.float64()))

    sampled = group_topk(
        ds.map_batches(race, batch_format="pyarrow"),
        key=key, score_col="__race", k=k, tie_col=id_col,
        num_partitions=num_partitions,
    )
    return sampled.drop_columns(["__race"])


# ---------------------------------------------------------------------------
# deterministic corpus splitting (train/val/test)
# ---------------------------------------------------------------------------


def split_thresholds(fractions: dict[str, float]) -> tuple[list[str], np.ndarray]:
    """(split names, uint64 upper thresholds on the 2^32 hash range) —
    exposed so the SQL oracle can embed the IDENTICAL integer
    boundaries the engine computes (float cumsum then floor; the last
    threshold is pinned to 2^32 so rounding can never orphan a row)."""
    names = list(fractions)
    fr = np.array([fractions[n] for n in names], dtype=np.float64)
    if len(fr) == 0 or (fr <= 0).any():
        raise ValueError("hash_split: fractions must be positive")
    if abs(float(fr.sum()) - 1.0) > 1e-9:
        raise ValueError("hash_split: fractions must sum to 1")
    cuts = np.floor(np.cumsum(fr) * float(1 << 32)).astype(np.uint64)
    cuts[-1] = np.uint64(1) << np.uint64(32)
    return names, cuts


def hash_split(ds, *, id_col: str, fractions: dict[str, float],
               split_col: str = "split"):
    """Deterministic train/val/test assignment: each row's uniform
    draw is the Knuth multiplicative hash of its id on the 2^32 range
    (the same generator as :func:`weighted_group_sample`), and named
    splits own contiguous hash ranges sized by ``fractions`` (dict
    order).  Reproducible under re-runs, retries and any batching —
    and STABLE UNDER CORPUS GROWTH: a doc's split never changes when
    other docs are added or removed, the property a random split
    cannot give.  Stateless vectorized pass; no shuffle, no state.

    SQL twin (thresholds from :func:`split_thresholds`)::

        CASE WHEN (CAST(id AS HUGEINT) * 2654435761) % 4294967296 < t0
             THEN 'name0' WHEN ... END
    """
    names, cuts = split_thresholds(fractions)
    labels = pa.array(names, type=pa.string())

    def assign(t: pa.Table) -> pa.Table:
        col = t.column(id_col)
        if col.null_count:
            raise ValueError("hash_split: ids must be non-null")
        ids = col.to_numpy(zero_copy_only=False).astype(np.int64)
        if (ids < 0).any():
            raise ValueError("hash_split: ids must be non-negative")
        h = (ids.astype(np.uint64) * _RACE_MULT) % _RACE_MOD
        idx = np.searchsorted(cuts, h, side="right")
        return t.append_column(split_col, pc.take(labels, pa.array(idx)))

    return ds.map_batches(assign, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# content-defined chunking (gear-hash CDC, FastCDC-family)
# ---------------------------------------------------------------------------

#: deterministic 256-entry gear table (SplitMix64 over the byte value —
#: a public PRNG construction; any fixed random table works, the CDC
#: literature only requires it be fixed)
def _gear_table() -> np.ndarray:
    x = np.arange(256, dtype=np.uint64)
    z = (x + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


_GEAR = _gear_table()


def cdc_boundaries(data: np.ndarray, *, mask_bits: int = 6,
                   min_size: int = 16, max_size: int = 256) -> np.ndarray:
    """Content-defined chunk END offsets (exclusive) for one byte
    string — gear rolling hash ``h = (h << 1) + gear[b]``, cut after
    byte ``i`` when ``h & (2^mask_bits - 1) == 0``, with min/max chunk
    size enforcement (a cut is only taken ≥ ``min_size`` into the
    current chunk; a chunk is force-cut at ``max_size``).  Average
    chunk ≈ 2^mask_bits bytes.  The hash's low ``mask_bits`` bits
    depend on only the last ``mask_bits`` bytes, so the candidate scan
    vectorizes to ``mask_bits`` shifted adds; the min/max walk touches
    only the sparse candidate list."""
    n = len(data)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    mask = np.uint64((1 << mask_bits) - 1)
    g = _GEAR[data]
    low = np.zeros(n, dtype=np.uint64)
    for j in range(min(mask_bits, n)):
        # contribution of byte i-j, shifted j — positions < j keep 0
        # for the out-of-range term (hash warm-up, same as sequential);
        # j is capped at n: a doc shorter than mask_bits has no byte
        # that far back (negative slice lengths would mis-broadcast)
        low[j:] += g[: n - j] << np.uint64(j)
    cand = np.flatnonzero((low & mask) == np.uint64(0)) + 1  # cut AFTER byte i
    ends: list[int] = []
    start = 0
    ci = 0
    nc = len(cand)
    while start < n:
        limit = start + max_size
        # first candidate ≥ start+min_size (advance the sparse pointer)
        ci = int(np.searchsorted(cand, start + min_size, side="left"))
        if ci < nc and cand[ci] <= limit and cand[ci] < n:
            cut = int(cand[ci])
        else:
            cut = min(limit, n)
        ends.append(cut)
        start = cut
    return np.asarray(ends, dtype=np.int64)


def cdc_chunk_batch(t: pa.Table, *, mask_bits: int = 6, min_size: int = 16,
                    max_size: int = 256, text_col: str = "text",
                    id_col: str = "doc_id") -> pa.Table:
    """Per-doc content-defined chunks: (doc_id, chunk_idx, start, end,
    chunk_md5) over the UTF-8 bytes.  The point of CDC over fixed-size
    chunking: an insertion near a doc's head shifts fixed-window chunk
    hashes for the whole tail, but gear-hash boundaries re-synchronize
    within ~one chunk, so byte-level dedup downstream still matches the
    unchanged remainder (the published dedup/backup-storage recipe).

    Stateless per-batch row expansion — no shuffle; output volume ≈
    bytes / 2^mask_bits rows of fixed width.  md5 over each chunk's
    bytes gives the dedupable content key."""
    import hashlib

    col = t.column(text_col)
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    texts = pc.fill_null(col, "").to_pylist()
    ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    o_id: list[int] = []
    o_idx: list[int] = []
    o_start: list[int] = []
    o_end: list[int] = []
    o_md5: list[str] = []
    for d, txt in enumerate(texts):
        raw = txt.encode("utf-8")
        ends = cdc_boundaries(np.frombuffer(raw, dtype=np.uint8),
                              mask_bits=mask_bits, min_size=min_size,
                              max_size=max_size)
        start = 0
        for i, e in enumerate(ends):
            o_id.append(int(ids[d]))
            o_idx.append(i)
            o_start.append(start)
            o_end.append(int(e))
            o_md5.append(hashlib.md5(raw[start:int(e)]).hexdigest())
            start = int(e)
    return pa.table({
        id_col: pa.array(o_id, type=pa.int64()),
        "chunk_idx": pa.array(o_idx, type=pa.int64()),
        "start": pa.array(o_start, type=pa.int64()),
        "end": pa.array(o_end, type=pa.int64()),
        "chunk_md5": pa.array(o_md5, type=pa.string()),
    })


def cdc_chunks(ds, **kw):
    """Dataset wrapper over :func:`cdc_chunk_batch` (stateless map)."""
    return ds.map_batches(lambda t: cdc_chunk_batch(t, **kw),
                          batch_format="pyarrow")


def cdc_dup_stats(ds, *, num_partitions: int = 32, text_col: str = "text",
                  id_col: str = "doc_id", **cdc_kw):
    """Per-doc duplicated-byte fraction at the CDC-chunk level: a
    chunk is "duplicated" when its content hash appears in more than
    one document; each doc reports total bytes, duplicated bytes and
    the single-division fraction — the storage-dedup view of corpus
    redundancy (robust to insertions, unlike fixed windows, because
    the gear boundaries re-synchronize).

    Shape (text never rides a shuffle — the dup_ngram_stats idiom at
    byte level): chunks collapse per batch to distinct
    (chunk_md5, doc, bytes) rows; ONE exchange by chunk hash computes
    each hash's distinct-doc count; a second exchange keyed by doc
    folds the per-chunk dup flags into per-doc byte sums."""
    chunks = cdc_chunks(ds, text_col=text_col, id_col=id_col, **cdc_kw)

    def pair_partial(t: pa.Table) -> pa.Table:
        b = pc.subtract(t.column("end"), t.column("start"))
        df = pd.DataFrame({
            "chunk_md5": t.column("chunk_md5").to_pandas(),
            id_col: t.column(id_col).to_numpy(zero_copy_only=False),
            "b": b.to_numpy(zero_copy_only=False),
        })
        agg = df.groupby(["chunk_md5", id_col], sort=False)["b"].sum().reset_index()
        return pa.table({
            "chunk_md5": pa.array(agg["chunk_md5"], type=pa.string()),
            id_col: pa.array(agg[id_col].to_numpy(dtype=np.int64)),
            "b": pa.array(agg["b"].to_numpy(dtype=np.int64)),
        })

    def by_hash(df: pd.DataFrame) -> pa.Table:
        merged = df.groupby(["chunk_md5", id_col], sort=False)["b"].sum().reset_index()
        nd = merged.groupby("chunk_md5", sort=False)[id_col].transform("nunique")
        return pa.table({
            id_col: pa.array(merged[id_col].to_numpy(dtype=np.int64)),
            "b": pa.array(merged["b"].to_numpy(dtype=np.int64)),
            "dup": pa.array((nd > 1).to_numpy()),
        })

    def by_doc(df: pd.DataFrame) -> pa.Table:
        g = df.groupby(id_col, sort=False)
        n_bytes = g["b"].sum()
        dup_b = df["b"].where(df["dup"], 0).groupby(df[id_col], sort=False).sum()
        ids = n_bytes.index.to_numpy(dtype=np.int64)
        nb = n_bytes.to_numpy(dtype=np.int64)
        db = dup_b.reindex(n_bytes.index).to_numpy(dtype=np.int64)
        return pa.table({
            id_col: pa.array(ids),
            "n_bytes": pa.array(nb),
            "dup_bytes": pa.array(db),
            "dup_frac": pa.array(db.astype(np.float64) / nb.astype(np.float64)),
        })

    flags = exchange(chunks.map_batches(pair_partial, batch_format="pyarrow"), "chunk_md5",
                     num_partitions, by_hash, "pandas")
    return exchange(flags, id_col, num_partitions, by_doc, "pandas")


# ---------------------------------------------------------------------------
# A-Priori frequent token pairs (association mining with lift)
# ---------------------------------------------------------------------------


def _distinct_item_partials(t: pa.Table, text_col: str) -> pa.Table:
    """Per batch: (token, count-of-docs-containing-it) partials.  A doc
    is one row, so per-batch distinct (doc, token) pairs are globally
    distinct and the per-token doc counts merge by sum."""
    flat, counts = _split_tokens_flat(t.column(text_col))
    doc = np.repeat(np.arange(t.num_rows, dtype=np.int64), counts)
    df = pd.DataFrame({"token": flat.to_pandas().to_numpy(dtype=object),
                       "doc": doc}).drop_duplicates()
    cnt = df.groupby("token", sort=False).size()
    return pa.table({
        "token": pa.array(cnt.index.to_numpy(dtype=object), type=pa.string()),
        "cnt": pa.array(cnt.to_numpy(dtype=np.int64)),
    })


def _split_tokens_flat(col):
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    toks = pc.split_pattern(pc.fill_null(col, ""), " ")
    counts = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    return toks.flatten(), counts


def frequent_pairs(ds, *, min_item_count: int, min_pair_count: int = 1,
                   text_col: str = "text", num_partitions: int = 32):
    """A-Priori association mining over token baskets (Agrawal &
    Srikant's two-pass recipe): baskets are docs, items are their
    DISTINCT tokens.  Pass 1 counts per-item basket support and keeps
    items with support ≥ ``min_item_count`` (the frequent set —
    small-by-contract at any sane threshold, broadcast once via
    ``ray.put`` exactly like the decontamination gram set); pass 2
    generates candidate pairs ONLY among frequent items per basket
    (the A-Priori pruning that bounds the pair blowup), merges pair
    counts through one exchange, and scores
    ``lift = n_pair·N / (n_item1·n_item2)`` and
    ``support = n_pair / N`` — single fixed float expressions on exact
    int64 counts, bit-identical to the SQL twin.

    Output: (item1, item2, n_pair, n_item1, n_item2, support, lift)
    with item1 < item2 lexicographically and n_pair ≥
    ``min_pair_count``.  Pair generation is fully vectorized (segment
    triangular expansion via multi-arange — no per-doc loop)."""
    import ray

    from .joins import _multi_arange

    n_baskets = int(ds.count())

    def merge_support(df: pd.DataFrame) -> pa.Table:
        agg = df.groupby("token", sort=False)["cnt"].sum()
        agg = agg[agg >= min_item_count]
        return pa.table({
            "token": pa.array(agg.index.to_numpy(dtype=object),
                              type=pa.string()),
            "cnt": pa.array(agg.to_numpy(dtype=np.int64)),
        })

    support = exchange(
        ds.map_batches(lambda t: _distinct_item_partials(t, text_col), batch_format="pyarrow"),
        "token", num_partitions, merge_support, "pandas")
    sup = support.to_pandas()  # bounded by the frequent set, by contract
    if "token" not in sup.columns or not len(sup):
        # empty frequent set: an empty dataset loses its schema through
        # to_pandas, and no pairs can exist — return a TYPED empty result
        import ray

        return engine_plan(ray.data.from_arrow(pa.table({
            "item1": pa.array([], type=pa.string()),
            "item2": pa.array([], type=pa.string()),
            "n_pair": pa.array([], type=pa.int64()),
            "n_item1": pa.array([], type=pa.int64()),
            "n_item2": pa.array([], type=pa.int64()),
            "support": pa.array([], type=pa.float64()),
            "lift": pa.array([], type=pa.float64()),
        })))
    order = np.argsort(sup["token"].to_numpy(dtype=object), kind="stable")
    items = sup["token"].to_numpy(dtype=object)[order]
    item_counts = sup["cnt"].to_numpy(dtype=np.int64)[order]
    freq_ref = ray.put((items, item_counts))

    def pair_partials(t: pa.Table) -> pa.Table:
        f_items, _ = ray.get(freq_ref)
        flat, counts = _split_tokens_flat(t.column(text_col))
        doc = np.repeat(np.arange(t.num_rows, dtype=np.int64), counts)
        tok = flat.to_pandas().to_numpy(dtype=object)
        pos = np.searchsorted(f_items, tok)
        m = pos < len(f_items)
        if len(f_items):
            m &= f_items[np.minimum(pos, len(f_items) - 1)] == tok
        ids = np.unique(np.stack([doc[m], pos[m]]), axis=1)
        d_u, p_u = ids[0], ids[1]
        # segment triangular expansion: element at idx pairs with every
        # LATER element of its doc segment
        seg_start = np.zeros(len(d_u), dtype=np.int64)
        if len(d_u):
            new = np.ones(len(d_u), dtype=bool)
            new[1:] = d_u[1:] != d_u[:-1]
            seg_id = np.cumsum(new) - 1
            seg_sizes = np.bincount(seg_id)
            seg_end = np.cumsum(seg_sizes)[seg_id]
            idx = np.arange(len(d_u), dtype=np.int64)
            ii, jj = _multi_arange(idx + 1, seg_end)
            # _multi_arange returns (interval index, value): interval
            # index IS the left element, value the right element
            left, right = p_u[ii], p_u[jj]
        else:
            left = right = np.empty(0, dtype=np.int64)
        if len(left):
            code = left * np.int64(len(f_items)) + right
            uniq, cnts = np.unique(code, return_counts=True)
            l2, r2 = uniq // len(f_items), uniq % len(f_items)
            out = pa.table({
                "i1": pa.array(l2.astype(np.int64)),
                "i2": pa.array(r2.astype(np.int64)),
                "cnt": pa.array(cnts.astype(np.int64)),
            })
        else:
            out = pa.table({"i1": pa.array([], type=pa.int64()),
                            "i2": pa.array([], type=pa.int64()),
                            "cnt": pa.array([], type=pa.int64())})
        return out

    def finish(df: pd.DataFrame) -> pa.Table:
        f_items, f_counts = ray.get(freq_ref)
        agg = df.groupby(["i1", "i2"], sort=False)["cnt"].sum().reset_index()
        p = agg["cnt"].to_numpy(dtype=np.int64)
        keep = p >= min_pair_count
        i1 = agg["i1"].to_numpy(dtype=np.int64)[keep]
        i2 = agg["i2"].to_numpy(dtype=np.int64)[keep]
        p = p[keep]
        n1, n2 = f_counts[i1], f_counts[i2]
        # plain IEEE divide/multiply — numpy is bit-identical to SQL
        # here (unlike log, these kernels never reassociate)
        nb = np.float64(n_baskets)
        supp = p.astype(np.float64) / nb
        lift = (p.astype(np.float64) * nb) / (
            n1.astype(np.float64) * n2.astype(np.float64))
        return pa.table({
            "item1": pa.array(f_items[i1], type=pa.string()),
            "item2": pa.array(f_items[i2], type=pa.string()),
            "n_pair": pa.array(p),
            "n_item1": pa.array(n1),
            "n_item2": pa.array(n2),
            "support": pa.array(supp),
            "lift": pa.array(lift),
        })

    return exchange(ds.map_batches(pair_partials, batch_format="pyarrow"), "i1",
                    num_partitions, finish, "pandas")


# ---------------------------------------------------------------------------
# Z-order (Morton) interleaving for multi-column layout locality
# ---------------------------------------------------------------------------

_Z_MASKS = (
    (np.uint64(16), np.uint64(0x0000FFFF0000FFFF)),
    (np.uint64(8), np.uint64(0x00FF00FF00FF00FF)),
    (np.uint64(4), np.uint64(0x0F0F0F0F0F0F0F0F)),
    (np.uint64(2), np.uint64(0x3333333333333333)),
    (np.uint64(1), np.uint64(0x5555555555555555)),
)


def _spread31(x: np.ndarray) -> np.ndarray:
    """Spread the low 31 bits of each value so bit i lands at 2i —
    the classic mask-shift sequence, vectorized."""
    v = x.astype(np.uint64) & np.uint64(0x7FFFFFFF)
    for shift, mask in _Z_MASKS:
        v = (v | (v << shift)) & mask
    return v


def zorder_key_batch(t: pa.Table, col_a: str, col_b: str,
                     out_col: str = "zorder") -> pa.Table:
    """62-bit Morton code interleaving the low 31 bits of two integer
    columns (col_a on even bits) — the multi-dimensional clustering
    key a lakehouse OPTIMIZE ZORDER BY computes so that range
    predicates on EITHER column stay block-local after a sort.
    Stateless and exactly SQL-expressible (the same mask-shift
    sequence runs on BIGINTs), so the twin is bit-exact.  Keys wider
    than 31 bits should be bucketed first (documented, not silent:
    the mask keeps the LOW bits)."""
    a = t.column(col_a).cast(pa.int64()).to_numpy(zero_copy_only=False)
    b = t.column(col_b).cast(pa.int64()).to_numpy(zero_copy_only=False)
    z = (_spread31(a) | (_spread31(b) << np.uint64(1))).astype(np.int64)
    return t.append_column(out_col, pa.array(z))


def zorder_sql_expr(col: str) -> str:
    """The DuckDB twin of :func:`_spread31` as an expression string."""
    e = f"({col} & 2147483647)"
    for shift, mask in _Z_MASKS:
        e = f"(({e} | ({e} << {int(shift)})) & {int(mask)})"
    return e
