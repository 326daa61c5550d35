"""Incremental ingestion: dedup NEW documents against a PERSISTED
reference corpus without re-reading (or re-shuffling) the corpus.

At 100 TB the reference corpus is the already-curated dataset sitting
on shared storage; the anti-pattern is joining every ingest batch
against all of it.  :func:`build_hash_corpus` instead persists the
corpus's distinct content hashes ONCE as a bucket-partitioned parquet
layout (``out_dir/bucket=N/`` — the exact-dedup twin of the IVF and
postings layouts, stages/similarity.py:build_ivf_layout and
stages/textindex.py) plus a packed Bloom-filter sidecar
(``bloom.npz``, ~128 KiB at the default 2^20 bits).

:func:`dedup_against_corpus` then runs per ingest batch:

1. exact dedup WITHIN the new batch (stages/dedup.py:exact_dedup —
   min-id survivor per distinct text, md5 content key),
2. one Bloom probe against the broadcast sidecar: bloom-NEGATIVE
   survivors are DEFINITELY new content (no false negatives) — they
   bypass every corpus read and every exchange,
3. only the ambiguous bloom-positive slice co-partitions by corpus
   bucket, and each partition opens ONLY its own bucket directories —
   corpus bytes read scale with (ambiguous hashes / num_buckets) ×
   bucket size, never with corpus size.

The content key is the md5 hex digest (the cross-engine oracle
contract shared with exact_dedup); Bloom probing and bucket routing
both derive from its first 16 hex chars parsed as a uint64, so any
reader of the layout can reproduce the routing without this library.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from logstash_filter_elastic_integration_ray.stages.dedup import exact_dedup
from logstash_filter_elastic_integration_ray.stages.joins import bloom_fold, bloom_test

__all__ = [
    "build_hash_corpus",
    "dedup_against_corpus",
    "extend_hash_corpus",
    "corpus_rows_scanned",
    "hash_hex_to_u64",
]


def hash_hex_to_u64(hashes: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """md5 hex digests → uint64 (first 16 hex chars, big-endian).
    Vectorized through one ``bytes.fromhex`` over the concatenated
    prefixes — no per-row int parsing."""
    arr = hashes.combine_chunks() if isinstance(hashes, pa.ChunkedArray) else hashes
    prefixes = pc.utf8_slice_codeunits(arr, 0, 16)
    blob = bytes.fromhex("".join(prefixes.to_pylist()))
    return np.frombuffer(blob, dtype=">u8").astype(np.uint64)


def _bucket_of(u64: np.ndarray, num_buckets: int) -> np.ndarray:
    return (u64 % np.uint64(num_buckets)).astype(np.int64)


def _bucket_rows_fn(num_buckets: int):
    """content_hash rows → (content_hash, bucket) — the ONE routing
    used by both the initial build and every extension."""

    def fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                "content_hash": pa.array([], type=pa.string()),
                "bucket": pa.array([], type=pa.int64()),
            })
        u = hash_hex_to_u64(t.column("content_hash"))
        return pa.table({
            "content_hash": t.column("content_hash"),
            "bucket": pa.array(_bucket_of(u, num_buckets)),
        })

    return fn


def _bloom_words(hashes, m_bits: int, k: int) -> np.ndarray:
    """Bloom words of a Dataset's ``content_hash`` column — the ONE
    construction used by both the build and every extension."""
    return bloom_fold(
        hashes, lambda t: hash_hex_to_u64(t.column("content_hash")).astype(np.int64), m_bits, k)


def _write_sidecar(corpus_dir: str, words: np.ndarray) -> None:
    tmp = os.path.join(corpus_dir, ".bloom.tmp.npz")  # .npz suffix:
    # np.savez appends it otherwise and the replace would miss
    np.savez(tmp, words=words)
    os.replace(tmp, os.path.join(corpus_dir, "bloom.npz"))


def build_hash_corpus(
    ds,
    out_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 64,
    m_bits: int = 1 << 20,
    k: int = 4,
) -> str:
    """Persist the corpus's distinct content hashes as
    ``out_dir/hashes/bucket=N/`` parquet plus ``out_dir/bloom.npz``.

    Two streaming passes, both over THIN data: pass 1 reduces the
    corpus to distinct (content_hash, bucket) rows (exact_dedup's
    two-phase reduce, so a hash ships once per batch) and writes the
    partitioned layout; pass 2 folds the written hash column into the
    Bloom sidecar (per-batch bitmaps OR-merged — m_bits/8 bytes per
    batch is all that moves).  The corpus TEXT is read exactly once."""
    hashes = exact_dedup(ds, text_col=text_col, id_col=id_col)

    layout = os.path.join(out_dir, "hashes")
    hashes.map_batches(_bucket_rows_fn(num_buckets), batch_format="pyarrow").write_parquet(
        layout, partition_cols=["bucket"]
    )

    # pass 2: Bloom sidecar from the written (thin) layout
    from logstash_filter_elastic_integration_ray.sources.io import read_parquet_clean

    words = np.zeros(m_bits // 64, dtype=np.uint64)
    if glob.glob(os.path.join(layout, "bucket=*", "*.parquet")):
        words = _bloom_words(read_parquet_clean(layout, columns=["content_hash"]), m_bits, k)
    # else: EMPTY corpus (bootstrap ingest) — write_parquet emits no
    # files for an empty dataset; an all-zero Bloom correctly makes
    # every future probe bloom-negative (definitely new)
    _write_sidecar(out_dir, words)
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump({"m_bits": m_bits, "k": k, "num_buckets": num_buckets}, f)
    return out_dir


def _load_sidecar(corpus_dir: str):
    with open(os.path.join(corpus_dir, "meta.json")) as f:
        meta = json.load(f)
    words = np.load(os.path.join(corpus_dir, "bloom.npz"))["words"]
    return words, meta


def dedup_against_corpus(
    ds,
    corpus_dir: str,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int = 16,
):
    """(content_hash, id) survivors of ``ds`` that are new WITHIN the
    batch (min-id per distinct text) AND absent from the persisted
    corpus.  See the module docstring for the read-pruning contract."""
    import ray

    words, meta = _load_sidecar(corpus_dir)
    m_bits, k, num_buckets = meta["m_bits"], meta["k"], meta["num_buckets"]
    bloom_ref = ray.put(words)
    layout = os.path.join(corpus_dir, "hashes")

    survivors = exact_dedup(ds, text_col=text_col, id_col=id_col).materialize()

    def split(maybe: bool):
        def fn(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t
            u = hash_hex_to_u64(t.column("content_hash")).astype(np.int64)
            hit = bloom_test(u, (ray.get(bloom_ref), m_bits, k))
            return t.filter(pa.array(hit if maybe else ~hit))

        return fn

    definite_new = survivors.map_batches(split(False), batch_format="pyarrow")
    maybe = survivors.map_batches(split(True), batch_format="pyarrow")

    def tag(t: pa.Table) -> pa.Table:
        u = hash_hex_to_u64(t.column("content_hash"))
        return t.append_column("__slot", pa.array(_bucket_of(u, num_buckets) % num_partitions))

    def resolve(t: pa.Table) -> pa.Table:
        t = t.drop_columns("__slot")
        if t.num_rows == 0:
            return t
        buckets = _bucket_of(hash_hex_to_u64(t.column("content_hash")), num_buckets)
        present = np.zeros(t.num_rows, dtype=bool)
        hashes = t.column("content_hash").combine_chunks()
        for b in np.unique(buckets):
            files = sorted(glob.glob(os.path.join(layout, f"bucket={b}", "*.parquet")))
            if not files:
                continue  # bucket never written → nothing to collide with
            corpus = pa.concat_tables(
                [pq.read_table(f, columns=["content_hash"]) for f in files]
            )
            # probe only THIS bucket's rows against this bucket's corpus
            rows = np.flatnonzero(buckets == b)
            hit = pc.is_in(
                hashes.take(pa.array(rows)),
                value_set=corpus.column("content_hash").combine_chunks(),
            )
            present[rows] = hit.to_numpy(zero_copy_only=False)
        return t.filter(pa.array(~present))

    # rows of one corpus bucket meet in one slot (bucket mod P), so each
    # group reads only the bucket files its rows can collide with
    resolved = (
        maybe.map_batches(tag, batch_format="pyarrow")
        .repartition(num_partitions)
        .groupby("__slot")
        .map_groups(resolve, batch_format="pyarrow")
    )
    return definite_new.union(resolved)


def extend_hash_corpus(new_hashes, corpus_dir: str) -> str:
    """Fold an ingested batch's survivor hashes into the persisted
    layout — the write side of the incremental loop: after
    :func:`dedup_against_corpus` accepts a batch, extend the corpus so
    the NEXT batch dedups against the union.

    ``new_hashes`` is a Dataset with a ``content_hash`` column (e.g.
    the survivors of ``dedup_against_corpus`` — already globally
    distinct and absent from the corpus, so no re-dedup is needed).
    OR-folds the hashes into the Bloom sidecar FIRST (atomic replace),
    then appends bucket-partitioned rows (write_parquet appends new
    files, never rewrites — corpus bytes written scale with the BATCH,
    not the corpus).  Crash-ordering contract: bloom-first means a
    crash between the two steps leaves hashes bloom-positive but
    absent from the buckets, which the resolve path verifies exactly
    (an fp-rate blip, no correctness change); the reverse order would
    leave bucket rows bloom-NEGATIVE, which the probe short-circuits
    as "definitely new" — re-ingests of that content would pass dedup
    forever.  A retried extend may write a bucket row twice; the
    layout carries SET semantics (membership via ``is_in``), so that
    is benign.  Bucket routing and Bloom params come from the layout's
    own meta, so extensions can never diverge from the build."""
    words, meta = _load_sidecar(corpus_dir)
    num_buckets, m_bits, k = meta["num_buckets"], meta["m_bits"], meta["k"]

    tagged = new_hashes.map_batches(
        _bucket_rows_fn(num_buckets), batch_format="pyarrow"
    ).materialize()
    words = words | _bloom_words(tagged, m_bits, k)
    _write_sidecar(corpus_dir, words)
    tagged.write_parquet(os.path.join(corpus_dir, "hashes"), partition_cols=["bucket"])
    return corpus_dir


def corpus_rows_scanned(corpus_dir: str, hashes: list[str]) -> int:
    """Pruning evidence for benches: corpus hash rows in the bucket
    directories a resolve for ``hashes`` would open (vs the full
    layout's row count)."""
    _, meta = _load_sidecar(corpus_dir)
    u = hash_hex_to_u64(pa.array(hashes, type=pa.string()))
    layout = os.path.join(corpus_dir, "hashes")
    total = 0
    for b in sorted(set(_bucket_of(u, meta["num_buckets"]).tolist())):
        for f in glob.glob(os.path.join(layout, f"bucket={b}", "*.parquet")):
            total += pq.ParquetFile(f).metadata.num_rows
    return total
