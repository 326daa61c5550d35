"""Persisted inverted text index — the text twin of the IVF layout
(stages/similarity.py:build_ivf_layout).

``build_postings_layout`` writes (token, doc_id) postings as a
bucket-partitioned parquet layout keyed by a token hash; a term lookup
then reads ONLY the queried terms' bucket directories — lookup cost
scales with terms × bucket size (corpus/num_buckets), not corpus size.
The build is one streaming pass over the documents (per-batch distinct
(token, doc) pairs — a doc lives in one row, so the pairs are globally
distinct) followed by Ray's partitioned parquet write; no driver-side
state at all.

Token hashing for bucket routing uses Java's ``String.hashCode``
polynomial (31-based, int32 wraparound) — a pinned PUBLIC convention
both the engine and any reader can reproduce without pandas-version
coupling.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.io import engine_plan


def token_bucket(tokens, num_buckets: int) -> np.ndarray:
    """Deterministic bucket per token string: Java String.hashCode
    (int32 wraparound), floor-mod into [0, num_buckets).

    Java hashes UTF-16 CODE UNITS, so non-BMP characters contribute
    their surrogate pair (two units), not the code point — iterating
    the utf-16-be encoding keeps the route byte-exact with a real Java
    reader of the layout.  Runs only over per-batch UNIQUE tokens and
    query terms (vocabulary-sized, never corpus-sized)."""
    out = np.zeros(len(tokens), dtype=np.int64)
    for i, t in enumerate(tokens):
        h = 0
        units = (t or "").encode("utf-16-be")
        for j in range(0, len(units), 2):
            h = (h * 31 + (units[j] << 8 | units[j + 1])) & 0xFFFFFFFF
        if h >= 0x80000000:
            h -= 0x100000000
        out[i] = h % num_buckets
    return out


def build_postings_layout(ds, out_dir: str, *, num_buckets: int = 64,
                          text_col: str = "text", id_col: str = "doc_id") -> str:
    """One streaming pass documents → bucket-partitioned postings
    (``out_dir/bucket=N/``), one row per distinct (token, doc)."""

    def postings(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        toks = pc.split_pattern(pc.fill_null(col, ""), " ")
        counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = np.asarray(toks.flatten().to_pylist(), dtype=object)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({"token": flat, "doc_id": np.repeat(ids, counts)}).drop_duplicates()
        uniq_tokens, inv = np.unique(df["token"].to_numpy(), return_inverse=True)
        buckets = token_bucket(list(uniq_tokens), num_buckets)[inv]
        return pa.table(
            {
                "token": pa.array(df["token"].to_numpy(), type=pa.string()),
                "doc_id": pa.array(df["doc_id"].to_numpy(dtype=np.int64)),
                "bucket": pa.array(buckets),
            }
        )

    ds.map_batches(postings, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["bucket"]
    )
    return out_dir


def lookup_terms(layout_dir: str, terms: list[str], *, num_buckets: int = 64):
    """Postings for ``terms``: opens ONLY the terms' bucket
    directories.  Returns a Dataset of (token, doc_id)."""
    from ..sources.io import read_parquet_clean

    buckets = sorted({int(b) for b in token_bucket(list(terms), num_buckets)})
    paths = [
        f
        for b in buckets
        for f in sorted(glob.glob(os.path.join(layout_dir, f"bucket={b}", "*.parquet")))
    ]
    if not paths:
        # a term whose bucket was never written is the same logical
        # case as a term absent from a written bucket: empty postings,
        # not an error (write_parquet only creates non-empty partitions)
        import ray.data as rd

        return engine_plan(rd.from_arrow(
            pa.table({"token": pa.array([], type=pa.string()),
                      "doc_id": pa.array([], type=pa.int64())})
        ))
    ds = read_parquet_clean(paths, columns=["token", "doc_id"])
    term_set = set(terms)

    def keep(t: pa.Table) -> pa.Table:
        mask = pc.is_in(t.column("token"), value_set=pa.array(sorted(term_set), type=pa.string()))
        return t.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


def postings_rows_scanned(layout_dir: str, terms: list[str], *, num_buckets: int = 64) -> int:
    """Pruning evidence for benches: total rows in the bucket files a
    lookup for ``terms`` opens (vs the whole layout)."""
    import pyarrow.parquet as pq

    buckets = sorted({int(b) for b in token_bucket(list(terms), num_buckets)})
    total = 0
    for b in buckets:
        for f in glob.glob(os.path.join(layout_dir, f"bucket={b}", "*.parquet")):
            total += pq.ParquetFile(f).metadata.num_rows
    return total


# ---------------------------------------------------------------------------
# BM25 retrieval over a scored postings layout
# ---------------------------------------------------------------------------


def build_bm25_layout(ds, out_dir: str, *, num_buckets: int = 64,
                      text_col: str = "text", id_col: str = "doc_id") -> str:
    """Scored postings layout for BM25: bucket-partitioned
    (token, doc_id, tf, dl) rows — tf = the term's in-document count,
    dl = the document's token count (empty split pieces excluded) —
    plus a `_meta.json` with the two exact corpus scalars (n_docs,
    n_tokens) a scorer needs.  Two cheap column-pruned passes: one
    streaming postings write (a doc lives in one batch, so per-batch
    (token, doc) rows are globally distinct), one thin count reduce.
    No driver state beyond the two ints."""
    import json

    def postings(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        toks = pc.split_pattern(pc.fill_null(col, ""), " ")
        flat = toks.flatten()
        parent = pc.list_parent_indices(toks)
        keep = pc.not_equal(flat, "")
        flat, parent = flat.filter(keep), parent.filter(keep)
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        pidx = parent.to_numpy(zero_copy_only=False).astype(np.int64)
        dl = np.bincount(pidx, minlength=t.num_rows).astype(np.int64)
        df = pd.DataFrame({"token": np.asarray(flat.to_pylist(), dtype=object),
                           "doc_id": ids[pidx]})
        tf = (df.groupby(["token", "doc_id"], sort=False).size()
              .rename("tf").reset_index())
        uniq_tokens, inv = np.unique(tf["token"].to_numpy(), return_inverse=True)
        buckets = token_bucket(list(uniq_tokens), num_buckets)[inv]
        id_to_dl = dict(zip(ids.tolist(), dl.tolist()))
        return pa.table({
            "token": pa.array(tf["token"].to_numpy(), type=pa.string()),
            "doc_id": pa.array(tf["doc_id"].to_numpy(dtype=np.int64)),
            "tf": pa.array(tf["tf"].to_numpy(dtype=np.int64)),
            "dl": pa.array(np.asarray([id_to_dl[int(d)] for d in tf["doc_id"]],
                                      dtype=np.int64)),
            "bucket": pa.array(buckets),
        })

    ds.map_batches(postings, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["bucket"]
    )

    def meta_partial(t: pa.Table) -> pa.Table:
        col = t.column(text_col)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        toks = pc.split_pattern(pc.fill_null(col, ""), " ")
        flat = toks.flatten()
        n_tok = int(pc.sum(pc.not_equal(flat, "")).as_py() or 0)
        return pa.table({"n_docs": pa.array([t.num_rows], type=pa.int64()),
                         "n_tokens": pa.array([n_tok], type=pa.int64())})

    agg = ds.map_batches(meta_partial, batch_format="pyarrow")
    n_docs = int(agg.sum("n_docs"))
    n_tokens = int(agg.sum("n_tokens"))
    with open(os.path.join(out_dir, "_meta.json"), "w") as f:
        json.dump({"n_docs": n_docs, "n_tokens": n_tokens}, f)
    return out_dir


def bm25_topk(layout_dir: str, terms: list[str], *, k: int = 10,
              k1: float = 1.2, b: float = 0.75, num_buckets: int = 64,
              num_partitions: int = 16):
    """BM25 top-k documents for a bag-of-terms query (Robertson/Spärck
    Jones probabilistic ranking, the Lucene `(k1+1)`-scaled practical
    form with the non-negative `ln(1 + (N-df+0.5)/(df+0.5))` idf):

        idf_t  = ln((N - df_t + 0.5) / (df_t + 0.5) + 1.0)
        contrib = idf_t * (tf * (k1+1)) / (tf + k1*(1 - b + b*dl/avgdl))
        score(d) = Σ_{t ∈ terms} contrib, summed in ascending token
        order (IEEE-stable, shared with the SQL twin)

    Opens ONLY the query terms' bucket directories — cost scales with
    terms × bucket size, never corpus size.  df per term is a thin
    exchange over the pruned postings; per-doc score is one
    co-partition by doc with an in-order segmented sum; top-k is local
    per partition then one ≤ P·k-row cut.  Ties (score desc, doc_id
    asc) are deterministic on both engines."""
    import json

    import ray.data as rd

    from .exchange import exchange

    with open(os.path.join(layout_dir, "_meta.json")) as f:
        meta = json.load(f)
    n_docs, n_tokens = int(meta["n_docs"]), int(meta["n_tokens"])
    avgdl = float(n_tokens) / float(n_docs)

    buckets = sorted({int(x) for x in token_bucket(list(terms), num_buckets)})
    paths = [
        f
        for bk in buckets
        for f in sorted(glob.glob(os.path.join(layout_dir, f"bucket={bk}", "*.parquet")))
    ]
    empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "score": pa.array([], type=pa.float64())})
    if not paths:
        return engine_plan(rd.from_arrow(empty))

    from ..sources.io import read_parquet_clean

    term_arr = pa.array(sorted(set(terms)), type=pa.string())
    pruned = read_parquet_clean(paths, columns=["token", "doc_id", "tf", "dl"])

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column("token"), value_set=term_arr))

    # thin df exchange over the pruned postings (one row per (term,
    # posting); the partition pass below needs the postings anyway, so
    # df finalizes in the same co-partition and rides along each row)
    by_term = exchange(pruned.map_batches(keep, batch_format="pyarrow"), "token", num_partitions,
                       lambda df: _score_rows(df, n_docs=n_docs, avgdl=avgdl, k1=k1, b=b),
                       "pandas")

    def per_doc(df: pd.DataFrame) -> pa.Table:
        if not len(df):
            return empty
        df = df.sort_values(["doc_id", "token"], kind="mergesort")
        d = df["doc_id"].to_numpy(dtype=np.int64)
        c = df["contrib"].to_numpy(dtype=np.float64)
        newg = np.r_[True, d[1:] != d[:-1]]
        gid = np.cumsum(newg) - 1
        # in-order segmented sum: token-ascending within each doc
        score = np.zeros(gid[-1] + 1, dtype=np.float64)
        np.add.at(score, gid, c)
        out = pd.DataFrame({"doc_id": d[newg], "score": score})
        out = out.sort_values(["score", "doc_id"], ascending=[False, True],
                              kind="mergesort").head(k)
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    def final_cut(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(["score", "doc_id"], ascending=[False, True],
                               kind="mergesort").head(k)
                .reset_index(drop=True))

    return (
        exchange(by_term, "doc_id", num_partitions, per_doc, "pandas")
        .repartition(1)
        .map_batches(final_cut, batch_format="pandas")
    )


def _score_rows(df: pd.DataFrame, *, n_docs: int, avgdl: float, k1: float,
                b: float) -> pa.Table:
    """Per token partition: finalize df (postings rows are globally
    distinct per (token, doc)), then the fixed BM25 float expression —
    shared token-for-token with the SQL twin."""
    if not len(df):
        return pa.table({"doc_id": pa.array([], type=pa.int64()),
                         "token": pa.array([], type=pa.string()),
                         "contrib": pa.array([], type=pa.float64())})
    import math

    uniq_t, inv = np.unique(df["token"].to_numpy(), return_inverse=True)
    df_t = np.bincount(inv).astype(np.float64)
    # math.log per DISTINCT term (glibc log — numpy's SIMD log differs
    # by ULPs from DuckDB's ln; same fix as token_keyness)
    idf_t = np.asarray(
        [math.log((n_docs - dfv + 0.5) / (dfv + 0.5) + 1.0) for dfv in df_t],
        dtype=np.float64)
    idf = idf_t[inv]
    tf = df["tf"].to_numpy(dtype=np.float64)
    dl = df["dl"].to_numpy(dtype=np.float64)
    contrib = idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * (dl / avgdl)))
    return pa.table({
        "doc_id": pa.array(df["doc_id"].to_numpy(dtype=np.int64)),
        "token": pa.array(df["token"].to_numpy(dtype=object), type=pa.string()),
        "contrib": pa.array(contrib),
    })
