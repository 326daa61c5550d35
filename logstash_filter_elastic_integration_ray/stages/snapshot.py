"""Corpus snapshot diff — added / removed / modified / unchanged.

The recurring-crawl bookkeeping primitive: snapshot B (this crawl) vs
snapshot A (the last one), keyed by document id, compared by content
fingerprint.  The output drives incremental processing — only `added`
and `modified` rows re-enter the expensive curation pipeline, `removed`
rows tombstone downstream layouts.

Scale shape: both sides are projected to THIN ``(key, fingerprint)``
rows *before* they reach this stage (compute md5 upstream with
``stages/textstats.py:fingerprint_batch`` — text never rides the
exchange).  One union + one key co-partition + one vectorized pass per
partition; wire volume is O(|A| + |B|) thin rows, driver state is
zero.  At 100 TB the fingerprints are what you'd persist per crawl
anyway, so each diff streams two fingerprint layouts, not two corpora.

Reference parity note: the reference engine (a per-event ingest
filter) has no snapshot surface; this is an engine-native stage for
the training-data-pipeline lifecycle, same family as
``stages/incremental.py`` (which answers "is this text already in the
corpus" — by content; this answers "what happened to each key between
two crawls" — by identity).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .exchange import copartition

__all__ = ["snapshot_diff"]


def snapshot_diff(
    ds_a,
    ds_b,
    *,
    key: str,
    fp_col: str,
    num_partitions: int = 32,
):
    """Diff two keyed snapshots by fingerprint.

    Exact twin of::

        SELECT coalesce(a.key, b.key) AS key, a.fp AS fp_a, b.fp AS fp_b,
               CASE WHEN a.fp IS NULL THEN 'added'
                    WHEN b.fp IS NULL THEN 'removed'
                    WHEN a.fp <> b.fp THEN 'modified'
                    ELSE 'unchanged' END AS status
        FROM a FULL OUTER JOIN b USING (key)

    Contract: ``key`` is unique within each side (a duplicate raises —
    a snapshot with duplicate ids is corrupt input, not a diff case)
    and ``fp_col`` is non-null (fingerprint upstream with an explicit
    null policy, e.g. md5 of the null-coalesced text).
    """

    def per_partition(a: pd.DataFrame, b: pd.DataFrame) -> pa.Table:
        # a side with no rows at all reaches here column-less
        df = pd.concat([s[[key, fp_col]] for s in (a, b) if key in s.columns],
                       ignore_index=True)
        side = np.r_[np.zeros(len(a), dtype=np.int64), np.ones(len(b), dtype=np.int64)]
        codes, uniq = pd.factorize(df[key], use_na_sentinel=False)
        n = len(uniq)
        per_side = np.bincount(codes * 2 + side, minlength=2 * n)
        if (per_side > 1).any():
            bad = uniq[np.nonzero(per_side.reshape(n, 2).max(axis=1) > 1)[0][:3]]
            raise ValueError(f"snapshot_diff: duplicate {key} within a side: {list(bad)}")
        fp = df[fp_col].to_numpy(dtype=object)
        if pd.isna(fp).any():  # catches both None and pd.NA
            raise ValueError("snapshot_diff: null fingerprint")
        fp_a = np.full(n, None, dtype=object)
        fp_b = np.full(n, None, dtype=object)
        a_rows, b_rows = side == 0, side == 1
        fp_a[codes[a_rows]] = fp[a_rows]
        fp_b[codes[b_rows]] = fp[b_rows]
        in_a, in_b = ~pd.isna(fp_a), ~pd.isna(fp_b)
        status = np.where(
            ~in_a, "added",
            np.where(~in_b, "removed", np.where(fp_a != fp_b, "modified", "unchanged")),
        )
        return pa.Table.from_pandas(
            pd.DataFrame({
                # factorize returns uniques in first-occurrence order
                key: np.asarray(uniq),
                "fp_a": pd.array(fp_a, dtype="string"),
                "fp_b": pd.array(fp_b, dtype="string"),
                "status": status,
            }),
            preserve_index=False,
        ).replace_schema_metadata(None)

    return copartition({"a": (ds_a, key), "b": (ds_b, key)}, num_partitions,
                       per_partition, "pandas")
