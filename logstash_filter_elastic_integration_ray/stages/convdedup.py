"""Conversation-level dedup operators over transcript tables.

Two curation primitives an SFT / dialogue-training pipeline needs that
document-level dedup does not cover:

- :func:`conversation_prefix_groups` — group conversations that share
  an identical first-``k``-turn prefix (regenerate branches, retried
  rollouts, A/B samples of the same context) and elect one canonical
  conversation per group.  The industry-standard first pass before
  turn-level dedup: regen branches are near-100% duplicated context
  and must be collapsed BEFORE token-level near-dup, or the branch
  family dominates the LSH buckets.
- :func:`response_dedup` — exact dedup of individual responses ACROSS
  conversations (templated assistant replies, canned tool outputs),
  keyed by content hash with a deterministic min-key survivor, plus
  the duplicate count that quality dashboards chart.

Reference parity: the reference plugin has no conversation operators —
engine-native training-data stages (SURVEY §2.9 family), same two-phase
/ co-partition discipline as stages/dedup.py:exact_dedup.

Scale shape (100 TB bar):

- prefix grouping ships only the first ``k`` turns' text into the one
  conv-keyed exchange (k is small and fixed); after the per-partition
  md5 fold the rows are THIN (conv_id, 32-hex) — the prefix-keyed
  second exchange never carries text.
- response_dedup is the exact_dedup shape: per-batch local reduce
  (distinct text → min key + count) thins dup-heavy batches before the
  single hash-keyed exchange; merged per partition with ONE pandas
  groupby, never a per-group Ray aggregate.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .dedup import min_id_per_text
from .exchange import exchange

#: unit separator — joins prefix turns; cannot occur in text columns
#: that came through the transcript marshaller (control chars are not
#: produced by any parse kernel), and the SQL twin uses chr(31)
PREFIX_SEP = "\x1f"


def conversation_prefix_groups(
    ds,
    *,
    conv_col: str = "conv_id",
    idx_col: str = "turn_idx",
    text_col: str = "text",
    k: int = 4,
    num_partitions: int = 32,
):
    """One row per conversation: ``(conv_col, prefix_key, n_branches,
    keep)`` where ``prefix_key`` is the md5 of the first ``k`` turns'
    text joined on :data:`PREFIX_SEP` in ``idx_col`` order (fewer than
    ``k`` turns → the turns that exist; a NULL text joins as ''),
    ``n_branches`` is the number
    of conversations sharing that prefix, and ``keep`` marks the
    lexicographically-smallest conversation id of each group.

    Exact twin of::

        WITH p AS (SELECT conv, md5(string_agg(coalesce(text, ''), chr(31)
                                     ORDER BY turn_idx)) AS prefix_key
                   FROM t WHERE turn_idx < k GROUP BY conv)
        SELECT conv, prefix_key,
               count(*) OVER w AS n_branches,
               conv = min(conv) OVER w AS keep
        FROM p WINDOW w AS (PARTITION BY prefix_key)

    Two exchanges: conversations co-partition by ``conv_col`` hash
    (only ``turn_idx < k`` rows ride, projected to three columns), the
    thin (conv, md5) rows co-partition by prefix hash.  ``idx_col``
    must be unique per conversation (the transcript integrity contract
    — run sequence_integrity first on untrusted input).  ``conv_col``
    may be a string OR an int64 key (int keys let the survivors feed
    hash_semi_join directly); "smallest" is lexicographic for strings,
    numeric for ints.
    """
    from .joins import _dataset_schema

    proj = ds.map_batches(
        lambda t: t.filter(pc.less(t.column(idx_col), k)).select(
            [conv_col, idx_col, text_col]
        ),
        batch_format="pyarrow",
    )
    conv_type = _dataset_schema(proj).field(conv_col).type

    key_schema = pa.schema([(conv_col, conv_type), ("prefix_key", pa.string())])

    def fold_prefix(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(
            [conv_col, idx_col], kind="mergesort"
        )
        joined = df.groupby(conv_col, sort=True)[text_col].agg(
            lambda s: PREFIX_SEP.join("" if pd.isna(v) else v for v in s)
        )
        out = pd.DataFrame({
            conv_col: joined.index.to_numpy(),
            "prefix_key": [
                hashlib.md5(p.encode("utf-8")).hexdigest() for p in joined
            ],
        })
        return pa.Table.from_pandas(
            out, preserve_index=False, schema=key_schema
        ).replace_schema_metadata(None)

    keys = exchange(proj, conv_col, num_partitions, fold_prefix, "pandas")

    out_schema = pa.schema([
        (conv_col, conv_type),
        ("prefix_key", pa.string()),
        ("n_branches", pa.int64()),
        ("keep", pa.bool_()),
    ])

    def elect(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("prefix_key", sort=False)[conv_col]
        df = df.assign(
            n_branches=g.transform("size").astype(np.int64),
            keep=df[conv_col] == g.transform("min"),
        )
        return pa.Table.from_pandas(
            df, preserve_index=False, schema=out_schema
        ).replace_schema_metadata(None)

    return exchange(keys, "prefix_key", num_partitions, elect, "pandas")


def response_dedup(
    ds,
    *,
    key_col: str,
    text_col: str = "text",
    num_partitions: int = 32,
):
    """Exact dedup of individual rows (responses) by text content:
    one row per distinct text — ``(content_hash, keep_id, n_dups)``
    with ``keep_id = min(key_col)`` (the deterministic survivor) and
    ``n_dups`` the total occurrence count.  ``key_col`` must be a
    unique int64 row key (callers with a (conv, turn) identity encode
    it into one int64 first — exact and cheap, and it keeps the
    exchange rows at three fixed-width columns).

    Exact twin of::

        SELECT md5(text) AS content_hash, min(key) AS keep_id,
               count(*) AS n_dups
        FROM t GROUP BY md5(text)

    Shape = stages/dedup.py:exact_dedup plus the count: per-batch
    local reduce hashes each DISTINCT text once and forwards
    (hash, local min key, local count); one co-partition by hash; one
    pandas groupby per partition.  A response repeated a million times
    in one batch ships one row.
    """

    def partial(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy().astype(np.int64)
        uniq, best, cnt = min_id_per_text(t.column(text_col), keys)
        hashes = [hashlib.md5(x.encode("utf-8")).hexdigest() for x in uniq]
        return pa.table({
            "content_hash": pa.array(hashes, type=pa.string()),
            "keep_id": pa.array(best),
            "n_dups": pa.array(cnt),
        })

    schema = pa.schema([
        ("content_hash", pa.string()),
        ("keep_id", pa.int64()),
        ("n_dups", pa.int64()),
    ])

    def merge(df: pd.DataFrame) -> pa.Table:
        out = df.groupby("content_hash", as_index=False).agg(
            keep_id=("keep_id", "min"), n_dups=("n_dups", "sum")
        )
        return pa.Table.from_pandas(
            out, preserve_index=False, schema=schema
        ).replace_schema_metadata(None)

    return exchange(ds.map_batches(partial, batch_format="pyarrow"), "content_hash",
                    num_partitions, merge, "pandas")


def conversation_text(
    ds,
    *,
    conv_col: str = "conv_key",
    idx_col: str = "turn_idx",
    text_col: str = "text",
    sep: str = " ",
    num_partitions: int = 32,
):
    """One row per conversation: ``(conv_col, text)`` with the turn
    texts joined on ``sep`` in ``idx_col`` order — the assembly pass
    that turns a turn-grained transcript table into a document-grained
    one (whole-conversation near-dup, conversation-level LM scoring,
    packing).  Exact twin of ``string_agg(text, sep ORDER BY idx)
    GROUP BY conv``.

    Delegates to the shared ordered-concat machinery
    (stages/aggregate.py:group_string_agg — one conv-keyed
    co-partition, the text rides exactly once) after filling null
    turns with '' — a missing turn contributes an empty token, NOT a
    skipped separator position, so turn arity is preserved.
    ``idx_col`` must be unique per conversation."""
    from .aggregate import group_string_agg

    def proj(t: pa.Table) -> pa.Table:
        t = t.select([conv_col, idx_col, text_col])
        return t.set_column(
            t.schema.get_field_index(text_col), text_col,
            pc.fill_null(t.column(text_col), ""),
        )

    return group_string_agg(
        ds.map_batches(proj, batch_format="pyarrow"),
        key=conv_col, val_col=text_col, order_cols=[idx_col],
        sep=sep, out_col="text", num_partitions=num_partitions,
    )
