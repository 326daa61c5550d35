"""Transcript → training-pair extraction (SFT prep).

``context_response_pairs`` turns a conversation table into supervised
fine-tuning rows: one output row per turn of ``target_role`` (the
assistant), carrying the full prior conversation rendered as
``"role: text"`` lines — the exact twin of::

    string_agg(role || ': ' || text, sep) OVER w  AS context
    count(*)                            OVER w  AS n_context_turns
    text                                          AS response
    WINDOW w AS (PARTITION BY key ORDER BY order_col
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)

filtered to ``role = target_role``.  A target turn with no preceding
rows gets a NULL context (SQL ``string_agg`` over an empty frame) and
``n_context_turns = 0``.

Shape (the 100-TB contract): ONE co-partition by conversation hash —
the irreducible exchange, every turn must meet its conversation — then
one :func:`segments.runs` + a per-target-row ``str.join`` over the
group's prefix slice.  The join cost is exactly the bytes emitted, so
the stage is output-bound by construction; there is no per-turn
accumulation (which would be O(len²) per conversation).
``max_context_chars`` bounds each emitted context to its LAST N
characters (keep the recent turns), which also bounds worker memory
when conversations are pathological — the cap is applied per emitted
row, not to the join input, so it changes bytes stored, not bytes
scanned.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from logstash_filter_elastic_integration_ray.stages import segments
from logstash_filter_elastic_integration_ray.stages.exchange import exchange

__all__ = ["context_response_pairs", "context_response_reference"]


def context_response_pairs(
    ds,
    *,
    key: str = "conv_id",
    order_col: str = "turn_idx",
    role_col: str = "role",
    text_col: str = "text",
    target_role: str = "assistant",
    sep: str = "\n",
    max_context_chars: int | None = None,
    num_partitions: int = 32,
):
    """One (key, order, context, n_context_turns, response) row per
    ``target_role`` turn.  See the module docstring for semantics and
    the scale contract.  ``order_col`` must be non-null and unique per
    key (ties would make the rendered context order-dependent)."""
    if max_context_chars is not None and max_context_chars <= 0:
        raise ValueError("context_response_pairs: max_context_chars must be >= 1")

    def per_partition(df: pd.DataFrame) -> pa.Table:
        codes, _ = pd.factorize(df[key], use_na_sentinel=False)
        r = segments.runs(codes, {order_col: df[order_col].to_numpy()})
        df = df.iloc[r.order].reset_index(drop=True)
        group_start = r.head
        # rendered "role: text" lines; null text renders '' (the twin's
        # COALESCE(text, '')) but a null ROLE nulls the whole element,
        # which string_agg SKIPS — mark those lines absent
        role_valid = df[role_col].notna().to_numpy()
        lines = (
            df[role_col].fillna("").astype(str) + ": " + df[text_col].fillna("").astype(str)
        ).to_numpy(dtype=object)
        is_target = (df[role_col] == target_role).to_numpy()
        tgt = np.flatnonzero(is_target)
        ctx = np.empty(len(tgt), dtype=object)
        n_ctx = (tgt - group_start[tgt]).astype(np.int64)
        # per-TARGET-row join over the prefix slice: cost == bytes
        # emitted (no per-turn accumulation)
        for j, i in enumerate(tgt):
            s = group_start[i]
            valid = np.flatnonzero(role_valid[s:i])
            if len(valid) == 0:
                ctx[j] = None  # empty window frame → SQL NULL
                continue
            c = sep.join(lines[s:i][valid])
            ctx[j] = c[-max_context_chars:] if max_context_chars is not None else c
        # build arrays from the FULL (non-empty) columns and take the
        # target rows: a partition whose target slice is empty would
        # otherwise infer null-typed columns and break the block union
        idx = pa.array(tgt)
        return pa.table(
            {
                key: pa.Array.from_pandas(df[key]).take(idx),
                order_col: pa.Array.from_pandas(df[order_col]).take(idx),
                "context": pa.array(list(ctx), type=pa.string()),
                "n_context_turns": pa.array(n_ctx, type=pa.int64()),
                "response": pa.Array.from_pandas(df[text_col])
                .cast(pa.string())
                .take(idx),
            }
        )

    return exchange(ds, key, num_partitions, per_partition, "pandas")


def context_response_reference(
    rows: list[dict],
    *,
    key: str = "conv_id",
    order_col: str = "turn_idx",
    role_col: str = "role",
    text_col: str = "text",
    target_role: str = "assistant",
    sep: str = "\n",
    max_context_chars: int | None = None,
) -> list[dict]:
    """Plain-Python reference for tests: same semantics, no Ray."""
    if max_context_chars is not None and max_context_chars <= 0:
        raise ValueError("max_context_chars must be >= 1")
    by_key: dict = {}
    for r in rows:
        by_key.setdefault(r[key], []).append(r)
    out = []
    for k in by_key:
        turns = sorted(by_key[k], key=lambda r: r[order_col])
        for i, r in enumerate(turns):
            if r[role_col] != target_role:
                continue
            # null-role elements are skipped (string_agg semantics);
            # an all-skipped or empty frame yields NULL
            parts = [
                f"{t[role_col]}: {t[text_col] if t[text_col] is not None else ''}"
                for t in turns[:i]
                if t[role_col] is not None
            ]
            if not parts:
                ctx = None
            else:
                ctx = sep.join(parts)
                if max_context_chars is not None:
                    ctx = ctx[-max_context_chars:]
            out.append(
                {
                    key: k,
                    order_col: r[order_col],
                    "context": ctx,
                    "n_context_turns": i,
                    "response": r[text_col],
                }
            )
    return out
