"""Log-stream flow operators from the reference's surrounding
ecosystem: multiline event assembly (the Logstash ``multiline`` codec
shape — stack traces and wrapped lines join their parent event) and
per-key event throttling (the Logstash ``throttle`` filter shape —
at most N events per key per time window pass, the rest are flagged).

The reference plugin itself is a *filter* and receives already-framed
events, but every real deployment frames multiline logs upstream and
rate-limits hot emitters — a user switching their pipeline to this
engine needs both.

Distributed shapes:

- **multiline_assemble**: events within one source stream are
  inherently sequential, so the op co-partitions by the stream key and
  assembles each stream with ONE vectorized pass (boundary mask →
  cumsum event ids → per-event join); only the stream's own lines ride
  the exchange.  Same partitioning contract as the per-conversation
  SFT packing (``stages/sft.py``).
- **throttle_events**: one hash exchange on the key, then
  per-partition ``segments.runs`` by (key, window) in order-column
  order and each row's position in its run — rows ranked past the
  limit flag ``throttled``.  A hot key concentrates one partition,
  which is the op's semantic requirement (rank WITHIN key×window); the
  window bucketing bounds each group at limit-relevant size.

Both are bit-exact against window-function SQL twins.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import segments


def multiline_assemble(ds, *, stream_col: str, idx_col: str, line_col: str,
                       cont_pattern: str = r"^\s", num_partitions: int = 32):
    """Join continuation lines (matching ``cont_pattern``) onto their
    preceding start line: one assembled event per maximal run.

    Output: (stream, event_idx, n_lines, message) — ``event_idx`` is
    the 1-based rank of the event's start line within the stream,
    ``message`` the newline-join of its lines in line order.  A stream
    whose FIRST line is a continuation still opens an event (the
    Logstash ``multiline`` orphan rule: emit rather than drop)."""

    def assemble(t: pa.Table) -> pa.Table:
        streams = t.column(stream_col).to_numpy(zero_copy_only=False)
        idx = t.column(idx_col).to_numpy(zero_copy_only=False)
        col = t.column(line_col)
        if pa.types.is_null(col.type):
            # an all-null group round-trips from pandas as null-typed
            col = col.cast(pa.string())
        lines_arr = pc.fill_null(col, "")
        if isinstance(lines_arr, pa.ChunkedArray):
            lines_arr = lines_arr.combine_chunks()
        cont = pc.match_substring_regex(lines_arr, cont_pattern).to_numpy(
            zero_copy_only=False)
        r = segments.runs(streams, {idx_col: idx})
        s, c = streams[r.order], cont[r.order]
        lines = lines_arr.take(pa.array(r.order))
        n = len(s)
        if n == 0:
            return pa.table({
                stream_col: pa.array([], type=t.schema.field(stream_col).type),
                "event_idx": pa.array([], type=pa.int64()),
                "n_lines": pa.array([], type=pa.int64()),
                "message": pa.array([], type=pa.string()),
            })
        start = ~c | r.new  # an orphan continuation opens an event
        ev = np.cumsum(start)  # global event id across the sorted batch
        starts = np.flatnonzero(start)
        counts = np.diff(np.r_[starts, n])
        # event_idx: rank of the event within its stream
        event_idx = (ev - ev[r.head])[starts] + 1
        # newline-join each event's lines: one Arrow list rebuild
        offsets = np.r_[starts, n].astype(np.int32)
        lst = pa.ListArray.from_arrays(pa.array(offsets), lines)
        msg = pc.binary_join(lst, "\n")
        return pa.table({
            stream_col: pa.array(s[starts]),
            "event_idx": pa.array(event_idx.astype(np.int64)),
            "n_lines": pa.array(counts.astype(np.int64)),
            "message": msg,
        })

    from .exchange import exchange

    return exchange(ds, stream_col, num_partitions,
                    lambda df: assemble(pa.Table.from_pandas(df, preserve_index=False)),
                    "pandas")


def throttle_events(ds, *, key_col: str, ts_col: str, order_col: str,
                    window_us: int, limit: int, num_partitions: int = 32):
    """Flag events past ``limit`` per (key, window): output (key,
    window bucket, order col, seq, throttled).  ``seq`` is the 1-based
    arrival rank within the key×window ordered by (ts, order col) —
    the SQL row_number twin; ``throttled = seq > limit``."""

    def rank(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False)
        ts = t.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        oid = t.column(order_col).to_numpy(zero_copy_only=False)
        bkt = ts // window_us
        r = segments.runs((keys, bkt), {ts_col: ts, order_col: oid})
        k, b, o = keys[r.order], bkt[r.order], oid[r.order]
        n = len(k)
        if n == 0:
            return pa.table({
                key_col: pa.array([], type=t.schema.field(key_col).type),
                "bkt": pa.array([], type=pa.int64()),
                order_col: pa.array([], type=t.schema.field(order_col).type),
                "seq": pa.array([], type=pa.int64()),
                "throttled": pa.array([], type=pa.bool_()),
            })
        seq = r.pos + 1
        return pa.table({
            key_col: pa.array(k),
            "bkt": pa.array(b.astype(np.int64)),
            order_col: pa.array(o),
            "seq": pa.array(seq.astype(np.int64)),
            "throttled": pa.array(seq > limit),
        })

    from .exchange import exchange

    return exchange(ds, key_col, num_partitions,
                    lambda df: rank(pa.Table.from_pandas(df, preserve_index=False)),
                    "pandas")
