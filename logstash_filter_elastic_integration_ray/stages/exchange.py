"""The engine's one hash exchange.

Every hash-keyed stage — the ``groupby(conv_id)`` aggregate, joins,
windows, dedup, the graph tier — reaches its merge through this module,
so the hash shuffle and the key-found check each live in one place.
(A one-sided scan whose rows already carry their group id — a range
chunk, a shard bucket — groups on that id directly.)

- :func:`exchange` — one Dataset: rows tagged ``__part`` by the hash of
  ``key`` (:func:`add_partition_col`), then ``groupby("__part")
  .map_groups(fn)``, coalesced by ``repartition(P)`` first only when
  the plan may hold more than ``P`` blocks (:func:`_shuffle`, the one
  place the shuffle is chosen for all three).  ``fn`` sees one hash
  partition without the tag column.
- :func:`copartition` — several Datasets hashed on their own keys into
  the same ``P`` partitions; ``fn`` receives one table per side, each
  holding only that side's own columns.  :func:`cogroup` is the same
  merge for sides already keyed by a group id (a range chunk, an IVF
  bucket): no hash, one id per ``fn`` call.
- :func:`lookup` — the ``searchsorted`` join a merge does once its
  sides are co-partitioned, with the hit check: a key that should have
  been co-located and was not raises instead of reading a neighbour.

``copartition`` and ``cogroup`` pack each input block into one row per
partition whose payload is the Arrow IPC stream of that block's slice,
so the union they shuffle has one fixed schema (``__part``, ``__side``,
``__rows``) whatever the sides hold: no side pads dummy columns, no type
is widened, and no lazy Dataset's ``schema()`` runs (that would execute
its plan).  Every non-empty block sends a slice — possibly empty, always
carrying its schema — to every partition, so a side that has no rows in
a partition still reaches ``fn`` as an empty table with its columns.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

try:  # Arrow-native string hashing (same guard as stages/decontam.py)
    import polars as _pl
except ImportError:  # pragma: no cover - polars ships in this container
    _pl = None


def add_partition_col(batch: pa.Table, num_partitions: int, key: str = "conv_id") -> pa.Table:
    col = batch.column(key)
    if pa.types.is_integer(col.type):
        # numeric fast path: hash the int64 buffer directly — no
        # per-row Python object materialization.  Nulls are filled with
        # a fixed sentinel FIRST: int-with-null converts to float64,
        # whose hash differs from the int hash, so the same key would
        # otherwise land in different partitions depending on whether
        # its batch happened to contain a null (a sentinel collision
        # merely co-locates two groups, which is harmless).
        if col.null_count:
            col = pc.fill_null(col, np.iinfo(np.int64).min)
        vals = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        part = (pd.util.hash_array(vals) % np.uint64(num_partitions)).astype(np.int64)
    else:
        # string keys: hash the Arrow buffer directly when polars is
        # available (no per-row Python objects — this is the headline
        # pipeline's partitioning hot path); partition assignment is
        # internal-only, so the hash function choice is free
        if _pl is not None:
            h = _pl.from_arrow(
                col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
            ).hash(seed=0).to_numpy()
        else:
            h = pd.util.hash_array(np.asarray(col.to_pylist(), dtype=object),
                                   categorize=False)
        part = (h % np.uint64(num_partitions)).astype(np.int64)
    return batch.append_column("__part", pa.array(part))


def _shuffle(tagged, num_partitions: int):
    """The single place the shuffle is chosen: Ray's sort-based groupby
    on ``__part``, coalesced first by ``repartition(num_partitions)``
    only when the plan may hold more blocks than partitions.

    Ray's plan-time block estimate (``initial_num_blocks``: the logical
    DAG's ``estimated_num_outputs``, computed without executing) decides.
    Above ``num_partitions`` blocks — or with no estimate — coalescing
    pays: the sort groupby's per-task overhead over hundreds of
    micro-blocks otherwise dominates (256 blocks of 1000 rows, P = 8, on
    a 4-vCPU VM: 3.64 s coalesced, 19.18 s not).  At or below it the
    repartition can only split blocks, so it is one more all-to-all
    barrier that moves no data usefully and is skipped."""
    blocks = tagged._plan.initial_num_blocks()
    if blocks is None or blocks > num_partitions:
        tagged = tagged.repartition(num_partitions)
    return tagged.groupby("__part")


def exchange(ds, key: str, num_partitions: int, fn, batch_format: str = "pandas"):
    """Hash-partition ``ds`` by ``key`` into ``num_partitions`` groups
    and run ``fn`` once per non-empty group, in ``batch_format``.  The
    result is the Dataset of ``fn``'s outputs."""

    if batch_format == "pandas":
        def merge(df: pd.DataFrame):
            return fn(df.drop(columns="__part"))
    else:
        def merge(t: pa.Table):
            return fn(t.drop_columns(["__part"]))

    parts = ds.map_batches(
        lambda b: add_partition_col(b, num_partitions, key=key), batch_format="pyarrow"
    )
    return _shuffle(parts, num_partitions).map_groups(merge, batch_format=batch_format)


def _ipc_payloads(t: pa.Table, part: np.ndarray, num_partitions: int) -> pa.Array:
    """One IPC stream per partition (the rows of ``t`` whose ``part``
    is that partition, in input order) as a ``large_binary`` array."""
    order = np.argsort(part, kind="stable")
    t = t.take(pa.array(order))
    bounds = np.r_[0, np.cumsum(np.bincount(part, minlength=num_partitions))]
    sink = pa.BufferOutputStream()
    offsets = [0]
    for p in range(num_partitions):
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t.slice(bounds[p], bounds[p + 1] - bounds[p]))
        offsets.append(sink.tell())
    return pa.Array.from_buffers(
        pa.large_binary(), num_partitions,
        [None, pa.py_buffer(np.asarray(offsets, dtype=np.int64)), sink.getvalue()],
    )


def _cogroup(sides: dict, num_groups: int, group_of, fn, batch_format: str):
    """Pack every side block into one IPC payload row per group id
    (``group_of(table, key)`` → ids in ``[0, num_groups)``), union the
    packed sides, shuffle them on the id and unpack each group into one
    table per side for ``fn``."""
    names = list(sides)

    def known_schema(ds) -> pa.Schema:
        s = ds.schema(fetch_if_missing=False)
        s = getattr(s, "base_schema", s)
        return s if isinstance(s, pa.Schema) else pa.schema([])

    fallback = {name: known_schema(ds) for name, (ds, _) in sides.items()}

    def packer(i: int, key: str):
        def pack(t: pa.Table) -> pa.Table:
            return pa.table({
                "__part": pa.array(np.arange(num_groups, dtype=np.int64)),
                "__side": pa.array(np.full(num_groups, i, dtype=np.int32)),
                "__rows": _ipc_payloads(t, group_of(t, key), num_groups),
            })
        return pack

    def unpack(t: pa.Table):
        side = t.column("__side").to_numpy()
        payload = t.column("__rows")
        tables = {}
        for i, name in enumerate(names):
            idx = np.flatnonzero(side == i)
            if len(idx):
                # a pandas-born block types an all-null column as null
                tables[name] = pa.concat_tables(
                    [pa.ipc.open_stream(payload[int(j)].as_buffer()).read_all() for j in idx],
                    promote_options="default")
            else:
                tables[name] = fallback[name].empty_table()
        if batch_format == "pandas":
            tables = {k: v.to_pandas() for k, v in tables.items()}
        return fn(**tables)

    packed = [ds.map_batches(packer(i, key), batch_format="pyarrow")
              for i, (ds, key) in enumerate(sides.values())]
    tagged = packed[0].union(*packed[1:])
    return _shuffle(tagged, num_groups).map_groups(unpack, batch_format="pyarrow")


def copartition(sides: dict, num_partitions: int, fn, batch_format: str = "pandas"):
    """Co-partition several Datasets: ``sides`` maps a name to
    ``(ds, key)``; rows of every side whose ``key`` hashes alike meet in
    the same partition, and ``fn(**{name: table})`` runs once per
    partition with one ``batch_format`` table per side (only that
    side's columns, rows in arrival order).  Once any side has a row,
    ``fn`` runs for EVERY partition, also where all sides are empty, so
    it must return its (empty) output for empty tables.

    A side whose Dataset has no rows at all runs no pack task: it keeps
    its columns when Ray holds its schema without executing anything (a
    materialized Dataset) and otherwise reaches ``fn`` with none, so a
    merge must not read a column of a side it has not checked for rows."""

    def hashed(t: pa.Table, key: str) -> np.ndarray:
        part = add_partition_col(t.select([key]), num_partitions, key=key)
        return part.column("__part").to_numpy()

    return _cogroup(sides, num_partitions, hashed, fn, batch_format)


def cogroup(sides: dict, num_groups: int, fn, batch_format: str = "pandas"):
    """:func:`copartition` for sides whose ``key`` column already holds
    a group id in ``[0, num_groups)`` — a range chunk or an IVF bucket:
    rows are grouped on the id itself, with no hash, so ``fn`` sees
    exactly one id's rows (its ``key`` column included).  The
    empty-side rules of :func:`copartition` hold unchanged."""

    def ids(t: pa.Table, key: str) -> np.ndarray:
        return t.column(key).to_numpy(zero_copy_only=False).astype(np.int64)

    return _cogroup(sides, num_groups, ids, fn, batch_format)


def lookup(sorted_keys, values, want, *, default=None) -> np.ndarray:
    """``values[i]`` for each ``want`` equal to ``sorted_keys[i]`` (one
    ``searchsorted``).  A key not in ``sorted_keys`` takes ``default``
    (a scalar or an array aligned with ``want``); with no default a miss
    raises ``KeyError`` — on co-partitioned sides it means the
    partitioning invariant broke, and reading the neighbouring key
    would return a silently wrong answer."""
    sorted_keys = np.asarray(sorted_keys)
    values = np.asarray(values)
    want = np.asarray(want)
    n = len(sorted_keys)
    pos = np.minimum(np.searchsorted(sorted_keys, want), max(n - 1, 0))
    hit = sorted_keys[pos] == want if n else np.zeros(len(want), dtype=bool)
    if default is None:
        if not hit.all():
            miss = want[~hit]
            raise KeyError(
                f"lookup: {len(miss)} of {len(want)} keys not found "
                f"(first: {miss[:3].tolist()})")
        return values[pos]
    if not n:
        return np.broadcast_to(np.asarray(default), want.shape).copy()
    return np.where(hit, values[pos], default)
