"""Columnar document model.

The reference engine's unit of data is one mutable nested map per event
(``IngestDocument``, see reference
``src/main/java/co/elastic/logstash/filters/elasticintegration/IngestDuplexMarshaller.java:79-102``).
Our unit of data is one Arrow **batch**: a ``ColumnBatch`` wraps a
``pyarrow.Table`` as a mutable dict of columns keyed by *field path*
(dotted, e.g. ``url.domain``), which processor kernels read and write
vectorized.  Nested structure is flattened to dotted column names in
flight and (optionally) re-nested at the edge — the columnar layout is
what makes every kernel a batch-level Arrow/numpy operation instead of
a per-row interpreter.

Columns stay Arrow arrays end to end.  A kernel whose semantics are
per row (kv, csv, json, dissect, split, fingerprint, ...) reads Python
values of only the rows its mask selects
(:meth:`ColumnBatch.read_rows`), or filters the Arrow column to them,
so the Python cost of a step is proportional to the rows it touches,
not to the batch.

There is one write rule: every write to part of a column goes through
:meth:`ColumnBatch.write_rows`, which scatters one value per selected
row and leaves the other rows as they were.  Written values that share
the column's Arrow type are scattered in Arrow; nulls take the
column's type (a new column of nulls only is ``pa.nulls``); values of
another type replace the column's type when no other row holds a
value, and otherwise make an object column that is typed once, on
output.  Object arrays appear only there, where a batch mixes values
Arrow cannot type together.

Reserved-field sanitization semantics mirror the reference marshaller
(``IngestDuplexMarshaller.java:237-252, 331-346, 357-377, 395-413,
456-509``): see :func:`sanitize_reserved_fields`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# ---------------------------------------------------------------------------
# Engine-private column names (reference: `@metadata` / `_ingest_document`
# doc-level metadata, surfaced as [@metadata][_ingest_document][...] —
# IngestDuplexMarshaller.java:331-346).  Private columns are dropped from
# public output unless explicitly requested.
# ---------------------------------------------------------------------------
META_INDEX = "__meta_index"              # doc-level `_index` (routing target)
META_TARGET_PIPELINE = "__meta_target_pipeline"  # success marker, "_none"
META_FAILURE_MESSAGE = "__meta_failure_message"  # _ingest_pipeline_failure.message
META_FAILURE_TAG = "__meta_failure_tag"          # failing processor tag
PRIVATE_PREFIX = "__"

TAGS = "tags"
FAILURE_TAG_VALUE = "_ingest_pipeline_failure"

# Reserved Logstash fields and their quarantine targets
# (IngestDuplexMarshaller.java:43-46).
RESERVED_TIMESTAMP = "@timestamp"
RESERVED_VERSION = "@version"
RESERVED_METADATA = "@metadata"
QUARANTINE = {
    RESERVED_TIMESTAMP: "_@timestamp",
    RESERVED_VERSION: "_@version",
    RESERVED_METADATA: "_@metadata",
    TAGS: "_tags",
}


def _objects_to_arrow(arr: np.ndarray) -> pa.Array:
    """Best-effort object→Arrow conversion.

    Mixed-type columns (a thing ES documents can legally produce, e.g.
    ``append`` promoting a scalar to a list on some rows only, or a
    failed row restored to its pre-pipeline string next to processed
    list rows) fall back to a string column: values that are already
    strings stay RAW (so a restored original is byte-identical to what
    a string-typed column would hold), everything else JSON-encodes.
    """
    try:
        return pa.array(arr.tolist())
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        import json

        enc = [
            None if v is None else (v if isinstance(v, str) else json.dumps(v, default=str))
            for v in arr.tolist()
        ]
        return pa.array(enc, type=pa.string())


def _stringify(v):
    if v is None or isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _scatter(base: pa.Array, mask: np.ndarray, values: pa.Array) -> pa.Array:
    """``base`` with the rows ``mask`` selects replaced, in order, by
    ``values`` (same type).  Nested types, which ``replace_with_mask``
    has no kernel for, go through one ``take`` over both arrays."""
    try:
        return pc.replace_with_mask(base, pa.array(mask), values)
    except pa.ArrowNotImplementedError:
        idx = np.arange(len(base), dtype=np.int64)
        idx[mask] = len(base) + np.arange(len(values), dtype=np.int64)
        return pa.concat_arrays([base, values]).take(pa.array(idx))


class ColumnBatch:
    """Mutable dict-of-columns view over one Arrow batch.

    Columns are stored as ``pyarrow.Array`` (zero-copy from the object
    store).  Every write to part of a column is one call of
    :meth:`write_rows`, which sets the selected rows and keeps the
    others; a null write keeps the column's type.  A kernel reads the
    rows it writes with :meth:`read_rows`; both touch only the selected
    rows.  A numpy object ndarray holds a column only for values Arrow
    cannot type in one batch (mixed lists and scalars) or when a caller
    sets a whole object column; it is typed once, by :meth:`arrow` or
    on output.
    """

    def __init__(self, table: pa.Table | None = None, num_rows: int | None = None):
        self._cols: dict[str, object] = {}
        if table is not None:
            # flatten Arrow struct columns into dotted paths so nested
            # parquet documents (the natural shape for ES-style docs)
            # are addressable by every `ctx.a.b` condition and processor
            while any(pa.types.is_struct(f.type) for f in table.schema):
                table = table.flatten()
            self.n = table.num_rows
            for i, name in enumerate(table.column_names):
                self._cols[name] = table.column(i).combine_chunks()
        else:
            self.n = int(num_rows or 0)

    # -- introspection ------------------------------------------------------
    def has(self, name: str) -> bool:
        return name in self._cols

    def names(self) -> list[str]:
        return list(self._cols)

    def children(self, prefix: str) -> list[str]:
        """Column names under a dotted prefix (``a`` -> [``a.b``, ...])."""
        p = prefix + "."
        return [c for c in self._cols if c.startswith(p)]

    # -- access -------------------------------------------------------------
    def arrow(self, name: str) -> pa.Array:
        v = self._cols[name]
        if isinstance(v, np.ndarray):
            v = _objects_to_arrow(v)
            self._cols[name] = v
        return v

    def objects(self, name: str) -> np.ndarray:
        """The whole column as a numpy object array, for callers that
        read every row (conditions, the painless interpreter).  Treat it
        as read-only; write back with :meth:`write_rows`."""
        v = self._cols[name]
        if isinstance(v, np.ndarray):
            return v
        out = np.empty(len(v), dtype=object)
        out[:] = v.to_pylist()
        return out

    def valid_mask(self, name: str) -> np.ndarray:
        if name not in self._cols:
            return np.zeros(self.n, dtype=bool)
        v = self._cols[name]
        if isinstance(v, np.ndarray):
            return np.array([x is not None for x in v], dtype=bool)
        if v.null_count == 0:
            return np.ones(self.n, dtype=bool)
        return np.asarray(pc.is_valid(v))

    def read_rows(self, name: str, mask: np.ndarray, stringify: bool = False) -> tuple[np.ndarray, list]:
        """``(row indices, Python values)`` of the rows ``mask`` selects.

        Only those rows are converted to Python.  With ``stringify``
        non-string values read as strings, the way a string-typed
        processor sees them: ``true``/``false`` for booleans, ``str(v)``
        otherwise; nulls stay ``None``."""
        rows = np.flatnonzero(mask)
        v = self._cols.get(name)
        if v is None or len(rows) == 0:
            return rows, [None] * len(rows)
        if isinstance(v, np.ndarray):
            vals = v[rows].tolist()
        else:
            vals = v.filter(pa.array(mask)).to_pylist()
            if pa.types.is_string(v.type) or pa.types.is_large_string(v.type):
                return rows, vals
        if stringify:
            vals = [_stringify(x) for x in vals]
        return rows, vals

    def write_rows(self, name: str, rows: np.ndarray, values) -> None:
        """Set ``name`` on the ascending row indices ``rows`` to
        ``values`` (a list or Arrow array, one value per row); every
        other row keeps its value (null for a new column).

        The values become one Arrow array, scattered with
        ``pc.replace_with_mask`` when its type is the column's.  Nulls
        take the column's type, so a null write never changes it (a new
        column of nulls only is ``pa.nulls``).  When the types differ
        and the column holds no value outside ``rows``, the column takes
        the new type.  Otherwise, and for values Arrow cannot type
        (mixed lists and scalars), the rows are written into an object
        column whose type is settled once, on output, over the rows that
        are still there (a dropped row's old value does not decide it)."""
        if len(rows) == 0:
            return
        old = self._cols.get(name)
        arr = values
        if not isinstance(arr, pa.Array):
            try:
                arr = pa.array(values)
            except (pa.ArrowInvalid, pa.ArrowTypeError):
                arr = None
        if arr is not None:
            if pa.types.is_null(arr.type) and isinstance(old, pa.Array):
                arr = pa.nulls(len(rows), old.type)
            if len(rows) == self.n:
                self._cols[name] = arr
                return
            mask = np.zeros(self.n, dtype=bool)
            mask[rows] = True
            if (isinstance(old, pa.Array) and old.type != arr.type
                    and not np.asarray(pc.is_valid(old))[~mask].any()):
                old = None  # no value outside ``rows`` to keep
            if old is None or (isinstance(old, pa.Array) and old.type == arr.type):
                base = pa.nulls(self.n, arr.type) if old is None else old
                # ``replace_with_mask`` has no kernel for the null type
                # (pyarrow 16 aborts the process on one)
                self._cols[name] = base if pa.types.is_null(arr.type) else _scatter(base, mask, arr)
                return
        out = self.objects(name).copy() if old is not None else np.full(self.n, None, dtype=object)
        for i, v in zip(rows.tolist(), values.to_pylist() if isinstance(values, pa.Array) else values):
            out[i] = v
        self._cols[name] = out

    def copy_rows(self, src: str, dst: str, rows: np.ndarray) -> None:
        """Write ``src``'s values on ``rows`` into ``dst`` through
        :meth:`write_rows`; an Arrow column's rows go as Arrow, so its
        type (``int32``, say) is kept."""
        v = self._cols[src]
        self.write_rows(dst, rows, v.take(rows) if isinstance(v, pa.Array) else v[rows].tolist())

    # -- mutation -----------------------------------------------------------
    def set(self, name: str, values) -> None:
        """Set the whole column ``name``."""
        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        if isinstance(values, (pa.Array, np.ndarray)):
            if len(values) != self.n:
                raise ValueError(f"column {name!r}: length {len(values)} != {self.n}")
            if isinstance(values, np.ndarray) and values.dtype != object:
                values = pa.array(values)
            self._cols[name] = values
        elif isinstance(values, list):
            if len(values) != self.n:
                raise ValueError(f"column {name!r}: length {len(values)} != {self.n}")
            arr = np.empty(self.n, dtype=object)
            arr[:] = values
            self._cols[name] = arr
        else:
            raise TypeError(f"unsupported column value type {type(values)}")

    def set_scalar(self, name: str, value, mask: np.ndarray | None = None) -> None:
        """Write one ``value`` on every row, or on the ``mask`` rows, as
        one repeated Arrow array; a value Arrow cannot type goes as a
        list, so :meth:`write_rows` handles it as any other list."""
        rows = np.arange(self.n) if mask is None else np.flatnonzero(mask)
        try:
            values = pa.repeat(pa.scalar(value), len(rows))
        except (pa.ArrowException, OverflowError):
            values = [value] * len(rows)
        self.write_rows(name, rows, values)

    def drop(self, name: str) -> None:
        self._cols.pop(name, None)

    # -- output -------------------------------------------------------------
    def take_mask(self, keep: np.ndarray) -> None:
        """Filter all columns to ``keep`` rows (used for drop semantics)."""
        if bool(keep.all()):
            return
        kmask = pa.array(keep)
        for name, v in list(self._cols.items()):
            self._cols[name] = v[keep] if isinstance(v, np.ndarray) else v.filter(kmask)
        self.n = int(keep.sum())

    def to_table(self, include_private: bool = False) -> pa.Table:
        names, arrays = [], []
        for name in self._cols:
            if not include_private and name.startswith(PRIVATE_PREFIX):
                continue
            names.append(name)
            arrays.append(self.arrow(name))
        if not names:
            # keep row count observable even with no public columns
            return pa.table({"__rows": pa.nulls(self.n)}).drop_columns(["__rows"]) if self.n == 0 else pa.table(
                {"_": pa.nulls(self.n)}
            )
        return pa.Table.from_arrays(arrays, names=names)

    def snapshot(self) -> dict[str, object]:
        """Shallow column snapshot (arrays are immutable-in-practice:
        kernels always *replace* columns, never mutate buffers)."""
        return dict(self._cols)

    def restore_rows(self, snapshot: dict[str, object], mask: np.ndarray) -> None:
        """Restore masked rows to their snapshot values — the reference's
        failure isolation: a failed event is emitted *unmodified*
        (EventProcessor.java:176-184).  Only the masked rows change:
        a column the pipeline dropped stays dropped for successful rows
        (it comes back as nulls there, values restored only where
        ``mask`` is set)."""
        if not mask.any():
            return
        rows = np.flatnonzero(mask)
        for name in [c for c in self._cols if c not in snapshot]:
            # column added after snapshot: null it out on failed rows
            if mask.all():
                self.drop(name)
            else:
                self.write_rows(name, rows, pa.nulls(len(rows)))
        for name, old in snapshot.items():
            if self._cols.get(name) is old:
                continue  # untouched since snapshot (kernels REPLACE columns)
            if isinstance(old, pa.Array):
                vals = old.filter(pa.array(mask))
                empty = vals.null_count == len(vals)
            else:
                vals = old[rows].tolist()
                empty = all(v is None for v in vals)
            # a column dropped mid-pipeline comes back only if a failed
            # row held a value in it
            if name in self._cols or not empty:
                self.write_rows(name, rows, vals)


# ---------------------------------------------------------------------------
# Reserved-field sanitization (marshal-out semantics)
# ---------------------------------------------------------------------------

def _is_int_string(v) -> bool:
    if not isinstance(v, str):
        return False
    s = v[1:] if v[:1] in "+-" else v
    return s.isdigit() and s != ""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _quarantine(batch: ColumnBatch, name: str, vals: np.ndarray, bad: np.ndarray) -> None:
    """Move the values of rows ``bad`` (indices into ``vals``, the
    column ``name``) to the field's quarantine target."""
    if len(bad):
        batch.write_rows(QUARANTINE[name], bad, vals[bad].tolist())
        batch.write_rows(name, bad, pa.nulls(len(bad)))


def _to_datetime(v):
    """``v`` as a datetime: a datetime as is, an ISO-8601 string parsed,
    anything else None."""
    import datetime as _dt

    if isinstance(v, _dt.datetime):
        return v
    if isinstance(v, str):
        try:
            return _dt.datetime.fromisoformat(v.replace("Z", "+00:00"))
        except ValueError:
            pass
    return None


def sanitize_reserved_fields(batch: ColumnBatch) -> None:
    """Apply the reference marshaller's reserved-field rules
    (IngestDuplexMarshaller.java:357-377 `@version`, :395-413
    `@timestamp`, :456-476 `@metadata`, :486-509 `tags`):

    - ``@version`` must be a string-encoded integer, else the original
      value moves to ``_@version``;
    - ``@timestamp`` must coerce to a timestamp, else the original moves
      to ``_@timestamp``;
    - ``@metadata`` must be a map, else moves to ``_@metadata``;
    - ``tags`` must be a string or list of strings, else moves to
      ``_tags``.

    Only applied to columns that exist; values on rows that conform are
    left untouched.
    """
    if batch.has(RESERVED_VERSION):
        vals = batch.objects(RESERVED_VERSION)
        _quarantine(batch, RESERVED_VERSION, vals, np.flatnonzero(
            [v is not None and not (_is_int_string(v) or _is_int(v)) for v in vals]))
        # integers become string-encoded
        ints = np.flatnonzero([_is_int(v) for v in vals])
        batch.write_rows(RESERVED_VERSION, ints, [str(v) for v in vals[ints]])

    if batch.has(RESERVED_TIMESTAMP):
        col = batch._cols[RESERVED_TIMESTAMP]
        if not (isinstance(col, pa.Array) and pa.types.is_temporal(col.type)):
            vals = batch.objects(RESERVED_TIMESTAMP)
            coerced = [_to_datetime(v) for v in vals]
            _quarantine(batch, RESERVED_TIMESTAMP, vals, np.flatnonzero(
                [v is not None and c is None for v, c in zip(vals, coerced)]))
            batch.set(RESERVED_TIMESTAMP, coerced)

    if batch.has(RESERVED_METADATA):
        vals = batch.objects(RESERVED_METADATA)
        _quarantine(batch, RESERVED_METADATA, vals, np.flatnonzero(
            [v is not None and not isinstance(v, dict) for v in vals]))

    if batch.has(TAGS):
        vals = batch.objects(TAGS)
        # coercible shapes first: a set/tuple of strings becomes a list
        # (IngestDuplexMarshallerTest.java:371-385 — coercible
        # collections tag normally, only truly invalid shapes
        # quarantine); sets sort for determinism
        fix = np.flatnonzero(
            [isinstance(v, (set, tuple)) and all(isinstance(x, str) for x in v) for v in vals])
        if len(fix):
            batch.write_rows(TAGS, fix, [sorted(v) if isinstance(v, set) else list(v) for v in vals[fix]])
            vals = batch.objects(TAGS)

        def _tags_ok(v):
            if v is None or isinstance(v, str):
                return True
            if isinstance(v, list):
                return all(isinstance(x, str) for x in v)
            return False

        _quarantine(batch, TAGS, vals, np.flatnonzero([not _tags_ok(v) for v in vals]))


def apply_timestamp_fallback(batch: ColumnBatch, now=None) -> None:
    """Marshal-out rule for a REMOVED ``@timestamp``
    (IngestDuplexMarshallerTest.java:187-227): when the input carried
    the reserved field but the pipeline removed it, the output event's
    ``@timestamp`` is repopulated from ``event.created`` when present,
    else ``now`` — a timestamp the CALLER pins once per run (the
    executor captures it at construction, on the driver, so Ray task
    retries and batch splits produce identical output; the reference's
    equivalent is the ingest metadata's per-event ``now``).
    ``_@timestamp`` is NOT set by this path.

    Only call when the INPUT batch had an ``@timestamp`` column (the
    Logstash-shaped contract: every event carries one)."""
    import datetime as _dt

    missing = ~batch.valid_mask(RESERVED_TIMESTAMP)
    if not missing.any():
        return
    if now is None:
        now = _dt.datetime.now(_dt.timezone.utc).replace(tzinfo=None)
    rows, created = batch.read_rows("event.created", missing)
    fill = []
    for c in map(_to_datetime, created):
        fill.append(now if c is None else c if c.tzinfo is None
                    else c.astimezone(_dt.timezone.utc).replace(tzinfo=None))
    batch.write_rows(RESERVED_TIMESTAMP, rows, fill)


def append_tag(batch: ColumnBatch, mask: np.ndarray, tag: str) -> None:
    """Append ``tag`` to the ``tags`` field of masked rows (list-promote)."""
    rows, vals = batch.read_rows(TAGS, mask)
    batch.write_rows(TAGS, rows, [
        [tag] if v is None else (v if tag in v else v + [tag]) if isinstance(v, list) else [v, tag]
        for v in vals
    ])
