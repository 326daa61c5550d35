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
per row (kv, csv, json, dissect, the grok ``re`` fallback, ...) reads
Python values of only the rows its mask selects
(:meth:`ColumnBatch.read_rows`) and scatters its results back into
those rows only (:meth:`ColumnBatch.write_rows`), so the Python cost of
a step is proportional to the rows it touches, not to the batch.
Object arrays appear only where a value has no Arrow type (a column
mixing lists and scalars) or where a kernel that is written per row
over the whole column still builds one.

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


def _to_numpy_objects(arr) -> np.ndarray:
    if isinstance(arr, np.ndarray):
        if arr.dtype == object:
            return arr
        return arr.astype(object)
    if isinstance(arr, (pa.Array, pa.ChunkedArray)):
        out = np.empty(len(arr), dtype=object)
        out[:] = arr.to_pylist()
        return out
    out = np.empty(len(arr), dtype=object)
    out[:] = list(arr)
    return out


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
    store).  Per-row kernels go through the masked pair
    :meth:`read_rows` / :meth:`write_rows`, which convert and scatter
    only the selected rows and keep the column Arrow when the written
    values have an Arrow type.  A numpy object ndarray holds a column
    only for values Arrow cannot type (mixed lists and scalars) or when
    a kernel sets a whole object column; it turns back into Arrow
    lazily on access.
    """

    def __init__(self, table: pa.Table | None = None, num_rows: int | None = None):
        self._cols: dict[str, object] = {}
        # derived Python-object views of Arrow columns (``objects()``):
        # kept ALONGSIDE the Arrow array, not replacing it, so a per-row
        # kernel touching a column doesn't demote later vectorized
        # conditions/kernels on the same column to Python loops.
        self._obj_cache: dict[str, np.ndarray] = {}
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
            self._obj_cache.pop(name, None)
        return v

    def objects(self, name: str) -> np.ndarray:
        """Column as numpy object array (derived view; treat as
        read-only — write back via ``set``/``blend``)."""
        v = self._cols[name]
        if isinstance(v, np.ndarray):
            return v
        cached = self._obj_cache.get(name)
        if cached is None:
            cached = _to_numpy_objects(v)
            self._obj_cache[name] = cached
        return cached

    def get_objects_or_none(self, name: str) -> np.ndarray | None:
        return self.objects(name) if name in self._cols else None

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
            cached = self._obj_cache.get(name)
            vals = cached[rows].tolist() if cached is not None else v.filter(pa.array(mask)).to_pylist()
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
        ``pc.replace_with_mask`` when its type is the column's.  When
        the types differ and the column holds no value outside ``rows``,
        the column takes the new type.  Otherwise, and for values Arrow
        cannot type (mixed lists and scalars), the rows are written into
        an object column whose type is settled once, on output, over
        the rows that are still there (a dropped row's old value does
        not decide it)."""
        if len(rows) == 0:
            return
        old = self._cols.get(name)
        arr = values
        if not isinstance(arr, pa.Array):
            try:
                arr = pa.array(values)
            except (pa.ArrowInvalid, pa.ArrowTypeError):
                arr = None
        mask = np.zeros(self.n, dtype=bool)
        mask[rows] = True
        if (isinstance(old, pa.Array) and arr is not None and old.type != arr.type
                and not np.asarray(pc.is_valid(old))[~mask].any()):
            old = None  # no value outside ``rows`` to keep
        if arr is not None and (old is None or (isinstance(old, pa.Array) and old.type == arr.type)):
            self._store(name, _scatter(pa.nulls(self.n, arr.type) if old is None else old, mask, arr))
            return
        out = self.objects(name).copy() if old is not None else np.full(self.n, None, dtype=object)
        for i, v in zip(rows.tolist(), values.to_pylist() if isinstance(values, pa.Array) else values):
            out[i] = v
        self._store(name, out)

    # -- mutation -----------------------------------------------------------
    def _store(self, name: str, value) -> None:
        self._cols[name] = value
        self._obj_cache.pop(name, None)

    def set(self, name: str, values) -> None:
        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        if isinstance(values, (pa.Array, np.ndarray)):
            if len(values) != self.n:
                raise ValueError(f"column {name!r}: length {len(values)} != {self.n}")
            if isinstance(values, np.ndarray) and values.dtype != object:
                values = pa.array(values)
            self._store(name, values)
        elif isinstance(values, list):
            if len(values) != self.n:
                raise ValueError(f"column {name!r}: length {len(values)} != {self.n}")
            arr = np.empty(self.n, dtype=object)
            arr[:] = values
            self._store(name, arr)
        else:
            raise TypeError(f"unsupported column value type {type(values)}")

    def set_scalar(self, name: str, value, mask: np.ndarray | None = None) -> None:
        if mask is None or bool(mask.all()):
            if value is None:
                self._store(name, pa.nulls(self.n))
            else:
                try:
                    self._store(name, pa.array([value] * self.n))
                except (pa.ArrowInvalid, pa.ArrowTypeError):
                    arr = np.empty(self.n, dtype=object)
                    arr[:] = [value] * self.n
                    self._store(name, arr)
            return
        rows = np.flatnonzero(mask)
        self.write_rows(name, rows, [value] * len(rows))

    def drop(self, name: str) -> None:
        self._cols.pop(name, None)
        self._obj_cache.pop(name, None)

    def rename(self, old: str, new: str) -> None:
        self._store(new, self._cols.pop(old))
        self._obj_cache.pop(old, None)

    def blend(self, name: str, new_values, mask: np.ndarray) -> None:
        """Set ``name`` to ``new_values`` on masked rows, keep old elsewhere.

        Fast path: both sides Arrow with a common type → ``pc.if_else``.
        Fallback: object arrays.
        """
        if isinstance(new_values, list):
            tmp = np.empty(self.n, dtype=object)
            tmp[:] = new_values
            new_values = tmp
        old = self._cols.get(name)
        if old is None:
            if isinstance(new_values, pa.Array) or (
                isinstance(new_values, np.ndarray) and new_values.dtype != object
            ):
                arr = new_values if isinstance(new_values, pa.Array) else pa.array(new_values)
                self._store(name, pc.if_else(pa.array(mask), arr, pa.nulls(self.n, arr.type)))
            else:
                out = np.empty(self.n, dtype=object)
                out[:] = None
                out[mask] = np.asarray(new_values, dtype=object)[mask]
                self._store(name, out)
            return
        arrow_old = isinstance(old, pa.Array)
        arrow_new = isinstance(new_values, pa.Array) or (
            isinstance(new_values, np.ndarray) and new_values.dtype != object
        )
        if arrow_old and arrow_new:
            arr = new_values if isinstance(new_values, pa.Array) else pa.array(new_values)
            try:
                if arr.type != old.type:
                    common = pa.string() if (pa.types.is_string(arr.type) or pa.types.is_string(old.type)) else None
                    if common is not None:
                        arr = arr.cast(common) if arr.type != common else arr
                        old = old.cast(common) if old.type != common else old
                    else:
                        arr = arr.cast(old.type)
                self._store(name, pc.if_else(pa.array(mask), arr, old))
                return
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                pass
        out = self.objects(name).copy()
        out[mask] = _to_numpy_objects(new_values)[mask]
        self._store(name, out)

    # -- output -------------------------------------------------------------
    def take_mask(self, keep: np.ndarray) -> None:
        """Filter all columns to ``keep`` rows (used for drop semantics)."""
        if bool(keep.all()):
            return
        kmask = pa.array(keep)
        for name, v in list(self._cols.items()):
            if isinstance(v, np.ndarray):
                self._cols[name] = v[keep]
            else:
                self._cols[name] = v.filter(kmask)
        self._obj_cache.clear()
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
        current = set(self._cols)
        snap_names = set(snapshot)
        for name in current - snap_names:
            if mask.all():
                self.drop(name)
            else:
                # column added after snapshot: null it out on failed rows
                self.blend(name, np.full(self.n, None, dtype=object), mask)
        for name in snap_names:
            if name in self._cols and self._cols[name] is snapshot[name]:
                continue  # untouched since snapshot (kernels REPLACE columns)
            old_np = _to_numpy_objects(snapshot[name])
            if name not in self._cols:
                # column was dropped mid-pipeline: reinstate values ONLY
                # for the failed rows, nulls elsewhere
                restored = np.full(self.n, None, dtype=object)
                restored[mask] = old_np[mask]
                if all(v is None for v in restored):
                    continue
                self.set(name, restored)
            else:
                self.blend(name, old_np, mask)


# ---------------------------------------------------------------------------
# Reserved-field sanitization (marshal-out semantics)
# ---------------------------------------------------------------------------

def _is_int_string(v) -> bool:
    if not isinstance(v, str):
        return False
    s = v[1:] if v[:1] in "+-" else v
    return s.isdigit() and s != ""


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
    import datetime as _dt

    if batch.has(RESERVED_VERSION):
        vals = batch.objects(RESERVED_VERSION)
        bad = np.array(
            [v is not None and not (_is_int_string(v) or isinstance(v, int) and not isinstance(v, bool)) for v in vals],
            dtype=bool,
        )
        if bad.any():
            quarantined = np.where(bad, vals, None)
            batch.blend(QUARANTINE[RESERVED_VERSION], quarantined, bad)
            coerced = vals.copy()
            coerced[bad] = None
            batch.set(RESERVED_VERSION, coerced)
        # integers become string-encoded
        vals = batch.objects(RESERVED_VERSION)
        batch.set(RESERVED_VERSION, np.array(
            [str(v) if isinstance(v, int) and not isinstance(v, bool) else v for v in vals], dtype=object
        ))

    if batch.has(RESERVED_TIMESTAMP):
        col = batch._cols[RESERVED_TIMESTAMP]
        is_temporal_col = isinstance(col, pa.Array) and pa.types.is_temporal(col.type)
        if not is_temporal_col:
            vals = batch.objects(RESERVED_TIMESTAMP)
            coerced = np.empty(batch.n, dtype=object)
            bad = np.zeros(batch.n, dtype=bool)
            for i, v in enumerate(vals):
                if v is None:
                    coerced[i] = None
                    continue
                if isinstance(v, _dt.datetime):
                    coerced[i] = v
                    continue
                if isinstance(v, str):
                    try:
                        coerced[i] = _dt.datetime.fromisoformat(v.replace("Z", "+00:00"))
                        continue
                    except ValueError:
                        pass
                bad[i] = True
                coerced[i] = None
            if bad.any():
                quarantined = np.where(bad, vals, None)
                batch.blend(QUARANTINE[RESERVED_TIMESTAMP], quarantined, bad)
            batch.set(RESERVED_TIMESTAMP, coerced)

    if batch.has(RESERVED_METADATA):
        vals = batch.objects(RESERVED_METADATA)
        bad = np.array([v is not None and not isinstance(v, dict) for v in vals], dtype=bool)
        if bad.any():
            quarantined = np.where(bad, vals, None)
            batch.blend(QUARANTINE[RESERVED_METADATA], quarantined, bad)
            cleaned = vals.copy()
            cleaned[bad] = None
            batch.set(RESERVED_METADATA, cleaned)

    if batch.has(TAGS):
        vals = batch.objects(TAGS)

        # coercible shapes first: a set/tuple of strings becomes a list
        # (IngestDuplexMarshallerTest.java:371-385 — coercible
        # collections tag normally, only truly invalid shapes
        # quarantine); sets sort for determinism
        coerced = vals.copy()
        changed = False
        for i, v in enumerate(vals):
            if isinstance(v, (set, tuple)) and all(isinstance(x, str) for x in v):
                coerced[i] = sorted(v) if isinstance(v, set) else list(v)
                changed = True
        if changed:
            batch.set(TAGS, coerced)
            vals = coerced

        def _tags_ok(v):
            if v is None or isinstance(v, str):
                return True
            if isinstance(v, list):
                return all(isinstance(x, str) for x in v)
            return False

        bad = np.array([not _tags_ok(v) for v in vals], dtype=bool)
        if bad.any():
            quarantined = np.where(bad, vals, None)
            batch.blend(QUARANTINE[TAGS], quarantined, bad)
            cleaned = vals.copy()
            cleaned[bad] = None
            batch.set(TAGS, cleaned)


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

    if batch.has(RESERVED_TIMESTAMP):
        vals = batch.objects(RESERVED_TIMESTAMP)
        missing = np.array([v is None for v in vals], dtype=bool)
    else:
        missing = np.ones(batch.n, dtype=bool)
    if not missing.any():
        return
    created = batch.get_objects_or_none("event.created")
    if now is None:
        now = _dt.datetime.now(_dt.timezone.utc).replace(tzinfo=None)
    fill = np.empty(batch.n, dtype=object)
    fill[:] = None
    for i in np.nonzero(missing)[0]:
        c = created[i] if created is not None else None
        if isinstance(c, str):
            try:
                c = _dt.datetime.fromisoformat(c.replace("Z", "+00:00"))
            except ValueError:
                c = None
        if isinstance(c, _dt.datetime):
            fill[i] = c if c.tzinfo is None else c.astimezone(_dt.timezone.utc).replace(tzinfo=None)
        else:
            fill[i] = now
    batch.blend(RESERVED_TIMESTAMP, fill, missing)


def append_tag(batch: ColumnBatch, mask: np.ndarray, tag: str) -> None:
    """Append ``tag`` to the ``tags`` field of masked rows (list-promote)."""
    if not mask.any():
        return
    if batch.has(TAGS):
        vals = batch.objects(TAGS).copy()
    else:
        vals = np.empty(batch.n, dtype=object)
        vals[:] = None
    idx = np.nonzero(mask)[0]
    for i in idx:
        v = vals[i]
        if v is None:
            vals[i] = [tag]
        elif isinstance(v, list):
            if tag not in v:
                vals[i] = v + [tag]
        else:
            vals[i] = [v, tag]
    batch.set(TAGS, vals)
