"""Avro source/sink.

Fifth source format beside parquet, JSONL, CSV and ORC: Avro object
container files are the row-oriented interchange format Kafka/data-lake
pipelines export.  Neither Ray Data nor this container ships an Avro
library, so this module implements the PUBLIC format spec
(avro.apache.org/docs/current/specification/) directly — the same
"real public format, no library" approach as the mmdb / netpbm / WAV
codecs:

- container layout: ``Obj\\x01`` magic, file-metadata map
  (``avro.schema`` JSON + ``avro.codec``), 16-byte sync marker, then
  data blocks of (record count, byte size, records, sync);
- binary encoding: zigzag-varint longs/ints, length-prefixed
  strings/bytes, little-endian IEEE float/double, 1-byte booleans,
  union-index-prefixed nullable values; ``timestamp-micros`` logical
  type carries Arrow ``timestamp[us]`` losslessly;
- codecs: ``null`` and ``deflate`` (raw DEFLATE, zlib wbits=-15) on
  both sides.

Parallelism shape matches the ORC adapter: ``write_avro`` is a
``BlockBasedFileDatasink`` (each write task serializes its own blocks,
Ray's commit protocol owns filenames so retried tasks overwrite
instead of duplicating), ``read_avro`` decodes each worker's own files
inside ``map_batches`` over ``read_binary_files``.  Record
encode/decode is sequential per file BY FORMAT DESIGN (a varint stream
has no random access); scale comes from many files, exactly like any
Avro consumer.  Correctness is pinned by the ``transcripts_avro``
driver query against the SAME DuckDB oracle as the parquet source.
"""

from __future__ import annotations

import io
import json
import struct
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .io import engine_plan

_MAGIC = b"Obj\x01"
_BLOCK_ROWS = 4096


# ---------------------------------------------------------------------------
# primitive encoders/decoders (spec: binary encoding)
# ---------------------------------------------------------------------------


def _enc_long(n: int) -> bytes:
    """Zigzag varint."""
    z = (n << 1) ^ (n >> 63) if n < 0 else (n << 1)
    out = bytearray()
    while True:
        b = z & 0x7F
        z >>= 7
        if z:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _dec_long(buf: bytes, pos: int) -> tuple[int, int]:
    shift = 0
    acc = 0
    while True:
        b = buf[pos]
        pos += 1
        acc |= (b & 0x7F) << shift
        if not (b & 0x80):
            break
        shift += 7
    return (acc >> 1) ^ -(acc & 1), pos


def _enc_bytes(b: bytes) -> bytes:
    return _enc_long(len(b)) + b


def _avro_type(t: pa.DataType) -> object:
    if pa.types.is_timestamp(t):
        return {"type": "long", "logicalType": "timestamp-micros"}
    if pa.types.is_int64(t):
        return "long"
    if pa.types.is_int32(t) or pa.types.is_int16(t) or pa.types.is_int8(t):
        return "int"
    if pa.types.is_float64(t):
        return "double"
    if pa.types.is_float32(t):
        return "float"
    if pa.types.is_boolean(t):
        return "boolean"
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "string"
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return "bytes"
    raise ValueError(f"unsupported Arrow type for Avro: {t}")


def _schema_json(schema: pa.Schema) -> str:
    fields = [{"name": f.name, "type": ["null", _avro_type(f.type)]}
              for f in schema]
    return json.dumps({"type": "record", "name": "Row", "fields": fields})


def _sync_for(schema_json: str) -> bytes:
    import hashlib

    # any 16 bytes are legal; derive from the schema so output is
    # deterministic under retries
    return hashlib.md5(schema_json.encode()).digest()


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


def _column_encoder(col: pa.ChunkedArray | pa.Array, t: pa.DataType):
    """Per-column closure list: value at row i → encoded bytes (union
    index 1 + payload) or the null branch (index 0)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    null_b = _enc_long(0)
    one = _enc_long(1)
    if pa.types.is_timestamp(t) or pa.types.is_int64(t) or pa.types.is_int32(t) \
            or pa.types.is_int16(t) or pa.types.is_int8(t):
        vals = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        mask = col.is_null().to_numpy(zero_copy_only=False)
        return [null_b if mask[i] else one + _enc_long(int(vals[i]))
                for i in range(len(col))]
    if pa.types.is_float64(t) or pa.types.is_float32(t):
        fmt = "<d" if pa.types.is_float64(t) else "<f"
        vals = col.to_numpy(zero_copy_only=False)
        mask = col.is_null().to_numpy(zero_copy_only=False)
        return [null_b if mask[i] else one + struct.pack(fmt, float(vals[i]))
                for i in range(len(col))]
    if pa.types.is_boolean(t):
        lst = col.to_pylist()
        return [null_b if v is None else one + (b"\x01" if v else b"\x00")
                for v in lst]
    lst = col.to_pylist()
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return [null_b if v is None else one + _enc_bytes(v.encode("utf-8"))
                for v in lst]
    return [null_b if v is None else one + _enc_bytes(v) for v in lst]


def encode_avro(table: pa.Table, *, codec: str = "null") -> bytes:
    """One Arrow table → one complete Avro object container file."""
    if codec not in ("null", "deflate"):
        raise ValueError(f"unsupported Avro codec: {codec}")
    schema_json = _schema_json(table.schema)
    sync = _sync_for(schema_json)
    out = io.BytesIO()
    out.write(_MAGIC)
    meta = {"avro.schema": schema_json.encode(), "avro.codec": codec.encode()}
    out.write(_enc_long(len(meta)))
    for k, v in meta.items():
        out.write(_enc_bytes(k.encode()))
        out.write(_enc_bytes(v))
    out.write(_enc_long(0))
    out.write(sync)
    for lo in range(0, table.num_rows, _BLOCK_ROWS):
        chunk = table.slice(lo, _BLOCK_ROWS)
        encs = [_column_encoder(chunk.column(i), chunk.schema.field(i).type)
                for i in range(chunk.num_columns)]
        body = b"".join(
            b"".join(enc[r] for enc in encs) for r in range(chunk.num_rows))
        if codec == "deflate":
            body = zlib.compress(body, 6)[2:-4]  # raw DEFLATE per spec
        out.write(_enc_long(chunk.num_rows))
        out.write(_enc_long(len(body)))
        out.write(body)
        out.write(sync)
    return out.getvalue()


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------


def decode_avro(payload: bytes) -> pa.Table:
    """One Avro object container file → one Arrow table."""
    if payload[:4] != _MAGIC:
        raise ValueError("not an Avro object container file")
    pos = 4
    meta: dict[str, bytes] = {}
    while True:
        n, pos = _dec_long(payload, pos)
        if n == 0:
            break
        if n < 0:  # spec: negative count is followed by a byte size
            n = -n
            _, pos = _dec_long(payload, pos)
        for _ in range(n):
            klen, pos = _dec_long(payload, pos)
            k = payload[pos:pos + klen].decode()
            pos += klen
            vlen, pos = _dec_long(payload, pos)
            meta[k] = payload[pos:pos + vlen]
            pos += vlen
    schema = json.loads(meta["avro.schema"].decode())
    codec = meta.get("avro.codec", b"null").decode()
    if codec not in ("null", "deflate"):
        raise ValueError(f"unsupported Avro codec: {codec}")
    sync = payload[pos:pos + 16]
    pos += 16

    fields = schema["fields"]
    kinds = []
    for f in fields:
        ft = f["type"]
        nullable = isinstance(ft, list)
        base = next(x for x in ft if x != "null") if nullable else ft
        if isinstance(base, dict) and base.get("logicalType") == "timestamp-micros":
            kinds.append(("ts", nullable))
        elif isinstance(base, dict):
            kinds.append((base.get("type"), nullable))
        else:
            kinds.append((base, nullable))
    names = [f["name"] for f in fields]
    cols: list[list] = [[] for _ in fields]

    dec_long = _dec_long
    while pos < len(payload):
        n_rec, pos = dec_long(payload, pos)
        size, pos = dec_long(payload, pos)
        body = payload[pos:pos + size]
        pos += size
        if payload[pos:pos + 16] != sync:
            raise ValueError("Avro block sync marker mismatch")
        pos += 16
        if codec == "deflate":
            body = zlib.decompress(body, wbits=-15)
        bp = 0
        for _ in range(n_rec):
            for ci, (kind, nullable) in enumerate(kinds):
                if nullable:
                    idx, bp = dec_long(body, bp)
                    if idx == 0:
                        cols[ci].append(None)
                        continue
                if kind in ("long", "int", "ts"):
                    v, bp = dec_long(body, bp)
                    cols[ci].append(v)
                elif kind == "double":
                    cols[ci].append(struct.unpack_from("<d", body, bp)[0])
                    bp += 8
                elif kind == "float":
                    cols[ci].append(struct.unpack_from("<f", body, bp)[0])
                    bp += 4
                elif kind == "boolean":
                    cols[ci].append(body[bp] == 1)
                    bp += 1
                elif kind == "string":
                    ln, bp = dec_long(body, bp)
                    cols[ci].append(body[bp:bp + ln].decode("utf-8"))
                    bp += ln
                elif kind == "bytes":
                    ln, bp = dec_long(body, bp)
                    cols[ci].append(body[bp:bp + ln])
                    bp += ln
                else:
                    raise ValueError(f"unsupported Avro field type: {kind}")

    arrow_types = {"long": pa.int64(), "int": pa.int32(),
                   "double": pa.float64(), "float": pa.float32(),
                   "boolean": pa.bool_(), "string": pa.string(),
                   "bytes": pa.binary(), "ts": pa.timestamp("us")}
    arrays = {}
    for name, (kind, _n), vals in zip(names, kinds, cols):
        arrays[name] = pa.array(vals, type=arrow_types[kind])
    return pa.table(arrays)


# ---------------------------------------------------------------------------
# Dataset surface (mirrors sources/orcsrc.py)
# ---------------------------------------------------------------------------


class _AvroDatasink:
    """Lazy holder so importing this module never imports Ray."""

    _cls = None

    @classmethod
    def get(cls):
        if cls._cls is None:
            from ray.data.datasource import BlockBasedFileDatasink

            class AvroDatasink(BlockBasedFileDatasink):
                def __init__(self, path: str, codec: str = "null"):
                    super().__init__(path, file_format="avro")
                    self._codec = codec

                def write_block_to_file(self, block, file) -> None:
                    file.write(encode_avro(block.to_arrow(), codec=self._codec))

            cls._cls = AvroDatasink
        return cls._cls


def write_avro(ds, out_dir: str, *, codec: str = "deflate") -> str:
    """Sharded Avro via a file datasink — retry-safe filenames owned by
    Ray's write protocol."""
    ds.write_datasink(_AvroDatasink.get()(out_dir, codec))
    return out_dir


def read_avro(path, **kwargs):
    """Read Avro container file(s) as a Dataset; decoding happens in
    the workers (one task per group of files)."""
    import ray.data as rd

    ds = engine_plan(rd.read_binary_files(path, file_extensions=["avro"], **kwargs))

    def decode_batch(t: pa.Table) -> pa.Table:
        parts = [decode_avro(b.as_py()) for b in t.column("bytes")]
        if not parts:
            return pa.table({})
        return pa.concat_tables(parts).replace_schema_metadata(None)

    return ds.map_batches(decode_batch, batch_format="pyarrow")
