"""TFRecord source/sink: the container format TensorFlow/JAX input
pipelines consume, so a curated corpus written here feeds `tf.data` /
`array_record` loaders directly.  No TensorFlow or protobuf library
ships in this stack, so BOTH public specs are implemented from
scratch (the same posture as the Avro / mmdb / WAV / netpbm codecs):

- **record framing** (TFRecord spec): per record
  ``uint64le length | uint32le masked_crc32c(length bytes) |
  payload | uint32le masked_crc32c(payload)`` where
  ``mask(c) = ((c >> 15) | (c << 17)) + 0xa282ead8 (mod 2^32)`` and
  the CRC is CRC-32C (Castagnoli, reflected poly 0x82F63B78,
  init/final-xor 0xFFFFFFFF).  CRCs are VERIFIED on read — a flipped
  byte raises, it does not decode garbage.
- **payload** = a hand-encoded ``tf.train.Example`` protobuf
  (proto3 wire format: varint tags, length-delimited submessages):
  ``Example{1: Features{1: map<string, Feature>}}`` with
  ``Feature`` oneof ``{1: BytesList, 2: FloatList(packed float32),
  3: Int64List(packed varint)}``.

Type mapping follows TF convention: ints/bools/timestamps →
``Int64List`` (timestamps as epoch micros — pass ``timestamp_cols`` on
read to restore ``timestamp[us]``, the ORC adapter's contract),
strings/bytes → ``BytesList`` (utf-8), floats → ``FloatList``
(float32 — float64 columns narrow, the documented TF-Example limit).
A null value omits the feature (the Example convention); on read a
missing feature is null.

CRC32C is computed VECTORIZED ACROSS RECORDS: one byte-position loop
over the batch (records sorted by length so the active set is a
prefix slice), table lookups over all active records at once — numpy
element work is O(total payload bytes), Python iterations are
O(longest record), never O(records × bytes).  Example encode/decode
is per-record Python BY FORMAT DESIGN (a varint stream has no random
access); scale comes from many files, exactly like every TFRecord
consumer (same posture as avrosrc.py:26).

Parallelism shape matches the other five formats: ``write_tfrecord``
is a ``BlockBasedFileDatasink`` (retry-safe filenames owned by Ray's
commit protocol), ``read_tfrecord`` decodes each worker's own files
inside ``map_batches`` over ``read_binary_files``.  Correctness is
pinned by the ``transcripts_tfrecord`` driver query against the SAME
DuckDB oracle as the parquet source.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .io import engine_plan

# ---------------------------------------------------------------------------
# CRC-32C (Castagnoli), masked per the TFRecord spec
# ---------------------------------------------------------------------------

_CRC_POLY = np.uint32(0x82F63B78)


def _build_table() -> np.ndarray:
    tab = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        tab = np.where(tab & 1, (tab >> 1) ^ _CRC_POLY, tab >> 1)
    return tab


_CRC_TABLE = _build_table()
_MASK_DELTA = np.uint32(0xA282EAD8)


def crc32c_many(flat: np.ndarray, offsets: np.ndarray,
                lengths: np.ndarray) -> np.ndarray:
    """CRC-32C of ``len(lengths)`` byte slices of ``flat`` — vectorized
    across records (see module docstring).  Returns uint32."""
    n = len(lengths)
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    order = np.argsort(-lengths.astype(np.int64), kind="stable")
    off_s = offsets[order].astype(np.int64)
    len_s = lengths[order].astype(np.int64)
    crc = np.full(n, 0xFFFFFFFF, dtype=np.uint32)
    neg = -len_s  # ascending; active at byte j = count(len_s > j)
    for j in range(int(len_s[0]) if n else 0):
        na = int(np.searchsorted(neg, -j, side="left"))
        if na == 0:
            break
        b = flat[off_s[:na] + j]
        c = crc[:na]
        crc[:na] = _CRC_TABLE[(c ^ b) & np.uint32(0xFF)] ^ (c >> np.uint32(8))
    crc ^= np.uint32(0xFFFFFFFF)
    out = np.empty(n, dtype=np.uint32)
    out[order] = crc
    return out


def _masked(crc: np.ndarray) -> np.ndarray:
    return ((crc >> np.uint32(15)) | (crc << np.uint32(17))) + _MASK_DELTA


# ---------------------------------------------------------------------------
# protobuf wire helpers (proto3 encoding spec)
# ---------------------------------------------------------------------------


def _uvarint(n: int) -> bytes:
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _varint64(n: int) -> bytes:
    """int64 varint: negatives encode as 10-byte two's complement."""
    return _uvarint(n & 0xFFFFFFFFFFFFFFFF)


def _ld(tag_byte: int, payload: bytes) -> bytes:
    """One length-delimited field: tag | len | payload."""
    return bytes([tag_byte]) + _uvarint(len(payload)) + payload


def _read_uvarint(buf: bytes, pos: int) -> tuple[int, int]:
    shift = 0
    val = 0
    while True:
        b = buf[pos]
        pos += 1
        val |= (b & 0x7F) << shift
        if not b & 0x80:
            return val, pos
        shift += 7
        if shift > 70:
            raise ValueError("varint too long")


# ---------------------------------------------------------------------------
# tf.train.Example encode
# ---------------------------------------------------------------------------


def _feature_encoder(col, t: pa.DataType) -> list:
    """Per-row Feature message bytes (or None for null)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    mask = col.is_null().to_numpy(zero_copy_only=False)
    if (pa.types.is_integer(t) or pa.types.is_boolean(t)
            or pa.types.is_timestamp(t)):
        if pa.types.is_timestamp(t):
            col = col.cast(pa.timestamp("us"))  # epoch micros, any unit
        vals = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        # Feature{3: Int64List{1: packed varints}}
        return [None if mask[i]
                else _ld(0x1A, _ld(0x0A, _varint64(int(vals[i]))))
                for i in range(len(col))]
    if pa.types.is_floating(t):
        vals = col.cast(pa.float32()).to_numpy(zero_copy_only=False)
        # Feature{2: FloatList{1: packed float32}}
        return [None if mask[i]
                else _ld(0x12, _ld(0x0A, struct.pack("<f", float(vals[i]))))
                for i in range(len(col))]
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        lst = col.to_pylist()
        # Feature{1: BytesList{1: bytes}}
        return [None if v is None
                else _ld(0x0A, _ld(0x0A, v.encode("utf-8"))) for v in lst]
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        lst = col.to_pylist()
        return [None if v is None else _ld(0x0A, _ld(0x0A, v)) for v in lst]
    raise ValueError(f"unsupported column type for tf.train.Example: {t}")


def encode_tfrecord(table: pa.Table) -> bytes:
    """One Arrow table → TFRecord file bytes (one Example per row)."""
    names = table.column_names
    key_entries = [_ld(0x0A, n.encode("utf-8")) for n in names]
    encs = [_feature_encoder(table.column(i), table.schema.field(i).type)
            for i in range(table.num_columns)]
    payloads = []
    for r in range(table.num_rows):
        feats = b"".join(
            # Features.feature map entry: {1: key, 2: Feature}
            _ld(0x0A, key_entries[c] + _ld(0x12, encs[c][r]))
            for c in range(len(names)) if encs[c][r] is not None)
        payloads.append(_ld(0x0A, feats))  # Example{1: Features}
    if not payloads:
        return b""
    lengths = np.array([len(p) for p in payloads], dtype=np.int64)
    flat = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    offsets = np.r_[0, np.cumsum(lengths)[:-1]]
    data_crc = _masked(crc32c_many(flat, offsets, lengths))
    hdr = b"".join(struct.pack("<Q", int(n)) for n in lengths)
    hdr_flat = np.frombuffer(hdr, dtype=np.uint8)
    n = len(payloads)
    hdr_crc = _masked(crc32c_many(
        hdr_flat, np.arange(n, dtype=np.int64) * 8,
        np.full(n, 8, dtype=np.int64)))
    out = bytearray()
    for i, p in enumerate(payloads):
        out += hdr[i * 8:i * 8 + 8]
        out += struct.pack("<I", int(hdr_crc[i]))
        out += p
        out += struct.pack("<I", int(data_crc[i]))
    return bytes(out)


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def _parse_feature(buf: bytes, lo: int, hi: int):
    """Feature message → (python value, kind) — kind ∈ b/f/i."""
    tag = buf[lo]
    lo += 1
    ln, lo = _read_uvarint(buf, lo)
    if tag == 0x0A:  # BytesList
        if ln == 0:
            return None, "b"
        # BytesList{1: bytes} — single value per engine convention
        assert buf[lo] == 0x0A
        bl, p = _read_uvarint(buf, lo + 1)
        return buf[p:p + bl], "b"
    if tag == 0x12:  # FloatList, packed
        if ln == 0:
            return None, "f"
        assert buf[lo] == 0x0A
        bl, p = _read_uvarint(buf, lo + 1)
        return struct.unpack("<f", buf[p:p + 4])[0], "f"
    if tag == 0x1A:  # Int64List, packed
        if ln == 0:
            return None, "i"
        assert buf[lo] == 0x0A
        bl, p = _read_uvarint(buf, lo + 1)
        v, _ = _read_uvarint(buf, p)
        if v >= 1 << 63:
            v -= 1 << 64
        return v, "i"
    raise ValueError(f"unknown Feature tag {tag:#x}")


def decode_tfrecord(payload: bytes) -> pa.Table:
    """One TFRecord file → Arrow table; CRCs verified (batched across
    all records — one vectorized pass each for headers and payloads)."""
    kinds: dict[str, str] = {}
    pos = 0
    total = len(payload)
    flat = np.frombuffer(payload, dtype=np.uint8)
    spans: list[tuple[int, int, int, int]] = []  # (pos, dlo, dhi, ...)
    hcrcs: list[int] = []
    dcrcs: list[int] = []
    while pos < total:
        if pos + 12 > total:
            raise ValueError("truncated TFRecord header")
        (ln,) = struct.unpack_from("<Q", payload, pos)
        (hcrc,) = struct.unpack_from("<I", payload, pos + 8)
        dlo = pos + 12
        dhi = dlo + ln
        if dhi + 4 > total:
            raise ValueError("truncated TFRecord payload")
        (dcrc,) = struct.unpack_from("<I", payload, dhi)
        spans.append((pos, dlo, dhi, ln))
        hcrcs.append(hcrc)
        dcrcs.append(dcrc)
        pos = dhi + 4
    if spans:
        n = len(spans)
        hpos = np.array([s[0] for s in spans], dtype=np.int64)
        want_h = _masked(crc32c_many(flat, hpos, np.full(n, 8, np.int64)))
        if not np.array_equal(want_h, np.array(hcrcs, dtype=np.uint32)):
            raise ValueError("TFRecord length CRC mismatch")
        dpos = np.array([s[1] for s in spans], dtype=np.int64)
        dlen = np.array([s[3] for s in spans], dtype=np.int64)
        want_d = _masked(crc32c_many(flat, dpos, dlen))
        if not np.array_equal(want_d, np.array(dcrcs, dtype=np.uint32)):
            raise ValueError("TFRecord data CRC mismatch")
    rows = [_parse_example(payload, dlo, dhi, kinds)
            for _, dlo, dhi, _ in spans]
    names = sorted(kinds)
    cols = {}
    for nme in names:
        vals = [r.get(nme) for r in rows]
        kind = kinds[nme]
        if kind == "i":
            cols[nme] = pa.array(vals, type=pa.int64())
        elif kind == "f":
            cols[nme] = pa.array(vals, type=pa.float32())
        else:
            cols[nme] = pa.array(
                [None if v is None else v.decode("utf-8") for v in vals],
                type=pa.string())
    if not cols:
        return pa.table({})
    return pa.table(cols)


def _parse_example(buf: bytes, lo: int, hi: int, kinds: dict) -> dict:
    """Example{1: Features{1: map entries}} → {name: value}."""
    out: dict = {}
    if lo == hi:
        return out
    if buf[lo] != 0x0A:
        raise ValueError("not an Example message")
    fln, p = _read_uvarint(buf, lo + 1)
    fhi = p + fln
    while p < fhi:
        if buf[p] != 0x0A:
            raise ValueError("bad Features entry")
        eln, p = _read_uvarint(buf, p + 1)
        ehi = p + eln
        # map entry: {1: key, 2: Feature}
        assert buf[p] == 0x0A
        kln, kp = _read_uvarint(buf, p + 1)
        key = buf[kp:kp + kln].decode("utf-8")
        vp = kp + kln
        assert buf[vp] == 0x12
        vln, vv = _read_uvarint(buf, vp + 1)
        val, kind = _parse_feature(buf, vv, vv + vln)
        prev = kinds.setdefault(key, kind)
        if prev != kind:
            raise ValueError(f"feature {key!r} changes type across rows")
        out[key] = val
        p = ehi
    return out


# ---------------------------------------------------------------------------
# Dataset surface
# ---------------------------------------------------------------------------


class _TfrDatasink:
    """Lazy holder so importing this module never imports Ray."""

    _cls = None

    @classmethod
    def get(cls):
        if cls._cls is None:
            from ray.data.datasource import BlockBasedFileDatasink

            class TfrDatasink(BlockBasedFileDatasink):
                def __init__(self, path: str):
                    super().__init__(path, file_format="tfrecord")

                def write_block_to_file(self, block, file) -> None:
                    file.write(encode_tfrecord(block.to_arrow()))

            cls._cls = TfrDatasink
        return cls._cls


def write_tfrecord(ds, out_dir: str) -> str:
    """Sharded TFRecord via a file datasink — retry-safe filenames
    owned by Ray's write protocol."""
    ds.write_datasink(_TfrDatasink.get()(out_dir))
    return out_dir


def read_tfrecord(path, *, timestamp_cols: list[str] | None = None,
                  **kwargs):
    """Read TFRecord file(s) as a Dataset; decoding + CRC verification
    happen in the workers (one task per group of files).  Listed
    ``timestamp_cols`` cast from epoch-micros int64 back to
    ``timestamp[us]`` (the Example format has no timestamp type)."""
    import ray.data as rd

    ds = engine_plan(rd.read_binary_files(path, file_extensions=["tfrecord"], **kwargs))
    ts_cols = timestamp_cols or []

    def decode_batch(t: pa.Table) -> pa.Table:
        parts = [decode_tfrecord(b.as_py()) for b in t.column("bytes")]
        parts = [p for p in parts if p.num_rows]
        if not parts:
            return pa.table({})
        out = pa.concat_tables(parts)
        for c in ts_cols:
            if c in out.column_names:
                i = out.column_names.index(c)
                out = out.set_column(
                    i, c, out.column(c).cast(pa.timestamp("us")))
        return out.replace_schema_metadata(None)

    return ds.map_batches(decode_batch, batch_format="pyarrow")
