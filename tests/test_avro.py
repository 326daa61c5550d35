"""Avro object-container codec (sources/avrosrc.py): round trips for
every supported type and both codecs, block boundaries, nulls, the
Dataset read/write surface."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

import ray

from logstash_filter_elastic_integration_ray.sources.avrosrc import (
    decode_avro,
    encode_avro,
    read_avro,
    write_avro,
)


def _full_table(n=10):
    return pa.table({
        "i64": pa.array([None if i % 4 == 3 else i * 10**12 for i in range(n)],
                        type=pa.int64()),
        "i32": pa.array([None if i % 5 == 4 else -i for i in range(n)],
                        type=pa.int32()),
        "f64": pa.array([None if i % 3 == 2 else i * 0.25 for i in range(n)],
                        type=pa.float64()),
        "f32": pa.array([np.float32(i) * np.float32(0.5) for i in range(n)],
                        type=pa.float32()),
        "b": pa.array([None if i % 6 == 5 else i % 2 == 0 for i in range(n)],
                      type=pa.bool_()),
        "s": pa.array([None if i % 7 == 6 else f"räw {i}\n" for i in range(n)],
                      type=pa.string()),
        "by": pa.array([None if i % 8 == 7 else bytes([i % 256, 0, 255])
                        for i in range(n)], type=pa.binary()),
        "ts": pa.array([None if i % 9 == 8 else 1_700_000_000_000_000 + i
                        for i in range(n)], type=pa.timestamp("us")),
    })


@pytest.mark.parametrize("codec", ["null", "deflate"])
def test_round_trip_all_types(codec):
    t = _full_table(50)
    got = decode_avro(encode_avro(t, codec=codec))
    assert got.schema == t.schema
    assert got.equals(t)


def test_block_boundary_round_trip():
    n = 4096 * 2 + 17  # three container blocks
    t = pa.table({"x": pa.array(range(n), type=pa.int64())})
    got = decode_avro(encode_avro(t))
    assert got.equals(t)


def test_empty_table_and_negative_zigzag():
    t = pa.table({"x": pa.array([], type=pa.int64()),
                  "s": pa.array([], type=pa.string())})
    got = decode_avro(encode_avro(t))
    assert got.schema == t.schema and got.num_rows == 0
    t2 = pa.table({"x": pa.array([-1, -2**62, 2**62, 0], type=pa.int64())})
    assert decode_avro(encode_avro(t2)).equals(t2)


def test_rejects_non_avro_and_bad_sync():
    with pytest.raises(ValueError):
        decode_avro(b"PAR1xxxx")
    t = pa.table({"x": pa.array([1, 2], type=pa.int64())})
    raw = bytearray(encode_avro(t))
    raw[-1] ^= 0xFF  # corrupt the trailing sync marker
    with pytest.raises(ValueError):
        decode_avro(bytes(raw))


def test_dataset_surface_round_trip(ray_session, tmp_path):
    t = _full_table(300)
    ds = ray.data.from_arrow(t).repartition(3)
    out = str(tmp_path / "avro_out")
    write_avro(ds, out, codec="deflate")
    # align on f32 (unique, null-free): i64's null rows would tie and
    # keep block-arrival order, which varies from run to run
    back = read_avro(out).to_pandas().sort_values("f32")
    want = t.to_pandas().sort_values("f32")
    for c in t.column_names:
        a = back[c].reset_index(drop=True)
        b = want[c].reset_index(drop=True)
        assert a.equals(b), c
