"""ORC source/sink.

Fourth source format beside parquet, JSONL and CSV: ORC is the other
columnar format long-lived Hadoop/Hive log warehouses export.  Ray
Data ships no ORC reader/writer, so this module builds both from
Dataset primitives:

- ``write_orc`` is a ``BlockBasedFileDatasink``: each write task
  serializes its blocks with ``pyarrow.orc`` straight into the sink's
  files — block bytes never visit the driver, and Ray's datasink
  commit protocol owns the filenames, so a RETRIED write task
  overwrites its own shard instead of duplicating rows (a hand-rolled
  uuid-per-attempt side-effect writer would double data on lineage
  re-execution).
- ``read_orc`` lists the shard files and decodes them inside
  ``map_batches`` over ``read_binary_files`` rows — each worker
  decodes its own files, the driver touches only paths.

ORC has a real temporal type, so unlike the CSV/JSONL sinks no ISO
string round trip is needed; timestamps are normalized back to
``timestamp[us]`` on read (the ORC reader yields nanoseconds).
Correctness is pinned by the ``transcripts_orc`` driver query against
the SAME DuckDB oracle as the parquet source.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .io import engine_plan


class _OrcDatasink:
    """Lazy holder so importing this module never imports Ray."""

    _cls = None

    @classmethod
    def get(cls):
        if cls._cls is None:
            from ray.data.datasource import BlockBasedFileDatasink

            class OrcDatasink(BlockBasedFileDatasink):
                def __init__(self, path: str):
                    super().__init__(path, file_format="orc")

                def write_block_to_file(self, block, file) -> None:
                    from pyarrow import orc

                    orc.write_table(block.to_arrow(), file)

            cls._cls = OrcDatasink
        return cls._cls


def write_orc(ds, out_dir: str) -> str:
    """Sharded ORC via a file datasink — retry-safe filenames owned by
    Ray's write protocol."""
    ds.write_datasink(_OrcDatasink.get()(out_dir))
    return out_dir


def read_orc(path, *, timestamp_cols: list[str] | None = None, **kwargs):
    """Read an ORC file/directory as a Dataset; listed timestamp
    columns normalize to ``timestamp[us]``.  Decoding happens in the
    workers (one task per group of files)."""
    import ray.data as rd

    ds = engine_plan(rd.read_binary_files(path, file_extensions=["orc"], **kwargs))
    ts_cols = timestamp_cols or []
    return ds.map_batches(lambda t: decode_orc_batch(t, ts_cols), batch_format="pyarrow")


def decode_orc_batch(t: pa.Table, ts_cols: list[str]) -> pa.Table:
    """Decode one binary-files batch of ORC blobs into rows."""
    from pyarrow import orc

    parts = [
        orc.ORCFile(pa.BufferReader(b.as_py())).read()
        for b in t.column("bytes")
    ]
    if not parts:
        # an empty binary block must yield an empty table, not crash
        # the read; Ray's empty-block handling unifies the schema with
        # the non-empty blocks downstream
        return pa.table({})
    out = pa.concat_tables(parts)
    for c in ts_cols:
        if c in out.column_names:
            i = out.column_names.index(c)
            col = out.column(c)
            if pa.types.is_temporal(col.type) and col.type != pa.timestamp("us"):
                out = out.set_column(i, c, pc.cast(col, pa.timestamp("us")))
    return out.replace_schema_metadata(None)
