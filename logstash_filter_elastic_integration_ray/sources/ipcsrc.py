"""Arrow IPC (Feather v2) source/sink.

Seventh format beside parquet / JSONL / gzip-JSONL / CSV / ORC / Avro:
Arrow IPC stream files are the zero-parse interchange format
Arrow-native tools exchange — columnar like parquet but with no
decode step at all (the on-disk layout IS the in-memory layout).
Same parallelism shape as the ORC/Avro adapters: a
``BlockBasedFileDatasink`` writes each task's blocks (retry-safe
filenames owned by Ray's commit protocol), reads decode per worker
over ``read_binary_files``.  Timestamps survive natively (IPC carries
the Arrow type), so no ISO round trip is needed."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .io import engine_plan


class _IpcDatasink:
    """Lazy holder so importing this module never imports Ray."""

    _cls = None

    @classmethod
    def get(cls):
        if cls._cls is None:
            from ray.data.datasource import BlockBasedFileDatasink

            class IpcDatasink(BlockBasedFileDatasink):
                def __init__(self, path: str):
                    super().__init__(path, file_format="arrow")

                def write_block_to_file(self, block, file) -> None:
                    t = block.to_arrow()
                    sink = pa.BufferOutputStream()
                    with pa.ipc.new_stream(sink, t.schema) as w:
                        w.write_table(t)
                    file.write(sink.getvalue().to_pybytes())

            cls._cls = IpcDatasink
        return cls._cls


def write_ipc(ds, out_dir: str) -> str:
    """Sharded Arrow IPC stream files via a file datasink."""
    ds.write_datasink(_IpcDatasink.get()(out_dir))
    return out_dir


def read_ipc(path, *, timestamp_cols: list[str] | None = None, **kwargs):
    """Read Arrow IPC stream file(s) as a Dataset; decoding (a
    zero-copy open) happens in the workers."""
    import ray.data as rd

    ds = engine_plan(rd.read_binary_files(path, file_extensions=["arrow"], **kwargs))
    ts_cols = timestamp_cols or []

    def decode(t: pa.Table) -> pa.Table:
        parts = [
            pa.ipc.open_stream(pa.BufferReader(b.as_py())).read_all()
            for b in t.column("bytes")
        ]
        if not parts:
            return pa.table({})
        out = pa.concat_tables(parts)
        for c in ts_cols:
            if c in out.column_names:
                i = out.column_names.index(c)
                col = out.column(c)
                if pa.types.is_temporal(col.type) and col.type != pa.timestamp("us"):
                    out = out.set_column(i, c, pc.cast(col, pa.timestamp("us")))
        return out.replace_schema_metadata(None)

    return ds.map_batches(decode, batch_format="pyarrow")
