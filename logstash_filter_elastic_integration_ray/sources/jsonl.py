"""JSON-lines source/sink.

The reference consumes a stream of JSON-shaped Logstash events; the
engine's native table format is parquet, but a user migrating from the
reference will often have newline-delimited JSON event dumps.  This
module provides the Dataset-native round trip: ``write_jsonl`` emits
one JSON object per row (timestamps as ISO-8601), ``read_jsonl`` reads
a JSONL directory and restores the engine's column types (ISO strings
→ ``timestamp[us]``) so the same pipelines run unchanged on either
format — correctness is pinned by the ``transcripts_jsonl`` driver
query, which round-trips the transcripts table through JSONL and must
match the same DuckDB oracle as the parquet source.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .io import engine_plan


def write_jsonl(ds, out_dir: str, *, timestamp_cols: list[str] | None = None) -> str:
    """One JSON object per row, newline-delimited, sharded per block.

    Timestamp columns are serialized as ISO strings first — the JSON
    writer would otherwise degrade them to epoch SECONDS, silently
    dropping sub-second precision."""
    ts_cols = timestamp_cols or []
    if ts_cols:

        def to_iso(t: pa.Table) -> pa.Table:
            for c in ts_cols:
                if c in t.column_names:
                    i = t.column_names.index(c)
                    col = t.column(c)
                    if pa.types.is_temporal(col.type):
                        t = t.set_column(i, c, pc.cast(col, pa.string()))
            return t

        ds = ds.map_batches(to_iso, batch_format="pyarrow")
    ds.write_json(out_dir)
    return out_dir


def read_jsonl(path, *, timestamp_cols: list[str] | None = None, **kwargs):
    """Read a JSONL file/directory; listed timestamp columns are parsed
    from ISO-8601 strings back to ``timestamp[us]``."""
    import ray.data as rd

    ds = engine_plan(rd.read_json(path, **kwargs))
    ts_cols = timestamp_cols or []
    if not ts_cols:
        return ds

    def restore(t: pa.Table) -> pa.Table:
        for c in ts_cols:
            if c in t.column_names:
                i = t.column_names.index(c)
                col = t.column(c)
                if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
                    col = pc.cast(col, pa.timestamp("us"))
                elif pa.types.is_temporal(col.type):
                    col = col.cast(pa.timestamp("us"))
                t = t.set_column(i, c, col)
        return t

    return ds.map_batches(restore, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# gzip-compressed JSONL (the form web-crawl dumps actually ship in)
# ---------------------------------------------------------------------------


class _JsonlGzDatasink:
    """Lazy holder so importing this module never imports Ray."""

    _cls = None

    @classmethod
    def get(cls):
        if cls._cls is None:
            from ray.data.datasource import BlockBasedFileDatasink

            class JsonlGzDatasink(BlockBasedFileDatasink):
                def __init__(self, path: str):
                    super().__init__(path, file_format="jsonl.gz")

                def write_block_to_file(self, block, file) -> None:
                    import json

                    # plain ndjson bytes: the datasink's own stream is
                    # ALREADY gzip-compressing (Ray infers the codec
                    # from the file_format suffix) — compressing here
                    # too would double-wrap the file, breaking zcat
                    # and every external single-compressed dump
                    # (Arrow's gzip header carries no mtime, so shard
                    # bytes stay deterministic under write-task retry)
                    t = block.to_arrow()
                    for row in t.to_pylist():
                        file.write(json.dumps(
                            row, ensure_ascii=False,
                            separators=(",", ":")).encode("utf-8"))
                        file.write(b"\n")

            cls._cls = JsonlGzDatasink
        return cls._cls


def write_jsonl_gz(ds, out_dir: str, *, timestamp_cols: list[str] | None = None) -> str:
    """Sharded gzip JSONL via a file datasink — retry-safe filenames
    owned by Ray's write protocol, deterministic gzip bytes (mtime=0).
    Timestamps serialize as ISO strings exactly like :func:`write_jsonl`."""
    ts_cols = timestamp_cols or []
    if ts_cols:

        def to_iso(t: pa.Table) -> pa.Table:
            for c in ts_cols:
                if c in t.column_names:
                    i = t.column_names.index(c)
                    col = t.column(c)
                    if pa.types.is_temporal(col.type):
                        t = t.set_column(i, c, pc.cast(col, pa.string()))
            return t

        ds = ds.map_batches(to_iso, batch_format="pyarrow")
    ds.write_datasink(_JsonlGzDatasink.get()(out_dir))
    return out_dir


def read_jsonl_gz(path, *, timestamp_cols: list[str] | None = None, **kwargs):
    """Read gzip JSONL file(s): workers parse their own shards (Ray's
    binary reader already decompresses — codec inferred from the .gz
    extension — so the batch holds plain ndjson bytes; one pyarrow
    ndjson parse per file), the driver sees only paths; listed
    timestamp columns restore to ``timestamp[us]``."""
    import ray.data as rd

    ds = engine_plan(rd.read_binary_files(path, file_extensions=["gz"], **kwargs))
    ts_cols = timestamp_cols or []

    def decode(t: pa.Table) -> pa.Table:
        from pyarrow import json as pa_json

        parts = []
        for b in t.column("bytes"):
            raw = b.as_py()
            # an empty member (header-only gzip of a zero-row block)
            # parses to zero rows, never crashes the read
            if len(raw) == 0:
                continue
            parts.append(pa_json.read_json(pa.BufferReader(raw)))
        if not parts:
            return pa.table({})
        out = pa.concat_tables(parts)
        for c in ts_cols:
            if c in out.column_names:
                i = out.column_names.index(c)
                col = out.column(c)
                if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
                    out = out.set_column(i, c, pc.cast(col, pa.timestamp("us")))
                elif pa.types.is_temporal(col.type) and col.type != pa.timestamp("us"):
                    out = out.set_column(i, c, pc.cast(col, pa.timestamp("us")))
        return out.replace_schema_metadata(None)

    return ds.map_batches(decode, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# zstd-compressed JSONL (the compression modern crawl/corpus dumps —
# Common Crawl WET mirrors, RedPajama/Dolma shards — actually use)
# ---------------------------------------------------------------------------


class _JsonlZstDatasink:
    """Lazy holder so importing this module never imports Ray."""

    _cls = None

    @classmethod
    def get(cls):
        if cls._cls is None:
            from ray.data.datasource import BlockBasedFileDatasink

            class JsonlZstDatasink(BlockBasedFileDatasink):
                def __init__(self, path: str):
                    super().__init__(path, file_format="jsonl.zst")

                def write_block_to_file(self, block, file) -> None:
                    import json

                    # plain ndjson bytes — the datasink stream is
                    # already zstd-compressing (codec inferred from
                    # the file_format suffix); zstd frames carry no
                    # timestamp, so shard bytes stay deterministic
                    # under write-task retry
                    t = block.to_arrow()
                    for row in t.to_pylist():
                        file.write(json.dumps(
                            row, ensure_ascii=False,
                            separators=(",", ":")).encode("utf-8"))
                        file.write(b"\n")

            cls._cls = JsonlZstDatasink
        return cls._cls


def write_jsonl_zst(ds, out_dir: str, *, timestamp_cols: list[str] | None = None) -> str:
    """Sharded zstd JSONL via a file datasink — retry-safe filenames
    owned by Ray's write protocol, deterministic zstd frames.
    Timestamps serialize as ISO strings exactly like :func:`write_jsonl`."""
    ts_cols = timestamp_cols or []
    if ts_cols:

        def to_iso(t: pa.Table) -> pa.Table:
            for c in ts_cols:
                if c in t.column_names:
                    i = t.column_names.index(c)
                    col = t.column(c)
                    if pa.types.is_temporal(col.type):
                        t = t.set_column(i, c, pc.cast(col, pa.string()))
            return t

        ds = ds.map_batches(to_iso, batch_format="pyarrow")
    ds.write_datasink(_JsonlZstDatasink.get()(out_dir))
    return out_dir


def read_jsonl_zst(path, *, timestamp_cols: list[str] | None = None, **kwargs):
    """Read zstd JSONL file(s): workers parse their own shards (Ray's
    binary reader already decompresses — codec inferred from the .zst
    extension — so the batch holds plain ndjson bytes; one pyarrow
    ndjson parse per file), the driver sees only paths; listed
    timestamp columns restore to ``timestamp[us]``."""
    import ray.data as rd

    ds = engine_plan(rd.read_binary_files(path, file_extensions=["zst"], **kwargs))
    ts_cols = timestamp_cols or []

    def decode(t: pa.Table) -> pa.Table:
        from pyarrow import json as pa_json

        parts = []
        for b in t.column("bytes"):
            raw = b.as_py()
            # an empty frame parses to zero rows, never crashes the
            # read (the orcsrc empty-batch class)
            if len(raw) == 0:
                continue
            parts.append(pa_json.read_json(pa.BufferReader(raw)))
        if not parts:
            return pa.table({})
        out = pa.concat_tables(parts)
        for c in ts_cols:
            if c in out.column_names:
                i = out.column_names.index(c)
                col = out.column(c)
                if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
                    out = out.set_column(i, c, pc.cast(col, pa.timestamp("us")))
                elif pa.types.is_temporal(col.type) and col.type != pa.timestamp("us"):
                    out = out.set_column(i, c, pc.cast(col, pa.timestamp("us")))
        return out.replace_schema_metadata(None)

    return ds.map_batches(decode, batch_format="pyarrow")
