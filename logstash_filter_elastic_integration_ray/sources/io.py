"""Parquet read helper shared by queries, bench and sources, and the
one place the engine's Ray Data scheduling policy is set
(``engine_plan``).

``read_parquet_clean`` reads through ``ParquetFooterSource``, a Ray Data
``Datasource`` planned from the files' footers alone: the driver lists
the files, reads each footer once and takes rows and bytes from it, so
building the Dataset submits no Ray task.  (Ray's own ``read_parquet``
first runs sampling tasks to estimate the in-memory size, and the
driver waits for them before the Dataset exists: on a cold cluster that
is a whole worker start ahead of the job.)

Parquet files written via pandas embed a ``pandas`` metadata dict in
the Arrow schema, which makes ``pa.Schema`` unhashable — Ray's
streaming executor then fails block-schema deduplication and floods
worker logs with "Failed to hash the schemas" warnings on every block.
Every block this source yields has the first file's schema minus that
metadata, so every downstream block schema stays clean (and
hashable)."""

from __future__ import annotations

import functools
import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from ray.data import Datasource, ReadTask, read_datasource
from ray.data.block import BlockMetadata


def _parquet_files(paths) -> list[str]:
    """The Parquet files of ``paths`` (a path or a list of them), in the
    given order; a directory gives its ``**/*.parquet`` files, sorted."""
    files = []
    for path in [paths] if isinstance(paths, (str, os.PathLike)) else paths:
        path = os.fspath(path)
        if os.path.isdir(path):
            files += sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
        else:
            files.append(path)
    if not files:
        raise FileNotFoundError(f"no Parquet files under {paths!r}")
    return files


def _conform(t: pa.Table, schema: pa.Schema) -> pa.Table:
    """``t`` as a table of ``schema``: a column ``t`` lacks is null, one
    of another type is cast (as Arrow's scan under an explicit schema)."""
    cols = []
    for fld in schema:
        if fld.name not in t.column_names:
            cols.append(pa.nulls(t.num_rows, fld.type))
        else:
            col = t.column(fld.name)
            cols.append(col if col.type == fld.type else col.cast(fld.type))
    return pa.table(cols, schema=schema)


def _read_files(files: list[str], schema: pa.Schema):
    """Yield ``files`` row group by row group as tables of ``schema``."""
    for path in files:
        with pq.ParquetFile(path) as f:
            present = [n for n in schema.names if n in f.schema_arrow.names]
            for i in range(f.num_row_groups):
                t = f.read_row_group(i, columns=present, use_threads=False)
                if t.num_rows:
                    yield _conform(t, schema)


def _column_bytes(footer: pq.FileMetaData, names: list[str]) -> int:
    """Uncompressed bytes of the top-level columns ``names`` over every
    row group, from a file's footer (a nested column's leaves are
    ``name.…``; a flat name may hold dots itself)."""
    total = 0
    for i in range(footer.num_row_groups):
        rg = footer.row_group(i)
        for j in range(rg.num_columns):
            chunk = rg.column(j)
            path = chunk.path_in_schema
            if any(path == n or path.startswith(n + ".") for n in names):
                total += chunk.total_uncompressed_size
    return total


class ParquetFooterSource(Datasource):
    """Parquet files as a Ray Data source, planned from their footers.

    ``schema`` is the first file's, without its metadata, projected to
    ``columns`` when given.  Each footer gives its file's rows and the
    uncompressed bytes of the selected columns: the ``BlockMetadata`` of
    the read tasks and ``estimate_inmemory_data_size``, from which Ray
    sizes the read.  ``get_read_tasks(n)`` cuts the files, in order,
    into ``n`` contiguous groups (``np.array_split``, as Ray's Parquet
    reader does), one read task each; Ray's split factor then cuts a
    task's output when ``n`` exceeds the files.  Hive ``key=value``
    directories are plain directories here: their keys are not
    columns."""

    def __init__(self, paths, columns: list[str] | None = None):
        self._files = _parquet_files(paths)
        footers = [pq.read_metadata(f) for f in self._files]
        schema = footers[0].schema.to_arrow_schema().remove_metadata()
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns])
        self.schema = schema
        self._rows = [m.num_rows for m in footers]
        self._bytes = [_column_bytes(m, schema.names) for m in footers]

    def estimate_inmemory_data_size(self) -> int:
        return sum(self._bytes)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        tasks = []
        for group in np.array_split(np.arange(len(self._files)), parallelism):
            if len(group) == 0:
                continue
            files = [self._files[i] for i in group]
            meta = BlockMetadata(
                num_rows=sum(self._rows[i] for i in group),
                size_bytes=sum(self._bytes[i] for i in group),
                input_files=files,
                exec_stats=None,
            )
            tasks.append(ReadTask(functools.partial(_read_files, files, self.schema), meta, schema=self.schema))
        return tasks

    def get_name(self) -> str:
        return "Parquet"


def ensure_cache_dir(path: str, build) -> str:
    """Crash-safe build-once cache directory: ``build(path)`` runs only
    when the ``_SUCCESS`` marker is absent; a partially-written cache
    from a killed run is wiped and rebuilt, never silently reused."""
    import shutil

    marker = os.path.join(path, "_SUCCESS")
    if not os.path.exists(marker):
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path, exist_ok=True)
        build(path)
        with open(marker, "w") as f:
            f.write("ok")
    return path


def read_parquet_clean(path, *, columns: list[str] | None = None, override_num_blocks: int | None = None):
    """The Parquet file(s) at ``path`` as a Dataset of
    :class:`ParquetFooterSource` (the first file's schema minus its
    metadata, pruned to ``columns`` when given), under
    :func:`engine_plan`."""
    return engine_plan(read_datasource(ParquetFooterSource(path, columns), override_num_blocks=override_num_blocks))


def cluster_cpus() -> int:
    """The CPUs of the Ray cluster this process is connected to, at
    least 1: what the exchange sizes its range blocks by and the graph
    tier its shard count."""
    import ray

    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def engine_plan(ds):
    """Set the engine's scheduling policy on ``ds`` and return it: Ray
    Data's per-operator resource reservation is off, so every operator
    of the plan may use the whole box.

    Every Dataset the package creates (each ``read_*``/``from_arrow*``)
    goes through here.  A Dataset carries its own copy of the
    ``DataContext``: every plan derived from it shares that copy, and
    ``union`` takes the first side's, so every stage built on these
    Datasets (each ``exchange``/``copartition``/``cogroup`` included)
    runs under the policy, while Datasets built outside the package keep
    Ray's defaults.

    Which limit binds with the reservation on: Ray's
    ``ReservationOpResourceAllocator`` reserves ``0.5 × CPUs / n`` for
    each of the ``n`` throttled operators, raised to one whole CPU for a
    task operator.  ``conv_stats`` on the flagship input had five when
    this was measured (the Parquet read, the fused ``assign_datastream →
    EventProcessor → enrich → partial`` chain, the exchange's
    Repartition and Sort, the merge map); on 4 CPUs that reserved 1 + 1
    + 0.4 + 0.4 + 1 = 3.8 CPUs and shared 0.2, so the fused kernel
    stage's CPU budget stayed between 1.04 and 1.25 and it ran one task
    at a time, on one worker, while the other CPUs waited.  (The
    exchange is now one Sort; see ``stages/exchange.py:_shuffle``.)
    Its object-store budget was unbounded, so CPU, not memory, is the
    limit that binds.

    Why lifting it is safe here: these plans are short chains of
    CPU-bound tasks that all finish in seconds; the reservation exists
    to keep one stage of a long heterogeneous pipeline from starving
    another, which these plans do not need.  Memory stays bounded by
    Ray's global object-store cap, which without the reservation drops
    from 50% to 25% of the object store
    (``DEFAULT_OBJECT_STORE_MEMORY_LIMIT_FRACTION_NO_RESERVATION``), and
    operators past it are backpressured as before.  The one kind of plan
    measured slower without it is Ray's native hash-shuffle
    ``Dataset.join``: ``join_orders_nation``,
    ``full_join_events_customers`` and ``assortativity_docs`` take about
    3-5 s longer at sf0.01, while the oracle gate as a whole runs
    faster."""
    ds.context.op_resource_reservation_enabled = False
    return ds
