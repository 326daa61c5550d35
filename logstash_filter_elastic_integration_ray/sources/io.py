"""Parquet read helper shared by queries, bench and sources, and the
one place the engine's Ray Data scheduling policy is set
(``engine_plan``).

Parquet files written via pandas embed a ``pandas`` metadata dict in
the Arrow schema, which makes ``pa.Schema`` unhashable — Ray's
streaming executor then fails block-schema deduplication and floods
worker logs with "Failed to hash the schemas" warnings on every block.
Passing an explicit metadata-free schema to ``read_parquet`` keeps
every downstream block schema clean (and hashable)."""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq


def _first_file(path: str) -> str:
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
        if files:
            return files[0]
    return path


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


def read_parquet_clean(path, *, columns: list[str] | None = None, **kwargs):
    """``ray.data.read_parquet`` with the file's schema minus metadata,
    pruned to ``columns`` when given (the schema= argument must match
    the projected columns exactly)."""
    import ray.data as rd

    first = _first_file(path if isinstance(path, str) else path[0])
    schema = pq.read_schema(first).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return engine_plan(rd.read_parquet(path, schema=schema, columns=columns, **kwargs))


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
    this was measured (ReadParquet, the fused ``assign_datastream →
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
