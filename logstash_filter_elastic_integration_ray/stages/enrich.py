"""Lookup-table enrichment as a stateful actor-pool stage.

The north-star stage: "lookup-table enrich keyed on role/tool via
stateful actor-pool stages holding broadcast dictionaries"
(BASELINE.json north_star).  Mirrors the reference's loaded-once
enrichment state (``geoip/IpDatabaseProvider.java:80-99``): the lookup
dict is ``ray.put`` once on the driver, each actor ``ray.get``s it in
``__init__`` (once per actor, zero-copy from the local object store),
and ``__call__`` does a vectorized dictionary lookup per batch.

Usage::

    ref = broadcast(INTEGRATIONS_LOOKUP)          # driver, once
    ds = ds.map_batches(
        IntegrationEnricher(ref),                 # actor-pool stage
        batch_format="pyarrow",
        batch_size=32768,
        concurrency=(2, 8),                       # autoscaling pool
        num_cpus=1,
    )
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..state.lookups import resolve_broadcast


class IntegrationEnricher:
    """(role, tool) → {integration, category, cost_weight} columns.

    A callable **class**: Ray Data runs it as an actor pool; the lookup
    is resolved once per actor in ``__init__``, not per batch.
    """

    _NULL = "\x00"

    def __init__(self, lookup_ref, role_col: str = "role", tool_col: str = "tool"):
        self.lookup = resolve_broadcast(lookup_ref)
        self.role_col = role_col
        self.tool_col = tool_col
        # flat string-keyed map: "role\x1f tool" → meta tuple (dict hit
        # only once per DISTINCT key per batch — see __call__)
        self._cache: dict[str, tuple] = {}
        for (role, tool), meta in self.lookup.items():
            k = f"{role}\x1f{tool if tool is not None else self._NULL}"
            self._cache[k] = (meta["integration"], meta["category"], meta["cost_weight"])

    def _meta_for(self, key: str) -> tuple:
        meta = self._cache.get(key)
        if meta is None:
            role = key.split("\x1f", 1)[0]
            meta = self._cache.get(f"{role}\x1f{self._NULL}", (None, None, np.nan))
        return meta

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Vectorized lookup: dictionary-encode the (role, tool) key so
        the Python dict is consulted once per distinct key, then one
        Arrow ``take`` per column fans the result back out over the
        batch."""
        import pyarrow.compute as pc

        role = pc.fill_null(batch.column(self.role_col), self._NULL)
        tool = pc.fill_null(batch.column(self.tool_col), self._NULL)
        key = pc.binary_join_element_wise(role, tool, "\x1f")
        enc = pc.dictionary_encode(key.combine_chunks() if isinstance(key, pa.ChunkedArray) else key)
        uniques = enc.dictionary.to_pylist()
        metas = [self._meta_for(u) for u in uniques]

        def column(i: int, typ: pa.DataType) -> pa.Array:
            return pa.array([m[i] for m in metas], type=typ).take(enc.indices)

        return (
            batch.append_column("integration", column(0, pa.string()))
            .append_column("category", column(1, pa.string()))
            .append_column("cost_weight", column(2, pa.float64()))
        )


def enrich_stage(ds, lookup_ref, *, batch_size: int = 32768, concurrency=(2, 8)):
    """Attach the enrich actor-pool stage to a Dataset."""
    return ds.map_batches(
        IntegrationEnricher,
        fn_constructor_args=(lookup_ref,),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def _worker_cache() -> dict:
    """A cache that is truly per worker PROCESS.

    A module-level dict here would NOT be: these functions ship to Ray
    workers pickled by value, and every task deserializes a fresh copy
    of this module's globals.  The ``ray`` module itself is imported by
    reference in every worker, so state stashed on it survives across
    tasks in the same process."""
    import ray

    return ray.__dict__.setdefault("_graft_enrich_cache", {})


def make_enrich_fn(lookup_ref):
    """Task-based enrich with per-worker state caching.

    Sizing note (why this exists alongside the actor pool): Ray Data
    spawns a FRESH actor pool per pipeline execution — worth it when
    ``__init__`` loads heavy state (a model, an mmdb file), pure
    overhead when the broadcast side is a 20-row dict.  This variant
    runs as stateless tasks on long-lived workers; the dict is
    ``ray.get``-cached once per worker process (same loaded-once
    semantics, no actor spin-up).  Use the actor pool when state load
    time ≫ actor spawn time; use this when the state is small.
    """
    try:
        key = lookup_ref.hex()  # ObjectRef
    except AttributeError:
        key = str(id(lookup_ref))

    def enrich(batch: pa.Table) -> pa.Table:
        cache = _worker_cache()
        enricher = cache.get(key)
        if enricher is None:
            enricher = IntegrationEnricher(lookup_ref)
            cache[key] = enricher
        return enricher(batch)

    return enrich
