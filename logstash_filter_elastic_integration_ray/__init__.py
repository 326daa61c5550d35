"""Ray-Data-native ingest-pipeline engine.

A from-scratch reimplementation of the query/data-processing
capabilities of the reference plugin ``elastic/logstash-filter-
elastic_integration`` (see /root/reference), re-expressed as
``ray.data.Dataset`` pipelines of vectorized ``map_batches`` stages
over zero-copy Arrow batches:

- ingest *processors* (grok, dissect, kv, json, csv, date, convert,
  set/append/remove/rename, drop/fail/terminate, reroute, ...) compile
  to batch-level kernels over Arrow arrays (``functions/``);
- pipeline JSON definitions compile once on the driver
  (``pipelines/compiler.py``) and execute inside a single
  ``map_batches`` stage per batch (``pipelines/executor.py``),
  including conditional routing, per-row failure isolation and the
  reroute loop;
- enrichment is a stateful actor-pool stage holding broadcast
  dictionaries (``stages/enrich.py``);
- wide stages (group-by-conversation aggregation, fan-out sinks,
  dedup, similarity search) live in ``stages/``.

Nothing here is a port: the reference executes one Java processor
object per event per thread; this engine executes one vectorized
kernel per *batch* and lets Ray Data's streaming executor pipeline and
spill.  It schedules under one policy, set in ``sources/io.py``
(``engine_plan``) on every Dataset the package creates: Ray Data's
per-operator resource reservation is off, so each operator of these
short CPU-bound plans may run on every CPU (with the reservation, the
kernel stage of the flagship plan got one CPU of four), while Ray's
global object-store cap still bounds memory.  Datasets built outside
the package keep Ray's defaults.
"""

__version__ = "0.1.0"
