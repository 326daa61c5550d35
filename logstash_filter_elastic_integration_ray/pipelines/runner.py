"""Resumable flagship runner: shard-level checkpointing over the whole
parse → route → fan-out pipeline.

North-rule requirement: "resumable from checkpoint with per-partition
lineage + metrics".  Work is sharded by input file group; each shard
runs the full pipeline and fans out to per-sink Parquet under
``{out}/{shard_id}/``, committed atomically with a ``_MANIFEST.json``
recording inputs, per-sink row counts and wall time
(``stages/sinks.py:run_shard``).  A rerun skips completed shards, so a
killed job resumes where it stopped and total per-sink counts are
reproducible.
"""

from __future__ import annotations

import os

from ..model import META_INDEX
from ..sources.io import read_parquet_clean
from ..sources.transcripts import derive_transcripts_table
from ..stages.sinks import completed_shards, run_shard, sink_counts_from_dir
from .flagship import assign_datastream, build_event_processor


def _shards(input_files: list[str], shard_size: int) -> list[tuple[str, list[str]]]:
    out = []
    for i in range(0, len(input_files), shard_size):
        group = input_files[i : i + shard_size]
        out.append((f"shard-{i // shard_size:05d}", group))
    return out


def run_flagship_resumable(
    input_files: list[str],
    out_dir: str,
    *,
    shard_size: int = 1,
    events_format: bool = True,
) -> dict:
    """Run parse→route→fan-out over ``input_files`` with shard resume.

    ``events_format=True`` treats inputs as events parquet and derives
    transcripts on the fly; ``False`` reads transcript parquet directly.
    Returns {shard_id: manifest} plus aggregate per-sink counts.
    """
    os.makedirs(out_dir, exist_ok=True)
    proc = build_event_processor()

    def build(inputs: list[str], dest: str) -> dict:
        ds = read_parquet_clean(inputs)
        if events_format:
            ds = ds.map_batches(derive_transcripts_table, batch_format="pyarrow")
        parsed = ds.map_batches(assign_datastream, batch_format="pyarrow").map_batches(
            proc, batch_format="pyarrow"
        )
        from ..stages.sinks import fanout_write

        fanout_write(parsed, dest)
        return {"sink_counts": sink_counts_from_dir(dest)}

    manifests = {}
    already = completed_shards(out_dir)
    for shard_id, group in _shards(sorted(input_files), shard_size):
        manifests[shard_id] = run_shard(shard_id, group, out_dir, build)
    totals: dict[str, int] = {}
    for m in manifests.values():
        for sink, n in m["metrics"]["sink_counts"].items():
            totals[sink] = totals.get(sink, 0) + n
    return {
        "shards": manifests,
        "resumed_shards": sorted(already),
        "sink_counts": totals,
    }


def aggregate_from_sinks(out_dir: str, num_partitions: int = 64):
    """Aggregate over the RESUMABLE LAYOUT: read only completed shards'
    fan-out parquet (the checkpoint) and run the per-conversation
    aggregate on it.  A killed job can thus finish parse+route via
    :func:`run_flagship_resumable` resume, then (re)run aggregation
    over exactly the committed partitions — aggregation never depends
    on half-written shards (SURVEY.md §4.2 resumable-output design)."""
    import glob as _glob

    from ..stages.aggregate import conv_stats

    files = []
    for shard_id in sorted(completed_shards(out_dir)):
        files.extend(sorted(_glob.glob(os.path.join(out_dir, shard_id, "**", "*.parquet"), recursive=True)))
    if not files:
        raise FileNotFoundError(f"no completed shard parquet under {out_dir}")
    ds = read_parquet_clean(files, columns=["conv_id", "turn_idx", "text", "tool", "ts"])
    return conv_stats(ds, num_partitions=num_partitions)
