"""Seeded inputs, expected answers and workload facts.

Every input is a pure function of ``(workload, seed)``: the same seed
gives byte-identical Parquet, another seed gives other rows with the
same properties (``selftest.py`` checks both).  The program under test
only ever sees the generated Parquet directory.

Inputs are cached inside the checkout under
``.bench_cache/inputs/<workload>-s<seed>-n<turns>-v<GENERATOR_VERSION>``
through the package's crash-safe ``ensure_cache_dir`` (``_SUCCESS``
marker), so a killed run never leaves a half-written input that looks
complete.  The expected answers and the measured workload facts are
cached beside the Parquet files they were computed from.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import expect

#: bump whenever a generator changes, so stale caches are never reused
GENERATOR_VERSION = 3

#: Parquet files per input; every job reads one block per file
#: (``override_num_blocks``), so a Ray-free pass can cut the same batches
FILES = 8
#: the ``map_batches`` batch size of the EventProcessor stage, used by the
#: Ray jobs and by every Ray-free pass alike
BATCH_SIZE = 16384

#: input turns per workload: a warm job takes 2-4 s on a 4-CPU box, so
#: the warm loop of one run still holds several jobs
TURNS = {
    "flagship": 50_000,
    "conv_agg_interleaved": 200_000,
    "route_fanout": 60_000,
}
WORKLOADS = tuple(TURNS)

#: ``conv_agg_interleaved``: short conversations plus one hot one
INTERLEAVED_CONVS = 100_000
HOT_SHARE = 0.05

#: ``route_fanout``: share of tool turns, of ``error`` tool turns among
#: them, and of ``status=404`` among those (the reroute-to-alerts rule)
ROUTE_TOOL_SHARE = 0.8
ROUTE_ERROR_SHARE = 0.9
ROUTE_404_SHARE = 0.5

EVENT_TYPES = np.array(["signup", "click", "error", "view", "purchase"])
CHAT_WORDS = np.array(["hello", "thanks", "retry", "summarise", "explain", "next", "why", "ok"])
BASE_TS = np.datetime64("2024-01-01T00:00:00", "us")


def _strs(*parts) -> np.ndarray:
    """Element-wise string concatenation of numpy arrays and scalars."""
    out = np.asarray(parts[0]).astype(str)
    for p in parts[1:]:
        out = np.char.add(out, np.asarray(p).astype(str))
    return out


def flagship_table(seed: int, n: int) -> pa.Table:
    """All seven text classes in contiguous 20-turn conversations: a
    seeded ``events`` table run through ``derive_transcripts_table``."""
    from logstash_filter_elastic_integration_ray.sources.transcripts import derive_transcripts_table

    rng = np.random.default_rng([seed, 0])
    ts = BASE_TS + np.cumsum(rng.integers(1, 60_000_000, n)).astype("timedelta64[us]")
    events = pa.table(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pa.array(ts),
            "user_id": rng.integers(0, 1500, n),
            "event_type": pa.array(EVENT_TYPES[rng.integers(0, len(EVENT_TYPES), n)]),
            "props": pa.array(_strs('{"k": ', rng.integers(0, 100, n), "}")),
        }
    )
    return derive_transcripts_table(events)


def interleaved_table(seed: int, n: int) -> pa.Table:
    """Chat-only turns that no parse processor matches, from short
    conversations spread uniformly over the rows, plus one hot
    conversation holding ``HOT_SHARE`` of them."""
    rng = np.random.default_rng([seed, 1])
    n_hot = int(n * HOT_SHARE)
    conv = np.concatenate([np.zeros(n_hot, dtype=np.int64), rng.integers(1, INTERLEAVED_CONVS, n - n_hot)])
    conv = conv[rng.permutation(n)]
    # dense turn_idx per conversation, in row order
    order = np.argsort(conv, kind="stable")
    sorted_conv = conv[order]
    starts = np.r_[0, np.flatnonzero(np.diff(sorted_conv)) + 1]
    run_start = np.repeat(starts, np.diff(np.r_[starts, n]))
    turn = np.empty(n, dtype=np.int32)
    turn[order] = np.arange(n) - run_start
    words = CHAT_WORDS[rng.integers(0, len(CHAT_WORDS), n)]
    return pa.table(
        {
            "conv_id": pa.array(_strs("i", conv)),
            "turn_idx": pa.array(turn),
            "role": pa.array(np.where(turn % 2 == 0, "user", "assistant")),
            "text": pa.array(_strs("chat ", conv, " turn ", turn, ": ", words)),
            "tool": pa.nulls(n, pa.string()),
            "ts": pa.array(BASE_TS + rng.integers(0, 86_400_000_000, n).astype("timedelta64[us]")),
        }
    )


def route_table(seed: int, n: int) -> pa.Table:
    """Mostly ``error`` tool calls in the flagship tool-call text format,
    about half of them ``status=404``; the rest are chat turns."""
    rng = np.random.default_rng([seed, 2])
    turn = (np.arange(n) % 20).astype(np.int32)
    is_tool = rng.random(n) < ROUTE_TOOL_SHARE
    others = EVENT_TYPES[EVENT_TYPES != "error"]
    tool = np.where(rng.random(n) < ROUTE_ERROR_SHARE, "error", others[rng.integers(0, len(others), n)])
    status = np.where(rng.random(n) < 0.5, 200, 500)
    status = np.where((tool == "error") & (rng.random(n) < ROUTE_404_SHARE), 404, status)
    status = np.where((tool != "error") & (rng.random(n) < 0.2), 404, status)
    call = _strs(tool, "(k=", rng.integers(0, 100, n), ") status=", status,
                 " took=", rng.integers(0, 1000, n), "ms size=", rng.integers(0, 100, n), "kb")
    chat = _strs("chat ", CHAT_WORDS[rng.integers(0, len(CHAT_WORDS), n)], " ", rng.integers(0, 10_000, n))
    role = np.where(is_tool, "tool", np.where(turn % 2 == 0, "user", "assistant"))
    return pa.table(
        {
            "conv_id": pa.array(_strs("r", np.arange(n) // 20)),
            "turn_idx": pa.array(turn),
            "role": pa.array(role),
            "text": pa.array(np.where(is_tool, call, chat)),
            "tool": pa.array(np.where(is_tool, tool, None).tolist(), type=pa.string()),
            "ts": pa.array(BASE_TS + np.cumsum(rng.integers(1, 1_000_000, n)).astype("timedelta64[us]")),
        }
    )


def make_table(workload: str, seed: int, n: int | None = None) -> pa.Table:
    n = TURNS[workload] if n is None else n
    if workload == "flagship":
        return flagship_table(seed, n)
    if workload == "conv_agg_interleaved":
        return interleaved_table(seed, n)
    if workload == "route_fanout":
        return route_table(seed, n)
    raise ValueError(f"unknown workload {workload!r}")


def file_slices(table: pa.Table, files: int = FILES) -> list[pa.Table]:
    """The table split into ``files`` contiguous, near-equal slices."""
    bounds = np.linspace(0, table.num_rows, files + 1).astype(int)
    return [table.slice(a, b - a) for a, b in zip(bounds[:-1], bounds[1:])]


def batches(files: list[pa.Table]) -> list[pa.Table]:
    """The EventProcessor batches a Ray job sees: each file is one read
    block, cut into ``BATCH_SIZE``-row pieces."""
    out = []
    for part in files:
        out += [part.slice(i, BATCH_SIZE) for i in range(0, part.num_rows, BATCH_SIZE)]
    return out


# --------------------------------------------------------------------------
# expected answers
# --------------------------------------------------------------------------

CONV_STATS_COLUMNS = ["conv_id", "n_turns", "n_tool_calls", "first_ts", "last_ts",
                      "first_text", "last_text", "ordered_hash"]


def conv_stats_twin(table: pa.Table) -> pa.Table:
    """The expected ``conv_stats`` rows, sorted by ``conv_id``: the
    package's ``conv_stats_reference`` as one pyarrow ``group_by``.  The
    reference itself loops per conversation, a second or more per new
    seed even on ``flagship``; ``selftest.py`` checks the two agree."""
    from logstash_filter_elastic_integration_ray.stages.aggregate import P, ordered_hash_contrib

    contrib = ordered_hash_contrib(table["text"].to_numpy(), table["turn_idx"].to_numpy())
    t = pa.table(
        {
            "conv_id": table["conv_id"],
            "turn_idx": table["turn_idx"],
            "ts": table["ts"],
            "text": table["text"],
            "tool_call": pc.is_valid(table["tool"]).cast(pa.int64()),
            "h": pa.array(contrib),
        }
    ).sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    g = t.group_by("conv_id", use_threads=False).aggregate(
        [("turn_idx", "count"), ("tool_call", "sum"), ("ts", "min"), ("ts", "max"),
         ("text", "first"), ("text", "last"), ("h", "sum")]
    )
    out = pa.table(
        {
            "conv_id": g["conv_id"],
            "n_turns": g["turn_idx_count"],
            "n_tool_calls": g["tool_call_sum"],
            "first_ts": g["ts_min"],
            "last_ts": g["ts_max"],
            "first_text": g["text_first"],
            "last_text": g["text_last"],
            "ordered_hash": pa.array(g["h_sum"].to_numpy() % int(P)),
        }
    )
    return normalize_conv_stats(out)


def normalize_conv_stats(table: pa.Table) -> pa.Table:
    """Column order, types and row order that two correct ``conv_stats``
    results share, so they compare with ``Table.equals``."""
    t = table.select(CONV_STATS_COLUMNS).sort_by("conv_id")
    schema = pa.schema(
        [("conv_id", pa.string()), ("n_turns", pa.int64()), ("n_tool_calls", pa.int64()),
         ("first_ts", pa.timestamp("us")), ("last_ts", pa.timestamp("us")),
         ("first_text", pa.string()), ("last_text", pa.string()), ("ordered_hash", pa.int64())]
    )
    return t.cast(schema).combine_chunks()


def input_facts(table: pa.Table) -> dict:
    """Measured properties of an input that later claims can cite."""
    n = table.num_rows
    per_conv = pc.value_counts(table["conv_id"]).field("counts")
    # conv_stats' partial phase emits one row per (batch, conversation)
    partial_rows = sum(pc.count_distinct(b["conv_id"]).as_py() for b in batches(file_slices(table)))
    return {
        "turns": n,
        "conversations": len(per_conv),
        "hot_conversation_share": pc.max(per_conv).as_py() / n,
        "reroute_share": expect.expected_summary(table).get("index:logs-alerts-prod", 0) / n,
        "collapse_ratio": partial_rows / n,
        "tool_turn_share": 1 - table["tool"].null_count / n,
    }


# --------------------------------------------------------------------------
# the cache
# --------------------------------------------------------------------------


class Input:
    """One generated input: its Parquet directory, expected answers and facts."""

    def __init__(self, path: str):
        self.path = path
        self.data_dir = os.path.join(path, "data")
        with open(os.path.join(path, "facts.json")) as f:
            self.facts = json.load(f)
        self.workload = self.facts["workload"]
        self.turns = self.facts["turns"]

    def expected_conv_stats(self) -> pa.Table:
        """The ``conv_stats`` rows of a correct job."""
        return pq.read_table(os.path.join(self.path, "expected_conv_stats.parquet"))

    def expected_summary(self) -> dict[str, int]:
        """The summary (``expect.py``) of a correct job's parsed, routed
        and enriched output."""
        with open(os.path.join(self.path, "expected_summary.json")) as f:
            return json.load(f)


def input_dir(cache_root: str, workload: str, seed: int, n: int | None = None) -> str:
    n = TURNS[workload] if n is None else n
    return os.path.join(cache_root, "inputs", f"{workload}-s{seed}-n{n}-v{GENERATOR_VERSION}")


def write_parquet_files(table: pa.Table, data_dir: str) -> None:
    os.makedirs(data_dir, exist_ok=True)
    for i, part in enumerate(file_slices(table)):
        pq.write_table(part, os.path.join(data_dir, f"part-{i:04d}.parquet"))


def ensure_input(cache_root: str, workload: str, seed: int, n: int | None = None) -> Input:
    """Generate (once) the input, its expected answers and its facts."""
    from logstash_filter_elastic_integration_ray.sources.io import ensure_cache_dir

    def build(path: str) -> None:
        table = make_table(workload, seed, n)
        write_parquet_files(table, os.path.join(path, "data"))
        facts = {"workload": workload, "seed": seed, "generator_version": GENERATOR_VERSION,
                 **input_facts(table)}
        pq.write_table(conv_stats_twin(table), os.path.join(path, "expected_conv_stats.parquet"))
        with open(os.path.join(path, "expected_summary.json"), "w") as f:
            json.dump(expect.expected_summary(table), f)
        with open(os.path.join(path, "facts.json"), "w") as f:
            json.dump(facts, f)

    return Input(ensure_cache_dir(input_dir(cache_root, workload, seed, n), build))
