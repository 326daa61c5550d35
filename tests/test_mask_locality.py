"""Mask locality of the flagship processors and of every kernel that
writes through ``ColumnBatch.write_rows``: a kernel reads and writes
only the rows its mask selects, so every column keeps its value on the
other rows; and the flagship ``EventProcessor`` output keeps a pinned
schema (column order and types)."""

import numpy as np
import pyarrow as pa
import pytest

from logstash_filter_elastic_integration_ray.model import ColumnBatch
from logstash_filter_elastic_integration_ray.pipelines import compile_pipeline_set
from logstash_filter_elastic_integration_ray.pipelines.executor import PipelineState
from logstash_filter_elastic_integration_ray.pipelines.flagship import (
    assign_datastream,
    build_event_processor,
)
from logstash_filter_elastic_integration_ray.sources.transcripts import derive_transcripts_table
from tests.test_batch_invariance import WRITE_STEPS, _random_parse_rows
from tests.util import rows_to_table


def _flagship_batch(n: int = 400) -> pa.Table:
    rng = np.random.default_rng([7, 0])
    ts = np.datetime64("2024-01-01T00:00:00", "us") + np.cumsum(
        rng.integers(1, 60_000_000, n)).astype("timedelta64[us]")
    event_types = np.array(["signup", "click", "error", "view", "purchase"])
    events = pa.table({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pa.array(ts),
        "user_id": rng.integers(0, 1500, n),
        "event_type": pa.array(event_types[rng.integers(0, len(event_types), n)]),
        "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n)]),
    })
    return assign_datastream(derive_transcripts_table(events))


def _steps():
    """(pipeline, step) of every flagship step a kernel runs, in order:
    the parse chain, then the error and alerts pipelines' own steps."""
    pipes = build_event_processor().pipelines
    out = [("transcripts-parse", s) for s in pipes["transcripts-parse"].steps]
    for pid in ("transcripts-parse-error", "alerts-pipeline"):
        out += [(pid, s) for s in pipes[pid].steps if s.ptype != "pipeline"]
    return out


def _stages():
    """(step, the batch as the step sees it in the flagship run)."""
    table = _flagship_batch()
    out = []
    for _, step in _steps():
        out.append((step, table))
        batch = ColumnBatch(table)
        mask = np.ones(batch.n, dtype=bool)
        if step.condition is not None:
            mask &= step.condition.evaluate(batch)
        step.kernel.apply(batch, mask, PipelineState(batch.n))
        table = batch.to_table(include_private=True)
    return out


def _write_stages():
    """(step, batch) of each of ``WRITE_STEPS``, all over one batch."""
    table = rows_to_table(_random_parse_rows(np.random.default_rng(9), 60))
    pipes = compile_pipeline_set({str(j): {"processors": [step]} for j, step in enumerate(WRITE_STEPS)})
    return [(pipes[str(j)].steps[0], table) for j in range(len(WRITE_STEPS))]


STAGES = _stages() + _write_stages()


@pytest.mark.parametrize("k", range(len(STAGES)), ids=[s.tag for s, _ in STAGES])
def test_flagship_kernel_touches_only_masked_rows(k):
    step, table = STAGES[k]
    rng = np.random.default_rng(k)
    cond = step.condition.evaluate(ColumnBatch(table)) if step.condition is not None else None
    for frac in (0.1, 0.5, 1.0):
        pick = rng.random(table.num_rows) < frac
        for mask in ([pick & cond, pick] if cond is not None else [pick]):
            batch = ColumnBatch(table)
            err = step.kernel.apply(batch, mask, PipelineState(batch.n))
            assert err is None or not (err & ~mask).any()
            # a column may be dropped only by a mask of every row
            kept = [name for name in table.column_names if batch.has(name)]
            assert kept == table.column_names or mask.all(), step.tag
            assert batch.names()[:len(kept)] == kept
            keep = pa.array(~mask)
            for name in batch.names():
                col = batch._cols[name]
                if name not in table.column_names:
                    assert set(batch.read_rows(name, ~mask)[1]) <= {None}, (step.tag, name)
                    continue
                want = table.column(name).combine_chunks().filter(keep)
                if isinstance(col, pa.Array) and col.type == want.type:
                    assert col.filter(keep).equals(want), (step.tag, name)
                else:
                    # a column whose rows now mix types (kv writing a
                    # string into the int `status`): same Python values
                    assert batch.read_rows(name, ~mask)[1] == want.to_pylist(), (step.tag, name)


#: ``EventProcessor`` output schema of ``_flagship_batch()``
FLAGSHIP_SCHEMA = [
    ("conv_id", pa.string()),
    ("turn_idx", pa.int32()),
    ("role", pa.string()),
    ("text", pa.string()),
    ("tool", pa.string()),
    ("ts", pa.timestamp("us")),
    ("data_stream.type", pa.string()),
    ("data_stream.dataset", pa.string()),
    ("data_stream.namespace", pa.string()),
    ("tool_name", pa.string()),
    ("k", pa.int64()),
    ("status", pa.int64()),
    ("took_ms", pa.int64()),
    ("size_str", pa.string()),
    ("size_bytes", pa.int64()),
    ("clientip", pa.string()),
    ("ident", pa.string()),
    ("auth", pa.string()),
    ("verb", pa.string()),
    ("path", pa.string()),
    ("httpversion", pa.string()),
    ("status_code", pa.int64()),
    ("resp_bytes", pa.string()),
    ("ip", pa.string()),
    ("code", pa.string()),
    ("user", pa.string()),
    ("contact_name", pa.string()),
    ("contact_email", pa.string()),
    ("contact_phone", pa.string()),
    ("contact_addr", pa.string()),
    ("payload.foo", pa.int64()),
    ("payload.bar", pa.string()),
    ("plain_text", pa.string()),
    ("url_original", pa.string()),
    ("ua_string", pa.string()),
    ("url.scheme", pa.string()),
    ("url.domain", pa.string()),
    ("url.path", pa.string()),
    ("url.query", pa.string()),
    ("user_agent.name", pa.string()),
    ("user_agent.device.name", pa.string()),
    ("user_agent.version", pa.string()),
    ("user_agent.major", pa.string()),
    ("user_agent.os.name", pa.string()),
    ("user_agent.os.full", pa.string()),
    ("user_agent.original", pa.string()),
    ("error_handled", pa.string()),
    ("alert", pa.string()),
    ("__meta_index", pa.string()),
    ("__meta_target_pipeline", pa.string()),
]


def test_flagship_output_schema_pinned():
    out = build_event_processor()(_flagship_batch())
    assert [(f.name, f.type) for f in out.schema] == FLAGSHIP_SCHEMA


def _list_set_scalar(self, name, value, mask=None):
    """``ColumnBatch.set_scalar`` as one Python list per write: the
    reference the repeated-Arrow-array write must equal byte for byte."""
    rows = np.arange(self.n) if mask is None else np.flatnonzero(mask)
    self.write_rows(name, rows, [value] * len(rows))


def _ipc_bytes(table: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue().to_pybytes()


@pytest.mark.parametrize("value", ["x", 7, 2.5, True, None, [1, 2], ["a"], [1, "a"], {"k": 1}])
@pytest.mark.parametrize("field", ["new", "s", "i"])
@pytest.mark.parametrize("cond", [None, "ctx.k == 1", "ctx.k == 9"])
def test_set_scalar_output_equals_list_write(value, field, cond, monkeypatch):
    """A ``set`` of a constant writes one repeated Arrow array: the
    output equals a list write for str, int, float, bool, None, list and
    map values (a mixed list has no Arrow type and stays a list), on all
    rows or a mask, into a new column, a string one or an int one."""
    from logstash_filter_elastic_integration_ray.pipelines import EventProcessor, RoutingConfig

    step = {"field": field, "value": value}
    if cond:
        step["if"] = cond
    rows = [{"k": i % 3, "s": f"v{i}", "i": i} for i in range(7)]

    def run() -> bytes:
        proc = EventProcessor(compile_pipeline_set({"main": {"processors": [{"set": step}]}}),
                              RoutingConfig(default_pipeline="main", use_datastream=False))
        return _ipc_bytes(proc(rows_to_table(rows)))

    got = run()
    monkeypatch.setattr(ColumnBatch, "set_scalar", _list_set_scalar)
    assert got == run()
