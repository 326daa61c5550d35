"""Golden-pipeline executor tests (SmokeTest.java:81-158 semantics) +
conditions."""

from tests.util import run_pipeline

SIMPLE_MUTATE = {
    "processors": [
        {"set": {"field": "my-long-field", "value": 10}},
        {"set": {"field": "host.hostname", "value": "BamBam"}},
        {"lowercase": {"field": "host.hostname"}},
        {"remove": {"field": "required-field-to-remove"}},
        {"append": {"field": "events", "value": ["one", "two"]}},
    ]
}


def test_simple_mutate_happy_path():
    rows = run_pipeline(SIMPLE_MUTATE, [{"required-field-to-remove": "x", "keep": 1}])
    r = rows[0]
    assert r["my-long-field"] == 10
    assert r["host.hostname"] == "bambam"
    assert "required-field-to-remove" not in r
    assert r["events"] == ["one", "two"]
    assert r["__meta_target_pipeline"] == "_none"


def test_simple_mutate_failure_isolated_per_row():
    rows = run_pipeline(
        SIMPLE_MUTATE,
        [{"required-field-to-remove": "x", "i": 1}, {"i": 2}],
    )
    ok = next(r for r in rows if r["i"] == 1)
    bad = next(r for r in rows if r["i"] == 2)
    assert ok["host.hostname"] == "bambam"
    assert "tags" not in ok
    # failed row: original, unmodified, tagged
    assert "my-long-field" not in bad
    assert "host.hostname" not in bad
    assert "_ingest_pipeline_failure" in bad["tags"]
    assert "required-field-to-remove" in bad["__meta_failure_message"]


def test_condition_gating_vectorized():
    rows = run_pipeline(
        {"processors": [
            {"set": {"field": "cls", "value": "tool", "if": "ctx.role == 'tool'"}},
            {"set": {"field": "cls", "value": "other", "if": "ctx.role != 'tool'"}},
            {"set": {"field": "big", "value": "y", "if": "ctx.n > 5 && ctx.role.startsWith('t')"}},
        ]},
        [{"role": "tool", "n": 10}, {"role": "user", "n": 10}, {"role": "tool", "n": 1}],
    )
    assert [r["cls"] for r in rows] == ["tool", "other", "tool"]
    assert rows[0]["big"] == "y"
    assert "big" not in rows[1] and "big" not in rows[2]


def test_null_safe_access():
    rows = run_pipeline(
        {"processors": [{"set": {"field": "hit", "value": "y", "if": "ctx?.a?.b == 'x'"}}]},
        [{"a.b": "x"}, {"other": 1}],
    )
    assert rows[0]["hit"] == "y"
    assert "hit" not in rows[1]


def test_unknown_processor_fails_compilation():
    import pytest

    from logstash_filter_elastic_integration_ray.functions import KernelCompileError
    from logstash_filter_elastic_integration_ray.pipelines import compile_pipeline

    # docs/index.asciidoc:309-324: unsupported processors fail creation
    with pytest.raises(KernelCompileError):
        compile_pipeline("p", {"processors": [{"inference": {"model_id": "m"}}]})


def test_rowwise_fallback_binary_split_no_double_apply():
    # a kernel that PARTIALLY WRITES then raises must isolate only the
    # bad rows, and retried rows must not see the aborted attempt's
    # writes (snapshot-revert before each retry) — otherwise a
    # read-modify-write kernel double-applies
    import numpy as np

    from logstash_filter_elastic_integration_ray.pipelines import (
        EventProcessor,
        RoutingConfig,
        compile_pipeline_set,
    )
    from tests.util import rows_to_table, table_to_rows

    class FlakyAppendX:
        failure_message = "flaky failed"

        def output_fields(self):
            return ["s"]

        def apply(self, batch, mask, state):
            vals = batch.objects("s").copy()
            idx = np.nonzero(mask)[0]
            for i in idx:  # write BEFORE the raise (partial-write shape)
                vals[i] = (vals[i] or "") + "X"
            batch.set("s", vals)
            flags = batch.objects("flag")
            if any(flags[i] == "bad" for i in idx):
                raise RuntimeError("boom")
            return None

    pipes = compile_pipeline_set({"main": {"processors": [{"set": {"field": "unused", "value": "y"}}]}})
    pipes["main"].steps[0].kernel = FlakyAppendX()
    pipes["main"].steps[0].ptype = "flaky"
    proc = EventProcessor(pipes, RoutingConfig(default_pipeline="main", use_datastream=False))

    rows_in = [{"s": f"r{i}", "flag": "bad" if i in (3, 11) else "ok"} for i in range(16)]
    rows = table_to_rows(proc(rows_to_table(rows_in)))
    for i, r in enumerate(rows):
        if i in (3, 11):
            assert r.get("tags") == ["_ingest_pipeline_failure"], r
            assert r["s"] == f"r{i}"          # restored original, no X
        else:
            assert r["s"] == f"r{i}X", r      # applied EXACTLY once
            assert "tags" not in r


def test_datastream_resolution_reference_cases():
    # DatastreamEventToIndexNameResolverTest.java:25-86 — missing or
    # malformed (non-string) parts resolve to NO index
    import numpy as np

    from logstash_filter_elastic_integration_ray.model import ColumnBatch, META_INDEX
    from logstash_filter_elastic_integration_ray.pipelines import (
        EventProcessor,
        RoutingConfig,
        compile_pipeline_set,
    )

    proc = EventProcessor(compile_pipeline_set({"p": {"processors": []}}), RoutingConfig())

    def resolve(rows):
        b = ColumnBatch(num_rows=len(rows))
        cols = {}
        for r in rows:
            for k in r:
                cols.setdefault(k, [None] * len(rows))
        for i, r in enumerate(rows):
            for k, v in r.items():
                cols[k][i] = v
        for k, vals in cols.items():
            arr = np.empty(len(rows), dtype=object)
            arr[:] = vals
            b.set(k, arr)
        codes, names = proc._resolve_index(b)
        return [names[c] if c >= 0 else None for c in codes]

    out = resolve([
        {"data_stream.type": "logs", "data_stream.dataset": "elastic_agent.metricbeat",
         "data_stream.namespace": "default"},
        {"data_stream.type": None, "data_stream.dataset": "x", "data_stream.namespace": "custom"},
        {"data_stream.type": "logs", "data_stream.dataset": None, "data_stream.namespace": "custom"},
        {"data_stream.type": "logs", "data_stream.dataset": "x", "data_stream.namespace": None},
        {"data_stream.type": "logs", "data_stream.dataset": ["one", "two"],  # malformed
         "data_stream.namespace": "custom"},
    ])
    assert out[0] == "logs-elastic_agent.metricbeat-default"
    assert out[1] is None and out[2] is None and out[3] is None
    assert out[4] is None  # non-string part → no index


def test_sprintf_template_reference_cases():
    # SprintfTemplateEventToPipelineNameResolverTest.java:20-51
    import numpy as np

    from logstash_filter_elastic_integration_ray.model import ColumnBatch
    from logstash_filter_elastic_integration_ray.pipelines import (
        EventProcessor,
        RoutingConfig,
        compile_pipeline_set,
    )

    def resolve(template, rows):
        proc = EventProcessor(
            compile_pipeline_set({"p": {"processors": []}}),
            RoutingConfig(pipeline_template=template, use_datastream=False),
        )
        b = ColumnBatch(num_rows=len(rows))
        keys = {k for r in rows for k in r}
        for k in keys:
            arr = np.empty(len(rows), dtype=object)
            arr[:] = [r.get(k) for r in rows]
            b.set(k, arr)
        return proc._resolve_template_pipelines(b)

    # constant template resolves for every event
    assert resolve("always", [{"x": 1}, {"y": 2}]) == ["always", "always"]
    # fully resolved
    assert resolve("this-%{that}-%{[another][thing]}",
                   [{"that": "TTHHAATT", "another.thing": "thang"}]) == ["this-TTHHAATT-thang"]
    # partially resolved → no pipeline for that event
    assert resolve("this-%{that}-%{[another][thing]}", [{"that": "TTHHAATT"}]) == [None]


#: the routing fixture: a pipeline per index, reroutes to an index with a
#: pipeline (``idx-c``), to one without (``idx-none``) and back (a cycle)
ROUTED = {
    "p-a": {"processors": [{"set": {"field": "ran", "value": "a"}}]},
    "p-b": {"processors": [
        {"set": {"field": "ran", "value": "b"}},
        {"reroute": {"if": "ctx.k == 1 || ctx.k == 3", "destination": "idx-c"}},
        {"reroute": {"if": "ctx.k == 2", "destination": "idx-none"}},
    ]},
    "p-c": {"processors": [
        {"set": {"field": "ran_c", "value": "y"}},
        {"reroute": {"if": "ctx.k == 3", "destination": "logs-b-prod"}},
    ]},
}
ROUTES = {"logs-a-prod": "p-a", "logs-b-prod": "p-b", "idx-c": "p-c", "idx-none": "_none"}


def _routed(rows: list[dict], **routing) -> list[dict]:
    from logstash_filter_elastic_integration_ray.pipelines import (
        EventProcessor,
        RoutingConfig,
        compile_pipeline_set,
    )
    from tests.util import rows_to_table, table_to_rows

    proc = EventProcessor(compile_pipeline_set(ROUTED),
                          RoutingConfig(index_to_pipeline=ROUTES, **routing))
    return table_to_rows(proc(rows_to_table(rows)))


def _ds(t="logs", d="b", ns="prod", **row) -> dict:
    return {"data_stream.type": t, "data_stream.dataset": d, "data_stream.namespace": ns, **row}


def _route_of(r: dict) -> tuple:
    return (r.get("__meta_index"), r.get("ran"), r.get("ran_c"),
            r.get("__meta_target_pipeline"), r.get("__meta_failure_message"))


def test_routing_on_index_codes():
    """Index resolution, per-index pipelines and reroutes: a
    pre-existing ``__meta_index`` (null on some rows) wins over the
    composed one; an empty or null part resolves to no index; a reroute
    reaches an index with a pipeline, one without, and a cycle fails."""
    rows = _routed([
        _ds(k=0, **{"__meta_index": "logs-a-prod"}),
        _ds(k=0, **{"__meta_index": None}),
        _ds(d="", k=0, **{"__meta_index": None}),
        _ds(ns=None, k=0, **{"__meta_index": None}),
        _ds(k=1, **{"__meta_index": None}),
        _ds(k=2, **{"__meta_index": None}),
        _ds(k=3, **{"__meta_index": None}),
    ])
    assert [_route_of(r) for r in rows[:6]] == [
        ("logs-a-prod", "a", None, "_none", None),
        ("logs-b-prod", "b", None, "_none", None),
        (None, None, None, None, None),
        (None, None, None, None, None),
        ("idx-c", "b", "y", "_none", None),
        ("idx-none", "b", None, "_none", None),
    ]
    # the cycle: the row fails and comes back as it went in, tagged
    assert rows[6] == {**_ds(k=3), "tags": ["_ingest_pipeline_failure"],
                       "__meta_failure_message": "index cycle detected while rerouting "
                       "document: ['idx-c', 'logs-b-prod'] -> logs-b-prod"}


def test_routing_list_valued_dataset_resolves_no_index():
    """A list-valued dataset is not a string: those rows get no index,
    while a pre-existing ``__meta_index`` still routes its row."""
    rows = _routed([
        _ds(d=["one", "two"], k=0, **{"__meta_index": "logs-a-prod"}),
        _ds(d=["b"], k=0, **{"__meta_index": None}),
    ])
    assert [_route_of(r) for r in rows] == [
        ("logs-a-prod", "a", None, "_none", None),
        (None, None, None, None, None),
    ]


def test_routing_batch_with_no_routable_row():
    """No row resolves an index: every row passes through untouched
    and no ``__meta_index`` column appears."""
    rows = _routed([_ds(t=None, k=0), _ds(d="", k=1)])
    assert rows == [{"data_stream.dataset": "b", "data_stream.namespace": "prod", "k": 0},
                    _ds(d="", k=1)]
    rows = _routed([{"k": 0}, {"k": 1}], use_datastream=False)
    assert rows == [{"k": 0}, {"k": 1}]
