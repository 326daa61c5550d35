"""Flow control: drop / terminate / fail / on_failure / pipeline
nesting / reroute corpus (FIXTURES.md §4, SmokeTest.java:162-388)."""

import numpy as np

from logstash_filter_elastic_integration_ray.pipelines import (
    EventProcessor,
    RoutingConfig,
    compile_pipeline_set,
)
from tests.util import rows_to_table, run_pipeline, table_to_rows


def test_drop_removes_rows():  # spec:360-391
    rows = run_pipeline(
        {"processors": [{"drop": {"if": "ctx.level == 'debug'"}}]},
        [{"level": "debug", "i": 1}, {"level": "info", "i": 2}],
    )
    assert len(rows) == 1 and rows[0]["i"] == 2


def test_terminate_skips_rest_keeps_row():  # spec:1139-1167
    rows = run_pipeline(
        {"processors": [
            {"terminate": {"if": "ctx.error != null"}},
            {"append": {"field": "post", "value": ["applied"]}},
        ]},
        [{"error": "boom", "i": 1}, {"i": 2}],
    )
    assert len(rows) == 2
    by_i = {r["i"]: r for r in rows}
    assert "post" not in by_i[1]           # append NOT applied after terminate
    assert by_i[2]["post"] == ["applied"]
    assert by_i[1]["__meta_target_pipeline"] == "_none"  # still successful


def test_fail_tags_and_passes_original():  # spec:1250-1270
    rows = run_pipeline(
        {"processors": [
            {"set": {"field": "early", "value": "yes"}},
            {"fail": {"message": "custom boom {{id}}"}},
        ]},
        [{"id": "e1"}],
    )
    r = rows[0]
    assert "_ingest_pipeline_failure" in r["tags"]
    assert r["__meta_failure_message"] == "custom boom e1"
    assert "early" not in r  # original event emitted unmodified


def test_per_processor_on_failure_handler():
    rows = run_pipeline(
        {"processors": [
            {"convert": {"field": "n", "type": "integer", "tag": "conv-tag", "on_failure": [
                {"set": {"field": "recovered", "value": "{{_ingest.on_failure_processor_type}}"}},
            ]}},
        ]},
        [{"n": "bad"}],
    )
    r = rows[0]
    assert r["recovered"] == "convert"
    assert "tags" not in r  # handled → not a failure


def test_ignore_failure():
    rows = run_pipeline(
        {"processors": [
            {"convert": {"field": "n", "type": "integer", "ignore_failure": True}},
            {"set": {"field": "after", "value": "ran"}},
        ]},
        [{"n": "bad"}],
    )
    assert rows[0]["after"] == "ran"
    assert "tags" not in rows[0]


def test_pipeline_level_on_failure():  # docs/index.asciidoc:357-367
    rows = run_pipeline(
        {"processors": [{"fail": {"message": "boom"}}],
         "on_failure": [{"set": {"field": "caught", "value": "yes"}}]},
        [{"i": 1}],
    )
    assert rows[0]["caught"] == "yes"
    assert "tags" not in rows[0]


def test_pipeline_nesting():  # SmokeTest.java:162-238
    rows = run_pipeline(
        {"processors": [{"pipeline": {"name": "inner"}}, {"set": {"field": "outer", "value": "y"}}]},
        [{"i": 1}],
        extra_pipelines={"inner": {"processors": [{"set": {"field": "inner_ran", "value": "y"}}]}},
    )
    assert rows[0]["inner_ran"] == "y" and rows[0]["outer"] == "y"


def test_pipeline_missing():
    rows = run_pipeline(
        {"processors": [{"pipeline": {"name": "nope"}}]},
        [{"i": 1}],
    )
    assert "non-existent pipeline" in rows[0]["__meta_failure_message"]
    rows = run_pipeline(
        {"processors": [{"pipeline": {"name": "nope", "ignore_missing_pipeline": True}},
                        {"set": {"field": "ok", "value": "y"}}]},
        [{"i": 1}],
    )
    assert rows[0]["ok"] == "y"


def test_pipeline_recursion_cycle_detected():
    rows = run_pipeline(
        {"processors": [{"pipeline": {"name": "a"}}]},
        [{"i": 1}],
        extra_pipelines={
            "a": {"processors": [{"pipeline": {"name": "b"}}]},
            "b": {"processors": [{"pipeline": {"name": "a"}}]},
        },
    )
    assert "Cycle detected" in rows[0]["__meta_failure_message"]


# ---------------------------------------------------------------------------
# reroute corpus (reference reroute-pipelines/*.json, SmokeTest.java:267-388)
# ---------------------------------------------------------------------------

ROOT = {
    "processors": [
        {"reroute": {"if": "ctx.id == 'reroute-hardcoded-none'", "destination": "none"}},
        {"reroute": {"if": "ctx.id == 'reroute-hardcoded-downstream'", "destination": "downstream"}},
        {"reroute": {"if": "ctx.id == 'reroute-dataset-verify'", "dataset": "verify"}},
        {"reroute": {"if": "ctx.id == 'reroute-dataset-none'", "dataset": "none"}},
        {"reroute": {"if": "ctx.id == 'reroute-dataset-missing'", "dataset": "missing"}},
        {"reroute": {"if": "ctx.id == 'reroute-namespace-fire'", "namespace": "fire"}},
        {"reroute": {"if": "ctx.id == 'reroute-namespace-none'", "namespace": "none"}},
        {"reroute": {"if": "ctx.id == 'reroute-namespace-recursive'", "namespace": "smoke"}},
        {"set": {"field": "handled_by_root", "value": "true"}},
    ]
}

PIPELINES = {
    "logs-test-smoke-pipeline": ROOT,
    "downstream-pipeline": {"processors": [{"set": {"field": "handled_by_downstream", "value": "true"}}]},
    "logs-verify-smoke-pipeline": {"processors": [{"set": {"field": "handled_by_verify", "value": "true"}}]},
    "logs-test-fire-pipeline": {"processors": [{"set": {"field": "handled_by_fire", "value": "true"}}]},
}

# index → pipeline: "{index}-pipeline" unless the index contains "none"
# (SmokeTest.java:272-274); logs-missing-smoke-pipeline does NOT exist.
ROUTING = RoutingConfig(index_to_pipeline={
    "logs-test-smoke": "logs-test-smoke-pipeline",
    "downstream": "downstream-pipeline",
    "logs-verify-smoke": "logs-verify-smoke-pipeline",
    "logs-missing-smoke": "logs-missing-smoke-pipeline",
    "logs-test-fire": "logs-test-fire-pipeline",
})

IDS = [
    "reroute-hardcoded-none", "reroute-hardcoded-downstream", "no-reroute",
    "reroute-dataset-verify", "reroute-dataset-none", "reroute-dataset-missing",
    "reroute-namespace-fire", "reroute-namespace-none", "reroute-namespace-recursive",
]


def _run_corpus():
    rows = [
        {"id": i, "data_stream.type": "logs", "data_stream.dataset": "test",
         "data_stream.namespace": "smoke"}
        for i in IDS
    ]
    proc = EventProcessor(compile_pipeline_set(PIPELINES), ROUTING)
    return {r["id"]: r for r in table_to_rows(proc(rows_to_table(rows)))}


def test_reroute_final_indices():
    by_id = _run_corpus()
    expected_index = {
        "reroute-hardcoded-none": "none",
        "reroute-hardcoded-downstream": "downstream",
        "no-reroute": "logs-test-smoke",
        "reroute-dataset-verify": "logs-verify-smoke",
        "reroute-dataset-none": "logs-none-smoke",
        "reroute-namespace-fire": "logs-test-fire",
        "reroute-namespace-none": "logs-test-none",
    }
    for rid, idx in expected_index.items():
        assert by_id[rid]["__meta_index"] == idx, rid


def test_reroute_handler_flags_and_skip():
    by_id = _run_corpus()
    # rerouted rows skip the root pipeline's remaining processors
    assert "handled_by_root" not in by_id["reroute-hardcoded-downstream"]
    assert by_id["no-reroute"]["handled_by_root"] == "true"
    assert by_id["reroute-hardcoded-downstream"]["handled_by_downstream"] == "true"
    assert by_id["reroute-dataset-verify"]["handled_by_verify"] == "true"
    assert by_id["reroute-namespace-fire"]["handled_by_fire"] == "true"
    # data_stream fields rewritten
    assert by_id["reroute-dataset-verify"]["data_stream.dataset"] == "verify"
    assert by_id["reroute-namespace-fire"]["data_stream.namespace"] == "fire"


def test_reroute_failures():
    by_id = _run_corpus()
    assert "pipeline not loaded" in by_id["reroute-dataset-missing"]["__meta_failure_message"]
    assert "_ingest_pipeline_failure" in by_id["reroute-dataset-missing"]["tags"]
    assert "cycle" in by_id["reroute-namespace-recursive"]["__meta_failure_message"].lower()
    assert "_ingest_pipeline_failure" in by_id["reroute-namespace-recursive"]["tags"]


def test_reroute_per_sink_counts():
    by_id = _run_corpus()
    from collections import Counter

    failed = {rid for rid, r in by_id.items() if "tags" in r and "_ingest_pipeline_failure" in r["tags"]}
    counts = Counter(r["__meta_index"] for rid, r in by_id.items() if rid not in failed)
    assert counts == Counter({
        "logs-test-smoke": 1, "downstream": 1, "none": 1, "logs-verify-smoke": 1,
        "logs-none-smoke": 1, "logs-test-fire": 1, "logs-test-none": 1,
    })
    assert len(failed) == 2


def test_reroute_multi_hop_chain():
    """a → b → c: the reroute loop must follow multiple hops, running
    each index's pipeline in turn (EventProcessor.java:209-227
    recursion, bounded by the index-history cycle check)."""
    pipelines = compile_pipeline_set({
        "pipe-a": {"processors": [
            {"set": {"field": "hop_a", "value": "1"}},
            {"reroute": {"destination": "idx-b"}},
        ]},
        "pipe-b": {"processors": [
            {"set": {"field": "hop_b", "value": "1"}},
            {"reroute": {"destination": "idx-c"}},
        ]},
        "pipe-c": {"processors": [{"set": {"field": "hop_c", "value": "1"}}]},
    })
    routing = RoutingConfig(
        index_to_pipeline={"idx-a": "pipe-a", "idx-b": "pipe-b", "idx-c": "pipe-c"},
        use_datastream=False,
    )
    proc = EventProcessor(pipelines, routing)
    rows = table_to_rows(proc(rows_to_table([{"__meta_index": "idx-a", "i": 1}])))
    r = rows[0]
    assert r["hop_a"] == "1" and r["hop_b"] == "1" and r["hop_c"] == "1"
    assert r["__meta_index"] == "idx-c"
    assert r["__meta_target_pipeline"] == "_none"
    assert "tags" not in r


def test_date_index_name():  # spec:278-301
    rows = run_pipeline(
        {"processors": [{"date_index_name": {"field": "date_field", "index_name_prefix": "monthly-index-",
                                             "date_rounding": "M"}}]},
        [{"date_field": "2023-03-08T09:10:17.789Z"}],
    )
    assert rows[0]["__meta_index"].startswith("<monthly-index-{2023-03-08")


def test_unsupported_processor_pipeline_defers_and_tags_events():
    # spec:1522-1570: set_security_user / inference / enrich fail the
    # PIPELINE load; events resolved to it are failure-tagged at
    # runtime while other pipelines keep working
    from logstash_filter_elastic_integration_ray.model import META_FAILURE_MESSAGE, META_INDEX

    defs = {
        "good": {"processors": [{"set": {"field": "ok", "value": "y"}}]},
        "bad": {"processors": [{"set_security_user": {"field": "user"}}]},
        "bad2": {"processors": [{"inference": {"model_id": "m"}}]},
    }
    pipes = compile_pipeline_set(defs, on_error="defer")
    assert set(pipes) == {"good"}
    # malformed definitions also defer instead of crashing the job
    pipes2 = compile_pipeline_set(
        {"good": defs["good"], "broken": ["not-a-dict"], "broken2": {"processors": 5}},
        on_error="defer",
    )
    assert set(pipes2) == {"good"}

    proc = EventProcessor(
        pipes,
        RoutingConfig(index_to_pipeline={"idx-good": "good", "idx-bad": "bad"}),
    )
    rows = table_to_rows(proc(rows_to_table([
        {META_INDEX: "idx-good", "v": 1},
        {META_INDEX: "idx-bad", "v": 2},
    ])))
    assert rows[0]["ok"] == "y"
    assert rows[1].get("tags") == ["_ingest_pipeline_failure"]
    assert "pipeline not loaded [bad]" in rows[1][META_FAILURE_MESSAGE]

    # strict mode still raises
    import pytest as _pytest

    with _pytest.raises(Exception):
        compile_pipeline_set(defs)


def test_reroute_list_dataset_takes_first_resolving_value():
    """ES tries a list of dataset values in order: ``{{service}}`` when
    the row has a ``service``, else the static ``fallback``."""
    pipelines = compile_pipeline_set({
        "route": {"processors": [
            {"reroute": {"dataset": ["{{service}}", "fallback"], "namespace": ["{{env}}", "prod"]}},
        ]},
    })
    routing = RoutingConfig(index_to_pipeline={"logs-generic-default": "route"})
    rows = [
        {"id": 1, "service": "billing", "env": "qa"},
        {"id": 2},
        {"id": 3, "service": ""},
    ]
    for r in rows:
        r.update({"data_stream.type": "logs", "data_stream.dataset": "generic",
                  "data_stream.namespace": "default"})
    out = table_to_rows(EventProcessor(pipelines, routing)(rows_to_table(rows)))
    assert [r["__meta_index"] for r in out] == [
        "logs-billing-qa", "logs-fallback-prod", "logs-fallback-prod"]
    assert [r["data_stream.dataset"] for r in out] == ["billing", "fallback", "fallback"]
    assert all("tags" not in r for r in out)
