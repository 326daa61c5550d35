"""The engine's core claim: columnar execution is a pure optimization —
running a pipeline over one N-row batch must equal running it over N
single-row batches (and any split in between).  Randomized pipelines ×
randomized events, seeded."""

import copy

import numpy as np
import pyarrow as pa
import pytest

from logstash_filter_elastic_integration_ray.pipelines import (
    EventProcessor,
    RoutingConfig,
    compile_pipeline_set,
)
from tests.util import rows_to_table, table_to_rows


def _random_pipeline(rng) -> dict:
    pool = [
        lambda: {"set": {"field": rng.choice(["a", "b", "nested.x"]),
                         "value": f"v{rng.integers(0, 3)}"}},
        lambda: {"set": {"field": "copy", "copy_from": "text",
                         "ignore_empty_value": bool(rng.integers(0, 2))}},
        lambda: {"rename": {"field": "text", "target_field": "renamed",
                            "ignore_missing": True}},
        lambda: {"lowercase": {"field": "text", "ignore_missing": True}},
        lambda: {"uppercase": {"field": "text", "ignore_missing": True}},
        lambda: {"gsub": {"field": "text", "pattern": "o", "replacement": "0",
                          "ignore_missing": True}},
        lambda: {"split": {"field": "text", "separator": " ", "ignore_missing": True}},
        lambda: {"convert": {"field": "num", "type": "integer", "ignore_missing": True,
                             "ignore_failure": True}},
        lambda: {"drop": {"if": f"ctx.k == {rng.integers(0, 6)}"}},
        lambda: {"fail": {"if": f"ctx.k == {rng.integers(0, 6)}", "message": "boom"}},
        lambda: {"append": {"field": "lst", "value": f"t{rng.integers(0, 3)}"}},
        lambda: {"script": {"lang": "painless",
                            "source": "if (ctx.k > 2) { ctx.big = true } else { ctx.big = false }"}},
        lambda: {"remove": {"field": "maybe", "ignore_missing": True}},
    ]
    n_steps = int(rng.integers(2, 6))
    steps = [pool[int(rng.integers(0, len(pool)))]() for _ in range(n_steps)]
    return {"processors": steps}


def _random_rows(rng, n) -> list[dict]:
    rows = []
    for i in range(n):
        r = {"k": int(rng.integers(0, 6)), "text": rng.choice(
            ["hello world", "FOO bar", "", "one two three", "x"])}
        if rng.integers(0, 2):
            r["num"] = rng.choice(["7", "notanum", "42"])
        if rng.integers(0, 2):
            r["maybe"] = "m"
        if rng.integers(0, 2):
            r["lst"] = ["seed"]
        rows.append(r)
    return rows


@pytest.mark.parametrize("seed", range(12))
def test_batch_split_invariance(seed):
    rng = np.random.default_rng(seed)
    pipe = _random_pipeline(rng)
    rows = _random_rows(rng, 17)
    proc = EventProcessor(
        compile_pipeline_set({"main": pipe}),
        RoutingConfig(default_pipeline="main", use_datastream=False),
    )
    table = rows_to_table(rows)

    whole = table_to_rows(proc(table))

    # per-row execution: each row as its own single-row batch
    split = []
    for i in range(table.num_rows):
        split.extend(table_to_rows(proc(table.slice(i, 1))))

    # a random mid split too
    mid = int(rng.integers(1, 16))
    two = table_to_rows(proc(table.slice(0, mid))) + table_to_rows(proc(table.slice(mid)))

    def canon(rows_out):
        # mixed-type columns are an Arrow representation limit: a batch
        # where SOME rows hold lists renders the list rows as JSON
        # strings, while a batch of only-list rows keeps native lists.
        # Canonicalize by JSON-parsing strings that encode containers.
        import json

        out = []
        for r in rows_out:
            c = {}
            for k, v in r.items():
                if isinstance(v, str) and v[:1] in "[{":
                    try:
                        v = json.loads(v)
                    except (ValueError, TypeError):
                        pass
                c[k] = v
            out.append(c)
        return out

    assert canon(whole) == canon(split), f"seed {seed}: whole-batch != per-row"
    assert canon(whole) == canon(two), f"seed {seed}: whole-batch != two-way split"


@pytest.mark.parametrize("seed", range(6))
def test_batch_split_invariance_with_routing_and_reroute(seed):
    # the executor's intricate paths: datastream routing, reroute with
    # cycle detection, sub-pipelines — same batch-split invariance
    rng = np.random.default_rng(100 + seed)
    defs = {
        "root": {"processors": [
            {"set": {"field": "root_ran", "value": "y"}},
            {"reroute": {"if": f"ctx.k == {rng.integers(0, 4)}", "dataset": "other"}},
            {"pipeline": {"name": "sub", "if": f"ctx.k == {rng.integers(0, 4)}"}},
            {"set": {"field": "root_done", "value": "y"}},
        ]},
        "other-pipe": {"processors": [
            {"set": {"field": "other_ran", "value": "y"}},
            {"reroute": {"if": f"ctx.k == {rng.integers(0, 4)}", "dataset": "test"}},  # maybe cycle
        ]},
        "sub": {"processors": [
            {"uppercase": {"field": "text", "ignore_missing": True}},
            {"fail": {"if": f"ctx.k == {rng.integers(0, 4)}", "message": "subboom"}},
        ]},
    }
    routing = RoutingConfig(index_to_pipeline={
        "logs-test-prod": "root",
        "logs-other-prod": "other-pipe",
    })
    proc = EventProcessor(compile_pipeline_set(defs), routing)
    rows = []
    for i in range(13):
        rows.append({
            "k": int(rng.integers(0, 4)),
            "text": str(rng.choice(["alpha beta", "x", ""])),
            "data_stream.type": "logs",
            "data_stream.dataset": "test",
            "data_stream.namespace": "prod",
        })
    table = rows_to_table(rows)

    whole = table_to_rows(proc(table))
    split = []
    for i in range(table.num_rows):
        split.extend(table_to_rows(proc(table.slice(i, 1))))
    assert whole == split, f"seed {100 + seed}: routed whole-batch != per-row"


#: one step per kernel that writes through ``ColumnBatch.write_rows``
#: with a per-row loop or a masked Arrow filter; the tags name them
WRITE_STEPS = [
    {"set": {"tag": "set-copy", "field": "cp", "copy_from": "text"}},
    {"set": {"tag": "set-copy-nonempty", "field": "cp2", "copy_from": "text",
             "ignore_empty_value": True}},
    {"set": {"tag": "set-template", "field": "tpl", "value": "{{service}}-{{k}}"}},
    {"set": {"tag": "set-null", "if": "ctx.k == 1", "field": "num", "value": None}},
    {"append": {"tag": "append", "field": "lst", "value": ["t{{k}}", "x"]}},
    {"remove": {"tag": "remove-partial", "if": "ctx.k == 2", "field": "size",
                "ignore_missing": True}},
    {"rename": {"tag": "rename", "field": "service", "target_field": "svc",
                "ignore_missing": True}},
    {"uppercase": {"tag": "uppercase-target", "field": "text", "target_field": "up",
                   "ignore_missing": True}},
    {"gsub": {"tag": "gsub-re2", "field": "text", "pattern": "[0-9]", "replacement": "#",
              "target_field": "gs", "ignore_missing": True}},
    {"gsub": {"tag": "gsub-python", "field": "text", "pattern": "o(?=\\w)", "replacement": "0",
              "target_field": "gp", "ignore_missing": True}},
    {"split": {"tag": "split", "field": "text", "separator": "[ ,]", "target_field": "parts",
               "ignore_missing": True}},
    {"join": {"tag": "join", "if": "ctx.lst != null", "field": "lst", "separator": "+",
              "target_field": "joined"}},
    {"sort": {"tag": "sort", "if": "ctx.lst != null", "field": "lst", "order": "desc",
              "target_field": "sorted"}},
    {"fingerprint": {"tag": "fingerprint", "fields": ["text", "k"], "target_field": "fp",
                     "ignore_missing": True}},
    {"foreach": {"tag": "foreach", "field": "lst", "ignore_missing": True,
                 "processor": {"uppercase": {"field": "_ingest._value"}}}},
    {"script": {"tag": "script-dsl", "source": "ctx.k2 = ctx.k * 2"}},
    {"script": {"tag": "script-painless",
                "source": "if (ctx.k > 1) { ctx.big = 'y' } else { ctx.big = null }"}},
    {"network_direction": {"tag": "network-direction", "source_ip": "src_ip",
                           "destination_ip": "dst_ip", "internal_networks": ["private"],
                           "target_field": "dir"}},
    {"community_id": {"tag": "community-id", "source_ip": "src_ip", "destination_ip": "dst_ip",
                      "source_port": "sport", "destination_port": "dport", "transport": "proto",
                      "target_field": "cid"}},
]


#: run first on every batch: an ``int32`` column copied, renamed over
#: the whole mask and renamed under a condition keeps its type
INT32_STEPS = [
    {"set": {"tag": "set-copy-int32", "field": "cp32", "copy_from": "n32"}},
    {"rename": {"tag": "rename-int32", "field": "n32", "target_field": "m32"}},
    {"rename": {"tag": "rename-int32-if", "if": "ctx.k == 1", "field": "m32",
                "target_field": "c32"}},
]


def _random_parse_pipeline(rng) -> dict:
    """Steps drawn from the kernels that read and write masked rows only."""
    pool = [
        lambda: {"grok": {"field": "text", "patterns": [r"^%{WORD:g_word}(?: %{INT:g_num:int})?$"],
                          "if": "ctx.text != null && !ctx.text.contains('=')",
                          "ignore_failure": bool(rng.integers(0, 2))}},
        lambda: {"dissect": {"field": "text", "pattern": "%{d_first} %{d_rest}",
                             "ignore_failure": True}},
        lambda: {"kv": {"field": "text", "field_split": " ", "value_split": "=",
                        "if": "ctx.text != null && ctx.text.contains('=')"}},
        lambda: {"csv": {"field": "text", "target_fields": ["c1", "c2"],
                         "if": "ctx.text != null && ctx.text.contains(',')"}},
        lambda: {"json": {"field": "text", "target_field": "j",
                          "if": "ctx.text != null && ctx.text.startsWith('{')"}},
        lambda: {"bytes": {"field": "size", "target_field": "size_b", "ignore_missing": True,
                           "ignore_failure": bool(rng.integers(0, 2))}},
        lambda: {"html_strip": {"field": "text", "target_field": "plain",
                                "if": "ctx.text != null && ctx.text.contains('<')"}},
        lambda: {"uri_parts": {"field": "url", "target_field": "u", "ignore_missing": True,
                               "ignore_failure": bool(rng.integers(0, 2))}},
        lambda: {"convert": {"field": "num", "target_field": "num_i", "type": "integer",
                             "ignore_missing": True}},
        lambda: {"reroute": {"if": f"ctx.k == {rng.integers(0, 4)}",
                             "dataset": ["{{service}}", "fallback"]}},
    ] + [lambda step=step: copy.deepcopy(step) for step in WRITE_STEPS]
    n_steps = int(rng.integers(6, 12))
    return {"processors": [pool[int(rng.integers(0, len(pool)))]() for _ in range(n_steps)]}


def _random_parse_rows(rng, n) -> list[dict]:
    texts = ["foo 12", "foo", "bar 7", "k1=v1 k2=v2", "a,b", "x,y", '{"x": 1}',
             '{"x": 2, "y": "s"}', "one two three", "", "<p>a</p>\n\n<b>b</b>"]
    rows = []
    for _ in range(n):
        r = {"k": int(rng.integers(0, 4)), "data_stream.type": "logs",
             "data_stream.dataset": "test", "data_stream.namespace": "prod"}
        if rng.integers(0, 8):
            r["text"] = str(rng.choice(texts))
        if rng.integers(0, 2):
            r["size"] = str(rng.choice(["5kb", "12b", "bad", "1.5mb"]))
        if rng.integers(0, 2):
            r["num"] = str(rng.choice(["7", "42", "-3"]))
        if rng.integers(0, 2):
            r["url"] = str(rng.choice(["https://Example.com:8080/a/b.txt?q=1", "http://u:p@h/x",
                                       "http://h:99999/", "not a url", "ftp://[::1]/p#f"]))
        if rng.integers(0, 2):
            r["service"] = str(rng.choice(["billing", "search"]))
        if rng.integers(0, 2):
            r["lst"] = [str(x) for x in rng.choice(["b", "a", "c"], size=int(rng.integers(0, 3)))]
        if rng.integers(0, 4):
            r["src_ip"], r["dst_ip"] = (str(x) for x in rng.choice(
                ["10.0.0.1", "192.168.1.5", "8.8.8.8", "2001:db8::1", "bad"], size=2))
            r["sport"], r["dport"] = (int(x) for x in rng.integers(1, 65536, size=2))
            r["proto"] = str(rng.choice(["tcp", "udp", "icmp"]))
        rows.append(r)
    return rows


@pytest.mark.parametrize("seed", range(12))
def test_batch_split_invariance_parse_kernels(seed):
    # the masked-row kernels, typed: a row's values and their types are
    # the same whatever rows share its batch
    rng = np.random.default_rng(200 + seed)
    main = _random_parse_pipeline(rng)
    main["processors"][:0] = copy.deepcopy(INT32_STEPS)
    defs = {
        "main": main,
        "after": {"processors": [{"set": {"field": "after_ran", "value": "y"}}]},
    }
    routing = RoutingConfig(index_to_pipeline={
        "logs-test-prod": "main", "logs-fallback-prod": "after",
        "logs-billing-prod": "after", "logs-search-prod": "after"})
    proc = EventProcessor(compile_pipeline_set(defs), routing)
    table = rows_to_table(_random_parse_rows(rng, 29))
    table = table.append_column("n32", pa.array(np.arange(29), type=pa.int32()))

    out = proc(table)
    whole = table_to_rows(out)
    for c in ("cp32", "m32", "c32"):
        assert out.schema.field(c).type == pa.int32(), c
    for size in (1, 7):
        split = []
        for start in range(0, table.num_rows, size):
            split.extend(table_to_rows(proc(table.slice(start, size))))
        assert whole == split, f"seed {200 + seed}: whole-batch != {size}-row batches"


@pytest.mark.parametrize("seed", range(8))
def test_batch_split_invariance_of_routing(seed):
    # index resolution on codes: a pre-existing __meta_index with nulls,
    # null and empty data_stream parts (or a list-valued dataset on odd
    # seeds), reroutes to an index with and without a pipeline, and a
    # reroute cycle give every row the same result under random cuts
    from tests.test_executor import ROUTED, ROUTES

    rng = np.random.default_rng(300 + seed)
    proc = EventProcessor(compile_pipeline_set(ROUTED), RoutingConfig(index_to_pipeline=ROUTES))
    datasets = [["b"], ["a", "b"], None] if seed % 2 else ["a", "b", "", None, "c"]
    rows = [{
        "k": int(rng.integers(0, 4)),
        "__meta_index": [None, None, "logs-a-prod", "idx-c", "other"][int(rng.integers(0, 5))],
        "data_stream.type": ["logs", "logs", "", None][int(rng.integers(0, 4))],
        "data_stream.dataset": datasets[int(rng.integers(0, len(datasets)))],
        "data_stream.namespace": ["prod", "prod", None][int(rng.integers(0, 3))],
    } for _ in range(31)]
    table = rows_to_table(rows)

    whole = table_to_rows(proc(table))
    cuts = [0, *sorted(rng.choice(np.arange(1, 31), size=4, replace=False).tolist()), 31]
    split = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        split.extend(table_to_rows(proc(table.slice(lo, hi - lo))))
    assert whole == split, f"seed {300 + seed}: routed whole-batch != cut at {cuts[1:-1]}"
