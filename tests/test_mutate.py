"""Mutate-family conformance (set/append/remove/rename/case/trim/
split/join/sort/gsub/dot_expander/fingerprint/foreach/script)."""

import json
import os
import subprocess
import sys
import textwrap

from tests.util import run_pipeline


def test_set_literal_template_override():
    rows = run_pipeline(
        {"processors": [
            {"set": {"field": "a", "value": "x"}},
            {"set": {"field": "b", "value": "{{a}}-{{n}}"}},
            {"set": {"field": "a", "value": "y", "override": False}},
        ]},
        [{"n": 5}],
    )
    assert rows[0]["a"] == "x"       # override=false keeps existing
    assert rows[0]["b"] == "x-5"     # mustache render


def test_set_copy_from():
    rows = run_pipeline(
        {"processors": [{"set": {"field": "dst", "copy_from": "src"}}]},
        [{"src": [1, 2, 3]}],
    )
    assert rows[0]["dst"] == [1, 2, 3]


def test_append_promotes_scalar_to_list():  # spec:129-152
    rows = run_pipeline(
        {"processors": [{"append": {"field": "append_field", "value": ["integration", "test"]}}]},
        [{"append_field": "Append to me."}],
    )
    assert rows[0]["append_field"] == ["Append to me.", "integration", "test"]


def test_append_allow_duplicates_false():
    rows = run_pipeline(
        {"processors": [{"append": {"field": "f", "value": ["a"], "allow_duplicates": False}}]},
        [{"f": ["a", "b"]}],
    )
    assert rows[0]["f"] == ["a", "b"]


def test_remove_and_missing_failure():  # spec:695-725; SmokeTest.java:114-138
    rows = run_pipeline(
        {"processors": [{"remove": {"field": "gone"}}]},
        [{"gone": 1, "keep": 2}],
    )
    assert "gone" not in rows[0] and rows[0]["keep"] == 2
    rows = run_pipeline(
        {"processors": [{"remove": {"field": "required-field-to-remove"}}]},
        [{"keep": 2}],
    )
    assert "_ingest_pipeline_failure" in rows[0]["tags"]
    assert "required-field-to-remove" in rows[0]["__meta_failure_message"]


def test_rename():  # spec:728-751
    rows = run_pipeline(
        {"processors": [{"rename": {"field": "a", "target_field": "b"}}]},
        [{"a": "v"}],
    )
    assert rows[0]["b"] == "v" and "a" not in rows[0]


def test_case_and_trim_with_lists():  # spec:592-614, 885-929
    rows = run_pipeline(
        {"processors": [
            {"lowercase": {"field": "lo"}},
            {"uppercase": {"field": "up"}},
            {"trim": {"field": "tr"}},
        ]},
        [{"lo": ["ABC", "DeF"], "up": "hello", "tr": "  pad  "}],
    )
    assert rows[0]["lo"] == ["abc", "def"]
    assert rows[0]["up"] == "HELLO"
    assert rows[0]["tr"] == "pad"


def test_split_and_join():  # spec:861-882, 519-541
    rows = run_pipeline(
        {"processors": [{"split": {"field": "f", "separator": ","}}]},
        [{"f": "1,2,3,4,5,6,7,8"}],
    )
    assert rows[0]["f"] == ["1", "2", "3", "4", "5", "6", "7", "8"]
    rows = run_pipeline(
        {"processors": [{"join": {"field": "f", "separator": "-"}}]},
        [{"f": ["a", "b", "c"]}],
    )
    assert rows[0]["f"] == "a-b-c"


def test_split_then_sort_chain():  # spec:1178-1210 (multi-processor pipeline)
    rows = run_pipeline(
        {"processors": [
            {"split": {"field": "split_and_sort_field", "separator": ","}},
            {"sort": {"field": "split_and_sort_field", "order": "desc"}},
        ]},
        [{"split_and_sort_field": "1,3,8,2,4,5,6,7,8"}],
    )
    assert rows[0]["split_and_sort_field"] == ["8", "8", "7", "6", "5", "4", "3", "2", "1"]


def test_sort_list_desc():  # spec:838-858
    rows = run_pipeline(
        {"processors": [{"sort": {"field": "f", "order": "desc"}}]},
        [{"f": [3, 1, 2, 8, 4]}],
    )
    assert rows[0]["f"] == [8, 4, 3, 2, 1]


def test_gsub_elementwise_over_list():  # spec:471-494
    rows = run_pipeline(
        {"processors": [{"gsub": {"field": "f", "pattern": "//\\.", "replacement": "-"}}]},
        [{"f": ["kit//.ten", "dog//.gy", "elephant"]}],
    )
    assert rows[0]["f"] == ["kit-ten", "dog-gy", "elephant"]


def test_dot_expander_marks_path():  # spec:335-358
    rows = run_pipeline(
        {"processors": [{"dot_expander": {"field": "a.b"}}]},
        [{"a.b": 5}],
    )
    assert rows[0]["a.b"] == 5  # columnar layout: flat and nested coincide


def test_fingerprint_matches_reference_digest():  # spec:393-413 pinned value
    rows = run_pipeline(
        {"processors": [{"fingerprint": {"fields": ["animal"]}}]},
        [{"animal": {"name": "piggy", "age": 2, "color": "pink"}}],
    )
    assert rows[0]["fingerprint"] == "XqSwreW5FVPwjCF9pB7tzX6fQBs="


def test_fingerprint_deterministic():
    rows = run_pipeline(
        {"processors": [{"fingerprint": {"fields": ["x", "y"]}}]},
        [{"x": "a", "y": "b"}, {"x": "a", "y": "b"}, {"x": "a", "y": "c"}],
    )
    assert rows[0]["fingerprint"] == rows[1]["fingerprint"]
    assert rows[0]["fingerprint"] != rows[2]["fingerprint"]


def test_foreach_uppercase():  # spec:416-441
    rows = run_pipeline(
        {"processors": [{"foreach": {"field": "values", "processor": {
            "uppercase": {"field": "_ingest._value"}}}}]},
        [{"values": ["foo", "bar", "baz"]}],
    )
    assert rows[0]["values"] == ["FOO", "BAR", "BAZ"]


def test_script_expression_dsl():  # SmokeTest.java:240-265 (subset)
    rows = run_pipeline(
        {"processors": [{"script": {"source": "ctx.total = ctx.a + ctx.b * 2; ctx.name = ctx.tag + '!'"}}]},
        [{"a": 1, "b": 10, "tag": "hi"}],
    )
    assert rows[0]["total"] == 21
    assert rows[0]["name"] == "hi!"


def test_script_sets_index():  # spec:756-810: script sets _index in ctx
    rows = run_pipeline(
        {"processors": [{"script": {"source": "ctx['_index'] = 'my-index'"}}]},
        [{"a": 1}],
    )
    assert rows[0]["__meta_index"] == "my-index"


def test_script_params_substitution():  # spec:756-781
    rows = run_pipeline(
        {"processors": [{"script": {
            "lang": "painless",
            "source": "ctx['_index'] = ctx['lang'] + '-' + params['dataset'];",
            "params": {"dataset": "catalog"},
        }}]},
        [{"lang": "uz"}],
    )
    assert rows[0]["__meta_index"] == "uz-catalog"


def test_script_locals_and_processors_bytes():  # spec:784-810
    rows = run_pipeline(
        {"processors": [{"script": {
            "lang": "painless",
            "source": "long bytes = Processors.bytes(params['size']); ctx.size_in_bytes = bytes;",
            "params": {"size": "1kb"},
        }}]},
        [{"m": "x"}],
    )
    assert rows[0]["size_in_bytes"] == 1024


def test_script_unsupported_statement_fails_compile():
    import pytest

    from logstash_filter_elastic_integration_ray.functions import KernelCompileError, build_kernel

    # loops now compile — to the interpreter tier (round 2)
    k = build_kernel("script", {"source": "for (int i = 0; i < 10; i++) {}"})
    assert k.interp is not None
    # genuinely unparseable painless still fails compilation loudly
    with pytest.raises(KernelCompileError):
        build_kernel("script", {"source": "class Foo @@ not painless"})


def test_null_writes_keep_the_interpreter_alive():
    # a null write into a new column, or one with no value outside the
    # written rows, once reached ``replace_with_mask`` on Arrow's null
    # type, which aborts the interpreter under pyarrow 16; it runs in a
    # child process so such an abort fails this test, not the test run
    code = textwrap.dedent("""
        import json
        from tests.util import run_pipeline
        tool = "ctx.role == 'tool'"
        runs = [
            run_pipeline({"processors": [{"set": {"if": tool, "field": "x", "value": None}}]},
                         [{"role": "tool"}, {"role": "user"}]),
            run_pipeline({"processors": [{"remove": {"if": tool, "field": "x"}}]},
                         [{"role": "tool", "x": "a"}, {"role": "user"}]),
            run_pipeline({"processors": [{"rename": {"if": tool, "field": "a", "target_field": "b"}}]},
                         [{"role": "tool", "a": "v"}, {"role": "user"}]),
        ]
        print(json.dumps([[{k: v for k, v in r.items() if not k.startswith("__")} for r in rows]
                          for rows in runs]))
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert json.loads(out.stdout.splitlines()[-1]) == [
        [{"role": "tool"}, {"role": "user"}],
        [{"role": "tool"}, {"role": "user"}],
        [{"role": "tool", "b": "v"}, {"role": "user"}],
    ]
