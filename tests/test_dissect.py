"""Dissect conformance (reference spec:303-333 + dissect modifier
semantics)."""

from tests.util import run_pipeline

NGINX = '1.2.3.4 - - [01/Apr/2023:22:00:52 +0000] "GET /path/to/some/resources/test.gif HTTP/1.0" 200 3171'
PATTERN = '%{clientip} %{ident} %{auth} [%{@timestamp}] "%{verb} %{request} HTTP/%{httpversion}" %{status} %{size}'


def test_dissect_nginx_with_reserved_field_collision():
    rows = run_pipeline(
        {"processors": [{"dissect": {"field": "dissect_field", "pattern": PATTERN}}]},
        [{"dissect_field": NGINX}],
    )
    r = rows[0]
    assert r["clientip"] == "1.2.3.4"
    assert r["ident"] == "-" and r["auth"] == "-"
    assert r["verb"] == "GET"
    assert r["request"] == "/path/to/some/resources/test.gif"
    assert r["httpversion"] == "1.0"
    assert r["status"] == "200"  # dissect outputs are all strings
    assert r["size"] == "3171"
    # the captured @timestamp is not timestamp-coercible → moved to _@timestamp
    # (IngestDuplexMarshaller.java:395-413; spec:323)
    assert r["_@timestamp"] == "01/Apr/2023:22:00:52 +0000"


def test_dissect_no_match_fails_row():
    rows = run_pipeline(
        {"processors": [{"dissect": {"field": "f", "pattern": "%{a}:%{b}"}}]},
        [{"f": "no-colon-here"}],
    )
    assert "_ingest_pipeline_failure" in rows[0]["tags"]


def test_dissect_skip_and_named_skip():
    rows = run_pipeline(
        {"processors": [{"dissect": {"field": "f", "pattern": "%{}-%{?junk}-%{keep}"}}]},
        [{"f": "a-b-c"}],
    )
    assert rows[0]["keep"] == "c"
    assert "junk" not in rows[0]


def test_dissect_append_modifier():
    rows = run_pipeline(
        {"processors": [{"dissect": {"field": "f", "pattern": "%{+name} %{+name}", "append_separator": " "}}]},
        [{"f": "john smith"}],
    )
    assert rows[0]["name"] == "john smith"


def test_dissect_append_with_order():
    rows = run_pipeline(
        {"processors": [{"dissect": {"field": "f", "pattern": "%{+name/2} %{+name/1}", "append_separator": ","}}]},
        [{"f": "smith john"}],
    )
    assert rows[0]["name"] == "john,smith"


def test_dissect_right_padding():
    rows = run_pipeline(
        {"processors": [{"dissect": {"field": "f", "pattern": "%{a->} %{b}"}}]},
        [{"f": "x     y"}],
    )
    assert rows[0]["a"] == "x" and rows[0]["b"] == "y"


def test_dissect_reference_keys():
    rows = run_pipeline(
        {"processors": [{"dissect": {"field": "f", "pattern": "%{*k1}=%{&k1}"}}]},
        [{"f": "color=red"}],
    )
    assert rows[0]["color"] == "red"


# the RE2 path equals DissectPattern.match, row by row (values, types,
# column order, failures), on generated near-miss strings
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tests.util import assert_same_as_per_row, rows_of  # noqa: E402

PATTERNS = [
    '%{clientip} %{ident} %{auth} "%{verb} %{path} HTTP/%{httpversion}" %{status_code} %{resp_bytes}',
    "%{a} %{b}",
    "[%{a}] %{b}!",
    "%{}-%{?junk}-%{keep}",
    "%{a->} %{b}",
    "%{a->}ab%{b}aba%{c}",
    "x%{a->}--%{b->}-%{c}",
    "%{+name/2} %{+name/1} %{other}",
    "%{+a} %{b} %{+a}",
    "%{a} %{a}:%{b}",
    "<%{a}>\n%{b}",
    "%{*k}=%{&k} %{rest}",
]
DISSECT_TOKENS = [" ", "  ", '"', "[", "]", "-", "--", "!", "<", ">", "\n", ":", "=", "ab", "aba",
                  "x", "HTTP/", "1.1", "GET", "é", "10.0.0.1"]


@settings(max_examples=300, deadline=None)
@given(rows=rows_of(DISSECT_TOKENS), pattern=st.sampled_from(PATTERNS), sep=st.sampled_from(["", " ", ","]),
       some=st.booleans(), miss=st.booleans())
def test_dissect_arrow_equals_match(rows, pattern, sep, some, miss):
    proc = {"dissect": {"field": "f", "pattern": pattern, "append_separator": sep, "ignore_missing": miss,
                        **({"if": "ctx.sel == 1"} if some else {})}}
    assert_same_as_per_row(proc, rows, lambda k: lambda s: k.pattern.match(s, k.append_sep))


PAD_PATTERNS = ["%{a}-%{b->}--x%{c}", "%{a->}-%{b}--x%{c}", "%{a}ab%{b->}ba%{c}", "%{a->}ab%{b}aba%{c}",
                "x%{a->}--%{b->}-%{c}", "%{a->}abab%{b}abX%{c}"]


@settings(max_examples=300, deadline=None)
@given(rows=rows_of(["a", "b", "-", "--", "ab", "aba", "ba", "x", "--x", "abab", "X"]),
       pattern=st.sampled_from(PAD_PATTERNS))
def test_dissect_pad_arrow_equals_match(rows, pattern):
    assert_same_as_per_row({"dissect": {"field": "f", "pattern": pattern}}, rows,
                           lambda k: lambda s: k.pattern.match(s, k.append_sep))


def test_dissect_pad_backtracking_fails_like_find():
    # the regex could match "a---x" by giving the pad run one "-" less;
    # str.find takes the whole run and then finds no "--x"
    rows = [{"f": "a---x"}, {"f": "a-b--x"}, {"f": "zababq"}]
    for pattern in ("%{a}-%{b->}--x%{c}", "%{a->}-%{b}--x%{c}", "%{a}ab%{b->}ba%{c}"):
        assert_same_as_per_row({"dissect": {"field": "f", "pattern": pattern}}, rows,
                               lambda k: lambda s: k.pattern.match(s, k.append_sep))
