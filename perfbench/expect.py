"""What the parse → route → enrich output of a job must hold.

``expected_summary`` works it out from the input rows alone, with plain
pyarrow and no call into the package, so a change that breaks parsing,
routing or enrichment cannot also move its own expectation.
``output_summary`` measures the same counts on one batch of a job's
output; a job's summary is the sum over its batches.

A summary is a flat ``{key: int}`` dict:

- ``rows``;
- ``index:<name>``: rows per final ``__meta_index`` (what ``fanout_write``
  writes per sink);
- ``nonnull:<column>``: rows where a parsed or routing-mark column is set;
- ``sum:<column>``: the sum of an integer column the parsers extract;
- ``integration:<value>``: rows per enriched ``integration`` value.

This module imports nothing from the benchmark or the package: the Ray
workers that run ``output_summary`` import it through ``PYTHONPATH``.
"""

from __future__ import annotations

import json
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc

#: the text classes of the generated inputs: a full-match pattern each,
#: with named groups for the integers the parsers must extract, and the
#: columns a parsed row of that class carries
TEXT_CLASSES = {
    "access": (
        r'^10\.\d+\.\d+\.\d+ - - "GET /\S+ HTTP/1\.1" (?P<status_code>\d+) \d+$',
        ["clientip", "ident", "auth", "verb", "path", "httpversion", "status_code", "resp_bytes"],
    ),
    "kv": (r"^ip=10\.\S+ code=\d+ user=u\d+$", ["ip", "code", "user"]),
    "csv": (
        r"^u\d+,u\d+@example\.com,555-\d{4},Addr \d+ Main St$",
        ["contact_name", "contact_email", "contact_phone", "contact_addr"],
    ),
    "json": (r'^\{"foo": (?P<payload_foo>\d+), "bar": "b\d"\}$', ["payload.foo", "payload.bar"]),
    "html": (r"^<h1>Report \d+</h1> <p>value=\d+</p>$", ["plain_text"]),
    "web": (
        r"^GET https://\S+ Mozilla/5\.0 .+$",
        ["verb", "url_original", "ua_string", "url.scheme", "url.domain", "url.path", "url.query",
         "user_agent.name", "user_agent.original"],
    ),
    "toolcall": (
        r"^[a-z]+\(k=(?P<k>\d+)\) status=(?P<status>\d+) took=(?P<took_ms>\d+)ms size=(?P<size_kb>\d+)kb$",
        ["tool_name", "k", "status", "took_ms", "size_str", "size_bytes"],
    ),
}

#: the columns ``nonnull:`` counts: every parsed column, plus the marks
#: the error pipeline (``error_handled``) and the alerts pipeline
#: (``alert``) set
NONNULL_COLUMNS = sorted({c for _, cols in TEXT_CLASSES.values() for c in cols} | {"error_handled", "alert"})
#: pattern group → (the integer column ``sum:`` adds up, its value per unit)
SUMS = {
    "k": ("k", 1),
    "status": ("status", 1),
    "took_ms": ("took_ms", 1),
    "size_kb": ("size_bytes", 1024),
    "status_code": ("status_code", 1),
    "payload_foo": ("payload.foo", 1),
}


def _count(mask) -> int:
    return pc.sum(pc.fill_null(mask, False).cast(pa.int64())).as_py() or 0


def _value_counts(column, prefix: str) -> dict[str, int]:
    return {prefix + r["values"]: r["counts"] for r in pc.value_counts(column).to_pylist()}


def expected_summary(table: pa.Table) -> dict[str, int]:
    """The summary of a correct job over ``table``'s rows.

    Routing: the dataset is the turn's ``tool``, ``app`` when it has none;
    an ``error`` tool call with status 404 is rerouted to ``alerts``, which
    sets ``alert`` and skips the rest of the error pipeline (so no
    ``error_handled``).  Enrichment: every turn's integration is
    ``integration-<tool>``, ``integration-core`` when it has no tool."""
    text = table["text"]
    out: Counter = Counter(rows=table.num_rows)
    for pattern, columns in TEXT_CLASSES.values():
        hit = pc.match_substring_regex(text, pattern)
        n = _count(hit)
        for c in columns:
            out["nonnull:" + c] += n
        if "(?P<" in pattern and n:
            parts = pc.extract_regex(text.filter(hit), pattern)
            for field in parts.type:
                column, unit = SUMS[field.name]
                values = pc.cast(pc.struct_field(parts, field.name), pa.int64())
                out["sum:" + column] += (pc.sum(values).as_py() or 0) * unit
    toolcall = pc.extract_regex(text, TEXT_CLASSES["toolcall"][0])
    is_error = pc.fill_null(pc.equal(table["tool"], "error"), False)
    rerouted = pc.and_(is_error, pc.fill_null(pc.equal(pc.struct_field(toolcall, "status"), "404"), False))
    index = pc.binary_join_element_wise("logs", pc.fill_null(table["tool"], "app"), "prod", "-")
    index = pc.if_else(rerouted, "logs-alerts-prod", index)
    out.update(_value_counts(index, "index:"))
    out["nonnull:alert"] += _count(rerouted)
    out["nonnull:error_handled"] += _count(is_error) - _count(rerouted)
    out.update(_value_counts(pc.binary_join_element_wise("integration", pc.fill_null(table["tool"], "core"), "-"),
                             "integration:"))
    return {k: v for k, v in sorted(out.items()) if v}


def output_summary(batch: pa.Table) -> pa.Table:
    """One batch of a job's parsed, routed and enriched output → a one-row
    table holding its summary as JSON (a ``map_batches`` function)."""
    out: Counter = Counter(rows=batch.num_rows)
    cols = set(batch.column_names)
    for c in NONNULL_COLUMNS:
        if c in cols:
            out["nonnull:" + c] += batch.num_rows - batch[c].null_count
    for c, _ in SUMS.values():
        if c in cols:
            out["sum:" + c] += pc.sum(batch[c]).as_py() or 0
    for col, prefix in (("__meta_index", "index:"), ("integration", "integration:")):
        if col in cols:
            out.update(_value_counts(pc.fill_null(batch[col], "null"), prefix))
    return pa.table({"summary": [json.dumps(out)]})


def sink_counts(summary: dict[str, int]) -> dict[str, int]:
    """Rows per ``fanout_write`` sink, from a summary's ``index:`` keys."""
    return {k[len("index:"):]: v for k, v in summary.items() if k.startswith("index:")}


def add_summaries(tables) -> dict[str, int]:
    """The job's summary: the sum of its batches' ``output_summary`` rows."""
    total: Counter = Counter()
    for t in tables:
        for s in t["summary"].to_pylist():
            total.update(json.loads(s))
    return {k: v for k, v in sorted(total.items()) if v}
