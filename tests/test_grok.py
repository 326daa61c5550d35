"""Grok + redact conformance (reference spec:444-469, :640-666)."""

from tests.util import run_pipeline


def test_grok_basic_typed_extraction():
    # spec:444-469 — client/method/request extracted; bytes int; duration double
    rows = run_pipeline(
        {"processors": [{"grok": {"field": "message", "patterns": [
            "%{IP:client} %{WORD:method} %{URIPATHPARAM:request} %{NUMBER:bytes:int} %{NUMBER:duration:double}"
        ]}}]},
        [{"message": "55.3.244.1 GET /index.html 15824 0.043"}],
    )
    r = rows[0]
    assert r["client"] == "55.3.244.1"
    assert r["method"] == "GET"
    assert r["request"] == "/index.html"
    assert r["bytes"] == 15824 and isinstance(r["bytes"], int)
    assert abs(r["duration"] - 0.043) < 1e-12


def test_grok_first_matching_pattern_wins():
    rows = run_pipeline(
        {"processors": [{"grok": {"field": "m", "patterns": [
            "^num=%{NUMBER:val:int}$", "^word=%{WORD:wval}$"]}}]},
        [{"m": "num=7"}, {"m": "word=hello"}],
    )
    assert rows[0]["val"] == 7 and "wval" not in rows[0]
    assert rows[1]["wval"] == "hello" and "val" not in rows[1]


def test_grok_no_match_fails_row_and_passes_original():
    rows = run_pipeline(
        {"processors": [{"grok": {"field": "m", "patterns": ["%{IP:client}"]}}]},
        [{"m": "no ip here"}],
    )
    assert rows[0]["m"] == "no ip here"
    assert "_ingest_pipeline_failure" in rows[0]["tags"]
    assert "Grok" in rows[0]["__meta_failure_message"]


def test_grok_missing_field():
    rows = run_pipeline(
        {"processors": [{"grok": {"field": "absent", "patterns": ["%{WORD:w}"]}}]},
        [{"m": "x"}],
    )
    assert "_ingest_pipeline_failure" in rows[0]["tags"]
    rows = run_pipeline(
        {"processors": [{"grok": {"field": "absent", "patterns": ["%{WORD:w}"], "ignore_missing": True}}]},
        [{"m": "x"}],
    )
    assert "tags" not in rows[0]


def test_grok_pattern_definitions_and_oniguruma_names():
    rows = run_pipeline(
        {"processors": [{"grok": {"field": "m",
                                  "patterns": ["%{MYID:the_id} (?<rest>.*)"],
                                  "pattern_definitions": {"MYID": "id-[0-9]+"}}}]},
        [{"m": "id-42 trailing stuff"}],
    )
    assert rows[0]["the_id"] == "id-42"
    assert rows[0]["rest"] == "trailing stuff"


def test_redact_masks_ip_and_email():
    # spec:640-666
    rows = run_pipeline(
        {"processors": [{"redact": {"field": "message", "patterns": [
            "%{IP:REDACTED-IP}", "%{EMAILADDRESS:REDACTED-EMAIL}"],
            "prefix": "[", "suffix": "]"}}]},
        [{"message": "55.3.244.1 GET /index.html 15824 0.043 test@elastic.co"}],
    )
    assert rows[0]["message"] == "[REDACTED-IP] GET /index.html 15824 0.043 [REDACTED-EMAIL]"


def test_redact_default_wrappers():
    rows = run_pipeline(
        {"processors": [{"redact": {"field": "m", "patterns": ["%{IPV4:ip}"]}}]},
        [{"m": "from 1.2.3.4 ok"}],
    )
    assert rows[0]["m"] == "from <ip> ok"


def test_watchdog_bounds_catastrophic_fallback_pattern():
    # the reference registers a 1 s matcher watchdog
    # (EventProcessorBuilder.java:224-225); the Python-re fallback gets
    # the SIGALRM analogue.  The lookahead forces the RE2 fast path to
    # reject the pattern (fallback engages); (a+)+b then backtracks
    # exponentially on an almost-matching input.
    import time

    from tests.util import run_pipeline

    rows = [{"text": "a" * 28 + "c"}, {"text": "ab"}]
    t0 = time.time()
    out = run_pipeline(
        {"processors": [{"grok": {
            "field": "text",
            "patterns": [r"^(?=a)(a+)+b$"],
            "watchdog_seconds": 0.2,
        }}]},
        rows,
    )
    elapsed = time.time() - t0
    assert elapsed < 5.0  # unbounded backtracking would take minutes
    assert out[0].get("tags") == ["_ingest_pipeline_failure"]  # timed-out row fails
    assert "tags" not in out[1]  # the matching row still matches


class TestUpstreamCoreBank:
    """Round-4 bank completion: the remaining upstream core patterns
    (public logstash-patterns-core grok-patterns file)."""

    def _run(self, pat, line):
        import pyarrow as pa

        from logstash_filter_elastic_integration_ray.functions.grok import (
            compile_grok_exprs, match_patterns,
        )

        matched, fields = match_patterns(pa.array([line]), compile_grok_exprs([pat]))
        values = {k: (v.to_pylist() if isinstance(v, pa.Array) else v)[0] for k, (_, v) in fields.items()}
        return bool(matched[0]), {k: v for k, v in values.items() if v != ""}

    def test_combined_apache_log(self):
        ok, f = self._run(
            "%{COMBINEDAPACHELOG}",
            '10.0.0.9 - alice [10/Oct/2000:13:55:36 -0700] "POST /api/v1 HTTP/1.1"'
            ' 201 77 "http://ref.example/x" "curl/8.0"')
        assert ok
        assert f["clientip"] == "10.0.0.9"
        assert f["auth"] == "alice"
        assert f["verb"] == "POST" and f["request"] == "/api/v1"
        assert f["response"] == "201" and f["bytes"] == "77"
        assert f["referrer"] == '"http://ref.example/x"'
        assert f["agent"] == '"curl/8.0"'

    def test_syslogbase_prog_facility(self):
        ok, f = self._run("%{SYSLOGBASE} %{GREEDYDATA:msg}",
                          "Aug  9 07:00:00 <13.5> web1 sshd[999]: accepted")
        assert ok
        assert f["logsource"] == "web1"
        assert f["process.name"] == "sshd" and f["process.pid"] == "999"
        assert f["log.syslog.facility.code"] == "13"
        assert f["msg"] == "accepted"

    def test_httpd24_errorlog(self):
        ok, f = self._run(
            "%{HTTPD24_ERRORLOG}",
            "[Fri Sep 09 10:42:29 2011] [core:error] [pid 35708:tid 4328636416]"
            " [client 72.15.99.187:12345] File does not exist: /favicon.ico")
        assert ok
        assert f["module"] == "core" and f["loglevel"] == "error"
        assert f["pid"] == "35708" and f["clientport"] == "12345"

    def test_datestamps_macs_urn(self):
        for pat, line in [
            ("%{DATESTAMP_RFC822}", "Tue Aug 19 2026 17:00:00 PST"),
            ("%{DATESTAMP_RFC2822}", "Tue, 19 Aug 2026 17:00:00 +02:00"),
            ("%{DATESTAMP_OTHER}", "Tue Aug 19 17:00:00 UTC 2026"),
            ("%{DATESTAMP_EVENTLOG}", "20260819170000"),
            ("%{CISCOMAC}", "0123.4567.89ab"),
            ("%{WINDOWSMAC}", "01-23-45-67-89-ab"),
            ("%{COMMONMAC}", "01:23:45:67:89:ab"),
            ("%{URN}", "urn:ietf:rfc:2648"),
            ("%{BASE16FLOAT}", "0x1f.8"),
        ]:
            ok, _ = self._run(pat, line)
            assert ok, pat

    def test_bank_is_self_consistent(self):
        # every %{REF} inside the bank resolves (compile the whole bank)
        from logstash_filter_elastic_integration_ray.functions.grok import (
            GROK_PATTERNS, compile_grok_exprs,
        )

        for name in GROK_PATTERNS:
            compile_grok_exprs(["%{" + name + "}"])


def test_grok_optional_typed_group_absent_and_batch_invariant():
    """A group outside the match leaves its field absent (RE2 reports
    it as ""), so a row's typed capture does not depend on which rows
    share its batch."""
    pipe = {"processors": [{"grok": {"field": "m", "patterns": [r"^%{WORD:a}(?: %{INT:b:int})?$"]}}]}
    alone = run_pipeline(pipe, [{"m": "foo 12"}])
    batched = run_pipeline(pipe, [{"m": "foo"}, {"m": "foo 12"}])
    assert alone[0]["b"] == 12 and isinstance(alone[0]["b"], int)
    assert batched[1] == alone[0]
    assert "b" not in batched[0] and batched[0]["a"] == "foo"
    # a participating empty capture is still captured
    empty = run_pipeline(
        {"processors": [{"grok": {"field": "m", "patterns": [r"^x=(?<v>[a-z]*);$"]}}]},
        [{"m": "x=;"}])
    assert empty[0]["v"] == ""
