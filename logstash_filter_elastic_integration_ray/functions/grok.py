"""Grok: pattern-bank regex extraction, compiled to vectorized kernels.

Reference semantics: the ``grok`` processor matches a list of patterns
against one field, first match wins, named captures become fields with
optional type coercion (``%{NUMBER:bytes:int}``); no match → processor
failure.  Conformance target:
``/root/reference/spec/integration/elastic_integration_spec.rb:444-469``
(extracts ``client``/``method``/``request``, ``bytes→15824`` int,
``duration→0.043`` double).  ``redact`` reuses the grok bank for masking
(``spec:640-666``).

Execution strategy (Ray-Data-first, NOT the reference's per-event Java
matcher): each grok expression expands once at compile time into a flat
regex; per batch ``pyarrow.compute.extract_regex`` (RE2, C++) runs over
the Arrow string array of the masked rows only (``col.filter(mask)``),
each later expression over the rows no earlier one matched.  Typed
captures (``int``/``long``/``float``/``double``/``boolean``) are cast in
Arrow and each field is scattered into the batch once; no capture turns
into a Python object unless a cast fails.  RE2 reports ``""`` both for
an empty capture and for an optional group that took no part in the
match, so rows with a ``""`` capture are re-checked with the Python
regex and a non-participating group leaves its field absent, as Python
``re`` and Elasticsearch do.  Python ``re`` runs the whole match, on
the masked rows only, when RE2 rejects the pattern.  The pattern bank
below is the public common grok pattern set, simplified where the
canonical definitions use non-RE2 constructs (atomic groups /
lookbehind) so the RE2 fast path stays available.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..model import ColumnBatch
from .base import Kernel, KernelCompileError, register_processor, string_rows

# --------------------------------------------------------------------------
# Pattern bank (public grok patterns; RE2-compatible simplifications)
# --------------------------------------------------------------------------
GROK_PATTERNS: dict[str, str] = {
    "USERNAME": r"[a-zA-Z0-9._-]+",
    "USER": r"%{USERNAME}",
    "EMAILLOCALPART": r"[a-zA-Z][a-zA-Z0-9_.+\-=:]+",
    "EMAILADDRESS": r"%{EMAILLOCALPART}@%{HOSTNAME}",
    "INT": r"[+-]?[0-9]+",
    "BASE10NUM": r"[+-]?(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)",
    "NUMBER": r"%{BASE10NUM}",
    "BASE16NUM": r"(?:0[xX])?[0-9a-fA-F]+",
    "POSINT": r"\b[1-9][0-9]*\b",
    "NONNEGINT": r"\b[0-9]+\b",
    "WORD": r"\b\w+\b",
    "NOTSPACE": r"\S+",
    "SPACE": r"\s*",
    "DATA": r".*?",
    "GREEDYDATA": r".*",
    "QUOTEDSTRING": r"(?:\"[^\"]*\"|'[^']*')",
    "QS": r"%{QUOTEDSTRING}",
    "UUID": r"[A-Fa-f0-9]{8}-(?:[A-Fa-f0-9]{4}-){3}[A-Fa-f0-9]{12}",
    "MAC": r"(?:[A-Fa-f0-9]{2}[:-]){5}[A-Fa-f0-9]{2}",
    "IPV4": r"\b(?:(?:25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)\.){3}(?:25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)\b",
    "IPV6": r"(?:[A-Fa-f0-9]{1,4}:){2,7}(?::|[A-Fa-f0-9]{1,4})",
    "IP": r"(?:%{IPV6}|%{IPV4})",
    "HOSTNAME": r"\b[0-9A-Za-z][0-9A-Za-z-]{0,62}(?:\.[0-9A-Za-z][0-9A-Za-z-]{0,62})*\b",
    "IPORHOST": r"(?:%{IP}|%{HOSTNAME})",
    "HOSTPORT": r"%{IPORHOST}:%{POSINT}",
    "UNIXPATH": r"(?:/[\w_%!$@:.,+~-]*)+",
    "WINPATH": r"(?:[A-Za-z]:|\\)(?:\\[^\\?*]*)+",
    "PATH": r"(?:%{UNIXPATH}|%{WINPATH})",
    "TTY": r"/dev/(?:pts|tty(?:[pq])?)(?:\w+)?/?(?:[0-9]+)",
    "URIPROTO": r"[A-Za-z]+(?:\+[A-Za-z+]+)?",
    "URIHOST": r"%{IPORHOST}(?::%{POSINT})?",
    "URIPATH": r"(?:/[A-Za-z0-9$.+!*'(){},~:;=@#%&_\-]*)+",
    "URIPARAM": r"\?[A-Za-z0-9$.+!*'|(){},~@#%&/=:;_?\-\[\]<>]*",
    "URIPATHPARAM": r"%{URIPATH}(?:%{URIPARAM})?",
    "URI": r"%{URIPROTO}://(?:%{USER}(?::[^@]*)?@)?(?:%{URIHOST})?(?:%{URIPATHPARAM})?",
    "MONTH": r"\b(?:Jan(?:uary)?|Feb(?:ruary)?|Mar(?:ch)?|Apr(?:il)?|May|Jun(?:e)?|Jul(?:y)?|Aug(?:ust)?|Sep(?:tember)?|Oct(?:ober)?|Nov(?:ember)?|Dec(?:ember)?)\b",
    "MONTHNUM": r"(?:0?[1-9]|1[0-2])",
    "MONTHNUM2": r"(?:0[1-9]|1[0-2])",
    "MONTHDAY": r"(?:0[1-9]|[12][0-9]|3[01]|[1-9])",
    "DAY": r"(?:Mon(?:day)?|Tue(?:sday)?|Wed(?:nesday)?|Thu(?:rsday)?|Fri(?:day)?|Sat(?:urday)?|Sun(?:day)?)",
    "YEAR": r"(?:\d\d){1,2}",
    "HOUR": r"(?:2[0123]|[01]?[0-9])",
    "MINUTE": r"(?:[0-5][0-9])",
    "SECOND": r"(?:[0-5]?[0-9]|60)(?:[:.,][0-9]+)?",
    "TIME": r"%{HOUR}:%{MINUTE}(?::%{SECOND})?",
    "DATE_US": r"%{MONTHNUM}[/-]%{MONTHDAY}[/-]%{YEAR}",
    "DATE_EU": r"%{MONTHDAY}[./-]%{MONTHNUM}[./-]%{YEAR}",
    "ISO8601_TIMEZONE": r"(?:Z|[+-]%{HOUR}(?::?%{MINUTE}))",
    "ISO8601_SECOND": r"%{SECOND}",
    "TIMESTAMP_ISO8601": r"%{YEAR}-%{MONTHNUM}-%{MONTHDAY}[T ]%{HOUR}:?%{MINUTE}(?::?%{SECOND})?%{ISO8601_TIMEZONE}?",
    "DATE": r"(?:%{DATE_US}|%{DATE_EU})",
    "DATESTAMP": r"%{DATE}[- ]%{TIME}",
    "HTTPDATE": r"%{MONTHDAY}/%{MONTH}/%{YEAR}:%{TIME} %{INT}",
    "SYSLOGTIMESTAMP": r"%{MONTH} +%{MONTHDAY} %{TIME}",
    "LOGLEVEL": r"(?:[Aa]lert|ALERT|[Tt]race|TRACE|[Dd]ebug|DEBUG|[Nn]otice|NOTICE|[Ii]nfo(?:rmation)?|INFO(?:RMATION)?|[Ww]arn(?:ing)?|WARN(?:ING)?|[Ee]rr(?:or)?|ERR(?:OR)?|[Cc]rit(?:ical)?|CRIT(?:ICAL)?|[Ff]atal|FATAL|[Ss]evere|SEVERE|EMERG(?:ENCY)?|[Ee]merg(?:ency)?)",
    # ---- remaining upstream core bank (public logstash-patterns-core
    # grok-patterns file; RE2-compatible forms) ----
    "BASE16FLOAT": r"\b(?:0[xX])?(?:[0-9A-Fa-f]+(?:\.[0-9A-Fa-f]*)?|\.[0-9A-Fa-f]+)\b",
    "URN": r"urn:[0-9A-Za-z][0-9A-Za-z-]{0,31}:(?:%[0-9a-fA-F]{2}|[0-9A-Za-z()+,.:=@;$_!*'/?#-])+",
    "CISCOMAC": r"(?:[A-Fa-f0-9]{4}\.){2}[A-Fa-f0-9]{4}",
    "WINDOWSMAC": r"(?:[A-Fa-f0-9]{2}-){5}[A-Fa-f0-9]{2}",
    "COMMONMAC": r"(?:[A-Fa-f0-9]{2}:){5}[A-Fa-f0-9]{2}",
    "TZ": r"(?:[APMCE][SD]T|UTC)",
    "DATESTAMP_RFC822": r"%{DAY} %{MONTH} %{MONTHDAY} %{YEAR} %{TIME} %{TZ}",
    "DATESTAMP_RFC2822": r"%{DAY}, %{MONTHDAY} %{MONTH} %{YEAR} %{TIME} %{ISO8601_TIMEZONE}",
    "DATESTAMP_OTHER": r"%{DAY} %{MONTH} %{MONTHDAY} %{TIME} %{TZ} %{YEAR}",
    "DATESTAMP_EVENTLOG": r"%{YEAR}%{MONTHNUM2}%{MONTHDAY}%{HOUR}%{MINUTE}%{SECOND}",
    "PROG": r"[\x21-\x5a\x5c\x5e-\x7e]+",
    "SYSLOGPROG": r"%{PROG:process.name}(?:\[%{POSINT:process.pid}\])?",
    "SYSLOGHOST": r"%{IPORHOST}",
    "SYSLOGFACILITY": r"<%{NONNEGINT:log.syslog.facility.code}.%{NONNEGINT:log.syslog.priority}>",
    "SYSLOGBASE": r"%{SYSLOGTIMESTAMP:timestamp} (?:%{SYSLOGFACILITY} )?%{SYSLOGHOST:logsource} %{SYSLOGPROG}:",
    "HTTPDUSER": r"%{EMAILADDRESS}|%{USER}",
    "HTTPDERROR_DATE": r"%{DAY} %{MONTH} %{MONTHDAY} %{TIME} %{YEAR}",
    "HTTPD_COMMONLOG": (
        r"%{IPORHOST:clientip} %{HTTPDUSER:ident} %{HTTPDUSER:auth} "
        r"\[%{HTTPDATE:timestamp}\] \"(?:%{WORD:verb} %{NOTSPACE:request}"
        r"(?: HTTP/%{NUMBER:httpversion})?|%{DATA:rawrequest})\" "
        r"%{NUMBER:response} (?:%{NUMBER:bytes}|-)"
    ),
    "COMMONAPACHELOG": r"%{HTTPD_COMMONLOG}",
    "HTTPD_COMBINEDLOG": r"%{HTTPD_COMMONLOG} %{QS:referrer} %{QS:agent}",
    "COMBINEDAPACHELOG": r"%{HTTPD_COMBINEDLOG}",
    "HTTPD20_ERRORLOG": (
        r"\[%{HTTPDERROR_DATE:timestamp}\] \[%{LOGLEVEL:loglevel}\] "
        r"(?:\[client %{IPORHOST:clientip}\] )?%{GREEDYDATA:message}"
    ),
    "HTTPD24_ERRORLOG": (
        r"\[%{HTTPDERROR_DATE:timestamp}\] \[(?:%{WORD:module}:)?"
        r"%{LOGLEVEL:loglevel}\] \[pid %{POSINT:pid}(?::tid %{NUMBER:tid})?\]"
        r"(?: \(%{POSINT:proxy_errorcode}\)%{DATA:proxy_message}:)?"
        r"(?: \[client %{IPORHOST:clientip}:%{POSINT:clientport}\])?"
        r"(?: %{DATA:errorcode}:)? %{GREEDYDATA:message}"
    ),
    "HTTPD_ERRORLOG": r"%{HTTPD20_ERRORLOG}|%{HTTPD24_ERRORLOG}",
}

_GROK_REF = re.compile(r"%\{(\w+)(?::([^:}]+))?(?::(\w+))?\}")
_ONIG_NAMED = re.compile(r"\(\?<([A-Za-z][A-Za-z0-9_.\[\]@]*)>")
_BRACKET_PATH = re.compile(r"\[([^\]]+)\]")


def _normalize_field_path(name: str) -> str:
    """``[a][b]`` → ``a.b``; dotted names pass through."""
    if name.startswith("["):
        return ".".join(_BRACKET_PATH.findall(name))
    return name


class GrokExpr:
    """One compiled grok expression: flat regex + capture → (field, type)."""

    def __init__(self, pattern: str, bank: dict[str, str]):
        self.source = pattern
        self.captures: list[tuple[str, str, str | None]] = []  # (group, field, type)
        self._counter = 0
        regex = self._expand(pattern, bank, depth=0)
        self.regex_str = regex
        try:
            self.py = re.compile(regex)
        except re.error as e:
            raise KernelCompileError(f"invalid grok pattern {pattern!r}: {e}") from e

    def _gname(self) -> str:
        self._counter += 1
        return f"g{self._counter}"

    def _expand(self, pattern: str, bank: dict[str, str], depth: int) -> str:
        if depth > 20:
            raise KernelCompileError(f"grok pattern recursion too deep in {self.source!r}")

        # translate oniguruma named groups (?<name>...) -> unique python groups
        def onig_sub(m: re.Match) -> str:
            field = _normalize_field_path(m.group(1))
            g = self._gname()
            self.captures.append((g, field, None))
            return f"(?P<{g}>"

        pattern = _ONIG_NAMED.sub(onig_sub, pattern)

        def ref_sub(m: re.Match) -> str:
            name, field, ftype = m.group(1), m.group(2), m.group(3)
            if name not in bank:
                raise KernelCompileError(f"unknown grok pattern %{{{name}}}")
            inner = self._expand(bank[name], bank, depth + 1)
            if field is None:
                return f"(?:{inner})"
            g = self._gname()
            self.captures.append((g, _normalize_field_path(field), ftype))
            return f"(?P<{g}>{inner})"

        return _GROK_REF.sub(ref_sub, pattern)


_TYPE_CASTS = {
    "int": int,
    "long": int,
    "float": float,
    "double": float,
    "boolean": lambda v: v.lower() == "true",
    "string": str,
}
_ARROW_CASTS = {"int": pa.int64(), "long": pa.int64(), "float": pa.float64(), "double": pa.float64()}


def _coerce(value: str | None, ftype: str | None):
    if value is None or ftype is None:
        return value
    cast = _TYPE_CASTS.get(ftype)
    if cast is None:
        return value
    try:
        return cast(value)
    except (ValueError, TypeError):
        return value


def _coerce_array(col: pa.Array, ftype: str | None) -> pa.Array | list:
    """``_coerce`` over a string array, in Arrow.  A value Arrow cannot
    cast (``+5``, ``1_000``, an overflow) sends the array through
    ``_coerce`` per value, which keeps such a value a string."""
    if ftype == "boolean":
        return pc.equal(pc.utf8_lower(col), "true")
    target = _ARROW_CASTS.get(ftype)
    if target is None:
        return col
    try:
        return col.cast(target)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        return [_coerce(v, ftype) for v in col.to_pylist()]


def _field_groups(expr: "GrokExpr") -> dict[str, list[tuple[str, str | None]]]:
    """field → its ``(group, type)`` captures, in capture order."""
    out: dict[str, list[tuple[str, str | None]]] = {}
    for g, f, t in expr.captures:
        out.setdefault(f, []).append((g, t))
    return out


def match_patterns(
    values: pa.Array, exprs: list[GrokExpr], watchdog_seconds: float = 1.0
) -> tuple[np.ndarray, dict[str, tuple[np.ndarray, pa.Array | list]]]:
    """Match a list of compiled grok expressions against a string array
    with no nulls.

    First-matching-expression-wins per row.  Returns ``(matched mask,
    {field: (rows, values)})``: ``rows`` are the ascending positions in
    ``values`` where the field was captured, ``values`` the typed
    captures there (an Arrow array, or a list when a cast kept strings
    or the expressions disagree on the type).  Fields come in the order
    the expressions name them.
    """
    n = len(values)
    matched = np.zeros(n, dtype=bool)
    pieces: dict[str, list] = {f: [] for e in exprs for _, f, _ in e.captures}
    for expr in exprs:
        pending = np.flatnonzero(~matched)
        if len(pending) == 0:
            break
        sub = values if len(pending) == n else values.filter(pa.array(~matched))
        hit, caps = _match_one(sub, expr, watchdog_seconds)
        rows = pending[hit]
        matched[rows] = True
        for f, col in caps.items():
            if isinstance(col, pa.Array):
                keep = np.asarray(pc.is_valid(col))
                pieces[f].append((rows[keep], col.filter(pa.array(keep))))
            else:
                keep = np.array([v is not None for v in col], dtype=bool)
                pieces[f].append((rows[keep], [v for v in col if v is not None]))
    return matched, {f: _merge_pieces(p) for f, p in pieces.items() if p and any(len(r) for r, _ in p)}


def _merge_pieces(pieces: list) -> tuple[np.ndarray, pa.Array | list]:
    """One field's captures from several expressions, in row order."""
    if len(pieces) == 1:
        return pieces[0]
    rows = np.concatenate([r for r, _ in pieces])
    order = np.argsort(rows, kind="stable")
    vals = [v for _, v in pieces]
    if all(isinstance(v, pa.Array) for v in vals) and len({v.type for v in vals}) == 1:
        return rows[order], pa.concat_arrays(vals).take(pa.array(order))
    flat = [x for v in vals for x in (v.to_pylist() if isinstance(v, pa.Array) else v)]
    return rows[order], [flat[k] for k in order]


class _WatchdogTimeout(Exception):
    pass


def _search_with_watchdog(rx, value: str, seconds: float):
    """``rx.search(value)`` bounded by a wall-clock watchdog — the
    analogue of the reference's 1 s matcher watchdog
    (``EventProcessorBuilder.java:224-225``): a catastrophic
    backtracking pattern fails the ROW instead of hanging the worker.

    Python ``re`` cannot be interrupted cooperatively, so the timeout
    uses ``SIGALRM`` — available only in the worker's MAIN thread
    (where Ray executes map tasks); elsewhere the search runs
    unbounded, exactly like a watchdog-less engine.  Only the Python
    FALLBACK path pays the two timer syscalls; the RE2 fast path is
    linear-time by construction and needs no watchdog."""
    if seconds <= 0:
        return rx.search(value)
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return rx.search(value)

    armed = [True]

    def handler(signum, frame):
        if armed[0]:  # a late alarm after disarm must be a no-op, not
            raise _WatchdogTimeout()  # an exception escaping `finally`

    old_handler = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    result = []
    try:
        try:
            result.append(rx.search(value))
        finally:
            armed[0] = False
    except _WatchdogTimeout:
        pass  # unmatched → the row fails like any grok mismatch
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old_handler)
    return result[0] if result else None


def _match_one(values: pa.Array, expr: GrokExpr, watchdog_seconds: float = 1.0) -> tuple[np.ndarray, dict]:
    """Match one expression over a string array.  Returns ``(hit mask,
    {field: typed captures of the hit rows, null where absent})``."""
    try:
        res = pc.extract_regex(values, pattern=expr.regex_str)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
        return _match_one_re(values, expr, watchdog_seconds)
    hit = np.asarray(pc.is_valid(res))
    if not hit.any() or not expr.captures:
        return hit, {}
    hit_arr = pa.array(hit)
    res = res.filter(hit_arr)
    raw = {g: pc.struct_field(res, g) for g, _, _ in expr.captures}
    empty = np.zeros(len(res), dtype=bool)
    for col in raw.values():
        empty |= np.asarray(pc.fill_null(pc.equal(col, ""), False))
    if empty.any():
        # "" from RE2: an empty capture, or a group outside the match
        absent = {g: np.zeros(len(res), dtype=bool) for g in raw}
        pos = np.flatnonzero(empty)
        texts = values.filter(hit_arr).take(pa.array(pos)).to_pylist()
        for p, text in zip(pos.tolist(), texts):
            m = _search_with_watchdog(expr.py, text, watchdog_seconds)
            if m is not None:
                for g in raw:
                    if m.group(g) is None:
                        absent[g][p] = True
        for g, a in absent.items():
            if a.any():
                raw[g] = pc.if_else(pa.array(a), pa.nulls(len(a), pa.string()), raw[g])
    caps = {}
    for f, groups in _field_groups(expr).items():
        if len({t for _, t in groups}) == 1:
            col = raw[groups[0][0]] if len(groups) == 1 else pc.coalesce(*(raw[g] for g, _ in groups))
            caps[f] = _coerce_array(col, groups[0][1])
        else:
            # one field, differently typed groups: per row, the first
            # group that captured, with its own type
            cols = [(raw[g].to_pylist(), t) for g, t in groups]
            caps[f] = [next((_coerce(c[k], t) for c, t in cols if c[k] is not None), None)
                       for k in range(len(res))]
    return hit, caps


def _match_one_re(values: pa.Array, expr: GrokExpr, watchdog_seconds: float) -> tuple[np.ndarray, dict]:
    """Python ``re`` for a pattern RE2 rejects, same result shape as
    :func:`_match_one`."""
    groups = _field_groups(expr)
    hit = np.zeros(len(values), dtype=bool)
    caps: dict[str, list] = {f: [] for f in groups}
    for k, text in enumerate(values.to_pylist()):
        m = _search_with_watchdog(expr.py, text, watchdog_seconds)
        if m is None:
            continue
        hit[k] = True
        for f, gs in groups.items():
            caps[f].append(next((_coerce(m.group(g), t) for g, t in gs if m.group(g) is not None), None))
    return hit, caps


def compile_grok_exprs(patterns: list[str], pattern_definitions: dict[str, str] | None = None) -> list[GrokExpr]:
    bank = dict(GROK_PATTERNS)
    if pattern_definitions:
        bank.update({str(k): str(v) for k, v in pattern_definitions.items()})
    return [GrokExpr(p, bank) for p in patterns]


class GrokKernel(Kernel):
    failure_message = "Provided Grok expressions do not match field value"

    def __init__(self, config: dict):
        field = config.get("field")
        if field is None:
            raise KernelCompileError("grok: missing required [field]")
        patterns = config.get("patterns")
        if patterns is None:
            raise KernelCompileError("grok: missing required [patterns]")
        if isinstance(patterns, str):
            patterns = [patterns]
        self.field = _normalize_field_path(field)
        self.exprs = compile_grok_exprs(list(patterns), config.get("pattern_definitions"))
        self.ignore_missing = bool(config.get("ignore_missing", False))
        # fallback-path matcher watchdog; the reference registers 1 s
        # (EventProcessorBuilder.java:224-225); 0 disables
        self.watchdog_seconds = float(config.get("watchdog_seconds", 1.0))

    def output_fields(self) -> list[str]:
        return sorted({f for e in self.exprs for _, f, _ in e.captures})

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        present = batch.valid_mask(self.field)
        err = np.zeros(batch.n, dtype=bool)
        if not self.ignore_missing:
            err |= mask & ~present
        active = mask & present
        if active.any():
            rows = np.flatnonzero(active)
            matched, fields = match_patterns(
                string_rows(batch, self.field, active), self.exprs, self.watchdog_seconds
            )
            err[rows[~matched]] = True
            for f, (pos, vals) in fields.items():
                batch.write_rows(f, rows[pos], vals)
        return err if err.any() else None


@register_processor("grok")
def _grok_factory(config: dict) -> Kernel:
    return GrokKernel(config)


class RedactKernel(Kernel):
    """Grok-pattern-driven masking (x-pack redact plugin semantics,
    conformance: spec:640-666 — ``55.3.244.1 … test@elastic.co`` →
    ``[REDACTED-IP] … [REDACTED-EMAIL]`` with prefix="[" suffix="]").

    Vectorized via ``pc.replace_substring_regex`` per pattern (RE2).
    """

    failure_message = "redact failed"

    def __init__(self, config: dict):
        field = config.get("field")
        patterns = config.get("patterns")
        if field is None or patterns is None:
            raise KernelCompileError("redact: requires [field] and [patterns]")
        if isinstance(patterns, str):
            patterns = [patterns]
        self.field = _normalize_field_path(field)
        self.prefix = config.get("prefix", "<")
        self.suffix = config.get("suffix", ">")
        self.ignore_missing = bool(config.get("ignore_missing", True))
        self.rules: list[tuple[GrokExpr, str]] = []
        bank = dict(GROK_PATTERNS)
        bank.update({str(k): str(v) for k, v in (config.get("pattern_definitions") or {}).items()})
        for p in patterns:
            expr = GrokExpr(p, bank)
            label = expr.captures[0][1] if expr.captures else "REDACTED"
            self.rules.append((expr, f"{self.prefix}{label}{self.suffix}"))

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        active = mask & batch.valid_mask(self.field)
        if not active.any():
            return None
        arr = string_rows(batch, self.field, active)
        for expr, replacement in self.rules:
            try:
                arr = pc.replace_substring_regex(arr, pattern=expr.regex_str, replacement=replacement)
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                rx = expr.py
                vals = arr.to_pylist()
                arr = pa.array(
                    [None if v is None else rx.sub(replacement, v) for v in vals], type=pa.string()
                )
        batch.write_rows(self.field, np.flatnonzero(active), arr)
        return None


@register_processor("redact")
def _redact_factory(config: dict) -> Kernel:
    return RedactKernel(config)
