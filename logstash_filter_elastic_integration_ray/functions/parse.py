"""Parse-family kernels: kv, csv, json, date, convert, bytes,
urldecode, html_strip, uri_parts.

Conformance targets (reference
``spec/integration/elastic_integration_spec.rb``): kv :567-590,
csv :225-250, json :543-565, date :252-276, convert :201-223,
bytes :154-175, urldecode :960-980, html_strip :496-517,
uri_parts :932-957.
"""

from __future__ import annotations

import datetime as dt
import json as _json
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..model import ColumnBatch
from .base import Kernel, KernelCompileError, parse_rows, register_processor, string_rows
from .grok import _normalize_field_path


def _literal(pattern) -> bool:
    """Whether the regex ``pattern`` matches only itself, a nonempty
    string: then Python's ``re.split`` and Arrow's ``split_pattern``
    agree."""
    return isinstance(pattern, str) and pattern != "" and not any(c in ".^$*+?{}[]\\|()" for c in pattern)


def _null_empty(col: pa.Array) -> pa.Array:
    """``col`` with its empty strings null (a row writes nothing)."""
    return pc.if_else(pc.equal(col, ""), pa.scalar(None, pa.string()), col)


# --------------------------------------------------------------------------
# kv
# --------------------------------------------------------------------------
class KvKernel(Kernel):
    failure_message = "kv processor failed"

    def __init__(self, config: dict):
        self.field = _normalize_field_path(config.get("field", ""))
        if not self.field:
            raise KernelCompileError("kv: requires [field]")
        fs = config.get("field_split")
        vs = config.get("value_split")
        if fs is None or vs is None:
            raise KernelCompileError("kv: requires [field_split] and [value_split]")
        # ES kv treats both splitters as regexes
        try:
            self.field_split = re.compile(fs)
            self.value_split = re.compile(vs)
        except re.error as e:
            raise KernelCompileError(f"kv: invalid split regex: {e}") from e
        self.target = config.get("target_field")
        self.prefix = config.get("prefix", "")
        self.include = set(config.get("include_keys", []) or [])
        self.exclude = set(config.get("exclude_keys", []) or [])
        self.trim_key = config.get("trim_key")
        self.trim_value = config.get("trim_value")
        self.strip_brackets = bool(config.get("strip_brackets", False))
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def _fieldname(self, key: str) -> str:
        name = self.prefix + key
        return f"{self.target}.{name}" if self.target else name

    def _parse(self, s: str) -> dict:
        out: dict[str, object] = {}
        for token in self.field_split.split(s):
            if token == "":
                continue
            parts = self.value_split.split(token, maxsplit=1)
            if len(parts) != 2:
                raise ValueError(f"cannot split key-value from {token!r}")
            k, v = parts
            if self.trim_key:
                k = k.strip(self.trim_key)
            if self.trim_value:
                v = v.strip(self.trim_value)
            if self.strip_brackets:
                v = v.strip("()<>[]\"'")
            if self.include and k not in self.include:
                continue
            if k in self.exclude:
                continue
            f = self._fieldname(k)
            if f in out:
                prev = out[f]
                out[f] = (prev if isinstance(prev, list) else [prev]) + [v]
            else:
                out[f] = v
        return out

    def _arrow(self, arr: pa.Array):
        """Split every row at once; a row whose kept keys repeat (a list
        value) goes to :meth:`_parse`."""
        n = len(arr)
        tokens = pc.split_pattern(arr, self.field_split.pattern)
        row = np.asarray(pc.list_parent_indices(tokens))
        tok = pc.list_flatten(tokens)
        keep = np.asarray(pc.not_equal(tok, ""))
        row, tok = row[keep], tok.filter(pa.array(keep))
        pairs = pc.split_pattern(tok, self.value_split.pattern, max_splits=1)
        two = np.asarray(pc.equal(pc.list_value_length(pairs), 2))
        bad = np.zeros(n, dtype=bool)
        bad[row[~two]] = True
        kv = pc.list_flatten(pairs.filter(pa.array(two)))
        row = row[two]
        k, v = kv.take(np.arange(0, len(kv), 2)), kv.take(np.arange(1, len(kv), 2))
        if self.trim_key:
            k = pc.utf8_trim(k, self.trim_key)
        if self.trim_value:
            v = pc.utf8_trim(v, self.trim_value)
        if self.strip_brackets:
            v = pc.utf8_trim(v, "()<>[]\"'")
        keep = np.ones(len(k), dtype=bool)
        if self.include:
            keep &= np.asarray(pc.is_in(k, pa.array([x for x in self.include if isinstance(x, str)], pa.string())))
        if self.exclude:
            keep &= ~np.asarray(pc.is_in(k, pa.array([x for x in self.exclude if isinstance(x, str)], pa.string())))
        row, k, v = row[keep], k.filter(pa.array(keep)), v.filter(pa.array(keep))
        code = pc.dictionary_encode(k).indices.to_numpy(zero_copy_only=False).astype(np.int64)
        m = int(code.max(initial=0)) + 1
        pair = np.sort(row * m + code)
        ok = ~bad
        ok[pair[1:][pair[1:] == pair[:-1]] // m] = False
        t_ok = ok[row]
        row, k, v = row[t_ok], k.filter(pa.array(t_ok)), v.filter(pa.array(t_ok))
        # one column per key; dictionary codes follow first appearance
        enc = pc.dictionary_encode(k)
        code = enc.indices.to_numpy(zero_copy_only=False)
        by_key = np.argsort(code, kind="stable")
        cuts = np.searchsorted(code[by_key], np.arange(len(enc.dictionary) + 1))
        cols = {}
        for c, key in enumerate(enc.dictionary.to_pylist()):
            at = by_key[cuts[c]:cuts[c + 1]]
            idx = np.full(n, -1, dtype=np.int64)
            idx[row[at]] = at
            cols[self._fieldname(key)] = v.take(pa.array(idx, mask=idx < 0))
        return ok, bad, cols

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        literal = _literal(self.field_split.pattern) and _literal(self.value_split.pattern)
        return parse_rows(self, batch, mask, self._parse, self._arrow if literal else None)


@register_processor("kv")
def _kv_factory(config: dict) -> Kernel:
    return KvKernel(config)


# --------------------------------------------------------------------------
# csv
# --------------------------------------------------------------------------
class CsvKernel(Kernel):
    failure_message = "csv processor failed"

    def __init__(self, config: dict):
        self.field = _normalize_field_path(config.get("field", ""))
        tf = config.get("target_fields")
        if not self.field or not tf:
            raise KernelCompileError("csv: requires [field] and [target_fields]")
        self.target_fields = [_normalize_field_path(f) for f in tf]
        self.sep = config.get("separator", ",")
        self.quote = config.get("quote", '"')
        self.trim = bool(config.get("trim", False))
        self.empty_value = config.get("empty_value")
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def output_fields(self) -> list[str]:
        return list(self.target_fields)

    def _split(self, s: str) -> list[str]:
        if self.quote and self.quote in s:
            out, cur, i, n, inq = [], [], 0, len(s), False
            q, sep = self.quote, self.sep
            while i < n:
                c = s[i]
                if inq:
                    if c == q:
                        if i + 1 < n and s[i + 1] == q:
                            cur.append(q)
                            i += 1
                        else:
                            inq = False
                    else:
                        cur.append(c)
                elif c == q and not cur:
                    inq = True
                elif c == sep:
                    out.append("".join(cur))
                    cur = []
                else:
                    cur.append(c)
                i += 1
            out.append("".join(cur))
            return out
        return s.split(self.sep)

    def _parse(self, s: str) -> dict:
        out = {}
        for f, v in zip(self.target_fields, self._split(s)):
            if self.trim:
                v = v.strip()
            if v == "" and self.empty_value is not None:
                v = self.empty_value
            out[f] = v
        return out

    def _arrow(self, arr: pa.Array):
        """Split every row at once; a row holding the quote goes to
        :meth:`_parse`."""
        ok = np.ones(len(arr), dtype=bool)
        if self.quote:
            ok = ~np.asarray(pc.match_substring(arr, self.quote))
        parts = pc.split_pattern(arr, self.sep)
        start = parts.offsets.to_numpy()[:-1]
        count = np.asarray(pc.list_value_length(parts))
        flat = pc.list_flatten(parts)
        cols = {}
        for i, f in enumerate(self.target_fields):
            v = flat.take(pa.array(start + i, mask=count <= i))
            if self.empty_value is not None:
                v = pc.if_else(pc.equal(v, ""), self.empty_value, v)
            cols[f] = pc.coalesce(v, cols[f]) if f in cols else v
        return ok, np.zeros(len(arr), dtype=bool), cols

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        arrow = (isinstance(self.sep, str) and self.sep != "" and not self.trim
                 and isinstance(self.empty_value, (str, type(None))) and isinstance(self.quote, (str, type(None))))
        return parse_rows(self, batch, mask, self._parse, self._arrow if arrow else None)


@register_processor("csv")
def _csv_factory(config: dict) -> Kernel:
    return CsvKernel(config)


# --------------------------------------------------------------------------
# json
# --------------------------------------------------------------------------
def flatten_json(value, prefix: str) -> dict[str, object]:
    """Flatten a parsed JSON value into dotted columns under ``prefix``."""
    out: dict[str, object] = {}
    if isinstance(value, dict):
        for k, v in value.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            if isinstance(v, dict):
                out.update(flatten_json(v, key))
            else:
                out[key] = v
    else:
        out[prefix] = value
    return out


class JsonKernel(Kernel):
    failure_message = "json processor failed to parse field"

    def __init__(self, config: dict):
        self.field = _normalize_field_path(config.get("field", ""))
        if not self.field:
            raise KernelCompileError("json: requires [field]")
        self.target = config.get("target_field")
        self.add_to_root = bool(config.get("add_to_root", False))
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        def parse(s: str):
            v = _json.loads(s)
            if self.add_to_root:
                if not isinstance(v, dict):
                    raise ValueError("cannot add non-object to root")
                return flatten_json(v, "")
            target = self.target if self.target else self.field
            return flatten_json(v, target)

        return parse_rows(self, batch, mask, parse)


@register_processor("json")
def _json_factory(config: dict) -> Kernel:
    return JsonKernel(config)


# --------------------------------------------------------------------------
# date
# --------------------------------------------------------------------------
# longest-first within each family: 'MMM' (month name) must replace
# before 'MM' or formats like dd/MMM/yyyy (HTTPDATE) mangle to %mM
_JAVA_TOKENS = [
    ("yyyy", "%Y"),
    ("yy", "%y"),
    ("MMMM", "%B"),
    ("MMM", "%b"),
    ("MM", "%m"),
    ("dd", "%d"),
    ("HH", "%H"),
    ("mm", "%M"),
    ("ss", "%S"),
    ("SSS", "%f"),
    ("XXX", "%z"),
    ("XX", "%z"),
    ("X", "%z"),
    ("Z", "%z"),
    ("EEEE", "%A"),
    ("EEE", "%a"),
]


def java_format_to_strptime(fmt: str) -> str:
    out = fmt
    for j, p in _JAVA_TOKENS:
        out = out.replace(j, p)
    return out.replace("'T'", "T")


def format_iso8601(d: dt.datetime) -> str:
    """ES DateFormatter-style ISO8601 with milliseconds; 'Z' for UTC."""
    ms = d.microsecond // 1000
    base = f"{d.year:04d}-{d.month:02d}-{d.day:02d}T{d.hour:02d}:{d.minute:02d}:{d.second:02d}.{ms:03d}"
    off = d.utcoffset()
    if off is None or off == dt.timedelta(0):
        return base + "Z"
    total = int(off.total_seconds())
    sign = "+" if total >= 0 else "-"
    total = abs(total)
    return f"{base}{sign}{total // 3600:02d}:{(total % 3600) // 60:02d}"


class DateKernel(Kernel):
    failure_message = "unable to parse date"

    def __init__(self, config: dict):
        self.field = _normalize_field_path(config.get("field", ""))
        formats = config.get("formats")
        if not self.field or not formats:
            raise KernelCompileError("date: requires [field] and [formats]")
        self.formats = [str(f) for f in formats]
        self.strptimes = [java_format_to_strptime(f) for f in self.formats]
        self.target = _normalize_field_path(config.get("target_field", "@timestamp"))
        self.output_format = config.get("output_format")  # None → ISO8601
        tz = config.get("timezone")
        self.tz = None
        if tz:
            if tz in ("UTC", "Z", "+00:00"):
                self.tz = dt.timezone.utc
            else:
                from zoneinfo import ZoneInfo

                self.tz = ZoneInfo(tz)
        self.ignore_missing = False

    def output_fields(self) -> list[str]:
        return [self.target]

    def _parse_one(self, s: str) -> dt.datetime:
        for fmt, sp in zip(self.formats, self.strptimes):
            if fmt in ("ISO8601", "iso8601"):
                try:
                    d = dt.datetime.fromisoformat(s.replace("Z", "+00:00"))
                except ValueError:
                    continue
            elif fmt in ("UNIX", "unix"):
                try:
                    d = dt.datetime.fromtimestamp(float(s), dt.timezone.utc)
                except ValueError:
                    continue
            elif fmt in ("UNIX_MS", "unix_ms"):
                try:
                    d = dt.datetime.fromtimestamp(float(s) / 1000.0, dt.timezone.utc)
                except ValueError:
                    continue
            else:
                try:
                    d = dt.datetime.strptime(s, sp)
                except ValueError:
                    continue
            if d.tzinfo is None:
                d = d.replace(tzinfo=self.tz or dt.timezone.utc)
            return d
        raise ValueError(f"unable to parse date [{s}] with formats {self.formats}")

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        def parse(s: str):
            d = self._parse_one(s)
            if self.output_format:
                return {self.target: d.strftime(java_format_to_strptime(self.output_format))}
            return {self.target: format_iso8601(d)}

        return parse_rows(self, batch, mask, parse)


@register_processor("date")
def _date_factory(config: dict) -> Kernel:
    return DateKernel(config)


# --------------------------------------------------------------------------
# convert
# --------------------------------------------------------------------------
def _convert_value(v, ctype: str):
    if ctype in ("integer", "long"):
        if isinstance(v, bool):
            raise ValueError("cannot convert boolean")
        if isinstance(v, int):
            return v
        if isinstance(v, float):
            raise ValueError("cannot losslessly convert float")
        return int(str(v).strip())
    if ctype in ("float", "double"):
        if isinstance(v, bool):
            raise ValueError("cannot convert boolean")
        if isinstance(v, (int, float)):
            return float(v)
        return float(str(v).strip())
    if ctype == "string":
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)
    if ctype == "boolean":
        if isinstance(v, bool):
            return v
        s = str(v).strip().lower()
        if s == "true":
            return True
        if s == "false":
            return False
        raise ValueError(f"[{v}] is not a boolean")
    if ctype == "ip":
        import ipaddress

        ipaddress.ip_address(str(v))
        return str(v)
    if ctype == "auto":
        if not isinstance(v, str):
            return v
        s = v.strip()
        if s.lower() in ("true", "false"):
            return s.lower() == "true"
        try:
            return int(s)
        except ValueError:
            pass
        try:
            return float(s)
        except ValueError:
            pass
        return v
    raise KernelCompileError(f"convert: unsupported type [{ctype}]")


#: the strings :class:`ConvertKernel` casts to integers in Arrow
_ASCII_INT = "^[0-9]{1,18}$"


class ConvertKernel(Kernel):
    failure_message = "unable to convert field"

    def __init__(self, config: dict):
        self.field = _normalize_field_path(config.get("field", ""))
        self.ctype = config.get("type")
        if not self.field or not self.ctype:
            raise KernelCompileError("convert: requires [field] and [type]")
        if self.ctype not in ("integer", "long", "float", "double", "string", "boolean", "ip", "auto"):
            raise KernelCompileError(f"convert: unsupported type [{self.ctype}]")
        self.target = _normalize_field_path(config.get("target_field") or self.field)
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def output_fields(self) -> list[str]:
        return [self.target]

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        if not batch.has(self.field):
            if self.ignore_missing:
                return None
            return mask.copy()
        col = batch._cols.get(self.field)
        if self.ctype in ("integer", "long") and isinstance(col, pa.Array) and pa.types.is_string(col.type):
            return parse_rows(self, batch, mask, lambda s: {self.target: _convert_value(s, self.ctype)},
                              self._ascii_ints)
        present = batch.valid_mask(self.field)
        err = np.zeros(batch.n, dtype=bool)
        if not self.ignore_missing:
            err |= mask & ~present
        rows, vals = batch.read_rows(self.field, mask & present)
        ok_rows, out = [], []
        for i, v in zip(rows.tolist(), vals):
            try:
                if isinstance(v, list):
                    out.append([_convert_value(x, self.ctype) for x in v])
                else:
                    out.append(_convert_value(v, self.ctype))
                ok_rows.append(i)
            except (ValueError, TypeError):
                err[i] = True
        batch.write_rows(self.target, np.array(ok_rows, dtype=np.int64), out)
        return err if err.any() else None

    def _ascii_ints(self, arr: pa.Array):
        """String → integer in Arrow: a value of 1 to 18 ASCII digits is
        one ``pc.cast`` (it reads as Python's ``int(str(v).strip())``
        does, and fits int64); any other value (whitespace, a sign,
        ``_``, non-ASCII digits, 19+ digits) is left to the per-row
        path."""
        ok = pc.fill_null(pc.match_substring_regex(arr, _ASCII_INT), False)
        ints = pc.cast(pc.if_else(ok, arr, pa.scalar(None, pa.string())), pa.int64())
        return np.asarray(ok), np.zeros(len(arr), dtype=bool), {self.target: ints}


@register_processor("convert")
def _convert_factory(config: dict) -> Kernel:
    return ConvertKernel(config)


# --------------------------------------------------------------------------
# bytes
# --------------------------------------------------------------------------
#: every character Python's ``re`` ``\s`` matches in a str pattern
#: (``str.isspace``), as an RE2 class body
_PY_SPACE = (r"\t\n\x0b\x0c\r\x1c-\x20\x85\xa0\x{1680}\x{2000}-\x{200a}"
            r"\x{2028}\x{2029}\x{202f}\x{205f}\x{3000}")
#: ``^\s*([0-9]*\.?[0-9]+)\s*(b|kb|mb|gb|tb|pb)\s*$`` under Python's
#: ``re.I``, which also folds the Kelvin sign into ``k``
_BYTES_RX = ("^[" + _PY_SPACE + "]*(?P<num>[0-9]*\\.?[0-9]+)[" + _PY_SPACE + "]*"
             "(?P<unit>[kK\\x{212a}mMgGtTpP]?)[bB][" + _PY_SPACE + "]*$")
_BYTES_UNITS = pa.array(["", "k", "m", "g", "t", "p"])
_BYTES_MULT = np.array([1 << (10 * i) for i in range(6)], dtype=np.float64)


class BytesKernel(Kernel):
    """``<number><unit>`` → ``int(float(number) * 1024**unit)`` in
    int64, in Arrow: one RE2 extract and a float multiply.  A row that
    does not match, or whose value is beyond int64, fails."""

    failure_message = "failed to parse bytes value"

    def __init__(self, config: dict):
        self.field = _normalize_field_path(config.get("field", ""))
        if not self.field:
            raise KernelCompileError("bytes: requires [field]")
        self.target = _normalize_field_path(config.get("target_field") or self.field)
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def output_fields(self) -> list[str]:
        return [self.target]

    def _arrow(self, arr: pa.Array):
        ex = pc.extract_regex(arr, _BYTES_RX)
        num = pc.struct_field(ex, "num").cast(pa.float64()).to_numpy(zero_copy_only=False)
        unit = pc.index_in(pc.utf8_lower(pc.struct_field(ex, "unit")), value_set=_BYTES_UNITS)
        value = num * _BYTES_MULT[unit.fill_null(0).to_numpy(zero_copy_only=False)]
        ok = value < 2.0 ** 63  # False where no match (NaN)
        out = pa.array(np.trunc(np.where(ok, value, 0)).astype(np.int64))
        return ok, ~ok, {self.target: out}

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        return parse_rows(self, batch, mask, None, self._arrow)


@register_processor("bytes")
def _bytes_factory(config: dict) -> Kernel:
    return BytesKernel(config)


# --------------------------------------------------------------------------
# urldecode / html_strip
# --------------------------------------------------------------------------
class UrldecodeKernel(Kernel):
    failure_message = "could not URL-decode field"

    def __init__(self, config: dict):
        self.field = _normalize_field_path(config.get("field", ""))
        if not self.field:
            raise KernelCompileError("urldecode: requires [field]")
        self.target = _normalize_field_path(config.get("target_field") or self.field)
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        from urllib.parse import unquote_plus

        def parse(s: str):
            return {self.target: unquote_plus(s)}

        return parse_rows(self, batch, mask, parse)


@register_processor("urldecode")
def _urldecode_factory(config: dict) -> Kernel:
    return UrldecodeKernel(config)


class HtmlStripKernel(Kernel):
    """Each tag becomes a newline, then each run of newlines one
    newline: two RE2 replaces over the selected rows."""

    failure_message = "html_strip failed"

    def __init__(self, config: dict):
        self.field = _normalize_field_path(config.get("field", ""))
        if not self.field:
            raise KernelCompileError("html_strip: requires [field]")
        self.target = _normalize_field_path(config.get("target_field") or self.field)
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def _arrow(self, arr: pa.Array):
        out = pc.replace_substring_regex(arr, "<[^>]*>", "\n")
        out = pc.replace_substring_regex(out, "\n{2,}", "\n")
        return np.ones(len(arr), dtype=bool), np.zeros(len(arr), dtype=bool), {self.target: out}

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        return parse_rows(self, batch, mask, None, self._arrow)


@register_processor("html_strip")
def _html_strip_factory(config: dict) -> Kernel:
    return HtmlStripKernel(config)


# --------------------------------------------------------------------------
# uri_parts
# --------------------------------------------------------------------------
#: ``scheme://host[:port][/path][?query][#fragment]`` with an ASCII host
#: and no userinfo, brackets, ``%`` in the host, whitespace or control
#: characters: the URLs ``urlsplit`` takes apart by plain splitting.
#: ``ext`` is the last segment's last ``.`` onwards.
_URI_RX = (
    r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://"
    r"(?P<host>[\x21\x22\x24\x26-\x2e\x30-\x39\x3b-\x3e\x41-\x5a\x5c\x5e-\x7e]*)"
    r"(?::(?P<port>[0-9]{0,5}))?"
    r"(?P<path>(?:/[^?#\x00-\x20\x7f]*?(?P<ext>\.[^./?#\x00-\x20\x7f]*)?)?)"
    r"(?:\?(?P<query>[^#\x00-\x20\x7f]*))?"
    r"(?:#(?P<fragment>[^\x00-\x20\x7f]*))?$"
)


class UriPartsKernel(Kernel):
    """``urlsplit`` fields of a URL.  A URL of the plain shape
    ``_URI_RX`` describes, with a port up to 65535, is split in Arrow;
    any other goes to :meth:`_parse`."""

    failure_message = "unable to parse URI"

    def __init__(self, config: dict):
        self._value_cache: dict = {}  # per-worker memoization of pure value parses
        self.field = _normalize_field_path(config.get("field", ""))
        if not self.field:
            raise KernelCompileError("uri_parts: requires [field]")
        self.target = config.get("target_field", "url")
        self.keep_original = bool(config.get("keep_original", True))
        self.remove_if_successful = bool(config.get("remove_if_successful", False))
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def _parse(self, s: str) -> dict:
        from urllib.parse import urlsplit

        t = self.target
        u = urlsplit(s)
        if not u.scheme and not u.netloc:
            raise ValueError(f"unable to parse URI [{s}]")
        out: dict[str, object] = {}
        if self.keep_original:
            out[f"{t}.original"] = s
        if u.scheme:
            out[f"{t}.scheme"] = u.scheme
        if u.hostname:
            out[f"{t}.domain"] = u.hostname
        if u.port is not None:
            out[f"{t}.port"] = int(u.port)
        if u.path:
            out[f"{t}.path"] = u.path
            seg = u.path.rsplit("/", 1)[-1]
            if "." in seg:
                out[f"{t}.extension"] = seg.rsplit(".", 1)[1]
        if u.query:
            out[f"{t}.query"] = u.query
        if u.fragment:
            out[f"{t}.fragment"] = u.fragment
        if u.username:
            out[f"{t}.username"] = u.username
            out[f"{t}.user_info"] = f"{u.username}:{u.password or ''}"
        if u.password:
            out[f"{t}.password"] = u.password
        return out

    def _arrow(self, arr: pa.Array):
        ex = pc.extract_regex(arr, _URI_RX)
        port = _null_empty(pc.struct_field(ex, "port")).cast(pa.int64())
        ok = np.asarray(pc.is_valid(ex)) & ~np.asarray(pc.fill_null(pc.greater(port, 65535), False))
        t = self.target
        cols = {f"{t}.original": arr} if self.keep_original else {}
        cols[f"{t}.scheme"] = pc.ascii_lower(pc.struct_field(ex, "scheme"))
        cols[f"{t}.domain"] = pc.ascii_lower(_null_empty(pc.struct_field(ex, "host")))
        cols[f"{t}.port"] = port
        cols[f"{t}.path"] = _null_empty(pc.struct_field(ex, "path"))
        cols[f"{t}.extension"] = pc.utf8_slice_codeunits(_null_empty(pc.struct_field(ex, "ext")), 1)
        cols[f"{t}.query"] = _null_empty(pc.struct_field(ex, "query"))
        cols[f"{t}.fragment"] = _null_empty(pc.struct_field(ex, "fragment"))
        return ok, np.zeros(len(arr), dtype=bool), cols

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        err = parse_rows(self, batch, mask, self._parse, self._arrow)
        if self.remove_if_successful and batch.has(self.field) and self.field != self.target:
            ok = mask.copy()
            if err is not None:
                ok &= ~err
            rows = np.flatnonzero(ok)
            # per-document removal (ES semantics), not all-or-nothing
            batch.write_rows(self.field, rows, pa.nulls(len(rows), batch.arrow(self.field).type))
        return err


@register_processor("uri_parts")
def _uri_parts_factory(config: dict) -> Kernel:
    return UriPartsKernel(config)


# ---------------------------------------------------------------------------
# syslog (RFC 5424 + RFC 3164) — registry-extension processor
# ---------------------------------------------------------------------------

# Both patterns are RE2 (no backreferences, named groups only) so the
# SAME string drives pyarrow.compute.extract_regex here and DuckDB's
# regexp_extract in the SQL twin — the two engines share one regex
# engine (RE2) and therefore one parse.
SYSLOG_RFC5424_RX = (
    r"^<(?P<pri>\d{1,3})>(?P<ver>[1-9]\d{0,2}) (?P<ts>\S+) (?P<host>\S+) "
    r"(?P<app>\S+) (?P<proc>\S+) (?P<msgid>\S+) "
    r"(?P<sd>-|(?:\[[^\]]*\])+)(?: (?P<msg>.*))?$"
)
SYSLOG_RFC3164_RX = (
    r"^<(?P<pri>\d{1,3})>(?P<ts>[A-Z][a-z]{2} [ 0-9]\d \d{2}:\d{2}:\d{2}) "
    r"(?P<host>\S+) (?P<app>[^\[\s:]+)(?:\[(?P<proc>\d+)\])?: (?P<msg>.*)$"
)


class SyslogKernel(Kernel):
    """Parse syslog lines — RFC 5424 tried first, BSD RFC 3164 as the
    fallback shape (the reference ecosystem parses syslog via grok
    pattern banks; this registry-extension processor gives the common
    case one vectorized kernel instead of a 40-branch grok).

    Fully vectorized: two ``pc.extract_regex`` calls per batch (RE2),
    Arrow ``if_else`` blends between the two shapes, integer PRI
    decode ``facility = pri // 8, severity = pri % 8`` on int64
    arrays.  NILVALUE ``-`` (5424) and the empty message become null.
    Rows matching neither shape are returned in the error mask for the
    executor's on_failure machinery."""

    failure_message = "unable to parse syslog line"

    def __init__(self, config: dict):
        self.field = _normalize_field_path(config.get("field", ""))
        if not self.field:
            raise KernelCompileError("syslog: requires [field]")
        self.target = config.get("target_field", "syslog")
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def output_fields(self) -> list[str]:
        t = self.target
        return [
            f"{t}.priority", f"{t}.facility", f"{t}.severity",
            f"{t}.version", f"{t}.timestamp", f"{t}.hostname",
            f"{t}.appname", f"{t}.procid", f"{t}.msgid", f"{t}.sd",
            f"{t}.message",
        ]

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        present = batch.valid_mask(self.field)
        err = mask & ~present
        if self.ignore_missing:
            err[:] = False
        rows = np.flatnonzero(mask & present)
        arr = string_rows(batch, self.field, mask & present)

        ex5 = pc.extract_regex(arr, SYSLOG_RFC5424_RX)
        ex3 = pc.extract_regex(arr, SYSLOG_RFC3164_RX)
        m5 = np.asarray(pc.is_valid(ex5))
        m3 = np.asarray(pc.is_valid(ex3)) & ~m5
        matched = m5 | m3
        err[rows[~matched]] = True
        if not matched.any():
            return err if err.any() else None

        k = len(arr)
        m5a, m3a = pa.array(m5), pa.array(m3)

        def pick(name5: str, name3: str | None, *, nil_to_null: bool = False,
                 empty_to_null: bool = False) -> pa.Array:
            v5 = pc.struct_field(ex5, name5)
            v3 = (pc.struct_field(ex3, name3) if name3 is not None
                  else pa.nulls(k, pa.string()))
            out = pc.if_else(m5a, v5, pc.if_else(m3a, v3, pa.nulls(k, pa.string())))
            if nil_to_null:
                out = pc.if_else(pc.equal(out, "-"), pa.nulls(k, pa.string()), out)
            if empty_to_null:
                out = pc.if_else(pc.equal(out, ""), pa.nulls(k, pa.string()), out)
            return out

        t = self.target
        pri = pick("pri", "pri").cast(pa.int64())
        facility = pc.divide(pri, pa.scalar(8, pa.int64()))  # pri >= 0: trunc == floor
        severity = pc.subtract(pri, pc.multiply(facility, pa.scalar(8, pa.int64())))
        ver5 = pc.struct_field(ex5, "ver").cast(pa.int64())
        version = pc.if_else(m5a, ver5, pa.nulls(k, pa.int64()))

        cols: dict[str, pa.Array] = {
            f"{t}.priority": pri,
            f"{t}.facility": facility,
            f"{t}.severity": severity,
            f"{t}.version": version,
            f"{t}.timestamp": pick("ts", "ts", nil_to_null=True),
            f"{t}.hostname": pick("host", "host", nil_to_null=True),
            f"{t}.appname": pick("app", "app", nil_to_null=True),
            f"{t}.procid": pick("proc", "proc", nil_to_null=True, empty_to_null=True),
            f"{t}.msgid": pick("msgid", None, nil_to_null=True),
            f"{t}.sd": pick("sd", None, nil_to_null=True),
            f"{t}.message": pick("msg", "msg", empty_to_null=True),
        }
        hit = pa.array(matched)
        for name, col in cols.items():
            batch.write_rows(name, rows[matched], col.filter(hit))
        return err if err.any() else None


@register_processor("syslog")
def _syslog_factory(config: dict) -> Kernel:
    return SyslogKernel(config)


# ---------------------------------------------------------------------------
# cef (ArcSight Common Event Format) — registry-extension processor
# ---------------------------------------------------------------------------

# RE2 (no lookahead, no backreferences) so the SAME string drives
# pyarrow.compute.extract_regex here and DuckDB's regexp_extract in the
# SQL twin.  Each header value is a run of escaped pairs (\| \\ or any
# other backslash escape) or non-pipe/non-backslash characters, per the
# CEF spec: a raw `|` always terminates the field.
CEF_HEADER_RX = (
    r"^CEF:(?P<ver>\d+)"
    r"\|(?P<vendor>(?:\\.|[^|\\])*)"
    r"\|(?P<product>(?:\\.|[^|\\])*)"
    r"\|(?P<dver>(?:\\.|[^|\\])*)"
    r"\|(?P<sig>(?:\\.|[^|\\])*)"
    r"\|(?P<name>(?:\\.|[^|\\])*)"
    r"\|(?P<sev>(?:\\.|[^|\\])*)"
    r"\|(?P<ext>.*)$"
)


class CefKernel(Kernel):
    """Parse ArcSight CEF lines
    (``CEF:ver|vendor|product|device_version|signature_id|name|severity|ext``).

    One ``pc.extract_regex`` call per batch (RE2, shared verbatim with
    the SQL twin), then header unescaping as two vectorized substring
    replaces in a FIXED order (``\\|`` → ``|`` first, then ``\\\\`` →
    ``\\``) — inside a matched group every raw ``|`` is impossible (the
    regex ends the field there), so the two-step order is correct for
    any escape sequence the grammar admits, and the SQL twin applies
    the identical two ``replace`` calls.  Severity stays a string (the
    spec allows ``0``-``10`` or words like ``High``).  The raw
    extension is exposed as ``<target>.extension`` for a downstream
    ``kv`` processor (``field_split=" "``, ``value_split="="``) — the
    same composition the reference ecosystem uses, reusing this repo's
    tested kv machinery instead of a second bespoke parser.  Rows not
    matching the header grammar go to the executor's on_failure
    machinery."""

    failure_message = "unable to parse CEF line"

    def __init__(self, config: dict):
        self.field = _normalize_field_path(config.get("field", ""))
        if not self.field:
            raise KernelCompileError("cef: requires [field]")
        self.target = config.get("target_field", "cef")
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def output_fields(self) -> list[str]:
        t = self.target
        return [
            f"{t}.version", f"{t}.device_vendor", f"{t}.device_product",
            f"{t}.device_version", f"{t}.signature_id", f"{t}.name",
            f"{t}.severity", f"{t}.extension",
        ]

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        present = batch.valid_mask(self.field)
        err = mask & ~present
        if self.ignore_missing:
            err[:] = False
        rows = np.flatnonzero(mask & present)
        ex = pc.extract_regex(string_rows(batch, self.field, mask & present), CEF_HEADER_RX)
        matched = np.asarray(pc.is_valid(ex))
        err[rows[~matched]] = True
        if not matched.any():
            return err if err.any() else None
        ex = ex.filter(pa.array(matched))

        def unescape(col: pa.Array) -> pa.Array:
            col = pc.replace_substring(col, pattern="\\|", replacement="|")
            return pc.replace_substring(col, pattern="\\\\", replacement="\\")

        t = self.target
        cols: dict[str, pa.Array] = {
            f"{t}.version": pc.struct_field(ex, "ver").cast(pa.int64()),
            f"{t}.device_vendor": unescape(pc.struct_field(ex, "vendor")),
            f"{t}.device_product": unescape(pc.struct_field(ex, "product")),
            f"{t}.device_version": unescape(pc.struct_field(ex, "dver")),
            f"{t}.signature_id": unescape(pc.struct_field(ex, "sig")),
            f"{t}.name": unescape(pc.struct_field(ex, "name")),
            f"{t}.severity": pc.struct_field(ex, "sev"),
            f"{t}.extension": pc.struct_field(ex, "ext"),
        }
        for name, col in cols.items():
            batch.write_rows(name, rows[matched], col)
        return err if err.any() else None


@register_processor("cef")
def _cef_factory(config: dict) -> Kernel:
    return CefKernel(config)


# ---------------------------------------------------------------------------
# xml — registry-extension processor (Windows-event / SOAP log shape)
# ---------------------------------------------------------------------------

class XmlKernel(Kernel):
    """Parse an XML document field into flattened dotted fields — the
    Logstash `xml` filter shape as a registry-extension processor
    (Windows event logs and SOAP/middleware payloads ship as XML; the
    reference ecosystem handles them with the xml filter upstream of
    the ES processors).

    Flattening semantics (deterministic, XmlSimple-like):

    - root attributes        → ``{target}.{attr}``
    - element attributes     → ``{target}.{path}.{attr}``
    - leaf element text      → ``{target}.{path}`` (stripped;
      empty/whitespace-only text writes nothing)
    - ``path`` joins nested tags under the root with ``.``; repeated
      paths collect into a list in document order (the kv multi-value
      convention); namespaced tags keep ElementTree's ``{ns}tag``
      spelling.

    Malformed XML rows go to the executor's on_failure machinery.
    Inherently per-document DOM work, so the kernel memoizes parse
    results per DISTINCT input value per worker (``_value_cache`` —
    real log streams repeat templates heavily)."""

    failure_message = "unable to parse xml"

    def __init__(self, config: dict):
        self.field = _normalize_field_path(config.get("field", ""))
        if not self.field:
            raise KernelCompileError("xml: requires [field]")
        self.target = config.get("target_field", "xml")
        self.ignore_missing = bool(config.get("ignore_missing", False))
        self._value_cache: dict = {}

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        import xml.etree.ElementTree as ET

        t = self.target

        def parse(s: str):
            root = ET.fromstring(s)
            out: dict[str, object] = {}

            def put(f: str, v: str):
                if f in out:
                    prev = out[f]
                    out[f] = (prev if isinstance(prev, list) else [prev]) + [v]
                else:
                    out[f] = v

            for a, v in root.attrib.items():
                put(f"{t}.{a}", v)

            def walk(el, prefix: str):
                for child in el:
                    path = f"{prefix}.{child.tag}" if prefix else child.tag
                    for a, v in child.attrib.items():
                        put(f"{t}.{path}.{a}", v)
                    txt = (child.text or "").strip()
                    if len(child) == 0 and txt:
                        put(f"{t}.{path}", txt)
                    walk(child, path)

            walk(root, "")
            return out

        return parse_rows(self, batch, mask, parse)


@register_processor("xml")
def _xml_factory(config: dict) -> Kernel:
    return XmlKernel(config)
