"""Dissect: positional ``%{field}`` tokenization (non-regex).

Reference semantics (vendored ES dissect lib; conformance
``/root/reference/spec/integration/elastic_integration_spec.rb:303-333``:
nginx access line → clientip/ident/auth/verb/..., all values strings,
and the ``@timestamp`` capture collides with the reserved field → moved
to ``_@timestamp`` by the sanitize kernel).

Supported key modifiers (public dissect syntax):
``%{}`` skip, ``%{?name}`` named skip, ``%{key->}`` right-padding skip,
``%{+key}`` append (with ``append_separator``), ``%{+key/2}`` ordered
append, ``%{*key}``/``%{&key}`` reference key/value pairs.

A pattern runs as one anchored RE2 ``pc.extract_regex`` over the
selected rows (:attr:`DissectPattern.regex`), unless it has reference
keys, whose field names come from the data: those run
:meth:`DissectPattern.match` per row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..model import ColumnBatch
from .base import Kernel, KernelCompileError, parse_rows, register_processor
from .grok import _normalize_field_path

_KEY = re.compile(r"%\{([^}]*)\}")


@dataclass
class _DissectKey:
    name: str
    skip: bool = False
    append: bool = False
    order: int = 0
    ref_key: bool = False    # *key
    ref_value: bool = False  # &key
    pad_right: bool = False  # ->


def _re2_literal(s: str) -> str:
    """``s`` as an RE2 pattern that matches exactly ``s``."""
    return "".join(c if c.isalnum() or ord(c) > 127 else f"\\x{{{ord(c):x}}}" for c in s)


def _parse_key(raw: str) -> _DissectKey:
    pad = raw.endswith("->")
    if pad:
        raw = raw[:-2]
    order = 0
    if "/" in raw and raw.rsplit("/", 1)[1].isdigit():
        raw, o = raw.rsplit("/", 1)
        order = int(o)
    if raw == "":
        return _DissectKey(name="", skip=True, pad_right=pad)
    if raw.startswith("?"):
        return _DissectKey(name=_normalize_field_path(raw[1:]), skip=True, pad_right=pad)
    if raw.startswith("+"):
        return _DissectKey(name=_normalize_field_path(raw[1:]), append=True, order=order, pad_right=pad)
    if raw.startswith("*"):
        return _DissectKey(name=_normalize_field_path(raw[1:]), ref_key=True, pad_right=pad)
    if raw.startswith("&"):
        return _DissectKey(name=_normalize_field_path(raw[1:]), ref_value=True, pad_right=pad)
    return _DissectKey(name=_normalize_field_path(raw), pad_right=pad)


class DissectPattern:
    def __init__(self, pattern: str):
        keys: list[_DissectKey] = []
        literals: list[str] = []
        pos = 0
        first = True
        self.prefix = ""
        for m in _KEY.finditer(pattern):
            lit = pattern[pos : m.start()]
            if first:
                self.prefix = lit
                first = False
            else:
                literals.append(lit)
            keys.append(_parse_key(m.group(1)))
            pos = m.end()
        if first:
            raise KernelCompileError(f"dissect pattern has no keys: {pattern!r}")
        literals.append(pattern[pos:])  # suffix after last key ('' = rest-of-line)
        if any(lit == "" for lit in literals[:-1]):
            raise KernelCompileError(f"dissect pattern has adjacent keys without a delimiter: {pattern!r}")
        self.keys = keys
        self.literals = literals
        self.out_fields = sorted(
            {k.name for k in keys if not k.skip and not k.ref_key and not k.ref_value and k.name}
        )
        # (name, the last plain key of that name, its append keys in
        # join order) in the order :meth:`match` returns the fields
        plain = {k.name: i for i, k in enumerate(keys) if not (k.skip or k.append or k.ref_key or k.ref_value)}
        appends = [(k.order, i, k.name) for i, k in enumerate(keys) if k.append]
        self.fields = [(name, plain.get(name), [i for _, i, n in sorted(appends) if n == name])
                       for name in dict.fromkeys([*plain, *(n for _, _, n in appends)])]
        self.regex = None if any(k.ref_key or k.ref_value for k in keys) else self._regex()

    def _regex(self) -> str:
        """Key ``i`` captures ``g<i>`` lazily up to its literal (the last
        one, with no literal, takes the rest); ``->`` repeats the literal
        greedily, and ``r<i>`` then captures all that follows it."""
        out, close = ["(?s)^", _re2_literal(self.prefix)], ""
        for i, (key, lit) in enumerate(zip(self.keys, self.literals)):
            out.append(f"(?P<g{i}>.*?){_re2_literal(lit)}" if lit else f"(?P<g{i}>.*)")
            if key.pad_right and lit:
                out.append(f"(?:{_re2_literal(lit)})*(?P<r{i}>")
                close += ")"
        return "".join(out) + (".*" + close if close else "")

    def match(self, s: str, append_sep: str) -> dict[str, str] | None:
        if not s.startswith(self.prefix):
            return None
        pos = len(self.prefix)
        raw: list[str | None] = []
        for key, lit in zip(self.keys, self.literals):
            if lit == "":
                raw.append(s[pos:])
                pos = len(s)
                continue
            idx = s.find(lit, pos)
            if idx < 0:
                return None
            raw.append(s[pos:idx])
            pos = idx + len(lit)
            if key.pad_right:
                while s.startswith(lit, pos):
                    pos += len(lit)
        # assemble results
        out: dict[str, str] = {}
        appends: dict[str, list[tuple[int, int, str]]] = {}
        refs_k: dict[str, str] = {}
        refs_v: dict[str, str] = {}
        for seq, (key, val) in enumerate(zip(self.keys, raw)):
            if val is None:
                val = ""
            if key.skip:
                continue
            if key.append:
                appends.setdefault(key.name, []).append((key.order, seq, val))
            elif key.ref_key:
                refs_k[key.name] = val
            elif key.ref_value:
                refs_v[key.name] = val
            else:
                out[key.name] = val
        for name, parts in appends.items():
            parts.sort()
            base = [out[name]] if name in out else []
            out[name] = append_sep.join(base + [p[2] for p in parts])
        for rk, field_name in refs_k.items():
            if rk in refs_v:
                out[field_name] = refs_v[rk]
        return out


class DissectKernel(Kernel):
    failure_message = "Unable to find match for dissect pattern"

    def __init__(self, config: dict):
        field = config.get("field")
        pattern = config.get("pattern")
        if field is None or pattern is None:
            raise KernelCompileError("dissect: requires [field] and [pattern]")
        self.field = _normalize_field_path(field)
        self.pattern = DissectPattern(pattern)
        self.append_sep = config.get("append_separator", "")
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def output_fields(self) -> list[str]:
        return self.pattern.out_fields

    def _arrow(self, arr: pa.Array):
        p = self.pattern
        ex = pc.extract_regex(arr, p.regex)
        ok = np.asarray(pc.is_valid(ex))
        g = [pc.struct_field(ex, f"g{i}") for i in range(len(p.keys))]
        pads = [i for i, (key, lit) in enumerate(zip(p.keys, p.literals)) if key.pad_right and lit]
        if pads:
            # Without ``->`` the match is str.find's: each literal at its
            # first occurrence.  With it the regex may backtrack, to a
            # shorter run or a later occurrence, where str.find fails:
            # keep only the matches that took neither step.
            for i, lit in enumerate(p.literals):
                if lit:
                    at = pc.find_substring(pc.binary_join_element_wise(g[i], lit, ""), lit)
                    ok &= np.asarray(pc.fill_null(pc.equal(at, pc.binary_length(g[i])), False))
            for i in pads:
                ok &= ~np.asarray(pc.fill_null(pc.starts_with(pc.struct_field(ex, f"r{i}"), p.literals[i]), True))
        cols = {}
        for name, plain, appends in p.fields:
            parts = ([] if plain is None else [g[plain]]) + [g[i] for i in appends]
            cols[name] = pc.binary_join_element_wise(*parts, self.append_sep) if appends else parts[0]
        return ok, ~ok, cols

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        p, sep = self.pattern, self.append_sep
        arrow = p.regex is not None and isinstance(sep, str)
        return parse_rows(self, batch, mask, lambda s: p.match(s, sep), self._arrow if arrow else None)


@register_processor("dissect")
def _dissect_factory(config: dict) -> Kernel:
    return DissectKernel(config)
