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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ..model import ColumnBatch
from .base import Kernel, KernelCompileError, register_processor, write_results
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

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        present = batch.valid_mask(self.field)
        err = np.zeros(batch.n, dtype=bool)
        if not self.ignore_missing:
            err |= mask & ~present
        rows, values = batch.read_rows(self.field, mask & present, stringify=True)
        results = [self.pattern.match(s, self.append_sep) for s in values]
        err[rows[[r is None for r in results]]] = True
        write_results(batch, rows, results)
        return err if err.any() else None


@register_processor("dissect")
def _dissect_factory(config: dict) -> Kernel:
    return DissectKernel(config)
