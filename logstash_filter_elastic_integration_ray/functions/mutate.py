"""Mutate-family kernels: set, append, remove, rename, uppercase,
lowercase, trim, split, join, sort (list field), dot_expander,
fingerprint, foreach, script (expression-DSL subset).

Conformance targets (reference
``spec/integration/elastic_integration_spec.rb``): set/golden pipeline
:813-835 + ``src/test/resources/.../simple-mutate-pipelines/simple-mutate.json``,
append :129-152, remove :695-725, rename :728-751, case/trim :592-614 /
:885-929, split :861-882, join :519-541, sort :838-858, dot_expander
:335-358, fingerprint :393-413, foreach :416-441, script
``SmokeTest.java:240-265`` (restricted to an expression DSL — arbitrary
painless is a documented gap mirroring docs/index.asciidoc:192).
"""

from __future__ import annotations

import base64
import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..conditions import _BUILTIN_CALLS, compile_value_expr
from ..model import ColumnBatch, META_INDEX
from .base import Kernel, KernelCompileError, map_rows, register_processor, string_rows
from .grok import _normalize_field_path
# module-level (NOT function-level): apply() runs on workers where the
# by-value-shipped package cannot be imported lazily
from .painless import (
    Interpreter,
    LazyColumns,
    PainlessError,
    RowCtx,
    compile_painless,
    default_builtins,
)

_MUSTACHE = re.compile(r"\{\{\{?([^}]+?)\}?\}\}")


def render_template(template, batch: ColumnBatch, mask: np.ndarray) -> list | None:
    """Render a mustache-ish template (``{{field}}`` / ``{{{field}}}``)
    on the rows ``mask`` selects: one string per row, in row order.
    Returns None if the template is a plain literal (caller can use the
    scalar fast path)."""
    parts = _MUSTACHE.split(template) if isinstance(template, str) else []
    if len(parts) < 2:
        return None
    # parts = [lit, field, lit, field, ..., lit]
    field_vals = [
        batch.read_rows(_normalize_field_path(parts[j].strip()), mask, stringify=True)[1]
        for j in range(1, len(parts), 2)
    ]
    out = []
    for vals in zip(*field_vals):
        buf = [parts[0]]
        for v, lit in zip(vals, parts[2::2]):
            buf += ("" if v is None else v, lit)
        out.append("".join(buf))
    return out


def _resolve_field(name: str) -> str:
    """Map ES doc-metadata paths to engine-private columns."""
    f = _normalize_field_path(name)
    if f == "_index":
        return META_INDEX
    return f


class SetKernel(Kernel):
    failure_message = "set processor failed"

    def __init__(self, config: dict):
        self.field = _resolve_field(config.get("field", ""))
        if not self.field:
            raise KernelCompileError("set: requires [field]")
        self.copy_from = config.get("copy_from")
        self.value = config.get("value")
        if self.copy_from is None and "value" not in config:
            raise KernelCompileError("set: requires [value] or [copy_from]")
        self.override = bool(config.get("override", True))
        self.ignore_empty_value = bool(config.get("ignore_empty_value", False))

    def output_fields(self) -> list[str]:
        return [self.field]

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        m = mask
        if not self.override:
            m = m & ~batch.valid_mask(self.field)
            if not m.any():
                return None
        if self.copy_from is not None:
            src = _resolve_field(self.copy_from)
            # ES applies ignore_empty_value to copy_from too: quietly
            # exit on a missing/null/empty source; without it a null
            # source is a per-row error (never copied silently)
            if not batch.has(src):
                return None if self.ignore_empty_value else m.copy()
            rows, vals = batch.read_rows(src, m)
            if self.ignore_empty_value:
                keep = [not (v is None or v == "" or (isinstance(v, list) and not v)) for v in vals]
            else:
                keep = [v is not None for v in vals]
            keep = np.array(keep, dtype=bool)
            batch.copy_rows(src, self.field, rows[keep])
            if self.ignore_empty_value or keep.all():
                return None
            err = np.zeros(batch.n, dtype=bool)
            err[rows[~keep]] = True
            return err
        rendered = render_template(self.value, batch, m)
        if rendered is None:
            if self.ignore_empty_value and (self.value is None or self.value == ""):
                return None
            batch.set_scalar(self.field, self.value, m)
            return None
        rows = np.flatnonzero(m)
        if self.ignore_empty_value:
            rows = rows[np.array([bool(v) for v in rendered], dtype=bool)]
            rendered = [v for v in rendered if v]
        batch.write_rows(self.field, rows, rendered)
        return None


@register_processor("set")
def _set_factory(config):
    return SetKernel(config)


class AppendKernel(Kernel):
    failure_message = "append processor failed"

    def __init__(self, config: dict):
        self.field = _resolve_field(config.get("field", ""))
        if not self.field or "value" not in config:
            raise KernelCompileError("append: requires [field] and [value]")
        v = config["value"]
        self.values = v if isinstance(v, list) else [v]
        self.allow_duplicates = bool(config.get("allow_duplicates", True))

    def output_fields(self) -> list[str]:
        return [self.field]

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        rendered_cols = [render_template(v, batch, mask) for v in self.values]
        rows, cur = batch.read_rows(self.field, mask)
        out = []
        for j, base in enumerate(cur):
            lst = [] if base is None else list(base) if isinstance(base, list) else [base]
            for v, rendered in zip(self.values, rendered_cols):
                val = v if rendered is None else rendered[j]
                if self.allow_duplicates or val not in lst:
                    lst.append(val)
            out.append(lst)
        batch.write_rows(self.field, rows, out)
        return None


@register_processor("append")
def _append_factory(config):
    return AppendKernel(config)


class RemoveKernel(Kernel):
    def __init__(self, config: dict):
        field = config.get("field")
        if field is None:
            raise KernelCompileError("remove: requires [field]")
        self.fields = [_resolve_field(f) for f in (field if isinstance(field, list) else [field])]
        self.ignore_missing = bool(config.get("ignore_missing", False))
        self.failure_message = f"field [{self.fields[0]}] not present as part of path [{self.fields[0]}]"

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        err = np.zeros(batch.n, dtype=bool)
        for f in self.fields:
            valid = batch.valid_mask(f)
            if not self.ignore_missing:
                err |= mask & ~valid
            hit = mask & valid & ~err
            if not batch.has(f):
                continue
            if bool(mask.all()) and not err.any():
                batch.drop(f)
            elif hit.any():
                batch.write_rows(f, np.flatnonzero(hit), pa.nulls(int(hit.sum())))
        return err if err.any() else None


@register_processor("remove")
def _remove_factory(config):
    return RemoveKernel(config)


class RenameKernel(Kernel):
    failure_message = "rename processor failed"

    def __init__(self, config: dict):
        self.field = _resolve_field(config.get("field", ""))
        self.target = _resolve_field(config.get("target_field", ""))
        if not self.field or not self.target:
            raise KernelCompileError("rename: requires [field] and [target_field]")
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def output_fields(self) -> list[str]:
        return [self.target]

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        valid = batch.valid_mask(self.field)
        err = np.zeros(batch.n, dtype=bool)
        if not self.ignore_missing:
            err |= mask & ~valid
        # error if target already has a value on those rows (ES semantics)
        err |= mask & valid & batch.valid_mask(self.target)
        move = mask & valid & ~err
        if move.any():
            rows = np.flatnonzero(move)
            batch.copy_rows(self.field, self.target, rows)
            if bool(mask.all()) and not err.any():
                batch.drop(self.field)
            else:
                batch.write_rows(self.field, rows, pa.nulls(len(rows)))
        return err if err.any() else None


@register_processor("rename")
def _rename_factory(config):
    return RenameKernel(config)


class _StringOpKernel(Kernel):
    """uppercase / lowercase / trim — vectorized Arrow fast path, and
    element-wise over list fields (spec:592-614 exercises lists)."""

    def __init__(self, config: dict, op: str):
        self.field = _resolve_field(config.get("field", ""))
        if not self.field:
            raise KernelCompileError(f"{op}: requires [field]")
        self.target = _resolve_field(config.get("target_field") or "") or self.field
        self.ignore_missing = bool(config.get("ignore_missing", False))
        self.op = op
        self.failure_message = f"{op} processor failed"
        self._py = {"uppercase": str.upper, "lowercase": str.lower, "trim": str.strip}[op]
        self._pc = {"uppercase": pc.utf8_upper, "lowercase": pc.utf8_lower, "trim": pc.utf8_trim_whitespace}[op]

    def output_fields(self) -> list[str]:
        return [self.target]

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        fn = self._py
        return map_rows(batch, self.field, self.target, mask,
                        lambda v: [fn(x) for x in v] if isinstance(v, list) else fn(v),
                        self.ignore_missing, self._pc)


@register_processor("uppercase")
def _uppercase_factory(config):
    return _StringOpKernel(config, "uppercase")


@register_processor("lowercase")
def _lowercase_factory(config):
    return _StringOpKernel(config, "lowercase")


@register_processor("trim")
def _trim_factory(config):
    return _StringOpKernel(config, "trim")


class GsubKernel(Kernel):
    """Regex replace, element-wise over list fields too (spec:471-494:
    ``["kit//.ten","dog//.gy"]`` with pattern ``//.`` → ``kit-ten``...).
    Vectorized via ``pc.replace_substring_regex`` on plain string
    columns."""

    failure_message = "gsub processor failed"

    def __init__(self, config: dict):
        self.field = _resolve_field(config.get("field", ""))
        pattern = config.get("pattern")
        replacement = config.get("replacement")
        if not self.field or pattern is None or replacement is None:
            raise KernelCompileError("gsub: requires [field], [pattern], [replacement]")
        self.pattern = pattern
        # ES replacements use Java Matcher semantics: $1..$9 reference
        # capture groups; translate to backslash refs for re/RE2
        self.replacement = re.sub(r"\$(\d)", r"\\\1", replacement)
        self.rx = re.compile(pattern)
        self.target = _resolve_field(config.get("target_field") or "") or self.field
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def output_fields(self) -> list[str]:
        return [self.target]

    def _sub(self, v):
        if isinstance(v, list):
            return [self.rx.sub(self.replacement, str(x)) for x in v]
        if isinstance(v, str):
            return self.rx.sub(self.replacement, v)
        raise TypeError(f"gsub: cannot replace in {type(v).__name__}")

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        return map_rows(batch, self.field, self.target, mask, self._sub, self.ignore_missing,
                        lambda col: pc.replace_substring_regex(
                            col, pattern=self.pattern, replacement=self.replacement))


@register_processor("gsub")
def _gsub_factory(config):
    return GsubKernel(config)


class SplitKernel(Kernel):
    failure_message = "split processor failed"

    def __init__(self, config: dict):
        self.field = _resolve_field(config.get("field", ""))
        sep = config.get("separator")
        if not self.field or sep is None:
            raise KernelCompileError("split: requires [field] and [separator]")
        # ES split treats the separator as a regex (Java String.split)
        try:
            self.sep = re.compile(sep)
        except re.error as e:
            raise KernelCompileError(f"split: invalid separator regex {sep!r}: {e}") from e
        self.target = _resolve_field(config.get("target_field") or "") or self.field
        self.preserve_trailing = bool(config.get("preserve_trailing", False))
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def output_fields(self) -> list[str]:
        return [self.target]

    def _split(self, v):
        if not isinstance(v, str):
            raise TypeError(f"split: not a string: {type(v).__name__}")
        parts = self.sep.split(v)
        if not self.preserve_trailing:
            while parts and parts[-1] == "":
                parts.pop()
        return parts

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        return map_rows(batch, self.field, self.target, mask, self._split, self.ignore_missing)


@register_processor("split")
def _split_factory(config):
    return SplitKernel(config)


class JoinKernel(Kernel):
    failure_message = "join processor failed"

    def __init__(self, config: dict):
        self.field = _resolve_field(config.get("field", ""))
        self.sep = config.get("separator")
        if not self.field or self.sep is None:
            raise KernelCompileError("join: requires [field] and [separator]")
        self.target = _resolve_field(config.get("target_field") or "") or self.field

    def output_fields(self) -> list[str]:
        return [self.target]

    def _join(self, v):
        if not isinstance(v, list):
            raise TypeError(f"join: not a list: {type(v).__name__}")
        return self.sep.join(str(x) for x in v)

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        return map_rows(batch, self.field, self.target, mask, self._join)


@register_processor("join")
def _join_factory(config):
    return JoinKernel(config)


class SortKernel(Kernel):
    """Sorts a *list field* within each document (NOT a dataset sort —
    spec:838-858, e.g. ``[8,4,3,2,1]`` desc)."""

    failure_message = "sort processor failed"

    def __init__(self, config: dict):
        self.field = _resolve_field(config.get("field", ""))
        if not self.field:
            raise KernelCompileError("sort: requires [field]")
        order = config.get("order", "asc")
        if order not in ("asc", "desc"):
            raise KernelCompileError(f"sort: invalid order [{order}]")
        self.desc = order == "desc"
        self.target = _resolve_field(config.get("target_field") or "") or self.field

    def _sort(self, v):
        if not isinstance(v, list):
            raise TypeError(f"sort: not a list: {type(v).__name__}")
        return sorted(v, reverse=self.desc)

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        return map_rows(batch, self.field, self.target, mask, self._sort)


@register_processor("sort")
def _sort_factory(config):
    return SortKernel(config)


class DotExpanderKernel(Kernel):
    """``"a.b": v`` → ``{"a": {"b": v}}`` (spec:335-358).

    In this engine's columnar layout a literal flat key ``a.b`` and the
    nested path ``a.b`` are the SAME dotted column, so expansion is a
    true no-op in flight; nested renderers (``sources/render.py``)
    re-nest every dotted column at the edge.  The kernel exists so
    pipelines using it compile and validate."""

    failure_message = "dot_expander failed"

    def __init__(self, config: dict):
        field = config.get("field")
        if field is None:
            raise KernelCompileError("dot_expander: requires [field]")
        self.field = str(field)
        self.path = config.get("path")

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        return None


@register_processor("dot_expander")
def _dot_expander_factory(config):
    return DotExpanderKernel(config)


_FP_METHODS = {
    "MD5": hashlib.md5,
    "SHA-1": hashlib.sha1,
    "SHA-256": hashlib.sha256,
    "SHA-512": hashlib.sha512,
}


def _fp_traverse(h, v) -> None:
    """The vendored ES fingerprint byte layout, reverse-engineered from
    the spec's pinned digest (spec:393-413: field ``animal`` =
    ``{name: piggy, age: 2, color: pink}`` → SHA-1 base64
    ``XqSwreW5FVPwjCF9pB7tzX6fQBs=``): map entries sorted by key, each
    written as ``\\x00 key \\x00 value``; strings UTF-8; integers as
    8-byte LITTLE-endian; the field name itself is not hashed."""
    import struct

    if isinstance(v, dict):
        for k in sorted(v):
            h.update(b"\x00" + str(k).encode() + b"\x00")
            _fp_traverse(h, v[k])
    elif isinstance(v, (list, tuple)):
        for x in v:
            _fp_traverse(h, x)
    elif isinstance(v, bool):
        h.update(b"\x01" if v else b"\x00")
    elif isinstance(v, int):
        h.update(struct.pack("<q", v))
    elif isinstance(v, float):
        h.update(struct.pack("<d", v))
    elif isinstance(v, bytes):
        h.update(v)
    elif v is not None:
        h.update(str(v).encode())


class FingerprintKernel(Kernel):
    """Hash selected fields → deterministic fingerprint (spec:393-413;
    byte layout matches the spec's pinned SHA-1 digest exactly)."""

    failure_message = "fingerprint processor failed"

    def __init__(self, config: dict):
        fields = config.get("fields")
        if not fields:
            raise KernelCompileError("fingerprint: requires [fields]")
        self.fields = [_resolve_field(f) for f in fields]
        self.target = _resolve_field(config.get("target_field") or "fingerprint")
        self.salt = config.get("salt", "")
        method = config.get("method", "SHA-1")
        if method not in _FP_METHODS:
            raise KernelCompileError(f"fingerprint: unsupported method [{method}]")
        self.hasher = _FP_METHODS[method]
        self.encoding = config.get("encoding", "base64")  # engine extension: "hex"
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def output_fields(self) -> list[str]:
        return [self.target]

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        rows = np.flatnonzero(mask)
        # per field: its values, and those of its dotted children (a
        # nested map field stored as dotted columns)
        cols = [(batch.read_rows(f, mask)[1],
                 [(c[len(f) + 1:], batch.read_rows(c, mask)[1]) for c in batch.children(f)])
                for f in self.fields]
        err = np.zeros(batch.n, dtype=bool)
        ok_rows, out = [], []
        for j, i in enumerate(rows.tolist()):
            h = self.hasher()
            if self.salt:
                h.update(str(self.salt).encode())
            any_field = False
            for vals, children in cols:
                v = vals[j]
                if v is None:
                    if not children:
                        err[i] |= not self.ignore_missing
                        continue
                    v = {name: cvals[j] for name, cvals in children}
                any_field = True
                _fp_traverse(h, v)
            if not any_field and not self.ignore_missing:
                err[i] = True
            if err[i] or not any_field:
                continue
            digest = h.digest()
            ok_rows.append(i)
            out.append(digest.hex() if self.encoding == "hex" else base64.b64encode(digest).decode())
        batch.write_rows(self.target, np.array(ok_rows, dtype=np.int64), out)
        return err if err.any() else None


@register_processor("fingerprint")
def _fingerprint_factory(config):
    return FingerprintKernel(config)


class ForeachKernel(Kernel):
    """Run a sub-processor over each element of a list field
    (spec:416-441).  The sub-processor sees the element as
    ``_ingest._value``."""

    failure_message = "foreach processor failed"

    def __init__(self, config: dict):
        from . import build_kernel  # late import to avoid cycle

        self.field = _resolve_field(config.get("field", ""))
        proc = config.get("processor")
        if not self.field or not proc or len(proc) != 1:
            raise KernelCompileError("foreach: requires [field] and exactly one [processor]")
        ptype, pconf = next(iter(proc.items()))
        self.sub = build_kernel(ptype, pconf)
        self.ignore_missing = bool(config.get("ignore_missing", False))

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        def each(v):
            if not isinstance(v, list):
                raise TypeError(f"foreach: not a list: {type(v).__name__}")
            sub_batch = ColumnBatch(num_rows=len(v))
            sub_batch.set("_ingest._value", list(v))
            sub_err = self.sub.apply(sub_batch, np.ones(len(v), dtype=bool), state)
            if sub_err is not None and sub_err.any():
                raise ValueError("foreach: the processor failed on an element")
            return list(sub_batch.objects("_ingest._value"))

        return map_rows(batch, self.field, self.field, mask, each, self.ignore_missing)


@register_processor("foreach")
def _foreach_factory(config):
    return ForeachKernel(config)


_ASSIGN = re.compile(r"^\s*ctx(\??\.|\[)")


class ScriptKernel(Kernel):
    """``script`` processor — two execution tiers.

    1. **Vectorized expression DSL** (fast path): ``;``-separated
       ``ctx.path = <expr>`` assignments and typed local declarations,
       where ``<expr>`` is the painless-subset expression grammar of
       :mod:`..conditions` — evaluated column-at-a-time.
    2. **Painless statement interpreter** (fallback): scripts with
       control flow (``if``/``else``, ``for``, ``for-each``,
       ``while``), list/map literals, ``containsKey``/``remove``/
       ``put`` and Java string/list/map methods compile to a statement
       AST (:mod:`.painless`) and run per row — loops are inherently
       per-row; everything else in the engine stays vectorized.

    Scripts neither tier can compile still fail pipeline compilation
    loudly (reference restriction docs/index.asciidoc:192).
    """

    failure_message = "script processor failed"

    _LOCAL_DECL = re.compile(
        r"^(?:def|var|int|long|double|float|boolean|String|Object)\s+([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.+)$",
        re.S,
    )
    _PARAM_REF = re.compile(r"params(?:\[['\"]([^'\"]+)['\"]\]|\.([A-Za-z_][A-Za-z_0-9]*))")

    def __init__(self, config: dict):
        lang = config.get("lang", "painless")
        if lang != "painless":
            raise KernelCompileError(f"script: only painless supported, got [{lang}]")
        raw_source = config.get("source") or config.get("inline")
        if not raw_source:
            raise KernelCompileError("script: requires inline [source] (stored scripts unsupported)")
        self.params = config.get("params") or {}

        self.interp = None
        self.statements: list[tuple[str, str, object]] = []
        try:
            self.statements = self._compile_vectorized(str(raw_source))
        except KernelCompileError as vec_err:
            try:
                ast = compile_painless(str(raw_source))
            except PainlessError as e:
                raise KernelCompileError(
                    f"script: not compilable by the vectorized DSL ({vec_err}) "
                    f"nor the painless interpreter ({e})"
                ) from e
            self.interp = Interpreter(ast, default_builtins())

    def _compile_vectorized(self, source: str) -> list:
        import json as _json

        params = self.params

        # substitute params['x'] / params.x with literals at compile time
        def sub_param(m: re.Match) -> str:
            key = m.group(1) or m.group(2)
            if key not in params:
                raise KernelCompileError(f"script: unknown param [{key}]")
            v = params[key]
            if isinstance(v, str):
                return "'" + v.replace("\\", "\\\\").replace("'", "\\'") + "'"
            return _json.dumps(v)

        source = self._PARAM_REF.sub(sub_param, source)

        #: list of ("local", name, expr) | ("field", path, expr)
        statements: list[tuple[str, str, object]] = []
        for stmt in source.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            if _ASSIGN.match(stmt):
                lhs, _, rhs = stmt.partition("=")
                if rhs.startswith("="):
                    raise KernelCompileError(f"script: unsupported statement {stmt!r}")
                path = lhs.strip()[3:].lstrip("?.")
                if path.startswith("["):
                    parts = re.findall(r"\[['\"]([^'\"]+)['\"]\]", path)
                    field = ".".join(parts)
                else:
                    field = path.replace("?.", ".")
                kind, name = "field", _resolve_field(field)
            else:
                m = self._LOCAL_DECL.match(stmt)
                if not m:
                    raise KernelCompileError(
                        f"script: unsupported statement {stmt!r} — the expression DSL supports "
                        f"`ctx.field = expr` assignments and typed local declarations only"
                    )
                kind, name = "local", m.group(1)
                rhs = m.group(2)
            try:
                expr = compile_value_expr(rhs.strip())
            except ValueError as e:
                raise KernelCompileError(f"script: cannot compile expression {rhs.strip()!r}: {e}") from e
            self._validate_vectorized_ast(expr._ast)
            statements.append((kind, name, expr))
        return statements

    # methods the conditions evaluator implements; anything else (e.g.
    # containsKey, substring) must NOT silently evaluate to null in the
    # vectorized tier — reject so the script falls to the interpreter
    _VEC_METHODS = frozenset({
        "equals", "contains", "startsWith", "endsWith", "isEmpty",
        "length", "size", "toLowerCase", "toUpperCase",
    })

    def _validate_vectorized_ast(self, node) -> None:
        kind = getattr(node, "kind", None)
        if kind == "method" and node.value not in self._VEC_METHODS:
            raise KernelCompileError(
                f"script: method {node.value!r} is not vectorizable — interpreter tier required"
            )
        if kind == "call" and tuple(node.value) not in _BUILTIN_CALLS:
            # `local.method(args)` parses as a namespace call in the
            # conditions grammar; only real builtins run vectorized
            raise KernelCompileError(
                f"script: call {node.value!r} is not vectorizable — interpreter tier required"
            )
        for ch in getattr(node, "children", ()) or ():
            self._validate_vectorized_ast(ch)

    def output_fields(self) -> list[str]:
        return [n for k, n, _ in self.statements if k == "field"]

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        if self.interp is not None:
            return self._apply_interpreted(batch, mask)
        env: dict[str, np.ndarray] = {}
        rows = np.flatnonzero(mask)
        for kind, name, expr in self.statements:
            vals = expr.evaluate(batch, env)
            if kind == "local":
                env[name] = vals
            else:
                batch.write_rows(name, rows, vals[rows].tolist())
        return None

    def _apply_interpreted(self, batch: ColumnBatch, mask: np.ndarray) -> np.ndarray | None:
        cols = LazyColumns(batch)  # convert only the columns the script touches
        err = np.zeros(batch.n, dtype=bool)
        writes: dict[str, tuple[list, list]] = {}  # path -> (rows, values)
        base_env = {"params": self.params}
        for i in np.flatnonzero(mask).tolist():
            rc = RowCtx(cols, i, _resolve_field)
            try:
                self.interp.run_row(rc, base_env)
            except Exception:
                err[i] = True
                continue
            for path, v in rc.writes.items():
                rows, vals = writes.setdefault(path, ([], []))
                rows.append(i)
                vals.append(v)
        for path, (rows, vals) in writes.items():
            batch.write_rows(path, np.array(rows, dtype=np.int64), vals)
        return err if err.any() else None


@register_processor("script")
def _script_factory(config):
    return ScriptKernel(config)


class TranslateKernel(Kernel):
    """Dictionary / regex-dictionary lookup — the Logstash `translate`
    filter shape as a registry-extension processor (the reference's
    supported set has no lookup processor beyond enrich-by-key; this
    covers the "map this code/pattern to a label" config users port
    from translate, logstash-patterns README:translate).

    Modes:

    - exact (default): the source value keys a plain dict — ONE
      vectorized dictionary-encode + table lookup per batch, so a
      million repeats of one value cost one probe.
    - ``regex: true``: dictionary keys are RE2 regexes tried IN ORDER,
      first (unanchored) match wins — K ``match_substring_regex``
      masks per batch, never a per-row loop.

    No match → ``default`` when configured, else the target is left
    unset.  A lookup miss is NOT a failure (translate is enrichment,
    not parsing); a MISSING source field is, unless ``ignore_missing``
    (the parse-family convention)."""

    failure_message = "translate processor failed"

    def __init__(self, config: dict):
        self.field = _resolve_field(config.get("field", ""))
        self.target = _resolve_field(config.get("target_field", ""))
        if not self.field or not self.target:
            raise KernelCompileError("translate: requires [field] and [target_field]")
        d = config.get("dictionary")
        if not isinstance(d, dict) or not d:
            raise KernelCompileError("translate: requires a non-empty [dictionary]")
        self.rules = [(str(k), str(v)) for k, v in d.items()]
        self.regex = bool(config.get("regex", False))
        self.default = config.get("default")
        if self.default is not None:
            self.default = str(self.default)
        self.ignore_missing = bool(config.get("ignore_missing", False))
        if self.regex:
            self.compiled = []
            for k, v in self.rules:
                try:
                    re.compile(k)
                except re.error as e:
                    raise KernelCompileError(f"translate: bad regex {k!r}: {e}")
                self.compiled.append((k, v))
        else:
            self.table = dict(self.rules)

    def output_fields(self) -> list[str]:
        return [self.target]

    def apply(self, batch: ColumnBatch, mask: np.ndarray, state) -> np.ndarray | None:
        present = batch.valid_mask(self.field)
        err = mask & ~present if not self.ignore_missing else np.zeros(batch.n, dtype=bool)
        rows = np.flatnonzero(mask & present)
        if len(rows):
            arr = string_rows(batch, self.field, mask & present)
            if self.regex:
                out = pa.nulls(len(arr), pa.string())
                for pat, val in self.compiled:
                    hit = pc.and_(pc.match_substring_regex(arr, pat), pc.is_null(out))
                    out = pc.if_else(hit, val, out)
            else:
                # probe once per DISTINCT value: dictionary-encode, map
                # the (small) dictionary through the table, gather
                de = arr.dictionary_encode()
                mapped = [self.table.get(v) for v in de.dictionary.to_pylist()]
                out = pa.array(mapped, type=pa.string()).take(de.indices)
            if self.default is not None:
                out = pc.fill_null(out, self.default)
            resolved = np.asarray(pc.is_valid(out))
            batch.write_rows(self.target, rows[resolved], out.filter(pa.array(resolved)))
        return err if err.any() else None


@register_processor("translate")
def _translate_factory(config):
    return TranslateKernel(config)
