"""Painless-subset condition compiler.

Every ingest processor accepts an ``if`` parameter holding a Painless
expression evaluated per document (reference: conditionals are gated by
``ConditionalProcessor`` in Elasticsearch; the reroute fixture corpus
uses forms like ``ctx?.id?.equals('reroute-hardcoded-none')`` —
``/root/reference/src/test/resources/co/elastic/logstash/filters/elasticintegration/reroute-pipelines/logs-test-smoke-pipeline.json:13-62``).

Full Painless is out of scope (documented gap, mirroring the reference's
own restriction that ``script`` must be painless —
``/root/reference/docs/index.asciidoc:192``).  This module compiles the
practically-used subset to a **vectorized** predicate over a
:class:`~.model.ColumnBatch`:

- field refs: ``ctx.a.b``, ``ctx?.a?.b``, ``ctx['a']['b']``
- literals: single/double-quoted strings, ints, floats, true/false/null
- comparisons: ``== != < <= > >=``
- methods: ``.equals(x) .contains(x) .startsWith(x) .endsWith(x)
  .isEmpty() .length()``
- boolean: ``&& || !`` and parentheses
- containment: ``x in [..]`` is not painless; omitted.

Null-safe access (``?.``) and plain access both evaluate missing fields
to null; a null compared with ``==``/``!=`` behaves like Java reference
equality, and any other comparison with null is false (matching painless
runtime semantics closely enough for the conformance corpus).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .model import ColumnBatch

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<num>\d+\.\d+|\d+)
      | (?P<str>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
      | (?P<op>\?\.|==|!=|<=|>=|&&|\|\||[()\[\].!<>,+*/%=-])
      | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    )""",
    re.X,
)


def _tokenize(src: str) -> list[str]:
    out, pos = [], 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            if src[pos:].strip() == "":
                break
            raise ValueError(f"cannot tokenize condition at: {src[pos:]!r}")
        out.append(m.group().strip())
        pos = m.end()
    return out


@dataclass
class _Node:
    kind: str  # 'field' | 'lit' | 'cmp' | 'and' | 'or' | 'not' | 'method'
    value: object = None
    children: tuple = ()


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def eat(self, expect: str | None = None) -> str:
        t = self.peek()
        if t is None or (expect is not None and t != expect):
            raise ValueError(f"condition parse error: expected {expect!r}, got {t!r}")
        self.i += 1
        return t

    def parse(self) -> _Node:
        node = self.parse_or()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens in condition: {self.toks[self.i:]}")
        return node

    def parse_or(self) -> _Node:
        left = self.parse_and()
        while self.peek() == "||":
            self.eat()
            left = _Node("or", children=(left, self.parse_and()))
        return left

    def parse_and(self) -> _Node:
        left = self.parse_cmp()
        while self.peek() == "&&":
            self.eat()
            left = _Node("and", children=(left, self.parse_cmp()))
        return left

    def parse_cmp(self) -> _Node:
        left = self.parse_add()
        t = self.peek()
        if t in ("==", "!=", "<", "<=", ">", ">="):
            self.eat()
            right = self.parse_add()
            return _Node("cmp", value=t, children=(left, right))
        return left

    def parse_add(self) -> _Node:
        left = self.parse_mul()
        while self.peek() in ("+", "-"):
            op = self.eat()
            left = _Node("arith", value=op, children=(left, self.parse_mul()))
        return left

    def parse_mul(self) -> _Node:
        left = self.parse_unary()
        while self.peek() in ("*", "/", "%"):
            op = self.eat()
            left = _Node("arith", value=op, children=(left, self.parse_unary()))
        return left

    def parse_unary(self) -> _Node:
        if self.peek() == "!":
            self.eat()
            return _Node("not", children=(self.parse_unary(),))
        if self.peek() == "-":
            self.eat()
            return _Node("arith", value="-", children=(_Node("lit", value=0), self.parse_unary()))
        return self.parse_primary()

    def parse_primary(self) -> _Node:
        t = self.peek()
        if t == "(":
            self.eat()
            node = self.parse_or()
            self.eat(")")
            return self.parse_postfix(node)
        if t is None:
            raise ValueError("unexpected end of condition")
        if re.fullmatch(r"\d+\.\d+", t):
            self.eat()
            return _Node("lit", value=float(t))
        if re.fullmatch(r"\d+", t):
            self.eat()
            return _Node("lit", value=int(t))
        if t[0] in "'\"":
            self.eat()
            body = t[1:-1]
            body = body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")
            return _Node("lit", value=body)
        if t in ("true", "false"):
            self.eat()
            return _Node("lit", value=(t == "true"))
        if t == "null":
            self.eat()
            return _Node("lit", value=None)
        if t is not None and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", t) and t not in ("ctx",):
            # namespace call (Processors.bytes(...), Math.abs(...)) or a
            # script-local variable reference
            self.eat()
            if self.peek() == "." and self.i + 2 < len(self.toks) and self.toks[self.i + 2] == "(":
                self.eat(".")
                fname = self.eat()
                self.eat("(")
                args = []
                if self.peek() != ")":
                    args.append(self.parse_or())
                    while self.peek() == ",":
                        self.eat()
                        args.append(self.parse_or())
                self.eat(")")
                return _Node("call", value=(t, fname), children=tuple(args))
            return _Node("var", value=t)
        if t == "ctx":
            self.eat()
            path = []
            while self.peek() in (".", "?.", "["):
                sep = self.eat()
                if sep == "[":
                    key = self.eat()
                    if key[0] not in "'\"":
                        raise ValueError("only string subscripts supported")
                    path.append(key[1:-1])
                    self.eat("]")
                else:
                    word = self.peek()
                    # method call?  handled in postfix below
                    if word is not None and self.i + 1 < len(self.toks) and self.toks[self.i + 1] == "(":
                        self.i -= 1  # leave the separator for postfix
                        break
                    path.append(self.eat())
            return self.parse_postfix(_Node("field", value=".".join(path)))
        raise ValueError(f"unexpected token {t!r} in condition")

    def parse_postfix(self, node: _Node) -> _Node:
        while self.peek() in (".", "?."):
            self.eat()
            name = self.eat()
            self.eat("(")
            args = []
            if self.peek() != ")":
                args.append(self.parse_or())
                while self.peek() == ",":
                    self.eat()
                    args.append(self.parse_or())
            self.eat(")")
            node = _Node("method", value=name, children=(node, *args))
        return node


def _eval_values(node: _Node, batch: ColumnBatch, env: dict | None = None) -> np.ndarray:
    """Evaluate a value-producing node → numpy object array of length n."""
    if node.kind == "lit":
        out = np.empty(batch.n, dtype=object)
        out[:] = node.value
        return out
    if node.kind == "field":
        if batch.has(node.value):
            return batch.objects(node.value)
        return np.full(batch.n, None, dtype=object)
    if node.kind == "var":
        if env is not None and node.value in env:
            return env[node.value]
        out = np.empty(batch.n, dtype=object)
        out[:] = None
        return out
    if node.kind == "call":
        ns, fname = node.value
        args = [_eval_values(a, batch, env) for a in node.children]
        fn = _BUILTIN_CALLS.get((ns, fname))
        if fn is None:
            raise ValueError(f"unsupported call {ns}.{fname}() in expression")
        out = np.empty(batch.n, dtype=object)
        for i in range(batch.n):
            try:
                out[i] = fn(*[a[i] for a in args])
            except (ValueError, TypeError):
                out[i] = None
        return out
    if node.kind == "arith":
        lv = _eval_values(node.children[0], batch, env)
        rv = _eval_values(node.children[1], batch, env)
        op = node.value
        out = np.empty(batch.n, dtype=object)
        for i in range(batch.n):
            a, b = lv[i], rv[i]
            if a is None or b is None:
                out[i] = None
                continue
            try:
                if op == "+":
                    if isinstance(a, str) or isinstance(b, str):
                        out[i] = str(a) + str(b)
                    else:
                        out[i] = a + b
                elif op == "-":
                    out[i] = a - b
                elif op == "*":
                    out[i] = a * b
                elif op == "/":
                    if isinstance(a, float) or isinstance(b, float):
                        out[i] = a / b
                    else:
                        # Java/painless semantics (same as the script
                        # tier): integer division truncates toward zero
                        q = abs(a) // abs(b)
                        out[i] = -q if (a < 0) != (b < 0) else q
                elif op == "%":
                    if isinstance(a, float) or isinstance(b, float):
                        import math as _math

                        out[i] = _math.fmod(a, b)  # Java %: sign of dividend
                    else:
                        out[i] = a - (abs(a) // abs(b)) * (b if (a < 0) == (b < 0) else -b)
            except TypeError:
                out[i] = None
        return out
    if node.kind == "method":
        recv = _eval_values(node.children[0], batch, env)
        args = [_eval_values(a, batch, env) for a in node.children[1:]]
        name = node.value
        if name == "containsKey" and node.children[0].kind == "field" and args:
            # flattened-aware key presence: a dict-valued receiver is
            # checked directly; otherwise the resolved child column (or
            # any flattened grandchild) being non-null means present —
            # consistent with the vectorized fast path for literal keys
            recv_field = node.children[0].value
            keys = args[0]
            present: dict[str, np.ndarray] = {}  # key path -> rows where it is set
            out = np.empty(batch.n, dtype=object)
            for i in range(batch.n):
                k = keys[i]
                if isinstance(recv[i], dict):
                    out[i] = k in recv[i]
                    continue
                if k is None:
                    out[i] = False
                    continue
                path = f"{recv_field}.{k}" if recv_field else str(k)
                if path not in present:
                    m = batch.valid_mask(path)
                    for c in batch.children(path):
                        m = m | batch.valid_mask(c)
                    present[path] = m
                out[i] = bool(present[path][i])
            return out
        out = np.empty(batch.n, dtype=object)
        for i in range(batch.n):
            r = recv[i]
            if r is None:
                out[i] = None if name != "equals" else False
                continue
            try:
                if name == "equals":
                    out[i] = r == args[0][i]
                elif name == "containsKey":
                    out[i] = isinstance(r, dict) and args[0][i] in r
                elif name == "contains":
                    out[i] = args[0][i] in r
                elif name == "startsWith":
                    out[i] = isinstance(r, str) and r.startswith(args[0][i])
                elif name == "endsWith":
                    out[i] = isinstance(r, str) and r.endswith(args[0][i])
                elif name == "isEmpty":
                    out[i] = len(r) == 0
                elif name == "length":
                    out[i] = len(r)
                elif name == "size":
                    out[i] = len(r)
                elif name == "toLowerCase":
                    out[i] = r.lower() if isinstance(r, str) else None
                elif name == "toUpperCase":
                    out[i] = r.upper() if isinstance(r, str) else None
                else:
                    raise ValueError(f"unsupported method {name!r} in condition")
            except TypeError:
                out[i] = None
        return out
    raise ValueError(f"node {node.kind} does not produce a value")


_BYTES_EXPR_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*(b|kb|mb|gb|tb|pb)\s*$", re.I)
_BYTES_EXPR_MULT = {"b": 1, "kb": 1 << 10, "mb": 1 << 20, "gb": 1 << 30, "tb": 1 << 40, "pb": 1 << 50}


def _processors_bytes(v):
    """``Processors.bytes('1kb')`` — painless access to ingest-common
    helpers (SmokeTest exercises this via script; spec:784-810).
    Parsing is inlined (no package-relative import: this runs on
    workers where the by-value-shipped package is not importable)."""
    m = _BYTES_EXPR_RE.match(str(v))
    if not m:
        raise ValueError(f"failed to parse bytes [{v}]")
    return int(float(m.group(1)) * _BYTES_EXPR_MULT[m.group(2).lower()])


_BUILTIN_CALLS = {
    ("Processors", "bytes"): _processors_bytes,
    ("Processors", "lowercase"): lambda v: str(v).lower(),
    ("Processors", "uppercase"): lambda v: str(v).upper(),
    ("Processors", "trim"): lambda v: str(v).strip(),
    ("Math", "abs"): abs,
    ("Math", "min"): min,
    ("Math", "max"): max,
}


def _truthy(vals: np.ndarray) -> np.ndarray:
    return np.array([bool(v) if v is not None else False for v in vals], dtype=bool)


def _arrow_string_col(batch: ColumnBatch, name: str):
    """The column as an Arrow string array, if that's how it's stored."""
    col = batch._cols.get(name)
    if col is not None and not isinstance(col, np.ndarray):
        import pyarrow as pa

        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            return col
    return None


def _fast_bool(node: _Node, batch: ColumnBatch) -> np.ndarray | None:
    """Vectorized Arrow fast paths for the hot condition shapes:
    ``ctx.f == 'lit'``, ``!=``, ``.equals/.startsWith/.endsWith/
    .contains('lit')``, and null checks — avoids the per-row Python
    loop for the conditions that gate every batch in the flagship
    pipeline."""
    import pyarrow.compute as pc

    def field_lit(children):
        a, b = children
        if a.kind == "field" and b.kind == "lit":
            return a.value, b.value
        if b.kind == "field" and a.kind == "lit":
            return b.value, a.value
        return None

    if node.kind == "cmp" and node.value in ("==", "!="):
        fl = field_lit(node.children)
        if fl is not None:
            fname, lit = fl
            if lit is None:
                valid = batch.valid_mask(fname)
                return ~valid if node.value == "==" else valid
            if isinstance(lit, str):
                col = _arrow_string_col(batch, fname)
                if col is not None:
                    if node.value == "==":
                        # null == 'x' → false
                        return np.asarray(pc.fill_null(pc.equal(col, lit), False))
                    # null != 'x' → true (Java reference semantics)
                    return np.asarray(pc.fill_null(pc.not_equal(col, lit), True))
            if isinstance(lit, (int, float)) and not isinstance(lit, bool):
                col = batch._cols.get(fname)
                if col is not None and not isinstance(col, np.ndarray):
                    import pyarrow as pa

                    if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
                        if node.value == "==":
                            return np.asarray(pc.fill_null(pc.equal(col, lit), False))
                        return np.asarray(pc.fill_null(pc.not_equal(col, lit), True))
    if node.kind == "cmp" and node.value in ("<", "<=", ">", ">="):
        a, b = node.children
        if a.kind == "field" and b.kind == "lit" and isinstance(b.value, (int, float)) and not isinstance(b.value, bool):
            col = batch._cols.get(a.value)
            if col is not None and not isinstance(col, np.ndarray):
                import pyarrow as pa

                if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
                    op = {"<": pc.less, "<=": pc.less_equal, ">": pc.greater, ">=": pc.greater_equal}[node.value]
                    return np.asarray(pc.fill_null(op(col, b.value), False))
    if node.kind == "method" and node.value == "containsKey":
        recv, keyn = node.children[0], node.children[1] if len(node.children) > 1 else None
        if recv.kind == "field" and keyn is not None and keyn.kind == "lit" and isinstance(keyn.value, str):
            if recv.value and batch.has(recv.value):
                # the receiver column itself holds values (possibly
                # dicts) — only the slow path can check key membership
                # per row; a definitive mask here would be wrong
                return None
            # key presence in the columnar model: the resolved column
            # (or any flattened child column) is non-null on the row
            path = f"{recv.value}.{keyn.value}" if recv.value else keyn.value
            mask = batch.valid_mask(path)
            prefix = path + "."
            for c in batch.names():
                if c.startswith(prefix):
                    mask = mask | batch.valid_mask(c)
            return mask
    if node.kind == "method" and node.value in ("equals", "startsWith", "endsWith", "contains"):
        recv = node.children[0]
        if recv.kind == "field" and len(node.children) == 2 and node.children[1].kind == "lit":
            lit = node.children[1].value
            if isinstance(lit, str):
                col = _arrow_string_col(batch, recv.value)
                if col is not None:
                    if node.value == "equals":
                        r = pc.equal(col, lit)
                    elif node.value == "startsWith":
                        r = pc.starts_with(col, lit)
                    elif node.value == "endsWith":
                        r = pc.ends_with(col, lit)
                    else:
                        r = pc.match_substring(col, lit)
                    return np.asarray(pc.fill_null(r, False))
    return None


def _eval_bool(node: _Node, batch: ColumnBatch, env: dict | None = None) -> np.ndarray:
    fast = _fast_bool(node, batch)
    if fast is not None:
        return fast
    if node.kind == "and":
        return _eval_bool(node.children[0], batch, env) & _eval_bool(node.children[1], batch, env)
    if node.kind == "or":
        return _eval_bool(node.children[0], batch, env) | _eval_bool(node.children[1], batch, env)
    if node.kind == "not":
        return ~_eval_bool(node.children[0], batch, env)
    if node.kind == "cmp":
        op = node.value
        lv = _eval_values(node.children[0], batch, env)
        rv = _eval_values(node.children[1], batch, env)
        out = np.zeros(batch.n, dtype=bool)
        for i in range(batch.n):
            a, b = lv[i], rv[i]
            if op == "==":
                out[i] = a == b
            elif op == "!=":
                out[i] = a != b
            elif a is None or b is None:
                out[i] = False
            else:
                try:
                    if op == "<":
                        out[i] = a < b
                    elif op == "<=":
                        out[i] = a <= b
                    elif op == ">":
                        out[i] = a > b
                    elif op == ">=":
                        out[i] = a >= b
                except TypeError:
                    out[i] = False
        return out
    # value node used in boolean position
    return _truthy(_eval_values(node, batch, env))


class Condition:
    """A compiled painless-subset predicate; call → np.bool_ mask."""

    def __init__(self, source: str):
        self.source = source
        self._ast = _Parser(_tokenize(source)).parse()

    def evaluate(self, batch: ColumnBatch) -> np.ndarray:
        return _eval_bool(self._ast, batch)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Condition({self.source!r})"


def compile_condition(source: str | None) -> Condition | None:
    if source is None or str(source).strip() == "":
        return None
    return Condition(str(source))


class ValueExpr:
    """A compiled value expression (used by the ``script`` DSL subset);
    call → numpy object array of per-row values."""

    def __init__(self, source: str):
        self.source = source
        self._ast = _Parser(_tokenize(source)).parse()

    def evaluate(self, batch: ColumnBatch, env: dict | None = None) -> np.ndarray:
        ast = self._ast
        if ast.kind in ("and", "or", "not", "cmp"):
            vals = _eval_bool(ast, batch, env)
            out = np.empty(batch.n, dtype=object)
            out[:] = [bool(v) for v in vals]
            return out
        return _eval_values(ast, batch, env)


def compile_value_expr(source: str) -> ValueExpr:
    return ValueExpr(source)
