"""Painless-subset statement interpreter for the ``script`` processor.

The vectorized expression DSL (``mutate.ScriptKernel``) covers the
common ``ctx.f = expr`` scripts; THIS module is the fallback for real
integration-pipeline scripts — control flow (``if``/``else``,
``for``/``for-each``, ``while``), local variables, list/map literals,
``containsKey`` and the Java string/list/map methods painless exposes
(reference usage: script-processor-pipelines/pipeline.json,
SmokeTest.java:240-265, spec:754-810).

Execution model: the script compiles ONCE (per worker) to a statement
AST; rows that reach the processor are interpreted one at a time
against a row view of the columnar batch (reads resolve dotted column
paths, writes are collected and written back column-wise).  This is
deliberately the slow per-row path — scripts with loops are inherently
per-row — while everything else in the engine stays vectorized.

Approximation note: the columnar model cannot distinguish a missing
key from a null value per row, so ``containsKey(k)`` ≈ the resolved
value (or any child column) is non-null.
"""

from __future__ import annotations

import functools
import math
import re

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<num>\d+\.\d+(?:[eE][-+]?\d+)?[fFdD]?|\d+(?:[eE][-+]?\d+)[fFdD]?|\d+[lLfFdD]?)
      | (?P<str>'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*")
      | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>\+\+|--|->|::|\+=|-=|\*=|/=|==~|=~|==|!=|<=|>=|&&|\|\||\?\.|\?:|[-+*/%<>=!?:.,;(){}\[\]])
    )""",
    re.X,
)

_KEYWORDS = {"if", "else", "for", "while", "return", "break", "continue",
             "true", "false", "null", "in", "new", "instanceof"}
_TYPES = {"def", "var", "int", "long", "double", "float", "boolean",
          "byte", "short", "char",
          "String", "Object", "Map", "List", "ArrayList", "HashMap",
          "Set", "HashSet", "StringBuilder",
          # boxed primitives + the rest of the collections framework:
          # all legal in declaration / cast / new positions
          "Integer", "Long", "Double", "Float", "Boolean", "Character",
          "Number", "CharSequence", "LinkedList", "LinkedHashMap",
          "TreeMap", "LinkedHashSet", "TreeSet", "Collection",
          "Iterable"}

#: classes `new` accepts — anything else (incl. TreeMap/TreeSet, whose
#: SORTED iteration order dict/_JavaSet cannot honor) fails COMPILATION
#: loudly (mirroring the reference's unsupported-construct behavior,
#: docs/index.asciidoc:192) instead of silently building a wrong value
_NEW_CLASSES = {"StringBuilder", "String", "ArrayList", "LinkedList",
                "HashMap", "LinkedHashMap", "HashSet", "LinkedHashSet",
                "TreeMap", "TreeSet"}


class PainlessError(ValueError):
    pass


#: primitive casts CONVERT (Java numeric-conversion semantics, JLS 5.1.3:
#: float→integral truncates toward zero and SATURATES at the target
#: range, NaN → 0; integral narrowing WRAPS to the target width;
#: (char) yields the character).  Boxed/reference casts stay no-ops
#: (Java reference casts convert nothing).
_NUMERIC_CASTS = {"int", "long", "short", "byte", "char", "float", "double"}


def _wrap_int(v: int, bits: int) -> int:
    m = 1 << bits
    v &= m - 1
    return v - m if v >= (1 << (bits - 1)) else v


def _float_to_int_sat(x: float, bits: int) -> int:
    import math

    if math.isnan(x):
        return 0
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if x <= lo:
        return lo
    if x >= hi:
        return hi
    return int(x)  # truncates toward zero


def _numeric_cast(t: str, v):
    if v is None:
        raise PainlessError(f"cannot cast null to {t}")  # Java unboxing NPE
    if isinstance(v, bool) or isinstance(v, str):
        raise PainlessError(f"cannot cast {type(v).__name__} to {t}")
    if not isinstance(v, (int, float)):
        raise PainlessError(f"cannot cast {type(v).__name__} to {t}")
    if t in ("float", "double"):
        return float(v)
    if isinstance(v, float):
        base = _float_to_int_sat(v, 64 if t == "long" else 32)
    else:
        base = v
    if t == "long":
        return _wrap_int(base, 64)
    if t == "int":
        return _wrap_int(base, 32)
    if t == "short":
        return _wrap_int(base, 16)
    if t == "byte":
        return _wrap_int(base, 8)
    # char: narrowing to the unsigned 16-bit code unit, then the character
    return chr(base & 0xFFFF)


class _JavaSet:
    """java.util.Set modelled over an insertion-ordered backing list with
    EQUALITY membership (``==``), so unhashable elements (maps, lists)
    dedup the way Java's equals()-based sets do.  Per-row sets are tiny,
    so the O(n) membership scan is irrelevant.  Stored into ctx it
    serializes as a plain list (see RowCtx.put)."""

    __slots__ = ("items",)

    def __init__(self, items=None):
        self.items: list = []
        for x in items or []:
            if x not in self.items:
                self.items.append(x)

    def add(self, v) -> bool:
        if v in self.items:
            return False
        self.items.append(v)
        return True

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __contains__(self, v):
        return v in self.items

    def __eq__(self, other):
        if isinstance(other, _JavaSet):
            other = other.items
        if not isinstance(other, list):
            return NotImplemented
        return len(self.items) == len(other) and all(x in other for x in self.items)

    __hash__ = None  # mutable, like java.util.HashSet


class _JavaTreeSet(_JavaSet):
    """java.util.TreeSet: equality membership like :class:`_JavaSet`,
    but ITERATION follows natural sorted order.  Mutually incomparable
    elements raise (Java throws ClassCastException at insertion; here
    the raise surfaces at first iteration — same loud contract)."""

    def __iter__(self):
        try:
            return iter(sorted(self.items))
        except TypeError as ex:
            raise PainlessError(
                f"TreeSet elements not mutually comparable: {ex}")


class _JavaTreeMap(dict):
    """java.util.TreeMap: a dict whose key/value/entry iteration
    follows natural sorted key order.  All dict mutation paths (the
    interpreter's put/merge/compute methods use item assignment) work
    unchanged; only the view methods re-order."""

    def _order(self):
        try:
            return sorted(super().keys())
        except TypeError as ex:
            raise PainlessError(
                f"TreeMap keys not mutually comparable: {ex}")

    def __iter__(self):
        return iter(self._order())

    def keys(self):  # type: ignore[override]
        return self._order()

    def values(self):  # type: ignore[override]
        return [self[k] for k in self._order()]

    def items(self):  # type: ignore[override]
        return [(k, self[k]) for k in self._order()]


class _JavaStringBuilder:
    """java.lang.StringBuilder over a Python list of chunks; appends
    return self (Java chaining).  Stored into ctx it serializes as its
    ``toString()`` (see _sanitize_ctx_value)."""

    __slots__ = ("chunks",)

    def __init__(self, init=None):
        # new StringBuilder(int) is a CAPACITY hint in Java, not content
        if init is None or (isinstance(init, int) and not isinstance(init, bool)):
            self.chunks: list[str] = []
        else:
            self.chunks = [_to_jstr(init)]

    def build(self) -> str:
        if len(self.chunks) > 1:
            self.chunks = ["".join(self.chunks)]
        return self.chunks[0] if self.chunks else ""


def _unique(items: list) -> list:
    """Insertion-ordered unique; equality-based fallback when elements
    are unhashable (Java streams dedup maps/lists via equals())."""
    try:
        return list(dict.fromkeys(items))
    except TypeError:
        out: list = []
        for x in items:
            if x not in out:
                out.append(x)
        return out


def _to_jstr(v) -> str:
    """Java String.valueOf rendering: booleans lowercase, null → 'null'."""
    if v is None:
        return "null"
    if isinstance(v, _JavaStringBuilder):
        return v.build()
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float) and v.is_integer():
        return str(v)
    return str(v)


_INSTANCEOF_TYPES: dict[str, tuple] = {
    "String": (str,),
    "CharSequence": (str,),
    "Integer": (int,),
    "Long": (int,),
    "Short": (int,),
    "Byte": (int,),
    "Double": (float,),
    "Float": (float,),
    "Number": (int, float),
    "Boolean": (bool,),
    "Map": (dict,),
    "HashMap": (dict,),
    "List": (list,),
    "ArrayList": (list,),
    "Set": (_JavaSet,),
    "HashSet": (_JavaSet,),
    "Collection": (list, _JavaSet),
    "StringBuilder": (_JavaStringBuilder,),
    "Object": (object,),
}


def _instanceof(value, type_name: str) -> bool:
    """Java ``instanceof`` semantics over the interpreter's Python
    value model: null is never an instance; booleans are NOT Integers
    (Python bool subclasses int, Java Boolean does not)."""
    types = _INSTANCEOF_TYPES.get(type_name)
    if types is None:
        raise PainlessError(f"unknown type in instanceof: {type_name!r}")
    if value is None:
        return False
    if isinstance(value, bool) and types != (bool,) and types != (object,):
        return False
    return isinstance(value, types)


#: a '/' starts a REGEX literal (not division) when the previous token
#: cannot end a value — the standard JS/painless tokenizer heuristic
_VALUE_ENDERS = {")", "]", "}", "++", "--"}


def _prev_is_value(out: list[tuple[str, str]]) -> bool:
    if not out:
        return False
    kind, val = out[-1]
    if kind in ("num", "str", "regex"):
        return True
    if kind == "id":
        return val not in _KEYWORDS or val in ("true", "false", "null")
    return val in _VALUE_ENDERS


def _scan_regex(src: str, pos: int) -> tuple[tuple[str, str], int]:
    """``/pattern/flags`` starting at src[pos] == '/'.  An unescaped
    '/' inside a character class (``[...]``) does not terminate the
    literal, matching Java regex syntax."""
    i = pos + 1
    in_class = False
    class_start = -1
    while i < len(src):
        c = src[i]
        if c == "\\":
            i += 2
            continue
        if c == "[" and not in_class:
            in_class = True
            class_start = i
        elif c == "]" and in_class:
            # a ']' as the FIRST member of a class ('[]' or '[^]') is a
            # LITERAL in Java/Python regex, not the class terminator
            first = i == class_start + 1 or (i == class_start + 2 and src[class_start + 1] == "^")
            if not first:
                in_class = False
        elif c == "/" and not in_class:
            break
        elif c == "\n":
            raise PainlessError("unterminated regex literal")
        i += 1
    else:
        raise PainlessError("unterminated regex literal")
    pat = src[pos + 1 : i]
    i += 1
    flags = ""
    while i < len(src) and src[i] in "cilmsUux":
        flags += src[i]
        i += 1
    return ("regex", pat + "\x00" + flags), i


def _tokenize(src: str) -> list[tuple[str, str]]:
    # comments are handled IN the loop (not a pre-strip regex): a
    # pre-strip would corrupt '//' inside string literals (URLs!) and
    # inside regex literals
    out, pos = [], 0
    while pos < len(src):
        while pos < len(src) and src[pos] in " \t\r\n":
            pos += 1
        if pos >= len(src):
            break
        if src.startswith("//", pos):
            nl = src.find("\n", pos)
            pos = len(src) if nl < 0 else nl + 1
            continue
        if src.startswith("/*", pos):
            end = src.find("*/", pos + 2)
            if end < 0:
                raise PainlessError("unterminated block comment")
            pos = end + 2
            continue
        if src[pos] == "/" and not _prev_is_value(out):
            tok, pos = _scan_regex(src, pos)
            out.append(tok)
            continue
        m = _TOKEN.match(src, pos)
        if not m:
            if src[pos:].strip() == "":
                break
            raise PainlessError(f"cannot tokenize at: {src[pos:pos + 30]!r}")
        pos = m.end()
        if m.group("num") is not None:
            out.append(("num", m.group("num")))
        elif m.group("str") is not None:
            raw = m.group("str")[1:-1]
            out.append(("str", raw.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")))
        elif m.group("id") is not None:
            out.append(("id", m.group("id")))
        else:
            out.append(("op", m.group("op")))
    return out


def _strip_generic_args(toks: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Remove Java generic-argument runs (``Map<String, Object>``,
    ``new ArrayList<>()``, ``(List<String>) x``) from the token stream
    so every type-position check sees the raw type name.  A run is
    stripped ONLY when it follows a known type name and the bracketed
    tokens are purely type syntax (ids, commas, ``?``, nested ``<>``)
    — ``a < b`` style comparisons never qualify."""
    out: list[tuple[str, str]] = []
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        out.append(t)
        i += 1
        if t[0] == "id" and t[1] in _TYPES and i < n and toks[i] == ("op", "<"):
            # a FIELD named like a type (ctx.String, params.Map) is a
            # value, not a type — never strip after member access
            prev = toks[i - 2] if i >= 2 else ("", "")
            if prev in (("op", "."), ("op", "?.")):
                continue
            depth, j, ok = 0, i, False
            while j < n:
                k, v = toks[j]
                if (k, v) == ("op", "<"):
                    depth += 1
                elif (k, v) == ("op", ">"):
                    depth -= 1
                    if depth == 0:
                        ok = True
                        j += 1
                        break
                elif not (k == "id" or (k, v) in (("op", ","), ("op", "?"))):
                    break
                j += 1
            # the run must be FOLLOWED by type-position syntax: a
            # declared name (id), a constructor call `(`, or the close
            # of a cast `)` — `f(String < a, b > d)` style comparison
            # pairs end in id too, but are already excluded above when
            # the operand is a field; a bare local shadowing a type
            # name is not legal painless style and is not supported
            if ok and j < n and (toks[j][0] == "id" or toks[j] in (("op", "("), ("op", ")"))):
                i = j  # drop the whole <...> run
    return out


class _Parser:
    def __init__(self, toks: list[tuple[str, str]]):
        self.toks = _strip_generic_args(toks)
        self.i = 0

    def peek(self, k: int = 0):
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else ("eof", "")

    def eat(self, val: str | None = None, kind: str | None = None):
        t = self.peek()
        if val is not None and t[1] != val:
            raise PainlessError(f"expected {val!r}, got {t[1]!r}")
        if kind is not None and t[0] != kind:
            raise PainlessError(f"expected {kind}, got {t}")
        self.i += 1
        return t

    # ---- statements -------------------------------------------------------
    def parse_program(self) -> list:
        stmts = []
        while self.peek()[0] != "eof":
            # user-defined function: Type name(Type a, Type b) { ... }
            # (painless requires declarations before the main body;
            # distinguished from `Type name = ...` by the '(')
            if (self.peek()[0] == "id" and self.peek()[1] in _TYPES
                    and self.peek(1)[0] == "id" and self.peek(1)[1] not in _KEYWORDS
                    and self.peek(2) == ("op", "(")):
                stmts.append(self.parse_funcdef())
                continue
            stmts.append(self.parse_stmt())
        return stmts

    def parse_funcdef(self):
        self.eat()  # return type
        name = self.eat(kind="id")[1]
        self.eat("(")
        params: list[str] = []
        while self.peek() != ("op", ")"):
            if self.peek()[0] == "id" and self.peek()[1] in _TYPES:
                self.eat()  # parameter type
            params.append(self.eat(kind="id")[1])
            if self.peek() == ("op", ","):
                self.eat(",")
        self.eat(")")
        body = self.parse_block()
        return ("funcdef", name, params, body)

    def parse_block(self) -> list:
        if self.peek() == ("op", "{"):
            self.eat("{")
            out = []
            while self.peek() != ("op", "}"):
                out.append(self.parse_stmt())
            self.eat("}")
            return out
        return [self.parse_stmt()]

    def parse_stmt(self):
        kind, val = self.peek()
        if (kind, val) == ("op", ";"):
            self.eat(";")
            return ("nop",)
        if kind == "id" and val == "if":
            self.eat()
            self.eat("(")
            cond = self.parse_expr()
            self.eat(")")
            then = self.parse_block()
            other = []
            if self.peek() == ("id", "else"):
                self.eat()
                other = self.parse_block()
            return ("if", cond, then, other)
        if kind == "id" and val == "while":
            self.eat()
            self.eat("(")
            cond = self.parse_expr()
            self.eat(")")
            return ("while", cond, self.parse_block())
        if kind == "id" and val == "for":
            self.eat()
            self.eat("(")
            # for-each: `for (def x : expr)` / `for (x in expr)`
            if (self.peek()[0] == "id" and self.peek()[1] in _TYPES
                    and self.peek(1)[0] == "id" and self.peek(2) == ("op", ":")):
                self.eat()
                var = self.eat(kind="id")[1]
                self.eat(":")
                seq = self.parse_expr()
                self.eat(")")
                return ("foreach", var, seq, self.parse_block())
            if self.peek()[0] == "id" and self.peek(1) == ("id", "in"):
                var = self.eat(kind="id")[1]
                self.eat("in")
                seq = self.parse_expr()
                self.eat(")")
                return ("foreach", var, seq, self.parse_block())
            init = None if self.peek() == ("op", ";") else self.parse_simple_stmt()
            self.eat(";")
            cond = None if self.peek() == ("op", ";") else self.parse_expr()
            self.eat(";")
            post = None if self.peek() == ("op", ")") else self.parse_simple_stmt()
            self.eat(")")
            return ("for", init, cond, post, self.parse_block())
        if kind == "id" and val == "return":
            self.eat()
            e = None if self.peek() == ("op", ";") else self.parse_expr()
            if self.peek() == ("op", ";"):
                self.eat(";")
            return ("return", e)
        if kind == "id" and val in ("break", "continue"):
            self.eat()
            if self.peek() == ("op", ";"):
                self.eat(";")
            return (val,)
        s = self.parse_simple_stmt()
        if self.peek() == ("op", ";"):
            self.eat(";")
        return s

    def parse_simple_stmt(self):
        # declaration: Type name (= expr)?
        if (self.peek()[0] == "id" and self.peek()[1] in _TYPES
                and self.peek(1)[0] == "id" and self.peek(1)[1] not in _KEYWORDS):
            self.eat()
            name = self.eat(kind="id")[1]
            if self.peek() == ("op", "="):
                self.eat("=")
                return ("decl", name, self.parse_expr())
            return ("decl", name, ("lit", None))
        expr = self.parse_expr()
        t = self.peek()
        if t[0] == "op" and t[1] in ("=", "+=", "-=", "*=", "/="):
            self.eat()
            rhs = self.parse_expr()
            if t[1] != "=":
                rhs = ("bin", t[1][0], expr, rhs)
            return ("assign", expr, rhs)
        if t[0] == "op" and t[1] in ("++", "--"):
            self.eat()
            return ("assign", expr, ("bin", t[1][0], expr, ("lit", 1)))
        return ("expr", expr)

    # ---- expressions ------------------------------------------------------
    def parse_expr(self):
        lam = self._try_lambda()
        if lam is not None:
            return lam
        return self.parse_ternary()

    def _try_lambda(self):
        """Parse a lambda expression if one starts here, else None.

        Forms (Java/painless): ``x -> expr``, ``(a, b) -> expr``,
        ``(def x) -> { ...; return y; }``, ``() -> expr``."""
        k0 = self.peek()
        # single bare parameter: `x -> ...`
        if (k0[0] == "id" and k0[1] not in _KEYWORDS
                and self.peek(1) == ("op", "->")):
            param = self.eat(kind="id")[1]
            self.eat("->")
            return ("lambda", [param], self._lambda_body())
        if k0 != ("op", "("):
            return None
        # parenthesized parameter list: scan ahead for `([type] id, ...) ->`
        j = 1
        params: list[str] = []
        if self.peek(j) == ("op", ")"):
            j += 1
        else:
            while True:
                t = self.peek(j)
                if t[0] != "id" or t[1] in _KEYWORDS:
                    return None
                # optional type prefix: `def x` / `String s`
                if t[1] in _TYPES and self.peek(j + 1)[0] == "id" \
                        and self.peek(j + 1)[1] not in _KEYWORDS:
                    j += 1
                    t = self.peek(j)
                    if t[0] != "id" or t[1] in _KEYWORDS:
                        return None
                params.append(t[1])
                j += 1
                if self.peek(j) == ("op", ","):
                    j += 1
                    continue
                if self.peek(j) == ("op", ")"):
                    j += 1
                    break
                return None
        if self.peek(j) != ("op", "->"):
            return None
        self.i += j  # commit: consume up to (but not incl.) the arrow
        self.eat("->")
        return ("lambda", params, self._lambda_body())

    def _lambda_body(self):
        if self.peek() == ("op", "{"):
            return ("block", self.parse_block())
        return ("expr", self.parse_expr())

    def parse_ternary(self):
        cond = self.parse_or()
        if self.peek() == ("op", "?:"):  # elvis
            self.eat()
            return ("elvis", cond, self.parse_ternary())
        if self.peek() == ("op", "?"):
            self.eat()
            a = self.parse_ternary()
            self.eat(":")
            b = self.parse_ternary()
            return ("ternary", cond, a, b)
        return cond

    def parse_or(self):
        node = self.parse_and()
        while self.peek() == ("op", "||"):
            self.eat()
            node = ("or", node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_cmp()
        while self.peek() == ("op", "&&"):
            self.eat()
            node = ("and", node, self.parse_cmp())
        return node

    def parse_cmp(self):
        node = self.parse_add()
        while True:
            if self.peek() == ("id", "instanceof"):
                self.eat()
                node = ("instanceof", node, self.eat(kind="id")[1])
                continue
            if self.peek()[0] == "op" and self.peek()[1] in (
                "==", "!=", "<", "<=", ">", ">=", "=~", "==~",
            ):
                op = self.eat()[1]
                if op in ("=~", "==~"):
                    node = ("match", op, node, self.parse_add())
                else:
                    node = ("cmp", op, node, self.parse_add())
                continue
            return node

    def parse_add(self):
        node = self.parse_mul()
        while self.peek()[0] == "op" and self.peek()[1] in ("+", "-"):
            op = self.eat()[1]
            node = ("bin", op, node, self.parse_mul())
        return node

    def parse_mul(self):
        node = self.parse_unary()
        while self.peek()[0] == "op" and self.peek()[1] in ("*", "/", "%"):
            op = self.eat()[1]
            node = ("bin", op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek() == ("op", "!"):
            self.eat()
            return ("not", self.parse_unary())
        if self.peek() == ("op", "-"):
            self.eat()
            return ("neg", self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self):
        node = self.parse_primary()
        while True:
            t = self.peek()
            if t[0] == "op" and t[1] in (".", "?."):
                safe = t[1] == "?."
                self.eat()
                name = self.eat(kind="id")[1]
                if self.peek() == ("op", "("):
                    self.eat("(")
                    args = []
                    if self.peek() != ("op", ")"):
                        args.append(self.parse_expr())
                        while self.peek() == ("op", ","):
                            self.eat(",")
                            args.append(self.parse_expr())
                    self.eat(")")
                    node = ("call", node, name, args, safe)
                else:
                    node = ("attr", node, name, safe)
            elif t == ("op", "["):
                self.eat("[")
                idx = self.parse_expr()
                self.eat("]")
                node = ("index", node, idx)
            elif t == ("op", "::"):
                # method reference: String::valueOf / this::myFunc
                self.eat()
                name = self.eat(kind="id")[1]
                node = ("mref", node, name)
            elif t == ("op", "(") and node[0] == "name":
                # bare call — a user-defined function: add(1, 2)
                self.eat("(")
                args = []
                if self.peek() != ("op", ")"):
                    args.append(self.parse_expr())
                    while self.peek() == ("op", ","):
                        self.eat(",")
                        args.append(self.parse_expr())
                self.eat(")")
                node = ("ucall", node[1], args)
            else:
                return node

    def parse_primary(self):
        kind, val = self.peek()
        if kind == "regex":
            self.eat()
            pat, _, flags = val.partition("\x00")
            return ("lit_regex", pat, flags)
        if kind == "num":
            self.eat()
            # Java literal suffixes: 10L (long → int), 1.5f/2d (→ float)
            suffix = val[-1] if val[-1] in "lLfFdD" else ""
            body = val[:-1] if suffix else val
            if suffix in ("f", "F", "d", "D") or "." in body or "e" in body or "E" in body:
                return ("lit", float(body))
            return ("lit", int(body))
        if kind == "str":
            self.eat()
            return ("lit", val)
        if (kind, val) == ("id", "true"):
            self.eat()
            return ("lit", True)
        if (kind, val) == ("id", "false"):
            self.eat()
            return ("lit", False)
        if (kind, val) == ("id", "null"):
            self.eat()
            return ("lit", None)
        if (kind, val) == ("id", "new"):
            self.eat()
            tname = self.eat(kind="id")[1]
            if tname not in _NEW_CLASSES:
                raise PainlessError(f"new {tname}(...) is not supported")
            self.eat("(")
            args = []
            if self.peek() != ("op", ")"):
                args.append(self.parse_expr())
                while self.peek() == ("op", ","):
                    self.eat(",")
                    args.append(self.parse_expr())
            self.eat(")")
            return ("lit_new", tname, args)
        if (kind, val) == ("op", "("):
            self.eat("(")
            # cast: (T) expr — numeric primitive casts CONVERT with
            # Java semantics (truncate toward zero, wrap to width,
            # (char) → the character); reference-type casts are no-ops
            if (self.peek()[0] == "id" and self.peek()[1] in _TYPES
                    and self.peek(1) == ("op", ")")):
                tname = self.eat()[1]
                self.eat(")")
                inner = self.parse_unary()
                if tname in _NUMERIC_CASTS:
                    return ("cast", tname, inner)
                return inner
            node = self.parse_expr()
            self.eat(")")
            return node
        if (kind, val) == ("op", "["):
            # painless list literal [a, b] or map literal ['k': v, ...] / [:]
            self.eat("[")
            if self.peek() == ("op", ":"):
                self.eat(":")
                self.eat("]")
                return ("map", [])
            if self.peek() == ("op", "]"):
                self.eat("]")
                return ("list", [])
            first = self.parse_expr()
            if self.peek() == ("op", ":"):
                self.eat(":")
                pairs = [(first, self.parse_expr())]
                while self.peek() == ("op", ","):
                    self.eat(",")
                    k = self.parse_expr()
                    self.eat(":")
                    pairs.append((k, self.parse_expr()))
                self.eat("]")
                return ("map", pairs)
            items = [first]
            while self.peek() == ("op", ","):
                self.eat(",")
                items.append(self.parse_expr())
            self.eat("]")
            return ("list", items)
        if kind == "id":
            self.eat()
            return ("name", val)
        raise PainlessError(f"unexpected token {val!r}")


def compile_painless(source: str) -> list:
    """Script source → statement AST (raises PainlessError)."""
    return _Parser(_tokenize(source)).parse_program()


# ---------------------------------------------------------------------------
# interpretation
# ---------------------------------------------------------------------------

class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value=None):
        super().__init__()
        self.value = value


_MAX_LOOP_ITERS = 100_000  # painless has its own loop counter limit


class LazyColumns:
    """Dict-like view over a ColumnBatch that converts columns to
    object arrays only on first access — an interpreter script touching
    2 fields of a 100-column batch must not pay 100 conversions."""

    def __init__(self, batch):
        self._batch = batch
        self._names = list(batch.names())
        self._nameset = set(self._names)
        self._cache: dict[str, object] = {}

    def get(self, name: str, default=None):
        if name not in self._nameset:
            return default
        arr = self._cache.get(name)
        if arr is None:
            arr = self._batch.objects(name)
            self._cache[name] = arr
        return arr

    def __getitem__(self, name: str):
        v = self.get(name)
        if v is None:
            raise KeyError(name)
        return v

    def __contains__(self, name: str) -> bool:
        return name in self._nameset

    def __iter__(self):
        return iter(self._names)


class RowCtx:
    """Per-row view of a columnar batch for the interpreter.

    Reads resolve dotted paths against (1) this row's pending writes,
    (2) the flattened columns.  ``ctx.a.b`` walks either the column
    ``a.b`` or a dict value stored in column ``a``.

    Container values (lists/dicts) read from a column are DEEP-COPIED
    and registered as pending writes: painless mutates them in place
    (``ctx.tags.add('x')``) and the mutation must (a) persist into the
    output via the normal write path and (b) never touch the shared
    column arrays, or the executor's failure-isolation snapshot would
    emit "unmodified" failed rows with the mutation applied."""

    def __init__(self, cols, row: int, resolve_field):
        self.cols = cols
        self.row = row
        self.writes: dict[str, object] = {}
        self.resolve_field = resolve_field

    def _col(self, path: str):
        if path in self.writes:
            return self.writes[path]
        arr = self.cols.get(path)
        if arr is not None:
            v = arr[self.row]
            if isinstance(v, (list, dict)):
                import copy

                v = copy.deepcopy(v)
                self.writes[path] = v
            return v
        # maybe a prefix column holds a dict
        if "." in path:
            head, _, rest = path.partition(".")
            base = self._col(head)
            for part in rest.split("."):
                if isinstance(base, dict):
                    base = base.get(part)
                else:
                    return None
            return base
        return None

    def get(self, path: str):
        p = self.resolve_field(path)
        v = self._col(p)
        if v is not None:
            return v
        # the columnar model flattens maps to dotted columns; reading a
        # map-valued path reconstructs a (copy of the) nested dict from
        # its child columns — mutate via ctx.put/assignment, not through
        # this copy
        prefix = p + "."
        out: dict = {}

        def insert(rel: str, val) -> None:
            cur = out
            parts = rel.split(".")
            for part in parts[:-1]:
                nxt = cur.setdefault(part, {})
                if not isinstance(nxt, dict):
                    return
                cur = nxt
            cur[parts[-1]] = val

        for c in self.cols:
            if c.startswith(prefix):
                val = self.writes[c] if c in self.writes else self.cols[c][self.row]
                if val is not None:
                    insert(c[len(prefix):], val)
        for c, val in self.writes.items():
            if c.startswith(prefix) and c not in self.cols and val is not None:
                insert(c[len(prefix):], val)
        return out or None

    def put(self, path: str, value) -> None:
        self.writes[self.resolve_field(path)] = _sanitize_ctx_value(value)

    def contains_key(self, path: str) -> bool:
        p = self.resolve_field(path)
        if self._col(p) is not None:
            return True
        prefix = p + "."
        # pending writes win over column values (a removed child must
        # read as absent); iterate lazily — no per-call set unions
        for c in self.cols:
            if c.startswith(prefix):
                v = self.writes[c] if c in self.writes else self.cols[c][self.row]
                if v is not None:
                    return True
        for c, v in self.writes.items():
            if c.startswith(prefix) and c not in self.cols and v is not None:
                return True
        return False

    def remove(self, path: str):
        old = self.get(path)
        self.put(path, None)
        return old


class _CtxRef:
    """Marker for `ctx` and partial paths under it (ctx.a.b …)."""

    __slots__ = ("path",)

    def __init__(self, path: str = ""):
        self.path = path

    def child(self, name: str) -> "_CtxRef":
        return _CtxRef(f"{self.path}.{name}" if self.path else name)


_MAX_CALL_DEPTH = 64


class _Lambda:
    """A painless lambda value: parameters + body closed over the
    defining environment (painless captures are effectively-final, so a
    shallow copy of the env dict at call time is sufficient)."""

    __slots__ = ("params", "body", "env")

    def __init__(self, params: list[str], body: tuple, env: dict):
        self.params = params
        self.body = body  # ("expr", node) | ("block", stmts)
        self.env = env


class _UserFuncRef:
    """`this::myFunc` — a reference to a user-defined script function."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class _Stream:
    """Minimal java.util.stream.Stream over a materialized list.

    Painless streams in ingest scripts are short per-row element
    sequences, so eager list semantics (no laziness) are fine."""

    __slots__ = ("items",)

    def __init__(self, items: list):
        self.items = items


class _Optional:
    __slots__ = ("value", "present")

    def __init__(self, value, present: bool):
        self.value = value
        self.present = present


class _MapEntry:
    """A java.util.Map.Entry view backed by the source dict, so
    ``entry.setValue(v)`` writes through."""

    __slots__ = ("backing", "key")

    def __init__(self, backing: dict, key):
        self.backing = backing
        self.key = key


class _CtxEntry:
    """Map.Entry over a ctx path: ctx maps may live as flattened dotted
    columns, where the dict RowCtx.get reconstructs is a throwaway copy —
    setValue must write through rc.put instead."""

    __slots__ = ("rc", "path", "key")

    def __init__(self, rc, path: str, key):
        self.rc = rc
        self.path = path
        self.key = key

    def child_path(self) -> str:
        return f"{self.path}.{self.key}" if self.path else str(self.key)


#: values that must never reach an output column — lambdas, method
#: references (plain callables), collector markers (tuples), streams,
#: optionals, entry views
_CTX_REJECT = (_Lambda, _UserFuncRef, _Stream, _Optional, _MapEntry, _CtxEntry)
#: container elements that force a sanitizing copy of the container
_CTX_RECURSE = _CTX_REJECT + (_JavaSet, _JavaStringBuilder, list, dict, tuple)


def _sanitize_ctx_value(value, depth: int = 0):
    """Make a script value safe to write into Arrow output columns:
    Java sets become plain lists; function/stream/entry values (at any
    nesting level) fail the row loudly instead of leaking Python object
    reprs into the data."""
    if depth > 16:
        raise PainlessError("ctx value nesting too deep")
    if isinstance(value, _JavaStringBuilder):
        return value.build()
    if isinstance(value, _JavaSet):
        return [_sanitize_ctx_value(x, depth + 1) for x in value.items]
    if isinstance(value, list):
        if any(isinstance(x, _CTX_RECURSE) or callable(x) for x in value):
            return [_sanitize_ctx_value(x, depth + 1) for x in value]
        return value
    if isinstance(value, dict):
        if any(isinstance(v, _CTX_RECURSE) or callable(v) for v in value.values()):
            return {k: _sanitize_ctx_value(v, depth + 1) for k, v in value.items()}
        return value
    if isinstance(value, (_CTX_REJECT, tuple)) or callable(value):
        raise PainlessError(
            f"cannot store a {type(value).__name__.lstrip('_')} value into ctx"
        )
    return value


class Interpreter:
    def __init__(self, statements: list, builtin_calls: dict):
        # user-defined functions are hoisted out of the body (painless
        # requires them to precede the main statements)
        self.functions: dict[str, tuple[list[str], list]] = {
            s[1]: (s[2], s[3]) for s in statements if s[0] == "funcdef"
        }
        self.statements = [s for s in statements if s[0] != "funcdef"]
        self.builtins = builtin_calls
        self._regex_cache: dict[tuple[str, str], object] = {}
        self._depth = 0

    def run_row(self, rowctx: RowCtx, base_env: dict | None = None) -> None:
        env: dict[str, object] = dict(base_env or {})
        try:
            self._exec_block(self.statements, rowctx, env)
        except _Return:
            pass

    # ---- statements -------------------------------------------------------
    def _exec_block(self, stmts: list, rc: RowCtx, env: dict) -> None:
        for s in stmts:
            self._exec(s, rc, env)

    def _exec(self, s, rc: RowCtx, env: dict) -> None:
        op = s[0]
        if op == "nop":
            return
        if op == "decl":
            env[s[1]] = self._deref(self._eval(s[2], rc, env), rc)
            return
        if op == "assign":
            target, rhs = s[1], s[2]
            value = self._deref(self._eval(rhs, rc, env), rc)
            self._assign(target, value, rc, env)
            return
        if op == "expr":
            self._eval(s[1], rc, env)
            return
        if op == "if":
            if self._truthy(self._deref(self._eval(s[1], rc, env), rc)):
                self._exec_block(s[2], rc, env)
            else:
                self._exec_block(s[3], rc, env)
            return
        if op == "while":
            n = 0
            while self._truthy(self._deref(self._eval(s[1], rc, env), rc)):
                n += 1
                if n > _MAX_LOOP_ITERS:
                    raise PainlessError("loop iteration limit exceeded")
                try:
                    self._exec_block(s[2], rc, env)
                except _Break:
                    break
                except _Continue:
                    continue
            return
        if op == "for":
            _, init, cond, post, body = s
            if init is not None:
                self._exec(init, rc, env)
            n = 0
            while cond is None or self._truthy(self._deref(self._eval(cond, rc, env), rc)):
                n += 1
                if n > _MAX_LOOP_ITERS:
                    raise PainlessError("loop iteration limit exceeded")
                try:
                    self._exec_block(body, rc, env)
                except _Break:
                    break
                except _Continue:
                    pass
                if post is not None:
                    self._exec(post, rc, env)
            return
        if op == "foreach":
            _, var, seq, body = s
            values = self._deref(self._eval(seq, rc, env), rc)
            if values is None:
                return
            if isinstance(values, dict):
                values = list(values.keys())
            for v in values:
                env[var] = v
                try:
                    self._exec_block(body, rc, env)
                except _Break:
                    break
                except _Continue:
                    continue
            return
        if op == "return":
            raise _Return(
                None if s[1] is None else self._deref(self._eval(s[1], rc, env), rc)
            )
        if op == "break":
            raise _Break()
        if op == "continue":
            raise _Continue()
        raise PainlessError(f"unsupported statement {op}")

    def _assign(self, target, value, rc: RowCtx, env: dict) -> None:
        if target[0] == "name":
            if target[1] == "ctx":
                raise PainlessError("cannot reassign ctx")
            env[target[1]] = value
            return
        ref = self._eval_ref(target, rc, env)
        if isinstance(ref, _CtxRef):
            rc.put(ref.path, value)
            return
        if isinstance(ref, tuple) and ref[0] == "container":
            _, container, key = ref
            container[key] = value
            return
        raise PainlessError("unsupported assignment target")

    def _eval_ref(self, node, rc: RowCtx, env: dict):
        """Evaluate an assignable target to a _CtxRef or (container, key)."""
        op = node[0]
        if op == "attr":
            base = self._eval(node[1], rc, env)
            if isinstance(base, _CtxRef):
                return base.child(node[2])
            base = self._deref(base, rc)
            if isinstance(base, dict):
                return ("container", base, node[2])
            raise PainlessError(f"cannot assign attribute {node[2]!r}")
        if op == "index":
            base = self._eval(node[1], rc, env)
            key = self._deref(self._eval(node[2], rc, env), rc)
            if isinstance(base, _CtxRef):
                if base.path == "" and isinstance(key, str):
                    return base.child(key)
                if isinstance(key, str):
                    return base.child(key)
                base = self._deref(base, rc)
            if isinstance(base, (list, dict)):
                return ("container", base, key)
            raise PainlessError("cannot assign into value")
        raise PainlessError("unsupported assignment target")

    # ---- expressions ------------------------------------------------------
    def _deref(self, v, rc: RowCtx):
        return rc.get(v.path) if isinstance(v, _CtxRef) else v

    @staticmethod
    def _truthy(v) -> bool:
        return bool(v)

    _REGEX_FLAG_MAP = {"i": re.I, "m": re.M, "s": re.S, "x": re.X, "u": 0, "U": 0, "c": 0}

    def _compiled_regex(self, pat: str, flags: str):
        key = (pat, flags)
        got = self._regex_cache.get(key)
        if got is None:
            f = 0
            for ch in flags:
                if ch == "l":
                    raise PainlessError("unsupported regex flag 'l' (LITERAL)")
                f |= self._REGEX_FLAG_MAP.get(ch, 0)
            try:
                got = re.compile(pat, f)
            except re.error as exc:
                raise PainlessError(f"invalid regex literal /{pat}/: {exc}") from exc
            self._regex_cache[key] = got
        return got

    def _eval(self, node, rc: RowCtx, env: dict):
        op = node[0]
        if op == "lit":
            return node[1]
        if op == "cast":
            v = self._deref(self._eval(node[2], rc, env), rc)
            return _numeric_cast(node[1], v)
        if op == "lit_regex":
            return self._compiled_regex(node[1], node[2])
        if op == "instanceof":
            v = self._deref(self._eval(node[1], rc, env), rc)
            return _instanceof(v, node[2])
        if op == "match":
            lhs = self._deref(self._eval(node[2], rc, env), rc)
            rhs = self._deref(self._eval(node[3], rc, env), rc)
            if not hasattr(rhs, "search"):
                raise PainlessError("right operand of =~ / ==~ must be a regex")
            if lhs is None:
                # Java Matcher on null throws — surfaces as script failure
                raise PainlessError("null operand for =~ / ==~")
            s = lhs if isinstance(lhs, str) else _num_str(lhs) if isinstance(lhs, (int, float)) else str(lhs)
            # =~ is Matcher.find (substring), ==~ is Matcher.matches (entire)
            return (rhs.search(s) if node[1] == "=~" else rhs.fullmatch(s)) is not None
        if op == "ucall":
            args = [self._deref(self._eval(a, rc, env), rc) for a in node[2]]
            return self._call_user_func(node[1], args, rc)
        if op == "lambda":
            return _Lambda(node[1], node[2], dict(env))
        if op == "mref":
            return self._eval_mref(node, rc, env)
        if op == "lit_new":
            cargs = [self._deref(self._eval(a, rc, env), rc) for a in node[2]]
            if "StringBuilder" in node[1]:
                return _JavaStringBuilder(cargs[0] if cargs else None)
            if node[1] == "String":
                return _to_jstr(cargs[0]) if cargs else ""
            if node[1] == "TreeMap":
                return _JavaTreeMap(cargs[0] if cargs and
                                    isinstance(cargs[0], dict) else {})
            if node[1] == "TreeSet":
                return _JavaTreeSet(cargs[0] if cargs else None)
            if "Map" in node[1]:
                if cargs and isinstance(cargs[0], dict):
                    return dict(cargs[0])  # copy constructor
                return {}
            if "Set" in node[1]:
                return _JavaSet(cargs[0] if cargs else None)
            # ArrayList / LinkedList (classes gated by _NEW_CLASSES at parse)
            if cargs and isinstance(cargs[0], (list, _JavaSet)):
                return list(cargs[0])  # copy constructor
            return []
        if op == "list":
            return [self._deref(self._eval(x, rc, env), rc) for x in node[1]]
        if op == "map":
            return {
                self._deref(self._eval(k, rc, env), rc): self._deref(self._eval(v, rc, env), rc)
                for k, v in node[1]
            }
        if op == "name":
            if node[1] == "ctx":
                return _CtxRef("")
            if node[1] in env:
                return env[node[1]]
            if node[1] in ("Math", "Processors", "Integer", "Long", "Double",
                           "String", "Boolean", "Objects", "Collectors", "Arrays"):
                return ("ns", node[1])
            raise PainlessError(f"unknown variable {node[1]!r}")
        if op == "attr":
            base = self._eval(node[1], rc, env)
            if isinstance(base, _CtxRef):
                return base.child(node[2])
            if isinstance(base, tuple) and base[0] == "ns":
                if base[1] == "Math":
                    return {"PI": math.pi, "E": math.e}.get(node[2])
                raise PainlessError(f"unknown constant {base[1]}.{node[2]}")
            base = self._deref(base, rc)
            if base is None and node[3]:  # ?. on null
                return None
            if isinstance(base, dict):
                return base.get(node[2])
            raise PainlessError(f"cannot read attribute {node[2]!r}")
        if op == "index":
            b = self._eval(node[1], rc, env)
            key = self._deref(self._eval(node[2], rc, env), rc)
            if isinstance(b, _CtxRef) and isinstance(key, str):
                return rc.get(b.child(key).path)  # ctx['field'] / ctx.a['b']
            base = self._deref(b, rc)
            if base is None:
                return None
            if isinstance(base, dict):
                return base.get(key)
            if isinstance(base, (list, str)):
                try:
                    return base[int(key)]
                except (IndexError, ValueError, TypeError):
                    return None
            raise PainlessError("cannot index value")
        if op == "call":
            return self._call(node, rc, env)
        if op == "not":
            return not self._truthy(self._deref(self._eval(node[1], rc, env), rc))
        if op == "neg":
            v = self._deref(self._eval(node[1], rc, env), rc)
            return -v if v is not None else None
        if op == "and":
            return (self._truthy(self._deref(self._eval(node[1], rc, env), rc))
                    and self._truthy(self._deref(self._eval(node[2], rc, env), rc)))
        if op == "or":
            return (self._truthy(self._deref(self._eval(node[1], rc, env), rc))
                    or self._truthy(self._deref(self._eval(node[2], rc, env), rc)))
        if op == "cmp":
            a = self._deref(self._eval(node[2], rc, env), rc)
            b = self._deref(self._eval(node[3], rc, env), rc)
            o = node[1]
            if o == "==":
                return a == b
            if o == "!=":
                return a != b
            if a is None or b is None:
                return False
            try:
                if o == "<":
                    return a < b
                if o == "<=":
                    return a <= b
                if o == ">":
                    return a > b
                return a >= b
            except TypeError:
                return False
        if op == "bin":
            a = self._deref(self._eval(node[2], rc, env), rc)
            b = self._deref(self._eval(node[3], rc, env), rc)
            o = node[1]
            if o == "+":
                if isinstance(a, str) or isinstance(b, str):
                    return ("" if a is None else _to_jstr(a)) + ("" if b is None else _to_jstr(b))
                if a is None or b is None:
                    return None
                return a + b
            if a is None or b is None:
                return None
            if o == "-":
                return a - b
            if o == "*":
                return a * b
            if o == "/":
                if not b:
                    return None
                if isinstance(a, int) and isinstance(b, int):
                    # Java/painless integer division truncates toward
                    # ZERO (Python // floors): -7 / 2 == -3, not -4
                    q = abs(a) // abs(b)
                    return -q if (a < 0) != (b < 0) else q
                return a / b
            if o == "%":
                if not b:
                    return None
                if isinstance(a, int) and isinstance(b, int):
                    # Java % takes the sign of the DIVIDEND: -7 % 10 == -7
                    return a - (abs(a) // abs(b)) * (b if (a < 0) == (b < 0) else -b)
                return math.fmod(a, b)  # Java double %: sign of dividend too
        if op == "ternary":
            c = self._truthy(self._deref(self._eval(node[1], rc, env), rc))
            return self._deref(self._eval(node[2] if c else node[3], rc, env), rc)
        if op == "elvis":
            v = self._deref(self._eval(node[1], rc, env), rc)
            return v if v is not None else self._deref(self._eval(node[2], rc, env), rc)
        raise PainlessError(f"unsupported expression {op}")

    def _call_user_func(self, fname: str, args: list, rc: RowCtx):
        fn = self.functions.get(fname)
        if fn is None:
            raise PainlessError(f"unknown function {fname!r}")
        params, body = fn
        if len(args) != len(params):
            raise PainlessError(
                f"{fname}() takes {len(params)} args, got {len(args)}"
            )
        if self._depth >= _MAX_CALL_DEPTH:
            raise PainlessError("max call depth exceeded")
        self._depth += 1
        try:
            fenv = dict(zip(params, args))
            try:
                self._exec_block(body, rc, fenv)
            except _Return as r:
                return r.value
            return None
        finally:
            self._depth -= 1

    def _eval_mref(self, node, rc: RowCtx, env: dict):
        basenode, name = node[1], node[2]
        if basenode[0] == "name":
            bn = basenode[1]
            if bn == "this":
                if name in self.functions:
                    return _UserFuncRef(name)
                raise PainlessError(f"unknown function this::{name}")
            fn = self.builtins.get((bn, name))
            if fn is not None:
                return fn  # static ref: Integer::parseInt, String::valueOf
            if bn in ("String", "Integer", "Long", "Double", "Boolean",
                      "Math", "Objects", "Collectors"):
                # unbound instance-method ref: String::toLowerCase takes
                # the stream element as its receiver
                return lambda *a: self._instance_call(a[0], name, list(a[1:]), rc)
        raise PainlessError("unsupported method reference")

    def _invoke(self, fnval, args: list, rc: RowCtx):
        """Apply a painless function value (lambda / this::fn / builtin)."""
        if isinstance(fnval, _Lambda):
            if len(args) != len(fnval.params):
                raise PainlessError(
                    f"lambda takes {len(fnval.params)} args, got {len(args)}"
                )
            if self._depth >= _MAX_CALL_DEPTH:
                raise PainlessError("max call depth exceeded")
            self._depth += 1
            try:
                fenv = dict(fnval.env)
                fenv.update(zip(fnval.params, args))
                kind, payload = fnval.body
                if kind == "expr":
                    return self._deref(self._eval(payload, rc, fenv), rc)
                try:
                    self._exec_block(payload, rc, fenv)
                except _Return as r:
                    return r.value
                return None
            finally:
                self._depth -= 1
        if isinstance(fnval, _UserFuncRef):
            return self._call_user_func(fnval.name, args, rc)
        if callable(fnval):
            return fnval(*args)
        raise PainlessError("value is not a function")

    def _cmp_key(self, cmp, rc: RowCtx):
        # use the SIGN of the comparator result — int() truncation would
        # collapse fractional results like (a, b) -> a.x - b.x to 0
        def c(a, b):
            r = self._invoke(cmp, [a, b], rc)
            if r is None:
                raise PainlessError("comparator returned null")
            return (r > 0) - (r < 0)
        return functools.cmp_to_key(c)

    def _call(self, node, rc: RowCtx, env: dict):
        _, recv_node, name, arg_nodes, safe = node
        recv = self._eval(recv_node, rc, env)
        args = [self._deref(self._eval(a, rc, env), rc) for a in arg_nodes]

        if isinstance(recv, tuple) and recv[0] == "ns":
            fn = self.builtins.get((recv[1], name))
            if fn is None:
                raise PainlessError(f"unsupported call {recv[1]}.{name}()")
            return fn(*args)

        # ctx-level methods operate on paths
        if isinstance(recv, _CtxRef):
            if name == "containsKey" and len(args) == 1:
                p = f"{recv.path}.{args[0]}" if recv.path else str(args[0])
                return rc.contains_key(p)
            if name == "remove" and len(args) == 1:
                p = f"{recv.path}.{args[0]}" if recv.path else str(args[0])
                return rc.remove(p)
            if name == "get" and len(args) == 1:
                p = f"{recv.path}.{args[0]}" if recv.path else str(args[0])
                return rc.get(p)
            if name == "put" and len(args) == 2:
                p = f"{recv.path}.{args[0]}" if recv.path else str(args[0])
                rc.put(p, args[1])
                return None
            if name == "getOrDefault" and len(args) == 2:
                p = f"{recv.path}.{args[0]}" if recv.path else str(args[0])
                v = rc.get(p)
                return args[1] if v is None else v
            if name == "computeIfAbsent" and len(args) == 2:
                # write-through: the derefed dict below is a copy, so
                # map mutators on ctx paths must go via rc.put
                p = f"{recv.path}.{args[0]}" if recv.path else str(args[0])
                cur = rc.get(p)
                if cur is None:
                    cur = self._invoke(args[1], [args[0]], rc)
                    rc.put(p, cur)
                return cur
            if name == "merge" and len(args) == 3:
                p = f"{recv.path}.{args[0]}" if recv.path else str(args[0])
                old = rc.get(p)
                newv = args[1] if old is None else self._invoke(args[2], [old, args[1]], rc)
                rc.put(p, newv)  # painless merge→null removes the key
                return newv
            if name == "entrySet" and not args and recv.path:
                # entries must write through rc (the dict deref below
                # reconstructs is a throwaway copy for flattened maps)
                m = self._deref(recv, rc)
                if m is None:
                    return []
                if not isinstance(m, dict):
                    raise PainlessError("entrySet() on a non-map value")
                return [_CtxEntry(rc, recv.path, k) for k in m.keys()]
            recv = self._deref(recv, rc)

        if recv is None:
            if safe:
                return None
            raise PainlessError(f"null receiver for .{name}()")

        return self._instance_call(recv, name, args, rc)

    def _instance_call(self, recv, name: str, args: list, rc: RowCtx):
        """Dispatch an instance method on a concrete painless value."""
        if isinstance(recv, str):
            table = {
                "length": lambda: len(recv),
                "isEmpty": lambda: len(recv) == 0,
                "contains": lambda s: s in recv,
                "startsWith": lambda s: recv.startswith(s),
                "endsWith": lambda s: recv.endswith(s),
                "indexOf": lambda s: recv.find(s),
                "lastIndexOf": lambda s: recv.rfind(s),
                "substring": lambda a, b=None: recv[a:b] if b is not None else recv[a:],
                "replace": lambda a, b: recv.replace(a, b),
                "toLowerCase": lambda: recv.lower(),
                "toUpperCase": lambda: recv.upper(),
                "trim": lambda: recv.strip(),
                "splitOnToken": lambda s: recv.split(s),
                "split": lambda s: re.split(s, recv),
                "equals": lambda o: recv == o,
                "equalsIgnoreCase": lambda o: isinstance(o, str) and recv.lower() == o.lower(),
                "charAt": lambda i: recv[i] if 0 <= i < len(recv) else None,
                "concat": lambda s: recv + s,
                "hashCode": lambda: _java_string_hash(recv),
            }
            if name in table:
                return table[name](*args)
            raise PainlessError(f"unsupported String method {name!r}")
        if isinstance(recv, list):
            if name == "sort" and len(args) == 1:
                recv.sort(key=self._cmp_key(args[0], rc))
                return None
            if name == "removeIf":
                kept = [x for x in recv if not self._truthy(self._invoke(args[0], [x], rc))]
                changed = len(kept) != len(recv)
                recv[:] = kept
                return changed
            if name == "replaceAll":
                recv[:] = [self._invoke(args[0], [x], rc) for x in recv]
                return None
            if name == "forEach":
                for x in list(recv):
                    self._invoke(args[0], [x], rc)
                return None
            if name == "stream":
                return _Stream(list(recv))
            table = {
                "size": lambda: len(recv),
                "isEmpty": lambda: len(recv) == 0,
                "contains": lambda v: v in recv,
                "add": lambda *a: (recv.insert(a[0], a[1]) if len(a) == 2 else recv.append(a[0]), True)[1],
                "addAll": lambda other: (recv.extend(other or []), bool(other))[1],
                "get": lambda i: recv[i] if 0 <= i < len(recv) else None,
                "indexOf": lambda v: recv.index(v) if v in recv else -1,
                "remove": lambda i: recv.pop(i) if isinstance(i, int) and 0 <= i < len(recv) else None,
                "clear": lambda: recv.clear(),
                "sort": lambda: recv.sort(),
                "subList": lambda a, b: recv[a:b],
            }
            if name in table:
                return table[name](*args)
            raise PainlessError(f"unsupported List method {name!r}")
        if isinstance(recv, _JavaStringBuilder):
            if name == "append":
                recv.chunks.append(_to_jstr(args[0]))
                return recv  # Java chaining: sb.append(a).append(b)
            if name == "insert":
                s = recv.build()
                i = max(0, min(int(args[0]), len(s)))
                recv.chunks = [s[:i] + _to_jstr(args[1]) + s[i:]]
                return recv
            if name == "reverse":
                recv.chunks = [recv.build()[::-1]]
                return recv
            if name == "setLength":
                s = recv.build()
                n = int(args[0])
                recv.chunks = [s[:n] + "\0" * max(0, n - len(s))]
                return None
            table = {
                "toString": recv.build,
                "length": lambda: len(recv.build()),
                "charAt": lambda i: recv.build()[i] if 0 <= i < len(recv.build()) else None,
                "indexOf": lambda s: recv.build().find(s),
                "isEmpty": lambda: len(recv.build()) == 0,
            }
            if name in table:
                return table[name](*args)
            raise PainlessError(f"unsupported StringBuilder method {name!r}")
        if isinstance(recv, _JavaSet):
            if name == "forEach":
                for x in list(recv.items):
                    self._invoke(args[0], [x], rc)
                return None
            if name == "removeIf":
                kept = [x for x in recv.items
                        if not self._truthy(self._invoke(args[0], [x], rc))]
                changed = len(kept) != len(recv.items)
                recv.items[:] = kept
                return changed
            table = {
                "add": recv.add,
                "addAll": lambda other: any([recv.add(x) for x in (other or [])]),
                "contains": lambda v: v in recv.items,
                "containsAll": lambda other: all(x in recv.items for x in (other or [])),
                "remove": lambda v: (recv.items.remove(v), True)[1] if v in recv.items else False,
                "size": lambda: len(recv.items),
                "isEmpty": lambda: len(recv.items) == 0,
                "clear": lambda: recv.items.clear(),
                "stream": lambda: _Stream(list(recv.items)),
                "toArray": lambda: list(recv.items),
            }
            if name in table:
                return table[name](*args)
            raise PainlessError(f"unsupported Set method {name!r}")
        if isinstance(recv, _CtxEntry):
            if name == "getKey":
                return recv.key
            if name == "getValue":
                return recv.rc.get(recv.child_path())
            if name == "setValue":
                p = recv.child_path()
                old = recv.rc.get(p)
                recv.rc.put(p, args[0])
                return old
            raise PainlessError(f"unsupported Map.Entry method {name!r}")
        if isinstance(recv, _Stream):
            return self._stream_call(recv, name, args, rc)
        if isinstance(recv, _Optional):
            if name == "get":
                if not recv.present:
                    raise PainlessError("Optional.get() on empty Optional")
                return recv.value
            if name == "orElse":
                return recv.value if recv.present else args[0]
            if name == "isPresent":
                return recv.present
            if name == "isEmpty":
                return not recv.present
            if name == "ifPresent":
                if recv.present:
                    self._invoke(args[0], [recv.value], rc)
                return None
            if name == "map":
                if not recv.present:
                    return recv
                # Java Optional.map uses ofNullable: a null mapper
                # result yields an EMPTY Optional
                v = self._invoke(args[0], [recv.value], rc)
                return _Optional(v, v is not None)
            raise PainlessError(f"unsupported Optional method {name!r}")
        if isinstance(recv, _MapEntry):
            if name == "getKey":
                return recv.key
            if name == "getValue":
                return recv.backing.get(recv.key)
            if name == "setValue":
                old = recv.backing.get(recv.key)
                recv.backing[recv.key] = args[0]
                return old
            raise PainlessError(f"unsupported Map.Entry method {name!r}")
        if isinstance(recv, dict):
            if name == "forEach":
                for k in list(recv.keys()):
                    self._invoke(args[0], [k, recv[k]], rc)
                return None
            if name == "computeIfAbsent":
                k = args[0]
                if recv.get(k) is None:
                    recv[k] = self._invoke(args[1], [k], rc)
                return recv.get(k)
            if name == "merge":
                k, v, remap = args
                old = recv.get(k)
                newv = v if old is None else self._invoke(remap, [old, v], rc)
                if newv is None:
                    recv.pop(k, None)
                else:
                    recv[k] = newv
                return newv
            if name == "entrySet":
                return [_MapEntry(recv, k) for k in recv.keys()]
            table = {
                "containsKey": lambda k: k in recv,
                "containsValue": lambda v: v in recv.values(),
                "get": lambda k: recv.get(k),
                "getOrDefault": lambda k, d: recv.get(k, d),
                "put": lambda k, v: recv.__setitem__(k, v),
                "putAll": lambda other: recv.update(other or {}),
                "remove": lambda k: recv.pop(k, None),
                "size": lambda: len(recv),
                "isEmpty": lambda: len(recv) == 0,
                "keySet": lambda: list(recv.keys()),
                "values": lambda: list(recv.values()),
            }
            if name in table:
                return table[name](*args)
            raise PainlessError(f"unsupported Map method {name!r}")
        if isinstance(recv, bool):
            raise PainlessError(f"unsupported method {name!r} on boolean")
        if isinstance(recv, (int, float)):
            table = {
                "intValue": lambda: int(recv),
                "longValue": lambda: int(recv),
                "doubleValue": lambda: float(recv),
                "toString": lambda: _num_str(recv),
            }
            if name in table:
                return table[name](*args)
            raise PainlessError(f"unsupported numeric method {name!r}")
        raise PainlessError(f"unsupported method {name!r} on {type(recv).__name__}")

    def _stream_call(self, recv: _Stream, name: str, args: list, rc: RowCtx):
        it = recv.items
        if name == "filter":
            return _Stream([x for x in it if self._truthy(self._invoke(args[0], [x], rc))])
        if name in ("map", "mapToObj"):
            return _Stream([self._invoke(args[0], [x], rc) for x in it])
        if name in ("mapToInt", "mapToLong"):
            return _Stream([int(self._invoke(args[0], [x], rc)) for x in it])
        if name == "mapToDouble":
            return _Stream([float(self._invoke(args[0], [x], rc)) for x in it])
        if name == "flatMap":
            out = []
            for x in it:
                sub = self._invoke(args[0], [x], rc)
                out.extend(sub.items if isinstance(sub, _Stream) else (sub or []))
            return _Stream(out)
        if name == "distinct":
            return _Stream(_unique(it))
        if name == "sorted":
            return _Stream(sorted(it, key=self._cmp_key(args[0], rc)) if args else sorted(it))
        if name == "limit":
            return _Stream(it[: int(args[0])])
        if name == "skip":
            return _Stream(it[int(args[0]):])
        if name == "count":
            return len(it)
        if name == "sum":
            return sum(it)
        if name == "average":
            return _Optional(sum(it) / len(it) if it else None, bool(it))
        if name in ("min", "max"):
            pick = min if name == "min" else max
            if not it:
                return _Optional(None, False)
            if args:
                return _Optional(pick(it, key=self._cmp_key(args[0], rc)), True)
            return _Optional(pick(it), True)
        if name == "anyMatch":
            return any(self._truthy(self._invoke(args[0], [x], rc)) for x in it)
        if name == "allMatch":
            return all(self._truthy(self._invoke(args[0], [x], rc)) for x in it)
        if name == "noneMatch":
            return not any(self._truthy(self._invoke(args[0], [x], rc)) for x in it)
        if name in ("findFirst", "findAny"):
            return _Optional(it[0] if it else None, bool(it))
        if name == "forEach":
            for x in it:
                self._invoke(args[0], [x], rc)
            return None
        if name == "reduce":
            if len(args) == 2:
                acc = args[0]
                for x in it:
                    acc = self._invoke(args[1], [acc, x], rc)
                return acc
            if not it:
                return _Optional(None, False)
            acc = it[0]
            for x in it[1:]:
                acc = self._invoke(args[0], [acc, x], rc)
            return _Optional(acc, True)
        if name == "toList":
            return list(it)
        if name == "collect":
            col = args[0]
            if isinstance(col, tuple) and col and col[0] == "collector":
                kind = col[1]
                if kind == "list":
                    return list(it)
                if kind == "set":
                    return _JavaSet(it)
                if kind == "join":
                    sep, prefix, suffix = col[2], col[3], col[4]
                    return prefix + sep.join(_to_jstr(x) for x in it) + suffix
                if kind == "map":
                    kfn, vfn = col[2], col[3]
                    return {
                        self._invoke(kfn, [x], rc): self._invoke(vfn, [x], rc)
                        for x in it
                    }
            raise PainlessError("unsupported collector")
        raise PainlessError(f"unsupported Stream method {name!r}")


#: one Java format specifier (flags / width / precision / conversion)
_FMT_SPEC = re.compile(r"%(?:%|[-#+ 0,(]*\d*(?:\.\d+)?[a-zA-Z])")


def _java_format(fmt, *args) -> str:
    """java.lang.String.format over the %-specifiers Java and Python
    share (%s %d %05d %.2f %x …), with Java's null handling: a null
    argument renders as "null" under ANY conversion (Python's ``%``
    would raise for numeric specifiers), %b renders Java-style
    true/false, and extra arguments are ignored as Java does.
    Unsupported conversions still raise → the script fails loudly."""
    fmt = str(fmt)
    out: list[str] = []
    ai = 0
    pos = 0
    for m in _FMT_SPEC.finditer(fmt):
        out.append(fmt[pos:m.start()])
        pos = m.end()
        spec = m.group(0)
        if spec == "%%":
            out.append("%")
            continue
        if ai >= len(args):
            raise PainlessError(f"String.format: missing argument for {spec!r}")
        a = args[ai]
        ai += 1
        if spec[-1] in "bB":
            # Java Formatter %b: null → "false", Boolean → its value,
            # ANY other non-null (even Integer 0 / empty string) →
            # "true" — NOT Python truthiness.  Precision truncates the
            # word (Java %.2b → "tr"), width/alignment pad it.
            if a is None:
                s = "false"
            elif isinstance(a, bool):
                s = "true" if a else "false"
            else:
                s = "true"
            sm = re.match(r"%([-#+ 0,(]*)(\d*)(?:\.(\d+))?", spec)
            left = "-" if "-" in sm.group(1) else ""
            s = s.upper() if spec[-1] == "B" else s
            if sm.group(3) is not None:
                s = s[: int(sm.group(3))]
            out.append(f"%{left}{sm.group(2)}s" % s)
            continue
        if a is None:
            # width/alignment still apply; precision must NOT (Java
            # renders the full word "null", %.2s would truncate it)
            sm = re.match(r"%([-#+ 0,(]*)(\d*)", spec)
            left = "-" if "-" in sm.group(1) else ""
            out.append(f"%{left}{sm.group(2)}s" % "null")
            continue
        out.append(spec % a)
    out.append(fmt[pos:])
    return "".join(out)


def default_builtins() -> dict:
    """(namespace, fn) → callable — the static helpers painless exposes
    (ingest-common Processors, java.lang wrappers, Math)."""
    from ..conditions import _BUILTIN_CALLS

    table = dict(_BUILTIN_CALLS)
    table.update(
        {
            ("Math", "floor"): math.floor,
            ("Math", "ceil"): math.ceil,
            # Java Math.round = floor(x + 0.5) → long (NOT banker's
            # rounding: Math.round(2.5) == 3, Python round(2.5) == 2)
            ("Math", "round"): lambda x: math.floor(float(x) + 0.5),
            ("Math", "pow"): math.pow,
            ("Math", "sqrt"): math.sqrt,
            ("Math", "log"): math.log,
            ("Math", "log10"): math.log10,
            ("Integer", "parseInt"): lambda s, base=10: int(str(s), base),
            ("Integer", "toString"): lambda v: str(int(v)),
            ("Long", "parseLong"): lambda s, base=10: int(str(s), base),
            ("Double", "parseDouble"): lambda s: float(s),
            ("Boolean", "parseBoolean"): lambda s: str(s).lower() == "true",
            ("String", "valueOf"): _to_jstr,
            ("String", "join"): lambda sep, parts: str(sep).join(_to_jstr(p) for p in parts),
            ("String", "format"): _java_format,
            ("Arrays", "asList"): lambda *a: list(a),
            ("Objects", "nonNull"): lambda v: v is not None,
            ("Objects", "isNull"): lambda v: v is None,
            ("Objects", "equals"): lambda a, b: a == b,
            ("Objects", "requireNonNull"): _require_non_null,
            ("Objects", "toString"): lambda v, d="null": d if v is None else _to_jstr(v),
            # Collectors.* return opaque collector markers consumed by
            # Stream.collect (see Interpreter._stream_call)
            ("Collectors", "toList"): lambda: ("collector", "list"),
            ("Collectors", "toSet"): lambda: ("collector", "set"),
            ("Collectors", "joining"): lambda sep="", prefix="", suffix="": (
                "collector", "join", str(sep), str(prefix), str(suffix)),
            ("Collectors", "toMap"): lambda kfn, vfn: ("collector", "map", kfn, vfn),
        }
    )
    return table


def _require_non_null(v, msg=None):
    if v is None:
        raise PainlessError(msg or "Objects.requireNonNull: null")
    return v


def _num_str(v):
    if isinstance(v, float) and v.is_integer():
        return str(v)
    return str(v)


def _java_string_hash(s: str) -> int:
    h = 0
    for ch in s:
        h = (31 * h + ord(ch)) & 0xFFFFFFFF
    return h - (1 << 32) if h >= (1 << 31) else h
