"""Sectioned text format for two-player safety/liveness specifications.

The format is line oriented.  Eight section headers split a document into
variable declarations and clause lists::

    [ENV_VARS] [SYS_VARS] [ENV_INIT] [SYS_INIT]
    [ENV_TRANS] [SYS_TRANS] [ENV_LIVENESS] [SYS_LIVENESS]

Declarations are ``name : bool`` or ``name : lo..hi``.  Clauses are boolean
expressions over ``! & | -> <->``, integer comparisons ``= != < <= > >=``
between a variable (optionally offset by ``+ k`` / ``- k``) or a literal,
next-step references written ``name'``, and parentheses.  ``#`` starts a
comment.  Names and integers are ASCII: an integer is written in the digits
``0-9`` only.  Clauses are evaluated over int64, so every declared bound,
literal and offset, and the values ``lo + k .. hi + k`` of a term
``name + k``, must fit in a signed 64-bit integer; anything wider is a
type mismatch rather than a wrapped value.

One validator serves parsed and built documents alike: ``parse_spec`` only
builds declarations and clauses, then runs the checker that
``validate_document`` runs, so the printed text of an accepted document
parses back to an equal one.  A name must be an identifier other than the
reserved words ``true`` and ``false``, declared once, owned by env or sys,
over a non-empty range; a ``bool`` ranges over exactly ``0..1``.  A document
without system liveness clauses gets the goal ``true``.

Ownership discipline: environment transition clauses may not mention
next-step system variables, init and liveness clauses may not mention
next-step variables at all, and environment init clauses may only mention
environment variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import Diagnostic, MissingBinding, SpecError

ENV = "env"
SYS = "sys"
_OWNERS = (ENV, SYS)

# Every section header, in canonical order, with what its lines fill: the
# owner of the variables it declares, or the document field of its clauses.
_SECTION_FIELD = {
    "[ENV_VARS]": ENV, "[SYS_VARS]": SYS,
    "[ENV_INIT]": "env_init", "[SYS_INIT]": "sys_init",
    "[ENV_TRANS]": "env_safety", "[SYS_TRANS]": "sys_safety",
    "[ENV_LIVENESS]": "env_liveness", "[SYS_LIVENESS]": "sys_liveness",
}
SECTIONS = tuple(_SECTION_FIELD)
_CLAUSE_FIELDS = tuple(f for f in _SECTION_FIELD.values() if f not in _OWNERS)

_IDENT_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")


# --------------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class VarDecl:
    name: str
    owner: str            # ENV or SYS
    lo: int               # booleans are 0..1
    hi: int
    is_bool: bool

    @property
    def size(self):
        return self.hi - self.lo + 1


class _Clause:
    """Base of the boolean expression nodes.  ``eval_expr`` caches a node's
    compiled form in its instance dict; equality and hashing read only the
    dataclass fields, and the state that copying and pickling take leaves
    the cache out."""

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_compiled"}


@dataclass(frozen=True)
class BoolLit(_Clause):
    value: bool


@dataclass(frozen=True)
class VarRef(_Clause):
    """A variable used as a boolean atom."""
    name: str
    primed: bool


@dataclass(frozen=True)
class IntTerm:
    """Integer-valued term: a constant, or a variable plus a constant offset."""
    name: str | None      # None means pure constant
    primed: bool
    offset: int


@dataclass(frozen=True)
class Cmp(_Clause):
    op: str               # = != < <= > >=
    lhs: IntTerm
    rhs: IntTerm


@dataclass(frozen=True)
class Not(_Clause):
    arg: object


@dataclass(frozen=True)
class And(_Clause):
    args: tuple


@dataclass(frozen=True)
class Or(_Clause):
    args: tuple


@dataclass(frozen=True)
class Implies(_Clause):
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Iff(_Clause):
    lhs: object
    rhs: object


@dataclass
class SpecDocument:
    vars: list[VarDecl] = field(default_factory=list)
    env_init: list = field(default_factory=list)
    sys_init: list = field(default_factory=list)
    env_safety: list = field(default_factory=list)
    sys_safety: list = field(default_factory=list)
    env_liveness: list = field(default_factory=list)
    sys_liveness: list = field(default_factory=list)

    def env_vars(self):
        return [d for d in self.vars if d.owner == ENV]

    def sys_vars(self):
        return [d for d in self.vars if d.owner == SYS]


# --------------------------------------------------------------------------
# lexer

_TOKEN_SPEC = [
    ("INT", r"\d+"),
    ("NAME", r"[a-zA-Z_][a-zA-Z0-9_]*"),
    ("OP", r"<->|->|<=|>=|!=|\.\.|[!&|=<>+\-():']"),
    ("WS", r"[ \t\r]+"),
    ("BAD", r"[\s\S]"),
]
_TOKEN_RE = re.compile("|".join(f"(?P<{k}>{v})" for k, v in _TOKEN_SPEC),
                       re.ASCII)


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _syntax_error(message, line, col, text=""):
    return SpecError([Diagnostic(Diagnostic.SYNTAX, message, line, col, text)])


def _lex_line(text, line_no):
    """Tokens of one source line, closed by an END token that stands at the
    last token's column; raises SpecError at the first illegal character."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "WS":
            continue
        if kind == "BAD":
            raise _syntax_error("illegal character", line_no, m.start() + 1,
                                m.group())
        toks.append(_Tok(kind, m.group(), line_no, m.start() + 1))
    toks.append(_Tok("END", "", line_no, toks[-1].col if toks else 1))
    return toks


# --------------------------------------------------------------------------
# expression parser (recursive descent)


class _ExprParser:
    # each '(', '!', '->' and '<->' nests its operand one level deeper; past
    # MAX_NESTING levels the parse fails, so that neither it nor printing,
    # comparing or evaluating what it returns can exhaust the stack, and
    # `_check` bounds the printed form of every clause the same way
    MAX_NESTING = 50

    def __init__(self, toks):
        self.toks = toks
        self.i = 0
        self.depth = 0

    def _peek(self):
        return self.toks[self.i]

    def _take(self):
        self.i += 1
        return self.toks[self.i - 1]

    def _fail(self, message, tok=None):
        tok = tok or self._peek()
        raise _syntax_error(message, tok.line, tok.col, tok.text)

    def _nested(self, parse):
        """`parse` after the operator token ahead, one level deeper."""
        self.depth += 1
        if self.depth > self.MAX_NESTING:
            self._fail(f"nested deeper than {self.MAX_NESTING} levels")
        self._take()
        e = parse()
        self.depth -= 1
        return e

    def parse(self):
        e = self._iff()
        if self._peek().kind != "END":
            self._fail("unexpected trailing token")
        return e

    def _iff(self):
        depth, e = self.depth, self._implies()
        while self._peek().text == "<->":
            e = Iff(e, self._nested(self._implies))
            # a chain nests to the left, one level per link
            self.depth += 1
        self.depth = depth
        return e

    def _implies(self):
        e = self._or()
        if self._peek().text == "->":
            return Implies(e, self._nested(self._implies))
        return e

    def _or(self):
        args = [self._and()]
        while self._peek().text == "|":
            self._take()
            args.append(self._and())
        return args[0] if len(args) == 1 else Or(tuple(args))

    def _and(self):
        args = [self._unary()]
        while self._peek().text == "&":
            self._take()
            args.append(self._unary())
        return args[0] if len(args) == 1 else And(tuple(args))

    def _unary(self):
        if self._peek().text == "!":
            return Not(self._nested(self._unary))
        return self._atom()

    _CMP_OPS = {"=", "!=", "<", "<=", ">", ">="}

    def _atom(self):
        t = self._peek()
        if t.kind == "END":
            self._fail("expected expression")
        if t.text == "(":
            e = self._nested(self._iff)
            close = self._take()
            if close.text != ")":
                self._fail("expected ')'", t if close.kind == "END" else close)
            return e
        if t.kind == "NAME" and t.text in ("true", "false"):
            self._take()
            return BoolLit(t.text == "true")
        # a term, possibly the left side of a comparison
        lhs = self._term()
        if self._peek().text in self._CMP_OPS:
            op = self._take().text
            return Cmp(op, lhs, self._term())
        # bare boolean variable reference
        if lhs.name is None or lhs.offset != 0:
            self._fail("integer term needs a comparison", t)
        return VarRef(lhs.name, lhs.primed)

    def _term(self):
        t = self._take()
        neg = t.text == "-"
        if neg:
            t = self._take()
        if t.kind == "INT":
            base = IntTerm(None, False, -int(t.text) if neg else int(t.text))
        elif t.kind == "NAME" and not neg:
            primed = self._peek().text == "'"
            if primed:
                self._take()
            base = IntTerm(t.text, primed, 0)
        elif t.kind == "END":
            self._fail("expected integer after '-'" if neg else "expected term",
                       t)
        else:
            self._fail("expected variable or integer", t)
        # optional +k / -k chain (constant folding)
        while self._peek().text in ("+", "-"):
            sign = 1 if self._take().text == "+" else -1
            t2 = self._take()
            if t2.kind != "INT":
                self._fail("expected integer offset", t2)
            base = IntTerm(base.name, base.primed, base.offset + sign * int(t2.text))
        return base


def _parse_clause(text, line_no):
    """Lex and parse one clause line; raises SpecError on bad syntax.
    ``parse_spec`` calls this rather than the public ``parse_expr``, so a
    wrapper that times the public functions sees one call per document."""
    toks = _lex_line(text, line_no)
    if len(toks) == 1:
        raise _syntax_error("empty expression", line_no, 1)
    return _ExprParser(toks).parse()


def parse_expr(text):
    """Parse a single clause; raises SpecError on bad syntax."""
    return _parse_clause(text, 1)


# --------------------------------------------------------------------------
# document parser


_DECL_RE = re.compile(
    rf"^({_IDENT_RE.pattern})\s*:\s*(bool|(-?\d+)\s*\.\.\s*(-?\d+))$",
    re.ASCII)


def parse_spec(text):
    """Parse and validate spec text into a SpecDocument.

    Raises SpecError carrying positioned diagnostics, in line order, on any
    problem; never raises anything else, for arbitrary byte input decoded
    as UTF-8.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    doc = SpecDocument()
    lines = {f: [] for f in ("vars",) + _CLAUSE_FIELDS}   # source line of each item
    diags = []
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = _SECTION_FIELD.get(line)
            if section is None:
                diags.append(Diagnostic(Diagnostic.SYNTAX, "unknown section header",
                                        line_no, 1, line))
        elif section is None:
            diags.append(Diagnostic(Diagnostic.SYNTAX, "clause outside any section",
                                    line_no, 1, line.split()[0]))
        elif section in _OWNERS:
            m = _DECL_RE.match(line)
            if m is None:
                diags.append(Diagnostic(Diagnostic.SYNTAX, "bad declaration",
                                        line_no, 1, line))
                continue
            name, dom, lo, hi = m.groups()
            doc.vars.append(VarDecl(name, section, 0, 1, True) if dom == "bool"
                            else VarDecl(name, section, int(lo), int(hi), False))
            lines["vars"].append(line_no)
        else:
            try:
                getattr(doc, section).append(_parse_clause(line, line_no))
            except SpecError as e:
                diags += e.diagnostics
                continue
            lines[section].append(line_no)
    diags += _check(doc, lines)
    if diags:
        raise SpecError(sorted(diags, key=lambda d: d.line))
    return doc


# --------------------------------------------------------------------------
# validation


def _walk_refs(expr):
    """Yield (name, primed, term) for every variable reference and integer
    term: `term` is None for a variable used as a boolean atom, and `name`
    is None for a literal."""
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, VarRef):
            yield e.name, e.primed, None
        elif isinstance(e, IntTerm):
            yield e.name, e.primed, e
        elif isinstance(e, Cmp):
            stack.append(e.lhs)
            stack.append(e.rhs)
        elif isinstance(e, Not):
            stack.append(e.arg)
        elif isinstance(e, (And, Or)):
            stack.extend(e.args)
        elif isinstance(e, (Implies, Iff)):
            stack.append(e.lhs)
            stack.append(e.rhs)


_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _check(doc, lines):
    """The one validator of a document, parsed or built; returns its
    diagnostics and gives a document without system liveness clauses the
    goal ``true``.  ``lines`` maps "vars" and each clause field to the source
    lines of its items; an item without one is reported at line 0.  A
    declaration that fails a check counts as undeclared in the clauses."""
    diags = []

    def report(kind, message, line, name):
        diags.append(Diagnostic(kind, message, line, 1 if line else 0, name))

    decls = {}
    for d, line in zip(doc.vars, lines.get("vars", repeat(0))):
        if not _IDENT_RE.fullmatch(d.name):
            report(Diagnostic.SYNTAX, f"bad identifier {d.name!r}", line, d.name)
        elif d.name in ("true", "false"):
            report(Diagnostic.SYNTAX, "reserved word as name", line, d.name)
        elif d.name in decls:
            report(Diagnostic.DUPLICATE, f"variable {d.name!r} declared twice",
                   line, d.name)
        elif d.owner not in _OWNERS:
            report(Diagnostic.OWNERSHIP, f"owner {d.owner!r} is neither "
                   f"{ENV!r} nor {SYS!r}", line, d.name)
        elif not (_INT64_MIN <= d.lo <= _INT64_MAX
                  and _INT64_MIN <= d.hi <= _INT64_MAX):
            report(Diagnostic.TYPE_MISMATCH, f"range {d.lo}..{d.hi} does "
                   "not fit in 64 bits", line, d.name)
        elif d.lo > d.hi:
            report(Diagnostic.TYPE_MISMATCH, f"empty range {d.lo}..{d.hi}",
                   line, d.name)
        elif d.is_bool and (d.lo, d.hi) != (0, 1):
            report(Diagnostic.TYPE_MISMATCH, f"boolean variable over "
                   f"{d.lo}..{d.hi}, not 0..1", line, d.name)
        else:
            decls[d.name] = d
    for fieldname in _CLAUSE_FIELDS:
        unprimed = not fieldname.endswith("_safety")     # init and liveness
        for expr, line in zip(getattr(doc, fieldname),
                              lines.get(fieldname, repeat(0))):
            if _nesting(expr) > _ExprParser.MAX_NESTING:
                report(Diagnostic.SYNTAX, "nested deeper than "
                       f"{_ExprParser.MAX_NESTING} levels when printed",
                       line, "")
            for name, primed, term in _walk_refs(expr):
                d = decls.get(name)
                if term is not None and (d is not None or name is None):
                    k = term.offset
                    lo, hi = (d.lo, d.hi) if d else (0, 0)
                    if not (_INT64_MIN <= lo + k and hi + k <= _INT64_MAX
                            and _INT64_MIN <= k <= _INT64_MAX):
                        report(Diagnostic.TYPE_MISMATCH,
                               f"term {_term_text(term)} does not fit in "
                               "64 bits", line, name or str(k))
                if name is None:
                    continue
                if d is None:
                    report(Diagnostic.UNKNOWN_VARIABLE,
                           f"undeclared variable {name!r}", line, name)
                    continue
                as_bool = term is None
                if as_bool and not d.is_bool:
                    report(Diagnostic.TYPE_MISMATCH,
                           f"integer variable {name!r} used as boolean",
                           line, name)
                if not as_bool and d.is_bool:
                    report(Diagnostic.TYPE_MISMATCH,
                           f"boolean variable {name!r} used in arithmetic",
                           line, name)
                if primed and unprimed:
                    report(Diagnostic.PRIMED_NOT_ALLOWED,
                           f"next-step reference {name}' not allowed here",
                           line, name)
                if fieldname == "env_safety" and primed and d.owner == SYS:
                    report(Diagnostic.OWNERSHIP, f"environment clause references "
                           f"next-step system variable {name}'", line, name)
                if fieldname == "env_init" and d.owner == SYS:
                    report(Diagnostic.OWNERSHIP, f"environment init references "
                           f"system variable {name!r}", line, name)
    if not doc.sys_liveness:
        doc.sys_liveness.append(BoolLit(True))
    return diags


def validate_document(doc):
    """Validate a programmatically built document with the checker that
    ``parse_spec`` runs; raises SpecError with unpositioned diagnostics."""
    diags = _check(doc, {})
    if diags:
        raise SpecError(diags)
    return doc


# --------------------------------------------------------------------------
# canonical printer


_PREC = {Iff: 1, Implies: 2, Or: 3, And: 4, Not: 5}


def _term_text(t):
    if t.name is None:
        return str(t.offset)
    s = t.name + ("'" if t.primed else "")
    if t.offset > 0:
        s += f" + {t.offset}"
    elif t.offset < 0:
        s += f" - {-t.offset}"
    return s


def _fmt(e, required=0):
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, VarRef):
        return e.name + ("'" if e.primed else "")
    if isinstance(e, Cmp):
        return f"{_term_text(e.lhs)} {e.op} {_term_text(e.rhs)}"
    prec = _PREC.get(type(e), 0)
    if isinstance(e, Not):
        if isinstance(e.arg, Cmp):
            body = f"!({_fmt(e.arg)})"   # parenthesized for readability
        else:
            body = "!" + _fmt(e.arg, prec)
    elif isinstance(e, And):
        body = " & ".join(_fmt(a, prec + 1) for a in e.args)
    elif isinstance(e, Or):
        body = " | ".join(_fmt(a, prec + 1) for a in e.args)
    elif isinstance(e, Implies):
        body = f"{_fmt(e.lhs, prec + 1)} -> {_fmt(e.rhs, prec)}"
    elif isinstance(e, Iff):
        body = f"{_fmt(e.lhs, prec + 1)} <-> {_fmt(e.rhs, prec + 1)}"
    else:
        raise TypeError(f"not an expression: {e!r}")
    if prec < required:
        return f"({body})"
    return body


def format_expr(e):
    return _fmt(e, 0)


def _nesting(expr):
    """The depth the parser reaches on the text `_fmt` prints for `expr`:
    one level per '(' it writes, per '!' and per right side of a '->' or
    '<->' link; by an explicit stack, at any depth."""
    deepest, stack = 0, [(expr, 0, 0)]
    while stack:
        e, level, required = stack.pop()
        t = type(e)
        prec = _PREC.get(t)
        if prec is None:                # an atom, printed bare and deepest
            if level > deepest:
                deepest = level
            continue
        level += prec < required       # `_fmt` parenthesizes it
        if t is Not:
            # '!(' before a comparison
            stack.append((e.arg, level + 1 + (type(e.arg) is Cmp), prec))
        elif t is And or t is Or:
            stack += [(a, level, prec + 1) for a in e.args]
        else:
            stack += [(e.lhs, level, prec + 1),
                      (e.rhs, level + 1, prec + (t is Iff))]
    return deepest


def print_spec(doc):
    """Render a document in canonical text form.

    The output of a document ``parse_spec`` or ``validate_document``
    accepted parses back to a structurally equal document, and printing that
    parse reproduces the same bytes.
    """
    out = []
    for header, fieldname in _SECTION_FIELD.items():
        out.append(header)
        if fieldname in _OWNERS:
            out += [f"{d.name} : {'bool' if d.is_bool else f'{d.lo}..{d.hi}'}"
                    for d in doc.vars if d.owner == fieldname]
        else:
            out += map(format_expr, getattr(doc, fieldname))
        out.append("")
    return "\n".join(out)


# --------------------------------------------------------------------------
# evaluation


_COMPARE = {"=": np.equal, "!=": np.not_equal, "<": np.less,
            "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}


def _missing(name, primed):
    where = "next" if primed else "current"
    return MissingBinding(f"{name}{'′' if primed else ''} missing from "
                          f"{where} valuation")


# The closures below take their operands as default arguments: those are
# read as locals, and a closure needs no cell per operand, which keeps the
# compile of a freshly parsed document cheap.


def _term(t):
    """Closure for an integer term: its constant, or its variable's value
    from the valuation plus the offset."""
    if t.name is None:
        return lambda current, nxt, offset=t.offset: offset

    def term(current, nxt, name=t.name, primed=t.primed, offset=t.offset):
        env = nxt if primed else current
        if env is None or name not in env:
            raise _missing(name, primed)
        return env[name] + offset
    return term


def _compile(e):
    """The expression as one closure ``(current, nxt) -> value``.  The
    closures hold names, offsets, ufuncs and each other, never an
    expression node, so caching one in its node makes no cycle."""
    kind = type(e)
    if kind is Cmp:
        op, lhs = _COMPARE[e.op], _term(e.lhs)
        if e.rhs.name is None:          # the usual ``variable op constant``
            return lambda current, nxt, op=op, lhs=lhs, k=e.rhs.offset: op(
                lhs(current, nxt), k)
        return lambda current, nxt, op=op, lhs=lhs, rhs=_term(e.rhs): op(
            lhs(current, nxt), rhs(current, nxt))
    if kind is VarRef:
        def ref(current, nxt, name=e.name, primed=e.primed):
            env = nxt if primed else current
            if env is None or name not in env:
                raise _missing(name, primed)
            return np.not_equal(env[name], 0)
        return ref
    if kind is And or kind is Or:
        def fold(current, nxt, parts=tuple(map(_compile, e.args)),
                 ufunc=np.logical_and if kind is And else np.logical_or,
                 start=np.True_ if kind is And else np.False_):
            out = start
            for part in parts:
                out = ufunc(out, part(current, nxt))
            return out
        return fold
    if kind is Not:
        def not_(current, nxt, arg=_compile(e.arg)):
            return np.logical_not(arg(current, nxt))
        return not_
    if kind is Implies:
        def implies(current, nxt, lhs=_compile(e.lhs), rhs=_compile(e.rhs)):
            return np.logical_or(np.logical_not(lhs(current, nxt)),
                                 rhs(current, nxt))
        return implies
    if kind is Iff:
        def iff(current, nxt, lhs=_compile(e.lhs), rhs=_compile(e.rhs)):
            return np.equal(lhs(current, nxt), rhs(current, nxt))
        return iff
    if kind is BoolLit:
        return lambda current, nxt, value=np.bool_(e.value): value
    raise TypeError(f"not an expression: {e!r}")


def eval_expr(e, current, nxt=None):
    """Evaluate a clause over a current valuation and a (partial) next one.

    Valuations map names to ints (booleans as 0/1) or to mutually
    broadcastable int arrays.  The clause is evaluated element by element
    into a numpy bool array of the broadcast shape, or a numpy bool where
    no array is referenced (``true``, say), which callers broadcast.
    Every operand is evaluated, so a referenced name missing from its
    valuation always raises MissingBinding.  Integer arithmetic is exact
    on ints; nothing is clamped here.

    An expression is compiled once, on its first evaluation, into a tree
    of closures that make the same ufunc calls in the same order as a walk
    over its nodes would, and the root closure is cached in the node's
    instance dict; later calls look it up there, without hashing the
    tree.  Equality, hashing, copying and pickling of expressions do not
    see that cache.

    This is the toolkit's only evaluator: the arena compiler calls it over
    the axes of its truth tables, and the checkers over trace and
    controller columns.
    """
    try:
        fn = e.__dict__["_compiled"]
    except (AttributeError, KeyError):
        fn = e.__dict__["_compiled"] = _compile(e)
    return fn(current, nxt)


def expr_refs(e):
    """Set of (name, primed) pairs referenced by an expression."""
    return {(name, primed) for name, primed, _ in _walk_refs(e)
            if name is not None}
