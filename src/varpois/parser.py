"""Input language for field elements, jet expressions, operators and
matrices.

Statements:  ``vars INT`` | ``params ident+`` | ``field rationals[-in-x]`` |
``name = expr`` | ``name = [[expr, ...], ...]``.  Expressions use u1..ul
(u aliases u1), primes or ^(n) for jets, x, declared parameters, previously
defined names, rational literals, ``d`` for the derivative, and
+ - * / ^ with precedence ^ > unary- > * / > + -.  ``*`` composes
noncommutatively as soon as an operand involves d.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Union

from .diffalg import DiffAlgebra, DiffPoly
from .diffop import MatDiffOp, ScalarDiffOp


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ArityError(ParseError):
    pass


_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<primes>'+)
  | (?P<op>[-+*/^=(),\[\]])
""", re.VERBOSE)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind},{self.text!r})"


def tokenize(src: str) -> list:
    out = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "newline":
            out.append(Token("newline", text, line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                out.append(Token(kind if kind != "op" else text, text,
                                 line, col))
            col += len(text)
        pos = m.end()
    out.append(Token("eof", "", line, col))
    return out


class SessionConfig:
    __slots__ = ("nvars", "params", "field")

    def __init__(self, nvars=1, params=(), field="rationals-in-x"):
        self.nvars = nvars
        self.params = tuple(params)
        self.field = field

    def make_algebra(self) -> DiffAlgebra:
        return DiffAlgebra(self.nvars, self.params)


class Session:
    """Parsed session: algebra context plus named definitions."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.alg = config.make_algebra()
        self.names: dict = {}

    def evaluate(self, source: str):
        """Evaluate a single expression in this session."""
        toks = tokenize(source)
        p = _Parser(toks, self)
        val = p.parse_expression_or_bracket()
        p.expect_end()
        return val


Value = Union[DiffPoly, ScalarDiffOp, MatDiffOp, list]


_JET_RE = re.compile(r"^u(\d*)$")


class _Parser:
    def __init__(self, tokens: list, session: Session):
        self.toks = tokens
        self.pos = 0
        self.session = session

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def accept(self, kind: str) -> Optional[Token]:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str = "") -> Token:
        t = self.peek()
        if t.kind != kind:
            shown = repr(t.text) if t.text else "end of input"
            raise ParseError(f"expected {what or kind}, found {shown}",
                             t.line, t.col)
        return self.next()

    def expect_end(self):
        while self.accept("newline"):
            pass
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"unexpected trailing input {t.text!r}",
                             t.line, t.col)

    # -- statements ----------------------------------------------------------

    def parse_file(self):
        while True:
            while self.accept("newline"):
                pass
            if self.peek().kind == "eof":
                return
            self.parse_statement()
            t = self.peek()
            if t.kind not in ("newline", "eof"):
                raise ParseError(f"expected end of statement, found {t.text!r}",
                                 t.line, t.col)

    def parse_statement(self):
        t = self.expect("ident", "a statement")
        if t.text == "vars":
            num = self.expect("num", "the number of dependent variables")
            self.session.config.nvars = int(num.text)
            self.session.alg = self.session.config.make_algebra()
            self.session.names.clear()
            return
        if t.text == "params":
            names = []
            while self.peek().kind == "ident":
                names.append(self.next().text)
            if not names:
                raise ParseError("params needs at least one name",
                                 t.line, t.col)
            self.session.config.params = tuple(names)
            self.session.alg = self.session.config.make_algebra()
            self.session.names.clear()
            return
        if t.text == "field":
            kind = self.expect("ident", "a field name")
            name = kind.text
            if self.accept("-"):
                name += "-" + self.expect("ident").text
                if self.accept("-"):
                    name += "-" + self.expect("ident").text
            if name not in ("rationals", "rationals-in-x"):
                raise ParseError(f"unknown field {name!r}", kind.line,
                                 kind.col)
            self.session.config.field = name
            return
        name = t.text
        if _JET_RE.match(name) or name in ("x", "d") or \
                name in self.session.config.params:
            raise ParseError(f"cannot redefine builtin {name!r}",
                             t.line, t.col)
        self.expect("=", "'='")
        value = self.parse_expression_or_bracket()
        self.session.names[name] = value

    # -- expressions -----------------------------------------------------------

    def parse_expression_or_bracket(self):
        if self.peek().kind == "[":
            return self.parse_bracket()
        return self.parse_sum()

    def parse_bracket(self):
        t = self.expect("[")
        if self.peek().kind == "[":
            rows = [self.parse_row()]
            while self.accept(","):
                rows.append(self.parse_row())
            self.expect("]", "']' closing the matrix")
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ParseError("ragged matrix rows", t.line, t.col)
            alg = self.session.alg
            return MatDiffOp(alg, [[_as_operator(v, alg, tok)
                                    for tok, v in row] for row in rows])
        items = [self.parse_sum()]
        while self.accept(","):
            items.append(self.parse_sum())
        self.expect("]", "']' closing the vector")
        return [_as_diffpoly(v, self.session.alg, t) for v in items]

    def parse_row(self) -> list:
        """The entries of a matrix row as (first token, value) pairs."""
        self.expect("[", "a matrix row")
        items = [(self.peek(), self.parse_sum())]
        while self.accept(","):
            items.append((self.peek(), self.parse_sum()))
        self.expect("]", "']' closing the row")
        return items

    def parse_sum(self):
        """Type errors of a sum point at its operator token."""
        left = self.parse_term()
        while True:
            t = self.accept("+") or self.accept("-")
            if t is None:
                return left
            right = self.parse_term()
            left = _add(left, right if t.kind == "+" else _neg(right),
                        self.session.alg, t)

    def parse_term(self):
        """Type errors of a product point at its operator token."""
        left = self.parse_unary()
        while True:
            t = self.accept("*") or self.accept("/")
            if t is None:
                return left
            step = _mul if t.kind == "*" else _div
            left = step(left, self.parse_unary(), self.session.alg, t)

    def parse_unary(self):
        if self.accept("-"):
            return _neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_primary()
        t = self.peek()
        if self.accept("^"):
            exp = self.parse_unary()
            n = _as_exponent(exp, t)
            return _pow(base, n, t)
        return base

    def parse_primary(self):
        t = self.peek()
        if t.kind == "num":
            self.next()
            return self.session.alg.from_scalar(Fraction(int(t.text)))
        if t.kind == "(":
            self.next()
            v = self.parse_sum()
            self.expect(")", "')'")
            return v
        if t.kind == "ident":
            self.next()
            return self.parse_identifier(t)
        shown = repr(t.text) if t.text else "end of input"
        raise ParseError(f"expected an expression, found {shown}",
                         t.line, t.col)

    def parse_identifier(self, t: Token):
        alg = self.session.alg
        name = t.text
        jet = _JET_RE.match(name)
        if jet:
            index = int(jet.group(1)) if jet.group(1) else 1
            if not 1 <= index <= alg.nvars:
                raise ArityError(
                    f"jet index {index} exceeds the declared {alg.nvars} "
                    f"variable(s)", t.line, t.col)
            order = 0
            primes = self.accept("primes")
            if primes:
                order = len(primes.text)
            elif self.peek().kind == "^" and \
                    self.toks[self.pos + 1].kind == "(" and \
                    self.toks[self.pos + 2].kind == "num" and \
                    self.toks[self.pos + 3].kind == ")":
                self.next()
                self.next()
                order = int(self.next().text)
                self.next()
            return alg.jet(index, order)
        if name == "x":
            if self.session.config.field == "rationals":
                raise ParseError("x is not available over the plain "
                                 "rationals", t.line, t.col)
            return alg.x()
        if name == "d":
            return ScalarDiffOp.d(alg)
        if name in self.session.config.params:
            return alg.param(name)
        if name in self.session.names:
            return self.session.names[name]
        raise ParseError(f"unknown identifier {name!r}", t.line, t.col)


# -- value algebra ------------------------------------------------------------------


def _is_op(v) -> bool:
    return isinstance(v, (ScalarDiffOp, MatDiffOp))


def _as_operator(v, alg, t) -> ScalarDiffOp:
    if isinstance(v, ScalarDiffOp):
        return v
    if isinstance(v, DiffPoly):
        return ScalarDiffOp(alg, {0: v})
    raise ParseError(f"cannot use {type(v).__name__} as an operator entry",
                     t.line, t.col)


def _as_diffpoly(v, alg, t) -> DiffPoly:
    if isinstance(v, DiffPoly):
        return v
    raise ParseError("expected a differential polynomial entry",
                     t.line, t.col)


def _add(a, b, alg, t):
    if isinstance(a, MatDiffOp) or isinstance(b, MatDiffOp):
        if not (isinstance(a, MatDiffOp) and isinstance(b, MatDiffOp)):
            raise ParseError("cannot add a matrix and a scalar",
                             t.line, t.col)
        return a + b
    if _is_op(a) or _is_op(b):
        return _as_operator(a, alg, t) + _as_operator(b, alg, t)
    if isinstance(a, list) or isinstance(b, list):
        raise ParseError("vectors do not participate in arithmetic",
                         t.line, t.col)
    return a + b


def _neg(a):
    if isinstance(a, list):
        return [-v for v in a]
    return -a


def _mul(a, b, alg, t):
    if isinstance(a, MatDiffOp) or isinstance(b, MatDiffOp):
        if isinstance(a, MatDiffOp) and isinstance(b, MatDiffOp):
            return a.compose(b)
        mat = a if isinstance(a, MatDiffOp) else b
        other = b if isinstance(a, MatDiffOp) else a
        op = _as_operator(other, alg, t)
        if mat is a:
            return MatDiffOp(alg, [[e.compose(op) for e in r]
                                   for r in mat.rows])
        return MatDiffOp(alg, [[op.compose(e) for e in r] for r in mat.rows])
    if _is_op(a) or _is_op(b):
        return _as_operator(a, alg, t).compose(_as_operator(b, alg, t))
    if isinstance(a, list) or isinstance(b, list):
        raise ParseError("vectors do not participate in arithmetic",
                         t.line, t.col)
    return a * b


def _div(a, b, alg, t):
    if not isinstance(b, DiffPoly) or not b.is_quasiconstant() or b.is_zero():
        raise ParseError("division is only by nonzero quasiconstants",
                         t.line, t.col)
    c = alg.field.one / b.quasiconstant_part()
    if isinstance(a, MatDiffOp):
        return a.scale(alg.from_scalar(c))
    if isinstance(a, ScalarDiffOp):
        return a.scale(alg.from_scalar(c))
    if isinstance(a, DiffPoly):
        return a.scale(c)
    raise ParseError("cannot divide this value", t.line, t.col)


def _as_exponent(v, t) -> int:
    if isinstance(v, DiffPoly) and v.is_quasiconstant():
        c = v.quasiconstant_part()
        if c.is_rational_number():
            q = c.as_fraction()
            if q.denominator == 1 and q >= 0:
                return int(q)
    raise ParseError("exponent must be a nonnegative integer", t.line, t.col)


def _pow(base, n: int, t):
    if isinstance(base, DiffPoly):
        return base ** n
    if isinstance(base, ScalarDiffOp):
        out = ScalarDiffOp.identity(base.alg)
        for _ in range(n):
            out = out.compose(base)
        return out
    if isinstance(base, MatDiffOp):
        if not base.is_square():
            raise ParseError("power of a non-square matrix", t.line, t.col)
        out = MatDiffOp.identity(base.alg, base.m)
        for _ in range(n):
            out = out.compose(base)
        return out
    raise ParseError("cannot raise this value to a power", t.line, t.col)


def parse_session(source: str) -> Session:
    """Parse a whole session file: configuration statements (which reset any
    earlier definitions) followed by named definitions."""
    session = Session(SessionConfig())
    toks = tokenize(source)
    p = _Parser(toks, session)
    p.parse_file()
    return session
