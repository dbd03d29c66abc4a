"""Exact scalar arithmetic: rational functions over the integers in declared symbols.

Every coefficient anywhere in the engine is a ScalarExpr: a canonical ratio of
multivariate polynomials with exact integer coefficients.  Equality of values
is decidable (the difference cancels to the structural zero), which is what
makes row reduction and all downstream verification exact.
"""

from __future__ import annotations

import enum
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

import sympy as sp


class McforgeError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateSymbolError(McforgeError):
    pass


class UnknownSymbolError(McforgeError):
    pass


class ZeroDivisionFunctionError(McforgeError):
    """Division by the zero rational function."""


class DegeneratePointError(McforgeError):
    """Substitution hit a pole / an assumed-nonzero function vanished."""


class InvalidOrderError(McforgeError, ValueError):
    """A jet or prolongation order outside the range a command accepts."""


class ParseError(McforgeError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class SymbolKind(enum.Enum):
    SOURCE = "source-coordinate"
    TARGET = "target-coordinate"
    JET = "jet-symbol"


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


@dataclass(frozen=True)
class Symbol:
    name: str
    kind: SymbolKind
    sym: sp.Symbol

    def __repr__(self):
        return f"Symbol({self.name!r}, {self.kind.value})"


class SymbolTable:
    """Append-only registry of declared symbols plus the genericity ledger.

    The genericity ledger (``assumed_nonzero``) collects every non-constant
    function that has been divided by during the session, input-coefficient
    denominators and elimination pivots alike; all reports surface it so
    standing assumptions like x != 0 are explicit.
    """

    def __init__(self):
        self._symbols: dict[str, Symbol] = {}
        self._lock = threading.Lock()
        self.assumed_nonzero: list[ScalarExpr] = []
        self._recorded: set[sp.Expr] = set()  # raw values already normalized

    def declare(self, name: str, kind: SymbolKind) -> Symbol:
        if not _NAME_RE.match(name):
            raise ParseError(f"invalid identifier {name!r}")
        with self._lock:
            existing = self._symbols.get(name)
            if existing is not None:
                if existing.kind is kind:
                    return existing
                raise DuplicateSymbolError(
                    f"symbol {name!r} already declared as {existing.kind.value}"
                )
            symbol = Symbol(name, kind, sp.Symbol(name))
            self._symbols[name] = symbol
            return symbol

    def lookup(self, name: str) -> Symbol:
        try:
            return self._symbols[name]
        except KeyError:
            raise UnknownSymbolError(f"symbol {name!r} is not declared") from None

    def get(self, name: str):
        return self._symbols.get(name)

    def expr(self, symbol: Symbol | str) -> "ScalarExpr":
        if isinstance(symbol, str):
            symbol = self.lookup(symbol)
        return ScalarExpr(symbol.sym, self)

    def record_nonzero(self, value: "ScalarExpr") -> None:
        # a raw value seen before is constant or already in the ledger
        raw = value.expr
        with self._lock:
            if raw in self._recorded:
                return
        expr = _nonzero_normal_form(raw)
        with self._lock:
            self._recorded.add(raw)
            if expr is not None and all(expr != a.expr for a in self.assumed_nonzero):
                self.assumed_nonzero.append(ScalarExpr(expr, self))


def _nonzero_normal_form(expr: sp.Expr):
    # b != 0 iff numerator(b) != 0; normalize to a primitive polynomial with a
    # positive leading sign so the ledger stays duplicate-free.
    num, _ = sp.fraction(sp.cancel(expr))
    num = sp.expand(num)
    if num.is_number:
        return None
    free = sorted(num.free_symbols, key=lambda s: s.name)
    try:
        _, prim = sp.Poly(num, *free).primitive()
        num = prim.as_expr()
    except sp.PolynomialError:
        pass
    if num.could_extract_minus_sign():
        num = -num
    return num


def _coerce(value, table):
    if isinstance(value, ScalarExpr):
        return value
    if isinstance(value, int):
        return ScalarExpr(sp.Integer(value), table)
    if isinstance(value, Fraction):
        return ScalarExpr(sp.Rational(value.numerator, value.denominator), table)
    if isinstance(value, sp.Expr):
        return ScalarExpr(value, table)
    raise TypeError(f"cannot interpret {value!r} as a ScalarExpr")


class ScalarExpr:
    """A rational function over the integers in declared symbols, kept canonical.

    Canonical form: numerator/denominator with common factors cancelled, so
    equal values are structurally identical and zero is unique.
    """

    __slots__ = ("expr", "table")

    def __init__(self, expr, table: SymbolTable | None = None):
        if isinstance(expr, (int, Fraction)):
            expr = sp.Rational(expr)
        self.expr = sp.cancel(sp.together(expr))
        self.table = table

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.expr == 0

    @property
    def is_constant(self) -> bool:
        return self.expr.is_number

    def as_fraction(self) -> Fraction:
        if not self.expr.is_Rational:
            raise McforgeError(f"{self.expr} is not a rational constant")
        return Fraction(int(self.expr.p), int(self.expr.q))

    @property
    def free_names(self) -> set[str]:
        return {s.name for s in self.expr.free_symbols}

    # -- arithmetic ----------------------------------------------------

    def _other(self, value):
        other = _coerce(value, self.table)
        return other, (self.table or other.table)

    def __add__(self, value):
        other, table = self._other(value)
        return ScalarExpr(self.expr + other.expr, table)

    __radd__ = __add__

    def __sub__(self, value):
        other, table = self._other(value)
        return ScalarExpr(self.expr - other.expr, table)

    def __rsub__(self, value):
        other, table = self._other(value)
        return ScalarExpr(other.expr - self.expr, table)

    def __mul__(self, value):
        other, table = self._other(value)
        return ScalarExpr(self.expr * other.expr, table)

    __rmul__ = __mul__

    def __truediv__(self, value):
        other, table = self._other(value)
        if other.is_zero:
            raise ZeroDivisionFunctionError("division by the zero function")
        if table is not None and not other.is_constant:
            table.record_nonzero(other)
        return ScalarExpr(self.expr / other.expr, table)

    def __rtruediv__(self, value):
        other, _ = self._other(value)
        return other / self

    def __neg__(self):
        return ScalarExpr(-self.expr, self.table)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise McforgeError("only integer exponents are supported")
        if exponent < 0:
            if self.is_zero:
                raise ZeroDivisionFunctionError("negative power of the zero function")
            if self.table is not None and not self.is_constant:
                self.table.record_nonzero(self)
        return ScalarExpr(self.expr ** exponent, self.table)

    # -- calculus ------------------------------------------------------

    def diff(self, symbol: Symbol) -> "ScalarExpr":
        return ScalarExpr(sp.diff(self.expr, symbol.sym), self.table)

    def substitute(self, mapping: Mapping[Symbol, "ScalarExpr | int | Fraction"]) -> "ScalarExpr":
        subs = {}
        for key, value in mapping.items():
            coerced = _coerce(value, self.table)
            subs[key.sym] = coerced.expr
        result = self.expr.subs(subs, simultaneous=True)
        result = sp.cancel(sp.together(result))
        if result.has(sp.zoo) or result.has(sp.nan) or result.has(sp.oo):
            raise DegeneratePointError(
                f"substitution into {self.expr} produced a zero denominator"
            )
        return ScalarExpr(result, self.table)

    # -- identity ------------------------------------------------------

    def __eq__(self, value) -> bool:
        if isinstance(value, (int, Fraction, ScalarExpr, sp.Expr)):
            other, _ = self._other(value)
            return sp.cancel(self.expr - other.expr) == 0
        return NotImplemented

    def __hash__(self):
        return hash(self.expr)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"ScalarExpr({self.expr})"

    def __str__(self):
        return sp.sstr(self.expr, order="lex")


# ---------------------------------------------------------------------------
# Sparse Gauss-Jordan elimination over ScalarExpr
# ---------------------------------------------------------------------------


def accumulate(terms: dict, key, c: ScalarExpr) -> None:
    """terms[key] += c in place; a zero c adds nothing and a sum that cancels is dropped."""
    if c.is_zero:
        return
    cur = terms.get(key)
    if cur is not None:
        c = cur + c
        if c.is_zero:
            del terms[key]
            return
    terms[key] = c


def _add_multiple(row: dict, other: dict, c: ScalarExpr) -> None:
    """row += c * other in place, dropping entries that cancel."""
    for j, v in other.items():
        accumulate(row, j, c * v)


def eliminate_forward(forward: dict, rows: Iterable[Mapping], key) -> int:
    """Forward phase of ``echelon``: append ``rows`` to ``forward`` in place.

    ``forward`` maps each pivot found so far to its unreduced right-hand side.
    Each row, once the columns already solved for are substituted out, is
    solved for its largest column under ``key``; a row that vanishes is
    redundant.  Every non-constant pivot coefficient is recorded in its symbol
    table's genericity ledger, whether or not a division follows.  Returns the
    number of redundant rows.
    """
    redundant = 0
    for row in rows:
        row = dict(row)
        while row:
            pivot = max(row, key=key)
            if pivot not in forward:
                break
            _add_multiple(row, forward[pivot], row.pop(pivot))
        else:
            redundant += 1
            continue
        c = row.pop(pivot)
        if c.table is not None and not c.is_constant:
            c.table.record_nonzero(c)
        minus_c = -c
        forward[pivot] = {j: v / minus_c for j, v in row.items()}
    return redundant


def back_substitute(forward: Mapping, key, pivots: Optional[Iterable] = None) -> dict:
    """Upward phase of ``echelon``: leave only free columns on each right-hand side.

    ``forward`` is left as it is.  ``pivots`` (default: all of them) must hold
    every pivot below any of its members under ``key``.  Returns pivot ->
    {free column: coefficient} for those pivots, in ``forward``'s order.
    """
    done: dict = {}
    # a right-hand side holds only columns below its pivot, so going upward
    # finishes every pivot before it is substituted anywhere
    for pivot in sorted(forward if pivots is None else pivots, key=key):
        rhs = dict(forward[pivot])
        for j in [j for j in rhs if j in forward]:
            _add_multiple(rhs, done[j], rhs.pop(j))
        done[pivot] = rhs
    return {p: done[p] for p in forward if p in done}


def echelon(rows: Iterable[Mapping], key) -> tuple[dict, int]:
    """Solve the linear forms sum_j row[j] * j = 0, eliminating largest columns first.

    The forward phase (``eliminate_forward``) followed by one upward pass
    (``back_substitute``).  Returns ``(solved, redundant)``: pivot -> {free
    column: coefficient} with pivot = sum coefficient * column, in the order
    the pivots were found, and the number of redundant rows.
    """
    forward: dict = {}
    redundant = eliminate_forward(forward, rows, key)
    return back_substitute(forward, key), redundant


# ---------------------------------------------------------------------------
# Graded values: a dict from basis key to nonzero ScalarExpr, the scalar part
# under the key SCALAR.  Every input grammar parses into one, and a form's
# terms are one with no scalar part.
# ---------------------------------------------------------------------------

SCALAR = ()


def graded_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        accumulate(out, k, v)
    return out


def graded_neg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def is_scalar(a: dict) -> bool:
    return a.keys() <= {SCALAR}


# ---------------------------------------------------------------------------
# Shared expression grammar: integers, declared identifiers, + - * / ^ with
# integer exponents, parentheses, unary minus; ^ binds tightest.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()]|\S")


@dataclass
class Token:
    kind: str  # 'int' | 'name' | 'op' | 'end'
    text: str
    line: int
    col: int


def tokenize(text: str, line_offset: int = 1) -> list[Token]:
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=line_offset):
        for match in _TOKEN_RE.finditer(line):
            tok = match.group(0)
            col = match.start() + 1
            if tok.isdigit():
                tokens.append(Token("int", tok, lineno, col))
            elif _NAME_RE.match(tok):
                tokens.append(Token("name", tok, lineno, col))
            elif tok in "+-*/^()":
                tokens.append(Token("op", tok, lineno, col))
            else:
                raise ParseError(f"unexpected character {tok!r}", lineno, col)
    tokens.append(Token("end", "", line_offset, len(text) + 1))
    return tokens


def split_names(line: str, lineno: int) -> list[str]:
    """The comma-separated names after a declaration's ':', none empty or repeated."""
    names = [n.strip() for n in line.partition(":")[2].split(",") if n.strip()]
    if not names:
        raise ParseError("empty declaration", lineno, 1)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ParseError(f"name {name!r} declared twice", lineno, 1)
    return names


class ExprParser:
    """Recursive-descent parser that evaluates into graded values.

    Every grammar shares this arithmetic and differs only in ``name`` (what an
    identifier stands for), ``nonscalar`` (the error for a product or
    division of two non-scalars) and ``power`` (what '^' means when a side is
    not a scalar).  This base grammar reads every name as a declared symbol,
    so its values are all scalars.
    """

    def __init__(self, table: SymbolTable):
        self.table = table

    def name(self, tok: Token) -> dict:
        entry = self.table.get(tok.text)
        if entry is None:
            raise ParseError(f"unknown symbol {tok.text!r}", tok.line, tok.col)
        return {SCALAR: self.table.expr(entry)}

    def nonscalar(self, op: Token) -> Exception:
        raise NotImplementedError

    def power(self, base: dict, exponent: dict, op: Token) -> dict:
        raise NotImplementedError

    def exponent(self, value: dict, op: Token) -> int:
        """The integer a graded value stands for, as the exponent of '^' at ``op``."""
        if not value:
            return 0
        if value.keys() != {SCALAR} or not value[SCALAR].expr.is_Integer:
            raise ParseError("exponent must be an integer", op.line, op.col)
        return int(value[SCALAR].expr)

    def scalar(self, c: ScalarExpr) -> dict:
        return {SCALAR: c} if c else {}

    def parse(self, text: str, line_offset: int = 1) -> dict:
        self.tokens, self.pos = tokenize(text, line_offset), 0
        value = self.parse_sum()
        self.expect_end()
        return value

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    def parse_sum(self):
        value = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.next()
            rhs = self.parse_term()
            value = graded_add(value, rhs if op.text == "+" else graded_neg(rhs))
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek().text in ("*", "/"):
            op = self.next()
            rhs = self.parse_factor()
            if not is_scalar(rhs):
                if op.text == "/" or not is_scalar(value):
                    raise self.nonscalar(op)
                value, rhs = rhs, value
            if op.text == "/":
                if not rhs:
                    raise ParseError("division by zero", op.line, op.col)
                # one division, so the divisor enters the ledger once
                rhs = {SCALAR: 1 / rhs[SCALAR]}
            value = {k: v * rhs[SCALAR] for k, v in value.items()} if rhs else {}
        return value

    def parse_factor(self):
        if self.peek().text == "-":
            self.next()
            return graded_neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().text != "^":
            return base
        op = self.next()
        if self.peek().text == "-":
            self.next()
            exponent = graded_neg(self.parse_power())
        else:
            exponent = self.parse_power()
        if not (is_scalar(base) and is_scalar(exponent)):
            return self.power(base, exponent, op)
        n = self.exponent(exponent, op)
        c = base[SCALAR] if base else ScalarExpr(0, self.table)
        if n < 0 and not c:
            raise ParseError("division by zero", op.line, op.col)
        return self.scalar(c ** n)

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "int":
            return self.scalar(ScalarExpr(int(tok.text), self.table))
        if tok.kind == "name":
            return self.name(tok)
        if tok.text == "(":
            value = self.parse_sum()
            closing = self.next()
            if closing.text != ")":
                raise ParseError("expected ')'", closing.line, closing.col)
            return value
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse_expr(text: str, table: SymbolTable, line_offset: int = 1) -> ScalarExpr:
    value = ExprParser(table).parse(text, line_offset)
    return value[SCALAR] if value else ScalarExpr(0, table)
