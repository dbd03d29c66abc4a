"""Exact scalar arithmetic: rational functions over QQ in declared names.

A coefficient anywhere in the engine is a value of one of three kinds.  A
rational constant, which nearly every value is, is a plain ``int`` or
``fractions.Fraction``.  Any other value is a ``ScalarExpr``: an element of
the one rational-function field over QQ (``sympy.polys.fields``) that its
SymbolTable builds in the declared names.  A ScalarExpr is never constant,
so the two never meet in one value.  The field keeps numerator and
denominator coprime with normalized signs, so equal values are structurally
identical: equality is decidable without simplifying, which is what makes row
reduction and all downstream verification exact.

A declared name is its string everywhere: ``diff``, ``substitute`` and the
parsers take names, and the table maps each name to its generator of the
field.  Sympy ``Symbol``s exist only inside the field.

This module is the only one that knows how a value is held.  Other modules
combine values with ``+ - *`` and call the functions below for the rest:
``quotient`` and ``power`` (a quotient of two constants is a ``Fraction`` or
an ``int``, never a float), ``diff``, ``substitute``, ``degree``,
``free_names``, ``as_fraction``, ``as_expr`` and the builder ``exact``.

No arithmetic goes through sympy expressions or sympy's simplifier, and the
genericity ledger is normalized in the field too.  A sympy ``Expr`` appears
only at the edges: ``as_expr`` (rendering), the sign of a ledger entry, and a
value built from an ``Expr``.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Optional

import sympy as sp
from sympy import QQ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.polyutils import _sort_gens


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


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


class SymbolTable:
    """Append-only registry of declared names plus the genericity ledger.

    A declared name is its string.  ``field`` is the rational-function field
    over QQ in the declared names that holds every non-constant value built
    with this table; it is built on first use, together with the map from
    each name to its generator, and built again after a later declaration.

    The genericity ledger (``assumed_nonzero``) collects every non-constant
    function the session assumes nonzero.  It has two writers: ``ExprParser``
    records each divisor of an input, and ``eliminate_forward`` each pivot.
    Arithmetic, division included, records nothing.  All reports surface the
    ledger so standing assumptions like x != 0 are explicit.
    """

    def __init__(self):
        self.names: list[str] = []
        self._field: Optional[FracField] = None
        self._generators: dict[str, FracElement] = {}
        self.assumed_nonzero: list[ScalarExpr] = []
        self._entries: set[sp.Expr] = set()  # the ledger's entries as sympy expressions

    def declare(self, name: str) -> None:
        if not _NAME_RE.match(name):
            raise ParseError(f"invalid identifier {name!r}")
        if name in self.names:
            raise DuplicateSymbolError(f"symbol {name!r} already declared")
        self.names.append(name)
        self._field = None

    def _build(self) -> None:
        # sympy's cancel() orders generators this way, and the field fixes the
        # signs of numerator and denominator by its generator order, so
        # ScalarExpr.expr comes out as cancel(together(...)) would print it
        symbols = _sort_gens([sp.Symbol(name) for name in self.names])
        self._field = FracField(symbols, QQ)
        self._generators = {s.name: g for s, g in zip(symbols, self._field.gens)}

    @property
    def field(self) -> FracField:
        if self._field is None:
            self._build()
        return self._field

    def generator(self, name: str) -> FracElement:
        """The declared ``name`` as a generator of ``field``."""
        if self._field is None:
            self._build()
        try:
            return self._generators[name]
        except KeyError:
            raise UnknownSymbolError(f"symbol {name!r} is not declared") from None

    def expr(self, name: str) -> "ScalarExpr":
        return ScalarExpr(self.generator(name), self)

    def record_nonzero(self, value: "ScalarExpr") -> None:
        """Add the non-constant ``value`` to the ledger, in normal form, unless it is there.

        value != 0 iff its numerator is, so the entry is the numerator's
        primitive part, of the sign for which sympy's ``could_extract_minus_sign``
        is false: one entry for all constant multiples of a numerator.
        """
        numer = _in_field(value, self.field).numer
        if numer.is_ground:
            return
        numer = numer.primitive()[1]
        expr = numer.as_expr()
        if expr.could_extract_minus_sign():
            numer, expr = -numer, -expr
        if expr not in self._entries:
            self._entries.add(expr)
            self.assumed_nonzero.append(ScalarExpr(self.field.new(numer), self))


# the types of a constant
_CONSTANT = (int, Fraction)


def _constant(q: Fraction):
    """A rational constant as a value: its numerator when it is integral."""
    return q.numerator if q.denominator == 1 else q


def _in_field(c, field: FracField):
    """A ScalarExpr or a constant as an operand of ``field``'s arithmetic."""
    if type(c) is ScalarExpr:
        f = c.value
        return f if f.field is field else f.set_field(field)
    return QQ(c.numerator, c.denominator)


def _build(f: FracElement, table: SymbolTable | None):
    """A canonical field element as a value: a constant when it is one."""
    numer, denom = f.numer, f.denom
    if numer.is_ground and denom.is_ground:
        q = numer.LC / denom.LC
        return _constant(Fraction(int(q.numerator), int(q.denominator)))
    return ScalarExpr(f, table)


def _content(p) -> int:
    """The gcd of the coefficients of ``p``, a polynomial with integer coefficients."""
    return gcd(*[int(c.numerator) for c in p.itercoeffs()])


def _scaled(c: "ScalarExpr", q: int | Fraction, invert: bool = False) -> "ScalarExpr":
    """q * c, or q / c with ``invert``, for a nonzero constant q.

    A canonical field element has coprime numerator and denominator with
    integer coefficients, no common integer content, and a denominator whose
    leading coefficient is positive.  A constant factor leaves the polynomial
    gcd alone, so scaling needs only the integer contents and the sign: no
    polynomial gcd runs, and the result is the element the field's own
    arithmetic would build.
    """
    table = c.table
    f = _in_field(c, table.field)
    numer, denom = f.numer, f.denom
    if invert:
        numer, denom = denom, numer
        if denom.LC < 0:
            numer, denom = -numer, -denom
    r, s = q.numerator, q.denominator
    g = gcd(_content(numer) * abs(r), _content(denom) * s)
    return ScalarExpr(f.field.raw_new(numer.mul_ground(QQ(r, g)),
                                      denom.mul_ground(QQ(s, g))), table)


class ScalarExpr:
    """A non-constant rational function over QQ: an element of its table's ``field``.

    The element is kept canonical (numerator and denominator coprime, signs
    fixed by the generator order), so equality is structural.  A constant is
    never a ScalarExpr: the constructor refuses one, an operation whose result
    is constant (``x / x``) returns an ``int`` or a ``Fraction``, and every
    operand may be either.  The table is kept for its field and its
    genericity ledger.  ``expr``, the value as a sympy expression, is built on
    first use.
    """

    __slots__ = ("value", "table", "_expr")

    def __init__(self, expr, table: SymbolTable | None = None):
        if not isinstance(expr, FracElement) or table is None \
                or (expr.numer.is_ground and expr.denom.is_ground):
            raise McforgeError(f"a ScalarExpr is a non-constant element of a symbol "
                               f"table's field, not {expr!r}")
        self.value, self.table, self._expr = expr, table, None

    @property
    def expr(self) -> sp.Expr:
        if self._expr is None:
            self._expr = self.value.as_expr()
        return self._expr

    # -- arithmetic: the other operand is a ScalarExpr or a constant -----

    def _operands(self, c):
        field = self.table.field
        return _in_field(self, field), _in_field(c, field)

    def __add__(self, c):
        if not isinstance(c, _KINDS):
            return NotImplemented
        a, b = self._operands(c)
        return _build(a + b, self.table)

    __radd__ = __add__

    def __sub__(self, c):
        if not isinstance(c, _KINDS):
            return NotImplemented
        a, b = self._operands(c)
        return _build(a - b, self.table)

    def __rsub__(self, c):
        if not isinstance(c, _CONSTANT):
            return NotImplemented
        a, b = self._operands(c)
        return _build(b - a, self.table)

    def __mul__(self, c):
        if type(c) is ScalarExpr:
            a, b = self._operands(c)
            return _build(a * b, self.table)
        if not isinstance(c, _CONSTANT):
            return NotImplemented
        return _scaled(self, c) if c else 0

    __rmul__ = __mul__

    def __truediv__(self, c):
        if type(c) is ScalarExpr:
            a, b = self._operands(c)
            return _build(a / b, self.table)
        if not isinstance(c, _CONSTANT):
            return NotImplemented
        if not c:
            raise ZeroDivisionFunctionError("division by the zero function")
        return _scaled(self, Fraction(c.denominator, c.numerator))

    def __rtruediv__(self, c):
        if not isinstance(c, _CONSTANT):
            return NotImplemented
        return _scaled(self, c, invert=True) if c else 0

    def __neg__(self):
        return ScalarExpr(-self.value, self.table)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise McforgeError("only integer exponents are supported")
        if not exponent:
            return 1
        if exponent > 0:
            return ScalarExpr(self.value ** exponent, self.table)
        power = self.value ** -exponent
        return ScalarExpr(power.field.new(power.denom, power.numer), self.table)

    def substitute(self, mapping: Mapping[str, "str | ScalarExpr | int | Fraction"]):
        """Replace declared names simultaneously by names, rational constants or polynomials."""
        table = self.table
        field = table.field
        f = _in_field(self, field)
        pairs = []
        for name, value in mapping.items():
            if isinstance(value, str):
                value = table.generator(value)
            else:
                value = _in_field(value, field)
            if isinstance(value, FracElement):
                if value.denom != 1:
                    raise McforgeError(f"cannot substitute the non-polynomial {value}")
                value = value.numer
            pairs.append((table.generator(name).numer, value))
        numer, denom = f.numer.compose(pairs), f.denom.compose(pairs)
        if not denom:
            raise DegeneratePointError(
                f"substitution into {self.expr} produced a zero denominator")
        return _build(field.new(numer, denom), table)

    # -- identity: a ScalarExpr never equals a constant ------------------

    def __eq__(self, c) -> bool:
        if type(c) is ScalarExpr:
            a, b = self._operands(c)
            return a == b
        return False if isinstance(c, _CONSTANT) else NotImplemented

    def __hash__(self):
        return hash(_in_field(self, self.table.field))

    def __repr__(self):
        return f"ScalarExpr({self.expr})"

    def __str__(self):
        return sp.sstr(self.expr, order="lex")


# the kinds of value: a constant or a ScalarExpr
_KINDS = (int, Fraction, ScalarExpr)


# ---------------------------------------------------------------------------
# Functions over every kind of value
# ---------------------------------------------------------------------------


def exact(value, table: SymbolTable | None = None):
    """``value`` as a constant or a ScalarExpr of ``table``.

    ``value`` is an ``int``, a ``Fraction``, a sympy rational, an element of
    ``table``'s field or a sympy rational function of its declared symbols.
    """
    if isinstance(value, numbers.Rational):
        return _constant(Fraction(int(value.numerator), int(value.denominator)))
    if isinstance(value, sp.Expr) and table is not None:
        try:
            value = table.field.from_expr(value)
        except ValueError:
            raise McforgeError(
                f"{value} is not a rational function of declared symbols") from None
    if isinstance(value, FracElement):
        return _build(value, table)
    raise McforgeError(f"cannot interpret {value!r} as an exact scalar")


def is_constant(c) -> bool:
    return type(c) is not ScalarExpr


def as_fraction(c) -> Fraction:
    """A constant as a Fraction; anything else is refused with McforgeError."""
    if isinstance(c, numbers.Rational):
        return Fraction(c)
    raise McforgeError(f"{c} is not a rational constant")


def as_expr(c) -> sp.Expr:
    """``c`` as a sympy expression, for printing and for the ledger."""
    if type(c) is ScalarExpr:
        return c.expr
    return sp.Rational(c.numerator, c.denominator)


def quotient(a, b):
    """a / b for values of any kind: two constants give a Fraction, or an int when
    it is integral, where Python's ``/`` would give a float."""
    if type(a) is ScalarExpr or type(b) is ScalarExpr:
        return a / b
    if not b:
        raise ZeroDivisionFunctionError("division by the zero function")
    return _constant(Fraction(a, b))


def power(c, n: int):
    """c ** n for an integer n, through ``quotient`` where n is negative."""
    if type(c) is ScalarExpr:
        return c ** n
    return quotient(c ** n, 1) if n >= 0 else quotient(1, c ** -n)


def diff(c, name: str):
    """The partial derivative of ``c`` by the declared ``name``."""
    if type(c) is not ScalarExpr:
        return 0
    table = c.table
    return _build(_in_field(c, table.field).diff(table.generator(name)), table)


def substitute(c, mapping: Mapping):
    """``c`` with names replaced as ``ScalarExpr.substitute`` does; a constant is kept."""
    return c.substitute(mapping) if type(c) is ScalarExpr else c


def free_names(c) -> set[str]:
    if type(c) is not ScalarExpr:
        return set()
    f = c.value
    exponents = zip(*f.numer.itermonoms(), *f.denom.itermonoms())
    return {s.name for s, e in zip(f.field.symbols, exponents) if any(e)}


def degree(c) -> int:
    """Total degree of the numerator or the denominator, whichever is larger."""
    if type(c) is not ScalarExpr:
        return 0
    return max(sum(m) for p in (c.value.numer, c.value.denom) for m in p.itermonoms())


# ---------------------------------------------------------------------------
# Sparse Gauss-Jordan elimination over values of every kind
# ---------------------------------------------------------------------------


def accumulate(terms: dict, key, c) -> None:
    """terms[key] += c in place; a zero c adds nothing and a sum that cancels is dropped."""
    if not c:
        return
    cur = terms.get(key)
    if cur is not None:
        c = cur + c
        if not c:
            del terms[key]
            return
    terms[key] = c


def _add_multiple(row: dict, other: dict, c) -> None:
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
        if type(c) is ScalarExpr:
            c.table.record_nonzero(c)
        minus_c = -c
        forward[pivot] = {j: quotient(v, minus_c) for j, v in row.items()}
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
# Graded values: a dict from basis key to nonzero value, the scalar part
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

# Bounds on what one line may ask for, so every input either finishes or is
# refused with a ParseError: how deep parentheses, unary minus and '^' may
# nest (each level costs a few interpreter frames), and how large a power's
# result may be, as total degree or, for a constant, as bits.  MAX_POWER_BITS
# also bounds every integer a line holds: each literal, and each numerator,
# denominator or coefficient that its arithmetic builds.
MAX_NESTING = 100
MAX_POWER_DEGREE = 64
MAX_POWER_BITS = 4096
# the most decimal digits an integer of at most MAX_POWER_BITS bits can have
_MAX_DIGITS = len(str(2 ** MAX_POWER_BITS))

_TOKEN_RE = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|[-+*/^()]|\S")


@dataclass
class Token:
    kind: str  # 'int' | 'name' | 'op' | 'end'
    text: str
    line: int
    col: int


def tokenize(text: str, line_offset: int = 1, column: int = 1) -> list[Token]:
    """``text``'s tokens; ``column`` is the column ``text`` starts at in its line."""
    tokens = []
    for lineno, line in enumerate(text.splitlines() or [""], start=line_offset):
        for match in _TOKEN_RE.finditer(line):
            tok = match.group(0)
            col = match.start() + column
            if tok.isdigit():
                tokens.append(Token("int", tok, lineno, col))
            elif _NAME_RE.match(tok):
                tokens.append(Token("name", tok, lineno, col))
            elif tok in "+-*/^()":
                tokens.append(Token("op", tok, lineno, col))
            else:
                raise ParseError(f"unexpected character {tok!r}", lineno, col)
    tokens.append(Token("end", "", line_offset, len(text) + column))
    return tokens


def integers(c) -> list[int]:
    """The integers that spell ``c``: its numerator and denominator when
    constant, else those of every coefficient."""
    if type(c) is ScalarExpr:
        return [int(part) for poly in (c.value.numer, c.value.denom)
                for q in poly.coeffs() for part in (q.numerator, q.denominator)]
    return [c.numerator, c.denominator]


def _bits(c) -> int:
    """Bit length of the largest integer in ``c``."""
    return max(i.bit_length() for i in integers(c))


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
        try:
            return {SCALAR: self.table.expr(tok.text)}
        except UnknownSymbolError:
            raise ParseError(f"unknown symbol {tok.text!r}", tok.line, tok.col) from None

    def nonscalar(self, op: Token) -> Exception:
        raise NotImplementedError

    def power(self, base: dict, exponent: dict, op: Token) -> dict:
        raise NotImplementedError

    def exponent(self, value: dict, op: Token) -> int:
        """The integer a graded value stands for, as the exponent of '^' at ``op``."""
        if not value:
            return 0
        if value.keys() != {SCALAR} or not is_constant(value[SCALAR]) or value[SCALAR] % 1:
            raise ParseError("exponent must be an integer", op.line, op.col)
        return int(value[SCALAR])

    def bounded_power(self, c, n: int, op: Token):
        """c^n, refused at ``op`` when it would exceed the power bounds: MAX_POWER_DEGREE
        in total degree, or MAX_POWER_BITS in the numerator or denominator of a constant."""
        if not is_constant(c):
            size = abs(n) * degree(c)
            if size > MAX_POWER_DEGREE:
                raise ParseError(f"power too large: degree {size} exceeds {MAX_POWER_DEGREE}",
                                 op.line, op.col)
            return power(c, n)
        # a k-th power of a b-bit integer has at least k (b - 1) + 1 bits; refuse on
        # that before building anything, so what is built has at most ~2 MAX_POWER_BITS
        if all(abs(n) * (i.bit_length() - 1) < MAX_POWER_BITS for i in integers(c)):
            c = power(c, n)
            if _bits(c) <= MAX_POWER_BITS:
                return c
        raise ParseError(f"power too large: more than {MAX_POWER_BITS} bits", op.line, op.col)

    def bounded(self, value: dict, op: Token) -> dict:
        """``value``, the result of ``op``, unless an integer in it exceeds MAX_POWER_BITS."""
        for c in value.values():
            if _bits(c) > MAX_POWER_BITS:
                raise ParseError(f"integer too large: more than {MAX_POWER_BITS} bits",
                                 op.line, op.col)
        return value

    def nested(self, tok: Token, parse):
        """``parse()`` one nesting level below ``tok``, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             tok.line, tok.col)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def divisor(self, c):
        """``c``, recorded in the genericity ledger when it is not constant."""
        if not is_constant(c):
            self.table.record_nonzero(c)
        return c

    def scalar(self, c) -> dict:
        return {SCALAR: c} if c else {}

    def parse(self, text: str, line_offset: int = 1, column: int = 1) -> dict:
        self.tokens, self.pos, self.depth = tokenize(text, line_offset, column), 0, 0
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
            self.bounded(value, op)
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
                # one inverse, then a product per term
                rhs = {SCALAR: quotient(1, self.divisor(rhs[SCALAR]))}
            value = {k: v * rhs[SCALAR] for k, v in value.items()} if rhs else {}
            self.bounded(value, op)
        return value

    def parse_factor(self):
        if self.peek().text == "-":
            return graded_neg(self.nested(self.next(), self.parse_factor))
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().text != "^":
            return base
        op = self.next()
        if self.peek().text == "-":
            self.next()
            exponent = graded_neg(self.nested(op, self.parse_power))
        else:
            exponent = self.nested(op, self.parse_power)
        if not (is_scalar(base) and is_scalar(exponent)):
            return self.bounded(self.power(base, exponent, op), op)
        n = self.exponent(exponent, op)
        c = base.get(SCALAR, 0)
        if n < 0 and not c:
            raise ParseError("division by zero", op.line, op.col)
        value = self.bounded_power(c, n, op)
        if n < 0:
            self.divisor(c)
        return self.bounded(self.scalar(value), op)

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "int":
            # int() refuses strings past Python's digit limit, so count first
            digits = tok.text.lstrip("0") or "0"
            if len(digits) > _MAX_DIGITS:
                raise ParseError(f"integer too large: more than {MAX_POWER_BITS} bits",
                                 tok.line, tok.col)
            return self.bounded(self.scalar(int(digits)), tok)
        if tok.kind == "name":
            return self.name(tok)
        if tok.text == "(":
            value = self.nested(tok, self.parse_sum)
            closing = self.next()
            if closing.text != ")":
                raise ParseError("expected ')'", closing.line, closing.col)
            return value
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

