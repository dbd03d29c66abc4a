"""Exact values against a plain-sympy reference that cancels after every step.

The reference is what the kernel computed before it kept its own exact
representations: every value is ``cancel(together(expr))`` of the sympy
expression, every substitution is sympy's simultaneous ``subs`` followed by
the same cancel, and a pole shows up as ``zoo`` or ``nan``.  The symbols
``X, x, eta, T`` are chosen because the generator order matters: sympy's
cancel puts ``x`` first, and the sign of a canonical numerator and
denominator depends on that order.
"""

from fractions import Fraction
from unittest.mock import patch

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ

from mcforge.kernel import (
    DegeneratePointError,
    ScalarExpr,
    SymbolTable,
    as_constant,
    as_expr,
    diff,
    free_names,
    is_constant,
    power,
    quotient,
    substitute,
)
from mcforge.render import coeff_latex, coeff_text

from helpers import exact, reference_ledger

NAMES = ["X", "x", "eta", "T"]
TABLE = SymbolTable()
for _name in NAMES:
    TABLE.declare(_name)

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def reference(expr):
    return sp.cancel(sp.together(expr))


def rational(q: Fraction):
    return sp.Rational(q.numerator, q.denominator)


def leaf(draw_name, q):
    if draw_name is None:
        return exact(q, TABLE), rational(q)
    return TABLE.expr(draw_name), sp.Symbol(draw_name)


LEAVES = st.builds(leaf, st.one_of(st.none(), st.sampled_from(NAMES)), RATIONALS)


def check(value, ref) -> None:
    assert as_expr(value) == ref
    assert coeff_text(value) == sp.sstr(ref, order="lex")
    assert coeff_latex(value) == sp.latex(ref, order="lex")
    assert is_constant(value) == ref.is_Rational
    assert (not value) == (ref == 0)
    assert free_names(value) == {s.name for s in ref.free_symbols}
    # the same value built from its sympy form is equal and hashes alike
    rebuilt = exact(ref, TABLE)
    assert rebuilt == value and hash(rebuilt) == hash(value)
    # a constant is plain, anything else a ScalarExpr, and nothing is a float
    assert type(value) in ((int, Fraction) if ref.is_Rational else (ScalarExpr,))


def apply(op, a, b, n, name):
    """One step on (ScalarExpr, reference) pairs; None when the step is undefined."""
    (u, ru), (v, rv) = a, b
    if op == "+":
        return u + v, reference(ru + rv)
    if op == "-":
        return u - v, reference(ru - rv)
    if op == "*":
        return u * v, reference(ru * rv)
    if op == "/":
        return (None if not v else (quotient(u, v), reference(ru / rv)))
    if op == "**":
        return (None if n < 0 and not u else (power(u, n), reference(ru ** n)))
    return diff(u, name), reference(sp.diff(ru, sp.Symbol(name)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_arithmetic_matches_reference(data):
    pool = [data.draw(LEAVES) for _ in range(3)]
    for value, ref in pool:
        check(value, ref)
    for _ in range(data.draw(st.integers(1, 5))):
        step = apply(data.draw(st.sampled_from(["+", "-", "*", "/", "**", "diff"])),
                     data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(pool)),
                     data.draw(st.integers(-2, 2)), data.draw(st.sampled_from(NAMES)))
        if step is None:
            continue
        check(*step)
        pool.append(step)
    # equality is exact and structural: a constant never equals a non-constant
    for (u, ru) in pool:
        for (v, rv) in pool:
            assert (u == v) == (reference(ru - rv) == 0)
            if u == v:
                assert hash(u) == hash(v)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_substitute_matches_reference(data):
    value, ref = data.draw(LEAVES)
    for _ in range(data.draw(st.integers(1, 4))):
        step = apply(data.draw(st.sampled_from(["+", "*", "/"])), (value, ref),
                     data.draw(LEAVES), 1, "x")
        if step is not None:
            value, ref = step
    names = data.draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    # each name goes to a rational point or, simultaneously, to another symbol
    targets = [data.draw(st.one_of(RATIONALS, st.sampled_from(NAMES))) for _ in names]
    mapping = dict(zip(names, targets))
    want = reference(ref.subs({sp.Symbol(n): (sp.Symbol(t) if isinstance(t, str)
                                              else rational(t))
                               for n, t in zip(names, targets)}, simultaneous=True))
    if want.has(sp.zoo, sp.nan, sp.oo):
        with pytest.raises(DegeneratePointError):
            substitute(value, mapping)
    else:
        check(substitute(value, mapping), want)


def test_symbol_declared_after_the_field_was_built():
    table = SymbolTable()
    table.declare("x")
    early = table.expr("x") + 1
    table.declare("a")  # sorts after x: the field is built anew
    a = table.expr("a")
    late = table.expr("x") + 1
    assert early == late and hash(early) == hash(late)
    assert str(diff(early * a, "x")) == "a"
    assert str(early / a - late / a) == "0"


# ---------------------------------------------------------------------------
# Scaling by a rational constant against sympy's own field arithmetic
# ---------------------------------------------------------------------------

# a polynomial as (integer coefficient, exponent of each of NAMES) terms, so
# that numerators and denominators can carry a non-unit integer content
POLYS = st.lists(st.tuples(st.integers(-6, 6).filter(bool),
                           st.tuples(*[st.integers(0, 2)] * len(NAMES))),
                 min_size=1, max_size=3)
CONSTANTS = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


def polynomial(terms):
    out = TABLE.field.zero
    for c, exponents in terms:
        monomial = TABLE.field.one * c
        for name, e in zip(NAMES, exponents):
            monomial = monomial * TABLE.generator(name) ** e
        out = out + monomial
    return out


def check_scaled(f, q):
    """c * f, f * c, f / c and c / f equal what the field's cancelling arithmetic builds."""
    value, c, k = exact(f, TABLE), exact(q, TABLE), QQ(q.numerator, q.denominator)
    ledger = list(TABLE.assumed_nonzero)
    cases = [(c * value, k * f), (q * value, k * f), (value * c, f * k),
             (value / c, f / k), (c / value, k / f), (q / value, k / f)]
    for got, want in cases:
        # equality of field elements compares numerators and denominators
        assert type(got) is ScalarExpr and got == exact(want, TABLE)
        assert got.table is TABLE
    assert TABLE.assumed_nonzero == ledger


@settings(max_examples=200, deadline=None, derandomize=True)
@given(POLYS, POLYS, CONSTANTS)
def test_scaling_by_constant_matches_field(numer, denom, q):
    denom = polynomial(denom)
    assume(denom)
    f = polynomial(numer) / denom
    assume(not (f.numer.is_ground and f.denom.is_ground))
    check_scaled(f, q)


def test_scaling_by_constant_edge_cases():
    x, eta = (0, 1, 0, 0), (0, 0, 1, 0)
    # (-2x + 4) / (6 eta): contents 2 and 6, a negative constant, and c / f
    # puts -2x + 4, whose leading coefficient is negative, in the denominator
    f = polynomial([(-2, x), (4, (0, 0, 0, 0))]) / polynomial([(6, eta)])
    assert f.numer.LC < 0 and f.denom.LC > 0
    assert [c for c in f.numer.coeffs() + f.denom.coeffs() if abs(c) > 1]
    for q in (Fraction(-3, 4), Fraction(5, 2), Fraction(-1), Fraction(9), Fraction(2, 9)):
        check_scaled(f, q)


# ---------------------------------------------------------------------------
# Constants: an int or a Fraction, never a float or a ScalarExpr; the kernel's
# quotients, powers and builder give an int exactly when integral
# ---------------------------------------------------------------------------

CONSTANT_VALUES = st.one_of(st.integers(-9, 9),
                            st.fractions(min_value=-9, max_value=9, max_denominator=9))


def check_constant(got, want: Fraction, normalized: bool = True) -> None:
    assert type(got) in (int, Fraction)
    if normalized:
        assert type(got) is (int if want.denominator == 1 else Fraction)
    assert got == want
    # a constant's text is native: sympy's bytes
    assert coeff_text(got) == sp.sstr(rational(want), order="lex")
    # the kernel's coercion normalizes an integral Fraction to its int
    held = as_constant(got)
    assert type(held) is (int if want.denominator == 1 else Fraction) and held == want
    assert as_expr(got) == rational(want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(CONSTANT_VALUES, CONSTANT_VALUES, st.integers(-3, 3))
def test_constant_arithmetic_is_int_exactly_when_integral(p, q, n):
    a, b = exact(p, TABLE), exact(q, TABLE)
    check_constant(a, Fraction(p))
    fp, fq = Fraction(p), Fraction(q)
    # Python's own + - * keep a Fraction operand's type, so only the value is checked
    for got, want in [(a + b, fp + fq), (a - b, fp - fq), (a * b, fp * fq), (-a, -fp),
                      (p + b, fp + fq), (a - q, fp - fq), (p * b, fp * fq), (q - a, fq - fp)]:
        check_constant(got, want, normalized=False)
    cases = []
    if q:
        cases += [(quotient(a, b), fp / fq), (quotient(a, q), fp / fq), (quotient(p, b), fp / fq)]
    if p or n >= 0:
        cases.append((power(a, n), fp ** n))
    for got, want in cases:
        check_constant(got, want)
    assert diff(a, "x") == 0
    assert type(diff(a, "x")) is int


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.integers(-10 ** 30, 10 ** 30),
                 st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 12)))
def test_constant_text_is_sympys_without_an_expression(q):
    c = exact(q, TABLE)
    with patch.object(sp, "Rational", None), patch.object(sp, "Integer", None):
        text = coeff_text(c)
    assert text == sp.sstr(rational(Fraction(q)), order="lex")
    assert coeff_latex(c) == sp.latex(as_expr(c), order="lex")


def test_integral_constants_are_one_value():
    values = [exact(2), exact(Fraction(4, 2)), exact(sp.Integer(2)),
              exact(Fraction(4, 2), TABLE), exact(QQ(2) / QQ(1) * TABLE.field.one)]
    for value in values:
        assert type(value) is int
        assert value == 2 and value == values[0] and value == Fraction(2)
        assert hash(value) == hash(values[0]) == hash(2)
    half = exact(Fraction(1, 2))
    assert type(half) is Fraction and half != 1 and half * 2 == 1
    assert type(quotient(half * 2, 1)) is int and type(quotient(half + half, 1)) is int


@settings(max_examples=200, deadline=None, derandomize=True)
@given(POLYS, POLYS, st.one_of(st.just(0), CONSTANT_VALUES))
def test_mixed_constant_and_field_operations_match_field(numer, denom, q):
    denom = polynomial(denom)
    assume(denom)
    f = polynomial(numer) / denom
    assume(not (f.numer.is_ground and f.denom.is_ground))
    value, c, k = exact(f, TABLE), exact(q, TABLE), QQ(q)
    cases = [(c + value, k + f), (value + q, f + k), (c - value, k - f), (value - q, f - k),
             (c * value, k * f), (value * q, f * k), (c / value, k / f)]
    if q:
        cases += [(value / c, f / k), (value / q, f / k)]
    for got, want in cases:
        if want.numer.is_ground and want.denom.is_ground:
            r = want.numer.LC / want.denom.LC
            check_constant(got, Fraction(int(r.numerator), int(r.denominator)))
        else:
            assert type(got) is ScalarExpr and got == exact(want, TABLE)


# integers of up to a few hundred digits, signed
BIG = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 400, 10 ** 400))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(BIG, BIG.filter(bool))
def test_constant_latex_is_sympys_without_sympy(p, q):
    # an int, and an integral or proper Fraction, are written without any
    # sympy number: sp.Rational is unusable while they are printed
    values = [quotient(p, q), Fraction(p, q), p]
    with patch.object(sp, "Rational", None), patch.object(sp, "Integer", None):
        got = [coeff_latex(v) for v in values]
    assert got == [sp.latex(rational(Fraction(v)), order="lex") for v in values]
    assert coeff_latex(Fraction(-1, 2)) == "- \\frac{1}{2}"
    assert coeff_latex(Fraction(7, 3)) == "\\frac{7}{3}"
    assert coeff_latex(-3) == coeff_latex(Fraction(-6, 2)) == "-3"


# ---------------------------------------------------------------------------
# The genericity ledger against its normal form through sympy's simplifier.
# Numbered names sort x1, x2, x10 for the field and x1, x10, x2 by text, and
# a sign tie (as many - as + terms) is where a sign rule can disagree.
# ---------------------------------------------------------------------------

LEDGER_NAMES = ["x1", "x2", "x10", "X", "Y", "a_b"]
MONOMIALS = st.tuples(*[st.integers(0, 2)] * len(LEDGER_NAMES))
SIGNED_POLYS = st.lists(st.tuples(st.integers(-4, 4).filter(bool), MONOMIALS),
                        min_size=1, max_size=4)
# as many terms of each sign, each coefficient +-1 or +-2
TIED_POLYS = st.lists(MONOMIALS, min_size=2, max_size=6, unique=True).flatmap(
    lambda ms: st.lists(st.integers(1, 2), min_size=len(ms), max_size=len(ms)).map(
        lambda cs: [(c if i % 2 else -c, m) for i, (c, m) in enumerate(zip(cs, ms))]))
LEDGER_POLYS = st.one_of(SIGNED_POLYS, TIED_POLYS)


def ledger_value(table, numer, denom, q):
    """q * numer / denom in ``table``, from (coefficient, exponents) terms."""
    def polynomial(terms):
        out = 0
        for c, exponents in terms:
            monomial = c
            for name, e in zip(LEDGER_NAMES, exponents):
                monomial = monomial * table.expr(name) ** e
            out = out + monomial
        return out
    return q * polynomial(numer) / polynomial(denom) if polynomial(denom) else 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(LEDGER_POLYS, LEDGER_POLYS, CONSTANTS), min_size=1, max_size=5),
       CONSTANTS)
def test_ledger_matches_simplifier_normal_form(drawn, scale):
    table = SymbolTable()
    for name in LEDGER_NAMES:
        table.declare(name)
    values = [v for v in (ledger_value(table, *d) for d in drawn) if not is_constant(v)]
    # each value again, scaled: its entry is there already
    values += [scale * v for v in values]
    for value in values:
        table.record_nonzero(value)
    want = reference_ledger(values)
    assert [a.expr for a in table.assumed_nonzero] == want
    assert [str(a) for a in table.assumed_nonzero] == [sp.sstr(w, order="lex") for w in want]
    assert all(a.table is table for a in table.assumed_nonzero)
