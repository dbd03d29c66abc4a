"""ScalarExpr against a plain-sympy reference that cancels after every step.

The reference is what ScalarExpr computed before it kept its own exact
representations: every value is ``cancel(together(expr))`` of the sympy
expression, every substitution is sympy's simultaneous ``subs`` followed by
the same cancel, and a pole shows up as ``zoo`` or ``nan``.  The symbols
``X, x, eta, T`` are chosen because the generator order matters: sympy's
cancel puts ``x`` first, and the sign of a canonical numerator and
denominator depends on that order.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ

from mcforge.kernel import DegeneratePointError, ScalarExpr, SymbolKind, SymbolTable
from mcforge.render import coeff_latex, coeff_text

NAMES = ["X", "x", "eta", "T"]
TABLE = SymbolTable()
for _name, _kind in zip(NAMES, [SymbolKind.TARGET, SymbolKind.SOURCE, SymbolKind.JET,
                                SymbolKind.TARGET]):
    TABLE.declare(_name, _kind)

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def reference(expr):
    return sp.cancel(sp.together(expr))


def rational(q: Fraction):
    return sp.Rational(q.numerator, q.denominator)


def leaf(draw_name, q):
    if draw_name is None:
        return ScalarExpr(q, TABLE), rational(q)
    return TABLE.expr(draw_name), sp.Symbol(draw_name)


LEAVES = st.builds(leaf, st.one_of(st.none(), st.sampled_from(NAMES)), RATIONALS)


def check(value: ScalarExpr, ref) -> None:
    assert value.expr == ref
    assert coeff_text(value) == sp.sstr(ref, order="lex")
    assert coeff_latex(value) == sp.latex(ref, order="lex")
    assert value.is_constant == ref.is_Rational
    assert value.is_zero == (ref == 0)
    assert value.free_names == {s.name for s in ref.free_symbols}
    # the same value built from its sympy form is equal and hashes alike
    rebuilt = ScalarExpr(ref, TABLE)
    assert rebuilt == value and hash(rebuilt) == hash(value)
    assert value == ref


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
        return (None if v.is_zero else (u / v, reference(ru / rv)))
    if op == "**":
        return (None if n < 0 and u.is_zero else (u ** n, reference(ru ** n)))
    return u.diff(TABLE.lookup(name)), reference(sp.diff(ru, sp.Symbol(name)))


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
    mapping = {TABLE.lookup(n): (TABLE.expr(t) if isinstance(t, str) else t)
               for n, t in zip(names, targets)}
    want = reference(ref.subs({sp.Symbol(n): (sp.Symbol(t) if isinstance(t, str)
                                              else rational(t))
                               for n, t in zip(names, targets)}, simultaneous=True))
    if want.has(sp.zoo, sp.nan, sp.oo):
        with pytest.raises(DegeneratePointError):
            value.substitute(mapping)
    else:
        check(value.substitute(mapping), want)


def test_symbol_declared_after_the_field_was_built():
    table = SymbolTable()
    table.declare("x", SymbolKind.SOURCE)
    early = table.expr("x") + 1
    table.declare("a", SymbolKind.SOURCE)  # sorts after x: the field is built anew
    a = table.expr("a")
    late = table.expr("x") + 1
    assert early == late and hash(early) == hash(late)
    assert str((early * a).diff(table.lookup("x"))) == "a"
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
            monomial = monomial * TABLE.generator(TABLE.lookup(name)) ** e
        out = out + monomial
    return out


def check_scaled(f, q):
    """c * f, f * c, f / c and c / f equal what the field's cancelling arithmetic builds."""
    value, c, k = ScalarExpr(f, TABLE), ScalarExpr(q, TABLE), QQ(q.numerator, q.denominator)
    ledger = list(TABLE.assumed_nonzero)
    cases = [(c * value, k * f), (q * value, k * f), (value * c, f * k),
             (value / c, f / k), (c / value, k / f), (q / value, k / f)]
    for got, want in cases:
        assert not got.is_constant
        assert (got.value.numer, got.value.denom) == (want.numer, want.denom)
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
# Constants: an int exactly when integral, else a Fraction, never a float
# ---------------------------------------------------------------------------

CONSTANT_VALUES = st.one_of(st.integers(-9, 9),
                            st.fractions(min_value=-9, max_value=9, max_denominator=9))


def check_constant(got: ScalarExpr, want: Fraction) -> None:
    value = got.value
    assert type(value) is (int if want.denominator == 1 else Fraction)
    assert value == want
    # a constant's text is native: sympy's bytes, and no sympy expression built
    assert coeff_text(got) == sp.sstr(rational(want), order="lex")
    assert got._expr is None
    assert type(got.as_fraction()) is Fraction and got.as_fraction() == want
    assert got.expr == rational(want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(CONSTANT_VALUES, CONSTANT_VALUES, st.integers(-3, 3))
def test_constant_arithmetic_is_int_exactly_when_integral(p, q, n):
    a, b = ScalarExpr(p, TABLE), ScalarExpr(q, TABLE)
    check_constant(a, Fraction(p))
    fp, fq = Fraction(p), Fraction(q)
    cases = [(a + b, fp + fq), (a - b, fp - fq), (a * b, fp * fq), (-a, -fp),
             (p + b, fp + fq), (a - q, fp - fq), (p * b, fp * fq), (q - a, fq - fp)]
    if q:
        cases += [(a / b, fp / fq), (a / q, fp / fq), (p / b, fp / fq)]
    if p or n >= 0:
        cases.append((a ** n, fp ** n))
    for got, want in cases:
        check_constant(got, want)
    assert a.diff(TABLE.lookup("x")).value == 0
    assert type(a.diff(TABLE.lookup("x")).value) is int


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.integers(-10 ** 30, 10 ** 30),
                 st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 12)))
def test_constant_text_is_sympys_without_an_expression(q):
    c = ScalarExpr(q, TABLE)
    text = coeff_text(c)
    assert c._expr is None
    assert text == sp.sstr(rational(Fraction(q)), order="lex") == sp.sstr(c.expr, order="lex")
    assert coeff_latex(c) == sp.latex(c.expr, order="lex")


def test_integral_constants_are_one_value():
    values = [ScalarExpr(2), ScalarExpr(Fraction(4, 2)), ScalarExpr(sp.Integer(2)),
              ScalarExpr(Fraction(4, 2), TABLE), ScalarExpr(QQ(2) / QQ(1) * TABLE.field.one)]
    for value in values:
        assert type(value.value) is int
        assert value == 2 and value == values[0] and value == Fraction(2)
        assert hash(value) == hash(values[0]) == hash(2)
    half = ScalarExpr(Fraction(1, 2))
    assert type(half.value) is Fraction and half != 1 and half * 2 == 1
    assert type((half * 2).value) is int and type((half + half).value) is int


@settings(max_examples=200, deadline=None, derandomize=True)
@given(POLYS, POLYS, st.one_of(st.just(0), CONSTANT_VALUES))
def test_mixed_constant_and_field_operations_match_field(numer, denom, q):
    denom = polynomial(denom)
    assume(denom)
    f = polynomial(numer) / denom
    assume(not (f.numer.is_ground and f.denom.is_ground))
    value, c, k = ScalarExpr(f, TABLE), ScalarExpr(q, TABLE), QQ(q)
    cases = [(c + value, k + f), (value + q, f + k), (c - value, k - f), (value - q, f - k),
             (c * value, k * f), (value * q, f * k), (c / value, k / f)]
    if q:
        cases += [(value / c, f / k), (value / q, f / k)]
    for got, want in cases:
        if want.numer.is_ground and want.denom.is_ground:
            r = want.numer.LC / want.denom.LC
            check_constant(got, Fraction(int(r.numerator), int(r.denominator)))
        else:
            assert (got.value.numer, got.value.denom) == (want.numer, want.denom)
