import time
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, strategies as st

from mcforge import kernel
from mcforge.kernel import (
    DegeneratePointError,
    DuplicateSymbolError,
    McforgeError,
    ParseError,
    ScalarExpr,
    SymbolTable,
    UnknownSymbolError,
    ZeroDivisionFunctionError,
    diff,
    echelon,
    exact,
    free_names,
    substitute,
)

from helpers import parse_expr


@pytest.fixture
def table():
    t = SymbolTable()
    t.declare("x")
    t.declare("y")
    return t


def test_duplicate_declaration_rejected(table):
    with pytest.raises(DuplicateSymbolError):
        table.declare("x")
    assert table.names == ["x", "y"]


def test_unknown_symbol_rejected(table):
    x = table.expr("x")
    for lookup in (lambda: table.expr("nope"), lambda: diff(x, "nope"),
                   lambda: x.substitute({"nope": 1}), lambda: x.substitute({"x": "nope"})):
        with pytest.raises(UnknownSymbolError):
            lookup()


def test_canonical_quotient(table):
    x = table.expr("x")
    assert x / x == 1
    assert (x * x - 1) / (x + 1) == x - 1


def test_binomial_expansion_cancels(table):
    x, y = table.expr("x"), table.expr("y")
    assert (x + y) ** 2 - (x * x + 2 * x * y + y * y) == 0


def test_division_by_zero_function(table):
    x = table.expr("x")
    with pytest.raises(ZeroDivisionFunctionError):
        x / (x - x)


def test_division_records_genericity(table):
    parse_expr("1/x", table)
    assert table.assumed_nonzero == [table.expr("x")]


def test_scalar_division_leaves_ledger_empty(table):
    x, y = table.expr("x"), table.expr("y")
    assert (1 / x) * x == 1
    assert (x + y) / (x - y) * (x - y) == x + y
    assert x ** -2 * x ** 2 == 1
    assert table.assumed_nonzero == []


def test_division_by_constant_not_recorded(table):
    before = len(table.assumed_nonzero)
    _ = table.expr("x") / 2
    assert len(table.assumed_nonzero) == before


def test_ledger_keeps_one_entry_per_numerator(table):
    x, y = table.expr("x"), table.expr("y")
    for value in (2 * x, x * y, 2 * x, -x, x * y, -2 * x, 1 / x, (3 * x) / y):
        table.record_nonzero(value)
    assert [str(a) for a in table.assumed_nonzero] == ["x", "x*y"]


def test_ledger_and_values_across_a_later_declaration():
    # a later declaration builds the field anew: a value and a ledger entry
    # built before it combine with values built after it
    table = SymbolTable()
    table.declare("y")
    early = table.expr("y") - 1
    table.record_nonzero(early)
    table.declare("a")  # sorts before y: the generators are numbered anew
    late = table.expr("y") - 1
    assert early == late and hash(early) == hash(late)
    assert early * table.expr("a") - table.expr("a") * late == 0
    table.record_nonzero(3 - 3 * table.expr("y"))
    table.record_nonzero(table.expr("a") * early)
    assert [str(a) for a in table.assumed_nonzero] == ["y - 1", "a*y - a"]
    assert substitute(early / table.expr("a"), {"y": 3, "a": 2}) == 1


def test_echelon_solves_and_back_substitutes(table):
    x = table.expr("x")
    one = 1
    # a + b + c = 0, b - x*c = 0, 2a + 2b + 2c = 0; pivot on the largest column
    rows = [{"a": one, "b": one, "c": one}, {"b": one, "c": -x},
            {"a": 2 * one, "b": 2 * one, "c": 2 * one}]
    solved, redundant = echelon(rows, key=lambda col: col)
    assert redundant == 1
    assert list(solved) == ["c", "b"]
    assert set(solved["b"]) == {"a"} and set(solved["c"]) == {"a"}
    assert solved["b"]["a"] == -x / (x + 1)
    assert solved["c"]["a"] == -one / (x + 1)


def test_echelon_records_pivot_without_division(table):
    # x*a = 0 solves to a = 0 with no division, yet relies on x != 0
    x = table.expr("x")
    solved, _ = echelon([{"a": x}], key=lambda col: col)
    assert solved == {"a": {}}
    assert [str(a) for a in table.assumed_nonzero] == ["x"]


def test_diff(table):
    x, y = table.expr("x"), table.expr("y")
    sx = "x"
    assert diff(y / x, sx) == -y / (x * x)
    assert diff(x ** 3, sx) == 3 * x * x
    assert diff(Fraction(1, 2), sx) == 0 and type(diff(3, sx)) is int


def test_substitute_exact(table):
    x, y = table.expr("x"), table.expr("y")
    e = (x + y) / (x - y)
    v = e.substitute({"x": Fraction(3), "y": 1})
    assert v == 2


def test_substitute_degenerate_point(table):
    x, y = table.expr("x"), table.expr("y")
    e = 1 / (x - y)
    with pytest.raises(DegeneratePointError):
        e.substitute({"x": 1, "y": 1})


def test_simultaneous_substitution(table):
    x, y = table.expr("x"), table.expr("y")
    # swap x and y in one step; sequential substitution would collapse both
    swapped = (x - 2 * y).substitute({"x": y, "y": x})
    assert swapped == y - 2 * x


def test_free_names(table):
    x, y = table.expr("x"), table.expr("y")
    assert free_names(x * y + 1) == {"x", "y"}
    assert free_names(5) == set()


def test_parse_precedence(table):
    assert parse_expr("2 + 3 * 4", table) == 14
    assert parse_expr("2 * 3 ^ 2", table) == 18
    assert parse_expr("-x^2", table) == -(table.expr("x") ** 2)
    assert parse_expr("2^3^2", table) == 512  # right-associative
    assert parse_expr("(2 + x) * y", table) == (2 + table.expr("x")) * table.expr("y")


def test_parse_division_and_unary(table):
    x = table.expr("x")
    assert parse_expr("1/x + -x", table) == 1 / x - x


def test_nesting_limit(table):
    at_limit = "(" * kernel.MAX_NESTING + "x" + ")" * kernel.MAX_NESTING
    assert parse_expr(at_limit, table) == table.expr("x")
    assert parse_expr("-" * kernel.MAX_NESTING + "x", table) == table.expr("x")
    for text in ("(" + at_limit + ")", "-" * 10000 + "x", "x" + "^x" * 10000,
                 "(" * 10000 + "x" + ")" * 10000):
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_expr(text, table)


def test_power_bounds(table):
    x = table.expr("x")
    assert parse_expr("(x^8)^8", table) == x ** 64
    assert parse_expr("2^2048", table) == 2 ** 2048
    assert parse_expr("2^2049", table) == 2 ** 2049
    assert parse_expr("(x/(x + 1))^-64", table) == ((x + 1) / x) ** 64
    # 2^3^3^3 = 2^7625597484987 is refused before anything that size is built
    for text in ("x^65", "(x^8)^9", "(x + 1)^400", "x^-65", "(2^64)^65", "2^3^3^3"):
        with pytest.raises(ParseError, match="power too large"):
            parse_expr(text, table)


def test_integer_size_bounds(table):
    x = table.expr("x")
    at_limit = 2 ** kernel.MAX_POWER_BITS - 1
    assert parse_expr(str(at_limit), table) == at_limit
    assert parse_expr("0" * 5000 + "3", table) == 3
    assert parse_expr(f"x/{at_limit}", table) == x / at_limit
    big = "7" * 1000  # 3 320 bits
    for text in (str(at_limit + 1), "9" * 5000, "*".join([big] * 5), f"{big}*{big}",
                 f"1/{big}/{big}", f"({big}*x + 1)^2", f"x/{big} + 1/({big} + 1)",
                 " + ".join(f"1/({big} + {i})" for i in range(6))):
        with pytest.raises(ParseError, match="integer too large"):
            parse_expr(text, table)


def test_parse_errors(table):
    with pytest.raises(ParseError):
        parse_expr("x +", table)
    with pytest.raises(ParseError):
        parse_expr("x @ y", table)
    with pytest.raises(ParseError):
        parse_expr("x + z", table)


@given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=2, max_size=6))
def test_sum_matches_fraction_arithmetic(values):
    table = SymbolTable()
    total = exact(0, table)
    for v in values:
        total = total + exact(v, table)
    assert total == sum(values, Fraction(0))
    assert type(total) in (int, Fraction)


@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4),
       st.integers(min_value=-4, max_value=4))
def test_polynomial_eval_commutes_with_substitution(a, b, c):
    table = SymbolTable()
    table.declare("x")
    x = table.expr("x")
    e = a * x * x + b * x + c
    for point in (-2, 0, 1, 3):
        assert substitute(e, {"x": point}) == a * point * point + b * point + c


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
def test_product_quotient_roundtrip(p, q):
    table = SymbolTable()
    table.declare("x")
    x = table.expr("x")
    e = x + p
    f = x * x + q * x + 1
    assert (e * f) / f == e


def test_equality_across_association_orders(table):
    x, y = table.expr("x"), table.expr("y")
    left = ((x + y) + x) * y
    right = y * (2 * x + y)  # same polynomial, different build order
    assert left == right
    assert hash(left) == hash(right)


def test_expr_is_sympy_canonical(table):
    x = table.expr("x")
    e = (x * x - 1) / (x - 1)
    assert e.expr == sp.Symbol("x") + 1


def test_constant_sum_and_product_build_no_scalar(table, monkeypatch):
    half, third = exact(Fraction(1, 2), table), exact(Fraction(1, 3))
    x = table.expr("x")
    # the same constants built through the field: (x + 1/2) + (1/3 - x)
    by_field = (x + half) + (third - x)
    built = []
    init = ScalarExpr.__init__
    monkeypatch.setattr(ScalarExpr, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    total, product = half + third, third * half
    assert built == []  # a constant is a plain Fraction and holds no table
    assert type(total) is Fraction and type(product) is Fraction
    assert type(by_field) is Fraction  # a field result that is constant comes back plain
    assert total == by_field and hash(total) == hash(by_field)
    assert total == Fraction(5, 6) and product == Fraction(1, 6)


def test_mixed_constant_operands_keep_their_paths(table, monkeypatch):
    x = table.expr("x")
    scaled = []
    original = kernel._scaled
    monkeypatch.setattr(kernel, "_scaled",
                        lambda *args, **kwargs: scaled.append(args) or original(*args, **kwargs))
    assert str(2 * x) == "2*x" and str(x * 3) == "3*x"
    assert len(scaled) == 2
    assert 0 * x == 0 and type(0 * x) is int and len(scaled) == 2  # zero is not scaled
    assert str(Fraction(1, 2) + x) == "x + 1/2"
    assert (x + 1) - x + 2 == 3 and type((x + 1) - x + 2) is int


def test_a_constant_is_never_a_scalar(table):
    x = table.expr("x")
    for constant in (2, Fraction(1, 2), sp.Integer(2), table.field.one * 2):
        with pytest.raises(McforgeError):
            ScalarExpr(constant, table)
    with pytest.raises(McforgeError):
        ScalarExpr(2)
    with pytest.raises(McforgeError):
        ScalarExpr(table.generator("x"))  # no table
    # operations whose result is constant return it plain, never a float
    for value, want in ((x / x, 1), (x - x, 0), (x ** 0, 1), ((2 * x) / (4 * x), Fraction(1, 2)),
                        (x * (1 / x), 1), (diff(x, "x"), 1),
                        (x.substitute({"x": 3}), 3)):
        assert type(value) is type(want) and value == want
    assert x != 1 and x != Fraction(1, 2) and 1 != x


def test_power_bound_is_the_size_of_the_result(table):
    # a constant power is refused exactly when its numerator or denominator
    # would have more than MAX_POWER_BITS bits, and a power far past the
    # bound is refused on a lower bound of its size, before it is built
    assert kernel.MAX_POWER_BITS == 4096
    for text, want in (("2^4095", 2 ** 4095), ("3^2584", 3 ** 2584),
                       ("(1/2)^3000", Fraction(1, 2 ** 3000)), ("2^-4095", Fraction(1, 2 ** 4095)),
                       ("1^(2^4000)", 1), ("(-1)^(2^4000 + 1)", -1), ("0^(2^4000)", 0)):
        assert parse_expr(text, table) == want
    for text in ("2^4096", "3^2585", "(1/2)^4096", "(2/3)^-2585", "2^(2^4000)",
                 "(2^4000)^(2^4000)"):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="power too large: more than 4096 bits"):
            parse_expr(text, table)
        assert time.perf_counter() - start < 1
