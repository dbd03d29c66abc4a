import pytest
from hypothesis import given, strategies as st

from mcforge.coordforms import (
    CoordOneForm,
    CoordTwoForm,
    DependentCoframeError,
    coframe_rank_ok,
    exterior_derivative,
    parse_coframe,
    verify_structure_equations,
)
from mcforge.exterior import _wedge_into
from mcforge.kernel import ParseError, diff

from conftest import bundled


def session_xy():
    return parse_coframe("symbols: x, y\nform w1 = dx\nform w2 = dy\n"
                         "dw1 = 0\ndw2 = 0")


def one(session, **coeffs):
    return CoordOneForm(coeffs)


def test_d_of_coordinate_differential_is_zero():
    s = session_xy()
    assert exterior_derivative(one(s, x=1), s).is_zero


def test_d_of_x_dy():
    s = session_xy()
    got = exterior_derivative(one(s, y=s.table.expr("x")), s)
    assert got.terms == {("x", "y"): 1}


def test_d_of_y_dx_minus_sign():
    s = session_xy()
    got = exterior_derivative(one(s, x=s.table.expr("y")), s)
    assert got.terms == {("x", "y"): -1}


def test_d_of_invariant_form():
    # d(dy - (y/x) dx) = (1/x) dx ^ dy
    s = session_xy()
    x, y = s.table.expr("x"), s.table.expr("y")
    w2 = one(s, y=1, x=-(y / x))
    got = exterior_derivative(w2, s)
    assert got.terms == {("x", "y"): 1 / x}


def test_wedge_coord_antisymmetric():
    s = session_xy()
    x, y = s.table.expr("x"), s.table.expr("y")
    a = one(s, x=x, y=2)
    b = one(s, x=-1, y=y)

    def wedge(alpha, beta):
        # the product the coframe residue is built with
        out: dict = {}
        _wedge_into(out, None, alpha, beta, key=s.symbol_order)
        return CoordTwoForm(out)

    ab = wedge(a, b)
    ba = wedge(b, a)
    assert (ab + ba).is_zero
    assert wedge(a, a).is_zero
    assert ab.terms == {("x", "y"): x * y + 2}


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3))
def test_d_squared_zero_on_polynomial_oneforms(a, b, c, d):
    s = session_xy()
    x, y = s.table.expr("x"), s.table.expr("y")
    f = a * x * x + b * x * y
    g = c * y * y + d * x
    # d(f dx + g dy) then check d of each resulting coefficient is consistent:
    # d^2 = 0 is equivalent to symmetry of second derivatives
    omega = one(s, x=f, y=g)
    d_omega = exterior_derivative(omega, s)
    coeff = d_omega.terms.get(("x", "y"), 0)
    assert coeff == diff(g, "x") - diff(f, "y")


def test_parse_coframe_bundled():
    session = parse_coframe(bundled("cartan_example2.coframe"))
    assert session.symbols == ["x", "y"]
    assert set(session.forms) == {"w1", "w2"}
    x, y = session.table.expr("x"), session.table.expr("y")
    assert session.forms["w2"].terms["x"] == -(y / x)
    assert session.claims["w1"] == []
    ((c, a, b),) = session.claims["w2"]
    assert (c, a, b) == (1 / x, "w1", "w2")


def test_verify_bundled_coframe():
    report = verify_structure_equations(parse_coframe(bundled("cartan_example2.coframe")))
    assert report.verified
    assert all(r.is_zero for r in report.residues.values())


def test_verify_mutated_claim_fails():
    text = bundled("cartan_example2.coframe").replace("(1/x)", "(2/x)")
    report = verify_structure_equations(parse_coframe(text))
    assert not report.verified
    residue = report.residues["w2"]
    assert not residue.is_zero


def test_dependent_coframe_rejected():
    text = "symbols: x, y\nform w1 = dx\nform w2 = 2*dx\ndw1 = 0\ndw2 = 0"
    session = parse_coframe(text)
    assert not coframe_rank_ok(session)
    with pytest.raises(DependentCoframeError):
        verify_structure_equations(session)


def test_claim_with_wedge_and_scalars():
    text = ("symbols: x, y\n"
            "form a = x*dx\n"
            "form b = x*dy\n"
            "da = 0\n"
            "db = (1/x) * a^b")
    report = verify_structure_equations(parse_coframe(text))
    # d(x dy) = dx^dy = (1/x) (x dx)^(x dy) / x ... check the arithmetic:
    # (1/x) a^b = (1/x) x^2 dx^dy = x dx^dy, but d b = dx^dy, so this fails
    assert not report.verified


def test_claim_correct_with_scalar_coefficient():
    text = ("symbols: x, y\n"
            "form a = x*dx\n"
            "form b = x*dy\n"
            "da = 0\n"
            "db = (1/x^2) * a^b")
    report = verify_structure_equations(parse_coframe(text))
    assert report.verified


def test_parse_coframe_errors():
    with pytest.raises(ParseError):
        parse_coframe("form w1 = dx")  # missing symbols
    with pytest.raises(ParseError):
        parse_coframe("symbols: x\nform w1 = dz\ndw1 = 0")  # unknown differential
    with pytest.raises(ParseError):
        parse_coframe("symbols: x\nform w1 = dx\ndw2 = 0")  # claim for unknown form
