import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcforge.detsys import (
    DeterminingSystem,
    NonlinearInputError,
    SolvedRelations,
    lift,
    parse_system,
    prolong,
    reduce_system,
    solve_to_order,
    total_derivative,
)
from mcforge.exterior import McGenerator, OneForm
from mcforge.kernel import ParseError, as_expr
from mcforge.multiindex import MultiIndex

from helpers import shape_key


def js(comp, *entries):
    return McGenerator(comp, MultiIndex(entries))


def mc(comp, *entries):
    return McGenerator(comp, MultiIndex(entries))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_basic(essential_system):
    s = essential_system
    assert s.coords == ["x", "y", "z"]
    assert s.targets == ["X", "Y", "Z"]
    assert s.fields == ["xi", "eta", "zeta"]
    assert len(s.equations) == 4
    assert s.order == 1


def test_parse_jet_suffix_is_multiset():
    s = parse_system("coords: x, y\nfields: xi, eta\neq: eta_xy + eta_yx = 0")
    (eq,) = s.equations
    # eta_xy and eta_yx are the same jet, so the terms combine
    assert eq.terms == {js(1, 0, 1): 2}


def test_parse_jet_suffix_reads_every_split():
    # x.yz is the only split of 'xyz'; a longest-name-first reader takes xy, then fails
    s = parse_system("coords: x, xy, yz\nfields: a, b, c\neq: a_xyz = 0")
    assert s.equations[0].terms == {js(0, 0, 2): 1}
    # 'aaaaa' splits as aa.aaa and as aaa.aa: one multiset, one jet
    s = parse_system("coords: aa, aaa\nfields: f, g\neq: f_aaaaa = g")
    assert s.equations[0].terms == {js(0, 0, 1): 1, js(1): -1}


@pytest.mark.parametrize("jet,readings", [
    ("xi_xx", "(xx) or (x, x)"),
    ("xi_xxx", "(x, xx) or (x, x, x)"),
    ("xi_xxxx", "(xx, xx) or (x, x, xx)"),
    ("eta_" + "x" * 40, "(xx, xx, xx, xx, xx, xx, xx, xx, xx, xx, xx, xx, xx, xx, xx, xx, "
                        "xx, xx, xx, xx) or (x, x, xx, xx, xx"),
])
def test_parse_ambiguous_jet_suffix_rejected(jet, readings):
    # with coords x and xx a run of x's splits into different multisets; 40 x's
    # split some 10^8 ways, and are refused without listing them
    start = time.perf_counter()
    with pytest.raises(ParseError, match="ambiguous derivative coordinates") as exc:
        parse_system(f"coords: x, xx\nfields: xi, eta\neq: {jet} = 0")
    assert readings in str(exc.value) and "(line 3, column 5)" in str(exc.value)
    assert time.perf_counter() - start < 1


def test_parse_collapsing_equation_rejected():
    # 0 = 0 after multiset collapse leaves no jet symbols
    with pytest.raises(ParseError):
        parse_system("coords: x, y\nfields: xi, eta\neq: eta_xy = eta_yx")


def test_parse_coefficients_and_comments():
    text = """# a comment
coords: x, y
fields: xi, eta
eq: x^2 * eta_x - eta / 2 = 0  # trailing comment
"""
    s = parse_system(text)
    (eq,) = s.equations
    x = s.table.expr("x")
    assert eq.terms[js(1, 0)] == x * x
    assert eq.terms[js(1)] == Fraction(-1, 2)


def test_parse_rejects_nonlinear():
    with pytest.raises(NonlinearInputError):
        parse_system("coords: x\nfields: xi\neq: xi * xi_x = 0")
    with pytest.raises(NonlinearInputError):
        parse_system("coords: x\nfields: xi\neq: xi^2 = 0")
    with pytest.raises(NonlinearInputError):
        parse_system("coords: x\nfields: xi\neq: 1 / xi = 0")


def test_parse_rejects_inhomogeneous():
    with pytest.raises(ParseError):
        parse_system("coords: x\nfields: xi\neq: xi_x = 1")


def test_parse_rejects_target_coordinates():
    with pytest.raises(ParseError):
        parse_system("coords: x\nfields: xi\neq: X * xi_x = 0")


def test_parse_rejects_unknown_lines():
    with pytest.raises(ParseError):
        parse_system("coords: x\nfields: xi\nbogus: 1")


def test_auto_target_collision():
    with pytest.raises(ParseError):
        parse_system("coords: x, X\nfields: xi, eta\neq: xi = 0")


# ---------------------------------------------------------------------------
# Total derivative and prolongation
# ---------------------------------------------------------------------------


def test_total_derivative_leibniz(essential_system):
    s = essential_system
    # the equation zeta_z - x*eta_y = 0
    eq = next(e for e in s.equations if js(2, 2) in e.terms)
    x = s.table.expr("x")
    dx = total_derivative(eq, 0, s)
    assert dx.terms == {js(2, 0, 2): 1,
                        js(1, 1): -1,
                        js(1, 0, 1): -x}
    dy = total_derivative(eq, 1, s)
    assert dy.terms == {js(2, 1, 2): 1,
                        js(1, 1, 1): -x}


def test_total_derivative_with_rational_coefficient(translation_system):
    s = translation_system
    # eta - x*eta_x = 0, differentiated by x: -x*eta_xx = 0
    eq = next(e for e in s.equations if js(1) in e.terms)
    x = s.table.expr("x")
    dx = total_derivative(eq, 0, s)
    assert dx.terms == {js(1, 0, 0): -x}


def test_prolong_monotone_and_deduplicated(essential_system):
    p1 = prolong(essential_system, 1)
    p2 = prolong(essential_system, 2)
    assert len(p2.equations) > len(p1.equations)
    keys = [eq.normal_key() for eq in p2.equations]
    assert len(keys) == len(set(keys))
    assert all(eq.order <= 2 for eq in p2.equations)


def test_prolong_below_system_order_rejected(essential_system):
    with pytest.raises(ValueError):
        prolong(essential_system, 0)


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------


def test_reduce_empty_system_all_parametric():
    s = DeterminingSystem.empty(["x"])
    sol = reduce_system(s, order=3)
    assert sol.solved == {}
    assert [p.index.order for p in sol.parametric] == [0, 1, 2, 3]


def test_solve_essential_order1(essential_system):
    sol = solve_to_order(essential_system, 1)
    assert sol.stable
    x = essential_system.table.expr("x")
    param = set(sol.parametric)
    assert param == {js(1), js(2), js(1, 0), js(1, 1), js(2, 0)}
    # zeta_z = x * eta_y, solved for the highest jet
    assert sol.solved[js(2, 2)].terms == {js(1, 1): x}
    assert sol.solved[js(2, 1)].terms == {}
    assert sol.solved[js(1, 2)].terms == {}
    assert sol.solved[js(0)].terms == {}


def test_solve_essential_finds_late_integrability(essential_system):
    # eta_yy = 0 only appears after cross-differentiating at order 2
    sol = solve_to_order(essential_system, 2)
    assert sol.solved[js(1, 1, 1)].terms == {}
    x = essential_system.table.expr("x")
    assert sol.solved[js(2, 0, 2)].terms == {js(1, 1): 1,
                                             js(1, 0, 1): x}


def test_solve_translation_finite_type(translation_system):
    sol = solve_to_order(translation_system, 3)
    assert sol.stable
    assert sol.parametric == [js(1)]
    x = translation_system.table.expr("x")
    one = 1
    assert sol.solved[js(1, 0)].terms == {js(1): one / x}
    assert sol.solved[js(1, 1)].terms == {}
    assert sol.solved[js(1, 0, 0)].terms == {}
    assert any(a == x for a in sol.assumptions)


def test_solved_form_is_triangular(essential_system):
    sol = solve_to_order(essential_system, 2)
    for rhs in sol.solved.values():
        assert not any(j in sol.solved for j in rhs.terms)


def test_solve_is_stable_under_extra_prolongation(essential_system):
    a = solve_to_order(essential_system, 1)
    b = solve_to_order(essential_system, 1, cap=6)
    assert shape_key(a) == shape_key(b)


def test_parametric_jets_satisfy_system(essential_system):
    # every jet in the solved span must satisfy all prolonged equations
    sol = solve_to_order(essential_system, 2)
    prolonged = prolong(essential_system, 2)
    for p in sol.parametric:
        values = {p: 1}
        for d, rhs in sol.solved.items():
            if p in rhs.terms:
                values[d] = rhs.terms[p]
        for eq in prolonged.equations:
            total = 0
            for j, c in eq.terms.items():
                total = total + c * values.get(j, 0)
            assert not total


# ---------------------------------------------------------------------------
# Lifting
# ---------------------------------------------------------------------------


def test_lift_renames_sources_to_targets(essential_system):
    rel = lift(solve_to_order(essential_system, 1))
    X = essential_system.table.expr("X")
    assert rel.solved[mc(2, 2)] == OneForm({mc(1, 1): X})
    assert rel.solved[mc(0)].is_zero
    assert rel.solved[mc(1, 2)].is_zero
    assert rel.solved[mc(2, 1)].is_zero
    assert mc(1) in rel.parametric and mc(2) in rel.parametric
    assert any(a == X for a in rel.assumptions)


def test_lift_translation_equivalent_to_display(translation_system):
    # solver emits mu^y_X = (1/X) mu^y; the display form is mu^y = X mu^y_X
    rel = lift(solve_to_order(translation_system, 1))
    X = translation_system.table.expr("X")
    lhs = OneForm({mc(1): 1})
    rhs = rel.solved[mc(1, 0)].scale(X)
    assert lhs == rhs
    assert rel.solved[mc(1, 1)].is_zero
    assert rel.solved[mc(0)].is_zero
    assert rel.parametric == [mc(1)]


def test_lift_preserves_triangular_shape(essential_system):
    rel = lift(solve_to_order(essential_system, 2))
    for form in rel.solved.values():
        assert not any(h in rel.solved for h in form.terms)


# ---------------------------------------------------------------------------
# Incremental solving equals prolonging and reducing from scratch per order
# ---------------------------------------------------------------------------


def restricted(sol, order):
    """``sol`` with only the relations and parametric jets of order <= ``order``."""
    solved = {p: rhs for p, rhs in sol.solved.items() if p.index.order <= order}
    parametric = [j for j in sol.parametric if j.index.order <= order]
    return SolvedRelations(sol.system, order, solved, parametric,
                           list(sol.assumptions), sol.stable)


def solve_from_scratch(sys, order, cap=None):
    """The reference loop: prolong and reduce anew at every order up to the cap."""
    start = max(order, sys.order)
    cap = max(cap if cap is not None else order + 2, start + 1)
    prev_shape = None
    for k in range(start, cap + 1):
        sol = restricted(reduce_system(prolong(sys, k), order=k), order)
        shape = shape_key(sol)
        if shape == prev_shape:
            sol.stable = True
            return sol
        prev_shape = shape
    sol.stable = False
    return sol


def assert_same_solution(text, calls):
    """Solve one parsed system at each (order, cap) of ``calls`` in turn, and
    compare every result with the from-scratch loop on a fresh parse of its
    own, whose ledger holds only what that loop recorded.  The session's
    ledger is compared with the from-scratch loop run in the same sequence on
    one second parse."""
    session_sys, new_sys = parse_system(text), parse_system(text)
    for order, cap in calls:
        ref = solve_from_scratch(parse_system(text), order, cap)
        solve_from_scratch(session_sys, order, cap)
        new = solve_to_order(new_sys, order, cap)
        assert new.system is new_sys
        assert list(new.solved) == list(ref.solved)
        for p, rhs in ref.solved.items():
            assert list(new.solved[p].terms.items()) == list(rhs.terms.items())
        assert new.parametric == ref.parametric
        assert new.stable == ref.stable
        assert new.order == ref.order
        assert [as_expr(a) for a in new.assumptions] == [as_expr(a) for a in ref.assumptions]
        assert ([as_expr(a) for a in new_sys.table.assumed_nonzero]
                == [as_expr(a) for a in session_sys.table.assumed_nonzero])


_BUNDLED = ["cartan_essential.dsys", "intransitive_translation.dsys", "janet.dsys"]


def _text(name):
    if name == "ledger_at_order4.dsys":
        return (Path(__file__).parent / "inputs" / name).read_text()
    return resources.files("mcforge").joinpath("data", name).read_text()


@pytest.mark.parametrize("name", _BUNDLED)
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_solve_to_order_equals_from_scratch(name, order):
    text = resources.files("mcforge").joinpath("data", name).read_text()
    for cap in sorted({None, order + 3, 7}, key=lambda c: -1 if c is None else c):
        assert_same_solution(text, [(order, cap)])


@pytest.mark.parametrize("name", _BUNDLED + ["ledger_at_order4.dsys"])
@pytest.mark.parametrize("calls", [
    [(3, 7), (1, None), (2, 4)],
    [(4, None), (2, 6), (0, None), (3, 5)],
    [(1, None), (3, None), (1, 6), (2, None)],
    [(5, 8), (4, 5), (2, None)],
])
def test_solves_of_one_system_equal_from_scratch(name, calls):
    # a later solve may stop at an order below the deepest one an earlier
    # solve eliminated, and must then read only the prefix up to its own:
    # Janet's system at order 4, cap 5 stops at jet order 5, before the
    # order-4 relations that the solve at order 5, cap 8 found further on;
    # its ledger, too, is the prefix the solve at its own order recorded
    assert_same_solution(_text(name), calls)


_COEFFS = ["1", "-1", "2", "x", "y", "x + y", "1/x", "y/(x + 1)", "(x - y)/y"]
_JETS = ["xi", "eta", "xi_x", "xi_y", "eta_x", "eta_y", "xi_xy", "eta_yy"]


@st.composite
def small_linear_systems(draw):
    """Linear 2-D systems with polynomial or rational coefficients."""
    lines = ["coords: x, y", "fields: xi, eta"]
    for _ in range(draw(st.integers(1, 2))):
        jets = draw(st.lists(st.sampled_from(_JETS), min_size=1, max_size=3, unique=True))
        terms = [f"({draw(st.sampled_from(_COEFFS))})*{j}" for j in jets]
        lines.append(f"eq: {' + '.join(terms)} = 0")
    return "\n".join(lines) + "\n"


@settings(max_examples=15, deadline=None)
@given(text=small_linear_systems(), order=st.integers(1, 2),
       cap_step=st.sampled_from([None, 1]))
def test_solve_to_order_equals_from_scratch_on_small_systems(text, order, cap_step):
    assert_same_solution(text, [(order, None if cap_step is None else order + cap_step)])


@st.composite
def reordered_systems(draw):
    """A small system, sometimes with a non-constant multiple of one of its
    equations added, and the same system with its equation lines shuffled."""
    lines = draw(small_linear_systems()).splitlines()
    head, eqs = lines[:2], lines[2:]
    if draw(st.booleans()):
        lhs = draw(st.sampled_from(eqs))[len("eq:"):].partition("=")[0].strip()
        factor = draw(st.sampled_from(["x", "x*y", "(x + 1)/y"]))
        eqs.append(f"eq: ({factor})*({lhs}) = 0")
    shuffled = draw(st.permutations(eqs))
    return ["\n".join(head + list(e)) + "\n" for e in (eqs, shuffled)]


def _exprs(terms):
    return {j: as_expr(c) for j, c in terms.items()}


@settings(max_examples=15, deadline=None)
@given(texts=reordered_systems(), order=st.integers(1, 2))
def test_results_do_not_depend_on_the_order_of_equations(texts, order):
    a_sys, b_sys = (parse_system(t) for t in texts)
    a_rows, b_rows = ([_exprs(eq.terms) for eq in prolong(s, max(order, s.order)).equations]
                      for s in (a_sys, b_sys))
    assert a_rows == b_rows
    a, b = solve_to_order(a_sys, order), solve_to_order(b_sys, order)
    assert ([(p, _exprs(rhs.terms)) for p, rhs in a.solved.items()]
            == [(p, _exprs(rhs.terms)) for p, rhs in b.solved.items()])
    assert (a.parametric, a.stable) == (b.parametric, b.stable)
    # the ledger lists parse-time divisors in line order, so compare it as a set
    assert {as_expr(c) for c in a.assumptions} == {as_expr(c) for c in b.assumptions}


def test_two_equation_rational_system_keeps_its_answer():
    # exact elimination here once swelled to seconds for 9 pivots; the solved
    # form, parametric jets and ledger below were recorded before the
    # rational-function field replaced sympy's cancel
    sys = parse_system("coords: x, y\nfields: xi, eta\n"
                       "eq: (x*y - 1)*eta_x + (1/x)*eta + (y/(x + 1))*xi = 0\n"
                       "eq: ((x - y)/y)*eta_x = 0\n")
    sol = solve_to_order(sys, 2, cap=5)
    name = {js(0): "xi", js(1): "eta", js(0, 0): "xi_x", js(0, 1): "xi_y",
            js(1, 0): "eta_x", js(1, 1): "eta_y", js(0, 0, 0): "xi_xx",
            js(0, 0, 1): "xi_xy", js(0, 1, 1): "xi_yy", js(1, 0, 0): "eta_xx",
            js(1, 0, 1): "eta_xy", js(1, 1, 1): "eta_yy"}
    solved = {name[p]: {name[j]: str(c) for j, c in rhs.terms.items()}
              for p, rhs in sol.solved.items()}
    assert solved == {
        "eta_x": {}, "eta": {"xi": "-x*y/(x + 1)"}, "eta_xx": {},
        "xi_x": {"xi": "-1/(x**2 + x)"}, "eta_xy": {},
        "eta_y": {"xi": "-x/(x + 1)", "xi_y": "-x*y/(x + 1)"},
        "xi_xx": {"xi": "2/(x**3 + x**2)"}, "xi_xy": {"xi_y": "-1/(x**2 + x)"},
        "eta_yy": {"xi_y": "-2*x/(x + 1)", "xi_yy": "-x*y/(x + 1)"},
    }
    assert list(solved) == ["eta_x", "eta", "eta_xx", "xi_x", "eta_xy", "eta_y",
                            "xi_xx", "xi_xy", "eta_yy"]
    assert [name[p] for p in sol.parametric] == ["xi", "xi_y", "xi_yy"]
    assert [str(a) for a in sol.assumptions] == ["x", "x + 1", "y", "x*y - 1", "x - y"]
    assert sol.stable
