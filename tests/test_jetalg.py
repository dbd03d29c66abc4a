import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, reject, settings, strategies as st

from mcforge import jetalg
from mcforge.detsys import DeterminingSystem, parse_system, prolong
from mcforge.exterior import McGenerator, TwoForm
from mcforge.jetalg import (
    JetVectorField,
    TruncationMismatchError,
    bracket,
    bracket_monomial,
    check_duality,
    default_point,
    jacobi_check,
    solution_basis,
)
from mcforge.kernel import DegeneratePointError, McforgeError, substitute
from mcforge.multiindex import MultiIndex, all_indices
from mcforge.render import coeff_text
from mcforge.structure import pseudo_group_structure

from conftest import bundled
from helpers import expand_in_basis, factorial_weight, jacobi_by_triples, structure_constants


def mi(*entries):
    return MultiIndex(entries)


def mc(comp, *entries):
    return McGenerator(comp, MultiIndex(entries))


# ---------------------------------------------------------------------------
# Monomial brackets against a symbolic vector-field oracle
# ---------------------------------------------------------------------------


def sympy_bracket(a, A, b, B, m):
    """[x^A/A! d_a, x^B/B! d_b] expanded in the monomial basis x^C/C! d_c."""
    xs = sp.symbols(f"x0:{m}")
    pA = sp.prod([xs[e] for e in A.entries]) / factorial_weight(A)
    pB = sp.prod([xs[e] for e in B.entries]) / factorial_weight(B)
    # commutator components: v(w^c) - w(v^c)
    comp = {b: sp.Integer(0), a: sp.Integer(0)}
    comp[b] += pA * sp.diff(pB, xs[a])
    comp[a] -= pB * sp.diff(pA, xs[b])
    out = {}
    for c, expr in comp.items():
        expr = sp.expand(expr)
        if expr == 0:
            continue
        for monom, coeff in sp.Poly(expr, *xs).terms():
            C = MultiIndex(tuple(itertools.chain.from_iterable(
                (i,) * k for i, k in enumerate(monom))))
            value = int(coeff * factorial_weight(C))
            key = (c, C)
            out[key] = out.get(key, 0) + value
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("m", [1, 2])
def test_bracket_monomial_against_sympy(m):
    idxs = all_indices(m, 3)
    for a, b in itertools.product(range(m), repeat=2):
        for A, B in itertools.product(idxs, repeat=2):
            got = bracket_monomial(a, A, b, B)
            assert got == sympy_bracket(a, A, b, B, m), (a, A, b, B)


def test_bracket_monomial_examples():
    # [d_x, x d_x] = d_x
    assert bracket_monomial(0, mi(), 0, mi(0)) == {mc(0): 1}
    # [x d_x, x^2/2 d_x] = x^2/2 d_x
    assert bracket_monomial(0, mi(0), 0, mi(0, 0)) == {mc(0, 0, 0): 1}
    # [d_x, d_y] = 0
    assert bracket_monomial(0, mi(), 1, mi()) == {}


def test_bracket_1d_closed_form():
    # [v_j, v_k] = (C(j+k-1, j) - C(j+k-1, k)) v_{j+k-1}
    for j in range(6):
        for k in range(6):
            got = bracket_monomial(0, mi(*([0] * j)), 0, mi(*([0] * k)))
            c = math.comb(j + k - 1, j) - math.comb(j + k - 1, k) \
                if j + k >= 1 else 0
            expected = {mc(0, *([0] * (j + k - 1))): c} if c else {}
            assert got == expected, (j, k)


# ---------------------------------------------------------------------------
# Truncated jets
# ---------------------------------------------------------------------------


def test_jet_truncation_drops_high_order():
    v = JetVectorField({(0, mi()): 1, (0, mi(0, 0, 0)): 5}, 2)
    assert (0, mi(0, 0, 0)) not in v.coefficients
    with pytest.raises(TruncationMismatchError):
        v.truncate(3)


def test_bracket_truncation_bookkeeping():
    v = JetVectorField({mc(0): 1}, 3)
    w = JetVectorField({mc(0, 0): 1}, 3)
    out = bracket(v, w)
    assert out.truncation == 2
    assert out == JetVectorField({mc(0): 1}, 2)
    with pytest.raises(TruncationMismatchError):
        bracket(v, out)


def test_bracket_antisymmetric_bilinear():
    u = JetVectorField({(0, mi(0)): 2, (1, mi(1, 1)): Fraction(1, 3)}, 3)
    v = JetVectorField({(1, mi()): 1, (0, mi(0, 1)): -1}, 3)
    w = JetVectorField({(0, mi()): 1, (1, mi(0)): 4}, 3)
    assert bracket(u, v) == bracket(v, u).scale(-1)
    assert bracket(u + w, v) == bracket(u, v) + bracket(w, v)
    assert bracket(u.scale(7), v) == bracket(u, v).scale(7)
    assert bracket(u, u).is_zero


def test_jet_coefficients_are_exact_rationals(essential_system):
    x = essential_system.table.expr("x")
    key = (0, mi())
    equal = [JetVectorField({key: value}, 1)
             for value in (2, Fraction(2), Fraction(4, 2), sp.Integer(2), 2 * x / x)]
    assert all(v == equal[0] for v in equal)
    assert all(v.coefficients == {key: Fraction(2)} for v in equal)
    assert all(type(c) is Fraction for c in equal[0].coefficients.values())
    assert equal[0].coefficients.get(McGenerator(*key), 0) == 2


def test_jet_rejects_non_constant_coefficients(essential_system):
    x = essential_system.table.expr("x")
    with pytest.raises(McforgeError):
        JetVectorField({(0, mi()): x}, 1)
    with pytest.raises(McforgeError):
        JetVectorField({mc(0): 1}, 1).scale(x)


@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=50))
def test_fraction_renders_like_scalar(q):
    assert coeff_text(q) == sp.sstr(sp.Rational(q.numerator, q.denominator), order="lex")


def test_jacobi_on_monomial_bases():
    for m in (1, 2):
        sys = DeterminingSystem.empty(["x", "y"][:m])
        basis = solution_basis(sys, default_point(sys), 4)
        report = jacobi_check(basis)
        assert report.ok
        assert report.triples == math.comb(len(basis), 3)


def _report_key(report):
    return report.triples, [(i, j, k, total.truncation, total.coefficients)
                            for i, j, k, total in report.violations]


@pytest.mark.parametrize("m", [1, 2])
def test_jacobi_matches_triple_oracle_diffeo(m):
    sys = DeterminingSystem.empty(["x", "y"][:m])
    basis = solution_basis(sys, default_point(sys), 4)
    assert _report_key(jacobi_check(basis)) == _report_key(jacobi_by_triples(basis))


def test_jacobi_matches_triple_oracle_essential(essential_system):
    point = {"x": Fraction(3, 2), "y": Fraction(-2), "z": Fraction(5, 7)}
    basis = solution_basis(essential_system, point, 2)
    report = jacobi_check(basis)
    assert report.triples == math.comb(len(basis), 3) > 0
    assert _report_key(report) == _report_key(jacobi_by_triples(basis))


def test_jacobi_matches_triple_oracle_on_a_corrupt_bracket(monkeypatch):
    """A bracket that is wrong at one ordered pair breaks Jacobi in the same triples."""
    sys = DeterminingSystem.empty(["x", "y"])
    basis = solution_basis(sys, default_point(sys), 3)
    honest = bracket_monomial

    def corrupt(a, A, b, B):
        out = honest(a, A, b, B)
        if (a, A, b, B) == (0, mi(0), 1, mi(0, 1)):
            g = mc(1, 0, 1)
            out[g] = out.get(g, 0) + 1
        return out

    monkeypatch.setattr(jetalg, "bracket_monomial", corrupt)
    report = jacobi_check(basis)
    assert report.violations
    assert _report_key(report) == _report_key(jacobi_by_triples(basis))


def test_jacobi_bracket_count(monkeypatch):
    calls = []

    def spy(v, w):
        calls.append(1)
        return bracket(v, w)

    monkeypatch.setattr(jetalg, "bracket", spy)
    sys = DeterminingSystem.empty(["x", "y"])
    basis = solution_basis(sys, default_point(sys), 3)
    n = len(basis)
    assert jacobi_check(basis).triples == math.comb(n, 3)
    assert 0 < len(calls) <= n * (n - 1) + 3 * math.comb(n, 3)
    calls.clear()
    assert jacobi_check(basis[:2]).triples == 0
    assert not calls


def test_jacobi_mixed_truncations_raise():
    basis = [JetVectorField({mc(0): 1}, 3), JetVectorField({mc(0, 0): 1}, 3),
             JetVectorField({mc(0, 0, 0): 1}, 2)]
    with pytest.raises(TruncationMismatchError):
        jacobi_check(basis)


# ---------------------------------------------------------------------------
# Solution bases
# ---------------------------------------------------------------------------


def test_diffeo_solution_basis_is_monomial():
    sys = DeterminingSystem.empty(["x"])
    basis = solution_basis(sys, default_point(sys), 3)
    assert len(basis) == 4
    for v, order in zip(basis, range(4)):
        assert v.coefficients == {(0, mi(*([0] * order))): 1}


def test_translation_solution_basis(translation_system):
    basis = solution_basis(translation_system, {"x": 1, "y": 0}, 3)
    assert len(basis) == 1
    (v,) = basis
    # the jet of x d_y at (1, 0): eta = 1, eta_x = 1, all else zero
    assert v.coefficients == {(1, mi()): 1, (1, mi(0)): 1}


@pytest.mark.parametrize("source", [None, "intransitive_translation.dsys"])
def test_symbolic_point_value_rejected(source):
    sys = (DeterminingSystem.empty(["x", "y"]) if source is None
           else parse_system(bundled(source)))
    with pytest.raises(McforgeError):
        solution_basis(sys, {"x": sp.Symbol("a"), "y": 0}, 2)


def test_translation_degenerate_point(translation_system):
    with pytest.raises(DegeneratePointError):
        solution_basis(translation_system, {"x": 0, "y": 0}, 2)


def test_essential_solution_basis_satisfies_system(essential_system):
    point = {"x": Fraction(1), "y": Fraction(2), "z": Fraction(-1)}
    N = 3
    basis = solution_basis(essential_system, point, N)
    prolonged = prolong(essential_system, N)
    subs = {c: point[c]
            for c in essential_system.coords}
    for v in basis:
        for eq in prolonged.equations:
            total = 0
            for js, c in eq.terms.items():
                coeff = v.coefficients.get(js, 0)
                if coeff:
                    total = total + substitute(c, subs) * coeff
            assert not total


def test_basis_and_bracket_keys_are_generators(essential_system):
    basis = solution_basis(essential_system, default_point(essential_system), 2)
    jets = basis + [bracket(v, w) for v, w in itertools.combinations(basis, 2)]
    assert all(type(key) is McGenerator for v in jets for key in v.coefficients)
    assert any(not v.is_zero for v in jets[len(basis):])


def test_expand_in_basis_roundtrip(essential_system):
    point = default_point(essential_system)
    basis = solution_basis(essential_system, point, 2)
    sol = pseudo_group_structure(essential_system, 1).relations
    parametric = [McGenerator(g.component, g.index) for g in sol.parametric]
    combo = basis[0].scale(3) + basis[2].scale(-2)
    coords = expand_in_basis(combo, parametric)
    rebuilt = JetVectorField({}, 2)
    for i, p in enumerate(parametric):
        if p.index.order <= 2:
            rebuilt = rebuilt + basis[i].scale(coords[p])
    assert rebuilt == combo


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------


def test_duality_1d_single_pairing():
    # (d mu_2)(v_1, v_2) = -<mu_2, [v_1, v_2]> = -1 by hand
    sys = DeterminingSystem.empty(["x"])
    eqs = pseudo_group_structure(sys, 2)
    point = default_point(sys)
    basis = solution_basis(sys, point, 3)
    v1, v2 = basis[1], basis[2]
    br = bracket(v1, v2)
    assert br == JetVectorField({mc(0, 0, 0): 1}, 2)
    g = mc(0, 0, 0)
    # evaluate d mu_2 on (v1, v2) by the wedge convention
    total = 0
    a, b = v1.coefficients, v2.coefficients
    for (h, k), c in eqs.equations[g].terms.items():
        total = total + c * (a.get(h, 0) * b.get(k, 0) - b.get(h, 0) * a.get(k, 0))
    assert total == -1
    assert -br.coefficients.get(g, 0) == -1


@pytest.mark.parametrize("m,order", [(1, 2), (1, 3), (2, 2)])
def test_duality_diffeo(m, order):
    sys = DeterminingSystem.empty(["x", "y"][:m])
    point = default_point(sys)
    eqs = pseudo_group_structure(sys, order)
    basis = solution_basis(sys, point, order + 1)
    report = check_duality(eqs, basis, point)
    assert report.ok
    assert report.pairings == math.comb(len(basis), 2) * len(eqs.basis)


def test_duality_essential(essential_system):
    point = {"x": Fraction(1), "y": Fraction(1), "z": Fraction(1)}
    eqs = pseudo_group_structure(essential_system, 1)
    basis = solution_basis(essential_system, point, 2)
    report = check_duality(eqs, basis, point)
    assert report.ok and report.pairings > 0


def test_duality_detects_wrong_sign(essential_system):
    point = default_point(essential_system)
    eqs = pseudo_group_structure(essential_system, 1)
    eqs.equations[mc(1)] = -eqs.equations[mc(1)]
    basis = solution_basis(essential_system, point, 2)
    report = check_duality(eqs, basis, point)
    assert not report.ok


@functools.cache
def _mutation_case(name):
    """(system, order-n structure equations, basis truncation n + 1)."""
    if name == "essential_o1":
        system, order = parse_system(bundled("cartan_essential.dsys")), 1
    else:
        system, order = DeterminingSystem.empty(["x", "y"]), 2
    return system, pseudo_group_structure(system, order), order + 1


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def _assert_every_negated_term_caught(name, data):
    """Untouched equations pass; negating any one term that the basis sees fails."""
    system, eqs, N = _mutation_case(name)
    point = {c: data.draw(rationals, label=c) for c in system.coords}
    try:
        basis = solution_basis(system, point, N)
        report = check_duality(eqs, basis, point)
    except DegeneratePointError:
        reject()
    assert report.ok
    assert report.pairings == math.comb(len(basis), 2) * len(eqs.basis)
    # reversed, each pair meets the (k, h) half of the antisymmetric table
    assert check_duality(eqs, basis[::-1], point).ok
    at_target = {t: point[c]
                 for c, t in zip(system.coords, system.targets)}
    mutated = 0
    for g in eqs.basis:
        for (h, k), c in eqs.equations[g].terms.items():
            if max(h.index.order, k.index.order) > N or not substitute(c, at_target):
                continue
            terms = dict(eqs.equations[g].terms)
            terms[(h, k)] = -c
            bad = dataclasses.replace(eqs, equations={**eqs.equations, g: TwoForm(terms)})
            assert check_duality(bad, basis, point).violations, (g, h, k)
            mutated += 1
    assert mutated > 0


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_duality_catches_negated_term_essential(data):
    _assert_every_negated_term_caught("essential_o1", data)


@settings(max_examples=2, deadline=None)
@given(st.data())
def test_duality_catches_negated_term_diffeo(data):
    # integer coefficients and monomial jets: the point changes nothing here
    _assert_every_negated_term_caught("diffeo_m2_o2", data)


# ---------------------------------------------------------------------------
# Structure constants vs brackets
# ---------------------------------------------------------------------------


def test_structure_constants_match_brackets(essential_system):
    """d mu^i = sum D^i_{jk} mu^j ^ mu^k pairs with [v_j, v_k] = -sum D^i_{jk} v_i."""
    point = {"x": Fraction(1), "y": Fraction(1), "z": Fraction(1)}
    eqs = pseudo_group_structure(essential_system, 1)
    basis = solution_basis(essential_system, point, 2)
    constants = {(i, j, k): c for i, j, k, c in structure_constants(eqs, point)}
    pos = {g: i for i, g in enumerate(eqs.basis)}
    for j in range(len(eqs.basis)):
        for k in range(j + 1, len(eqs.basis)):
            br = bracket(basis[j], basis[k])
            for g, i in pos.items():
                expected = -constants.get((i, j, k), 0)
                assert br.coefficients.get(g, 0) == expected, (i, j, k)


def test_structure_constants_abelian(translation_system):
    eqs = pseudo_group_structure(translation_system, 0)
    assert structure_constants(eqs, {"x": 1, "y": 0}) == []
