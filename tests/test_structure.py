import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from mcforge import render, structure
from mcforge.detsys import DeterminingSystem, parse_system
from mcforge.exterior import McGenerator, OneForm, TwoForm, wedge
from mcforge.kernel import ScalarExpr
from mcforge.multiindex import MultiIndex, all_indices
from mcforge.structure import (
    check_d_squared,
    d_squared_residues,
    diffeo_structure_equation,
    pseudo_group_structure,
)

from conftest import bundled


def mc(comp, *entries):
    return McGenerator(comp, MultiIndex(entries))


def mu_n(n):
    """One-dimensional generator mu_n = mu^x_{X...X} (n copies)."""
    return mc(0, *([0] * n))


# ---------------------------------------------------------------------------
# One-dimensional diffeomorphism group: closed forms
# ---------------------------------------------------------------------------


def split_form_1d(n):
    """d mu_n = sum_i binom(n, i) mu_{i+1} ^ mu_{n-i}, before normalization."""
    out = TwoForm()
    for i in range(n + 1):
        a = OneForm({mu_n(i + 1): 1})
        b = OneForm({mu_n(n - i): 1})
        out = out + wedge(a, b).scale(math.comb(n, i))
    return out


def display_form_1d(n):
    """The antisymmetrized display: d mu_n = -sum_{2i < n+1} c_i mu_i ^ mu_{n+1-i}
    with c_i = ((n - 2i + 1) / (n + 1)) * binom(n+1, i), an integer."""
    terms = {}
    for i in range(n + 2):
        j = n + 1 - i
        if i >= j:
            break
        c = Fraction((n - 2 * i + 1) * math.comb(n + 1, i), n + 1)
        assert c.denominator == 1
        terms[(mu_n(i), mu_n(j))] = -int(c)
    return TwoForm(terms)


@pytest.mark.parametrize("n", range(7))
def test_diffeo_1d_matches_split_form(n):
    assert diffeo_structure_equation(0, MultiIndex((0,) * n), 1) == split_form_1d(n)


@pytest.mark.parametrize("n", range(7))
def test_diffeo_1d_matches_display(n):
    assert diffeo_structure_equation(0, MultiIndex((0,) * n), 1) == display_form_1d(n)


def test_diffeo_1d_low_orders_explicit():
    assert diffeo_structure_equation(0, MultiIndex(), 1) == TwoForm(
        {(mu_n(0), mu_n(1)): -1})
    assert diffeo_structure_equation(0, MultiIndex((0,)), 1) == TwoForm(
        {(mu_n(0), mu_n(2)): -1})
    assert diffeo_structure_equation(0, MultiIndex((0, 0)), 1) == TwoForm(
        {(mu_n(0), mu_n(3)): -1,
         (mu_n(1), mu_n(2)): -1})


def test_diffeo_multidim_example():
    # d mu^1_{x} in 3 dimensions: splits () + (x) over components
    got = diffeo_structure_equation(1, MultiIndex((0,)), 3)
    expected = TwoForm()
    for b in range(3):
        # A = (), B = (x): mu^1_{b} ^ mu^b_{x}
        expected = expected + wedge(OneForm({mc(1, b): 1}),
                                    OneForm({McGenerator(b, MultiIndex((0,))): 1}))
        # A = (x), B = (): mu^1_{x b} ^ mu^b
        expected = expected + wedge(OneForm({McGenerator(1, MultiIndex((0, b))): 1}),
                                    OneForm({mc(b): 1}))
    assert got == expected


# ---------------------------------------------------------------------------
# Power-series oracle: Taylor convolution over exponent vectors
# ---------------------------------------------------------------------------


def exponent_vectors(m, total):
    if m == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in exponent_vectors(m - 1, total - head):
            yield (head,) + tail


def vec_to_index(k):
    return MultiIndex(tuple(itertools.chain.from_iterable(
        (a,) * c for a, c in enumerate(k))))


def vec_binom(K, A):
    return math.prod(math.comb(K[i], A[i]) for i in range(len(K)))


def series_structure_equation(a, K, m):
    """Coefficient of H^K/K! in sum_b (d/dH^b of mu^a-series) wedge mu^b-series.

    Series are Taylor maps exponent-vector -> generator; the product is the
    standard binomial convolution, antisymmetrized into ordered wedge pairs.
    """
    terms = {}
    for b in range(m):
        for A in itertools.product(*[range(k + 1) for k in K]):
            B = tuple(K[i] - A[i] for i in range(len(K)))
            weight = vec_binom(K, A)
            Aplus = tuple(A[i] + (1 if i == b else 0) for i in range(len(A)))
            left = McGenerator(a, vec_to_index(Aplus))
            right = McGenerator(b, vec_to_index(B))
            if left == right:
                continue
            key, sign = ((left, right), 1) if left < right else ((right, left), -1)
            terms[key] = terms.get(key, 0) + weight * sign
    return TwoForm({k: v for k, v in terms.items() if v})


@pytest.mark.parametrize("m", [1, 2])
def test_power_series_identity(m):
    for total in range(5):
        for K in exponent_vectors(m, total):
            for a in range(m):
                C = vec_to_index(K)
                assert diffeo_structure_equation(a, C, m) == \
                    series_structure_equation(a, K, m), (a, K)


# ---------------------------------------------------------------------------
# Pseudo-group reduction
# ---------------------------------------------------------------------------


def test_essential_structure_order1(essential_system):
    eqs = pseudo_group_structure(essential_system, 1)
    X = essential_system.table.expr("X")
    one = 1

    assert eqs.basis == [mc(1), mc(2), mc(1, 0), mc(1, 1), mc(2, 0)]
    assert eqs.relations.stable
    assert any(a == X for a in eqs.relations.assumptions)

    assert eqs.equations[mc(1)] == TwoForm({(mc(1), mc(1, 1)): -one})
    assert eqs.equations[mc(2)] == TwoForm({(mc(2), mc(1, 1)): -X})
    assert eqs.equations[mc(1, 0)] == TwoForm(
        {(mc(1), mc(1, 0, 1)): -one, (mc(1, 0), mc(1, 1)): -one})
    assert eqs.equations[mc(1, 1)].is_zero
    # the composite term (mu^y_Y + X mu^y_{XY}) ^ mu^z plus X mu^y_Y ^ mu^z_X
    assert eqs.equations[mc(2, 0)] == TwoForm(
        {(mc(2), mc(1, 1)): -one,
         (mc(2), mc(1, 0, 1)): -X,
         (mc(1, 1), mc(2, 0)): X})


def test_essential_coefficient_dependence(essential_system):
    eqs = pseudo_group_structure(essential_system, 1)
    assert eqs.coefficient_dependence[mc(2)] == ["X"]
    assert eqs.coefficient_dependence[mc(1)] == []


def test_translation_structure_is_flat(translation_system):
    eqs = pseudo_group_structure(translation_system, 0)
    assert eqs.basis == [mc(1)]
    assert eqs.equations[mc(1)].is_zero
    eqs1 = pseudo_group_structure(translation_system, 1)
    assert eqs1.basis == [mc(1)]


def test_structure_negative_order_rejected(translation_system):
    with pytest.raises(ValueError):
        pseudo_group_structure(translation_system, -1)


def test_diffeo_parametric_basis_is_everything():
    eqs = pseudo_group_structure(DeterminingSystem.empty(["x", "y"]), 2)
    expected = [McGenerator(b, A)
                for A in all_indices(2, 2) for b in range(2)]
    assert sorted(eqs.basis, key=McGenerator.sort_key) == sorted(
        expected, key=McGenerator.sort_key)


# ---------------------------------------------------------------------------
# d^2 = 0
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,order", [(1, 2), (1, 4), (2, 2), (2, 4)])
def test_d_squared_diffeo(m, order):
    coords = ["x", "y"][:m]
    eqs = pseudo_group_structure(DeterminingSystem.empty(coords), order)
    assert check_d_squared(eqs).ok


def test_d_squared_bundled(essential_system, translation_system):
    for system in (essential_system, translation_system):
        for order in (0, 1, 2):
            report = check_d_squared(pseudo_group_structure(system, order))
            assert report.ok, (system.fields, order)


def test_d_squared_detects_corruption():
    # drop the mu_1 ^ mu_2 term from d mu_2 in the 1-d diffeomorphism set
    eqs = pseudo_group_structure(DeterminingSystem.empty(["x"]), 3)
    g = mu_n(2)
    assert d_squared_residues(eqs, [g])[g].is_zero
    eqs.equations[g] = TwoForm({(mu_n(0), mu_n(3)): -1})
    assert not d_squared_residues(eqs, [g])[g].is_zero


def test_check_d_squared_reads_the_given_equations():
    # negate one coefficient of one order-2 equation of the diffeo m = 2 set
    eqs = pseudo_group_structure(DeterminingSystem.empty(["x", "y"]), 2)
    assert check_d_squared(eqs).ok
    g = eqs.basis[-1]
    terms = dict(eqs.equations[g].terms)
    key = next(iter(terms))
    terms[key] = -terms[key]
    eqs.equations[g] = TwoForm(terms)
    report = check_d_squared(eqs)
    assert not report.ok
    assert report.failures() == [g]


# ---------------------------------------------------------------------------
# Each structure equation is reduced once per system
# ---------------------------------------------------------------------------


def test_in_place_edit_does_not_reach_the_reduced_equations():
    # negate a coefficient inside the dict of the first non-trivial equation,
    # as the benchmark gate's self-test does
    system = DeterminingSystem.empty(["x", "y"])
    eqs = pseudo_group_structure(system, 2)
    g = next(g for g in eqs.basis if eqs.equations[g].terms)
    original = TwoForm(eqs.equations[g].terms)
    terms = eqs.equations[g].terms
    key = next(iter(terms))
    terms[key] = -terms[key]
    assert check_d_squared(eqs).failures() == [g]
    again = pseudo_group_structure(system, 2)
    assert again.equations[g] == original
    assert check_d_squared(again).ok


def _rendered(eqs):
    return (render.render_structure(eqs, "text"), render.render_structure(eqs, "latex"),
            render.render_structure(eqs, "json"))


def test_structure_after_a_lower_cap_matches_a_fresh_system():
    # cap 5 leaves order-4 jets parametric that cap 7 solves for, so the
    # order-3 equations reduced at cap 5 must not be reused at cap 7
    system = parse_system(bundled("janet.dsys"))
    pseudo_group_structure(system, 3, cap=5)
    reused = pseudo_group_structure(system, 4, cap=7)
    fresh = pseudo_group_structure(parse_system(bundled("janet.dsys")), 4, cap=7)
    assert _rendered(reused) == _rendered(fresh)


def test_structure_after_a_deeper_solve_matches_a_fresh_system():
    # x != 0 enters this system's ledger only at jet order 4: the order-3
    # structure solves past it, the order-0 one stops below it
    text = (Path(__file__).parent / "inputs" / "ledger_at_order4.dsys").read_text()
    system = parse_system(text)
    deeper = pseudo_group_structure(system, 3)
    assert "assuming: X != 0" in render.render_structure(deeper, "text")
    after = pseudo_group_structure(system, 0)
    fresh = pseudo_group_structure(parse_system(text), 0)
    assert _rendered(after) == _rendered(fresh)
    assert "assuming" not in render.render_structure(fresh, "text")


@pytest.mark.parametrize("m,n,calls", [(2, 4, 42), (3, 2, 60)])
def test_structure_and_d_squared_expand_each_generator_once(monkeypatch, m, n, calls):
    # d^2 at order n needs the equations of order <= n + 1; those of order
    # <= n are the ones the structure set at order n already reduced
    seen = []
    expand = structure.diffeo_structure_equation
    monkeypatch.setattr(structure, "diffeo_structure_equation",
                        lambda *args: seen.append(args) or expand(*args))
    system = DeterminingSystem.empty(["x", "y", "z"][:m])
    assert check_d_squared(pseudo_group_structure(system, n)).ok
    assert len(seen) == calls


@pytest.mark.parametrize("m,n", [(2, 4), (3, 2)])
def test_structure_and_d_squared_build_few_scalars(monkeypatch, m, n):
    # the weights, the d^2 sums and every returned coefficient are plain ints:
    # no ScalarExpr is built (wrapping each returned coefficient built 412 and
    # 690 here, and wrapping every product 5 311 and 6 262)
    built = []
    init = ScalarExpr.__init__
    monkeypatch.setattr(ScalarExpr, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    system = DeterminingSystem.empty(["x", "y", "z"][:m])
    assert check_d_squared(pseudo_group_structure(system, n)).ok
    assert built == []
