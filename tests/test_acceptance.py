"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All comparisons are exact structural equality of canonical forms; there are
no numeric tolerances anywhere.
"""

import itertools
import math
import time
from fractions import Fraction

from mcforge import jetalg
from mcforge.coordforms import parse_coframe, verify_structure_equations
from mcforge.detsys import DeterminingSystem, lift, parse_system, solve_to_order
from mcforge.exterior import McGenerator, OneForm, TwoForm, wedge
from mcforge.multiindex import MultiIndex
from mcforge.structure import (
    check_d_squared,
    diffeo_structure_equation,
    pseudo_group_structure,
)

from conftest import bundled
from helpers import structure_constants


def mc(comp, *entries):
    return McGenerator(comp, MultiIndex(entries))


def mu_n(n):
    return mc(0, *([0] * n))


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_1_diffeo_1d_golden():
    """D(R) order 5: split form, antisymmetrized display, runtime < 1 s."""
    start = time.time()
    eqs = pseudo_group_structure(DeterminingSystem.empty(["x"]), 5)
    elapsed = time.time() - start

    ok = elapsed < 1.0
    for n in range(6):
        got = eqs.equations[mu_n(n)]
        # raw split form sum_i binom(n, i) mu_{i+1} ^ mu_{n-i}
        split = TwoForm()
        for i in range(n + 1):
            split = split + wedge(OneForm({mu_n(i + 1): 1}),
                                  OneForm({mu_n(n - i): 1})
                                  ).scale(math.comb(n, i))
        # antisymmetrized display with integer coefficients
        display = {}
        for i in range((n + 1) // 2 + 1):
            j = n + 1 - i
            if i >= j:
                continue
            c = Fraction((n - 2 * i + 1) * math.comb(n + 1, i), n + 1)
            display[(mu_n(i), mu_n(j))] = -int(c)
        ok = ok and got == split and got == TwoForm(display)
    report("criterion 1: D(R) golden structure equations at order 5 (< 1 s)", ok)


def test_criterion_2_essential_lift():
    """Lifted relations of the essential-invariant system, orders 1 and 2."""
    system = parse_system(bundled("cartan_essential.dsys"))
    X = system.table.expr("X")
    one = 1

    rel1 = lift(solve_to_order(system, 1))
    order0_and_1 = {g: f for g, f in rel1.solved.items() if g.index.order <= 1}
    expected = {
        mc(0): OneForm(), mc(0, 0): OneForm(), mc(0, 1): OneForm(),
        mc(0, 2): OneForm(),
        mc(1, 2): OneForm(),
        mc(2, 1): OneForm(),
        mc(2, 2): OneForm({mc(1, 1): X}),
    }
    ok = order0_and_1 == expected

    rel2 = lift(solve_to_order(system, 2))
    ok = ok and rel2.solved[mc(2, 0, 2)] == OneForm(
        {mc(1, 1): one, mc(1, 0, 1): X})
    ok = ok and rel2.solved[mc(1, 1, 1)].is_zero
    ok = ok and any(a == X for a in rel2.assumptions)
    report("criterion 2: essential-invariant lifted relations (orders 1-2)", ok)


def test_criterion_3_essential_structure():
    """All five order-1 structure equations of the essential-invariant system."""
    system = parse_system(bundled("cartan_essential.dsys"))
    start = time.time()
    eqs = pseudo_group_structure(system, 1)
    elapsed = time.time() - start
    X = system.table.expr("X")
    one = 1

    ok = elapsed < 5.0
    ok = ok and eqs.basis == [mc(1), mc(2), mc(1, 0), mc(1, 1), mc(2, 0)]
    ok = ok and eqs.equations[mc(1)] == TwoForm({(mc(1), mc(1, 1)): -one})
    ok = ok and eqs.equations[mc(2)] == TwoForm({(mc(2), mc(1, 1)): -X})
    ok = ok and eqs.equations[mc(1, 0)] == TwoForm(
        {(mc(1), mc(1, 0, 1)): -one, (mc(1, 0), mc(1, 1)): -one})
    ok = ok and eqs.equations[mc(1, 1)].is_zero
    # d mu^z_X carries the composite (mu^y_Y + X mu^y_{XY}) against mu^z
    ok = ok and eqs.equations[mc(2, 0)] == TwoForm(
        {(mc(2), mc(1, 1)): -one, (mc(2), mc(1, 0, 1)): -X,
         (mc(1, 1), mc(2, 0)): X})
    report("criterion 3: essential-invariant structure equations (< 5 s)", ok)


def test_criterion_4_translation_group():
    """Finite-type sheared translations: lift, flat structure, 1-d abelian algebra."""
    system = parse_system(bundled("intransitive_translation.dsys"))
    X = system.table.expr("X")

    rel = lift(solve_to_order(system, 1))
    # solver orientation mu^y_X = (1/X) mu^y is equivalent to mu^y = X mu^y_X
    ok = rel.parametric == [mc(1)]
    ok = ok and rel.solved[mc(0)].is_zero
    ok = ok and rel.solved[mc(1, 1)].is_zero
    ok = ok and OneForm({mc(1): 1}) == \
        rel.solved[mc(1, 0)].scale(X)

    eqs = pseudo_group_structure(system, 0)
    ok = ok and eqs.basis == [mc(1)] and eqs.equations[mc(1)].is_zero

    basis = jetalg.solution_basis(system, {"x": 1, "y": 0}, 3)
    ok = ok and len(basis) == 1
    ok = ok and jetalg.bracket(basis[0], basis[0]).is_zero
    ok = ok and structure_constants(eqs, {"x": 1, "y": 0}) == []
    report("criterion 4: sheared-translation lift/structure/basis/brackets", ok)


def test_criterion_5_duality_suite():
    """(d g)(v_i, v_j) = -<g, [v_i, v_j]> exactly, with >= 200 pairings per case."""
    ok = True
    # (a) diffeomorphism pseudo-groups
    for m, order, jets in [(1, 4, 9), (2, 4, 5)]:
        sys_m = DeterminingSystem.empty(["x", "y"][:m])
        point = jetalg.default_point(sys_m)
        eqs = pseudo_group_structure(sys_m, order)
        basis = jetalg.solution_basis(sys_m, point, jets)
        rep = jetalg.check_duality(eqs, basis, point)
        ok = ok and rep.ok and rep.pairings >= 200
    # (b) essential-invariant system at (1, 1, 1), orders <= 2
    system = parse_system(bundled("cartan_essential.dsys"))
    point = {"x": Fraction(1), "y": Fraction(1), "z": Fraction(1)}
    for order in (1, 2):
        eqs = pseudo_group_structure(system, order)
        basis = jetalg.solution_basis(system, point, order + 1)
        rep = jetalg.check_duality(eqs, basis, point)
        ok = ok and rep.ok and rep.pairings > 0
    # (c) sheared translations at x0 = 1
    system2 = parse_system(bundled("intransitive_translation.dsys"))
    point2 = {"x": Fraction(1), "y": Fraction(0)}
    eqs2 = pseudo_group_structure(system2, 1)
    basis2 = jetalg.solution_basis(system2, point2, 2)
    rep2 = jetalg.check_duality(eqs2, basis2, point2)
    ok = ok and rep2.ok
    report("criterion 5: duality suite (diffeo m=1,2; bundled systems)", ok)


def test_criterion_6_self_consistency():
    """d^2 = 0 on every bundled system; Jacobi on monomial bases m <= 2."""
    ok = True
    for name in ("cartan_essential.dsys", "intransitive_translation.dsys"):
        system = parse_system(bundled(name))
        for order in (0, 1, 2):
            eqs = pseudo_group_structure(system, order)
            ok = ok and check_d_squared(eqs).ok
    for m in (1, 2):
        sys_m = DeterminingSystem.empty(["x", "y"][:m])
        basis = jetalg.solution_basis(sys_m, jetalg.default_point(sys_m), 4)
        rep = jetalg.jacobi_check(basis)
        ok = ok and rep.ok and rep.triples == math.comb(len(basis), 3)
    report("criterion 6: d^2 residues and Jacobi identity", ok)


def test_criterion_7_power_series_identity():
    """Structure equations equal the Taylor-convolution coefficients, m <= 2."""

    def vec_to_index(k):
        return MultiIndex(tuple(itertools.chain.from_iterable(
            (a,) * c for a, c in enumerate(k))))

    def series_equation(a, K, m):
        terms = {}
        for b in range(m):
            for A in itertools.product(*[range(k + 1) for k in K]):
                B = tuple(K[i] - A[i] for i in range(len(K)))
                weight = math.prod(math.comb(K[i], A[i]) for i in range(len(K)))
                Ap = tuple(A[i] + (1 if i == b else 0) for i in range(len(A)))
                left = McGenerator(a, vec_to_index(Ap))
                right = McGenerator(b, vec_to_index(B))
                if left == right:
                    continue
                key, sign = ((left, right), 1) if left < right else ((right, left), -1)
                terms[key] = terms.get(key, 0) + weight * sign
        return TwoForm({k: v for k, v in terms.items() if v})

    def exponent_vectors(m, total):
        if m == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in exponent_vectors(m - 1, total - head):
                yield (head,) + tail

    ok = True
    for m in (1, 2):
        for total in range(5):
            for K in exponent_vectors(m, total):
                for a in range(m):
                    ok = ok and diffeo_structure_equation(
                        a, vec_to_index(K), m) == series_equation(a, K, m)
    report("criterion 7: power-series identity (m <= 2, order <= 4)", ok)


def test_criterion_8_coframe_verification():
    """The bundled invariant coframe verifies; a mutated claim leaves a residue."""
    good = verify_structure_equations(parse_coframe(bundled("cartan_example2.coframe")))
    ok = good.verified and all(r.is_zero for r in good.residues.values())

    mutated = bundled("cartan_example2.coframe").replace("(1/x)", "(2/x)")
    bad = verify_structure_equations(parse_coframe(mutated))
    ok = ok and not bad.verified and not bad.residues["w2"].is_zero
    report("criterion 8: coframe structure-equation verification", ok)
