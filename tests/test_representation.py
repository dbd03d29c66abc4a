"""Every coefficient of every result is held as ``kernel`` says a value is held.

A constant is a plain ``int`` or ``Fraction`` and a ``ScalarExpr`` is never
constant; no path produces a float.  A jet holds only constants, each an
``int`` when it is integral.  The walk covers the prolonged rows, the solved
and lifted relations, the structure equations, the d^2 residues, the
genericity ledger, the solution jets, their brackets and the totals of Jacobi
violations of the bundled systems, of the diffeomorphisms of R^1..R^3 and of
the conformal input, and every value a coframe check builds.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from mcforge import coordforms, detsys, jetalg, structure
from mcforge.kernel import ScalarExpr, free_names

from conftest import bundled

INPUTS = Path(__file__).parent / "inputs"
SYSTEMS = ["cartan_essential.dsys", "intransitive_translation.dsys", "janet.dsys",
           "diffeo1", "diffeo2", "diffeo3", "conformal_3_5.dsys"]


def _system(name):
    if name.startswith("diffeo"):
        return detsys.DeterminingSystem.empty(["x", "y", "z"][:int(name[-1])])
    if name == "conformal_3_5.dsys":
        return detsys.parse_system((INPUTS / name).read_text())
    return detsys.parse_system(bundled(name))


class Walk:
    """Counts the coefficients seen, by kind, and fails on any other kind."""

    def __init__(self):
        self.seen = {"constant": 0, "function": 0}

    def value(self, c, where):
        if type(c) in (int, Fraction):
            self.seen["constant"] += 1
        else:
            assert type(c) is ScalarExpr and free_names(c), (where, type(c), c)
            self.seen["function"] += 1

    def terms(self, terms, where):
        for key, c in terms.items():
            assert c, (where, key)  # zero coefficients are dropped
            self.value(c, (where, key))

    def values(self, values, where):
        for c in values:
            self.value(c, where)

    def jet(self, jet, where):
        for key, c in jet.coefficients.items():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), \
                (where, key, type(c), c)
        self.terms(jet.coefficients, where)


@pytest.mark.parametrize("name", SYSTEMS)
def test_every_pipeline_coefficient_is_plain_or_a_function(name):
    walk = Walk()
    system = _system(name)
    n = 2 if name != "diffeo3" else 1
    for eq in detsys.prolong(system, max(n, system.order)).equations:
        walk.terms(eq.terms, "prolonged row")
    solved = detsys.solve_to_order(system, n + 1)
    for rhs in solved.solved.values():
        walk.terms(rhs.terms, "solved relation")
    walk.values(solved.assumptions, "solved assumptions")
    lifted = detsys.lift(solved)
    for form in lifted.solved.values():
        walk.terms(form.terms, "lifted relation")
    walk.values(lifted.assumptions, "lifted assumptions")
    eqs = structure.pseudo_group_structure(system, n)
    for form in eqs.equations.values():
        walk.terms(form.terms, "structure equation")
    walk.values(eqs.relations.assumptions, "structure assumptions")
    for residue in structure.check_d_squared(eqs).residues.values():
        walk.terms(residue.terms, "d^2 residue")
    walk.values(system.table.assumed_nonzero, "ledger")

    point = jetalg.default_point(system)
    basis = jetalg.solution_basis(system, point, n + 1)
    jets = basis + [jetalg.bracket(v, w) for v in basis[:4] for w in basis[:4]]
    for jet in jets:
        walk.jet(jet, "jet")
        walk.values([jet.coefficients.get(g, 0) for g in eqs.basis], "pairing")
    report = jetalg.check_duality(eqs, basis, point)
    assert report.ok
    jacobi = jetalg.jacobi_check(basis[:6])
    assert jacobi.ok
    assert walk.seen["constant"] > 0
    if name.startswith("diffeo") or name == "conformal_3_5.dsys":
        assert walk.seen["function"] == 0  # constant coefficients only


@pytest.mark.parametrize("name", ["cartan_essential.dsys", "diffeo2"])
def test_jacobi_violation_totals_follow_the_constant_rule(name, monkeypatch):
    """Doubling the brackets of two order-1 monomials breaks Jacobi; the totals it
    leaves are jets like any other."""
    walk = Walk()
    system = _system(name)
    basis = jetalg.solution_basis(system, {c: Fraction(3, 2) for c in system.coords}, 3)
    honest = jetalg.bracket_monomial

    def corrupt(a, A, b, B):
        out = honest(a, A, b, B)
        return {g: 2 * n for g, n in out.items()} if len(A) == len(B) == 1 else out

    monkeypatch.setattr(jetalg, "bracket_monomial", corrupt)
    violations = jetalg.jacobi_check(basis).violations
    assert violations
    for i, j, k, total in violations:
        walk.jet(total, ("Jacobi violation", i, j, k))
    assert walk.seen["constant"] > 0


def test_every_coframe_coefficient_is_plain_or_a_function():
    walk = Walk()
    session = coordforms.parse_coframe(bundled("cartan_example2.coframe"))
    for form in session.forms.values():
        walk.terms(form.terms, "coframe form")
    for claims in session.claims.values():
        walk.values([c for c, _, _ in claims], "claim")
    for form in session.forms.values():
        walk.terms(coordforms.exterior_derivative(form, session).terms, "d of a form")
    mutated = bundled("cartan_example2.coframe").replace("(1/x)", "(2/x)")
    report = coordforms.verify_structure_equations(coordforms.parse_coframe(mutated))
    assert not report.verified
    for residue in report.residues.values():
        walk.terms(residue.terms, "coframe residue")
    walk.values(session.table.assumed_nonzero, "ledger")
    assert walk.seen["constant"] > 0 and walk.seen["function"] > 0
