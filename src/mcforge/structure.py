"""Maurer-Cartan structure equations: diffeomorphism expansion and reduction.

``diffeo_structure_equation`` expands d mu^a_C over all splits C = (A, B) with
multinomial weights; ``pseudo_group_structure`` runs the whole pipeline
(prolong, solve, lift, expand, reduce) and the d-squared checker closes the
equations one order higher to verify integrability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .detsys import DeterminingSystem, LiftedRelations, lift, solve_to_order
from .exterior import (
    McGenerator,
    ThreeForm,
    TwoForm,
    _RankedRules,
    d_apply_two,
    reduce_two,
)
from .kernel import InvalidOrderError, McforgeError, accumulate, free_names
from .multiindex import MultiIndex, splits


class InternalReductionError(McforgeError):
    """A source coordinate survived into a reduced structure equation."""


def diffeo_structure_equation(a: int, C: MultiIndex, m: int) -> TwoForm:
    """d mu^a_C for the full diffeomorphism pseudo-group, no relations applied;
    its coefficients are sums of the ``int`` weights."""
    terms: dict = {}
    for A, B, weight in splits(C):
        for b in range(m):
            g, h = McGenerator(a, A.append(b)), McGenerator(b, B)
            kg, kh = g.sort_key(), h.sort_key()
            if kg < kh:
                accumulate(terms, (g, h), weight)
            elif kh < kg:
                accumulate(terms, (h, g), -weight)
    return TwoForm(terms)


@dataclass
class StructureEquationSet:
    """Structure equations d(basis generator) = TwoForm, in basis order."""

    system: DeterminingSystem
    dim: int
    order: int
    basis: list[McGenerator]
    equations: dict[McGenerator, TwoForm]
    relations: LiftedRelations
    assumptions: list
    coefficient_dependence: dict[McGenerator, list[str]] = field(default_factory=dict)
    stable: bool = True


def pseudo_group_structure(sys: DeterminingSystem, n: int,
                           cap: int | None = None) -> StructureEquationSet:
    """Structure equations for the parametric Maurer-Cartan forms of order <= n.

    The determining system is prolonged and solved to order n+1 (d of an
    order-n form involves order-(n+1) generators), lifted, and the
    diffeomorphism equations are reduced modulo the lifted relations.
    ``stable``, and the warning the text output prints when it is false,
    concern that working order n+1, not the order n of the returned basis:
    Janet's example at n = 4, cap 7 has its final order-4 basis while its
    order-5 relations still change at the cap.

    Each equation is reduced once per system.  d g involves generators of
    order <= |g| + 1 only, so its reduced form depends only on the solved
    pivots of that order, and elimination only appends pivots: two solves
    with as many pivots of order <= |g| + 1 have the same ones.  The system's
    prolongation keeps each reduced d g under (g, that count), and every
    later structure set of the same system (``check_d_squared``'s, one at a
    higher order or cap) looks it up there.  Each set gets its own copies,
    so editing one never reaches another.
    """
    if n < 0:
        raise InvalidOrderError("order must be >= 0")
    working = n + 1
    solved = solve_to_order(sys, working, cap=cap)
    relations = lift(solved)
    basis = [g for g in relations.parametric if g.index.order <= n]

    # pivots[q]: the number of solved pivots of order <= q
    pivots = [0] * (working + 1)
    for p in solved.solved:
        pivots[p.index.order] += 1
    pivots = list(itertools.accumulate(pivots))

    memo = sys._prolongation.reduced
    target_names = set(sys.targets)
    source_names = set(sys.coords)
    equations: dict[McGenerator, TwoForm] = {}
    dependence: dict[McGenerator, list[str]] = {}
    for g in basis:
        key = (g, pivots[g.index.order + 1])
        reduced = memo.get(key)
        if reduced is None:
            raw = diffeo_structure_equation(g.component, g.index, sys.dim)
            reduced = memo[key] = reduce_two(raw, relations)
        used = set()
        for coeff in reduced.terms.values():
            names = free_names(coeff)
            if names & source_names:
                raise InternalReductionError(
                    f"source coordinates {names & source_names} in d{g}")
            used |= names & target_names
        equations[g] = TwoForm(reduced.terms)
        dependence[g] = sorted(used)

    return StructureEquationSet(
        system=sys, dim=sys.dim, order=n, basis=basis, equations=equations,
        relations=relations, assumptions=list(relations.assumptions),
        coefficient_dependence=dependence, stable=relations.stable)


@dataclass
class D2Report:
    order: int
    residues: dict[McGenerator, ThreeForm]

    @property
    def ok(self) -> bool:
        return all(r.is_zero for r in self.residues.values())

    def failures(self) -> list[McGenerator]:
        return [g for g, r in self.residues.items() if not r.is_zero]


def d_squared_residues(eqs: StructureEquationSet, generators: list[McGenerator],
                       rules: StructureEquationSet | None = None
                       ) -> dict[McGenerator, ThreeForm]:
    """d(d g) for each generator: d of eqs' equation for g, with ``rules`` (eqs
    itself when omitted) giving d of each generator on its right-hand side."""
    rules = eqs if rules is None else rules
    ranked = _RankedRules(rules.equations)
    return {g: d_apply_two(eqs.equations[g], ranked, rules.relations)
            for g in generators}


def check_d_squared(eqs: StructureEquationSet, cap: int | None = None) -> D2Report:
    """Verify d(d g) = 0 for the equation eqs gives each basis generator g.

    The structure equations one order higher, built here, give d of every
    generator on a right-hand side.  Each of them is looked up in the
    system's reduced equations under (g, number of solved pivots of order
    <= |g| + 1), see ``pseudo_group_structure``, and reduced only when that
    key is new.  The rules never come from ``eqs.equations``, so an edited
    equation in ``eqs`` fails.
    """
    closed = pseudo_group_structure(eqs.system, eqs.order + 1, cap=cap)
    return D2Report(eqs.order, d_squared_residues(eqs, eqs.basis, closed))
