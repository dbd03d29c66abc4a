"""Lie algebra of vector-field jets and the duality check against structure equations.

Monomial fields v_a^A = (z - z0)^A / A! d/dz^a have integer bracket
coefficients built from multinomials and single deletions; truncated jets
extend them bilinearly, losing one order per bracket.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .detsys import DeterminingSystem, solve_to_order
from .exterior import McGenerator
from .kernel import DegeneratePointError, McforgeError, as_constant, substitute
from .multiindex import MultiIndex, delete_one, multinomial
from .structure import StructureEquationSet


class TruncationMismatchError(McforgeError):
    pass


def bracket_monomial(a: int, A: MultiIndex, b: int, B: MultiIndex
                     ) -> dict[McGenerator, int]:
    """[v_a^A, v_b^B] as its nonzero integer coefficient at each generator."""
    out: dict[McGenerator, int] = {}
    B_del = delete_one(B, a)
    if B_del is not None:
        target = A.union(B_del)
        out[McGenerator(b, target)] = multinomial(target, A)
    A_del = delete_one(A, b)
    if A_del is not None:
        target = B.union(A_del)
        g = McGenerator(a, target)
        c = out.pop(g, 0) - multinomial(target, B)
        if c:
            out[g] = c
    return out


class JetVectorField:
    """Truncated Taylor jet of a vector field at the session base point.

    Coefficients map each McGenerator (a, A), or its plain (a, A) pair, to
    a nonzero rational constant, held as the kernel holds one: an ``int``
    when it is integral, else a ``Fraction``.  A jet lives at one rational
    point, so ``kernel.as_constant`` refuses anything else.  Everything of
    order above the truncation is dropped.
    """

    __slots__ = ("coefficients", "truncation")

    def __init__(self, coefficients: Mapping, truncation: int):
        self.truncation = truncation
        coeffs = {}
        for key, value in coefficients.items():
            if key[1].order > truncation:
                continue
            if type(value) is not int:
                value = as_constant(value)
            if value:
                coeffs[key] = value
        self.coefficients = coeffs

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def truncate(self, order: int) -> "JetVectorField":
        if order > self.truncation:
            raise TruncationMismatchError(
                f"cannot extend truncation {self.truncation} to {order}")
        return JetVectorField(self.coefficients, order)

    def __add__(self, other: "JetVectorField") -> "JetVectorField":
        if other.truncation != self.truncation:
            raise TruncationMismatchError("mismatched truncations")
        coeffs = dict(self.coefficients)
        for key, v in other.coefficients.items():
            coeffs[key] = coeffs.get(key, 0) + v
        return JetVectorField(coeffs, self.truncation)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "JetVectorField":
        c = as_constant(c)
        return JetVectorField(
            {k: v * c for k, v in self.coefficients.items()}, self.truncation)

    def __eq__(self, other):
        if not isinstance(other, JetVectorField):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __repr__(self):
        items = sorted(self.coefficients.items(),
                       key=lambda kv: (kv[0][1].sort_key(), kv[0][0]))
        body = " + ".join(f"({c})*v[{comp}]{idx.entries}"
                          for (comp, idx), c in items)
        return f"Jet<{self.truncation}>({body or '0'})"


def _bracket_into(coeffs: dict, v: JetVectorField, w: JetVectorField, memo: dict) -> int:
    """Add the coefficients of [v, w] into ``coeffs``; returns the bracket's truncation.

    ``memo`` maps (a, A, b, B) to ``bracket_monomial(a, A, b, B)`` as a tuple
    of (generator, int) pairs; the caller makes one per check and drops it
    with the check.  A sum that cancels is left in ``coeffs`` as 0.
    """
    if v.truncation != w.truncation:
        raise TruncationMismatchError(
            f"mismatched truncations {v.truncation} != {w.truncation}")
    top = v.truncation
    for (a, A), cv in v.coefficients.items():
        for (b, B), cw in w.coefficients.items():
            # every term of [v_a^A, v_b^B] has order |A| + |B| - 1, so a pair
            # above this bound would only be truncated away
            if len(A) + len(B) > top:
                continue
            key = (a, A, b, B)
            terms = memo.get(key)
            if terms is None:
                terms = memo[key] = tuple(bracket_monomial(a, A, b, B).items())
            c = cv * cw
            for g, n in terms:
                coeffs[g] = coeffs.get(g, 0) + c * n
    return top - 1


def bracket(v: JetVectorField, w: JetVectorField) -> JetVectorField:
    """Lie bracket of jets; the result is exact one order below the inputs."""
    coeffs: dict = {}
    truncation = _bracket_into(coeffs, v, w, {})
    return JetVectorField(coeffs, truncation)


def _point_map(sys: DeterminingSystem, point: Mapping[str, object], target: bool):
    names = sys.targets if target else sys.coords
    out = {}
    for a, coord in enumerate(sys.coords):
        if coord not in point:
            raise McforgeError(f"missing coordinate {coord!r} in evaluation point")
        out[names[a]] = as_constant(point[coord])
    return out


def default_point(sys: DeterminingSystem) -> dict[str, int]:
    """All source coordinates set to 1, dodging the x = 0 degeneracies."""
    return {c: 1 for c in sys.coords}


def solution_basis(sys: DeterminingSystem, point: Mapping[str, object],
                   N: int, cap: Optional[int] = None) -> list[JetVectorField]:
    """Echelon basis of the determining system's solution jets at the point.

    The system is solved one order above N so that order-N data is exact.
    Values in ``point`` must be rationals (int or Fraction); each dependent
    coefficient is evaluated there once, into a constant.
    """
    sol = solve_to_order(sys, N + 1, cap=cap)
    subs = _point_map(sys, point, target=False)
    for assumption in sol.assumptions:
        if not substitute(assumption, subs):
            raise DegeneratePointError(
                f"assumed-nonzero function {assumption} vanishes at the point")
    basis = []
    dependents = [(d, rhs) for d, rhs in sol.solved.items()
                  if d.index.order <= N]
    for p in sol.parametric:
        if p.index.order > N:
            continue
        coeffs = {p: 1}
        for d, rhs in dependents:
            c = rhs.terms.get(p)
            if c is not None:
                coeffs[d] = as_constant(substitute(c, subs))
        basis.append(JetVectorField(coeffs, N))
    return basis


@dataclass
class DualityReport:
    pairings: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_duality(eqs: StructureEquationSet, basis: list[JetVectorField],
                  point: Mapping[str, object]) -> DualityReport:
    """Check (d g)(v_i, v_j) = -<g, [v_i, v_j]> for all basis generators and jet pairs.

    Structure-equation coefficients are evaluated once, into constants, at the
    target point, which coincides with the source point on the identity fiber.
    Each d g becomes an antisymmetric matrix over jet keys, stored as one
    table: ``table[(h, k)]`` lists ``(g, c)`` and ``table[(k, h)]`` lists
    ``(g, -c)``.  A pair of jets then only visits the products of their
    supports, and every comparison is equality in Q.  Each monomial bracket is
    computed once per call.
    """
    subs = _point_map(eqs.system, point, target=True)
    table: dict = {}
    for g in eqs.basis:
        for (h, k), c in eqs.equations[g].terms.items():
            value = as_constant(substitute(c, subs))
            if value:
                table.setdefault((h, k), []).append((g, value))
                table.setdefault((k, h), []).append((g, -value))
    memo: dict = {}
    pairings = 0
    violations = []
    for i, j in itertools.combinations(range(len(basis)), 2):
        lhs: dict = {}
        for a, ca in basis[i].coefficients.items():
            for b, cb in basis[j].coefficients.items():
                for g, c in table.get((a, b), ()):
                    lhs[g] = lhs.get(g, 0) + c * ca * cb
        br: dict = {}
        _bracket_into(br, basis[i], basis[j], memo)
        for g in eqs.basis:
            pairings += 1
            left = lhs.get(g, 0)
            right = -br.get(g, 0)
            if left != right:
                violations.append((g, i, j, as_constant(left), as_constant(right)))
    return DualityReport(pairings, violations)


@dataclass
class JacobiReport:
    triples: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def jacobi_check(basis: list[JetVectorField]) -> JacobiReport:
    """Cyclic double brackets must vanish at truncation N - 2.

    Each triple i < j < k adds [[u, v], w], [[v, w], u] and [[w, u], v] term
    for term into one dict; [w, u] is bracketed as it stands, not taken as
    -[u, w], so the check assumes no antisymmetry.  An inner bracket is
    computed once per ordered pair and each jet truncated once, so a call
    makes at most n(n - 1) + 3 C(n, 3) brackets for n jets.  The call keeps
    one table of monomial brackets, so each [v_a^A, v_b^B] is computed once
    per call; the table does not outlive it.
    """
    low = [v.truncate(v.truncation - 1) for v in basis]
    memo: dict = {}
    inner: dict = {}

    def br(a, b):
        if (a, b) not in inner:
            coeffs: dict = {}
            truncation = _bracket_into(coeffs, basis[a], basis[b], memo)
            inner[a, b] = JetVectorField(coeffs, truncation)
        return inner[a, b]

    triples = 0
    violations = []
    for i, j, k in itertools.combinations(range(len(basis)), 3):
        total: dict = {}
        _bracket_into(total, br(i, j), low[k], memo)
        _bracket_into(total, br(j, k), low[i], memo)
        truncation = _bracket_into(total, br(k, i), low[j], memo)
        triples += 1
        if any(total.values()):
            violations.append((i, j, k, JetVectorField(total, truncation)))
    return JacobiReport(triples, violations)

