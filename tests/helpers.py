"""Test-only helpers: code that checks the package, which the package never calls."""

import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

import sympy as sp
from sympy.polys.fields import FracElement

from mcforge.exterior import (
    OneForm,
    ThreeForm,
    TwoForm,
    _gens,
    _rule,
    _solved_map,
    _wedge_into,
    reduce_one,
    reduce_three,
    reduce_two,
    wedge_two_one,
)
from mcforge import jetalg
from mcforge.jetalg import (
    DualityReport,
    JacobiReport,
    JetVectorField,
    TruncationMismatchError,
    _point_map,
)
from mcforge.kernel import (
    SCALAR,
    ExprParser,
    McforgeError,
    SymbolTable,
    _build,
    _constant,
    as_expr,
    substitute,
)
from mcforge.multiindex import MultiIndex
from mcforge.structure import StructureEquationSet


def exact(value, table: SymbolTable | None = None):
    """``value`` as a constant or a ScalarExpr of ``table``.

    ``value`` is an ``int``, a ``Fraction``, a sympy rational, an element of
    ``table``'s field or a sympy rational function of its declared symbols.
    """
    if isinstance(value, numbers.Rational):
        return _constant(Fraction(int(value.numerator), int(value.denominator)))
    if isinstance(value, sp.Expr) and table is not None:
        try:
            value = table.field.from_expr(value)
        except ValueError:
            raise McforgeError(
                f"{value} is not a rational function of declared symbols") from None
    if isinstance(value, FracElement):
        return _build(value, table)
    raise McforgeError(f"cannot interpret {value!r} as an exact scalar")


def parse_expr(text: str, table: SymbolTable, line_offset: int = 1):
    """One scalar expression in the shared input grammar, every name a declared symbol."""
    return ExprParser(table).parse(text, line_offset).get(SCALAR, 0)


def nonzero_normal_form(expr: sp.Expr):
    """The ledger entry of ``expr`` as sympy's simplifier normalizes it: the oracle for
    ``SymbolTable.record_nonzero``, or None for a constant numerator."""
    # b != 0 iff numerator(b) != 0; normalize to a primitive polynomial with a
    # positive leading sign so the ledger stays duplicate-free.
    num, _ = sp.fraction(sp.cancel(expr))
    num = sp.expand(num)
    if num.is_number:
        return None
    free = sorted(num.free_symbols, key=lambda s: s.name)
    try:
        _, prim = sp.Poly(num, *free).primitive()
        num = prim.as_expr()
    except sp.PolynomialError:
        pass
    if num.could_extract_minus_sign():
        num = -num
    return num


def reference_ledger(values) -> list:
    """The ledger that recording ``values`` in order builds, by ``nonzero_normal_form``."""
    ledger = []
    for value in values:
        expr = nonzero_normal_form(as_expr(value))
        if expr is not None and all(expr != a for a in ledger):
            ledger.append(expr)
    return ledger


@dataclass(frozen=True)
class DataclassMultiIndex:
    """The multi-index as a frozen dataclass: the oracle for ``MultiIndex``."""

    entries: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))

    @property
    def order(self) -> int:
        return len(self.entries)

    def counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.entries:
            out[e] = out.get(e, 0) + 1
        return out

    def union(self, other: "DataclassMultiIndex") -> "DataclassMultiIndex":
        return DataclassMultiIndex(self.entries + other.entries)

    def append(self, a: int) -> "DataclassMultiIndex":
        return DataclassMultiIndex(self.entries + (a,))

    def minus(self, other: "DataclassMultiIndex") -> "DataclassMultiIndex":
        mine = self.counts()
        for e, c in other.counts().items():
            if mine.get(e, 0) < c:
                raise ValueError(f"{other} is not a sub-multiset of {self}")
            mine[e] -= c
        return DataclassMultiIndex(tuple(itertools.chain.from_iterable(
            (e,) * c for e, c in mine.items())))

    def sort_key(self) -> tuple:
        return (len(self.entries), self.entries)

    def __lt__(self, other: "DataclassMultiIndex") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"MultiIndex{self.entries}"


def dataclass_multinomial(C, A) -> int:
    """(C choose A) from the counts of C and A, with an explicit sub-multiset test."""
    in_C = C.counts()
    out = 1
    for e, k in A.counts().items():
        n = in_C.get(e, 0)
        if n < k:
            return 0
        out *= math.comb(n, k)
    return out


def sub_multisets(C) -> list:
    """All splits C = (A, B) with A a distinct sub-multiset, graded-lex in A; A
    and B have C's type, a ``MultiIndex`` or a ``DataclassMultiIndex``."""
    counts = sorted(C.counts().items())
    choices = [range(c + 1) for _, c in counts]
    splits = []
    for pick in itertools.product(*choices):
        A = type(C)(tuple(itertools.chain.from_iterable(
            (e,) * k for (e, _), k in zip(counts, pick))))
        splits.append((A, C.minus(A)))
    splits.sort(key=lambda ab: ab[0].sort_key())
    return splits


def dataclass_delete_one(B: DataclassMultiIndex, a: int) -> Optional[DataclassMultiIndex]:
    if a not in B.entries:
        return None
    entries = list(B.entries)
    entries.remove(a)
    return DataclassMultiIndex(tuple(entries))


def factorial_weight(A: MultiIndex) -> int:
    """A! = product of factorials of the occurrence counts."""
    out = 1
    for c in A.counts().values():
        out *= math.factorial(c)
    return out


def reference_bracket(v: JetVectorField, w: JetVectorField) -> JetVectorField:
    """``jetalg.bracket`` term by term: no table of monomial brackets, no bound
    on a pair's order, and each generator tested against the truncation."""
    if v.truncation != w.truncation:
        raise TruncationMismatchError(
            f"mismatched truncations {v.truncation} != {w.truncation}")
    out_trunc = v.truncation - 1
    coeffs: dict = {}
    for (a, A), cv in v.coefficients.items():
        for (b, B), cw in w.coefficients.items():
            for g, c in jetalg.bracket_monomial(a, A, b, B).items():
                if g.index.order <= out_trunc:
                    coeffs[g] = coeffs.get(g, 0) + cv * cw * c
    return JetVectorField(coeffs, out_trunc)


def jacobi_by_triples(basis: list[JetVectorField]) -> JacobiReport:
    """``jetalg.jacobi_check`` computed triple by triple, every bracket from scratch
    by ``reference_bracket``."""
    triples = 0
    violations = []
    for i, j, k in itertools.combinations(range(len(basis)), 3):
        u, v, w = basis[i], basis[j], basis[k]
        low = u.truncation - 1
        total = (reference_bracket(reference_bracket(u, v), w.truncate(low))
                 + reference_bracket(reference_bracket(v, w), u.truncate(low))
                 + reference_bracket(reference_bracket(w, u), v.truncate(low)))
        triples += 1
        if not total.is_zero:
            violations.append((i, j, k, total))
    return JacobiReport(triples, violations)


def duality_by_pairs(eqs: StructureEquationSet, basis: list[JetVectorField],
                     point: Mapping[str, object]) -> DualityReport:
    """``jetalg.check_duality`` by the definition: (d g)(v_i, v_j) summed over the
    terms c mu^h ^ mu^k of d g as c (v_i^h v_j^k - v_i^k v_j^h), against
    -<g, [v_i, v_j]> by ``reference_bracket``."""
    subs = _point_map(eqs.system, point, target=True)
    pairings = 0
    violations = []
    for i, j in itertools.combinations(range(len(basis)), 2):
        a, b = basis[i].coefficients, basis[j].coefficients
        br = reference_bracket(basis[i], basis[j]).coefficients
        for g in eqs.basis:
            pairings += 1
            left = 0
            for (h, k), c in eqs.equations[g].terms.items():
                left += substitute(c, subs) * (a.get(h, 0) * b.get(k, 0)
                                               - a.get(k, 0) * b.get(h, 0))
            right = -br.get(g, 0)
            if left != right:
                violations.append((g, i, j, left, right))
    return DualityReport(pairings, violations)


def structure_constants(eqs: StructureEquationSet,
                        point: Mapping[str, object]) -> list[tuple]:
    """Coefficients C^i_{jk} of d mu^i = sum_{j<k} C^i_{jk} mu^j ^ mu^k at the point.

    Indices refer to positions in eqs.basis; pairs involving generators
    outside the basis are skipped (infinite-type tails).
    """
    subs = _point_map(eqs.system, point, target=True)
    pos = {g: i for i, g in enumerate(eqs.basis)}
    out = []
    for i, g in enumerate(eqs.basis):
        for (h, k), c in sorted(eqs.equations[g].terms.items(),
                                key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())):
            if h in pos and k in pos:
                value = substitute(c, subs)
                if value:
                    out.append((i, pos[h], pos[k], value))
    return out


def expand_in_basis(v: JetVectorField, sol_parametric: list) -> dict:
    """Coordinates of a solution jet with respect to an echelon basis."""
    return {p: v.coefficients.get(p, 0) for p in sol_parametric if p.index.order <= v.truncation}


def shape_key(sol) -> frozenset:
    """A solve's relations as a set: two solves with the same set have one solved shape."""
    return frozenset((p, frozenset(rhs.terms.items())) for p, rhs in sol.solved.items())


def wedge_one_two(alpha: OneForm, omega: TwoForm) -> ThreeForm:
    return wedge_two_one(omega, alpha)


def reduce_form(form, rel):
    """Reduce a form modulo a solved relation set; idempotent and linear."""
    if isinstance(form, OneForm):
        return reduce_one(form, rel)
    if isinstance(form, TwoForm):
        return reduce_two(form, rel)
    if isinstance(form, ThreeForm):
        return reduce_three(form, rel)
    raise TypeError(f"cannot reduce {type(form).__name__}")


def reduce_by_wedge(form, rel):
    """``reduce_form`` with every monomial substituted and re-sorted."""
    solved = _solved_map(rel)
    out: dict = {}
    for k, c in form.terms.items():
        _wedge_into(out, c, *(solved.get(g, g) for g in _gens(k)))
    return type(form)(out)


def d_apply_two_by_wedge(omega: TwoForm, rules, rel) -> ThreeForm:
    """``exterior.d_apply_two`` on generator keys: each product dg^h and g^dh
    is sorted by ``_wedge_into``, and every monomial is reduced."""
    out: dict = {}
    for (g, h), c in omega.terms.items():
        dg, dh = _rule(rules, g), _rule(rules, h)
        _wedge_into(out, c, dg, h)
        _wedge_into(out, -c, g, dh)
    return reduce_by_wedge(ThreeForm(out), rel)
