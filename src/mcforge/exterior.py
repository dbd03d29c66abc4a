"""Formal exterior algebra in degree <= 3 over ScalarExpr coefficients.

Generators are the Maurer-Cartan symbols mu^a_A.  Wedge monomials are stored
on strictly ordered generator tuples; the evaluation convention is
(alpha ^ beta)(v, w) = alpha(v) beta(w) - alpha(w) beta(v).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .kernel import McforgeError, ScalarExpr
from .multiindex import MultiIndex


class NotSolvedFormError(McforgeError):
    """Relation set handed to reduce() is not triangular/solved."""


class MissingRuleError(McforgeError):
    """No structure equation available for a generator during d application."""


@dataclass(frozen=True)
class McGenerator:
    """The key (component a, multi-index A).

    It names the Maurer-Cartan generator mu^a_A and, in a determining system,
    the source jet zeta^a_A that lifts to it.
    """

    component: int
    index: MultiIndex

    def sort_key(self) -> tuple:
        return (self.index.order, self.component, self.index.entries)

    def __lt__(self, other: "McGenerator") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"mu[{self.component}]{self.index.entries}"


def _clean(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if not v.is_zero}


class _FormBase:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _clean(dict(terms or {}))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _combined(self, other, sign):
        terms = dict(self.terms)
        for k, v in other.terms.items():
            cur = terms.get(k)
            terms[k] = v * sign if cur is None else cur + v * sign
        return type(self)(terms)

    def __add__(self, other):
        return self._combined(other, 1)

    def __sub__(self, other):
        return self._combined(other, -1)

    def __neg__(self):
        return type(self)({k: -v for k, v in self.terms.items()})

    def scale(self, c):
        return type(self)({k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return (self - other).is_zero
        return all(other.terms[k] == v for k, v in self.terms.items())

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is unhashable")

    def sorted_terms(self):
        # keys are generators or tuples of them, both ordered by sort_key
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        if self.is_zero:
            return f"{type(self).__name__}(0)"
        body = " + ".join(f"({c})*{k}" for k, c in self.sorted_terms())
        return f"{type(self).__name__}({body})"


class OneForm(_FormBase):
    """Finitely supported ScalarExpr-linear combination of generators."""

    @classmethod
    def generator(cls, g: McGenerator, one=None):
        return cls({g: one if one is not None else ScalarExpr(1)})


class TwoForm(_FormBase):
    """Degree-2 element; keys are strictly increasing generator pairs."""


class ThreeForm(_FormBase):
    """Degree-3 element; keys are strictly increasing generator triples."""


def _ordered_pair(g, h):
    if g == h:
        return None, 0
    return ((g, h), 1) if g < h else ((h, g), -1)


def wedge(alpha: OneForm, beta: OneForm) -> TwoForm:
    """Bilinear antisymmetric product of two one-forms."""
    terms: dict = {}
    for g, cg in alpha.terms.items():
        for h, ch in beta.terms.items():
            key, sign = _ordered_pair(g, h)
            if key is None:
                continue
            c = cg * ch * sign
            cur = terms.get(key)
            terms[key] = c if cur is None else cur + c
    return TwoForm(terms)


def _ordered_triple(g, h, k):
    gens = [g, h, k]
    if len({gens[0], gens[1], gens[2]}) < 3:
        return None, 0
    sign = 1
    # 3-element sort: count swaps
    for i in range(2):
        for j in range(2 - i):
            if gens[j + 1] < gens[j]:
                gens[j], gens[j + 1] = gens[j + 1], gens[j]
                sign = -sign
    return tuple(gens), sign


def wedge_two_one(omega: TwoForm, alpha: OneForm) -> ThreeForm:
    terms: dict = {}
    for (g, h), c2 in omega.terms.items():
        for k, c1 in alpha.terms.items():
            key, sign = _ordered_triple(g, h, k)
            if key is None:
                continue
            c = c2 * c1 * sign
            cur = terms.get(key)
            terms[key] = c if cur is None else cur + c
    return ThreeForm(terms)


def wedge_one_two(alpha: OneForm, omega: TwoForm) -> ThreeForm:
    return wedge_two_one(omega, alpha)


def _solved_map(rel) -> Mapping[McGenerator, OneForm]:
    solved = getattr(rel, "solved", rel)
    if not isinstance(solved, Mapping):
        raise NotSolvedFormError("relations must provide a generator -> OneForm mapping")
    return solved


def _check_solved(solved: Mapping[McGenerator, OneForm]) -> None:
    for g, rhs in solved.items():
        for h in rhs.terms:
            if h in solved:
                raise NotSolvedFormError(
                    f"dependent generator {h} appears on the right-hand side of {g}"
                )


def reduce_one(alpha: OneForm, rel) -> OneForm:
    solved = _solved_map(rel)
    _check_solved(solved)
    out = OneForm()
    for g, c in alpha.terms.items():
        rhs = solved.get(g)
        if rhs is None:
            out = out + OneForm({g: c})
        else:
            out = out + rhs.scale(c)
    return out


def reduce_two(omega: TwoForm, rel) -> TwoForm:
    solved = _solved_map(rel)
    _check_solved(solved)
    out = TwoForm()
    for (g, h), c in omega.terms.items():
        lhs = solved.get(g, OneForm.generator(g))
        rhs = solved.get(h, OneForm.generator(h))
        out = out + wedge(lhs, rhs).scale(c)
    return out


def reduce_three(omega: ThreeForm, rel) -> ThreeForm:
    solved = _solved_map(rel)
    _check_solved(solved)
    out = ThreeForm()
    for (g, h, k), c in omega.terms.items():
        a = solved.get(g, OneForm.generator(g))
        b = solved.get(h, OneForm.generator(h))
        d = solved.get(k, OneForm.generator(k))
        out = out + wedge_two_one(wedge(a, b), d).scale(c)
    return out


def reduce_form(form, rel):
    """Reduce a form modulo a solved relation set; idempotent and linear."""
    if isinstance(form, OneForm):
        return reduce_one(form, rel)
    if isinstance(form, TwoForm):
        return reduce_two(form, rel)
    if isinstance(form, ThreeForm):
        return reduce_three(form, rel)
    raise TypeError(f"cannot reduce {type(form).__name__}")


def d_apply(alpha: OneForm, rules: Mapping[McGenerator, TwoForm], rel) -> TwoForm:
    """d of a one-form on the target fiber (dZ = 0, so coefficients are closed)."""
    out = TwoForm()
    for g, c in alpha.terms.items():
        dg = rules.get(g)
        if dg is None:
            raise MissingRuleError(f"no structure equation for generator {g}")
        out = out + dg.scale(c)
    return reduce_two(out, rel)


def d_apply_two(omega: TwoForm, rules: Mapping[McGenerator, TwoForm], rel) -> ThreeForm:
    """Graded Leibniz rule: d(f g^h) = f (dg^h - g^dh) on the target fiber."""
    out = ThreeForm()
    for (g, h), c in omega.terms.items():
        dg = rules.get(g)
        dh = rules.get(h)
        if dg is None or dh is None:
            missing = g if dg is None else h
            raise MissingRuleError(f"no structure equation for generator {missing}")
        out = out + wedge_two_one(dg, OneForm.generator(h)).scale(c)
        out = out - wedge_one_two(OneForm.generator(g), dh).scale(c)
    return reduce_three(out, rel)
