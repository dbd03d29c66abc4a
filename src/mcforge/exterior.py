"""Formal exterior algebra in degree <= 3 over exact coefficients (see ``kernel``).

Generators are the Maurer-Cartan symbols mu^a_A.  Wedge monomials are stored
on strictly ordered generator tuples; the evaluation convention is
(alpha ^ beta)(v, w) = alpha(v) beta(w) - alpha(w) beta(v).

A product of general forms is sorted with its sign by ``_wedge_into``.  Two
hot paths avoid it.  ``d_apply_two`` works on ``_RankedRules``: every
generator of a rule set is numbered once in ``sort_key`` order, so d of a
two-form places one integer rank into an already sorted rank pair.
Reduction passes a monomial that is strictly increasing and has no dependent
generator through as it is, since substituting nothing changes nothing.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple

from .kernel import McforgeError, accumulate, graded_add, graded_neg
from .multiindex import MultiIndex, ordered_by_sort_key


class NotSolvedFormError(McforgeError):
    """Relation set handed to reduce() is not triangular/solved."""


class MissingRuleError(McforgeError):
    """No structure equation available for a generator during d application."""

    def __init__(self, generator):
        self.generator = generator
        super().__init__(f"no structure equation for generator {generator}")


@ordered_by_sort_key
class McGenerator(NamedTuple):
    """The key (component a, multi-index A).

    It names the Maurer-Cartan generator mu^a_A and, in a determining system,
    the source jet zeta^a_A that lifts to it.  As a tuple it equals, and
    hashes like, its plain ``(component, index)`` pair; it orders by
    ``sort_key``.
    """

    component: int
    index: MultiIndex

    def sort_key(self) -> tuple:
        i = self.index
        return (len(i), self.component, tuple(i))

    def __repr__(self):
        return f"mu[{self.component}]{self.index.entries}"


class _FormBase:
    """A finitely supported linear combination of wedge monomials.

    ``terms`` maps a key (a bare generator for a one-form, a sorted generator
    tuple above degree one) to its nonzero coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return type(self)(graded_add(self.terms, other.terms))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return type(self)(graded_neg(self.terms))

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
    """Finitely supported linear combination of generators."""


class TwoForm(_FormBase):
    """Degree-2 element; keys are strictly increasing generator pairs."""


class ThreeForm(_FormBase):
    """Degree-3 element; keys are strictly increasing generator triples."""


def _sort_with_sign(gens: tuple, key=McGenerator.sort_key):
    """Sort ``gens`` by ``key``: (sorted tuple, sign of the permutation), or None on a repeat."""
    gens, ranks = list(gens), [key(g) for g in gens]
    sign = 1
    for i in range(1, len(gens)):
        j = i  # insertion sort, one sign flip per transposition
        while j and ranks[j] < ranks[j - 1]:
            ranks[j - 1], ranks[j] = ranks[j], ranks[j - 1]
            gens[j - 1], gens[j] = gens[j], gens[j - 1]
            sign, j = -sign, j - 1
        if j and ranks[j] == ranks[j - 1]:
            return None
    return tuple(gens), sign


def _gens(key) -> tuple:
    # a one-form's key is a bare generator
    return key if type(key) is tuple else (key,)


def _wedge_into(out: dict, c, *factors, key=McGenerator.sort_key) -> None:
    """out += c * (factors[0] ^ factors[1] ^ ...) in place.

    A factor is a form or a bare generator, which stands for itself with
    coefficient 1; ``c`` is a scalar or None for 1.  ``out`` is keyed like the
    product's terms: a bare generator in degree one, else a tuple sorted by
    ``key``.
    """
    expanded = [f.terms.items() if isinstance(f, _FormBase) else ((f, None),)
                for f in factors]
    for items in itertools.product(*expanded):
        ordered = _sort_with_sign(sum((_gens(k) for k, _ in items), ()), key)
        if ordered is None:
            continue
        gens, sign = ordered
        coeff = c
        for _, v in items:
            if v is not None:
                coeff = v if coeff is None else coeff * v
        accumulate(out, gens if len(gens) > 1 else gens[0], coeff if sign > 0 else -coeff)


def wedge(alpha: OneForm, beta: OneForm) -> TwoForm:
    """Bilinear antisymmetric product of two one-forms."""
    out: dict = {}
    _wedge_into(out, None, alpha, beta)
    return TwoForm(out)


def wedge_two_one(omega: TwoForm, alpha: OneForm) -> ThreeForm:
    out: dict = {}
    _wedge_into(out, None, omega, alpha)
    return ThreeForm(out)


def _solved_map(rel) -> Mapping[McGenerator, OneForm]:
    """The relations' dependent generator -> OneForm map, checked to be solved."""
    solved = getattr(rel, "solved", rel)
    if not isinstance(solved, Mapping):
        raise NotSolvedFormError("relations must provide a generator -> OneForm mapping")
    for g, rhs in solved.items():
        for h in rhs.terms:
            if h in solved:
                raise NotSolvedFormError(
                    f"dependent generator {h} appears on the right-hand side of {g}"
                )
    return solved


def _increasing(gens: tuple) -> bool:
    keys = [g.sort_key() for g in gens]
    return all(map(tuple.__lt__, keys, keys[1:]))


def _reduce(form, rel):
    # a canonical monomial free of dependent generators is already reduced;
    # any other has its dependent generators substituted and is re-wedged
    solved = _solved_map(rel)
    dependent = solved.keys()
    out: dict = {}
    for k, c in form.terms.items():
        gens = _gens(k)
        if _increasing(gens) and (not solved or dependent.isdisjoint(gens)):
            accumulate(out, k, c)
        else:
            _wedge_into(out, c, *(solved.get(g, g) for g in gens))
    return type(form)(out)


def reduce_one(alpha: OneForm, rel) -> OneForm:
    return _reduce(alpha, rel)


def reduce_two(omega: TwoForm, rel) -> TwoForm:
    return _reduce(omega, rel)


def reduce_three(omega: ThreeForm, rel) -> ThreeForm:
    return _reduce(omega, rel)


def _rule(rules: Mapping, g: McGenerator):
    dg = rules.get(g)
    if dg is None:
        raise MissingRuleError(g)
    return dg


def d_apply(alpha: OneForm, rules: Mapping[McGenerator, TwoForm], rel) -> TwoForm:
    """d of a one-form on the target fiber (dZ = 0, so coefficients are closed)."""
    out: dict = {}
    for g, c in alpha.terms.items():
        _wedge_into(out, c, _rule(rules, g))
    return reduce_two(TwoForm(out), rel)


class _RankedRules:
    """A rule set d g = sum c p ^ q with every generator replaced by its rank.

    The ranks number all generators of the rules in ``sort_key`` order, so
    two ranks compare as their generators do.  Each rule is stored once as
    (p, q, c) triples with p < q: an unsorted monomial is sorted with its
    sign, and one with a repeated generator is dropped.  ``rules`` maps each
    generator with a rule to (rank, triples).
    """

    __slots__ = ("gens", "rules")

    def __init__(self, rules: Mapping[McGenerator, TwoForm]):
        gens = set(rules)
        for form in rules.values():
            for key in form.terms:
                gens.update(key)
        self.gens = sorted(gens, key=McGenerator.sort_key)
        rank = {g: i for i, g in enumerate(self.gens)}
        self.rules = {}
        for g, form in rules.items():
            canonical: dict = {}
            for (a, b), c in form.terms.items():
                p, q = rank[a], rank[b]
                if p < q:
                    accumulate(canonical, (p, q), c)
                elif q < p:
                    accumulate(canonical, (q, p), -c)
            self.rules[g] = (rank[g], [(p, q, c) for (p, q), c in canonical.items()])


def d_apply_two(omega: TwoForm, rules: Mapping[McGenerator, TwoForm] | _RankedRules,
                rel) -> ThreeForm:
    """Graded Leibniz rule: d(f g^h) = f (dg^h - g^dh) on the target fiber.

    ``rules`` gives d of each generator, as a mapping or already ranked; a
    mapping is ranked here.  Each product of a rule's sorted rank pair with
    one rank is sorted by at most two integer comparisons, and the sum is
    mapped back to generator keys before the relations reduce it.
    """
    ranked = rules if isinstance(rules, _RankedRules) else _RankedRules(rules)
    out: dict = {}
    for (a, b), c in omega.terms.items():
        g, dg = _rule(ranked.rules, a)  # g and h are ranks
        h, dh = _rule(ranked.rules, b)
        neg = -c
        for p, q, v in dg:  # c p^q^h: h moves left past q, then past p
            if q < h:
                accumulate(out, (p, q, h), c * v)
            elif p < h < q:
                accumulate(out, (p, h, q), neg * v)
            elif h < p:
                accumulate(out, (h, p, q), c * v)
        for p, q, v in dh:  # -c g^p^q: g moves right past p, then past q
            if g < p:
                accumulate(out, (g, p, q), neg * v)
            elif p < g < q:
                accumulate(out, (p, g, q), c * v)
            elif q < g:
                accumulate(out, (p, q, g), neg * v)
    gens = ranked.gens
    return reduce_three(ThreeForm({(gens[i], gens[j], gens[k]): v
                                   for (i, j, k), v in out.items()}), rel)
