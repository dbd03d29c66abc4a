"""d over ranked structure rules, against the generic wedge formulation.

``helpers.d_apply_two_by_wedge`` sorts every product with ``_wedge_into`` and
reduces every monomial; ``exterior.d_apply_two`` places integer ranks and
passes already reduced monomials through.  The two must agree key for key,
with the same numerator and denominator in every coefficient.
"""

from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from mcforge import detsys, exterior
from mcforge.exterior import (
    McGenerator,
    MissingRuleError,
    OneForm,
    ThreeForm,
    TwoForm,
    _RankedRules,
    d_apply_two,
    reduce_three,
    reduce_two,
)
from mcforge.kernel import SymbolTable, is_constant
from mcforge.multiindex import MultiIndex
from mcforge.structure import check_d_squared, pseudo_group_structure

from conftest import bundled
from helpers import d_apply_two_by_wedge

TABLE = SymbolTable()
TABLE.declare("X")
TABLE.declare("Y")
X, Y = TABLE.expr("X"), TABLE.expr("Y")


def g(comp, *entries):
    return McGenerator(comp, MultiIndex(entries))


POOL = [g(0), g(1), g(0, 0), g(0, 1), g(1, 0), g(1, 1), g(0, 0, 0)]


def assert_same_terms(got, want):
    assert got.terms.keys() == want.terms.keys()
    for key, b in want.terms.items():
        a = got.terms[key]
        # a ScalarExpr equals only the same canonical numerator and denominator
        assert is_constant(a) == is_constant(b), key
        assert a == b, key


def coeffs():
    # a nonzero rational constant, or a rational function of X and Y
    constant = st.builds(lambda p, q: Fraction(p, q),
                         st.sampled_from([-3, -1, 1, 2]), st.sampled_from([1, 2, 3]))
    function = st.builds(lambda k, shift: X * k / (Y + shift),
                         st.sampled_from([-2, 1, 3]), st.sampled_from([1, 2]))
    return st.one_of(constant, function, st.just(X + 1))


# keys in any order, a repeated generator included
PAIR_KEYS = st.tuples(st.sampled_from(POOL), st.sampled_from(POOL))


def two_forms(max_size):
    return st.dictionaries(PAIR_KEYS, coeffs(), max_size=max_size).map(TwoForm)


@st.composite
def rule_sets(draw):
    """d g for every generator of the pool, now and then one rule missing."""
    rules = {h: draw(two_forms(3)) for h in POOL}
    for h in draw(st.sets(st.sampled_from(POOL), max_size=1)):
        del rules[h]
    return rules


@st.composite
def relations(draw):
    """A solved relation set, possibly empty."""
    dependent = draw(st.lists(st.sampled_from(POOL), max_size=3, unique=True))
    free = [h for h in POOL if h not in dependent]
    return {d: OneForm(draw(st.dictionaries(st.sampled_from(free), coeffs(), max_size=2)))
            for d in dependent}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(two_forms(4), rule_sets(), relations())
def test_d_apply_two_matches_the_wedge_oracle(omega, rules, rel):
    # the rules as a dict, as another Mapping, and ranked beforehand
    ways = [rules, MappingProxyType(rules), _RankedRules(rules)]
    try:
        want = d_apply_two_by_wedge(omega, rules, rel)
    except MissingRuleError:
        for way in ways:
            with pytest.raises(MissingRuleError):
                d_apply_two(omega, way, rel)
        return
    for way in ways:
        assert_same_terms(d_apply_two(omega, way, rel), want)


def _system(name):
    if name.startswith("diffeo"):
        return detsys.DeterminingSystem.empty(["x", "y", "z"][:int(name[-1])])
    return detsys.parse_system(bundled(name))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name", ["diffeo1", "diffeo2", "diffeo3", "cartan_essential.dsys",
                                  "intransitive_translation.dsys", "janet.dsys"])
def test_check_d_squared_residues_match_the_wedge_oracle(name, order):
    system = _system(name)
    eqs = pseudo_group_structure(system, order)
    closed = pseudo_group_structure(system, order + 1)
    residues = check_d_squared(eqs).residues
    assert list(residues) == eqs.basis
    for h in eqs.basis:
        assert_same_terms(residues[h], d_apply_two_by_wedge(
            eqs.equations[h], closed.equations, closed.relations))


def test_janet_residues_are_compared_where_they_are_nonzero():
    # the comparison above covers nonzero residues: Janet's system is not a
    # pseudo-group, and d^2 fails on it at order 2
    eqs = pseudo_group_structure(_system("janet.dsys"), 2)
    assert check_d_squared(eqs).failures()


def test_structure_and_d2_of_diffeo_sort_no_monomial(monkeypatch):
    # raw pairs are ordered by one comparison, d^2 places integer ranks, and
    # reduction passes canonical monomials through: nothing is re-sorted
    calls = []
    sort = exterior._sort_with_sign
    monkeypatch.setattr(exterior, "_sort_with_sign",
                        lambda *args, **kwargs: calls.append(args) or sort(*args, **kwargs))
    for dim, order in [(2, 4), (3, 2)]:
        eqs = pseudo_group_structure(_system(f"diffeo{dim}"), order)
        assert check_d_squared(eqs).ok
    assert len(calls) == 0


def test_reduction_still_sorts_a_hand_built_key():
    a, b, c = g(0), g(1, 1), g(0, 0, 0)
    got = reduce_two(TwoForm({(b, a): 3}), {})
    assert list(got.terms) == [(a, b)]
    assert got.terms[(a, b)] == -3
    assert reduce_two(TwoForm({(a, a): 1}), {}).is_zero
    assert reduce_two(TwoForm({(a, b): 3, (b, a): 3}), {}).is_zero
    got = reduce_three(ThreeForm({(c, a, b): X}), {})
    assert list(got.terms) == [(a, b, c)]
    assert got.terms[(a, b, c)] == X
    # a sorted key with a dependent generator is substituted
    got = reduce_two(TwoForm({(a, c): 2}), {a: OneForm({b: X})})
    assert list(got.terms) == [(b, c)]
    assert got.terms[(b, c)] == X * 2
