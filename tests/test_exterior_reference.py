"""reduce_three and d_apply_two against references built from first principles.

Forms are compared through their antisymmetric coefficient tensors: a monomial
c * g1 ^ g2 ^ g3 puts sign(s) * c at every reordering s(g1, g2, g3).  The
references substitute the relations by hand, expand the graded Leibniz rule by
hand, and antisymmetrize over ``itertools.permutations``, in plain sympy
arithmetic; they share no sorting or sign bookkeeping with ``mcforge.exterior``.
"""

import itertools

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from mcforge.exterior import (
    McGenerator,
    MissingRuleError,
    OneForm,
    ThreeForm,
    TwoForm,
    d_apply_two,
    reduce_three,
)
from mcforge.kernel import SymbolTable, as_expr
from mcforge.multiindex import MultiIndex

TABLE = SymbolTable()
TABLE.declare("X")
X = TABLE.expr("X")

POOL = sorted(McGenerator(comp, MultiIndex(entries))
              for comp in (0, 1) for entries in ((), (0,), (1,)))
PAIRS = list(itertools.combinations(POOL, 2))
TRIPLES = list(itertools.combinations(POOL, 3))


def coeffs():
    # a nonzero integer, times X half of the time
    return st.builds(lambda k, var: X * k if var else k,
                     st.sampled_from([-2, -1, 1, 3]), st.booleans())


@st.composite
def relations(draw):
    """A non-empty solved relation set; the first right-hand side involves X."""
    dependent = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=3, unique=True))
    free = [g for g in POOL if g not in dependent]
    rel = {}
    for i, d in enumerate(dependent):
        terms = draw(st.dictionaries(st.sampled_from(free), coeffs(), max_size=2))
        if i == 0:
            terms[free[0]] = X + 1
        rel[d] = OneForm(terms)
    return rel


def two_forms(max_size):
    return st.dictionaries(st.sampled_from(PAIRS), coeffs(), max_size=max_size).map(TwoForm)


def three_forms():
    return st.dictionaries(st.sampled_from(TRIPLES), coeffs(), max_size=3).map(ThreeForm)


def parity(perm) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


def tensor(monomials) -> dict:
    """Antisymmetric tensor of sum c * g1 ^ ... ^ gk, from (generators, sympy coeff) pairs."""
    out: dict = {}
    for gens, c in monomials:
        for perm in itertools.permutations(range(len(gens))):
            key = tuple(gens[i] for i in perm)
            out[key] = out.get(key, 0) + parity(perm) * c
    return out


def assert_same_tensor(got: dict, want: dict):
    for key in set(got) | set(want):
        assert sp.cancel(got.get(key, 0) - want.get(key, 0)) == 0, key


def form_tensor(form) -> dict:
    return tensor((key, as_expr(c)) for key, c in form.terms.items())


def substituted(monomials, rel):
    """Replace each dependent generator by its right-hand side and expand."""
    for gens, c in monomials:
        choices = [[(h, as_expr(ch)) for h, ch in rel[g].terms.items()] if g in rel
                   else [(g, sp.Integer(1))] for g in gens]
        for pick in itertools.product(*choices):
            yield tuple(h for h, _ in pick), sp.Mul(c, *(ch for _, ch in pick))


@settings(max_examples=40, deadline=None)
@given(three_forms(), relations())
def test_reduce_three_matches_substitution_reference(omega, rel):
    want = tensor(substituted(((k, as_expr(c)) for k, c in omega.terms.items()), rel))
    assert_same_tensor(form_tensor(reduce_three(omega, rel)), want)


@settings(max_examples=30, deadline=None)
@given(two_forms(3), st.fixed_dictionaries({g: two_forms(2) for g in POOL}), relations())
def test_d_apply_two_matches_leibniz_reference(omega, rules, rel):
    # d(c g ^ h) = c dg ^ h - c g ^ dh, then substitute the relations
    leibniz = []
    for (g, h), c in omega.terms.items():
        leibniz += [((k, l, h), as_expr(c) * as_expr(ck))
                    for (k, l), ck in rules[g].terms.items()]
        leibniz += [((g, k, l), -as_expr(c) * as_expr(ck))
                    for (k, l), ck in rules[h].terms.items()]
    want = tensor(substituted(leibniz, rel))
    assert_same_tensor(form_tensor(d_apply_two(omega, rules, rel)), want)


def test_d_apply_two_missing_rule():
    g, h = POOL[0], POOL[1]
    omega = TwoForm({(g, h): 1})
    with pytest.raises(MissingRuleError):
        d_apply_two(omega, {g: TwoForm()}, {})
