import itertools

import pytest
from hypothesis import given, strategies as st

from mcforge.exterior import (
    McGenerator,
    MissingRuleError,
    NotSolvedFormError,
    OneForm,
    ThreeForm,
    TwoForm,
    _sort_with_sign,
    d_apply,
    reduce_one,
    reduce_two,
    wedge,
    wedge_two_one,
)
from mcforge.kernel import SymbolTable
from mcforge.multiindex import MultiIndex

from helpers import reduce_form, wedge_one_two


def g(comp, *entries):
    return McGenerator(comp, MultiIndex(entries))


def one(*pairs):
    return OneForm({gen: c for gen, c in pairs})


def test_generator_ordering_by_order_then_component():
    assert g(1) < g(0, 0)          # order beats component
    assert g(0, 0) < g(1, 0)       # component breaks ties
    assert g(0, 0) < g(0, 1)       # entries break final ties


generators = st.builds(lambda comp, entries: g(comp, *entries),
                       st.integers(0, 2), st.lists(st.integers(0, 2), max_size=3))


@given(generators, generators, st.lists(generators, min_size=1, max_size=6))
def test_generator_is_its_pair_and_orders_by_sort_key(a, b, many):
    pair = (a.component, a.index)
    assert a == pair and pair == a
    assert hash(a) == hash(pair)
    assert {pair: 1}[a] == 1
    ka, kb = a.sort_key(), b.sort_key()
    assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)
    assert (a == b) == (ka == kb)
    keys = sorted(map(McGenerator.sort_key, many))
    assert [h.sort_key() for h in sorted(many)] == keys
    assert min(many).sort_key() == keys[0]
    assert max(many).sort_key() == keys[-1]


def test_wedge_antisymmetric():
    a = one((g(0), 2), (g(1), 3))
    b = one((g(0, 0), 1), (g(1), -1))
    assert wedge(a, b) == -(wedge(b, a))
    assert wedge(a, a).is_zero


def test_wedge_bilinear():
    a = one((g(0), 1))
    b = one((g(1), 2))
    c = one((g(0, 0), 3))
    assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)
    assert wedge(a.scale(5), b) == wedge(a, b).scale(5)


def test_wedge_normalizes_pair_order():
    # mu_X ^ mu stored as -(mu ^ mu_X)
    w = wedge(one((g(0, 0), 1)), one((g(0), 1)))
    assert w.terms == {(g(0), g(0, 0)): -1}


def test_triple_wedge_associative_signs():
    a, b, c = one((g(0), 1)), one((g(1), 1)), one((g(0, 0), 1))
    assert wedge_two_one(wedge(a, b), c) == wedge_one_two(a, wedge(b, c))
    # full antisymmetry of the triple
    assert wedge_two_one(wedge(b, a), c) == -(wedge_two_one(wedge(a, b), c))
    assert wedge_two_one(wedge(a, b), a).is_zero


def test_form_addition_cancels():
    a = one((g(0), 1))
    assert (a - a).is_zero
    two = wedge(a, one((g(1), 1)))
    assert (two + (-two)).is_zero


def test_reduce_one_substitutes():
    rel = {g(0, 0): one((g(0), 2), (g(1), -1))}
    alpha = one((g(0, 0), 3), (g(1), 1))
    assert reduce_one(alpha, rel) == one((g(0), 6), (g(1), -2))


def test_reduce_idempotent_and_linear():
    rel = {g(1, 0): one((g(0), 1)), g(1, 1): OneForm()}
    alpha = one((g(1, 0), 2), (g(1, 1), 5), (g(1), 1))
    beta = one((g(1, 0), -2), (g(0), 7))
    ra = reduce_one(alpha, rel)
    assert reduce_one(ra, rel) == ra
    assert reduce_one(alpha + beta, rel) == ra + reduce_one(beta, rel)

    w = wedge(alpha, beta)
    rw = reduce_two(w, rel)
    assert reduce_two(rw, rel) == rw
    assert rw == wedge(ra, reduce_one(beta, rel))


def test_reduce_form_dispatch():
    rel = {g(1): one((g(0), 1))}
    alpha = one((g(1), 1))
    assert reduce_form(alpha, rel) == one((g(0), 1))
    assert reduce_form(wedge(alpha, one((g(0, 0), 1))), rel) == wedge(
        one((g(0), 1)), one((g(0, 0), 1)))
    assert isinstance(reduce_form(ThreeForm(), rel), ThreeForm)
    with pytest.raises(TypeError):
        reduce_form(1, rel)


def test_reduce_rejects_non_triangular():
    rel = {g(0): one((g(1), 1)), g(1): one((g(0), 1))}
    with pytest.raises(NotSolvedFormError):
        reduce_one(one((g(0), 1)), rel)


def test_d_apply_uses_rules_then_reduces():
    rules = {g(0): wedge(one((g(0), 1)), one((g(0, 0), 1)))}
    rel = {}
    out = d_apply(one((g(0), 3)), rules, rel)
    assert out == wedge(one((g(0), 3)), one((g(0, 0), 1)))


def test_d_apply_missing_rule():
    with pytest.raises(MissingRuleError):
        d_apply(one((g(0), 1)), {}, {})


def test_reduce_two_with_variable_coefficients():
    table = SymbolTable()
    table.declare("X")
    X = table.expr("X")
    rel = {g(2, 2): OneForm({g(1, 1): X})}
    w = TwoForm({(g(1, 1), g(2, 2)): 1})
    # mu^y_Y ^ (X mu^y_Y) = 0
    assert reduce_two(w, rel).is_zero


GENS = [g(0), g(1), g(0, 0), g(0, 1), g(1, 0), g(1, 1)]


@given(st.lists(st.sampled_from(GENS), min_size=1, max_size=4))
def test_sort_with_sign_is_permutation_parity(gens):
    result = _sort_with_sign(tuple(gens))
    if len(set(gens)) < len(gens):
        assert result is None
    else:
        inversions = sum(b < a for a, b in itertools.combinations(gens, 2))
        assert result == (tuple(sorted(gens)), (-1) ** inversions)


def test_sort_with_sign_custom_key():
    order = ["y", "x", "z"].index
    assert _sort_with_sign(("x", "y", "z"), key=order) == (("y", "x", "z"), -1)
    assert _sort_with_sign(("x", "z", "y"), key=order) == (("y", "x", "z"), 1)
    assert _sort_with_sign(("x", "z", "x"), key=order) is None
