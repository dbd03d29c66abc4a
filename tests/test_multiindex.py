import itertools
import math

from hypothesis import given, strategies as st

from mcforge.multiindex import (
    EMPTY,
    MultiIndex,
    all_indices,
    delete_one,
    multinomial,
    render_index,
    sub_multisets,
)

from helpers import factorial_weight

indices = st.lists(st.integers(min_value=0, max_value=2),
                   max_size=5).map(lambda entries: MultiIndex(tuple(entries)))


def test_entries_are_sorted_multiset():
    assert MultiIndex((2, 0, 1, 0)).entries == (0, 0, 1, 2)
    assert MultiIndex((1, 2)) == MultiIndex((2, 1))


def test_factorial_weight():
    assert factorial_weight(EMPTY) == 1
    assert factorial_weight(MultiIndex((0, 0, 0))) == 6
    assert factorial_weight(MultiIndex((0, 0, 1))) == 2
    assert factorial_weight(MultiIndex((0, 1, 2))) == 1


def test_multinomial_examples():
    xx, x = MultiIndex((0, 0)), MultiIndex((0,))
    assert multinomial(xx, x) == 2
    assert multinomial(xx, EMPTY) == 1
    assert multinomial(xx, xx) == 1
    assert multinomial(MultiIndex((0, 1)), MultiIndex((1,))) == 1
    assert multinomial(MultiIndex((0, 0, 1)), MultiIndex((0, 1))) == 2
    # not a sub-multiset
    assert multinomial(x, MultiIndex((1,))) == 0
    assert multinomial(xx, MultiIndex((0, 0, 0))) == 0


def brute_force_splits(C):
    """Distinct (A, B) splits by enumerating subsets of entry positions."""
    seen = set()
    out = []
    for r in range(C.order + 1):
        for pos in itertools.combinations(range(C.order), r):
            A = MultiIndex(tuple(C.entries[i] for i in pos))
            rest = MultiIndex(tuple(C.entries[i] for i in range(C.order)
                                    if i not in pos))
            if A.entries not in seen:
                seen.add(A.entries)
                out.append((A, rest))
    return sorted(out, key=lambda ab: ab[0].sort_key())


def position_multiplicity(C, A):
    """How many position subsets of C realize the sub-multiset A."""
    count = 0
    for pos in itertools.combinations(range(C.order), A.order):
        if MultiIndex(tuple(C.entries[i] for i in pos)) == A:
            count += 1
    return count


@given(indices)
def test_sub_multisets_against_position_enumeration(C):
    assert sub_multisets(C) == brute_force_splits(C)


@given(indices)
def test_multinomial_counts_position_subsets(C):
    for A, _ in sub_multisets(C):
        assert multinomial(C, A) == position_multiplicity(C, A)


@given(indices)
def test_split_multiplicities_sum_to_power_of_two(C):
    assert sum(multinomial(C, A) for A, _ in sub_multisets(C)) == 2 ** C.order


@given(indices)
def test_split_recombines(C):
    for A, B in sub_multisets(C):
        assert A.union(B) == C
        assert multinomial(C, A) == multinomial(C, B)


def test_delete_one():
    B = MultiIndex((0, 0, 1))
    assert delete_one(B, 0) == MultiIndex((0, 1))
    assert delete_one(B, 1) == MultiIndex((0, 0))
    assert delete_one(B, 2) is None
    assert delete_one(EMPTY, 0) is None


def test_all_indices_count():
    # multisets of size <= n from m letters: sum_k C(m+k-1, k)
    for m, n in [(1, 5), (2, 4), (3, 3)]:
        expected = sum(math.comb(m + k - 1, k) for k in range(n + 1))
        got = all_indices(m, n)
        assert len(got) == expected
        assert len(set(got)) == expected
        assert got == sorted(got, key=MultiIndex.sort_key)


def test_render_index():
    assert render_index(MultiIndex((0, 2, 1)), ["x", "y", "z"]) == "xyz"
    assert render_index(EMPTY, ["x"]) == ""


def test_graded_lex_ordering():
    assert MultiIndex((1,)) < MultiIndex((0, 0))
    assert MultiIndex((0, 1)) < MultiIndex((1, 1))
