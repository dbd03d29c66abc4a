import itertools
import math
import operator

from hypothesis import given, settings, strategies as st

from mcforge.multiindex import (
    MultiIndex,
    all_indices,
    delete_one,
    multinomial,
    render_index,
    splits,
)

from helpers import (
    DataclassMultiIndex,
    dataclass_delete_one,
    dataclass_multinomial,
    factorial_weight,
    sub_multisets,
)

entry_lists = st.lists(st.integers(min_value=0, max_value=2), max_size=5)
indices = entry_lists.map(lambda entries: MultiIndex(tuple(entries)))
CONTRACT = settings(max_examples=200, deadline=None, derandomize=True)


def test_entries_are_sorted_multiset():
    assert MultiIndex((2, 0, 1, 0)).entries == (0, 0, 1, 2)
    assert MultiIndex((1, 2)) == MultiIndex((2, 1))


def test_factorial_weight():
    assert factorial_weight(MultiIndex()) == 1
    assert factorial_weight(MultiIndex((0, 0, 0))) == 6
    assert factorial_weight(MultiIndex((0, 0, 1))) == 2
    assert factorial_weight(MultiIndex((0, 1, 2))) == 1


def test_multinomial_examples():
    xx, x = MultiIndex((0, 0)), MultiIndex((0,))
    assert multinomial(xx, x) == 2
    assert multinomial(xx, MultiIndex()) == 1
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


@CONTRACT
@given(indices)
def test_sub_multisets_against_position_enumeration(C):
    assert sub_multisets(C) == brute_force_splits(C)
    assert [(A, B) for A, B, _ in splits(C)] == brute_force_splits(C)


@CONTRACT
@given(indices)
def test_multinomial_counts_position_subsets(C):
    for A, _, weight in splits(C):
        assert multinomial(C, A) == position_multiplicity(C, A)
        assert weight == position_multiplicity(C, A)
        assert type(weight) is int


@CONTRACT
@given(indices)
def test_split_multiplicities_sum_to_power_of_two(C):
    assert sum(multinomial(C, A) for A, _, _ in splits(C)) == 2 ** C.order
    assert sum(weight for _, _, weight in splits(C)) == 2 ** C.order


@CONTRACT
@given(indices)
def test_split_recombines(C):
    for A, B, _ in splits(C):
        assert A.union(B) == C
        assert multinomial(C, A) == multinomial(C, B)


def test_delete_one():
    B = MultiIndex((0, 0, 1))
    assert delete_one(B, 0) == MultiIndex((0, 1))
    assert delete_one(B, 1) == MultiIndex((0, 0))
    assert delete_one(B, 2) is None
    assert delete_one(MultiIndex(), 0) is None


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
    assert render_index(MultiIndex(), ["x"]) == ""


def test_graded_lex_ordering():
    assert MultiIndex((1,)) < MultiIndex((0, 0))
    assert MultiIndex((0, 1)) < MultiIndex((1, 1))


# -- the tuple form against the dataclass it replaced -------------------------

ORDERINGS = [operator.lt, operator.le, operator.gt, operator.ge]


def test_hash_is_the_tuple_hash():
    assert MultiIndex.__hash__ is tuple.__hash__
    assert MultiIndex.__eq__ is tuple.__eq__


def test_orderings_are_graded_not_lexicographic():
    x, yy = MultiIndex((1,)), MultiIndex((0, 0))
    # as plain tuples (0, 0) < (1,); graded, the shorter index comes first
    assert x < yy and x <= yy and not x > yy and not x >= yy
    assert yy > x and yy >= x and not yy < x and not yy <= x
    assert sorted([yy, x]) == [x, yy]
    assert min(yy, x) == x and max(x, yy) == yy


@CONTRACT
@given(entry_lists, entry_lists)
def test_equality_and_hash_follow_sorted_entries(u, v):
    a, b = MultiIndex(u), MultiIndex(v)
    assert (a == b) == (sorted(u) == sorted(v))
    assert (a != b) == (sorted(u) != sorted(v))
    assert (a == b) == (DataclassMultiIndex(tuple(u)) == DataclassMultiIndex(tuple(v)))
    assert hash(a) == hash(tuple(sorted(u)))
    # a MultiIndex equals its plain sorted tuple, as a McGenerator equals its pair
    assert a == tuple(sorted(u)) and {a: 1}[tuple(sorted(u))] == 1


@CONTRACT
@given(entry_lists, entry_lists)
def test_orderings_agree_with_sort_key(u, v):
    a, b = MultiIndex(u), MultiIndex(v)
    oa, ob = DataclassMultiIndex(tuple(u)), DataclassMultiIndex(tuple(v))
    for op in ORDERINGS:
        assert op(a, b) == op(a.sort_key(), b.sort_key()) == op(oa.sort_key(), ob.sort_key())
    assert a.sort_key() == oa.sort_key()
    assert type(a.sort_key()[1]) is tuple


@CONTRACT
@given(st.lists(entry_lists, min_size=1, max_size=6))
def test_sorted_min_max_agree_with_sort_key(lists):
    items = [MultiIndex(u) for u in lists]
    oracle = sorted(DataclassMultiIndex(tuple(u)) for u in lists)
    assert sorted(items) == sorted(items, key=MultiIndex.sort_key)
    assert [A.entries for A in sorted(items)] == [A.entries for A in oracle]
    assert min(items) == min(items, key=MultiIndex.sort_key) == oracle[0].entries
    assert max(items) == max(items, key=MultiIndex.sort_key) == oracle[-1].entries


@CONTRACT
@given(entry_lists)
def test_repr_entries_and_order_unchanged(u):
    a, oracle = MultiIndex(u), DataclassMultiIndex(tuple(u))
    assert repr(a) == repr(oracle)
    assert type(a.entries) is tuple and a.entries == oracle.entries
    assert a.order == oracle.order
    assert a.counts() == oracle.counts()


@CONTRACT
@given(entry_lists, entry_lists, st.integers(min_value=0, max_value=3))
def test_operations_equal_the_dataclass(u, v, e):
    a, b = MultiIndex(u), MultiIndex(v)
    oa, ob = DataclassMultiIndex(tuple(u)), DataclassMultiIndex(tuple(v))
    assert a.union(b).entries == oa.union(ob).entries
    assert type(a.union(b)) is MultiIndex
    assert a.append(e).entries == oa.append(e).entries
    assert type(a.append(e)) is MultiIndex
    assert multinomial(a, b) == dataclass_multinomial(oa, ob)
    deleted, expected = delete_one(a, e), dataclass_delete_one(oa, e)
    assert (deleted is None) == (expected is None)
    if deleted is not None:
        assert deleted.entries == expected.entries and type(deleted) is MultiIndex
    for A, B in sub_multisets(oa):
        assert a.minus(MultiIndex(A.entries)).entries == B.entries
    try:
        expected = oa.minus(ob).entries
    except ValueError:
        expected = ValueError
    try:
        got = a.minus(b).entries
    except ValueError:
        got = ValueError
    assert got == expected


@CONTRACT
@given(entry_lists)
def test_splits_equal_the_dataclass(u):
    C, oracle = MultiIndex(u), DataclassMultiIndex(tuple(u))
    assert [(A.entries, B.entries, w) for A, B, w in splits(C)] == [
        (A.entries, B.entries, dataclass_multinomial(oracle, A))
        for A, B in sub_multisets(oracle)]
