"""Multiset multi-indices: splits, multinomials, deletions.

A multi-index is an unordered multiset of coordinate positions (0-based),
matching the symmetry of mixed partial derivatives; (y,z) and (z,y) are the
same index.  ``MultiIndex`` is the tuple of its sorted entries, so hashing and
equality are the tuple's own: ``MultiIndex((1, 0))`` equals, and hashes like,
the plain tuple ``(0, 1)``, just as a ``McGenerator`` equals its
``(component, index)`` pair.  It orders by ``sort_key`` (graded
lexicographic), not as a tuple does.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from typing import Iterable, Optional


def ordered_by_sort_key(cls):
    """Class decorator: ``<``, ``<=``, ``>`` and ``>=`` compare ``sort_key()``s
    where a tuple's own orderings would be lexicographic."""
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        op = getattr(operator, name)
        setattr(cls, name, lambda self, other, op=op: op(self.sort_key(), other.sort_key()))
    return cls


@ordered_by_sort_key
class MultiIndex(tuple):
    __slots__ = ()

    def __new__(cls, entries: Iterable[int] = ()):
        return tuple.__new__(cls, sorted(entries))

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(self)

    order = property(len)

    def counts(self) -> dict[int, int]:
        return dict(Counter(self))

    def union(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(self + other)

    def append(self, a: int) -> "MultiIndex":
        return MultiIndex(self + (a,))

    def minus(self, other: "MultiIndex") -> "MultiIndex":
        rest = list(self)
        for e in other:
            if e not in rest:
                raise ValueError(f"{other} is not a sub-multiset of {self}")
            rest.remove(e)
        return MultiIndex(rest)

    def sort_key(self) -> tuple:
        # graded lexicographic in the declared coordinate order
        return (len(self), tuple(self))

    def __repr__(self):
        return f"MultiIndex{tuple(self)}"


def multinomial(C: MultiIndex, A: MultiIndex) -> int:
    """(C choose A) = C!/(A! B!) with B = C minus A; 0 if A is not inside C.

    Coordinate by coordinate this is a product of binomials.
    """
    out = 1
    for e in set(A):
        out *= math.comb(C.count(e), A.count(e))  # 0 when A holds more e than C
    return out


def splits(C: MultiIndex) -> list[tuple[MultiIndex, MultiIndex, int]]:
    """All splits C = (A, B) with A a distinct sub-multiset, graded-lex in A, and
    the ``int`` weight (C choose A): the product, over the entries e, of (k choose
    j) when A takes j of the k occurrences of e in C."""
    counts = list(C.counts().items())
    out = []
    for pick in itertools.product(*[range(k + 1) for _, k in counts]):
        A, B, weight = [], [], 1
        for (e, k), j in zip(counts, pick):
            A += [e] * j
            B += [e] * (k - j)
            weight *= math.comb(k, j)
        out.append((MultiIndex(A), MultiIndex(B), weight))
    out.sort(key=lambda split: split[0].sort_key())
    return out


def delete_one(B: MultiIndex, a: int) -> Optional[MultiIndex]:
    """Remove one occurrence of a from B; None when a does not occur."""
    if a not in B:
        return None
    entries = list(B)
    entries.remove(a)
    return MultiIndex(entries)


def all_indices(m: int, max_order: int) -> list[MultiIndex]:
    """Every multi-index over m coordinates of order <= max_order, graded-lex."""
    return [MultiIndex(combo) for k in range(max_order + 1)
            for combo in itertools.combinations_with_replacement(range(m), k)]


def render_index(A: MultiIndex, names: Iterable[str]) -> str:
    names = list(names)
    return "".join(names[e] for e in A)
