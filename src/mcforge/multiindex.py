"""Multiset multi-indices: splits, multinomials, deletions.

A multi-index is an unordered multiset of coordinate positions (0-based),
matching the symmetry of mixed partial derivatives; (y,z) and (z,y) are the
same index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass(frozen=True)
class MultiIndex:
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

    def union(self, other: "MultiIndex") -> "MultiIndex":
        return MultiIndex(self.entries + other.entries)

    def append(self, a: int) -> "MultiIndex":
        return MultiIndex(self.entries + (a,))

    def minus(self, other: "MultiIndex") -> "MultiIndex":
        mine = self.counts()
        for e, c in other.counts().items():
            if mine.get(e, 0) < c:
                raise ValueError(f"{other} is not a sub-multiset of {self}")
            mine[e] -= c
        return MultiIndex(tuple(itertools.chain.from_iterable(
            (e,) * c for e, c in mine.items())))

    def sort_key(self) -> tuple:
        # graded lexicographic in the declared coordinate order
        return (len(self.entries), self.entries)

    def __lt__(self, other: "MultiIndex") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"MultiIndex{self.entries}"


EMPTY = MultiIndex()


def multinomial(C: MultiIndex, A: MultiIndex) -> int:
    """(C choose A) = C!/(A! B!) with B = C minus A; 0 if A is not inside C.

    Coordinate by coordinate this is a product of binomials.
    """
    in_C = C.counts()
    out = 1
    for e, k in A.counts().items():
        n = in_C.get(e, 0)
        if n < k:
            return 0
        out *= math.comb(n, k)
    return out


def sub_multisets(C: MultiIndex) -> list[tuple[MultiIndex, MultiIndex]]:
    """All splits C = (A, B) with A a distinct sub-multiset, graded-lex in A."""
    counts = sorted(C.counts().items())
    choices = [range(c + 1) for _, c in counts]
    splits = []
    for pick in itertools.product(*choices):
        A = MultiIndex(tuple(itertools.chain.from_iterable(
            (e,) * k for (e, _), k in zip(counts, pick))))
        splits.append((A, C.minus(A)))
    splits.sort(key=lambda ab: ab[0].sort_key())
    return splits


def delete_one(B: MultiIndex, a: int) -> Optional[MultiIndex]:
    """Remove one occurrence of a from B; None when a does not occur."""
    if a not in B.entries:
        return None
    entries = list(B.entries)
    entries.remove(a)
    return MultiIndex(tuple(entries))


def all_indices(m: int, max_order: int) -> list[MultiIndex]:
    """Every multi-index over m coordinates of order <= max_order, graded-lex."""
    out = []
    for k in range(max_order + 1):
        for combo in itertools.combinations_with_replacement(range(m), k):
            out.append(MultiIndex(combo))
    out.sort(key=MultiIndex.sort_key)
    return out


def render_index(A: MultiIndex, names: Iterable[str]) -> str:
    names = list(names)
    return "".join(names[e] for e in A.entries)
