"""Partitions of m and centralizer orders in S_m.

A partition labels both an irreducible character of S_m and a conjugacy
class, the class of permutations whose cycle lengths are its parts.  The
canonical ordering used throughout the package is reverse-lexicographic on
partitions: (m) comes first, (1, ..., 1) last.  Class functions in other
modules index conjugacy classes in exactly this order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(not isinstance(p, int) or p <= 0 for p in self.parts):
            raise ValueError(f"parts must be positive integers: {self.parts}")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {self.parts}")

    @property
    def m(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        """Number of parts (rows of the Young diagram)."""
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


@lru_cache(maxsize=None)
def _partition_tuples(m: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if m == 0:
        return ((),)
    out = []
    for first in range(min(m, max_part), 0, -1):
        for rest in _partition_tuples(m - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(m: int) -> list[Partition]:
    """All partitions of m in reverse-lexicographic order, (m) first.  No
    work bound: the p(m) partitions follow the caller's m.  The CLI reaches
    it only behind CHARACTER_DEGREE_BOUND (`char-table`, `dims --local-dims`)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return [Partition(t) for t in _partition_tuples(m, m)]


def centralizer_order(lam: Partition) -> int:
    """z(lam) = prod_i i^{a_i} a_i!, a_i the multiplicity of i in lam: the
    order of the centralizer in S_m of a permutation with cycle lengths lam.

    Equals m! divided by the size of that conjugacy class.
    """
    z = 1
    for i in set(lam.parts):
        count = lam.parts.count(i)
        z *= i**count * math.factorial(count)
    return z
