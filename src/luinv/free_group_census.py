"""Brute-force orbit counting oracles.

Everything here works by explicit enumeration of permutation tuples and
union-find over simultaneous-conjugation moves, deliberately avoiding the
centralizer-order formula and Burnside counting so that the results are
independent of the identities they are used to verify.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import EnumerationBoundError

# Largest number of raw tuples we are willing to walk through.  Covers the
# documented practical bounds (degree 5 for two generators, degree 4 for
# three) with room to spare.
MAX_TUPLES = 500_000

Perm = tuple[int, ...]


@dataclass(frozen=True)
class PermTuple:
    """A tuple of permutations of {0, ..., degree-1} in one-line notation,
    encoding a homomorphism from a free group into S_degree."""

    degree: int
    perms: tuple[Perm, ...]

    def __post_init__(self) -> None:
        for p in self.perms:
            if sorted(p) != list(range(self.degree)):
                raise ValueError(f"not a permutation of degree {self.degree}: {p}")


def is_transitive(t: PermTuple) -> bool:
    """Whether the group generated by the entries acts transitively."""
    return _is_transitive(t.perms, t.degree)


def _is_transitive(perms: tuple[Perm, ...], degree: int) -> bool:
    if degree <= 1:
        return True
    seen = [False] * degree
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        x = stack.pop()
        for p in perms:
            y = p[x]
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == degree


def _conjugate_by_transposition(p: Perm, i: int, j: int) -> Perm:
    """tau p tau for the transposition tau = (i j)."""
    out = list(p)
    out[i], out[j] = out[j], out[i]
    for x in range(len(out)):
        if out[x] == i:
            out[x] = j
        elif out[x] == j:
            out[x] = i
    return tuple(out)


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def add(self, x) -> None:
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry

    def root_count(self) -> int:
        return sum(1 for x, p in self.parent.items() if x == p)


def _check_bound(degree: int, length: int) -> None:
    """Refuse when the degree!^length raw tuples exceed MAX_TUPLES.

    The count is multiplied up one factor at a time and given up once it
    passes MAX_TUPLES**2, so the check's own cost does not grow with the
    input; below that the refusal states the exact count.
    """
    estimate = 1
    for _ in range(length if degree > 1 else 0):
        for i in range(2, degree + 1):
            estimate *= i
            if estimate > MAX_TUPLES**2:
                _refuse(f"more than {MAX_TUPLES**2}", degree, length)
    if estimate > MAX_TUPLES:
        _refuse(estimate, degree, length)


def _refuse(estimate, degree: int, length: int) -> None:
    raise EnumerationBoundError(
        f"refusing to enumerate {estimate} permutation tuples "
        f"(degree {degree}, tuple length {length}, limit {MAX_TUPLES})"
    )


def _orbit_count(degree: int, length: int, transitive_only: bool) -> int:
    _check_bound(degree, length)
    all_perms = list(itertools.permutations(range(degree)))
    uf = _UnionFind()
    members = []
    for tup in itertools.product(all_perms, repeat=length):
        if transitive_only and not _is_transitive(tup, degree):
            continue
        uf.add(tup)
        members.append(tup)
    # Adjacent transpositions generate S_degree, so these moves connect
    # exactly the simultaneous-conjugation orbits.
    for tup in members:
        for i in range(degree - 1):
            conj = tuple(_conjugate_by_transposition(p, i, i + 1) for p in tup)
            uf.union(tup, conj)
    return uf.root_count()


def count_subgroup_classes(rank: int, index: int) -> int:
    """Number of conjugacy classes of index-`index` subgroups of the free
    group on `rank` generators, counted as transitive actions on `index`
    points up to simultaneous conjugation."""
    if rank < 1 or index < 1:
        raise ValueError("need rank >= 1 and index >= 1")
    return _orbit_count(index, rank, transitive_only=True)


def conjugation_orbit_count(tuple_length: int, m: int) -> int:
    """Number of orbits of S_m acting by simultaneous conjugation on
    tuples of `tuple_length` permutations."""
    if tuple_length < 0 or m < 0:
        raise ValueError("need tuple_length >= 0 and m >= 0")
    return _orbit_count(m, tuple_length, transitive_only=False)
