"""Brute-force orbit enumeration, the census oracle.

One walk over permutation tuples finds a representative of every orbit of
S_degree acting on them by simultaneous conjugation.  The orbit counts
here and the columns of the numerical rank oracle both come from it.  It
deliberately avoids the centralizer-order formula and Burnside counting, so
that its results are independent of the identities they are used to verify.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import EnumerationBoundError

# Largest number of raw tuples we are willing to walk through.  Covers the
# documented practical bounds (degree 5 for two generators, degree 4 for
# three) with room to spare.
MAX_TUPLES = 500_000

Perm = tuple[int, ...]


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


def _conjugate(p: Perm, s: Perm) -> Perm:
    """s p s^-1, which sends s(x) to s(p(x))."""
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[s[x]] = s[y]
    return tuple(out)


def check_tuple_bound(degree: int, length: int, limit: int) -> None:
    """Refuse when the degree!^max(length, 1) raw tuples exceed limit.

    At length 0 the count is the degree! permutations, since the walk lists
    them all with their move tables even though there is one empty tuple.
    The count is multiplied up one factor at a time and given up once it
    passes limit**2, so the check's own cost does not grow with the input;
    below that the refusal states the exact count.
    """
    count = 1
    for _ in range(max(length, 1) if degree > 1 else 0):
        for i in range(2, degree + 1):
            count *= i
            if count > limit**2:
                _refuse(f"more than {limit**2}", degree, length, limit)
    if count > limit:
        _refuse(count, degree, length, limit)


def _refuse(count, degree: int, length: int, limit: int) -> None:
    raise EnumerationBoundError(
        f"refusing to enumerate {count} permutation tuples "
        f"(degree {degree}, tuple length {length}, limit {limit})"
    )


@lru_cache(maxsize=16)
def orbit_representatives(
    length: int, degree: int, transitive_only: bool = False
) -> tuple[tuple[Perm, ...], ...]:
    """One tuple of `length` permutations of range(degree) per orbit of
    S_degree acting by simultaneous conjugation: the lexicographic minimum
    of its orbit, in increasing order.  With transitive_only, only the
    orbits of transitive tuples (conjugation preserves transitivity).

    The walk visits the tuples in itertools.product order.  Each tuple not
    seen yet is a representative, and its orbit is filled in by conjugating
    with the transposition (0 1) and the degree-cycle, which generate
    S_degree.  Tuples are held as indices into the list of permutations,
    each generator acts on them through a table, and the tuples reached are
    marked in a bytearray of degree!^length flags.  Walks past MAX_TUPLES
    tuples are refused; callers may check a tighter bound first.
    """
    check_tuple_bound(degree, length, MAX_TUPLES)
    perms = list(itertools.permutations(range(degree)))
    position = {p: i for i, p in enumerate(perms)}
    generators = [] if degree < 2 else [(1, 0) + tuple(range(2, degree)), tuple(range(1, degree)) + (0,)]
    moves = [[position[_conjugate(p, s)] for p in perms] for s in generators]
    n = len(perms)
    # seen[c]: the tuple whose entries are the base-n digits of c has been
    # reached; product order is increasing c.
    seen = bytearray(n**length)

    def code(tup: tuple[int, ...]) -> int:
        c = 0
        for i in tup:
            c = c * n + i
        return c

    reps = []
    for c, tup in enumerate(itertools.product(range(n), repeat=length)):
        if seen[c]:
            continue
        rep = tuple(perms[i] for i in tup)
        if transitive_only and not _is_transitive(rep, degree):
            continue
        reps.append(rep)
        seen[c] = 1
        stack = [tup]
        while stack:
            current = stack.pop()
            for move in moves:
                image = tuple(map(move.__getitem__, current))
                image_code = code(image)
                if not seen[image_code]:
                    seen[image_code] = 1
                    stack.append(image)
    return tuple(reps)


def count_subgroup_classes(rank: int, index: int) -> int:
    """Number of conjugacy classes of index-`index` subgroups of the free
    group on `rank` generators, counted as transitive actions on `index`
    points up to simultaneous conjugation."""
    if rank < 1 or index < 1:
        raise ValueError("need rank >= 1 and index >= 1")
    return len(orbit_representatives(rank, index, transitive_only=True))


def conjugation_orbit_count(tuple_length: int, m: int) -> int:
    """Number of orbits of S_m acting by simultaneous conjugation on
    tuples of `tuple_length` permutations."""
    if tuple_length < 0 or m < 0:
        raise ValueError("need tuple_length >= 0 and m >= 0")
    return len(orbit_representatives(tuple_length, m))
