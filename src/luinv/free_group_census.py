"""Brute-force orbit enumeration, the census oracle.

One walk over permutation tuples finds a representative of every orbit of
S_degree acting on them by simultaneous conjugation, the least tuple of
the orbit.  It goes one coordinate at a time: the conjugacy classes for
the first, then the orbits of the stabilizer of each prefix for the next,
with every stabilizer found by filtering group elements, so its work
follows the number of orbits rather than the degree!^length tuples.  The
orbit counts, the subgroup counts (its transitive orbits) and the columns
of the rank oracle mod a prime all come from it, one memoized walk per
(length, degree).  It deliberately uses no closed formula for class or
orbit counts, only group elements conjugated and compared, so that its
results are independent of the identities they are used to verify.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import factorial
from typing import Callable

from .errors import check_work

# Largest number of raw tuples degree!^max(length, 1) admitted to the walk,
# which visits far fewer, and largest length at degree <= 1.  Covers the
# documented practical bounds (degree 5 for two generators, degree 4 for
# three) with room to spare.
MAX_TUPLES = 500_000

Perm = tuple[int, ...]

# For _ranks: value v as a bit, the bits below v, a byte's popcount.
_BIT = bytes(1 << v & 255 for v in range(256))
_BELOW = bytes((1 << v) - 1 & 255 for v in range(256))
_POPCOUNT = bytes(v.bit_count() for v in range(256))
_LOW = 0 if sys.byteorder == "little" else 3


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


def check_tuple_bound(degree: int, length: int) -> None:
    """Refuse when the degree!^max(length, 1) raw tuples exceed MAX_TUPLES,
    or, at degree <= 1, where the one tuple is built, when its length does.

    At length 0 the count is still the degree! permutations, although the
    one empty tuple is found without listing them: one formula,
    degree!^max(length, 1), at every length keeps the set of refused inputs,
    and so the CLI's exit codes, stable.  A huge degree or length is
    refused in a few steps (errors.check_work).
    """
    if degree > 1:
        factors = (f for _ in range(max(length, 1)) for f in range(2, degree + 1))
        message = "refusing to enumerate {} permutation tuples "
    else:
        factors, message = (length,), "refusing to build a tuple of {} permutations "
    message += f"(degree {degree}, tuple length {length}, limit {MAX_TUPLES})"
    check_work(factors, MAX_TUPLES, message)


def _permutation_table(degree: int) -> bytes:
    """All degree! permutations of range(degree), degree >= 1, as one bytes
    object in lexicographic order, degree bytes per permutation.

    Built by recursion on the first entry: the permutations starting with
    f are f followed by the table of degree - 1 with every value v >= f
    raised by one, a translate of that table; its columns are moved into
    place by stride slice assignment.
    """
    table = bytes(1)
    for size in range(2, degree + 1):
        count = len(table) // (size - 1)
        rest = b"".join(
            table.translate(bytes(range(first)) + bytes(range(first + 1, 256)) + b"\xff")
            for first in range(size)
        )
        grown = bytearray(count * size * size)
        grown[::size] = b"".join(bytes((first,)) * count for first in range(size))
        for j in range(1, size):
            grown[j::size] = rest[j - 1 :: size - 1]
        table = bytes(grown)
    return table


def _conjugate_table(table: bytes, s: bytes) -> bytearray:
    """s p s^-1 for every permutation p of the table, in the table's order:
    the values relabelled by s, then the entry at each position x moved to
    position s(x)."""
    degree = len(s)
    relabelled = table.translate(s + bytes(range(degree, 256)))
    out = bytearray(len(table))
    for x, y in enumerate(s):
        out[y::degree] = relabelled[x::degree]
    return out


def _ranks(table: bytes | bytearray, degree: int) -> memoryview:
    """The lexicographic position of each permutation of the table, as native
    4-byte ints: digit j of its Lehmer code (later entries below entry j)
    times (degree - 1 - j)!, summed.  A column's digits are one byte per
    permutation of a big int, widened into 4-byte lanes (low byte at _LOW)
    that never carry; a byte counts the values 0..7, so degree <= 9."""
    if degree > 9:
        raise ValueError("permutation ranks need degree <= 9")
    n = len(table) // degree
    lane = bytearray(4 * n)
    later = total = 0
    for j in range(degree - 1, -1, -1):
        column = table[j::degree]
        below = int.from_bytes(column.translate(_BELOW), sys.byteorder) & later
        lane[_LOW::4] = below.to_bytes(n, sys.byteorder).translate(_POPCOUNT)
        total += int.from_bytes(lane, sys.byteorder) * factorial(degree - 1 - j)
        later |= int.from_bytes(column.translate(_BIT), sys.byteorder)
    return memoryview(total.to_bytes(4 * n, sys.byteorder)).cast("I")


def _conjugation(table: bytes, degree: int) -> Callable[[bytes], memoryview]:
    """s, as bytes, taken to the positions of s p s^-1 for p the table."""
    return lambda s: _ranks(_conjugate_table(table, s), degree)


def _move_tables(degree: int) -> tuple[bytes, list[memoryview]]:
    """The permutation table of S_degree and the ranks of its conjugates by
    each generator s of (0 1) and the degree-cycle, in the table's order."""
    table = _permutation_table(degree)
    conjugation = _conjugation(table, degree)
    transposition = bytes((1, 0)) + bytes(range(2, degree))
    cycle = bytes(range(1, degree)) + bytes(1)
    return table, [conjugation(s) for s in (transposition, cycle)]


def _class_minima(moves: list[memoryview]) -> list[int]:
    """Positions in the table of the lexicographic minimum of every
    conjugacy class, in increasing order: the smallest position not yet
    marked in a bytearray of flags starts a class, which is marked by
    pushing and popping positions through the two move tables."""
    first, second = moves
    seen = bytearray(len(first))
    minima = []
    c = seen.find(0)
    while c >= 0:
        seen[c] = 1
        stack = [c]
        push, pop = stack.append, stack.pop
        while stack:
            x = pop()
            y = first[x]
            if not seen[y]:
                seen[y] = 1
                push(y)
            y = second[x]
            if not seen[y]:
                seen[y] = 1
                push(y)
        minima.append(c)
        c = seen.find(0, c + 1)
    return minima


@lru_cache(maxsize=16)
def orbit_representatives(length: int, degree: int) -> tuple[tuple[Perm, ...], ...]:
    """One tuple of `length` permutations of range(degree) per orbit of
    S_degree acting by simultaneous conjugation: the lexicographic minimum
    of its orbit, in increasing order.

    The degree! permutations are one bytes table in lexicographic order,
    degree bytes each, and a permutation is named by its position there.
    A tuple is the minimum of its orbit exactly when its first entry is
    the minimum of its conjugacy class and each further entry is the
    minimum of its orbit under the stabilizer of the entries before it,
    the permutations that commute with all of them.  The class minima come
    from a walk over the table: the transposition (0 1) and the
    degree-cycle generate S_degree, conjugating by each is tabulated once
    (a translate and degree stride slice assignments conjugate every
    permutation at once, and their Lehmer codes, one byte per permutation
    in big ints, rank the results), and the smallest unmarked position is
    taken as a minimum and its class marked through the two tables.  The
    stabilizer of a class minimum c is found by filtering all degree!
    permutations, those h with c h c^-1 = h.  Each further coordinate is
    split under the stabilizer H of its prefix by scanning the positions
    in increasing order: an unmarked x is the minimum of its H-orbit
    {h x h^-1}, which is marked, and the stabilizer of the longer prefix
    is the h in H with h x h^-1 = x.  Distinct stabilizers are few, so
    each split is memoized by H within one call.  Prefixes are extended
    level by level, parents in order and children in increasing x, so the
    output comes out sorted.  No tuple outside an orbit minimum is
    visited, and no cycle type or counting formula is used.
    A negative length or degree raises ValueError; inputs past
    check_tuple_bound are refused after that check, and callers may check
    a tighter bound first.  Length 0 and degrees below 2
    have one orbit and are answered without listing permutations.

    Walks at (length, degree) = (2, 5), (3, 4), (4, 4) and (5, 3) take
    about 1.2, 0.7, 3.5 and 0.65 ms, against 3.7, 4.3, 170 and 4.3 ms for
    a walk that marked all degree!^length tuples through image lists of
    codes (best of seven in one process, 2-core host, Python 3.11).
    Length 1 is the class walk alone: 20 ms (tracemalloc peak 1.5 MiB) at
    (1, 8) and 0.3 s at (1, 9).  Subgroup and orbit counts at one (length,
    degree) share the walk, so each size is walked once per process.
    """
    if length < 0 or degree < 0:
        raise ValueError("need length >= 0 and degree >= 0")
    check_tuple_bound(degree, length)
    if length == 0 or degree < 2:
        return ((tuple(range(degree)),) * length,)
    table, moves = _move_tables(degree)
    minima = _class_minima(moves)
    if length == 1:
        return tuple((tuple(table[c * degree : (c + 1) * degree]),) for c in minima)
    n = len(table) // degree
    perms = [tuple(table[i * degree : (i + 1) * degree]) for i in range(n)]
    conjugation = _conjugation(table, degree)
    rows = {}  # h -> the position of h x h^-1 for each position x

    def row(h: int) -> memoryview:
        got = rows.get(h)
        if got is None:
            got = rows[h] = conjugation(table[h * degree : (h + 1) * degree])
        return got

    def decompose(group: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        """(x, its stabilizer in group) for the minimum x of each orbit of
        group, in increasing order."""
        images_of = [row(h) for h in group]
        seen = bytearray(n)
        parts = []
        x = 0
        while x >= 0:
            images = [r[x] for r in images_of]
            for y in images:
                seen[y] = 1
            parts.append((x, tuple(h for h, y in zip(group, images) if y == x)))
            x = seen.find(0, x + 1)
        return parts

    # Under all of S_degree the orbits are the conjugacy classes.
    everything = tuple(range(n))
    splits = {everything: [(c, tuple(h for h, y in enumerate(row(c)) if y == h)) for c in minima]}
    level = [((), everything)]
    for depth in range(1, length + 1):
        grown = []
        for prefix, group in level:
            parts = splits.get(group)
            if parts is None:
                parts = splits[group] = decompose(group)
            if depth < length:
                grown.extend([(prefix + (perms[x],), sub) for x, sub in parts])
            else:
                grown.extend([prefix + (perms[x],) for x, _ in parts])
        level = grown
    return tuple(level)


def count_subgroup_classes(rank: int, index: int) -> int:
    """Number of conjugacy classes of index-`index` subgroups of the free
    group on `rank` generators, counted as transitive actions on `index`
    points up to simultaneous conjugation: conjugation preserves
    transitivity, so one test per orbit representative decides it."""
    if rank < 1 or index < 1:
        raise ValueError("need rank >= 1 and index >= 1")
    return sum(1 for rep in orbit_representatives(rank, index) if _is_transitive(rep, index))


def conjugation_orbit_count(tuple_length: int, m: int) -> int:
    """Number of orbits of S_m acting by simultaneous conjugation on
    tuples of `tuple_length` permutations."""
    if tuple_length < 0 or m < 0:
        raise ValueError("need tuple_length >= 0 and m >= 0")
    return len(orbit_representatives(tuple_length, m))
