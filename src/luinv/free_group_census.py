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
Its largest cost is the class walk of the first coordinate, which holds
S_degree only as degree blocks of columns, block f the permutations
starting with f, and ranks the conjugates of one block before building
the next: about 12 ms and a traced peak of 0.28 MiB at degree 8, 0.15 s
and 4.2 MiB at degree 9 (2-core host, Python 3.11).
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import factorial

from .errors import check_work

# Largest number of raw tuples degree!^max(length, 1) admitted to the walk,
# which visits far fewer, and largest length at degree <= 1.  Covers the
# documented practical bounds (degree 5 for two generators, degree 4 for
# three) with room to spare.
MAX_TUPLES = 500_000

Perm = tuple[int, ...]

# For _ranks: a byte's popcount.
_POPCOUNT = bytes(v.bit_count() for v in range(256))


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


@lru_cache(maxsize=None)
def _raised(first: int) -> bytes:
    """The translate table raising every value >= first by one."""
    return bytes(range(first)) + bytes(range(first + 1, 256)) + b"\xff"


def _block(sub: list[bytes], first: int) -> list[bytes]:
    """The columns of the permutations of range(len(sub) + 1) that start
    with `first`, in lexicographic order, given `sub`, the columns of
    S_len(sub): column 0 is the constant `first`, and column x > 0 is
    column x - 1 of `sub` with every value >= first raised by one."""
    raised = _raised(first)
    return [bytes((first,)) * len(sub[0])] + [column.translate(raised) for column in sub]


def _columns(degree: int) -> list[bytes]:
    """Entry x of every permutation of range(degree), degree >= 1, in
    lexicographic order, for each x: the degree blocks of _block joined."""
    if degree == 1:
        return [bytes(1)]
    sub = _columns(degree - 1)
    return [b"".join(column) for column in zip(*(_block(sub, first) for first in range(degree)))]


def _ranks(columns: list[bytes], s: bytes) -> memoryview:
    """The lexicographic position of s p s^-1 for each permutation p of
    range(len(s)) given by `columns`, entry x of every p in columns[x].

    Entry s(x) of s p s^-1 is s(p(x)), so its column s(x) is column x
    relabelled by s, and the conjugates are ranked one column at a time,
    right to left: digit j of a Lehmer code (later entries below entry j)
    times (degree - 1 - j)!, summed.  A column's digits are one byte per
    permutation of a big int, from bit masks of the relabelled values,
    widened into lanes that never carry: 2 bytes at degree <= 8, since
    8! < 2^16, and 4 at degree 9; a byte counts the values 0..7, so
    degree <= 9."""
    degree = len(s)
    if degree > 9:
        raise ValueError("permutation ranks need degree <= 9")
    n = len(columns[0])
    width = 2 if degree <= 8 else 4
    bit = bytes(1 << y & 255 for y in s) + bytes(256 - degree)
    below = bytes((1 << y) - 1 & 255 for y in s) + bytes(256 - degree)
    lane = bytearray(width * n)
    low = 0 if sys.byteorder == "little" else width - 1
    values = columns[s.index(degree - 1)]
    later = total = 0
    for j in range(degree - 2, -1, -1):
        later |= int.from_bytes(values.translate(bit), sys.byteorder)
        values = columns[s.index(j)]
        digits = int.from_bytes(values.translate(below), sys.byteorder) & later
        lane[low::width] = digits.to_bytes(n, sys.byteorder).translate(_POPCOUNT)
        total += int.from_bytes(lane, sys.byteorder) * factorial(degree - 1 - j)
    return memoryview(total.to_bytes(width * n, sys.byteorder)).cast("H" if width == 2 else "I")


def _move_tables(degree: int, blocks) -> list[memoryview]:
    """The positions of the conjugates by the transposition (0 1) and by
    the degree-cycle of every permutation of S_degree, degree >= 2, in
    lexicographic order.  `blocks` gives S_degree in order as runs of
    columns of one size, the degree blocks of _block or _columns(degree)
    as one run; both tables are ranked from a run before the next."""
    code, width = ("H", 2) if degree <= 8 else ("I", 4)
    moves = [memoryview(bytearray(width * factorial(degree))).cast(code) for _ in range(2)]
    generators = (bytes((1, 0)) + bytes(range(2, degree)), bytes(range(1, degree)) + bytes(1))
    for i, block in enumerate(blocks):
        size = len(block[0])
        for move, s in zip(moves, generators):
            move[i * size : (i + 1) * size] = _ranks(block, s)
    return moves


def _class_minima(pair: memoryview, cycle: memoryview) -> list[int]:
    """Positions in lexicographic order of the minimum of every conjugacy
    class, in increasing order, from the move tables of _move_tables: the
    smallest position not yet marked in a bytearray of flags starts a
    class, which is marked through the two tables.  Conjugating by (0 1)
    is an involution, so a position and its pair are marked together and
    one of them is pushed; popping it moves both through the cycle."""
    seen = bytearray(len(pair))
    minima = []
    c = seen.find(0)
    while c >= 0:
        seen[c] = seen[pair[c]] = 1
        stack = [c]
        push, pop = stack.append, stack.pop
        while stack:
            x = pop()
            y = cycle[x]
            if not seen[y]:
                seen[y] = seen[pair[y]] = 1
                push(y)
            y = cycle[pair[x]]
            if not seen[y]:
                seen[y] = seen[pair[y]] = 1
                push(y)
        minima.append(c)
        c = seen.find(0, c + 1)
    return minima


@lru_cache(maxsize=16)
def orbit_representatives(length: int, degree: int) -> tuple[tuple[Perm, ...], ...]:
    """One tuple of `length` permutations of range(degree) per orbit of
    S_degree acting by simultaneous conjugation: the lexicographic minimum
    of its orbit, in increasing order.

    The degree! permutations are taken in lexicographic order, and a
    permutation is named by its position there.  A tuple is the minimum of
    its orbit exactly when its first entry is the minimum of its conjugacy
    class and each further entry is the minimum of its orbit under the
    stabilizer of the entries before it, the permutations that commute
    with all of them.  The class minima come from a walk over the
    positions: the transposition (0 1) and the degree-cycle generate
    S_degree, and conjugating by each is tabulated once, one block at a
    time: block f holds the permutations starting with f, built from the
    columns of S_(degree - 1) (_block), and both tables are ranked column
    by column (_ranks) from it, so no degree! x degree table is held.  The
    smallest unmarked position is taken as a minimum and its class marked
    through the two tables, a position and its conjugate by (0 1)
    together; at length 1 each minimum is read from its block.  At length
    >= 2 the blocks are joined into the degree columns (_columns), ranked
    as one block, and the stabilizer of a class minimum c is found by
    filtering all degree! permutations, those h with c h c^-1 = h, ranked
    by the same _ranks.  Each further coordinate is split under the
    stabilizer H of its prefix by scanning the positions in increasing
    order: an unmarked x is the minimum of its H-orbit {h x h^-1}, which
    is marked, and the stabilizer of the longer prefix is the h in H with
    h x h^-1 = x.  Distinct stabilizers are few, so each split is memoized
    by H within one call.  Prefixes are extended level by level, parents
    in order and children in increasing x, so the output comes out sorted.
    No tuple outside an orbit minimum is visited, and no cycle type or
    counting formula is used.  A negative length or degree raises
    ValueError; inputs past check_tuple_bound are refused after that
    check, and callers may check a tighter bound first.  Length 0 and
    degrees below 2 have one orbit and are answered without listing
    permutations.

    Walks at (length, degree) = (2, 5), (3, 4), (4, 4) and (5, 3) take
    about 0.9, 0.5, 3.3 and 0.6 ms, and length 1, the class walk alone,
    1.7 ms at (1, 7), 12 ms (tracemalloc peak 0.28 MiB) at (1, 8) and
    0.15 s (4.2 MiB) at (1, 9) (medians in one process, 2-core host,
    Python 3.11).  Subgroup and orbit counts at one (length, degree)
    share the walk, so each size is walked once per process.
    """
    if length < 0 or degree < 0:
        raise ValueError("need length >= 0 and degree >= 0")
    check_tuple_bound(degree, length)
    if length == 0 or degree < 2:
        return ((tuple(range(degree)),) * length,)
    if length == 1:
        sub = _columns(degree - 1)
        blocks = (_block(sub, first) for first in range(degree))
        minima = _class_minima(*_move_tables(degree, blocks))
        # The minimum at position c is row r of block `first`: the block
        # of row r of sub alone.
        return tuple(
            (tuple(b"".join(_block([column[r : r + 1] for column in sub], first))),)
            for first, r in (divmod(c, len(sub[0])) for c in minima)
        )
    columns = _columns(degree)
    minima = _class_minima(*_move_tables(degree, [columns]))
    perms = list(zip(*columns))
    n = len(perms)
    rows = {}  # h -> the position of h x h^-1 for each position x

    def row(h: int) -> memoryview:
        got = rows.get(h)
        if got is None:
            got = rows[h] = _ranks(columns, bytes(perms[h]))
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
                grown.extend([(prefix + (perms[x],), stabilizer) for x, stabilizer in parts])
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
