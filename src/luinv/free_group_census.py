"""Brute-force orbit enumeration, the census oracle.

One walk over permutation tuples finds a representative of every orbit of
S_degree acting on them by simultaneous conjugation.  The orbit counts,
the subgroup counts (its transitive orbits) and the columns of the
numerical rank oracle all come from it, one memoized walk per (length,
degree).  It deliberately avoids the centralizer-order formula and
Burnside counting, so that its results are independent of the identities
they are used to verify.
"""

from __future__ import annotations

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


def check_tuple_bound(degree: int, length: int, limit: int) -> None:
    """Refuse when the degree!^max(length, 1) raw tuples exceed limit.

    At length 0 the count is still the degree! permutations, although the
    one empty tuple is found without listing them: one formula,
    degree!^max(length, 1), at every length keeps the set of refused inputs,
    and so the CLI's exit codes, stable.
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


def _keys(table: bytes | bytearray, degree: int) -> list[int]:
    """One int per permutation of the table: its first min(degree, 8)
    entries packed into eight bytes.  Up to degree 9 (the largest
    MAX_TUPLES lets through) a permutation is determined by its first
    eight entries, so the keys are distinct."""
    if degree > 9:
        raise ValueError("permutation keys need degree <= 9")
    packed = bytearray(len(table) // degree * 8)
    for j in range(min(degree, 8)):
        packed[j::8] = table[j::degree]
    return memoryview(packed).cast("Q").tolist()


def _move_tables(degree: int) -> tuple[bytes, list[list[int]]]:
    """The permutation table of S_degree and, for each generator s of
    (0 1) and the degree-cycle, the list whose i-th entry is the position
    in the table of s p s^-1, p its i-th permutation."""
    table = _permutation_table(degree)
    position = dict(zip(_keys(table, degree), range(len(table) // degree)))
    transposition = bytes((1, 0)) + bytes(range(2, degree))
    cycle = bytes(range(1, degree)) + bytes(1)
    moves = [
        list(map(position.__getitem__, _keys(_conjugate_table(table, s), degree)))
        for s in (transposition, cycle)
    ]
    return table, moves


@lru_cache(maxsize=16)
def orbit_representatives(length: int, degree: int) -> tuple[tuple[Perm, ...], ...]:
    """One tuple of `length` permutations of range(degree) per orbit of
    S_degree acting by simultaneous conjugation: the lexicographic minimum
    of its orbit, in increasing order.

    The degree! permutations are one bytes table in lexicographic order,
    degree bytes each, and a tuple is held as its code, the integer whose
    base-degree! digits are the positions of its entries in that table,
    so codes increase in lexicographic order of tuples.  The transposition
    (0 1) and the degree-cycle generate S_degree; conjugating by each is
    tabulated once over the table (a translate and degree stride slice
    assignments conjugate every permutation at once, and one dict keyed by
    the permutations packed into ints ranks the results), then expanded
    into an image list over all degree!^length codes (at length 1 the move
    table is the list).  The walk takes the smallest code not marked in a
    bytearray of degree!^length flags as a representative, and marks its
    orbit by pushing and popping codes through the two image lists; a
    permutation tuple is built only for each representative.  Walks past
    MAX_TUPLES tuples are refused; callers may check a tighter bound
    first.  Length 0 and degrees below 2 have one orbit and are answered
    without a walk.

    The two image lists hold 2 * degree!^length ints; no tuple is built
    per permutation.  Walks at (length, degree) = (2, 5), (3, 4), (1, 8)
    and (5, 3) take about 4, 4, 30 and 5 ms (best of seven with fresh
    tables, median of seven processes), against 5, 6, 55 and 4 ms when
    the move tables hashed a tuple per permutation (the small sizes differ
    by less than their spread) and 27, 36, 230 and 21 ms for a walk that
    conjugated tuples entry by entry in Python (2-core host, Python 3.11).
    At (1, 9) the walk takes about 0.7 s and peaks at 87 MiB, against
    1.1 s and 101 MiB with hashed tuples.  Subgroup and orbit counts at one
    (length, degree) share the walk, so each size is walked once per
    process.
    """
    check_tuple_bound(degree, length, MAX_TUPLES)
    if length == 0 or degree < 2:
        return ((tuple(range(degree)),) * length,)
    table, moves = _move_tables(degree)
    n = len(table) // degree
    images = []
    for move in moves:
        image = move
        for _ in range(length - 1):
            image = [x * n + y for x in image for y in move]
        images.append(image)
    first, second = images
    seen = bytearray(n**length)
    reps = []
    rows = {}  # the permutations met in representatives, as tuples
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
        digits = []
        rest = c
        for _ in range(length):
            rest, d = divmod(rest, n)
            row = rows.get(d)
            if row is None:
                row = rows[d] = tuple(table[d * degree : (d + 1) * degree])
            digits.append(row)
        reps.append(tuple(reversed(digits)))
        c = seen.find(0, c + 1)
    return tuple(reps)


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
