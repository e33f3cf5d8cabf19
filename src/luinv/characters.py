"""Exact irreducible characters of S_m and the sums of their squares.

Characters are evaluated column by column with the Murnaghan-Nakayama
rule, in exact integer arithmetic.  A column is dense: the values at one
class, one per partition of m in the canonical order of the combinatorics
module.  The column of cycle lengths (c_1, ..., c_j), sorted in increasing
order, is built from the memoized column of (c_1, ..., c_(j-1)) by adding
border strips of length c_j, so the prefixes are shared: the full tables
of S_1 to S_14 take 508 columns.  The rule does not depend on the order in
which strips are added; adding the largest cycle last keeps the prefix
columns small, and those tables take 40,009 strip additions, one per strip
grown from a nonzero entry (63,055 with the largest cycle first).

Each strip step (n, t) is one memoized map from the canonical positions of
the partitions of n to the positions in n + t of the partitions that grow
from them by a border strip of length t, split by sign.  The map is built
on bead masks, the bitmask of a partition's first-column hook lengths, on
which a strip moves one bead; signs are read off with int.bit_count, which
needs Python 3.10, the version the package requires.  The tables of S_1 to
S_14 use 105 step maps, holding 5,849 strips from 1,263 partitions.  The
table of S_m is the transpose of its columns: one row per irreducible.

A class of S_m is labelled by the partition of its cycle lengths, and
values are indexed by partitions in the canonical class order.

The dimension formulas need one class function of the characters: the sum
of chi_lam^2 over the lam with at most a given number of rows.  With no
row limit it is the conjugation character, whose value at a class is the
centralizer order.

A full table of S_m has p(m)^2 entries.  From a cold start the tables of
S_1 to S_14 take about 0.012 s and the square sums of S_16 (231 classes)
about 0.015 s, on a 2-core x86-64 host under Python 3.11 (0.020 s and
0.025 s on the same host with each column a dict keyed by bead mask).
Degrees above CHARACTER_DEGREE_BOUND are refused before any partition is
listed.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress

from .combinatorics import Partition, _centralizer_order, _partition_tuples
from .errors import EnumerationBoundError, Frozen

CHARACTER_DEGREE_BOUND = 16


def _check_degree(m: int) -> None:
    """Refuse the characters of S_m for m above CHARACTER_DEGREE_BOUND."""
    if m > CHARACTER_DEGREE_BOUND:
        raise EnumerationBoundError(
            f"refusing the characters of S_{m} (degree bound {CHARACTER_DEGREE_BOUND})"
        )


@lru_cache(maxsize=None)
def _classes(m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(cycle lengths in decreasing order, centralizer order) of each class
    of S_m in the canonical class order; its length is the class count."""
    _check_degree(m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    return tuple((parts, _centralizer_order(parts)) for parts in _partition_tuples(m, m))


class ClassFunction(Frozen):
    """Exact integer-valued function on the conjugacy classes of S_m."""

    __slots__ = ("m", "values")
    m: int
    values: tuple[int, ...]

    def __init__(self, m: int, values: tuple[int, ...]) -> None:
        if len(values) != len(_classes(m)):
            raise ValueError(f"need one value per class of S_{m}, got {len(values)}")
        Frozen.__init__(self, m, values)


def _bead_mask(parts: tuple[int, ...]) -> int:
    """The beta-set of a partition as a bitmask: one bead at each
    first-column hook length lam_i + (rows - 1 - i).  There is no bead at 0,
    which makes the key canonical: a zero row would put one there."""
    ell = len(parts)
    mask = 0
    for i, part in enumerate(parts):
        mask |= 1 << (part + ell - 1 - i)
    return mask


@lru_cache(maxsize=None)
def _positions(n: int) -> dict[int, int]:
    """The canonical position of each partition of n, keyed by bead mask."""
    return {_bead_mask(parts): i for i, parts in enumerate(_partition_tuples(n, n))}


@lru_cache(maxsize=None)
def _step(n: int, t: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """For each partition of n in canonical order, the canonical positions
    of the partitions of n + t that grow from it by a border strip of
    length t: those of sign +1, then those of sign -1.

    On beads a strip is t padding beads below the mask (t zero rows), then
    one bead moved from an occupied b to an empty b + t, with sign (-1) to
    the beads in between; the padding left at the bottom is stripped again.
    """
    targets = _positions(n + t)
    pad = (1 << t) - 1
    out = []
    for parts in _partition_tuples(n, n):
        beads = _bead_mask(parts) << t | pad
        movable = beads & ~(beads >> t)  # beads b with b + t empty
        plus: list[int] = []
        minus: list[int] = []
        while movable:
            low = movable & -movable
            movable ^= low
            high = low << t
            # Stripping the padding: the b zero rows below a moved padding
            # bead b, or all t of them.
            moved = (beads ^ low ^ high) >> (low.bit_length() - 1 if low <= pad else t)
            (minus if (beads & (high - (low << 1))).bit_count() & 1 else plus).append(targets[moved])
        out.append((tuple(plus), tuple(minus)))
    return tuple(out)


@lru_cache(maxsize=None)
def _column(cycles: tuple[int, ...]) -> tuple[int, ...]:
    """chi_lam at the class with these cycle lengths (sorted in increasing
    order), for every partition lam of sum(cycles) in canonical order.

    Murnaghan-Nakayama, one column at a time: each lam of the column of
    cycles[:-1] on which the character is nonzero grows by every border
    strip of the last, largest cycle length.  Columns of shared prefixes
    are shared by every class and every m.
    """
    if not cycles:
        return (1,)
    t = cycles[-1]
    n = sum(cycles) - t
    column = [0] * len(_positions(n + t))
    for value, (plus, minus) in zip(_column(cycles[:-1]), _step(n, t)):
        if value:
            for i in plus:
                column[i] += value
            for i in minus:
                column[i] -= value
    return tuple(column)


@lru_cache(maxsize=None)
def _table(m: int) -> tuple[tuple[int, ...], ...]:
    """The character table of S_m: row lam is chi_lam on every class, rows
    and classes both in the canonical order."""
    return tuple(zip(*[_column(parts[::-1]) for parts, _ in _classes(m)]))


def irreducible_character(lam: Partition) -> ClassFunction:
    """The character of the S_m irreducible indexed by lam, on every class."""
    rows = _table(lam.m)
    return ClassFunction(lam.m, rows[_positions(lam.m)[_bead_mask(lam.parts)]])


@lru_cache(maxsize=None)
def _square_sum(m: int, rows: int) -> tuple[int, ...]:
    """Values of the sum of chi_lam^2 over the partitions lam of m with at
    most `rows` rows, on every class; all zeros when there are none."""
    kept = [len(parts) <= rows for parts, _ in _classes(m)]
    return tuple(
        sum([v * v for v in compress(_column(parts[::-1]), kept)]) for parts, _ in _classes(m)
    )
