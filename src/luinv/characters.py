"""Exact irreducible characters of S_m and the sums of their squares.

Characters are evaluated column by column with the Murnaghan-Nakayama
rule, in exact integer arithmetic.  A partition is keyed by its bead mask
(the bitmask of its first-column hook lengths), and the column of a class
maps every bead mask to the character value there.  The column of cycle
lengths (c_1, ..., c_j), sorted in increasing order, is built from the
memoized column of (c_1, ..., c_(j-1)) by adding border strips of length
c_j, so the prefixes are shared: the full tables of S_1 to S_14 take 508
columns.  The rule does not depend on the order in which strips are added;
adding the largest cycle last keeps the prefix columns small, and the
tables of S_1 to S_14 take 40,009 strip additions (63,055 with the largest
first).  The strips grown from one bead mask are memoized too: 1,263
entries serve those tables' 7,830 lookups.  Border-strip signs are read
off with int.bit_count, which needs Python 3.10, the version the package
requires.

A class of S_m is labelled by the partition of its cycle lengths, and
values are indexed by partitions in the canonical class order of the
combinatorics module.

The dimension formulas need one class function of the characters: the sum
of chi_lam^2 over the lam with at most a given number of rows, one row per
bead.  With no row limit it is the conjugation character, whose value at a
class is the centralizer order.

A full table of S_m has p(m)^2 entries.  From a cold start the tables of
S_1 to S_14 take about 0.035 s and the square sums of S_16 (231 classes)
about 0.04 s, on a 2-core host under Python 3.11 (0.07 s and 0.14 s with
the largest cycle added first and no strip memo, 0.32 s and 0.63 s by
row-wise recursive border-strip removal).  Degrees above
CHARACTER_DEGREE_BOUND are refused before any partition is listed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .combinatorics import Partition, centralizer_order, partitions_of
from .errors import EnumerationBoundError, Frozen

Rational = int | Fraction

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
    return tuple((lam.parts, centralizer_order(lam)) for lam in partitions_of(m))


class ClassFunction(Frozen):
    """Exact rational-valued function on the conjugacy classes of S_m."""

    __slots__ = ("m", "values")
    m: int
    values: tuple[Rational, ...]

    def __init__(self, m: int, values: tuple[Rational, ...]) -> None:
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
def _strips(mask: int, t: int) -> tuple[tuple[int, int], ...]:
    """(bead mask, sign) of every partition that grows from the one with
    this bead mask by a border strip of length t.

    On beads a strip is t padding beads below the mask (t zero rows), then
    one bead moved from an occupied b to an empty b + t, with sign (-1) to
    the beads in between; the padding left at the bottom is stripped again.
    """
    pad = (1 << t) - 1
    beads = mask << t | pad
    movable = beads & ~(beads >> t)  # beads b with b + t empty
    out = []
    while movable:
        low = movable & -movable
        movable ^= low
        high = low << t
        # Stripping the padding: the b zero rows below a moved padding
        # bead b, or all t of them.
        moved = (beads ^ low ^ high) >> (low.bit_length() - 1 if low <= pad else t)
        out.append((moved, -1 if (beads & (high - (low << 1))).bit_count() & 1 else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _column(cycles: tuple[int, ...]) -> dict[int, int]:
    """chi_lam at the class with these cycle lengths (sorted in increasing
    order), for every partition lam of sum(cycles) on which it is nonzero,
    keyed by bead mask.

    Murnaghan-Nakayama, one column at a time: each lam of the column of
    cycles[:-1] grows by every border strip of the last, largest cycle
    length.  Columns of shared prefixes are shared by every class and
    every m.
    """
    if not cycles:
        return {0: 1}
    t = cycles[-1]
    column: dict[int, int] = {}
    for mask, value in _column(cycles[:-1]).items():
        for moved, sign in _strips(mask, t):
            column[moved] = column.get(moved, 0) + sign * value
    return {mask: value for mask, value in column.items() if value}


@lru_cache(maxsize=None)
def _columns(m: int) -> tuple[dict[int, int], ...]:
    """The column of every class of S_m, in the canonical class order."""
    return tuple(_column(parts[::-1]) for parts, _ in _classes(m))


def irreducible_character(lam: Partition) -> ClassFunction:
    """The character of the S_m irreducible indexed by lam, on every class."""
    mask = _bead_mask(lam.parts)
    return ClassFunction(lam.m, tuple(column.get(mask, 0) for column in _columns(lam.m)))


def trivial_character(m: int) -> ClassFunction:
    """chi_(m): constant 1."""
    return ClassFunction(m, (1,) * len(_classes(m)))


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """(f, g) = (1/m!) sum over classes of |class| * f * g.

    Class sizes are m!/z(lam), exact ints, so the sum is formed exactly
    (an int for integer values) and divided by m! once.  All characters
    handled here are real-valued, so no conjugation is applied to the first
    argument.
    """
    if f.m != g.m:
        raise ValueError(f"degree mismatch: S_{f.m} vs S_{g.m}")
    order = math.factorial(f.m)
    total = sum(x * y * (order // z) for x, y, (_, z) in zip(f.values, g.values, _classes(f.m)))
    return Fraction(total, order)


@lru_cache(maxsize=None)
def _square_sum(m: int, rows: int) -> tuple[int, ...]:
    """Values of the sum of chi_lam^2 over the partitions lam of m with at
    most `rows` rows, on every class: a bead mask has one bead per row."""
    return tuple(
        sum(v * v for mask, v in column.items() if mask.bit_count() <= rows)
        for column in _columns(m)
    )
