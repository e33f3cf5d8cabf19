"""Exact irreducible characters of S_m and the sums of their squares.

Characters are evaluated by recursive border-strip removal, memoized on
(partition, remaining cycle lengths), with exact integer arithmetic.
A class of S_m is labelled by the partition of its cycle lengths, and
values are indexed by partitions in the canonical class order of the
combinatorics module.

The dimension formulas need one class function of the characters: the sum
of chi_lam^2 over the lam with at most a given number of rows.  With no
row limit it is the conjugation character, whose value at a class is the
centralizer order.

A full table of S_m has p(m)^2 entries, and its cost roughly triples with
every two steps of m (m = 16: 231 classes, under a second); degrees
above CHARACTER_DEGREE_BOUND are refused before any partition is listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinatorics import Partition, centralizer_order, partitions_of
from .errors import EnumerationBoundError

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


@dataclass(frozen=True)
class ClassFunction:
    """Exact rational-valued function on the conjugacy classes of S_m."""

    m: int
    values: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(_classes(self.m)):
            raise ValueError(
                f"need one value per class of S_{self.m}, got {len(self.values)}"
            )


@lru_cache(maxsize=None)
def _border_strip_value(lam: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """chi_lam on a permutation with the given cycle lengths (sorted desc)."""
    if not lam:
        return 1
    t = cycles[0]
    rest = cycles[1:]
    ell = len(lam)
    # First-column hook lengths; strictly decreasing for a valid partition.
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_lam = tuple(
            x - (ell - 1 - j) for j, x in enumerate(new_beta) if x - (ell - 1 - j) > 0
        )
        total += (-1) ** height * _border_strip_value(new_lam, rest)
    return total


def irreducible_character(lam: Partition) -> ClassFunction:
    """The character of the S_m irreducible indexed by lam, on every class."""
    m = lam.m
    values = tuple(_border_strip_value(lam.parts, c) for c, _ in _classes(m))
    return ClassFunction(m, values)


def trivial_character(m: int) -> ClassFunction:
    """chi_(m): constant 1."""
    return ClassFunction(m, (1,) * len(_classes(m)))


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """(f, g) = (1/m!) sum over classes of |class| * f * g.

    Class sizes enter as m!/z(lam), so the sum reduces to f(lam)g(lam)/z(lam).
    All characters handled here are real-valued, so no conjugation is
    applied to the first argument.
    """
    if f.m != g.m:
        raise ValueError(f"degree mismatch: S_{f.m} vs S_{g.m}")
    total = Fraction(0)
    for x, y, (_, z) in zip(f.values, g.values, _classes(f.m)):
        total += Fraction(x * y, z)
    return total


@lru_cache(maxsize=None)
def _square_sum(m: int, rows: int) -> tuple[int, ...]:
    """Values of the sum of chi_lam^2 over the partitions lam of m with at
    most `rows` rows, on every class."""
    total = [0] * len(_classes(m))
    for lam in partitions_of(m):
        if len(lam) <= rows:
            for i, v in enumerate(irreducible_character(lam).values):
                total[i] += v * v
    return tuple(total)


def conjugation_character(m: int) -> ClassFunction:
    """sum over lam of chi_lam^2: the character of S_m acting on its own
    group algebra by conjugation; its value at a class is the centralizer
    order z(lam)."""
    return ClassFunction(m, _square_sum(m, m))

