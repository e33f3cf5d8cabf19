"""Exact irreducible characters of S_m and class-function arithmetic.

Characters are evaluated by recursive border-strip removal, memoized on
(partition, remaining cycle lengths), with exact integer arithmetic.
Values are indexed by cycle types in the canonical class order of the
combinatorics module.

A full table of S_m has p(m)^2 entries, and its cost roughly triples with
every two steps of m (m = 16: 231 classes, under a second); degrees
above CHARACTER_DEGREE_BOUND are refused before any partition is listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .combinatorics import (
    Partition,
    centralizer_order,
    cycle_types_of,
    partitions_of,
)
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
def _class_cycles(m: int) -> tuple[tuple[int, ...], ...]:
    """Cycle lengths, in decreasing order, of each class of S_m in the
    canonical class order; its length is the class count."""
    _check_degree(m)
    return tuple(a.cycle_lengths() for a in cycle_types_of(m))


@dataclass(frozen=True)
class ClassFunction:
    """Exact rational-valued function on the conjugacy classes of S_m."""

    m: int
    values: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(_class_cycles(self.m)):
            raise ValueError(
                f"need one value per class of S_{self.m}, got {len(self.values)}"
            )


def _require_same_degree(f: ClassFunction, g: ClassFunction) -> None:
    if f.m != g.m:
        raise ValueError(f"degree mismatch: S_{f.m} vs S_{g.m}")


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
    values = tuple(_border_strip_value(lam.parts, c) for c in _class_cycles(m))
    return ClassFunction(m, values)


def trivial_character(m: int) -> ClassFunction:
    """chi_(m): constant 1."""
    return ClassFunction(m, (1,) * len(_class_cycles(m)))


def sign_character(m: int) -> ClassFunction:
    """chi_(1,...,1): (-1)^(m - number of cycles) on each class."""
    values = tuple((-1) ** (m - len(c)) for c in _class_cycles(m))
    return ClassFunction(m, values)


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """(f, g) = (1/m!) sum over classes of |class| * f * g.

    Class sizes enter as m!/z(a), so the sum reduces to f(a)g(a)/z(a).
    All characters handled here are real-valued, so no conjugation is
    applied to the first argument.
    """
    _require_same_degree(f, g)
    total = Fraction(0)
    for i, a in enumerate(cycle_types_of(f.m)):
        total += Fraction(f.values[i] * g.values[i], centralizer_order(a))
    return total


def pointwise_product(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    _require_same_degree(f, g)
    return ClassFunction(f.m, tuple(x * y for x, y in zip(f.values, g.values)))


def pointwise_power(f: ClassFunction, e: int) -> ClassFunction:
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    return ClassFunction(f.m, tuple(x**e for x in f.values))


def pointwise_sum(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    _require_same_degree(f, g)
    return ClassFunction(f.m, tuple(x + y for x, y in zip(f.values, g.values)))


@lru_cache(maxsize=None)
def conjugation_character(m: int) -> ClassFunction:
    """sum over lam of chi_lam^2: the character of S_m acting on its own
    group algebra by conjugation; its value at a class is the centralizer
    order z(a)."""
    _check_degree(m)
    total = None
    for lam in partitions_of(m):
        sq = pointwise_power(irreducible_character(lam), 2)
        total = sq if total is None else pointwise_sum(total, sq)
    assert total is not None
    return total


def kronecker_multiplicity(nu: Partition, lams: list[Partition]) -> int:
    """Multiplicity of the nu-irreducible in the tensor product of the
    lam-irreducibles: (chi_nu, chi_lam1 * ... * chi_lamk)."""
    m = nu.m
    if any(lam.m != m for lam in lams):
        raise ValueError("all partitions must have the same degree")
    product = trivial_character(m)
    for lam in lams:
        product = pointwise_product(product, irreducible_character(lam))
    value = inner_product(irreducible_character(nu), product)
    if value.denominator != 1 or value < 0:
        raise AssertionError(f"multiplicity must be a nonnegative integer: {value}")
    return int(value)
