"""The Hilbert series of the invariant algebra and its Euler-product
inversion, in exact integers.

The series is the cycle-index product

    prod over i >= 1 of ( sum over a >= 0 of (i^a * a!)^(k-2) * t^(i*a) ),

whose t^m coefficient is the sum over cycle types of S_m of z^(k-2), z the
centralizer order.  No floating point enters this module: the integrality
of the extracted exponents is the claim under test, so every coefficient
is an int.  k = 1, the one negative power of z, is the series 1/(1-t) and
is returned directly.

The product costs about order^2 multiplications of integers that grow
linearly in k-2, so a series with order^2 * max(1, k-2) above
SERIES_WORK_BOUND is refused before any multiplication.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import Frozen, IntegralityError, check_work

if TYPE_CHECKING:  # imported where a Fraction is built
    from fractions import Fraction

SERIES_WORK_BOUND = 250_000


class PowerSeries(Frozen):
    """A series known exactly modulo t^(order+1)."""

    __slots__ = ("order", "coeffs")
    order: int
    coeffs: tuple[int | Fraction, ...]

    def __init__(self, order: int, coeffs: tuple[int | Fraction, ...]) -> None:
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        Frozen.__init__(self, order, coeffs)

    def __getitem__(self, n: int) -> int | Fraction:
        return self.coeffs[n]


class GeneratorCounts(Frozen):
    """Exponents u_1..u_N of an Euler product (1-t^d)^(-u_d).

    For the Hilbert series of the k-subsystem invariant algebra, u_d is the
    number of conjugacy classes of index-d subgroups of the free group on
    k-1 generators; k is carried along when known.
    """

    __slots__ = ("u", "k")
    u: tuple[int, ...]
    k: int | None

    def __init__(self, u: tuple[int, ...], k: int | None = None) -> None:
        for d, value in enumerate(u, start=1):
            if not isinstance(value, int) or value < 0:
                raise IntegralityError(
                    f"exponent u_{d} = {value} is not a nonnegative integer"
                )
        Frozen.__init__(self, u, k)


def _multiply_in(coeffs: list, step: int, weights: list) -> None:
    """coeffs *= sum over j of weights[j] * t^(step*j), in place and
    truncated; weights[0] must be 1."""
    for n in range(len(coeffs) - 1, step - 1, -1):
        coeffs[n] += sum(
            weights[j] * coeffs[n - step * j] for j in range(1, n // step + 1)
        )


def hilbert_series(k: int, order: int) -> PowerSeries:
    """Generating series of the stabilized invariant dimensions of k
    subsystems, in the half-degree grading: the cycle-index product, or
    1/(1-t) for k = 1.  Refused past SERIES_WORK_BOUND (module docstring)."""
    if k < 1 or order < 0:
        raise ValueError("need k >= 1 and order >= 0")
    message = f"refusing the k={k} series to order {order}: order^2 * max(1, k-2) = "
    message += f"{{}} exceeds {SERIES_WORK_BOUND}"
    check_work((order, order, max(1, k - 2)), SERIES_WORK_BOUND, message)
    if k == 1:
        return PowerSeries(order, (1,) * (order + 1))
    e = k - 2
    coeffs = [1] + [0] * order
    for i in range(1, order + 1):
        # weights[a] = (i^a * a!)^e, built one factor (i*a)^e at a time.
        weights = [1]
        for a in range(1, order // i + 1):
            weights.append(weights[-1] * (i * a) ** e)
        _multiply_in(coeffs, i, weights)
    return PowerSeries(order, tuple(coeffs))


def euler_exponents(s: PowerSeries, k: int | None = None) -> GeneratorCounts:
    """Solve s(t) = prod over d of (1-t^d)^(-u_d) for the exponents.

    With a_n the coefficients of s, b_n = n*a_n - sum over j < n of
    b_j*a_(n-j) is the t^n coefficient of t*s'/s, which is the sum of d*u_d
    over the divisors d of n; so u_n = (b_n - sum over proper divisors d of
    d*u_d) / n.  An inexact division or a negative exponent raises
    IntegralityError naming the offending degree.  No work bound: the
    order^2 steps follow the caller's series.  The CLI reaches it only
    behind SERIES_WORK_BOUND (`hilbert`).
    """
    a = s.coeffs
    if a[0] != 1:
        raise ValueError("Euler products require constant term 1")
    b = [0] * (s.order + 1)
    u = [0] * (s.order + 1)
    for n in range(1, s.order + 1):
        b[n] = n * a[n] - sum(b[j] * a[n - j] for j in range(1, n))
        rest = b[n] - sum(d * u[d] for d in range(1, n // 2 + 1) if n % d == 0)
        value, remainder = divmod(rest, n)
        if remainder:
            from fractions import Fraction  # only to name the failure

            raise IntegralityError(
                f"exponent u_{n} = {Fraction(rest, n)} is not an integer"
            )
        if value < 0:
            raise IntegralityError(f"exponent u_{n} = {value} is negative")
        u[n] = value
    return GeneratorCounts(tuple(u[1:]), k)


def expand_euler_product(counts: GeneratorCounts, order: int) -> PowerSeries:
    """prod over d of (1-t^d)^(-u_d), truncated; inverse of euler_exponents.

    Each factor is multiplied in from its binomial series
    sum over j of C(u+j-1, j) * t^(d*j), with no logarithm or divisor sum,
    so expanding the exponents checks the inversion independently.  No
    work bound: the work follows the caller's order.  The CLI never calls it.
    """
    coeffs = [1] + [0] * order
    for d, u in enumerate(counts.u[:order], start=1):
        if u:
            binomials = [math.comb(u + j - 1, j) for j in range(order // d + 1)]
            _multiply_in(coeffs, d, binomials)
    return PowerSeries(order, tuple(coeffs))
