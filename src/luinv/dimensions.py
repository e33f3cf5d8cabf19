"""Dimension formulas for spaces of local-unitary invariant polynomials.

The stabilized dimension is read off the cycle-index product of the series
module.  The one character route is the bounded-dimension formula: the
inner product of the trivial character with a product of sums of chi_lam^2,
each sum truncated by row count.  With no dimension below m it is
(chi_(m), (sum of chi_lam^2)^(k-1)), the independent oracle of the
stabilized dimension.  Every result is an exact int.

All gradings use the half-degree m: a degree-m element is a real polynomial
of degree m in the state coefficients and m in their conjugates, i.e. of
real degree 2m.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from .characters import _check_degree, _classes, _square_sum
from .errors import IntegralityError, check_work
from .series import SERIES_WORK_BOUND, hilbert_series


def stable_dimension(k: int, m: int) -> int:
    """Dimension of the degree-m invariant space once all local dimensions
    are at least m: the t^m coefficient of the cycle-index product
    hilbert_series(k, m), i.e. the sum over partitions lam of m of
    z(lam)^(k-2).
    """
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    return hilbert_series(k, m)[m]


def stable_dimension_via_characters(k: int, m: int) -> int:
    """Same dimension through (chi_(m), (sum over lam of chi_lam^2)^(k-1)):
    the restricted dimension with k-1 subsystems none of which bounds m."""
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    return restricted_dimension((max(m, 1),) * (k - 1), m)


def restricted_dimension(bounded_dims: Sequence[int], m: int) -> int:
    """Invariant-space dimension when only the listed subsystem dimensions
    are bounded and one further (environment) subsystem has dimension >= m:

        (chi_(m), prod_i sum over lam with at most n_i rows of chi_lam^2)

    The partition cutoff counts rows, since the corresponding Schur functor
    vanishes exactly when the partition has more rows than the local
    dimension.  Dims with the same cutoff min(n, m) share one power, at most
    max(m, 1) of them, whose integers grow with the number L of dims.  It is refused before any character is built past the degree
    bound, or when m^2 * max(1, L-1), the count of the Hilbert series of the
    same L + 1 subsystems, exceeds SERIES_WORK_BOUND.
    """
    if m < 0 or any(n < 1 for n in bounded_dims):
        raise ValueError("need m >= 0 and positive dimensions")
    _check_degree(m)
    count = len(bounded_dims)
    message = f"refusing a restricted dimension of L={count} bounded dims at m={m}: "
    message += f"m^2 * max(1, L-1) = {{}} exceeds {SERIES_WORK_BOUND}"
    check_work((m, m, max(1, count - 1)), SERIES_WORK_BOUND, message)
    order = math.factorial(m)
    product = tuple(order // z for _, z in _classes(m))  # the class sizes
    for rows, repeats in Counter(min(n, m) for n in bounded_dims).items():
        product = tuple(x * y**repeats for x, y in zip(product, _square_sum(m, rows)))
    value, remainder = divmod(sum(product), order)
    if remainder:
        from fractions import Fraction  # only to name the failure

        raise IntegralityError(f"restricted dimension not integral: {Fraction(sum(product), order)}")
    return value


def mixed_dimension(k: int, m: int) -> int:
    """Dimension of the degree-m mixed-state invariant space of k subsystems;
    equals the pure-state stable dimension with one extra subsystem."""
    if k < 1 or m < 0:
        raise ValueError("need k >= 1 and m >= 0")
    return stable_dimension(k + 1, m)
