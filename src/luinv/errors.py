"""Exceptions shared across the package, and the work-bound gate."""

from typing import Iterable


class EnumerationBoundError(RuntimeError):
    """A brute-force enumeration was refused because it would be too large."""


def check_work(factors: Iterable[int], limit: int, message: str) -> None:
    """Refuse with EnumerationBoundError, message.format(count), when the
    product of the factors, a work count, exceeds limit.  The factors are
    multiplied one at a time and given up once the count passes limit**2,
    so the check's own cost does not grow with the input: a factor that
    may be 0 must come first, and the count is exact up to limit**2 and
    "more than limit**2" past it."""
    give_up = limit**2
    count = 1
    for factor in factors:
        count *= factor
        if count > give_up:
            raise EnumerationBoundError(message.format(f"more than {give_up}"))
    if count > limit:
        raise EnumerationBoundError(message.format(count))


class IntegralityError(ArithmeticError):
    """An exact computation produced a value that should have been a
    nonnegative integer but is not.  This falsifies the identity under
    test and must surface loudly instead of being rounded away."""


class ConsistencyError(RuntimeError):
    """Two internal routes to the same quantity disagreed beyond tolerance."""
