"""Exceptions shared across the package, the work-bound gate, and the base
of the package's value classes."""

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


_set_field = object.__setattr__


class Frozen:
    """Base of the package's immutable value classes.  A subclass lists its
    fields in __slots__, and its __init__ validates them and passes them to
    Frozen.__init__, in that order, which sets each one once.  Objects
    compare, hash and show as a frozen dataclass does, by the tuple of their
    fields within one class, and assigning or deleting a field raises
    AttributeError.  This stands in for `dataclasses`, whose import is a
    large share of a CLI process that needs no numpy."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set_field(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Pickle and copy through the constructor: the default route for
        # slots would set each field, which __setattr__ refuses.
        return type(self), self._fields()
