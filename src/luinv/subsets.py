"""Subsets of {1, ..., k} used to label invariants and traced subsystems."""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import Frozen


class SubsetMask(Frozen):
    """A subset of the labels {1, ..., k}, stored as its bit mask: bit j-1 is
    label j.  The mask (also __index__) is its position in an InvariantVector."""

    __slots__ = ("k", "bits")
    k: int
    bits: int

    def __init__(self, k: int, bits: int) -> None:
        if k < 0:
            raise ValueError("k must be nonnegative")
        if not 0 <= bits < 1 << k:
            raise ValueError(f"bit mask {bits} not within 0..{(1 << k) - 1}")
        Frozen.__init__(self, k, bits)

    @classmethod
    def of(cls, k: int, members: Iterable[int] = ()) -> "SubsetMask":
        labels = frozenset(members)
        subset = cls(k, sum(1 << (j - 1) for j in labels if j in range(1, k + 1)))
        if len(subset) != len(labels):
            raise ValueError(f"members {sorted(labels)} not within 1..{k}")
        return subset

    @classmethod
    def from_bits(cls, k: int, bits: int) -> "SubsetMask":
        return cls(k, bits)

    def __index__(self) -> int:
        return self.bits

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, j: int) -> bool:
        return j in range(1, self.k + 1) and bool(self.bits >> (j - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:  # lowest set bit first
            yield (bits & -bits).bit_length()
            bits &= bits - 1

    def is_full(self) -> bool:
        return self.bits == (1 << self.k) - 1

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self)) + ")"


def all_subsets(k: int) -> list[SubsetMask]:
    """All 2^k subsets in binary order: bitmask 0, 1, ..., 2^k - 1."""
    return [SubsetMask(k, bits) for bits in range(1 << k)]


def subset_labels(k: int) -> list[str]:
    """str() of all 2^k subsets in binary order, as all_subsets(k) lists
    them, without building one SubsetMask per subset: the masks from 2^(j-1)
    to 2^j - 1 are those below 2^(j-1) with label j appended."""
    members = [""]
    for j in range(1, k + 1):
        members += [f"{prefix},{j}" if prefix else str(j) for prefix in members]
    return [f"({text})" for text in members]
