"""Subsets of {1, ..., k} used to label invariants and traced subsystems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class SubsetMask:
    """A subset of the subsystem labels {1, ..., k}."""

    k: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if not self.members <= set(range(1, self.k + 1)):
            raise ValueError(f"members {sorted(self.members)} not within 1..{self.k}")

    @classmethod
    def of(cls, k: int, members: Iterable[int] = ()) -> "SubsetMask":
        return cls(k, frozenset(members))

    @classmethod
    def from_bits(cls, k: int, bits: int) -> "SubsetMask":
        """Subset from a bitmask; bit j-1 encodes membership of label j."""
        return cls(k, frozenset(j for j in range(1, k + 1) if bits >> (j - 1) & 1))

    @property
    def bits(self) -> int:
        return sum(1 << (j - 1) for j in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, j: int) -> bool:
        return j in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def is_full(self) -> bool:
        return len(self.members) == self.k

    def __str__(self) -> str:
        return "(" + ",".join(str(j) for j in sorted(self.members)) + ")"


def all_subsets(k: int) -> list[SubsetMask]:
    """All 2^k subsets in binary order: bitmask 0, 1, ..., 2^k - 1."""
    return [SubsetMask.from_bits(k, bits) for bits in range(1 << k)]
