import math

import pytest

from luinv import Partition, centralizer_order, partitions_of
from luinv.characters import _classes


def _partition_count(m: int) -> int:
    """Independent count: DP over largest part."""
    table = [[0] * (m + 1) for _ in range(m + 1)]
    for largest in range(m + 1):
        table[0][largest] = 1
    for n in range(1, m + 1):
        for largest in range(1, m + 1):
            table[n][largest] = table[n][largest - 1]
            if n >= largest:
                table[n][largest] += table[n - largest][largest]
    return table[m][m]


def test_partitions_of_small():
    assert [p.parts for p in partitions_of(0)] == [()]
    assert [p.parts for p in partitions_of(1)] == [(1,)]
    assert [p.parts for p in partitions_of(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_partitions_reverse_lex_order():
    for m in range(2, 9):
        parts = [p.parts for p in partitions_of(m)]
        assert parts == sorted(parts, reverse=True)
        assert parts[0] == (m,)
        assert parts[-1] == (1,) * m


@pytest.mark.parametrize("m", range(0, 31))
def test_partition_count_matches_recursive(m):
    assert len(partitions_of(m)) == _partition_count(m)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def _cycle_count_vectors(m: int) -> list[tuple[int, ...]]:
    """Independent enumeration of (a_1, ..., a_m) >= 0 with sum_i i*a_i = m."""

    def tails(rest: int, i: int) -> list[tuple[int, ...]]:
        if i > m:
            return [()] if rest == 0 else []
        return [
            (a,) + tail for a in range(rest // i + 1) for tail in tails(rest - i * a, i + 1)
        ]

    return tails(m, 1)


@pytest.mark.parametrize("m", range(0, 11))
def test_bijection_roundtrip(m):
    # A partition of m is the class of permutations with those cycle lengths:
    # partitions_of(m) is in bijection with the cycle-count vectors
    # (a_1, ..., a_m), sum i*a_i = m, and z(lam) = prod i^{a_i} a_i!.
    def counts(lam):
        return tuple(lam.parts.count(i) for i in range(1, m + 1))

    def from_counts(a):
        return Partition(tuple(i for i in range(m, 0, -1) for _ in range(a[i - 1])))

    lams = partitions_of(m)
    for lam in lams:
        assert from_counts(counts(lam)) == lam
        assert Partition(lam.parts) == lam
        a = counts(lam)
        assert centralizer_order(lam) == math.prod(
            (i + 1) ** k * math.factorial(k) for i, k in enumerate(a)
        )
    vectors = _cycle_count_vectors(m)
    for a in vectors:
        assert counts(from_counts(a)) == a
    assert sorted(counts(lam) for lam in lams) == sorted(vectors)
    assert len(set(lams)) == len(lams)


def test_centralizer_examples():
    m = 5
    assert centralizer_order(Partition((1,) * m)) == math.factorial(m)
    assert centralizer_order(Partition((m,))) == m
    assert centralizer_order(Partition((2, 2, 1))) == 2**2 * math.factorial(2)
    assert [centralizer_order(lam) for lam in partitions_of(2)] == [2, 2]
    assert [centralizer_order(lam) for lam in partitions_of(3)] == [3, 2, 6]


@pytest.mark.parametrize("m", range(0, 11))
def test_class_sizes_partition_group(m):
    # The character layer labels the classes by partitions_of(m), in order.
    classes = _classes(m)
    assert [parts for parts, _ in classes] == [lam.parts for lam in partitions_of(m)]
    for (_, z), lam in zip(classes, partitions_of(m)):
        assert z == centralizer_order(lam)
        assert math.factorial(m) % z == 0
    assert sum(math.factorial(m) // z for _, z in classes) == math.factorial(m)
