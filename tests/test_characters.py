import itertools
import math
import os
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luinv import (
    ClassFunction,
    EnumerationBoundError,
    Partition,
    centralizer_order,
    irreducible_character,
    partitions_of,
)
from luinv.characters import _classes, _square_sum, _table

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import class_sum  # noqa: E402


@lru_cache(maxsize=None)
def _syt_count(shape: tuple[int, ...]) -> int:
    """Standard Young tableaux counted by corner removal, independent of
    the border-strip recursion under test."""
    if sum(shape) <= 1:
        return 1
    total = 0
    for i in range(len(shape)):
        below = shape[i + 1] if i + 1 < len(shape) else 0
        if shape[i] > below:
            smaller = list(shape)
            smaller[i] -= 1
            if smaller[-1] == 0:
                smaller.pop()
            total += _syt_count(tuple(smaller))
    return total


@lru_cache(maxsize=None)
def _border_strip_value(lam: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    """chi_lam on a permutation with the given cycle lengths (sorted desc),
    by recursive border-strip removal row by row: the oracle of the
    column-wise bead-mask evaluation under test."""
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


# The identity class (1,...,1) comes last in the canonical class order.
IDENTITY = -1


def test_trivial_character_constant_one():
    for m in range(0, 7):
        chi = irreducible_character(Partition((m,)) if m else Partition(()))
        assert chi.values == (1,) * len(partitions_of(m))


def test_sign_character():
    for m in range(1, 7):
        chi = irreducible_character(Partition((1,) * m))
        # (-1)^(m - number of cycles) on each class.
        assert chi.values == tuple((-1) ** (m - len(lam)) for lam in partitions_of(m))


def test_standard_representation_m3():
    chi = irreducible_character(Partition((2, 1)))
    # Canonical class order is reverse-lex on partitions: (3), (2,1), (1,1,1).
    assert chi.values == (-1, 0, 2)
    assert chi.values[IDENTITY] == 2 == _syt_count((2, 1))


@pytest.mark.parametrize("m", range(1, 7))
def test_dimension_equals_tableau_count(m):
    for lam in partitions_of(m):
        assert irreducible_character(lam).values[IDENTITY] == _syt_count(lam.parts)


@pytest.mark.parametrize("m", range(0, 7))
def test_orthonormality(m):
    chars = [irreducible_character(lam) for lam in partitions_of(m)]
    for i, f in enumerate(chars):
        for j, g in enumerate(chars):
            values = tuple(x * y for x, y in zip(f.values, g.values))
            assert class_sum(m, values) == (1 if i == j else 0, 0)


@pytest.mark.parametrize("m", range(0, 13))
def test_column_orthogonality(m):
    # Unrestricted, the square sum is the conjugation character, whose
    # value at a class is the centralizer order.
    assert _square_sum(m, m) == tuple(centralizer_order(lam) for lam in partitions_of(m))


def test_square_sum_with_no_rows():
    # No partition of m >= 1 has zero rows; the empty partition of 0 does.
    assert _square_sum(0, 0) == (1,)
    for m in range(1, 17):
        assert _square_sum(m, 0) == (0,) * len(_classes(m))


@pytest.mark.parametrize("m", range(0, 17))
def test_first_and_last_rows(m):
    # Row (m) is the trivial character and row (1^m), last in canonical
    # order, the sign character: (-1)^(m - number of cycles).
    rows = _table(m)
    assert len(rows) == len(_classes(m))
    assert rows[0] == (1,) * len(rows)
    assert rows[-1] == tuple((-1) ** (m - len(cycles)) for cycles, _ in _classes(m))


def _longest_decreasing(perm: tuple[int, ...]) -> int:
    best = [1] * len(perm)
    for j in range(len(perm)):
        for i in range(j):
            if perm[i] > perm[j]:
                best[j] = max(best[j], best[i] + 1)
    return max(best, default=0)


@pytest.mark.parametrize("m", range(0, 11))
def test_square_sum_counts_permutations(m):
    # At the identity class the sum of (f^lam)^2 over lam with at most r
    # rows counts, by RSK, the permutations of m with no decreasing run
    # longer than r: 1 for one row, the Catalan number for two, m! for m.
    sums = [_square_sum(m, rows) for rows in range(max(m, 1) + 1)]
    assert sums[1][IDENTITY] == 1
    if m >= 2:
        assert sums[2][IDENTITY] == math.comb(2 * m, m) // (m + 1)
    assert sums[-1][IDENTITY] == math.factorial(m)
    assert sums[-1] == tuple(centralizer_order(lam) for lam in partitions_of(m))
    for low, high in zip(sums, sums[1:]):
        assert all(a <= b for a, b in zip(low, high))
    if m <= 7:
        runs = [_longest_decreasing(p) for p in itertools.permutations(range(m))]
        for rows, values in enumerate(sums):
            assert values[IDENTITY] == sum(1 for r in runs if r <= rows)


@pytest.mark.parametrize("m", range(0, 8))
def test_sum_of_squared_dimensions(m):
    total = sum(
        irreducible_character(lam).values[IDENTITY] ** 2 for lam in partitions_of(m)
    )
    assert total == math.factorial(m)


def test_inner_product_paper_value():
    # (chi_(2), chi_(1,1)^2) = 1: an even number of sign factors.
    sign = irreducible_character(Partition((1, 1)))
    assert class_sum(2, tuple(v * v for v in sign.values)) == (1, 0)
    assert class_sum(2, sign.values) == (0, 0)


def _kronecker_multiplicity(nu, lams):
    """(chi_nu, chi_lam1 ... chi_lamk): the multiplicity of the
    nu-irreducible in the tensor product, which must be a nonnegative
    integer.  The product is a ClassFunction, which refuses a value count
    that is not the class count of its degree."""
    product = irreducible_character(nu)
    for lam in lams:
        chi = irreducible_character(lam)
        values = tuple(x * y for x, y in zip(product.values, chi.values))
        product = ClassFunction(chi.m, values)
    value, remainder = class_sum(nu.m, product.values)
    assert remainder == 0 and value >= 0, (value, remainder)
    return value


def test_kronecker_trivial_cases():
    m = 4
    triv = Partition((m,))
    assert _kronecker_multiplicity(triv, [triv, triv, triv]) == 1
    for lam in partitions_of(m):
        for mu in partitions_of(m):
            assert _kronecker_multiplicity(lam, [mu]) == (1 if lam == mu else 0)


def test_kronecker_paper_value_m2():
    assert _kronecker_multiplicity(
        Partition((2,)), [Partition((1, 1)), Partition((1, 1))]
    ) == 1
    assert _kronecker_multiplicity(Partition((2,)), [Partition((1, 1))]) == 0


def test_kronecker_permutation_invariance():
    lams = [Partition((2, 1)), Partition((3,)), Partition((1, 1, 1))]
    reference = _kronecker_multiplicity(Partition((2, 1)), lams)
    assert reference == _kronecker_multiplicity(Partition((2, 1)), lams[::-1])
    assert reference == _kronecker_multiplicity(
        Partition((2, 1)), [lams[1], lams[0], lams[2]]
    )


def test_kronecker_degree_mismatch():
    with pytest.raises(ValueError):
        _kronecker_multiplicity(Partition((2,)), [Partition((3,))])


def test_character_degree_bound():
    from luinv.characters import CHARACTER_DEGREE_BOUND

    assert CHARACTER_DEGREE_BOUND == 16
    assert irreducible_character(Partition((16,))).values[-1] == 1
    for call in (
        lambda: irreducible_character(Partition((17,))),
        lambda: ClassFunction(40, ()),
        lambda: _square_sum(40, 40),
    ):
        with pytest.raises(EnumerationBoundError, match="S_"):
            call()


@pytest.mark.parametrize("m", range(0, 13))
def test_table_matches_border_strip_oracle(m):
    for lam in partitions_of(m):
        expected = tuple(_border_strip_value(lam.parts, c) for c, _ in _classes(m))
        assert irreducible_character(lam).values == expected


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_character_value_matches_border_strip_oracle(data):
    m = data.draw(st.integers(min_value=0, max_value=14))
    lam = data.draw(st.sampled_from(partitions_of(m)))
    i = data.draw(st.integers(min_value=0, max_value=len(_classes(m)) - 1))
    cycles = _classes(m)[i][0]
    assert irreducible_character(lam).values[i] == _border_strip_value(lam.parts, cycles)
