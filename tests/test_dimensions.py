import math
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luinv import (
    EnumerationBoundError,
    IntegralityError,
    hilbert_series,
    mixed_dimension,
    partitions_of,
    restricted_dimension,
    stable_dimension,
    stable_dimension_via_characters,
)
from luinv.characters import _square_sum

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import class_sum  # noqa: E402


def test_degree_four_count():
    for k in range(1, 9):
        assert stable_dimension(k, 2) == 2 ** (k - 1)


def test_bipartite_gives_partition_numbers():
    for m in range(0, 11):
        assert stable_dimension(2, m) == len(partitions_of(m))


def test_tripartite_m3_is_eleven():
    # centralizer orders 6, 2, 3 summed
    assert stable_dimension(3, 3) == 11


def test_single_subsystem():
    for m in range(0, 8):
        assert stable_dimension(1, m) == 1
        assert stable_dimension_via_characters(1, m) == 1


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("m", range(0, 7))
def test_formula_equivalence(k, m):
    assert stable_dimension(k, m) == stable_dimension_via_characters(k, m)


def _z_sum(k: int, m: int) -> Fraction:
    """sum over partitions of m of z^(k-2), z = prod of i^a_i * a_i!, the
    centralizer order read straight off the parts."""
    total = Fraction(0)
    for lam in partitions_of(m):
        z = math.prod(
            i ** lam.parts.count(i) * math.factorial(lam.parts.count(i))
            for i in set(lam.parts)
        )
        total += Fraction(z) ** (k - 2)
    return total


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=8))
def test_cycle_index_product_matches_oracles(k, m):
    value = hilbert_series(k, m)[m]
    assert value == stable_dimension_via_characters(k, m)
    assert value == _z_sum(k, m)


def test_character_route_examples():
    assert stable_dimension_via_characters(3, 2) == 4
    assert stable_dimension_via_characters(4, 2) == 8


def test_restricted_stabilizes():
    for m in range(0, 6):
        for dims in [(m or 1, m or 1), (m + 1, m + 2), (7, 9, 8)]:
            if all(n >= m for n in dims):
                k = len(dims) + 1
                assert restricted_dimension(dims, m) == stable_dimension(k, m)


def test_restricted_frozen_values():
    # Exact inner products worked by hand from the S_3 character table.
    assert restricted_dimension((2, 2), 3) == 6
    assert restricted_dimension((2, 3), 3) == 8
    assert restricted_dimension((2, 2, 2), 3) == 24


def test_restricted_qubit_case_matches_general():
    for k_minus_1 in range(1, 4):
        for m in range(0, 6):
            qubits = restricted_dimension((2,) * k_minus_1, m)
            assert qubits <= stable_dimension(k_minus_1 + 1, m)


def test_restricted_monotone_and_constant_above_m():
    m = 4
    previous = 0
    for n in range(1, 7):
        value = restricted_dimension((n, 3), m)
        assert value >= previous
        previous = value
    plateau = restricted_dimension((m, m), m)
    for n in range(m, m + 3):
        assert restricted_dimension((n, n), m) == plateau == stable_dimension(3, m)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.integers(min_value=1, max_value=6), max_size=3),
    st.integers(min_value=0, max_value=6),
)
def test_restricted_monotone_with_stable_plateau(dims, m):
    value = restricted_dimension(dims, m)
    for j in range(len(dims)):
        raised = dims[:j] + [dims[j] + 1] + dims[j + 1 :]
        assert restricted_dimension(raised, m) >= value
    # The cycle-index product, which does not use characters.
    plateau = stable_dimension(len(dims) + 1, m)
    assert restricted_dimension([max(n, m) for n in dims], m) == plateau
    if all(n >= m for n in dims):
        assert value == plateau


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=7),
)
def test_restricted_reaches_stable_exactly_when_every_n_at_least_m(dims, m):
    """A subsystem of dimension below m loses invariants: the restricted
    count equals the stable one if and only if every n_i >= m."""
    stable = stable_dimension(len(dims) + 1, m)
    assert (restricted_dimension(dims, m) == stable) == all(n >= m for n in dims)


@settings(deadline=None, max_examples=80)
@given(
    st.lists(st.sampled_from([1, 2, 3, 5, 9]), max_size=40),
    st.integers(min_value=0, max_value=9),
)
def test_restricted_dimension_groups_repeated_dims(dims, m):
    """One power per row cutoff min(n, m) gives the product taken one
    dimension at a time."""
    product = (1,) * len(partitions_of(m))
    for n in dims:
        product = tuple(x * y for x, y in zip(product, _square_sum(m, min(n, m))))
    assert class_sum(m, product) == (restricted_dimension(dims, m), 0)


def test_restricted_dimension_raises_on_an_inexact_division(monkeypatch):
    # A class sum that m! does not divide raises, and the message names the
    # quotient as a reduced fraction.
    import luinv.dimensions

    monkeypatch.setattr(luinv.dimensions, "_square_sum", lambda m, rows: (1, 0))
    with pytest.raises(IntegralityError, match=r"^restricted dimension not integral: 1/2$"):
        restricted_dimension((1,), 2)


def test_restricted_dimension_is_bounded_like_the_series():
    # m^2 * max(1, L-1) for L dims against SERIES_WORK_BOUND, the count of
    # hilbert_series(L + 1, m): both routes to the stable dimension admit
    # 978 subsystems at m = 16 and refuse 979.
    assert stable_dimension_via_characters(978, 16) == stable_dimension(978, 16)
    for route in (stable_dimension, stable_dimension_via_characters):
        with pytest.raises(EnumerationBoundError, match="250000"):
            route(979, 16)
    with pytest.raises(EnumerationBoundError, match=r"L=62502 bounded dims at m=2"):
        restricted_dimension((1,) * 62502, 2)
    assert restricted_dimension((1,) * 62501, 2) == 1
    # The degree bound is checked first, as before this count.
    with pytest.raises(EnumerationBoundError, match="S_17"):
        restricted_dimension((2,) * 10**4, 17)


def test_mixed_dimension():
    for m in range(0, 9):
        assert mixed_dimension(1, m) == len(partitions_of(m))
    assert mixed_dimension(2, 2) == 4
    for k in range(1, 5):
        assert mixed_dimension(k, 1) == 1
        for m in range(0, 5):
            assert mixed_dimension(k, m) == stable_dimension(k + 1, m)


def test_bad_arguments():
    with pytest.raises(ValueError):
        stable_dimension(0, 2)
    with pytest.raises(ValueError):
        mixed_dimension(1, -1)
    with pytest.raises(ValueError):
        restricted_dimension((0,), 2)
