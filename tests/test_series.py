from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from luinv import (
    EnumerationBoundError,
    GeneratorCounts,
    IntegralityError,
    PowerSeries,
    count_subgroup_classes,
    euler_exponents,
    expand_euler_product,
    hilbert_series,
    partitions_of,
    stable_dimension,
)


def test_hilbert_bipartite_is_partition_series():
    series = hilbert_series(2, 6)
    assert series.coeffs == (1, 1, 2, 3, 5, 7, 11)


def test_hilbert_quadratic_coefficient():
    for k in range(1, 7):
        assert hilbert_series(k, 3)[2] == 2 ** (k - 1)


def test_hilbert_single_subsystem():
    assert hilbert_series(1, 7).coeffs == (1,) * 8


def test_hilbert_matches_dimensions():
    series = hilbert_series(4, 5)
    for m in range(6):
        assert series[m] == stable_dimension(4, m)
    assert series[0] == 1


def test_euler_partition_series_single_generator_per_degree():
    counts = euler_exponents(hilbert_series(2, 10))
    assert counts.u == (1,) * 10


def test_euler_constant_series():
    assert euler_exponents(PowerSeries(5, (1, 0, 0, 0, 0, 0))).u == (0,) * 5


def test_euler_rank_two_frozen():
    # Stripped by hand from 1 + t + 4t^2 + 11t^3 + 43t^4.
    counts = euler_exponents(hilbert_series(3, 4))
    assert counts.u == (1, 3, 7, 26)


def test_euler_requires_unit_constant_term():
    with pytest.raises(ValueError):
        euler_exponents(PowerSeries(2, (2, 1, 1)))


def test_euler_rejects_non_integral_exponent():
    bad = PowerSeries(2, (1, Fraction(1, 2), 0))
    with pytest.raises(IntegralityError, match="u_1"):
        euler_exponents(bad)


def test_euler_rejects_negative_exponent():
    bad = PowerSeries(2, (1, 1, 0))  # stripping leaves -t^2
    with pytest.raises(IntegralityError, match="u_2"):
        euler_exponents(bad)


def test_generator_counts_validation():
    with pytest.raises(IntegralityError):
        GeneratorCounts((1, -1))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_euler_roundtrip(k):
    series = hilbert_series(k, 6)
    counts = euler_exponents(series, k)
    assert expand_euler_product(counts, 6).coeffs == series.coeffs


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=12))
def test_euler_inverts_expansion(u):
    # The expansion multiplies in binomial series directly, sharing nothing
    # with the recurrence that inverts it.
    series = expand_euler_product(GeneratorCounts(tuple(u)), len(u))
    assert euler_exponents(series).u == tuple(u)


def _strip_factors(coeffs):
    # Reference route: read u_n off the lowest surviving coefficient, then
    # divide (1-t^n)^(-u_n) out by multiplying in sum_j (-1)^j C(u_n, j) t^(n*j).
    a = list(coeffs)
    order = len(a) - 1
    u = []
    for n in range(1, order + 1):
        u.append(a[n])
        factor = [0] * (order + 1)
        for j in range(order // n + 1):
            factor[n * j] = (-1) ** j * comb(a[n], j)
        a = [
            sum(a[i] * factor[m - i] for i in range(m + 1)) for m in range(order + 1)
        ]
    return tuple(u)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_log_route_agrees_with_stripping(k):
    # euler_exponents reads the exponents off t*s'/s, the integer form of
    # the logarithmic derivative; stripping factors shares none of that.
    series = hilbert_series(k, 6)
    assert euler_exponents(series).u == _strip_factors(series.coeffs)


def _u(k: int, d: int) -> int:
    """u_d of the k-subsystem series: the index-d subgroup classes of the
    free group on k-1 generators."""
    return euler_exponents(hilbert_series(k, d)).u[d - 1]


def test_free_generator_count_examples():
    for d in range(1, 8):
        assert _u(2, d) == 1
    assert _u(3, 1) == 1
    assert _u(3, 2) == 3


def test_free_generator_count_matches_census():
    for d in range(1, 5):
        assert _u(3, d) == count_subgroup_classes(2, d)
    for d in range(1, 4):
        assert _u(4, d) == count_subgroup_classes(3, d)


def test_free_generator_count_matches_census_degree_five():
    assert _u(3, 5) == count_subgroup_classes(2, 5) == 97


def test_partition_count_sanity():
    # p(10) = 42 pins both the series and the enumeration.
    assert hilbert_series(2, 10)[10] == 42 == len(partitions_of(10))


def _k1_fraction_product(order):
    """The k = 1 cycle-index product, prod over i of sum over a of
    t^(i a) / (i^a a!), multiplied out in Fractions."""
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for i in range(1, order + 1):
        weights = [Fraction(1, i**a * factorial(a)) for a in range(order // i + 1)]
        coeffs = [
            sum(weights[a] * coeffs[n - i * a] for a in range(n // i + 1))
            for n in range(order + 1)
        ]
    return coeffs


def test_k1_series_is_the_fraction_product():
    for order in range(13):
        assert list(hilbert_series(1, order).coeffs) == _k1_fraction_product(order)


def test_series_work_bound():
    assert hilbert_series(12, 158)[1] == 1
    assert hilbert_series(1, 500)[500] == 1
    for k, order in [(3, 501), (3, 2000), (12, 159), (1, 501), (1, 10**9)]:
        with pytest.raises(EnumerationBoundError, match="refusing"):
            hilbert_series(k, order)
