"""The work-bound gate errors.check_work, which every product-shaped
refusal of the package goes through."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luinv import EnumerationBoundError
from luinv.errors import check_work

FACTORS = st.one_of(
    st.sampled_from([0, 1]),
    st.integers(min_value=0, max_value=10**4),
    st.integers(min_value=10**9, max_value=10**40),  # far above limit**2
)


@settings(deadline=None, max_examples=300)
@given(limit=st.integers(min_value=1, max_value=10**4), factors=st.lists(FACTORS, max_size=8))
def test_check_work_raises_exactly_past_the_limit(limit, factors):
    prefixes = list(itertools.accumulate(factors, lambda a, b: a * b))
    given_up = next((i for i, count in enumerate(prefixes) if count > limit**2), None)
    read = []

    def reading():
        for factor in factors:
            read.append(factor)
            yield factor

    if given_up is None and math.prod(factors) <= limit:
        check_work(reading(), limit, "refusing {} units")
        assert read == factors
        return
    with pytest.raises(EnumerationBoundError) as info:
        check_work(reading(), limit, "refusing {} units")
    if given_up is None:
        assert str(info.value) == f"refusing {math.prod(factors)} units"
        assert read == factors
    else:
        # Given up at the first count past limit**2: nothing after it is read,
        # so the refusal is exact unless a 0 comes later.
        assert str(info.value) == f"refusing more than {limit**2} units"
        assert read == factors[: given_up + 1]
        assert math.prod(factors) > limit or 0 in factors[given_up + 1 :]


def test_check_work_reads_a_zero_only_before_the_give_up():
    check_work([0, 10**30], 10, "{}")
    check_work([10**30, 0], 10**15, "{}")  # 10**30 is not past limit**2
    with pytest.raises(EnumerationBoundError, match=r"^more than 100$"):
        check_work([10**30, 0], 10, "{}")
    with pytest.raises(EnumerationBoundError, match=r"^11 \(limit 10\)$"):
        check_work([11], 10, "{} (limit 10)")
    check_work([], 1, "{}")  # the empty product is 1


def test_check_work_gives_up_on_an_endless_product():
    with pytest.raises(EnumerationBoundError, match="more than 1000000"):
        check_work(itertools.repeat(2), 1000, "{}")
