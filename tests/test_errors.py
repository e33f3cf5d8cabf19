"""The work-bound gate errors.check_work, which every product-shaped
refusal of the package goes through, and the value classes on the frozen
base errors.Frozen."""

import copy
import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import luinv
from luinv import EnumerationBoundError, IntegralityError
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


# Per value class: its arguments, arguments of an unequal object, the
# repr of the first, whether it hashes (not with an array field), and
# arguments its validation refuses, with the error.
VALUE_CLASSES = [
    ("Partition", ((2, 1),), ((3,),), "Partition(parts=(2, 1))", True, ((1, 2),), ValueError),
    ("ClassFunction", (2, (1, -1)), (2, (1, 1)), "ClassFunction(m=2, values=(1, -1))", True, (2, (1,)), ValueError),
    ("PowerSeries", (1, (1, 2)), (1, (1, 3)), "PowerSeries(order=1, coeffs=(1, 2))", True, (1, (1,)), ValueError),
    ("GeneratorCounts", ((1, 2), 3), ((1, 2),), "GeneratorCounts(u=(1, 2), k=3)", True, ((-1,),), IntegralityError),
    ("SubsetMask", (2, 3), (2, 1), "SubsetMask(k=2, bits=3)", True, (2, 4), ValueError),
    ("InvariantVector", (1, (0.5, 0.25)), (1, (0.5, 0.5)), "InvariantVector(k=1, values=(0.5, 0.25))", True,
     (1, (0.5,)), ValueError),
    ("PureState", ((1,), [1.0]), ((1,), [0.5]), "PureState(dims=(1,), coeffs=array([1.+0.j]))", False,
     ((2,), [1.0]), ValueError),
    ("DensityMatrix", ((1,), [[1.0]]), ((1,), [[0.5]]), "DensityMatrix(dims=(1,), entries=array([[1.+0.j]]))", False,
     ((1,), [[1.0, 0.0]]), ValueError),
]


@pytest.mark.parametrize(
    "name, args, other, shown, hashable, bad, error", VALUE_CLASSES, ids=[case[0] for case in VALUE_CLASSES]
)
def test_value_class_is_frozen_and_compares_by_its_fields(name, args, other, shown, hashable, bad, error):
    cls = getattr(luinv, name)
    value, same, different = cls(*args), cls(*args), cls(*other)
    field = cls.__slots__[0]
    for change in (lambda: setattr(value, field, None), lambda: delattr(value, field), lambda: setattr(value, "x", 1)):
        with pytest.raises(AttributeError):
            change()
    assert repr(value) == shown
    assert value == same and value != different
    assert value != tuple(getattr(value, f) for f in cls.__slots__)  # only within one class
    if hashable:
        assert hash(value) == hash(same) and len({value, same, different}) == 2
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    assert pickle.loads(pickle.dumps(value)) == value == copy.copy(value)
    with pytest.raises(error):
        cls(*bad)
