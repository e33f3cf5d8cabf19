import operator

import pytest

from luinv import SubsetMask, all_subsets
from luinv.subsets import subset_labels


def _reference(k: int, bits: int) -> frozenset[int]:
    return frozenset(j for j in range(1, k + 1) if bits >> (j - 1) & 1)


@pytest.mark.parametrize("k", range(6))
def test_mask_matches_frozenset_reference(k):
    labels = subset_labels(k)
    assert len(labels) == 1 << k
    for bits in range(1 << k):
        members = _reference(k, bits)
        subset = SubsetMask(k, bits)
        of = SubsetMask.of(k, sorted(members, reverse=True))
        assert of == subset and hash(of) == hash(subset)
        assert (subset.k, subset.bits, operator.index(subset)) == (k, bits, bits)
        assert frozenset(subset) == members
        assert len(subset) == len(members)
        assert list(subset) == sorted(members)
        assert [j in subset for j in range(-1, k + 3)] == [j in members for j in range(-1, k + 3)]
        assert subset.is_full() == (members == frozenset(range(1, k + 1)))
        assert str(subset) == labels[bits] == "(" + ",".join(str(j) for j in sorted(members)) + ")"


def test_all_subsets_in_binary_order():
    assert [s.bits for s in all_subsets(4)] == list(range(16))
    assert all_subsets(0) == [SubsetMask.of(0)]


def test_of_rejects_labels_out_of_range():
    for k in range(4):
        for bad in (0, k + 1, -1):
            with pytest.raises(ValueError, match=rf"members \[.*{bad}.*\] not within 1\.\.{k}"):
                SubsetMask.of(k, [bad])
    with pytest.raises(ValueError, match=r"members \[0, 1, 2\] not within 1\.\.2"):
        SubsetMask.of(2, [2, 1, 0, 1])
    with pytest.raises(ValueError, match="k must be nonnegative"):
        SubsetMask.of(-1)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        SubsetMask(-1, 0)


def test_from_bits_rejects_masks_out_of_range():
    for k, bits in [(2, 4), (2, -1), (2, 5), (0, 1), (3, 1 << 40)]:
        with pytest.raises(ValueError, match="not within 0\\.\\."):
            SubsetMask.from_bits(k, bits)
    assert SubsetMask.from_bits(2, 3).is_full()
