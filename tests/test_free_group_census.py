import itertools
import math
import random
import time
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luinv import (
    EnumerationBoundError,
    conjugation_orbit_count,
    count_subgroup_classes,
    partitions_of,
    stable_dimension,
)
from luinv import free_group_census
from luinv.free_group_census import _is_transitive, orbit_representatives


def test_is_transitive_examples():
    assert _is_transitive(((0,),), 1)
    assert not _is_transitive(((0, 1),), 2)
    assert _is_transitive(((1, 0),), 2)
    assert _is_transitive(((1, 2, 0),), 3)
    assert not _is_transitive(((1, 0, 2), (0, 1, 2)), 3)
    assert _is_transitive(((1, 0, 2), (0, 2, 1)), 3)


def test_subgroup_classes_index_one():
    for rank in range(1, 4):
        assert count_subgroup_classes(rank, 1) == 1


def test_subgroup_classes_rank_one():
    # Transitive single permutations are the full cycles, one class each.
    for d in range(1, 7):
        assert count_subgroup_classes(1, d) == 1


def test_subgroup_classes_rank_two_frozen():
    assert count_subgroup_classes(2, 2) == 3
    assert [count_subgroup_classes(2, d) for d in range(1, 5)] == [1, 3, 7, 26]


def test_subgroup_classes_rank_three_frozen():
    assert [count_subgroup_classes(3, d) for d in range(1, 4)] == [1, 7, 41]


def test_orbit_count_single_permutation_gives_classes():
    for m in range(0, 7):
        assert conjugation_orbit_count(1, m) == len(partitions_of(m))


def test_orbit_count_pairs():
    assert conjugation_orbit_count(2, 2) == 4  # S_2 abelian, all pairs fixed
    assert conjugation_orbit_count(2, 3) == 11


def test_orbit_count_matches_stable_dimension():
    for m in range(0, 5):
        for j in range(0, 3):
            assert conjugation_orbit_count(j, m) == stable_dimension(j + 1, m)


def test_enumeration_bound_refused_with_estimate():
    with pytest.raises(EnumerationBoundError, match=r"373248000"):
        conjugation_orbit_count(3, 6)
    with pytest.raises(EnumerationBoundError):
        count_subgroup_classes(2, 7)


def test_enumeration_bound_check_is_cheap_for_huge_degree():
    # (10^6)!^2 is never formed: the count is abandoned once past the limit.
    start = time.perf_counter()
    with pytest.raises(EnumerationBoundError, match=r"more than \d+ permutation"):
        conjugation_orbit_count(2, 10**6)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("length", [2**63 - 1, 2**63, 10**30])
def test_enumeration_bound_check_takes_a_length_past_ssize_t(length):
    # The 2!^length factors are read lazily, so a length past a C ssize_t
    # is refused like 2^63 - 1, not with an OverflowError.
    with pytest.raises(EnumerationBoundError, match=r"more than 250000000000 permutation"):
        conjugation_orbit_count(length, 2)


def _conjugate_by(s, tup):
    """The simultaneous conjugate s p s^-1 of tup."""
    images = []
    for p in tup:
        image = [0] * len(s)
        for x, y in enumerate(p):
            image[s[x]] = s[y]
        images.append(tuple(image))
    return tuple(images)


def _conjugate_all(tup, degree):
    """Every simultaneous conjugate s p s^-1 of tup, over all s in S_degree."""
    return [_conjugate_by(s, tup) for s in itertools.permutations(range(degree))]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_orbit_representatives_count_conjugation_orbits(k):
    for m in range(5):
        reps = orbit_representatives(k, m)
        assert list(reps) == sorted(set(reps))
        assert len(reps) == conjugation_orbit_count(k, m) == stable_dimension(k + 1, m)
        for rep in reps:
            assert rep == min(_conjugate_all(rep, m))


@pytest.mark.parametrize("length,m", [(2, 5), (3, 4), (1, 8), (5, 3)])
def test_orbit_count_matches_stable_dimension_at_census_sizes(length, m):
    count = conjugation_orbit_count(length, m)
    assert count == stable_dimension(length + 1, m)
    if (length, m) == (1, 8):
        assert count == 22


def test_representatives_are_orbit_minima_at_degree_five():
    reps = orbit_representatives(2, 5)
    assert list(reps) == sorted(set(reps))
    for rep in reps:
        assert rep == min(_conjugate_all(rep, 5))


@pytest.mark.parametrize("rank,index", [(2, 4), (3, 3)])
def test_transitivity_tested_once_per_orbit(monkeypatch, rank, index):
    calls = []

    def counting(perms, degree):
        calls.append(perms)
        return _is_transitive(perms, degree)

    monkeypatch.setattr(free_group_census, "_is_transitive", counting)
    count = count_subgroup_classes(rank, index)
    reps = orbit_representatives(rank, index)
    assert calls == list(reps)
    assert count == sum(1 for rep in reps if _is_transitive(rep, index))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_transitive_representatives(rank):
    for index in range(1, 5):
        everything = orbit_representatives(rank, index)
        transitive = [rep for rep in everything if _is_transitive(rep, index)]
        assert count_subgroup_classes(rank, index) == len(transitive)
        # Conjugation preserves transitivity, so a whole orbit is transitive
        # or not, and its minimum decides.
        for rep in everything:
            assert all(_is_transitive(c, index) == (rep in transitive) for c in _conjugate_all(rep, index))


@pytest.mark.parametrize("rank,index", [(2, 4), (3, 3), (1, 6)])
def test_subgroups_and_orbits_share_one_walk(rank, index):
    orbit_representatives.cache_clear()
    count_subgroup_classes(rank, index)
    conjugation_orbit_count(rank, index)
    assert orbit_representatives.cache_info().misses == 1


def test_length_zero_lists_no_permutations(monkeypatch):
    def refuse(*args):
        raise AssertionError("permutations listed")

    monkeypatch.setattr(free_group_census, "_permutation_table", refuse)
    orbit_representatives.cache_clear()
    for degree in range(10):
        assert orbit_representatives(0, degree) == ((),)
        assert conjugation_orbit_count(0, degree) == 1
    with pytest.raises(EnumerationBoundError, match=r"3628800"):
        conjugation_orbit_count(0, 10)


def _full_walk_representatives(length, degree):
    """Orbit minima by walking every one of the degree!^length tuples, for
    length >= 1 and degree >= 2.

    A tuple is its code, the integer whose base-degree! digits are the
    lexicographic positions of its entries, so codes increase in
    lexicographic order of tuples.  Each move table, extended digit by
    digit, maps every code to the code of its conjugate by (0 1) or the
    degree-cycle; the smallest unmarked code is an orbit minimum, and its
    orbit is marked by pushing and popping codes through them.
    """
    _, moves = free_group_census._move_tables(degree)
    n = math.factorial(degree)
    images = []
    for move in moves:
        image = move
        for _ in range(length - 1):
            image = [x * n + y for x in image for y in move]
        images.append(image)
    seen = bytearray(n**length)
    reps = []
    c = seen.find(0)
    while c >= 0:
        seen[c] = 1
        stack = [c]
        while stack:
            x = stack.pop()
            for image in images:
                y = image[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
        digits = []
        rest = c
        for _ in range(length):
            rest, d = divmod(rest, n)
            digits.append(_lehmer_unrank(d, degree))
        reps.append(tuple(reversed(digits)))
        c = seen.find(0, c + 1)
    return tuple(reps)


# Every walkable size with at most 50,000 raw tuples, plus (4, 4).
_FULL_WALK_SIZES = [
    (length, degree)
    for degree in range(2, 9)
    for length in range(1, 16)
    if math.factorial(degree) ** length <= 50_000
] + [(4, 4)]


@pytest.mark.parametrize("length,degree", _FULL_WALK_SIZES)
def test_matches_full_walk(length, degree):
    assert orbit_representatives(length, degree) == _full_walk_representatives(length, degree)


@settings(deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda degree: st.tuples(
            st.just(degree),
            st.lists(st.permutations(range(degree)).map(tuple), min_size=1, max_size=4).map(tuple),
        )
    )
)
def test_every_tuple_has_its_orbit_minimum_listed(drawn):
    degree, tup = drawn
    assert min(_conjugate_all(tup, degree)) in orbit_representatives(len(tup), degree)


@pytest.mark.parametrize("length,degree", [(2, -1), (-1, 3), (-1, -1), (-1, 10**6), (0, -5)])
def test_negative_length_or_degree_is_rejected(length, degree):
    with pytest.raises(ValueError, match="need length >= 0 and degree >= 0"):
        orbit_representatives(length, degree)


@lru_cache(maxsize=None)
def _lehmer_unrank(index, degree):
    """The index-th permutation of range(degree) in lexicographic order."""
    items = list(range(degree))
    out = []
    for k in range(degree - 1, -1, -1):
        digit, index = divmod(index, math.factorial(k))
        out.append(items.pop(digit))
    return tuple(out)


def _lehmer_rank(perm):
    """Position of perm in the lexicographic order of its symmetric group."""
    degree = len(perm)
    return sum(
        sum(1 for y in perm[j + 1 :] if y < x) * math.factorial(degree - 1 - j)
        for j, x in enumerate(perm)
    )


@lru_cache(maxsize=1)
def _tables(degree):
    return free_group_census._move_tables(degree)


@pytest.mark.parametrize("degree", range(2, 10))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_move_tables_match_lehmer_oracle(degree, data):
    sub, moves = _tables(degree)
    n = math.factorial(degree)
    assert len(sub) == n // degree * (degree - 1) and all(len(move) == n for move in moves)
    generators = [(1, 0) + tuple(range(2, degree)), tuple(range(1, degree)) + (0,)]
    for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8)):
        perm = _lehmer_unrank(i, degree)
        r = i % (n // degree)
        assert tuple(sub[r * (degree - 1) : (r + 1) * (degree - 1)]) == _lehmer_unrank(r, degree - 1)
        for x in range(degree):
            assert free_group_census._column(sub, degree, x)[i] == perm[x]
        for s, move in zip(generators, moves):
            (conjugate,) = _conjugate_by(s, (perm,))
            assert move[i] == _lehmer_rank(conjugate)


@pytest.mark.parametrize("degree", range(2, 10))
def test_transposition_move_is_an_involution(degree):
    # The class walk marks a position and its conjugate by (0 1) together.
    _, (pair, _) = _tables(degree)
    assert all(pair[y] == x for x, y in enumerate(pair))


@settings(deadline=None)
@given(
    st.integers(2, 9).flatmap(
        lambda degree: st.tuples(
            st.permutations(range(degree)),
            st.lists(st.permutations(range(degree)), min_size=1, max_size=12),
        )
    )
)
def test_ranks_match_lehmer_oracle(drawn):
    s, perms = drawn
    degree = len(s)
    packed = bytes(x for p in perms for x in p)

    def column(x):
        return packed[x::degree]

    identity = bytes(range(degree))
    ranks = free_group_census._ranks(column, len(perms), identity)
    assert list(ranks) == [_lehmer_rank(p) for p in perms]
    expected = [_lehmer_rank(p) for p in _conjugate_by(s, perms)]
    assert list(free_group_census._ranks(column, len(perms), bytes(s))) == expected


def test_ranks_at_degree_one_and_ten():
    assert list(free_group_census._ranks(lambda x: bytes(1), 1, bytes(1))) == [0]
    assert list(free_group_census._ranks(lambda x: bytes(5), 5, bytes(1))) == [0] * 5
    with pytest.raises(ValueError, match="degree <= 9"):
        free_group_census._ranks(lambda x: bytes((x,)), 1, bytes(range(10)))


def test_class_walk_memory_peak():
    # Ranking the conjugates one column at a time, in 2-byte lanes, from
    # columns built from the table of S_7, keeps the traced peak of the
    # (1, 8) walk near 0.56 MiB; the whole 8! x 8 table alone is 0.31 MiB,
    # and an int and a dict entry per permutation take about 6.5 MiB.
    orbit_representatives.cache_clear()
    tracemalloc.start()
    try:
        reps = orbit_representatives(1, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reps) == len(partitions_of(8))
    assert peak <= 2**20


def _orbit_count_brute(degree: int, length: int, shuffle_seed: int) -> int:
    """Relabel-and-shuffle oracle: canonicalize each tuple by minimizing
    over every conjugation, enumerated in a shuffled order."""
    perms = list(itertools.permutations(range(degree)))
    random.Random(shuffle_seed).shuffle(perms)

    def conj(sigma, p):
        inv = [0] * degree
        for i, x in enumerate(sigma):
            inv[x] = i
        return tuple(sigma[p[inv[x]]] for x in range(degree))

    canonical = set()
    for tup in itertools.product(perms, repeat=length):
        canonical.add(min(tuple(conj(s, p) for p in tup) for s in perms))
    return len(canonical)


@pytest.mark.parametrize("degree,length", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_orbit_count_invariant_under_relabeling(degree, length):
    expected = conjugation_orbit_count(length, degree)
    for seed in (0, 1):
        assert _orbit_count_brute(degree, length, seed) == expected
