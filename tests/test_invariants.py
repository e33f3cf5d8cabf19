import itertools
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luinv import (
    DensityMatrix,
    EnumerationBoundError,
    InvariantVector,
    PureState,
    SubsetMask,
    all_subsets,
    eta,
    ghz_state,
    higher_invariant,
    i_from_j,
    invariant_I,
    invariant_I_vector,
    invariant_J,
    invariant_J_vector,
    j_from_i,
    meyer_wallach,
    projector,
    random_pure_state,
)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import (  # noqa: E402
    apply_local_unitaries,
    higher_basis_vector,
    permutation_contraction,
    permutation_sign,
    product_state,
    purify,
    random_density_matrix,
    random_unitary,
)

BELL_I = (0.75, 0.0, 0.0, 0.25)
BELL_J = (1.0, 0.5, 0.5, 1.0)


def _invariant_I_by_definition(psi, subset):
    """I_A from its definition: for each index-pair combination, the signed
    sum over the 2^k masks, one subset at a time."""
    k = psi.k
    coeffs = psi.coeffs
    strides = [math.prod(psi.dims[j + 1 :]) for j in range(k)]
    abits = subset.bits
    site_pairs = [[(a, b) for a in range(n) for b in range(a, n)] for n in psi.dims]
    total = 0.0
    for combo in itertools.product(*site_pairs):
        c = sum(1 for a, b in combo if a == b)
        inner = 0.0 + 0.0j
        for bmask in range(1 << k):
            idx0 = 0
            idx1 = 0
            for j in range(k):
                a, b = combo[j]
                if bmask >> j & 1:
                    idx0 += b * strides[j]
                    idx1 += a * strides[j]
                else:
                    idx0 += a * strides[j]
                    idx1 += b * strides[j]
            sign = -1.0 if (bmask & abits).bit_count() & 1 else 1.0
            inner += sign * coeffs[idx0] * coeffs[idx1]
        total += 2.0**-c * (inner.real**2 + inner.imag**2)
    return 2.0**-k * total


def _basis_vector_m2_by_definition(dims, subset, index_pairs):
    """The degree-2 basis vector from its definition: the signed pair sum
    over the 2^k row choices, symmetrized into H tensor H."""
    k = len(dims)
    n = math.prod(dims)
    strides = [math.prod(dims[j + 1 :]) for j in range(k)]
    raw = np.zeros((n, n))
    for bmask in range(1 << k):
        row0 = sum(strides[j] * index_pairs[j][bmask >> j & 1] for j in range(k))
        row1 = sum(strides[j] * index_pairs[j][1 - (bmask >> j & 1)] for j in range(k))
        sign = -1.0 if (bmask & subset.bits).bit_count() & 1 else 1.0
        raw[row0, row1] += sign
    return (raw + raw.T) / 2.0


def _higher_invariant_by_tables(psi, subset, m):
    """The higher invariant as the squared projection of psi^m onto the
    admissible basis vectors: sum over index tables (one length-m row per
    subsystem, strictly increasing on the subset's members, weakly
    elsewhere) of |<v, psi^m>|^2 / ||v||^2, using their orthogonality."""
    power = psi.coeffs
    for _ in range(m - 1):
        power = np.multiply.outer(power, psi.coeffs)
    row_choices = [
        itertools.combinations(range(n), m)
        if j in subset
        else itertools.combinations_with_replacement(range(n), m)
        for j, n in enumerate(psi.dims, start=1)
    ]
    total = 0.0
    for table in itertools.product(*row_choices):
        vec = higher_basis_vector(psi.dims, subset, m, table)
        norm_sq = float(np.vdot(vec, vec).real)
        if norm_sq == 0.0:
            continue
        overlap = np.vdot(vec, power)
        total += (overlap.real**2 + overlap.imag**2) / norm_sq
    return total


small_dims = st.lists(st.integers(1, 3), min_size=1, max_size=4).map(tuple)
seeds = st.integers(0, 2**32 - 1)


def _random_product_state(dims, seed):
    rng = np.random.default_rng(seed)
    factors = []
    for n in dims:
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        factors.append(z / np.linalg.norm(z))
    return product_state(factors)


def test_invariant_I_bell():
    bell = ghz_state(2)
    for subset, expected in zip(all_subsets(2), BELL_I):
        assert invariant_I(bell, subset) == pytest.approx(expected, abs=1e-12)


def test_invariant_I_vanishes_on_odd_subsets():
    for dims, seed in [((2, 2), 0), ((2, 3), 1), ((2, 2, 2), 2)]:
        psi = random_pure_state(dims, seed)
        for subset in all_subsets(len(dims)):
            if len(subset) % 2 == 1:
                assert abs(invariant_I(psi, subset)) < 1e-12


@settings(deadline=None, max_examples=60)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=6).map(tuple), seed=seeds)
def test_invariant_I_is_the_vector_entry(dims, seed):
    # One I_A is higher_invariant at m = 2, which drops the 1-dimensional
    # subsystems; only there do the BLAS dots sum in another order.
    psi = random_pure_state(dims, seed)
    vector = invariant_I_vector(psi)
    for subset in all_subsets(len(dims)):
        value = invariant_I(psi, subset)
        assert type(value) is float
        if len(subset) % 2:
            assert value == 0.0
        elif 1 in dims:
            assert value == pytest.approx(vector[subset], rel=1e-14, abs=0.0)
        else:
            assert value == vector[subset]


def test_invariant_I_product_state():
    psi = _random_product_state((2, 2, 2), seed=3)
    for subset in all_subsets(3):
        expected = 1.0 if len(subset) == 0 else 0.0
        assert invariant_I(psi, subset) == pytest.approx(expected, abs=1e-9)


def test_invariant_I_sums_to_one():
    for dims, seed in [((2, 2), 4), ((3, 3), 5), ((2, 2, 2), 6)]:
        psi = random_pure_state(dims, seed)
        total = sum(invariant_I(psi, s) for s in all_subsets(len(dims)))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_invariant_I_degree_four_homogeneity():
    psi = random_pure_state((2, 2), seed=7)
    scaled = type(psi)((2, 2), 1.3j * psi.coeffs)
    for subset in all_subsets(2):
        assert invariant_I(scaled, subset) == pytest.approx(
            1.3**4 * invariant_I(psi, subset), abs=1e-10
        )


@settings(deadline=None, max_examples=40)
@given(dims=small_dims, seed=seeds)
def test_I_vector_matches_definition(dims, seed):
    psi = random_pure_state(dims, seed)
    vector = invariant_I_vector(psi)
    for subset in all_subsets(len(dims)):
        assert abs(vector[subset] - _invariant_I_by_definition(psi, subset)) < 1e-12


@settings(deadline=None, max_examples=40)
@given(dims=small_dims, seed=seeds)
def test_I_vector_lu_invariant(dims, seed):
    psi = random_pure_state(dims, seed)
    us = [random_unitary(n, seed=[seed, j]) for j, n in enumerate(dims)]
    before = np.array(invariant_I_vector(psi).values)
    after = np.array(invariant_I_vector(apply_local_unitaries(psi, us)).values)
    assert np.abs(before - after).max() < 1e-12


def test_I_vector_refuses_large_states():
    # Past I_TABLE_BOUND = 2^21 entries of the projection kernel at m = 2,
    # n^2 (1 + 1/n_min) or 2^k: 6,291,456 for eleven qubits, 2,098,152 for
    # (1448,), 2^22 for (1,)*22; see test_I_vector_admits_the_edge.
    for dims in [(2,) * 12, (2,) * 11, (1448,), (1,) * 22]:
        psi = PureState(dims, np.ones(math.prod(dims)))
        with pytest.raises(EnumerationBoundError, match="projection kernel"):
            invariant_I_vector(psi)


def test_I_vector_admits_the_edge():
    # 1,572,864 for ten qubits, 2,095,256 for (1447,), 2^21 for (1,)*21;
    # nine qubits and seven qubits and a qutrit were refused by the count
    # of the deleted pair table, prod n_j(n_j+1)/2 * 2^k.
    for dims in [(2,) * 9, (2,) * 7 + (3,), (2,) * 10, (1447,), (1,) * 21]:
        vector = invariant_I_vector(random_pure_state(dims, seed=29))
        assert sum(vector.values) == pytest.approx(1.0, abs=1e-9)


def test_I_vector_is_exact_on_integers():
    psi = PureState((3, 1, 2), np.arange(6) + 1j)
    assert invariant_I_vector(psi).values == (3697.0, 0, 0, 0, 0, 24.0, 0, 0)


def test_invariant_J_examples():
    bell_rho = projector(ghz_state(2))
    for subset, expected in zip(all_subsets(2), BELL_J):
        assert invariant_J(bell_rho, subset) == pytest.approx(expected, abs=1e-12)
    rho = random_density_matrix((2, 3), seed=8)
    full = SubsetMask.of(2, [1, 2])
    assert invariant_J(rho, full) == pytest.approx(rho.trace() ** 2, abs=1e-12)
    psi = random_pure_state((2, 3), seed=9)
    assert invariant_J(projector(psi), SubsetMask.of(2, [])) == pytest.approx(
        1.0, abs=1e-12
    )


@settings(deadline=None, max_examples=40)
@given(dims=small_dims, seed=seeds)
def test_J_vector_matches_single_traces(dims, seed):
    # invariant_J takes one partial trace per subset: the J-vector's oracle.
    rho = random_density_matrix(dims, seed)
    jvec = invariant_J_vector(rho)
    for subset in all_subsets(len(dims)):
        assert jvec[subset] == pytest.approx(invariant_J(rho, subset), abs=1e-12)


def test_J_vector_admission_edge():
    # prod (n_j^2 + 1) entries against I_TABLE_BOUND = 2^21: 2^21 for
    # (1,)*21 and 5^9 = 1,953,125 for nine qubits fit; 5^10 for ten qubits
    # and 1449^2 + 1 = 2,099,602 do not.
    ones = invariant_J_vector(DensityMatrix((1,) * 21, np.ones((1, 1))))
    assert set(ones.values) == {1.0}
    nine = invariant_J_vector(projector(random_pure_state((2,) * 9, seed=32)))
    assert nine[0] == pytest.approx(1.0) and nine[(1 << 9) - 1] == pytest.approx(1.0)
    with pytest.raises(EnumerationBoundError):
        invariant_J_vector(projector(random_pure_state((2,) * 10, seed=33)))
    with pytest.raises(EnumerationBoundError):
        invariant_J_vector(DensityMatrix((1449,), np.eye(1449) / 1449))


def test_transform_bell_and_indicator():
    bell_ivec = InvariantVector(2, BELL_I)
    assert j_from_i(bell_ivec).values == pytest.approx(BELL_J)
    assert i_from_j(InvariantVector(2, BELL_J)).values == pytest.approx(BELL_I)
    indicator = InvariantVector(3, (1,) + (0,) * 7)
    assert j_from_i(indicator).values == (1,) * 8


def test_transform_roundtrip_random():
    rng = np.random.default_rng(10)
    for k in (1, 2, 3, 4):
        vec = InvariantVector(k, tuple(rng.standard_normal(1 << k)))
        back = i_from_j(j_from_i(vec))
        assert np.abs(np.array(back.values) - np.array(vec.values)).max() < 1e-12


exact_values = st.one_of(
    st.integers(-(10**9), 10**9),
    st.fractions(min_value=-100, max_value=100, max_denominator=10**6),
)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 5).flatmap(
        lambda k: st.lists(exact_values, min_size=1 << k, max_size=1 << k)
    )
)
def test_transform_roundtrip_is_exact(values):
    vec = InvariantVector((len(values) - 1).bit_length(), tuple(values))
    assert i_from_j(j_from_i(vec)).values == vec.values


@settings(deadline=None, max_examples=40)
@given(dims=small_dims, seed=seeds)
def test_j_from_i_matches_purities(dims, seed):
    psi = random_pure_state(dims, seed)
    forward = j_from_i(invariant_I_vector(psi)).values
    jvec = invariant_J_vector(projector(psi)).values
    assert np.abs(np.array(forward) - np.array(jvec)).max() < 1e-12


def _object_butterfly(values):
    """The Walsh-Hadamard butterfly over Python objects, one pair at a time."""
    out = list(values)
    half = 1
    while half < len(out):
        for start in range(0, len(out), 2 * half):
            for i in range(start, start + half):
                out[i], out[i + half] = out[i] + out[i + half], out[i] - out[i + half]
        half *= 2
    return out


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


@settings(deadline=None, max_examples=40)
@given(k=st.integers(0, 10), seed=seeds)
def test_float_transform_matches_object_butterfly(k, seed):
    # Float input runs in float64, bit for bit what Python floats give.
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal(1 << k) * 10.0 ** rng.integers(-8, 9, 1 << k)).tolist()
    forward = j_from_i(InvariantVector(k, tuple(values))).values
    backward = i_from_j(InvariantVector(k, tuple(values))).values
    assert all(type(v) is float for v in forward + backward)
    assert _bits(forward) == _bits(_object_butterfly(values))
    assert _bits(backward) == _bits([v / 2**k for v in _object_butterfly(values)])


def test_transform_keeps_input_types():
    ints = InvariantVector(2, (1, 2, 3, 4))
    assert j_from_i(ints).values == (10, -2, -4, 0)
    assert all(type(v) is int for v in j_from_i(ints).values)
    halves = (Fraction(5, 2), Fraction(-1, 2), Fraction(-1), Fraction(0))
    assert i_from_j(ints).values == halves
    assert all(type(v) is Fraction for v in i_from_j(ints).values)
    mixed = InvariantVector(2, (1, 2.5, 3, 4))
    assert j_from_i(mixed).values == (10.5, -2.5, -3.5, -0.5)
    assert i_from_j(mixed).values == (2.625, -0.625, -0.875, -0.125)
    for vec in (j_from_i(mixed), i_from_j(mixed)):
        assert all(type(v) is float for v in vec.values)
    # Numpy floats count as floats and come back as Python floats.
    numpy_floats = InvariantVector(1, (np.float64(1.5), np.float64(0.5)))
    assert [type(v) for v in i_from_j(numpy_floats).values] == [float, float]


def test_transform_exact_on_rationals():
    vec = InvariantVector(2, (Fraction(3, 4), Fraction(0), Fraction(0), Fraction(1, 4)))
    assert j_from_i(vec).values == (1, Fraction(1, 2), Fraction(1, 2), 1)
    assert i_from_j(j_from_i(vec)).values == vec.values


def test_transform_size_mismatch():
    with pytest.raises(ValueError):
        InvariantVector(2, (1.0, 0.0))


def test_transform_consistency_on_states():
    for dims, seed in [((2, 2), 11), ((3, 3), 12), ((2, 2, 2), 13)]:
        psi = random_pure_state(dims, seed)
        ivec = invariant_I_vector(psi)
        jvec = invariant_J_vector(projector(psi))
        forward = np.array(j_from_i(ivec).values) - np.array(jvec.values)
        backward = np.array(i_from_j(jvec).values) - np.array(ivec.values)
        assert np.abs(forward).max() < 1e-9
        assert np.abs(backward).max() < 1e-9


def test_eta_examples():
    bell_rho = projector(ghz_state(2))
    assert eta(bell_rho, SubsetMask.of(2, [1])) == pytest.approx(1.0, abs=1e-9)
    prod = projector(_random_product_state((2, 2, 2), seed=14))
    for subset in all_subsets(3):
        if 0 < len(subset) < 3:
            assert eta(prod, subset) == pytest.approx(0.0, abs=1e-9)
    mixed = projector(ghz_state(2))
    maximally_mixed = type(mixed)((2, 2), np.eye(4) / 4)
    assert eta(maximally_mixed, SubsetMask.of(2, [1])) == pytest.approx(1.0)


def test_eta_rejects_empty_and_full():
    rho = projector(ghz_state(2))
    with pytest.raises(ValueError):
        eta(rho, SubsetMask.of(2, []))
    with pytest.raises(ValueError):
        eta(rho, SubsetMask.of(2, [1, 2]))
    unnormalized = type(rho)((2, 2), 2.0 * rho.entries)
    with pytest.raises(ValueError):
        eta(unnormalized, SubsetMask.of(2, [1]))


def test_meyer_wallach_examples():
    for k in range(2, 6):
        assert meyer_wallach(ghz_state(k)) == pytest.approx(1.0, abs=1e-9)
        prod = _random_product_state((2,) * k, seed=15 + k)
        assert meyer_wallach(prod) == pytest.approx(0.0, abs=1e-9)
    assert meyer_wallach(ghz_state(2)) == pytest.approx(1.0, abs=1e-9)


def test_meyer_wallach_requires_normalization():
    psi = ghz_state(2)
    doubled = type(psi)((2, 2), 2.0 * psi.coeffs)
    with pytest.raises(ValueError):
        meyer_wallach(doubled)


def test_meyer_wallach_refuses_no_subsystems():
    with pytest.raises(ValueError, match="at least one subsystem"):
        meyer_wallach(PureState((), np.ones(1)))


@settings(deadline=None, max_examples=60)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=5).map(tuple), seed=seeds)
def test_meyer_wallach_is_the_weighted_I_vector_sum(dims, seed):
    # Q = 2 - (2/k) sum_i J_{i} = sum over A of (4|A|/k) I_A, by the I/J
    # transform: the I-vector is Q's oracle, independent of the J traces.
    psi = random_pure_state(dims, seed)
    values = invariant_I_vector(psi).values
    expected = sum(4.0 * bits.bit_count() / psi.k * value for bits, value in enumerate(values))
    q = meyer_wallach(psi)
    assert q == pytest.approx(expected, abs=1e-12)
    assert q >= -1e-12


def test_meyer_wallach_is_bounded_by_the_projector():
    # Q builds psi psi*, refused past PROJECTOR_ENTRY_BOUND = 2^22 entries:
    # 2048^2 fits, 2049^2 and 4096^2 do not.  1-dimensional subsystems have
    # J_{i} = 1, so they scale Q by k'/k, and are dropped before any trace:
    # one trace per subsystem, each over all k labels, would take O(k^2).
    for dims in [(2,) * 11, (2048,)]:
        psi = random_pure_state(dims, seed=37)
        assert 0.0 <= meyer_wallach(psi) + 1e-12 <= 2.0
    for k in (22, 100_000):
        assert meyer_wallach(PureState((1,) * k, np.ones(1))) == 0.0
    two = random_pure_state((2, 2), seed=38)
    wide = PureState((1,) * 21 + (2, 2), two.coeffs)
    assert meyer_wallach(wide) == pytest.approx(2 / 23 * meyer_wallach(two), rel=1e-12)
    for dims in [(2,) * 12, (2049,)]:
        psi = PureState(dims, np.ones(math.prod(dims))).normalized()
        with pytest.raises(EnumerationBoundError, match="projector"):
            meyer_wallach(psi)


def test_lu_invariance_of_I_and_J():
    psi = random_pure_state((2, 2, 2), seed=16)
    us = [random_unitary(2, seed=30 + i) for i in range(3)]
    rotated = apply_local_unitaries(psi, us)
    for subset in all_subsets(3):
        assert invariant_I(rotated, subset) == pytest.approx(
            invariant_I(psi, subset), abs=1e-9
        )
        assert invariant_J(projector(rotated), subset) == pytest.approx(
            invariant_J(projector(psi), subset), abs=1e-9
        )


def test_purification_compatibility():
    for dims, seed in [((2, 2), 17), ((2, 3), 18)]:
        rho = random_density_matrix(dims, seed)
        psi = purify(rho)
        k = len(dims)
        kplus = psi.k
        pure_rho = projector(psi)
        for subset in all_subsets(k):
            expected = invariant_J(rho, subset)
            with_env = SubsetMask.of(kplus, sorted(subset.members) + [kplus])
            complement = SubsetMask.of(
                kplus, set(range(1, k + 1)) - subset.members
            )
            assert invariant_J(pure_rho, with_env) == pytest.approx(
                expected, abs=1e-9
            )
            assert invariant_J(pure_rho, complement) == pytest.approx(
                expected, abs=1e-9
            )


def test_basis_vector_m2_norms_single_site():
    v = higher_basis_vector((3,), SubsetMask.of(1, []), 2, [(0, 1)])
    assert np.vdot(v, v).real == pytest.approx(2.0)
    v = higher_basis_vector((3,), SubsetMask.of(1, []), 2, [(1, 1)])
    assert np.vdot(v, v).real == pytest.approx(4.0)


def test_basis_vector_m2_orthogonality():
    dims = (2, 2)
    subset = SubsetMask.of(2, [])
    pairs = list(itertools.product([(0, 0), (0, 1), (1, 1)], repeat=2))
    vectors = [higher_basis_vector(dims, subset, 2, p) for p in pairs]
    for i, v in enumerate(vectors):
        for w in vectors[i + 1 :]:
            assert abs(np.vdot(v, w)) < 1e-12


def test_basis_vector_m2_admissibility():
    with pytest.raises(ValueError):
        higher_basis_vector((2, 2), SubsetMask.of(2, [1]), 2, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        higher_basis_vector((2, 2), SubsetMask.of(2, []), 2, [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        higher_basis_vector((2, 2), SubsetMask.of(2, []), 2, [(0, 2), (0, 1)])
    with pytest.raises(ValueError, match="even size"):
        higher_basis_vector((2, 2), SubsetMask.of(2, [1]), 2, [(0, 1), (0, 0)])


def test_higher_basis_vector_matches_m2():
    for dims in [(2, 3), (2, 2, 2)]:
        k = len(dims)
        for subset in all_subsets(k):
            if len(subset) % 2:
                continue
            site_pairs = [
                list(itertools.combinations(range(n), 2))
                if j in subset
                else list(itertools.combinations_with_replacement(range(n), 2))
                for j, n in enumerate(dims, start=1)
            ]
            for pairs in itertools.product(*site_pairs):
                reference = _basis_vector_m2_by_definition(dims, subset, pairs)
                assert np.abs(reference).max() > 0
                hv = higher_basis_vector(dims, subset, 2, pairs)
                assert np.array_equal(hv, reference)


def test_higher_basis_vector_monomial():
    v = higher_basis_vector((2, 2), SubsetMask.of(2, []), 3, [(0, 0, 0), (1, 1, 1)])
    nz = np.nonzero(v)
    assert len(nz[0]) == 1
    assert v[1, 1, 1] != 0.0  # flat index of e_{01} repeated


def test_higher_basis_vector_orthogonality_m3():
    dims = (3, 3)
    vectors = []
    for subset in [SubsetMask.of(2, []), SubsetMask.of(2, [1, 2])]:
        strict = [j in subset for j in (1, 2)]
        rows = [
            list(itertools.combinations(range(3), 3))
            if s
            else list(itertools.combinations_with_replacement(range(3), 3))
            for s in strict
        ]
        for table in itertools.product(*rows):
            vectors.append(higher_basis_vector(dims, subset, 3, table))
    gram_off = 0.0
    for i, v in enumerate(vectors):
        for w in vectors[i + 1 :]:
            gram_off = max(gram_off, abs(np.vdot(v, w)))
    assert gram_off < 1e-12
    assert len(vectors) == 101


def test_higher_basis_vector_validation():
    with pytest.raises(ValueError):
        higher_basis_vector((2, 2), SubsetMask.of(2, [1]), 2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        higher_basis_vector((2, 2), SubsetMask.of(2, []), 2, [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        higher_basis_vector(
            (2, 2), SubsetMask.of(2, [1, 2]), 2, [(0, 0), (0, 1)]
        )


def test_higher_basis_vector_work_bound():
    # One qubit at m = 7 would write (7!)^2 entries; (40, 40) at m = 2
    # would allocate 1600^2.
    for m in (7, 8):
        with pytest.raises(EnumerationBoundError):
            higher_basis_vector((2,), SubsetMask.of(1, []), m, [(0,) * m])
    with pytest.raises(EnumerationBoundError):
        higher_basis_vector((40, 40), SubsetMask.of(2, []), 2, [(0, 0), (0, 0)])


def test_higher_invariant_matches_tables():
    for dims in [(2, 2), (2, 3), (3, 3), (2, 2, 2)]:
        psi = random_pure_state(dims, seed=5)
        for subset in all_subsets(len(dims)):
            if len(subset) % 2:
                continue
            for m in (1, 2, 3):
                assert abs(
                    higher_invariant(psi, subset, m)
                    - _higher_invariant_by_tables(psi, subset, m)
                ) < 1e-12


@settings(deadline=None, max_examples=40)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple),
    m=st.integers(1, 3),
    seed=seeds,
)
def test_higher_invariant_is_signed_contraction_sum(dims, m, seed):
    # (m!)^-k sum over S_m^k of prod_{j in A} sgn(pi_j) contraction(pi).
    psi = random_pure_state(dims, seed)
    k = len(dims)
    perms = list(itertools.permutations(range(m)))
    signs = {p: permutation_sign(p) for p in perms}
    terms = [
        (pis, permutation_contraction(psi, pis))
        for pis in itertools.product(perms, repeat=k)
    ]
    for subset in all_subsets(k):
        if len(subset) % 2:
            continue
        total = 0.0
        for pis, value in terms:
            sign = math.prod(signs[pis[j - 1]] for j in subset)
            total += sign * value.real
        expected = total / math.factorial(m) ** k
        assert abs(higher_invariant(psi, subset, m) - expected) < 1e-12


def test_higher_invariant_ghz_anchor():
    # GHZ_k: psi^m projects onto the product of one Dicke state per
    # Hamming weight w, so the invariant is 2^-m sum_w C(m,w)^(2-k).  Five
    # qubits at m = 4 is the one case past the kernel's count: 5 * 4 * 3 *
    # 2 * 16^4 = 7,864,320 entries.
    for k in range(2, 6):
        for m in range(1, 5):
            empty = SubsetMask.of(k, [])
            if (k, m) == (5, 4):
                with pytest.raises(EnumerationBoundError):
                    higher_invariant(ghz_state(k), empty, m)
                continue
            expected = 2.0**-m * sum(
                Fraction(math.comb(m, w)) ** (2 - k) for w in range(m + 1)
            )
            assert higher_invariant(ghz_state(k), empty, m) == pytest.approx(
                float(expected), abs=1e-12
            )


def test_kernel_count_only_relaxes_the_two_old_rules():
    # _check_kernel refuses exactly when max(n_min (n_min + 1) ... (n_min +
    # m - 1) (n / n_min)^m, 2^k) exceeds I_TABLE_BOUND.  That count never
    # exceeds either rule it replaced: prod n_j(n_j+1)/2 * 2^k of the
    # I-vector at m = 2, and k * m! * n^m of higher_invariant, whose dims
    # have no 1 (HIGHER_WORK_BOUND was 10^6 < I_TABLE_BOUND).  The one
    # exception is no dims at all, counted m! = 2 at m = 2 against 1.
    from luinv.invariants import I_TABLE_BOUND, _check_kernel

    entries = (1, 2, 3, 5, 1447, 1448)
    for k in range(9):
        for dims in itertools.combinations_with_replacement(entries, k):
            n = math.prod(dims)
            if k > 1 and n > 5000:
                continue
            low = min(dims, default=1)
            for m in range(2, 8):
                count = max(math.prod(range(low, low + m)) * (n // low) ** m, 2**k)
                if count > I_TABLE_BOUND:
                    with pytest.raises(EnumerationBoundError, match="projection kernel"):
                        _check_kernel(dims, m)
                else:
                    _check_kernel(dims, m)
                if m == 2 and k:
                    assert count <= math.prod(a * (a + 1) // 2 for a in dims) * 2**k
                if low > 1:
                    assert count <= k * math.factorial(m) * n**m


def test_higher_invariant_matches_I_at_m2():
    for dims, seed in [
        ((2, 2), 19), ((3, 3), 20), ((2, 2, 2), 21), ((2, 3), 22), ((5, 5, 5), 27),
        ((1, 4, 2), 30), ((2,) * 5, 31),
    ]:
        psi = random_pure_state(dims, seed)
        vector = invariant_I_vector(psi)
        for subset in all_subsets(len(dims)):
            if len(subset) % 2:
                continue
            assert higher_invariant(psi, subset, 2) == pytest.approx(vector[subset], abs=1e-9)


def test_higher_invariant_m1_is_norm():
    psi = random_pure_state((2, 3), seed=23)
    scaled = type(psi)((2, 3), 1.7 * psi.coeffs)
    assert higher_invariant(scaled, SubsetMask.of(2, []), 1) == pytest.approx(
        scaled.norm_squared(), abs=1e-9
    )
    # m = 1 needs no kernel; one value per subset would need 2^30 entries.
    fifteen = random_pure_state((2,) * 15, seed=34)
    assert higher_invariant(fifteen, SubsetMask.of(15, [1, 2]), 1) == pytest.approx(1.0)


def test_higher_invariant_drops_one_dimensional_subsystems():
    # A 1-dimensional subsystem adds nothing at m >= 2 (the antisymmetrizer
    # vanishes there), so forty of them give one value, not 2^40.
    psi = random_pure_state((2, 3), seed=35)
    padded = PureState((1, 2, 1, 3) + (1,) * 40, psi.coeffs)
    for m in (2, 3):
        assert higher_invariant(padded, SubsetMask.of(44, [2, 4]), m) == pytest.approx(
            higher_invariant(psi, SubsetMask.of(2, [1, 2]), m), abs=1e-12
        )
        assert higher_invariant(padded, SubsetMask.of(44, [1, 2]), m) == 0.0


def test_higher_invariant_m3_sum_bound():
    psi = random_pure_state((3, 3), seed=24)
    total = sum(
        higher_invariant(psi, s, 3) for s in all_subsets(2) if len(s) % 2 == 0
    )
    assert total <= psi.norm_squared() ** 3 + 1e-9


def test_higher_invariant_lu_invariance():
    psi = random_pure_state((3, 3), seed=25)
    us = [random_unitary(3, seed=40 + i) for i in range(2)]
    rotated = apply_local_unitaries(psi, us)
    for subset in [SubsetMask.of(2, []), SubsetMask.of(2, [1, 2])]:
        assert higher_invariant(rotated, subset, 3) == pytest.approx(
            higher_invariant(psi, subset, 3), abs=1e-9
        )


def test_higher_invariant_validation():
    psi = random_pure_state((2, 2), seed=26)
    with pytest.raises(ValueError):
        higher_invariant(psi, SubsetMask.of(2, [1]), 2)
    with pytest.raises(ValueError):
        higher_invariant(psi, SubsetMask.of(2, []), 0)
    # The kernel's largest gather, n_min (n_min + 1) ... (n_min + m - 1)
    # (n / n_min)^m entries: a huge m is refused within a few factors, (2, 3)
    # at m = 6 at 3,674,160 and five qubits at m = 4 at 7,864,320; (2, 3) at
    # m = 5 (174,960) and four qubits at m = 4 (491,520) run.
    for m in (10**6, 2**63):
        with pytest.raises(EnumerationBoundError):
            higher_invariant(psi, SubsetMask.of(2, []), m)
    qubit_qutrit = random_pure_state((2, 3), seed=28)
    assert 0.0 <= higher_invariant(qubit_qutrit, SubsetMask.of(2, []), 5) <= 1.0 + 1e-12
    with pytest.raises(EnumerationBoundError):
        higher_invariant(qubit_qutrit, SubsetMask.of(2, []), 6)
    four = random_pure_state((2, 2, 2, 2), seed=27)
    assert 0.0 <= higher_invariant(four, SubsetMask.of(4, []), 4) <= 1.0 + 1e-12
    five = random_pure_state((2,) * 5, seed=27)
    with pytest.raises(EnumerationBoundError):
        higher_invariant(five, SubsetMask.of(5, []), 4)
