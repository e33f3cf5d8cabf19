import itertools
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luinv import (
    DensityMatrix,
    EnumerationBoundError,
    PureState,
    SubsetMask,
    ghz_state,
    invariant_space_rank,
    partial_trace,
    projector,
    random_pure_state,
    read_state_file,
    restricted_dimension,
    stable_dimension,
    write_state_file,
)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import (  # noqa: E402
    apply_local_unitaries,
    gathered_contractions,
    permutation_contraction,
    product_state,
    purify,
    random_density_matrix,
    random_unitary,
    svd_rank,
)


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState((2, 2), np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        PureState((0,), np.zeros(1, dtype=complex))
    psi = PureState((2,), np.array([3.0, 4.0j]))
    assert psi.norm_squared() == pytest.approx(25.0)


def test_density_matrix_requires_hermitian():
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.array([[0.0, 1.0], [0.0, 0.0]]))
    DensityMatrix((2,), np.array([[0.5, 0.1j], [-0.1j, 0.5]]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
def test_density_matrix_rejects_non_finite_entries(bad):
    # A NaN diagonal entry would pass the Hermiticity test (nan > tol is False).
    entries = np.eye(4, dtype=complex) / 4
    entries[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix((2, 2), entries)


def test_validate_physical():
    good = random_density_matrix((2, 2), seed=0)
    good.validate_physical()
    bad = DensityMatrix((2,), np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        bad.validate_physical()


def test_projector_examples():
    e0 = PureState((2,), np.array([1.0, 0.0]))
    assert np.allclose(projector(e0).entries, np.diag([1.0, 0.0]))
    psi = random_pure_state((2, 3), seed=1)
    assert projector(psi).trace() == pytest.approx(psi.norm_squared())
    bell = projector(ghz_state(2))
    expected = np.zeros((4, 4))
    expected[np.ix_([0, 3], [0, 3])] = 0.5
    assert np.allclose(bell.entries, expected)


def test_projector_idempotent_up_to_scale():
    psi = random_pure_state((2, 2, 3), seed=2)
    m = projector(psi).entries
    assert np.abs(m @ m - psi.norm_squared() * m).max() < 1e-10


def test_partial_trace_trivial_cases():
    rho = random_density_matrix((2, 3), seed=3)
    assert partial_trace(rho, SubsetMask.of(2, [])) is rho
    full = partial_trace(rho, SubsetMask.of(2, [1, 2]))
    assert full.dims == ()
    assert np.allclose(full.entries, [[1.0]])


def test_partial_trace_bell():
    reduced = partial_trace(projector(ghz_state(2)), SubsetMask.of(2, [2]))
    assert reduced.dims == (2,)
    assert np.abs(reduced.entries - 0.5 * np.eye(2)).max() < 1e-12


def test_partial_trace_preserves_trace():
    rho = random_density_matrix((2, 2, 3), seed=4)
    for bits in range(8):
        traced = SubsetMask(3, bits)
        assert partial_trace(rho, traced).trace() == pytest.approx(
            rho.trace(), abs=1e-12
        )


def test_partial_trace_composition():
    rho = random_density_matrix((2, 3, 2), seed=5)
    # Trace out {2}, then what was subsystem 3 (now labeled 2).
    step1 = partial_trace(rho, SubsetMask.of(3, [2]))
    step2 = partial_trace(step1, SubsetMask.of(2, [2]))
    direct = partial_trace(rho, SubsetMask.of(3, [2, 3]))
    assert np.abs(step2.entries - direct.entries).max() < 1e-12


def test_partial_trace_rejects_bad_labels():
    rho = random_density_matrix((2, 2), seed=6)
    # Labels out of range are refused by the subset itself.
    with pytest.raises(ValueError):
        partial_trace(rho, SubsetMask.of(2, [3]))
    with pytest.raises(ValueError):
        partial_trace(rho, SubsetMask.of(3, [3]))


def _trace_axis_by_axis(rho: DensityMatrix, traced: SubsetMask) -> np.ndarray:
    tensor = rho.entries.reshape(rho.dims * 2)
    for j in sorted(traced, reverse=True):  # highest label first keeps the lower axes
        tensor = np.trace(tensor, axis1=j - 1, axis2=j - 1 + tensor.ndim // 2)
    side = math.prod(tensor.shape[: tensor.ndim // 2])
    return tensor.reshape(side, side)


def test_partial_trace_matches_axis_by_axis_trace():
    for dims in [(2, 1, 3), (1, 2, 1, 2), (3, 1), (1, 1)]:
        rho = random_density_matrix(dims, seed=len(dims))
        for bits in range(1 << len(dims)):
            traced = SubsetMask(len(dims), bits)
            reduced = partial_trace(rho, traced)
            assert reduced.dims == tuple(n for j, n in enumerate(dims, 1) if j not in traced)
            assert np.abs(reduced.entries - _trace_axis_by_axis(rho, traced)).max() < 1e-12


def test_partial_trace_past_26_subsystems_of_dimension_one():
    # 29 one-dimensional subsystems and a qubit: the einsum labels only the qubit.
    rho = projector(PureState((1,) * 29 + (2,), np.array([0.6, 0.8])))
    kept = partial_trace(rho, SubsetMask.of(30, [30]))
    assert kept.dims == (1,) * 29
    assert np.abs(kept.entries - 1.0).max() < 1e-12
    qubit = partial_trace(rho, SubsetMask.of(30, range(1, 30)))
    assert qubit.dims == (2,)
    assert np.abs(qubit.entries - [[0.36, 0.48], [0.48, 0.64]]).max() < 1e-12


def test_purify_pure_state_has_trivial_environment():
    phi = random_pure_state((2, 2), seed=7)
    psi = purify(projector(phi))
    assert psi.dims == (2, 2, 1)
    assert np.abs(np.abs(np.vdot(psi.coeffs, phi.coeffs)) - 1.0) < 1e-10


def test_purify_maximally_mixed():
    rho = DensityMatrix((2,), 0.5 * np.eye(2))
    psi = purify(rho)
    assert psi.dims == (2, 2)
    back = partial_trace(projector(psi), SubsetMask.of(2, [2]))
    assert np.abs(back.entries - rho.entries).max() < 1e-10


def test_purify_preserves_trace():
    rho = random_density_matrix((2, 2), seed=8)
    scaled = DensityMatrix((2, 2), 0.7 * rho.entries)
    psi = purify(scaled)
    assert psi.norm_squared() == pytest.approx(0.7, abs=1e-10)


def test_purify_roundtrip_random():
    for seed in range(6):
        dims = [(2, 2), (2, 3), (3,)][seed % 3]
        rho = random_density_matrix(dims, seed=seed)
        psi = purify(rho)
        back = partial_trace(projector(psi), SubsetMask.of(psi.k, [psi.k]))
        assert np.abs(back.entries - rho.entries).max() < 1e-10


def test_purify_rejects_non_psd():
    with pytest.raises(ValueError):
        purify(DensityMatrix((2,), np.diag([1.0, -0.5])))


def test_random_pure_state_contract():
    psi = random_pure_state((2,), seed=9)
    assert abs(psi.norm_squared() - 1.0) < 1e-14
    again = random_pure_state((2,), seed=9)
    assert np.array_equal(psi.coeffs, again.coeffs)
    assert random_pure_state((2, 3), seed=9).coeffs.shape == (6,)


def test_permutation_contraction_identity():
    psi = PureState((2, 2), 1.5 * random_pure_state((2, 2), seed=10).coeffs)
    n2 = psi.norm_squared()
    assert permutation_contraction(psi, [(0,), (0,)]) == pytest.approx(n2)
    value = permutation_contraction(psi, [(0, 1), (0, 1)])
    assert value == pytest.approx(n2**2)


def test_permutation_contraction_bell_swap():
    value = permutation_contraction(ghz_state(2), [(0, 1), (1, 0)])
    assert value == pytest.approx(0.5)


def test_permutation_contraction_real_when_all_equal():
    psi = random_pure_state((2, 3), seed=30)
    for perm in itertools.permutations(range(3)):
        value = permutation_contraction(psi, [perm, perm])
        assert abs(value.imag) < 1e-12


def test_permutation_contraction_conjugation_covariance():
    psi = random_pure_state((2, 3), seed=11)
    perms = [(2, 0, 1), (1, 2, 0)]
    inverses = [(1, 2, 0), (2, 0, 1)]
    assert permutation_contraction(psi, inverses) == pytest.approx(
        permutation_contraction(psi, perms).conjugate()
    )


def test_permutation_contraction_lu_invariance():
    psi = random_pure_state((2, 2, 3), seed=12)
    us = [random_unitary(n, seed=20 + i) for i, n in enumerate(psi.dims)]
    rotated = apply_local_unitaries(psi, us)
    for perms in [[(0, 1), (1, 0), (0, 1)], [(1, 0), (1, 0), (1, 0)]]:
        assert permutation_contraction(rotated, perms) == pytest.approx(
            permutation_contraction(psi, perms), abs=1e-9
        )


def test_permutation_contraction_validation():
    psi = random_pure_state((2, 2), seed=13)
    with pytest.raises(ValueError):
        permutation_contraction(psi, [(0, 1)])
    with pytest.raises(ValueError):
        permutation_contraction(psi, [(0, 1), (0, 2)])


def test_rank_oracle_norm_only():
    assert invariant_space_rank((2,), 1, seed=14) == 1
    assert invariant_space_rank((3,), 1, seed=14) == 1


def test_rank_oracle_degree_zero():
    assert invariant_space_rank((2, 2), 0, seed=14) == 1
    with pytest.raises(ValueError):
        invariant_space_rank((2, 2), -1, seed=14)


def test_rank_oracle_two_qubits():
    assert invariant_space_rank((2, 2), 2, seed=15) == 4


def test_rank_oracle_rejects_undersampling(monkeypatch):
    """No sample count is taken: the oracle samples until STALL samples
    have not raised the rank, or the rank reaches the column count."""
    import luinv.states as states_module

    drawn = []
    contractions = states_module._orbit_contractions

    def counted(*args):
        drawn.append(None)
        return contractions(*args)

    monkeypatch.setattr(states_module, "_orbit_contractions", counted)
    # (2, 2) at m = 2: 4 columns, all independent.
    assert invariant_space_rank((2, 2), 2, seed=17) == 4
    assert len(drawn) == 4
    # One qubit at m = 3: 3 columns, rank 2.
    drawn.clear()
    assert invariant_space_rank((2,), 3, seed=17) == 2 == restricted_dimension((2,), 3)
    assert len(drawn) == 2 + states_module.STALL
    with pytest.raises(TypeError):
        invariant_space_rank((2, 2), 2, 3, seed=17)  # a sample count is no parameter


def test_rank_oracle_matches_restricted_dimension_small():
    assert invariant_space_rank((2,), 2, seed=18) == restricted_dimension((2,), 2)
    assert invariant_space_rank((3,), 2, seed=18) == restricted_dimension((3,), 2)


def test_rank_oracle_refuses_before_sampling(monkeypatch):
    import luinv.states as states_module

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(states_module.np.random, "default_rng", no_sampling)
    with pytest.raises(EnumerationBoundError, match="1728000 permutation tuples"):
        invariant_space_rank((2, 2, 2), 5, seed=1)
    with pytest.raises(EnumerationBoundError, match="gathered entries"):
        invariant_space_rank((2, 2, 2), 4, seed=1)


def test_rank_oracle_counts_the_sample_matrix_at_m_1(monkeypatch):
    # At m = 1 a sample is an n x n matrix but gathers only n entries, so
    # the bound counts 3 n^2: n = 2582 is refused, n = 2581 is sampled.
    import luinv.states as states_module

    class Sampled(Exception):
        pass

    def no_sampling(*args, **kwargs):
        raise Sampled

    monkeypatch.setattr(states_module.np.random, "default_rng", no_sampling)
    with pytest.raises(EnumerationBoundError, match="2582x2582"):
        invariant_space_rank((2582,), 1, seed=1)
    with pytest.raises(EnumerationBoundError, match="gathered entries"):
        invariant_space_rank((2, 1291), 1, seed=1)
    with pytest.raises(Sampled):
        invariant_space_rank((2581,), 1, seed=1)
    assert invariant_space_rank((2581,), 0, seed=1) == 1  # m = 0 samples nothing


def test_fast_contraction_table_matches_direct():
    """Every gathered orbit column equals the definition, with the
    environment permutation the identity."""
    from luinv.free_group_census import orbit_representatives

    rng = np.random.default_rng(19)
    for dims, m in [((2,), 2), ((2, 2), 2), ((2, 2), 3), ((2, 3), 2), ((3,), 3), ((2, 2), 4)]:
        n_sys = math.prod(dims)
        psi = random_pure_state(dims + (n_sys,), rng)
        z = psi.coeffs.reshape(n_sys, n_sys)
        table = gathered_contractions(z @ z.conj().T, dims, m)
        reps = orbit_representatives(len(dims), m)
        assert table.shape == (len(reps),)
        identity = tuple(range(m))
        for taus, value in zip(reps, table):
            direct = permutation_contraction(psi, taus + (identity,))
            assert abs(direct - value) < 1e-10


def test_rank_oracle_refuses_before_the_census_walk(monkeypatch):
    # The rank oracle imports the walk when it runs, so the patch on the
    # census module is the one it would call.
    import luinv.free_group_census as census_module

    def no_walk(*args, **kwargs):
        raise AssertionError("walked the census before refusing")

    monkeypatch.setattr(census_module, "orbit_representatives", no_walk)
    with pytest.raises(AssertionError, match="walked the census"):
        invariant_space_rank((2,), 2, seed=1)  # admitted, so it walks
    # 2^18 columns pass the tuple bound, but not the gather bound.
    with pytest.raises(EnumerationBoundError, match="262144 contractions"):
        invariant_space_rank((1,) * 18, 2, seed=1)


def test_rank_oracle_refuses_a_negative_seed_before_any_work(monkeypatch):
    # The seed is checked first: a negative seed printed 1 at m = 0, and at
    # m >= 1 was refused only after the dimension and the census walk.
    import luinv.dimensions
    import luinv.free_group_census

    def no_work(*args, **kwargs):
        raise AssertionError("worked before refusing the seed")

    monkeypatch.setattr(luinv.free_group_census, "orbit_representatives", no_work)
    monkeypatch.setattr(luinv.dimensions, "stable_dimension", no_work)
    for m in (0, 2):
        with pytest.raises(ValueError, match="negative"):
            invariant_space_rank((2, 2), m, seed=-5)
    with pytest.raises(AssertionError, match="worked before"):
        invariant_space_rank((2, 2), 0, seed=5)  # a valid seed does reach them


def test_modular_contractions_match_python_ints():
    """The int64 einsum fold mod PRIME equals the gathered contraction in
    exact Python integers reduced mod PRIME, with entries near PRIME so
    that a missed reduction would overflow int64.  A step sums at most
    n^2 <= RANK_GATHER_BOUND / 3 products of two residues, which fits."""
    from luinv.states import PRIME, RANK_GATHER_BOUND, _orbit_contractions, _orbit_steps

    assert RANK_GATHER_BOUND * (PRIME - 1) ** 2 < 2**63
    rng = np.random.default_rng(23)
    cases = [((2,), 3), ((2, 2), 2), ((2, 2), 3), ((3,), 4), ((40,), 2), ((2, 1, 2), 3), ((2, 3), 4)]
    for dims, m in cases:
        n_sys = math.prod(dims)
        rho = rng.integers(PRIME - 1000, PRIME, (n_sys, n_sys))
        exact = gathered_contractions(rho.astype(object), dims, m)
        fold = _orbit_contractions(rho, dims, _orbit_steps(dims, m))
        assert fold.tolist() == [int(v) % PRIME for v in exact]


@pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (3, 1, 2)])
def test_m2_contractions_are_J_values(dims):
    """At m = 2 a column's taus is the identity or the swap on each
    subsystem, and its contraction is J_A, A the subsystems where it is
    the identity: on an integer real-symmetric rho the two agree mod PRIME."""
    from luinv.free_group_census import orbit_representatives
    from luinv.invariants import invariant_J_vector
    from luinv.states import PRIME, _orbit_contractions, _orbit_steps

    n_sys = math.prod(dims)
    a = np.random.default_rng(29).integers(-1000, 1001, (n_sys, n_sys))
    rho = a + a.T
    jvec = invariant_J_vector(DensityMatrix(dims, rho))
    fold = _orbit_contractions(rho % PRIME, dims, _orbit_steps(dims, 2))
    reps = orbit_representatives(len(dims), 2)
    assert len(reps) == len(fold) == 2 ** len(dims)
    for taus, value in zip(reps, fold.tolist()):
        subset = sum(1 << l for l, tau in enumerate(taus) if tuple(tau) == (0, 1))
        assert value == int(jvec[subset]) % PRIME


@settings(deadline=None, max_examples=25)
@given(
    dims=st.sampled_from([(2,), (3,), (2, 2), (2, 3)]),
    m=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_exact_rank_matches_svd_rank_and_restricted_dimension(dims, m, seed):
    rank = invariant_space_rank(dims, m, seed=seed)
    assert rank == svd_rank(dims, m, seed) == restricted_dimension(dims, m)
    assert rank <= stable_dimension(len(dims) + 1, m)


def test_state_file_roundtrip(tmp_path):
    path = tmp_path / "pure.state"
    psi = random_pure_state((2, 3), seed=21)
    write_state_file(path, psi)
    loaded = read_state_file(path)
    assert isinstance(loaded, PureState)
    assert loaded.dims == (2, 3)
    assert np.array_equal(loaded.coeffs, psi.coeffs)

    rho = random_density_matrix((2, 2), seed=22)
    path2 = tmp_path / "mixed.state"
    write_state_file(path2, rho)
    loaded2 = read_state_file(path2)
    assert isinstance(loaded2, DensityMatrix)
    assert np.array_equal(loaded2.entries, rho.entries)


@settings(deadline=None, max_examples=40)
@given(
    dims=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mixed=st.booleans(),
)
def test_state_file_roundtrip_is_exact(dims, seed, mixed):
    if mixed:
        state = random_density_matrix(dims, seed)
    else:
        state = random_pure_state(dims, seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state")
        write_state_file(path, state)
        loaded = read_state_file(path)
    assert type(loaded) is type(state)
    assert loaded.dims == state.dims
    if mixed:
        assert loaded.entries.tobytes() == state.entries.tobytes()
    else:
        assert loaded.coeffs.tobytes() == state.coeffs.tobytes()


def test_state_file_comments_and_errors(tmp_path):
    path = tmp_path / "commented.state"
    path.write_text("# a comment\npure\ndims 2\n1.0 0.0\n# trailing\n0.0 0.0\n")
    loaded = read_state_file(path)
    assert loaded.dims == (2,)
    bad = tmp_path / "bad.state"
    bad.write_text("pure\ndims 2\n1.0 0.0\n")
    with pytest.raises(ValueError):
        read_state_file(bad)
    bad.write_text("soup\ndims 2\n1.0 0.0\n0.0 0.0\n")
    with pytest.raises(ValueError):
        read_state_file(bad)
    # Refused at the first extra value line: what follows it is not read.
    for tail in ["1.0 0.0\n", "1.0 0.0\nsoup\n"]:
        bad.write_text("pure\ndims 2\n1.0 0.0\n0.0 0.0\n" + tail)
        with pytest.raises(ValueError, match=r"^expected 2 coefficients, got more$"):
            read_state_file(bad)
    bad.write_text("mixed\ndims 1\n1.0 0.0\n1.0 0.0\n")
    with pytest.raises(ValueError, match=r"^expected 1 entries, got more$"):
        read_state_file(bad)


def test_state_file_is_bounded_before_its_values_are_read(tmp_path, monkeypatch):
    """A mixed file is n^2 coefficients and a pure one n; past
    PROJECTOR_ENTRY_BOUND the file is refused from its dims line alone."""
    import luinv.states as states_module

    path = tmp_path / "big.state"
    for kind, dims in [("mixed", "2049"), ("mixed", "2 1025"), ("pure", "2 2097153"), ("pure", "10 " * 40)]:
        path.write_text(f"{kind}\ndims {dims}\n")  # no values at all
        with pytest.raises(EnumerationBoundError, match=f"refusing a {kind} state file"):
            read_state_file(path)
    path.write_text("mixed\ndims 2048\n")
    with pytest.raises(ValueError, match="expected 4194304 entries, got 0"):
        read_state_file(path)
    path.write_text("pure\ndims 4194304\n")
    with pytest.raises(ValueError, match="expected 4194304 coefficients, got 0"):
        read_state_file(path)
    path.write_text("pure\ndims 5000000 5000000 0\n")  # not refused before the 0
    with pytest.raises(ValueError, match="dimensions must be positive"):
        read_state_file(path)
    # The bound is the same one that guards the projector.
    monkeypatch.setattr(states_module, "PROJECTOR_ENTRY_BOUND", 3)
    path.write_text("mixed\ndims 2\n" + "1.0 0.0\n" * 4)
    with pytest.raises(EnumerationBoundError, match="4 coefficients"):
        read_state_file(path)


def test_ghz_and_product_states():
    ghz = ghz_state(3)
    assert ghz.norm_squared() == pytest.approx(1.0)
    assert ghz.coeffs[0] == pytest.approx(1 / math.sqrt(2))
    prod = product_state([np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0])])
    assert prod.dims == (2, 3)
    assert prod.coeffs[1] == 1.0
