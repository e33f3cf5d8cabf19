"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
verdict lines.
"""

import itertools
import os
import sys
import time

import numpy as np

from luinv import (
    SubsetMask,
    all_subsets,
    conjugation_orbit_count,
    count_subgroup_classes,
    eta,
    euler_exponents,
    ghz_state,
    higher_invariant,
    hilbert_series,
    i_from_j,
    invariant_I,
    invariant_I_vector,
    invariant_J,
    invariant_J_vector,
    invariant_space_rank,
    j_from_i,
    meyer_wallach,
    mixed_dimension,
    partial_trace,
    projector,
    random_pure_state,
    restricted_dimension,
    stable_dimension,
    stable_dimension_via_characters,
)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import (  # noqa: E402
    higher_basis_vector,
    product_state,
    purify,
    random_density_matrix,
)


def _verdict(number: int, label: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{label}]: {status} ({elapsed:.1f}s)")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_01_degree_four_count():
    start = time.time()
    ok = all(stable_dimension(k, 2) == 2 ** (k - 1) for k in range(1, 9))
    elapsed = time.time() - start
    _verdict(1, "degree-4 count 2^(k-1)", ok and elapsed < 1.0, elapsed)


def test_criterion_02_formula_equivalence():
    start = time.time()
    ok = all(
        stable_dimension(k, m) == stable_dimension_via_characters(k, m)
        for k in range(1, 6)
        for m in range(0, 7)
    )
    elapsed = time.time() - start
    _verdict(2, "centralizer vs character formula", ok and elapsed < 30.0, elapsed)


def test_criterion_03_orbit_oracle():
    start = time.time()
    ok = True
    for k in range(1, 4):
        for m in range(0, 6):
            ok = ok and conjugation_orbit_count(k - 1, m) == stable_dimension(k, m)
    for m in range(0, 5):
        ok = ok and conjugation_orbit_count(3, m) == stable_dimension(4, m)
    ok = ok and conjugation_orbit_count(2, 3) == 11 == stable_dimension(3, 3)
    elapsed = time.time() - start
    _verdict(3, "conjugation-orbit oracle", ok and elapsed < 120.0, elapsed)


def test_criterion_04_bipartite_partition_numbers():
    start = time.time()
    # Independent partition count: Euler's pentagonal-number recurrence.
    p = [1]
    for n in range(1, 11):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if j % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p.append(total)
    ok = all(stable_dimension(2, m) == p[m] for m in range(0, 11))
    _verdict(4, "bipartite dimensions are p(m)", ok, time.time() - start)


def test_criterion_05_census_vs_series_inversion():
    start = time.time()
    ok = True
    def u(k, d):
        return euler_exponents(hilbert_series(k, d)).u[d - 1]

    for d in range(1, 5):
        ok = ok and u(3, d) == count_subgroup_classes(2, d)
    for d in range(1, 4):
        ok = ok and u(4, d) == count_subgroup_classes(3, d)
    for k in (2, 3, 4):
        counts = [u(k, d) for d in range(1, 5)]
        ok = ok and all(isinstance(value, int) and value >= 0 for value in counts)
    ok = ok and all(u(2, d) == 1 for d in range(1, 11))
    elapsed = time.time() - start
    _verdict(5, "subgroup census vs Euler inversion", ok and elapsed < 180.0, elapsed)


def test_criterion_06_restricted_dimension_oracle():
    start = time.time()
    ok = True
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        for m in (0, 1, 2, 3):
            rank = invariant_space_rank(dims, m, seed=1000 + 10 * len(dims) + m)
            ok = ok and rank == restricted_dimension(dims, m)
    rank = invariant_space_rank((2, 2), 4, seed=1024)
    ok = ok and rank == restricted_dimension((2, 2), 4) == 16
    elapsed = time.time() - start
    _verdict(6, "exact rank mod p vs restricted dimension", ok and elapsed < 300.0, elapsed)


def test_criterion_07_proposition_transform():
    start = time.time()
    worst = 0.0
    for dims, base_seed in [((2, 2), 100), ((3, 3), 300), ((2, 2, 2), 500)]:
        k = len(dims)
        for i in range(100):
            psi = random_pure_state(dims, seed=base_seed + i)
            ivec = invariant_I_vector(psi)
            jvec = invariant_J_vector(projector(psi))
            forward = np.array(j_from_i(ivec).values) - np.array(jvec.values)
            backward = np.array(i_from_j(jvec).values) - np.array(ivec.values)
            worst = max(worst, np.abs(forward).max(), np.abs(backward).max())
    bell_ok = np.allclose(
        invariant_I_vector(ghz_state(2)).values, (0.75, 0.0, 0.0, 0.25), atol=1e-12
    ) and np.allclose(
        invariant_J_vector(projector(ghz_state(2))).values,
        (1.0, 0.5, 0.5, 1.0),
        atol=1e-12,
    )
    ok = worst < 1e-9 and bell_ok
    _verdict(7, "subset-parity transform residual", ok, time.time() - start)


def test_criterion_08_structural_nulls():
    start = time.time()
    ok = True
    for dims, seed in [((2, 2), 41), ((2, 3), 42), ((2, 2, 2), 43), ((3, 3), 44)]:
        psi = random_pure_state(dims, seed=seed)
        total = 0.0
        for subset in all_subsets(len(dims)):
            value = invariant_I(psi, subset)
            if len(subset) % 2 == 1:
                ok = ok and abs(value) < 1e-12
            total += value
        ok = ok and abs(total - 1.0) < 1e-9
    _verdict(8, "odd components vanish, even sum to 1", ok, time.time() - start)


def test_criterion_09_norm_law():
    start = time.time()
    ok = True
    for dims in [(2, 2), (2, 3, 2)]:
        k = len(dims)
        for subset in all_subsets(k):
            if len(subset) % 2:
                continue
            site_pairs = []
            for j in range(1, k + 1):
                n = dims[j - 1]
                if j in subset:
                    site_pairs.append(list(itertools.combinations(range(n), 2)))
                else:
                    site_pairs.append(
                        list(itertools.combinations_with_replacement(range(n), 2))
                    )
            for pairs in itertools.product(*site_pairs):
                v = higher_basis_vector(dims, subset, 2, pairs)
                c = sum(1 for a, b in pairs if a == b)
                ok = ok and abs(np.vdot(v, v).real - 2.0 ** (k + c)) < 1e-10
    _verdict(9, "basis-vector norm law 2^(k+c)", ok, time.time() - start)


def test_criterion_10_purification():
    start = time.time()
    ok = True
    shapes = [(2, 2), (2, 3), (2, 2, 2)]
    for i in range(20):
        dims = shapes[i % 3]
        k = len(dims)
        rho = random_density_matrix(dims, seed=900 + i)
        psi = purify(rho)
        back = partial_trace(projector(psi), SubsetMask.of(psi.k, [psi.k]))
        ok = ok and np.abs(back.entries - rho.entries).max() < 1e-10
        pure_rho = projector(psi)
        for subset in all_subsets(k):
            expected = invariant_J(rho, subset)
            with_env = SubsetMask.of(psi.k, sorted(subset) + [psi.k])
            complement = SubsetMask.of(psi.k, set(range(1, k + 1)) - frozenset(subset))
            ok = ok and abs(invariant_J(pure_rho, with_env) - expected) < 1e-9
            ok = ok and abs(invariant_J(pure_rho, complement) - expected) < 1e-9
    _verdict(10, "purification roundtrip and J matching", ok, time.time() - start)


def test_criterion_11_entanglement_measures():
    start = time.time()
    rng = np.random.default_rng(77)
    factors = []
    for n in (2, 2, 2, 2):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        factors.append(z / np.linalg.norm(z))
    prod = product_state(factors)
    ok = abs(meyer_wallach(prod)) < 1e-9
    for k in range(2, 6):
        ok = ok and abs(meyer_wallach(ghz_state(k)) - 1.0) < 1e-9
    # the two routes, compared explicitly
    psi = random_pure_state((2, 2, 2), seed=78)
    rho = projector(psi)
    purity_form = 2.0 - (2.0 / 3.0) * sum(
        invariant_J(rho, SubsetMask.of(3, [i])) for i in range(1, 4)
    )
    component_form = sum(
        4.0 * len(s) / 3.0 * invariant_I(psi, s) for s in all_subsets(3)
    )
    ok = ok and abs(purity_form - component_form) < 1e-9
    ok = ok and 0.0 <= meyer_wallach(psi) <= 2.0
    ok = ok and abs(eta(projector(ghz_state(2)), SubsetMask.of(2, [1])) - 1.0) < 1e-9
    _verdict(11, "Meyer-Wallach and eta anchors", ok, time.time() - start)


def test_criterion_12_higher_order():
    start = time.time()
    ok = True
    for dims, seed in [((2, 2), 61), ((2, 3), 62), ((3, 3), 63), ((2, 2, 2), 64)]:
        psi = random_pure_state(dims, seed=seed)
        for subset in all_subsets(len(dims)):
            if len(subset) % 2:
                continue
            diff = abs(higher_invariant(psi, subset, 2) - invariant_I(psi, subset))
            ok = ok and diff < 1e-9
    # m = 3, dims (3,3): orthogonality of all admissible vectors, both even A
    vectors = []
    for subset in [SubsetMask.of(2, []), SubsetMask.of(2, [1, 2])]:
        rows = []
        for j in (1, 2):
            if j in subset:
                rows.append(list(itertools.combinations(range(3), 3)))
            else:
                rows.append(list(itertools.combinations_with_replacement(range(3), 3)))
        for table in itertools.product(*rows):
            vectors.append(higher_basis_vector((3, 3), subset, 3, table))
    for i, v in enumerate(vectors):
        for w in vectors[i + 1 :]:
            ok = ok and abs(np.vdot(v, w)) < 1e-12
    psi = random_pure_state((3, 3), seed=65)
    total = sum(
        higher_invariant(psi, s, 3) for s in all_subsets(2) if len(s) % 2 == 0
    )
    ok = ok and total <= psi.norm_squared() ** 3 + 1e-9
    elapsed = time.time() - start
    _verdict(12, "higher-order invariants", ok and elapsed < 180.0, elapsed)


def test_criterion_13_mixed_dimension_identity():
    start = time.time()
    ok = True
    for k in range(1, 4):
        for m in range(0, 5):
            orbit = conjugation_orbit_count(k, m)
            ok = ok and orbit == mixed_dimension(k, m) == stable_dimension(k + 1, m)
    _verdict(13, "mixed-state dimension identity", ok, time.time() - start)
