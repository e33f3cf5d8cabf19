"""Each benchmark check accepts the right answer and rejects a wrong one.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


def _off_by_one(values, i):
    out = list(values)
    out[i] += 1
    return out


def test_references_match_known_values():
    assert ref.partition_numbers(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert [ref.z_sum(3, m) for m in range(5)] == [1, 1, 4, 11, 43]
    assert ref.euler_exponents([ref.z_sum(3, m) for m in range(9)]) == list(ref.A057005)
    assert ref.hook_dimension((2, 1)) == 2 and ref.hook_dimension((3, 2)) == 5
    assert sum(ref.hook_dimension(p) ** 2 for p in ref.partitions(6)) == math.factorial(6)


def test_series_checks_reject_off_by_one():
    for k in (2, 3):
        dims = [ref.z_sum(k, m) for m in range(9)]
        u = ref.euler_exponents(dims)
        assert checks.series_dims(k, dims) == []
        assert checks.euler_exponents(k, dims, u) == []
        assert checks.series_dims(k, _off_by_one(dims, 5))
        assert checks.euler_exponents(k, dims, _off_by_one(u, 3))
        assert checks.round_trip(dims, dims) == []
        assert checks.round_trip(dims, _off_by_one(dims, 7))
    # An exponent list that is self-consistent but not A057005 is rejected.
    assert checks.euler_exponents(3, _off_by_one([ref.z_sum(3, m) for m in range(6)], 5), [1, 3, 7, 26, 98])


def test_dimension_routes_reject_either_route():
    want = ref.z_sum(4, 5)
    assert checks.dimension_routes(4, 5, want, want) == []
    assert checks.dimension_routes(4, 5, want + 1, want)
    assert checks.dimension_routes(4, 5, want, want - 1)


def test_restricted_chain_rejects_drop_and_wrong_limit():
    chain = workloads._chain(2, 3)
    assert chain == [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]
    values = [1, 2, 6, 8, 11]  # ends at stable_dimension(3, 3) = 11
    assert checks.restricted_chain(3, chain, values) == []
    assert checks.restricted_chain(3, chain, [1, 2, 6, 5, 11])
    assert checks.restricted_chain(3, chain, [1, 2, 6, 8, 12])


def test_character_table_rejects_wrong_degree_entry_and_order():
    import luinv

    m = 5
    labels = [lam.parts for lam in luinv.partitions_of(m)]
    rows = [list(luinv.irreducible_character(lam).values) for lam in luinv.partitions_of(m)]
    assert checks.character_table(m, labels, rows) == []
    wrong_degree = [list(r) for r in rows]
    wrong_degree[2][-1] += 1
    assert checks.character_table(m, labels, wrong_degree)
    wrong_entry = [list(r) for r in rows]
    wrong_entry[3][1] = -wrong_entry[3][1] or 1
    assert checks.character_table(m, labels, wrong_entry)
    assert checks.character_table(m, labels[::-1], rows[::-1])


def test_census_checks_reject_off_by_one():
    assert checks.orbit_count(2, 4, ref.z_sum(3, 4)) == []
    assert checks.orbit_count(2, 4, ref.z_sum(3, 4) + 1)
    rank2 = list(ref.A057005[:5])
    assert checks.subgroup_counts(2, rank2, rank2) == []
    assert checks.subgroup_counts(2, _off_by_one(rank2, 4))
    assert checks.subgroup_counts(2, rank2, _off_by_one(rank2, 1))
    rank3 = ref.euler_exponents([ref.z_sum(4, m) for m in range(5)])
    assert rank3 == [1, 7, 41, 604]
    assert checks.subgroup_counts(3, rank3) == []
    assert checks.subgroup_counts(3, _off_by_one(rank3, 2))


def test_census_wiring_reports_a_wrong_result():
    import luinv

    census = workloads.Census(luinv, seed=0)
    results = workloads.Results()
    for rank, top in census.SUBGROUPS:
        counts = ref.euler_exponents([ref.z_sum(rank + 1, m) for m in range(top + 1)])
        for d in range(1, top + 1):
            results["subgroups", rank, d] = counts[d - 1]
    for length, m in census.ORBITS:
        results["orbits", length, m] = ref.z_sum(length + 1, m)
    assert sum((c() for c in census.checks(results)), []) == []
    results["orbits", 1, 8] += 1
    assert sum((c() for c in census.checks(results)), [])


def _state(seed, dims):
    rng = np.random.default_rng(seed)
    return ref.random_coeffs(rng, dims), rng


def test_state_checks_reject_perturbed_values():
    dims = (2, 2, 2)
    coeffs, rng = _state(1, dims)
    jvec = ref.j_vector(coeffs, dims)
    ivec = ref.i_from_j(jvec, 3)
    bumped = list(jvec)
    bumped[3] += 1e-6
    assert checks.j_against_reference(coeffs, dims, jvec) == []
    assert checks.j_against_reference(coeffs, dims, bumped)
    assert checks.transform(ivec, jvec, jvec, ivec) == []
    assert checks.transform(ivec, jvec, bumped, ivec)
    assert checks.odd_subsets_vanish(ivec) == []
    assert checks.odd_subsets_vanish(_off_by_one(ivec, 1))
    rotated = ref.rotate(coeffs, dims, [ref.haar_unitary(rng, 2) for _ in dims])
    assert checks.lu_invariant("J", jvec, ref.j_vector(rotated, dims)) == []
    assert checks.lu_invariant("J", jvec, bumped)
    etas = [2 * (1 - jvec[1 << j]) for j in range(3)]
    assert checks.eta_values(dims, jvec, etas) == []
    assert checks.eta_values(dims, jvec, _off_by_one(etas, 0))
    q = 2 - 2 / 3 * sum(jvec[1 << j] for j in range(3))
    assert checks.meyer_wallach(dims, jvec, q) == []
    assert checks.meyer_wallach(dims, jvec, q + 1e-6)
    assert checks.anchor("Q(GHZ)", 1.0, 1.0) == [] and checks.anchor("Q(GHZ)", 0.999, 1.0)
    assert checks.higher_m2(coeffs, dims, 3, ivec[3]) == []
    assert checks.higher_m2(coeffs, dims, 3, ivec[3] + 1e-6)
    assert checks.rank((2, 2), 3, 6, 6) == [] and checks.rank((2, 2), 3, 5, 6)


def test_cli_checks_reject_wrong_output_and_exit_code():
    assert checks.cli_int("11\n", 11) == [] and checks.cli_int("12\n", 11)
    assert checks.cli_float("0.500000000\n", 0.5) == []
    assert checks.cli_float("0.500000100\n", 0.5)
    assert checks.cli_float("0.5\n", 0.5)  # not 9 decimals
    assert checks.cli_float("nan\n", 0.5)
    hilbert = "# h\n# m\tdim\n" + "".join(f"{m}\t{ref.z_sum(3, m)}\n" for m in range(5))
    hilbert += "# d\tu_d\n" + "".join(f"{d}\t{u}\n" for d, u in enumerate(ref.A057005[:4], 1))
    assert checks.cli_hilbert(hilbert, 3, 4) == []
    assert checks.cli_hilbert(hilbert.replace("\t43\n", "\t44\n"), 3, 4)
    subgroups = "# index\tclasses\n1\t1\n2\t3\n3\t7\n"
    assert checks.cli_subgroups(subgroups, 2, 3) == []
    assert checks.cli_subgroups(subgroups.replace("\t7", "\t8"), 2, 3)
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    jvec = ref.j_vector(bell, (2, 2))
    ivec = ref.i_from_j(jvec, 2)
    labels = ["()", "(1)", "(2)", "(1,2)"]
    table = "# subset\tI\tJ\n" + "".join(f"{s}\t{i:.9f}\t{j:.9f}\n" for s, i, j in zip(labels, ivec, jvec))
    assert checks.cli_transform(table + "# max_residual\t1.0e-16\n", ivec, jvec) == []
    assert checks.cli_transform(table + "# max_residual\t1.0e-06\n", ivec, jvec)
    assert checks.cli_transform(table.replace("0.500000000", "0.500000002", 1) + "# max_residual\t0\n", ivec, jvec)
    check = lambda out: checks.cli_int(out, 4)  # noqa: E731
    assert checks.cli_outcome(["dims"], 0, 0, "4\n", check) == (False, [])
    assert checks.cli_outcome(["dims"], 0, 0, "5\n", check)[1]
    assert checks.cli_outcome(["dims"], 1, 0, "4\n", check) == (True, [])
    assert checks.cli_outcome(["eval"], 0, 2, "nan\n", lambda out: []) == (True, [])


def test_cli_char_table_rejects_wrong_size_and_degree():
    import luinv.cli

    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert luinv.cli.main(["char-table", "--m", "4"]) == 0
    text = out.getvalue()
    assert checks.cli_char_table(text, 4) == []
    lines = text.splitlines()
    assert checks.cli_char_table("\n".join(lines[:1] + [lines[1] + "0"] + lines[2:]), 4)
    lines[-1] = lines[-1][:-1] + str(int(lines[-1][-1]) + 1)  # degree of the last row
    assert checks.cli_char_table("\n".join(lines), 4)


def test_cli_round_has_one_expected_refusal():
    commands = workloads.cli_commands("states", seed=0)
    assert len(commands) == 60
    assert [argv for argv, code, _ in commands if code != 0] == [
        ["eval", "--invariant", "J", "--state", os.path.join("states", "nan.state"), "--subset", "1"]
    ]
    combinatorial = {"dims", "hilbert", "subgroups", "orbits", "char-table"}
    assert sum(argv[0] in combinatorial for argv, _, _ in commands) == 30
