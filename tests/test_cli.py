import os
import subprocess
import sys

import numpy as np
import pytest

from luinv import (
    DensityMatrix,
    PureState,
    SubsetMask,
    ghz_state,
    random_pure_state,
    write_state_file,
)
from luinv.cli import main

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import random_density_matrix, random_unitary  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_stable(capsys):
    code, out, _ = run(capsys, "dims", "--k", "3", "--m", "2")
    assert code == 0
    assert out == "4\n"


def test_dims_restricted_and_mixed(capsys):
    code, out, _ = run(capsys, "dims", "--local-dims", "2,2", "--m", "3")
    assert (code, out) == (0, "6\n")
    code, out, _ = run(capsys, "dims", "--k", "2", "--m", "2", "--mixed")
    assert (code, out) == (0, "4\n")


def test_dims_usage_errors(capsys):
    code, _, err = run(capsys, "dims", "--m", "2")
    assert code == 2
    assert err
    code, _, err = run(
        capsys, "dims", "--local-dims", "2,2", "--m", "2", "--mixed"
    )
    assert code == 2


def test_dims_refuses_k_with_local_dims(capsys):
    # --local-dims fixes the subsystems, so a --k beside it is refused, not
    # ignored; --mixed is checked first and keeps its own message.
    code, out, err = run(capsys, "dims", "--k", "5", "--local-dims", "2,2", "--m", "3")
    assert (code, out) == (2, "")
    assert err == "luinv: --local-dims and --k cannot be combined\n"
    code, out, err = run(capsys, "dims", "--k", "5", "--local-dims", "2,2", "--m", "3", "--mixed")
    assert (code, out) == (2, "")
    assert err == "luinv: --local-dims and --mixed cannot be combined\n"


@pytest.mark.parametrize("text", ["2,,2", "2,2,", ",2", ",", ""])
@pytest.mark.parametrize("command", [("dims",), ("rank-oracle", "--seed", "1")], ids=["dims", "rank-oracle"])
def test_empty_dimension_entries_exit_2(capsys, command, text):
    code, out, err = run(capsys, *command, "--local-dims", text, "--m", "2")
    assert (code, out) == (2, "")
    assert f"bad dimension list {text!r}" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["dims", "--bogus"])
    assert info.value.code == 2


def test_long_integers_are_printed(capsys):
    # 4300+ digits, past Python's default int-to-str limit, inside the series bound.
    from luinv import hilbert_series, stable_dimension

    code, out, _ = run(capsys, "dims", "--k", "50", "--m", "70")
    assert (code, out) == (0, f"{stable_dimension(50, 70)}\n")
    code, out, _ = run(capsys, "hilbert", "--k", "50", "--order", "70")
    assert code == 0
    assert f"70\t{hilbert_series(50, 70)[70]}\n" in out


def test_hilbert_table(capsys):
    code, out, _ = run(capsys, "hilbert", "--k", "2", "--order", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    u_rows = lines[lines.index("# d\tu_d") + 1 :]
    assert u_rows == [f"{d}\t1" for d in range(1, 6)]
    dim_rows = lines[lines.index("# m\tdim") + 1 : lines.index("# d\tu_d")]
    assert dim_rows == ["0\t1", "1\t1", "2\t2", "3\t3", "4\t5", "5\t7"]


def test_subgroups_table(capsys):
    code, out, _ = run(capsys, "subgroups", "--rank", "2", "--max-index", "3")
    assert code == 0
    assert out.splitlines() == ["# index\tclasses", "1\t1", "2\t3", "3\t7"]


def test_subgroups_failure_prints_no_partial_table(capsys):
    # Index 6 is refused after indices 1..5 fit; rank 0 is invalid at index 1.
    code, out, err = run(capsys, "subgroups", "--rank", "2", "--max-index", "6")
    assert (code, out) == (3, "")
    assert err.startswith("luinv: refusing")
    code, out, err = run(capsys, "subgroups", "--rank", "0", "--max-index", "3")
    assert (code, out) == (2, "")
    assert err == "luinv: need rank >= 1 and index >= 1\n"


@pytest.mark.parametrize(
    "rank,max_index", [("2", "0"), ("2", "-1"), ("0", "0"), ("-1", "4"), ("1", "-5")]
)
def test_subgroups_rejects_rank_or_index_below_one(capsys, rank, max_index):
    code, out, err = run(capsys, "subgroups", "--rank", rank, "--max-index", max_index)
    assert (code, out) == (2, "")
    assert err == "luinv: need rank >= 1 and index >= 1\n"


def test_orbits_value_and_bound(capsys):
    code, out, _ = run(capsys, "orbits", "--tuple-length", "2", "--m", "3")
    assert (code, out) == (0, "11\n")
    code, _, err = run(capsys, "orbits", "--tuple-length", "3", "--m", "6")
    assert code == 3
    assert "refusing" in err


def test_orbits_length_zero_is_bounded(capsys):
    # At length 0 the walk still lists all m! permutations; 12! is refused
    # before any is listed, and 9! still fits.
    from luinv import EnumerationBoundError, conjugation_orbit_count
    from luinv.free_group_census import check_tuple_bound

    with pytest.raises(EnumerationBoundError):
        check_tuple_bound(12, 0)
    code, out, err = run(capsys, "orbits", "--tuple-length", "0", "--m", "12")
    assert (code, out) == (3, "")
    assert err.startswith("luinv: refusing")
    assert conjugation_orbit_count(0, 9) == 1


def test_tuple_length_is_bounded_at_degree_one(capsys):
    # At degree <= 1 there is one tuple, but it is built entry by entry, so
    # its length is counted: 500,000 prints 1 and longer tuples exit 3.
    code, out, _ = run(capsys, "orbits", "--tuple-length", "500000", "--m", "1")
    assert (code, out) == (0, "1\n")
    for argv in [
        ("orbits", "--tuple-length", "600000", "--m", "1"),
        ("orbits", "--tuple-length", "600000", "--m", "0"),
        ("subgroups", "--rank", "600000", "--max-index", "1"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("luinv: refusing to build a tuple of 600000 permutations")


def test_char_table(capsys):
    code, out, _ = run(capsys, "char-table", "--m", "3")
    assert code == 0
    assert out.splitlines() == [
        "# class\t(3)\t(2,1)\t(1,1,1)",
        "# size\t2\t3\t1",
        "(3)\t1\t1\t1",
        "(2,1)\t-1\t0\t2",
        "(1,1,1)\t1\t-1\t1",
    ]


def test_eval_invariants(tmp_path, capsys):
    ghz4 = tmp_path / "ghz4.state"
    write_state_file(ghz4, ghz_state(4))
    code, out, _ = run(capsys, "eval", "--invariant", "Q", "--state", str(ghz4))
    assert (code, out) == (0, "1.000000000\n")

    bell = tmp_path / "bell.state"
    write_state_file(bell, ghz_state(2))
    for subset, expected in [("", "0.750000000"), ("1,2", "0.250000000"), ("1", "0.000000000")]:
        code, out, _ = run(
            capsys, "eval", "--invariant", "I", "--state", str(bell), "--subset", subset
        )
        assert (code, out.strip()) == (0, expected)
    code, out, _ = run(
        capsys, "eval", "--invariant", "eta", "--state", str(bell), "--subset", "1"
    )
    assert (code, out) == (0, "1.000000000\n")
    code, out, _ = run(
        capsys,
        "eval",
        "--invariant",
        "higher",
        "--state",
        str(bell),
        "--subset",
        "",
        "--m",
        "2",
    )
    assert (code, out) == (0, "0.750000000\n")


@pytest.mark.parametrize("text", ["1,,1", "1,", ",1", ",", "1,1", "x"])
def test_malformed_subset_exits_2(tmp_path, capsys, text):
    bell = tmp_path / "bell.state"
    write_state_file(bell, ghz_state(2))
    code, out, err = run(
        capsys, "eval", "--invariant", "I", "--state", str(bell), "--subset", text
    )
    assert (code, out) == (2, "")
    assert f"luinv: bad subset list {text!r}" in err


def test_eval_mixed_state_J(tmp_path, capsys):
    path = tmp_path / "mixed.state"
    rho = random_density_matrix((2, 2), seed=1)
    write_state_file(path, rho)
    code, out, _ = run(
        capsys, "eval", "--invariant", "J", "--state", str(path), "--subset", ""
    )
    assert code == 0
    purity = float(np.einsum("ij,ji->", rho.entries, rho.entries).real)
    assert out.strip() == f"{purity:.9f}"


def test_eval_non_finite_mixed_state_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.state"
    entries = ["0.25 0.0" if i == j else "0.0 0.0" for i in range(4) for j in range(4)]
    entries[5] = "nan 0.0"
    path.write_text("mixed\ndims 2 2\n" + "\n".join(entries) + "\n")
    code, out, err = run(
        capsys, "eval", "--invariant", "J", "--state", str(path), "--subset", "1"
    )
    assert (code, out) == (2, "")
    assert "finite" in err


def test_eval_errors(tmp_path, capsys):
    path = tmp_path / "mixed.state"
    write_state_file(path, random_density_matrix((2, 2), seed=2))
    code, _, err = run(capsys, "eval", "--invariant", "Q", "--state", str(path))
    assert code == 2
    assert "pure" in err
    code, _, err = run(
        capsys, "eval", "--invariant", "I", "--state", str(tmp_path / "nope"), "--subset", ""
    )
    assert code == 2


def test_transform_output(tmp_path, capsys):
    bell = tmp_path / "bell.state"
    write_state_file(bell, ghz_state(2))
    code, out, _ = run(capsys, "transform", "--state", str(bell))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# subset\tI\tJ"
    assert lines[1] == "()\t0.750000000\t1.000000000"
    assert lines[2] == "(1)\t0.000000000\t0.500000000"
    assert lines[3] == "(2)\t0.000000000\t0.500000000"
    assert lines[4] == "(1,2)\t0.250000000\t1.000000000"
    assert lines[5] == "# max_residual\t0.000000000"

    # Twelve 1-dimensional systems: 2^12 rows by bit position, then the residual.
    ones = tmp_path / "ones.state"
    write_state_file(ones, PureState((1,) * 12, np.array([1.0])))
    code, out, _ = run(capsys, "transform", "--state", str(ones))
    assert code == 0
    expected = ["# subset\tI\tJ"]
    for bits in range(1 << 12):
        i_value = "1.000000000" if bits == 0 else "0.000000000"
        expected.append(f"{SubsetMask(12, bits)}\t{i_value}\t1.000000000")
    expected.append("# max_residual\t0.000000000")
    assert out.splitlines() == expected
    assert len(expected) == 4098


def test_eval_J_and_eta_past_26_subsystems(tmp_path, capsys):
    # 29 one-dimensional subsystems and a qubit: only the qubit is labelled.
    path = tmp_path / "wide.state"
    write_state_file(path, PureState((1,) * 29 + (2,), np.array([0.6, 0.8])))
    for invariant, expected in [("J", "1.000000000\n"), ("eta", "0.000000000\n")]:
        code, out, _ = run(
            capsys, "eval", "--invariant", invariant, "--state", str(path), "--subset", "30"
        )
        assert (code, out) == (0, expected)


def test_rank_oracle(capsys):
    code, out, _ = run(
        capsys, "rank-oracle", "--local-dims", "2,2", "--m", "2", "--seed", "5"
    )
    assert (code, out) == (0, "4\n")
    # One qubit at m = 9: 9! tuples walked, 30 columns; 5 = restricted_dimension((2,), 9).
    code, out, _ = run(
        capsys, "rank-oracle", "--local-dims", "2", "--m", "9", "--seed", "5"
    )
    assert (code, out) == (0, "5\n")


def test_rank_oracle_on_many_one_dimensional_systems(capsys):
    # 1-dimensional systems get no einsum legs, so sixty of them stay
    # within numpy's axis and label limits.
    ones = ",".join(["1"] * 60)
    code, out, _ = run(capsys, "rank-oracle", "--local-dims", ones, "--m", "1", "--seed", "1")
    assert (code, out) == (0, "1\n")


def test_rank_oracle_has_no_samples_option(capsys):
    base = ("rank-oracle", "--local-dims", "2,2", "--m", "2", "--seed", "7")
    assert run(capsys, *base)[:2] == (0, "4\n")
    with pytest.raises(SystemExit) as info:
        main([*base, "--samples", "4"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_unbounded_requests_exit_3(tmp_path, capsys):
    path = tmp_path / "q12.state"
    write_state_file(path, ghz_state(12))
    eleven = tmp_path / "q11.state"
    write_state_file(eleven, ghz_state(11))
    big = tmp_path / "big.state"
    big.write_text("mixed\ndims 2049\n")  # refused before its absent values
    for argv in [
        ("dims", "--k", "3", "--m", "2000"),
        ("hilbert", "--k", "3", "--order", "2000"),
        ("char-table", "--m", "40"),
        ("dims", "--local-dims", "2,2", "--m", "40"),
        ("rank-oracle", "--local-dims", "2,2,2", "--m", "5", "--seed", "1"),
        ("eval", "--invariant", "I", "--state", str(path), "--subset", "1,2"),
        ("eval", "--invariant", "I", "--state", str(eleven)),
        ("dims", "--local-dims", ",".join(["16"] * 978), "--m", "16"),
        ("eval", "--invariant", "Q", "--state", str(path)),
        ("eval", "--invariant", "J", "--state", str(path), "--subset", "1"),
        ("eval", "--invariant", "eta", "--state", str(path), "--subset", "1"),
        ("eval", "--invariant", "J", "--state", str(big)),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("luinv: refusing"), argv


def test_internal_assertion_exits_4(capsys, monkeypatch):
    from luinv import IntegralityError
    import luinv.series as series_module

    def boom(series, k=None):
        raise IntegralityError("exponent u_2 = 1/2 is not an integer")

    monkeypatch.setattr(series_module, "euler_exponents", boom)
    code, _, err = run(capsys, "hilbert", "--k", "2", "--order", "3")
    assert code == 4
    assert "u_2" in err


def test_higher_bound_exits_3(tmp_path, capsys):
    path = tmp_path / "bell.state"
    write_state_file(path, ghz_state(2))
    argv = ["eval", "--invariant", "higher", "--state", str(path), "--subset", ""]
    code, out, _ = run(capsys, *argv, "--m", "5")
    assert (code, out) == (0, "0.187500000\n")
    code, out, err = run(capsys, *argv, "--m", str(10**6))
    assert (code, out) == (3, "")
    assert "refusing" in err


def test_higher_work_bound_exits_3(tmp_path, capsys):
    # The projection kernel's largest gather, 2 * 3 * ... * (m + 1) *
    # 2^((k-1)m) entries: GHZ4 builds 12,288 at m = 3 and 491,520 at m = 4,
    # five qubits at m = 4 7,864,320, past I_TABLE_BOUND = 2^21.
    argv = ["eval", "--invariant", "higher", "--subset", ""]
    for k, m, expected in [
        (4, 3, (0, "0.277777778\n")), (4, 4, (0, "0.134548611\n")), (5, 4, (3, "")),
    ]:
        path = tmp_path / f"ghz{k}.state"
        write_state_file(path, ghz_state(k))
        code, out, err = run(capsys, *argv, "--state", str(path), "--m", str(m))
        assert (code, out) == expected
    assert err == (
        "luinv: refusing a projection kernel of 7864320 entries "
        "(dims (2, 2, 2, 2, 2), m=4, limit 2097152)\n"
    )


def test_higher_at_m2_prints_the_I_line(tmp_path, capsys):
    # One kernel and one admission: the I-family and higher at m = 2 give
    # the same line on eight qubits, where higher was refused by a count
    # of its own.
    path = tmp_path / "q8.state"
    write_state_file(path, random_pure_state((2,) * 8, seed=3))
    argv = ["eval", "--state", str(path), "--subset", "1,2"]
    _, i_line, _ = run(capsys, *argv, "--invariant", "I")
    code, higher_line, err = run(capsys, *argv, "--invariant", "higher", "--m", "2")
    assert (code, higher_line, err) == (0, i_line, "")
    assert i_line == "0.021045353\n"


def test_eval_I_on_one_dimensional_systems_prints_the_higher_line(tmp_path, capsys):
    # One I_A is higher at m = 2 on the subsystems of dimension > 1, so 21
    # one-dimensional systems no longer make it count 2^23 kernel values.
    path = tmp_path / "wide.state"
    write_state_file(path, random_pure_state((1,) * 21 + (2, 2), seed=5))
    argv = ["eval", "--state", str(path), "--subset", "22,23"]
    i_run = run(capsys, *argv, "--invariant", "I")
    higher_run = run(capsys, *argv, "--invariant", "higher", "--m", "2")
    assert i_run == higher_run
    assert i_run[:2] == (0, "0.008005337\n")


def test_eval_Q_on_one_dimensional_systems(tmp_path, capsys):
    # Q reads the one-subsystem J_{i} of psi psi*, a 1x1 matrix here, and
    # never counts the 2^22 values of the projection kernel.
    path = tmp_path / "product.state"
    write_state_file(path, PureState((1,) * 22, np.ones(1)))
    code, out, _ = run(capsys, "eval", "--state", str(path), "--invariant", "Q")
    assert (code, out) == (0, "0.000000000\n")


def test_transform_on_a_one_dimensional_factor_counts_the_kernel_above_one(tmp_path, capsys):
    # The kernel's n_min is the smallest dimension above 1, so with a
    # 1-dimensional factor and total dimension 1,025 to 1,447 the kernel's
    # count fits and the J-vector's, at least 2 (n^2 + 1), refuses instead.
    for n, refusal in [
        (1025, "a J-vector of 2101252 entries"),
        (1447, "a J-vector of 4187620 entries"),
        (1448, "a projection kernel of 2098152 entries"),
    ]:
        path = tmp_path / f"pad{n}.state"
        write_state_file(path, PureState((1, n), np.ones(n)))
        code, out, err = run(capsys, "transform", "--state", str(path))
        assert (code, out) == (3, ""), n
        assert err.startswith(f"luinv: refusing {refusal} (dims (1, {n})"), n


def test_transform_refuses_before_building_either_vector(tmp_path, capsys, monkeypatch):
    # Ten qubits pass the kernel's count but not the J-vector's 5^10
    # entries: both counts are checked before anything is built.
    import luinv.invariants
    import luinv.states

    def boom(*args):
        raise AssertionError("built before the refusal")

    monkeypatch.setattr(luinv.invariants, "_projection_norms", boom)
    monkeypatch.setattr(luinv.states, "projector", boom)
    path = tmp_path / "q10.state"
    write_state_file(path, ghz_state(10))
    code, out, err = run(capsys, "transform", "--state", str(path))
    assert (code, out) == (3, "")
    assert err == (
        "luinv: refusing a J-vector of 9765625 entries "
        f"(dims {(2,) * 10}, limit 2097152)\n"
    )


HUGE_INTEGER_ARGVS = [
    ("dims", "--k", "{}", "--m", "2"),
    ("dims", "--k", "3", "--m", "{}"),
    ("dims", "--k", "2", "--m", "{}", "--mixed"),
    ("dims", "--local-dims", "{}", "--m", "2"),
    ("dims", "--local-dims", "2", "--m", "{}"),
    ("hilbert", "--k", "{}", "--order", "3"),
    ("hilbert", "--k", "3", "--order", "{}"),
    ("subgroups", "--rank", "{}", "--max-index", "2"),
    ("subgroups", "--rank", "2", "--max-index", "{}"),
    ("orbits", "--tuple-length", "{}", "--m", "2"),
    ("orbits", "--tuple-length", "2", "--m", "{}"),
    ("char-table", "--m", "{}"),
    ("eval", "--invariant", "higher", "--subset", "1,2", "--m", "{}"),
    ("rank-oracle", "--local-dims", "{}", "--m", "2", "--seed", "1"),
    ("rank-oracle", "--local-dims", "2", "--m", "{}", "--seed", "1"),
    ("rank-oracle", "--local-dims", "2", "--m", "2", "--seed", "{}"),
]


@pytest.mark.parametrize("value", [2**63, 10**30], ids=["2**63", "10**30"])
@pytest.mark.parametrize("argv", HUGE_INTEGER_ARGVS, ids=" ".join)
def test_huge_integers_never_crash(tmp_path, capsys, argv, value):
    # Each integer option at a huge value, the others small: an answer, a
    # usage error or a refusal, never an uncaught exception.
    argv = [arg.format(value) for arg in argv]
    if argv[0] == "eval":
        path = tmp_path / "bell.state"
        write_state_file(path, ghz_state(2))
        argv += ["--state", str(path)]
    code, _, err = run(capsys, *argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 3:
        assert err.startswith("luinv: refusing")


def test_eta_rejects_non_psd_state_exits_2(tmp_path, capsys):
    # Hermitian with unit trace, eigenvalues 0.7, 0.7, -0.2, -0.2.
    u = random_unitary(4, seed=3)
    entries = u @ np.diag([0.7, 0.7, -0.2, -0.2]) @ u.conj().T
    path = tmp_path / "indefinite.state"
    write_state_file(path, DensityMatrix((2, 2), entries))
    code, out, err = run(
        capsys, "eval", "--invariant", "eta", "--state", str(path), "--subset", "1"
    )
    assert (code, out) == (2, "")
    assert "positive semidefinite" in err


def test_byte_determinism(tmp_path, capsys):
    state = tmp_path / "psi.state"
    rng = np.random.default_rng(3)
    z = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    write_state_file(state, PureState((3, 3), z / np.linalg.norm(z)))
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "transform", "--state", str(state))
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    for _ in range(2):
        code, out, _ = run(capsys, "hilbert", "--k", "3", "--order", "6")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 2


# The process entry, cli.run: one `python -m luinv.cli` process per case,
# against main(argv) in this process.

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def in_a_process(argv, cwd, buffered=False, stdout=subprocess.PIPE):
    """(exit code, stdout, stderr) of one process; a buffered stdout is the
    default when PYTHONUNBUFFERED is unset."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "luinv.cli", *argv], cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE
    )
    return proc.returncode, proc.stdout, proc.stderr


PROCESS_CASES = [  # (argv, exit code)
    (("dims", "--k", "3", "--m", "2"), 0),
    (("hilbert", "--k", "2", "--order", "4"), 0),
    (("subgroups", "--rank", "2", "--max-index", "3"), 0),
    (("orbits", "--tuple-length", "2", "--m", "3"), 0),
    (("char-table", "--m", "4"), 0),
    (("eval", "--invariant", "I", "--state", "bell.state", "--subset", "1,2"), 0),
    (("transform", "--state", "bell.state"), 0),
    (("rank-oracle", "--local-dims", "2,2", "--m", "2", "--seed", "1"), 0),
    (("eval", "--invariant", "J", "--state", "nan.state", "--subset", "1"), 2),
    (("dims", "--k", "3", "--m", "2000"), 3),
    (("dims", "--bogus"), 2),
    (("--help",), 0),
]


@pytest.mark.parametrize("argv, exit_code", PROCESS_CASES, ids=[" ".join(argv) for argv, _ in PROCESS_CASES])
def test_process_matches_main(tmp_path, capsys, monkeypatch, argv, exit_code):
    # The help text wraps at the terminal width, so fix it for both runs.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    write_state_file("bell.state", ghz_state(2))
    entries = ["0.25 0.0" if i == j else "0.0 0.0" for i in range(4) for j in range(4)]
    entries[5] = "nan 0.0"
    (tmp_path / "nan.state").write_text("mixed\ndims 2 2\n" + "\n".join(entries) + "\n")
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse: --help and usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert code == exit_code
    assert in_a_process(argv, tmp_path) == (code, captured.out.encode(), captured.err.encode())


def test_long_transform_arrives_whole_through_a_pipe(tmp_path, capsys):
    # 2^16 rows through a buffered stdout: run() flushes before os._exit.
    path = tmp_path / "ones.state"
    write_state_file(path, PureState((1,) * 16, np.array([1.0])))
    code, out, _ = run(capsys, "transform", "--state", str(path))
    assert (code, out.count("\n")) == (0, 65538)
    assert in_a_process(["transform", "--state", str(path)], tmp_path, buffered=True) == (0, out.encode(), b"")


def test_closed_pipe_exits_120(tmp_path):
    # The reader is gone before the buffered stdout is flushed: the flush in
    # run() fails, and the normal exit reports it, as Python does.
    read, write = os.pipe()
    os.close(read)
    try:
        code, _, err = in_a_process(["dims", "--k", "3", "--m", "2"], tmp_path, buffered=True, stdout=write)
    finally:
        os.close(write)
    assert code == 120
    assert err.startswith(b"Exception ignored") and b"BrokenPipeError" in err


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"luinv": "luinv.cli:run"}
