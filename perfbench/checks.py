"""Checks of the program's outputs.  Each returns a list of error strings,
empty when the output is right; `test_checks.py` feeds each one a wrong
answer to show it is rejected."""

from __future__ import annotations

import math
import re

import numpy as np

import reference as ref

FLOAT_9 = re.compile(r"-?\d+\.\d{9}")
TOL = 1e-9


def _close(name: str, got, want, tol: float = TOL) -> list[str]:
    got, want = list(got), list(want)
    if len(got) != len(want):
        return [f"{name}: {len(got)} values, expected {len(want)}"]
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if not abs(g - w) <= tol]
    if bad:
        i = bad[0]
        return [f"{name}: entry {i} is {got[i]!r}, expected {want[i]!r} (tol {tol})"]
    return []


def _equal(name: str, got, want) -> list[str]:
    got, want = list(got), list(want)
    if got != want:
        return [f"{name}: {got[:12]} != expected {want[:12]}"]
    return []


# --------------------------------------------------------------------- exact


def series_dims(k: int, dims) -> list[str]:
    """Coefficients against the reference z-sum, and the partition numbers
    for k = 2."""
    errors = _equal(f"hilbert k={k}", dims, [ref.z_sum(k, m) for m in range(len(dims))])
    if k == 2:
        errors += _equal("hilbert k=2 vs p(m)", dims, ref.partition_numbers(len(dims) - 1))
    return errors


def euler_exponents(k: int, dims, u) -> list[str]:
    """Exponents against the reference inversion; u_d = 1 for k = 2 and the
    published rank-2 subgroup-class counts for k = 3."""
    errors = _equal(f"euler exponents k={k}", u, ref.euler_exponents(list(dims)))
    if k == 2:
        errors += _equal("u_d for k=2", u, [1] * len(u))
    if k == 3:
        n = min(len(u), len(ref.A057005))
        errors += _equal("u_d for k=3 vs A057005", list(u)[:n], ref.A057005[:n])
    return errors


def round_trip(series, expanded) -> list[str]:
    return _equal("expand_euler_product(euler_exponents(s))", expanded, series)


def dimension_routes(k: int, m: int, centralizer_route: int, character_route: int) -> list[str]:
    want = ref.z_sum(k, m)
    errors = []
    if centralizer_route != want:
        errors.append(f"stable_dimension({k},{m}) = {centralizer_route}, z-sum gives {want}")
    if character_route != want:
        errors.append(
            f"stable_dimension_via_characters({k},{m}) = {character_route}, z-sum gives {want}"
        )
    return errors


def restricted_chain(m: int, chain, values) -> list[str]:
    """Values along a chain of bounded dims that grows one coordinate at a
    time: monotone, and equal to the stable dimension of len(dims)+1
    subsystems once every dimension is at least m."""
    errors = []
    for (d0, v0), (d1, v1) in zip(zip(chain, values), zip(chain[1:], values[1:])):
        if v1 < v0:
            errors.append(f"restricted_dimension not monotone at m={m}: {d0}->{v0}, {d1}->{v1}")
    for dims, value in zip(chain, values):
        if min(dims) >= m and value != ref.z_sum(len(dims) + 1, m):
            errors.append(
                f"restricted_dimension({dims},{m}) = {value}, "
                f"expected stable {ref.z_sum(len(dims) + 1, m)}"
            )
    return errors


def character_table(m: int, labels, rows) -> list[str]:
    """labels: the partitions indexing rows (and, in the same order, the
    classes); rows: character values on each class.  First column against
    hook lengths, rows orthonormal under the 1/z weights."""
    parts = list(ref.partitions(m))
    errors = _equal(f"partitions of {m}", [tuple(p) for p in labels], parts)
    if errors:
        return errors
    identity = len(parts) - 1  # class (1^m) comes last
    errors += _equal(
        f"character degrees m={m}",
        [row[identity] for row in rows],
        [ref.hook_dimension(p) for p in parts],
    )
    table = np.array(rows, dtype=float)
    weights = 1.0 / np.array([ref.centralizer(p) for p in parts], dtype=float)
    gram = (table * weights) @ table.T
    deviation = float(np.abs(gram - np.eye(len(parts))).max())
    if deviation > TOL:
        errors.append(f"character rows of S_{m} not orthonormal: deviation {deviation:.3e}")
    return errors


# -------------------------------------------------------------------- census


def orbit_count(length: int, m: int, count: int) -> list[str]:
    want = ref.z_sum(length + 1, m)
    return [] if count == want else [f"orbits({length},{m}) = {count}, z-sum gives {want}"]


def subgroup_counts(rank: int, counts, series_u=None) -> list[str]:
    """counts[d-1] for d = 1..: the reference Euler exponents of the
    (rank+1)-subsystem z-sums, A057005 for rank 2, and, when given, the
    program's own series exponents."""
    n = len(counts)
    want = ref.euler_exponents([ref.z_sum(rank + 1, m) for m in range(n + 1)])
    errors = _equal(f"subgroups rank {rank} vs reference exponents", counts, want)
    if rank == 2:
        errors += _equal("subgroups rank 2 vs A057005", counts, ref.A057005[:n])
    if series_u is not None:
        errors += _equal(f"subgroups rank {rank} vs series exponents", counts, series_u)
    return errors


# -------------------------------------------------------------------- states


def transform(ivec, jvec, forward, backward) -> list[str]:
    """j_from_i(I) = J and i_from_j(J) = I, to 1e-9."""
    return _close("j_from_i(I) vs J", forward, jvec) + _close("i_from_j(J) vs I", backward, ivec)


def odd_subsets_vanish(ivec) -> list[str]:
    odd = [ivec[bits] for bits in range(len(ivec)) if bits.bit_count() % 2]
    return _close("I_A for odd |A|", odd, [0.0] * len(odd), 1e-12)


def j_against_reference(coeffs, dims, jvec) -> list[str]:
    return _close(f"J vector on {dims}", jvec, ref.j_vector(coeffs, dims))


def lu_invariant(name: str, before, after) -> list[str]:
    return _close(f"{name} under local unitaries", after, before)


def eta_values(dims, jvec, etas) -> list[str]:
    """eta_{j} = d/(d-1) (1 - J_{j}) for each single subsystem j."""
    want = [dims[j] / (dims[j] - 1) * (1.0 - jvec[1 << j]) for j in range(len(dims))]
    return _close(f"eta on {dims}", etas, want)


def meyer_wallach(dims, jvec, q) -> list[str]:
    k = len(dims)
    want = 2.0 - 2.0 / k * sum(jvec[1 << j] for j in range(k))
    return _close(f"Meyer-Wallach on {dims}", [q], [want])


def anchor(name: str, got: float, want: float) -> list[str]:
    return _close(name, [got], [want])


def higher_m2(coeffs, dims, bits: int, value: float) -> list[str]:
    """At m = 2 the higher invariant is I_A."""
    k = len(dims)
    want = ref.i_from_j(ref.j_vector(coeffs, dims), k)[bits]
    return _close(f"higher m=2 on {dims} subset bits {bits}", [value], [want])


def rank(dims, m: int, got: int, restricted: int) -> list[str]:
    if got == restricted:
        return []
    return [f"invariant_space_rank({dims},{m}) = {got}, restricted_dimension gives {restricted}"]


# ----------------------------------------------------------------------- cli


def cli_outcome(argv, code: int, want_code: int, out: str, check) -> tuple[bool, list[str]]:
    """(failed, errors) for one command: a wrong exit code fails the
    operation; the printed output of one that did not fail is checked."""
    if code != want_code:
        return True, []
    return False, [f"{' '.join(argv)}: {e}" for e in check(out)]


def cli_int(out: str, want: int) -> list[str]:
    text = out.strip()
    return [] if text == str(want) else [f"printed {text!r}, expected {want}"]


def cli_float(out: str, want: float, tol: float = TOL) -> list[str]:
    text = out.strip()
    if not FLOAT_9.fullmatch(text):
        return [f"printed {text!r}, not a float with 9 decimals"]
    return _close("printed value", [float(text)], [want], max(tol, 1e-9))


def _rows(out: str):
    return [line.split("\t") for line in out.splitlines() if line and not line.startswith("#")]


def cli_hilbert(out: str, k: int, order: int) -> list[str]:
    rows = _rows(out)
    if len(rows) != 2 * order + 1:
        return [f"hilbert printed {len(rows)} rows, expected {2 * order + 1}"]
    dims = [int(r[1]) for r in rows[: order + 1]]
    u = [int(r[1]) for r in rows[order + 1 :]]
    return series_dims(k, dims) + euler_exponents(k, dims, u)


def cli_subgroups(out: str, rank_: int, max_index: int) -> list[str]:
    rows = _rows(out)
    if [int(r[0]) for r in rows] != list(range(1, max_index + 1)):
        return [f"subgroups printed indices {[r[0] for r in rows]}"]
    return subgroup_counts(rank_, [int(r[1]) for r in rows])


def cli_char_table(out: str, m: int) -> list[str]:
    lines = out.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# class\t") or not lines[1].startswith("# size\t"):
        return ["char-table header missing"]
    labels = [tuple(int(x) for x in s.strip("()").split(",")) for s in lines[0].split("\t")[1:]]
    sizes = [int(s) for s in lines[1].split("\t")[1:]]
    rows = _rows(out)
    errors = _equal(
        f"class sizes of S_{m}",
        sizes,
        [math.factorial(m) // ref.centralizer(p) for p in ref.partitions(m)],
    )
    errors += _equal(f"row labels of S_{m}", [r[0] for r in rows], [f"({','.join(map(str, p))})" for p in labels])
    return errors + character_table(m, labels, [[int(x) for x in r[1:]] for r in rows])


def cli_transform(out: str, ivec, jvec) -> list[str]:
    rows = _rows(out)
    errors = []
    for r in rows:
        for x in r[1:]:
            if not FLOAT_9.fullmatch(x):
                errors.append(f"transform printed {x!r}, not a float with 9 decimals")
    if errors:
        return errors
    errors += _close("transform I column", [float(r[1]) for r in rows], ivec)
    errors += _close("transform J column", [float(r[2]) for r in rows], jvec)
    residual = [line for line in out.splitlines() if line.startswith("# max_residual\t")]
    if len(residual) != 1 or not float(residual[0].split("\t")[1]) <= TOL:
        errors.append(f"transform residual line {residual!r}")
    return errors
