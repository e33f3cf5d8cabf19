"""The operation lists of the workloads, their inputs and their checks.

The library workload runs the exact, census and states lists; each is a
class built from the run's seed during set-up.  `operations()` returns
the fixed, ordered list that one round times; each entry is (key,
function of the results so far).  The
functions look the program up through its module attributes at call time,
so a traced round sees them through the tracer's wrappers.  `checks()`
returns thunks over the results, run after the timed region.

The cli workload is a list of command lines with the check for each,
written against state files that `write_state_files` creates.
"""

from __future__ import annotations

import os

import numpy as np

import checks
import reference as ref


class Skipped(Exception):
    """A check needs the result of an operation that failed."""


class Results(dict):
    def __missing__(self, key):
        raise Skipped(key)


def _chain(n: int, m: int) -> list[tuple[int, ...]]:
    """Bounded dims from (1,...,1) to (m,...,m), one coordinate up a step."""
    dims = [1] * n
    out = [tuple(dims)]
    while min(dims) < m:
        low = min(dims)
        j = max(i for i, d in enumerate(dims) if d == low)
        dims[j] += 1
        out.append(tuple(dims))
    return out


class Exact:
    """Exact combinatorics; fixed inputs, no numpy kernel in the timed work."""

    SERIES = ((2, 30), (3, 26), (4, 22), (5, 20))  # (k, order)
    ROUTES = [(k, m) for k in (2, 3, 4, 5) for m in range(12)]
    CHAINS = [(2, m) for m in range(3, 9)] + [(3, m) for m in range(3, 6)]
    TABLES = range(1, 15)

    def __init__(self, L, seed: int) -> None:
        self.L = L

    def operations(self):
        L = self.L
        ops = []
        for k, order in self.SERIES:
            ops.append((("hilbert", k), lambda r, k=k, o=order: L.series.hilbert_series(k, o)))
            ops.append((("euler", k), lambda r, k=k: L.series.euler_exponents(r["hilbert", k], k)))
            ops.append(
                (("expand", k), lambda r, k=k, o=order: L.series.expand_euler_product(r["euler", k], o))
            )
        for k, m in self.ROUTES:
            ops.append((("stable", k, m), lambda r, k=k, m=m: L.dimensions.stable_dimension(k, m)))
        for k, m in self.ROUTES:
            ops.append(
                (
                    ("via_characters", k, m),
                    lambda r, k=k, m=m: L.dimensions.stable_dimension_via_characters(k, m),
                )
            )
        for n, m in self.CHAINS:
            for dims in _chain(n, m):
                ops.append(
                    (("restricted", dims, m), lambda r, d=dims, m=m: L.dimensions.restricted_dimension(d, m))
                )
        for m in self.TABLES:
            ops.append(
                (
                    ("table", m),
                    lambda r, m=m: [
                        (lam.parts, L.characters.irreducible_character(lam).values)
                        for lam in L.combinatorics.partitions_of(m)
                    ],
                )
            )
        return ops

    def checks(self, r):
        out = []
        for k, _ in self.SERIES:
            out.append(lambda k=k: checks.series_dims(k, r["hilbert", k].coeffs))
            out.append(lambda k=k: checks.euler_exponents(k, r["hilbert", k].coeffs, r["euler", k].u))
            out.append(lambda k=k: checks.round_trip(r["hilbert", k].coeffs, r["expand", k].coeffs))
        for k, m in self.ROUTES:
            out.append(
                lambda k=k, m=m: checks.dimension_routes(k, m, r["stable", k, m], r["via_characters", k, m])
            )
        for n, m in self.CHAINS:
            chain = _chain(n, m)
            out.append(
                lambda m=m, c=chain: checks.restricted_chain(m, c, [r["restricted", d, m] for d in c])
            )
        for m in self.TABLES:
            out.append(
                lambda m=m: checks.character_table(
                    m, [p for p, _ in r["table", m]], [v for _, v in r["table", m]]
                )
            )
        return out


class Census:
    """Brute-force tuple walks: with the transitivity filter (subgroups) and
    without it (orbits).  Fixed inputs."""

    SUBGROUPS = ((2, 5), (3, 4))  # (rank, largest index)
    ORBITS = ((2, 5), (3, 4), (1, 8), (5, 3), (4, 3), (2, 4))  # (tuple length, m)

    def __init__(self, L, seed: int) -> None:
        self.L = L

    def operations(self):
        L = self.L
        ops = []
        for rank, top in self.SUBGROUPS:
            for d in range(1, top + 1):
                ops.append(
                    (("subgroups", rank, d), lambda r, a=rank, d=d: L.free_group_census.count_subgroup_classes(a, d))
                )
        for length, m in self.ORBITS:
            ops.append(
                (("orbits", length, m), lambda r, a=length, m=m: L.free_group_census.conjugation_orbit_count(a, m))
            )
        return ops

    def checks(self, r):
        L = self.L
        out = []
        for rank, top in self.SUBGROUPS:
            out.append(
                lambda rank=rank, top=top: checks.subgroup_counts(
                    rank,
                    [r["subgroups", rank, d] for d in range(1, top + 1)],
                    list(L.series.euler_exponents(L.series.hilbert_series(rank + 1, top)).u),
                )
            )
        for length, m in self.ORBITS:
            out.append(lambda a=length, m=m: checks.orbit_count(a, m, r["orbits", a, m]))
        return out


class States:
    """Numeric kernels and the rank oracle on states generated from the
    seed.  The random states, their local unitaries and the rank-oracle
    seeds all come from one numpy Generator seeded with the run's seed."""

    RANDOM = [(2, 2, 2), (2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2), (2,) * 5, (2,) * 5, (3, 3, 3), (3, 3, 3)]
    HIGHER = [(2, 2), (2, 2, 2)]
    RANKS = [((2, 2), 3), ((2, 3), 3), ((2,), 4)]

    def __init__(self, L, seed: int) -> None:
        self.L = L
        rng = np.random.default_rng([seed, 3])
        self.random = []
        for dims in self.RANDOM:
            coeffs = ref.random_coeffs(rng, dims)
            rotated = ref.rotate(coeffs, dims, [ref.haar_unitary(rng, n) for n in dims])
            self.random.append((dims, coeffs, rotated))
        self.anchors = []
        for k in (3, 4):
            self.anchors.append((f"Q(GHZ{k})", (2,) * k, ref.ghz_coeffs(k), 1.0))
            product = np.ones(1, dtype=complex)
            for _ in range(k):
                product = np.kron(product, ref.random_coeffs(rng, (2,)))
            self.anchors.append((f"Q(product{k})", (2,) * k, product, 0.0))
        self.higher = []
        for dims in self.HIGHER:
            coeffs = ref.random_coeffs(rng, dims)
            rotated = ref.rotate(coeffs, dims, [ref.haar_unitary(rng, n) for n in dims])
            self.higher.append((dims, coeffs, rotated))
        self.rank_seeds = [int(s) for s in rng.integers(0, 2**31, size=len(self.RANKS))]
        pure, dens = L.states.PureState, L.states.DensityMatrix
        self.psi = {}
        for i, (dims, coeffs, rotated) in enumerate(self.random):
            self.psi["random", i] = pure(dims, coeffs)
            self.psi["rotated", i] = pure(dims, rotated)
            self.psi["rho", i] = dens(dims, np.outer(coeffs, coeffs.conj()))
            self.psi["rho_rotated", i] = dens(dims, np.outer(rotated, rotated.conj()))
        for i, (_, dims, coeffs, _) in enumerate(self.anchors):
            self.psi["anchor", i] = pure(dims, coeffs)
        for i, (dims, coeffs, rotated) in enumerate(self.higher):
            self.psi["higher", i] = pure(dims, coeffs)
            self.psi["higher_rotated", i] = pure(dims, rotated)

    def _subset(self, k: int, bits: int):
        return self.L.subsets.SubsetMask.from_bits(k, bits)

    def operations(self):
        L, psi = self.L, self.psi
        inv = L.invariants
        ops = []
        for i, (dims, _, _) in enumerate(self.random):
            k = len(dims)
            ops += [
                (("I", i), lambda r, i=i: inv.invariant_I_vector(psi["random", i]).values),
                (("J", i), lambda r, i=i: inv.invariant_J_vector(psi["rho", i]).values),
                (("j_from_i", i), lambda r, i=i, k=k: inv.j_from_i(inv.InvariantVector(k, r["I", i])).values),
                (("i_from_j", i), lambda r, i=i, k=k: inv.i_from_j(inv.InvariantVector(k, r["J", i])).values),
                (("Q", i), lambda r, i=i: inv.meyer_wallach(psi["random", i])),
                (
                    ("eta", i),
                    lambda r, i=i, k=k: [inv.eta(psi["rho", i], self._subset(k, 1 << j)) for j in range(k)],
                ),
                (("I_rotated", i), lambda r, i=i: inv.invariant_I_vector(psi["rotated", i]).values),
            ]
        for i in range(len(self.anchors)):
            ops.append((("anchor", i), lambda r, i=i: inv.meyer_wallach(psi["anchor", i])))
        for i, (dims, _, _) in enumerate(self.higher):
            for m in (2, 3):
                for bits in (0, 3):
                    ops.append(
                        (
                            ("higher", i, m, bits),
                            lambda r, i=i, m=m, b=bits, k=len(dims): inv.higher_invariant(
                                psi["higher", i], self._subset(k, b), m
                            ),
                        )
                    )
        for (dims, m), seed in zip(self.RANKS, self.rank_seeds):
            ops.append(
                (("rank", dims, m), lambda r, d=dims, m=m, s=seed: L.states.invariant_space_rank(d, m, seed=s))
            )
        return ops

    def checks(self, r):
        L, psi = self.L, self.psi
        inv = L.invariants
        out = []
        for i, (dims, coeffs, _) in enumerate(self.random):
            out += [
                lambda i=i: checks.transform(r["I", i], r["J", i], r["j_from_i", i], r["i_from_j", i]),
                lambda i=i: checks.odd_subsets_vanish(r["I", i]),
                lambda i=i, d=dims, c=coeffs: checks.j_against_reference(c, d, r["J", i]),
                lambda i=i: checks.lu_invariant("I vector", r["I", i], r["I_rotated", i]),
                lambda i=i: checks.lu_invariant(
                    "J vector", r["J", i], inv.invariant_J_vector(psi["rho_rotated", i]).values
                ),
                lambda i=i, d=dims: checks.eta_values(d, r["J", i], r["eta", i]),
                lambda i=i, d=dims: checks.meyer_wallach(d, r["J", i], r["Q", i]),
            ]
        for i, (name, _, _, want) in enumerate(self.anchors):
            out.append(lambda i=i, n=name, w=want: checks.anchor(n, r["anchor", i], w))
        for i, (dims, coeffs, _) in enumerate(self.higher):
            for bits in (0, 3):
                out.append(lambda i=i, b=bits, d=dims, c=coeffs: checks.higher_m2(c, d, b, r["higher", i, 2, b]))
                out.append(
                    lambda i=i, b=bits, d=dims: checks.lu_invariant(
                        f"higher m=3 on {d}",
                        [r["higher", i, 3, b]],
                        [inv.higher_invariant(psi["higher_rotated", i], self._subset(len(d), b), 3)],
                    )
                )
        for dims, m in self.RANKS:
            out.append(
                lambda d=dims, m=m: checks.rank(d, m, r["rank", d, m], L.dimensions.restricted_dimension(d, m))
            )
        return out


class Library:
    """The exact, census and states lists, in that order, in one round.

    One workload for all library layers, so that a run of the length the
    benchmark can afford holds several rounds of each: on a host whose
    speed drifts over tens of seconds, runs half as long scattered
    `wall_s` by up to 0.27 of its median.  The per-layer metrics of the
    traced run still say which layer moved.
    """

    def __init__(self, L, seed: int) -> None:
        self.parts = [Exact(L, seed), Census(L, seed), States(L, seed)]

    def operations(self):
        return [op for part in self.parts for op in part.operations()]

    def checks(self, r):
        return [check for part in self.parts for check in part.checks(r)]


# ----------------------------------------------------------------------- cli


def _write_state(path: str, kind: str, dims, flat) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{kind}\ndims {' '.join(map(str, dims))}\n")
        for value in flat:
            handle.write(f"{complex(value).real!r} {complex(value).imag!r}\n")


def cli_states(seed: int) -> dict:
    """State-file contents, from the seed except for the fixed NaN file."""
    rng = np.random.default_rng([seed, 4])
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    mixed = g @ g.conj().T
    nan = np.eye(4, dtype=complex) / 4
    nan[1, 1] = float("nan")
    return {
        "bell": ("pure", (2, 2), ref.ghz_coeffs(2)),
        "ghz4": ("pure", (2, 2, 2, 2), ref.ghz_coeffs(4)),
        "rand3": ("pure", (2, 2, 2), ref.random_coeffs(rng, (2, 2, 2))),
        "mixed2": ("mixed", (2, 2), mixed / np.trace(mixed).real),
        "nan": ("mixed", (2, 2), nan),
    }


def write_state_files(directory: str, seed: int) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, (kind, dims, values) in cli_states(seed).items():
        _write_state(os.path.join(directory, f"{name}.state"), kind, dims, np.asarray(values).reshape(-1))


def cli_commands(directory: str, seed: int):
    """(argv, expected exit code, check of stdout) for one round: 30
    combinatorial and 30 state commands, interleaved; the NaN case last."""
    states = cli_states(seed)

    def path(name):
        return os.path.join(directory, f"{name}.state")

    def pure_j(name):
        _, dims, coeffs = states[name]
        return ref.j_vector(coeffs, dims)

    def pure_i(name):
        return ref.i_from_j(pure_j(name), len(states[name][1]))

    def q(name):
        jvec, k = pure_j(name), len(states[name][1])
        return 2.0 - 2.0 / k * sum(jvec[1 << j] for j in range(k))

    _, _, mixed = states["mixed2"]
    mixed_j2 = ref.purity(ref.reduced_mixed(mixed, (2, 2), [2]))
    rank_seed = int(np.random.default_rng([seed, 5]).integers(0, 2**31))

    combinatorial = []
    for v in range(3):
        m = (2, 3, 4)[v]
        combinatorial += [
            (["dims", "--k", "3", "--m", str(m)], lambda o, m=m: checks.cli_int(o, ref.z_sum(3, m))),
            (["dims", "--k", "2", "--m", str(m + 3)], lambda o, m=m: checks.cli_int(o, ref.partition_numbers(m + 3)[-1])),
            (["dims", "--local-dims", f"{m},{m}", "--m", str(m)], lambda o, m=m: checks.cli_int(o, ref.z_sum(3, m))),
            (["dims", "--k", str(v + 2), "--m", "2", "--mixed"], lambda o, v=v: checks.cli_int(o, ref.z_sum(v + 3, 2))),
            (["hilbert", "--k", "3", "--order", str(m + 4)], lambda o, m=m: checks.cli_hilbert(o, 3, m + 4)),
            (["hilbert", "--k", "2", "--order", str(2 * m + 4)], lambda o, m=m: checks.cli_hilbert(o, 2, 2 * m + 4)),
            (["subgroups", "--rank", "2", "--max-index", str(m)], lambda o, m=m: checks.cli_subgroups(o, 2, m)),
            (["subgroups", "--rank", "3", "--max-index", str(m - 1)], lambda o, m=m: checks.cli_subgroups(o, 3, m - 1)),
            (
                ["orbits", "--tuple-length", str((2, 3, 1)[v]), "--m", str((4, 3, 6)[v])],
                lambda o, v=v: checks.cli_int(o, ref.z_sum((2, 3, 1)[v] + 1, (4, 3, 6)[v])),
            ),
            (["char-table", "--m", str(m + 2)], lambda o, m=m: checks.cli_char_table(o, m + 2)),
        ]
    templates = [
        (["eval", "--invariant", "Q", "--state", path("ghz4")], lambda o: checks.cli_float(o, 1.0)),
        (["eval", "--invariant", "I", "--state", path("bell"), "--subset", "1,2"], lambda o: checks.cli_float(o, pure_i("bell")[3])),
        (["eval", "--invariant", "eta", "--state", path("bell"), "--subset", "1"], lambda o: checks.cli_float(o, 1.0)),
        (["eval", "--invariant", "higher", "--state", path("bell"), "--subset", "", "--m", "2"], lambda o: checks.cli_float(o, pure_i("bell")[0])),
        (["transform", "--state", path("bell")], lambda o: checks.cli_transform(o, pure_i("bell"), pure_j("bell"))),
        (["rank-oracle", "--local-dims", "2,2", "--m", "2", "--seed", str(rank_seed)], lambda o: checks.cli_int(o, ref.z_sum(3, 2))),
        (["eval", "--invariant", "J", "--state", path("bell"), "--subset", "1"], lambda o: checks.cli_float(o, 0.5)),
        (["eval", "--invariant", "Q", "--state", path("rand3")], lambda o: checks.cli_float(o, q("rand3"))),
        (["eval", "--invariant", "J", "--state", path("mixed2"), "--subset", "2"], lambda o: checks.cli_float(o, mixed_j2)),
        (["transform", "--state", path("rand3")], lambda o: checks.cli_transform(o, pure_i("rand3"), pure_j("rand3"))),
        (["eval", "--invariant", "I", "--state", path("rand3"), "--subset", "1,2"], lambda o: checks.cli_float(o, pure_i("rand3")[3])),
        (["eval", "--invariant", "eta", "--state", path("rand3"), "--subset", "1"], lambda o: checks.cli_float(o, 2 * (1 - pure_j("rand3")[1]))),
    ]
    state_cmds = [templates[i % len(templates)] for i in range(29)]
    commands = []
    for (argv_c, check_c), (argv_s, check_s) in zip(combinatorial, state_cmds):
        commands += [(argv_c, 0, check_c), (argv_s, 0, check_s)]
    argv_c, check_c = combinatorial[-1]
    commands.append((argv_c, 0, check_c))
    # A NaN entry must be refused with exit 2 (input error); today it is not.
    commands.append(
        (["eval", "--invariant", "J", "--state", path("nan"), "--subset", "1"], 2, lambda o: [])
    )
    return commands
