"""Pure and mixed multipartite states as complex coefficient tensors.

Index convention, shared by every module and the state file format:
coefficients are stored row-major over the subsystem multi-index with the
last subsystem varying fastest, i.e. C-order flattening of an array of
shape dims.

The rank oracle evaluates one permutation contraction per conjugation
orbit of S_m on S_m^k, exactly mod a prime, on the orbit representatives of
the census walk of free_group_census: the m copies of a random integer
stand-in for the system density matrix are joined one einsum at a time.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, Frozen, check_work
from .subsets import SubsetMask

HERMITICITY_TOL = 1e-12
# Most negative eigenvalue, relative to the largest, and excess trace that
# DensityMatrix.validate_physical accepts.
PHYSICAL_TOL = 1e-10
# Samples that may fail to raise the rank before the rank oracle stops.
STALL = 2
# Work bound of the rank oracle: entries sampled or visited, all samples.
RANK_GATHER_BOUND = 20_000_000
# The rank oracle's prime, 2^19 - 1.  An einsum step sums at most n^2 <=
# RANK_GATHER_BOUND / 3 products of two residues, and RANK_GATHER_BOUND *
# (PRIME - 1)**2 < 2**63, so every step is exact in int64.
PRIME = 2**19 - 1
# Largest projector psi psi* built, in matrix entries; eleven qubits fit.
PROJECTOR_ENTRY_BOUND = 1 << 22


class PureState(Frozen):
    __slots__ = ("dims", "coeffs")
    dims: tuple[int, ...]
    coeffs: np.ndarray

    def __init__(self, dims: tuple[int, ...], coeffs) -> None:
        if any(n < 1 for n in dims):
            raise ValueError("dimensions must be positive")
        coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
        if coeffs.size != math.prod(dims):
            raise ValueError(f"expected {math.prod(dims)} coefficients, got {coeffs.size}")
        if not np.all(np.isfinite(coeffs.view(float))):
            raise ValueError("coefficients must be finite")
        Frozen.__init__(self, dims, coeffs)

    @property
    def k(self) -> int:
        return len(self.dims)

    def norm_squared(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)


class DensityMatrix(Frozen):
    __slots__ = ("dims", "entries")
    dims: tuple[int, ...]
    entries: np.ndarray

    def __init__(self, dims: tuple[int, ...], entries) -> None:
        if any(n < 1 for n in dims):
            raise ValueError("dimensions must be positive")
        side = math.prod(dims)
        entries = np.asarray(entries, dtype=complex)
        if entries.shape != (side, side):
            raise ValueError(f"expected a {side}x{side} matrix, got {entries.shape}")
        if not np.isfinite(entries).all():
            raise ValueError("entries must be finite")
        scale = max(1.0, float(np.abs(entries).max(initial=0.0)))
        if float(np.abs(entries - entries.conj().T).max(initial=0.0)) > HERMITICITY_TOL * scale:
            raise ValueError("matrix is not Hermitian within tolerance")
        Frozen.__init__(self, dims, entries)

    @property
    def k(self) -> int:
        return len(self.dims)

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def validate_physical(self) -> None:
        """Check positive semidefiniteness and trace at most 1, within
        PHYSICAL_TOL."""
        eigs = np.linalg.eigvalsh(self.entries)
        scale = max(1.0, float(eigs[-1]) if eigs.size else 1.0)
        if eigs.size and eigs[0] < -PHYSICAL_TOL * scale:
            raise ValueError(f"not positive semidefinite: min eigenvalue {eigs[0]}")
        if self.trace() > 1.0 + PHYSICAL_TOL:
            raise ValueError(f"trace {self.trace()} exceeds 1")


def projector(psi: PureState) -> DensityMatrix:
    """The rank-one operator psi psi*, refused past PROJECTOR_ENTRY_BOUND
    entries before it is built."""
    side = psi.coeffs.size
    message = f"refusing to build a {side}x{side} projector (limit {PROJECTOR_ENTRY_BOUND} entries)"
    check_work((side, side), PROJECTOR_ENTRY_BOUND, message)
    return DensityMatrix(psi.dims, np.outer(psi.coeffs, psi.coeffs.conj()))


def partial_trace(rho: DensityMatrix, traced: SubsetMask) -> DensityMatrix:
    """Trace out the subsystems in `traced`, a subset over the state's k
    labels, keeping the rest.

    Tracing out nothing returns rho itself; tracing out everything returns
    the 1x1 matrix holding the trace.  Only dimensions > 1 get einsum labels.
    """
    if traced.k != rho.k:
        raise ValueError(f"subset is over {traced.k} labels, state has {rho.k}")
    bits = traced.bits
    if not bits:
        return rho
    axes = [ax for ax, n in enumerate(rho.dims) if n > 1]
    shape = [rho.dims[ax] for ax in axes]
    col = [i if bits >> ax & 1 else len(axes) + i for i, ax in enumerate(axes)]
    keep = [i for i, ax in enumerate(axes) if not bits >> ax & 1]
    out = keep + [len(axes) + i for i in keep]
    reduced = np.einsum(rho.entries.reshape(shape * 2), list(range(len(axes))) + col, out)
    new_dims = tuple(n for ax, n in enumerate(rho.dims) if not bits >> ax & 1)
    side = math.prod(new_dims)
    return DensityMatrix(new_dims, reduced.reshape(side, side))


def random_pure_state(dims: Sequence[int], seed) -> PureState:
    """Unit-norm state with Haar-uniform direction, deterministic in seed."""
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureState(tuple(dims), z / np.linalg.norm(z))


def ghz_state(k: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on k qubits."""
    tensor = np.zeros((2,) * k, dtype=complex)
    tensor[(0,) * k] = tensor[(1,) * k] = 1.0 / math.sqrt(2)
    return PureState((2,) * k, tensor.reshape(-1))


# ---------------------------------------------------------------------------
# The rank oracle


def _orbit_steps(sys_dims: tuple[int, ...], m: int) -> list:
    """Per orbit representative taus, the einsum steps (kept, legs, out)
    that join copies 0..m-1 of rho_sys in order.  Copy j has row leg (j, l)
    and column leg (taus[l][j], l) on subsystem l, the environment wired
    straight through.  Step j keeps the legs a later copy carries and sums
    the rest, all of them copy j's: at most n^2 products.  Only the w
    subsystems of dimension > 1 get legs; row leg i of copy c is label
    c*w + i, and w*m <= 24 < 52 as 2^(w*m) <= n^m <= RANK_GATHER_BOUND."""
    from .free_group_census import orbit_representatives

    axes = [l for l, n in enumerate(sys_dims) if n > 1]
    rows = [[c * len(axes) + i for i in range(len(axes))] for c in range(m)]
    plans = []
    for taus in orbit_representatives(len(sys_dims), m):
        legs = [rows[j] + [rows[taus[l][j]][i] for i, l in enumerate(axes)] for j in range(m)]
        last = {leg: j for j in range(m) for leg in legs[j]}
        steps, kept = [], []
        for j in range(m):
            out = [leg for leg in dict.fromkeys(kept + legs[j]) if last[leg] > j]
            steps.append((kept, legs[j], out))
            kept = out
        plans.append(steps)
    return plans


def _orbit_contractions(rho_sys: np.ndarray, sys_dims: tuple[int, ...], plans) -> np.ndarray:
    """One contraction mod PRIME per orbit of _orbit_steps, of an int64
    rho_sys with entries mod PRIME."""
    t = rho_sys.reshape([n for n in sys_dims if n > 1] * 2)
    one, row = np.ones((), dtype=np.int64), []
    for steps in plans:
        value = one
        for kept, legs, out in steps:
            value = np.einsum(value, kept, t, legs, out) % PRIME
        row.append(value)
    return np.array(row)


def invariant_space_rank(dims: Sequence[int], m: int, seed=0) -> int:
    """Rank mod PRIME of the permutation contractions of states on dims plus
    an environment of dimension prod(dims), evaluated on random samples.

    Relabelling the m copies of the state, or of its conjugate, leaves a
    contraction's value unchanged, so the environment permutation is the
    identity and the columns are the census walk's representatives of the
    orbits of S_m on S_m^k under simultaneous conjugation, as many as
    stable_dimension(k+1, m) (checked).
    Each contraction is an integer polynomial in the entries of rho_sys,
    and Hermitian matrices are a real form of M_n(C), so a sample is a
    uniform random integer matrix mod PRIME = 2^19 - 1.  The rank mod PRIME
    never exceeds the true rank; a sample fails to raise a lower rank with
    probability at most about m/PRIME, or m * 1.9e-6 (Schwartz-Zippel).
    Sampling stops once STALL samples have not raised the rank, or at the
    column count.  Refused first on a bad seed, then before the census walk
    past the census's tuple bound, or past RANK_GATHER_BOUND entries over
    columns + STALL samples of max(n^2, columns x m x n^m) entries sampled
    or visited (none at m = 0), as each of a contraction's m steps visits at most n^m tuples.
    """
    # The exact layers load here, not with the module: `eval` and
    # `transform` never run them.
    from .dimensions import stable_dimension
    from .free_group_census import check_tuple_bound

    sys_dims = tuple(dims)
    if m < 0:
        raise ValueError("need m >= 0")
    seeds = np.random.SeedSequence(seed)  # refuses a bad seed before any work
    k = len(sys_dims)
    check_tuple_bound(m, k)
    columns = stable_dimension(k + 1, m)
    n_sys = math.prod(sys_dims)
    check_work(
        (max(n_sys**2, columns * m * n_sys**m) if m else 0, columns + STALL),
        RANK_GATHER_BOUND,
        f"refusing up to {columns + STALL} samples of {n_sys}x{n_sys} entries and {columns} "
        f"contractions of {m} factors over {n_sys}^{m} indices "
        f"(limit {RANK_GATHER_BOUND} sampled or gathered entries)",
    )
    plans = _orbit_steps(sys_dims, m)
    if len(plans) != columns:
        raise ConsistencyError(f"{len(plans)} conjugation orbits, stable_dimension gives {columns}")
    if m == 0:
        return 1  # the single empty contraction is the constant 1
    rng = np.random.default_rng(seeds)
    basis, failed = [], 0  # basis: (pivot, echelon row with 1 at the pivot)
    while len(basis) < columns and failed < STALL:
        row = _orbit_contractions(rng.integers(0, PRIME, (n_sys, n_sys)), sys_dims, plans)
        for pivot, echelon in basis:
            row = (row - row[pivot] * echelon) % PRIME
        pivot = int(np.argmax(row != 0))
        if row[pivot]:
            basis.append((pivot, row * pow(int(row[pivot]), -1, PRIME) % PRIME))
        else:
            failed += 1
    return len(basis)


# ---------------------------------------------------------------------------
# State files


def read_state_file(path) -> PureState | DensityMatrix:
    """Parse the text state format: a `pure`/`mixed` line, a `dims` line,
    then one `re im` coefficient per line; `#` lines are comments.  Refused
    unread past PROJECTOR_ENTRY_BOUND coefficients (n pure, n^2 mixed), and
    at the first value line past those the dims line allows."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = (line for line in map(str.strip, handle) if line and not line.startswith("#"))
        kind, dims_line = next(lines, None), next(lines, None)
        if dims_line is None:
            raise ValueError("state file needs a kind line and a dims line")
        if kind not in ("pure", "mixed"):
            raise ValueError(f"unknown state kind {kind!r}")
        dims_tokens = dims_line.split()
        if dims_tokens[0] != "dims" or len(dims_tokens) < 2:
            raise ValueError("second line must be `dims n1 n2 ...`")
        dims = tuple(int(tok) for tok in dims_tokens[1:])
        if any(n < 1 for n in dims):
            raise ValueError("dimensions must be positive")
        shape = dims * (1 if kind == "pure" else 2)
        message = f"refusing a {kind} state file of {{}} coefficients (limit {PROJECTOR_ENTRY_BOUND})"
        check_work(shape, PROJECTOR_ENTRY_BOUND, message)
        values, count = np.empty(math.prod(shape), dtype=complex), 0
        expected = f"expected {values.size} {'coefficients' if kind == 'pure' else 'entries'}"
        for count, line in enumerate(lines, 1):
            if count > values.size:
                raise ValueError(f"{expected}, got more")
            tokens = line.split()
            if len(tokens) != 2:
                raise ValueError(f"expected `re im`, got {line!r}")
            values[count - 1] = complex(float(tokens[0]), float(tokens[1]))
    if count != values.size:
        raise ValueError(f"{expected}, got {count}")
    if kind == "pure":
        return PureState(dims, values)
    return DensityMatrix(dims, values.reshape(math.prod(dims), -1))


def write_state_file(path, state: PureState | DensityMatrix) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        if isinstance(state, PureState):
            handle.write("pure\n")
            flat = state.coeffs
        else:
            handle.write("mixed\n")
            flat = state.entries.reshape(-1)
        handle.write("dims " + " ".join(str(n) for n in state.dims) + "\n")
        for value in flat:
            handle.write(f"{float(value.real)!r} {float(value.imag)!r}\n")
