"""Explicit local-unitary invariants: the degree-4 pure-state family I_A,
the degree-2 mixed-state family J_A, the subset-parity transform between
them, derived entanglement measures, and the higher-order analogues.

I_A and the higher-order invariants come from one kernel, an orbit sum per
subsystem (checked in tests against higher_basis_vector in
tests/oracles.py); the J-vector takes one pass per subsystem, Meyer-Wallach
sums the one-subsystem J_{i}, and the I/J transform is a Walsh-Hadamard
transform, in float64 on floats and exact on int and Fraction.

Subsystem labels are 1-based (SubsetMask); basis-state indices are 0-based.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import Frozen, check_work
from .states import DensityMatrix, PureState, partial_trace, projector
from .subsets import SubsetMask

# Largest entry count of the projection kernel behind I_A and the
# higher-order invariants (_check_kernel; ten qubits at m = 2 and four at
# m = 4 fit), and of the J-vector, prod over j of (n_j^2 + 1).
I_TABLE_BOUND = 1 << 21


class InvariantVector(Frozen):
    """Values of all 2^k subsets, indexed by their bit masks (SubsetMask)."""

    __slots__ = ("k", "values")
    k: int
    values: tuple

    def __init__(self, k: int, values: tuple) -> None:
        if len(values) != 1 << k:
            raise ValueError(f"need 2^{k} values, got {len(values)}")
        Frozen.__init__(self, k, values)

    def __getitem__(self, subset: SubsetMask | int):
        return self.values[subset]


def _require_subset(state_k: int, subset: SubsetMask) -> None:
    if subset.k != state_k:
        raise ValueError(f"subset is over {subset.k} labels, state has {state_k}")


def _walsh_hadamard(values: tuple) -> np.ndarray:
    """sum over B of (-1)^|A cap B| values[B] for every A (length 2^k), by
    k butterfly passes in place: in float64 when every value is a float,
    else over Python objects, so int and Fraction input stays exact."""
    exact = not all(isinstance(value, float) for value in values)
    values = np.array(values, dtype=object if exact else float)
    half = 1
    while half < len(values):
        pairs = values.reshape(-1, 2, half)
        low, high = pairs[:, 0], pairs[:, 1]
        pairs[:, 0], pairs[:, 1] = low + high, low - high
        half *= 2
    return values


def _perm_sign(p: tuple[int, ...]) -> float:
    return (-1.0) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))


@functools.lru_cache(maxsize=16)
def _orbit_table(n: int, m: int) -> tuple[np.ndarray, int, np.ndarray]:
    """One S_m-orbit of m-tuples over range(n) per weakly increasing tuple x,
    those without a repeated entry first: the flat positions of sigma x for
    every sigma, even sigma first (shape (m!, orbits)), the number of orbits
    without a repeat, and the weights 1/(m! |Stab x|)."""
    tuples = np.arange(n).reshape(n, 1)
    for _ in range(m - 1):  # each prefix, repeated over the values >= its last entry
        counts = n - tuples[:, -1]
        offsets = np.repeat(np.cumsum(counts) - n, counts)
        tuples = np.column_stack([np.repeat(tuples, counts, 0), np.arange(len(offsets)) - offsets])
    stabilizer = run = np.ones(len(tuples), dtype=np.int64)
    for c in range(1, m):
        run = np.where(tuples[:, c] == tuples[:, c - 1], run + 1, 1)
        stabilizer = stabilizer * run
    order = np.argsort(stabilizer > 1, kind="stable")
    tuples, stabilizer = tuples[order], stabilizer[order]
    perms = sorted(itertools.permutations(range(m)), key=_perm_sign, reverse=True)
    positions = np.stack([tuples[:, list(p)] @ n ** np.arange(m - 1, -1, -1) for p in perms])
    weights = 1.0 / (math.factorial(m) * stabilizer)
    positions.flags.writeable = weights.flags.writeable = False
    return positions, int((stabilizer == 1).sum()), weights


def _check_kernel(dims: tuple[int, ...], m: int) -> None:
    """Refuse the projection kernel at m past I_TABLE_BOUND entries: its 2^k
    values, or the largest gather of one subsystem's pass, the m! copies of
    that subsystem's orbits times the m-th power of the others, n_min (n_min
    + 1) ... (n_min + m - 1) (n / n_min)^m for n the product of the dims and
    n_min the smallest (1 for none).  It also bounds the n^m-entry tensor
    and _orbit_table's positions.  A huge m is refused in a few factors."""
    low, n = min(dims, default=1), math.prod(dims)
    gather = itertools.chain(range(low, low + m), (n // low for _ in range(m)))
    message = f"refusing a projection kernel of {{}} entries (dims {dims}, m={m}, "
    message += f"limit {I_TABLE_BOUND})"
    for factors in (gather, itertools.repeat(2, len(dims))):
        check_work(factors, I_TABLE_BOUND, message)


def _check_j_vector(dims: tuple[int, ...]) -> None:
    """Refuse the J-vector past I_TABLE_BOUND entries, the prod over j of
    (n_j^2 + 1) it builds."""
    message = f"refusing a J-vector of {{}} entries (dims {dims}, limit {I_TABLE_BOUND})"
    check_work((n * n + 1 for n in dims), I_TABLE_BOUND, message)


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows by halving, so that each column sums in an order set
    by the row count alone; a BLAS product or a numpy sum picks its order by
    the array's shape, the column count included."""
    while len(rows) > 1:
        half = len(rows) // 2
        summed = rows[:half] + rows[half : 2 * half]
        if len(rows) % 2:
            summed[0] += rows[-1]
        rows = summed
    return rows.sum(0)  # of one row or none


def _projection_norms(psi: PureState, m: int) -> np.ndarray:
    """||(P_1 x ... x P_k) psi^m||^2 for every subset A in binary order, m >= 2.
    Per subsystem, the m! gathered copies of each orbit sum to plus (even
    sigma) and minus (odd): plus + minus is its symmetric part, plus - minus
    the antisymmetric part of an orbit without a repeat.  Their squared
    moduli, weighted 1/(m! |Stab x|) and 1/m! (powers of two at m = 2, exact
    on integers), sum to the two norms of each subsystem in turn."""
    dims, k = psi.dims, psi.k
    _check_kernel(dims, m)
    tables = [_orbit_table(n, m) for n in dims]
    tensor = functools.reduce(np.multiply.outer, [psi.coeffs] * m).reshape(dims * m)
    tensor = tensor.transpose([j + c * k for j in range(k) for c in range(m)])
    for n, (positions, distinct, weights) in zip(dims, tables):
        # One name for every stage, so that no block outlives its stage.
        tensor = tensor.reshape(n**m, -1)
        tensor = tensor[positions]
        half = len(positions) // 2
        for i in range(1, half):
            tensor[0] += tensor[i]
            tensor[half] += tensor[half + i]
        anti = tensor[0, :distinct] - tensor[half, :distinct]
        tensor[0] += tensor[half]
        tensor[1, :distinct] = anti
        del anti
        tensor = tensor.reshape(-1, tensor.shape[-1])[: len(weights) + distinct].T
    norms = tensor.real**2 + tensor.imag**2
    for _, distinct, weights in tables:
        norms = norms.reshape(len(weights) + distinct, -1)
        sym = _row_sum(weights[:, None] * norms[: len(weights)])
        anti = _row_sum(norms[len(weights) :]) / math.factorial(m)
        norms = np.stack([sym, anti], -1)
    return norms.reshape((2,) * k).transpose(range(k)[::-1]).ravel()


def invariant_I_vector(psi: PureState) -> InvariantVector:
    """Degree-4 invariants I_A of every subset A: the projection kernel at
    m = 2, refused past n^2 (1 + 1/n_min) entries of one pass or 2^k values,
    n the total dimension (_check_kernel)."""
    return InvariantVector(psi.k, tuple(_projection_norms(psi, 2).tolist()))


def invariant_I(psi: PureState, subset: SubsetMask) -> float:
    """Degree-4 invariant attached to the subset, 0.0 when its size is odd:
    higher_invariant at m = 2, the I-vector's entry bit for bit."""
    _require_subset(psi.k, subset)
    return 0.0 if len(subset) % 2 else higher_invariant(psi, subset, 2)


def invariant_J(rho: DensityMatrix, subset: SubsetMask) -> float:
    """Tr((Tr_A rho)^2): purity of the state reduced to the complement."""
    _require_subset(rho.k, subset)
    reduced = partial_trace(rho, subset).entries
    return float(np.einsum("ij,ji->", reduced, reduced).real)


def invariant_J_vector(rho: DensityMatrix) -> InvariantVector:
    """J_A of every subset A: per subsystem, rho keeps that subsystem's n^2
    entries and appends their trace; the squared moduli (rho is Hermitian)
    then sum over the kept entries or take the traced one, in turn.  Refused
    when prod over j of (n_j^2 + 1) entries exceeds I_TABLE_BOUND."""
    dims, k = rho.dims, rho.k
    _check_j_vector(dims)
    tensor = rho.entries.reshape(dims * 2).transpose([j + c * k for j in range(k) for c in (0, 1)])
    for n in dims:
        kept = tensor.reshape(n * n, -1)
        tensor = np.concatenate([kept, kept[:: n + 1].sum(0, keepdims=True)]).T
    norms = tensor.real**2 + tensor.imag**2
    for n in dims:
        norms = norms.reshape(n * n + 1, -1)
        norms = np.stack([norms[:-1].sum(0), norms[-1]], -1)
    values = norms.reshape((2,) * k).transpose(range(k)[::-1]).ravel()
    return InvariantVector(k, tuple(values.tolist()))


def j_from_i(ivec: InvariantVector) -> InvariantVector:
    """J_S = sum over A of (-1)^|A cap S| I_A."""
    return InvariantVector(ivec.k, tuple(_walsh_hadamard(ivec.values).tolist()))


def i_from_j(jvec: InvariantVector) -> InvariantVector:
    """I_A = 2^-k sum over B of (-1)^|A cap B| J_B; inverse of j_from_i."""
    totals = _walsh_hadamard(jvec.values)
    if totals.dtype == object:
        from fractions import Fraction  # exact input only

        totals = totals * Fraction(1, 2**jvec.k)
    else:
        totals = totals / 2**jvec.k
    return InvariantVector(jvec.k, tuple(totals.tolist()))


def eta(rho: DensityMatrix, subset: SubsetMask) -> float:
    """Entanglement monotone D/(D-1) (1 - J_A) with D the dimension of the
    traced-out factors; requires a positive semidefinite state of unit
    trace and a subset that is neither empty nor everything."""
    _require_subset(rho.k, subset)
    if len(subset) == 0 or subset.is_full():
        raise ValueError("subset must be nonempty and proper")
    if abs(rho.trace() - 1.0) > 1e-9:
        raise ValueError(f"state must have unit trace, got {rho.trace()}")
    rho.validate_physical()
    d = math.prod(rho.dims[j - 1] for j in subset)
    if d < 2:
        raise ValueError("traced-out dimension must be at least 2")
    return d / (d - 1) * (1.0 - invariant_J(rho, subset))


def meyer_wallach(psi: PureState) -> float:
    """Global entanglement measure (2/k) sum_i (1 - J_{i}) on psi psi*
    (states.projector); a 1-dimensional subsystem has J_{i} = 1 and is dropped."""
    if psi.k == 0:
        raise ValueError("need at least one subsystem")
    if abs(math.sqrt(psi.norm_squared()) - 1.0) > 1e-9:
        raise ValueError("state must be normalized")
    rho = projector(PureState(tuple(n for n in psi.dims if n > 1), psi.coeffs))
    return 2.0 / psi.k * sum(1.0 - invariant_J(rho, SubsetMask(rho.k, 1 << i)) for i in range(rho.k))


# ---------------------------------------------------------------------------
# Higher-order invariants


def higher_invariant(psi: PureState, subset: SubsetMask, m: int) -> float:
    """Squared projection of the m-fold power of psi onto the invariant
    subspace of the subset: ||(P_1 x ... x P_k) psi^m||^2, where P_j =
    (1/m!) sum over sigma in S_m of chi(sigma) sigma permutes the m copies
    of subsystem j, chi the sign on the subset's members and 1 elsewhere.

    The admissible basis vectors (the test oracle higher_basis_vector)
    span the image of Sym composed with the P_j; each P_j is central in the
    group algebra, so it commutes with Sym, and psi^m is already symmetric.

    One entry of the projection kernel, refused past its counts
    (_check_kernel); at m = 1 every P_j is the identity, and a subset with a
    1-dimensional member gives 0, both without the kernel.  The other
    1-dimensional subsystems, where P_j is 1, are dropped before it runs.
    """
    _require_subset(psi.k, subset)
    if len(subset) % 2:
        raise ValueError("subset must have even size")
    if m < 1:
        raise ValueError("need m >= 1")
    if m == 1:
        return psi.norm_squared()
    if any(psi.dims[j - 1] == 1 for j in subset):
        return 0.0
    kept = [j for j in range(1, psi.k + 1) if psi.dims[j - 1] > 1]
    bits = sum(1 << i for i, j in enumerate(kept) if j in subset)
    reduced = PureState(tuple(psi.dims[j - 1] for j in kept), psi.coeffs)
    return float(_projection_norms(reduced, m)[bits])
