"""Explicit local-unitary invariants: the degree-4 pure-state family I_A,
the degree-2 mixed-state family J_A, the subset-parity transform between
them, derived entanglement measures, and the higher-order analogues.

The higher-order invariant of a subset A at order m is the squared norm
of (P_1 x ... x P_k) psi^m, where P_j = (1/m!) sum over sigma in S_m of
chi(sigma) sigma permutes the m copies of subsystem j, chi the sign for j
in A and 1 otherwise: one signed sum of axis transposes per subsystem
but the last, whose projector the others already imply.  It equals the
squared projection of psi^m onto the span of the explicit basis vectors
that tests build as its oracle (higher_basis_vector in tests/oracles.py).

The subset-parity transform is a Walsh-Hadamard transform over the 2^k
subsets, computed by butterflies for j_from_i and i_from_j (exactly, on int
and Fraction values).  The whole I-vector is one 2-point butterfly per
subsystem on psi x psi, then one symmetric and one antisymmetric sum of
squared moduli per subsystem.

Subsystem labels are 1-based (SubsetMask); basis-state indices are 0-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConsistencyError, check_work
from .states import DensityMatrix, PureState, partial_trace, projector
from .subsets import SubsetMask, all_subsets

# Largest work count of higher_invariant (k * m! * n^m, one more projector
# than it writes; five qubits at m = 3 fit) and of the basis-vector oracle
# higher_basis_vector in tests/oracles.py ((m!)^(k+1), and its n^m entries).
HIGHER_WORK_BOUND = 10**6
# Largest I-family work count, prod over j of n_j(n_j+1)/2 times 2^k, a bound
# on the prod n_j^2 entries of psi x psi and the 2^k values: eight qubits fit.
I_TABLE_BOUND = 1 << 21


@dataclass(frozen=True)
class InvariantVector:
    """Values indexed by all 2^k subsets in binary order (bit j-1 of the
    position encodes membership of subsystem j)."""

    k: int
    values: tuple

    def __post_init__(self) -> None:
        if len(self.values) != 1 << self.k:
            raise ValueError(f"need 2^{self.k} values, got {len(self.values)}")

    def __getitem__(self, subset: SubsetMask | int):
        bits = subset.bits if isinstance(subset, SubsetMask) else subset
        return self.values[bits]


def _require_subset(state_k: int, subset: SubsetMask) -> None:
    if subset.k != state_k:
        raise ValueError(f"subset is over {subset.k} labels, state has {state_k}")


def _walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """sum over B of (-1)^|A cap B| values[B] for every A (length 2^k), by
    k butterfly passes in place; ints and Fractions in object arrays stay
    exact."""
    half = 1
    while half < len(values):
        pairs = values.reshape(-1, 2, half)
        low, high = pairs[:, 0], pairs[:, 1]
        pairs[:, 0], pairs[:, 1] = low + high, low - high
        half *= 2
    return values


@lru_cache(maxsize=16)
def _pair_order(n: int) -> np.ndarray:
    """Positions a*n + b of one subsystem's copy pairs: a = b first, then
    a < b, then the swapped pairs b > a in the same order."""
    a, b = np.triu_indices(n, 1)
    order = np.concatenate([np.arange(n) * (n + 1), a * n + b, b * n + a])
    order.flags.writeable = False
    return order


def invariant_I_vector(psi: PureState) -> InvariantVector:
    """Degree-4 invariants of every subset A: I_A = ||(P_1 x ... x P_k)
    (psi x psi)||^2, P_j the symmetric projector on the two copies of
    subsystem j, the antisymmetric one for j in A.

    One butterfly per subsystem maps its copy pairs to the a = b entries
    and the sums and differences of the (a, b) and (b, a) entries, a < b.
    Their squared moduli, halved off the diagonal, then sum to the
    symmetric and antisymmetric norms of each subsystem in turn; the halves
    keep integer coefficients exact.

    Refused when prod over j of n_j(n_j+1)/2 times 2^k, which bounds the
    prod n_j^2 two-copy entries and the 2^k values, exceeds I_TABLE_BOUND.
    """
    dims, k = psi.dims, psi.k
    message = f"refusing an I-family evaluation of {{}} pair products "
    message += f"(dims {dims}, limit {I_TABLE_BOUND})"
    factors = (math.prod(n * (n + 1) // 2 for n in dims), 1 << k)
    check_work(factors, I_TABLE_BOUND, message)
    pairs = np.multiply.outer(psi.coeffs, psi.coeffs).reshape(dims * 2)
    pairs = pairs.transpose([j + c * k for j in range(k) for c in (0, 1)])
    for n in dims:
        pairs = pairs.reshape(n * n, -1)[_pair_order(n)]
        up, low = pairs[n : n * (n + 1) // 2], pairs[n * (n + 1) // 2 :]
        up[:], low[:] = up + low, up - low
        pairs = pairs.T
    norms = pairs.real**2 + pairs.imag**2
    for n in dims:
        norms = norms.reshape(n * n, -1)
        up, low = norms[n : n * (n + 1) // 2], norms[n * (n + 1) // 2 :]
        norms = np.stack([norms[:n].sum(0) + 0.5 * up.sum(0), 0.5 * low.sum(0)], -1)
    values = norms.reshape((2,) * k).transpose(range(k)[::-1]).ravel()
    return InvariantVector(k, tuple(values.tolist()))


def invariant_I(psi: PureState, subset: SubsetMask) -> float:
    """Degree-4 invariant attached to the subset, read off the I-vector.

    Defined for every subset; vanishes when the subset has odd size.
    """
    _require_subset(psi.k, subset)
    return invariant_I_vector(psi)[subset]


def invariant_J(rho: DensityMatrix, subset: SubsetMask) -> float:
    """Tr((Tr_A rho)^2): purity of the state reduced to the complement."""
    _require_subset(rho.k, subset)
    reduced = partial_trace(rho, subset).entries
    return float(np.einsum("ij,ji->", reduced, reduced).real)


def invariant_J_vector(rho: DensityMatrix) -> InvariantVector:
    return InvariantVector(
        rho.k, tuple(invariant_J(rho, s) for s in all_subsets(rho.k))
    )


def j_from_i(ivec: InvariantVector) -> InvariantVector:
    """J_S = sum over A of (-1)^|A cap S| I_A."""
    out = _walsh_hadamard(np.array(ivec.values, dtype=object))
    return InvariantVector(ivec.k, tuple(out.tolist()))


def i_from_j(jvec: InvariantVector) -> InvariantVector:
    """I_A = 2^-k sum over B of (-1)^|A cap B| J_B; inverse of j_from_i."""
    k = jvec.k
    out = []
    for total in _walsh_hadamard(np.array(jvec.values, dtype=object)).tolist():
        if isinstance(total, (int, Fraction)):
            out.append(Fraction(total, 1 << k))
        else:
            out.append(total / (1 << k))
    return InvariantVector(k, tuple(out))


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
    """Global entanglement measure 2 - (2/k) sum_i J_{i}.

    Also evaluated through the I-family as sum_A (4|A|/k) I_A; the two
    routes must agree, and the purity route is returned.
    """
    if abs(math.sqrt(psi.norm_squared()) - 1.0) > 1e-9:
        raise ValueError("state must be normalized")
    k = psi.k
    ivec = invariant_I_vector(psi)
    i_form = sum(4.0 * len(s) / k * ivec[s] for s in all_subsets(k))
    rho = projector(psi)
    purity_form = 2.0 - 2.0 / k * sum(
        invariant_J(rho, SubsetMask.of(k, [i])) for i in range(1, k + 1)
    )
    if abs(purity_form - i_form) > 1e-9:
        raise ConsistencyError(
            f"purity form {purity_form} and component form {i_form} disagree"
        )
    return purity_form


# ---------------------------------------------------------------------------
# Basis vectors of the invariant subspaces and higher-order invariants


def _perm_sign(p: tuple[int, ...]) -> float:
    sign = 1.0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def higher_invariant(psi: PureState, subset: SubsetMask, m: int) -> float:
    """Squared projection of the m-fold power of psi onto the invariant
    subspace of the subset: ||(P_1 x ... x P_k) psi^m||^2, where P_j =
    (1/m!) sum over sigma in S_m of chi(sigma) sigma permutes the m copies
    of subsystem j, chi the sign on the subset's members and 1 elsewhere.

    The admissible basis vectors (the test oracle higher_basis_vector)
    span the image of Sym composed with the P_j; each P_j is central in the
    group algebra, so it commutes with Sym, and psi^m is already symmetric.
    At m = 2 this is I_A.

    The projector of subsystem k is skipped: psi^m is fixed by permuting
    the copies of every subsystem at once, so sigma on subsystem k acts on
    (P_1 x ... x P_(k-1)) psi^m as the product of the other characters at
    sigma^-1, which is chi_k(sigma) since the subset has even size; P_k is
    the identity there.  So at most (k - 1) * m! * n^m entries are written
    (n the total dimension), but the refusal still counts k * m! * n^m (k
    at least 1) against HIGHER_WORK_BOUND.
    """
    _require_subset(psi.k, subset)
    if len(subset) % 2:
        raise ValueError("subset must have even size")
    if m < 1:
        raise ValueError("need m >= 1")
    k = psi.k
    n = math.prod(psi.dims)
    check_work(
        itertools.chain([max(k, 1)], range(2, m + 1), itertools.repeat(n, m)),
        HIGHER_WORK_BOUND,
        f"refusing higher-order evaluation at m={m}, total dimension {n}: k * m! * n^m "
        f"exceeds the limit of {HIGHER_WORK_BOUND} tensor entries written",
    )
    power = psi.coeffs
    for _ in range(m - 1):
        power = np.multiply.outer(power, psi.coeffs)
    power = power.reshape(psi.dims * m)
    perms = list(itertools.permutations(range(m)))
    for j in range(1, k):
        copies = [c * k + j - 1 for c in range(m)]
        total = np.zeros_like(power)
        for sigma in perms:
            axes = list(range(power.ndim))
            for c, s in zip(copies, sigma):
                axes[c] = copies[s]
            sign = _perm_sign(sigma) if j in subset else 1.0
            total += sign * power.transpose(axes)
        power = total / math.factorial(m)
    return float(np.vdot(power, power).real)
