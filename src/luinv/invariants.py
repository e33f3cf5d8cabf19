"""Explicit local-unitary invariants: the degree-4 pure-state family I_A,
the degree-2 mixed-state family J_A, the subset-parity transform between
them, derived entanglement measures, and the higher-order analogues.

Subsystem labels are 1-based (SubsetMask); basis-state indices are 0-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, EnumerationBoundError
from .states import DensityMatrix, PureState, partial_trace, projector
from .subsets import SubsetMask, all_subsets

__all__ = [
    "InvariantVector",
    "invariant_I",
    "invariant_J",
    "invariant_I_vector",
    "invariant_J_vector",
    "j_from_i",
    "i_from_j",
    "eta",
    "meyer_wallach",
    "basis_vector_m2",
    "higher_basis_vector",
    "higher_invariant",
]

HIGHER_MAX_M = 3
HIGHER_MAX_TOTAL_DIM = 81


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


def invariant_I(psi: PureState, subset: SubsetMask) -> float:
    """Degree-4 invariant attached to the subset: a sum over weakly ordered
    index pairs of squared signed pair-products of coefficients.

    Defined for every subset; vanishes when the subset has odd size.
    """
    _require_subset(psi.k, subset)
    k = psi.k
    coeffs = psi.coeffs
    strides = [math.prod(psi.dims[j + 1 :]) for j in range(k)]
    abits = subset.bits
    site_pairs = [
        [(a, b) for a in range(n) for b in range(a, n)] for n in psi.dims
    ]
    masks = range(1 << k)
    total = 0.0
    for combo in itertools.product(*site_pairs):
        c = sum(1 for a, b in combo if a == b)
        inner = 0.0 + 0.0j
        for bmask in masks:
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


def invariant_J(rho: DensityMatrix, subset: SubsetMask) -> float:
    """Tr((Tr_A rho)^2): purity of the state reduced to the complement."""
    _require_subset(rho.k, subset)
    reduced = partial_trace(rho, subset).entries
    return float(np.einsum("ij,ji->", reduced, reduced).real)


def invariant_I_vector(psi: PureState) -> InvariantVector:
    return InvariantVector(
        psi.k, tuple(invariant_I(psi, s) for s in all_subsets(psi.k))
    )


def invariant_J_vector(rho: DensityMatrix) -> InvariantVector:
    return InvariantVector(
        rho.k, tuple(invariant_J(rho, s) for s in all_subsets(rho.k))
    )


def _parity_sum(values, fixed_bits: int):
    total = None
    for bits, value in enumerate(values):
        term = -value if (bits & fixed_bits).bit_count() & 1 else value
        total = term if total is None else total + term
    return total


def j_from_i(ivec: InvariantVector) -> InvariantVector:
    """J_S = sum over A of (-1)^|A cap S| I_A."""
    out = tuple(_parity_sum(ivec.values, s) for s in range(1 << ivec.k))
    return InvariantVector(ivec.k, out)


def i_from_j(jvec: InvariantVector) -> InvariantVector:
    """I_A = 2^-k sum over B of (-1)^|A cap B| J_B; inverse of j_from_i."""
    k = jvec.k
    out = []
    for a in range(1 << k):
        total = _parity_sum(jvec.values, a)
        if isinstance(total, (int, Fraction)):
            out.append(Fraction(total, 1 << k))
        else:
            out.append(total / (1 << k))
    return InvariantVector(k, tuple(out))


def eta(rho: DensityMatrix, subset: SubsetMask) -> float:
    """Entanglement monotone D/(D-1) (1 - J_A) with D the dimension of the
    traced-out factors; requires a normalized state and a subset that is
    neither empty nor everything."""
    _require_subset(rho.k, subset)
    if len(subset) == 0 or subset.is_full():
        raise ValueError("subset must be nonempty and proper")
    if abs(rho.trace() - 1.0) > 1e-9:
        raise ValueError(f"state must have unit trace, got {rho.trace()}")
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
    rho = projector(psi)
    purity_form = 2.0 - 2.0 / k * sum(
        invariant_J(rho, SubsetMask.of(k, [i])) for i in range(1, k + 1)
    )
    i_form = sum(
        4.0 * len(s) / k * invariant_I(psi, s) for s in all_subsets(k)
    )
    if abs(purity_form - i_form) > 1e-9:
        raise ConsistencyError(
            f"purity form {purity_form} and component form {i_form} disagree"
        )
    return purity_form


# ---------------------------------------------------------------------------
# Basis vectors of the invariant subspaces and higher-order invariants


def _flat_index(indices: Sequence[int], dims: Sequence[int]) -> int:
    flat = 0
    for i, n in zip(indices, dims):
        flat = flat * n + i
    return flat


def basis_vector_m2(
    dims: Sequence[int], subset: SubsetMask, index_pairs: Sequence[tuple[int, int]]
) -> np.ndarray:
    """The signed pair sum over row choices, symmetrized into H tensor H.

    index_pairs gives (i_0j, i_1j) per subsystem, 0-based, weakly increasing,
    and strictly increasing on the subset's members.  The squared norm is
    2^(k+c) with c the number of equal pairs.
    """
    dims = tuple(dims)
    k = len(dims)
    _require_subset(k, subset)
    if len(index_pairs) != k:
        raise ValueError("need one index pair per subsystem")
    for j, (a, b) in enumerate(index_pairs, start=1):
        if not (0 <= a <= b < dims[j - 1]):
            raise ValueError(f"pair {(a, b)} out of range for subsystem {j}")
        if j in subset and a == b:
            raise ValueError(f"pair at subsystem {j} must be strict inside the subset")
    n = math.prod(dims)
    abits = subset.bits
    raw = np.zeros((n, n))
    for bmask in range(1 << k):
        rows0 = [index_pairs[j][bmask >> j & 1] for j in range(k)]
        rows1 = [index_pairs[j][1 - (bmask >> j & 1)] for j in range(k)]
        sign = -1.0 if (bmask & abits).bit_count() & 1 else 1.0
        raw[_flat_index(rows0, dims), _flat_index(rows1, dims)] += sign
    return (raw + raw.T) / 2.0


def _admissible_rows(n: int, m: int, strict: bool):
    if strict:
        return list(itertools.combinations(range(n), m))
    return list(itertools.combinations_with_replacement(range(n), m))


def higher_basis_vector(
    dims: Sequence[int],
    subset: SubsetMask,
    m: int,
    index_table: Sequence[Sequence[int]],
) -> np.ndarray:
    """Character-weighted sum over one permutation per subsystem of
    symmetrized products of m basis vectors, an element of the degree-m
    symmetric subspace realized inside the m-fold tensor power.

    index_table has one length-m row per subsystem, weakly increasing off
    the subset and strictly increasing on it; the subset must have even
    size.  Distinct admissible tables give orthogonal vectors.
    """
    dims = tuple(dims)
    k = len(dims)
    _require_subset(k, subset)
    if len(subset) % 2:
        raise ValueError("subset must have even size")
    if m < 1:
        raise ValueError("need m >= 1")
    table = [tuple(row) for row in index_table]
    if len(table) != k or any(len(row) != m for row in table):
        raise ValueError(f"index table must be {k} rows of {m} entries")
    for j, row in enumerate(table, start=1):
        if any(i < 0 or i >= dims[j - 1] for i in row):
            raise ValueError(f"row {row} out of range for subsystem {j}")
        strict = j in subset
        for a, b in zip(row, row[1:]):
            if (b <= a) if strict else (b < a):
                raise ValueError(f"row {row} not admissible for subsystem {j}")
    n = math.prod(dims)
    if n**m > 1_000_000:
        raise EnumerationBoundError(
            f"refusing a tensor with {n**m} entries (total dimension {n}, m={m})"
        )
    perms = list(itertools.permutations(range(m)))
    weight = 1.0 / math.factorial(m)
    out = np.zeros((n,) * m)
    for pis in itertools.product(perms, repeat=k):
        sign = 1.0
        for j in range(1, k + 1):
            if j in subset:
                sign *= _perm_sign(pis[j - 1])
        flats = [
            _flat_index([table[j][pis[j][r]] for j in range(k)], dims)
            for r in range(m)
        ]
        for sigma in perms:
            out[tuple(flats[sigma[r]] for r in range(m))] += sign * weight
    return out


def _perm_sign(p: tuple[int, ...]) -> float:
    sign = 1.0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def higher_invariant(psi: PureState, subset: SubsetMask, m: int) -> float:
    """Squared projection of the m-fold power of psi onto the invariant
    subspace of the subset: sum over admissible index tables of
    |<v, psi^m>|^2 / ||v||^2, using pairwise orthogonality of the v's.

    There is no closed norm formula beyond m = 2, so the norms are computed
    numerically from the constructed vectors.
    """
    _require_subset(psi.k, subset)
    if len(subset) % 2:
        raise ValueError("subset must have even size")
    if m < 1:
        raise ValueError("need m >= 1")
    n = math.prod(psi.dims)
    if m > HIGHER_MAX_M or n > HIGHER_MAX_TOTAL_DIM:
        raise EnumerationBoundError(
            f"refusing higher-order evaluation at m={m}, total dimension {n} "
            f"(bounds: m <= {HIGHER_MAX_M}, total dimension <= {HIGHER_MAX_TOTAL_DIM})"
        )
    power = psi.coeffs
    for _ in range(m - 1):
        power = np.multiply.outer(power, psi.coeffs)
    row_choices = [
        _admissible_rows(psi.dims[j - 1], m, strict=(j in subset))
        for j in range(1, psi.k + 1)
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
