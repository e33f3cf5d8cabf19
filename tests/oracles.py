"""Test-side oracles and state builders that the package itself does not use.

Each is an independent route to a quantity the package computes another
way, or a way to build test states:

- higher_basis_vector: the explicit symmetric/alternating basis vectors
  whose span higher_invariant projects onto, with permutation_sign, the
  sign by cycle count (the kernel orders permutations by inversions);
- permutation_contraction: one einsum per permutation tuple, against which
  the gathered orbit columns are checked;
- orbit_gather_index and gathered_contractions: every orbit column as one
  gather over all n^m system multi-indices, against which the rank
  oracle's einsum fold is checked;
- svd_rank: the numerical rank of the gathered orbit columns on complex
  pure states, against which the exact rank mod a prime is checked at
  small sizes;
- purify: a system+environment pure state whose environment trace is a
  given density matrix;
- class_sum: the pairing of an integer class function of S_m with the
  trivial character, from the class sizes alone;
- random_unitary, apply_local_unitaries, product_state and
  random_density_matrix: seeded test states and local rotations.

Tests import this module by name, with the tests directory on sys.path.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from typing import Sequence

import numpy as np

from luinv import DensityMatrix, PureState, SubsetMask, centralizer_order, partitions_of
from luinv.errors import check_work
from luinv.invariants import _require_subset
from luinv.free_group_census import orbit_representatives
from luinv.states import HERMITICITY_TOL

PURIFY_CUTOFF = 1e-12
# Largest n^m tensor entries, and (m!)^(k+1) writes, of higher_basis_vector.
BASIS_VECTOR_BOUND = 10**6
# Singular values above this fraction of the largest count toward svd_rank.
SVD_RANK_TOL = 1e-8
# einsum index letters of permutation_contraction, one per (copy, subsystem).
_LETTERS = string.ascii_lowercase + string.ascii_uppercase


def _flat_index(indices: Sequence[int], dims: Sequence[int]) -> int:
    flat = 0
    for i, n in zip(indices, dims):
        flat = flat * n + i
    return flat


def class_sum(m: int, values: Sequence[int]) -> tuple[int, int]:
    """divmod(sum over classes of |class| * value, m!): the quotient is
    (chi_(m), f) for the class function f with these values in the
    canonical class order when the remainder is 0.  Class sizes are
    m!/z(lam), independent of the character tables."""
    order = math.factorial(m)
    sizes = [order // centralizer_order(lam) for lam in partitions_of(m)]
    if len(values) != len(sizes):
        raise ValueError(f"need one value per class of S_{m}, got {len(values)}")
    return divmod(sum(size * value for size, value in zip(sizes, values)), order)


def permutation_sign(p: Sequence[int]) -> int:
    """(-1)^(m - number of cycles)."""
    seen = set()
    cycles = 0
    for start in range(len(p)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = p[i]
    return -1 if (len(p) - cycles) % 2 else 1


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
    size.  Distinct admissible tables give orthogonal vectors.  At m = 2
    the squared norm is 2^(k+c), c the number of equal index pairs.

    Refused before any allocation when the tensor's n^m entries, or its
    (m!)^(k+1) writes (a permutation per subsystem and a symmetrizing
    one), exceed BASIS_VECTOR_BOUND.
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
    written = f"exceeds the limit of {BASIS_VECTOR_BOUND} tensor entries written"
    check_work(
        itertools.repeat(n, m),
        BASIS_VECTOR_BOUND,
        f"refusing a basis vector at m={m}, total dimension {n}: n^m {written}",
    )
    check_work(
        itertools.chain.from_iterable(itertools.repeat(range(2, m + 1), k + 1)),
        BASIS_VECTOR_BOUND,
        f"refusing a basis vector at m={m}, k={k}: (m!)^(k+1) {written}",
    )
    perms = list(itertools.permutations(range(m)))
    weight = 1.0 / math.factorial(m)
    out = np.zeros((n,) * m)
    for pis in itertools.product(perms, repeat=k):
        sign = 1.0
        for j in range(1, k + 1):
            if j in subset:
                sign *= permutation_sign(pis[j - 1])
        flats = [
            _flat_index([table[j][pis[j][r]] for j in range(k)], dims)
            for r in range(m)
        ]
        for sigma in perms:
            out[tuple(flats[sigma[r]] for r in range(m))] += sign * weight
    return out


def _check_perms(perms: Sequence[Sequence[int]], k: int) -> tuple[tuple[int, ...], ...]:
    if len(perms) != k:
        raise ValueError(f"need one permutation per subsystem, got {len(perms)} for k={k}")
    tups = tuple(tuple(p) for p in perms)
    if not tups:
        return tups
    m = len(tups[0])
    for p in tups:
        if sorted(p) != list(range(m)):
            raise ValueError(f"not a permutation of range({m}): {p}")
    return tups


def permutation_contraction(psi: PureState, perms: Sequence[Sequence[int]]) -> complex:
    """Contract m copies of psi against m copies of its conjugate, wiring
    subsystem l of conjugate copy j to copy perms[l][j].

    With every permutation equal to the identity this is the m-th power of
    the squared norm; over all tuples of permutations these values span the
    degree-(m, m) local-unitary invariants.
    """
    tups = _check_perms(perms, psi.k)
    if not tups:
        raise ValueError("state must have at least one subsystem")
    m = len(tups[0])
    if m == 0:
        return 1.0 + 0.0j
    k = psi.k
    if m * k > len(_LETTERS):
        raise ValueError("contraction too large for the index alphabet")
    letter = [[_LETTERS[j * k + l] for l in range(k)] for j in range(m)]
    subs = []
    for j in range(m):
        subs.append("".join(letter[j]))
    for j in range(m):
        subs.append("".join(letter[tups[l][j]][l] for l in range(k)))
    tensor = psi.coeffs.reshape(psi.dims)
    operands = [tensor] * m + [tensor.conj()] * m
    return complex(np.einsum(",".join(subs) + "->", *operands, optimize=True))


@functools.lru_cache(maxsize=16)
def orbit_gather_index(sys_dims: tuple[int, ...], m: int) -> np.ndarray:
    """Flat indices into rho_sys, shape (orbits, m, n_sys^m).

    For representative taus and a system multi-index x = (x_0..x_(m-1)) over
    m copies, entry [o, j, x] is the position of rho_sys[x_j, y_j], where
    y_j takes its subsystem-l digit from copy taus[l][j] of x.  The product
    over j is the entry of rho_sys^(tensor m) at (x, y), and its sum over x
    is the contraction of taus with the environment wired straight through.
    """
    reps = np.array(orbit_representatives(len(sys_dims), m), dtype=np.intp)
    n_sys = math.prod(sys_dims)
    powers = n_sys ** np.arange(m - 1, -1, -1)
    grid = np.arange(n_sys**m) // powers[:, None] % n_sys  # grid[j]: copy-j flat index
    strides = [math.prod(sys_dims[l + 1 :]) for l in range(len(sys_dims))]
    ys = np.zeros((len(reps), m, n_sys**m), dtype=np.intp)
    for l, stride in enumerate(strides):
        digit = grid // stride % sys_dims[l]  # digit[j] = subsystem-l digit of copy j
        ys += digit[reps[:, l, :]] * stride
    index = grid * n_sys + ys
    index.flags.writeable = False
    return index


def gathered_contractions(rho_sys: np.ndarray, sys_dims: Sequence[int], m: int) -> np.ndarray:
    """One contraction per conjugation orbit, in rho_sys's dtype, from the
    gather index: the product over the m factors, then the sum over the
    system multi-index."""
    index = orbit_gather_index(tuple(sys_dims), m)
    return rho_sys.reshape(-1)[index].prod(axis=1).sum(axis=1)


def svd_rank(dims: Sequence[int], m: int, seed=0) -> int:
    """Numerical rank of the orbit contractions on random pure states of
    dims plus an environment of dimension prod(dims): three samples per
    column, an SVD, and singular values above SVD_RANK_TOL of the largest.
    Meant for small sizes only; it has no work bound.
    """
    dims = tuple(dims)
    columns = orbit_gather_index(dims, m).shape[0]
    n = math.prod(dims)
    rng = np.random.default_rng(seed)
    matrix = np.empty((3 * columns, columns), dtype=complex)
    for row in matrix:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        z /= np.linalg.norm(z)
        row[:] = gathered_contractions(z @ z.conj().T, dims, m)
    singular = np.linalg.svd(matrix, compute_uv=False)
    if singular.size == 0 or singular[0] <= 0.0:
        return 0
    return int(np.count_nonzero(singular > SVD_RANK_TOL * singular[0]))


def purify(rho: DensityMatrix) -> PureState:
    """A pure state on system + environment whose environment trace is rho.

    The environment is appended as the last subsystem with dimension equal
    to the numerical rank of rho (eigenvalues above 1e-12).
    """
    vals, vecs = np.linalg.eigh(rho.entries)
    scale = max(1.0, float(vals[-1]) if vals.size else 1.0)
    if vals.size and vals[0] < -HERMITICITY_TOL * scale:
        raise ValueError(f"not positive semidefinite: min eigenvalue {vals[0]}")
    order = np.argsort(-vals)
    keep = [int(i) for i in order if vals[i] > PURIFY_CUTOFF]
    if not keep:
        raise ValueError("state has numerical rank 0, nothing to purify")
    rank = len(keep)
    columns = vecs[:, keep] * np.sqrt(vals[keep])
    return PureState(rho.dims + (rank,), columns.reshape(-1))


def random_density_matrix(dims: Sequence[int], seed) -> DensityMatrix:
    """Trace-one random mixed state from a square Ginibre factor."""
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return DensityMatrix(tuple(dims), rho / np.trace(rho).real)


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def apply_local_unitaries(psi: PureState, unitaries: Sequence[np.ndarray]) -> PureState:
    """Apply one unitary per subsystem."""
    if len(unitaries) != psi.k:
        raise ValueError("need one unitary per subsystem")
    tensor = psi.coeffs.reshape(psi.dims)
    for axis, u in enumerate(unitaries):
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=(1, axis)), 0, axis)
    return PureState(psi.dims, tensor.reshape(-1))


def product_state(factors: Sequence[np.ndarray]) -> PureState:
    """Tensor product of single-subsystem vectors."""
    coeffs = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        coeffs = np.kron(coeffs, np.asarray(f, dtype=complex))
    return PureState(tuple(len(f) for f in factors), coeffs)
