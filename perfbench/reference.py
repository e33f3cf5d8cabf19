"""Reference values computed apart from luinv, for the benchmark's checks.

Nothing here imports the package under test.  Each routine takes a route
the program does not: partition numbers from Euler's pentagonal
recurrence, the centralizer sum over a partition generator of its own,
Euler exponents from the integer log-derivative recurrence, irreducible
dimensions from the hook-length formula, and reduced states from an
explicit reshape and trace.  The seeded inputs (random states, Haar
unitaries, GHZ states) are drawn here too, so the program receives only
states and seeds.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# OEIS A057005: conjugacy classes of index-d subgroups of the free group of
# rank 2 (d = 1..8).
A057005 = (1, 3, 7, 26, 97, 624, 4163, 34470)


def partition_numbers(n: int) -> list[int]:
    """p(0), ..., p(n) from Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for i in range(1, n + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            if g1 > i:
                break
            sign = 1 if j % 2 else -1
            total += sign * p[i - g1]
            g2 = j * (3 * j + 1) // 2
            if g2 <= i:
                total += sign * p[i - g2]
            j += 1
        p[i] = total
    return p


def partitions(m: int, largest: int | None = None):
    """Partitions of m as tuples, largest first in reverse-lex order."""
    if largest is None:
        largest = m
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


def centralizer(parts: tuple[int, ...]) -> int:
    """z(lambda) = prod_i i^{a_i} a_i! with a_i the multiplicity of i."""
    z = 1
    for i in set(parts):
        a = parts.count(i)
        z *= i**a * math.factorial(a)
    return z


@lru_cache(maxsize=None)
def _centralizers(m: int) -> tuple[int, ...]:
    return tuple(centralizer(lam) for lam in partitions(m))


def z_sum(k: int, m: int) -> int:
    """sum over partitions lambda of m of z(lambda)^(k-2), exactly.

    For k = 1 the terms are 1/z; their sum is 1 (the class equation), which
    is returned after an exact check.
    """
    if k >= 2:
        return sum(z ** (k - 2) for z in _centralizers(m))
    factorial = math.factorial(m)
    total = sum(factorial // z for z in _centralizers(m))
    if total != factorial:
        raise ArithmeticError("class sizes do not add up to m!")
    return 1


def euler_exponents(a: list[int]) -> list[int]:
    """u_1..u_n with prod_d (1-t^d)^(-u_d) = sum a_n t^n, a_0 = 1.

    b_n = n a_n - sum_{j<n} b_j a_{n-j} is the sum of d u_d over the
    divisors d of n; Moebius-style stripping of the proper divisors gives
    u_n.  Everything stays in integers and a remainder raises.
    """
    if a[0] != 1:
        raise ValueError("need constant term 1")
    n = len(a) - 1
    b = [0] * (n + 1)
    u = [0] * (n + 1)
    for i in range(1, n + 1):
        b[i] = i * a[i] - sum(b[j] * a[i - j] for j in range(1, i))
        rest = b[i] - sum(d * u[d] for d in range(1, i) if i % d == 0)
        if rest % i:
            raise ArithmeticError(f"u_{i} is not an integer")
        u[i] = rest // i
    return u[1:]


def hook_dimension(lam: tuple[int, ...]) -> int:
    """Dimension of the S_m irreducible lam: m! over the product of hooks."""
    m = sum(lam)
    conj = [sum(1 for part in lam if part > c) for c in range(lam[0])] if lam else []
    hooks = 1
    for r, part in enumerate(lam):
        for c in range(part):
            hooks *= part - c + conj[c] - r - 1
    return math.factorial(m) // hooks


def reduced_density(coeffs: np.ndarray, dims: tuple[int, ...], traced) -> np.ndarray:
    """Reduced state of a pure state on the subsystems not in `traced`
    (1-based labels): M M^dagger with M the coefficient tensor reshaped to
    (kept, traced)."""
    traced_axes = [j - 1 for j in sorted(set(traced))]
    kept_axes = [ax for ax in range(len(dims)) if ax not in traced_axes]
    tensor = np.asarray(coeffs).reshape(dims).transpose(kept_axes + traced_axes)
    n_kept = math.prod(dims[ax] for ax in kept_axes)
    mat = tensor.reshape(n_kept, -1)
    return mat @ mat.conj().T


def reduced_mixed(rho: np.ndarray, dims: tuple[int, ...], traced) -> np.ndarray:
    """Partial trace of a density matrix over the listed 1-based labels, by
    reshaping to (dims, dims) and tracing one axis pair at a time."""
    k = len(dims)
    tensor = np.asarray(rho).reshape(dims + dims)
    for j in sorted(set(traced), reverse=True):
        width = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=j - 1, axis2=j - 1 + width)
    kept = [dims[ax] for ax in range(k) if ax + 1 not in set(traced)]
    side = math.prod(kept)
    return tensor.reshape(side, side)


def purity(reduced: np.ndarray) -> float:
    return float(np.real(np.trace(reduced @ reduced)))


def subset_labels(bits: int, k: int) -> list[int]:
    return [j for j in range(1, k + 1) if bits >> (j - 1) & 1]


def j_vector(coeffs: np.ndarray, dims: tuple[int, ...]) -> list[float]:
    """J_A = Tr((Tr_A rho)^2) for every subset A in binary order."""
    k = len(dims)
    return [
        purity(reduced_density(coeffs, dims, subset_labels(bits, k)))
        for bits in range(1 << k)
    ]


def i_from_j(jvec: list[float], k: int) -> list[float]:
    """I_A = 2^-k sum over B of (-1)^|A cap B| J_B, summed term by term."""
    return [
        sum(
            (-1.0 if (a & b).bit_count() & 1 else 1.0) * jvec[b]
            for b in range(1 << k)
        )
        / (1 << k)
        for a in range(1 << k)
    ]


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary from the QR of a complex Ginibre matrix, phases fixed."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ghz_coeffs(k: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2) on k qubits."""
    coeffs = np.zeros(2**k, dtype=complex)
    coeffs[0] = coeffs[-1] = 1 / math.sqrt(2)
    return coeffs


def random_coeffs(rng: np.random.Generator, dims: tuple[int, ...]) -> np.ndarray:
    n = math.prod(dims)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def rotate(coeffs: np.ndarray, dims: tuple[int, ...], unitaries) -> np.ndarray:
    """Apply one unitary per subsystem to a pure state's coefficients."""
    tensor = np.asarray(coeffs).reshape(dims)
    for axis, u in enumerate(unitaries):
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=(1, axis)), 0, axis)
    return tensor.reshape(-1)
