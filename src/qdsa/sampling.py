"""Seeded random matrices, channels and generators for property checks.

Random channels come from slicing a Haar-random isometry, which guarantees
exact unitality by construction.  Structured variants (block-diagonal Kraus
families, generators with a transient block leaking into a recurrent one)
carry known invariant subspaces and are what the lattice and decay property
suites are driven with.
"""

from __future__ import annotations

import numpy as np

from .channels import LindbladGenerator, QuantumChannel
from .linalg import Projection, hermitian_part

__all__ = [
    "haar_unitary",
    "random_hermitian",
    "random_unit_interval_hermitian",
    "random_projection",
    "random_density_matrix",
    "haar_random_channel",
    "random_generator",
    "block_diagonal_channel",
    "transient_block_generator",
    "gaussian_block",
    "random_combination",
]


def _ginibre(rows: int, cols: int, rng) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def gaussian_block(rows: int, cols: int, seed: int) -> np.ndarray:
    """Real standard normal ``rows x cols`` block from its own generator
    seeded with ``seed``: the same block on every call, whatever other
    draws were taken."""
    return np.random.default_rng(seed).standard_normal((rows, cols))


def random_combination(elements, rng):
    """A generic element of the real span of ``elements``: their sum with
    independent standard normal coefficients."""
    coeffs = rng.standard_normal(len(elements))
    return sum(c * b for c, b in zip(coeffs, elements))


def haar_unitary(dim: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(dim, dim, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(dim: int, rng) -> np.ndarray:
    return hermitian_part(_ginibre(dim, dim, rng))


def random_unit_interval_hermitian(dim: int, rng) -> np.ndarray:
    """Random Hermitian matrix rescaled so its spectrum spans exactly [0, 1]."""
    h = random_hermitian(dim, rng)
    w = np.linalg.eigvalsh(h)
    span = float(w[-1] - w[0])
    if span == 0.0:
        return np.zeros((dim, dim), dtype=complex)
    return (h - w[0] * np.eye(dim)) / span


def random_projection(dim: int, rank: int, rng) -> Projection:
    if rank == 0:
        return Projection.zero(dim)
    u = haar_unitary(dim, rng)
    return Projection.from_range_basis(u[:, :rank], dim)


def random_density_matrix(dim: int, rng) -> np.ndarray:
    g = _ginibre(dim, dim, rng)
    m = g @ g.conj().T
    return m / np.trace(m)


def haar_random_channel(dim: int, n_kraus: int, rng) -> QuantumChannel:
    """Slice a Haar-random isometry C^d -> C^d tensor C^n into Kraus operators."""
    q, _ = np.linalg.qr(_ginibre(dim * n_kraus, dim, rng))
    return QuantumChannel([q[i * dim:(i + 1) * dim, :] for i in range(n_kraus)])


def random_generator(dim: int, n_ops: int, rng) -> LindbladGenerator:
    h = random_hermitian(dim, rng)
    ops = [_ginibre(dim, dim, rng) / np.sqrt(dim) for _ in range(n_ops)]
    return LindbladGenerator(h, ops)


def block_diagonal_channel(block_dims, n_kraus: int, rng):
    """Channel whose Kraus family is block diagonal in a common Haar-rotated basis.

    Returns ``(channel, block_projections)`` where each projection onto a
    union of blocks is an exactly invariant subspace; callers build
    sub-harmonic families from subsets of the returned blocks.
    """
    dim = int(sum(block_dims))
    slices = []
    lo = 0
    for b in block_dims:
        slices.append((lo, lo + b))
        lo += b
    ops = [np.zeros((dim, dim), dtype=complex) for _ in range(n_kraus)]
    for (lo, hi) in slices:
        b = hi - lo
        q, _ = np.linalg.qr(_ginibre(b * n_kraus, b, rng))
        for i in range(n_kraus):
            ops[i][lo:hi, lo:hi] = q[i * b:(i + 1) * b, :]
    u = haar_unitary(dim, rng)
    channel = QuantumChannel([u @ v @ u.conj().T for v in ops])
    blocks = [Projection.from_range_basis(u[:, lo:hi], dim) for (lo, hi) in slices]
    return channel, blocks


def transient_block_generator(recurrent_dim: int, transient_dim: int, rng):
    """Generator with a transient block decaying into a recurrent one.

    In the construction basis the leading ``recurrent_dim`` levels form an
    exactly invariant subspace: jump operators either act inside it or map
    the transient block into the whole space with no flow back, and the
    Hamiltonian is block diagonal; a Haar unitary then rotates the basis.
    Returns ``(generator, recurrent_block)``.
    """
    k, m = recurrent_dim, transient_dim
    dim = k + m
    h = np.zeros((dim, dim), dtype=complex)
    h[:k, :k] = random_hermitian(k, rng)
    h[k:, k:] = random_hermitian(m, rng)
    internal = np.zeros((dim, dim), dtype=complex)
    internal[:k, :k] = _ginibre(k, k, rng) / np.sqrt(k)
    leak = np.zeros((dim, dim), dtype=complex)
    leak[:, k:] = _ginibre(dim, m, rng) / np.sqrt(m)
    ops = [internal, leak]
    u = haar_unitary(dim, rng)
    gen = LindbladGenerator(u @ h @ u.conj().T, [u @ l @ u.conj().T for l in ops])
    return gen, Projection.from_range_basis(u[:, :k], dim)
