"""The one QR route: LAPACK's Householder QR called without numpy's wrapper.

``linalg._householder`` is the QR of the Haar draws and of the LU kernel
route's block.  These tests hold it to the factorization it must be and to
``np.linalg.qr``, check that the samplers draw the same stream through it,
and pin where it runs.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack

import qdsa
import qdsa.asymptotics
import qdsa.sampling
from qdsa.errors import InternalError
from qdsa.linalg import _householder
from qdsa.sampling import (
    _ginibre,
    block_diagonal_channel,
    haar_random_channel,
    haar_unitary,
    random_projection,
)
from qdsa.verify import run_verify

SRC = Path(qdsa.__file__).parent


def _check_factorization(a: np.ndarray):
    q, r = _householder(a)
    k = min(a.shape)
    assert q.shape == (a.shape[0], k) and r.shape == (k,)
    assert q.dtype == r.dtype == a.dtype
    assert q.flags.c_contiguous
    scale = max(1.0, float(np.abs(a).max()))
    # orthonormal columns, and Q^dag a upper triangular with diagonal r
    assert np.abs(q.conj().T @ q - np.eye(k)).max() <= 1e-13
    rr = q.conj().T @ a
    assert np.abs(np.tril(rr, -1)).max(initial=0.0) <= 1e-13 * scale
    assert np.abs(np.diagonal(rr) - r).max() <= 1e-13 * scale
    # the same factorization as numpy's, to rounding
    q_np, r_np = np.linalg.qr(a)
    assert np.abs(q - q_np).max() <= 1e-12
    assert np.abs(r - np.diagonal(r_np)).max() <= 1e-12 * scale


@pytest.mark.parametrize("d", range(1, 17))
def test_complex_square_and_tall_blocks(d):
    rng = np.random.default_rng(100 + d)
    for blocks in range(1, 5):
        _check_factorization(_ginibre(blocks * d, d, rng))


@pytest.mark.parametrize("n", [64, 256, 400, 1024])
def test_real_blocks_of_the_kernel_route(n):
    _check_factorization(np.random.default_rng(n).standard_normal((n, 16)))


def test_blocked_sizes():
    # past 128 columns LAPACK takes its blocked code when the workspace
    # holds a panel of columns, as the n^2 given does
    rng = np.random.default_rng(7)
    _check_factorization(_ginibre(200, 160, rng))
    _check_factorization(rng.standard_normal((160, 160)))


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
def test_empty_shapes_call_no_lapack(monkeypatch, shape):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on an empty shape")

    for name in ("zgeqrf", "zungqr", "dgeqrf", "dorgqr"):
        monkeypatch.setattr(scipy.linalg.lapack, name, refuse)
    for dtype in (complex, float):
        q, r = _householder(np.zeros(shape, dtype))
        q_np, r_np = np.linalg.qr(np.zeros(shape, dtype))
        assert q.shape == q_np.shape and r.shape == (min(shape),)
        assert q.dtype == r.dtype == np.dtype(dtype)
    assert haar_unitary(0, np.random.default_rng(0)).shape == (0, 0)


def test_nonzero_info_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(scipy.linalg.lapack, "zgeqrf",
                        lambda a, **kwargs: (np.asfortranarray(a), np.zeros(1), None, -4))
    with pytest.raises(InternalError, match=r"info -4"):
        _householder(np.eye(2, dtype=complex))


def _qr(a):
    q, r = np.linalg.qr(a)
    return q, np.diagonal(r)


def _reference_haar(dim, rng):
    q, r = _qr(_ginibre(dim, dim, rng))
    return q * (r / np.abs(r))


def _reference_channel(dim, n_kraus, rng):
    q, _ = _qr(_ginibre(dim * n_kraus, dim, rng))
    return [q[i * dim:(i + 1) * dim, :] for i in range(n_kraus)]


def _reference_blocks(block_dims, n_kraus, rng):
    qs = [_qr(_ginibre(b * n_kraus, b, rng))[0] for b in block_dims]
    return qs, _reference_haar(int(sum(block_dims)), rng)


@pytest.mark.parametrize("seed", range(4))
def test_samplers_draw_the_same_stream(seed):
    # each sampler takes the same draws as one through np.linalg.qr, so the
    # generator is left in the same state and the results agree to rounding
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for dim in (1, 2, 3, 4, 7):
        assert np.abs(haar_unitary(dim, ours) - _reference_haar(dim, ref)).max() <= 1e-12
        ops = haar_random_channel(dim, 3, ours).kraus_ops
        assert max(np.abs(a - b).max() for a, b in zip(ops, _reference_channel(dim, 3, ref))) \
            <= 1e-12
        p = random_projection(dim, dim // 2 + 1, ours)
        u = _reference_haar(dim, ref)[:, :dim // 2 + 1]
        assert np.abs(p.matrix - u @ u.conj().T).max() <= 1e-12
    _, blocks = block_diagonal_channel([2, 3], 2, ours)
    _, u = _reference_blocks([2, 3], 2, ref)
    assert np.abs(blocks[1].range_basis - u[:, 2:]).max() <= 1e-12
    assert ours.integers(0, 2**40) == ref.integers(0, 2**40)


def test_verify_runs_no_numpy_qr(monkeypatch):
    calls = []
    original = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or original(*a, **k))
    counted = []
    zgeqrf = scipy.linalg.lapack.zgeqrf
    monkeypatch.setattr(scipy.linalg.lapack, "zgeqrf",
                        lambda *a, **k: counted.append(1) or zgeqrf(*a, **k))
    run_verify(1, 20)
    assert not calls
    assert counted


def test_sampling_and_the_block_kernel_call_no_numpy_qr():
    assert "linalg.qr" not in inspect.getsource(qdsa.sampling)
    assert "linalg.qr" not in inspect.getsource(qdsa.asymptotics._block_kernel)
    assert "_householder" in inspect.getsource(qdsa.asymptotics._block_kernel)
    # the one np.linalg.qr call left in the package is the recurrent guess's
    calls = [(path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.qr"]
    guess = qdsa.asymptotics._recurrent_guess
    first = guess.__code__.co_firstlineno
    assert len(calls) == 1 and calls[0][0] == "asymptotics.py"
    assert first < calls[0][1] < first + len(inspect.getsourcelines(guess)[0])
