"""The Hermitian frame: real superoperators and compressed corner models."""

import numpy as np
import pytest
import scipy.linalg

import qdsa.asymptotics
import qdsa.verify
from qdsa.asymptotics import (
    Dynamics,
    _compress,
    _corner,
    _fixed_basis,
    minimal_enclosures,
    recurrent_projection,
    restricted_stationary_dim,
)
from qdsa.channels import (
    HEISENBERG,
    SCHRODINGER,
    Superoperator,
    from_hermitian_coords,
    hermitian_coords,
    propagator,
    real_form,
    to_superoperator,
    vec,
)
from qdsa.linalg import DEFAULT_TOL, opnorm
from qdsa.sampling import random_hermitian
from test_dynamics import _all_models, _ladder_models
from test_small_models import _reference_superop

MODELS = _all_models()
IDS = [name for name, _, _ in MODELS]


def _dense_frame(d: int) -> np.ndarray:
    """The frame as a dense ``d^2 x d^2`` matrix, column ``j + k d`` for the
    entry ``(j, k)``: ``E_jj``, the symmetric element above the diagonal,
    the antisymmetric one of the pair below it."""
    q = np.zeros((d * d, d * d), dtype=complex)
    r = np.sqrt(0.5)
    for j in range(d):
        for k in range(d):
            e_jk = np.zeros((d, d), dtype=complex)
            e_jk[j, k] = 1.0
            if j == k:
                element = e_jk
            elif j < k:
                element = r * (e_jk + e_jk.T)
            else:
                element = 1j * r * (e_jk.T - e_jk)
            q[:, j + k * d] = vec(element)
    return q


@pytest.mark.parametrize("name,model,horizon", MODELS, ids=IDS)
class TestFrame:
    def test_dense_frame_is_hermitian_orthonormal(self, name, model, horizon):
        d = model.dim
        q = _dense_frame(d)
        assert opnorm(q.conj().T @ q - np.eye(d * d)) <= 1e-15

    def test_coordinates_round_trip(self, name, model, horizon, rng):
        d = model.dim
        q = _dense_frame(d)
        a = random_hermitian(d, rng)
        x = hermitian_coords(a)
        assert x.dtype == float
        assert np.max(np.abs(x - (q.conj().T @ vec(a)).real)) <= 1e-15 * max(1.0, opnorm(a))
        back = from_hermitian_coords(x, d)
        assert np.array_equal(back, back.conj().T)
        assert opnorm(back - a) <= 1e-14 * max(1.0, opnorm(a))
        y = rng.standard_normal(d * d)
        assert np.max(np.abs(hermitian_coords(from_hermitian_coords(y, d)) - y)) <= 1e-15

    @pytest.mark.parametrize("picture", [HEISENBERG, SCHRODINGER])
    def test_real_form_equals_dense_product(self, name, model, horizon, picture):
        s = _reference_superop(model, picture)
        q = _dense_frame(model.dim)
        dense = q.conj().T @ s @ q
        scale = max(1.0, opnorm(s))
        assert np.max(np.abs(dense.imag)) <= 1e-13 * scale
        assert np.max(np.abs(real_form(s) - dense.real)) <= 1e-13 * scale
        assert opnorm(Superoperator(real_form(s), picture).matrix - s) <= 1e-13 * scale

    def test_heisenberg_form_is_transpose(self, name, model, horizon):
        r_h = real_form(_reference_superop(model, HEISENBERG))
        r_s = real_form(_reference_superop(model, SCHRODINGER))
        assert np.max(np.abs(r_h - r_s.T)) <= 1e-13 * max(1.0, opnorm(r_s))

    def test_propagator_matches_complex_exponential(self, name, model, horizon):
        # the complex superoperator power or exponential, as computed before
        # propagators moved to the real form
        s = _reference_superop(model, HEISENBERG)
        if hasattr(model, "kraus_ops"):
            ref = np.linalg.matrix_power(s, int(round(horizon)))
        else:
            ref = scipy.linalg.expm(horizon * s)
        got = propagator(model, horizon, HEISENBERG)
        assert got.real.dtype == float
        assert opnorm(got.matrix - ref) <= 1e-10 * max(1.0, opnorm(ref))


def _old_split_kernel(m: np.ndarray) -> np.ndarray:
    """Kernel of a complex fixed-point matrix, as the Kronecker-corner code
    computed it."""
    _, s, vh = np.linalg.svd(m)
    cutoff = max(DEFAULT_TOL.rank_rtol * float(s[0]), DEFAULT_TOL.atol)
    return vh[s <= cutoff].conj().T


def _old_corner(s_full: np.ndarray, w: np.ndarray, discrete: bool) -> np.ndarray:
    """Fixed-point matrix of the Kronecker-embedded corner ``b^dag S b``."""
    b = np.kron(w.conj(), w)
    corner = b.conj().T @ s_full @ b
    return corner - np.eye(corner.shape[0]) if discrete else corner


def _visited_blocks(monkeypatch, model):
    """Every block isometry that minimal_enclosures builds a corner for."""
    blocks = []
    original = qdsa.asymptotics._corner

    def recording(dyn, w, tol):
        blocks.append(np.array(w))
        return original(dyn, w, tol)

    monkeypatch.setattr(qdsa.asymptotics, "_corner", recording)
    minimal_enclosures(model)
    monkeypatch.undo()
    assert blocks
    return blocks


@pytest.mark.parametrize("name,model,horizon", MODELS, ids=IDS)
class TestCompressedCorners:
    def test_model_matches_kronecker_embedding(self, monkeypatch, name, model, horizon):
        s_full = _reference_superop(model, SCHRODINGER)
        scale = max(1.0, opnorm(s_full))
        for w in _visited_blocks(monkeypatch, model):
            old = _old_corner(s_full, w, discrete=False)
            new = to_superoperator(_compress(model, w, DEFAULT_TOL), SCHRODINGER).matrix
            assert opnorm(new - old) <= 1e-12 * scale, (name, w.shape)

    def test_left_kernel_spans_heisenberg_corner_kernel(self, monkeypatch, name, model,
                                                        horizon):
        discrete = hasattr(model, "kraus_ops")
        s_heis = _reference_superop(model, HEISENBERG)
        for w in _visited_blocks(monkeypatch, model):
            old = _old_split_kernel(_old_corner(s_heis, w, discrete))
            fixed = _fixed_basis(_corner(Dynamics(model), w, DEFAULT_TOL), DEFAULT_TOL)
            assert len(fixed) == old.shape[1], (name, w.shape)
            for f in fixed:
                assert np.array_equal(f, f.conj().T)
            new = np.column_stack([vec(f) for f in fixed])
            # both are orthonormal bases; equal spans have equal projectors
            assert opnorm(new @ new.conj().T - old @ old.conj().T) <= 1e-8, (name, w.shape)

    def test_certificates_equal_restricted_stationary_dim(self, name, model, horizon):
        decomposition = minimal_enclosures(Dynamics(model))
        assert len(decomposition.certificates) == len(decomposition.minimal_projections)
        for p, (sdim, state) in zip(decomposition.minimal_projections,
                                    decomposition.certificates):
            ref_dim, ref_state = restricted_stationary_dim(model, p)
            assert sdim == ref_dim == 1
            assert np.array_equal(state.matrix, ref_state.matrix), name
            assert state.support().rank == p.rank


def test_channel_d8_runs_one_full_size_svd(monkeypatch):
    _, channel, horizon = _ladder_models()[2]
    n = channel.dim ** 2
    shapes = []
    original = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    report = recurrent_projection(channel, horizon=horizon)
    assert report.recurrent.rank == channel.dim
    assert shapes.count((n, n)) == 1
    assert max(max(s) for s in shapes) == n


def test_generator_criterion_builds_each_propagator_once(monkeypatch):
    assembled = []
    propagated = []
    assemble, propagate = qdsa.asymptotics.to_superoperator, qdsa.asymptotics._propagate

    def counted_assembly(model, picture):
        assembled.append(model)
        return assemble(model, picture)

    def counted_propagation(r, t, discrete):
        propagated.append((r.tobytes(), t))
        return propagate(r, t, discrete)

    monkeypatch.setattr(qdsa.asymptotics, "to_superoperator", counted_assembly)
    monkeypatch.setattr(qdsa.asymptotics, "_propagate", counted_propagation)
    result = qdsa.verify._tally("generator-criterion", qdsa.verify._generator_criterion(
        np.random.default_rng(3), 4, (2, 3), DEFAULT_TOL))
    assert result.trials == 4          # one generator per dim, two projections each
    assert len(assembled) == 2         # one superoperator per generator
    assert len({id(model) for model in assembled}) == 2
    assert len(propagated) == 6        # three times per generator
    assert len(set(propagated)) == 6