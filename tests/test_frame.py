"""The Hermitian frame: real superoperators and the corners of compressed terms."""

import numpy as np
import pytest
import scipy.linalg

import qdsa.asymptotics
import qdsa.verify
from qdsa.asymptotics import (
    Dynamics,
    _corner,
    _fixed_basis,
    minimal_enclosures,
    recurrent_projection,
    restricted_stationary_dim,
    stationary_space,
)
from qdsa.channels import (
    HEISENBERG,
    SCHRODINGER,
    LindbladGenerator,
    QuantumChannel,
    Superoperator,
    apply_heisenberg,
    from_hermitian_coords,
    hermitian_coords,
    lindblad_apply,
    propagator,
    vec,
)
from qdsa.harmonic import subharmonic_residual
from qdsa.linalg import DEFAULT_TOL, Projection, opnorm
from qdsa.models import build_fixture
from qdsa.sampling import (
    block_diagonal_channel,
    haar_random_channel,
    haar_unitary,
    random_generator,
    random_hermitian,
    transient_block_generator,
)
from test_dynamics import _all_models, _ladder_models
from test_small_models import _reference_superop, real_form

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
    """Every block isometry that minimal_enclosures takes a corner of to
    split it: the stationary support, and with it the certified reduction
    and the certificate's transient corner, which has no fixed points, is
    found before recording starts."""
    blocks = []
    original = qdsa.asymptotics._corner
    top = Dynamics(model)
    top.support

    def recording(dyn, w):
        blocks.append(np.array(w))
        return original(dyn, w)

    monkeypatch.setattr(qdsa.asymptotics, "_corner", recording)
    minimal_enclosures(top)
    monkeypatch.undo()
    assert blocks
    return blocks


@pytest.mark.parametrize("name,model,horizon", MODELS, ids=IDS)
class TestCompressedCorners:
    def test_corner_matches_kronecker_embedding(self, monkeypatch, name, model, horizon):
        s_full = _reference_superop(model, SCHRODINGER)
        scale = max(1.0, opnorm(s_full))
        for w in _visited_blocks(monkeypatch, model):
            old = _old_corner(s_full, w, discrete=False)
            new = Superoperator(_corner(Dynamics(model), w).schrodinger, SCHRODINGER).matrix
            assert opnorm(new - old) <= 1e-12 * scale, (name, w.shape)

    def test_left_kernel_spans_heisenberg_corner_kernel(self, monkeypatch, name, model,
                                                        horizon):
        discrete = hasattr(model, "kraus_ops")
        s_heis = _reference_superop(model, HEISENBERG)
        for w in _visited_blocks(monkeypatch, model):
            old = _old_split_kernel(_old_corner(s_heis, w, discrete))
            fixed = _fixed_basis(_corner(Dynamics(model), w))
            assert len(fixed) == old.shape[1], (name, w.shape)
            for f in fixed:
                assert np.array_equal(f, f.conj().T)
            new = np.column_stack([vec(f) for f in fixed])
            # both are orthonormal bases; equal spans have equal projectors
            assert opnorm(new @ new.conj().T - old @ old.conj().T) <= 1e-8, (name, w.shape)

    def test_certificates_equal_restricted_stationary_dim(self, name, model, horizon):
        # each enclosure's corner, as restricted_stationary_dim gives it, has
        # one stationary state, of full support on the enclosure
        for p in minimal_enclosures(Dynamics(model)).minimal_projections:
            sdim, state = restricted_stationary_dim(model, p)
            assert sdim == 1, name
            assert state.support().rank == p.rank, name


@pytest.mark.parametrize("kind", ["generator", "channel"])
@pytest.mark.parametrize("d,m", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)])
def test_corner_is_the_compressed_map_off_invariant_blocks(kind, d, m):
    # the compressed terms give y -> W^dag alpha(W y W^dag) W for every
    # isometry W, here one onto a block that is not invariant
    rng = np.random.default_rng(10 * d + m)
    w = haar_unitary(d, rng)[:, :m]
    if kind == "generator":
        model = random_generator(d, 2, rng)
        heisenberg = lambda a: lindblad_apply(model, a)
    else:
        model = haar_random_channel(d, 3, rng)
        heisenberg = lambda a: apply_heisenberg(model, a)
    assert subharmonic_residual(model, Projection.from_range_basis(w)) > 1e-3
    top = Dynamics(model)
    corner = _corner(top, w)
    # a corner is a Dynamics like the top level: the same attributes, its
    # own terms, the top level's tolerance, and no model
    assert vars(corner).keys() == vars(top).keys() == {"terms", "discrete", "dim", "tol", "_cache"}
    assert corner.tol is top.tol
    assert corner.dim == m and corner.discrete == top.discrete
    action = Superoperator(corner.schrodinger.T, HEISENBERG)
    for _ in range(3):
        y = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        want = w.conj().T @ heisenberg(w @ y @ w.conj().T) @ w
        assert np.max(np.abs(action.apply(y) - want)) <= 1e-13


def _compressed_model(model, w):
    """The model built from the terms compressed by ``w``: ``W^dag V_i W``,
    or ``W^dag H W`` and ``W^dag L_i W``, exact on an invariant block."""
    wh = w.conj().T
    if isinstance(model, QuantumChannel):
        return QuantumChannel([wh @ v @ w for v in model.kraus_ops])
    return LindbladGenerator(wh @ model.hamiltonian @ w, [wh @ l @ w for l in model.lindblad_ops])


def _invariant_blocks():
    channel, blocks = block_diagonal_channel([2, 2], 2, np.random.default_rng(5))
    generator, recurrent = transient_block_generator(2, 2, np.random.default_rng(6))
    return [("M3-stable", build_fixture("M3"), np.eye(3, dtype=complex)[:, :2]),
            ("channel-block", channel, blocks[0].range_basis),
            ("generator-recurrent", generator, recurrent.range_basis)]


@pytest.mark.parametrize("name,model,w", _invariant_blocks(),
                         ids=[name for name, _, _ in _invariant_blocks()])
def test_pipeline_runs_on_the_corner_of_an_invariant_block(name, model, w):
    # a corner answers "is p sub-harmonic?" from its compressed terms, so the
    # pipeline runs on it and gives what it gives on the compressed model
    assert subharmonic_residual(model, Projection.from_range_basis(w)) <= DEFAULT_TOL.atol
    corner = _corner(Dynamics(model), w)
    compressed = _compressed_model(model, w)

    space, want_space = stationary_space(corner), stationary_space(compressed)
    assert space.dim == want_space.dim
    assert opnorm(space.state.matrix - want_space.state.matrix) <= 1e-10

    got, want = minimal_enclosures(corner), minimal_enclosures(compressed)
    assert [p.rank for p in got.minimal_projections] == [
        p.rank for p in want.minimal_projections]
    assert (got.is_unique, got.fixed_algebra_dim) == (want.is_unique, want.fixed_algebra_dim)
    for p, q in zip(got.minimal_projections, want.minimal_projections):
        assert opnorm(p.matrix - q.matrix) <= 1e-10
    assert max(got.subharmonic_residuals) <= DEFAULT_TOL.atol

    got, want = recurrent_projection(corner), recurrent_projection(compressed)
    assert got.recurrent.rank == want.recurrent.rank
    assert opnorm(got.recurrent.matrix - want.recurrent.matrix) <= 1e-10
    assert opnorm(got.limit_estimate - want.limit_estimate) <= 1e-10


def test_identity_corner_is_the_dynamics_itself(m3):
    dyn = Dynamics(m3)
    assert _corner(dyn, np.eye(3, dtype=complex)) is dyn
    assert _corner(dyn, np.eye(3)[:, [1, 0, 2]]) is not dyn


def test_channel_d8_splits_its_two_classes_not_the_whole(monkeypatch):
    # from _LARGE_MIN_SIZE unknowns on the faithful channel-d8 is reduced
    # to its two classes of 4: one (16, 16) kernel SVD each, the pair's
    # stacked SVD of the same size, and no (64, 64) SVD
    _, channel, horizon = _ladder_models()[2]
    n = channel.dim ** 2
    assert n >= qdsa.asymptotics._LARGE_MIN_SIZE
    shapes = []
    original = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    report = recurrent_projection(channel, horizon=horizon)
    assert report.recurrent.rank == channel.dim
    assert (n, n) not in shapes
    assert shapes.count((16, 16)) == 2
    assert max(max(s) for s in shapes) == 16


def test_generator_criterion_builds_each_propagator_once(monkeypatch):
    assembled = []
    propagated = []
    assemble, propagate = qdsa.asymptotics._real_schrodinger, qdsa.asymptotics._propagate

    def counted_assembly(h, ops, dim):
        assembled.append(h)
        return assemble(h, ops, dim)

    def counted_propagation(r, t, discrete):
        propagated.append((r.tobytes(), t))
        return propagate(r, t, discrete)

    monkeypatch.setattr(qdsa.asymptotics, "_real_schrodinger", counted_assembly)
    monkeypatch.setattr(qdsa.asymptotics, "_propagate", counted_propagation)
    result = qdsa.verify._tally("generator-criterion", qdsa.verify._generator_criterion(
        np.random.default_rng(3), 4, (2, 3), DEFAULT_TOL))
    assert result.trials == 4          # one generator per dim, two projections each
    assert len(assembled) == 2         # one superoperator per generator
    assert len({id(h) for h in assembled}) == 2
    assert len(propagated) == 6        # three times per generator
    assert len(set(propagated)) == 6
