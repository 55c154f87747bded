"""Horizon diagnostics on the transient corner.

``recurrent_projection`` propagates only the transient corner ``qMq``,
``q = 1 - r``: the flow of ``_corner`` for an isometry ``W`` onto ``q``,
whose ``m^2 x m^2`` real form ``R_q`` is assembled from the compressed
operators ``W^dag X W`` of the model's terms.  On the certificate's corner
of a reduced generator with more than ``_KRYLOV_STEPS`` unknowns that flow
is the shift-and-invert Krylov action on the LU of ``R_q`` the certificate
factored (``_krylov_flow``), which gives way to the dense ``m^2 x m^2``
propagator when it does not converge; every other corner, the certified
ones of generator-d8 and generator-d12 (16 and 36 unknowns) among them,
takes that propagator, since an Arnoldi basis of that many steps would span
it whole.  The full ``d^2 x d^2`` propagator of
the same ``Dynamics`` is the reference, and so is ``P^T R P`` for the
block frame ``P`` of ``W``, which ``R_q`` equals.
"""

import numpy as np
import pytest

import qdsa.asymptotics
import qdsa.channels
from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.asymptotics import Dynamics, _corner, _krylov_flow, recurrent_projection
from qdsa.channels import _kron, hermitian_coords
from qdsa.errors import InternalError, ValidationError
from qdsa.linalg import Projection, opnorm
from qdsa.sampling import haar_unitary, transient_block_generator
from test_dynamics import GOLDEN_SEED, _all_models, _counting
from test_frame import _dense_frame
from test_kernel_split import _lu_shapes, _rung, _svd_shapes
from test_recurrent_reduction import CERTIFIED
from test_small_models import _block_frame


def _models():
    """The fixtures, the seeded d = 4, 8, 12 generator and d = 8 channel rungs
    of the analyze ladder, and the d = 24 generator rung of the structure
    ladder."""
    models = _all_models()
    for d in (12, 24):
        gen, _ = transient_block_generator(d // 2, d - d // 2, np.random.default_rng(1))
        models.append((f"generator-d{d}", gen, 30.0))
    return models


MODELS = _models()
IDS = [name for name, _, _ in MODELS]
TRANSIENT = [m for m in MODELS if m[0] not in ("ID2", "ID3", "TH", "channel-d8")]
FULL_RANK = [m for m in MODELS if m[0] in ("ID2", "ID3", "TH", "channel-d8")]


@pytest.mark.parametrize("name,model,horizon", MODELS, ids=IDS)
class TestCornerFlow:
    def test_transient_flow_matches_full_propagator(self, name, model, horizon):
        dyn = Dynamics(model)
        report = recurrent_projection(dyn, horizon=horizon)
        q = report.recurrent.complement()
        corner = np.eye(model.dim) - report.limit_estimate
        assert opnorm(corner - dyn.flow(horizon).apply(q.matrix)) <= 1e-12

    def test_limit_estimate_matches_full_recurrent_flow(self, name, model, horizon):
        dyn = Dynamics(model)
        report = recurrent_projection(dyn, horizon=horizon)
        full = dyn.flow(horizon).apply(report.recurrent.matrix)
        assert opnorm(report.limit_estimate - full) <= 1e-12

    def test_no_full_propagator(self, monkeypatch, name, model, horizon):
        # a reduced generator whose certified corner has more than
        # _KRYLOV_STEPS unknowns (generator-d24's 144) acts on it by the
        # Krylov action, with no exponential; every other transient corner,
        # generator-d8's 16 and generator-d12's 36 among them, takes its
        # m^2 x m^2 propagator
        exps = _counting(monkeypatch, qdsa.channels, "matrix_exp")
        powers = _counting(monkeypatch, np.linalg, "matrix_power")
        report = recurrent_projection(model, horizon=horizon)
        m = model.dim - report.recurrent.rank
        dyn = Dynamics(model)
        krylov = (dyn.reduction[1] is not None and not dyn.discrete
                  and m * m > qdsa.asymptotics._KRYLOV_STEPS)
        assert krylov == (name == "generator-d24")
        shapes = [args[0].shape for args in exps + powers]
        assert shapes == ([(m * m, m * m)] if m and not krylov else [])


@pytest.mark.parametrize("name,model,horizon", FULL_RANK, ids=[m[0] for m in FULL_RANK])
def test_full_rank_recurrent_projection_has_no_transient(name, model, horizon):
    report = recurrent_projection(model, horizon=horizon)
    assert report.recurrent.rank == model.dim
    assert report.transient_norm == 0.0
    assert report.sup_deviation == 0.0
    assert np.array_equal(report.limit_estimate, np.eye(model.dim))


@pytest.mark.parametrize("horizon", [2.5, 0.3])
def test_channel_horizon_checked_without_a_propagator(horizon):
    channel = next(model for name, model, _ in FULL_RANK if name == "channel-d8")
    with pytest.raises(ValidationError, match="integer horizon") as info:
        recurrent_projection(channel, horizon=horizon)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("name,model,horizon", TRANSIENT, ids=[m[0] for m in TRANSIENT])
class TestTransientCorner:
    def test_rejects_a_projection_that_is_not_subharmonic(self, monkeypatch, name, model,
                                                          horizon):
        # the supremum of the enclosures replaced by its complement
        complement = recurrent_projection(model, horizon=horizon).recurrent.complement()
        monkeypatch.setattr(qdsa.asymptotics, "proj_supremum", lambda ps, tol: complement)
        with pytest.raises(InternalError, match="recurrent projection fails the sub-harmonic"):
            recurrent_projection(model, horizon=horizon)

    def test_corner_is_the_compressed_real_form(self, name, model, horizon):
        dyn = Dynamics(model)
        recurrent = recurrent_projection(dyn, horizon=horizon).recurrent
        w = recurrent.complement().range_basis
        r_q = _corner(dyn, w).schrodinger
        m = w.shape[1]
        assert m == model.dim - recurrent.rank
        assert r_q.shape == (m * m, m * m)
        p = _block_frame(w)
        # R^T maps the corner into itself, so R^T P = P R_q^T and R_q = P^T R P
        scale = max(1.0, opnorm(dyn.schrodinger))
        assert opnorm(dyn.schrodinger.T @ p - p @ r_q.T) <= 1e-12 * scale
        assert opnorm(p.T @ dyn.schrodinger @ p - r_q) <= 1e-12 * scale


@pytest.mark.parametrize("d,m", [(1, 1), (3, 1), (3, 2), (5, 3), (4, 4)])
def test_block_frame_equals_dense_product(d, m, rng):
    w = haar_unitary(d, rng)[:, :m]
    dense = _dense_frame(d).conj().T @ _kron(w.conj(), w) @ _dense_frame(m)
    p = _block_frame(w)
    assert p.dtype == float and p.shape == (d * d, m * m)
    assert np.max(np.abs(p - dense.real)) <= 1e-14
    assert np.max(np.abs(dense.imag)) <= 1e-14
    assert opnorm(p.T @ p - np.eye(m * m)) <= 1e-14


@pytest.mark.parametrize("d,seed", CERTIFIED, ids=[f"generator-d{d}-s{s}" for d, s in CERTIFIED])
def test_krylov_action_matches_the_dense_corner_flow(d, seed):
    # at the default horizon the action converges on every certified draw;
    # at short ones it may give way to the dense flow, which then serves
    dyn = Dynamics(_rung("generator", d, seed)[0])
    ws, wq = dyn.reduction
    r = Projection.from_range_basis(np.concatenate(ws, axis=1))
    corner = _corner(dyn, wq)
    one = np.eye(corner.dim)
    assert _krylov_flow(corner, 30.0, hermitian_coords(one)) is not None
    for horizon in (0.1, 1.0, 3.0, 30.0):
        w, apply = dyn.transient(r, horizon)
        assert w is wq
        got = apply(one)
        want = corner.flow(horizon).apply(one)
        assert opnorm(got - want) <= 1e-8 * opnorm(want)


def test_short_horizon_takes_the_dense_fallback(monkeypatch):
    # at T = 1 the action on generator-d24's corner of 12 does not converge
    # within _KRYLOV_STEPS steps, so its 144 x 144 propagator is built
    exps = _counting(monkeypatch, qdsa.channels, "matrix_exp")
    recurrent_projection(_rung("generator", 24, 1)[0], horizon=1.0)
    assert [args[0].shape for args in exps] == [(144, 144)]


def test_certified_corner_builds_no_exponential(monkeypatch):
    # generator-d48 reduces to a class of 24 and a transient corner of 24:
    # the two (576, 576) LUs are the certificate's, which the action
    # reuses, then the class corner's split
    exps = _counting(monkeypatch, qdsa.channels, "matrix_exp")
    flows = _counting(monkeypatch, qdsa.asymptotics, "_krylov_flow")
    lus = _lu_shapes(monkeypatch)
    report = recurrent_projection(_rung("generator", 48, 1)[0], horizon=30.0)
    assert report.recurrent.rank == 24
    assert exps == [] and len(flows) == 1
    assert lus == [(576, 576)] * 2


@pytest.mark.parametrize("d", [12, 16], ids=["generator-d12", "generator-d16"])
def test_krylov_rule_on_the_certified_corner(monkeypatch, d):
    # the reduced rung's certified corner of d/2 levels has n = (d/2)^2
    # unknowns: 36 on generator-d12, at most _KRYLOV_STEPS, so it takes its
    # dense flow, one (36, 36) exponential and no action; 64 on
    # generator-d16, which takes the action once and no exponential.  The
    # one LU is the certificate's, and no SVD has more than n rows: the
    # class corner's split and decay_ideal_units' d x d trace norm
    model = _rung("generator", d, 1)[0]
    n = (d // 2) ** 2
    krylov = n > qdsa.asymptotics._KRYLOV_STEPS
    exps = _counting(monkeypatch, qdsa.channels, "matrix_exp")
    flows = _counting(monkeypatch, qdsa.asymptotics, "_krylov_flow")
    svds = _svd_shapes(monkeypatch)
    lus = _lu_shapes(monkeypatch)
    report = run_analyze(model, AnalysisOptions(seed=GOLDEN_SEED))
    assert report.passed and report.recurrent.rank == d // 2
    assert lus == [(n, n)]
    assert max(max(shape) for shape in svds) == n
    assert len(flows) == krylov
    assert [args[0].shape for args in exps] == [(n, n)] * (not krylov)


def test_krylov_action_on_a_corner_of_one_level(monkeypatch):
    # a transient corner of one level: the first Arnoldi step breaks down
    # exactly, and the action is exact there; the analysis takes the
    # corner's dense flow, one 1 x 1 exponential, as on every corner of at
    # most _KRYLOV_STEPS unknowns
    model = transient_block_generator(15, 1, np.random.default_rng(1))[0]
    dyn = Dynamics(model)
    corner = _corner(dyn, dyn.reduction[1])
    want = corner.flow(1.0).apply(np.eye(1))
    got = _krylov_flow(corner, 1.0, hermitian_coords(np.eye(1)))
    assert got.shape == (1,)
    assert abs(got[0] - want[0, 0].real) <= 1e-12 * abs(want[0, 0])
    exps = _counting(monkeypatch, qdsa.channels, "matrix_exp")
    flows = _counting(monkeypatch, qdsa.asymptotics, "_krylov_flow")
    report = recurrent_projection(model, horizon=1.0)
    assert report.recurrent.rank == 15 and flows == []
    assert [args[0].shape for args in exps] == [(1, 1)]
    assert abs(report.transient_norm - abs(want[0, 0])) <= 1e-12 * abs(want[0, 0])
