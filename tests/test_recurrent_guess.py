"""The certified resolvent guess of the recurrent block.

``Dynamics.guess`` proposes the recurrent block ``r`` as the support of
``(s (s - F)^-1)^3 (1/d)`` (one LU) and certifies it by (a) sub-harmonicity,
(b) a faithful stationary state of the compressed block and (c) a transient
corner whose fixed-point matrix has no kernel.  A certified block replaces
the SVD of the whole ``d^2 x d^2`` fixed-point matrix; every other outcome
falls back to that SVD.
"""

import gc
import json
import sys
import weakref

import numpy as np
import pytest
import scipy.linalg.lapack

import qdsa.asymptotics
from conftest import ket_bra, run_cli
from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.asymptotics import Dynamics, _fixed_point_matrix, recurrent_projection
from qdsa.channels import LindbladGenerator, QuantumChannel, hermitian_coords
from qdsa.errors import InternalError
from qdsa.linalg import DEFAULT_TOL, Projection, opnorm, projections_equal
from qdsa.modelio import ModelSpec
from qdsa.models import build_fixture, identity_model, thermal_qubit
from qdsa.sampling import block_diagonal_channel, transient_block_generator
from test_dynamics import GOLDEN_SEED, _compare

RUNGS = [(d, seed) for seed in (1, 2) for d in (4, 8, 12, 16, 24, 32)]


def _generator_rung(d: int, seed: int):
    """A seeded generator rung of the benchmark ladders and its recurrent block."""
    return transient_block_generator(d // 2, d - d // 2, np.random.default_rng(seed))


def _channel_d8():
    return block_diagonal_channel([4, 4], 2, np.random.default_rng(1))


def _cascade():
    """Three levels decaying in a chain ``|2> -> |1> -> |0>``."""
    return LindbladGenerator(np.zeros((3, 3), dtype=complex),
                             [ket_bra(3, 0, 1), ket_bra(3, 1, 2)])


def _levels(d: int, idx) -> Projection:
    return Projection.from_range_basis(np.eye(d, dtype=complex)[:, idx], d)


def _svd_shapes(monkeypatch) -> list:
    """Shapes of the SVDs run outside ``opnorm``, in call order."""
    shapes = []
    original = np.linalg.svd

    def recording(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name != "opnorm":
            shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


def _same_report(got, want, name: str):
    diffs = []
    _compare(json.loads(got.to_json()), json.loads(want.to_json()), name, diffs)
    assert not diffs, diffs


@pytest.mark.parametrize("d,seed", RUNGS, ids=[f"generator-d{d}-s{s}" for d, s in RUNGS])
def test_certified_guess_runs_no_full_svd(monkeypatch, d, seed):
    gen, block = _generator_rung(d, seed)
    dyn = Dynamics(gen)
    shapes = _svd_shapes(monkeypatch)
    lus = []
    original = scipy.linalg.lapack.dgetrf
    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf",
                        lambda a, **kwargs: lus.append(a.shape) or original(a, **kwargs))
    report = recurrent_projection(dyn)
    assert dyn.guess(DEFAULT_TOL).outcome == "certified"
    assert lus == [(d * d, d * d)]  # the one LU of the guess
    k = block.rank
    m = d - k
    # certificate (c) on the transient corner, then the one split of the
    # recurrent corner, which the stationary space and the enclosures share
    assert shapes == [(m * m, m * m), (k * k, k * k)]
    assert projections_equal(report.recurrent, block)
    assert projections_equal(dyn.support(DEFAULT_TOL), block)


@pytest.mark.parametrize("name", ["TH", "channel-d8"])
def test_guess_of_one_runs_one_full_svd(monkeypatch, name):
    model = build_fixture(name) if name == "TH" else _channel_d8()[0]
    dyn = Dynamics(model)
    shapes = _svd_shapes(monkeypatch)
    report = recurrent_projection(dyn)
    guess = dyn.guess(DEFAULT_TOL)
    assert guess.outcome == "whole"
    assert guess.corner is None and guess.transient is None
    n = model.dim ** 2
    assert shapes[0] == (n, n)
    assert shapes.count((n, n)) == 1
    assert report.recurrent.rank == model.dim


# (expected outcome, model, levels of the hand-made wrong guess)
WRONG = [
    # |2> decays into |1>, which is outside the block
    ("not-subharmonic", "M3", [0, 2]),
    # invariant, but |1> decays into |0>: no faithful stationary state
    ("not-faithful", "cascade", [0, 1]),
    # invariant and faithful, but |1> is stationary too and never decays
    ("no-decay", "M3", [0]),
]


@pytest.mark.parametrize("outcome,name,levels", WRONG, ids=[w[0] for w in WRONG])
def test_wrong_guess_falls_back_to_the_same_report(monkeypatch, outcome, name, levels):
    model = build_fixture(name) if name == "M3" else _cascade()
    options = AnalysisOptions(seed=GOLDEN_SEED)
    assert Dynamics(model).guess(DEFAULT_TOL).outcome == "certified"
    certified = run_analyze(model, options)
    wrong = _levels(model.dim, levels)
    monkeypatch.setattr(qdsa.asymptotics, "_resolvent_guess", lambda dyn: wrong)
    guess = Dynamics(model).guess(DEFAULT_TOL)
    assert guess.outcome == outcome
    assert guess.projection.rank == model.dim and guess.corner is None
    _same_report(run_analyze(model, options), certified, name)


def test_enclosure_as_guess_fails_the_decay_certificate(monkeypatch):
    channel, blocks = _channel_d8()
    options = AnalysisOptions(seed=GOLDEN_SEED)
    reference = run_analyze(channel, options)
    monkeypatch.setattr(qdsa.asymptotics, "_resolvent_guess", lambda dyn: blocks[0])
    assert Dynamics(channel).guess(DEFAULT_TOL).outcome == "no-decay"
    _same_report(run_analyze(channel, options), reference, "channel-d8")


def test_stiff_gap_below_the_shift_falls_back():
    # the 1e4 level splitting sets s = 1e-6 |F|_1 above the decay rate 1e-3
    model = LindbladGenerator(np.diag([0.0, 1e4]).astype(complex),
                              [np.sqrt(1e-3) * ket_bra(2, 0, 1)])
    dyn = Dynamics(model)
    f = _fixed_point_matrix(dyn.schrodinger, discrete=False)
    assert 1e-6 * np.abs(f).sum(axis=0).max() > 1e-3
    assert dyn.guess(DEFAULT_TOL).outcome == "whole"
    report = recurrent_projection(dyn)
    assert projections_equal(report.recurrent, _levels(2, [0]))
    assert dyn.space(DEFAULT_TOL).dim == 1


@pytest.mark.parametrize("model", [identity_model(1), QuantumChannel([np.eye(1)]),
                                   build_fixture("ID2"), build_fixture("ID3")],
                         ids=["generator-d1", "channel-d1", "ID2", "ID3"])
def test_zero_fixed_point_matrix_skips_the_guess(monkeypatch, model):
    lus = []
    original = scipy.linalg.lapack.dgetrf
    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf",
                        lambda *args, **kwargs: lus.append(args) or original(*args, **kwargs))
    dyn = Dynamics(model)
    report = run_analyze(model, AnalysisOptions(seed=GOLDEN_SEED))
    assert dyn.guess(DEFAULT_TOL).outcome == "none"
    assert lus == []
    assert report.passed
    assert report.recurrent.rank == model.dim


class TestStiffThermalQubit:
    """Its stationary eigenvalue 1e-8 sits on the support cutoff; the guess
    drops it and (a) rejects the block, so the fallback fails as before."""

    def test_guess_rejected_and_typed_error(self):
        model = thermal_qubit(1e4, 1e-4)
        assert Dynamics(model).guess(DEFAULT_TOL).outcome == "not-subharmonic"
        with pytest.raises(InternalError):
            run_analyze(model, AnalysisOptions(seed=GOLDEN_SEED))

    def test_cli_exit_code_three(self, tmp_path):
        model = thermal_qubit(1e4, 1e-4)
        spec = ModelSpec(model.dim, "stiff", model.hamiltonian, model.lindblad_ops,
                         None, None, None)
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(spec.to_json_dict()), encoding="utf-8")
        code, _, err = run_cli("analyze", "--model", str(path))
        assert code == 3, err
        assert "Traceback" not in err


@pytest.mark.parametrize("d", [4, 8])
def test_certified_space_matches_the_full_split(d):
    gen, block = _generator_rung(d, 1)
    dyn = Dynamics(gen)
    space = dyn.space(DEFAULT_TOL)
    assert dyn.guess(DEFAULT_TOL).outcome == "certified"
    # reference: the kernel of the whole fixed-point matrix (the fallback's SVD)
    kernel = dyn.split(DEFAULT_TOL)[0]
    basis = np.column_stack([hermitian_coords(b) for b in space.basis])
    assert basis.shape == kernel.shape
    assert opnorm(basis @ basis.T - kernel @ kernel.T) <= 1e-8
    for state in space.states:
        assert np.linalg.norm(dyn.schrodinger @ hermitian_coords(state.matrix)) <= 1e-10
    assert projections_equal(dyn.support(DEFAULT_TOL), block)


def test_certified_guess_matches_the_fallback_on_the_ladder(monkeypatch):
    options = AnalysisOptions(seed=GOLDEN_SEED)
    models = [_generator_rung(d, 1)[0] for d in (4, 8, 12)]
    certified = [run_analyze(model, options) for model in models]
    monkeypatch.setattr(qdsa.asymptotics, "_resolvent_guess", lambda dyn: None)
    for model, want in zip(models, certified):
        _same_report(run_analyze(model, options), want, f"generator-d{model.dim}")


def test_dynamics_holds_no_reference_to_itself():
    # a cycle would keep every d^2 x d^2 array of the analysis alive until
    # the cycle collector happens to run
    enabled = gc.isenabled()
    gc.disable()
    try:
        for model in (build_fixture("TH"), _generator_rung(8, 1)[0]):
            dyn = Dynamics(model)
            recurrent_projection(dyn)
            ref = weakref.ref(dyn)
            del dyn
            assert ref() is None
    finally:
        if enabled:
            gc.enable()
