"""One ``Dynamics`` per analysis: shared derived objects and their contract."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import qdsa.analyze
import qdsa.asymptotics
import qdsa.channels
from conftest import run_cli
from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.asymptotics import (
    DEFAULT_HORIZON,
    Dynamics,
    decay_ideal_test,
    recurrent_projection,
    stationary_space,
)
from qdsa.errors import InternalError, QdsaError
from qdsa.linalg import DEFAULT_TOL
from qdsa.modelio import ModelSpec, model_spec_from_fixture
from qdsa.models import build_fixture, fixture_horizon, fixture_names, thermal_qubit
from qdsa.sampling import block_diagonal_channel, transient_block_generator

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden" / "fixtures.json"
GOLDEN_SEED = 42
FLOAT_ATOL = 1e-9
FLOAT_RTOL = 1e-6
PROJECTION_ATOL = 1e-8


def _ladder_models():
    """The seeded d = 4 and d = 8 rungs of the benchmark's analyze ladder."""
    models = []
    for d in (4, 8):
        gen, _ = transient_block_generator(d // 2, d - d // 2, np.random.default_rng(1))
        models.append((f"generator-d{d}", gen, DEFAULT_HORIZON))
    channel, _ = block_diagonal_channel([4, 4], 2, np.random.default_rng(1))
    models.append(("channel-d8", channel, DEFAULT_HORIZON))
    return models


def _all_models():
    fixtures = [(name, build_fixture(name), fixture_horizon(name)) for name in fixture_names()]
    return fixtures + _ladder_models()


def _counting(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def _propagator_sizes(report) -> list:
    """Sizes of the propagators one ``run_analyze`` may build, in call order:
    the ``m^2 x m^2`` transient corner of ``recurrent_projection`` when the
    transient rank ``m`` is nonzero, then the one ``d^2 x d^2`` propagator of
    the decay-ideal columns."""
    d = report.dim
    m = d - report.recurrent.rank
    return ([m * m] if m else []) + [d * d]


class TestSharedObjects:
    @pytest.mark.parametrize("name", ["AD", "M3", "TH"])
    def test_generator_builds_one_exponential(self, monkeypatch, name):
        calls = _counting(monkeypatch, qdsa.channels, "matrix_exp")
        report = run_analyze(model_spec_from_fixture(name), AnalysisOptions(seed=GOLDEN_SEED))
        assert [args[0].shape[0] for args in calls] == _propagator_sizes(report)

    def test_ladder_generator_builds_one_exponential(self, monkeypatch):
        _, gen, _ = _ladder_models()[1]
        calls = _counting(monkeypatch, qdsa.channels, "matrix_exp")
        report = run_analyze(gen, AnalysisOptions(seed=GOLDEN_SEED))
        assert report.recurrent.rank < report.dim
        assert [args[0].shape[0] for args in calls] == _propagator_sizes(report)

    @pytest.mark.parametrize("which", ["ADK", "ladder"])
    def test_channel_builds_one_matrix_power(self, monkeypatch, which):
        spec = (model_spec_from_fixture("ADK") if which == "ADK"
                else _ladder_models()[2][1])
        calls = _counting(monkeypatch, np.linalg, "matrix_power")
        report = run_analyze(spec, AnalysisOptions(seed=GOLDEN_SEED))
        assert [args[0].shape[0] for args in calls] == _propagator_sizes(report)

    @pytest.mark.parametrize("name,model,horizon", _all_models(),
                             ids=[name for name, _, _ in _all_models()])
    def test_no_complex_superoperator(self, monkeypatch, name, model, horizon):
        # the analysis works on real forms only; the complex view is for callers
        def forbidden(r):
            raise AssertionError(f"complex superoperator of size {r.shape[0]} formed")

        monkeypatch.setattr(qdsa.channels, "_complex_form", forbidden)
        report = run_analyze(model, AnalysisOptions(horizon=horizon, seed=GOLDEN_SEED))
        assert report.dim == model.dim

    def test_stationary_space_computed_once(self, monkeypatch):
        calls = _counting(monkeypatch, qdsa.asymptotics, "stationary_space")
        run_analyze(model_spec_from_fixture("M3"), AnalysisOptions(seed=GOLDEN_SEED))
        assert len(calls) == 1

    def test_flow_cached_per_horizon(self, m3):
        dyn = Dynamics(m3)
        assert dyn.flow(5.0) is dyn.flow(5.0)
        assert dyn.flow(5.0) is not dyn.flow(6.0)
        assert dyn.space(DEFAULT_TOL) is dyn.space(DEFAULT_TOL)

    def test_model_is_not_annotated(self, m3):
        before = dict(vars(m3))
        recurrent_projection(Dynamics(m3))
        assert vars(m3).keys() == before.keys()

    def test_dynamics_and_bare_model_agree(self):
        for name, model, horizon in _all_models():
            bare = recurrent_projection(model, horizon=horizon)
            shared = recurrent_projection(Dynamics(model), horizon=horizon)
            assert np.array_equal(bare.recurrent.matrix, shared.recurrent.matrix), name
            assert bare.sup_deviation == shared.sup_deviation, name
            assert stationary_space(model).dim == stationary_space(Dynamics(model)).dim


class TestMatrixUnitDecay:
    def test_column_results_match_decay_ideal_test(self):
        # run_analyze tests E_jj once for the d units E_ij of column j
        for name, model, horizon in _all_models():
            dyn = Dynamics(model)
            recurrent = recurrent_projection(dyn, horizon=horizon).recurrent
            d = model.dim
            for j in range(d):
                diagonal = np.zeros((d, d), dtype=complex)
                diagonal[j, j] = 1.0
                got = decay_ideal_test(dyn, diagonal, recurrent, horizon=horizon)
                for i in range(d):
                    unit = np.zeros((d, d), dtype=complex)
                    unit[i, j] = 1.0
                    ref = decay_ideal_test(model, unit, recurrent, horizon=horizon)
                    where = f"{name} E_{i}{j}"
                    assert got.algebraic_residual == pytest.approx(
                        ref.algebraic_residual, rel=1e-12, abs=1e-15), where
                    assert got.dynamic_residual == pytest.approx(
                        ref.dynamic_residual, rel=1e-12, abs=1e-15), where
                    assert got.in_ideal_algebraic == ref.in_ideal_algebraic, where
                    assert got.in_ideal_dynamic == ref.in_ideal_dynamic, where


def _projection_matrix(data) -> np.ndarray:
    cols = [[complex(re, im) for re, im in col] for col in data["range_basis"]]
    basis = np.array(cols, dtype=complex).T.reshape(-1, data["rank"])
    return basis @ basis.conj().T


def _compare(got, want, path, diffs):
    if isinstance(want, dict) and {"rank", "range_basis"} <= set(want):
        if got["rank"] != want["rank"]:
            diffs.append(f"{path}.rank")
        elif want["rank"] and np.max(np.abs(_projection_matrix(got)
                                            - _projection_matrix(want))) > PROJECTION_ATOL:
            diffs.append(path)
    elif isinstance(want, dict):
        if set(got) != set(want):
            diffs.append(f"{path} keys")
        for key in sorted(set(got) & set(want)):
            _compare(got[key], want[key], f"{path}.{key}", diffs)
    elif isinstance(want, list):
        if len(got) != len(want):
            diffs.append(f"{path} length")
        for k, (a, b) in enumerate(zip(got, want)):
            _compare(a, b, f"{path}[{k}]", diffs)
    elif isinstance(want, float):
        if abs(got - want) > FLOAT_ATOL + FLOAT_RTOL * abs(want):
            diffs.append(f"{path} {got!r} != {want!r}")
    elif type(got) is not type(want) or got != want:
        diffs.append(f"{path} {got!r} != {want!r}")


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_report_matches_golden(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["reports"][name]
    report = run_analyze(model_spec_from_fixture(name), AnalysisOptions(seed=GOLDEN_SEED))
    diffs = []
    _compare(json.loads(report.to_json()), golden, name, diffs)
    assert not diffs, diffs


class TestEnclosuresMinimalCheck:
    """With an abelian fixed algebra of dimension k the check counts the
    enclosures against k, so a merged block fails it."""

    @pytest.mark.parametrize("name", ["AD", "ADK", "M3", "TH"])
    def test_unique_fixtures_pass(self, name):
        report = run_analyze(model_spec_from_fixture(name), AnalysisOptions(seed=GOLDEN_SEED))
        check = next(c for c in report.checks if c.name == "enclosures-minimal")
        assert report.is_unique
        assert check.residual == 0.0 and check.tolerance == 0.5

    def test_merged_enclosures_fail(self, monkeypatch):
        original = qdsa.analyze.recurrent_projection

        def merged(*args, **kwargs):
            report = original(*args, **kwargs)
            enclosures = report.enclosures
            whole = (report.recurrent,)
            return dataclasses.replace(report, enclosures=dataclasses.replace(
                enclosures, minimal_projections=whole,
                certificates=enclosures.certificates[:1],
                certificate_ranks=(report.recurrent.rank,),
                subharmonic_residuals=enclosures.subharmonic_residuals[:1]))

        monkeypatch.setattr(qdsa.analyze, "recurrent_projection", merged)
        report = run_analyze(model_spec_from_fixture("M3"), AnalysisOptions(seed=GOLDEN_SEED))
        check = next(c for c in report.checks if c.name == "enclosures-minimal")
        assert report.fixed_algebra_dim == 2
        assert check.residual == 1.0
        assert not check.passed


class TestStiffModel:
    def test_run_analyze_raises_typed_error(self):
        with pytest.raises(QdsaError) as info:
            run_analyze(thermal_qubit(1e4, 1e-4), AnalysisOptions(seed=GOLDEN_SEED))
        assert isinstance(info.value, InternalError)

    def test_cli_exit_code_three(self, tmp_path):
        spec = ModelSpec("stiff", thermal_qubit(1e4, 1e-4), None, None)
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(spec.to_json_dict()), encoding="utf-8")
        code, _, err = run_cli("analyze", "--model", str(path))
        assert code == 3, err
        assert "Traceback" not in err
        assert "numerical failure" in err
