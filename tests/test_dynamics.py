"""One ``Dynamics`` per analysis: shared derived objects and their contract."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import qdsa.analyze
import qdsa.asymptotics
import qdsa.channels
from conftest import ket_bra, run_cli
from exact import exact_ranks
from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.asymptotics import (
    DEFAULT_HORIZON,
    Dynamics,
    _corner,
    decay_ideal_test,
    decay_ideal_units,
    recurrent_projection,
    stationary_space,
)
from qdsa.errors import InternalError, QdsaError, ValidationError
from qdsa.linalg import DEFAULT_TOL, Projection, ToleranceConfig
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
    """Sizes of the propagators one ``run_analyze`` builds on these models:
    the ``m^2 x m^2`` transient corner of ``recurrent_projection`` when the
    transient rank ``m`` is nonzero, else none; ``decay_ideal_units`` decides
    every matrix unit without the ``d^2 x d^2`` propagator."""
    m = report.dim - report.recurrent.rank
    return [m * m] if m else []


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
        # one StationarySpace per analysis, unreduced (M3) or summed from the
        # certified classes of a channel rung (d = 24, six blocks of 4)
        built = _counting(monkeypatch, qdsa.asymptotics, "StationarySpace")
        channel, _ = block_diagonal_channel([4] * 6, 2, np.random.default_rng(1))
        for model in (model_spec_from_fixture("M3"), channel):
            built.clear()
            run_analyze(model, AnalysisOptions(seed=GOLDEN_SEED))
            assert len(built) == 1

    def test_flow_cached_per_horizon(self, m3):
        dyn = Dynamics(m3)
        assert dyn.flow(5.0) is dyn.flow(5.0)
        assert dyn.flow(5.0) is not dyn.flow(6.0)
        assert dyn.space is dyn.space

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


def _tolerance_keys(dyn, seen=None) -> list:
    """The cache keys of ``dyn`` and of every corner it keeps that hold a
    ToleranceConfig."""
    seen = set() if seen is None else seen
    seen.add(id(dyn))
    keys = [key for key in dyn._cache
            if any(isinstance(part, ToleranceConfig) for part in key)]
    for value in dyn._cache.values():
        if isinstance(value, Dynamics) and id(value) not in seen:
            keys += _tolerance_keys(value, seen)
    return keys


class TestOneTolerance:
    """A Dynamics is one analysis at one tolerance."""

    LOOSE = ToleranceConfig(atol=1e-6, psd_tol=1e-6)

    def test_public_functions_answer_for_its_tolerance(self, m3):
        # |a r| = 1e-7 lies between the default atol and the loose one, so
        # the algebraic verdict shows which tolerance was read
        dyn = Dynamics(m3, self.LOOSE)
        assert dyn.tol is self.LOOSE
        r = recurrent_projection(dyn).recurrent
        a = 1e-7 * r.matrix
        assert decay_ideal_test(dyn, a, r).in_ideal_algebraic
        equal = ToleranceConfig(atol=1e-6, psd_tol=1e-6)
        assert decay_ideal_test(dyn, a, r, tol=equal).in_ideal_algebraic
        assert not decay_ideal_test(Dynamics(m3), a, r).in_ideal_algebraic
        assert not decay_ideal_test(m3, a, r).in_ideal_algebraic
        assert decay_ideal_test(m3, a, r, tol=self.LOOSE).in_ideal_algebraic
        assert stationary_space(dyn) is dyn.space
        assert stationary_space(Dynamics(m3), ToleranceConfig()).dim == dyn.space.dim

    def test_another_tolerance_is_a_validation_error(self, m3):
        dyn = Dynamics(m3)
        for call in (lambda: stationary_space(dyn, self.LOOSE),
                     lambda: recurrent_projection(dyn, tol=self.LOOSE),
                     lambda: decay_ideal_test(dyn, np.eye(3), Projection.from_matrix(np.eye(3)),
                                              tol=self.LOOSE)):
            with pytest.raises(ValidationError, match="tolerance"):
                call()
        # nothing was computed on the way
        assert dyn._cache == {}
        assert vars(dyn).keys() == {"terms", "discrete", "dim", "tol", "_cache"}

    def test_corners_share_the_tolerance(self, m3):
        dyn = Dynamics(m3, self.LOOSE)
        assert _corner(dyn, np.eye(3, dtype=complex)[:, :2]).tol is dyn.tol

    @pytest.mark.parametrize("model", [build_fixture("M3"), _ladder_models()[0][1],
                                       block_diagonal_channel([4] * 6, 2,
                                                              np.random.default_rng(1))[0]],
                             ids=["M3", "generator-d4", "channel-d24"])
    def test_no_cache_key_holds_a_tolerance(self, monkeypatch, model):
        made = []

        class Recorded(Dynamics):
            def __init__(self, model, tol=None):
                super().__init__(model, tol)
                made.append(self)

        monkeypatch.setattr(qdsa.analyze, "Dynamics", Recorded)
        run_analyze(model, AnalysisOptions(seed=GOLDEN_SEED))
        assert len(made) == 1 and made[0]._cache
        assert _tolerance_keys(made[0]) == []


def _analyze_ladder():
    """The benchmark's analyze-ladder rungs at seeds 1-3."""
    rungs = []
    for seed in (1, 2, 3):
        for kind, d in (("generator", 4), ("generator", 8), ("generator", 12),
                        ("channel", 8), ("channel", 16)):
            rng = np.random.default_rng(seed)
            model = (transient_block_generator(d // 2, d - d // 2, rng)[0] if kind == "generator"
                     else block_diagonal_channel([4] * (d // 4), 2, rng)[0])
            rungs.append((f"{kind}-d{d}-s{seed}", model, DEFAULT_HORIZON))
    return rungs


UNIT_MODELS = ([(name, build_fixture(name), fixture_horizon(name)) for name in fixture_names()]
               + _analyze_ladder())


def _verdicts(result) -> tuple:
    return (result.in_ideal_algebraic, result.in_ideal_dynamic,
            result.decisively_disagrees(DEFAULT_TOL.atol))


class TestDecayIdealUnits:
    """``decay_ideal_units`` gives ``decay_ideal_test``'s verdicts on every
    ``E_jj``, and builds the full propagator only for a unit that neither
    the stationary bound nor the transient corner decides."""

    @pytest.mark.parametrize("name,model,horizon", UNIT_MODELS,
                             ids=[name for name, _, _ in UNIT_MODELS])
    def test_verdicts_match_decay_ideal_test(self, name, model, horizon):
        dyn = Dynamics(model)
        report = recurrent_projection(dyn, horizon=horizon, seed=GOLDEN_SEED)
        units = decay_ideal_units(dyn, report, DEFAULT_TOL)
        assert len(units) == model.dim
        for j, got in enumerate(units):
            ref = decay_ideal_test(model, ket_bra(model.dim, j, j), report.recurrent, horizon)
            assert _verdicts(got) == _verdicts(ref), f"{name} E_{j}{j}"

    def test_indecisive_bound_takes_the_full_flow(self, monkeypatch):
        # sigma_11 is about 5e-8, below the bound's 1e-7, and E_11 r != 0
        model = thermal_qubit(1.0, 5e-8)
        dyn = Dynamics(model)
        report = recurrent_projection(dyn, seed=GOLDEN_SEED)
        calls = _counting(monkeypatch, qdsa.asymptotics, "_propagate")
        units = decay_ideal_units(dyn, report, DEFAULT_TOL)
        assert [args[0].shape[0] for args in calls] == [4]
        assert units[1] == decay_ideal_test(dyn, ket_bra(2, 1, 1), report.recurrent)

    def test_m3_transient_unit_reads_the_corner(self, monkeypatch, m3):
        horizon = fixture_horizon("M3")
        dyn = Dynamics(m3)
        report = recurrent_projection(dyn, horizon=horizon, seed=GOLDEN_SEED)
        calls = _counting(monkeypatch, qdsa.asymptotics, "_propagate")
        got = decay_ideal_units(dyn, report, DEFAULT_TOL)[2]
        assert calls == []
        eps = got.algebraic_residual
        assert eps <= DEFAULT_TOL.atol
        ref = decay_ideal_test(m3, ket_bra(3, 2, 2), report.recurrent, horizon)
        # within 2 eps, up to the rounding of two routes to the same value
        assert got.dynamic_residual == pytest.approx(ref.dynamic_residual, rel=1e-12, abs=2 * eps)
        assert _verdicts(got) == _verdicts(ref)

    def test_faithful_channel_propagates_nothing(self, monkeypatch):
        channel = _ladder_models()[2][1]
        calls = _counting(monkeypatch, qdsa.asymptotics, "_propagate")
        report = run_analyze(channel, AnalysisOptions(seed=GOLDEN_SEED))
        assert report.recurrent.rank == channel.dim
        assert calls == []


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
    """The check is the law sum_k n_k^2 = fixed_algebra_dim over the block
    types; with an abelian algebra it counts the enclosures, so a merged
    block fails it."""

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
                enclosures, minimal_projections=whole, block_types=((1, 2),),
                subharmonic_residuals=enclosures.subharmonic_residuals[:1]))

        monkeypatch.setattr(qdsa.analyze, "recurrent_projection", merged)
        report = run_analyze(model_spec_from_fixture("M3"), AnalysisOptions(seed=GOLDEN_SEED))
        check = next(c for c in report.checks if c.name == "enclosures-minimal")
        assert report.fixed_algebra_dim == 2
        assert check.residual == 1.0
        assert not check.passed


class TestStiffModel:
    @pytest.mark.parametrize("rates", [(1e4, 1e-4), (1e6, 1e-6)])
    def test_exact_answer_is_one_faithful_state(self, rates):
        # the answer the analysis should give: one stationary state, of full
        # support, where it raises the InternalError pinned below
        assert exact_ranks(thermal_qubit(*rates)) == (1, 2)

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
