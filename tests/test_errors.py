"""Every input error the library raises is a ValidationError, also a ValueError."""

import functools
import json

import numpy as np
import pytest

from qdsa.analyze import AnalysisOptions, AnalysisReport, _projection_from_json, run_analyze
from qdsa.asymptotics import (
    cesaro_mean,
    minimality_certificate,
    recurrent_projection,
    restricted_stationary_dim,
)
from qdsa.channels import (
    SCHRODINGER,
    DensityMatrix,
    LindbladGenerator,
    QuantumChannel,
    StinespringDilation,
    Superoperator,
    generator_to_channel,
    propagator,
)
from qdsa.errors import (
    DimMismatch,
    NegativeTime,
    NotHermitian,
    NotPSD,
    NotUnital,
    OutOfUnitInterval,
    ParseError,
    ValidationError,
)
from qdsa.harmonic import subharmonic_report
from qdsa.linalg import (
    Projection,
    ToleranceConfig,
    as_complex_matrix,
    matrix_exp,
    proj_infimum,
    proj_supremum,
    projection_order_diagnostic,
    projections_equal,
)
from qdsa.modelio import matrix_to_json
from qdsa.models import build_fixture, fixture_horizon
from qdsa.sampling import (
    block_diagonal_channel,
    gaussian_block,
    haar_random_channel,
    haar_unitary,
    random_density_matrix,
    random_generator,
    random_hermitian,
    random_projection,
    random_unit_interval_hermitian,
    transient_block_generator,
)
from qdsa.verify import run_verify


OVERFLOW = "matrix exponential of a matrix whose 1-norm overflows"
HUGE_JUMP = LindbladGenerator(np.zeros((2, 2)), [np.array([[0.0, 0.0], [1e160, 0.0]])])


@functools.cache
def _m3_report() -> str:
    return run_analyze(build_fixture("M3")).to_json()


def _loaded_report(key: str, value, check: bool = False) -> AnalysisReport:
    """The M3 report loaded back with one field, of its first check when
    ``check``, set to ``value``."""
    data = json.loads(_m3_report())
    (data["checks"][0] if check else data)[key] = value
    return AnalysisReport.from_json_dict(data)


def _certificate(trials):
    """``minimality_certificate`` of AD's own recurrent structure."""
    report = recurrent_projection(build_fixture("AD"))
    return minimality_certificate(build_fixture("AD"), report.recurrent, report.enclosures,
                                  trials=trials)


@pytest.mark.parametrize("call,message", [
    (lambda: QuantumChannel([]), "a channel needs at least one Kraus operator"),
    (lambda: DensityMatrix(np.eye(2)), "density matrix trace deviates from 1"),
    (lambda: DensityMatrix.pure(np.zeros(2)), "cannot build a pure state from the zero vector"),
    (lambda: ToleranceConfig(atol=1.0), r"atol must lie in \(0, 1e-2\), got 1.0"),
    (lambda: propagator(build_fixture("AD"), 1.0, "bogus"), "picture must be one of"),
    (lambda: build_fixture("NOPE"), "unknown fixture 'NOPE'; known: AD, ADK,"),
    (lambda: fixture_horizon("NOPE"), "unknown fixture 'NOPE'; known: AD, ADK,"),
    (lambda: run_verify(1, 5, (2.5,)), r"dims must be integers, got \(2.5,\)"),
    (lambda: run_verify(1, 2.5), "trials must be an integer, got 2.5"),
    (lambda: subharmonic_report(build_fixture("ADK"), Projection.identity(2), trials=-3),
     "trials must be a nonnegative integer, got -3"),
    (lambda: run_verify(True, 2), "seed must be a nonnegative integer, got True"),
    (lambda: run_analyze(build_fixture("AD"), AnalysisOptions(seed=True)),
     "seed must be a nonnegative integer, got True"),
    # a finite time whose t L has a 1-norm past the largest float
    (lambda: propagator(build_fixture("AD"), 1e308, SCHRODINGER), OVERFLOW),
    (lambda: cesaro_mean(build_fixture("AD"), DensityMatrix.maximally_mixed(2), 1e308), OVERFLOW),
    (lambda: generator_to_channel(build_fixture("AD"), 1e308), OVERFLOW),
    (lambda: matrix_exp(np.full((3, 3), 1e308)), OVERFLOW),
    # finite jumps whose L^dag L overflows
    (lambda: run_analyze(HUGE_JUMP), "G = -iH - sum_i L_i\\^dag L_i / 2 overflows"),
], ids=["empty-kraus-family", "trace", "zero-vector", "tolerance-range", "picture",
        "build_fixture", "fixture_horizon", "verify-fractional-dim", "verify-fractional-trials",
        "report-negative-trials", "verify-bool-seed", "analyze-bool-seed",
        "propagator-huge-time", "cesaro-mean-huge-time", "generator-to-channel-huge-time",
        "matrix-exp-huge-norm", "huge-jump"])
def test_input_errors_are_validation_errors(call, message):
    with pytest.raises(ValidationError, match=message) as info:
        call()
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("rule,call", [
    (DimMismatch, lambda: QuantumChannel([np.eye(2), np.eye(3)])),
    (NotHermitian, lambda: LindbladGenerator(np.array([[0.0, 1.0], [0.0, 0.0]]))),
    (NotPSD, lambda: DensityMatrix(np.diag([1.5, -0.5]))),
    (NotUnital, lambda: QuantumChannel([2 * np.eye(2)])),
    (OutOfUnitInterval, lambda: projection_order_diagnostic(np.diag([1.5, 0.0]),
                                                            Projection.identity(2))),
    (NegativeTime, lambda: propagator(build_fixture("AD"), -1.0)),
    (NegativeTime, lambda: propagator(build_fixture("ADK"), -1.0)),
], ids=["DimMismatch", "NotHermitian", "NotPSD", "NotUnital", "OutOfUnitInterval",
        "NegativeTime-generator", "NegativeTime-channel"])
def test_input_rules_are_validation_errors(rule, call):
    assert issubclass(rule, ValidationError)
    with pytest.raises(rule) as info:
        call()
    assert isinstance(info.value, ValidationError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("error,call,message", [
    (DimMismatch, lambda: as_complex_matrix(np.ones((2, 3))), "expected a square matrix"),
    (DimMismatch, lambda: Projection.from_range_basis(np.ones(2)), "must be a 2-d array"),
    (DimMismatch, lambda: Projection.from_range_basis(np.eye(2), 3), "wrong ambient dimension"),
    (DimMismatch, lambda: Projection.from_range_basis(np.ones((2, 2))), "not orthonormal"),
    (DimMismatch, lambda: projections_equal(Projection.identity(2), Projection.identity(3)),
     "different spaces"),
    (DimMismatch, lambda: proj_supremum([]), "family must be nonempty"),
    (DimMismatch, lambda: proj_infimum([]), "family must be nonempty"),
    (DimMismatch, lambda: projection_order_diagnostic(np.eye(2) / 2, Projection.identity(3)),
     "x and p have different dimensions"),
    (DimMismatch, lambda: LindbladGenerator(np.zeros((2, 2)), [np.zeros((3, 3))]),
     "jump operators must match the Hamiltonian dimension"),
    (DimMismatch, lambda: Superoperator(np.zeros((4, 3)), SCHRODINGER), "must be square"),
    (DimMismatch, lambda: StinespringDilation(np.eye(2), 2), r"shape \(d\*n, d\)"),
    (DimMismatch, lambda: StinespringDilation(np.eye(2), 0), r"shape \(d\*n, d\)"),
    (DimMismatch, lambda: restricted_stationary_dim(build_fixture("M3"), Projection.zero(3)),
     "cannot restrict to the zero block"),
    (ValidationError, lambda: _projection_from_json(
        {"rank": 1, "range_basis": matrix_to_json(np.eye(2))}, 2),
     r"projection basis has shape \(2, 2\), expected \(2, 1\)"),
    (ValidationError, lambda: run_verify(1, 2, (0,)), r"dims must be within 1..16, got \(0,\)"),
    (ValidationError, lambda: run_verify(1, 2, (17,)), r"dims must be within 1..16, got \(17,\)"),
    (ValidationError, lambda: _certificate(1.5), "trials must be a nonnegative integer, got 1.5"),
    (ValidationError, lambda: _certificate(-1), "trials must be a nonnegative integer, got -1"),
    (ValidationError, lambda: _certificate(True),
     "trials must be a nonnegative integer, got True"),
    (ValidationError, lambda: StinespringDilation(np.eye(4)[:, :2], 2.0),
     "multiplicity must be an integer, got 2.0"),
    (ValidationError, lambda: StinespringDilation(np.eye(2), True),
     "multiplicity must be an integer, got True"),
    (ValidationError, lambda: random_projection(3, 1.5, np.random.default_rng(0)),
     "rank must be an integer, got 1.5"),
    (ValidationError, lambda: random_projection(3, True, np.random.default_rng(0)),
     "rank must be an integer, got True"),
    (ValidationError, lambda: random_projection(3.0, 0, np.random.default_rng(0)),
     "dim must be an integer, got 3.0"),
    (ValidationError, lambda: haar_unitary(2.0, np.random.default_rng(0)),
     "dim must be an integer, got 2.0"),
    (ValidationError, lambda: haar_unitary(True, np.random.default_rng(0)),
     "dim must be an integer, got True"),
    (ValidationError, lambda: haar_random_channel(2, 1.0, np.random.default_rng(0)),
     "n_kraus must be an integer, got 1.0"),
    (ValidationError, lambda: random_generator(2.0, 1, np.random.default_rng(0)),
     "dim must be an integer, got 2.0"),
    (ValidationError, lambda: random_generator(2, True, np.random.default_rng(0)),
     "n_ops must be an integer, got True"),
    (ValidationError, lambda: random_density_matrix(2.5, np.random.default_rng(0)),
     "dim must be an integer, got 2.5"),
    (ValidationError, lambda: block_diagonal_channel([2, 2.0], 2, np.random.default_rng(0)),
     "block size must be an integer, got 2.0"),
    (ValidationError, lambda: block_diagonal_channel([2, 2], 1.5, np.random.default_rng(0)),
     "n_kraus must be an integer, got 1.5"),
    (ValidationError, lambda: transient_block_generator(1.5, 1, np.random.default_rng(0)),
     "block size must be an integer, got 1.5"),
    (DimMismatch, lambda: haar_unitary(-1, np.random.default_rng(0)),
     "dim must be nonnegative, got -1"),
    (DimMismatch, lambda: random_hermitian(-1, np.random.default_rng(0)),
     "dim must be nonnegative, got -1"),
    (DimMismatch, lambda: random_unit_interval_hermitian(-1, np.random.default_rng(0)),
     "dim must be nonnegative, got -1"),
    (DimMismatch, lambda: random_density_matrix(-1, np.random.default_rng(0)),
     "dim must be nonnegative, got -1"),
    (DimMismatch, lambda: haar_random_channel(-1, 2, np.random.default_rng(0)),
     "dim must be nonnegative, got -1"),
    (DimMismatch, lambda: haar_random_channel(2, -1, np.random.default_rng(0)),
     "n_kraus must be nonnegative, got -1"),
    (ValidationError, lambda: haar_random_channel(2, 0, np.random.default_rng(0)),
     "a channel needs at least one Kraus operator"),
    (DimMismatch, lambda: random_generator(-1, 2, np.random.default_rng(0)),
     "dim must be nonnegative, got -1"),
    (DimMismatch, lambda: random_generator(2, -1, np.random.default_rng(0)),
     "n_ops must be nonnegative, got -1"),
    (DimMismatch, lambda: block_diagonal_channel([2, -1], 2, np.random.default_rng(0)),
     "block size must be nonnegative, got -1"),
    (DimMismatch, lambda: block_diagonal_channel([2, 2], -1, np.random.default_rng(0)),
     "n_kraus must be nonnegative, got -1"),
    (DimMismatch, lambda: transient_block_generator(-1, 2, np.random.default_rng(0)),
     "block size must be nonnegative, got -1"),
    (DimMismatch, lambda: transient_block_generator(2, -1, np.random.default_rng(0)),
     "block size must be nonnegative, got -1"),
    (DimMismatch, lambda: gaussian_block(-1, 2, 0), "block size must be nonnegative, got -1"),
    (DimMismatch, lambda: gaussian_block(2, -1, 0), "block size must be nonnegative, got -1"),
    (ParseError, lambda: _loaded_report("stationary_dim", "2"),
     "report: 'stationary_dim' must be an integer, got '2'"),
    (ParseError, lambda: _loaded_report("stationary_dim", True),
     "report: 'stationary_dim' must be an integer, got True"),
    (ParseError, lambda: _loaded_report("decay_ideal_rank", 1.0),
     "report: 'decay_ideal_rank' must be an integer, got 1.0"),
    (ParseError, lambda: _loaded_report("dim", 3.0), "report: 'dim' must be an integer, got 3.0"),
    (ParseError, lambda: _loaded_report("enclosure_ranks", [1, 1.0]),
     r"report: 'enclosure_ranks' must hold integers, got \[1, 1.0\]"),
    (ParseError, lambda: _loaded_report("is_unique", "yes"),
     "report: 'is_unique' must be a boolean, got 'yes'"),
    (ParseError, lambda: _loaded_report("supports_match", 1),
     "report: 'supports_match' must be a boolean, got 1"),
    (ParseError, lambda: _loaded_report("sup_deviation", "x"),
     "report: 'sup_deviation' must be a number, got 'x'"),
    (ParseError, lambda: _loaded_report("horizon", False),
     "report: 'horizon' must be a number, got False"),
    (ParseError, lambda: _loaded_report("label", 5), "report: 'label' must be a string, got 5"),
    (ParseError, lambda: _loaded_report("kind", 3), "report: 'kind' must be a string, got 3"),
    (ParseError, lambda: _loaded_report("kind", "map"),
     "report: 'kind' must be 'channel' or 'generator', got 'map'"),
    (ParseError, lambda: _loaded_report("residual", "x", check=True),
     "check: 'residual' must be a number, got 'x'"),
    (ParseError, lambda: _loaded_report("name", 5, check=True),
     "check: 'name' must be a string, got 5"),
], ids=["as-complex-matrix-not-square", "range-basis-1d", "range-basis-ambient-dim",
        "range-basis-not-orthonormal", "projections-equal-dims", "supremum-empty",
        "infimum-empty", "order-diagnostic-dims", "jump-shape", "superoperator-not-square",
        "dilation-shape", "dilation-multiplicity-0", "restrict-to-zero-block",
        "report-basis-shape", "verify-dim-0", "verify-dim-17", "certificate-fractional-trials",
        "certificate-negative-trials", "certificate-bool-trials",
        "dilation-fractional-multiplicity", "dilation-bool-multiplicity",
        "projection-fractional-rank", "projection-bool-rank", "projection-fractional-dim",
        "haar-fractional-dim", "haar-bool-dim", "haar-channel-fractional-kraus",
        "generator-fractional-dim", "generator-bool-ops", "density-fractional-dim",
        "block-channel-fractional-block", "block-channel-fractional-kraus",
        "transient-generator-fractional-block", "haar-negative-dim",
        "hermitian-negative-dim", "unit-interval-negative-dim", "density-negative-dim",
        "haar-channel-negative-dim", "haar-channel-negative-kraus", "haar-channel-zero-kraus",
        "generator-negative-dim", "generator-negative-ops", "block-channel-negative-block",
        "block-channel-negative-kraus", "transient-generator-negative-recurrent",
        "transient-generator-negative-transient", "gaussian-negative-rows",
        "gaussian-negative-cols", "report-string-int", "report-bool-int", "report-float-int",
        "report-float-dim", "report-float-enclosure-rank", "report-string-bool",
        "report-int-bool", "report-string-float", "report-bool-float", "report-int-label",
        "report-int-kind", "report-unknown-kind", "check-string-residual", "check-int-name"])
def test_typed_rejections(error, call, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


def test_report_float_field_accepts_an_integer():
    report = _loaded_report("sup_deviation", 0)
    assert report.sup_deviation == 0
    assert json.loads(report.to_json())["sup_deviation"] == 0


def test_zero_certificate_trials_sweep_nothing():
    assert _certificate(0).sweep_trials == 0
