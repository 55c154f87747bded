"""Every input error the library raises is a ValidationError, also a ValueError."""

import numpy as np
import pytest

from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.channels import DensityMatrix, LindbladGenerator, QuantumChannel, propagator
from qdsa.errors import (
    DimMismatch,
    NegativeTime,
    NotHermitian,
    NotPSD,
    NotUnital,
    OutOfUnitInterval,
    ValidationError,
)
from qdsa.harmonic import subharmonic_report
from qdsa.linalg import Projection, ToleranceConfig, projection_order_diagnostic
from qdsa.models import build_fixture, fixture_horizon
from qdsa.verify import run_verify


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
], ids=["empty-kraus-family", "trace", "zero-vector", "tolerance-range", "picture",
        "build_fixture", "fixture_horizon", "verify-fractional-dim", "verify-fractional-trials",
        "report-negative-trials", "verify-bool-seed", "analyze-bool-seed"])
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
