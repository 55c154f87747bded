"""Every input error the library raises is a ValidationError, also a ValueError."""

import numpy as np
import pytest

from qdsa.channels import DensityMatrix, LindbladGenerator, QuantumChannel, propagator
from qdsa.errors import DimMismatch, NotHermitian, NotPSD, NotUnital, ValidationError
from qdsa.linalg import ToleranceConfig
from qdsa.models import build_fixture, fixture_horizon


@pytest.mark.parametrize("call,message", [
    (lambda: QuantumChannel([]), "a channel needs at least one Kraus operator"),
    (lambda: DensityMatrix(np.eye(2)), "density matrix trace deviates from 1"),
    (lambda: DensityMatrix.pure(np.zeros(2)), "cannot build a pure state from the zero vector"),
    (lambda: ToleranceConfig(atol=1.0), r"atol must lie in \(0, 1e-2\), got 1.0"),
    (lambda: propagator(build_fixture("AD"), 1.0, "bogus"), "picture must be one of"),
    (lambda: build_fixture("NOPE"), "unknown fixture 'NOPE'; known: AD, ADK,"),
    (lambda: fixture_horizon("NOPE"), "unknown fixture 'NOPE'; known: AD, ADK,"),
], ids=["empty-kraus-family", "trace", "zero-vector", "tolerance-range", "picture",
        "build_fixture", "fixture_horizon"])
def test_input_errors_are_validation_errors(call, message):
    with pytest.raises(ValidationError, match=message) as info:
        call()
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("rule,call", [
    (DimMismatch, lambda: QuantumChannel([np.eye(2), np.eye(3)])),
    (NotHermitian, lambda: LindbladGenerator(np.array([[0.0, 1.0], [0.0, 0.0]]))),
    (NotPSD, lambda: DensityMatrix(np.diag([1.5, -0.5]))),
    (NotUnital, lambda: QuantumChannel([2 * np.eye(2)])),
], ids=["DimMismatch", "NotHermitian", "NotPSD", "NotUnital"])
def test_input_rules_are_validation_errors(rule, call):
    assert issubclass(rule, ValidationError)
    with pytest.raises(rule) as info:
        call()
    assert isinstance(info.value, ValidationError) and isinstance(info.value, ValueError)
