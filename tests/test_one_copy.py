"""Each repeated numerical primitive has one definition in ``src/qdsa``.

The tests count tell-tale source fragments over the package: a second
hand-written copy of a primitive shows up as a second occurrence.
"""

import inspect
from pathlib import Path

import numpy as np
import pytest

from qdsa.asymptotics import Dynamics
from qdsa.channels import apply_heisenberg, lindblad_apply, to_superoperator
from qdsa.errors import DimMismatch
from qdsa.harmonic import fixed_point_support_check, subharmonic_report, subharmonic_residual
from qdsa.linalg import Projection, ToleranceConfig
from qdsa.models import build_fixture

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qdsa"


def occurrences(fragment: str) -> dict:
    """``{file name: count}`` of ``fragment`` over the package sources,
    for the files where it occurs."""
    counts = {path.name: path.read_text(encoding="utf-8").count(fragment)
              for path in sorted(PACKAGE.glob("*.py"))}
    return {name: n for name, n in counts.items() if n}


def test_hermitian_spectrum_is_taken_in_one_place():
    # the order defect max(0, -lambda_min(herm(m))) is built on it
    assert occurrences("eigvalsh(hermitian_part(") == {"linalg.py": 1}


def test_gaussian_draws_live_in_sampling():
    assert set(occurrences("standard_normal(")) == {"sampling.py"}


def test_one_lu_factorization():
    assert occurrences("dgetrf(") == {"asymptotics.py": 1}


def test_model_kind_is_checked_in_one_place():
    assert occurrences("expected QuantumChannel or LindbladGenerator") == {"channels.py": 1}
    assert occurrences(", QuantumChannel)") == {"channels.py": 1}


def test_operand_dimension_rule_lives_in_linalg():
    assert occurrences("operand dimension") == {"linalg.py": 1}


@pytest.mark.parametrize("call", [
    lambda: to_superoperator(build_fixture("AD")).apply(np.eye(3)),
    lambda: apply_heisenberg(build_fixture("ADK"), np.eye(3)),
    lambda: lindblad_apply(build_fixture("AD"), np.eye(3)),
    lambda: subharmonic_report(build_fixture("ADK"), Projection.identity(3)),
    lambda: fixed_point_support_check(build_fixture("ADK"), np.eye(3)),
], ids=["Superoperator.apply", "apply_heisenberg", "lindblad_apply", "subharmonic_report",
        "fixed_point_support_check"])
def test_every_operand_is_checked_by_the_one_rule(call):
    with pytest.raises(DimMismatch, match=r"operand dimension 3 does not match the model \(2\)"):
        call()


@pytest.mark.parametrize("call", [
    to_superoperator,
    lambda obj: subharmonic_residual(obj, Projection.identity(2)),
    Dynamics,
], ids=["to_superoperator", "subharmonic_residual", "Dynamics"])
def test_every_caller_rejects_a_non_model(call):
    with pytest.raises(TypeError, match="expected QuantumChannel or LindbladGenerator"):
        call(np.eye(2))


def test_rank_cutoff_lives_in_tolerance_config():
    assert occurrences("rank_rtol *") == {"linalg.py": 1}
    assert "rank_rtol *" in inspect.getsource(ToleranceConfig.cutoff)


def test_verify_keeps_one_failure_counter():
    assert occurrences("failures = 0").get("verify.py", 0) <= 1


def test_model_files_are_read_in_one_place():
    assert occurrences("json.load(").get("modelio.py", 0) == 1


def test_channel_iteration_count_rule_lives_in_channels():
    assert occurrences("round(t)") == {"channels.py": 1}


def test_library_horizon_rule_lives_in_asymptotics():
    assert occurrences("0 < horizon < math.inf") == {"asymptotics.py": 1}
    assert set(occurrences("horizon < np.inf")) <= {"asymptotics.py"}


def test_input_errors_are_raised_typed():
    assert occurrences("raise ValueError(") == {}
    assert occurrences("raise KeyError(") == {}


def test_fixture_lookup_lives_in_models():
    assert occurrences("unknown fixture") == {"models.py": 1}


def test_hermitian_rule_lives_in_linalg():
    assert occurrences("is not Hermitian") == {"linalg.py": 1}


def test_one_perfect_square_rule():
    assert occurrences("isqrt(") == {"channels.py": 1}
    assert occurrences("np.sqrt(v.size)") == {}


def test_one_hermitian_spectral_cut():
    assert occurrences("_fix_phases(v[:, ") == {"linalg.py": 1}
