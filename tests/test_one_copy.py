"""Each repeated numerical primitive has one definition in ``src/qdsa``.

The tests count tell-tale source fragments over the package: a second
hand-written copy of a primitive shows up as a second occurrence.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from qdsa.asymptotics import Dynamics
from qdsa.channels import apply_heisenberg, lindblad_apply, stinespring_dilate, to_superoperator
from qdsa.errors import DimMismatch
from qdsa.harmonic import (
    fixed_point_support_check,
    is_subharmonic_generator,
    kraus_invariance_test,
    subharmonic_report,
    subharmonic_residual,
)
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


def test_generator_standard_form_is_formed_in_one_place():
    # G = -iH - sum_i L_i^dag L_i / 2 is summed in channels._terms alone
    assert occurrences("l.conj().T @ l") == {"channels.py": 1}


def test_the_standard_form_acts_in_one_place():
    # channels._act is the one action of (G, {L_i}); the assembly indexes
    # its chunks and builds no hand-strided views
    assert occurrences(".conj().T @ m @") == {"channels.py": 1}
    assert occurrences("np.ndarray(") == {}


def test_operand_dimension_rule_lives_in_linalg():
    assert occurrences("operand dimension") == {"linalg.py": 1}


def test_seed_rule_lives_in_linalg():
    # analyze, verify and asymptotics import linalg._check_seed
    assert occurrences("seed must be a nonnegative integer") == {"linalg.py": 1}
    assert occurrences("def _check_seed(") == {"linalg.py": 1}


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


@pytest.mark.parametrize("call,expected", [
    (lambda ch, gen: lindblad_apply(ch, np.eye(2)), "LindbladGenerator"),
    (lambda ch, gen: apply_heisenberg(gen, np.eye(2)), "QuantumChannel"),
    (lambda ch, gen: stinespring_dilate(gen), "QuantumChannel"),
    (lambda ch, gen: subharmonic_report(gen, Projection.identity(2)), "QuantumChannel"),
    (lambda ch, gen: fixed_point_support_check(gen, np.eye(2)), "QuantumChannel"),
    (lambda ch, gen: kraus_invariance_test(gen, Projection.identity(2)), "QuantumChannel"),
    (lambda ch, gen: is_subharmonic_generator(ch, Projection.identity(2)), "LindbladGenerator"),
], ids=["lindblad_apply", "apply_heisenberg", "stinespring_dilate", "subharmonic_report",
        "fixed_point_support_check", "kraus_invariance_test", "is_subharmonic_generator"])
def test_every_one_kind_entry_point_rejects_the_other_kind(call, expected):
    with pytest.raises(TypeError, match=f"expected a {expected}, got a "):
        call(build_fixture("ADK"), build_fixture("AD"))


def test_rank_cutoff_lives_in_tolerance_config():
    assert occurrences("rank_rtol *") == {"linalg.py": 1}
    assert "rank_rtol *" in inspect.getsource(ToleranceConfig.cutoff)


def test_verify_keeps_one_failure_counter():
    assert occurrences("failures = 0").get("verify.py", 0) <= 1


def test_model_files_are_read_in_one_place():
    assert occurrences("json.load(").get("modelio.py", 0) == 1


def test_channel_iteration_count_rule_lives_in_channels():
    assert occurrences("round(t)") == {"channels.py": 1}


def test_library_horizon_rule_lives_in_channels():
    assert occurrences("0 < horizon < math.inf") == {"channels.py": 1}
    assert set(occurrences("horizon < np.inf")) <= {"channels.py"}
    assert occurrences("0 <= t < math.inf") == {"channels.py": 1}
    # the CLI hands --horizon and --times to that rule unchecked
    assert "math.inf" not in (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert "from .asymptotics import" not in (PACKAGE / "modelio.py").read_text(encoding="utf-8")


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


def _unused_imports(tree: ast.Module) -> list:
    """Names a module imports and never reads (``__future__`` aside)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # the package and its tests; __init__ imports its names to re-export them
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted(Path(__file__).resolve().parent.glob("*.py"))
    unused = {path.name: _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
              for path in paths}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_unused_import_guard_sees_a_leftover():
    tree = ast.parse("import numpy as np\nfrom .linalg import opnorm, order_leq\n"
                     "x = np.eye(2)\ny = opnorm(x)\n")
    assert _unused_imports(tree) == ["order_leq"]
