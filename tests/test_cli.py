import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdsa.asymptotics
from conftest import SRC, run_cli
from qdsa.analyze import AnalysisOptions, AnalysisReport, run_analyze
from qdsa.asymptotics import Dynamics
from qdsa.channels import LindbladGenerator, QuantumChannel
from qdsa.cli import main
from qdsa.errors import ParseError, ValidationError
from qdsa.linalg import Projection
from qdsa.modelio import matrix_to_json, model_spec_from_fixture
from qdsa.models import build_fixture, fixture_names
from qdsa.verify import run_verify


def emit_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    spec = model_spec_from_fixture(name)
    path.write_text(json.dumps(spec.to_json_dict()), encoding="utf-8")
    return path


class TestAnalyzeCommand:
    def test_failed_enclosure_certificate_exits_3(self, monkeypatch, tmp_path, capsys):
        # every corner is replaced by one whose stationary state misses half of TH
        damped = Dynamics(build_fixture("AD"))
        monkeypatch.setattr(qdsa.asymptotics, "_corner", lambda dyn, w: damped)
        assert main(["analyze", "--model", str(emit_fixture(tmp_path, "TH"))]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["AD", "ADK"])
    def test_non_invariant_recurrent_block_exits_3(self, monkeypatch, tmp_path, capsys, name):
        # the stationary support forced onto |1><1|, which decays into |0><0|
        excited = Projection.from_matrix(np.diag([0.0, 1.0]))
        monkeypatch.setattr(Dynamics, "support", property(lambda dyn: excited))
        assert main(["analyze", "--model", str(emit_fixture(tmp_path, name))]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_m3_report(self, tmp_path):
        path = emit_fixture(tmp_path, "M3")
        code, out, _ = run_cli("analyze", "--model", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert sorted(report["enclosure_ranks"]) == [1, 1]
        assert report["recurrent"]["rank"] == 2
        assert report["transient_norm"] <= 1e-12
        assert report["decay_ideal_rank"] == 1

    def test_th_faithful(self, tmp_path):
        path = emit_fixture(tmp_path, "TH")
        code, out, _ = run_cli("analyze", "--model", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["faithful_family"] is True
        assert report["recurrent"]["rank"] == 2

    def test_id3_everything_stationary(self, tmp_path):
        path = emit_fixture(tmp_path, "ID3")
        code, out, _ = run_cli("analyze", "--model", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["stationary_dim"] == 9
        assert report["recurrent"]["rank"] == 3

    def test_pretty_goes_to_stderr(self, tmp_path):
        path = emit_fixture(tmp_path, "AD")
        code, out, err = run_cli("analyze", "--model", str(path), "--pretty")
        assert code == 0
        json.loads(out)
        assert "overall: PASS" in err

    def test_parse_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _, err = run_cli("analyze", "--model", str(bad))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("value", ["1e-9", True, [1e-9]], ids=["string", "bool", "array"])
    def test_non_numeric_tolerance_exits_1(self, tmp_path, value):
        spec = model_spec_from_fixture("AD").to_json_dict()
        spec["tolerances"] = {"atol": value}
        path = tmp_path / "tols.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, _, err = run_cli("analyze", "--model", str(path))
        assert code == 1
        assert "tolerance values must be numbers" in err

    def test_bad_horizon_flag(self, tmp_path):
        path = emit_fixture(tmp_path, "AD")
        code, _, err = run_cli("analyze", "--model", str(path), "--horizon", "-2")
        assert code == 1
        assert "horizon" in err

    def test_failing_checks_exit_two(self, tmp_path):
        # at horizon 1 the recurrent projection has honestly not converged
        # yet, so the limit checks fail and the exit code must say so
        path = emit_fixture(tmp_path, "AD")
        code, out, _ = run_cli("analyze", "--model", str(path), "--horizon", "1")
        assert code == 2
        report = json.loads(out)
        assert report["passed"] is False
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "recurrent-limit-identity" in failing

    def test_report_round_trips_and_revalidates(self, tmp_path):
        path = emit_fixture(tmp_path, "M3")
        code, out, _ = run_cli("analyze", "--model", str(path))
        assert code == 0
        report = AnalysisReport.from_json_dict(json.loads(out))
        assert report.recurrent.rank == 2
        assert report.passed

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("name", fixture_names())
    def test_report_json_round_trip_is_identical(self, name, seed):
        text = run_analyze(model_spec_from_fixture(name), AnalysisOptions(seed=seed)).to_json()
        assert AnalysisReport.from_json_dict(json.loads(text)).to_json() == text

    @pytest.mark.parametrize("column", [
        [[1.0, 0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],   # a three-element entry
        ["10", [0.0, 0.0], [0.0, 0.0]],               # a string entry
        5.0,                                          # a column that is not an array
    ])
    def test_malformed_projection_is_a_parse_error(self, column):
        data = json.loads(run_analyze(build_fixture("M3")).to_json())
        data["recurrent"]["range_basis"][0] = column
        with pytest.raises(ParseError):
            AnalysisReport.from_json_dict(data)

    @pytest.mark.parametrize("mutate,match", [
        (lambda d: d.pop("stationary_dim"), "report: missing key 'stationary_dim'"),
        (lambda d: d["checks"][0].pop("residual"), "check: missing key 'residual'"),
        (lambda d: d["recurrent"].pop("rank"), "projection: missing key 'rank'"),
        (lambda d: d["recurrent"].update(rank="2"), "'rank' must be an integer, got '2'"),
        (lambda d: d["stationary_support"].update(rank=2.0), "'rank' must be an integer"),
        (lambda d: d.update(recurrent=[]), "projection: missing key 'range_basis'"),
        (lambda d: d.update(enclosure_ranks=5), "report: 'enclosure_ranks' must be an array, got 5"),
        (lambda d: d.update(checks=5), "report: 'checks' must be an array, got 5"),
        (lambda d: d.update(checks={"name": "x"}), "report: 'checks' must be an array"),
    ], ids=["top-level-key", "check-key", "rank-key", "string-rank", "float-rank",
            "projection-not-an-object", "ranks-not-an-array", "checks-not-an-array",
            "checks-an-object"])
    def test_malformed_report_is_a_parse_error(self, mutate, match):
        data = json.loads(run_analyze(build_fixture("M3")).to_json())
        mutate(data)
        with pytest.raises(ParseError, match=match):
            AnalysisReport.from_json_dict(data)

    def test_builds_the_model_once(self, tmp_path, monkeypatch, capsys):
        """Parsing validates the model; the analysis uses the parsed one."""
        paths = [str(emit_fixture(tmp_path, name)) for name in ("M3", "ADK")]
        built = []
        for cls in (QuantumChannel, LindbladGenerator):
            def counted(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        for path in paths:
            assert main(["analyze", "--model", path]) == 0
        capsys.readouterr()
        assert built == ["LindbladGenerator", "QuantumChannel"]

    def test_file_analysis_matches_in_memory(self, tmp_path):
        # emit -> parse -> analyze must equal analyzing the fixture directly,
        # bit for bit, given the same seed
        from qdsa.modelio import parse_model

        path = emit_fixture(tmp_path, "DFS3")
        parsed = parse_model(path)
        options = AnalysisOptions(seed=42)
        via_file = run_analyze(parsed, options).to_json()
        in_memory = run_analyze(model_spec_from_fixture("DFS3"), options).to_json()
        assert via_file == in_memory


class TestVerifyCommand:
    def test_small_run_passes_and_is_deterministic(self):
        code1, out1, _ = run_cli("verify", "--seed", "7", "--trials", "5", "--dims", "2,3")
        code2, out2, _ = run_cli("verify", "--seed", "7", "--trials", "5", "--dims", "2,3")
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        assert "verify: PASS" in out1

    def test_env_seed_fallback(self):
        code, out, _ = run_cli("verify", "--trials", "3", "--dims", "2",
                               env={"QDS_SEED": "123"})
        assert code == 0
        assert "seed=123" in out

    def test_zero_trials_is_usage_error(self):
        code, _, err = run_cli("verify", "--trials", "0", "--dims", "2")
        assert code == 1
        assert "trials" in err

    def test_json_summary_output(self, tmp_path):
        out_path = tmp_path / "summary.json"
        code, _, _ = run_cli("verify", "--seed", "3", "--trials", "3",
                             "--dims", "2", "--output", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is True


    def test_json_summary_has_the_bytes_of_json_dump(self, tmp_path, capsys):
        # the summary file is what json.dump with a trailing newline wrote
        out_path = tmp_path / "summary.json"
        assert main(["verify", "--seed", "3", "--trials", "3", "--dims", "2",
                     "--output", str(out_path)]) == 0
        capsys.readouterr()
        summary = run_verify(seed=3, trials=3, dims=(2,))
        want = io.StringIO()
        json.dump({**dataclasses.asdict(summary), "passed": summary.passed}, want,
                  indent=2, sort_keys=True)
        want.write("\n")
        assert out_path.read_bytes() == want.getvalue().encode("utf-8")


class TestEvolveCommand:
    def test_evolve_ad(self, tmp_path):
        model = emit_fixture(tmp_path, "AD")
        state = tmp_path / "state.json"
        state.write_text(json.dumps(
            {"dim": 2, "matrix": matrix_to_json(np.diag([0.0, 1.0]))}),
            encoding="utf-8")
        code, out, _ = run_cli("evolve", "--model", str(model),
                               "--state", str(state), "--times", "0,1,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["times"] == [0.0, 1.0, 2.0]
        # closed form: excited population decays as exp(-t)
        for t, mat in zip(payload["times"], payload["states"]):
            assert abs(mat[1][1][0] - np.exp(-t)) <= 1e-10

    def test_assembles_one_superoperator_for_all_times(self, tmp_path, monkeypatch, capsys):
        import qdsa.asymptotics

        assembled = []
        original = qdsa.asymptotics._real_schrodinger

        def counted(h, ops, dim):
            assembled.append(dim)
            return original(h, ops, dim)

        monkeypatch.setattr(qdsa.asymptotics, "_real_schrodinger", counted)
        model = emit_fixture(tmp_path, "AD")
        state = tmp_path / "state.json"
        state.write_text(json.dumps(
            {"dim": 2, "matrix": matrix_to_json(np.diag([0.0, 1.0]))}),
            encoding="utf-8")
        assert main(["evolve", "--model", str(model), "--state", str(state),
                     "--times", "0,1,2,5"]) == 0
        assert len(json.loads(capsys.readouterr().out)["states"]) == 4
        assert len(assembled) == 1

    def test_channel_needs_integer_times(self, tmp_path):
        model = emit_fixture(tmp_path, "ADK")
        state = tmp_path / "state.json"
        state.write_text(json.dumps(
            {"dim": 2, "matrix": matrix_to_json(np.diag([0.5, 0.5]))}),
            encoding="utf-8")
        code, _, err = run_cli("evolve", "--model", str(model),
                               "--state", str(state), "--times", "1.5")
        assert code == 1
        assert err == "error: discrete channels need an integer horizon, got 1.5\n"


@pytest.mark.parametrize("fixture", ["ADK", "AD"])
class TestNonFiniteValues:
    """``--horizon`` and ``--times`` reach the library's time rule unchanged:
    a value it rejects exits 1 with its message, on a channel (iteration
    counts) and on a generator alike."""

    @staticmethod
    def run(tmp_path, fixture, flag, value):
        model = emit_fixture(tmp_path, fixture)
        if flag == "--horizon":
            return run_cli("analyze", "--model", str(model), "--horizon", value)
        state = tmp_path / "state.json"
        state.write_text(json.dumps(
            {"dim": 2, "matrix": matrix_to_json(np.diag([0.5, 0.5]))}),
            encoding="utf-8")
        return run_cli("evolve", "--model", str(model),
                       "--state", str(state), "--times", f"1,{value}")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_horizon_flag(self, tmp_path, fixture, value):
        code, out, err = self.run(tmp_path, fixture, "--horizon", value)
        assert (code, out) == (1, "")
        assert err == f"error: horizon must be positive and finite, got {float(value)}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400", "-1"])
    def test_evolve_times(self, tmp_path, fixture, value):
        code, out, err = self.run(tmp_path, fixture, "--times", value)
        assert (code, out) == (1, "")
        assert err == f"error: time must be nonnegative and finite, got {float(value)}\n"

    @pytest.mark.parametrize("flag", ["--horizon", "--times"])
    def test_fractional_time(self, tmp_path, fixture, flag):
        code, out, err = self.run(tmp_path, fixture, flag, "2.5")
        if fixture == "AD":  # a generator's time need not be an integer
            assert code in (0, 2) and out and err == ""
        else:
            assert (code, out) == (1, "")
            assert err == "error: discrete channels need an integer horizon, got 2.5\n"


@pytest.mark.parametrize("command,env", [
    (["analyze", "--seed", "-1"], None),
    (["verify", "--seed", "-1", "--trials", "1"], None),
    (["analyze"], {"QDS_SEED": "-3"}),
], ids=["analyze-flag", "verify-flag", "analyze-env"])
def test_negative_seed_exits_1(tmp_path, command, env):
    if command[0] == "analyze":
        command = [*command, "--model", str(emit_fixture(tmp_path, "M3"))]
    code, out, err = run_cli(*command, env=env)
    assert (code, out) == (1, "")
    assert err.startswith("error: seed must be a nonnegative integer, got -")
    assert "Traceback" not in err


@pytest.mark.parametrize("fixture", ["ADK", "AD"])
def test_non_finite_model_entry_exits_1(tmp_path, fixture):
    """A JSON NaN in a Kraus or jump operator is a validation error."""
    spec = model_spec_from_fixture(fixture).to_json_dict()
    key = "kraus_ops" if "kraus_ops" in spec else "lindblad_ops"
    spec[key][0][0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run_cli("analyze", "--model", str(path))
    assert (code, out) == (1, "")
    assert err == "error: matrix contains non-finite entries\n"


@pytest.mark.parametrize("command", ["evolve", "analyze"])
def test_overflow_exits_1_without_traceback(tmp_path, command):
    """A finite time whose ``t L`` has a 1-norm past the largest float, and
    finite jumps whose ``L^dag L`` overflows, are validation errors naming
    the cause."""
    if command == "evolve":
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"dim": 2, "matrix": matrix_to_json(np.eye(2) / 2)}),
                         encoding="utf-8")
        args = ("--model", str(emit_fixture(tmp_path, "AD")), "--state", str(state),
                "--times", "1e308")
        cause = "1-norm overflows"
    else:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 2, "hamiltonian": matrix_to_json(np.zeros((2, 2))),
                                    "lindblad_ops": [matrix_to_json([[0.0, 0.0], [1e160, 0.0]])]}),
                        encoding="utf-8")
        args = ("--model", str(path))
        cause = "L_i^dag L_i / 2 overflows"
    code, out, err = run_cli(command, *args)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and cause in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fixture", ["ADK", "AD"])
@pytest.mark.parametrize("as_spec", [True, False])
class TestLibraryHorizon:
    """``run_analyze`` rejects a horizon outside (0, inf) with a
    ValidationError naming it, for a ModelSpec and for a bare model."""

    @staticmethod
    def model(fixture, as_spec):
        return model_spec_from_fixture(fixture) if as_spec else build_fixture(fixture)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0])
    def test_rejected(self, fixture, as_spec, value):
        with pytest.raises(ValidationError, match=f"horizon must be positive and finite, "
                                                  f"got {value}"):
            run_analyze(self.model(fixture, as_spec), AnalysisOptions(horizon=value))

    def test_small_horizon_is_kept(self, fixture, as_spec):
        report = run_analyze(self.model(fixture, as_spec), AnalysisOptions(horizon=1.0))
        assert report.horizon == 1.0


def test_channel_horizon_must_be_an_iteration_count(tmp_path):
    with pytest.raises(ValidationError, match="integer horizon, got 2.5"):
        run_analyze(model_spec_from_fixture("ADK"), AnalysisOptions(horizon=2.5))
    path = emit_fixture(tmp_path, "ADK")
    code, out, err = run_cli("analyze", "--model", str(path), "--horizon", "2.5")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "evolve"])
def test_fractional_channel_horizon_in_a_model_file_exits_1(tmp_path, command):
    """A channel file's horizon is checked as an iteration count when the
    file is parsed, so evolve, which never uses it, rejects it too."""
    spec = model_spec_from_fixture("ADK").to_json_dict()
    spec["horizon"] = 2.5
    path = tmp_path / "adk.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"dim": 2, "matrix": matrix_to_json(np.eye(2) / 2)}),
                     encoding="utf-8")
    extra = ["--state", str(state), "--times", "1"] if command == "evolve" else []
    code, out, err = run_cli(command, "--model", str(path), *extra)
    assert (code, out) == (1, "")
    assert err == f"error: {path}: discrete channels need an integer horizon, got 2.5\n"


class TestExamplesCommand:
    def test_list(self):
        code, out, _ = run_cli("examples", "list")
        assert code == 0
        for name in ("AD", "ADK", "M3", "DFS3", "TH", "ID2", "ID3"):
            assert name in out

    def test_list_matches_golden_text(self):
        golden = Path(SRC).parent / "perfbench" / "golden" / "fixtures.json"
        code, out, _ = run_cli("examples", "list")
        assert code == 0
        assert out == json.loads(golden.read_text(encoding="utf-8"))["examples_list"]

    def test_emit_and_analyze(self, tmp_path):
        out_path = tmp_path / "th.json"
        code, _, _ = run_cli("examples", "emit", "TH", "--output", str(out_path))
        assert code == 0
        code, out, _ = run_cli("analyze", "--model", str(out_path))
        assert code == 0
        assert json.loads(out)["faithful_family"] is True

    def test_emit_unknown_name(self):
        code, _, err = run_cli("examples", "emit", "NOPE")
        assert code == 1
        assert "unknown fixture" in err

    def test_missing_name(self):
        code, _, err = run_cli("examples", "emit")
        assert code == 1


class TestMainFunction:
    def test_usage_error_maps_to_validation_exit(self):
        assert main(["analyze"]) == 1  # missing required --model
        assert main(["bogus-command"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestColdStart:
    def test_cli_import_does_not_load_scipy_linalg(self):
        # scipy.linalg is only needed for matrix_exp and imported there
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        code = "import sys, qdsa.cli; print('scipy.linalg' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True)
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixture_analysis_does_not_load_scipy_linalg(self, tmp_path, name):
        # every transient corner and every one-level exponential of the
        # fixtures is closed form, so a fresh analysis never needs scipy
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        code = ("import sys; from qdsa.cli import main; code = main(sys.argv[1:]); "
                "print(code, 'scipy.linalg' in sys.modules, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", code, "analyze", "--model",
                               str(emit_fixture(tmp_path, name))],
                              capture_output=True, text=True, env=env, check=True)
        assert proc.stderr.strip() == "0 False"


@pytest.mark.parametrize("command", ["analyze", "verify", "evolve", "examples"])
def test_unwritable_output_exits_1_without_traceback(tmp_path, command):
    model = emit_fixture(tmp_path, "AD")
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"dim": 2, "matrix": matrix_to_json(np.eye(2) / 2)}),
                     encoding="utf-8")
    target = str(tmp_path / "missing" / "out.json")
    args = {"analyze": ["analyze", "--model", str(model)],
            "verify": ["verify", "--trials", "2", "--dims", "2"],
            "evolve": ["evolve", "--model", str(model), "--state", str(state), "--times", "1"],
            "examples": ["examples", "emit", "AD"]}[command]
    code, _, err = run_cli(*args, "--output", target)
    assert code == 1
    assert f"error: cannot write {target}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "examples"])
def test_closed_reader_exits_1_without_traceback(tmp_path, command):
    # the read end is closed before the call starts, so its first write
    # meets a broken pipe
    args = (["analyze", "--model", str(emit_fixture(tmp_path, "AD"))] if command == "analyze"
            else ["examples", "list"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "qdsa.cli", *args], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == ""
