import json

import numpy as np
import pytest

from conftest import run_cli
from qdsa.analyze import AnalysisOptions, AnalysisReport, run_analyze
from qdsa.cli import main
from qdsa.modelio import matrix_to_json, model_spec_from_fixture


def emit_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    spec = model_spec_from_fixture(name)
    path.write_text(json.dumps(spec.to_json_dict()), encoding="utf-8")
    return path


class TestAnalyzeCommand:
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

    def test_channel_needs_integer_times(self, tmp_path):
        model = emit_fixture(tmp_path, "ADK")
        state = tmp_path / "state.json"
        state.write_text(json.dumps(
            {"dim": 2, "matrix": matrix_to_json(np.diag([0.5, 0.5]))}),
            encoding="utf-8")
        code, _, err = run_cli("evolve", "--model", str(model),
                               "--state", str(state), "--times", "1.5")
        assert code == 1
        assert "integer" in err


class TestExamplesCommand:
    def test_list(self):
        code, out, _ = run_cli("examples", "list")
        assert code == 0
        for name in ("AD", "ADK", "M3", "DFS3", "TH", "ID2", "ID3"):
            assert name in out

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
