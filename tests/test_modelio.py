import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdsa.channels import LindbladGenerator, QuantumChannel
from qdsa.errors import ParseError, ValidationError
from qdsa.modelio import (
    matrix_from_json,
    matrix_to_json,
    model_spec_from_fixture,
    parse_model,
    parse_state,
)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_matrix_round_trip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert_allclose(matrix_from_json(matrix_to_json(m)), m, atol=0.0)


def test_entries_must_be_pairs():
    with pytest.raises(ParseError):
        matrix_from_json([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ParseError):
        matrix_from_json([[[1.0], [0.0, 0.0]]])


class TestParseModel:
    def test_fixture_round_trip(self, tmp_path):
        spec = model_spec_from_fixture("AD")
        path = write_json(tmp_path, "ad.json", spec.to_json_dict())
        parsed = parse_model(path)
        assert parsed.dim == 2
        assert parsed.label == "AD"
        assert len(parsed.model.lindblad_ops) == 1
        assert isinstance(parsed.model, LindbladGenerator)

    def test_channel_fixture_round_trip(self, tmp_path):
        spec = model_spec_from_fixture("ADK")
        path = write_json(tmp_path, "adk.json", spec.to_json_dict())
        parsed = parse_model(path)
        assert parsed.is_channel
        assert parsed.horizon == 100.0
        assert isinstance(parsed.model, QuantumChannel)

    def test_non_hermitian_hamiltonian(self, tmp_path):
        spec = model_spec_from_fixture("AD").to_json_dict()
        spec["hamiltonian"][0][1] = [1e-3, 0.0]  # asymmetric entry
        path = write_json(tmp_path, "bad.json", spec)
        with pytest.raises(ValidationError):
            parse_model(path)

    def test_both_forms_rejected(self, tmp_path):
        gen = model_spec_from_fixture("AD").to_json_dict()
        chan = model_spec_from_fixture("ADK").to_json_dict()
        gen["kraus_ops"] = chan["kraus_ops"]
        path = write_json(tmp_path, "both.json", gen)
        with pytest.raises(ValidationError):
            parse_model(path)

    def test_neither_form_rejected(self, tmp_path):
        path = write_json(tmp_path, "neither.json", {"dim": 2, "label": "x"})
        with pytest.raises(ValidationError):
            parse_model(path)

    def test_unknown_keys_rejected(self, tmp_path):
        spec = model_spec_from_fixture("AD").to_json_dict()
        spec["hamiltonain"] = spec["hamiltonian"]  # classic typo
        path = write_json(tmp_path, "typo.json", spec)
        with pytest.raises(ParseError):
            parse_model(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_model(path)

    def test_non_unital_kraus(self, tmp_path):
        payload = {"dim": 2, "label": "k",
                   "kraus_ops": [matrix_to_json(np.diag([1.0, 0.9]))]}
        path = write_json(tmp_path, "nonunital.json", payload)
        with pytest.raises(ValidationError):
            parse_model(path)

    def test_dimension_mismatch(self, tmp_path):
        payload = {"dim": 3, "label": "k",
                   "hamiltonian": matrix_to_json(np.zeros((2, 2)))}
        path = write_json(tmp_path, "dims.json", payload)
        with pytest.raises(ValidationError):
            parse_model(path)

    def test_bad_horizon(self, tmp_path):
        spec = model_spec_from_fixture("AD").to_json_dict()
        spec["horizon"] = -3.0
        path = write_json(tmp_path, "hz.json", spec)
        with pytest.raises(ValidationError):
            parse_model(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_horizon(self, tmp_path, value):
        # Python's json writes and reads NaN and Infinity
        spec = model_spec_from_fixture("AD").to_json_dict()
        spec["horizon"] = value
        path = write_json(tmp_path, "hz.json", spec)
        with pytest.raises(ValidationError, match="horizon"):
            parse_model(path)

    def test_channel_horizon_is_an_iteration_count(self, tmp_path):
        spec = model_spec_from_fixture("ADK").to_json_dict()
        spec["horizon"] = 5
        assert parse_model(write_json(tmp_path, "adk5.json", spec)).horizon == 5.0
        spec["horizon"] = 2.5
        path = write_json(tmp_path, "adk.json", spec)
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(str(path))}: discrete channels need an integer "
                                 f"horizon, got 2.5$"):
            parse_model(path)
        spec = model_spec_from_fixture("AD").to_json_dict()
        spec["horizon"] = 2.5
        assert parse_model(write_json(tmp_path, "ad.json", spec)).horizon == 2.5

    def test_tolerance_overrides(self, tmp_path):
        spec = model_spec_from_fixture("AD").to_json_dict()
        spec["tolerances"] = {"atol": 1e-8}
        path = write_json(tmp_path, "tols.json", spec)
        parsed = parse_model(path)
        assert parsed.tolerances.atol == 1e-8
        spec["tolerances"] = {"atol": 1e-8, "bogus": 1.0}
        path = write_json(tmp_path, "tols2.json", spec)
        with pytest.raises(ParseError):
            parse_model(path)

    @pytest.mark.parametrize("value", ["1e-9", True, [1e-9]], ids=["string", "bool", "array"])
    def test_tolerance_values_must_be_json_numbers(self, tmp_path, value):
        # a string once parsed as its number and a bool as 1.0, like nothing
        # else in a model file; the horizon already rejected both
        spec = model_spec_from_fixture("AD").to_json_dict()
        spec["tolerances"] = {"atol": value}
        path = write_json(tmp_path, "tols.json", spec)
        with pytest.raises(ParseError, match="tolerance values must be numbers"):
            parse_model(path)


class TestParseState:
    def test_valid_state(self, tmp_path):
        payload = {"dim": 2, "matrix": matrix_to_json(np.diag([0.25, 0.75]))}
        path = write_json(tmp_path, "state.json", payload)
        state = parse_state(path, 2)
        assert_allclose(state.matrix, np.diag([0.25, 0.75]), atol=1e-12)

    def test_dimension_checked_against_model(self, tmp_path):
        payload = {"dim": 2, "matrix": matrix_to_json(np.diag([0.5, 0.5]))}
        path = write_json(tmp_path, "state.json", payload)
        with pytest.raises(ValidationError):
            parse_state(path, 3)

    def test_rejects_non_state(self, tmp_path):
        payload = {"dim": 2, "matrix": matrix_to_json(np.diag([1.5, -0.5]))}
        path = write_json(tmp_path, "bad.json", payload)
        with pytest.raises(ValidationError):
            parse_state(path, 2)

    def test_non_finite_entry_is_not_a_density_matrix(self, tmp_path):
        payload = {"dim": 2, "matrix": matrix_to_json(np.diag([float("nan"), 0.5]))}
        path = write_json(tmp_path, "nan.json", payload)
        with pytest.raises(ValidationError, match="not a density matrix: matrix contains non-finite"):
            parse_state(path, 2)

    def test_unknown_keys(self, tmp_path):
        payload = {"dim": 2, "matrix": matrix_to_json(np.eye(2) / 2), "extra": 1}
        path = write_json(tmp_path, "extra.json", payload)
        with pytest.raises(ParseError):
            parse_state(path, 2)


def test_unknown_fixture_rejected():
    with pytest.raises(ValidationError):
        model_spec_from_fixture("NOPE")
