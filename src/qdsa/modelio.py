"""Model and state files: strict JSON schema, parsing and emission.

A model file is a UTF-8 JSON object with keys ``dim``, ``label``,
``hamiltonian``, ``lindblad_ops``, ``kraus_ops``, ``tolerances`` and
``horizon``; exactly one of the generator form (``hamiltonian`` with
optional ``lindblad_ops``) or the channel form (``kraus_ops``) must be
present.  Complex entries are two-element arrays ``[re, im]`` and matrices
are row-major nested arrays.  Unknown keys are rejected outright, which
catches typos early.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .asymptotics import _check_horizon
from .channels import DensityMatrix, LindbladGenerator, QuantumChannel, _is_channel
from .errors import ParseError, ValidationError
from .linalg import ToleranceConfig
from .models import build_fixture, fixture_horizon

__all__ = [
    "ModelSpec",
    "parse_model",
    "model_spec_from_fixture",
    "matrix_to_json",
    "matrix_from_json",
    "parse_state",
]

_MODEL_KEYS = {"dim", "label", "hamiltonian", "lindblad_ops", "kraus_ops",
               "tolerances", "horizon"}
_TOL_KEYS = {"atol", "rank_rtol", "psd_tol"}
_STATE_KEYS = {"dim", "label", "matrix"}


def matrix_to_json(m: np.ndarray):
    """Row-major nested array of [re, im] pairs."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _entry_from_json(entry, where: str) -> complex:
    if (not isinstance(entry, (list, tuple)) or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)):
        raise ParseError(f"{where}: complex entries must be two-element [re, im] arrays")
    return complex(entry[0], entry[1])


def matrix_from_json(data, where: str = "matrix") -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ParseError(f"{where}: expected a nonempty nested array")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or not row:
            raise ParseError(f"{where}: row {i} is not a nonempty array")
        rows.append([_entry_from_json(v, f"{where}[{i}]") for v in row])
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{where}: ragged rows")
    return np.array(rows, dtype=complex)


def _square(m: np.ndarray, name: str, dim: int, where: str) -> np.ndarray:
    if m.shape != (dim, dim):
        raise ValidationError(f"{where}: {name} has shape {m.shape}, expected ({dim}, {dim})")
    return m


def _operators(raw, key: str, dim: int, where: str, nonempty: bool) -> tuple:
    """Parse and shape-check the operator list ``raw`` stored under ``key``."""
    if not isinstance(raw, list) or (nonempty and not raw):
        article = "a nonempty" if nonempty else "an"
        raise ParseError(f"{where}: '{key}' must be {article} array of matrices")
    ops = tuple(matrix_from_json(v, f"{key}[{i}]") for i, v in enumerate(raw))
    return tuple(_square(v, f"{key}[{i}]", dim, where) for i, v in enumerate(ops))


@dataclass(frozen=True)
class ModelSpec:
    """A parsed model: its label, the validated channel or generator, and
    the file's optional tolerances and horizon."""

    label: str
    model: QuantumChannel | LindbladGenerator
    tolerances: ToleranceConfig | None
    horizon: float | None

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def is_channel(self) -> bool:
        return _is_channel(self.model)

    def to_json_dict(self) -> dict:
        out: dict = {"dim": self.dim, "label": self.label}
        if self.is_channel:
            out["kraus_ops"] = [matrix_to_json(v) for v in self.model.kraus_ops]
        else:
            out["hamiltonian"] = matrix_to_json(self.model.hamiltonian)
            out["lindblad_ops"] = [matrix_to_json(v) for v in self.model.lindblad_ops]
        if self.tolerances is not None:
            out["tolerances"] = {"atol": self.tolerances.atol,
                                 "rank_rtol": self.tolerances.rank_rtol,
                                 "psd_tol": self.tolerances.psd_tol}
        if self.horizon is not None:
            out["horizon"] = self.horizon
        return out


def _as_model_spec(data, where: str) -> ModelSpec:
    if not isinstance(data, dict):
        raise ParseError(f"{where}: top level must be a JSON object")
    unknown = set(data) - _MODEL_KEYS
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")
    if "dim" not in data or not isinstance(data["dim"], int) or isinstance(data["dim"], bool):
        raise ParseError(f"{where}: 'dim' must be an integer")
    dim = data["dim"]
    if dim < 1:
        raise ValidationError(f"{where}: 'dim' must be positive, got {dim}")
    label = data.get("label", "model")
    if not isinstance(label, str):
        raise ParseError(f"{where}: 'label' must be a string")

    has_generator = "hamiltonian" in data or "lindblad_ops" in data
    has_channel = "kraus_ops" in data
    if has_generator and has_channel:
        raise ValidationError(f"{where}: give either a generator or kraus_ops, not both")
    if not has_generator and not has_channel:
        raise ValidationError(f"{where}: one of hamiltonian/lindblad_ops or kraus_ops is required")

    if has_channel:
        kind = QuantumChannel
        operators = (_operators(data["kraus_ops"], "kraus_ops", dim, where, nonempty=True),)
    else:
        if "hamiltonian" not in data:
            raise ValidationError(f"{where}: generator form requires 'hamiltonian'")
        kind = LindbladGenerator
        operators = (_square(matrix_from_json(data["hamiltonian"], "hamiltonian"),
                             "hamiltonian", dim, where),
                     _operators(data.get("lindblad_ops", []), "lindblad_ops", dim, where,
                                nonempty=False))

    tolerances = None
    if "tolerances" in data:
        raw = data["tolerances"]
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: 'tolerances' must be an object")
        unknown = set(raw) - _TOL_KEYS
        if unknown:
            raise ParseError(f"{where}: unknown tolerance keys {sorted(unknown)}")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw.values()):
            raise ParseError(f"{where}: tolerance values must be numbers")
        try:
            tolerances = ToleranceConfig(**{k: float(raw[k]) for k in raw})
        except ValidationError as exc:
            raise ValidationError(f"{where}: bad tolerances: {exc}") from exc

    horizon = None
    if "horizon" in data:
        raw = data["horizon"]
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise ParseError(f"{where}: 'horizon' must be a number")
        horizon = float(raw)

    model = kind(*operators, tolerances)
    if horizon is not None:
        try:
            _check_horizon(horizon, _is_channel(model))
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    return ModelSpec(label, model, tolerances, horizon)


def _load_json(path):
    """The JSON document in the file at ``path``; ParseError when it cannot
    be read or is not valid JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def parse_model(path) -> ModelSpec:
    """Read and validate a model file.

    ParseError covers malformed structure (bad JSON, unknown keys, wrong
    entry shapes); ValidationError, or its DimMismatch, NotHermitian and
    NotUnital, covers semantic violations (dimension mismatches, a
    non-Hermitian Hamiltonian, a non-unital Kraus family, both or neither
    generator forms present, a horizon the model kind does not accept).
    """
    return _as_model_spec(_load_json(path), str(path))


def model_spec_from_fixture(name: str) -> ModelSpec:
    """ModelSpec for a named fixture (what ``examples emit`` writes)."""
    return ModelSpec(name, build_fixture(name), None, fixture_horizon(name))


def parse_state(path, dim: int | None = None) -> DensityMatrix:
    """Read a density-matrix file: a JSON object with 'dim' and 'matrix'."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    unknown = set(data) - _STATE_KEYS
    if unknown:
        raise ParseError(f"{path}: unknown keys {sorted(unknown)}")
    if "dim" not in data or "matrix" not in data:
        raise ParseError(f"{path}: 'dim' and 'matrix' are required")
    if not isinstance(data["dim"], int) or isinstance(data["dim"], bool):
        raise ParseError(f"{path}: 'dim' must be an integer")
    m = matrix_from_json(data["matrix"], "matrix")
    if m.shape != (data["dim"], data["dim"]):
        raise ValidationError(f"{path}: matrix shape {m.shape} does not match dim {data['dim']}")
    if dim is not None and data["dim"] != dim:
        raise ValidationError(f"{path}: state dimension {data['dim']} does not match model dimension {dim}")
    try:
        return DensityMatrix(m)
    except ValidationError as exc:
        raise ValidationError(f"{path}: not a density matrix: {exc}") from exc
