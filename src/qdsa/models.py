"""Named desk-scale models used by the examples CLI and the test suite.

AD / ADK are amplitude-damping dynamics (continuous and discrete), M3 a
three-level cascade with one transient level feeding two stable ones, DFS3
the same cascade without the detuning Hamiltonian (its fixed-point algebra
on the stable block is a full 2x2 factor), and TH a thermalizing qubit with
jumps in both directions, whose stationary state is faithful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import LindbladGenerator, QuantumChannel
from .errors import ValidationError

__all__ = [
    "identity_model",
    "amplitude_damping",
    "amplitude_damping_channel",
    "cascade_three_level",
    "thermal_qubit",
    "FIXTURES",
    "fixture_names",
    "build_fixture",
    "fixture_horizon",
]


def _ket_bra(dim: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def identity_model(dim: int) -> LindbladGenerator:
    """Zero generator: every observable is fixed."""
    return LindbladGenerator(np.zeros((dim, dim), dtype=complex), [])


def amplitude_damping(gamma: float = 1.0) -> LindbladGenerator:
    """Qubit decay |1> -> |0> at rate gamma, no Hamiltonian."""
    return LindbladGenerator(np.zeros((2, 2), dtype=complex),
                             [np.sqrt(gamma) * _ket_bra(2, 0, 1)])


def amplitude_damping_channel(gamma: float = 0.3) -> QuantumChannel:
    """Discrete amplitude damping with Kraus pair diag(1, sqrt(1-gamma)) and
    sqrt(gamma) |0><1|."""
    v0 = np.diag([1.0, np.sqrt(1.0 - gamma)]).astype(complex)
    v1 = np.sqrt(gamma) * _ket_bra(2, 0, 1)
    return QuantumChannel([v0, v1])


def cascade_three_level(detuned: bool = True) -> LindbladGenerator:
    """Three levels with |2> decaying into |0> and |1|.

    With ``detuned=True`` the Hamiltonian diag(0, 1, 0) makes the coherence
    between the two stable levels rotate, so the fixed-point algebra on the
    stable block is abelian and the minimal enclosures are unique; without
    it the whole 2x2 block is fixed and the decomposition is not unique.
    """
    h = np.diag([0.0, 1.0, 0.0]).astype(complex) if detuned else np.zeros((3, 3), dtype=complex)
    return LindbladGenerator(h, [_ket_bra(3, 0, 2), _ket_bra(3, 1, 2)])


def thermal_qubit(gamma_down: float = 2.0, gamma_up: float = 1.0) -> LindbladGenerator:
    """Qubit with decay and excitation; the stationary state
    diag(gd, gu) / (gd + gu) is faithful."""
    return LindbladGenerator(np.zeros((2, 2), dtype=complex),
                             [np.sqrt(gamma_down) * _ket_bra(2, 0, 1),
                              np.sqrt(gamma_up) * _ket_bra(2, 1, 0)])


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    horizon: float
    build: object  # zero-argument callable


FIXTURES = {
    "ID2": Fixture("ID2", "identity semigroup on C^2", 30.0,
                   lambda: identity_model(2)),
    "ID3": Fixture("ID3", "identity semigroup on C^3", 30.0,
                   lambda: identity_model(3)),
    "AD": Fixture("AD", "amplitude-damping qubit, rate 1", 30.0,
                  lambda: amplitude_damping(1.0)),
    "ADK": Fixture("ADK", "discrete amplitude-damping channel, gamma 0.3", 100.0,
                   lambda: amplitude_damping_channel(0.3)),
    "M3": Fixture("M3", "three-level cascade with detuning", 30.0,
                  lambda: cascade_three_level(True)),
    "DFS3": Fixture("DFS3", "three-level cascade, degenerate stable block", 30.0,
                    lambda: cascade_three_level(False)),
    "TH": Fixture("TH", "thermalizing qubit, rates 2 down / 1 up", 30.0,
                  lambda: thermal_qubit(2.0, 1.0)),
}


def fixture_names():
    return sorted(FIXTURES)


def _fixture(name: str) -> Fixture:
    if name not in FIXTURES:
        raise ValidationError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")
    return FIXTURES[name]


def build_fixture(name: str):
    return _fixture(name).build()


def fixture_horizon(name: str) -> float:
    return _fixture(name).horizon
