import os
import subprocess
import sys

import numpy as np
import pytest

from qdsa.models import (
    amplitude_damping,
    amplitude_damping_channel,
    cascade_three_level,
    identity_model,
    thermal_qubit,
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def ad():
    return amplitude_damping(1.0)


@pytest.fixture
def adk():
    return amplitude_damping_channel(0.3)


@pytest.fixture
def m3():
    return cascade_three_level(True)


@pytest.fixture
def dfs3():
    return cascade_three_level(False)


@pytest.fixture
def th():
    return thermal_qubit(2.0, 1.0)


@pytest.fixture
def id2():
    return identity_model(2)


def ket_bra(dim, i, j):
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, env=None):
    """Run ``python -m qdsa.cli`` in a fresh process with ``src`` on the path."""
    merged = dict(os.environ)
    merged["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, merged.get("PYTHONPATH")) if p)
    if env:
        merged.update(env)
    proc = subprocess.run([sys.executable, "-m", "qdsa.cli", *args],
                          capture_output=True, text=True, env=merged)
    return proc.returncode, proc.stdout, proc.stderr
