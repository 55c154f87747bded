"""The stationary support is the support of the maximal stationary state.

The reference below is the older derivation: the supremum of the supports
of the maximal state ``omega`` and of ``omega + eps b`` for each basis
element ``b`` of the stationary space, with ``eps |b| = 0.45 lambda_+``
(``lambda_+`` the smallest eigenvalue of ``omega`` above the cutoff).  Both
derivations must give the same projection.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdsa.asymptotics
from qdsa.asymptotics import StationarySpace, _as_state, stationary_space, stationary_support
from qdsa.channels import DensityMatrix, LindbladGenerator
from qdsa.errors import InternalError
from qdsa.linalg import (
    DEFAULT_TOL,
    opnorm,
    proj_supremum,
    projections_equal,
    support_projection,
)
from qdsa.models import build_fixture, fixture_names
from qdsa.sampling import (
    block_diagonal_channel,
    haar_random_channel,
    transient_block_generator,
)
from test_dynamics import _counting

SWEEP = settings(derandomize=True, database=None, deadline=None)


def perturbed_family_support(space, tol=DEFAULT_TOL):
    """Supremum of the supports of ``omega`` and ``omega + eps b``."""
    omega = space.state.matrix
    w = np.linalg.eigvalsh(omega)
    lam_plus = float(np.min(w[w > tol.cutoff(float(w[-1]))]))
    supports = [support_projection(omega, tol)]
    for b in space.basis:
        eps = 0.45 * lam_plus / max(opnorm(b), 1e-30)
        supports.append(support_projection(_as_state(omega + eps * b, tol).matrix, tol))
    return proj_supremum(supports, tol)


def assert_matches_reference(model):
    space = stationary_space(model)
    assert projections_equal(stationary_support(space), perturbed_family_support(space),
                             factor=100.0)


def _scaled_rates(gen, exponent):
    """``gen`` with every jump operator's rate multiplied by ``10**exponent``."""
    scale = np.sqrt(10.0 ** exponent)
    return LindbladGenerator(gen.hamiltonian, [scale * l for l in gen.lindblad_ops])


def test_fixtures():
    for name in fixture_names():
        assert_matches_reference(build_fixture(name))


def test_analyze_ladder_rungs():
    for seed in (1, 2, 3):
        for d in (4, 8, 12):
            rng = np.random.default_rng(seed)
            assert_matches_reference(transient_block_generator(d // 2, d - d // 2, rng)[0])
        for d in (8, 16):
            rng = np.random.default_rng(seed)
            assert_matches_reference(block_diagonal_channel([4] * (d // 4), 2, rng)[0])


def test_one_state_per_space(monkeypatch):
    calls = _counting(monkeypatch, qdsa.asymptotics, "_as_state")
    stationary_space(build_fixture("ID3"))
    assert len(calls) == 1


def _leaking_space(d: int, leak: float) -> StationarySpace:
    """A space by hand on ``C^d``: the state ``diag(3/4, 1/4, 0, ...)``,
    whose support ``P`` is exactly ``e_0, e_1``, and one basis element ``b =
    u u^dag``, ``u = sqrt(1 - leak^2) e_0 + leak e_2``, with ``|b| = |b|_F =
    1``, well above ``|b|_F / sqrt(d)``, and ``|(1 - P) b| = leak``."""
    state = np.zeros((d, d), dtype=complex)
    state[0, 0], state[1, 1] = 0.75, 0.25
    u = np.zeros(d, dtype=complex)
    u[0], u[2] = np.sqrt(1.0 - leak ** 2), leak
    return StationarySpace((np.outer(u, u.conj()),), DensityMatrix(state), 1)


@pytest.mark.parametrize("d", [4, 16])
def test_leak_is_decided_on_either_side_of_atol(monkeypatch, d):
    # a leak within atol |b|_F / (2 sqrt d) passes with no SVD; any other
    # is decided against atol |b| exactly, by the SVD, just below and just
    # above it
    atol = DEFAULT_TOL.atol
    svds = _counting(monkeypatch, np.linalg, "svd")
    assert stationary_support(_leaking_space(d, atol / (4 * np.sqrt(d)))).rank == 2
    assert svds == []
    assert stationary_support(_leaking_space(d, atol * (1 - 1e-6))).rank == 2
    assert svds
    with pytest.raises(InternalError, match="disagrees with the maximal-state support"):
        stationary_support(_leaking_space(d, atol * (1 + 1e-6)))


@SWEEP
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(lambda b: sum(b) <= 8),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_block_diagonal_channels(blocks, n_kraus, seed):
    channel, _ = block_diagonal_channel(blocks, n_kraus, np.random.default_rng(seed))
    assert_matches_reference(channel)


@SWEEP
@given(st.integers(1, 8), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_haar_channels(d, n_kraus, seed):
    assert_matches_reference(haar_random_channel(d, n_kraus, np.random.default_rng(seed)))


@SWEEP
@given(st.integers(2, 8), st.data(), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_transient_block_generators(d, data, exponent, seed):
    k = data.draw(st.integers(1, d - 1))
    gen, _ = transient_block_generator(k, d - k, np.random.default_rng(seed))
    assert_matches_reference(_scaled_rates(gen, exponent))
