"""The stationary support is the support of the maximal stationary state.

The reference below is the older derivation: the supremum of the supports
of the maximal state ``omega`` and of ``omega + eps b`` for each basis
element ``b`` of the stationary space, with ``eps |b| = 0.45 lambda_+``
(``lambda_+`` the smallest eigenvalue of ``omega`` above the cutoff).  Both
derivations must give the same projection.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qdsa.asymptotics
from qdsa.asymptotics import _as_state, stationary_space, stationary_support
from qdsa.channels import LindbladGenerator
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
