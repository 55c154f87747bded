"""The certified recurrent corner.

From ``_LU_MIN_SIZE`` unknowns on, ``Dynamics.reduction`` guesses the
recurrent block from the eigenvectors of one generic combination of the
terms (``_recurrent_guess``) and keeps the guess only when (a) it is
sub-harmonic and (b) a Lyapunov solve on the corner of its complement
certifies that corner transient (``_certify``).  A certified model's
stationary space, top enclosure corner and transient flow are read off the
two corners, so no ``d^2 x d^2`` array is built; a declined guess leaves
the analysis as it was.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdsa.asymptotics
from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.asymptotics import (
    Dynamics,
    _certify,
    _corner,
    _recurrent_guess,
    _transient_certified,
)
from qdsa.channels import LindbladGenerator, _terms
from qdsa.harmonic import _residual
from qdsa.linalg import DEFAULT_TOL, Projection, projections_equal
from qdsa.sampling import (
    block_diagonal_channel,
    haar_random_channel,
    transient_block_generator,
)
from test_dynamics import GOLDEN_SEED, PROJECTION_ATOL, _counting
from test_kernel_split import _lu_shapes, _rung, _svd_shapes

OPTIONS = AnalysisOptions(seed=GOLDEN_SEED)
CERTIFIED = [(d, seed) for d in (16, 24, 32, 48) for seed in (1, 2, 3)]


def _without_reduction(monkeypatch):
    """Switch the reduction off: every guess declines."""
    monkeypatch.setattr(qdsa.asymptotics, "_recurrent_guess", lambda terms: None)


def _assembly_sizes(monkeypatch) -> list:
    sizes = []
    assemble = qdsa.asymptotics._real_schrodinger
    monkeypatch.setattr(qdsa.asymptotics, "_real_schrodinger",
                        lambda g, ops, dim: sizes.append(dim) or assemble(g, ops, dim))
    return sizes


def _doubled(model) -> LindbladGenerator:
    """``1_2 (x) model``: every eigenvalue of every combination of its
    terms is repeated, and its fixed algebra holds ``M_2 (x) 1``."""
    one = np.eye(2)
    return LindbladGenerator(np.kron(one, model.hamiltonian),
                             [np.kron(one, l) for l in model.lindblad_ops])


def _unitary(first: np.ndarray) -> np.ndarray:
    """A unitary whose first columns are the orthonormal ``first``."""
    return np.linalg.qr(np.concatenate([first, np.eye(first.shape[0])], axis=1))[0]


@pytest.mark.parametrize("d,seed", CERTIFIED, ids=[f"generator-d{d}-s{s}" for d, s in CERTIFIED])
def test_certified_block_is_the_constructed_one(monkeypatch, d, seed):
    # the certified corners are the only ones assembled and factored: the
    # transient corner's Lyapunov LU, then the recurrent corner's split (an
    # LU from _LU_MIN_SIZE unknowns on, an SVD below); the d x d SVD is
    # decay_ideal_units' trace norm
    model, block = _rung("generator", d, seed)
    w, wq = Dynamics(model).reduction(DEFAULT_TOL)
    assert wq is not None
    assert projections_equal(Projection.from_range_basis(w), block)
    k, m = block.rank, d - block.rank
    sizes = _assembly_sizes(monkeypatch)
    svds = _svd_shapes(monkeypatch)
    lus = _lu_shapes(monkeypatch)
    report = run_analyze(model, OPTIONS)
    lu_split = k * k >= qdsa.asymptotics._LU_MIN_SIZE
    assert sizes == [m, k]
    assert lus == [(m * m, m * m)] + [(k * k, k * k)] * lu_split
    assert svds == [(k * k, k * k)] * (not lu_split) + [(d, d)]
    assert report.passed
    assert projections_equal(report.recurrent, block)


DECLINED = ["channel-d16", "channel-d24", "channel-d32", "haar-d16-k2", "doubled-generator-d12"]


def _declined_model(name: str):
    if name == "haar-d16-k2":
        return haar_random_channel(16, 2, np.random.default_rng(1))
    if name == "doubled-generator-d12":
        return _doubled(_rung("generator", 12, 1)[0])
    return _rung("channel", int(name.rpartition("-d")[2]), 1)[0]


@pytest.mark.parametrize("name", DECLINED)
def test_declined_guess_leaves_the_report_as_it_was(monkeypatch, name):
    # a faithful channel's classes are all closed (the guess would be the
    # identity); the doubled generator has no simple spectrum
    model = _declined_model(name)
    assert model.dim ** 2 >= qdsa.asymptotics._LU_MIN_SIZE
    assert _recurrent_guess(_terms(model)) is None
    report = run_analyze(model, OPTIONS)
    _without_reduction(monkeypatch)
    assert report.to_json() == run_analyze(model, OPTIONS).to_json()


def test_doubled_generator_keeps_its_matrix_algebra():
    report = run_analyze(_doubled(_rung("generator", 12, 1)[0]), OPTIONS)
    assert report.passed and not report.is_unique
    assert report.recurrent.rank == 12 and report.fixed_algebra_dim == 4


def test_non_invariant_block_fails_the_residual_certificate(monkeypatch):
    # the transient block of a rung leaks into the recurrent one
    model, block = _rung("generator", 16, 1)
    dyn = Dynamics(model)
    transient = block.complement()
    assert _residual(dyn.terms, transient) > DEFAULT_TOL.atol
    lyapunov = _counting(monkeypatch, qdsa.asymptotics, "_transient_certified")
    assert _certify(dyn, _unitary(transient.range_basis), transient.rank, DEFAULT_TOL) is None
    assert lyapunov == []


def test_one_enclosure_fails_the_transience_certificate():
    # one of four invariant blocks is sub-harmonic, but its complement
    # carries the other three blocks' stationary states
    channel, blocks = block_diagonal_channel([4] * 4, 2, np.random.default_rng(1))
    dyn = Dynamics(channel)
    u = _unitary(blocks[0].range_basis)
    assert _residual(dyn.terms, blocks[0]) <= DEFAULT_TOL.atol
    assert not _transient_certified(_corner(dyn, u[:, 4:]))
    assert _certify(dyn, u, 4, DEFAULT_TOL) is None


def test_constructed_block_passes_both_certificates():
    model, block = _rung("generator", 16, 1)
    dyn = Dynamics(model)
    u = _unitary(block.range_basis)
    assert _transient_certified(_corner(dyn, u[:, block.rank:]))
    w, wq = _certify(dyn, u, block.rank, DEFAULT_TOL)
    assert projections_equal(Projection.from_range_basis(w), block)


_DISCRETE = ("dim", "kind", "stationary_dim", "enclosure_ranks", "is_unique",
             "fixed_algebra_dim", "decay_ideal_rank", "faithful_family", "supports_match")


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(st.integers(16, 24).flatmap(lambda n: st.tuples(st.integers(1, n - 1), st.just(n))),
       st.integers(0, 2 ** 16))
def test_reduced_analysis_agrees_with_the_whole_split(sizes, seed):
    k, n = sizes
    model, block = transient_block_generator(k, n - k, np.random.default_rng(seed))
    assert Dynamics(model).reduction(DEFAULT_TOL)[1] is not None
    reduced = run_analyze(model, OPTIONS)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _without_reduction(monkeypatch)
        whole = run_analyze(model, OPTIONS)
    for field in _DISCRETE:
        assert getattr(reduced, field) == getattr(whole, field), field
    assert ([(c.name, c.passed) for c in reduced.checks]
            == [(c.name, c.passed) for c in whole.checks])
    for p, q in ((reduced.recurrent, whole.recurrent),
                 (reduced.stationary_support, whole.stationary_support), (reduced.recurrent, block)):
        assert p.rank == q.rank
        assert np.abs(p.matrix - q.matrix).max() <= PROJECTION_ATOL
