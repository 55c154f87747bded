"""The certified closed classes.

From ``_LARGE_MIN_SIZE`` unknowns on (``d >= 8``; the gate from which the
split takes the LU route too), ``Dynamics.reduction`` guesses the
closed classes from the eigenvectors of one generic combination of the
terms (``_recurrent_guess``) and keeps the guess only when (a) each class is
sub-harmonic, (b) a Lyapunov solve on the corner of the rest, if any,
certifies that corner transient and (c) no fixed point couples two classes
(``_certify``, which runs (c) before (b)).  A certified model's stationary
space, enclosures and transient flow are read off the class corners and
the rest's corner, so no ``d^2 x d^2`` array is built; a declined guess
leaves the analysis as it was.  Every analyze-ladder rung from the gate on
agrees with its whole split, and an irreducible model above the gate gives
the whole split's report to the byte.
"""

import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qdsa.asymptotics
import qdsa.harmonic
from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.asymptotics import (
    Dynamics,
    _canonical_key,
    _certify,
    _corner,
    _recurrent_guess,
    _transient_certified,
    _uncoupled,
    minimal_enclosures,
    stationary_space,
)
from qdsa.channels import LindbladGenerator, QuantumChannel
from qdsa.harmonic import _residual
from qdsa.linalg import DEFAULT_TOL, Projection, opnorm, projections_equal
from qdsa.models import build_fixture, fixture_names
from qdsa.sampling import (
    block_diagonal_channel,
    haar_random_channel,
    random_generator,
    random_hermitian,
    transient_block_generator,
)
from test_dynamics import GOLDEN_SEED, PROJECTION_ATOL, _counting
from test_kernel_split import (
    _lu_shapes,
    _lu_split_svds,
    _rung,
    _svd_shapes,
    _without_reduction,
)

OPTIONS = AnalysisOptions(seed=GOLDEN_SEED)
CERTIFIED = [(d, seed) for d in (16, 24, 32, 48, 64) for seed in (1, 2, 3)]


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
    # transient corner's Lyapunov LU, then the recurrent corner's split, an
    # LU and its thin SVDs (every corner here has at least _LARGE_MIN_SIZE
    # unknowns); the d x d SVD is decay_ideal_units' trace norm
    model, block = _rung("generator", d, seed)
    (w,), wq = Dynamics(model).reduction
    assert wq.shape == (d, d - block.rank)
    assert projections_equal(Projection.from_range_basis(w), block)
    k, m = block.rank, d - block.rank
    sizes = _assembly_sizes(monkeypatch)
    svds = _svd_shapes(monkeypatch)
    lus = _lu_shapes(monkeypatch)
    report = run_analyze(model, OPTIONS)
    assert k * k >= qdsa.asymptotics._LARGE_MIN_SIZE
    assert sizes == [m, k]
    assert lus == [(m * m, m * m), (k * k, k * k)]
    assert svds == _lu_split_svds(k * k) + [(d, d)]
    assert report.passed
    assert projections_equal(report.recurrent, block)


DECLINED = ["haar-d16-k2", "doubled-generator-d12", "doubled-channel-d8"]


def _doubled_channel(d: int) -> QuantumChannel:
    """``1_2 (x) channel-d``: two copies of a channel rung."""
    return QuantumChannel([np.kron(np.eye(2), v) for v in _rung("channel", d, 1)[0].kraus_ops])


def _declined_model(name: str):
    if name == "haar-d16-k2":
        return haar_random_channel(16, 2, np.random.default_rng(1))
    if name == "doubled-channel-d8":
        return _doubled_channel(8)
    return _doubled(_rung("generator", 12, 1)[0])


@pytest.mark.parametrize("name", DECLINED)
def test_declined_guess_leaves_the_report_as_it_was(monkeypatch, name):
    # a Haar channel's one class fills the space; the doubled models split
    # into their copies, which a fixed point couples (certificate (c))
    model = _declined_model(name)
    assert model.dim ** 2 >= qdsa.asymptotics._LARGE_MIN_SIZE
    assert Dynamics(model).reduction[1] is None
    report = run_analyze(model, OPTIONS)
    _without_reduction(monkeypatch)
    assert report.to_json() == run_analyze(model, OPTIONS).to_json()


def test_coupled_classes_decline_before_the_lyapunov_solve(monkeypatch):
    # the guess splits 1_2 (x) generator-d12 into its two copies of 6 and a
    # transient rest of 12, but a fixed point couples the copies: (c)
    # declines before (b) factors the rest's corner, so no Lyapunov LU
    # runs: the LUs are the whole split's and then that of the split of
    # the 144-unknown corner of r, which minimal_enclosures takes as one class
    model = _doubled(_rung("generator", 12, 1)[0])
    guesses = _counting(monkeypatch, qdsa.asymptotics, "_certify")
    lyapunov = _counting(monkeypatch, qdsa.asymptotics, "_transient_certified")
    lus = _lu_shapes(monkeypatch)
    run_analyze(model, OPTIONS)
    assert [sizes for _, _, sizes in guesses] == [(6, 6)]
    assert lyapunov == []
    assert lus == [(576, 576), (144, 144)]


def test_doubled_generator_keeps_its_matrix_algebra():
    report = run_analyze(_doubled(_rung("generator", 12, 1)[0]), OPTIONS)
    assert report.passed and not report.is_unique
    assert report.recurrent.rank == 12 and report.fixed_algebra_dim == 4


FAITHFUL = [16, 24, 32, 48]


@pytest.mark.parametrize("d", FAITHFUL, ids=[f"channel-d{d}" for d in FAITHFUL])
def test_faithful_channel_splits_into_its_blocks(monkeypatch, d):
    # every block of a channel rung is a closed class and nothing is left:
    # run_analyze assembles and splits the n blocks of size 4 only (an SVD
    # of 16 unknowns each), after one stacked SVD of the n (n - 1) / 2 maps
    # between pairs of blocks; the d x d SVD is decay_ideal_units' trace
    # norm, and no LU runs
    model, blocks = block_diagonal_channel([4] * (d // 4), 2, np.random.default_rng(1))
    ws, wq = Dynamics(model).reduction
    assert wq.shape == (d, 0)
    assert len(ws) == len(blocks)
    for w in ws:
        assert sum(projections_equal(Projection.from_range_basis(w), b) for b in blocks) == 1
    n = len(blocks)
    sizes = _assembly_sizes(monkeypatch)
    svds = _svd_shapes(monkeypatch)
    lus = _lu_shapes(monkeypatch)
    report = run_analyze(model, OPTIONS)
    assert sizes == [4] * n
    assert lus == []
    assert svds == [(n * (n - 1) // 2, 16, 16)] + [(16, 16)] * n + [(d, d)]
    assert report.passed and report.is_unique
    assert report.enclosure_ranks == (4,) * n and report.fixed_algebra_dim == n
    # the pairs' overlaps, taken in one stacked SVD, keep the bits of a loop
    decomposition = minimal_enclosures(model)
    overlaps = [opnorm(p.range_basis.conj().T @ q.range_basis)
                for p, q in itertools.combinations(decomposition.minimal_projections, 2)]
    assert decomposition.max_overlap == max(overlaps)


OVERLAP_MODELS = [*fixture_names(), *(f"channel-d{d}" for d in FAITHFUL)]


@pytest.mark.parametrize("name", OVERLAP_MODELS)
def test_overlap_gram_blocks_agree_with_the_square_products(name):
    # |p q| = |W_p^dag W_q|: the Gram blocks give the d x d products' worst
    # overlap to rounding
    if name in fixture_names():
        model = build_fixture(name)
    else:
        model = _rung("channel", int(name.removeprefix("channel-d")), 1)[0]
    decomposition = minimal_enclosures(model, seed=GOLDEN_SEED)
    square = max((opnorm(p.matrix @ q.matrix) for p, q in
                  itertools.combinations(decomposition.minimal_projections, 2)), default=0.0)
    assert abs(decomposition.max_overlap - square) <= 8 * model.dim * np.finfo(float).eps


def test_enclosure_decisions_read_answer_sized_arrays(monkeypatch):
    # channel-d32 has 8 classes of 4: the certificate reads each class's
    # leak off its isometry and builds no Projection, and after the
    # support every array that minimal_enclosures hands to opnorm is a
    # block's (32, 4) leak or a pair's (4, 4) Gram block
    model = _rung("channel", 32, 1)[0]
    built = []
    post_init = Projection.__post_init__
    monkeypatch.setattr(Projection, "__post_init__",
                        lambda self: built.append(self.rank) or post_init(self))
    certify = qdsa.asymptotics._certify
    built_by_certify = []

    def counted(*args):
        before = len(built)
        result = certify(*args)
        built_by_certify.append(len(built) - before)
        return result

    monkeypatch.setattr(qdsa.asymptotics, "_certify", counted)
    dyn = Dynamics(model)
    assert len(dyn.reduction[0]) == 8
    assert built_by_certify == [0]
    assert dyn.support.rank == 32
    shapes = []
    for module in (qdsa.asymptotics, qdsa.harmonic):
        norm = module.opnorm
        monkeypatch.setattr(module, "opnorm",
                            lambda m, norm=norm: shapes.append(np.shape(m)[-2:]) or norm(m))
    minimal_enclosures(dyn)
    assert set(shapes) == {(32, 4), (4, 4)}


def test_coupled_copies_fail_the_pair_certificate():
    # both copies of 1_2 (x) channel-d8 are sub-harmonic and nothing is left
    # over, but the map between them fixes 1_8, which couples the copies:
    # the fixed algebra is M_2 (x) 1_4 twice, not a sum over the copies
    model = _doubled_channel(8)
    dyn = Dynamics(model)
    copies = np.eye(16, dtype=complex)
    for w in (copies[:, :8], copies[:, 8:]):
        assert _residual(dyn.terms, Projection.from_range_basis(w)) <= DEFAULT_TOL.atol
    assert not _uncoupled(dyn, (copies[:, :8], copies[:, 8:]))
    assert _certify(dyn, copies, (8, 8)) is None
    report = run_analyze(model, OPTIONS)
    assert report.passed and not report.is_unique
    assert report.fixed_algebra_dim == 8 and report.stationary_dim == 8


def test_non_invariant_block_fails_the_residual_certificate(monkeypatch):
    # the transient block of a rung leaks into the recurrent one
    model, block = _rung("generator", 16, 1)
    dyn = Dynamics(model)
    transient = block.complement()
    assert _residual(dyn.terms, transient) > DEFAULT_TOL.atol
    lyapunov = _counting(monkeypatch, qdsa.asymptotics, "_transient_certified")
    assert _certify(dyn, _unitary(transient.range_basis), (transient.rank,)) is None
    assert lyapunov == []


def test_one_enclosure_fails_the_transience_certificate():
    # one of four invariant blocks is sub-harmonic, but its complement
    # carries the other three blocks' stationary states
    channel, blocks = block_diagonal_channel([4] * 4, 2, np.random.default_rng(1))
    dyn = Dynamics(channel)
    u = _unitary(blocks[0].range_basis)
    assert _residual(dyn.terms, blocks[0]) <= DEFAULT_TOL.atol
    assert not _transient_certified(_corner(dyn, u[:, 4:]))
    assert _certify(dyn, u, (4,)) is None


def test_constructed_block_passes_both_certificates():
    model, block = _rung("generator", 16, 1)
    dyn = Dynamics(model)
    u = _unitary(block.range_basis)
    assert _transient_certified(_corner(dyn, u[:, block.rank:]))
    (w,), wq = _certify(dyn, u, (block.rank,))
    assert projections_equal(Projection.from_range_basis(w), block)


_DISCRETE = ("dim", "kind", "stationary_dim", "enclosure_ranks", "is_unique",
             "fixed_algebra_dim", "decay_ideal_rank", "faithful_family", "supports_match")


def _assert_agrees_with_the_whole_split(model, block=None):
    """``run_analyze`` reduced and with the reduction off give the same
    discrete fields and check verdicts, and projections within
    ``PROJECTION_ATOL`` (of each other, and of ``block`` when given)."""
    reduced = run_analyze(model, OPTIONS)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _without_reduction(monkeypatch)
        whole = run_analyze(model, OPTIONS)
    for field in _DISCRETE:
        assert getattr(reduced, field) == getattr(whole, field), field
    assert ([(c.name, c.passed) for c in reduced.checks]
            == [(c.name, c.passed) for c in whole.checks])
    pairs = [(reduced.recurrent, whole.recurrent),
             (reduced.stationary_support, whole.stationary_support)]
    for p, q in pairs + ([] if block is None else [(reduced.recurrent, block)]):
        assert p.rank == q.rank
        assert np.abs(p.matrix - q.matrix).max() <= PROJECTION_ATOL


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(st.integers(16, 24).flatmap(lambda n: st.tuples(st.integers(1, n - 1), st.just(n))),
       st.integers(0, 2 ** 16))
def test_reduced_analysis_agrees_with_the_whole_split(sizes, seed):
    k, n = sizes
    model, block = transient_block_generator(k, n - k, np.random.default_rng(seed))
    assert Dynamics(model).reduction[1] is not None
    _assert_agrees_with_the_whole_split(model, block)


@settings(derandomize=True, database=None, deadline=None, max_examples=24)
@given(st.lists(st.integers(1, 8), min_size=2, max_size=6).filter(lambda b: 16 <= sum(b) <= 24),
       st.integers(1, 3), st.integers(0, 2 ** 16))
def test_block_channel_analysis_agrees_with_the_whole_split(blocks, kraus, seed):
    model, _ = block_diagonal_channel(blocks, kraus, np.random.default_rng(seed))
    assert Dynamics(model).reduction[1] is not None
    _assert_agrees_with_the_whole_split(model)


def _side_by_side(first: LindbladGenerator, second: LindbladGenerator) -> LindbladGenerator:
    """The direct sum of two generators, each jump acting on one summand."""
    zero = [np.zeros((m.dim, m.dim)) for m in (first, second)]
    return LindbladGenerator(
        scipy.linalg.block_diag(first.hamiltonian, second.hamiltonian),
        [scipy.linalg.block_diag(l, zero[1]) for l in first.lindblad_ops]
        + [scipy.linalg.block_diag(zero[0], l) for l in second.lindblad_ops])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_two_fed_blocks_are_two_classes(seed):
    # two transient_block_generator(4, 4) side by side: each transient half
    # feeds its own recurrent block, so there are two closed classes of 4
    # and a transient rest of 8
    rng = np.random.default_rng(seed)
    (first, p), (second, q) = (transient_block_generator(4, 4, rng) for _ in range(2))
    model = _side_by_side(first, second)
    blocks = [Projection.from_range_basis(np.vstack([p.range_basis, np.zeros((8, 4))])),
              Projection.from_range_basis(np.vstack([np.zeros((8, 4)), q.range_basis]))]
    ws, wq = Dynamics(model).reduction
    assert wq.shape == (16, 8)
    assert len(ws) == 2
    for w in ws:
        assert sum(projections_equal(Projection.from_range_basis(w), b) for b in blocks) == 1
    report = run_analyze(model, OPTIONS)
    assert report.enclosure_ranks == (4, 4) and report.stationary_dim == 2
    _assert_agrees_with_the_whole_split(model, Projection.from_range_basis(
        np.hstack([b.range_basis for b in blocks])))


def test_hamiltonian_generator_splits_into_its_levels():
    # with no jumps every eigenvector of H is a closed class of its own,
    # and the map between two of them multiplies by i (h_i - h_j)
    model = LindbladGenerator(random_hermitian(16, np.random.default_rng(1)), [])
    ws, wq = Dynamics(model).reduction
    assert [w.shape[1] for w in ws] == [1] * 16 and wq.shape == (16, 0)
    _assert_agrees_with_the_whole_split(model)


def _span_distance(space, other) -> float:
    """The largest entry of the difference of the projectors onto the spans
    of the two bases, whose vectorized matrices are orthonormal (the
    Hermitian frame and the embeddings keep them so), a block of rows at a
    time."""
    a, b = (np.stack([x.ravel() for x in s.basis], axis=1) for s in (space, other))
    return max(np.abs(a[rows] @ a.conj().T - b[rows] @ b.conj().T).max()
               for rows in np.array_split(np.arange(a.shape[0]), 16))


PUBLIC_SPACE = [(kind, d, seed) for kind, d in (("channel", 48), ("generator", 32))
                for seed in (1, 2, 3)]


@pytest.mark.parametrize("kind,d,seed", PUBLIC_SPACE,
                         ids=[f"{kind}-d{d}-s{seed}" for kind, d, seed in PUBLIC_SPACE])
def test_public_stationary_space_reads_the_reduction(monkeypatch, kind, d, seed):
    # the public stationary_space assembles and factors the class and rest
    # corners only: no real form, LU or SVD with d^2 rows
    model = _rung(kind, d, seed)[0]
    sizes = _assembly_sizes(monkeypatch)
    svds = _svd_shapes(monkeypatch)
    lus = _lu_shapes(monkeypatch)
    space = stationary_space(model)
    assert sizes and max(sizes) < d
    assert all(shape[-2] < d * d for shape in svds + lus)
    # and it is the whole split's space: the same dimension, span and state
    _without_reduction(monkeypatch)
    whole = stationary_space(model)
    assert sizes[-1] == d
    assert space.dim == whole.dim
    assert _span_distance(space, whole) <= 1e-14
    assert np.abs(space.state.matrix - whole.state.matrix).max() <= 1e-14


LADDER = [(kind, d, seed) for seed in (1, 2, 3) for kind, d in
          (("generator", 4), ("generator", 8), ("generator", 12), ("channel", 8), ("channel", 16))]


def _whole(monkeypatch):
    """Switch the guess off, and with it the reduction: every model is split
    whole, by the route its size takes."""
    monkeypatch.setattr(qdsa.asymptotics, "_recurrent_guess", lambda terms, tol: None)


@pytest.mark.parametrize("kind,d,seed", LADDER,
                         ids=[f"{kind}-d{d}-s{seed}" for kind, d, seed in LADDER])
def test_ladder_rung_reduced_agrees_with_the_whole_split(monkeypatch, kind, d, seed):
    # from _LARGE_MIN_SIZE unknowns on every analyze-ladder rung is
    # reduced; generator-d4 is below the gate, so its two runs are one
    model = _rung(kind, d, seed)[0]
    gated = d * d < qdsa.asymptotics._LARGE_MIN_SIZE
    reduced = run_analyze(model, OPTIONS)
    _whole(monkeypatch)
    whole = run_analyze(model, OPTIONS)
    if gated:
        assert reduced.to_json() == whole.to_json()
    for field in _DISCRETE:
        assert getattr(reduced, field) == getattr(whole, field), field
    assert [c.passed for c in reduced.checks] == [c.passed for c in whole.checks]
    for p, q in ((reduced.recurrent, whole.recurrent),
                 (reduced.stationary_support, whole.stationary_support)):
        assert p.rank == q.rank
        assert np.abs(p.matrix - q.matrix).max() <= PROJECTION_ATOL
    assert abs(reduced.transient_norm - whole.transient_norm) <= 1e-9 * whole.transient_norm


IRREDUCIBLE = ["random-generator-d8", "haar-channel-d8"]


@pytest.mark.parametrize("name", IRREDUCIBLE)
def test_irreducible_model_pays_for_the_guess_alone(monkeypatch, name):
    # one class fills the space: the guess declines and the whole model is
    # split, so the report is the closed gate's to the byte
    rng = np.random.default_rng(1)
    model = (random_generator(8, 2, rng) if name.startswith("random")
             else haar_random_channel(8, 2, rng))
    dyn = Dynamics(model)
    assert model.dim ** 2 >= qdsa.asymptotics._LARGE_MIN_SIZE
    assert _recurrent_guess(dyn.terms, dyn.tol) is None
    assert dyn.reduction[1] is None
    report = run_analyze(model, OPTIONS)
    _whole(monkeypatch)
    assert report.to_json() == run_analyze(model, OPTIONS).to_json()


def _tuple_key(p: Projection):
    """The enclosure sort key as it was: the diagonal and the entries,
    each rounded on its own and turned into a tuple of numpy scalars."""
    diag = np.round(np.real(np.diag(p.matrix)), 6)
    flat = np.round(np.real(p.matrix).ravel(), 6)
    return (-p.rank, tuple(-diag), tuple(-flat))


KEY_MODELS = [*fixture_names(), *(f"channel-d{d}" for d in (16, 32, 48, 64, 96))]


@pytest.mark.parametrize("name", KEY_MODELS)
def test_canonical_key_orders_as_the_tuple_key(name):
    # the key from one rounded matrix sorts the enclosures as the tuple key
    # did, from any starting order
    if name in fixture_names():
        model = build_fixture(name)
    else:
        model = _rung("channel", int(name.removeprefix("channel-d")), 1)[0]
    projections = minimal_enclosures(model, seed=GOLDEN_SEED).minimal_projections
    assert [id(p) for p in sorted(projections, key=_tuple_key)] == list(map(id, projections))
    rng = np.random.default_rng(0)
    for _ in range(5):
        shuffled = [projections[i] for i in rng.permutation(len(projections))]
        got = sorted(shuffled, key=_canonical_key)
        want = sorted(shuffled, key=_tuple_key)
        assert [id(p) for p in got] == [id(p) for p in want]
