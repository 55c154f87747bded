"""Small decisions stacked into one LAPACK call, or skipped.

At d <= 16 numpy's wrapper is most of the cost of a decomposition, so a
group of same-shape norms or spectra is one stacked call, and a decision
whose answer the code already holds makes none.  numpy's stacked ``svd``,
``eigvalsh`` and ``matmul`` run the same routine on each matrix of the
stack, so every value keeps the bits of its own call.  These tests hold
each stacked or skipped decision to the per-call expression it replaces,
and pin the number of calls it saves.
"""

import collections
import functools

import numpy as np
import pytest

import qdsa.asymptotics
import qdsa.verify
from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.asymptotics import Dynamics, minimal_enclosures, recurrent_projection
from qdsa.channels import _BLOCK, SCHRODINGER, _act, _matrix_units, _terms
from qdsa.harmonic import subharmonic_report
from qdsa.linalg import (
    _FROBENIUS_FLOOR,
    DEFAULT_TOL,
    _hermitian_spectrum,
    _norm_exceeds,
    _psd_defect,
    Projection,
    hermitian_part,
    opnorm,
)
from qdsa.models import build_fixture, fixture_names
from qdsa.sampling import _ginibre, haar_random_channel, random_projection
from qdsa.verify import run_verify
from test_dynamics import GOLDEN_SEED

# the np.linalg entry points that reach LAPACK
LAPACK = ("svd", "eigvalsh", "eigh", "qr", "solve", "eig", "eigvals", "inv", "lstsq",
          "cholesky", "det", "slogdet", "pinv", "matrix_rank")


def _lapack_calls(monkeypatch) -> collections.Counter:
    calls = collections.Counter()
    for name in LAPACK:
        original = getattr(np.linalg, name)

        @functools.wraps(original)
        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class _CountingGenerator:
    """A generator that counts its ``standard_normal`` fills."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.fills = 0

    def standard_normal(self, *args, **kwargs):
        self.fills += 1
        return self.rng.standard_normal(*args, **kwargs)


def _face_reference(ch, p, trials, rng) -> float:
    """The face residual one trial at a time, each state drawn alone."""
    terms, pm, face = _terms(ch), p.matrix, 0.0
    if p.rank > 0:
        for _ in range(trials):
            g = _ginibre(ch.dim, ch.dim, rng)
            compressed = pm @ (g @ g.conj().T) @ pm
            nu = _act(terms, compressed / np.trace(compressed), SCHRODINGER)
            face = max(face, abs(complex(np.trace(nu @ pm)) - 1.0))
    return face


def _seeded_case(seed, dim):
    rng = np.random.default_rng(seed)
    ch = haar_random_channel(dim, int(rng.integers(1, 4)), rng)
    return ch, random_projection(dim, int(rng.integers(1, dim + 1)), rng)


class TestGinibre:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (3, 3), (2, 5)])
    def test_a_stack_is_the_stream_of_single_draws(self, rows, cols):
        stacked, single = np.random.default_rng(5), np.random.default_rng(5)
        block = _ginibre(rows, cols, stacked, 7)
        assert block.shape == (7, rows, cols)
        assert block.tobytes() == np.stack(
            [_ginibre(rows, cols, single) for _ in range(7)]).tobytes()
        assert stacked.integers(0, 2**40) == single.integers(0, 2**40)
        # one draw is its real part, then its imaginary part
        reference = np.random.default_rng(9)
        want = (reference.standard_normal((rows, cols))
                + 1j * reference.standard_normal((rows, cols)))
        assert _ginibre(rows, cols, np.random.default_rng(9)).tobytes() == want.tobytes()


class TestFaceSampling:
    @pytest.mark.parametrize("dim", range(1, 7))
    def test_face_residual_has_the_bits_of_one_trial_at_a_time(self, dim):
        for seed in range(4):
            ch, p = _seeded_case(10 * dim + seed, dim)
            for q in (p, Projection.zero(dim)):
                for trials in (0, 1, 8, 32):
                    counting = _CountingGenerator(seed)
                    looped = np.random.default_rng(seed)
                    report = subharmonic_report(ch, q, trials=trials, rng=counting)
                    assert report.face_invariance.residual == _face_reference(
                        ch, q, trials, looped)
                    assert counting.rng.integers(0, 2**40) == looped.integers(0, 2**40)
                    # the states of a block are one fill
                    assert counting.fills == (trials > 0 and q.rank > 0)

    def test_trials_spanning_two_blocks(self):
        dim = 6
        trials = _BLOCK // dim ** 2 + 3
        ch, p = _seeded_case(3, dim)
        counting = _CountingGenerator(11)
        report = subharmonic_report(ch, p, trials=trials, rng=counting)
        looped = np.random.default_rng(11)
        assert report.face_invariance.residual == _face_reference(ch, p, trials, looped)
        assert counting.rng.integers(0, 2**40) == looped.integers(0, 2**40)
        assert counting.fills == 2

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_compression_and_corner_come_from_one_svd(self, monkeypatch, dim):
        for seed in range(3):
            ch, p = _seeded_case(seed, dim)
            terms, pm = _terms(ch), p.matrix
            pc = np.eye(dim) - pm
            units = _matrix_units(dim)
            inside = _act(terms, pc @ units @ pc)
            comp = opnorm(pm @ _act(terms, units) @ pm - pm @ _act(terms, pm @ units @ pm) @ pm)
            corner = opnorm(inside - pc @ inside @ pc)
            with monkeypatch.context() as patch:
                calls = _lapack_calls(patch)
                report = subharmonic_report(ch, p, trials=0)
            assert calls == {"svd": 1, "eigvalsh": 1}
            assert (report.compression.residual, report.corner.residual) == (comp, corner)


def _settled(m, bound) -> bool:
    """Whether the Frobenius norm alone settles ``opnorm(m) > bound``."""
    frobenius = np.linalg.norm(m)
    return bool(frobenius <= bound / 2
                or frobenius > 2 * bound * np.sqrt(m.size // max(m.shape[-2:])))


class TestNormExceeds:
    def test_the_decision_is_that_of_the_spectral_norm(self, monkeypatch):
        rng = np.random.default_rng(12)
        skipped = collections.Counter()
        for shape in ((3, 3), (5, 2), (1, 4), (4, 3, 3), (3, 6, 2), (7, 4, 1)):
            for bound in (1e-9, 1e-3, 2.0):
                for factor in np.geomspace(0.3, 3.0, 25):
                    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    m *= factor * bound / opnorm(m)
                    want = opnorm(m) > bound
                    with monkeypatch.context() as patch:
                        calls = _lapack_calls(patch)
                        assert _norm_exceeds(m, bound) == want
                    # the SVD runs only when the Frobenius norm cannot decide
                    assert calls["svd"] == (not _settled(m, bound))
                    skipped[want] += calls["svd"] == 0
        # both sides are settled without an SVD somewhere
        assert skipped[True] and skipped[False]

    def test_flat_stacks_zeros_and_a_bound_below_the_floor(self, monkeypatch):
        # K scaled unitaries have |m|_F = sqrt(K d) |m|, the equality case
        # of the lower bound: above twice the bound they take no SVD
        rng = np.random.default_rng(4)
        calls = _lapack_calls(monkeypatch)
        for k, d in ((1, 1), (1, 4), (5, 3)):
            u = np.stack([np.linalg.qr(_ginibre(d, d, rng))[0] for _ in range(k)])
            for factor in (0.3, 0.99, 1.01, 1.9, 2.1, 3.0):
                m = factor * 1e-9 * u
                before = calls["svd"]
                assert _norm_exceeds(m, 1e-9) == (opnorm(m) > 1e-9)
                assert calls["svd"] - before == 1 + (not _settled(m, 1e-9))
                assert _settled(m, 1e-9) or factor < 2
        for shape in ((3, 3), (2, 4, 1), (0, 3), (2, 3, 0)):
            assert not _norm_exceeds(np.zeros(shape), 1e-9)
            assert not _norm_exceeds(np.zeros(shape), _FROBENIUS_FLOOR / 10)
        tiny = np.full((2, 3, 3), 1e-110)
        for bound in (1e-111, 1e-109, 1e-120):
            before = calls["svd"]
            assert _norm_exceeds(tiny, bound) == (opnorm(tiny) > bound)
            # below the floor the SVD always decides
            assert calls["svd"] - before == 2


class TestOrderDiagnostic:
    def test_residuals_have_the_bits_of_each_condition(self, monkeypatch):
        seen = []
        original = qdsa.verify.projection_order_diagnostic

        def recording(x, p, tol):
            with monkeypatch.context() as patch:
                calls = _lapack_calls(patch)
                diagnostic = original(x, p, tol)
            seen.append((x, p, diagnostic, calls))
            return diagnostic

        monkeypatch.setattr(qdsa.verify, "projection_order_diagnostic", recording)
        list(qdsa.verify._order_diagnostic(np.random.default_rng(8), 12, (1, 2, 3, 4, 6),
                                           DEFAULT_TOL))
        assert len(seen) == 60
        for x, p, diagnostic, calls in seen:
            # the unit-interval check, then the two defects together
            assert calls == {"svd": 1, "eigvalsh": 2}
            xm, pm = np.asarray(x, dtype=complex), p.matrix
            pc = np.eye(p.dim) - pm
            want = [_psd_defect(xm - pm), opnorm(pm @ xm @ pm - pm),
                    opnorm(xm - pm - pc @ xm @ pc), opnorm(xm @ pm - pm),
                    opnorm(pm @ xm - pm), _psd_defect(pm - xm), opnorm(pm @ xm @ pm - xm),
                    opnorm(xm @ pm - xm), opnorm(pm @ xm - xm)]
            got = [c.residual for c in diagnostic.x_geq_p + diagnostic.x_leq_p]
            assert [type(v) for v in got] == [float] * 9
            assert [v.hex() for v in got] == [float(v).hex() for v in want]


def test_stacked_helpers_keep_each_matrix_bits():
    rng = np.random.default_rng(6)
    stack = _ginibre(4, 4, rng, 5)
    spectra = _hermitian_spectrum(stack)
    for m, w, h in zip(stack, spectra, hermitian_part(stack)):
        assert h.tobytes() == hermitian_part(m).tobytes()
        assert w.tobytes() == _hermitian_spectrum(m).tobytes()


def test_identity_recurrent_projection_reports_exact_zeros(monkeypatch):
    # TH is faithful: r = 1, so the estimate is 1 and both norms 0.0, with
    # no norm taken
    norms = []
    original = qdsa.asymptotics.opnorm
    monkeypatch.setattr(qdsa.asymptotics, "opnorm", lambda m: norms.append(m) or original(m))
    report = recurrent_projection(build_fixture("TH"))
    assert report.recurrent.rank == 2
    assert (report.sup_deviation, report.transient_norm) == (0.0, 0.0)
    assert report.limit_estimate.tobytes() == np.eye(2, dtype=complex).tobytes()
    assert not report.limit_estimate.flags.writeable
    assert norms == []


def test_one_level_corners_share_one_state():
    states = [corner.limit[1] for corner in
              (Dynamics(build_fixture("ID3")), Dynamics(build_fixture("AD")))
              for corner in [qdsa.asymptotics._corner(corner, np.eye(corner.dim)[:, :1])]]
    assert states[0] is states[1] is qdsa.asymptotics._one_level_state()
    assert states[0].matrix.tobytes() == np.ones((1, 1), dtype=complex).tobytes()


def test_minimal_enclosures_builds_a_generator_only_to_draw(monkeypatch):
    built = []
    original = np.random.default_rng

    def recording(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", recording)
    # AD: one class whose fixed algebra is one-dimensional, so no draw
    minimal_enclosures(build_fixture("AD"), seed=GOLDEN_SEED)
    assert built == []
    # ID2: the fixed algebra is M_2, split along one draw from the seed
    minimal_enclosures(build_fixture("ID2"), seed=GOLDEN_SEED)
    assert built == [(GOLDEN_SEED,)]


def test_kadison_schwarz_applies_the_channel_twice_a_trial(monkeypatch):
    calls = []
    original = qdsa.verify.apply_heisenberg

    def counted(ch, a):
        calls.append(a)
        return original(ch, a)

    monkeypatch.setattr(qdsa.verify, "apply_heisenberg", counted)
    outcomes = list(qdsa.verify._kadison_schwarz(np.random.default_rng(3), 4, (2, 3),
                                                 DEFAULT_TOL))
    assert len(outcomes) == 8
    assert len(calls) == 16


class TestCallPins:
    def test_verify_small_run(self, monkeypatch):
        # 2,828 calls and 936 SVDs before the decisions were stacked
        calls = _lapack_calls(monkeypatch)
        run_verify(1, 20)
        assert sum(calls.values()) <= 2300
        assert calls["svd"] <= 500

    def test_fixture_analyses(self, monkeypatch):
        # 137 calls, TH 13, before the decisions were stacked or skipped
        calls = _lapack_calls(monkeypatch)
        per_fixture = {}
        for name in fixture_names():
            before = sum(calls.values())
            run_analyze(build_fixture(name), AnalysisOptions(seed=GOLDEN_SEED))
            per_fixture[name] = sum(calls.values()) - before
        assert sum(per_fixture.values()) <= 112
        assert per_fixture["TH"] <= 9
