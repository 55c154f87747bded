import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdsa.verify
from conftest import ket_bra
from qdsa.channels import (
    HEISENBERG,
    LindbladGenerator,
    QuantumChannel,
    apply_heisenberg,
    generator_to_channel,
    propagator,
    stinespring_dilate,
)
from qdsa.errors import FamilyNotSubharmonic, NotFixedPoint, NotPSD
from qdsa.harmonic import (
    fixed_point_support_check,
    is_subharmonic,
    is_subharmonic_generator,
    is_superharmonic,
    kraus_invariance_test,
    subharmonic_closure,
    subharmonic_report,
    subharmonic_residual,
)
from qdsa.linalg import (
    DEFAULT_TOL,
    Projection,
    hermitian_part,
    opnorm,
    order_leq,
    projections_equal,
)
from qdsa.models import build_fixture, fixture_names
from qdsa.sampling import (
    block_diagonal_channel,
    haar_random_channel,
    random_generator,
    random_hermitian,
    random_projection,
    transient_block_generator,
)
from qdsa.verify import _random_channel, _stinespring
from test_dynamics import _counting


def proj(m):
    return Projection.from_matrix(np.asarray(m, dtype=complex))


def _kraus_residual(ch: QuantumChannel, p: Projection) -> float:
    pc = np.eye(ch.dim) - p.matrix
    return max(opnorm(pc @ v @ p.matrix) for v in ch.kraus_ops)


def _generator_residual(gen: LindbladGenerator, p: Projection) -> float:
    pm = p.matrix
    pc = np.eye(gen.dim) - pm
    g = -1j * gen.hamiltonian
    worst = 0.0
    for l in gen.lindblad_ops:
        worst = max(worst, opnorm(pc @ l @ pm))
        g = g - 0.5 * (l.conj().T @ l)
    return max(worst, opnorm(pc @ g @ pm))


def _assert_reference_residual(model, rng, extra=()):
    """The one residual on the terms has the bits of the residual computed
    straight from the model, and the bound-only test its verdict, on a
    projection of every rank and on ``extra``."""
    reference = _kraus_residual if isinstance(model, QuantumChannel) else _generator_residual
    projections = [random_projection(model.dim, k, rng) for k in range(model.dim + 1)]
    for p in (*projections, *extra):
        want = reference(model, p)
        assert subharmonic_residual(model, p) == want, (model.dim, p.rank)
        assert is_subharmonic(model, p) == (want <= DEFAULT_TOL.atol), (model.dim, p.rank)


def _leaking_models(p: Projection, leak: float):
    """A channel and a generator whose leak out of ``p`` is ``leak F``
    (to rounding), ``F = f e^dag`` for isometries ``e`` into ``p`` and ``f``
    out of it with ``k = min(rank p, rank (1-p))`` columns, so that
    ``|F| = 1`` and its Frobenius norm is ``sqrt k``: the Kraus pair
    ``sqrt(1 - leak^2) 1, leak U`` with ``U`` the unitary that swaps the
    columns of ``e`` and ``f``, and the one jump ``leak F``, whose
    ``G = -leak^2 e e^dag / 2`` does not leak."""
    k = min(p.rank, p.dim - p.rank)
    e = p.range_basis[:, :k]
    f = p.complement().range_basis[:, :k]
    swap = (np.eye(p.dim) - e @ e.conj().T - f @ f.conj().T
            + f @ e.conj().T + e @ f.conj().T)
    channel = QuantumChannel([np.sqrt(1 - leak ** 2) * np.eye(p.dim), leak * swap])
    return channel, LindbladGenerator(np.zeros((p.dim, p.dim)), [leak * f @ e.conj().T])


class TestOneResidual:
    def test_fixtures(self):
        rng = np.random.default_rng(3)
        for name in fixture_names():
            model = build_fixture(name)
            # the coordinate blocks hold the fixtures' invariant ones
            blocks = [Projection.from_range_basis(np.eye(model.dim)[:, :k], model.dim)
                      for k in range(model.dim + 1)]
            _assert_reference_residual(model, rng, blocks)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_models(self, seed):
        rng = np.random.default_rng(seed)
        for d in range(1, 7):
            _assert_reference_residual(haar_random_channel(d, int(rng.integers(1, 4)), rng), rng)
            _assert_reference_residual(random_generator(d, int(rng.integers(1, 4)), rng), rng)

    def test_generator_without_jumps(self):
        rng = np.random.default_rng(4)
        _assert_reference_residual(LindbladGenerator(random_hermitian(4, rng), []), rng)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_leaks_on_either_side_of_atol(self, seed):
        # leaks in (atol/2, atol] and (atol, 2 atol], where the Frobenius
        # bound cannot decide and the SVD must; of rank up to 2 at d = 4, 5,
        # whose Frobenius norm exceeds atol while the spectral one does not
        rng = np.random.default_rng(seed)
        atol = DEFAULT_TOL.atol
        verdicts = set()
        for d in range(2, 6):
            for k in range(1, d):
                p = random_projection(d, k, rng)
                for low in (atol / 2, atol):
                    leak = low + (1.0 - rng.random()) * atol / 2
                    for model in _leaking_models(p, leak):
                        assert subharmonic_residual(model, p) == pytest.approx(leak, rel=1e-12)
                        _assert_reference_residual(model, rng, [p])
                        verdicts.add(is_subharmonic(model, p))
        assert verdicts == {True, False}

    def test_clear_pass_takes_no_svd(self, monkeypatch, adk):
        calls = _counting(monkeypatch, np.linalg, "svd")
        assert is_subharmonic(adk, proj(np.diag([1.0, 0.0])))
        assert calls == []


class TestSubharmonicReport:
    def test_ground_projector_is_subharmonic(self, adk):
        p = proj(np.diag([1.0, 0.0]))
        report = subharmonic_report(adk, p)
        assert report.verdict
        assert report.consistent()
        # alpha(p) - p = diag(0, 0.3), psd
        gain = apply_heisenberg(adk, p.matrix) - p.matrix
        assert_allclose(gain, np.diag([0.0, 0.3]), atol=1e-12)

    def test_excited_projector_is_not(self, adk):
        p = proj(np.diag([0.0, 1.0]))
        report = subharmonic_report(adk, p)
        assert not report.verdict
        assert report.consistent()
        gain = apply_heisenberg(adk, p.matrix) - p.matrix
        assert_allclose(gain, np.diag([0.0, -0.3]), atol=1e-12)

    def test_identity_always_subharmonic(self, rng):
        ch = haar_random_channel(3, 2, rng)
        assert subharmonic_report(ch, Projection.identity(3)).verdict

    def test_zero_projection(self, rng):
        ch = haar_random_channel(2, 2, rng)
        report = subharmonic_report(ch, Projection.zero(2))
        assert report.verdict
        assert report.face_invariance.residual == 0.0


def _reference_sweeps(ch: QuantumChannel, p: Projection):
    """Conditions 3 and 4 of ``subharmonic_report`` one matrix unit at a time."""
    pm = p.matrix
    pc = np.eye(ch.dim) - pm
    comp = 0.0
    corner = 0.0
    for i in range(ch.dim):
        for j in range(ch.dim):
            unit = ket_bra(ch.dim, i, j)
            comp = max(comp, opnorm(pm @ apply_heisenberg(ch, unit) @ pm
                                    - pm @ apply_heisenberg(ch, pm @ unit @ pm) @ pm))
            inside = apply_heisenberg(ch, pc @ unit @ pc)
            corner = max(corner, opnorm(inside - pc @ inside @ pc))
    return comp, corner


def _reference_stinespring(ch: QuantumChannel) -> float:
    """Verify's Stinespring residual one matrix unit at a time."""
    dil = stinespring_dilate(ch)
    residual = 0.0
    for i in range(ch.dim):
        for j in range(ch.dim):
            unit = ket_bra(ch.dim, i, j)
            residual = max(residual, opnorm(apply_heisenberg(ch, unit) - dil.reconstruct(unit)))
    return residual


def _fixture_channels():
    """The channel fixtures, and each generator fixture's channel at t = 1."""
    models = [build_fixture(name) for name in fixture_names()]
    return [m if isinstance(m, QuantumChannel) else generator_to_channel(m, 1.0)
            for m in models]


class TestStackedSweeps:
    """The one-pass sweeps over the stack of matrix units have the bits of
    the per-unit loops they replaced."""

    def _assert_sweeps(self, ch, rng, extra=()):
        projections = [random_projection(ch.dim, k, rng) for k in range(ch.dim + 1)]
        for p in (*projections, *extra):
            report = subharmonic_report(ch, p, trials=1, rng=rng)
            comp, corner = _reference_sweeps(ch, p)
            assert report.compression.residual == comp, (ch.dim, p.rank)
            assert report.corner.residual == corner, (ch.dim, p.rank)

    def test_fixture_channels(self, monkeypatch):
        rng = np.random.default_rng(11)
        channels = _fixture_channels()
        for ch in channels:
            blocks = [Projection.from_range_basis(np.eye(ch.dim)[:, :k], ch.dim)
                      for k in range(ch.dim + 1)]
            self._assert_sweeps(ch, rng, blocks)
        # the Stinespring property with its channel draws replaced by the
        # fixture channels: one trial per entry of dims
        draws = iter(channels)
        monkeypatch.setattr(qdsa.verify, "_random_channel", lambda dim, rng: next(draws))
        outcomes = _stinespring(rng, 2, tuple(ch.dim for ch in channels), DEFAULT_TOL)
        assert [residual for residual, _ in outcomes] == [
            _reference_stinespring(ch) for ch in channels]

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_haar_channels(self, dim):
        rng = np.random.default_rng(100 + dim)
        for n_kraus in range(1, 5):
            self._assert_sweeps(haar_random_channel(dim, n_kraus, rng), rng)

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_stinespring_property(self, dim):
        # the property draws 4 channels of 1..4 Kraus operators from its rng;
        # replaying the draws gives the same channels
        outcomes = list(_stinespring(np.random.default_rng(dim), 8, (dim,), DEFAULT_TOL))
        replay = np.random.default_rng(dim)
        channels = [_random_channel(dim, replay) for _ in outcomes]
        assert [residual for residual, _ in outcomes] == [
            _reference_stinespring(ch) for ch in channels]

    def test_svd_calls_do_not_grow_with_dim(self, monkeypatch):
        # a per-unit loop would make d^2 SVDs: 4 at d = 2, 36 at d = 6
        calls = _counting(monkeypatch, np.linalg, "svd")
        counts = []
        for dim in (2, 6):
            rng = np.random.default_rng(dim)
            ch = haar_random_channel(dim, 3, rng)
            calls.clear()
            subharmonic_report(ch, random_projection(dim, dim // 2, rng), rng=rng)
            report = len(calls)
            calls.clear()
            list(_stinespring(rng, 2, (dim,), DEFAULT_TOL))
            counts.append((report, len(calls)))
        assert counts[0] == counts[1]
        assert min(counts[0]) >= 1


class TestKrausInvariance:
    def test_adk_ground(self, adk):
        assert kraus_invariance_test(adk, proj(np.diag([1.0, 0.0])))

    def test_adk_excited(self, adk):
        # V_1 |1> = sqrt(gamma) |0> leaves the range
        assert not kraus_invariance_test(adk, proj(np.diag([0.0, 1.0])))

    def test_zero_projection(self, rng):
        ch = haar_random_channel(3, 3, rng)
        assert kraus_invariance_test(ch, Projection.zero(3))

    def test_matches_report_verdict(self, rng):
        for _ in range(40):
            dim = int(rng.integers(2, 5))
            if rng.integers(0, 2):
                ch = haar_random_channel(dim, int(rng.integers(1, 4)), rng)
                p = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
            else:
                ch, blocks = block_diagonal_channel([1] * dim, 2, rng)
                p = blocks[0]
            assert kraus_invariance_test(ch, p) == subharmonic_report(ch, p, trials=4,
                                                                      rng=rng).verdict


class TestGeneratorCriterion:
    def test_m3_stable_level(self, m3):
        assert is_subharmonic_generator(m3, proj(np.diag([1.0, 0.0, 0.0])))

    def test_m3_transient_level(self, m3):
        assert not is_subharmonic_generator(m3, proj(np.diag([0.0, 0.0, 1.0])))

    def test_zero_projection(self, m3):
        assert is_subharmonic_generator(m3, Projection.zero(3))

    def test_cross_validates_against_time_sampled_order(self, m3, dfs3, th, rng):
        # the algebraic criterion has no time grid; it must agree with the
        # order condition alpha_t(p) >= p sampled at several times
        models = [m3, dfs3, th, transient_block_generator(2, 2, rng)[0]]
        candidates = {
            3: [proj(np.diag([1.0, 0.0, 0.0])), proj(np.diag([0.0, 0.0, 1.0])),
                proj(np.diag([1.0, 1.0, 0.0]))],
            2: [proj(np.diag([1.0, 0.0])), Projection.identity(2)],
            4: [transient_block_generator(2, 2, rng)[1]],
        }
        for gen in models:
            for p in candidates[gen.dim] + [random_projection(gen.dim, 1, rng)]:
                algebraic = is_subharmonic_generator(gen, p)
                sampled = all(
                    order_leq(p.matrix,
                              hermitian_part(propagator(gen, t, HEISENBERG).apply(p.matrix)))
                    for t in (0.1, 1.0, 10.0))
                assert algebraic == sampled


class TestSuperharmonic:
    def test_adk_excited(self, adk):
        assert is_superharmonic(adk, proj(np.diag([0.0, 1.0])))

    def test_identity(self, rng):
        ch = haar_random_channel(2, 2, rng)
        assert is_superharmonic(ch, Projection.identity(2))

    def test_m3_transient(self, m3):
        assert is_superharmonic(m3, proj(np.diag([0.0, 0.0, 1.0])))

    def test_equals_direct_order_check(self, adk, rng):
        for _ in range(20):
            p = random_projection(2, int(rng.integers(0, 3)), rng)
            direct = order_leq(hermitian_part(apply_heisenberg(adk, p.matrix)), p.matrix)
            assert is_superharmonic(adk, p) == direct

    def test_complement_duality(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 5))
            ch = haar_random_channel(dim, 2, rng)
            p = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
            assert is_subharmonic(ch, p) == is_superharmonic(ch, p.complement())


class TestClosure:
    def test_dfs3_rank_one_pair(self, dfs3):
        plus = np.zeros((3, 3), dtype=complex)
        plus[:2, :2] = 0.5
        family = [proj(np.diag([1.0, 0.0, 0.0])), proj(plus)]
        result = subharmonic_closure(dfs3, family)
        assert result.infimum.rank == 0
        assert_allclose(result.supremum.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-9)
        assert result.both_subharmonic

    def test_singleton(self, m3):
        p = proj(np.diag([1.0, 0.0, 0.0]))
        result = subharmonic_closure(m3, [p])
        assert projections_equal(result.infimum, p)
        assert projections_equal(result.supremum, p)
        assert result.both_subharmonic

    def test_m3_stable_levels(self, m3):
        family = [proj(np.diag([1.0, 0.0, 0.0])), proj(np.diag([0.0, 1.0, 0.0]))]
        result = subharmonic_closure(m3, family)
        assert result.infimum.rank == 0
        assert_allclose(result.supremum.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-9)
        assert result.both_subharmonic

    def test_rejects_non_subharmonic_member(self, m3):
        with pytest.raises(FamilyNotSubharmonic):
            subharmonic_closure(m3, [proj(np.diag([0.0, 0.0, 1.0]))])

    def test_random_block_families(self, rng):
        for _ in range(10):
            ch, blocks = block_diagonal_channel([1, 1, 2], 2, rng)
            family = []
            for _ in range(3):
                mask = rng.integers(0, 2, size=3)
                chosen = [blocks[i] for i in range(3) if mask[i]]
                if chosen:
                    basis = np.hstack([b.range_basis for b in chosen])
                    family.append(Projection.from_range_basis(basis, 4))
            if len(family) < 2:
                continue
            result = subharmonic_closure(ch, family)
            assert result.both_subharmonic


class TestMonotoneOrbit:
    def test_directed_family(self, m3):
        p = proj(np.diag([1.0, 1.0, 0.0]))
        grid = [0.0, 0.2, 0.7, 2.0, 8.0]
        values = [hermitian_part(propagator(m3, t, HEISENBERG).apply(p.matrix))
                  for t in grid]
        for earlier, later in zip(values, values[1:]):
            assert order_leq(earlier, later)


class TestFixedPointSupport:
    def test_identity_fixed_point(self, rng):
        ch = haar_random_channel(3, 2, rng)
        s, superharmonic = fixed_point_support_check(ch, np.eye(3))
        assert s.rank == 3
        assert superharmonic

    def test_m3_harmonic_operator(self, m3):
        # oracle: the generator annihilates diag(1, 0, 1/2), so it is fixed
        # for the time-1 channel; its support is diag(1, 0, 1)
        from qdsa.channels import lindblad_apply

        x = np.diag([1.0, 0.0, 0.5]).astype(complex)
        assert opnorm(lindblad_apply(m3, x, HEISENBERG)) <= 1e-13
        ch = generator_to_channel(m3, 1.0)
        s, superharmonic = fixed_point_support_check(ch, x)
        assert_allclose(s.matrix, np.diag([1.0, 0.0, 1.0]), atol=1e-9)
        assert superharmonic

    def test_adk_diagonal_fixed_points_are_trivial(self, adk):
        # fixed diag(1, c) forces c = gamma + (1 - gamma) c, so c = 1: the
        # only diagonal fixed point is the identity
        gamma = 0.3
        for c in (0.0, 0.5, 0.99):
            x = np.diag([1.0, c])
            out = apply_heisenberg(adk, x)
            assert_allclose(out, np.diag([1.0, gamma + (1 - gamma) * c]), atol=1e-12)
            if c != 1.0:
                with pytest.raises(NotFixedPoint):
                    fixed_point_support_check(adk, x)
        s, _ = fixed_point_support_check(adk, np.eye(2))
        assert s.rank == 2

    def test_rejects_non_psd(self, adk):
        with pytest.raises(NotPSD):
            fixed_point_support_check(adk, np.diag([1.0, -1.0]))
