import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qdsa.channels import LindbladGenerator, QuantumChannel, StinespringDilation, apply_heisenberg
from qdsa.errors import (
    DimMismatch,
    NotFixedPoint,
    NotHermitian,
    NotPSD,
    NotUnital,
    OutOfUnitInterval,
)
from qdsa.asymptotics import (
    minimal_enclosures,
    recurrent_projection,
    restricted_stationary_dim,
    stationary_space,
)
from qdsa.harmonic import fixed_point_support_check
from qdsa.linalg import (
    DEFAULT_TOL,
    Projection,
    ToleranceConfig,
    _fix_phases,
    _norm_exceeds,
    _psd_defect,
    _support_rank,
    is_psd,
    matrix_exp,
    opnorm,
    order_leq,
    proj_infimum,
    proj_supremum,
    projection_order_diagnostic,
    projections_equal,
    support_projection,
)
from qdsa.models import build_fixture, fixture_names
from qdsa.sampling import (
    random_hermitian,
    random_projection,
    random_unit_interval_hermitian,
)


def test_tolerance_config_bounds():
    ToleranceConfig(atol=1e-6, rank_rtol=1e-7, psd_tol=1e-6)
    with pytest.raises(ValueError):
        ToleranceConfig(atol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rtol=0.5)


def test_cutoff_is_relative_with_an_absolute_floor():
    tol = ToleranceConfig(atol=1e-9, rank_rtol=1e-8)
    assert tol.cutoff(10.0) == 1e-8 * 10.0
    assert tol.cutoff(1e-3) == 1e-9
    assert tol.cutoff(0.0) == 1e-9


def test_psd_defect_is_the_negative_part_of_the_lowest_eigenvalue():
    assert _psd_defect(np.diag([2.0, 0.5])) == 0.0
    assert _psd_defect(np.diag([2.0, -0.5])) == 0.5
    # only the Hermitian part counts
    assert _psd_defect(np.array([[1.0, 4.0], [-4.0, 1.0]])) == 0.0


class TestFixPhases:
    def test_diagonal(self):
        w, v = np.linalg.eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
        v = _fix_phases(v)
        assert_allclose(w, [1.0, 2.0, 3.0])
        # permutation eigenvectors, phases fixed real positive
        assert_allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-12)
        assert_allclose(v, np.abs(v), atol=1e-12)

    def test_pauli_x(self):
        w, v = np.linalg.eigh(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        v = _fix_phases(v)
        assert_allclose(w, [-1.0, 1.0])
        s = 1 / np.sqrt(2)
        assert_allclose(v[:, 0], [s, -s], atol=1e-12)
        assert_allclose(v[:, 1], [s, s], atol=1e-12)


class TestMatrixExp:
    def test_zero(self):
        assert_allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        assert_allclose(matrix_exp(np.diag([-1.0, 0.0])),
                        np.diag([np.exp(-1.0), 1.0]), rtol=1e-13)

    def test_nilpotent(self):
        assert_allclose(matrix_exp(np.array([[0.0, 1.0], [0.0, 0.0]])),
                        np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-14)

    def test_matches_power_series_on_small_norms(self, rng):
        # independent oracle: direct series summation
        for _ in range(10):
            a = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            series = np.eye(3, dtype=complex)
            term = np.eye(3, dtype=complex)
            for k in range(1, 30):
                term = term @ a / k
                series = series + term
            assert opnorm(matrix_exp(a) - series) <= 1e-12 * max(1.0, opnorm(series))

    def test_hermitian_spectral_cross_check(self, rng):
        # independent oracle: the exponential through the spectral form
        for _ in range(10):
            h = random_hermitian(4, rng)
            w, v = np.linalg.eigh(h)
            assert opnorm(matrix_exp(h) - (v * np.exp(w)) @ v.conj().T) <= 1e-11

    def test_real_input_stays_real(self):
        # arguments where a degree-13 Pade core would be used without the
        # pre-scaling; exp(+-4) to a few ulps
        for x in (-30.0, -4.0, 4.0):
            a = np.array([[x, 1e-3], [0.0, 0.0]])
            e = matrix_exp(a)
            assert e.dtype == float
            assert abs(e[0, 0] - np.exp(x)) <= 4e-15 * np.exp(x)
            assert abs(e[0, 1] - 1e-3 * np.expm1(x) / x) <= 4e-15 * abs(e[0, 1])

    def test_semigroup_law(self, rng):
        for _ in range(10):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a *= 2.0 / max(opnorm(a), 1.0)
            s, t = rng.uniform(0, 1, size=2)
            assert opnorm(matrix_exp((s + t) * a)
                          - matrix_exp(s * a) @ matrix_exp(t * a)) <= 1e-10


class TestOrder:
    def test_is_psd_examples(self):
        assert is_psd(np.diag([0.0, 0.5]))
        assert not is_psd(np.diag([-0.1, 1.0]))
        psi = np.array([1.0, 1j]) / np.sqrt(2)
        assert is_psd(np.outer(psi, psi.conj()))

    def test_is_psd_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_order_leq_examples(self):
        assert order_leq(np.diag([1.0, 0.0]), np.diag([1.0, 0.3]))
        a = np.diag([0.7, 0.2])
        assert order_leq(a, a)
        assert not order_leq(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    def test_order_leq_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            order_leq(np.eye(2), np.eye(3))


class TestSupportProjection:
    def test_diagonal(self):
        p = support_projection(np.diag([0.5, 0.0, 0.3]))
        assert_allclose(p.matrix, np.diag([1.0, 0.0, 1.0]), atol=1e-12)
        assert p.rank == 2

    def test_zero_matrix(self):
        p = support_projection(np.zeros((2, 2)))
        assert p.rank == 0
        assert_allclose(p.matrix, np.zeros((2, 2)), atol=1e-15)

    def test_rank_one(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        x = np.outer(psi, psi.conj())
        p = support_projection(x)
        assert_allclose(p.matrix, x, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            support_projection(np.diag([-1.0, 1.0]))

    def test_absorbs_and_is_minimal(self, rng):
        # any projection q >= P built as P plus junk orthogonal to the
        # support still absorbs x, and dominates the computed support
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            k = int(rng.integers(1, dim))
            basis = random_projection(dim, dim, rng).range_basis
            w = rng.uniform(0.1, 2.0, size=k)
            x = (basis[:, :k] * w) @ basis[:, :k].conj().T
            p = support_projection(x)
            assert opnorm(x @ p.matrix - x) <= 1e-10
            assert opnorm(p.matrix @ x - x) <= 1e-10
            extra = int(rng.integers(0, dim - k + 1))
            q = Projection.from_range_basis(basis[:, :k + extra], dim)
            assert opnorm(x @ q.matrix - x) <= 1e-10
            assert order_leq(p.matrix, q.matrix)


class TestSupportRank:
    """``_support_rank`` is ``support_projection(x).rank``: the same cut,
    with the same errors, and no projection built."""

    def test_fixture_states(self):
        for name in fixture_names():
            model = build_fixture(name)
            states = [stationary_space(model).state.matrix,
                      recurrent_projection(model).limit_estimate,
                      *(restricted_stationary_dim(model, p)[1].matrix
                        for p in minimal_enclosures(model).minimal_projections)]
            for x in states:
                assert _support_rank(x) == support_projection(x).rank, name

    def test_psd_of_every_rank(self, rng):
        # eigenvalues over six decades, and next to the cutoff on either side
        for dim in range(1, 7):
            basis = random_projection(dim, dim, rng).range_basis
            for k in range(dim + 1):
                w = 10.0 ** rng.uniform(-6.0, 0.0, size=k)
                x = (basis[:, :k] * w) @ basis[:, :k].conj().T
                assert _support_rank(x) == support_projection(x).rank == k
                edge = DEFAULT_TOL.cutoff(1.0) * (1.0 + rng.uniform(-1e-3, 1e-3, size=dim))
                edge[0] = 1.0
                y = (basis * edge) @ basis.conj().T
                assert _support_rank(y) == support_projection(y).rank

    def test_zero_matrix(self):
        for dim in (1, 3):
            assert _support_rank(np.zeros((dim, dim))) == 0

    def test_builds_no_projection(self, monkeypatch):
        built = []
        post_init = Projection.__post_init__
        monkeypatch.setattr(Projection, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        assert _support_rank(np.diag([0.5, 0.0, 0.5])) == 2
        assert built == []

    @pytest.mark.parametrize("x,error", [
        (np.diag([-1.0, 1.0]), NotPSD),
        (np.array([[1.0, 1.0], [0.0, 1.0]]), NotHermitian),
        (np.zeros((2, 3)), DimMismatch),
    ], ids=["indefinite", "not-hermitian", "not-square"])
    def test_same_errors(self, x, error):
        messages = []
        for reader in (support_projection, _support_rank):
            with pytest.raises(error) as raised:
                reader(x)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


class TestLattice:
    def test_commuting_diagonal(self):
        p = Projection.from_matrix(np.diag([1.0, 1.0, 0.0]))
        q = Projection.from_matrix(np.diag([0.0, 1.0, 1.0]))
        inf = proj_infimum([p, q])
        sup = proj_supremum([p, q])
        assert_allclose(inf.matrix, np.diag([0.0, 1.0, 0.0]), atol=1e-10)
        assert_allclose(sup.matrix, np.eye(3), atol=1e-10)

    def test_singleton(self, rng):
        p = random_projection(3, 2, rng)
        assert projections_equal(proj_infimum([p]), p)
        assert projections_equal(proj_supremum([p]), p)

    def test_skew_rank_one_pair(self):
        # oracle: eigensolve 2 - p - q directly; no zero eigenvalue means
        # the ranges intersect trivially
        p = Projection.from_matrix(np.diag([1.0, 0.0]))
        plus = np.full((2, 2), 0.5)
        q = Projection.from_matrix(plus)
        gap = np.linalg.eigvalsh(2 * np.eye(2) - p.matrix - q.matrix)
        assert gap[0] > 0.1
        inf = proj_infimum([p, q])
        assert inf.rank == 0
        sup = proj_supremum([p, q])
        assert_allclose(sup.matrix, np.eye(2), atol=1e-10)

    def test_orthogonal_rank_one_sum(self):
        p = Projection.from_matrix(np.diag([1.0, 0.0, 0.0]))
        q = Projection.from_matrix(np.diag([0.0, 1.0, 0.0]))
        assert_allclose(proj_supremum([p, q]).matrix, np.diag([1.0, 1.0, 0.0]),
                        atol=1e-10)

    def test_de_morgan(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            family = [random_projection(dim, int(rng.integers(0, dim + 1)), rng)
                      for _ in range(int(rng.integers(2, 5)))]
            sup = proj_supremum(family)
            dual = proj_infimum([p.complement() for p in family]).complement()
            assert opnorm(sup.matrix - dual.matrix) <= 1e-9

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimMismatch):
            proj_infimum([Projection.identity(2), Projection.identity(3)])


class TestProjectionType:
    def test_from_matrix_validates(self):
        with pytest.raises(NotPSD):
            Projection.from_matrix(np.diag([0.5, 1.0]))
        with pytest.raises(NotHermitian):
            Projection.from_matrix(np.array([[1.0, 0.1], [0.0, 0.0]]))

    def test_complement(self, rng):
        p = random_projection(4, 2, rng)
        c = p.complement()
        assert c.rank == 2
        assert opnorm(p.matrix + c.matrix - np.eye(4)) <= 1e-12

    @pytest.mark.parametrize("dim,rank", [(3, 4), (3, -1), (1, 2), (0, -1)])
    def test_random_projection_rejects_a_rank_out_of_range(self, rng, dim, rank):
        with pytest.raises(DimMismatch, match=f"rank {rank} does not fit dimension {dim}"):
            random_projection(dim, rank, rng)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_random_projection_at_both_ends(self, rng, dim):
        assert random_projection(dim, 0, rng).rank == 0
        full = random_projection(dim, dim, rng)
        assert full.rank == dim
        assert opnorm(full.matrix - np.eye(dim)) <= 1e-12

    def test_matrices_are_read_only(self):
        p = Projection.identity(2)
        with pytest.raises(ValueError):
            p.matrix[0, 0] = 0.0


class TestOrderDiagnostic:
    def test_x_equals_p(self):
        p = Projection.from_matrix(np.diag([1.0, 0.0]))
        diag = projection_order_diagnostic(p.matrix, p)
        assert all(c.holds for c in diag.x_geq_p)
        assert all(c.holds for c in diag.x_leq_p)
        assert diag.consistent()

    def test_x_above_p(self):
        p = Projection.from_matrix(np.diag([1.0, 0.0]))
        diag = projection_order_diagnostic(np.diag([1.0, 0.5]), p)
        assert all(c.holds for c in diag.x_geq_p)
        assert not any(c.holds for c in diag.x_leq_p)
        assert diag.consistent()

    def test_x_below_p(self):
        p = Projection.from_matrix(np.diag([1.0, 0.0]))
        diag = projection_order_diagnostic(np.diag([0.5, 0.0]), p)
        assert all(c.holds for c in diag.x_leq_p)
        assert not any(c.holds for c in diag.x_geq_p)
        assert diag.consistent()

    def test_rejects_out_of_interval(self):
        p = Projection.from_matrix(np.diag([1.0, 0.0]))
        with pytest.raises(OutOfUnitInterval):
            projection_order_diagnostic(np.diag([1.5, 0.0]), p)

    def test_agreement_on_random_inputs(self, rng):
        # 50 trials per dimension: within each group all decisive booleans
        # must coincide
        for dim in (2, 3, 4):
            for _ in range(50):
                x = random_unit_interval_hermitian(dim, rng)
                p = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
                assert projection_order_diagnostic(x, p).consistent()


_SWEEP = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def _exceeds_like_opnorm(m, bound):
    assert _norm_exceeds(m, bound) == (opnorm(m) > bound), (opnorm(m), bound)


class TestNormExceeds:
    """``_norm_exceeds`` decides exactly like ``opnorm(m) > bound``."""

    @_SWEEP
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
           ratio=st.floats(0.25, 4.0), scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e6]))
    def test_random_matrices(self, seed, dim, ratio, scale):
        # opnorm / bound is ratio: the Frobenius shortcut decides some of
        # them (ratio <= 1/2) and the SVD the rest
        rng = np.random.default_rng(seed)
        m = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        _exceeds_like_opnorm(m, opnorm(m) / ratio)

    @_SWEEP
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
           scale=st.sampled_from([1e-9, 1.0, 1e3]))
    def test_rank_one_one_ulp_either_side(self, seed, dim, scale):
        # the Frobenius norm of a rank-1 matrix is its spectral norm, so both
        # the decision at the bound and the shortcut's edge at twice the
        # norm are met one ulp away
        rng = np.random.default_rng(seed)
        u, v = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(2))
        m = scale * np.outer(u, v.conj())
        norm = opnorm(m)
        for edge in (norm, 2 * norm):
            for bound in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)):
                _exceeds_like_opnorm(m, float(bound))

    @pytest.mark.parametrize("bound", [0.0, 1e-300, 1e-9, 1.0])
    def test_zero_matrix(self, bound):
        for dim in (1, 3):
            assert not _norm_exceeds(np.zeros((dim, dim), dtype=complex), bound)
            _exceeds_like_opnorm(np.zeros((dim, dim), dtype=complex), bound)

    def test_squares_below_the_smallest_normal_take_the_svd(self):
        # the squares of 1e-170 underflow to 0, so a Frobenius norm taken
        # from them would read 0 while the spectral norm is above the bound
        m = 1e-170 * np.eye(2, dtype=complex)
        assert _norm_exceeds(m, 1e-171)
        _exceeds_like_opnorm(m, 1e-171)


class TestResidualMessages:
    """A check that raises reports the exact spectral residual, not the
    Frobenius bound it may have been decided by."""

    def test_not_hermitian(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        residual = opnorm(h - h.T)  # 1, where the Frobenius norm is sqrt(2)
        with pytest.raises(NotHermitian, match=re.escape(f"residual {residual:.3e}")):
            LindbladGenerator(h)

    def test_not_idempotent(self):
        p = np.diag([1.0, 0.5, 0.5])
        residual = opnorm(p @ p - p)
        with pytest.raises(NotPSD, match=re.escape(f"not idempotent (residual {residual:.3e})")):
            Projection.from_matrix(p)

    def test_channel_not_unital(self):
        ops = [np.diag([1.0, 1.5, 1.5])]
        residual = opnorm(ops[0].T @ ops[0] - np.eye(3))
        with pytest.raises(NotUnital, match=re.escape(f"by {residual:.3e}")):
            QuantumChannel(ops)

    def test_dilation_not_isometric(self):
        v = np.vstack([np.diag([1.0, 1.5, 1.5]), np.zeros((3, 3))])
        residual = opnorm(v.T @ v - np.eye(3))
        with pytest.raises(NotUnital, match=re.escape(f"by {residual:.3e}")):
            StinespringDilation(v, 2)

    def test_not_fixed_point(self):
        ch = QuantumChannel([np.roll(np.eye(3), 1, axis=0)])
        x = np.diag([1.0, 2.0, 3.0])
        residual = opnorm(apply_heisenberg(ch, x) - x)
        with pytest.raises(NotFixedPoint, match=re.escape(f"by {residual:.3e}")):
            fixed_point_support_check(ch, x)
