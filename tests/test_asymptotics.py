import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdsa.asymptotics
from conftest import ket_bra
from qdsa.asymptotics import (
    Dynamics,
    StationarySpace,
    _fixed_point_matrix,
    _kernel_component,
    _split_kernel_range,
    cesaro_limit,
    cesaro_mean,
    decay_ideal_test,
    minimal_enclosures,
    minimality_certificate,
    recurrent_projection,
    restricted_stationary_dim,
    stationary_space,
    stationary_support,
)
from qdsa.channels import (
    HEISENBERG,
    SCHRODINGER,
    DensityMatrix,
    propagator,
)
from qdsa.harmonic import (
    is_subharmonic,
    is_subharmonic_generator,
    is_superharmonic,
    kraus_invariance_test,
    subharmonic_residual,
)
from qdsa.errors import DimMismatch, InternalError
from qdsa.linalg import (
    DEFAULT_TOL,
    Projection,
    hermitian_part,
    opnorm,
    order_leq,
    proj_supremum,
    support_projection,
    trace_norm,
)
from qdsa.models import build_fixture, fixture_horizon, fixture_names
from qdsa.sampling import random_generator, transient_block_generator


class TestStationarySpace:
    def test_ad_unique_ground_state(self, ad):
        # oracle: the 4x4 vectorized generator has a one-dimensional null
        # space spanned by vec(|0><0|)
        from qdsa.channels import SCHRODINGER, to_superoperator, vec

        s = to_superoperator(ad, SCHRODINGER).matrix
        assert opnorm((s @ vec(ket_bra(2, 0, 0))).reshape(2, 2)) <= 1e-13
        assert np.sum(np.linalg.svd(s, compute_uv=False) < 1e-10) == 1

        space = stationary_space(ad)
        assert space.dim == 1
        assert_allclose(space.state.matrix, ket_bra(2, 0, 0), atol=1e-10)
        for b in space.basis:
            assert_allclose(b / np.trace(b), ket_bra(2, 0, 0), atol=1e-10)

    def test_th_detailed_balance(self, th):
        # oracle: p0 * gamma_up = p1 * gamma_down with rates (2, 1)
        space = stationary_space(th)
        assert space.dim == 1
        assert_allclose(space.state.matrix, np.diag([2.0, 1.0]) / 3.0, atol=1e-10)
        for b in space.basis:
            assert_allclose(b / np.trace(b), np.diag([2.0, 1.0]) / 3.0, atol=1e-10)

    def test_dfs3_full_block(self, dfs3):
        space = stationary_space(dfs3)
        assert space.dim == 4

    def test_identity_model_all_states(self):
        space = stationary_space(build_fixture("ID3"))
        assert space.dim == 9

    def test_states_are_stationary(self, m3, adk):
        for model in (m3, adk):
            space = stationary_space(model)
            for t in (1.0 if hasattr(model, "hamiltonian") else 1, 7.0 if hasattr(model, "hamiltonian") else 7):
                prop = propagator(model, t, "schrodinger")
                for x in (space.state.matrix, *space.basis):
                    assert opnorm(prop.apply(x) - x) <= 1e-9


class TestStationarySupport:
    def test_ad(self, ad):
        r = stationary_support(stationary_space(ad))
        assert_allclose(r.matrix, ket_bra(2, 0, 0), atol=1e-10)

    def test_m3(self, m3):
        r = stationary_support(stationary_space(m3))
        assert_allclose(r.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_th_faithful(self, th):
        r = stationary_support(stationary_space(th))
        assert r.rank == 2

    def test_hand_built_space(self):
        # the support of the state must hold every basis element
        ground, excited = ket_bra(2, 0, 0), ket_bra(2, 1, 1)
        state = DensityMatrix(ground)
        with pytest.raises(InternalError, match="maximal-state support"):
            stationary_support(StationarySpace((excited,), state, 1))
        r = stationary_support(StationarySpace((ground,), state, 1))
        assert_allclose(r.matrix, ground, atol=1e-12)


class TestMinimalEnclosures:
    def test_m3_unique_pair(self, m3):
        decomposition = minimal_enclosures(m3)
        assert decomposition.is_unique
        assert decomposition.fixed_algebra_dim == 2
        mats = sorted((p.matrix for p in decomposition.minimal_projections),
                      key=lambda m: -m[0, 0].real)
        assert_allclose(mats[0], np.diag([1.0, 0.0, 0.0]), atol=1e-8)
        assert_allclose(mats[1], np.diag([0.0, 1.0, 0.0]), atol=1e-8)

    def test_dfs3_non_unique_block(self, dfs3):
        decomposition = minimal_enclosures(dfs3)
        assert not decomposition.is_unique
        assert decomposition.fixed_algebra_dim == 4
        ps = decomposition.minimal_projections
        assert len(ps) == 2
        block = np.diag([1.0, 1.0, 0.0]).astype(complex)
        for p in ps:
            assert p.rank == 1
            assert opnorm(p.matrix - block @ p.matrix @ block) <= 1e-9
        assert opnorm(ps[0].matrix @ ps[1].matrix) <= 1e-9
        assert_allclose(proj_supremum(ps).matrix, block, atol=1e-8)

    def test_ad_single_ground(self, ad):
        decomposition = minimal_enclosures(ad)
        assert decomposition.is_unique
        assert len(decomposition.minimal_projections) == 1
        assert_allclose(decomposition.minimal_projections[0].matrix,
                        ket_bra(2, 0, 0), atol=1e-9)

    def test_members_subharmonic_and_minimal(self):
        for name in fixture_names():
            model = build_fixture(name)
            decomposition = minimal_enclosures(model)
            for p in decomposition.minimal_projections:
                assert is_subharmonic(model, p)
                sdim, state = restricted_stationary_dim(model, p)
                assert sdim == 1
                assert state.support().rank == p.rank

    def test_deterministic_for_seed(self, dfs3):
        first = minimal_enclosures(dfs3, seed=5)
        second = minimal_enclosures(dfs3, seed=5)
        for p, q in zip(first.minimal_projections, second.minimal_projections):
            assert opnorm(p.matrix - q.matrix) == 0.0


class TestRecurrentProjection:
    def test_ad_closed_form(self, ad):
        report = recurrent_projection(ad, horizon=30.0)
        assert_allclose(report.recurrent.matrix, ket_bra(2, 0, 0), atol=1e-9)
        # alpha_t(|0><0|) = 1 - exp(-t) |1><1|
        assert abs(report.sup_deviation - np.exp(-30.0)) <= 1e-15
        assert report.sup_deviation <= 1e-9

    def test_m3_transient_closed_form(self, m3):
        report = recurrent_projection(m3, horizon=30.0)
        assert_allclose(report.recurrent.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-9)
        # alpha_t(|2><2|) = exp(-2t) |2><2|
        assert abs(report.transient_norm - np.exp(-60.0)) <= 1e-27
        assert report.transient_norm <= 1e-12

    def test_th_faithful_family(self, th):
        report = recurrent_projection(th, horizon=5.0)
        assert report.faithful_family
        assert report.recurrent.rank == 2
        assert report.stationary_support.rank == 2
        assert report.sup_deviation <= 1e-12

    def test_supports_match_on_fixtures(self):
        for name in fixture_names():
            model = build_fixture(name)
            report = recurrent_projection(model, horizon=fixture_horizon(name))
            assert report.supports_match
            # the supremum of stationary supports is itself sub-harmonic
            assert is_subharmonic(model, report.stationary_support)

    def test_supports_match_on_random_models(self, rng):
        for k in range(10):
            dim = int(rng.integers(2, 5))
            if k % 2 == 0:
                model = random_generator(dim, int(rng.integers(1, 3)), rng)
            else:
                stable = int(rng.integers(1, dim))
                model = transient_block_generator(stable, dim - stable, rng)[0]
            report = recurrent_projection(model, horizon=30.0,
                                          seed=int(rng.integers(0, 10**6)))
            assert report.supports_match

    def test_limit_estimate_monotone_in_horizon(self, m3, ad):
        for model in (ad, m3):
            half = recurrent_projection(model, horizon=4.0)
            full = recurrent_projection(model, horizon=8.0)
            # directed family: later evolution dominates earlier
            assert order_leq(half.limit_estimate, full.limit_estimate)
            assert order_leq(full.limit_estimate,
                             np.eye(model.dim) + 1e-9 * np.eye(model.dim))
            assert full.sup_deviation <= half.sup_deviation + 1e-12
            assert full.transient_norm <= half.transient_norm + 1e-12

    def test_stationary_supports_below_recurrent(self):
        for name in fixture_names():
            model = build_fixture(name)
            report = recurrent_projection(model, horizon=fixture_horizon(name))
            space = stationary_space(model)
            assert order_leq(space.state.support().matrix, report.recurrent.matrix)
            for b in space.basis:
                supp = support_projection(b @ b.conj().T)
                assert order_leq(supp.matrix, report.recurrent.matrix)


class TestDecayIdeal:
    def test_m3_transient_unit(self, m3):
        report = recurrent_projection(m3, horizon=30.0)
        result = decay_ideal_test(m3, ket_bra(3, 0, 2), report.recurrent)
        assert result.in_ideal_algebraic and result.in_ideal_dynamic
        # oracle: alpha_t(a^dag a) = alpha_t(|2><2|) = exp(-2t) |2><2|
        assert abs(result.dynamic_residual - np.exp(-60.0)) <= 1e-27

    def test_m3_recurrent_unit(self, m3):
        report = recurrent_projection(m3, horizon=30.0)
        result = decay_ideal_test(m3, ket_bra(3, 0, 0), report.recurrent)
        assert not result.in_ideal_algebraic and not result.in_ideal_dynamic

    def test_zero_operator(self, m3):
        report = recurrent_projection(m3, horizon=30.0)
        result = decay_ideal_test(m3, np.zeros((3, 3)), report.recurrent)
        assert result.in_ideal_algebraic and result.in_ideal_dynamic

    def test_agreement_on_matrix_units(self):
        for name in fixture_names():
            model = build_fixture(name)
            horizon = fixture_horizon(name)
            report = recurrent_projection(model, horizon=horizon)
            for i in range(model.dim):
                for j in range(model.dim):
                    result = decay_ideal_test(model, ket_bra(model.dim, i, j),
                                              report.recurrent, horizon=horizon)
                    assert result.in_ideal_algebraic == result.in_ideal_dynamic

    def test_left_ideal_property(self, m3, rng):
        report = recurrent_projection(m3, horizon=30.0)
        ideal_units = [ket_bra(3, i, 2) for i in range(3)]  # columns hitting r_o to zero
        for a in ideal_units:
            assert opnorm(a @ report.recurrent.matrix) <= 1e-12
            for _ in range(5):
                c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                ca = c @ a
                assert opnorm(ca @ report.recurrent.matrix) <= 1e-10
                result = decay_ideal_test(m3, ca, report.recurrent)
                assert result.in_ideal_algebraic and result.in_ideal_dynamic


def equivalence_distance(model, a, recurrent, horizon):
    """``|alpha_T(a) - alpha_T(r a r)|``: how far ``a`` still is from its
    compression to the recurrent block at the horizon."""
    flow = Dynamics(model).flow(horizon)
    rm = recurrent.matrix
    return opnorm(flow.apply(a) - flow.apply(rm @ a @ rm))


class TestAsymptoticEquivalence:
    def test_ad_excited(self, ad):
        report = recurrent_projection(ad, horizon=30.0)
        value = equivalence_distance(ad, ket_bra(2, 1, 1), report.recurrent, 30.0)
        # r a r = 0, so the distance is exp(-30)
        assert abs(value - np.exp(-30.0)) <= 1e-15
        assert value <= 1e-12

    def test_compressed_operator_is_exact(self, m3, rng):
        report = recurrent_projection(m3, horizon=30.0)
        rm = report.recurrent.matrix
        a = rm @ (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) @ rm
        for horizon in (0.5, 3.0, 30.0):
            assert equivalence_distance(m3, a, report.recurrent, horizon) <= 1e-12

    def test_m3_transient_coherence(self, m3):
        report = recurrent_projection(m3, horizon=30.0)
        a = ket_bra(3, 0, 2) + ket_bra(3, 2, 0)
        assert equivalence_distance(m3, a, report.recurrent, 30.0) <= 1e-12

    def test_monotone_decrease(self, m3):
        report = recurrent_projection(m3, horizon=30.0)
        a = ket_bra(3, 0, 2) + ket_bra(3, 2, 0)
        grid = [0.5, 1.0, 2.0, 5.0, 10.0]
        values = [equivalence_distance(m3, a, report.recurrent, t) for t in grid]
        assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(values, values[1:]))


class TestCesaro:
    def test_identity_flow(self, id2, rng):
        rho = DensityMatrix(np.diag([0.3, 0.7]))
        out = cesaro_mean(id2, rho, 5.0)
        assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_ad_closed_form(self, ad):
        # (1/T) int exp(-t) dt gives trace distance 2 (1 - exp(-T)) / T
        rho = DensityMatrix(ket_bra(2, 1, 1))
        target = ket_bra(2, 0, 0)
        for horizon in (10.0, 20.0):
            mean = cesaro_mean(ad, rho, horizon)
            err = trace_norm(mean.matrix - target)
            exact = 2.0 * (1.0 - np.exp(-horizon)) / horizon
            assert abs(err - exact) <= 1e-12 * exact

    def test_rate_is_one_over_t(self, ad):
        rho = DensityMatrix(ket_bra(2, 1, 1))
        target = ket_bra(2, 0, 0)

        def error(horizon):
            mean = cesaro_mean(ad, rho, horizon)
            return trace_norm(mean.matrix - target)

        for horizon in (10.0, 20.0):
            ratio = error(2 * horizon) / error(horizon)
            assert 0.4 <= ratio <= 0.6

    def test_m3_oscillating_coherence(self, m3):
        # populations average to diag(1/2, 1/2, 0); the 0-1 coherence
        # rotates as exp(it) and averages down at the O(1/T) rate
        rho = DensityMatrix.pure(np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
        horizon = 50.0
        mean = cesaro_mean(m3, rho, horizon)
        assert_allclose(np.diag(mean.matrix).real, [0.5, 0.5, 0.0], atol=1e-12)
        exact = abs(np.exp(1j * horizon) - 1.0) / (2.0 * horizon)
        assert abs(abs(mean.matrix[0, 1]) - exact) <= 1e-12

    def test_discrete_channel_mean(self, adk):
        rho = DensityMatrix(ket_bra(2, 1, 1))
        mean = cesaro_mean(adk, rho, 200)
        assert trace_norm(mean.matrix - ket_bra(2, 0, 0)) <= 0.05

    @pytest.mark.parametrize("horizon", [0.3, 2.5, 1e-10])
    def test_discrete_horizon_must_be_a_positive_integer(self, adk, horizon):
        # 0.3 would round to zero iterates and 2.5 would silently become 2;
        # 1e-10 is within the integrality slack of zero iterates
        rho = DensityMatrix(ket_bra(2, 1, 1))
        with pytest.raises(ValueError):
            cesaro_mean(adk, rho, horizon)

    def test_discrete_single_iterate_is_the_state(self, adk):
        rho = DensityMatrix(ket_bra(2, 1, 1))
        assert_allclose(cesaro_mean(adk, rho, 1).matrix, rho.matrix, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 7, 200])
    def test_discrete_mean_matches_the_iterates(self, adk, n):
        rho = DensityMatrix(np.array([[0.4, 0.3j], [-0.3j, 0.6]]))
        step = propagator(adk, 1, SCHRODINGER)
        state, total = rho.matrix, np.zeros((2, 2), dtype=complex)
        for _ in range(n):
            total += state
            state = step.apply(state)
        assert opnorm(cesaro_mean(adk, rho, n).matrix - total / n) <= 1e-14

    @pytest.mark.parametrize("name", ["AD", "ADK"])
    def test_one_propagation(self, monkeypatch, name):
        calls = []
        original = qdsa.asymptotics._propagate

        def counted(r, t, discrete):
            calls.append(r.shape)
            return original(r, t, discrete)

        monkeypatch.setattr(qdsa.asymptotics, "_propagate", counted)
        cesaro_mean(build_fixture(name), DensityMatrix.maximally_mixed(2), 20)
        assert calls == [(5, 5)]  # the 4 x 4 real form and one augmented row

    def test_exact_limit(self, m3):
        rho = DensityMatrix.pure(np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
        limit = cesaro_limit(m3, rho)
        assert_allclose(limit.matrix, np.diag([0.5, 0.5, 0.0]), atol=1e-10)

    def test_validates_arguments(self, ad):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            cesaro_mean(ad, rho, -1.0)


@pytest.mark.parametrize("name", ["TH", "AD", "ADK"])
@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -1.0, 0.0])
class TestHorizonRule:
    """A horizon is accepted only when ``0 < T < inf``."""

    def test_recurrent_projection(self, name, horizon):
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            recurrent_projection(build_fixture(name), horizon=horizon)

    def test_cesaro_mean(self, name, horizon):
        model = build_fixture(name)
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            cesaro_mean(model, DensityMatrix.maximally_mixed(model.dim), horizon)


_WRONG_DIM = {
    "subharmonic_residual": lambda m, p, rho: subharmonic_residual(m, p),
    "is_subharmonic": lambda m, p, rho: is_subharmonic(m, p),
    "is_superharmonic": lambda m, p, rho: is_superharmonic(m, p),
    "decay_ideal_test": lambda m, p, rho: decay_ideal_test(m, np.eye(2), p),
    "minimality_certificate": lambda m, p, rho: minimality_certificate(
        m, p, minimal_enclosures(m), trials=1),
    "restricted_stationary_dim": lambda m, p, rho: restricted_stationary_dim(m, p),
    "cesaro_limit": lambda m, p, rho: cesaro_limit(m, rho),
    "cesaro_mean": lambda m, p, rho: cesaro_mean(m, rho, 5),
}


@pytest.mark.parametrize("name", ["AD", "ADK"])
@pytest.mark.parametrize("call", sorted(_WRONG_DIM))
def test_operand_of_the_wrong_dimension_is_dim_mismatch(name, call):
    # a 3 x 3 projection or state against a qubit model
    p = Projection.from_range_basis(np.eye(3)[:, :2], 3)
    with pytest.raises(DimMismatch):
        _WRONG_DIM[call](build_fixture(name), p, DensityMatrix.maximally_mixed(3))


def test_exact_subharmonic_tests_check_the_dimension():
    # both now take the check from subharmonic_residual
    p = Projection.from_range_basis(np.eye(3)[:, :2], 3)
    with pytest.raises(DimMismatch):
        kraus_invariance_test(build_fixture("ADK"), p)
    with pytest.raises(DimMismatch):
        is_subharmonic_generator(build_fixture("AD"), p)


class TestObliqueComponent:
    """``K (L^T K)^-1 L^T v`` against the ``[kernel, range]`` solve it replaced."""

    @pytest.mark.parametrize("name", fixture_names())
    def test_matches_kernel_range_solve(self, name, rng):
        dyn = Dynamics(build_fixture(name))
        m = _fixed_point_matrix(dyn.schrodinger, dyn.discrete)
        kernel, left = _split_kernel_range(m, DEFAULT_TOL)
        u, sv, _ = np.linalg.svd(m)
        range_ = u[:, sv > max(DEFAULT_TOL.rank_rtol * sv[0], DEFAULT_TOL.atol)]
        basis = np.hstack([kernel, range_])
        for _ in range(3):
            v = rng.standard_normal(m.shape[0])
            old = kernel @ np.linalg.solve(basis, v)[:kernel.shape[1]]
            assert np.linalg.norm(_kernel_component(kernel, left, v) - old) <= 1e-12

    def test_defective_zero_eigenvalue_is_internal_error(self):
        # a nilpotent block: the kernel e_0 and left kernel e_1 are orthogonal
        kernel, left = _split_kernel_range(np.array([[0.0, 1.0], [0.0, 0.0]]), DEFAULT_TOL)
        with pytest.raises(InternalError, match="defective"):
            _kernel_component(kernel, left, np.ones(2))


class TestMinimalityCertificate:
    def test_m3_half_eigenvalue(self, m3):
        # oracle: on the remaining stable level the occupation of the
        # transient level obeys c' = 1 - 2c, limiting at 1/2
        report = recurrent_projection(m3, horizon=30.0)
        cert = minimality_certificate(m3, report.recurrent, report.enclosures,
                                      trials=50, horizon=30.0)
        assert cert.ok
        for gap in cert.enclosure_gaps:
            assert gap.bounded_away
            assert np.min(np.abs(gap.eigenvalues - 0.5)) <= 1e-6

    def test_ad_trivial_remainder(self, ad):
        report = recurrent_projection(ad, horizon=30.0)
        cert = minimality_certificate(ad, report.recurrent, report.enclosures,
                                      trials=50, horizon=30.0)
        assert cert.ok
        assert_allclose(cert.enclosure_gaps[0].eigenvalues, np.zeros(2), atol=1e-12)

    def test_th_sweep_only_accepts_identity(self, th):
        report = recurrent_projection(th, horizon=30.0)
        cert = minimality_certificate(th, report.recurrent, report.enclosures,
                                      trials=300, horizon=30.0)
        assert cert.ok
        assert cert.near_identity_count > 0  # full-rank draws reach 1 exactly
