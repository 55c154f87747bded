import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qdsa.asymptotics
from conftest import ket_bra
from qdsa.asymptotics import (
    Dynamics,
    StationarySpace,
    _fixed_point_form,
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
    SCHRODINGER,
    DensityMatrix,
    LindbladGenerator,
    generator_to_channel,
    propagator,
)
from qdsa.harmonic import (
    is_subharmonic,
    is_subharmonic_generator,
    is_superharmonic,
    kraus_invariance_test,
    subharmonic_residual,
)
from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.errors import (
    ConvergenceFailure,
    DimMismatch,
    FamilyNotSubharmonic,
    InternalError,
    ValidationError,
)
from qdsa.linalg import (
    DEFAULT_TOL,
    Projection,
    opnorm,
    order_leq,
    proj_supremum,
    support_projection,
    trace_norm,
)
from qdsa.modelio import ModelSpec, parse_model
from qdsa.models import build_fixture, fixture_horizon, fixture_names
from qdsa.sampling import block_diagonal_channel, random_generator, transient_block_generator


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

    def test_leaking_block_is_not_certified(self):
        # L = |0><2| carries the block |1>, |2> out of itself (residual 1.0);
        # its corner is no semigroup and once read as a certificate (1, |1><1|)
        gen = LindbladGenerator(np.zeros((3, 3)), [ket_bra(3, 0, 2)])
        p = Projection.from_range_basis(np.eye(3)[:, 1:], 3)
        assert subharmonic_residual(gen, p) == 1.0
        with pytest.raises(FamilyNotSubharmonic, match=r"residual 1\.000e\+00"):
            restricted_stationary_dim(gen, p)

    def test_deterministic_for_seed(self, dfs3):
        first = minimal_enclosures(dfs3, seed=5)
        second = minimal_enclosures(dfs3, seed=5)
        for p, q in zip(first.minimal_projections, second.minimal_projections):
            assert opnorm(p.matrix - q.matrix) == 0.0


def _analyze_ladder():
    """The seed-1 rungs of the benchmark's analyze ladder."""
    rng = np.random.default_rng
    return ([transient_block_generator(d // 2, d - d // 2, rng(1))[0] for d in (4, 8, 12)]
            + [block_diagonal_channel([4] * (d // 4), 2, rng(1))[0] for d in (8, 16)])


class TestSingleSplit:
    """The recurrent corner, or each certified class of it, is split once; a
    split that merged two clusters is redrawn whole."""

    @staticmethod
    def _merged_draws(monkeypatch, merged):
        """Count the draws; the first ``merged`` of them are ``diag(1, 1, 2)``."""
        draws = []
        original = qdsa.asymptotics.random_combination

        def drawn(elements, rng):
            draws.append(len(elements))
            if len(draws) <= merged:
                return np.diag([1.0, 1.0, 2.0]).astype(complex)
            return original(elements, rng)

        monkeypatch.setattr(qdsa.asymptotics, "random_combination", drawn)
        return draws

    def test_merged_draw_is_redrawn(self, monkeypatch):
        model = build_fixture("ID3")
        draws = self._merged_draws(monkeypatch, 1)
        decomposition = minimal_enclosures(model)
        assert len(draws) == 2
        assert [p.rank for p in decomposition.minimal_projections] == [1, 1, 1]
        draws.clear()
        assert run_analyze(model).passed
        assert len(draws) == 2

    def test_always_merged_draws_fail_after_eight(self, monkeypatch):
        draws = self._merged_draws(monkeypatch, math.inf)
        with pytest.raises(ConvergenceFailure, match="no generic fixed element"):
            minimal_enclosures(build_fixture("ID3"))
        assert len(draws) == 8

    def test_failed_block_certificate_is_convergence_failure(self, monkeypatch):
        # a corner whose one stationary state misses half of its block
        damped = Dynamics(build_fixture("AD"))
        monkeypatch.setattr(qdsa.asymptotics, "_corner", lambda dyn, w: damped)
        with pytest.raises(ConvergenceFailure, match="support of rank 1"):
            minimal_enclosures(build_fixture("TH"))

    @pytest.mark.parametrize("name", ["AD", "ADK"])
    def test_non_invariant_recurrent_block_is_internal_error(self, name):
        # |1><1| decays into |0><0|, so it is not invariant: its corner, the
        # exact compression, leaks and has no stationary state
        dyn = Dynamics(build_fixture(name))
        dyn.support = Projection.from_matrix(ket_bra(2, 1, 1))
        with pytest.raises(InternalError, match="fixed-point kernel is empty"):
            recurrent_projection(dyn)

    @pytest.mark.parametrize("model", [build_fixture(name) for name in fixture_names()]
                             + _analyze_ladder())
    def test_clusters_once_per_draw_on_the_top_corner(self, monkeypatch, model):
        clustered = []
        original = qdsa.asymptotics._cluster_eigenvalues

        def recording(w, scale):
            clustered.append(len(w))
            return original(w, scale)

        monkeypatch.setattr(qdsa.asymptotics, "_cluster_eigenvalues", recording)
        draws = self._merged_draws(monkeypatch, 0)
        dyn = Dynamics(model)
        decomposition = minimal_enclosures(dyn)
        if dyn.reduction[1] is not None:
            # each certified class is a block of its own, with no draw
            assert clustered == draws == []
            return
        assert len(clustered) == len(draws) == (decomposition.fixed_algebra_dim > 1)
        assert set(clustered) <= {dyn.support.rank}


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


def _parse_with_horizon(model, horizon, tmp_path):
    """``parse_model`` on a file holding ``model`` and ``horizon``."""
    data = {**ModelSpec("model", model, None, None).to_json_dict(), "horizon": horizon}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data), encoding="utf-8")  # NaN and Infinity as json writes them
    return parse_model(path)


_HORIZON_RULE = "horizon must be positive and finite"
_TIME_RULE = "time must be nonnegative and finite"

# every entry point that takes a horizon or a time, and the rule it applies
_ENTRY_POINTS = {
    "propagator": (_TIME_RULE, lambda m, t, tmp: propagator(m, t)),
    "generator_to_channel": (_TIME_RULE, lambda m, t, tmp: generator_to_channel(m, t)),
    "Dynamics.flow": (_TIME_RULE, lambda m, t, tmp: Dynamics(m).flow(t)),
    "cesaro_mean": (_HORIZON_RULE, lambda m, t, tmp: cesaro_mean(
        m, DensityMatrix.maximally_mixed(m.dim), t)),
    "recurrent_projection": (_HORIZON_RULE, lambda m, t, tmp: recurrent_projection(
        m, horizon=t)),
    "decay_ideal_test": (_HORIZON_RULE, lambda m, t, tmp: decay_ideal_test(
        m, np.eye(m.dim), Projection.identity(m.dim), t)),
    "minimality_certificate": (_HORIZON_RULE, lambda m, t, tmp: minimality_certificate(
        m, Projection.identity(m.dim), minimal_enclosures(m), trials=1, horizon=t)),
    "run_analyze": (_HORIZON_RULE, lambda m, t, tmp: run_analyze(
        m, AnalysisOptions(horizon=t))),
    "model-file": (_HORIZON_RULE, _parse_with_horizon),
}


@pytest.mark.parametrize("name", ["TH", "AD", "ADK"])
class TestHorizonRule:
    """A time must be ``0 <= t < inf`` and a horizon ``0 < T < inf``; on a
    channel either is an iteration count, of at least 1 for a horizon.  The
    one rule sits in ``channels`` and its error is a ValidationError, which
    is also a ValueError."""

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -1.0, 0.0])
    def test_recurrent_projection(self, name, horizon):
        with pytest.raises(ValidationError, match="horizon must be positive and finite"):
            recurrent_projection(build_fixture(name), horizon=horizon)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -1.0, 0.0])
    def test_cesaro_mean(self, name, horizon):
        model = build_fixture(name)
        with pytest.raises(ValidationError, match="horizon must be positive and finite"):
            cesaro_mean(model, DensityMatrix.maximally_mixed(model.dim), horizon)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -1.0, 0.0])
    def test_decay_ideal_test(self, name, horizon):
        model = build_fixture(name)
        with pytest.raises(ValidationError, match="horizon must be positive and finite"):
            decay_ideal_test(model, np.eye(model.dim), Projection.identity(model.dim), horizon)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -1.0, 0.0])
    def test_minimality_certificate(self, name, horizon):
        model = build_fixture(name)
        with pytest.raises(ValidationError, match="horizon must be positive and finite"):
            minimality_certificate(model, Projection.identity(model.dim),
                                   minimal_enclosures(model), trials=1, horizon=horizon)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, 0.0, 2.5])
    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_every_entry_point(self, name, entry, value, tmp_path):
        rule, call = _ENTRY_POINTS[entry]
        model = build_fixture(name)
        if (value == 0.0 and rule == _TIME_RULE) or (value == 2.5 and name != "ADK"):
            call(model, value, tmp_path)  # a time may be 0; a generator's need not be whole
            return
        message = "discrete channels need an integer horizon" if value == 2.5 else rule
        with pytest.raises(ValidationError, match=f"{message}, got {value}$") as info:
            call(model, value, tmp_path)
        assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("call", [
    lambda: propagator(build_fixture("ADK"), 2.5),
    lambda: propagator(build_fixture("ADK"), np.nan),
    lambda: propagator(build_fixture("AD"), np.inf),
    lambda: generator_to_channel(build_fixture("AD"), np.nan),
    lambda: cesaro_mean(build_fixture("ADK"), DensityMatrix.maximally_mixed(2), 0.3),
    lambda: decay_ideal_test(build_fixture("ADK"), np.eye(2), Projection.identity(2), 2.5),
], ids=["channel-fraction", "channel-nan", "generator-inf", "to-channel-nan",
        "mean-zero-iterates", "decay-fraction"])
def test_every_horizon_error_is_typed(call):
    """No horizon or time the library rejects is a bare ValueError."""
    with pytest.raises(ValidationError) as info:
        call()
    assert isinstance(info.value, ValueError)


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
        m = _fixed_point_form(dyn)
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
