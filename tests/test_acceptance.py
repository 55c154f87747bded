"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``); the
expected values come from closed forms, direct matrix arithmetic, or
independent solves written out inside the tests.
"""

import numpy as np
import pytest
import scipy.linalg

from conftest import ket_bra
from qdsa.asymptotics import (
    cesaro_mean,
    minimal_enclosures,
    minimality_certificate,
    recurrent_projection,
    stationary_space,
)
from qdsa.channels import (
    HEISENBERG,
    DensityMatrix,
    apply_heisenberg,
    generator_to_channel,
    propagator,
    stinespring_dilate,
    to_superoperator,
    unvec,
    vec,
)
from qdsa.harmonic import (
    fixed_point_support_check,
    is_subharmonic_generator,
    kraus_invariance_test,
    subharmonic_report,
    subharmonic_residual,
)
from qdsa.linalg import (
    Projection,
    hermitian_part,
    opnorm,
    proj_supremum,
    trace_norm,
)
from qdsa.models import build_fixture, fixture_horizon, fixture_names
from qdsa.sampling import (
    block_diagonal_channel,
    haar_random_channel,
    random_generator,
    random_projection,
    transient_block_generator,
)


class _criterion:
    """Context manager printing one pass/fail line per criterion."""

    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {status} criterion {self.number:2d}: {self.name}")
        return False


def _random_partition(dim, rng):
    parts = []
    left = dim
    while left > 0:
        b = int(rng.integers(1, left + 1))
        parts.append(b)
        left -= b
    return parts


def test_criterion_1_subharmonic_conditions_agree():
    rng = np.random.default_rng(101)
    with _criterion(1, "four sub-harmonicity conditions agree on random channels"):
        checked = 0
        for trial in range(210):
            dim = int(rng.integers(2, 5))
            if trial % 2 == 0:
                ch = haar_random_channel(dim, int(rng.integers(1, 5)), rng)
                projections = [random_projection(dim, int(rng.integers(0, dim + 1)), rng)]
            else:
                parts = _random_partition(dim, rng)
                ch, blocks = block_diagonal_channel(parts, int(rng.integers(1, 4)), rng)
                mask = rng.integers(0, 2, size=len(blocks))
                chosen = [blocks[i] for i in range(len(blocks)) if mask[i]]
                projections = [random_projection(dim, int(rng.integers(0, dim + 1)), rng)]
                if chosen:
                    basis = np.hstack([b.range_basis for b in chosen])
                    projections.append(Projection.from_range_basis(basis, dim))
            for p in projections:
                checked += 1
                report = subharmonic_report(ch, p, trials=8, rng=rng)
                assert report.consistent(), "decisive conditions disagree"
                assert kraus_invariance_test(ch, p) == report.verdict
        assert checked >= 200


def test_criterion_2_lattice_closure():
    rng = np.random.default_rng(202)
    with _criterion(2, "sub/super-harmonic families closed under inf and sup"):
        from qdsa.harmonic import subharmonic_closure, is_superharmonic
        from qdsa.linalg import proj_infimum

        families = 0
        while families < 40:
            dim = int(rng.integers(3, 6))
            parts = _random_partition(dim, rng)
            if len(parts) < 2:
                continue
            ch, blocks = block_diagonal_channel(parts, int(rng.integers(1, 4)), rng)
            family = []
            for _ in range(int(rng.integers(2, 5))):
                mask = rng.integers(0, 2, size=len(blocks))
                chosen = [blocks[i] for i in range(len(blocks)) if mask[i]]
                if chosen:
                    basis = np.hstack([b.range_basis for b in chosen])
                    family.append(Projection.from_range_basis(basis, dim))
            if len(family) < 2:
                continue
            families += 1
            result = subharmonic_closure(ch, family)
            assert subharmonic_residual(ch, result.infimum) <= 1e-8
            assert subharmonic_residual(ch, result.supremum) <= 1e-8
            # dual family: complements are super-harmonic and stay closed
            dual = [p.complement() for p in family]
            dual_sup = proj_supremum(dual)
            dual_inf = proj_infimum(dual)
            assert is_superharmonic(ch, dual_sup)
            assert is_superharmonic(ch, dual_inf)


def test_criterion_3_recurrent_limit_on_fixtures():
    with _criterion(3, "recurrent projection reaches 1, transient corner decays"):
        ad_report = recurrent_projection(build_fixture("AD"), horizon=30.0)
        assert ad_report.sup_deviation <= 1e-9  # closed form exp(-30)

        m3_report = recurrent_projection(build_fixture("M3"), horizon=30.0)
        assert m3_report.transient_norm <= 1e-12  # closed form exp(-60)

        from qdsa.asymptotics import decay_ideal_test

        for name in fixture_names():
            model = build_fixture(name)
            horizon = fixture_horizon(name)
            report = recurrent_projection(model, horizon=horizon)
            for i in range(model.dim):
                for j in range(model.dim):
                    result = decay_ideal_test(model, ket_bra(model.dim, i, j),
                                              report.recurrent, horizon=horizon)
                    assert result.in_ideal_algebraic == result.in_ideal_dynamic, \
                        f"{name}: unit ({i},{j})"


def test_criterion_4_closed_form_evolution():
    with _criterion(4, "evolution matches closed forms"):
        ad = build_fixture("AD")
        m3 = build_fixture("M3")
        for t in (0.5, 1.0, 2.0, 5.0):
            out = propagator(ad, t, HEISENBERG).apply(ket_bra(2, 1, 1))
            assert opnorm(out - np.exp(-t) * ket_bra(2, 1, 1)) <= 1e-10
            out = propagator(m3, t, HEISENBERG).apply(ket_bra(3, 2, 2))
            assert opnorm(out - np.exp(-2 * t) * ket_bra(3, 2, 2)) <= 1e-10


def test_criterion_5_enclosure_decomposition():
    with _criterion(5, "minimal enclosures on M3, DFS3 and AD"):
        m3 = minimal_enclosures(build_fixture("M3"))
        assert m3.is_unique
        mats = sorted((p.matrix for p in m3.minimal_projections),
                      key=lambda m: -m[0, 0].real)
        assert opnorm(mats[0] - np.diag([1.0, 0.0, 0.0])) <= 1e-8
        assert opnorm(mats[1] - np.diag([0.0, 1.0, 0.0])) <= 1e-8

        dfs3 = minimal_enclosures(build_fixture("DFS3"))
        assert not dfs3.is_unique
        ps = dfs3.minimal_projections
        block = np.diag([1.0, 1.0, 0.0]).astype(complex)
        assert len(ps) == 2
        for p in ps:
            assert p.rank == 1
            assert opnorm(p.matrix - block @ p.matrix @ block) <= 1e-8
        assert opnorm(ps[0].matrix @ ps[1].matrix) <= 1e-8
        assert opnorm(proj_supremum(ps).matrix - block) <= 1e-8

        ad = minimal_enclosures(build_fixture("AD"))
        assert len(ad.minimal_projections) == 1
        assert opnorm(ad.minimal_projections[0].matrix - ket_bra(2, 0, 0)) <= 1e-8


def test_criterion_6_faithful_family_rule():
    with _criterion(6, "faithful stationary family forces full recurrence"):
        th = build_fixture("TH")
        report = recurrent_projection(th, horizon=30.0)
        assert report.faithful_family
        assert report.recurrent.rank == 2
        space = stationary_space(th)
        for x in (space.state.matrix, *(b / np.trace(b) for b in space.basis)):
            assert opnorm(x - np.diag([2.0, 1.0]) / 3.0) <= 1e-10


def test_criterion_7_stationary_support_equals_recurrent():
    rng = np.random.default_rng(707)
    with _criterion(7, "stationary support equals the recurrent projection"):
        count = 0
        for name in fixture_names():
            report = recurrent_projection(build_fixture(name),
                                          horizon=fixture_horizon(name))
            assert report.supports_match
            count += 1
        for k in range(50):
            dim = int(rng.integers(2, 5))
            if k % 2 == 0:
                model = random_generator(dim, int(rng.integers(1, 3)), rng)
            else:
                stable = int(rng.integers(1, dim))
                model = transient_block_generator(stable, dim - stable, rng)[0]
            report = recurrent_projection(model, horizon=30.0,
                                          seed=int(rng.integers(0, 10**6)))
            mismatch = opnorm(report.recurrent.matrix
                              - report.stationary_support.matrix)
            assert mismatch <= 1e-7, f"model {k}: mismatch {mismatch:.3e}"
            count += 1
        assert count >= 50


def _averaged_fixed_point(ch, a):
    """Independent oracle: project a PSD element onto the Heisenberg fixed
    space along the range of (alpha - id), then clip rounding negatives."""
    s = to_superoperator(ch, HEISENBERG).matrix
    m = s - np.eye(s.shape[0])
    u, sv, vh = np.linalg.svd(m)
    cutoff = max(1e-8 * float(sv[0]), 1e-9)
    kernel = vh[sv <= cutoff].conj().T
    range_ = u[:, sv > cutoff]
    coeff = np.linalg.solve(np.hstack([kernel, range_]), vec(a))
    x = hermitian_part(unvec(kernel @ coeff[:kernel.shape[1]], ch.dim))
    w, v = np.linalg.eigh(x)
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def test_criterion_8_fixed_point_supports_and_dilation():
    rng = np.random.default_rng(808)
    with _criterion(8, "fixed-point supports super-harmonic; dilation reconstructs"):
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            ch = haar_random_channel(dim, int(rng.integers(1, 4)), rng)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            x = _averaged_fixed_point(ch, g @ g.conj().T)
            assert opnorm(apply_heisenberg(ch, x) - x) <= 1e-9
            s, _ = fixed_point_support_check(ch, x)
            defect = -float(np.linalg.eigvalsh(
                hermitian_part(s.matrix - apply_heisenberg(ch, s.matrix)))[0])
            assert defect <= 1e-8

            dil = stinespring_dilate(ch)
            for i in range(dim):
                for j in range(dim):
                    unit = ket_bra(dim, i, j)
                    assert opnorm(dil.reconstruct(unit)
                                  - apply_heisenberg(ch, unit)) <= 1e-12


def test_criterion_9_cesaro_rate():
    with _criterion(9, "time-average convergence at the 1/T rate"):
        ad = build_fixture("AD")
        rho = DensityMatrix(ket_bra(2, 1, 1))
        target = ket_bra(2, 0, 0)

        def error(horizon):
            mean = cesaro_mean(ad, rho, horizon)
            return trace_norm(mean.matrix - target)

        for horizon in (10.0, 20.0):
            ratio = error(2 * horizon) / error(horizon)
            assert 0.4 <= ratio <= 0.6


def test_criterion_10_minimality_certificate():
    with _criterion(10, "nothing below the recurrent projection reaches 1"):
        m3 = build_fixture("M3")
        report = recurrent_projection(m3, horizon=30.0)
        cert = minimality_certificate(m3, report.recurrent, report.enclosures,
                                      trials=200, horizon=30.0)
        assert cert.ok
        # oracle: occupation of the lost level obeys c' = 1 - 2c, limit 1/2
        e11 = np.diag([0.0, 1.0, 0.0])
        for gap in cert.enclosure_gaps:
            if opnorm(gap.projection.matrix - e11) <= 1e-8:
                assert np.min(np.abs(gap.eigenvalues - 0.5)) <= 1e-6
                break
        else:
            raise AssertionError("missing enclosure diag(0,1,0)")

        for name in fixture_names():
            model = build_fixture(name)
            horizon = fixture_horizon(name)
            rep = recurrent_projection(model, horizon=horizon)
            cert = minimality_certificate(model, rep.recurrent, rep.enclosures,
                                          trials=200, horizon=horizon,
                                          seed=1010)
            assert cert.ok, f"{name}: certificate failed"


def test_criterion_11_limit_never_implies_subharmonic():
    rng = np.random.default_rng(1111)
    with _criterion(11, "near-identity limits never imply sub-harmonicity"):
        m3 = build_fixture("M3")
        report = recurrent_projection(m3, horizon=30.0)
        prop = propagator(m3, 30.0, HEISENBERG)
        channel = generator_to_channel(m3, 1.0)
        candidate = None
        for _ in range(300):
            k = hermitian_part(rng.standard_normal((3, 3))
                               + 1j * rng.standard_normal((3, 3)))
            theta = 10.0 ** rng.uniform(-6.0, -4.2)
            u = scipy.linalg.expm(1j * theta * k)
            p = Projection.from_range_basis(u @ report.recurrent.range_basis, 3)
            deviation = opnorm(hermitian_part(prop.apply(p.matrix)) - np.eye(3))
            if (deviation <= 1e-8
                    and subharmonic_residual(m3, p) >= 1e-8
                    and subharmonic_residual(channel, p) >= 1e-8):
                candidate = p
                break
        if candidate is None:
            pytest.skip("search found no near-limit candidate (not a failure)")
        # the candidate reaches the identity within tolerance, yet every
        # decision path must still reject it: sub-harmonicity is decided
        # algebraically, never from the size of alpha_T(p) - 1
        assert not is_subharmonic_generator(m3, candidate)
        assert not kraus_invariance_test(channel, candidate)


def test_property_harness_full_run():
    from qdsa.verify import format_summary, run_verify

    with _criterion(0, "randomized property harness (seed 42, 100 trials)"):
        summary = run_verify(seed=42, trials=100, dims=(2, 3, 4))
        assert summary.passed, "\n" + format_summary(summary)
        assert format_summary(summary) == format_summary(
            run_verify(seed=42, trials=100, dims=(2, 3, 4)))
