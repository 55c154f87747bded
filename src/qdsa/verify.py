"""Randomized property harness behind the ``verify`` subcommand.

Each property draws its inputs from one explicit seed and reports a trial
count, a failure count and the worst observed defect (a property-specific
residual that is zero for a clean pass).  The summary is deterministic for
a fixed seed: running twice produces byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    DEFAULT_DECAY_TOL,
    Dynamics,
    _kernel_component,
    decay_ideal_test,
    recurrent_projection,
)
from .channels import (
    HEISENBERG,
    _matrix_units,
    apply_heisenberg,
    from_hermitian_coords,
    hermitian_coords,
    propagator,
    stinespring_dilate,
)
from .errors import TheoremViolation, ValidationError
from .harmonic import (
    fixed_point_support_check,
    is_subharmonic,
    is_subharmonic_generator,
    is_superharmonic,
    kraus_invariance_test,
    subharmonic_report,
    subharmonic_residual,
)
from .linalg import (
    Projection,
    ToleranceConfig,
    _decisive,
    hermitian_part,
    opnorm,
    order_leq,
    proj_infimum,
    proj_supremum,
    projection_order_diagnostic,
    support_projection,
)
from .models import fixture_names
from .sampling import (
    block_diagonal_channel,
    haar_random_channel,
    random_density_matrix,
    random_generator,
    random_hermitian,
    random_projection,
    random_unit_interval_hermitian,
    transient_block_generator,
)

__all__ = ["PropertyResult", "VerifySummary", "run_verify", "format_summary"]


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    failures: int
    worst: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class VerifySummary:
    seed: int
    trials: int
    dims: tuple
    results: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _indicator(bad: bool) -> float:
    return 1.0 if bad else 0.0


def _random_channel(dim, rng):
    return haar_random_channel(dim, int(rng.integers(1, 5)), rng)


def _check_order_diagnostic(rng, trials, dims, tol):
    failures = 0
    worst = 0.0
    count = 0
    for dim in dims:
        for _ in range(trials):
            count += 1
            x = random_unit_interval_hermitian(dim, rng)
            p = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
            diag = projection_order_diagnostic(x, p, tol)
            bad = not diag.consistent()
            failures += bad
            worst = max(worst, _indicator(bad))
    return PropertyResult("order-diagnostic-agreement", count, failures, worst)


def _check_duality(rng, trials, dims, tol):
    failures = 0
    worst = 0.0
    count = 0
    for dim in dims:
        for _ in range(trials):
            count += 1
            ch = _random_channel(dim, rng)
            rho = random_density_matrix(dim, rng)
            a = random_hermitian(dim, rng)
            nu = sum(v @ rho @ v.conj().T for v in ch.kraus_ops)
            defect = abs(complex(np.trace(nu @ a))
                         - complex(np.trace(rho @ apply_heisenberg(ch, a))))
            worst = max(worst, defect)
            failures += defect > 1e-10
    return PropertyResult("heisenberg-schrodinger-duality", count, failures, worst)


def _check_kadison_schwarz(rng, trials, dims, tol):
    failures = 0
    worst = 0.0
    count = 0
    for dim in dims:
        for _ in range(trials):
            count += 1
            ch = _random_channel(dim, rng)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            lhs = apply_heisenberg(ch, g).conj().T @ apply_heisenberg(ch, g)
            rhs = apply_heisenberg(ch, g.conj().T @ g)
            defect = max(0.0, -float(np.linalg.eigvalsh(hermitian_part(rhs - lhs))[0]))
            worst = max(worst, defect)
            failures += defect > tol.atol
    return PropertyResult("kadison-schwarz", count, failures, worst)


def _invariant_and_random_projections(ch, blocks, rng):
    """Mix of known-invariant block unions and Haar-random projections."""
    out = []
    n = len(blocks)
    for _ in range(2):
        mask = rng.integers(0, 2, size=n)
        chosen = [blocks[i] for i in range(n) if mask[i]]
        if chosen:
            basis = np.hstack([p.range_basis for p in chosen])
            out.append(Projection.from_range_basis(basis, ch.dim))
    out.append(random_projection(ch.dim, int(rng.integers(0, ch.dim + 1)), rng))
    return out


def _check_subharmonic_agreement(rng, trials, dims, tol):
    failures = 0
    worst = 0.0
    count = 0
    for dim in dims:
        for t in range(trials):
            if t % 2 == 0:
                ch = _random_channel(dim, rng)
                blocks = []
            else:
                parts = _random_partition(dim, rng)
                ch, blocks = block_diagonal_channel(parts, int(rng.integers(1, 4)), rng)
            for p in _invariant_and_random_projections(ch, blocks, rng):
                count += 1
                report = subharmonic_report(ch, p, trials=8, tol=tol, rng=rng)
                bad = not report.consistent()
                bad = bad or (kraus_invariance_test(ch, p, tol) != report.verdict)
                failures += bad
                worst = max(worst, _indicator(bad))
    return PropertyResult("subharmonic-conditions-agree", count, failures, worst)


def _random_partition(dim, rng):
    parts = []
    left = dim
    while left > 0:
        b = int(rng.integers(1, left + 1))
        parts.append(b)
        left -= b
    return parts


def _check_generator_criterion(rng, trials, dims, tol):
    failures = 0
    worst = 0.0
    count = 0
    times = (0.1, 1.0, 10.0)
    for dim in dims:
        if dim < 2:
            continue
        for _ in range(max(1, trials // 4)):
            k = int(rng.integers(1, dim))
            gen, block = transient_block_generator(k, dim - k, rng)
            flows = [propagator(gen, t, HEISENBERG) for t in times]
            for p in (block, random_projection(dim, int(rng.integers(1, dim + 1)), rng)):
                count += 1
                algebraic = is_subharmonic_generator(gen, p, tol)
                orbit = all(order_leq(p.matrix, hermitian_part(flow.apply(p.matrix)), tol)
                            for flow in flows)
                residual = subharmonic_residual(gen, p)
                bad = _decisive(residual, tol.atol) and (algebraic != orbit)
                failures += bad
                worst = max(worst, _indicator(bad))
    return PropertyResult("generator-criterion-matches-orbit", count, failures, worst)


def _check_complement_duality(rng, trials, dims, tol):
    failures = 0
    worst = 0.0
    count = 0
    for dim in dims:
        for _ in range(trials):
            count += 1
            ch = _random_channel(dim, rng)
            p = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
            bad = is_subharmonic(ch, p, tol) != is_superharmonic(ch, p.complement(), tol)
            failures += bad
            worst = max(worst, _indicator(bad))
    return PropertyResult("complement-duality", count, failures, worst)


def _check_lattice_closure(rng, trials, dims, tol, super_side: bool):
    failures = 0
    worst = 0.0
    count = 0
    for dim in dims:
        if dim < 2:
            continue
        for _ in range(max(1, trials // 2)):
            parts = _random_partition(dim, rng)
            if len(parts) < 2:
                continue
            ch, blocks = block_diagonal_channel(parts, int(rng.integers(1, 4)), rng)
            n = len(blocks)
            family = []
            for _ in range(int(rng.integers(2, 5))):
                mask = rng.integers(0, 2, size=n)
                chosen = [blocks[i] for i in range(n) if mask[i]]
                if not chosen:
                    continue
                basis = np.hstack([p.range_basis for p in chosen])
                member = Projection.from_range_basis(basis, dim)
                family.append(member.complement() if super_side else member)
            if len(family) < 2:
                continue
            count += 1
            inf = proj_infimum(family, tol)
            sup = proj_supremum(family, tol)
            if super_side:
                residual = max(subharmonic_residual(ch, inf.complement()),
                               subharmonic_residual(ch, sup.complement()))
            else:
                residual = max(subharmonic_residual(ch, inf),
                               subharmonic_residual(ch, sup))
            worst = max(worst, residual)
            failures += residual > 1e-8
    name = "lattice-closure-superharmonic" if super_side else "lattice-closure-subharmonic"
    return PropertyResult(name, count, failures, worst)


def _check_monotone_orbit(rng, trials, dims, tol):
    failures = 0
    worst = 0.0
    count = 0
    grid = (0.0, 0.25, 1.0, 4.0)
    for dim in dims:
        if dim < 2:
            continue
        for _ in range(max(1, trials // 4)):
            k = int(rng.integers(1, dim))
            gen, block = transient_block_generator(k, dim - k, rng)
            count += 1
            previous = block.matrix
            defect = 0.0
            for s, t in zip(grid, grid[1:]):
                current = hermitian_part(propagator(gen, t, HEISENBERG).apply(block.matrix))
                defect = max(defect, max(
                    0.0, -float(np.linalg.eigvalsh(hermitian_part(current - previous))[0])))
                previous = current
            worst = max(worst, defect)
            failures += defect > 10 * tol.atol
    return PropertyResult("monotone-orbit", count, failures, worst)


def _cesaro_projected_fixed_point(ch, rng, tol):
    """PSD Heisenberg fixed point: time-average projection of a random PSD element."""
    kernel, left = Dynamics(ch).split(tol)
    g = rng.standard_normal((ch.dim, ch.dim)) + 1j * rng.standard_normal((ch.dim, ch.dim))
    a = g @ g.conj().T
    # The Heisenberg fixed points are the left kernel of the Schrodinger split.
    x = from_hermitian_coords(_kernel_component(left, kernel, hermitian_coords(a)), ch.dim)
    w, v = np.linalg.eigh(x)
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def _check_fixed_point_support(rng, trials, dims, tol):
    failures = 0
    worst = 0.0
    count = 0
    for dim in dims:
        for _ in range(trials):
            count += 1
            ch = _random_channel(dim, rng)
            x = _cesaro_projected_fixed_point(ch, rng, tol)
            try:
                s, _ = fixed_point_support_check(ch, x, tol)
                alpha_s = apply_heisenberg(ch, s.matrix)
                defect = max(0.0, -float(
                    np.linalg.eigvalsh(hermitian_part(s.matrix - alpha_s))[0]))
            except TheoremViolation:
                failures += 1
                defect = 1.0
            worst = max(worst, defect)
            failures += defect > 1e-8
    return PropertyResult("fixed-point-support-superharmonic", count, failures, worst)


def _check_stinespring(rng, trials, dims, tol):
    failures = 0
    worst = 0.0
    count = 0
    for dim in dims:
        for _ in range(max(1, trials // 2)):
            count += 1
            ch = _random_channel(dim, rng)
            dil = stinespring_dilate(ch, tol)
            residual = 0.0
            for unit in _matrix_units(dim):
                residual = max(residual, opnorm(
                    apply_heisenberg(ch, unit) - dil.reconstruct(unit)))
            worst = max(worst, residual)
            failures += residual > 1e-12
    return PropertyResult("stinespring-reconstruction", count, failures, worst)


def _structured_models(rng, trials, dims):
    """Half plain random generators, half generators with a transient block."""
    models = []
    for dim in dims:
        if dim < 2:
            continue
        for t in range(max(1, trials // 4)):
            if t % 2 == 0:
                models.append(random_generator(dim, int(rng.integers(1, 3)), rng))
            else:
                k = int(rng.integers(1, dim))
                models.append(transient_block_generator(k, dim - k, rng)[0])
    return models


def _check_recurrent_structure(rng, trials, dims, tol, horizon):
    sup_failures = 0
    match_failures = 0
    decay_failures = 0
    worst_match = 0.0
    count = 0
    for model in _structured_models(rng, trials, dims):
        count += 1
        dyn = Dynamics(model)
        report = recurrent_projection(dyn, horizon=horizon, tol=tol,
                                      seed=int(rng.integers(0, 2**31)))
        limit_support = support_projection(hermitian_part(report.limit_estimate), tol)
        sup_failures += limit_support.rank != model.dim
        mismatch = opnorm(report.recurrent.matrix - report.stationary_support.matrix)
        worst_match = max(worst_match, mismatch)
        match_failures += not report.supports_match
        for unit in _basis_sample(model.dim, rng, 4):
            result = decay_ideal_test(dyn, unit, report.recurrent,
                                      horizon=horizon, tol=tol)
            decay_failures += result.decisively_disagrees(tol.atol, DEFAULT_DECAY_TOL)
    return [
        PropertyResult("recurrent-limit-support-full", count, sup_failures,
                       float(sup_failures > 0)),
        PropertyResult("recurrent-equals-stationary-support", count, match_failures,
                       worst_match),
        PropertyResult("decay-ideal-agreement", count, decay_failures,
                       float(decay_failures > 0)),
    ]


def _basis_sample(dim, rng, n):
    units = tuple(_matrix_units(dim))
    for _ in range(n):
        i = int(rng.integers(0, dim))
        j = int(rng.integers(0, dim))
        yield units[i * dim + j]


def _check_fixtures(tol):
    """Fixture models must pass their own structural report end to end."""
    from .analyze import AnalysisOptions, run_analyze
    from .modelio import model_spec_from_fixture

    failures = 0
    worst = 0.0
    count = 0
    for name in fixture_names():
        count += 1
        report = run_analyze(model_spec_from_fixture(name),
                             AnalysisOptions(tol=tol, seed=7))
        bad = not report.passed
        failures += bad
        worst = max(worst, _indicator(bad))
    return PropertyResult("fixture-analyses-pass", count, failures, worst)


def run_verify(seed: int = 42, trials: int = 100, dims=(2, 3, 4),
               tol: ToleranceConfig | None = None,
               horizon: float = 30.0) -> VerifySummary:
    """Run every property suite; deterministic for a fixed seed."""
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 or d > 16 for d in dims):
        raise ValidationError(f"dims must be within 1..16, got {dims}")
    tol = tol or ToleranceConfig()
    rng = np.random.default_rng(seed)

    results = [
        _check_order_diagnostic(rng, trials, dims, tol),
        _check_duality(rng, trials, dims, tol),
        _check_kadison_schwarz(rng, trials, dims, tol),
        _check_subharmonic_agreement(rng, max(1, trials // 2), dims, tol),
        _check_generator_criterion(rng, trials, dims, tol),
        _check_complement_duality(rng, trials, dims, tol),
        _check_lattice_closure(rng, trials, dims, tol, super_side=False),
        _check_lattice_closure(rng, trials, dims, tol, super_side=True),
        _check_monotone_orbit(rng, trials, dims, tol),
        _check_fixed_point_support(rng, trials, dims, tol),
        _check_stinespring(rng, trials, dims, tol),
    ]
    results.extend(_check_recurrent_structure(rng, trials, dims, tol, horizon))
    results.append(_check_fixtures(tol))
    return VerifySummary(seed, trials, dims, tuple(results))


def format_summary(summary: VerifySummary) -> str:
    lines = [f"seed={summary.seed} trials={summary.trials} "
             f"dims={','.join(str(d) for d in summary.dims)}"]
    for r in summary.results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name:<40} trials={r.trials:<5d} "
                     f"failures={r.failures:<3d} worst={r.worst:.3e}")
    total = len(summary.results)
    good = sum(1 for r in summary.results if r.passed)
    lines.append(f"verify: {'PASS' if summary.passed else 'FAIL'} ({good}/{total} properties)")
    return "\n".join(lines)
