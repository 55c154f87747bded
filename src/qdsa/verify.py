"""Randomized property harness behind the ``verify`` subcommand.

Each property draws its inputs from one explicit seed and yields, per
trial, a defect (a property-specific residual that is zero for a clean
pass) and a failure count; :func:`_tally` reduces them to a trial count, a
failure count and the worst observed defect.  The summary is deterministic for
a fixed seed: running twice produces byte-identical output.

The recurrent properties are ``run_analyze``'s own checks (limit support,
supports match, decay ideal) on seeded structured models, so each of those
laws is coded once, in :mod:`qdsa.analyze`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analyze import AnalysisOptions, run_analyze
from .asymptotics import Dynamics, _kernel_component
from .channels import (
    SCHRODINGER,
    _act,
    _matrix_units,
    _terms,
    apply_heisenberg,
    from_hermitian_coords,
    hermitian_coords,
    stinespring_dilate,
)
from .errors import TheoremViolation, ValidationError
from .harmonic import (
    _fixed_point_support,
    is_subharmonic,
    is_superharmonic,
    kraus_invariance_test,
    subharmonic_report,
    subharmonic_residual,
)
from .linalg import (
    DEFAULT_TOL,
    Projection,
    _check_seed,
    _decisive,
    _is_integer,
    _psd_defect,
    hermitian_part,
    opnorm,
    order_leq,
    proj_infimum,
    proj_supremum,
    projection_order_diagnostic,
)
from .modelio import model_spec_from_fixture
from .models import fixture_names
from .sampling import (
    _ginibre,
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


def _tally(name: str, outcomes) -> PropertyResult:
    """Trial count, failure count and worst defect of one property;
    ``outcomes`` yields one ``(defect, failures)`` pair per trial."""
    count = 0
    failures = 0
    worst = 0.0
    for defect, failed in outcomes:
        count += 1
        failures += failed
        worst = max(worst, defect)
    return PropertyResult(name, count, failures, worst)


def _random_channel(dim, rng):
    return haar_random_channel(dim, int(rng.integers(1, 5)), rng)


def _order_diagnostic(rng, trials, dims, tol):
    for dim in dims:
        for _ in range(trials):
            x = random_unit_interval_hermitian(dim, rng)
            p = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
            bad = not projection_order_diagnostic(x, p, tol).consistent()
            yield float(bad), bad


def _duality(rng, trials, dims):
    for dim in dims:
        for _ in range(trials):
            ch = _random_channel(dim, rng)
            rho = random_density_matrix(dim, rng)
            a = random_hermitian(dim, rng)
            nu = _act(_terms(ch), rho, SCHRODINGER)
            defect = abs(complex(np.trace(nu @ a))
                         - complex(np.trace(rho @ apply_heisenberg(ch, a))))
            yield defect, defect > 1e-10


def _kadison_schwarz(rng, trials, dims, tol):
    for dim in dims:
        for _ in range(trials):
            ch = _random_channel(dim, rng)
            g = _ginibre(dim, dim, rng)
            image = apply_heisenberg(ch, g)
            lhs = image.conj().T @ image
            defect = _psd_defect(apply_heisenberg(ch, g.conj().T @ g) - lhs)
            yield defect, defect > tol.atol


def _block_union(blocks, dim, rng):
    """Projection onto the union of a random subset of ``blocks`` (one 0/1
    draw per block), or None when the draw picks no block."""
    mask = rng.integers(0, 2, size=len(blocks))
    chosen = [p.range_basis for p, keep in zip(blocks, mask) if keep]
    return Projection.from_range_basis(np.hstack(chosen), dim) if chosen else None


def _invariant_and_random_projections(ch, blocks, rng):
    """Mix of known-invariant block unions and Haar-random projections."""
    unions = [_block_union(blocks, ch.dim, rng) for _ in range(2)]
    out = [p for p in unions if p is not None]
    out.append(random_projection(ch.dim, int(rng.integers(0, ch.dim + 1)), rng))
    return out


def _subharmonic_agreement(rng, trials, dims, tol):
    for dim in dims:
        for t in range(trials):
            if t % 2 == 0:
                ch = _random_channel(dim, rng)
                blocks = []
            else:
                parts = _random_partition(dim, rng)
                ch, blocks = block_diagonal_channel(parts, int(rng.integers(1, 4)), rng)
            for p in _invariant_and_random_projections(ch, blocks, rng):
                report = subharmonic_report(ch, p, trials=8, tol=tol, rng=rng)
                bad = not report.consistent()
                bad = bad or (kraus_invariance_test(ch, p, tol) != report.verdict)
                yield float(bad), bad


def _random_partition(dim, rng):
    parts = []
    left = dim
    while left > 0:
        b = int(rng.integers(1, left + 1))
        parts.append(b)
        left -= b
    return parts


def _generator_criterion(rng, trials, dims, tol):
    times = (0.1, 1.0, 10.0)
    for dim in dims:
        if dim < 2:
            continue
        for _ in range(max(1, trials // 4)):
            k = int(rng.integers(1, dim))
            gen, block = transient_block_generator(k, dim - k, rng)
            dyn = Dynamics(gen)
            flows = [dyn.flow(t) for t in times]
            for p in (block, random_projection(dim, int(rng.integers(1, dim + 1)), rng)):
                residual = subharmonic_residual(gen, p)
                algebraic = residual <= tol.atol
                orbit = all(order_leq(p.matrix, hermitian_part(flow.apply(p.matrix)), tol)
                            for flow in flows)
                bad = _decisive(residual, tol.atol) and (algebraic != orbit)
                yield float(bad), bad


def _complement_duality(rng, trials, dims, tol):
    for dim in dims:
        for _ in range(trials):
            ch = _random_channel(dim, rng)
            p = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
            bad = is_subharmonic(ch, p, tol) != is_superharmonic(ch, p.complement(), tol)
            yield float(bad), bad


def _lattice_closure(rng, trials, dims, tol, super_side: bool):
    for dim in dims:
        if dim < 2:
            continue
        for _ in range(max(1, trials // 2)):
            parts = _random_partition(dim, rng)
            if len(parts) < 2:
                continue
            ch, blocks = block_diagonal_channel(parts, int(rng.integers(1, 4)), rng)
            family = []
            for _ in range(int(rng.integers(2, 5))):
                member = _block_union(blocks, dim, rng)
                if member is not None:
                    family.append(member.complement() if super_side else member)
            if len(family) < 2:
                continue
            inf = proj_infimum(family, tol)
            sup = proj_supremum(family, tol)
            pair = (inf.complement(), sup.complement()) if super_side else (inf, sup)
            residual = max(subharmonic_residual(ch, p) for p in pair)
            yield residual, residual > 1e-8


def _monotone_orbit(rng, trials, dims, tol):
    grid = (0.0, 0.25, 1.0, 4.0)
    for dim in dims:
        if dim < 2:
            continue
        for _ in range(max(1, trials // 4)):
            k = int(rng.integers(1, dim))
            gen, block = transient_block_generator(k, dim - k, rng)
            dyn = Dynamics(gen)
            previous = block.matrix
            defect = 0.0
            for s, t in zip(grid, grid[1:]):
                current = hermitian_part(dyn.flow(t).apply(block.matrix))
                defect = max(defect, _psd_defect(current - previous))
                previous = current
            yield defect, defect > 10 * tol.atol


def _cesaro_projected_fixed_point(ch, rng, tol):
    """PSD Heisenberg fixed point: time-average projection of a random PSD element."""
    kernel, left = Dynamics(ch, tol).split
    g = _ginibre(ch.dim, ch.dim, rng)
    a = g @ g.conj().T
    # The Heisenberg fixed points are the left kernel of the Schrodinger split.
    x = from_hermitian_coords(_kernel_component(left, kernel, hermitian_coords(a)), ch.dim)
    w, v = np.linalg.eigh(x)
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def _support_superharmonic(rng, trials, dims, tol):
    """The support of a fixed point is super-harmonic: the check's own PSD
    defect of ``s - alpha(s)``."""
    for dim in dims:
        for _ in range(trials):
            ch = _random_channel(dim, rng)
            x = _cesaro_projected_fixed_point(ch, rng, tol)
            try:
                _, defect = _fixed_point_support(ch, x, tol)
            except TheoremViolation:
                yield 1.0, True
                continue
            yield defect, defect > 1e-8


def _stinespring(rng, trials, dims, tol):
    """The dilation reconstructs the channel on every matrix unit, in one
    pass over the stack of units."""
    for dim in dims:
        units = _matrix_units(dim)
        for _ in range(max(1, trials // 2)):
            ch = _random_channel(dim, rng)
            dil = stinespring_dilate(ch, tol)
            residual = opnorm(_act(_terms(ch), units) - dil._reconstruct(units))
            yield residual, residual > 1e-12


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


# each verify property and the run_analyze check it tallies
_RECURRENT_CHECKS = (("recurrent-limit-support-full", "limit-support-full"),
                     ("recurrent-equals-stationary-support", "supports-match"),
                     ("decay-ideal-agreement", "decay-ideal-agreement"))


def _check_recurrent_structure(rng, trials, dims, tol):
    """``run_analyze``'s checks of each structured model's recurrent
    projection: the limit estimate has full support, the recurrent and
    stationary supports agree, and the decay-ideal verdicts agree."""
    reports = [run_analyze(model, AnalysisOptions(tol=tol, seed=int(rng.integers(0, 2**31))))
               for model in _structured_models(rng, trials, dims)]
    checks = [{c.name: c for c in report.checks} for report in reports]
    return [_tally(name, [(c[check].residual, not c[check].passed) for c in checks])
            for name, check in _RECURRENT_CHECKS]


def _fixtures(tol):
    """Fixture models must pass their own structural report end to end."""
    for name in fixture_names():
        report = run_analyze(model_spec_from_fixture(name),
                             AnalysisOptions(tol=tol, seed=7))
        bad = not report.passed
        yield float(bad), bad


def run_verify(seed: int = 42, trials: int = 100, dims=(2, 3, 4)) -> VerifySummary:
    """Run every property suite; deterministic for a fixed seed."""
    _check_seed(seed)
    if not _is_integer(trials):
        raise ValidationError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    dims = tuple(dims)
    if not all(_is_integer(d) for d in dims):
        raise ValidationError(f"dims must be integers, got {dims}")
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 or d > 16 for d in dims):
        raise ValidationError(f"dims must be within 1..16, got {dims}")
    tol = DEFAULT_TOL
    rng = np.random.default_rng(seed)
    # each property draws from rng when it is tallied, so the order is fixed
    results = [
        _tally("order-diagnostic-agreement", _order_diagnostic(rng, trials, dims, tol)),
        _tally("heisenberg-schrodinger-duality", _duality(rng, trials, dims)),
        _tally("kadison-schwarz", _kadison_schwarz(rng, trials, dims, tol)),
        _tally("subharmonic-conditions-agree",
               _subharmonic_agreement(rng, max(1, trials // 2), dims, tol)),
        _tally("generator-criterion-matches-orbit", _generator_criterion(rng, trials, dims, tol)),
        _tally("complement-duality", _complement_duality(rng, trials, dims, tol)),
        _tally("lattice-closure-subharmonic", _lattice_closure(rng, trials, dims, tol, False)),
        _tally("lattice-closure-superharmonic", _lattice_closure(rng, trials, dims, tol, True)),
        _tally("monotone-orbit", _monotone_orbit(rng, trials, dims, tol)),
        _tally("fixed-point-support-superharmonic",
               _support_superharmonic(rng, trials, dims, tol)),
        _tally("stinespring-reconstruction", _stinespring(rng, trials, dims, tol)),
        *_check_recurrent_structure(rng, trials, dims, tol),
        _tally("fixture-analyses-pass", _fixtures(tol)),
    ]
    return VerifySummary(seed, trials, dims, tuple(results))


def format_summary(summary: VerifySummary) -> str:
    lines = [f"seed={summary.seed} trials={summary.trials} "
             f"dims={','.join(str(d) for d in summary.dims)}"]
    for r in summary.results:
        status = "SKIP" if r.trials == 0 else "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name:<40} trials={r.trials:<5d} "
                     f"failures={r.failures:<3d} worst={r.worst:.3e}")
    ran = [r for r in summary.results if r.trials]
    good = sum(1 for r in ran if r.passed)
    skipped = len(summary.results) - len(ran)
    count = f"{good}/{len(ran)} properties" + (f", {skipped} skipped" if skipped else "")
    lines.append(f"verify: {'PASS' if summary.passed else 'FAIL'} ({count})")
    return "\n".join(lines)
