"""Full structural analysis of one model, with a machine-readable report.

``run_analyze`` chains the asymptotics pipeline (stationary space, minimal
enclosures, recurrent projection, decay ideal) and re-validates every
structural law it relies on, recording each as a named check with its
residual and tolerance.  The report serializes to JSON; projections are
stored as rank plus range basis, and a loaded basis is kept as stored after
an orthonormality check.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .asymptotics import (
    DEFAULT_DECAY_TOL,
    DEFAULT_HORIZON,
    Dynamics,
    decay_ideal_units,
    recurrent_projection,
)
from .errors import ParseError, ValidationError
from .linalg import (
    Projection,
    ToleranceConfig,
    _check_seed,
    _is_integer,
    _support_rank,
    opnorm,
)
from .modelio import ModelSpec, matrix_from_json, matrix_to_json

__all__ = [
    "AnalysisOptions",
    "CheckResult",
    "AnalysisReport",
    "run_analyze",
    "default_seed",
]

_SEED_ENV = "QDS_SEED"


def default_seed() -> int:
    """Seed from the QDS_SEED environment variable, else 42."""
    raw = os.environ.get(_SEED_ENV)
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"{_SEED_ENV} must be an integer, got {raw!r}") from exc


@dataclass(frozen=True)
class AnalysisOptions:
    horizon: float | None = None
    tol: ToleranceConfig | None = None
    seed: int | None = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_json_dict(self) -> dict:
        return {"name": self.name, "residual": self.residual,
                "tolerance": self.tolerance, "passed": self.passed}


def _projection_to_json(p: Projection) -> dict:
    return {"rank": p.rank, "range_basis": matrix_to_json(p.range_basis.T)}


def _key(data, key: str, where: str):
    """``data[key]``; ParseError naming ``key`` when ``data`` has no such key."""
    if not isinstance(data, dict) or key not in data:
        raise ParseError(f"{where}: missing key {key!r}")
    return data[key]


def _projection_from_json(data, dim: int) -> Projection:
    cols = _key(data, "range_basis", "projection")
    rank = _key(data, "rank", "projection")
    if not _is_integer(rank):
        raise ParseError(f"projection: 'rank' must be an integer, got {rank!r}")
    basis = (np.zeros((dim, 0), dtype=complex) if cols == []
             else matrix_from_json(cols, "range_basis").T)
    if basis.shape != (dim, rank):
        raise ValidationError(f"projection basis has shape {basis.shape}, "
                              f"expected ({dim}, {rank})")
    # the stored basis is kept, so a report reloads to the same JSON; it is
    # checked orthonormal
    return Projection.from_range_basis(basis, dim)


# the report fields serialized by _projection_to_json
_PROJECTIONS = ("recurrent", "stationary_support")


@dataclass(frozen=True)
class AnalysisReport:
    label: str
    dim: int
    kind: str
    horizon: float
    stationary_dim: int
    enclosure_ranks: tuple
    is_unique: bool
    fixed_algebra_dim: int
    recurrent: Projection
    stationary_support: Projection
    sup_deviation: float
    transient_norm: float
    decay_ideal_rank: int
    faithful_family: bool
    supports_match: bool
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["enclosure_ranks"] = list(self.enclosure_ranks)
        for name in _PROJECTIONS:
            out[name] = _projection_to_json(out[name])
        out["checks"] = [c.to_json_dict() for c in self.checks]
        out["passed"] = self.passed
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "AnalysisReport":
        values = {f.name: _key(data, f.name, "report") for f in fields(cls)}
        for key in ("enclosure_ranks", "checks"):
            if not isinstance(values[key], list):
                raise ParseError(f"report: {key!r} must be an array, got {values[key]!r}")
        values["enclosure_ranks"] = tuple(values["enclosure_ranks"])
        for name in _PROJECTIONS:
            values[name] = _projection_from_json(values[name], values["dim"])
        values["checks"] = tuple(CheckResult(*(_key(c, k, "check") for k in
                                               ("name", "residual", "tolerance")))
                                 for c in values["checks"])
        return cls(**values)

    def pretty(self) -> str:
        lines = [
            f"model {self.label} (dim {self.dim}, {self.kind}), horizon {self.horizon:g}",
            f"  stationary dimension   {self.stationary_dim}",
            f"  enclosure ranks        {list(self.enclosure_ranks)}"
            f"  (unique: {'yes' if self.is_unique else 'no'})",
            f"  recurrent rank         {self.recurrent.rank}",
            f"  stationary supp rank   {self.stationary_support.rank}",
            f"  decay ideal rank       {self.decay_ideal_rank}",
            f"  sup deviation          {self.sup_deviation:.3e}",
            f"  transient norm         {self.transient_norm:.3e}",
            f"  faithful family        {'yes' if self.faithful_family else 'no'}",
        ]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name:<32} residual {c.residual:.3e}"
                         f" (tol {c.tolerance:.1e})")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def run_analyze(spec, options: AnalysisOptions | None = None) -> AnalysisReport:
    """Analyze a ModelSpec (or a bare channel/generator).

    The returned report carries a pass/fail check per structural law; the
    CLI maps an overall failure to a nonzero exit code.
    """
    options = options or AnalysisOptions()
    if not isinstance(spec, ModelSpec):
        spec = ModelSpec(type(spec).__name__, spec, None, None)
    tol = options.tol or spec.tolerances or ToleranceConfig()
    dyn = Dynamics(spec.model, tol)
    horizon = spec.horizon if options.horizon is None else options.horizon
    if horizon is None:
        horizon = DEFAULT_HORIZON
    seed = _check_seed(options.seed if options.seed is not None else default_seed())

    report = recurrent_projection(dyn, horizon=horizon, seed=seed)
    decomposition = report.enclosures
    r_min = report.recurrent

    checks = []
    checks.append(CheckResult("recurrent-limit-identity", report.sup_deviation, DEFAULT_DECAY_TOL))
    checks.append(CheckResult("transient-decay", report.transient_norm, DEFAULT_DECAY_TOL))
    checks.append(CheckResult(
        "supports-match",
        opnorm(r_min.matrix - report.stationary_support.matrix), 100 * tol.atol))
    checks.append(CheckResult(
        "faithful-implies-full-recurrent",
        float(dyn.dim - r_min.rank) if report.faithful_family else 0.0, 0.5))

    subharm = max(decomposition.subharmonic_residuals, default=0.0)
    # a fixed algebra sum_k M_{n_k} (x) 1_{m_k} has dimension sum_k n_k^2, so
    # a merged, a missing or a wrongly joined block shows here
    minimal_defect = float(abs(sum(n * n for n, _ in decomposition.block_types)
                               - decomposition.fixed_algebra_dim))
    checks.append(CheckResult("enclosures-orthogonal", decomposition.max_overlap,
                              10 * tol.atol))
    checks.append(CheckResult("enclosures-subharmonic", subharm, 10 * tol.atol))
    checks.append(CheckResult("enclosures-minimal", minimal_defect, 0.5))

    # E_jj stands for the d matrix units E_ij of its column: E_ij r holds
    # row j of r, and E_ij^dag E_ij = E_jj
    disagreements = dyn.dim * sum(unit.decisively_disagrees(tol.atol)
                                  for unit in decay_ideal_units(dyn, report))
    checks.append(CheckResult("decay-ideal-agreement", float(disagreements), 0.5))

    # an identity r has the identity estimate, of full rank
    limit_rank = dyn.dim if r_min.rank == dyn.dim else _support_rank(report.limit_estimate, tol)
    checks.append(CheckResult("limit-support-full", float(dyn.dim - limit_rank), 0.5))

    return AnalysisReport(
        label=spec.label,
        dim=dyn.dim,
        kind="channel" if dyn.discrete else "generator",
        horizon=horizon,
        stationary_dim=dyn.space.dim,
        enclosure_ranks=tuple(p.rank for p in decomposition.minimal_projections),
        is_unique=decomposition.is_unique,
        fixed_algebra_dim=decomposition.fixed_algebra_dim,
        recurrent=r_min,
        stationary_support=report.stationary_support,
        sup_deviation=report.sup_deviation,
        transient_norm=report.transient_norm,
        decay_ideal_rank=dyn.dim - r_min.rank,
        faithful_family=report.faithful_family,
        supports_match=report.supports_match,
        checks=tuple(checks),
    )
