"""Decision procedures for sub-harmonic and super-harmonic projections.

A projection ``p`` is sub-harmonic for a unital positive map ``alpha`` when
``alpha(p) >= p``; equivalently the closed face of states supported in
``p`` is invariant under the predual.  Four equivalent formulations are
evaluated side by side in :func:`subharmonic_report`:

1. invariance of the supported face (sampled over random states in it),
2. the operator order ``alpha(p) >= p``,
3. the compression identity ``p alpha(a) p = p alpha(p a p) p`` for all a,
4. the corner identity ``alpha(p' a p') = p' alpha(p' a p') p'`` with
   ``p' = 1 - p``.

Exact algebraic reductions are preferred wherever available: for a Kraus
family the order condition is equivalent to ``p' V_i p = 0`` for every i
(via ``p alpha(p') p = sum_i (p' V_i p)^dag (p' V_i p)``), and for a
generator to ``p' L_i p = 0`` together with ``p' G p = 0`` where
``G = -iH - (1/2) sum_i L_i^dag L_i``.  Both are one stack of leaks
``p' X p`` over the terms ``(G, {L_i})`` (:func:`_leak`), a corner's too,
whose norm :func:`_residual` reports, and are cross-validated against the
time-sampled order condition in the test suite.

Sub-harmonic and super-harmonic projections each form a complete lattice;
:func:`subharmonic_closure` checks closure of a family under infimum and
supremum.  :func:`fixed_point_support_check` certifies that the support of
a positive fixed point of a CP unital map is super-harmonic, which drives
the recurrence analysis downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import (
    SCHRODINGER,
    LindbladGenerator,
    QuantumChannel,
    _act,
    _matrix_units,
    _terms,
)
from .errors import FamilyNotSubharmonic, NotFixedPoint, NotPSD, TheoremViolation, ValidationError
from .linalg import (
    ConditionCheck,
    Projection,
    ToleranceConfig,
    _check_operand,
    _is_integer,
    _norm_exceeds,
    _psd_defect,
    _statuses_consistent,
    _tol,
    as_complex_matrix,
    is_psd,
    opnorm,
    proj_infimum,
    proj_supremum,
    support_projection,
)
from .sampling import _ginibre

__all__ = [
    "HarmonicityReport",
    "ClosureResult",
    "subharmonic_report",
    "kraus_invariance_test",
    "is_subharmonic_generator",
    "is_subharmonic",
    "subharmonic_residual",
    "is_superharmonic",
    "subharmonic_closure",
    "fixed_point_support_check",
]


@dataclass(frozen=True)
class HarmonicityReport:
    """Residuals of the four equivalent sub-harmonicity conditions.

    The verdict is always taken from the operator-order condition, which is
    exact; face invariance is only sampled and never treated as a proof.
    Whenever all residuals are decisive the four booleans must agree.
    """

    face_invariance: ConditionCheck
    operator_order: ConditionCheck
    compression: ConditionCheck
    corner: ConditionCheck
    verdict: bool

    def conditions(self):
        return (self.face_invariance, self.operator_order, self.compression, self.corner)

    def consistent(self) -> bool:
        return _statuses_consistent(self.conditions())


def subharmonic_report(ch: QuantumChannel, p: Projection, trials: int = 32,
                       tol: ToleranceConfig | None = None,
                       rng=None) -> HarmonicityReport:
    """Evaluate all four sub-harmonicity conditions for a channel.

    Conditions 3 and 4 are checked on the full matrix-unit basis, each in
    one pass over the ``(d^2, d, d)`` stack of units with one stacked SVD,
    so the number of numpy calls does not grow with ``d``; each unit's
    residual has the bits of the same expression on that unit alone.  The
    face condition is sampled on ``trials`` (a nonnegative integer, else
    ValidationError) states ``p sigma p / tr(p sigma)`` with ``sigma``
    random and full rank, drawn in turn from ``rng``.
    """
    tol = _tol(tol)
    terms = _terms(ch, channel=True)
    _check_operand(p.dim, ch.dim)
    if not _is_integer(trials) or trials < 0:
        raise ValidationError(f"trials must be a nonnegative integer, got {trials!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    pm = p.matrix
    pc = np.eye(ch.dim) - pm

    order_defect = _psd_defect(_act(terms, pm) - pm)

    units = _matrix_units(ch.dim)
    comp = opnorm(pm @ _act(terms, units) @ pm - pm @ _act(terms, pm @ units @ pm) @ pm)
    inside = _act(terms, pc @ units @ pc)
    corner = opnorm(inside - pc @ inside @ pc)

    face = 0.0
    if p.rank > 0:
        for _ in range(trials):
            g = _ginibre(ch.dim, ch.dim, rng)
            sigma = g @ g.conj().T
            compressed = pm @ sigma @ pm
            rho = compressed / np.trace(compressed)
            nu = _act(terms, rho, SCHRODINGER)
            face = max(face, abs(complex(np.trace(nu @ pm)) - 1.0))

    a = tol.atol
    order_check = ConditionCheck("alpha(p) >= p", order_defect, a)
    return HarmonicityReport(
        face_invariance=ConditionCheck("face invariance (sampled)", face, a),
        operator_order=order_check,
        compression=ConditionCheck("p alpha(a) p = p alpha(pap) p", comp, a),
        corner=ConditionCheck("corner invariance", corner, a),
        verdict=order_check.holds,
    )


def _leak(terms, p: Projection) -> np.ndarray:
    """The stack of ``(1-p) X p`` over the Kraus operators, or the jumps and
    ``G``, of the terms ``(G, {L_i})`` (``_terms``): 0 exactly when
    sub-harmonic."""
    g, ops = terms
    pm = p.matrix
    pc = np.eye(p.dim) - pm
    return pc @ np.stack(ops if g is None else (*ops, g)) @ pm


def _residual(terms, p: Projection) -> float:
    """The reported residual ``max |(1-p) X p|`` of :func:`_leak`, one SVD."""
    return opnorm(_leak(terms, p))


def kraus_invariance_test(ch: QuantumChannel, p: Projection,
                          tol: ToleranceConfig | None = None) -> bool:
    """Exact algebraic sub-harmonicity test: ``(1-p) V_i p = 0`` for all i."""
    return is_subharmonic(ch, p, tol)


def is_subharmonic_generator(gen: LindbladGenerator, p: Projection,
                             tol: ToleranceConfig | None = None) -> bool:
    """Generator-level sub-harmonicity: ``(1-p) L_i p = 0`` and ``(1-p) G p = 0``.

    ``G = -iH - (1/2) sum_i L_i^dag L_i``.  The criterion is exact (no time
    grid); the test suite cross-validates it against the order condition
    ``alpha_t(p) >= p`` sampled at several times, and any disagreement
    beyond tolerance is a test failure rather than something resolved here.
    """
    return is_subharmonic(gen, p, tol)


def subharmonic_residual(obj, p: Projection) -> float:
    """The invariance residual :func:`_residual` of the model's terms:
    TypeError for a non-model, then DimMismatch when ``p`` and the model
    differ in dimension."""
    terms = _terms(obj)
    _check_operand(p.dim, obj.dim)
    return _residual(terms, p)


def is_subharmonic(obj, p: Projection, tol: ToleranceConfig | None = None) -> bool:
    """The exact test for either model, :func:`subharmonic_residual` <=
    ``atol``, decided by ``_norm_exceeds``: a clear pass takes no SVD."""
    terms = _terms(obj)
    _check_operand(p.dim, obj.dim)
    return not _norm_exceeds(_leak(terms, p), _tol(tol).atol)


def is_superharmonic(obj, p: Projection, tol: ToleranceConfig | None = None) -> bool:
    """True when ``alpha(p) <= p``, i.e. the complement is sub-harmonic."""
    return is_subharmonic(obj, p.complement(), tol)


class ClosureResult(NamedTuple):
    infimum: Projection
    supremum: Projection
    both_subharmonic: bool


def subharmonic_closure(obj, family, tol: ToleranceConfig | None = None) -> ClosureResult:
    """Infimum and supremum of a sub-harmonic family, with closure flags.

    Every member must already pass the sub-harmonic test (else
    FamilyNotSubharmonic); lattice closure then demands that both the
    infimum and the supremum pass it as well, which is reported in
    ``both_subharmonic``.
    """
    tol = _tol(tol)
    family = list(family)
    for i, p in enumerate(family):
        if not is_subharmonic(obj, p, tol):
            raise FamilyNotSubharmonic(
                f"family member {i} fails the sub-harmonic test "
                f"(residual {subharmonic_residual(obj, p):.3e})")
    inf = proj_infimum(family, tol)
    sup = proj_supremum(family, tol)
    both = is_subharmonic(obj, inf, tol) and is_subharmonic(obj, sup, tol)
    return ClosureResult(inf, sup, both)


def fixed_point_support_check(ch: QuantumChannel, x,
                              tol: ToleranceConfig | None = None):
    """Support of a positive fixed point, certified super-harmonic.

    ``x`` must be PSD with ``alpha(x) = x`` within tolerance (else
    NotFixedPoint).  The support ``s`` of a positive fixed point of a CP
    unital map always satisfies ``alpha(s) <= s``; a decisive failure here
    falsifies a structural law and therefore raises TheoremViolation
    (indicating numerical breakdown), rather than returning quietly.

    Returns ``(support, superharmonic)``.
    """
    tol = _tol(tol)
    terms = _terms(ch, channel=True)
    xm = as_complex_matrix(x)
    _check_operand(xm.shape[0], ch.dim)
    if not is_psd(xm, tol):
        raise NotPSD("fixed point candidate is not positive semidefinite")
    drift = _act(terms, xm) - xm
    if _norm_exceeds(drift, tol.atol):
        raise NotFixedPoint(f"alpha(x) deviates from x by {opnorm(drift):.3e}")
    s = support_projection(xm, tol)
    defect = _psd_defect(s.matrix - _act(terms, s.matrix))
    if defect > tol.atol:
        raise TheoremViolation(
            f"support of a fixed point failed the super-harmonic check "
            f"(defect {defect:.3e}); this indicates numerical breakdown")
    return s, defect <= tol.psd_tol
