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
``p' X W = X W - W (W^dag X W)``, with the norms of ``p' X p``, over the
terms ``(G, {L_i})`` and the orthonormal columns ``W`` of ``p``
(:func:`_leak`), a corner's too, whose norm :func:`_residual` reports, and
are cross-validated against the time-sampled order condition in the test
suite.

A projection ``p`` is super-harmonic (``alpha(p) <= p``) exactly when
``1 - p`` is sub-harmonic, ``p X (1 - p) = 0`` for every term.  Since
``(1 - p) X^dag p`` is its adjoint, :func:`is_superharmonic` takes the
same leak of the range basis of ``p`` itself under the adjoint terms
``(G^dag, {X_i^dag})``, with no complement built.

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
    _BLOCK,
    HEISENBERG,
    SCHRODINGER,
    LindbladGenerator,
    QuantumChannel,
    _act,
    _adjoint,
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
    _spectral_norms,
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
    one pass over the ``(d^2, d, d)`` stack of units, and both take their
    norms from one SVD of the two stacks, so the number of numpy calls does
    not grow with ``d``; each unit's residual has the bits of the same
    expression on that unit alone.  The face condition is sampled on
    ``trials`` (a nonnegative integer, else ValidationError) states ``p
    sigma p / tr(p sigma)`` with ``sigma`` random and full rank, drawn from
    ``rng`` as one block of at most ``channels._BLOCK`` entries at a time
    (the stream of one draw after another), each block pushed through one
    action and one batched trace; each state's residual has the bits of its
    own trial.
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
    inside = _act(terms, pc @ units @ pc)
    comp, corner = _spectral_norms(np.stack((
        pm @ _act(terms, units) @ pm - pm @ _act(terms, pm @ units @ pm) @ pm,
        inside - pc @ inside @ pc))).max(axis=-1).tolist()

    face = 0.0
    if p.rank > 0:
        block = max(1, _BLOCK // ch.dim ** 2)
        for start in range(0, trials, block):
            g = _ginibre(ch.dim, ch.dim, rng, min(block, trials - start))
            compressed = pm @ (g @ g.conj().swapaxes(-1, -2)) @ pm
            rho = compressed / np.trace(compressed, axis1=-2, axis2=-1)[:, None, None]
            nu = _act(terms, rho, SCHRODINGER)
            # Python's complex abs, whose bits numpy's does not always have
            face = max(face, *(abs(t - 1.0)
                               for t in np.trace(nu @ pm, axis1=-2, axis2=-1).tolist()))

    a = tol.atol
    order_check = ConditionCheck("alpha(p) >= p", order_defect, a)
    return HarmonicityReport(
        face_invariance=ConditionCheck("face invariance (sampled)", face, a),
        operator_order=order_check,
        compression=ConditionCheck("p alpha(a) p = p alpha(pap) p", comp, a),
        corner=ConditionCheck("corner invariance", corner, a),
        verdict=order_check.holds,
    )


def _leak(terms, w: np.ndarray) -> np.ndarray:
    """The stack of ``X W - W (W^dag X W) = (1-p) X W`` over the Kraus
    operators, or the jumps and ``G``, of the terms ``(G, {L_i})``
    (``_terms``), for the ``k`` orthonormal columns ``W`` of ``p``: 0
    exactly when sub-harmonic.  ``W^dag`` is a co-isometry, so each has the
    spectral and Frobenius norms of ``(1-p) X p``, at ``O(d^2 k)``."""
    g, ops = terms
    xw = np.stack(ops if g is None else (*ops, g)) @ w
    return xw - w @ (w.conj().T @ xw)


def _residual(terms, p: Projection) -> float:
    """The reported residual ``max |(1-p) X p|`` of :func:`_leak` on the
    range basis of ``p``, one SVD of the ``(K, d, rank p)`` stack."""
    return opnorm(_leak(terms, p.range_basis))


def kraus_invariance_test(ch: QuantumChannel, p: Projection,
                          tol: ToleranceConfig | None = None) -> bool:
    """Exact algebraic sub-harmonicity test: ``(1-p) V_i p = 0`` for all i;
    TypeError for a generator."""
    return _subharmonic(ch, p, tol, channel=True)


def is_subharmonic_generator(gen: LindbladGenerator, p: Projection,
                             tol: ToleranceConfig | None = None) -> bool:
    """Generator-level sub-harmonicity: ``(1-p) L_i p = 0`` and ``(1-p) G p = 0``.

    ``G = -iH - (1/2) sum_i L_i^dag L_i``.  The criterion is exact (no time
    grid); the test suite cross-validates it against the order condition
    ``alpha_t(p) >= p`` sampled at several times, and any disagreement
    beyond tolerance is a test failure rather than something resolved here.
    TypeError for a channel.
    """
    return _subharmonic(gen, p, tol, channel=False)


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
    return _subharmonic(obj, p, tol)


def _subharmonic(obj, p: Projection, tol, channel: bool | None = None,
                 picture: str = HEISENBERG) -> bool:
    """:func:`is_subharmonic` of a model of the kind ``channel`` demands;
    in the Schrodinger ``picture``, of its :func:`~qdsa.channels._adjoint`
    terms, which is :func:`is_superharmonic`."""
    terms = _terms(obj, channel)
    _check_operand(p.dim, obj.dim)
    if picture == SCHRODINGER:
        terms = _adjoint(terms)
    return not _norm_exceeds(_leak(terms, p.range_basis), _tol(tol).atol)


def is_superharmonic(obj, p: Projection, tol: ToleranceConfig | None = None) -> bool:
    """True when ``alpha(p) <= p``, i.e. ``1 - p`` is sub-harmonic: the
    leak ``(1 - p) X^dag p`` of the range basis of ``p`` under the adjoint
    terms, decided as in :func:`is_subharmonic`, with no complement built."""
    return _subharmonic(obj, p, tol, picture=SCHRODINGER)


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
    support, defect = _fixed_point_support(ch, x, tol)
    return support, defect <= tol.psd_tol


def _fixed_point_support(ch: QuantumChannel, x, tol: ToleranceConfig):
    """``(support, defect)`` of :func:`fixed_point_support_check`: the
    support ``s`` of ``x`` and the PSD defect of ``s - alpha(s)``, with its
    errors."""
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
    return s, defect
