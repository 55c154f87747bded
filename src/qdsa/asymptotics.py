"""Long-time structure of a quantum dynamical semigroup.

The analysis pipeline is:

1. The Schrodinger fixed-point space is computed as a numerical null space
   and Hermitized (the space is adjoint-closed).  A maximal-support
   stationary state is obtained as the exact time-average limit of the
   maximally mixed state, i.e. the component of ``1/d`` in the kernel of
   the Schrodinger superoperator along its range.  In finite dimension the
   peripheral spectrum of a CP trace-preserving semigroup is semisimple, so
   that component is precisely the long-time Cesaro limit.

2. The supremum of the supports of the stationary states gives the maximal
   recurrent block ``r``.  The Heisenberg fixed points of the dynamics
   compressed to the corner ``r M r`` form a *-algebra (the compressed
   semigroup has a faithful stationary state); splitting along the spectral
   projections of a generic Hermitian fixed element and recursing yields an
   orthogonal family of minimal enclosures, i.e. supports of the minimal
   invariant faces.  Each emitted block is certified by its compressed
   dynamics having a one-dimensional stationary space whose state has full
   support on the block.

3. The minimal recurrent projection is the supremum of the minimal
   enclosures.  At a finite horizon ``T`` the report records how far
   ``alpha_T`` has pushed it towards the identity, how much of the
   transient corner survives, and whether the decay ideal
   ``{a : alpha_t(a^dag a) -> 0}`` matches the left ideal of operators
   annihilating the recurrent block from the right.

Oscillatory peripheral spectrum means plain limits of states may not
exist, so state-level limits always go through Cesaro means, while the
recurrence checks use ``alpha_T`` on projections where monotone
convergence is guaranteed.  Discrete channels reuse every operation with
the horizon read as an iteration count.

Every public function accepts either a bare model or a :class:`Dynamics`.
A ``Dynamics`` wraps one model for the length of one top-level call and
computes each derived object at most once: the Schrodinger superoperator
matrix, the stationary space with its kernel/range split (per tolerance),
and the Heisenberg propagator ``alpha_T`` (per horizon).  The Heisenberg
superoperator is built once per :func:`minimal_enclosures` call, its only
user.  A ``Dynamics`` is dropped with the call; nothing is cached on the
model or globally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channels import (
    HEISENBERG,
    SCHRODINGER,
    DensityMatrix,
    LindbladGenerator,
    QuantumChannel,
    Superoperator,
    propagator,
    to_superoperator,
    unvec,
    vec,
)
from .errors import ConvergenceFailure, DimMismatch, InternalError, TheoremViolation
from .harmonic import is_subharmonic, subharmonic_residual
from .linalg import (
    Projection,
    ToleranceConfig,
    _decisive,
    _tol,
    as_complex_matrix,
    hermitian_part,
    opnorm,
    order_leq,
    proj_supremum,
    projections_equal,
    support_projection,
)
from .sampling import random_projection

__all__ = [
    "Dynamics",
    "StationarySpace",
    "EnclosureDecomposition",
    "RecurrentReport",
    "DecayIdealResult",
    "EnclosureLimitGap",
    "MinimalityReport",
    "DEFAULT_HORIZON",
    "DEFAULT_DECAY_TOL",
    "stationary_space",
    "stationary_support",
    "cesaro_limit",
    "cesaro_mean",
    "minimal_enclosures",
    "recurrent_projection",
    "decay_ideal_test",
    "asymptotic_equivalence_check",
    "minimality_certificate",
    "restricted_stationary_dim",
]

DEFAULT_HORIZON = 30.0
DEFAULT_DECAY_TOL = 1e-8


def _is_discrete(obj) -> bool:
    if isinstance(obj, QuantumChannel):
        return True
    if isinstance(obj, LindbladGenerator):
        return False
    raise TypeError(f"expected QuantumChannel or LindbladGenerator, got {type(obj)!r}")


def _fixed_point_matrix(superop_matrix: np.ndarray, discrete: bool) -> np.ndarray:
    """Matrix whose kernel is the fixed-point space of the dynamics."""
    if discrete:
        return superop_matrix - np.eye(superop_matrix.shape[0])
    return superop_matrix


def _split_kernel_range(m: np.ndarray, tol: ToleranceConfig):
    """Orthonormal bases of the numerical kernel and range of the
    fixed-point matrix ``m``.

    The kernel of a fixed-point matrix is never empty: it holds the
    identity (Heisenberg) or a stationary state (Schrodinger).  An empty
    numerical kernel is therefore an InternalError.
    """
    u, s, vh = np.linalg.svd(m)
    smax = float(s[0]) if s.size else 0.0
    cutoff = max(tol.rank_rtol * smax, tol.atol)
    null_mask = s <= cutoff
    if not null_mask.any():
        raise InternalError(
            f"numerical fixed-point kernel is empty (smallest singular value "
            f"{s[-1]:.3e}, cutoff {cutoff:.3e})")
    kernel = vh[null_mask].conj().T
    range_ = u[:, ~null_mask]
    return kernel, range_


def _kernel_component(kernel: np.ndarray, range_: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component of ``v`` in span(kernel) along span(range_).

    With ``kernel, range_`` from :func:`_split_kernel_range` of a
    fixed-point matrix whose zero (or peripheral unit) eigenvalue is
    semisimple, the two subspaces are complementary and this component is
    the exact infinite Cesaro limit of the flow applied to ``v``.
    """
    basis = np.hstack([kernel, range_])
    if basis.shape[0] != basis.shape[1]:
        raise InternalError("kernel and range do not decompose the space")
    coeff = np.linalg.solve(basis, v)
    return kernel @ coeff[:kernel.shape[1]]


def _hermitian_span(kernel: np.ndarray, dim: int, tol: ToleranceConfig):
    """Orthonormal (Hilbert-Schmidt, real coefficients) Hermitian basis of
    the real span of ``{(m + m^dag)/2, (m - m^dag)/2i}`` over the matrices
    ``m`` whose vectorizations are the columns of ``kernel``."""
    rows = []
    for j in range(kernel.shape[1]):
        m = unvec(kernel[:, j], dim)
        for h in (hermitian_part(m), hermitian_part(-1j * m)):
            rows.append(np.concatenate([vec(h).real, vec(h).imag]))
    a = np.array(rows)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    smax = float(s[0]) if s.size else 0.0
    cutoff = max(tol.rank_rtol * smax, tol.atol)
    basis = []
    for row in vh[s > cutoff]:
        h = unvec(row[:dim * dim] + 1j * row[dim * dim:], dim)
        basis.append(hermitian_part(h))
    return basis


@dataclass(frozen=True)
class StationarySpace:
    """Hermitian basis and generating states of the fixed-point space.

    ``states[0]`` is the time-average limit of the maximally mixed state
    and has maximal support among all stationary states; the remaining
    states perturb it along each basis direction so that support
    computations do not depend on a single null-space vector.
    """

    basis: tuple
    states: tuple
    dim: int


class Dynamics:
    """One model and the objects derived from it, each built on first use.

    Holds the Schrodinger superoperator matrix, the stationary space for
    each tolerance and the Heisenberg propagator for each horizon asked
    for.  Build one per top-level call and pass it to the functions of
    this module in place of the model; it is dropped when the call
    returns, so the memory it holds never outlives the analysis.

    The Heisenberg superoperator is not kept: only
    :func:`minimal_enclosures` uses it, once per call, and holding it
    until ``alpha_T`` is built would add a ``d^2 x d^2`` matrix to the
    peak memory of the analysis.
    """

    def __init__(self, model):
        self.discrete = _is_discrete(model)
        self.model = model
        self.dim = model.dim
        self._flows = {}
        self._spaces = {}

    @cached_property
    def schrodinger(self) -> np.ndarray:
        return to_superoperator(self.model, SCHRODINGER).matrix

    def flow(self, horizon: float) -> Superoperator:
        """The Heisenberg propagator ``alpha_T`` at ``horizon``."""
        if horizon not in self._flows:
            self._flows[horizon] = propagator(self.model, horizon, HEISENBERG)
        return self._flows[horizon]

    def space(self, tol: ToleranceConfig) -> StationarySpace:
        if tol not in self._spaces:
            self._spaces[tol] = stationary_space(self, tol)
        return self._spaces[tol]


def _as_dynamics(obj) -> Dynamics:
    return obj if isinstance(obj, Dynamics) else Dynamics(obj)


def _as_state(matrix: np.ndarray, tol: ToleranceConfig) -> DensityMatrix:
    """Clip rounding-level negative eigenvalues and normalize the trace."""
    w, v = np.linalg.eigh(hermitian_part(matrix))
    if w[0] < -100 * tol.psd_tol:
        raise InternalError(f"candidate state has eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    m = (v * w) @ v.conj().T
    return DensityMatrix(m / np.trace(m), tol)


def cesaro_limit(obj, rho: DensityMatrix, tol: ToleranceConfig | None = None) -> DensityMatrix:
    """Exact long-time Cesaro limit of a state under the predual flow."""
    tol = _tol(tol)
    dyn = _as_dynamics(obj)
    m = _fixed_point_matrix(dyn.schrodinger, dyn.discrete)
    limit = unvec(_kernel_component(*_split_kernel_range(m, tol), vec(rho.matrix)), rho.dim)
    return _as_state(limit, tol)


def stationary_space(obj, tol: ToleranceConfig | None = None) -> StationarySpace:
    """Fixed-point space of the predual flow with generating states.

    An empty stationary space is impossible in finite dimension; if the
    numerical null space comes out empty, InternalError is raised.  One
    kernel/range split gives both the basis and the time-average limit of
    the maximally mixed state.
    """
    tol = _tol(tol)
    dyn = _as_dynamics(obj)
    d = dyn.dim
    m = _fixed_point_matrix(dyn.schrodinger, dyn.discrete)
    kernel, range_ = _split_kernel_range(m, tol)
    basis = _hermitian_span(kernel, d, tol)
    mixed = vec(np.eye(d, dtype=complex) / d)
    omega = _as_state(unvec(_kernel_component(kernel, range_, mixed), d), tol)

    w = np.linalg.eigvalsh(omega.matrix)
    lam_max = float(w[-1])
    cutoff = max(tol.rank_rtol * lam_max, tol.atol)
    lam_plus = float(np.min(w[w > cutoff]))

    states = [omega]
    for b in basis:
        eps = 0.45 * lam_plus / max(opnorm(b), 1e-30)
        states.append(_as_state(omega.matrix + eps * b, tol))
    return StationarySpace(tuple(basis), tuple(states), len(basis))


def stationary_support(space: StationarySpace, tol: ToleranceConfig | None = None) -> Projection:
    """Supremum of the supports of the generating stationary states.

    Cross-checked against the support of the time-average limit of the
    maximally mixed state, which dominates every stationary state.
    """
    tol = _tol(tol)
    sup = proj_supremum([support_projection(s.matrix, tol) for s in space.states], tol)
    base = support_projection(space.states[0].matrix, tol)
    if not projections_equal(sup, base, tol, factor=100.0):
        raise InternalError("stationary support disagrees with the maximal-state support")
    return sup


def _corner_fixed_matrix(s_full: np.ndarray, w: np.ndarray, discrete: bool) -> np.ndarray:
    """Fixed-point matrix of the dynamics compressed to the block spanned by
    the isometry ``w``; ``kron(conj(w), w)`` is ``y -> W y W^dag`` under
    column stacking."""
    b = np.kron(w.conj(), w)
    return _fixed_point_matrix(b.conj().T @ s_full @ b, discrete)


def _corner_fixed_basis(s_full: np.ndarray, w: np.ndarray, discrete: bool,
                        tol: ToleranceConfig):
    """Hermitian basis of the fixed points of the dynamics compressed to
    the block spanned by the isometry ``w``."""
    kernel, _ = _split_kernel_range(_corner_fixed_matrix(s_full, w, discrete), tol)
    return _hermitian_span(kernel, w.shape[1], tol)


def _corner_stationary(dyn: Dynamics, w: np.ndarray, tol: ToleranceConfig):
    """Dimension of the block-compressed stationary space and its
    time-average state (from the block-maximally-mixed state)."""
    k = w.shape[1]
    m = _corner_fixed_matrix(dyn.schrodinger, w, dyn.discrete)
    kernel, range_ = _split_kernel_range(m, tol)
    limit = unvec(_kernel_component(kernel, range_, vec(np.eye(k, dtype=complex) / k)), k)
    return kernel.shape[1], _as_state(limit, tol)


def restricted_stationary_dim(obj, p: Projection, tol: ToleranceConfig | None = None):
    """Stationary-space dimension and time-average state of the dynamics
    compressed to the block ``p``; used to certify enclosure minimality."""
    tol = _tol(tol)
    if p.rank == 0:
        raise DimMismatch("cannot restrict to the zero block")
    return _corner_stationary(_as_dynamics(obj), p.range_basis, tol)


def _is_abelian(hermitian_basis, tol: ToleranceConfig) -> bool:
    for i, a in enumerate(hermitian_basis):
        for b in hermitian_basis[i + 1:]:
            if opnorm(a @ b - b @ a) > 10 * tol.atol:
                return False
    return True


def _cluster_eigenvalues(w: np.ndarray, scale: float):
    """Group ascending eigenvalues into clusters separated by a decisive gap."""
    gap = 1e-6 * max(1.0, scale)
    groups = [[0]]
    for j in range(1, len(w)):
        if w[j] - w[j - 1] > gap:
            groups.append([j])
        else:
            groups[-1].append(j)
    return groups


def _canonical_order(projections):
    def key(p: Projection):
        diag = np.round(np.real(np.diag(p.matrix)), 6)
        flat = np.round(np.real(p.matrix).ravel(), 6)
        return (-p.rank, tuple(-diag), tuple(-flat))

    return tuple(sorted(projections, key=key))


@dataclass(frozen=True)
class EnclosureDecomposition:
    """Orthogonal family of minimal enclosures (minimal invariant faces).

    ``is_unique`` is True exactly when the fixed-point algebra on the
    recurrent block is abelian; otherwise the family returned is one valid
    maximal orthogonal choice, deterministic for a given seed, and only the
    projection supremum of the family is basis independent.
    """

    minimal_projections: tuple
    is_unique: bool
    fixed_algebra_dim: int


def minimal_enclosures(obj, tol: ToleranceConfig | None = None,
                       seed: int = 7) -> EnclosureDecomposition:
    """Decompose the recurrent block into minimal sub-harmonic projections.

    Splits the recurrent corner along spectral projections of a generic
    Hermitian fixed element and recurses; a genericity failure (accidental
    eigenvalue degeneracy) is retried with a fresh draw at most 8 times
    before ConvergenceFailure.
    """
    tol = _tol(tol)
    rng = np.random.default_rng(seed)
    dyn = _as_dynamics(obj)
    r = stationary_support(dyn.space(tol), tol)
    s_h = to_superoperator(dyn.model, HEISENBERG).matrix

    top_fixed = _corner_fixed_basis(s_h, r.range_basis, dyn.discrete, tol)
    fixed_algebra_dim = len(top_fixed)
    unique = _is_abelian(top_fixed, tol)

    final = []
    # each entry is a block isometry and its fixed basis, when already known
    queue = [(r.range_basis, top_fixed)]
    guard = 0
    while queue:
        guard += 1
        if guard > 64 * dyn.dim:
            raise ConvergenceFailure("enclosure refinement failed to terminate")
        w, fixed = queue.pop()
        k = w.shape[1]
        if k == 1:
            fixed = [np.eye(1, dtype=complex)]
        elif fixed is None:
            fixed = _corner_fixed_basis(s_h, w, dyn.discrete, tol)
        if len(fixed) <= 1:
            sdim, state = _corner_stationary(dyn, w, tol)
            supp = support_projection(state.matrix, tol)
            if sdim == 1 and supp.rank == k:
                final.append(Projection.from_range_basis(w))
            elif supp.rank < k:
                # stationary mass misses part of the block; shrink and retry
                queue.append((w @ supp.range_basis, None))
            else:
                raise ConvergenceFailure(
                    f"block of size {k} has stationary dimension {sdim} "
                    "but no fixed element to split along")
            continue
        groups = None
        vectors = None
        for _ in range(8):
            coeffs = rng.standard_normal(len(fixed))
            h = hermitian_part(sum(c * b for c, b in zip(coeffs, fixed)))
            w_eig, v_eig = np.linalg.eigh(h)
            candidate = _cluster_eigenvalues(w_eig, float(w_eig[-1] - w_eig[0]))
            if len(candidate) >= 2:
                groups, vectors = candidate, v_eig
                break
        if groups is None:
            raise ConvergenceFailure(
                f"no generic fixed element split a block of size {k} "
                f"with fixed space dimension {len(fixed)}")
        for idx in groups:
            queue.append((w @ vectors[:, idx], None))

    projections = _canonical_order(final)
    for i, p in enumerate(projections):
        if not is_subharmonic(dyn.model, p, tol):
            raise InternalError(
                f"refined enclosure {i} fails the sub-harmonic test "
                f"(residual {subharmonic_residual(dyn.model, p):.3e})")
        for q in projections[i + 1:]:
            if opnorm(p.matrix @ q.matrix) > 10 * tol.atol:
                raise InternalError("refined enclosures are not mutually orthogonal")
    return EnclosureDecomposition(projections, unique, fixed_algebra_dim)


@dataclass(frozen=True)
class RecurrentReport:
    """Recurrent structure at a finite horizon.

    ``recurrent`` is the minimal recurrent projection (supremum of the
    minimal enclosures); ``stationary_support`` is the supremum of the
    supports of the stationary states, which must coincide with it in
    finite dimension (``supports_match``).  ``sup_deviation`` measures how
    far ``alpha_T`` has carried the recurrent projection towards the
    identity and ``transient_norm`` how much of its complement survives;
    both are monotone non-increasing in the horizon.
    """

    recurrent: Projection
    stationary_support: Projection
    limit_estimate: np.ndarray
    sup_deviation: float
    transient_norm: float
    supports_match: bool
    faithful_family: bool
    horizon: float
    enclosures: EnclosureDecomposition


def recurrent_projection(obj, horizon: float = DEFAULT_HORIZON,
                         tol: ToleranceConfig | None = None, seed: int = 7) -> RecurrentReport:
    """Compute the minimal recurrent projection and its horizon diagnostics."""
    tol = _tol(tol)
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    dyn = _as_dynamics(obj)
    decomposition = minimal_enclosures(dyn, tol, seed=seed)
    r_min = proj_supremum(decomposition.minimal_projections, tol)
    r_stat = stationary_support(dyn.space(tol), tol)
    prop = dyn.flow(horizon)
    estimate = hermitian_part(prop.apply(r_min.matrix))
    estimate.flags.writeable = False
    sup_deviation = opnorm(estimate - np.eye(dyn.dim))
    transient_norm = opnorm(prop.apply(r_min.complement().matrix))
    matches = projections_equal(r_min, r_stat, tol, factor=100.0)
    faithful = r_stat.rank == dyn.dim
    return RecurrentReport(
        recurrent=r_min,
        stationary_support=r_stat,
        limit_estimate=estimate,
        sup_deviation=sup_deviation,
        transient_norm=transient_norm,
        supports_match=matches,
        faithful_family=faithful,
        horizon=horizon,
        enclosures=decomposition,
    )


class DecayIdealResult(NamedTuple):
    in_ideal_algebraic: bool
    in_ideal_dynamic: bool
    algebraic_residual: float
    dynamic_residual: float

    def decisively_disagrees(self, atol: float, decay_tol: float) -> bool:
        """True when both residuals are decisive and the verdicts differ."""
        return (_decisive(self.algebraic_residual, atol)
                and _decisive(self.dynamic_residual, decay_tol)
                and self.in_ideal_algebraic != self.in_ideal_dynamic)


def _decay_result(algebraic_residual: float, dynamic_residual: float,
                  tol: ToleranceConfig, decay_tol: float) -> DecayIdealResult:
    return DecayIdealResult(
        in_ideal_algebraic=algebraic_residual <= tol.atol,
        in_ideal_dynamic=dynamic_residual <= decay_tol,
        algebraic_residual=algebraic_residual,
        dynamic_residual=dynamic_residual,
    )


def decay_ideal_test(obj, a, recurrent: Projection, horizon: float = DEFAULT_HORIZON,
                     tol: ToleranceConfig | None = None,
                     decay_tol: float = DEFAULT_DECAY_TOL) -> DecayIdealResult:
    """Membership of ``a`` in the decay ideal, tested two independent ways.

    Algebraically ``a`` belongs to the ideal when ``a r = 0`` (it lives in
    ``M r^perp``); dynamically when ``alpha_T(a^dag a)`` has decayed below
    ``decay_tol``.  The two verdicts must agree whenever the residuals are
    decisive.
    """
    tol = _tol(tol)
    dyn = _as_dynamics(obj)
    am = as_complex_matrix(a)
    if am.shape[0] != dyn.dim:
        raise DimMismatch("operand dimension does not match the dynamics")
    algebraic_residual = opnorm(am @ recurrent.matrix)
    dynamic_residual = opnorm(dyn.flow(horizon).apply(am.conj().T @ am))
    return _decay_result(algebraic_residual, dynamic_residual, tol, decay_tol)


def _matrix_unit_decay_tests(dyn: Dynamics, recurrent: Projection, horizon: float,
                             tol: ToleranceConfig, decay_tol: float) -> list:
    """:func:`decay_ideal_test` on the matrix units, one result per column.

    Both residuals of ``E_ij`` depend only on ``j``: ``E_ij r`` holds row
    ``j`` of ``r`` (so its operator norm is that row's length) and
    ``E_ij^dag E_ij = E_jj``.  Entry ``j`` stands for the ``d`` units
    ``E_0j .. E_(d-1)j``, all read off the one propagator.
    """
    d = dyn.dim
    alpha = dyn.flow(horizon).matrix
    row_norms = np.linalg.norm(recurrent.matrix, axis=1)
    # vec(E_jj) is the unit vector at index j + j * d
    return [_decay_result(float(row_norms[j]), opnorm(unvec(alpha[:, j * (d + 1)], d)),
                          tol, decay_tol)
            for j in range(d)]


def asymptotic_equivalence_check(obj, a, recurrent: Projection,
                                 horizon: float = DEFAULT_HORIZON,
                                 tol: ToleranceConfig | None = None) -> float:
    """Distance ``|alpha_T(a) - alpha_T(r a r)|`` at the horizon.

    The compression to the recurrent block is asymptotically equivalent to
    the full observable; the returned distance decreases monotonically in
    the horizon and must vanish in the limit.
    """
    tol = _tol(tol)
    dyn = _as_dynamics(obj)
    am = as_complex_matrix(a)
    if am.shape[0] != dyn.dim:
        raise DimMismatch("operand dimension does not match the dynamics")
    rm = recurrent.matrix
    prop = dyn.flow(horizon)
    return opnorm(prop.apply(am) - prop.apply(rm @ am @ rm))


def cesaro_mean(obj, rho: DensityMatrix, horizon: float,
                grid_steps: int = 200, tol: ToleranceConfig | None = None) -> DensityMatrix:
    """Finite-horizon time average of the predual flow.

    For a generator this is the trapezoidal approximation of
    ``(1/T) integral_0^T nu_t(rho) dt`` on ``grid_steps`` intervals; for a
    discrete channel it is the mean of the first ``n`` iterates.  On a
    minimal face the distance to the unique stationary state is O(1/T).
    """
    tol = _tol(tol)
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if grid_steps < 2:
        raise ValueError(f"grid_steps must be at least 2, got {grid_steps}")
    dyn = _as_dynamics(obj)
    if rho.dim != dyn.dim:
        raise DimMismatch("state dimension does not match the dynamics")
    if dyn.discrete:
        n = int(round(horizon))
        s = dyn.schrodinger
        v = vec(rho.matrix)
        acc = np.zeros_like(v)
        for _ in range(n):
            acc += v
            v = s @ v
        mean = unvec(acc / n, rho.dim)
    else:
        step = propagator(dyn.model, horizon / grid_steps, SCHRODINGER).matrix
        v = vec(rho.matrix)
        acc = 0.5 * v
        for _ in range(grid_steps - 1):
            v = step @ v
            acc += v
        acc += 0.5 * (step @ v)
        mean = unvec(acc / grid_steps, rho.dim)
    return _as_state(mean, tol)


@dataclass(frozen=True)
class EnclosureLimitGap:
    """Spectrum of ``alpha_T`` applied to the recurrent block minus one
    enclosure; some eigenvalue must stay bounded away from one."""

    projection: Projection
    eigenvalues: np.ndarray
    bounded_away: bool


@dataclass(frozen=True)
class MinimalityReport:
    enclosure_gaps: tuple
    sweep_trials: int
    near_identity_count: int
    ok: bool


def minimality_certificate(obj, recurrent: Projection,
                           decomposition: EnclosureDecomposition,
                           trials: int = 200, horizon: float = DEFAULT_HORIZON,
                           tol: ToleranceConfig | None = None, seed: int = 11,
                           limit_tol: float = DEFAULT_DECAY_TOL,
                           gap_margin: float = 0.25) -> MinimalityReport:
    """Certify that no projection strictly below the recurrent one reaches 1.

    Part (a): for each minimal enclosure ``q``, exhibit an eigenvalue of
    ``alpha_T(r - q)`` bounded away from one (so the limit cannot be the
    identity).  Part (b): sweep random projections; any ``p`` with
    ``|alpha_T(p) - 1| <= limit_tol`` must dominate the recurrent
    projection, else TheoremViolation is raised.

    Smallness of ``|alpha_T(p) - 1|`` is never used to infer that ``p`` is
    sub-harmonic; the two notions are distinct and the sweep only checks
    the minimality direction.
    """
    tol = _tol(tol)
    rng = np.random.default_rng(seed)
    dyn = _as_dynamics(obj)
    prop = dyn.flow(horizon)
    d = dyn.dim
    eye = np.eye(d)

    gaps = []
    for q in decomposition.minimal_projections:
        rest = recurrent.matrix - q.matrix
        w = np.linalg.eigvalsh(hermitian_part(prop.apply(rest)))
        w.flags.writeable = False
        gaps.append(EnclosureLimitGap(q, w, bool(w[0] <= 1.0 - gap_margin)))

    near = 0
    for _ in range(trials):
        rank = int(rng.integers(1, d + 1))
        p = random_projection(d, rank, rng)
        deviation = opnorm(hermitian_part(prop.apply(p.matrix)) - eye)
        if deviation <= limit_tol:
            near += 1
            if not order_leq(recurrent.matrix, p.matrix, tol):
                raise TheoremViolation(
                    f"random projection of rank {rank} reached the identity at "
                    f"horizon {horizon} (deviation {deviation:.3e}) without "
                    "dominating the recurrent projection")
    ok = all(g.bounded_away for g in gaps)
    return MinimalityReport(tuple(gaps), trials, near, ok)
