"""Long-time structure of a quantum dynamical semigroup.

Every superoperator here is real: the maps preserve Hermiticity, so in the
Hermitian frame of :mod:`qdsa.channels` the Schrodinger matrix ``R`` is
real and the Heisenberg one is its transpose.  The analysis pipeline is:

1. The recurrent block is guessed before any SVD: the support of
   ``(s (s - F)^-1)^3 (1/d)`` for the fixed-point matrix ``F`` (``R``, or
   ``R - 1`` for a channel) and a small shift ``s``, from one LU.  A guess
   ``r`` below 1 is certified exactly, with no horizon: ``r`` is
   sub-harmonic, its compressed model has a faithful stationary state, and
   the fixed-point matrix of the transient corner ``1 - r`` is nonsingular.
   Every stationary state lives under the recurrent block, so the
   stationary space is then that of the compressed model, embedded.  Any
   other outcome is the block ``r = 1``, i.e. the whole model.  One real
   SVD of the block's fixed-point matrix gives the stationary space as its
   right kernel (the kernel columns are already an orthonormal Hermitian
   basis) and the Heisenberg fixed points as its left kernel.  A
   maximal-support stationary state is the exact time-average limit of the
   maximally mixed state: its oblique projection onto the kernel along the
   range, ``K (L^T K)^-1 L^T``.  In finite dimension the peripheral
   spectrum of a CP trace-preserving semigroup is semisimple, so that
   component is precisely the long-time Cesaro limit.

2. The support of that maximal-support state gives the maximal recurrent
   block ``r``: the state dominates every stationary state, so its support
   is the supremum of all stationary supports, and every basis element of
   the stationary space is checked to lie under it.  Every block the
   refinement visits is sub-harmonic, so the dynamics compressed to it is
   again a model:
   ``(W^dag H W, {W^dag L_i W})`` or ``{W^dag V_i W}`` for the block
   isometry ``W``; when ``r`` is the whole space the model itself, and when
   it is the certified guess the corner built in step 1.  The
   Heisenberg fixed points of the compressed model form a *-algebra (it
   has a faithful stationary state); splitting along the spectral
   projections of a generic Hermitian fixed element and recursing yields an
   orthogonal family of minimal enclosures, i.e. supports of the minimal
   invariant faces.  Each emitted block is certified by its compressed
   model having a one-dimensional stationary space whose state has full
   support on the block; the same SVD of the compressed model gives its
   fixed algebra and its certificate.

3. The minimal recurrent projection ``r`` is the supremum of the minimal
   enclosures.  At a finite horizon ``T`` the report records how far
   ``alpha_T`` has pushed it towards the identity and how much of the
   transient corner ``q = 1 - r`` survives.  Since ``r`` is sub-harmonic,
   ``alpha`` maps ``qMq`` into itself, so ``alpha_T(q)`` is propagated by
   the ``m^2 x m^2`` real matrix of that corner (``m = rank q``) and
   ``alpha_T(r) = 1 - alpha_T(q)`` by unitality: both diagnostics come from
   the corner and coincide in exact arithmetic.  Whether the decay ideal
   ``{a : alpha_t(a^dag a) -> 0}`` matches the left ideal of operators
   annihilating the recurrent block from the right is tested on the full
   propagator.

Oscillatory peripheral spectrum means plain limits of states may not
exist, so state-level limits always go through Cesaro means, while the
recurrence checks use ``alpha_T`` on projections where monotone
convergence is guaranteed.  Discrete channels reuse every operation with
the horizon read as an iteration count.

Every public function accepts either a bare model or a :class:`Dynamics`.  A
``Dynamics`` wraps one model for the length of one top-level call and
computes each derived object at most once: the real Schrodinger matrix of
:func:`to_superoperator`, its kernel split, the certified guess of the
recurrent block, the stationary space and its support (per tolerance), and
the real propagator ``alpha_T`` (per horizon) on its transpose.  No complex
superoperator is ever formed.  A ``Dynamics`` is dropped with the call;
nothing is cached on the model or globally.
"""

from __future__ import annotations

import math
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
    _block_frame,
    _iteration_count,
    _propagate,
    from_hermitian_coords,
    hermitian_coords,
    to_superoperator,
)
from .errors import (
    ConvergenceFailure,
    DimMismatch,
    InternalError,
    NotUnital,
    TheoremViolation,
)
from .harmonic import subharmonic_residual
from .linalg import (
    Projection,
    ToleranceConfig,
    _decisive,
    _fix_phases,
    _hermitian_spectrum,
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
    """Orthonormal bases of the numerical kernel and the left kernel of the
    fixed-point matrix ``m``, from one SVD.

    For the real Schrodinger form the kernel holds the stationary states
    and the left kernel the Heisenberg fixed points.  The kernel of a
    fixed-point matrix is never empty: it holds the identity (Heisenberg)
    or a stationary state (Schrodinger).  An empty numerical kernel is
    therefore an InternalError.
    """
    u, s, vh = np.linalg.svd(m)
    cutoff = tol.cutoff(float(s[0]) if s.size else 0.0)
    null_mask = s <= cutoff
    if not null_mask.any():
        raise InternalError(
            f"numerical fixed-point kernel is empty (smallest singular value "
            f"{s[-1]:.3e}, cutoff {cutoff:.3e})")
    return vh[null_mask].conj().T, u[:, null_mask]


def _kernel_component(kernel: np.ndarray, left: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component of ``v`` in span(kernel) along the range: the oblique
    projection ``K (L^T K)^-1 L^T v``.

    With ``kernel, left`` from :func:`_split_kernel_range` of a fixed-point
    matrix whose zero (or peripheral unit) eigenvalue is semisimple, the
    range is the annihilator of the left kernel, ``L^T K`` is invertible and
    this component is the exact infinite Cesaro limit of the flow applied to
    ``v``.  A singular ``L^T K`` (a defective zero eigenvalue) is an
    InternalError.
    """
    try:
        coeff = np.linalg.solve(left.T @ kernel, left.T @ v)
    except np.linalg.LinAlgError as exc:
        raise InternalError("left and right fixed-point kernels are not "
                            "complementary (defective zero eigenvalue)") from exc
    return kernel @ coeff


@dataclass(frozen=True)
class StationarySpace:
    """Hermitian basis of the fixed-point space and its maximal-support state.

    ``state`` has maximal support among all stationary states: it is the
    time-average limit of the maximally mixed state or, when
    :meth:`Dynamics.guess` certified the recurrent block, that of the
    block's maximally mixed state under the compressed dynamics, embedded.
    Its support is the supremum of the supports of all stationary states.
    """

    basis: tuple
    state: DensityMatrix
    dim: int


class Dynamics:
    """One model and the objects derived from it, each built on first use.

    Holds the real Schrodinger form that :func:`to_superoperator` builds,
    its kernel split, the certified guess of the recurrent block
    (:func:`_certified_guess`), the stationary space and its support (that
    of its maximal-support state, :func:`stationary_support`) for each
    tolerance, and the real Heisenberg propagator for each horizon asked
    for, taken on the transpose (the Heisenberg form), so no second
    superoperator is built.  When the guess is certified, the
    stationary space is that of the guessed block's corner and the kernel
    split of the whole model is never formed.  Build one per top-level call
    and pass it to the functions of this module in place of the model; it is
    dropped when the call returns, so the memory it holds never outlives the
    analysis.  The corners of :func:`minimal_enclosures` are ``Dynamics`` of
    compressed models.
    """

    def __init__(self, model):
        self.discrete = _is_discrete(model)
        self.model = model
        self.dim = model.dim
        self._cache = {}

    def _cached(self, key, build):
        """``build()``, computed on the first call for ``key`` only."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @cached_property
    def schrodinger(self) -> np.ndarray:
        """Real form of the Schrodinger superoperator."""
        return to_superoperator(self.model, SCHRODINGER).real

    def flow(self, horizon: float) -> Superoperator:
        """The Heisenberg propagator ``alpha_T`` at ``horizon``."""
        return self._cached(("flow", horizon), lambda: Superoperator(
            _propagate(self.schrodinger.T, horizon, self.discrete), HEISENBERG))

    def split(self, tol: ToleranceConfig):
        """Kernel and left kernel of the fixed-point matrix."""
        return self._cached(("split", tol), lambda: _split_kernel_range(
            _fixed_point_matrix(self.schrodinger, self.discrete), tol))

    def limit(self, tol: ToleranceConfig):
        """Stationary dimension and the time-average limit of the maximally
        mixed state (:func:`_mixed_limit`)."""
        return self._cached(("limit", tol), lambda: _mixed_limit(self, tol))

    def limit_support(self, tol: ToleranceConfig) -> Projection:
        """Support of the state of :meth:`limit`."""
        return self._cached(("limit_support", tol),
                            lambda: support_projection(self.limit(tol)[1].matrix, tol))

    def guess(self, tol: ToleranceConfig) -> "_Guess":
        """The recurrent block guessed and certified by :func:`_certified_guess`."""
        return self._cached(("guess", tol), lambda: _certified_guess(self, tol))

    def block(self, tol: ToleranceConfig):
        """Isometry onto the block certified by :meth:`guess` and the
        block's dynamics: the identity and, through :func:`_corner`, this
        ``Dynamics`` itself when no block is certified."""
        guess = self.guess(tol)
        w = guess.projection.range_basis
        return w, guess.corner if guess.corner is not None else _corner(self, w, tol)

    def space(self, tol: ToleranceConfig) -> StationarySpace:
        return self._cached(("space", tol), lambda: stationary_space(self, tol))

    def support(self, tol: ToleranceConfig) -> Projection:
        """The stationary support :func:`stationary_support` of ``space(tol)``."""
        return self._cached(("support", tol),
                            lambda: stationary_support(self.space(tol), tol))


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


def _check_horizon(horizon: float, discrete: bool) -> None:
    """ValueError unless ``0 < horizon < inf`` and, for a channel
    (``discrete``), the horizon is an iteration count."""
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if discrete:
        _iteration_count(horizon)


def _mixed_limit(dyn: Dynamics, tol: ToleranceConfig):
    """Stationary dimension and the time-average limit of the maximally
    mixed state."""
    kernel, left = dyn.split(tol)
    d = dyn.dim
    mixed = hermitian_coords(np.eye(d) / d)
    return kernel.shape[1], _as_state(
        from_hermitian_coords(_kernel_component(kernel, left, mixed), d), tol)


def cesaro_limit(obj, rho: DensityMatrix, tol: ToleranceConfig | None = None) -> DensityMatrix:
    """Exact long-time Cesaro limit of a state under the predual flow."""
    tol = _tol(tol)
    dyn = _as_dynamics(obj)
    kernel, left = dyn.split(tol)
    limit = _kernel_component(kernel, left, hermitian_coords(rho.matrix))
    return _as_state(from_hermitian_coords(limit, rho.dim), tol)


def stationary_space(obj, tol: ToleranceConfig | None = None) -> StationarySpace:
    """Fixed-point space of the predual flow with its maximal-support state.

    Every stationary state is supported under the recurrent block, so when
    :meth:`Dynamics.guess` certifies a block ``r`` with isometry ``W`` the
    space is that of the compressed ``r``-model embedded by ``W . W^dag``,
    and ``state`` is the embedded time-average limit of the corner's
    maximally mixed state.  Otherwise it comes from the kernel split of the
    whole model.  Either way one split gives both the basis and that limit.
    An empty stationary space is impossible in finite dimension; if the
    numerical null space comes out empty, InternalError is raised.
    """
    tol = _tol(tol)
    dyn = _as_dynamics(obj)
    iso, corner = dyn.block(tol)
    basis = [from_hermitian_coords(x, corner.dim) for x in corner.split(tol)[0].T]
    _, omega = corner.limit(tol)
    if corner is not dyn:
        basis = [iso @ b @ iso.conj().T for b in basis]
        omega = DensityMatrix(iso @ omega.matrix @ iso.conj().T, tol)
    return StationarySpace(tuple(basis), omega, len(basis))


def stationary_support(space: StationarySpace, tol: ToleranceConfig | None = None) -> Projection:
    """Support ``P`` of the maximal-support stationary state, the supremum
    of the supports of all stationary states.

    Checked directly: every basis element ``b`` of the space must satisfy
    ``|(1 - P) b| <= atol |b|``, else InternalError.
    """
    tol = _tol(tol)
    support = support_projection(space.state.matrix, tol)
    outside = support.complement().matrix
    if any(opnorm(outside @ b) > tol.atol * opnorm(b) for b in space.basis):
        raise InternalError("stationary support disagrees with the maximal-state support")
    return support


def _compress(model, w: np.ndarray, tol: ToleranceConfig):
    """The model compressed to the block spanned by the isometry ``w``.

    On a sub-harmonic block the compressed generator ``(W^dag H W,
    {W^dag L_i W})`` and the compressed channel ``{W^dag V_i W}`` act as
    ``y -> W^dag S(W y W^dag) W``; the channel is unital exactly when the
    block is invariant, so a failed unitality check is an InternalError.
    """
    wh = w.conj().T
    if isinstance(model, QuantumChannel):
        try:
            return QuantumChannel([wh @ v @ w for v in model.kraus_ops], tol)
        except NotUnital as exc:
            raise InternalError(f"block of size {w.shape[1]} is not invariant: {exc}") from exc
    return LindbladGenerator(wh @ model.hamiltonian @ w,
                             [wh @ l @ w for l in model.lindblad_ops], tol)


def _corner(dyn: Dynamics, w: np.ndarray, tol: ToleranceConfig) -> Dynamics:
    """Dynamics of the block spanned by ``w``; ``dyn`` itself when ``w`` is
    the identity, so the top-level split is reused."""
    if w.shape[1] == dyn.dim and np.array_equal(w, np.eye(dyn.dim)):
        return dyn
    return Dynamics(_compress(dyn.model, w, tol))


def _corner_matrix(dyn: Dynamics, w: np.ndarray) -> np.ndarray:
    """The real Schrodinger matrix ``P^T R P`` of the block spanned by the
    isometry ``w``, ``P`` its block frame."""
    p = _block_frame(w)
    return p.T @ dyn.schrodinger @ p


# The resolvent guess uses the shift s = _GUESS_SHIFT * |F|_1.  Its
# normalized eigenvalues are cut at sqrt(_GUESS_SHIFT), with the decisive
# band of :func:`~qdsa.linalg._decisive` above the cut.
_GUESS_SHIFT = 1e-6


class _Guess(NamedTuple):
    """Outcome of :meth:`Dynamics.guess`.

    ``projection`` is the certified recurrent block, or the identity when no
    block was certified; ``corner`` is its compressed dynamics and
    ``transient`` the isometry onto its complement with the real matrix of
    that corner (both None for the identity, so that a ``Dynamics`` never
    holds a reference to itself).  ``outcome`` is ``"certified"``,
    ``"none"`` (no decisive guess, or ``F = 0``), ``"whole"`` (a guess of
    1), or the certificate that failed: ``"not-subharmonic"`` (a),
    ``"not-faithful"`` (b) or ``"no-decay"`` (c).
    """

    projection: Projection
    corner: Dynamics | None
    transient: tuple | None
    outcome: str


def _resolvent_guess(dyn: Dynamics) -> Projection | None:
    """Support of ``rho = (s (s - F)^-1)^3 (1/d)``, ``F`` the real
    fixed-point matrix and ``s = _GUESS_SHIFT |F|_1``: one LU, three solves.

    The resolvent is trace preserving and keeps the stationary states, and
    it damps a transient eigenvalue ``mu`` of ``F`` by ``(s/|mu|)^3``, so
    ``rho`` is close to the time-average limit of ``1/d``, whose support is
    the recurrent block.  Eigenvalues of ``rho / lambda_max`` above
    ``sqrt(_GUESS_SHIFT)`` are kept; any eigenvalue inside the decisive band
    makes the guess indecisive.  Returns None when ``F = 0`` or the guess
    is indecisive.
    """
    from scipy.linalg.lapack import dgetrf, dgetrs

    d = dyn.dim
    a = -dyn.schrodinger  # -F, the one n x n copy
    diagonal = slice(None, None, d * d + 1)
    if dyn.discrete:
        a.flat[diagonal] += 1.0
    norm = float(np.abs(a).sum(axis=0).max())
    if norm == 0.0:
        return None
    shift = _GUESS_SHIFT * norm
    a.flat[diagonal] += shift
    # factor (s - F)^T in place (its Fortran-ordered view) and solve transposed
    lu, piv, info = dgetrf(a.T, overwrite_a=True)
    if info != 0:
        return None
    x = hermitian_coords(np.eye(d) / d)
    for _ in range(3):
        x, info = dgetrs(lu, piv, x, trans=1)
        x *= shift
    # rho has unit trace (the resolvent preserves it), so lambda_max > 0
    lam, vec = np.linalg.eigh(from_hermitian_coords(x, d))
    ratios = lam / lam[-1]
    cut = np.sqrt(_GUESS_SHIFT)
    if not all(_decisive(float(t), cut) for t in ratios):
        return None
    return Projection.from_range_basis(_fix_phases(vec[:, ratios > cut]), d)


def _certified_guess(dyn: Dynamics, tol: ToleranceConfig) -> _Guess:
    """Guess the recurrent block ``r_o`` with :func:`_resolvent_guess` and
    certify it, with no SVD of the whole fixed-point matrix.

    A guess ``r`` below 1 is ``r_o`` exactly when
    (a) it is sub-harmonic (residual at most ``atol``);
    (b) its compressed model has a faithful stationary state, which is then
        stationary for the whole model, so ``r <= r_o``;
    (c) the fixed-point matrix of the transient corner ``q = 1 - r`` has no
        numerical kernel (smallest singular value at least ten times the
        kernel cutoff ``tol.cutoff(sigma_max)``).  The spectral
        bound of the positive semigroup on ``qMq`` is an eigenvalue, so then
        ``alpha_t(q) -> 0`` and ``alpha_t(r) -> 1``; ``r_o`` is the smallest
        projection with that property, so ``r >= r_o``.
    (c) needs no horizon.  Any other outcome is the identity block, whose
    corner is ``dyn`` itself (:meth:`Dynamics.block`): the stationary space
    then comes from the whole model's split.  Nothing built for a rejected
    guess is kept.
    """
    guess = _resolvent_guess(dyn)

    def whole(outcome: str) -> _Guess:
        return _Guess(Projection.identity(dyn.dim), None, None, outcome)

    if guess is None:
        return whole("none")
    if guess.rank == dyn.dim:
        return whole("whole")
    if not subharmonic_residual(dyn.model, guess) <= tol.atol:
        return whole("not-subharmonic")
    corner = _corner(dyn, guess.range_basis, tol)
    if corner.limit_support(tol).rank < guess.rank:
        return whole("not-faithful")
    w = guess.complement().range_basis
    r_q = _corner_matrix(dyn, w)
    sv = np.linalg.svd(_fixed_point_matrix(r_q, dyn.discrete), compute_uv=False)
    if not sv[-1] >= 10 * tol.cutoff(sv[0]):
        return whole("no-decay")
    return _Guess(guess, corner, (w, r_q), "certified")


def _fixed_basis(dyn: Dynamics, tol: ToleranceConfig) -> list:
    """Orthonormal Hermitian basis of the Heisenberg fixed points: the
    left kernel of the split, since the Heisenberg form is the transpose."""
    return [from_hermitian_coords(x, dyn.dim) for x in dyn.split(tol)[1].T]


def restricted_stationary_dim(obj, p: Projection, tol: ToleranceConfig | None = None):
    """Stationary-space dimension and time-average state of the dynamics
    compressed to the block ``p``; used to certify enclosure minimality.

    The state is in the coordinates of ``p.range_basis``.
    """
    tol = _tol(tol)
    if p.rank == 0:
        raise DimMismatch("cannot restrict to the zero block")
    return _corner(_as_dynamics(obj), p.range_basis, tol).limit(tol)


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


def _canonical_key(p: Projection):
    diag = np.round(np.real(np.diag(p.matrix)), 6)
    flat = np.round(np.real(p.matrix).ravel(), 6)
    return (-p.rank, tuple(-diag), tuple(-flat))


@dataclass(frozen=True)
class EnclosureDecomposition:
    """Orthogonal family of minimal enclosures (minimal invariant faces).

    ``is_unique`` is True exactly when the fixed-point algebra on the
    recurrent block is abelian; otherwise the family returned is one valid
    maximal orthogonal choice, deterministic for a given seed, and only the
    projection supremum of the family is basis independent.

    ``certificates`` holds, for each projection, the stationary dimension
    and time-average state of its compressed dynamics that certified it
    minimal (what :func:`restricted_stationary_dim` returns for it), and
    ``certificate_ranks`` the rank of that state's support.
    ``subharmonic_residuals`` holds each projection's
    :func:`~qdsa.harmonic.subharmonic_residual`, checked against ``atol``,
    and ``max_overlap`` the largest ``|p q|`` over distinct pairs of
    projections (0.0 for fewer than two), checked against ``10 atol``.
    """

    minimal_projections: tuple
    is_unique: bool
    fixed_algebra_dim: int
    certificates: tuple
    certificate_ranks: tuple
    subharmonic_residuals: tuple
    max_overlap: float


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
    r = dyn.support(tol)
    top, top_corner = dyn.block(tol)
    if r.rank != top.shape[1]:
        # no certified block, and the stationary support is not the identity
        top = r.range_basis
        top_corner = _corner(dyn, top, tol)

    top_fixed = _fixed_basis(top_corner, tol)
    fixed_algebra_dim = len(top_fixed)
    unique = _is_abelian(top_fixed, tol)

    final = []
    # each entry is a block isometry and its corner dynamics, when already built
    queue = [(top, top_corner)]
    guard = 0
    while queue:
        guard += 1
        if guard > 64 * dyn.dim:
            raise ConvergenceFailure("enclosure refinement failed to terminate")
        w, corner = queue.pop()
        k = w.shape[1]
        if corner is None:
            corner = _corner(dyn, w, tol)
        fixed = _fixed_basis(corner, tol)
        if len(fixed) <= 1:
            sdim, state = corner.limit(tol)
            supp = corner.limit_support(tol)
            if sdim == 1 and supp.rank == k:
                final.append((Projection.from_range_basis(w), (sdim, state), supp.rank))
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

    final.sort(key=lambda item: _canonical_key(item[0]))
    projections = tuple(p for p, _, _ in final)
    residuals = []
    max_overlap = 0.0
    for i, p in enumerate(projections):
        residual = subharmonic_residual(dyn.model, p)
        if not residual <= tol.atol:
            raise InternalError(
                f"refined enclosure {i} fails the sub-harmonic test "
                f"(residual {residual:.3e})")
        residuals.append(residual)
        for q in projections[i + 1:]:
            overlap = opnorm(p.matrix @ q.matrix)
            if overlap > 10 * tol.atol:
                raise InternalError("refined enclosures are not mutually orthogonal")
            max_overlap = max(max_overlap, overlap)
    return EnclosureDecomposition(projections, unique, fixed_algebra_dim,
                                  tuple(c for _, c, _ in final),
                                  tuple(k for _, _, k in final), tuple(residuals),
                                  max_overlap)


@dataclass(frozen=True)
class RecurrentReport:
    """Recurrent structure at a finite horizon.

    ``recurrent`` is the minimal recurrent projection (supremum of the
    minimal enclosures); ``stationary_support`` is the support of the
    maximal-support stationary state, which must coincide with it in
    finite dimension (``supports_match``).  ``sup_deviation`` measures how
    far ``alpha_T`` has carried the recurrent projection towards the
    identity and ``transient_norm`` how much of its complement ``q``
    survives; both are monotone non-increasing in the horizon.  Both are
    read off ``alpha_T(q)``, propagated on the transient corner
    (:func:`_transient_corner`): ``limit_estimate`` is ``1 - alpha_T(q)``,
    which equals ``alpha_T(r)`` by unitality, so the two coincide in exact
    arithmetic.  They are exactly 0 when ``r`` is the identity.
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


def _transient_corner(dyn: Dynamics, recurrent: Projection, tol: ToleranceConfig):
    """Isometry ``W`` onto ``q = 1 - r`` and the real Schrodinger matrix
    ``R_q = P^T R P`` of the transient corner, ``P`` the block frame of ``W``.

    ``r`` must be sub-harmonic (else InternalError), and ``q`` nonzero.
    Then ``alpha(q) <= q``, so the Heisenberg form ``R^T`` maps the
    operators ``qMq`` (the range of ``P``) into themselves and
    ``exp(T R^T) P = P exp(T R_q^T)``: ``R_q^T`` propagates them exactly.
    """
    residual = subharmonic_residual(dyn.model, recurrent)
    if not residual <= tol.atol:
        raise InternalError(
            f"recurrent projection fails the sub-harmonic test (residual {residual:.3e})")
    w = recurrent.complement().range_basis
    return w, _corner_matrix(dyn, w)


def recurrent_projection(obj, horizon: float = DEFAULT_HORIZON,
                         tol: ToleranceConfig | None = None, seed: int = 7) -> RecurrentReport:
    """Compute the minimal recurrent projection and its horizon diagnostics.

    ``alpha_T`` is taken on the transient corner only; no ``d^2 x d^2``
    propagator is built.
    """
    tol = _tol(tol)
    dyn = _as_dynamics(obj)
    _check_horizon(horizon, dyn.discrete)  # rejected even when no propagator runs
    decomposition = minimal_enclosures(dyn, tol, seed=seed)
    r_min = proj_supremum(decomposition.minimal_projections, tol)
    r_stat = dyn.support(tol)
    d = dyn.dim
    transient = np.zeros((d, d), dtype=complex)
    if r_min.rank < d:
        guess = dyn.guess(tol)
        if guess.transient is not None and projections_equal(r_min, guess.projection, tol):
            w, r_q = guess.transient  # certified: sub-harmonic, corner built
        else:
            w, r_q = _transient_corner(dyn, r_min, tol)
        m = w.shape[1]
        x = _propagate(r_q.T, horizon, dyn.discrete) @ hermitian_coords(np.eye(m))
        transient = w @ from_hermitian_coords(x, m) @ w.conj().T
    estimate = hermitian_part(np.eye(d) - transient)
    estimate.flags.writeable = False
    sup_deviation = opnorm(estimate - np.eye(d))
    transient_norm = opnorm(transient)
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

    def decisively_disagrees(self, atol: float) -> bool:
        """True when both residuals are decisive and the verdicts differ."""
        return (_decisive(self.algebraic_residual, atol)
                and _decisive(self.dynamic_residual, DEFAULT_DECAY_TOL)
                and self.in_ideal_algebraic != self.in_ideal_dynamic)


def decay_ideal_test(obj, a, recurrent: Projection, horizon: float = DEFAULT_HORIZON,
                     tol: ToleranceConfig | None = None) -> DecayIdealResult:
    """Membership of ``a`` in the decay ideal, tested two independent ways.

    Algebraically ``a`` belongs to the ideal when ``a r = 0`` (it lives in
    ``M r^perp``); dynamically when ``alpha_T(a^dag a)`` has decayed below
    ``DEFAULT_DECAY_TOL``.  The two verdicts must agree whenever the
    residuals are decisive.
    """
    tol = _tol(tol)
    dyn = _as_dynamics(obj)
    am = as_complex_matrix(a)
    if am.shape[0] != dyn.dim:
        raise DimMismatch("operand dimension does not match the dynamics")
    algebraic_residual = opnorm(am @ recurrent.matrix)
    dynamic_residual = opnorm(dyn.flow(horizon).apply(am.conj().T @ am))
    return DecayIdealResult(
        in_ideal_algebraic=algebraic_residual <= tol.atol,
        in_ideal_dynamic=dynamic_residual <= DEFAULT_DECAY_TOL,
        algebraic_residual=algebraic_residual,
        dynamic_residual=dynamic_residual,
    )


def cesaro_mean(obj, rho: DensityMatrix, horizon: float,
                grid_steps: int = 200, tol: ToleranceConfig | None = None) -> DensityMatrix:
    """Finite-horizon time average of the predual flow.

    For a generator this is the trapezoidal approximation of
    ``(1/T) integral_0^T nu_t(rho) dt`` on ``grid_steps`` intervals; for a
    discrete channel it is the mean of the first ``n`` iterates, where the
    horizon must be an integer ``n >= 1`` (else ValueError).  On a
    minimal face the distance to the unique stationary state is O(1/T).
    """
    tol = _tol(tol)
    if grid_steps < 2:
        raise ValueError(f"grid_steps must be at least 2, got {grid_steps}")
    dyn = _as_dynamics(obj)
    _check_horizon(horizon, dyn.discrete)
    if rho.dim != dyn.dim:
        raise DimMismatch("state dimension does not match the dynamics")
    v = hermitian_coords(rho.matrix)
    if dyn.discrete:
        n = _iteration_count(horizon)
        if n < 1:
            raise ValueError(f"a channel's mean needs at least one iterate, got {horizon}")
        s = dyn.schrodinger
        acc = np.zeros_like(v)
        for _ in range(n):
            acc += v
            v = s @ v
        mean = acc / n
    else:
        step = _propagate(dyn.schrodinger, horizon / grid_steps, discrete=False)
        acc = 0.5 * v
        for _ in range(grid_steps - 1):
            v = step @ v
            acc += v
        acc += 0.5 * (step @ v)
        mean = acc / grid_steps
    return _as_state(from_hermitian_coords(mean, rho.dim), tol)


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
                           tol: ToleranceConfig | None = None,
                           seed: int = 11) -> MinimalityReport:
    """Certify that no projection strictly below the recurrent one reaches 1.

    Part (a): for each minimal enclosure ``q``, exhibit an eigenvalue of
    ``alpha_T(r - q)`` bounded away from one, at most 0.75 (so the limit
    cannot be the identity).  Part (b): sweep random projections; any ``p``
    with ``|alpha_T(p) - 1| <= DEFAULT_DECAY_TOL`` must dominate the
    recurrent projection, else TheoremViolation is raised.

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
        w = _hermitian_spectrum(prop.apply(rest))
        w.flags.writeable = False
        gaps.append(EnclosureLimitGap(q, w, bool(w[0] <= 0.75)))

    near = 0
    for _ in range(trials):
        rank = int(rng.integers(1, d + 1))
        p = random_projection(d, rank, rng)
        deviation = opnorm(hermitian_part(prop.apply(p.matrix)) - eye)
        if deviation <= DEFAULT_DECAY_TOL:
            near += 1
            if not order_leq(recurrent.matrix, p.matrix, tol):
                raise TheoremViolation(
                    f"random projection of rank {rank} reached the identity at "
                    f"horizon {horizon} (deviation {deviation:.3e}) without "
                    "dominating the recurrent projection")
    ok = all(g.bounded_away for g in gaps)
    return MinimalityReport(tuple(gaps), trials, near, ok)
