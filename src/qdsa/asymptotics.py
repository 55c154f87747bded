"""Long-time structure of a quantum dynamical semigroup.

Every superoperator here is real: the maps preserve Hermiticity, so in the
Hermitian frame of :mod:`qdsa.channels` the Schrodinger matrix ``R`` is
real and the Heisenberg one is its transpose.  The analysis pipeline is one
path:

1. One split of the fixed-point matrix ``F`` (``R``, or ``R - 1`` for a
   channel) gives the stationary space as its right kernel and the
   Heisenberg fixed points as its left kernel, both as orthonormal
   Hermitian bases (:func:`_split_kernel_range`).  Below ``_LU_MIN_SIZE``
   unknowns the split is one real SVD; from there on it is one LU of
   ``s - F`` for a small shift ``s``, through which a fixed-seed random
   block is pushed and read off an ordered real Schur form, with the SVD
   as the fallback whenever that route cannot vouch for its kernels.  That
   route forms ``s - F`` straight from ``R``, reads ``|F|_1`` off that copy
   before the shift and takes every product with ``F`` from ``R``, so a
   channel's ``R - 1`` is formed only for the SVD.  A
   maximal-support stationary state is the exact time-average limit of the
   maximally mixed state: its oblique projection onto the kernel along the
   range, ``K (L^T K)^-1 L^T``.  In finite dimension the peripheral
   spectrum of a CP trace-preserving semigroup is semisimple, so that
   component is precisely the long-time Cesaro limit.

2. The support of that maximal-support state gives the maximal recurrent
   block ``r``: the state dominates every stationary state, so its support
   is the supremum of all stationary supports, and every basis element of
   the stationary space is checked to lie under it.  Every block is a
   corner (:func:`_corner`): the :class:`Dynamics` of the terms compressed
   by the block isometry ``W``, which give ``y -> W^dag alpha(W y W^dag)
   W`` exactly, a semigroup again for a sub- or super-harmonic block (the
   enclosures of Baumgartner and Narnhofer, Rev. Math. Phys. 24, 2012).
   Residuals are read off the terms too, so every function runs on a corner.
   The Heisenberg fixed points of the recurrent corner form a *-algebra (it
   has a faithful stationary state), so one split along the spectral
   projections of a generic Hermitian fixed element yields an orthogonal
   family of minimal enclosures, i.e. supports of the minimal invariant
   faces.  Each block is certified by its corner having a one-dimensional
   stationary space whose state has full support on the block; a block
   with a larger one means the draw merged two blocks, and the split is
   redrawn.

3. The minimal recurrent projection ``r`` is the supremum of the minimal
   enclosures.  At a finite horizon ``T`` the report records how far
   ``alpha_T`` has pushed it towards the identity and how much of the
   transient corner ``q = 1 - r`` survives.  Since ``r`` is sub-harmonic,
   ``alpha`` maps ``qMq`` into itself, so ``alpha_T(q)`` is the flow of
   the corner of ``q`` applied to its identity, an ``m^2 x m^2`` real
   propagator (``m = rank q``), and ``alpha_T(r) = 1 - alpha_T(q)`` by
   unitality.  Whether the decay ideal ``{a : alpha_t(a^dag a) -> 0}`` is
   the left ideal of operators annihilating ``r`` from the right is read
   off that flow and the stationary state (:func:`decay_ideal_units`).

Oscillatory peripheral spectrum means plain limits of states may not
exist, so state-level limits always go through Cesaro means, while the
recurrence checks use ``alpha_T`` on projections where monotone
convergence is guaranteed.  Discrete channels reuse every operation with
the horizon read as an iteration count.

Every public function accepts either a bare model or a :class:`Dynamics`.  A
``Dynamics`` wraps one model for the length of one top-level call and
computes each derived object at most once: the real Schrodinger matrix,
its kernel split, the stationary space and its support (per tolerance),
and the real propagator (per horizon and picture): ``alpha_T`` on its
transpose, ``nu_T`` on the matrix itself.  The top level and every corner
share one assembly, :func:`~qdsa.channels._real_schrodinger` of their
terms, which never forms the complex Schrodinger matrix whole: it sums it
into the real form a chunk of rows at a time, and every later step
works on real matrices.  A structure analysis thus holds at most two
``d^2 x d^2`` matrices at once: the cached real form and the LU copy of its
split.  A ``Dynamics`` is dropped with the call; nothing is cached on the
model or globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channels import (
    HEISENBERG,
    DensityMatrix,
    Superoperator,
    _check_horizon,
    _propagate,
    _real_schrodinger,
    _terms,
    from_hermitian_coords,
    hermitian_coords,
)
from .errors import (
    ConvergenceFailure,
    DimMismatch,
    FamilyNotSubharmonic,
    InternalError,
    TheoremViolation,
)
from .harmonic import _residual
from .linalg import (
    Projection,
    ToleranceConfig,
    _check_operand,
    _decisive,
    _hermitian_spectrum,
    _norm_exceeds,
    _tol,
    as_complex_matrix,
    hermitian_part,
    opnorm,
    order_leq,
    proj_supremum,
    projections_equal,
    support_projection,
    trace_norm,
)
from .sampling import gaussian_block, random_combination, random_projection

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
    "decay_ideal_units",
    "minimality_certificate",
    "restricted_stationary_dim",
]

DEFAULT_HORIZON = 30.0
DEFAULT_DECAY_TOL = 1e-8


def _fixed_point_matrix(superop_matrix: np.ndarray, discrete: bool) -> np.ndarray:
    """Matrix whose kernel is the fixed-point space of the dynamics: ``R``
    itself, or for a channel ``R - 1``, a copy with 1 subtracted on its
    diagonal (the bits of subtracting the identity matrix)."""
    if discrete:
        m = superop_matrix.copy()
        m.flat[::m.shape[0] + 1] -= 1.0
        return m
    return superop_matrix


# The split runs one SVD below _LU_MIN_SIZE unknowns (d^2) and the
# resolvent route of _resolvent_split from there on, where its one LU is a
# fraction of the SVD's cost.  That route shifts by s = _SHIFT * |F|_1,
# applies (s - F)^-1 _SOLVES times to a random block of 2 * _OVERSAMPLE
# columns drawn from seed _SPLIT_SEED, cuts its Ritz values at
# tol.cutoff(|F|_1), and keeps a kernel only when its estimated distance from
# the true one is at most _KERNEL_ERROR * tol.atol.
_LU_MIN_SIZE = 256
_SHIFT = 1e-6
_SOLVES = 4
_OVERSAMPLE = 8
_SPLIT_SEED = 0
_KERNEL_ERROR = 1e-4


def _split_kernel_range(r: np.ndarray, discrete: bool, tol: ToleranceConfig):
    """Orthonormal bases of the numerical kernel and the left kernel of the
    fixed-point matrix ``F`` of the real form ``r`` (``r - 1`` for a channel,
    ``discrete``, else ``r``): from :func:`_resolvent_split` from
    ``_LU_MIN_SIZE`` unknowns on, else (or when that route declines) from
    one SVD of ``F``, cut at ``tol.cutoff`` of the largest singular value.
    ``F`` is formed for the SVD only.

    For the real Schrodinger form the kernel holds the stationary states
    and the left kernel the Heisenberg fixed points.  The kernel of a
    fixed-point matrix is never empty: it holds the identity (Heisenberg)
    or a stationary state (Schrodinger).  An empty numerical kernel is
    therefore an InternalError.
    """
    if r.shape[0] >= _LU_MIN_SIZE:
        split = _resolvent_split(r, discrete, tol)
        if split is not None:
            return split
    u, s, vh = np.linalg.svd(_fixed_point_matrix(r, discrete))
    cutoff = tol.cutoff(float(s[0]) if s.size else 0.0)
    null_mask = s <= cutoff
    if not null_mask.any():
        raise InternalError(
            f"numerical fixed-point kernel is empty (smallest singular value "
            f"{s[-1]:.3e}, cutoff {cutoff:.3e})")
    return vh[null_mask].conj().T, u[:, null_mask]


def _resolvent_split(r: np.ndarray, discrete: bool, tol: ToleranceConfig):
    """Kernel and left kernel of the fixed-point matrix ``F`` of the real
    form ``r`` from one LU of ``s - F``, or None when this route cannot
    vouch for them.

    ``s - F`` is formed straight from ``r``: ``-r``, then ``+1`` for a
    channel and, once ``|F|_1`` is read off that ``-F``, ``+s`` on the
    diagonal, the bits of ``s - F``; it is the one copy of ``r`` the route
    holds.  ``(s - F)^-1`` scales a kernel vector by
    ``1/s`` and an eigenvector of eigenvalue ``mu`` by ``1/|s - mu|``, so
    after ``_SOLVES`` applications a random block spans the kernel up to
    ``(s/|mu|)^_SOLVES``.  The kernel is read off the block by
    :func:`_block_kernel`; the left kernel comes from transposed solves.
    None when ``F = 0``, the LU is singular, :func:`_block_kernel` declines
    either kernel, or the two kernels differ in dimension.
    """
    from scipy.linalg.lapack import dgetrf, dgetrs, dlange

    n = r.shape[0]
    a = -r
    if discrete:
        a.flat[::n + 1] += 1.0
    # |F|_1 = |-F|_1, the infinity norm of the Fortran-ordered view of -F
    norm = dlange("I", a.T)
    if norm == 0.0:
        return None
    a.flat[::n + 1] += _SHIFT * norm
    # factor (s - F)^T in place (its Fortran-ordered view): trans=1 solves
    # with s - F, trans=0 with its transpose
    lu, piv, info = dgetrf(a.T, overwrite_a=True)
    if info != 0:
        return None
    block = gaussian_block(n, 2 * _OVERSAMPLE, _SPLIT_SEED)
    cutoff = tol.cutoff(norm)
    bound = _KERNEL_ERROR * tol.atol
    kernel = _block_kernel(r, discrete, lambda x: dgetrs(lu, piv, x, trans=1)[0], block,
                           cutoff, bound)
    left = _block_kernel(r.T, discrete, lambda x: dgetrs(lu, piv, x, trans=0)[0], block,
                         cutoff, bound)
    if kernel is None or left is None or kernel.shape != left.shape:
        return None
    return kernel, left


def _block_kernel(r: np.ndarray, discrete: bool, solve, block: np.ndarray, cutoff: float,
                  bound: float):
    """Orthonormal basis of the kernel of ``f = r - 1`` (a channel,
    ``discrete``) or ``f = r``, found in the span of ``solve^_SOLVES
    (block)``: the Schur vectors of the Ritz values of its compression
    ``Q^T f Q`` at most ``cutoff``, from an ordered real Schur form.  The
    products with ``f`` are taken on ``r``, with ``Q^T Q`` or the operand
    subtracted for a channel.

    None when a Ritz value is indecisive against ``cutoff``, the kernel is
    empty or leaves fewer than ``_OVERSAMPLE`` columns of the block spare,
    the Schur form cannot be reordered, or the kernel's estimated distance
    from the true one exceeds ``bound``.  That estimate is the residual
    ``|f K|`` over the gap, the smallest Ritz value above the cutoff: the
    Davis-Kahan bound for a normal ``f``, and about twice the projector
    distance from the SVD's kernel on the seeded d = 24, 32 models.
    """
    import scipy.linalg

    q = block
    for _ in range(_SOLVES):
        q, _ = np.linalg.qr(solve(q))
    h = q.T @ r @ q
    if discrete:
        h -= q.T @ q
    ritz = np.abs(np.linalg.eigvals(h))
    if not all(_decisive(x, cutoff) for x in ritz):
        return None
    try:
        _, z, k = scipy.linalg.schur(h, output="real",
                                     sort=lambda re, im: math.hypot(re, im) <= cutoff)
    except np.linalg.LinAlgError:
        return None
    if not 0 < k <= q.shape[1] - _OVERSAMPLE:
        return None
    kernel = q @ z[:, :k]
    residual = r @ kernel
    if discrete:
        residual -= kernel
    if _norm_exceeds(residual, bound * float(ritz[ritz > cutoff].min())):
        return None
    return kernel


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

    ``basis`` is the right kernel of the fixed-point matrix from
    :meth:`Dynamics.split`.  ``state`` has maximal support among all
    stationary states: it is the time-average limit of the maximally mixed
    state.  Its support is the supremum of the supports of all stationary
    states.
    """

    basis: tuple
    state: DensityMatrix
    dim: int


class Dynamics:
    """One model, or one corner of it, and the objects derived from it,
    each built on first use.

    Holds the terms of the map, its standard form ``(G, {L_i})``
    (:func:`~qdsa.channels._terms`), the real Schrodinger form
    :func:`~qdsa.channels._real_schrodinger` sums from them, its one kernel
    split (:func:`_split_kernel_range`), the stationary space and its
    support (that of its maximal-support state, :func:`stationary_support`)
    for each tolerance, the real propagator for each horizon and picture
    asked for (the Heisenberg one on the transpose, so no second
    superoperator is built) and that of a transient corner
    (:meth:`transient`).  Build one per top-level call and pass it to the
    functions of this module in place of the model; it is dropped when the
    call returns, so the memory it holds never outlives the analysis.  It
    keeps no model, only the terms, so a corner (:func:`_corner`) is a
    ``Dynamics`` like any other.
    """

    def __init__(self, model):
        self._hold(_terms(model), model.dim)

    def _hold(self, terms, dim: int):
        self.terms = terms
        self.discrete = terms[0] is None
        self.dim = dim
        self._cache = {}
        return self

    def _cached(self, key, build):
        """``build()``, computed on the first call for ``key`` only."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @cached_property
    def schrodinger(self) -> np.ndarray:
        """Real form of the Schrodinger superoperator, read-only."""
        r = _real_schrodinger(*self.terms, self.dim)
        r.flags.writeable = False
        return r

    def flow(self, horizon: float, picture: str = HEISENBERG) -> Superoperator:
        """The propagator at ``horizon``: ``alpha_T`` in the Heisenberg
        picture, ``nu_T`` (on the Schrodinger form itself) in the other."""
        r = self.schrodinger.T if picture == HEISENBERG else self.schrodinger
        return self._cached(("flow", horizon, picture), lambda: Superoperator(
            _propagate(r, horizon, self.discrete), picture))

    def transient(self, r: Projection, horizon: float):
        """An isometry ``W`` onto ``1 - r`` and its corner's propagator."""
        def build():
            w = r.complement().range_basis
            return w, _corner(self, w).flow(horizon)
        return self._cached(("transient", horizon, r.matrix.tobytes()), build)

    def split(self, tol: ToleranceConfig):
        """Kernel and left kernel of the fixed-point matrix, from
        :func:`_split_kernel_range`."""
        return self._cached(("split", tol), lambda: _split_kernel_range(
            self.schrodinger, self.discrete, tol))

    def limit(self, tol: ToleranceConfig):
        """Stationary dimension and the time-average limit of the maximally
        mixed state (:func:`_limit`)."""
        return self._cached(("limit", tol), lambda: (
            self.split(tol)[0].shape[1], _limit(self, np.eye(self.dim) / self.dim, tol)))

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


def _limit(dyn: Dynamics, a: np.ndarray, tol: ToleranceConfig) -> DensityMatrix:
    """The time-average limit of the state ``a`` under the predual flow."""
    kernel, left = dyn.split(tol)
    limit = _kernel_component(kernel, left, hermitian_coords(a))
    return _as_state(from_hermitian_coords(limit, dyn.dim), tol)


def cesaro_limit(obj, rho: DensityMatrix, tol: ToleranceConfig | None = None) -> DensityMatrix:
    """Exact long-time Cesaro limit of a state under the predual flow."""
    tol = _tol(tol)
    dyn = _as_dynamics(obj)
    _check_operand(rho.dim, dyn.dim)
    return _limit(dyn, rho.matrix, tol)


def stationary_space(obj, tol: ToleranceConfig | None = None) -> StationarySpace:
    """Fixed-point space of the predual flow with its maximal-support state.

    One kernel split of the whole model (:meth:`Dynamics.split`) gives both
    the basis, its right kernel, and the state, the time-average limit of
    the maximally mixed state.  An empty stationary space is impossible in
    finite dimension; if the numerical null space comes out empty,
    InternalError is raised.
    """
    tol = _tol(tol)
    dyn = _as_dynamics(obj)
    basis = tuple(from_hermitian_coords(x, dyn.dim) for x in dyn.split(tol)[0].T)
    return StationarySpace(basis, dyn.limit(tol)[1], len(basis))


def stationary_support(space: StationarySpace, tol: ToleranceConfig | None = None) -> Projection:
    """Support ``P`` of the maximal-support stationary state, the supremum
    of the supports of all stationary states.

    Checked directly: every basis element ``b`` of the space must satisfy
    ``|(1 - P) b| <= atol |b|``, else InternalError.
    """
    tol = _tol(tol)
    support = support_projection(space.state.matrix, tol)
    outside = support.complement().matrix
    if any(_norm_exceeds(outside @ b, tol.atol * opnorm(b)) for b in space.basis):
        raise InternalError("stationary support disagrees with the maximal-state support")
    return support


def _corner(dyn: Dynamics, w: np.ndarray) -> Dynamics:
    """The corner ``y -> W^dag alpha(W y W^dag) W`` of the isometry ``w``:
    a Dynamics of the compressed terms, with no validation; ``dyn`` itself
    when ``w`` is the identity, so the top-level split is reused.

    Since ``W^dag W = 1`` the compressed standard form ``(W^dag G W,
    {W^dag L_i W})`` gives that map exactly for every isometry, with
    ``W^dag G W`` the corner's own ``G`` (a channel has none).  So its real
    form is ``P^T R P`` for the frame ``P`` of ``y -> W y W^dag``, at a cost
    of ``O(K m^4)`` for ``m`` columns.  Residuals on a corner are those of
    its terms, so on an invariant block every function here gives what it
    gives on the model built from them.
    """
    if w.shape[1] == dyn.dim and np.array_equal(w, np.eye(dyn.dim)):
        return dyn
    wh = w.conj().T
    g, ops = dyn.terms
    return Dynamics.__new__(Dynamics)._hold(
        (None if g is None else wh @ g @ w, tuple(wh @ x @ w for x in ops)), w.shape[1])


def _checked_residual(dyn: Dynamics, p: Projection, tol: ToleranceConfig, error, what: str):
    """:func:`~qdsa.harmonic._residual` of ``p`` on the terms; ``error``
    naming ``what`` when it exceeds ``atol``."""
    residual = _residual(dyn.terms, p)
    if not residual <= tol.atol:
        raise error(f"{what} fails the sub-harmonic test (residual {residual:.3e})")
    return residual


def _fixed_basis(dyn: Dynamics, tol: ToleranceConfig) -> list:
    """Orthonormal Hermitian basis of the Heisenberg fixed points: the
    left kernel of the split, since the Heisenberg form is the transpose."""
    return [from_hermitian_coords(x, dyn.dim) for x in dyn.split(tol)[1].T]


def restricted_stationary_dim(obj, p: Projection, tol: ToleranceConfig | None = None):
    """Stationary-space dimension and time-average state of the corner of
    the block ``p`` (:func:`_corner`); used to certify enclosure minimality.

    The state is in the coordinates of ``p.range_basis``.  A leaking block
    (:func:`~qdsa.harmonic._residual` above ``atol``) is FamilyNotSubharmonic.
    """
    tol = _tol(tol)
    dyn = _as_dynamics(obj)
    _check_operand(p.dim, dyn.dim)
    if p.rank == 0:
        raise DimMismatch("cannot restrict to the zero block")
    _checked_residual(dyn, p, tol, FamilyNotSubharmonic, "block")
    return _corner(dyn, p.range_basis).limit(tol)


def _is_abelian(hermitian_basis, tol: ToleranceConfig) -> bool:
    for i, a in enumerate(hermitian_basis):
        for b in hermitian_basis[i + 1:]:
            if _norm_exceeds(a @ b - b @ a, 10 * tol.atol):
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
    and time-average state of its corner (:func:`_corner`) that certified
    it minimal (what :func:`restricted_stationary_dim` returns for it), and
    ``certificate_ranks`` the rank of that state's support.
    ``subharmonic_residuals`` holds each projection's residual on the
    terms, :func:`~qdsa.harmonic._residual`, checked against ``atol``,
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

    The Heisenberg fixed points of the recurrent corner form a *-algebra
    ``sum_k M_{n_k} (x) 1_{m_k}`` (the corner has a faithful stationary
    state), so the spectral projections of one generic Hermitian fixed
    element are minimal projections of it: the minimal enclosures.  The
    corner is split once along such an element, and each block is certified
    on its own corner by a one-dimensional stationary space whose state has
    full support.  A block with more than one stationary state means the
    draw merged two eigenvalue clusters; the split is then redrawn, at most
    8 draws in all before ConvergenceFailure.  A block whose stationary
    state misses part of it is a ConvergenceFailure too.
    """
    tol = _tol(tol)
    rng = np.random.default_rng(seed)
    dyn = _as_dynamics(obj)
    r = dyn.support(tol)
    # the recurrent corner: the dynamics itself when r is the identity
    top = np.eye(dyn.dim, dtype=complex) if r.rank == dyn.dim else r.range_basis
    top_corner = _corner(dyn, top)
    fixed = _fixed_basis(top_corner, tol)
    unique = _is_abelian(fixed, tol)

    for _ in range(8):
        if len(fixed) == 1:
            blocks = [(top, top_corner)]
        else:
            w_eig, v_eig = np.linalg.eigh(hermitian_part(random_combination(fixed, rng)))
            blocks = [(w, _corner(dyn, w)) for w in (
                top @ v_eig[:, idx]
                for idx in _cluster_eigenvalues(w_eig, float(w_eig[-1] - w_eig[0])))]
        limits = [corner.limit(tol) for _, corner in blocks]
        if all(sdim == 1 for sdim, _ in limits):
            break
    else:
        raise ConvergenceFailure(
            f"no generic fixed element split the recurrent block of size {top.shape[1]} "
            f"(fixed space dimension {len(fixed)}) into blocks of one stationary state")

    final = []
    for (w, _), certificate in zip(blocks, limits):
        rank = support_projection(certificate[1].matrix, tol).rank
        if rank < w.shape[1]:
            raise ConvergenceFailure(
                f"the stationary state of a block of size {w.shape[1]} has support "
                f"of rank {rank} only")
        final.append((Projection.from_range_basis(w), certificate, rank))

    final.sort(key=lambda item: _canonical_key(item[0]))
    projections = tuple(p for p, _, _ in final)
    residuals = []
    max_overlap = 0.0
    for i, p in enumerate(projections):
        residuals.append(_checked_residual(dyn, p, tol, InternalError, f"refined enclosure {i}"))
        for q in projections[i + 1:]:
            overlap = opnorm(p.matrix @ q.matrix)
            if overlap > 10 * tol.atol:
                raise InternalError("refined enclosures are not mutually orthogonal")
            max_overlap = max(max_overlap, overlap)
    return EnclosureDecomposition(projections, unique, len(fixed),
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
    read off ``alpha_T(q)``, the flow of the corner of ``q`` (:func:`_corner`)
    applied to its identity: ``limit_estimate`` is ``1 - alpha_T(q)``,
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


def recurrent_projection(obj, horizon: float = DEFAULT_HORIZON,
                         tol: ToleranceConfig | None = None, seed: int = 7) -> RecurrentReport:
    """Compute the minimal recurrent projection and its horizon diagnostics.

    ``alpha_T`` is taken on the transient corner only; no ``d^2 x d^2``
    propagator is built.  That corner is a semigroup only for a sub-harmonic
    ``r``, so an ``r`` that fails the sub-harmonic test is an InternalError.
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
        _checked_residual(dyn, r_min, tol, InternalError, "recurrent projection")
        w, flow = dyn.transient(r_min, horizon)
        transient = w @ flow.apply(np.eye(w.shape[1])) @ w.conj().T
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
    residuals are decisive.  :func:`decay_ideal_units` is the fast path.
    """
    tol = _tol(tol)
    dyn = _as_dynamics(obj)
    _check_horizon(horizon, dyn.discrete)
    am = as_complex_matrix(a)
    _check_operand(am.shape[0], dyn.dim)
    _check_operand(recurrent.dim, dyn.dim)
    algebraic_residual = opnorm(am @ recurrent.matrix)
    dynamic_residual = opnorm(dyn.flow(horizon).apply(am.conj().T @ am))
    return DecayIdealResult(
        in_ideal_algebraic=algebraic_residual <= tol.atol,
        in_ideal_dynamic=dynamic_residual <= DEFAULT_DECAY_TOL,
        algebraic_residual=algebraic_residual,
        dynamic_residual=dynamic_residual,
    )


def decay_ideal_units(obj, report: RecurrentReport,
                      tol: ToleranceConfig | None = None) -> tuple:
    """:func:`decay_ideal_test`'s verdicts on each ``E_jj`` at the horizon ``T``
    of ``report``, from the first step that decides (README, Conventions): (1)
    ``eps = |E_jj r|``, a row norm of ``r``; (2) if ``eps >= 10 atol``, the
    bound ``|alpha_T(E_jj)| >= sigma_jj - T |F sigma|_1`` (``sigma`` stationary,
    ``F`` the fixed-point matrix), decisive from ``10 DEFAULT_DECAY_TOL``; (3) if
    ``eps <= atol``, the transient corner's ``|alpha_T(q E_jj q)|``, within ``2
    eps``; (4) else decay_ideal_test.  ``dynamic_residual`` is what was read.
    """
    tol = _tol(tol)
    dyn = _as_dynamics(obj)
    r, horizon = report.recurrent, report.horizon
    sigma = dyn.space(tol).state.matrix
    x = hermitian_coords(sigma)
    slack = horizon * trace_norm(from_hermitian_coords(
        dyn.schrodinger @ x - dyn.discrete * x, dyn.dim))
    def verdict(j, eps):
        bound = float(sigma[j, j].real) - slack
        if eps >= 10 * tol.atol and bound >= 10 * DEFAULT_DECAY_TOL:
            return DecayIdealResult(False, False, eps, bound)
        if eps <= tol.atol:
            w, flow = dyn.transient(r, horizon)
            value = opnorm(flow.apply(np.outer(w[j].conj(), w[j])))
            low, high = ((v <= DEFAULT_DECAY_TOL, _decisive(v, DEFAULT_DECAY_TOL))
                         for v in (value - 2 * eps, value + 2 * eps))
            if low == high:
                return DecayIdealResult(True, low[0], eps, value)
        return decay_ideal_test(dyn, np.diag(np.eye(dyn.dim)[j]), r, horizon, tol)
    return tuple(verdict(j, eps) for j, eps in enumerate(np.linalg.norm(r.matrix, axis=1)))


def cesaro_mean(obj, rho: DensityMatrix, horizon: float,
                tol: ToleranceConfig | None = None) -> DensityMatrix:
    """Finite-horizon time average of the predual flow, exact.

    For a generator this is ``(1/T) integral_0^T nu_t(rho) dt``; for a
    channel the mean of the first ``n`` iterates ``nu^k(rho)``, ``k < n``,
    where the horizon must be an iteration count ``n >= 1`` (else
    ValidationError).  Both come from one propagation of the augmented real
    matrix ``A = [[R, v], [0, c]]`` (``R`` the Schrodinger form, ``v`` the
    frame coordinates of ``rho``, ``c = 1`` for a channel and 0 for a
    generator): the last column of ``A^n`` holds ``sum_{k<n} R^k v`` and
    that of ``exp(T A)`` holds ``integral_0^T exp(tR) v dt`` (Van Loan, IEEE
    TAC 23, 1978).  On a minimal face the distance to the unique stationary
    state is O(1/T).
    """
    tol = _tol(tol)
    dyn = _as_dynamics(obj)
    _check_horizon(horizon, dyn.discrete)
    _check_operand(rho.dim, dyn.dim)
    n = dyn.schrodinger.shape[0]
    augmented = np.zeros((n + 1, n + 1))
    augmented[:n, :n] = dyn.schrodinger
    augmented[:n, n] = hermitian_coords(rho.matrix)
    augmented[n, n] = float(dyn.discrete)
    mean = _propagate(augmented, horizon, dyn.discrete)[:n, n] / horizon
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
    _check_horizon(horizon, dyn.discrete)
    for p in (recurrent, *decomposition.minimal_projections):
        _check_operand(p.dim, dyn.dim)
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
