"""Long-time structure of a quantum dynamical semigroup.

Every superoperator here is real: the maps preserve Hermiticity, so in the
Hermitian frame of :mod:`qdsa.channels` the Schrodinger matrix ``R`` is
real and the Heisenberg one is its transpose.  The analysis pipeline is one
path:

1. From ``_REDUCE_MIN_SIZE`` unknowns on (``d >= 8``), the model is first
   reduced to the corners of its closed classes
   (:attr:`Dynamics.reduction`), at ``O(K d^3)`` cost and before any ``d^2
   x d^2`` work: the minimal enclosures are guessed in Hilbert space as the
   closed classes of the eigenvectors of one generic combination of the
   terms, their edges cut by the one rank rule ``tol.cutoff``
   (:func:`_recurrent_guess`).  The guess decides
   nothing: it is used only when each class is sub-harmonic, no fixed
   point couples two classes, and a Lyapunov solve on the corner of the
   rest, if any is left, certifies that corner transient, so that the
   classes hold the support of every stationary state (:func:`_certify`).
   A faithful model, whose classes fill the space, is reduced too; one
   whose single class fills it is not.  A certified model's stationary
   space is then the sum of those of its class corners, embedded, and its
   transient flow that of the certificate's corner; an uncertified one is
   its own single class.
   One split of the fixed-point matrix ``F`` (``R``, or ``R - 1`` for a
   channel) of each such corner gives its stationary space as its right
   kernel and its Heisenberg fixed points as its left kernel, both as
   orthonormal Hermitian bases (:attr:`Dynamics.split`).  In dimension
   one ``F`` is one number ``f``, so the split is closed form: ``|f|``,
   its one singular value, is cut at ``tol.cutoff`` and both kernels are
   ``[[1]]``, and the limit is the one state ``[[1]]``; a one-level corner,
   such as a rank-one minimal enclosure with its pure absorbing state,
   takes no SVD, solve or eigendecomposition.  Below ``_LU_MIN_SIZE``
   unknowns the split is one real SVD
   (:func:`_split_kernel_range`); from there on it is one LU of ``s - F``
   for a small shift ``s``, through which a fixed-seed random block is
   pushed and read off an ordered real Schur form, with the SVD as the
   fallback whenever that route cannot vouch for its kernels.  Each route
   factors an ``F`` it forms itself (:func:`_fixed_point_form`), and for a
   model with few terms the LU route takes its products with ``F`` from
   the terms (:func:`~qdsa.channels._act`), so it holds no other ``d^2 x
   d^2`` matrix.  A maximal-support stationary state is the exact
   time-average limit of the maximally mixed state of the recurrent corner
   (:class:`StationarySpace`): its oblique projection onto the kernel along
   the range, ``K (L^T K)^-1 L^T``.  In finite dimension the peripheral
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
   The Heisenberg fixed points of each class corner form a *-algebra
   ``sum_k M_{n_k} (x) 1_{m_k}`` (it has a faithful stationary state), so
   one split along the spectral projections of a generic Hermitian fixed
   element yields an orthogonal family of minimal enclosures, i.e. supports
   of the minimal invariant faces, and the block types: two blocks lie in
   one ``M_{n_k}`` exactly when a fixed element joins them.  A class whose
   fixed algebra is one-dimensional is one block, with no draw.  Each block
   is certified by its corner having one stationary state, of full support
   on the block; a block with more means the draw merged two, and the split
   is redrawn.

3. The minimal recurrent projection ``r`` is the supremum of the minimal
   enclosures.  At a finite horizon ``T`` the report records how far
   ``alpha_T`` has pushed it towards the identity and how much of the
   transient corner ``q = 1 - r`` survives.  Since ``r`` is sub-harmonic,
   ``alpha`` maps ``qMq`` into itself, so ``alpha_T(q)`` is the flow of
   the corner of ``q`` applied to its identity, and ``alpha_T(r) = 1 -
   alpha_T(q)`` by unitality.  On the certificate's corner of a generator
   that flow, once the corner has more than ``_KRYLOV_STEPS`` unknowns, is
   a shift-and-invert Krylov action on the LU the certificate factored
   (:func:`_krylov_flow`), with no ``m^2 x m^2`` exponential (``m = rank
   q``); when it does not converge, on a smaller corner, whose Arnoldi basis
   would span it whole, and on every other corner, it is the corner's ``m^2
   x m^2`` real propagator (:meth:`Dynamics.transient`).  Whether the decay
   ideal ``{a : alpha_t(a^dag a) -> 0}`` is the left ideal of operators
   annihilating ``r`` from the right is read off that flow and the
   stationary state (:func:`decay_ideal_units`).

Oscillatory peripheral spectrum means plain limits of states may not
exist, so state-level limits always go through Cesaro means, while the
recurrence checks use ``alpha_T`` on projections where monotone
convergence is guaranteed.  Discrete channels reuse every operation with
the horizon read as an iteration count.

Every public function accepts either a bare model or a :class:`Dynamics`,
one analysis: one model at one tolerance, which computes each derived
object at most once.  The top level and every corner share one assembly,
:func:`~qdsa.channels._real_schrodinger` of their terms, which never forms
the complex Schrodinger matrix whole: it sums it into the real form a
chunk of rows at a time, and every later step works on real matrices;
the cached one (:attr:`Dynamics.schrodinger`) serves flows only.  Per
corner a structure analysis holds at most two ``n x n`` matrices at once
(``n`` the square of the corner's dimension), and one from
``_LU_MIN_SIZE`` on when its split takes its products from the terms; a
certified model's largest arrays are those of its class and transient
corners and the ``(d_i d_j)^2`` maps between pairs of classes, never
``d^2 x d^2``.  Each corner is built and split once (:func:`_corner`);
its split, its LU and its flows each assemble a real form of their own,
so a transient corner whose Krylov action falls back to a dense flow is
assembled twice.  Nothing is cached on the model or globally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .channels import (
    HEISENBERG,
    SCHRODINGER,
    DensityMatrix,
    Superoperator,
    _act,
    _check_horizon,
    _coords,
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
    ValidationError,
)
from .harmonic import _leak, _residual
from .linalg import (
    _FROBENIUS_FLOOR,
    Projection,
    ToleranceConfig,
    _check_operand,
    _check_seed,
    _decisive,
    _frobenius,
    _hermitian_spectrum,
    _norm_exceeds,
    _spectral_norms,
    _support_rank,
    _tol,
    as_complex_matrix,
    hermitian_part,
    matrix_exp,
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


# The split runs one SVD below _LU_MIN_SIZE unknowns (d^2) and the
# resolvent route of _resolvent_split from there on, where its one LU is a
# fraction of the SVD's cost; this crossover gates the split alone, and the
# reduction has its own, _REDUCE_MIN_SIZE.  The route shifts by s = _SHIFT *
# |F|_1, applies (s - F)^-1 _SOLVES times to a random block of 2 *
# _OVERSAMPLE columns drawn from seed _SPLIT_SEED, cuts its Ritz values at
# tol.cutoff(|F|_1), and keeps a kernel only when its estimated distance from
# the true one is at most _KERNEL_ERROR * tol.atol.
_LU_MIN_SIZE = 256
_SHIFT = 1e-6
_SOLVES = 4
_OVERSAMPLE = 8
_SPLIT_SEED = 0
_KERNEL_ERROR = 1e-4

# From _REDUCE_MIN_SIZE unknowns (d >= 8) on the closed classes are first
# guessed from the eigenvectors of one combination of the terms, its
# coefficients drawn from seed _GUESS_SEED (_recurrent_guess), and used only
# once certified (_certify).  There the guess costs less than the whole
# split it can spare; below, it costs more than it saves.
_REDUCE_MIN_SIZE = 64
_GUESS_SEED = 0

# The flow on the certificate's corner of a generator with more than
# _KRYLOV_STEPS unknowns (_krylov_flow): at most _KRYLOV_STEPS Arnoldi
# steps, its error estimated every _KRYLOV_CHECK steps against _KRYLOV_TOL
# of the result.  A smaller corner takes its dense flow, since the Arnoldi
# basis would span the whole corner.
_KRYLOV_STEPS = 60
_KRYLOV_CHECK = 6
_KRYLOV_TOL = 1e-10


def _fixed_point_form(dyn: Dynamics, r: np.ndarray | None = None) -> np.ndarray:
    """The fixed-point matrix ``F`` (``R``, or ``R - 1`` for a channel) of
    ``dyn`` in an array of its own, ``R`` assembled afresh or copied from
    the real form ``r``: the one place ``F`` is formed and a channel's
    identity subtracted, 1 on the diagonal with the bits of ``R - 1``."""
    f = _real_schrodinger(*dyn.terms, dyn.dim) if r is None else r.copy()
    if dyn.discrete:
        f.flat[::f.shape[0] + 1] -= 1.0
    return f


def _split_kernel_range(f: np.ndarray, tol: ToleranceConfig):
    """Orthonormal bases of the numerical kernel and the left kernel of the
    fixed-point matrix ``f`` (:func:`_fixed_point_form`) from one SVD, cut
    at ``tol.cutoff`` of the largest singular value: the split from
    dimension two to below ``_LU_MIN_SIZE`` unknowns and the fallback of
    :func:`_resolvent_split` (:attr:`Dynamics.split`).

    The kernel holds the stationary states and the left kernel the
    Heisenberg fixed points, so neither is empty: an empty numerical kernel
    is an InternalError.
    """
    u, s, vh = np.linalg.svd(f)
    cutoff = tol.cutoff(float(s[0]))
    null_mask = s <= cutoff
    if not null_mask.any():
        raise _empty_kernel(s[-1], cutoff)
    return vh[null_mask].conj().T, u[:, null_mask]


def _empty_kernel(smallest: float, cutoff: float) -> InternalError:
    """The error of a fixed-point matrix whose smallest singular value is
    above ``cutoff``: no numerical kernel, so no stationary state."""
    return InternalError(f"numerical fixed-point kernel is empty (smallest singular value "
                         f"{smallest:.3e}, cutoff {cutoff:.3e})")


def _resolvent_split(dyn: Dynamics):
    """Kernel and left kernel of the fixed-point matrix ``F`` of ``dyn``
    from one LU of ``s - F``, or None when this route cannot vouch for them.

    ``s - F`` is the route's own ``F`` (:func:`_fixed_point_form`) negated
    and factored in place, ``+s`` on its diagonal once ``|F|_1`` is read off
    that ``-F``: the bits of ``s - F``.  That ``F`` is assembled afresh when
    the products with ``F`` and ``F^T`` (:func:`_fixed_point_product`) are
    cheaper from the terms, else copied from a real form ``R`` the split
    assembles for them and drops on return, never :attr:`Dynamics.schrodinger`.
    ``(s - F)^-1`` scales a kernel vector by
    ``1/s`` and an eigenvector of eigenvalue ``mu`` by ``1/|s - mu|``, so
    after ``_SOLVES`` applications a random block spans the kernel up to
    ``(s/|mu|)^_SOLVES``.  The kernel is read off the block by
    :func:`_block_kernel`; the left kernel comes from transposed solves.
    None when ``F = 0``, the LU is singular, :func:`_block_kernel` declines
    either kernel, or the two kernels differ in dimension.
    """
    from scipy.linalg.lapack import dlange

    n = dyn.dim ** 2
    # a product with F costs about 8 d^3 flops per complex d x d product of
    # _act (two a term, two more for G) against 2 d^4 per column of R
    g, ops = dyn.terms
    r = None if 8 * (len(ops) + (g is not None)) <= dyn.dim else _real_schrodinger(g, ops, dyn.dim)
    a = _fixed_point_form(dyn, r)
    np.negative(a, out=a)
    # |F|_1 = |-F|_1, the infinity norm of the Fortran-ordered view of -F
    norm = dlange("I", a.T)
    if norm == 0.0:
        return None
    a.flat[::n + 1] += _SHIFT * norm
    solve = _lu(a)
    if solve is None:
        return None
    block = gaussian_block(n, 2 * _OVERSAMPLE, _SPLIT_SEED)
    cutoff = dyn.tol.cutoff(norm)
    bound = _KERNEL_ERROR * dyn.tol.atol
    kernel = _block_kernel(_fixed_point_product(dyn, r, SCHRODINGER),
                           lambda x: solve(x, 1), block, cutoff, bound)
    left = _block_kernel(_fixed_point_product(dyn, r, HEISENBERG),
                         lambda x: solve(x, 0), block, cutoff, bound)
    if kernel is None or left is None or kernel.shape != left.shape:
        return None
    return kernel, left


def _lu(a: np.ndarray):
    """``solve(x, trans)`` from one LU of the C-contiguous real matrix
    ``a``, factored in place as its transpose (its Fortran-ordered view):
    ``trans=1`` solves with ``a``, ``trans=0`` with ``a^T``.  None when the
    LU is singular."""
    from scipy.linalg.lapack import dgetrf, dgetrs

    lu, piv, info = dgetrf(a.T, overwrite_a=True)
    if info != 0:
        return None
    return lambda x, trans: dgetrs(lu, piv, x, trans=trans)[0]


def _fixed_point_product(dyn: Dynamics, r, picture: str):
    """``x -> F x`` (Schrodinger) or ``F^T x`` (Heisenberg) on a block of
    frame coordinates: on the real form ``r``, or, when ``r`` is None, from
    the terms by :func:`~qdsa.channels._act` on the stack of Hermitian
    matrices of its columns; minus ``x`` for a channel."""
    def product(x: np.ndarray) -> np.ndarray:
        y = (_coords(_act(dyn.terms, from_hermitian_coords(x.T, dyn.dim), picture)).real.T
             if r is None else (r if picture == SCHRODINGER else r.T) @ x)
        return y - x if dyn.discrete else y
    return product


def _block_kernel(product, solve, block: np.ndarray, cutoff: float, bound: float):
    """Orthonormal basis of the kernel of ``f``, found in the span of
    ``solve^_SOLVES (block)``: the Schur vectors of the Ritz values of its
    compression ``Q^T f Q`` at most ``cutoff``, from an ordered real Schur
    form.  ``product`` is ``x -> f x`` on a block; it is asked only for
    ``f Q`` and ``f K``, blocks of at most ``2 * _OVERSAMPLE`` columns.

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
    h = q.T @ product(q)
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
    if _norm_exceeds(product(kernel), bound * float(ritz[ritz > cutoff].min())):
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
    :attr:`Dynamics.split`.  ``state``, of maximal support among all
    stationary states, is the time-average limit of the maximally mixed
    state of the recurrent corner: the sum of the certified classes, whose
    corners' spaces are summed (:attr:`Dynamics.space`), or else the whole
    space.  That is the limit of ``1/d`` whenever the model is faithful or
    its stationary space is one-dimensional; ``cesaro_limit(model,
    maximally_mixed)`` always gives the limit of ``1/d``.
    """

    basis: tuple
    state: DensityMatrix
    dim: int


class Dynamics:
    """One analysis: one model, or one corner of it, at one tolerance
    (``DEFAULT_TOL`` for None, shared by its corners), and the objects
    derived from it, each built on first use.

    Holds the terms of the map, its standard form ``(G, {L_i})``
    (:func:`~qdsa.channels._terms`), its one kernel split (:attr:`split`)
    of a fixed-point matrix it forms itself (:func:`_fixed_point_form`),
    in closed form in dimension one, where that matrix is one number,
    the stationary space and its support (:func:`stationary_support`), the
    real Schrodinger form (:attr:`schrodinger`, for flows only) and its
    propagator for each horizon and picture asked for (the Heisenberg one
    on the transpose), the flow of a transient corner (:meth:`transient`),
    its corners (:func:`_corner`), the LU the transient certificate factors
    (:attr:`lu`) and, from ``_REDUCE_MIN_SIZE`` unknowns on, its certified
    closed classes (:attr:`reduction`).  When they are certified,
    :attr:`space` is summed from the class corners', ``minimal_enclosures``
    takes the classes as its blocks and :meth:`transient` the certificate's
    corner of the rest, whose flow on a generator acts through that LU
    (:func:`_krylov_flow`) once it has more than ``_KRYLOV_STEPS`` unknowns,
    so no ``d^2 x d^2`` array is built; only
    ``cesaro_limit`` splits the whole model.  Build one per top-level call
    and pass it to the functions of this module in place of the model, so
    the memory it holds never outlives the analysis.  It keeps no model,
    only the terms, so a corner is a ``Dynamics`` like any other.
    """

    def __init__(self, model, tol: ToleranceConfig | None = None):
        self._hold(_terms(model), model.dim, _tol(tol))

    def _hold(self, terms, dim: int, tol: ToleranceConfig):
        self.terms = terms
        self.discrete = terms[0] is None
        self.dim = dim
        self.tol = tol
        self._cache = {}
        return self

    def _cached(self, key, build):
        """``build()``, computed on the first call for ``key`` only."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    @cached_property
    def schrodinger(self) -> np.ndarray:
        """Real form of the Schrodinger superoperator, read-only, for flows."""
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
        """An isometry ``W`` onto ``1 - r`` and ``apply``, ``alpha_T`` of
        its corner on a Hermitian operator.  When ``r`` is the sum of the
        certified classes the corner is the certificate's (:attr:`reduction`),
        and for a generator, on a corner of more than ``_KRYLOV_STEPS``
        unknowns, ``apply`` is the Krylov action on its LU
        (:func:`_krylov_flow`) until one call does not converge; from then
        on, and on every other corner, it is the corner's dense flow."""
        def build():
            ws, wq = self.reduction
            certified = wq is not None and projections_equal(
                r, Projection.from_range_basis(np.concatenate(ws, axis=1)), self.tol)
            if not certified:
                wq = r.complement().range_basis
            corner = _corner(self, wq)
            krylov = certified and not self.discrete and corner.dim ** 2 > _KRYLOV_STEPS

            def apply(a):
                nonlocal krylov
                y = _krylov_flow(corner, horizon, hermitian_coords(a)) if krylov else None
                if y is not None:
                    return from_hermitian_coords(y, corner.dim)
                krylov = False
                return corner.flow(horizon).apply(a)
            return wq, apply
        return self._cached(("transient", horizon, r.matrix.tobytes()), build)

    @cached_property
    def lu(self):
        """``solve(x, trans)`` (:func:`_lu`) from one LU of a fixed-point
        matrix of its own (:func:`_fixed_point_form`); None when singular.
        ``trans=0`` solves with the Heisenberg generator, for
        :func:`_transient_certified` and :func:`_krylov_flow`."""
        return _lu(_fixed_point_form(self))

    @cached_property
    def reduction(self):
        """Isometries ``((W_1, ..., W_n), W_q)`` onto the certified closed
        classes (:func:`_recurrent_guess`, :func:`_certify`) and onto the
        rest, which has no columns for a faithful model, tried from
        ``_REDUCE_MIN_SIZE`` unknowns on; ``((1,), None)`` when there is none."""
        guess = (_recurrent_guess(self.terms, self.tol)
                 if self.dim ** 2 >= _REDUCE_MIN_SIZE else None)
        return (guess and _certify(self, *guess)) or ((np.eye(self.dim, dtype=complex),), None)

    @cached_property
    def split(self):
        """Kernel and left kernel of the fixed-point matrix, from
        :func:`_resolvent_split` from ``_LU_MIN_SIZE`` unknowns on, else (or
        when it declines) from :func:`_split_kernel_range` on an ``F``
        formed afresh; neither reads :attr:`schrodinger`.  In dimension one
        ``F`` is one number ``f`` and ``|f|`` its one singular value: both
        kernels are ``[[1]]`` when ``|f|`` is at most ``tol.cutoff(|f|)``,
        the cut of :func:`_split_kernel_range`, and else the same
        :func:`_empty_kernel` error."""
        if self.dim == 1:
            # F is one number f, and |f| its one singular value
            f = abs(float(_fixed_point_form(self)[0, 0]))
            cutoff = self.tol.cutoff(f)
            if not f <= cutoff:
                raise _empty_kernel(f, cutoff)
            return np.ones((1, 1)), np.ones((1, 1))
        if self.dim ** 2 >= _LU_MIN_SIZE:
            split = _resolvent_split(self)
            if split is not None:
                return split
        return _split_kernel_range(_fixed_point_form(self), self.tol)

    @cached_property
    def limit(self):
        """Stationary dimension and the time-average limit of the maximally
        mixed state (:func:`_limit`); in dimension one, once :attr:`split`
        has found the kernel, the one state ``[[1]]`` of
        :func:`_one_level_state`, validated once for every corner."""
        dim = self.split[0].shape[1]
        if self.dim == 1:
            return dim, _one_level_state()
        return dim, _limit(self, np.eye(self.dim) / self.dim)

    @cached_property
    def space(self) -> StationarySpace:
        """The stationary space: the kernel of :attr:`split` and the state
        of :attr:`limit`; when :attr:`reduction` holds, the sum of those of
        its class corners, each basis embedded by ``W_i y W_i^dag``, with
        the state ``sum_i (d_i / k) W_i rho_i W_i^dag`` (``rho_i`` the state
        of class ``i``, of size ``d_i``, and ``k = sum_i d_i``), the limit of
        the recurrent corner's maximally mixed state."""
        ws, wq = self.reduction
        corners = [_corner(self, w) for w in ws]
        bases = [from_hermitian_coords(c.split[0].T, c.dim) for c in corners]
        if wq is None:
            return StationarySpace(tuple(bases[0]), self.limit[1], len(bases[0]))
        import scipy.linalg

        w = np.concatenate(ws, axis=1)
        state = scipy.linalg.block_diag(*(x.shape[1] / w.shape[1] * c.limit[1].matrix
                                          for x, c in zip(ws, corners)))
        basis = tuple(x @ b @ x.conj().T for x, block in zip(ws, bases) for b in block)
        return StationarySpace(basis, DensityMatrix(w @ state @ w.conj().T, self.tol), len(basis))

    @cached_property
    def support(self) -> Projection:
        """The stationary support :func:`stationary_support` of :attr:`space`."""
        return stationary_support(self.space, self.tol)


@cache
def _one_level_state() -> DensityMatrix:
    """The one state ``[[1]]`` of a one-level corner, a state at every
    tolerance: built and validated once, on first use, so that importing
    the package takes no decomposition."""
    return DensityMatrix(np.ones((1, 1)))


def _as_dynamics(obj, tol: ToleranceConfig | None) -> Dynamics:
    """A new :class:`Dynamics` of a model at ``tol``, or the ``Dynamics``
    ``obj`` when ``tol`` is None or its own; else ValidationError."""
    if not isinstance(obj, Dynamics):
        return Dynamics(obj, tol)
    if tol is not None and tol != obj.tol:
        raise ValidationError(f"tolerance {tol} differs from the analysis's own, {obj.tol}")
    return obj


def _as_state(matrix: np.ndarray, tol: ToleranceConfig) -> DensityMatrix:
    """Clip rounding-level negative eigenvalues and normalize the trace."""
    w, v = np.linalg.eigh(hermitian_part(matrix))
    if w[0] < -100 * tol.psd_tol:
        raise InternalError(f"candidate state has eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    m = (v * w) @ v.conj().T
    return DensityMatrix(m / np.trace(m), tol)


def _limit(dyn: Dynamics, a: np.ndarray) -> DensityMatrix:
    """The time-average limit of the state ``a`` under the predual flow."""
    kernel, left = dyn.split
    limit = _kernel_component(kernel, left, hermitian_coords(a))
    return _as_state(from_hermitian_coords(limit, dyn.dim), dyn.tol)


def cesaro_limit(obj, rho: DensityMatrix, tol: ToleranceConfig | None = None) -> DensityMatrix:
    """Exact long-time Cesaro limit of a state under the predual flow, from
    the whole model's split, not the reduction: an arbitrary state needs
    the whole model's oblique projector."""
    dyn = _as_dynamics(obj, tol)
    _check_operand(rho.dim, dyn.dim)
    return _limit(dyn, rho.matrix)


def stationary_space(obj, tol: ToleranceConfig | None = None) -> StationarySpace:
    """:attr:`Dynamics.space`: the fixed-point space of the predual flow and
    the limit of the recurrent corner's maximally mixed state, summed from
    the certified classes when the model reduces to them.  An empty
    numerical null space is an InternalError.
    """
    return _as_dynamics(obj, tol).space


def stationary_support(space: StationarySpace, tol: ToleranceConfig | None = None) -> Projection:
    """Support ``P`` of the maximal-support stationary state, the supremum
    of the supports of all stationary states.

    Checked directly: every basis element ``b`` of the space must satisfy
    ``|(1 - P) b| <= atol |b|``, else InternalError, with ``1 - P`` formed
    from ``P`` and not decomposed again.  Since ``|b| >= |b|_F / sqrt(d)``,
    a leak whose Frobenius norm is at most ``atol |b|_F / (2 sqrt(d))``
    passes with no SVD, so a clean pass takes none; any other leak is
    decided by ``_norm_exceeds`` against ``atol |b|``.
    """
    tol = _tol(tol)
    support = support_projection(space.state.matrix, tol)
    outside = np.eye(support.dim) - support.matrix

    def leaks(b):
        leak = outside @ b
        clean = tol.atol * _frobenius(b) / math.sqrt(support.dim) / 2
        if clean >= _FROBENIUS_FLOOR and _frobenius(leak) <= clean:
            return False
        return _norm_exceeds(leak, tol.atol * opnorm(b))

    if any(leaks(b) for b in space.basis):
        raise InternalError("stationary support disagrees with the maximal-state support")
    return support


def _corner(dyn: Dynamics, w: np.ndarray) -> Dynamics:
    """The corner ``y -> W^dag alpha(W y W^dag) W`` of the isometry ``w``:
    a Dynamics of the compressed terms, with no validation, built once per
    isometry and kept by ``dyn``; ``dyn`` itself when ``w`` is the
    identity, so the top-level split is reused.

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
    return dyn._cached(("corner", w.shape, w.tobytes()), lambda: Dynamics.__new__(Dynamics)._hold(
        (None if g is None else wh @ g @ w, tuple(wh @ x @ w for x in ops)), w.shape[1], dyn.tol))


def _recurrent_guess(terms, tol: ToleranceConfig):
    """A unitary ``U`` and the sizes of the closed classes its first
    columns span, class by class, the rest spanning their complement; None
    when there is no guess.

    Every invariant subspace of the terms ``X`` (Kraus operators, or the
    jumps and ``G``) is one of their generic combination ``Y``, so for a
    ``Y`` of simple spectrum it is spanned by eigenvectors of ``Y``: those
    of a set closed under the edges ``j -> l`` of the nonzero entries
    ``(V^-1 X V)_lj`` (``V`` the eigenvectors), and the minimal ones, the
    minimal enclosures, are the closed strongly connected classes.  The
    guess spans each class on columns of its own.  An entry is an edge when
    it exceeds ``tol.cutoff`` of the largest entry of its term, the one
    rank rule.  The guess decides nothing: :func:`_certify` proves or
    declines it, and a class that is coarser than the minimal enclosures
    is split by :func:`minimal_enclosures`.  None when the eigensolve
    fails, ``V`` is singular, or a single class fills the space.
    """
    g, ops = terms
    xs = np.stack(ops if g is None else (g, *ops))
    y = np.tensordot(gaussian_block(len(xs), 2, _GUESS_SEED) @ (1.0, 1j), xs, axes=1)
    d = y.shape[0]
    try:
        v = np.linalg.eig(y)[1]
        entries = np.abs(np.linalg.inv(v) @ xs @ v)
    except np.linalg.LinAlgError:
        return None
    floor = np.array([tol.cutoff(top) for top in entries.max(axis=(1, 2))])[:, None, None]
    # reach[l, j]: l is reached from j; j is in a closed class when every
    # eigenvector it reaches reaches it back, and that class is what it reaches
    reach = (entries > floor).any(axis=0) | np.eye(d, dtype=bool)
    for _ in range(max(1, math.ceil(math.log2(d)))):
        reach = (reach.astype(float) @ reach.astype(float)) > 0
    closed = (~reach | reach.T).all(axis=0)
    classes = []
    for j in np.flatnonzero(closed):
        if not any(c[j] for c in classes):
            classes.append(reach[:, j])
    if len(classes) == 1 and closed.all():
        return None
    u, _ = np.linalg.qr(np.concatenate([v[:, c] for c in classes] + [v[:, ~closed]], axis=1))
    return u, tuple(int(c.sum()) for c in classes)


def _certify(dyn: Dynamics, u: np.ndarray, sizes: tuple):
    """The isometries ``(W_1, ..., W_n)`` of the closed classes, the first
    columns of the unitary ``u`` in blocks of ``sizes``, and ``W_q`` of the
    other columns, when the classes are certified to carry the stationary
    structure class by class; else None.

    (a) Each ``p_i = W_i W_i^dag`` is sub-harmonic: its leak on the
    terms, read off ``W_i`` (:func:`~qdsa.harmonic._leak`, no projection
    built), is at most ``atol`` (:func:`~qdsa.linalg._norm_exceeds`, so a
    clear pass takes no SVD).  (c) No fixed point couples two classes
    (:func:`_uncoupled`).  (b) When columns are left, ``q = 1 - r``, ``r =
    sum_i p_i``, is transient: :func:`_transient_certified` on the corner
    of ``q``, so every stationary state lives on ``r``.  They run
    cheapest first: a guess that (a) or (c) declines factors no corner.
    Sub-harmonic projections that sum to ``r`` are harmonic on the corner
    of ``r``, so every term is block diagonal there and the map preserves
    each ``p_i M p_j``: with (c) its fixed points are the sum of those of
    the class corners.
    """
    *ws, wq = np.split(u, np.cumsum(sizes), axis=1)
    atol = dyn.tol.atol
    if any(_norm_exceeds(_leak(dyn.terms, w), atol) for w in ws):
        return None
    if not _uncoupled(dyn, ws):
        return None
    if wq.shape[1] and not _transient_certified(_corner(dyn, wq)):
        return None
    return tuple(ws), wq


def _uncoupled(dyn: Dynamics, ws) -> bool:
    """Whether, for each pair ``i < j`` of the corners (:func:`_corner`) of
    ``dyn`` on the class isometries ``ws``, with terms ``(G_i, {A_a})`` and
    ``(G_j, {B_a})``, the map ``Y -> sum_a A_a^dag Y B_a``, plus ``G_i^dag Y
    + Y G_j`` for a generator or minus ``Y`` for a channel, is decisively
    nonsingular on ``d_i x d_j`` matrices: its smallest singular value is
    above ``dyn.tol.cutoff`` of its largest, decisively
    (:func:`~qdsa.linalg._decisive`).  That map is the Heisenberg generator
    on ``p_i M p_j``; the Schrodinger one there is its adjoint, and that on
    ``p_j M p_i`` its conjugate by ``Y -> Y^dag``, so then no fixed point of
    either picture has a block off the diagonal.

    On row-major coordinates the map is ``sum_t kron(L_t^dag, R_t^T)`` over
    the pairs ``(L_t, R_t)``: ``(A_a, B_a)``, then ``(G_i, 1), (1, G_j)``
    or ``(-1, 1)``.  Its singular values are taken in one stacked SVD per
    pair shape ``(d_i, d_j)``.
    """
    def factors(corner):
        (g, ops), one = corner.terms, np.eye(corner.dim)
        extra = ((-one, one),) if g is None else ((g, one), (one, g))
        return (np.stack([*ops, *(left for left, _ in extra)]),
                np.stack([*ops, *(right for _, right in extra)]))

    corners = [_corner(dyn, w) for w in ws]
    lefts, rights = zip(*map(factors, corners))
    groups = {}
    for i, j in itertools.combinations(range(len(corners)), 2):
        groups.setdefault((corners[i].dim, corners[j].dim), []).append((i, j))
    for (di, dj), pairs in groups.items():
        a = np.stack([lefts[i] for i, _ in pairs]).conj().swapaxes(-1, -2)
        b = np.stack([rights[j] for _, j in pairs]).swapaxes(-1, -2)
        maps = np.einsum("ptrx,ptsy->prsxy", a, b).reshape(len(pairs), di * dj, di * dj)
        for s in np.linalg.svd(maps, compute_uv=False):
            cutoff = dyn.tol.cutoff(float(s[0]))
            if not (s[-1] > cutoff and _decisive(s[-1], cutoff)):
                return False
    return True


def _transient_certified(dyn: Dynamics) -> bool:
    """Whether a solution ``Z`` of ``L(Z) = -1`` certifies that the flow
    ``beta_t`` of ``dyn``, the corner of ``q``, has ``integral_0^inf
    beta_t(1) dt`` finite, so that every stationary state ``sigma`` of the
    model has ``tr(sigma q) = 0``.

    ``L`` is the Heisenberg generator (``Phi - 1`` for a channel), the
    transpose of the fixed-point matrix, solved by the corner's one LU
    (:attr:`Dynamics.lu`), which its flow reuses (:func:`_krylov_flow`).
    ``Z`` certifies when ``Z >= 0`` and ``-L(Z) >= 1/2``, with ``L(Z)``
    recomputed from the terms, each by a margin of ten times ``d eps |Z|
    (1 + sum_i |X_i|^2 + 2 |G|)``, its rounding: then
    ``beta_T(Z) - Z <= -1/2 integral_0^T beta_t(1) dt`` and ``beta_T(Z) >=
    0`` bound the integral by ``2 Z`` (Lyapunov); for a channel the same
    holds for the sum over iterations.  The norms of the terms and of ``Z``
    come from one stacked SVD and the two spectra from one stacked
    ``eigvalsh``, each with the bits of its own call.
    """
    m, solve = dyn.dim, dyn.lu
    z = None if solve is None else solve(-hermitian_coords(np.eye(m))[:, None], 0)[:, 0]
    if z is None or not np.isfinite(z).all():
        return False
    z = from_hermitian_coords(z, m)
    g, ops = dyn.terms
    terms = ops if g is None else (*ops, g)
    *norms, z_norm = _spectral_norms(np.stack((*terms, z))).tolist()
    weight = 1 + sum(x ** 2 for x in norms[:len(ops)]) + (0 if g is None else 2 * norms[-1])
    margin = 10 * m * np.finfo(float).eps * z_norm * weight
    z_low, decrease_low = _hermitian_spectrum(
        np.stack((z, dyn.discrete * z - _act(dyn.terms, z))))[:, 0].tolist()
    return bool(z_low >= margin and decrease_low >= 0.5 + margin)


def _krylov_flow(dyn: Dynamics, horizon: float, x: np.ndarray):
    """``exp(T L) x`` for the Heisenberg generator ``L`` of ``dyn`` and the
    frame coordinates ``x`` of an operator, by shift-and-invert Krylov on
    the LU of :attr:`Dynamics.lu` (van den Eshof and Hochbruck, SIAM J. Sci.
    Comput. 27, 2006); None when it has not converged by ``_KRYLOV_STEPS``
    steps.

    Arnoldi on ``L^-1`` from ``x = beta v_1`` gives ``L^-1 V_k = V_k S_k +
    h_{k+1,k} v_{k+1} e_k^T`` and ``y_k(t) = beta V_k exp(t S_k^-1) e_1``,
    whose residual ``y_k' - L y_k`` is ``beta h_{k+1,k} (e_k^T S_k^-1
    exp(t S_k^-1) e_1) L v_{k+1}``.  ``T`` times its norm at ``T``, with
    ``L v_{k+1}`` from the terms (:func:`~qdsa.channels._act`), estimates
    the error; it is taken every ``_KRYLOV_CHECK`` steps, at the last step
    and on a breakdown, and the action stops once it is at most
    ``_KRYLOV_TOL |y_k|``.  Each step is one solve and two passes of
    Gram-Schmidt, so the action holds no ``m^2 x m^2`` array.
    """
    beta = np.linalg.norm(x)
    steps = min(_KRYLOV_STEPS, x.size)
    v = np.zeros((steps + 1, x.size))
    h = np.zeros((steps + 1, steps))
    v[0] = x / beta
    for k in range(1, steps + 1):
        w = dyn.lu(v[k - 1], 0)
        for _ in range(2):
            c = v[:k] @ w
            w -= c @ v[:k]
            h[:k, k - 1] += c
        h[k, k - 1] = np.linalg.norm(w)
        if h[k, k - 1] > 0.0:
            v[k] = w / h[k, k - 1]
        if k % _KRYLOV_CHECK and k < steps and h[k, k - 1] > 0.0:
            continue
        lv = np.linalg.norm(_act(dyn.terms, from_hermitian_coords(v[k], dyn.dim)))
        try:
            # a singular or overflowing S_k^-1 gives no estimate at this step
            with np.errstate(over="raise", invalid="raise"):
                s = np.linalg.inv(h[:k, :k])
                e = matrix_exp(horizon * s)[:, 0]
                estimate = horizon * h[k, k - 1] * abs(s[-1] @ e) * lv
                done = estimate <= _KRYLOV_TOL * np.linalg.norm(e)
        except (np.linalg.LinAlgError, FloatingPointError, ValidationError):
            continue
        if done:
            return beta * (e @ v[:k])
    return None


def _checked_residual(dyn: Dynamics, p: Projection, error, what: str):
    """:func:`~qdsa.harmonic._residual` of ``p`` on the terms; ``error``
    naming ``what`` when it exceeds ``atol``."""
    residual = _residual(dyn.terms, p)
    if not residual <= dyn.tol.atol:
        raise error(f"{what} fails the sub-harmonic test (residual {residual:.3e})")
    return residual


def _fixed_basis(dyn: Dynamics) -> list:
    """Orthonormal Hermitian basis of the Heisenberg fixed points: the
    left kernel of the split, since the Heisenberg form is the transpose."""
    return list(from_hermitian_coords(dyn.split[1].T, dyn.dim))


def restricted_stationary_dim(obj, p: Projection, tol: ToleranceConfig | None = None):
    """Stationary-space dimension and time-average state of the corner of
    the block ``p`` (:func:`_corner`): how each minimal enclosure is certified.

    The state is in the coordinates of ``p.range_basis``.  A leaking block
    (:func:`~qdsa.harmonic._residual` above ``atol``) is FamilyNotSubharmonic.
    """
    dyn = _as_dynamics(obj, tol)
    _check_operand(p.dim, dyn.dim)
    if p.rank == 0:
        raise DimMismatch("cannot restrict to the zero block")
    _checked_residual(dyn, p, FamilyNotSubharmonic, "block")
    return _corner(dyn, p.range_basis).limit


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
    m = -np.round(np.real(p.matrix), 6)
    return (-p.rank, np.diag(m).tolist(), m.ravel().tolist())


@dataclass(frozen=True)
class EnclosureDecomposition:
    """Orthogonal family of minimal enclosures (minimal invariant faces).

    ``block_types`` holds the type ``(n_k, m_k)`` of each summand ``M_{n_k}
    (x) 1_{m_k}`` of the fixed-point algebra on the recurrent block, in
    descending order: ``n_k`` projections of rank ``m_k`` lie under it.
    ``is_unique`` is True exactly when every ``n_k = 1`` (the algebra is
    abelian); otherwise the family returned is one valid maximal orthogonal
    choice, deterministic for a given seed, and only the projection
    supremum of the family is basis independent.

    ``subharmonic_residuals`` holds each projection's residual on the
    terms, :func:`~qdsa.harmonic._residual`, checked against ``atol``,
    and ``max_overlap`` the largest ``|p q| = |W_p^dag W_q|`` over distinct
    pairs of projections, with ``W`` the range bases (0.0 for fewer than
    two), checked against ``10 atol``.
    """

    minimal_projections: tuple
    block_types: tuple
    fixed_algebra_dim: int
    subharmonic_residuals: tuple
    max_overlap: float

    @property
    def is_unique(self) -> bool:
        return all(n == 1 for n, _ in self.block_types)


def _block_types(fixed: list, v_eig: np.ndarray, groups: list, tol: ToleranceConfig) -> list:
    """Types ``(n_k, m_k)`` of a class's fixed algebra off its split along the
    clusters ``groups`` of eigenvectors ``v_eig``: parts ``i`` and ``j`` lie in
    one ``M_{n_k}`` exactly when ``sum_b |P_i b P_j|_F^2``, over the fixed
    basis, exceeds ``(10 atol)^2`` (it is O(1) there and 0 across blocks)."""
    starts = [g[0] for g in groups]
    weights = np.sum(np.abs(v_eig.conj().T @ np.asarray(fixed) @ v_eig) ** 2, axis=0)
    joined = (np.add.reduceat(np.add.reduceat(weights, starts, axis=0), starts, axis=1)
              > (10 * tol.atol) ** 2)
    # any two parts of one M_{n_k} are joined, so each block is a row
    return [(sum(row), len(groups[row.index(True)])) for row in set(map(tuple, joined.tolist()))]


def minimal_enclosures(obj, tol: ToleranceConfig | None = None,
                       seed: int = 7) -> EnclosureDecomposition:
    """Decompose the recurrent block into minimal sub-harmonic projections.

    The recurrent block is taken class by class: the certified classes of
    :attr:`Dynamics.reduction` when the stationary support fills them, else
    the support as one class.  The Heisenberg fixed points of a class
    corner form a *-algebra ``sum_k M_{n_k} (x) 1_{m_k}`` (the corner has a
    faithful stationary state), so the spectral projections of one generic
    Hermitian fixed element are minimal projections of it: the minimal
    enclosures.  A class whose algebra is one-dimensional is one block;
    any other is split once along such an element.  Each block is certified
    on its own corner by a one-dimensional stationary space whose state has
    full support.  A block with more than one stationary state means the
    draw merged two eigenvalue clusters; the class is then redrawn, at most
    8 draws in all before ConvergenceFailure.  A block whose stationary
    state misses part of it is a ConvergenceFailure too.  The fixed algebra
    and its block types are the sum of those of the classes: a class split
    into as many blocks as its algebra has dimensions has every ``n_k = 1``
    (``sum n_k = sum n_k^2``), and any other is read off the draw
    (:func:`_block_types`).  Each check reads an array of its answer's
    size: a certificate's support rank (:func:`~qdsa.linalg._support_rank`;
    1 for the one-level state, and that of :attr:`Dynamics.support` for the
    analysis's own state, cut the same way), a block's ``d x k`` leak
    (:func:`~qdsa.harmonic._leak`) and the pairs' ``k_p x k_q`` Gram blocks
    ``W_p^dag W_q``.  The seed is checked first, and its generator built at
    the first draw.
    """
    _check_seed(seed)
    rng = None  # a class with a one-dimensional fixed algebra draws nothing
    dyn = _as_dynamics(obj, tol)
    r = dyn.support
    # the classes of the reduction (the dynamics itself when unreduced)
    # when r fills them, else r as one class
    classes = dyn.reduction[0]
    if r.rank < sum(w.shape[1] for w in classes):
        classes = (r.range_basis,)
    projections, types, fixed_dim = [], [], 0
    for top in classes:
        top_corner = _corner(dyn, top)
        fixed = _fixed_basis(top_corner)
        fixed_dim += len(fixed)
        for _ in range(8):
            if len(fixed) == 1:
                parts = [(top, top_corner)]
            else:
                rng = rng or np.random.default_rng(seed)
                w_eig, v_eig = np.linalg.eigh(hermitian_part(random_combination(fixed, rng)))
                groups = _cluster_eigenvalues(w_eig, float(w_eig[-1] - w_eig[0]))
                parts = [(w, _corner(dyn, w)) for w in (top @ v_eig[:, idx] for idx in groups)]
            part_limits = [corner.limit for _, corner in parts]
            if all(sdim == 1 for sdim, _ in part_limits):
                break
        else:
            raise ConvergenceFailure(
                f"no generic fixed element split the recurrent block of size {top.shape[1]} "
                f"(fixed space dimension {len(fixed)}) into blocks of one stationary state")
        for (w, _), (_, state) in zip(parts, part_limits):
            # a one-level block's state [[1]] has rank 1, and the analysis's
            # own state has that of the support cut from it
            rank = (1 if w.shape[1] == 1 else r.rank if state is dyn.space.state
                    else _support_rank(state.matrix, dyn.tol))
            if rank < w.shape[1]:
                raise ConvergenceFailure(
                    f"the stationary state of a block of size {w.shape[1]} has support "
                    f"of rank {rank} only")
            projections.append(Projection.from_range_basis(w))
        types += ([(1, w.shape[1]) for w, _ in parts] if len(parts) == len(fixed)
                  else _block_types(fixed, v_eig, groups, dyn.tol))

    projections.sort(key=_canonical_key)
    residuals = tuple(_checked_residual(dyn, p, InternalError, f"refined enclosure {i}")
                      for i, p in enumerate(projections))
    # |p q| = |W_p^dag W_q| over distinct pairs, one stacked SVD per pair shape
    overlaps = {}
    for p, q in itertools.combinations(projections, 2):
        overlaps.setdefault((p.rank, q.rank), []).append(p.range_basis.conj().T @ q.range_basis)
    max_overlap = max((opnorm(np.stack(g)) for g in overlaps.values()), default=0.0)
    if max_overlap > 10 * dyn.tol.atol:
        raise InternalError("refined enclosures are not mutually orthogonal")
    return EnclosureDecomposition(tuple(projections), tuple(sorted(types, reverse=True)),
                                  fixed_dim, residuals, max_overlap)


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
    applied to its identity (:meth:`Dynamics.transient`): ``limit_estimate``
    is ``1 - alpha_T(q)``, which equals ``alpha_T(r)`` by unitality, so the
    two coincide in exact arithmetic.  They are exactly 0 when ``r`` is the
    identity.
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

    ``alpha_T`` is taken on the transient corner only
    (:meth:`Dynamics.transient`); no ``d^2 x d^2`` propagator is built.
    That corner is a semigroup only for a sub-harmonic ``r``, so an ``r``
    that fails the sub-harmonic test is an InternalError.  When ``r`` is
    the identity the estimate is exactly ``1`` and both norms are ``0.0``,
    with no SVD.
    """
    dyn = _as_dynamics(obj, tol)
    _check_horizon(horizon, dyn.discrete)  # rejected even when no propagator runs
    decomposition = minimal_enclosures(dyn, seed=seed)
    r_min = proj_supremum(decomposition.minimal_projections, dyn.tol)
    r_stat = dyn.support
    d = dyn.dim
    if r_min.rank < d:
        _checked_residual(dyn, r_min, InternalError, "recurrent projection")
        w, apply = dyn.transient(r_min, horizon)
        transient = w @ apply(np.eye(w.shape[1])) @ w.conj().T
        estimate = hermitian_part(np.eye(d) - transient)
        sup_deviation, transient_norm = opnorm(estimate - np.eye(d)), opnorm(transient)
    else:
        estimate, sup_deviation, transient_norm = np.eye(d, dtype=complex), 0.0, 0.0
    estimate.flags.writeable = False
    matches = projections_equal(r_min, r_stat, dyn.tol, factor=100.0)
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
    dyn = _as_dynamics(obj, tol)
    _check_horizon(horizon, dyn.discrete)
    am = as_complex_matrix(a)
    _check_operand(am.shape[0], dyn.dim)
    _check_operand(recurrent.dim, dyn.dim)
    algebraic_residual = opnorm(am @ recurrent.matrix)
    dynamic_residual = opnorm(dyn.flow(horizon).apply(am.conj().T @ am))
    return DecayIdealResult(
        in_ideal_algebraic=algebraic_residual <= dyn.tol.atol,
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
    dyn = _as_dynamics(obj, tol)
    r, horizon = report.recurrent, report.horizon
    sigma = dyn.space.state.matrix
    slack = horizon * trace_norm(_act(dyn.terms, sigma, SCHRODINGER) - dyn.discrete * sigma)
    def verdict(j, eps):
        bound = float(sigma[j, j].real) - slack
        if eps >= 10 * dyn.tol.atol and bound >= 10 * DEFAULT_DECAY_TOL:
            return DecayIdealResult(False, False, eps, bound)
        if eps <= dyn.tol.atol:
            w, apply = dyn.transient(r, horizon)
            value = opnorm(apply(np.outer(w[j].conj(), w[j])))
            low, high = ((v <= DEFAULT_DECAY_TOL, _decisive(v, DEFAULT_DECAY_TOL))
                         for v in (value - 2 * eps, value + 2 * eps))
            if low == high:
                return DecayIdealResult(True, low[0], eps, value)
        return decay_ideal_test(dyn, np.diag(np.eye(dyn.dim)[j]), r, horizon)
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
    dyn = _as_dynamics(obj, tol)
    _check_horizon(horizon, dyn.discrete)
    _check_operand(rho.dim, dyn.dim)
    n = dyn.schrodinger.shape[0]
    augmented = np.zeros((n + 1, n + 1))
    augmented[:n, :n] = dyn.schrodinger
    augmented[:n, n] = hermitian_coords(rho.matrix)
    augmented[n, n] = float(dyn.discrete)
    mean = _propagate(augmented, horizon, dyn.discrete)[:n, n] / horizon
    return _as_state(from_hermitian_coords(mean, rho.dim), dyn.tol)


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
    rng = np.random.default_rng(_check_seed(seed))
    dyn = _as_dynamics(obj, tol)
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
            if not order_leq(recurrent.matrix, p.matrix, dyn.tol):
                raise TheoremViolation(
                    f"random projection of rank {rank} reached the identity at "
                    f"horizon {horizon} (deviation {deviation:.3e}) without "
                    "dominating the recurrent projection")
    ok = all(g.bounded_away for g in gaps)
    return MinimalityReport(tuple(gaps), trials, near, ok)
