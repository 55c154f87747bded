"""Dense complex linear algebra for operator-order analysis.

Everything operates on small dense complex matrices (dimension a few dozen
at most).  The module provides the Hermitian spectral calculus, the matrix
exponential, the positive-semidefinite order, support projections, lattice
operations (infimum and supremum) on ortho-projections, and a diagnostic
evaluating the standard equivalent algebraic characterisations of
``x >= p`` and ``x <= p`` for ``0 <= x <= 1`` and a projection ``p``.

All functions are pure; returned arrays are marked read-only so values can
be shared freely between callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotHermitian, NotPSD, OutOfUnitInterval, ValidationError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "Projection",
    "ConditionCheck",
    "OrderDiagnostic",
    "as_complex_matrix",
    "opnorm",
    "trace_norm",
    "hermitian_part",
    "matrix_exp",
    "is_psd",
    "order_leq",
    "support_projection",
    "proj_infimum",
    "proj_supremum",
    "projections_equal",
    "projection_order_diagnostic",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used throughout the package.

    atol: absolute residual tolerance for equality and invariant checks.
    rank_rtol: relative eigenvalue/singular-value threshold for rank and
        support decisions (relative to the largest value, with an absolute
        floor of ``atol``; see :meth:`cutoff`).
    psd_tol: slack allowed on the minimum eigenvalue in positivity checks.
    """

    atol: float = 1e-9
    rank_rtol: float = 1e-8
    psd_tol: float = 1e-9

    def __post_init__(self):
        for name in ("atol", "rank_rtol", "psd_tol"):
            value = getattr(self, name)
            if not (0.0 < value < 1e-2):
                raise ValidationError(f"{name} must lie in (0, 1e-2), got {value!r}")

    def cutoff(self, top):
        """The rank and support cutoff below ``top``, the largest eigenvalue
        or singular value (the 1-norm for the Ritz values of the LU kernel
        route): ``rank_rtol`` relative, with ``atol`` as floor.  Every rank
        and support decision of the package uses it but the Choi cut of
        ``generator_to_channel``, a mass budget."""
        return max(self.rank_rtol * top, self.atol)


DEFAULT_TOL = ToleranceConfig()


def _tol(tol: ToleranceConfig | None) -> ToleranceConfig:
    return DEFAULT_TOL if tol is None else tol


def _decisive(residual: float, threshold: float) -> bool:
    """True outside the indecisive band ``(threshold, 10 * threshold)``.

    A verdict ``residual <= threshold`` is trusted only when it is
    decisive; agreement checks between equivalent tests skip the band.
    Elementwise for arrays.
    """
    return (residual <= threshold) | (residual >= 10.0 * threshold)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_square(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix contains non-finite entries")
    return m


def _check_operand(dim: int, model_dim: int) -> None:
    """DimMismatch unless an operand of dimension ``dim`` fits a model or map
    of dimension ``model_dim``."""
    if dim != model_dim:
        raise DimMismatch(f"operand dimension {dim} does not match the model ({model_dim})")


def _is_integer(x) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_seed(seed) -> int:
    """``seed``; ValidationError unless it is a nonnegative integer (a bool
    is not)."""
    if not _is_integer(seed) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed}")
    return seed


def as_complex_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a square complex matrix with finite entries."""
    return _check_square(np.array(a, dtype=complex))


def _spectral_norms(m: np.ndarray) -> np.ndarray:
    """The spectral norm of each matrix of a stack (leading axes), 0.0 for
    a matrix with no entries, from one stacked SVD, each with the bits of
    its own call.

    The same LAPACK call as ``np.linalg.norm(m, 2)`` without its axis
    bookkeeping; singular values come back in descending order.
    """
    s = np.linalg.svd(m, compute_uv=False)
    return s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])


def opnorm(m: np.ndarray) -> float:
    """Spectral (largest singular value) norm; 0.0 for an empty matrix.  Of
    a stack of matrices (leading axes), the largest norm in the stack
    (:func:`_spectral_norms`)."""
    norms = _spectral_norms(m)
    if not norms.ndim:
        return float(norms)
    return float(norms.max()) if norms.size else 0.0


# Below this bound the squares summed into the Frobenius norm may underflow,
# so _norm_exceeds always takes the SVD.
_FROBENIUS_FLOOR = 1e-100


def _frobenius(m: np.ndarray) -> float:
    return math.sqrt(np.vdot(m, m).real)


def _norm_exceeds(m: np.ndarray, bound: float) -> bool:
    """``opnorm(m) > bound``, for a norm that is compared and not reported.

    The Frobenius norm bounds the spectral norm from above, so when it is at
    most ``bound / 2`` the answer is False without an SVD.  It also bounds
    the largest norm of a stack of ``K`` matrices of shape ``r x c`` from
    below, by ``|m|_F / sqrt(K min(r, c))``, so when the (finite) Frobenius
    norm exceeds ``2 bound sqrt(K min(r, c))`` the answer is True without
    one.  The factor 2 covers the rounding of both norms, so the decision
    is always that of ``opnorm(m) > bound``.  Otherwise the SVD decides.
    """
    if bound >= _FROBENIUS_FLOOR:
        frobenius = _frobenius(m)
        if frobenius <= bound / 2:
            return False
        if 2 * bound * math.sqrt(m.size // max(m.shape[-2:])) < frobenius < math.inf:
            return True
    return opnorm(m) > bound


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^dag) / 2``; of each matrix of a stack (leading axes)."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _hermitian_spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``m``; of each matrix
    of a stack, from one stacked ``eigvalsh``, each with the bits of its
    own call."""
    return np.linalg.eigvalsh(hermitian_part(m))


def _psd_defect(m: np.ndarray) -> float:
    """How far ``m`` is from ``m >= 0``: ``max(0, -lambda_min(herm(m)))``."""
    return max(0.0, -float(_hermitian_spectrum(m)[0]))


def _check_hermitian(m: np.ndarray, tol: ToleranceConfig, what: str = "matrix"):
    skew = m - m.conj().T
    if _norm_exceeds(skew, tol.atol):
        raise NotHermitian(f"{what} is not Hermitian (residual {opnorm(skew):.3e})")


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive.

    Ties go to the lowest index, for reproducibility across BLAS builds.
    """
    out = np.array(vectors)
    for j in range(out.shape[1]):
        col = out[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if abs(pivot) > 0.0:
            out[:, j] = col * (abs(pivot) / pivot)
    return out


# Largest 1-norm for which scipy's expm picks a Pade degree of 9 or less
# (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 2009, table 3.1).
_THETA_9 = 2.097847961257068


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential via scaling-and-squaring with a Pade core.

    Real input stays real: a real exponential costs a quarter of the
    floating-point work of the complex one.  scipy's real degree-13 Pade
    core is less accurate than its complex one (relative error 5e-13 on
    ``exp(-4)`` against 4e-15), so real input is scaled into the range of
    degree 9 or less and squared back here.

    ``scipy.linalg`` is imported here, on first use, so that importing the
    package (and starting the CLI) does not pay for it.
    """
    import scipy.linalg

    m = np.asarray(a)
    if np.iscomplexobj(m):
        return scipy.linalg.expm(_check_square(m))
    m = _check_square(m.astype(float, copy=False))
    with np.errstate(over="ignore"):
        norm = float(np.abs(m).sum(axis=0).max())
    if norm == math.inf:
        raise ValidationError("matrix exponential of a matrix whose 1-norm overflows")
    squarings = max(0, math.ceil(math.log2(norm / _THETA_9))) if norm > 0 else 0
    e = scipy.linalg.expm(m / 2.0 ** squarings)
    for _ in range(squarings):
        e = e @ e
    return e


def is_psd(a, tol: ToleranceConfig | None = None) -> bool:
    """True when the Hermitian matrix ``a`` has min eigenvalue >= -psd_tol."""
    tol = _tol(tol)
    m = as_complex_matrix(a)
    _check_hermitian(m, tol)
    return float(np.linalg.eigvalsh(m)[0]) >= -tol.psd_tol


def order_leq(a, b, tol: ToleranceConfig | None = None) -> bool:
    """Operator order: True when ``b - a`` is positive semidefinite."""
    tol = _tol(tol)
    ma = as_complex_matrix(a)
    mb = as_complex_matrix(b)
    if ma.shape != mb.shape:
        raise DimMismatch(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    _check_hermitian(ma, tol)
    _check_hermitian(mb, tol)
    return is_psd(mb - ma, tol)


@dataclass(frozen=True)
class Projection:
    """An ortho-projection together with its rank and an orthonormal range basis."""

    matrix: np.ndarray
    rank: int
    range_basis: np.ndarray

    def __post_init__(self):
        _freeze(self.matrix)
        _freeze(self.range_basis)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, m, tol: ToleranceConfig | None = None) -> "Projection":
        """Validate ``m`` as a projection (Hermitian idempotent) and build it."""
        tol = _tol(tol)
        p = as_complex_matrix(m)
        _check_hermitian(p, tol, "projection")
        idem = p @ p - p
        if _norm_exceeds(idem, tol.atol):
            raise NotPSD(f"matrix is not idempotent (residual {opnorm(idem):.3e})")
        return _spectral_projection(p, lambda w: w > 0.5)

    @classmethod
    def from_range_basis(cls, basis, dim: int | None = None) -> "Projection":
        """Build the projection onto the span of orthonormal columns ``basis``."""
        b = np.array(basis, dtype=complex)
        if b.ndim != 2:
            raise DimMismatch("range basis must be a 2-d array of columns")
        if dim is None:
            dim = b.shape[0]
        if b.shape[0] != dim:
            raise DimMismatch("range basis has wrong ambient dimension")
        k = b.shape[1]
        if k and _norm_exceeds(b.conj().T @ b - np.eye(k), 1e-6):
            raise DimMismatch("range basis columns are not orthonormal")
        p = b @ b.conj().T if k else np.zeros((dim, dim), dtype=complex)
        return cls(hermitian_part(p), k, b)

    @classmethod
    def zero(cls, dim: int) -> "Projection":
        return cls.from_range_basis(np.zeros((dim, 0), dtype=complex), dim)

    @classmethod
    def identity(cls, dim: int) -> "Projection":
        return cls.from_range_basis(np.eye(dim, dtype=complex), dim)

    def complement(self) -> "Projection":
        return _spectral_projection(np.eye(self.dim) - self.matrix, lambda w: w > 0.5)


def _spectral_cut(m: np.ndarray, keep):
    """The eigenvectors ``v`` of ``hermitian_part(m)`` and the mask
    ``keep(w)`` on its ascending eigenvalues ``w``."""
    w, v = np.linalg.eigh(hermitian_part(m))
    return v, keep(w)


def _spectral_projection(m: np.ndarray, keep) -> Projection:
    """The projection onto the columns of :func:`_spectral_cut` that the
    mask selects, each column's phase fixed by :func:`_fix_phases`."""
    v, mask = _spectral_cut(m, keep)
    return Projection.from_range_basis(_fix_phases(v[:, mask]), m.shape[0])


def projections_equal(p: Projection, q: Projection,
                      tol: ToleranceConfig | None = None, factor: float = 10.0) -> bool:
    """True when two projections coincide within ``factor * atol``."""
    tol = _tol(tol)
    if p.dim != q.dim:
        raise DimMismatch("projections live on different spaces")
    return not _norm_exceeds(p.matrix - q.matrix, factor * tol.atol)


def _support_cut(x, tol: ToleranceConfig | None):
    """The cut that decides the support of PSD ``x``, for
    :func:`_spectral_cut`: the validated Hermitian matrix and the mask that
    keeps its eigenvalues above ``tol.cutoff(lambda_max)``, NotPSD when the
    least is below ``-psd_tol``."""
    tol = _tol(tol)
    m = as_complex_matrix(x)
    _check_hermitian(m, tol, "support argument")

    def keep(w):
        if w[0] < -tol.psd_tol:
            raise NotPSD(f"support of a non-PSD matrix (min eigenvalue {w[0]:.3e})")
        return w > tol.cutoff(float(w[-1]))

    return m, keep


def support_projection(x, tol: ToleranceConfig | None = None) -> Projection:
    """Smallest projection ``P`` with ``x P = P x = x`` for PSD ``x``.

    Eigenvalues above ``tol.cutoff(lambda_max)`` count as nonzero;
    the relative cutoff with an absolute floor keeps support decisions stable
    when eigenvalues span many orders of magnitude after long evolutions.
    The zero matrix has the zero projection as its support.  A caller that
    reads only the rank takes :func:`_support_rank`: the same cut, with no
    projection built.
    """
    return _spectral_projection(*_support_cut(x, tol))


def _support_rank(x, tol: ToleranceConfig | None = None) -> int:
    """``support_projection(x, tol).rank``, with the same errors: the number
    of eigenvalues the same cut keeps."""
    return int(np.count_nonzero(_spectral_cut(*_support_cut(x, tol))[1]))


def _family_sum(family):
    """Sum of the members of a nonempty projection family of one dimension,
    and the number of members."""
    family = list(family)
    if not family:
        raise DimMismatch("projection family must be nonempty")
    dims = {p.dim for p in family}
    if len(dims) != 1:
        raise DimMismatch(f"projection family mixes dimensions {sorted(dims)}")
    dim = dims.pop()
    s = np.zeros((dim, dim), dtype=complex)
    for p in family:
        s = s + p.matrix
    return s, len(family)


def proj_infimum(family, tol: ToleranceConfig | None = None) -> Projection:
    """Infimum (intersection of ranges) of a nonempty projection family.

    Computed spectrally: the intersection is the eigenvalue-``n`` eigenspace
    of the sum of the ``n`` family members.  Exact at this scale, with no
    iteration or convergence criterion.
    """
    s, n = _family_sum(family)
    return _spectral_projection(s, lambda w: w >= n - _tol(tol).cutoff(n))


def proj_supremum(family, tol: ToleranceConfig | None = None) -> Projection:
    """Supremum (span of the union of ranges) of a nonempty projection family.

    Computed as the support of the sum of the members; De Morgan duality with
    :func:`proj_infimum` is cross-checked in the test suite rather than used
    as the implementation.
    """
    return support_projection(_family_sum(family)[0], tol)


@dataclass(frozen=True)
class ConditionCheck:
    """One algebraic condition with its residual.

    ``holds`` applies the ``atol`` threshold; residuals in the indecisive
    band ``(atol, 10 * atol)`` are flagged so that agreement checks between
    equivalent conditions stay honest.
    """

    label: str
    residual: float
    atol: float

    @property
    def holds(self) -> bool:
        return self.residual <= self.atol

    @property
    def decisive(self) -> bool:
        return _decisive(self.residual, self.atol)


def _statuses_consistent(checks) -> bool:
    decided = [c.holds for c in checks if c.decisive]
    return len(set(decided)) <= 1


@dataclass(frozen=True)
class OrderDiagnostic:
    """Equivalent characterisations of ``x >= p`` and ``x <= p``.

    For ``0 <= x <= 1`` and a projection ``p`` the five conditions of
    ``x_geq_p`` are mutually equivalent, as are the four of ``x_leq_p``.
    """

    x_geq_p: tuple[ConditionCheck, ...]
    x_leq_p: tuple[ConditionCheck, ...]

    def consistent(self) -> bool:
        """True when no decisive conditions disagree within either group."""
        return _statuses_consistent(self.x_geq_p) and _statuses_consistent(self.x_leq_p)


def projection_order_diagnostic(x, p: Projection,
                                tol: ToleranceConfig | None = None) -> OrderDiagnostic:
    """Evaluate all equivalent order conditions between ``x`` and ``p``.

    ``x`` must satisfy ``0 <= x <= 1`` within tolerance, else
    OutOfUnitInterval is raised.  The seven norms come from one stacked
    SVD and the two PSD defects from one stacked ``eigvalsh``, each with
    the bits of its own call.
    """
    tol = _tol(tol)
    xm = as_complex_matrix(x)
    _check_hermitian(xm, tol, "order diagnostic argument")
    w = _hermitian_spectrum(xm)
    if w[0] < -tol.psd_tol or w[-1] > 1.0 + tol.psd_tol:
        raise OutOfUnitInterval(
            f"eigenvalues must lie in [0, 1], got range [{w[0]:.3e}, {w[-1]:.3e}]")
    pm = p.matrix
    if pm.shape != xm.shape:
        raise DimMismatch("x and p have different dimensions")
    pc = np.eye(p.dim) - pm
    xp, px = xm @ pm, pm @ xm
    pxp = px @ pm
    norms = _spectral_norms(np.stack((pxp - pm, xm - pm - pc @ xm @ pc, xp - pm, px - pm,
                                      pxp - xm, xp - xm, px - xm))).tolist()
    lows = _hermitian_spectrum(np.stack((xm - pm, pm - xm)))[:, 0].tolist()
    geq_defect, leq_defect = (max(0.0, -w) for w in lows)
    a = tol.atol
    geq = (
        ConditionCheck("x - p is psd", geq_defect, a),
        ConditionCheck("p x p = p", norms[0], a),
        ConditionCheck("x = p + (1-p) x (1-p)", norms[1], a),
        ConditionCheck("x p = p", norms[2], a),
        ConditionCheck("p x = p", norms[3], a),
    )
    leq = (
        ConditionCheck("p - x is psd", leq_defect, a),
        ConditionCheck("p x p = x", norms[4], a),
        ConditionCheck("x p = x", norms[5], a),
        ConditionCheck("p x = x", norms[6], a),
    )
    return OrderDiagnostic(geq, leq)
