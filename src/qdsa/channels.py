"""Completely positive unital maps and their generators.

Two representations are supported: a :class:`QuantumChannel` holds a Kraus
family ``{V_i}`` acting in the Heisenberg picture as
``alpha(a) = sum_i V_i^dag a V_i`` (the predual acts on states as
``nu(rho) = sum_i V_i rho V_i^dag``), and a :class:`LindbladGenerator`
holds a Hamiltonian ``H`` and jump operators ``{L_i}`` generating the
norm-continuous semigroup ``alpha_t = exp(t L)``.  The one structural
axiom a Kraus family can fail is unitality: :class:`QuantumChannel` raises
NotUnital with the residual ``|sum_i V_i^dag V_i - 1|``.  Trace
preservation of the predual is the same condition, duality holds by
cyclicity of the trace, and a generator with Hermitian ``H`` has
``L(1) = 0`` by construction, so no separate structure check exists.

Superoperators use the column-stacking vectorization convention

    vec(A B C) = (C^T kron A) vec(B),

stated here once and tested bit-exactly; Heisenberg and Schrodinger
superoperators of the same object are mutual adjoints under the
Hilbert-Schmidt pairing and are always tagged with their picture rather
than inferred from context.

Both maps preserve Hermiticity, so they are real in the *Hermitian frame*:
the orthonormal basis ``Q`` of Hermitian matrices ``E_jj``,
``(E_jk + E_kj)/sqrt 2`` and ``i(E_jk - E_kj)/sqrt 2`` for ``j < k``.  The
frame vector at vec index ``n`` of the entry ``(j, k)`` is ``E_jj`` on the
diagonal, the symmetric one above it and the antisymmetric one of the pair
below it, so each column of ``Q`` has at most two nonzeros.  The real
Heisenberg form is the transpose of the real Schrodinger form, so
:func:`to_superoperator` builds the real Schrodinger form alone, and never
forms the complex Schrodinger matrix ``S`` whole: it sums ``S`` one chunk of
rows at a time, a row and its flip (the row of the transposed entry) in
the same chunk, and takes each chunk to the frame by the reference gathers
``Re(Q^dag (S Q))`` (:func:`_frame_chunks`), which have that expression's
bits.  The assembly holds the real form and chunk-sized temporaries: at
most 1.75 times the real form's bytes from d = 24 on.  A
:class:`Superoperator` holds only its real form, an owned float64 array;
propagators are computed on it, which costs a quarter of the
floating-point work of the complex one.
"""

from __future__ import annotations

import math
from functools import cache, cached_property

import numpy as np

from .errors import DimMismatch, NegativeTime, NotPSD, NotUnital, ValidationError
from .linalg import (
    Projection,
    ToleranceConfig,
    _check_hermitian,
    _check_operand,
    _tol,
    as_complex_matrix,
    hermitian_part,
    is_psd,
    matrix_exp,
    opnorm,
    support_projection,
)

__all__ = [
    "HEISENBERG",
    "SCHRODINGER",
    "QuantumChannel",
    "LindbladGenerator",
    "DensityMatrix",
    "Superoperator",
    "StinespringDilation",
    "vec",
    "unvec",
    "hermitian_coords",
    "from_hermitian_coords",
    "apply_heisenberg",
    "lindblad_apply",
    "to_superoperator",
    "propagator",
    "generator_to_channel",
    "stinespring_dilate",
]

HEISENBERG = "heisenberg"
SCHRODINGER = "schrodinger"
_PICTURES = (HEISENBERG, SCHRODINGER)


def _check_picture(picture: str):
    if picture not in _PICTURES:
        raise ValidationError(f"picture must be one of {_PICTURES}, got {picture!r}")


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec([[a, b], [c, d]]) = (a, c, b, d)."""
    return np.asarray(m).flatten(order="F")


def _square_side(n: int, dim: int | None = None) -> int:
    """The side ``m`` of a square matrix of ``n = m^2`` entries, which must
    be ``dim`` when given; DimMismatch otherwise."""
    m = math.isqrt(n)
    if m * m != n or dim not in (None, m):
        shape = "square" if dim is None else f"{dim} x {dim}"
        raise DimMismatch(f"length {n} is not the vec of a {shape} matrix")
    return m


def unvec(v: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    v = np.asarray(v)
    m = _square_side(v.size, dim)
    return v.reshape((m, m), order="F")


def _matrix_units(dim: int):
    """The matrix units ``E_ij``, row by row."""
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            yield unit


@cache
def _frame(dim: int):
    """Index arrays of the Hermitian frame ``Q`` in dimension ``dim``.

    Column ``n`` of ``Q`` is ``own[n]`` at row ``n`` plus ``other[n]`` at
    row ``flip[n]``, the vec index of the transposed entry.
    """
    n = np.arange(dim * dim)
    row, col = n % dim, n // dim
    flip = row * dim + col
    r = np.sqrt(0.5)
    own = np.where(row < col, r, np.where(row > col, -1j * r, 1.0))
    other = np.where(row < col, r, np.where(row > col, 1j * r, 0.0))
    for a in (flip, own, other):
        a.flags.writeable = False
    return flip, own, other


def _coords(a: np.ndarray) -> np.ndarray:
    """``Q^dag vec(a)``: real and imaginary parts are the frame coordinates
    of the Hermitian and anti-Hermitian parts ``(a + a^dag)/2`` and
    ``(a - a^dag)/2i``."""
    _, own, other = _frame(a.shape[0])
    return own.conj() * a.ravel(order="F") + other.conj() * a.ravel(order="C")


def hermitian_coords(a) -> np.ndarray:
    """Real frame coordinates of the Hermitian part of ``a``."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    return _coords(a).real


def from_hermitian_coords(x, dim: int) -> np.ndarray:
    """The ``dim x dim`` matrix with frame coordinates ``x``; Hermitian when
    ``x`` is real."""
    x = np.asarray(x)
    flip, own, other = _frame(_square_side(x.size, dim))
    return unvec(own * x + other[flip] * x[flip], dim)


# The assembly and the frame pass work on chunks of rows of at most _BLOCK
# entries, so that their temporaries stay a small fraction of the d^2 x d^2
# matrices they fill (at small d one chunk is the whole matrix).
_BLOCK = 1 << 15


@cache
def _row_blocks(rows: int, cols: int) -> tuple:
    """Index blocks that cut a ``rows x cols`` matrix into chunks of rows.

    Row ``n = a d + b`` (``rows = d^2``) is named ``(a, b)``; its flip, the
    row of the transposed entry, is ``(b, a)``.  For blocks ``A <= B`` the
    chunk is the rows ``(a, b)`` with ``a`` in ``A`` and ``b`` in ``B``
    together with their flips, at most ``_BLOCK`` entries (blocks of at
    least one index).
    """
    step = max(1, int(math.sqrt(_BLOCK // max(1, 2 * cols))))
    return tuple(slice(i, i + step) for i in range(0, _square_side(rows), step))


def _frame_chunks(chunk, rows: int, cols: int) -> np.ndarray:
    """``Re(Q^dag S Q)`` as a new C-contiguous float64 array, read from ``S``
    a chunk of rows at a time: ``chunk(A, B)`` is the ``|A| x |B| x cols``
    complex array of the rows ``(a, b)`` of :func:`_row_blocks`.

    Each chunk and its partner ``chunk(B, A)``, which holds the flips of its
    rows, go through the complex gathers of :func:`_frame`, ``T = S Q`` on
    their columns and ``Re(Q^dag T)`` on their rows.  Every coefficient of
    ``Q`` has an exactly zero real or imaginary part, so each complex product
    is rounded once whether or not it is fused, and every entry, zero signs
    included, has the bits of the whole-matrix expression.
    """
    flip, own, other = _frame(_square_side(cols))
    d = _square_side(rows)
    own_row, other_row = (x.conj().reshape(d, d, 1) for x in _frame(d)[1:])
    out = np.empty((rows, cols))
    out3 = out.reshape(d, d, cols)
    blocks = _row_blocks(rows, cols)
    for i, a in enumerate(blocks):
        for b in blocks[i:]:
            t = chunk(a, b)
            t = t * own + t[..., flip] * other
            u = t
            if b != a:
                u = chunk(b, a)
                u = u * own + u[..., flip] * other
                out3[b, a] = (own_row[b, a] * u + other_row[b, a] * t.swapaxes(0, 1)).real
            out3[a, b] = (own_row[a, b] * t + other_row[a, b] * u.swapaxes(0, 1)).real
    return out


def _complex_form(r: np.ndarray) -> np.ndarray:
    """``Q R Q^dag``: the complex matrix of the real form ``R``, the inverse
    of ``Re(Q^dag S Q)``."""
    flip, own, other = _frame(_square_side(r.shape[0]))
    u = own[:, None] * r + other[flip][:, None] * r[flip]
    return u * own.conj() + u[:, flip] * other[flip].conj()


class QuantumChannel:
    """A CP unital map given by its Kraus family.

    Kraus operators are kept as the multiset given, neither normalized nor
    reordered.  Unitality ``sum_i V_i^dag V_i = 1`` (equivalently, the
    predual preserves the trace) is enforced on construction.
    """

    def __init__(self, kraus_ops, tol: ToleranceConfig | None = None):
        tol = _tol(tol)
        ops = tuple(as_complex_matrix(v) for v in kraus_ops)
        if not ops:
            raise ValidationError("a channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        for v in ops:
            if v.shape != (dim, dim):
                raise DimMismatch("Kraus operators must share one square shape")
        gram = sum(v.conj().T @ v for v in ops)
        residual = opnorm(gram - np.eye(dim))
        if residual > tol.atol:
            raise NotUnital(f"sum V^dag V deviates from identity by {residual:.3e}")
        for v in ops:
            v.flags.writeable = False
        self.dim = dim
        self.kraus_ops = ops

    def __repr__(self):
        return f"QuantumChannel(dim={self.dim}, n_kraus={len(self.kraus_ops)})"


class LindbladGenerator:
    """Generator data ``(H, {L_i})`` of a CP unital semigroup.

    The jump-operator list may be empty (purely Hamiltonian flow) and the
    Hamiltonian may be zero (pure dissipation).
    """

    def __init__(self, hamiltonian, lindblad_ops=(), tol: ToleranceConfig | None = None):
        tol = _tol(tol)
        h = as_complex_matrix(hamiltonian)
        _check_hermitian(h, tol, "Hamiltonian")
        dim = h.shape[0]
        ops = tuple(as_complex_matrix(l) for l in lindblad_ops)
        for l in ops:
            if l.shape != (dim, dim):
                raise DimMismatch("jump operators must match the Hamiltonian dimension")
        h.flags.writeable = False
        for l in ops:
            l.flags.writeable = False
        self.dim = dim
        self.hamiltonian = h
        self.lindblad_ops = ops

    def __repr__(self):
        return f"LindbladGenerator(dim={self.dim}, n_jumps={len(self.lindblad_ops)})"


class DensityMatrix:
    """A normal state: positive semidefinite with unit trace."""

    def __init__(self, matrix, tol: ToleranceConfig | None = None):
        tol = _tol(tol)
        m = as_complex_matrix(matrix)
        if not is_psd(m, tol):
            raise NotPSD("density matrix is not positive semidefinite")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > tol.atol:
            raise ValidationError(f"density matrix trace deviates from 1 by {abs(tr - 1.0):.3e}")
        m = hermitian_part(m)
        m.flags.writeable = False
        self.matrix = m
        self.dim = m.shape[0]

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def pure(cls, state_vector) -> "DensityMatrix":
        v = np.asarray(state_vector, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if n == 0:
            raise ValidationError("cannot build a pure state from the zero vector")
        v = v / n
        return cls(np.outer(v, v.conj()))

    def support(self, tol: ToleranceConfig | None = None) -> Projection:
        return support_projection(self.matrix, tol)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def _superoperator_dim(m: np.ndarray) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch("superoperator matrix must be square")
    return _square_side(m.shape[0])


class Superoperator:
    """A map on ``d x d`` matrices, tagged by picture.

    ``real`` is its ``d^2 x d^2`` real form in the Hermitian frame, the one
    representation it holds and acts through.  ``matrix``, the complex
    matrix on column-stacked operators, is formed from ``real`` on first
    use; the library itself never asks for it.
    """

    def __init__(self, real, picture: str):
        _check_picture(picture)
        if np.iscomplexobj(real):
            raise TypeError("a Superoperator is built from its real form in the Hermitian frame")
        # a frozen view, so that the caller's array stays writeable
        r = np.asarray(real, dtype=float).view()
        self.dim = _superoperator_dim(r)
        r.flags.writeable = False
        self.real = r
        self.picture = picture

    @cached_property
    def matrix(self) -> np.ndarray:
        m = _complex_form(self.real)
        m.flags.writeable = False
        return m

    def apply(self, a) -> np.ndarray:
        """Act on a ``d x d`` matrix."""
        m = as_complex_matrix(a)
        _check_operand(m.shape[0], self.dim)
        x = _coords(m)
        if not x.imag.any():
            return from_hermitian_coords(self.real @ x.real, self.dim)
        y = self.real @ np.column_stack([x.real, x.imag])
        return from_hermitian_coords(y[:, 0] + 1j * y[:, 1], self.dim)

    def __repr__(self):
        return f"Superoperator(dim={self.dim}, picture={self.picture!r})"


class StinespringDilation:
    """Isometry ``V`` with ``alpha(a) = V^dag (a kron 1_n) V``.

    ``V`` stacks the Kraus family: ``V k = sum_i (V_i k) kron e_i`` where
    ``n`` is the number of Kraus operators.
    """

    def __init__(self, isometry, multiplicity: int, tol: ToleranceConfig | None = None):
        tol = _tol(tol)
        v = np.array(isometry, dtype=complex)
        if v.ndim != 2 or multiplicity < 1 or v.shape[0] != v.shape[1] * multiplicity:
            raise DimMismatch("isometry must have shape (d*n, d)")
        dim = v.shape[1]
        residual = opnorm(v.conj().T @ v - np.eye(dim))
        if residual > tol.atol:
            raise NotUnital(f"V^dag V deviates from identity by {residual:.3e}")
        v.flags.writeable = False
        self.isometry = v
        self.multiplicity = multiplicity
        self.dim = dim

    def represent(self, a) -> np.ndarray:
        """The dilated representation ``pi(a) = a kron 1_n``."""
        return _kron(as_complex_matrix(a), np.eye(self.multiplicity))

    def reconstruct(self, a) -> np.ndarray:
        """Evaluate ``V^dag pi(a) V``, which must reproduce the channel."""
        v = self.isometry
        return v.conj().T @ self.represent(a) @ v


def _schrodinger_action(ops, m: np.ndarray) -> np.ndarray:
    """``sum_i V_i m V_i^dag`` over the Kraus family ``ops``, unchecked."""
    return sum(v @ m @ v.conj().T for v in ops)


def apply_heisenberg(ch: QuantumChannel, a) -> np.ndarray:
    """Heisenberg action ``sum_i V_i^dag a V_i`` on an observable."""
    m = as_complex_matrix(a)
    _check_operand(m.shape[0], ch.dim)
    return sum(v.conj().T @ m @ v for v in ch.kraus_ops)


def lindblad_apply(gen: LindbladGenerator, a, picture: str = HEISENBERG) -> np.ndarray:
    """Apply the generator to an operator in the requested picture.

    Heisenberg:  i [H, a] + sum_i (L_i^dag a L_i - (1/2){L_i^dag L_i, a})
    Schrodinger: -i [H, rho] + sum_i (L_i rho L_i^dag - (1/2){L_i^dag L_i, rho})
    """
    _check_picture(picture)
    m = as_complex_matrix(a)
    _check_operand(m.shape[0], gen.dim)
    h = gen.hamiltonian
    if picture == HEISENBERG:
        out = 1j * (h @ m - m @ h)
        for l in gen.lindblad_ops:
            k = l.conj().T @ l
            out += l.conj().T @ m @ l - 0.5 * (k @ m + m @ k)
    else:
        out = -1j * (h @ m - m @ h)
        for l in gen.lindblad_ops:
            k = l.conj().T @ l
            out += l @ m @ l.conj().T - 0.5 * (k @ m + m @ k)
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices as one broadcast product (same bits,
    without ``np.kron``'s generic shape handling)."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _is_channel(obj) -> bool:
    """True for a channel, False for a generator, TypeError for anything else."""
    if isinstance(obj, QuantumChannel):
        return True
    if isinstance(obj, LindbladGenerator):
        return False
    raise TypeError(f"expected QuantumChannel or LindbladGenerator, got {type(obj)!r}")


@cache
def _identity_factors(dim: int):
    """The complex identity and ``(1 - identity) / 2`` in dimension
    ``dim``, read-only."""
    eye = np.eye(dim, dtype=complex)
    factors = (eye, 0.5 * (1.0 - eye))
    for a in factors:
        a.flags.writeable = False
    return factors


def _terms(obj):
    """The operators ``S`` is summed from, each in a tuple: ``(None,
    ((V,), ...))`` for a channel's Kraus family, ``(H, ((L, L^dag L), ...))``
    for a generator."""
    if _is_channel(obj):
        return None, tuple((v,) for v in obj.kraus_ops)
    return obj.hamiltonian, tuple((l, l.conj().T @ l) for l in obj.lindblad_ops)


def _schrodinger_rows(h, ops, dim: int, a: slice, b: slice) -> np.ndarray:
    """The rows ``(i, j)`` of the complex Schrodinger matrix summed from the
    terms :func:`_terms`, for ``i`` in the slice ``a`` and ``j`` in ``b``,
    as an ``|a| x |b| x dim^2`` array (see :func:`to_superoperator`)."""
    na, nb = len(range(dim)[a]), len(range(dim)[b])
    c = np.zeros((na, nb, dim, dim), dtype=complex)
    if h is None:
        for (v,) in ops:
            c += v.conj()[a, None, :, None] * v[None, b, None, :]
        return c.reshape(na, nb, -1)
    # views of c[i, j, k, l]: left[i, j, l] at k = i, where 1 kron X lands,
    # and right[i, j, k] at l = j, where X^T kron 1 lands; the entries with
    # both are written through right
    e = c.itemsize
    left = np.ndarray((na, nb, dim), complex, c, a.start * dim * e,
                      ((nb * dim + 1) * dim * e, dim * dim * e, e))
    right = np.ndarray((na, nb, dim), complex, c, b.start * e,
                       (nb * dim * dim * e, (dim * dim + 1) * e, dim * e))
    eye, off_half = _identity_factors(dim)
    left[:] = -1j * h[b]
    right[:] = -1j * (h.diagonal()[b, None] * eye[a, None] - h.T[a, None])
    for l, k in ops:
        c += l.conj()[a, None, :, None] * l[None, b, None, :]
        left -= (k * off_half)[b]
        right -= 0.5 * (k.diagonal()[b, None] * eye[a, None] + k.T[a, None])
    return c.reshape(na, nb, -1)


def _real_schrodinger(h, ops, dim: int) -> np.ndarray:
    """The real Schrodinger form summed from the terms :func:`_terms` in
    dimension ``dim``, a chunk of rows of ``S`` at a time."""
    return _frame_chunks(lambda a, b: _schrodinger_rows(h, ops, dim, a, b),
                         dim * dim, dim * dim)


def to_superoperator(obj, picture: str = HEISENBERG) -> Superoperator:
    """The map of a channel or generator in the given picture.

    The complex Schrodinger matrix ``S`` sums ``conj(V) kron V`` over the
    Kraus operators, or for a generator ``-i (1 kron H - H^T kron 1)`` and,
    per jump ``L`` with ``K = L^dag L``, ``conj(L) kron L - (1 kron K + K^T
    kron 1) / 2``.  ``S`` is never formed whole: :func:`_frame_chunks` asks
    for it a chunk of rows at a time (:func:`_schrodinger_rows`) and takes
    each chunk to the Hermitian frame.  In a chunk the ``conj(V) kron V``
    terms are dense and added to zeros in order; an identity-factor term is
    applied only on its nonzeros (``i = k`` or ``j = l`` in ``S[(i, j), (k,
    l)]``), through two strided views of the chunk.  Every entry thus has
    the value of the dense sum, and its bits except the sign of a part that
    is exactly zero, which can depend on the skipped additions of zeros.
    The assembly holds the real form and chunk-sized temporaries: at most
    1.75 times the real form's bytes from d = 24 on.  The Heisenberg map is
    the transpose.  :func:`_real_schrodinger` is the one assembly, which
    ``asymptotics.Dynamics`` also runs on a model's or a corner's terms.
    """
    _check_picture(picture)
    r = _real_schrodinger(*_terms(obj), obj.dim)
    return Superoperator(r.T if picture == HEISENBERG else r, picture)


def _iteration_count(t: float) -> int:
    """The iteration count a discrete horizon ``t`` stands for; ``t`` must be
    finite and integral within 1e-9, else ValidationError."""
    if not np.isfinite(t):
        raise ValidationError(f"discrete channels need a finite horizon, got {t}")
    n = int(round(t))
    if abs(t - n) > 1e-9:
        raise ValidationError(f"discrete channels need an integer horizon, got {t}")
    return n


def _propagate(r: np.ndarray, t: float, discrete: bool) -> np.ndarray:
    """``r^n`` (``n = t`` iterations) for a channel, ``exp(t r)`` for a
    generator, on the real form ``r``; NegativeTime for ``t < 0`` and
    ValidationError for a non-finite ``t``."""
    if discrete:
        if t < 0:
            raise NegativeTime(f"iteration count must be nonnegative, got {t}")
        return np.linalg.matrix_power(r, _iteration_count(t))
    if t < 0:
        raise NegativeTime(f"evolution time must be nonnegative, got {t}")
    if not np.isfinite(t):
        raise ValidationError(f"evolution time must be finite, got {t}")
    return matrix_exp(t * r)


def propagator(obj, t: float, picture: str = HEISENBERG) -> Superoperator:
    """Evolution to time ``t``: ``exp(t L)`` for generators, ``S^n`` for channels.

    Discrete channels take integer horizons (an iteration count); ``t`` must
    then be integral within 1e-9.  The power or exponential is taken on the
    real form; there are no step integrators and hence no step-size
    decisions.
    """
    r = to_superoperator(obj, picture).real
    return Superoperator(_propagate(r, t, _is_channel(obj)), picture)


def generator_to_channel(gen: LindbladGenerator, t: float,
                         tol: ToleranceConfig | None = None) -> QuantumChannel:
    """Kraus form of the CP map ``exp(t L)`` via its Choi matrix.

    The Choi matrix is assembled block-wise from the predual action on
    matrix units and eigendecomposed; eigenvalues below the support cutoff
    are dropped.
    """
    tol = _tol(tol)
    d = gen.dim
    s = propagator(gen, t, SCHRODINGER)
    choi = np.zeros((d * d, d * d), dtype=complex)
    for n, unit in enumerate(_matrix_units(d)):
        c1, c2 = divmod(n, d)
        choi[c1 * d:(c1 + 1) * d, c2 * d:(c2 + 1) * d] = s.apply(unit)
    w, v = np.linalg.eigh(hermitian_part(choi))
    cutoff = tol.cutoff(float(w[-1]))
    ops = [unvec(np.sqrt(w[j]) * v[:, j], d) for j in range(len(w)) if w[j] > cutoff]
    return QuantumChannel(ops, tol)


def stinespring_dilate(ch: QuantumChannel,
                       tol: ToleranceConfig | None = None) -> StinespringDilation:
    """Stack the Kraus family into the canonical dilation isometry."""
    tol = _tol(tol)
    d = ch.dim
    n = len(ch.kraus_ops)
    v = np.zeros((d * n, d), dtype=complex)
    for i, k in enumerate(ch.kraus_ops):
        v[i::n, :] = k
    return StinespringDilation(v, n, tol)
