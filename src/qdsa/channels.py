"""Completely positive unital maps and their generators.

Two representations are supported: a :class:`QuantumChannel` holds a Kraus
family ``{V_i}`` acting in the Heisenberg picture as
``alpha(a) = sum_i V_i^dag a V_i`` (the predual acts on states as
``nu(rho) = sum_i V_i rho V_i^dag``), and a :class:`LindbladGenerator`
holds a Hamiltonian ``H`` and jump operators ``{L_i}`` generating the
norm-continuous semigroup ``alpha_t = exp(t L)``, computed from the
standard form ``(G, {L_i})`` (:func:`_terms`): ``L(x) = G^dag x + x G +
sum_i L_i^dag x L_i`` with ``G = -iH - sum_i L_i^dag L_i / 2``.
:func:`_act` is the one action of the standard form on an operator or a
stack of them, in either picture, for both kinds of model.  The one
structural axiom a Kraus family can fail is unitality:
:class:`QuantumChannel` raises NotUnital with the residual ``|sum_i V_i^dag
V_i - 1|``.  Trace preservation of the predual is the same condition,
duality holds by cyclicity of the trace, and a generator with Hermitian
``H`` has ``L(1) = 0`` by construction, so no separate structure check
exists.

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
    _is_integer,
    _norm_exceeds,
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


def _matrix_units(dim: int) -> np.ndarray:
    """The read-only ``(dim^2, dim, dim)`` stack of the matrix units
    ``E_ij``, row by row: ``E_ij`` is at ``i * dim + j``."""
    units = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    units.flags.writeable = False
    return units


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
    ``(a - a^dag)/2i``; of each matrix of a stack ``a``."""
    flat = a.reshape(*a.shape[:-2], -1)
    _, own, other = _frame(a.shape[-1])
    return own.conj() * a.swapaxes(-1, -2).reshape(flat.shape) + other.conj() * flat


def hermitian_coords(a) -> np.ndarray:
    """Real frame coordinates of the Hermitian part of ``a``."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    return _coords(a).real


def from_hermitian_coords(x, dim: int) -> np.ndarray:
    """The ``dim x dim`` matrix with frame coordinates ``x``; Hermitian when
    ``x`` is real.  A stack of them for the rows of a block ``x``."""
    x = np.asarray(x)
    if x.ndim == 0:
        raise DimMismatch("frame coordinates must be a vector or a block of rows, got a scalar")
    flip, own, other = _frame(_square_side(x.shape[-1], dim))
    v = own * x + other[flip] * x[..., flip]
    return v.reshape(*x.shape[:-1], dim, dim).swapaxes(-1, -2)


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
        defect = sum(v.conj().T @ v for v in ops) - np.eye(dim)
        if _norm_exceeds(defect, tol.atol):
            raise NotUnital(f"sum V^dag V deviates from identity by {opnorm(defect):.3e}")
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
    use; only :func:`generator_to_channel` asks for it.
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
        if not _is_integer(multiplicity):
            raise ValidationError(f"multiplicity must be an integer, got {multiplicity!r}")
        if v.ndim != 2 or multiplicity < 1 or v.shape[0] != v.shape[1] * multiplicity:
            raise DimMismatch("isometry must have shape (d*n, d)")
        dim = v.shape[1]
        defect = v.conj().T @ v - np.eye(dim)
        if _norm_exceeds(defect, tol.atol):
            raise NotUnital(f"V^dag V deviates from identity by {opnorm(defect):.3e}")
        v.flags.writeable = False
        self.isometry = v
        self.multiplicity = multiplicity
        self.dim = dim

    def represent(self, a) -> np.ndarray:
        """The dilated representation ``pi(a) = a kron 1_n``."""
        return _kron(as_complex_matrix(a), np.eye(self.multiplicity))

    def reconstruct(self, a) -> np.ndarray:
        """Evaluate ``V^dag pi(a) V``, which must reproduce the channel."""
        return self._reconstruct(as_complex_matrix(a))

    def _reconstruct(self, a: np.ndarray) -> np.ndarray:
        """``V^dag (a kron 1_n) V``, unchecked; broadcast over the leading
        axes of a stack ``a``."""
        v = self.isometry
        return v.conj().T @ _kron(a, np.eye(self.multiplicity)) @ v


def _adjoint(terms):
    """The terms ``(G^dag, {X_i^dag})`` of the Schrodinger picture, for the
    terms ``(G, {X_i})`` of :func:`_terms`."""
    g, ops = terms
    return None if g is None else g.conj().T, tuple(x.conj().T for x in ops)


def _act(terms, m: np.ndarray, picture: str = HEISENBERG) -> np.ndarray:
    """``sum_i X_i^dag m X_i``, plus ``G^dag m + m G`` for a generator, of
    the terms ``(G, {X_i})`` of :func:`_terms`, unchecked; broadcast over a
    stack ``m``, each matrix with the bits of its own sum.  The Schrodinger
    picture is the same form of the :func:`_adjoint` terms."""
    g, ops = _adjoint(terms) if picture == SCHRODINGER else terms
    out = sum(x.conj().T @ m @ x for x in ops)
    return out if g is None else g.conj().T @ m + m @ g + out


def apply_heisenberg(ch: QuantumChannel, a) -> np.ndarray:
    """Heisenberg action ``sum_i V_i^dag a V_i`` on an observable."""
    terms = _terms(ch, channel=True)
    m = as_complex_matrix(a)
    _check_operand(m.shape[0], ch.dim)
    return _act(terms, m)


def lindblad_apply(gen: LindbladGenerator, a, picture: str = HEISENBERG) -> np.ndarray:
    """Apply the generator to an operator in the requested picture by
    :func:`_act`.

    Heisenberg:  G^dag a + a G + sum_i L_i^dag a L_i
    Schrodinger: G rho + rho G^dag + sum_i L_i rho L_i^dag
    """
    _check_picture(picture)
    terms = _terms(gen, channel=False)
    m = as_complex_matrix(a)
    _check_operand(m.shape[0], gen.dim)
    return _act(terms, m, picture)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices as one broadcast product (same bits,
    without ``np.kron``'s generic shape handling); of each matrix of a
    stack ``a`` with ``b``."""
    return (a[..., :, None, :, None] * b[None, :, None, :]).reshape(
        *a.shape[:-2], a.shape[-2] * b.shape[0], a.shape[-1] * b.shape[1])


def _is_channel(obj) -> bool:
    """True for a channel, False for a generator, TypeError for anything else."""
    if isinstance(obj, QuantumChannel):
        return True
    if isinstance(obj, LindbladGenerator):
        return False
    raise TypeError(f"expected QuantumChannel or LindbladGenerator, got {type(obj)!r}")


def _terms(obj, channel: bool | None = None):
    """The model in standard form ``(G, (L_1, ...))``, the one place that
    reads the model format: the map is ``x -> G^dag x + x G + sum_i L_i^dag
    x L_i``, with ``G = -iH - sum_i L_i^dag L_i / 2`` formed here once and
    read-only, and a channel's is ``(None, (V_1, ...))``, its Kraus family.
    ``channel`` True or False demands that kind (TypeError naming it)."""
    kind = _is_channel(obj)
    if channel is not None and kind != channel:
        raise TypeError(f"expected a {'QuantumChannel' if channel else 'LindbladGenerator'}, "
                        f"got a {type(obj).__name__}")
    if kind:
        return None, obj.kraus_ops
    g = -1j * obj.hamiltonian
    with np.errstate(over="ignore", invalid="ignore"):
        for l in obj.lindblad_ops:
            g = g - 0.5 * (l.conj().T @ l)
    if not np.isfinite(g).all():
        raise ValidationError("G = -iH - sum_i L_i^dag L_i / 2 overflows: the model is too large")
    g.flags.writeable = False
    return g, obj.lindblad_ops


def _schrodinger_rows(g, ops, dim: int, a: slice, b: slice) -> np.ndarray:
    """The rows ``(i, j)`` of the complex Schrodinger matrix summed from the
    terms :func:`_terms`, for ``i`` in the slice ``a`` and ``j`` in ``b``,
    as an ``|a| x |b| x dim^2`` array (see :func:`to_superoperator`)."""
    na, nb = len(range(dim)[a]), len(range(dim)[b])
    c = np.zeros((na, nb, dim, dim), dtype=complex)
    for x in ops:
        c += x.conj()[a, None, :, None] * x[None, b, None, :]
    if g is not None:
        # in c[i, j, k, l], 1 kron G lands at k = i and conj(G) kron 1 at l = j
        i, j = np.arange(na), np.arange(nb)
        c[i, :, a.start + i, :] += g[b]
        c[:, j, :, b.start + j] += g.conj()[a]
    return c.reshape(na, nb, -1)


def _real_schrodinger(g, ops, dim: int) -> np.ndarray:
    """The real Schrodinger form summed from the terms :func:`_terms` in
    dimension ``dim``, a chunk of rows of ``S`` at a time.  In dimension
    one the frame is the identity and ``S`` one number, so the form is
    ``Re(sum_i conj(L_i) L_i + G + conj(G))`` in an array of its own, summed
    by the ufuncs of :func:`_schrodinger_rows` in its order on 1 x 1
    arrays, which gives its bits, with no chunk and no frame pass."""
    if dim == 1:
        s = np.zeros((1, 1), dtype=complex)
        for x in ops:
            s += x.conj() * x
        if g is not None:
            s += g
            s += g.conj()
        return s.real.copy()
    return _frame_chunks(lambda a, b: _schrodinger_rows(g, ops, dim, a, b),
                         dim * dim, dim * dim)


def to_superoperator(obj, picture: str = HEISENBERG) -> Superoperator:
    """The map of a channel or generator in the given picture.

    The complex Schrodinger matrix ``S`` of the terms ``(G, {L_i})``
    (:func:`_terms`) sums ``conj(L_i) kron L_i`` over the Kraus operators or
    jumps, then ``1 kron G`` and ``conj(G) kron 1``.  ``S`` is never formed
    whole: :func:`_frame_chunks` asks for it a chunk of rows at a time
    (:func:`_schrodinger_rows`) and takes each chunk to the Hermitian frame.
    In a chunk the ``conj(L_i) kron L_i`` terms are dense and added to zeros
    in order; ``G`` and ``conj(G)`` are added only where their identity
    factor is nonzero (``i = k`` or ``j = l`` in ``S[(i, j), (k, l)]``),
    by integer-array indexing of the chunk.  Every entry thus has the value
    of the dense sum, and its bits except the sign of a part that is exactly
    zero, which can depend on the skipped additions of zeros.  The
    Heisenberg map is the transpose.  :func:`_real_schrodinger` is the one
    assembly, which ``asymptotics.Dynamics`` also runs on a model's or a
    corner's terms.
    """
    _check_picture(picture)
    r = _real_schrodinger(*_terms(obj), obj.dim)
    return Superoperator(r.T if picture == HEISENBERG else r, picture)


def _check_time(t: float, discrete: bool) -> float:
    """The one time rule: a time is nonnegative and finite (NegativeTime
    below 0, else ValidationError), and a channel's (``discrete``) is an
    iteration count, integral within 1e-9 (ValidationError).  Returns ``t``
    for a generator and the iteration count for a channel."""
    if not 0 <= t < math.inf:
        raise (NegativeTime if t < 0 else ValidationError)(
            f"time must be nonnegative and finite, got {t}")
    if not discrete:
        return t
    n = int(round(t))
    if abs(t - n) > 1e-9:
        raise ValidationError(f"discrete channels need an integer horizon, got {t}")
    return n


def _check_horizon(horizon: float, discrete: bool) -> None:
    """ValidationError unless ``horizon`` is a time (:func:`_check_time`)
    that is positive and, for a channel, at least one iteration."""
    if not 0 < horizon < math.inf:
        raise ValidationError(f"horizon must be positive and finite, got {horizon}")
    if discrete and _check_time(horizon, discrete) < 1:
        raise ValidationError(f"a channel's horizon is at least one iteration, got {horizon}")


def _propagate(r: np.ndarray, t: float, discrete: bool) -> np.ndarray:
    """``r^n`` (``n = t`` iterations) for a channel, ``exp(t r)`` for a
    generator, on the real form ``r``; ``t`` must pass :func:`_check_time`."""
    t = _check_time(t, discrete)
    return np.linalg.matrix_power(r, t) if discrete else matrix_exp(t * r)


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

    The Choi matrix, whose block ``(c1, c2)`` is the predual's image of the
    matrix unit ``E_{c1 c2}``, is a reshuffle of the complex Schrodinger
    matrix of the propagator; it is eigendecomposed, its negative
    eigenvalues are dropped, and so are its smallest positive ones while
    their sum stays within ``atol / 2``.  That sum bounds the unitality
    defect the dropped Kraus operators leave, so the channel passes its own
    check with half of ``atol`` to spare.
    """
    tol = _tol(tol)
    d = gen.dim
    s = propagator(gen, t, SCHRODINGER).matrix
    choi = s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)
    w, v = np.linalg.eigh(hermitian_part(choi))
    kept = np.flatnonzero(np.cumsum(np.maximum(w, 0.0)) > tol.atol / 2)
    return QuantumChannel([unvec(np.sqrt(w[j]) * v[:, j], d) for j in kept], tol)


def stinespring_dilate(ch: QuantumChannel,
                       tol: ToleranceConfig | None = None) -> StinespringDilation:
    """Stack the Kraus family into the canonical dilation isometry."""
    tol = _tol(tol)
    _, ops = _terms(ch, channel=True)
    d, n = ch.dim, len(ops)
    v = np.zeros((d * n, d), dtype=complex)
    for i, k in enumerate(ops):
        v[i::n, :] = k
    return StinespringDilation(v, n, tol)
