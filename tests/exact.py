"""Exact rank answers over the Gaussian rationals, from the standard library.

A float is a dyadic rational, so the model a float array encodes is exact:
its terms have entries in ``Q(i)``, and so has its Schrodinger generator
``L`` (``Phi - 1`` for a channel).  Two of the analysis's rank decisions are
then exact linear algebra, with no tolerance:

- the stationary dimension is the nullity of ``L``;
- the rank of ``r_o``, the support of a maximal-support stationary state,
  is the dimension of the sum of the ranges of a stationary basis and of
  their adjoints.

``exact_ranks`` computes both by Gauss-Jordan elimination on ``Fraction``
pairs.  Its cost grows as about ``d^6`` with the dimension ``d``: about 10 ms
for the largest bundled fixture (``d = 3``), and half a second for a random
draw at ``d = 4``, whose 53-bit entries lengthen every fraction.

The answer is that of the model the floats encode.  A draw rotated by a
random unitary holds its structure (an invariant block, a Hermitian ``H``)
only to rounding, so that model generically has another answer than the
constructed one; the oracle is for models whose floats hold their structure
exactly, as the bundled fixtures' do.
"""

from fractions import Fraction

import numpy as np


class Gaussian:
    """An element ``re + im i`` of ``Q(i)``."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        return Gaussian(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Gaussian(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return Gaussian(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        norm = other.re * other.re + other.im * other.im
        return Gaussian((self.re * other.re + self.im * other.im) / norm,
                        (self.im * other.re - self.re * other.im) / norm)

    def __neg__(self):
        return Gaussian(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def conj(self):
        return Gaussian(self.re, -self.im)


ZERO, ONE = Gaussian(0), Gaussian(1)


def _exact(m) -> list:
    """The complex matrix ``m`` as rows of the Gaussian rationals its floats encode."""
    return [[Gaussian(z.real, z.imag) for z in row]
            for row in np.asarray(m, dtype=complex).tolist()]


def _generator(model) -> list:
    """The Schrodinger generator of ``model`` on row-major coordinates:
    entry ``((k, l), (i, j))`` is ``L(E_ij)[k, l]``, with ``L(rho) = sum_t
    X_t rho X_t^dag + G rho + rho G^dag`` for ``G = -i H - 1/2 sum_t X_t^dag
    X_t`` on a generator's jumps ``X_t``, and ``sum_t X_t rho X_t^dag - rho``
    on a channel's Kraus operators."""
    d = model.dim
    channel = hasattr(model, "kraus_ops")
    xs = [_exact(x) for x in (model.kraus_ops if channel else model.lindblad_ops)]
    if channel:
        g = [[-ONE / Gaussian(2) if i == j else ZERO for j in range(d)] for i in range(d)]
    else:
        h = _exact(model.hamiltonian)
        g = [[Gaussian(h[i][j].im, -h[i][j].re) for j in range(d)] for i in range(d)]
        half = Gaussian(Fraction(1, 2))
        for x in xs:
            for i in range(d):
                for j in range(d):
                    total = ZERO
                    for t in range(d):
                        total = total + x[t][i].conj() * x[t][j]
                    g[i][j] = g[i][j] - half * total
    out = [[ZERO] * (d * d) for _ in range(d * d)]
    for k in range(d):
        for l in range(d):
            row = out[k * d + l]
            for i in range(d):
                for j in range(d):
                    entry = ZERO
                    for x in xs:
                        entry = entry + x[k][i] * x[l][j].conj()
                    if j == l:
                        entry = entry + g[k][i]
                    if i == k:
                        entry = entry + g[l][j].conj()
                    row[i * d + j] = entry
    return out


def _reduced(rows: list):
    """The reduced row echelon form of ``rows`` and its pivot columns."""
    m = [list(row) for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inverse = ONE / m[r][c]
        m[r] = [x * inverse for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots


def exact_ranks(model) -> tuple:
    """``(stationary dimension, rank of r_o)`` of a ``LindbladGenerator`` or
    ``QuantumChannel``, exactly."""
    d = model.dim
    m, pivots = _reduced(_generator(model))
    basis = []
    for free in (c for c in range(d * d) if c not in pivots):
        v = [ZERO] * (d * d)
        v[free] = ONE
        for row, p in zip(m, pivots):
            v[p] = -row[free]
        basis.append([v[i * d:(i + 1) * d] for i in range(d)])
    # the columns of every basis element and of its adjoint, as rows
    columns = [[b[i][j] for i in range(d)] for b in basis for j in range(d)]
    columns += [[b[j][i].conj() for i in range(d)] for b in basis for j in range(d)]
    return len(basis), len(_reduced(columns)[1])
