"""Small-model fast paths: one-call ``opnorm``, broadcast ``_kron``, the
chunked superoperator assembly and frame pass, and each stationary support
and enclosure residual computed once per analysis.

Every fast path must give the same bits as the code it replaces; the
references below are the replaced expressions themselves.  ``real_form``
and ``_frame_pass``, the frame pass of a whole complex matrix, live here:
the library only ever takes its own chunks to the frame.
"""

import numpy as np
import pytest

import qdsa.analyze
import qdsa.asymptotics
import qdsa.channels
import qdsa.harmonic
import qdsa.linalg
from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.asymptotics import Dynamics, minimal_enclosures, recurrent_projection
from qdsa.channels import (
    HEISENBERG,
    SCHRODINGER,
    LindbladGenerator,
    QuantumChannel,
    _frame,
    _frame_chunks,
    _kron,
    _row_blocks,
    _square_side,
    to_superoperator,
)
from qdsa.harmonic import subharmonic_residual
from qdsa.linalg import DEFAULT_TOL, opnorm, support_projection
from qdsa.modelio import model_spec_from_fixture
from qdsa.models import fixture_names
from qdsa.sampling import block_diagonal_channel, random_hermitian, transient_block_generator
from test_dynamics import GOLDEN_SEED, _all_models, _counting

MODELS = _all_models()
IDS = [name for name, _, _ in MODELS]


def _reference_opnorm(m) -> float:
    return float(np.linalg.norm(m, 2))


def _model_matrices(model):
    """Operators and superoperators of a model, as ``opnorm`` sees them."""
    if isinstance(model, QuantumChannel):
        ops = list(model.kraus_ops)
    else:
        ops = [model.hamiltonian, *model.lindblad_ops]
    supers = [to_superoperator(model, picture).matrix for picture in (HEISENBERG, SCHRODINGER)]
    return ops + supers + [real_form(s) for s in supers]


def _builder_operands(model):
    """Every ``(a, b)`` pair of the standard-form Schrodinger terms
    (:func:`_standard_superop`) that the library takes a Kronecker product
    of."""
    if isinstance(model, QuantumChannel):
        return [(v.conj(), v) for v in model.kraus_ops]
    eye = np.eye(model.dim)
    g = _standard_g(model)
    return [(l.conj(), l) for l in model.lindblad_ops] + [(eye, g), (g.conj(), eye)]


def _standard_g(gen):
    """``G = -iH - sum_i L_i^dag L_i / 2`` of a generator, summed jump by
    jump."""
    g = -1j * gen.hamiltonian
    for l in gen.lindblad_ops:
        g = g - 0.5 * (l.conj().T @ l)
    return g


def _standard_superop(model, picture):
    """The builder of the standard form ``(G, {L_i})`` with ``np.kron``:
    ``conj(L_i) kron L_i`` per Kraus operator or jump, then for a generator
    ``1 kron G`` and ``conj(G) kron 1``; transposed for Heisenberg."""
    d = model.dim
    s = np.zeros((d * d, d * d), dtype=complex)
    channel = isinstance(model, QuantumChannel)
    for l in model.kraus_ops if channel else model.lindblad_ops:
        s += np.kron(l.conj(), l)
    if not channel:
        g = _standard_g(model)
        s += np.kron(np.eye(d), g)
        s += np.kron(g.conj(), np.eye(d))
    return s.T if picture == HEISENBERG else s


def _reference_superop(model, picture):
    """The builders as they were written with ``np.kron`` from ``H`` and
    ``K_i = L_i^dag L_i``: equal to :func:`_standard_superop` up to
    rounding."""
    d = model.dim
    if isinstance(model, QuantumChannel):
        s = np.zeros((d * d, d * d), dtype=complex)
        for v in model.kraus_ops:
            s += np.kron(v.T, v.conj().T) if picture == HEISENBERG else np.kron(v.conj(), v)
        return s
    eye = np.eye(d)
    h = model.hamiltonian
    sign = 1j if picture == HEISENBERG else -1j
    s = sign * (np.kron(eye, h) - np.kron(h.T, eye))
    for l in model.lindblad_ops:
        k = l.conj().T @ l
        s += np.kron(l.T, l.conj().T) if picture == HEISENBERG else np.kron(l.conj(), l)
        s -= 0.5 * (np.kron(eye, k) + np.kron(k.T, eye))
    return s


def _reference_real_form(s):
    """``Q^dag S Q`` as it was written: complex index gathers, real part."""
    flip, own, other = _frame(int(round(np.sqrt(s.shape[1]))))
    t = s * own + s[:, flip] * other
    flip, own, other = _frame(int(round(np.sqrt(s.shape[0]))))
    return (own.conj()[:, None] * t + other.conj()[:, None] * t[flip]).real


def _frame_pass(s: np.ndarray) -> np.ndarray:
    """``Re(Q^dag S Q)`` of a complex matrix ``S`` with square sides, by the
    library's chunked frame pass :func:`~qdsa.channels._frame_chunks` on
    views of its rows; ``S`` is left as it is."""
    rows, cols = s.shape
    d = _square_side(rows)
    s3 = s.reshape(d, d, cols)
    return _frame_chunks(lambda a, b: s3[a, b], rows, cols)


def real_form(s) -> np.ndarray:
    """``Q^dag S Q`` for a Hermiticity-preserving superoperator matrix ``S``,
    which may map ``m x m`` to ``d x d`` matrices (shape ``d^2 x m^2``), by
    :func:`_frame_pass`."""
    return _frame_pass(np.asarray(s, dtype=complex))


def _block_frame(w: np.ndarray) -> np.ndarray:
    """The real ``d^2 x m^2`` matrix ``P`` of ``Y -> W Y W^dag`` for a
    ``d x m`` isometry ``W``: it maps the frame coordinates of ``Y`` to
    those of ``W Y W^dag``, and has orthonormal columns.  The reference for
    the transient corner, ``R_q = P^T R P``."""
    return real_form(_kron(w.conj(), w))


def _assert_same_bits(got, want):
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.array_equal(got, want)
    # down to the sign of every zero entry
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


def _ladder_rungs():
    """The nine seed-1 rungs of the benchmark's analyze and structure ladders."""
    rungs = []
    for kind, d in (("generator", 4), ("generator", 8), ("generator", 12), ("channel", 8),
                    ("channel", 16), ("generator", 24), ("generator", 32), ("channel", 24),
                    ("channel", 32)):
        rng = np.random.default_rng(1)
        if kind == "generator":
            model, _ = transient_block_generator(d // 2, d - d // 2, rng)
        else:
            model, _ = block_diagonal_channel([4] * (d // 4), 2, rng)
        rungs.append(pytest.param(model, id=f"{kind}-d{d}"))
    return rungs


def _almost_hermitian_generator():
    """A generator whose ``H`` is Hermitian only to ``atol``: ``conj(G)``
    differs from ``i H^T - K^T / 2``, and the assembly must add ``conj(G)``
    itself."""
    rng = np.random.default_rng(3)
    h = random_hermitian(3, rng) + 1e-10 * (rng.standard_normal((3, 3))
                                            + 1j * rng.standard_normal((3, 3)))
    jumps = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))]
    return LindbladGenerator(h, jumps)


def _signed_sparse(shape, rng) -> np.ndarray:
    """A complex matrix whose real and imaginary parts are each Gaussian with
    probability 0.4, else a zero of random sign."""
    parts = rng.standard_normal((2, *shape)) * (rng.random((2, *shape)) < 0.4)
    parts = np.where(parts == 0, np.where(rng.random(parts.shape) < 0.5, -0.0, 0.0), parts)
    m = np.empty(shape, dtype=complex)
    m.real, m.imag = parts
    return m


def _sparse_hermitian(d: int, rng) -> np.ndarray:
    """A sparse Hermitian matrix with zeros of both signs among its parts."""
    h = _signed_sparse((d, d), rng)
    lower = np.tril_indices(d, -1)
    h[lower] = h.T.conj()[lower]
    h.imag[np.diag_indices(d)] = np.where(rng.random(d) < 0.5, -0.0, 0.0)
    return h


def _signed_permutation(d: int, rng) -> np.ndarray:
    """A unitary with one nonzero per row, a power of ``1j`` or a random
    phase, and zeros of random sign elsewhere."""
    u = _signed_sparse((d, d), rng) * 0.0
    phases = np.where(rng.random(d) < 0.5, 1j ** rng.integers(0, 4, d),
                      np.exp(2j * np.pi * rng.random(d)))
    u[np.arange(d), rng.permutation(d)] = phases
    return u


def _sparse_model(d: int, rng):
    """A generator or channel in dimension ``d`` whose operators have zeros
    of both signs among their entries' parts."""
    if rng.random() < 0.5:
        jumps = [_signed_sparse((d, d), rng) for _ in range(rng.integers(0, 3))]
        return LindbladGenerator(_sparse_hermitian(d, rng), jumps)
    weights = rng.dirichlet(np.ones(rng.integers(1, 4)))
    return QuantumChannel([np.sqrt(w) * _signed_permutation(d, rng) for w in weights])


def _assert_frame_pass_is_the_reference(s):
    want = _reference_real_form(s).tobytes()
    assert _frame_pass(s.copy()).tobytes() == want


class TestOpnorm:
    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_random_matches_norm_bit_for_bit(self, d, kind):
        rng = np.random.default_rng(d)
        for rows, cols in ((d, d), (d, d + 1), (d + 2, d)):
            m = rng.standard_normal((rows, cols))
            if kind == "complex":
                m = m + 1j * rng.standard_normal((rows, cols))
            assert opnorm(m) == _reference_opnorm(m)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_rank_deficient_and_zero(self, d):
        rng = np.random.default_rng(100 + d)
        u = rng.standard_normal((d, 1)) + 1j * rng.standard_normal((d, 1))
        for m in (u @ u.conj().T, (u @ u.conj().T).real, np.zeros((d, d)),
                  np.zeros((d, d), dtype=complex)):
            assert opnorm(m) == _reference_opnorm(m)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
    def test_empty_is_zero(self, shape):
        for dtype in (float, complex):
            m = np.zeros(shape, dtype=dtype)
            assert opnorm(m) == _reference_opnorm(m) == 0.0

    @pytest.mark.parametrize("name,model,horizon", MODELS, ids=IDS)
    def test_model_matrices(self, name, model, horizon):
        for m in _model_matrices(model):
            assert opnorm(m) == _reference_opnorm(m)


@pytest.mark.parametrize("name,model,horizon", MODELS, ids=IDS)
class TestKron:
    def test_builder_operands(self, name, model, horizon):
        for a, b in _builder_operands(model):
            got = _kron(a, b)
            want = np.kron(a, b)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_superoperators_unchanged(self, name, model, horizon):
        schrodinger = to_superoperator(model, SCHRODINGER).real
        _assert_same_bits(schrodinger, _reference_real_form(_standard_superop(model, SCHRODINGER)))
        assert np.array_equal(to_superoperator(model, HEISENBERG).real, schrodinger.T)


class TestAssemblyBits:
    """The slice-wise assembly and the blocked frame pass against the dense
    complex sum and the whole-matrix complex gathers."""

    @pytest.mark.parametrize("model", _ladder_rungs() + [
        pytest.param(QuantumChannel([np.array([[np.exp(0.7j)]])]), id="channel-d1"),
        pytest.param(LindbladGenerator(random_hermitian(3, np.random.default_rng(5))),
                     id="generator-no-jumps"),
        pytest.param(_almost_hermitian_generator(), id="generator-almost-hermitian"),
    ])
    def test_superoperator_unchanged(self, model):
        _assert_same_bits(to_superoperator(model, SCHRODINGER).real,
                          _reference_real_form(_standard_superop(model, SCHRODINGER)))

    @pytest.mark.parametrize("model", [pytest.param(model, id=name) for name, model, _ in MODELS]
                             + _ladder_rungs())
    def test_standard_form_is_the_hk_form_to_rounding(self, model):
        # the assembly from (G, {L_i}) against the one from H and K_i
        got = to_superoperator(model, SCHRODINGER).real
        want = _reference_real_form(_reference_superop(model, SCHRODINGER))
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("d,m", [(2, 1), (3, 2), (5, 3), (8, 5), (24, 7)])
    def test_block_frame_of_a_rectangular_isometry(self, d, m):
        rng = np.random.default_rng(d * m)
        w, _ = np.linalg.qr(rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m)))
        _assert_same_bits(_block_frame(w), _reference_real_form(np.kron(w.conj(), w)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_frame_pass_on_sparse_models_with_signed_zeros(self, seed):
        rng = np.random.default_rng(seed)
        differ = []
        for n in range(100):
            s = _standard_superop(_sparse_model(int(rng.integers(1, 6)), rng), SCHRODINGER)
            if _frame_pass(s.copy()).tobytes() != _reference_real_form(s).tobytes():
                differ.append(n)
        assert differ == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_assembly_on_sparse_models_with_signed_zeros(self, seed):
        # the chunked assembly skips the dense sum's additions of exact
        # zeros: every entry keeps its value, and only the sign of a part
        # that is exactly zero may differ (the fixtures and ladder rungs
        # above keep every bit)
        rng = np.random.default_rng(seed)
        for _ in range(100):
            model = _sparse_model(int(rng.integers(1, 6)), rng)
            want = _reference_real_form(_standard_superop(model, SCHRODINGER))
            assert np.array_equal(to_superoperator(model, SCHRODINGER).real, want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_frame_pass_on_rectangular_isometries(self, seed):
        rng = np.random.default_rng(seed)
        for d in range(1, 6):
            for m in range(1, d + 1):
                u = _signed_permutation(d, rng)
                q, _ = np.linalg.qr(rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m)))
                for w in (u[:, :m], q):
                    _assert_frame_pass_is_the_reference(_kron(w.conj(), w))

    def test_frame_pass_over_several_row_blocks(self):
        s = _standard_superop(_sparse_model(24, np.random.default_rng(24)), SCHRODINGER)
        assert len(_row_blocks(*s.shape)) > 1
        _assert_frame_pass_is_the_reference(s)

    def test_real_form_leaves_its_argument(self):
        s = _standard_superop(MODELS[0][1], SCHRODINGER)
        before = s.copy()
        _assert_same_bits(real_form(s), _reference_real_form(before))
        assert s.tobytes() == before.tobytes()
        _assert_same_bits(real_form(np.asfortranarray(s)), _reference_real_form(before))


@pytest.mark.parametrize("name,model,horizon", MODELS, ids=IDS)
class TestComputedOnce:
    def test_one_support_and_one_residual_per_enclosure(self, monkeypatch, name, model,
                                                        horizon):
        # every residual of the analysis is the one helper on the terms,
        # counted wherever a module binds it
        calls = {}
        for module in (qdsa.harmonic, qdsa.asymptotics, qdsa.analyze):
            if hasattr(module, "_residual"):
                calls[module] = _counting(monkeypatch, module, "_residual")
        supports = _counting(monkeypatch, qdsa.asymptotics, "stationary_support")
        report = run_analyze(model, AnalysisOptions(horizon=horizon, seed=GOLDEN_SEED))
        assert len(supports) == 1
        # one residual per enclosure, then one for the recurrent projection
        # before its transient corner is used (none when it is the identity)
        tested = [args[1] for c in calls.values() for args in c]
        expected = list(minimal_enclosures(model, seed=GOLDEN_SEED).minimal_projections)
        if report.recurrent.rank < model.dim:
            expected.append(report.recurrent)
        assert len(tested) == len(expected)
        for got, want in zip(tested, expected):
            assert np.array_equal(got.matrix, want.matrix)

    def test_handed_over_values_match_explicit_calls(self, name, model, horizon):
        decomposition = minimal_enclosures(model, seed=GOLDEN_SEED)
        projections = decomposition.minimal_projections
        assert len(decomposition.subharmonic_residuals) == len(projections)
        assert len(decomposition.certificate_ranks) == len(projections)
        for p, residual, (_, state), rank in zip(
                projections, decomposition.subharmonic_residuals,
                decomposition.certificates, decomposition.certificate_ranks):
            assert residual == subharmonic_residual(model, p)
            assert rank == support_projection(state.matrix, DEFAULT_TOL).rank
        overlaps = [opnorm(p.range_basis.conj().T @ q.range_basis)
                    for i, p in enumerate(projections) for q in projections[i + 1:]]
        assert decomposition.max_overlap == max(overlaps, default=0.0)

    def test_support_shared_by_the_dynamics(self, name, model, horizon):
        dyn = Dynamics(model)
        report = recurrent_projection(dyn, horizon=horizon)
        assert dyn.support is report.stationary_support


def test_fixtures_build_a_support_projection_only_where_one_is_read(monkeypatch):
    # two per analysis, the stationary support and the recurrent supremum;
    # the certificates' ranks and the limit-support check count the cut's
    # eigenvalues and build none
    modules = (qdsa.linalg, qdsa.channels, qdsa.harmonic, qdsa.asymptotics, qdsa.analyze)
    calls = [_counting(monkeypatch, module, "support_projection")
             for module in modules if hasattr(module, "support_projection")]
    for name in fixture_names():
        run_analyze(model_spec_from_fixture(name), AnalysisOptions(seed=GOLDEN_SEED))
    assert sum(map(len, calls)) == 14
