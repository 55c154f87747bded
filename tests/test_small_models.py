"""Small-model fast paths: one-call ``opnorm``, broadcast ``_kron``, the
slice-wise superoperator assembly and real frame pass, and each stationary
support and enclosure residual computed once per analysis.

Every fast path must give the same bits as the code it replaces; the
references below are the replaced expressions themselves.
"""

import numpy as np
import pytest

import qdsa.analyze
import qdsa.asymptotics
import qdsa.harmonic
from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.asymptotics import Dynamics, minimal_enclosures, recurrent_projection
from qdsa.channels import (
    HEISENBERG,
    SCHRODINGER,
    LindbladGenerator,
    QuantumChannel,
    _block_frame,
    _frame,
    _kron,
    real_form,
    to_superoperator,
)
from qdsa.harmonic import subharmonic_residual
from qdsa.linalg import DEFAULT_TOL, opnorm, support_projection
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
    """Every ``(a, b)`` pair the superoperator builder takes a Kronecker
    product of (the Schrodinger terms)."""
    if isinstance(model, QuantumChannel):
        return [(v.conj(), v) for v in model.kraus_ops]
    eye = np.eye(model.dim)
    h = model.hamiltonian
    pairs = [(eye, h), (h.T, eye)]
    for l in model.lindblad_ops:
        k = l.conj().T @ l
        pairs += [(l.conj(), l), (eye, k), (k.T, eye)]
    return pairs


def _reference_superop(model, picture):
    """The builders as they were written with ``np.kron``."""
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
    """A generator whose ``H`` is Hermitian only to ``atol``: ``H^T`` and
    ``conj(H)`` differ, and the identity-factor terms must use ``H^T``."""
    rng = np.random.default_rng(3)
    h = random_hermitian(3, rng) + 1e-10 * (rng.standard_normal((3, 3))
                                            + 1j * rng.standard_normal((3, 3)))
    jumps = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))]
    return LindbladGenerator(h, jumps)


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
        _assert_same_bits(schrodinger, _reference_real_form(_reference_superop(model, SCHRODINGER)))
        assert np.array_equal(to_superoperator(model, HEISENBERG).real, schrodinger.T)


class TestAssemblyBits:
    """The slice-wise assembly and the real frame pass against the dense
    complex sum and the complex gathers they replace."""

    @pytest.mark.parametrize("model", _ladder_rungs() + [
        pytest.param(QuantumChannel([np.array([[np.exp(0.7j)]])]), id="channel-d1"),
        pytest.param(LindbladGenerator(random_hermitian(3, np.random.default_rng(5))),
                     id="generator-no-jumps"),
        pytest.param(_almost_hermitian_generator(), id="generator-almost-hermitian"),
    ])
    def test_superoperator_unchanged(self, model):
        _assert_same_bits(to_superoperator(model, SCHRODINGER).real,
                          _reference_real_form(_reference_superop(model, SCHRODINGER)))

    @pytest.mark.parametrize("d,m", [(2, 1), (3, 2), (5, 3), (8, 5), (24, 7)])
    def test_block_frame_of_a_rectangular_isometry(self, d, m):
        rng = np.random.default_rng(d * m)
        w, _ = np.linalg.qr(rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m)))
        _assert_same_bits(_block_frame(w), _reference_real_form(np.kron(w.conj(), w)))

    def test_real_form_leaves_its_argument(self):
        s = _reference_superop(MODELS[0][1], SCHRODINGER)
        before = s.copy()
        _assert_same_bits(real_form(s), _reference_real_form(before))
        assert s.tobytes() == before.tobytes()
        _assert_same_bits(real_form(np.asfortranarray(s)), _reference_real_form(before))


@pytest.mark.parametrize("name,model,horizon", MODELS, ids=IDS)
class TestComputedOnce:
    def test_one_support_and_one_residual_per_enclosure(self, monkeypatch, name, model,
                                                        horizon):
        calls = {}
        for module in (qdsa.harmonic, qdsa.asymptotics, qdsa.analyze):
            if hasattr(module, "subharmonic_residual"):
                calls[module] = _counting(monkeypatch, module, "subharmonic_residual")
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
        overlaps = [opnorm(p.matrix @ q.matrix)
                    for i, p in enumerate(projections) for q in projections[i + 1:]]
        assert decomposition.max_overlap == max(overlaps, default=0.0)

    def test_support_shared_by_the_dynamics(self, name, model, horizon):
        dyn = Dynamics(model)
        report = recurrent_projection(dyn, horizon=horizon)
        assert dyn.support(DEFAULT_TOL) is report.stationary_support
