"""Small-model fast paths: one-call ``opnorm``, broadcast ``_kron``, and each
stationary support and enclosure residual computed once per analysis.

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
    QuantumChannel,
    _channel_superop_matrix,
    _generator_superop_matrix,
    _kron,
    real_form,
    to_superoperator,
)
from qdsa.harmonic import subharmonic_residual
from qdsa.linalg import DEFAULT_TOL, opnorm, support_projection
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
    """Every ``(a, b)`` pair the superoperator builders take a Kronecker
    product of, in both pictures."""
    if isinstance(model, QuantumChannel):
        pairs = []
        for v in model.kraus_ops:
            pairs += [(v.T, v.conj().T), (v.conj(), v)]
        return pairs
    eye = np.eye(model.dim)
    h = model.hamiltonian
    pairs = [(eye, h), (h.T, eye)]
    for l in model.lindblad_ops:
        k = l.conj().T @ l
        pairs += [(l.T, l.conj().T), (l.conj(), l), (eye, k), (k.T, eye)]
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
        build = (_channel_superop_matrix if isinstance(model, QuantumChannel)
                 else _generator_superop_matrix)
        for picture in (HEISENBERG, SCHRODINGER):
            assert np.array_equal(build(model, picture), _reference_superop(model, picture))


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
        # one residual for a guessed block below 1 (certificate (a)), one per
        # enclosure, then one for the recurrent projection before its
        # transient corner is used (none when it is the identity, or the
        # certified guess whose residual is reused)
        tested = [args[1] for c in calls.values() for args in c]
        guess = Dynamics(model).guess(DEFAULT_TOL)
        expected = [guess.projection] if guess.outcome not in ("none", "whole") else []
        expected += minimal_enclosures(model, seed=GOLDEN_SEED).minimal_projections
        if report.recurrent.rank < model.dim and guess.outcome != "certified":
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
