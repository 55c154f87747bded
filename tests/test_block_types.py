"""The block type of the recurrent fixed algebra, ``sum_k M_{n_k} (x) 1_{m_k}``.

``minimal_enclosures`` reads each class's types ``(n_k, m_k)`` off the draw
that splits it (``asymptotics._block_types``), ``is_unique`` is "every
``n_k = 1``", and ``run_analyze``'s ``enclosures-minimal`` check is the law
``sum_k n_k^2 = fixed_algebra_dim``, which fails when the coupling and the
split disagree.  The commutator sweep that once decided ``is_unique`` is
kept here as the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdsa.asymptotics
from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.asymptotics import (
    Dynamics,
    _corner,
    _fixed_basis,
    minimal_enclosures,
    minimality_certificate,
    recurrent_projection,
)
from qdsa.channels import QuantumChannel
from qdsa.cli import main
from qdsa.errors import ValidationError
from qdsa.linalg import _norm_exceeds
from qdsa.modelio import model_spec_from_fixture
from qdsa.models import build_fixture, fixture_names
from qdsa.sampling import block_diagonal_channel, haar_random_channel, transient_block_generator
from test_cli import emit_fixture
from test_dynamics import GOLDEN_SEED, _counting
from test_kernel_split import _rung
from test_recurrent_reduction import _doubled, _doubled_channel

FIXTURE_TYPES = {
    "AD": ((1, 1),), "ADK": ((1, 1),), "TH": ((1, 2),), "M3": ((1, 1), (1, 1)),
    "DFS3": ((2, 1),), "ID2": ((2, 1),), "ID3": ((3, 1),),
}
ANALYZE_LADDER = [(kind, d, seed) for seed in (1, 2, 3) for kind, d in (
    ("generator", 4), ("generator", 8), ("generator", 12), ("channel", 8), ("channel", 16))]
STRUCTURE_LADDER = [(kind, d, seed) for seed in (1, 2, 3) for kind, d in (
    ("generator", 24), ("generator", 32), ("channel", 24), ("channel", 32))]
LADDERS = ANALYZE_LADDER + STRUCTURE_LADDER


def _tripled_haar() -> QuantumChannel:
    """``1_3 (x) haar_random_channel(4, 2)``: one class, fixed algebra ``M_3 (x) 1_4``."""
    model = haar_random_channel(4, 2, np.random.default_rng(1))
    return QuantumChannel([np.kron(np.eye(3), v) for v in model.kraus_ops])


# models beyond the fixtures with a non-abelian fixed algebra, and their types
NON_ABELIAN = {
    "doubled-generator-d12": (lambda: _doubled(_rung("generator", 12, 1)[0]), ((2, 6),)),
    "doubled-generator-d4": (lambda: _doubled(_rung("generator", 4, 1)[0]), ((2, 2),)),
    "doubled-channel-d8": (lambda: _doubled_channel(8), ((2, 4), (2, 4))),
    "tripled-haar-d4": (_tripled_haar, ((3, 4),)),
}


def _is_abelian(hermitian_basis, tol) -> bool:
    for i, a in enumerate(hermitian_basis):
        for b in hermitian_basis[i + 1:]:
            if _norm_exceeds(a @ b - b @ a, 10 * tol.atol):
                return False
    return True


def _commutative(model) -> bool:
    """Whether every class's fixed algebra commutes, by commutators over its
    fixed basis, with the classes taken as ``minimal_enclosures`` takes them."""
    dyn = Dynamics(model)
    classes = dyn.reduction[0]
    if dyn.support.rank < sum(w.shape[1] for w in classes):
        classes = (dyn.support.range_basis,)
    return all(_is_abelian(_fixed_basis(_corner(dyn, w)), dyn.tol) for w in classes)


def _assert_the_laws(model):
    decomposition = minimal_enclosures(model, seed=GOLDEN_SEED)
    types = decomposition.block_types
    assert decomposition.is_unique == _commutative(model)
    assert sum(n * n for n, _ in types) == decomposition.fixed_algebra_dim
    assert (sum(n * m for n, m in types)
            == sum(p.rank for p in decomposition.minimal_projections))
    return types


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_block_types(name):
    decomposition = minimal_enclosures(build_fixture(name), seed=GOLDEN_SEED)
    assert decomposition.block_types == FIXTURE_TYPES[name]
    assert decomposition.is_unique == all(n == 1 for n, _ in FIXTURE_TYPES[name])
    assert _assert_the_laws(build_fixture(name)) == FIXTURE_TYPES[name]


@pytest.mark.parametrize("kind,d,seed", LADDERS, ids=[f"{k}-d{d}-s{s}" for k, d, s in LADDERS])
def test_ladder_rungs_agree_with_the_commutators(kind, d, seed):
    _assert_the_laws(_rung(kind, d, seed)[0])


@pytest.mark.parametrize("name", NON_ABELIAN)
def test_non_abelian_models_agree_with_the_commutators(name):
    build, types = NON_ABELIAN[name]
    assert _assert_the_laws(build()) == types


@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(st.integers(16, 24).flatmap(lambda n: st.tuples(st.integers(1, n - 1), st.just(n))),
       st.integers(0, 2 ** 16))
def test_reduced_generators_agree_with_the_commutators(sizes, seed):
    k, n = sizes
    _assert_the_laws(transient_block_generator(k, n - k, np.random.default_rng(seed))[0])


@settings(derandomize=True, database=None, deadline=None, max_examples=24)
@given(st.lists(st.integers(1, 8), min_size=2, max_size=6).filter(lambda b: 16 <= sum(b) <= 24),
       st.integers(1, 3), st.integers(0, 2 ** 16))
def test_block_channels_agree_with_the_commutators(blocks, kraus, seed):
    _assert_the_laws(block_diagonal_channel(blocks, kraus, np.random.default_rng(seed))[0])


def test_uncoupled_parts_fail_the_minimality_law(monkeypatch, tmp_path, capsys):
    # with the coupling forced to none, ID3's three rank-one parts read as
    # M_1 + M_1 + M_1 against its M_3: a defect of 9 - 3
    monkeypatch.setattr(qdsa.asymptotics, "_block_types",
                        lambda fixed, v_eig, groups, tol: [(1, len(g)) for g in groups])
    report = run_analyze(model_spec_from_fixture("ID3"), AnalysisOptions(seed=GOLDEN_SEED))
    check = next(c for c in report.checks if c.name == "enclosures-minimal")
    assert report.is_unique
    assert check.residual == 6.0 and not check.passed
    assert main(["analyze", "--model", str(emit_fixture(tmp_path, "ID3"))]) == 2
    capsys.readouterr()


def test_coupling_runs_only_on_a_non_abelian_class(monkeypatch):
    # a class split into as many parts as its algebra has dimensions has
    # every n_k = 1, with nothing to compute: M3 and every ladder rung
    calls = _counting(monkeypatch, qdsa.asymptotics, "_block_types")
    for model in [build_fixture("M3"), *(_rung(k, d, s)[0] for k, d, s in LADDERS)]:
        minimal_enclosures(model, seed=GOLDEN_SEED)
    assert calls == []
    for name in ("DFS3", "ID2", "ID3"):
        minimal_enclosures(build_fixture(name), seed=GOLDEN_SEED)
    assert len(calls) == 3


@pytest.mark.parametrize("seed", [-1, 1.5, True], ids=["negative", "float", "bool"])
@pytest.mark.parametrize("name", ["AD", "ID2"])
def test_bad_seed_is_a_validation_error(name, seed):
    # AD draws nothing and ID2 draws: both refuse the seed up front
    model = build_fixture(name)
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        minimal_enclosures(model, seed=seed)
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        recurrent_projection(model, seed=seed)
    report = recurrent_projection(model)
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        minimality_certificate(model, report.recurrent, report.enclosures, trials=1, seed=seed)


def test_numpy_integer_seed_draws_as_the_int():
    model = build_fixture("ID3")
    want = minimal_enclosures(model, seed=5).minimal_projections
    got = minimal_enclosures(model, seed=np.int64(5)).minimal_projections
    assert all(np.array_equal(p.matrix, q.matrix) for p, q in zip(got, want))
