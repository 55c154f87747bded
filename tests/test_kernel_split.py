"""The one route to the fixed-point kernels.

``Dynamics.split`` splits the fixed-point matrix ``F`` of a model by one
SVD below ``_LU_MIN_SIZE`` unknowns (``_split_kernel_range``) and, from
there on, by one LU of ``s - F`` through which a random block is pushed
(``_resolvent_split``); that route falls back to the SVD whenever it cannot
vouch for its kernels.  Every pipeline function reads the stationary space,
its support and the fixed algebra off this one split, whichever way it was
found.
"""

import gc
import json
import sys
import weakref

import numpy as np
import pytest
import scipy.linalg.lapack

import qdsa.asymptotics
import qdsa.linalg
from conftest import ket_bra
from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.asymptotics import (
    Dynamics,
    _fixed_point_form,
    _fixed_point_product,
    recurrent_projection,
)
from qdsa.channels import HEISENBERG, SCHRODINGER, LindbladGenerator, QuantumChannel
from qdsa.linalg import Projection, opnorm, projections_equal
from qdsa.models import build_fixture, fixture_names, identity_model
from qdsa.sampling import (
    block_diagonal_channel,
    haar_random_channel,
    random_generator,
    transient_block_generator,
)
from test_dynamics import GOLDEN_SEED, _compare, _counting

STRUCTURE_RUNGS = [(kind, d, seed) for seed in (1, 2) for kind in ("generator", "channel")
                   for d in (24, 32)]


def _rung(kind: str, d: int, seed: int):
    """A seeded rung of the benchmark ladders and its constructed recurrent
    block (None for a channel, whose block is the identity)."""
    rng = np.random.default_rng(seed)
    if kind == "generator":
        return transient_block_generator(d // 2, d - d // 2, rng)
    return block_diagonal_channel([4] * (d // 4), 2, rng)[0], None


def _stiff_gap(d: int) -> LindbladGenerator:
    """Levels spread over 1e4 decaying to ``|0>`` at rate 1e-3: the decay
    rates sit in the indecisive band above the cutoff ``1e-8 |F|_1``."""
    return LindbladGenerator(np.diag(np.linspace(0.0, 1e4, d)).astype(complex),
                             [np.sqrt(1e-3) * ket_bra(d, 0, j) for j in range(1, d)])


def _by_svd(monkeypatch):
    """Force every split to the SVD."""
    monkeypatch.setattr(qdsa.asymptotics, "_LU_MIN_SIZE", sys.maxsize)


def _without_reduction(monkeypatch):
    """Switch the reduction off: every guess declines."""
    monkeypatch.setattr(qdsa.asymptotics, "_recurrent_guess", lambda terms, tol: None)


def _svd_shapes(monkeypatch) -> list:
    """Shapes of the SVDs that are not norms, in call order: every SVD run
    while ``linalg._spectral_norms`` (which ``opnorm`` calls) is on the
    stack is a norm, whichever helper runs it."""
    shapes, in_norms = [], []
    original_svd, original_norms = np.linalg.svd, qdsa.linalg._spectral_norms

    def recording(a, *args, **kwargs):
        if not in_norms:
            shapes.append(np.shape(a))
        return original_svd(a, *args, **kwargs)

    def norms(m):
        in_norms.append(m)
        try:
            return original_norms(m)
        finally:
            in_norms.pop()

    monkeypatch.setattr(np.linalg, "svd", recording)
    for module in [m for name, m in sys.modules.items() if name.startswith("qdsa")]:
        if getattr(module, "_spectral_norms", None) is original_norms:
            monkeypatch.setattr(module, "_spectral_norms", norms)
    return shapes


def _lu_shapes(monkeypatch) -> list:
    shapes = []
    original = scipy.linalg.lapack.dgetrf
    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf",
                        lambda a, **kwargs: shapes.append(a.shape) or original(a, **kwargs))
    return shapes


def _same_report(got, want, name: str):
    diffs = []
    _compare(json.loads(got.to_json()), json.loads(want.to_json()), name, diffs)
    assert not diffs, diffs


def _projector_distance(a: np.ndarray, b: np.ndarray) -> float:
    return opnorm(a @ a.T - b @ b.T)


@pytest.mark.parametrize("kind,d,seed", STRUCTURE_RUNGS,
                         ids=[f"{k}-d{d}-s{s}" for k, d, s in STRUCTURE_RUNGS])
def test_lu_kernels_match_the_svd(monkeypatch, kind, d, seed):
    model = _rung(kind, d, seed)[0]
    kernel, left = Dynamics(model).split
    _by_svd(monkeypatch)
    want_kernel, want_left = Dynamics(model).split
    assert kernel.shape == want_kernel.shape and left.shape == want_left.shape
    assert _projector_distance(kernel, want_kernel) <= 1e-10
    assert _projector_distance(left, want_left) <= 1e-10


@pytest.mark.parametrize("kind,d", [("generator", 24), ("channel", 24), ("channel", 8)])
def test_split_leaves_the_real_form(kind, d):
    # each route factors an F it forms itself: a cached R keeps its bytes
    dyn = Dynamics(_rung(kind, d, 1)[0])
    before = dyn.schrodinger.tobytes()
    dyn.split
    assert dyn.schrodinger.tobytes() == before
    recurrent_projection(dyn)
    assert dyn.schrodinger.tobytes() == before


@pytest.mark.parametrize("kind,d", [("generator", 24), ("channel", 24), ("channel", 32)])
def test_fixed_point_norm_has_the_bits_of_the_dense_norm(monkeypatch, kind, d):
    # |F|_1 sets the LU route's shift and cutoff; read off the route's copy
    # -F, it keeps the bits of the norm of the whole F, so the factored
    # matrix's diagonal is -diag(F) + _SHIFT |F|_1 to the bit
    dyn = Dynamics(_rung(kind, d, 1)[0])
    f = _fixed_point_form(dyn)
    norms, factored = [], []
    dlange, dgetrf = scipy.linalg.lapack.dlange, scipy.linalg.lapack.dgetrf
    monkeypatch.setattr(scipy.linalg.lapack, "dlange",
                        lambda *args: norms.append(dlange(*args)) or norms[-1])
    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf",
                        lambda a, **kwargs: factored.append(a.T.copy()) or dgetrf(a, **kwargs))
    dyn.split
    dense = float(np.abs(f).sum(axis=0).max())
    assert norms == [dense] and len(factored) == 1
    shift = qdsa.asymptotics._SHIFT * dense
    assert np.diag(factored[0]).tobytes() == (-np.diag(f) + shift).tobytes()


def test_lu_route_forms_no_fixed_point_matrix(monkeypatch):
    # a channel's LU route takes |F|_1 and s - F from the one F it forms and
    # every product with F from the terms: its one d^2 x d^2 array is the
    # LU's, and no real form is cached
    dyn = Dynamics(_rung("channel", 24, 1)[0])
    formed = _counting(monkeypatch, qdsa.asymptotics, "_fixed_point_form")
    svds = _svd_shapes(monkeypatch)
    lus = _lu_shapes(monkeypatch)
    dyn.split
    assert lus == [(576, 576)] and svds == []
    assert len(formed) == 1
    assert "schrodinger" not in vars(dyn)


PRODUCT_MODELS = fixture_names() + [f"{kind}-d{d}" for kind in ("generator", "channel")
                                    for d in (24, 32)]


@pytest.mark.parametrize("columns", [1, 16])
@pytest.mark.parametrize("name", PRODUCT_MODELS)
def test_product_from_the_terms_is_the_real_form_product(name, columns):
    # the LU route takes F q and F^T q from the terms, not from R: each
    # entry within 2 eps |R|_1 max|q| of the dense product
    kind, _, d = name.partition("-d")
    dyn = Dynamics(_rung(kind, int(d), 1)[0] if d else build_fixture(name))
    r = dyn.schrodinger
    q = np.random.default_rng(columns).standard_normal((r.shape[0], columns))
    unit = 2 * np.finfo(float).eps * float(np.abs(r).sum(axis=0).max()) * np.abs(q).max()
    for picture, m in ((SCHRODINGER, r), (HEISENBERG, r.T)):
        want = m @ q - dyn.discrete * q
        got = _fixed_point_product(dyn, None, picture)(q)
        assert got.shape == q.shape
        assert np.abs(got - want).max() <= unit
        assert _fixed_point_product(dyn, r, picture)(q).tobytes() == want.tobytes()


# (model, whether the LU route takes its products with F from the terms):
# _act costs about 8 d^3 flops per complex d x d product, two a term and two
# more for a generator's G, against 2 d^4 a column of R, so the terms win
# while 8 (K + [generator]) <= d
ROUTES = {
    "channel-d24": True, "generator-d24": True, "channel-d32": True,
    "haar-d16-k2": True, "haar-d16-k4": False, "haar-d24-k8": False,
    "random-generator-d16-k2": False, "random-generator-d32-k3": True,
}


def _route_model(name: str):
    kind, _, rest = name.rpartition("-d")
    if "-k" not in rest:
        return _rung(kind, int(rest), 1)[0]
    d, k = (int(x) for x in rest.split("-k"))
    rng = np.random.default_rng(1)
    return haar_random_channel(d, k, rng) if kind == "haar" else random_generator(d, k, rng)


@pytest.mark.parametrize("name", ROUTES)
def test_lu_route_takes_its_products_where_they_cost_less(monkeypatch, name):
    # a model with many terms assembles a real form of the split's own for
    # the products and factors a copy of it; one with few factors its own
    # form and takes the products from the terms.  Either way one LU runs,
    # no real form is cached and the kernels are the SVD's
    model = _route_model(name)
    dyn = Dynamics(model)
    acts = _counting(monkeypatch, qdsa.asymptotics, "_act")
    lus = _lu_shapes(monkeypatch)
    kernel, left = dyn.split
    n = dyn.dim ** 2
    assert lus == [(n, n)]
    assert bool(acts) == ROUTES[name]
    assert "schrodinger" not in vars(dyn)
    _by_svd(monkeypatch)
    want_kernel, want_left = Dynamics(model).split
    assert kernel.shape == want_kernel.shape and left.shape == want_left.shape
    assert _projector_distance(kernel, want_kernel) <= 1e-10
    assert _projector_distance(left, want_left) <= 1e-10


def test_kernel_wider_than_the_block_falls_back_to_the_svd(monkeypatch):
    # ten invariant blocks: the kernel leaves fewer than _OVERSAMPLE of the
    # block's columns spare, so the route declines and the SVD runs
    channel, _ = block_diagonal_channel([2] * 10, 2, np.random.default_rng(3))
    dyn = Dynamics(channel)
    assert 10 + qdsa.asymptotics._OVERSAMPLE > 2 * qdsa.asymptotics._OVERSAMPLE
    assert qdsa.asymptotics._resolvent_split(dyn) is None
    svds = _svd_shapes(monkeypatch)
    kernel, left = dyn.split
    assert svds == [(400, 400)]
    assert kernel.shape == left.shape == (400, 10)


def test_inaccurate_kernel_falls_back_to_the_svd(monkeypatch):
    # three solves leave the kernels about 2.5e-12 from the SVD's, which
    # the enclosure refinement of this rung amplifies past atol; the error
    # estimate declines them, so one SVD runs and the analysis succeeds.
    # The rung splits whole only when not reduced to its blocks
    model = _rung("channel", 32, 1)[0]
    _without_reduction(monkeypatch)
    monkeypatch.setattr(qdsa.asymptotics, "_SOLVES", 3)
    svds = _svd_shapes(monkeypatch)
    lus = _lu_shapes(monkeypatch)
    report = recurrent_projection(model)
    assert lus.count((1024, 1024)) == 1
    assert svds.count((1024, 1024)) == 1
    assert report.recurrent.rank == 32


@pytest.mark.parametrize("kind,d", [("generator", 24), ("generator", 32),
                                    ("channel", 24), ("channel", 32)])
def test_structure_rung_runs_one_lu_and_no_full_svd(monkeypatch, kind, d):
    # a generator rung is reduced to its certified recurrent corner of size
    # k = d/2: one LU of the transient corner's Lyapunov solve, then the
    # recurrent corner's split, an LU from _LU_MIN_SIZE unknowns on and an
    # SVD below.  A channel rung is faithful and reduced to its d/4 blocks
    # of size 4: one stacked SVD of the maps between pairs of blocks, then
    # each block's split, an SVD of its 16 unknowns, and no LU
    model, block = _rung(kind, d, 1)
    svds = _svd_shapes(monkeypatch)
    lus = _lu_shapes(monkeypatch)
    report = recurrent_projection(model)
    n = d * d
    assert (n, n) not in svds
    if block is None:
        blocks = d // 4
        assert lus == []
        assert svds == [(blocks * (blocks - 1) // 2, 16, 16)] + [(16, 16)] * blocks
        assert report.recurrent.rank == d
        assert [p.rank for p in report.enclosures.minimal_projections] == [4] * blocks
    else:
        half = (d // 2) ** 2
        lu_split = half >= qdsa.asymptotics._LU_MIN_SIZE
        assert lus == [(half, half)] * (1 + lu_split)
        assert svds == [(half, half)] * (not lu_split)
        assert report.recurrent.rank == block.rank
        assert projections_equal(report.recurrent, block)


def test_below_the_crossover_the_svd_runs(monkeypatch):
    # generator-d7 is below the reduction's gate too, so it splits whole
    model, block = _rung("generator", 7, 1)
    svds = _svd_shapes(monkeypatch)
    lus = _lu_shapes(monkeypatch)
    report = recurrent_projection(model)
    assert 7 * 7 < qdsa.asymptotics._REDUCE_MIN_SIZE < qdsa.asymptotics._LU_MIN_SIZE
    assert svds.count((49, 49)) == 1
    assert max(max(s) for s in svds) == 49
    assert lus == []
    assert projections_equal(report.recurrent, block)


def _stiff_hamiltonian(d: int):
    """A generator rung with its Hamiltonian scaled by 1e4: rounding in
    ``|F|_1 ~ 1e4`` leaves the route's kernel error estimate above its
    bound."""
    model, block = _rung("generator", d, 1)
    return LindbladGenerator(1e4 * model.hamiltonian, model.lindblad_ops), block


@pytest.mark.parametrize("name", ["stiff-gap-d16", "stiff-hamiltonian-d16"])
def test_stiff_model_falls_back_to_the_svd(monkeypatch, name):
    if name == "stiff-gap-d16":
        model, block = _stiff_gap(16), Projection.from_range_basis(np.eye(16)[:, :1])
    else:
        model, block = _stiff_hamiltonian(16)
    options = AnalysisOptions(seed=GOLDEN_SEED)
    svds = _svd_shapes(monkeypatch)
    lus = _lu_shapes(monkeypatch)
    # the whole split: the LU route declines, then the SVD runs
    Dynamics(model).split
    assert lus == [(256, 256)]
    assert svds.count((256, 256)) == 1
    # the analysis is reduced to its certified corner and splits neither
    # at that size, and its report is the SVD route's
    del lus[:], svds[:]
    assert Dynamics(model).reduction[1] is not None
    report = run_analyze(model, options)
    assert (256, 256) not in lus + svds
    assert projections_equal(report.recurrent, block)
    _by_svd(monkeypatch)
    _same_report(report, run_analyze(model, options), name)


def test_stiff_gap_qubit_finds_its_ground_state():
    model = LindbladGenerator(np.diag([0.0, 1e4]).astype(complex),
                              [np.sqrt(1e-3) * ket_bra(2, 0, 1)])
    dyn = Dynamics(model)
    report = recurrent_projection(dyn)
    assert projections_equal(report.recurrent, Projection.from_range_basis(np.eye(2)[:, :1]))
    assert dyn.space.dim == 1


@pytest.mark.parametrize("model", [identity_model(16), identity_model(1),
                                   QuantumChannel([np.eye(1)]),
                                   build_fixture("ID2"), build_fixture("ID3")],
                         ids=["generator-d16", "generator-d1", "channel-d1", "ID2", "ID3"])
def test_zero_fixed_point_matrix_runs_no_lu(monkeypatch, model):
    lus = _lu_shapes(monkeypatch)
    space = Dynamics(model).space
    report = run_analyze(model, AnalysisOptions(seed=GOLDEN_SEED))
    assert lus == []
    assert space.dim == model.dim ** 2
    assert report.passed
    assert report.recurrent.rank == model.dim


@pytest.mark.parametrize("kind,d", [("generator", 24), ("generator", 32),
                                    ("channel", 24), ("channel", 32)])
def test_svd_split_gives_the_same_report(monkeypatch, kind, d):
    model = _rung(kind, d, 1)[0]
    options = AnalysisOptions(seed=GOLDEN_SEED)
    default = run_analyze(model, options)
    _by_svd(monkeypatch)
    _same_report(run_analyze(model, options), default, f"{kind}-d{d}")


def test_dynamics_holds_no_reference_to_itself():
    # a cycle would keep every d^2 x d^2 array of the analysis alive until
    # the cycle collector happens to run
    enabled = gc.isenabled()
    gc.disable()
    try:
        for model in (build_fixture("TH"), _rung("generator", 8, 1)[0],
                      _rung("generator", 24, 1)[0]):
            dyn = Dynamics(model)
            recurrent_projection(dyn)
            ref = weakref.ref(dyn)
            del dyn
            assert ref() is None
    finally:
        if enabled:
            gc.enable()
