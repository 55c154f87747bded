"""One-level models and corners in closed form.

A ``Dynamics`` of dimension one is the scalar semigroup it is: its
fixed-point matrix ``F`` (``R``, or ``R - 1`` for a channel) is one number
``f``.  ``_real_schrodinger`` returns ``Re S`` of that number, summed as
the chunked assembly sums it (the frame of ``M_1`` is the identity),
``Dynamics.split`` cuts ``|f|``, the one
singular value, at ``tol.cutoff`` and ``Dynamics.limit`` is the one state
``[[1]]``.  ``Dynamics.transient`` multiplies by the 1 x 1 propagator of a
one-level corner, and ``matrix_exp`` takes ``np.exp`` of a 1 x 1 matrix.
These tests hold the closed form to the general route it replaces: the
same kernel dimension, the same state bits, the same error text on a leaky
corner, the same real form, zero signs included, the same transient
action and the same exponential as scipy's.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg

import qdsa.asymptotics
import qdsa.channels
from qdsa.analyze import AnalysisOptions, AnalysisReport, run_analyze
from qdsa.asymptotics import (
    Dynamics,
    _as_state,
    _corner,
    _fixed_point_form,
    _kernel_component,
    _split_kernel_range,
    recurrent_projection,
)
from qdsa.channels import (
    LindbladGenerator,
    QuantumChannel,
    _frame_chunks,
    _real_schrodinger,
    _schrodinger_rows,
    _terms,
    from_hermitian_coords,
    hermitian_coords,
)
from qdsa.errors import InternalError
from qdsa.linalg import _THETA_9, DEFAULT_TOL, matrix_exp
from qdsa.models import build_fixture, fixture_names
from qdsa.sampling import haar_random_channel, random_generator, transient_block_generator
from qdsa.verify import format_summary, run_verify
from test_dynamics import GOLDEN_SEED

# F is -1.1e-16 for the phase channel, 0 for the others
ONE_LEVEL = {
    "phase-channel": QuantumChannel([[[np.exp(0.3j)]]]),
    "kraus-pair": QuantumChannel([[[0.6]], [[0.8j]]]),
    "generator": LindbladGenerator([[3.0]], [[[1.5j]]]),
    "hamiltonian-only": LindbladGenerator([[3.0]], []),
}


def _one_level_corners(monkeypatch, model):
    """The one-level corners one ``run_analyze`` of ``model`` builds."""
    corners = []
    original = qdsa.asymptotics._corner

    def recorded(dyn, w):
        corner = original(dyn, w)
        if corner.dim == 1 and all(corner is not c for c in corners):
            corners.append(corner)
        return corner

    monkeypatch.setattr(qdsa.asymptotics, "_corner", recorded)
    run_analyze(model, AnalysisOptions(seed=GOLDEN_SEED))
    return corners


def _assert_is_the_svd_route(dyn: Dynamics):
    """The closed form of the one-level ``dyn`` gives what the SVD route
    gives: the same error text when ``F`` has no kernel, else kernels of
    one column and the bits of the state the SVD's oblique projection and
    eigenvalue clip make."""
    try:
        kernel, left = _split_kernel_range(_fixed_point_form(dyn), dyn.tol)
    except InternalError as exc:
        with pytest.raises(InternalError) as closed:
            dyn.limit
        assert str(closed.value) == str(exc)
        return
    limit = _kernel_component(kernel, left, hermitian_coords(np.eye(1)))
    state = _as_state(from_hermitian_coords(limit, 1), dyn.tol)
    assert dyn.split[0].shape == dyn.split[1].shape == kernel.shape == left.shape == (1, 1)
    assert dyn.limit[0] == 1
    assert dyn.limit[1].matrix.tobytes() == state.matrix.tobytes()


def _random_terms(rng, discrete: bool):
    """One-level terms with signed zeros, exact cancellations and tiny
    entries among their parts."""
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, -1e-300, 3.0])

    def entry():
        if rng.random() < 0.5:
            return complex(rng.choice(pool), rng.choice(pool))
        return complex(*rng.standard_normal(2))

    ops = tuple(np.array([[entry()]]) for _ in range(int(rng.integers(0, 4))))
    return (None if discrete else np.array([[entry()]])), ops


def _assert_chunked_bits(g, ops):
    """The one-level real form of ``(g, ops)`` has the bits of the chunked
    assembly, in an owned C-contiguous float64 array."""
    r = _real_schrodinger(g, ops, 1)
    want = _frame_chunks(lambda a, b: _schrodinger_rows(g, ops, 1, a, b), 1, 1)
    assert r.tobytes() == want.tobytes()
    assert r.flags.owndata and r.flags.c_contiguous and r.dtype == np.float64


@pytest.mark.parametrize("name", ONE_LEVEL)
def test_one_level_model_analyzes(name):
    model = ONE_LEVEL[name]
    report = run_analyze(model, AnalysisOptions(seed=GOLDEN_SEED))
    assert report.passed
    assert report.stationary_dim == 1
    assert tuple(report.enclosure_ranks) == (1,)
    text = report.to_json()
    assert AnalysisReport.from_json_dict(json.loads(text)).to_json() == text
    _assert_is_the_svd_route(Dynamics(model))


@pytest.mark.parametrize("seed", [1, 3])
def test_verify_runs_at_dimension_one(seed):
    summary = run_verify(seed, 4, dims=(1,))
    assert summary.passed
    text = format_summary(summary)
    ran = [r for r in summary.results if r.trials]
    assert ran and len(ran) < len(summary.results)
    assert text.endswith(f"({len(ran)}/{len(ran)} properties, "
                         f"{len(summary.results) - len(ran)} skipped)")


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_one_level_corners_match_the_svd_route(monkeypatch, name):
    corners = _one_level_corners(monkeypatch, build_fixture(name))
    if name == "TH":
        assert corners == []
    else:
        assert corners
    # each on a Dynamics of its own terms, with nothing cached; a transient
    # corner, which the analysis only flows, has no kernel
    for corner in corners:
        _assert_is_the_svd_route(Dynamics.__new__(Dynamics)._hold(corner.terms, 1, corner.tol))


@pytest.mark.parametrize("name", ["AD", "ADK"])
def test_leaky_one_level_corner_raises_the_svd_error(name):
    # |1><1| decays into |0><0|: its corner has no stationary state
    dyn = Dynamics(build_fixture(name))
    corner = _corner(dyn, np.eye(dyn.dim, dtype=complex)[:, 1:2])
    with pytest.raises(InternalError, match="numerical fixed-point kernel is empty"):
        corner.limit
    _assert_is_the_svd_route(corner)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("scale", [0.5, 1.0, 1.5, 3.0, 20.0])
def test_cut_at_the_atol_floor(scale, sign):
    # G = f/2 and no jumps make F = f, a kernel up to atol and none above
    f = sign * scale * DEFAULT_TOL.atol
    dyn = Dynamics.__new__(Dynamics)._hold((np.array([[f / 2]]), ()), 1, DEFAULT_TOL)
    _assert_is_the_svd_route(dyn)
    if scale <= 1:
        assert dyn.limit[0] == 1
    else:
        with pytest.raises(InternalError, match="kernel is empty"):
            dyn.split


@pytest.mark.parametrize("discrete", [True, False], ids=["channel", "generator"])
def test_closed_form_matches_the_general_route_on_random_terms(discrete):
    rng = np.random.default_rng(0)
    for _ in range(2000):
        g, ops = _random_terms(rng, discrete)
        _assert_chunked_bits(g, ops)
        _assert_is_the_svd_route(Dynamics.__new__(Dynamics)._hold((g, ops), 1, DEFAULT_TOL))


def test_one_level_corners_take_no_general_route(monkeypatch):
    # an ID3 analysis builds one-level corners; none of them is split by
    # SVD, projected by a solve, clipped to a state or taken to the frame
    calls = []

    def recording(owner, attr, size):
        original = getattr(owner, attr)

        def recorded(*args, **kwargs):
            calls.append((attr, size(*args)))
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, recorded)

    recording(qdsa.asymptotics, "_split_kernel_range", lambda f, tol: f.shape[0])
    recording(qdsa.asymptotics, "_limit", lambda dyn, a: dyn.dim ** 2)
    recording(np.linalg, "solve", lambda a, b: np.shape(a)[0])
    recording(qdsa.channels, "_frame_chunks", lambda chunk, rows, cols: rows)
    corners = _one_level_corners(monkeypatch, build_fixture("ID3"))
    assert corners
    assert calls
    assert [call for call in calls if call[1] == 1] == []


@pytest.mark.parametrize("name", [n for n in fixture_names() if n != "TH"])
def test_fixture_one_level_real_forms_have_the_chunked_bits(monkeypatch, name):
    corners = _one_level_corners(monkeypatch, build_fixture(name))
    assert corners
    for corner in corners:
        _assert_chunked_bits(*corner.terms)


def test_sampled_one_level_real_forms_have_the_chunked_bits():
    rng = np.random.default_rng(5)
    models = [haar_random_channel(1, k, rng) for k in (1, 2, 3) for _ in range(20)]
    models += [random_generator(1, n, rng) for n in (0, 1, 2, 3) for _ in range(20)]
    for model in models:
        _assert_chunked_bits(*_terms(model))


def _transient_cases():
    """The fixtures with a transient corner and a certified generator whose
    transient corner is one level, at two horizons each: 0.5 and 30 for a
    generator, 1 and 30 iterations for a channel."""
    cases = []
    for name in ("AD", "ADK", "M3", "DFS3"):
        model = build_fixture(name)
        horizons = (1.0, 30.0) if isinstance(model, QuantumChannel) else (0.5, 30.0)
        cases += [(name, model, t) for t in horizons]
    for k in (7, 11):
        gen, _ = transient_block_generator(k, 1, np.random.default_rng(1))
        cases += [(f"generator-d{k + 1}", gen, t) for t in (0.5, 30.0)]
    return cases


TRANSIENT = _transient_cases()


@pytest.mark.parametrize("name,model,horizon", TRANSIENT,
                         ids=[f"{name}-T{t:g}" for name, _, t in TRANSIENT])
def test_one_level_transient_action_is_the_flow(monkeypatch, name, model, horizon):
    r = recurrent_projection(model, horizon=horizon).recurrent
    dyn = Dynamics(model)
    if name.startswith("generator"):
        assert dyn.reduction[1] is not None
    built = []
    superoperator = qdsa.asymptotics.Superoperator
    monkeypatch.setattr(qdsa.asymptotics, "Superoperator",
                        lambda *args: built.append(args) or superoperator(*args))
    w, apply = dyn.transient(r, horizon)
    assert w.shape[1] == 1
    inputs = [np.eye(1), np.eye(1, dtype=complex)] + [np.outer(row.conj(), row) for row in w]
    actions = [apply(a) for a in inputs]
    assert built == []
    corner = _corner(dyn, w)
    assert corner._cache == {} and "schrodinger" not in vars(corner)
    for a, action in zip(inputs, actions):
        want = corner.flow(horizon).apply(a)
        assert np.asarray(action, dtype=complex).tobytes() == want.tobytes()


def _scipy_exp(m: np.ndarray) -> np.ndarray:
    """``matrix_exp`` with ``scipy.linalg.expm`` as its core, the reference:
    complex input whole, real input scaled by the 1-norm rule and squared."""
    if np.iscomplexobj(m):
        return scipy.linalg.expm(m)
    norm = float(np.abs(m).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(norm / _THETA_9))) if norm > 0 else 0
    e = scipy.linalg.expm(m / 2.0 ** squarings)
    for _ in range(squarings):
        e = e @ e
    return e


def _refused(*args, **kwargs):
    raise AssertionError("scipy.linalg.expm was called")


@pytest.mark.parametrize("kind", [float, complex])
def test_one_level_exponential_has_scipys_bits(monkeypatch, kind):
    values = [0.0, 1e-3, -1e-3, 2.0, -2.0, 50.0, -50.0, 1e3, -1e3]
    entries = [kind(x) if kind is float else x * (0.6 + 0.8j) for x in values]
    with np.errstate(over="ignore"):
        want = [_scipy_exp(np.array([[x]])) for x in entries]
        monkeypatch.setattr(scipy.linalg, "expm", _refused)
        got = [matrix_exp(np.array([[x]])) for x in entries]
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
