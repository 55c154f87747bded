"""Memory of the superoperator assembly: the real form owns its buffer,
building it holds at most 1.75 times its bytes at once, and a whole
structure analysis of a model with few terms no more: its one
``d^2 x d^2`` array is the real form the kernel split assembles and factors
in place, with no cached real form beside it, no complex Schrodinger
matrix, no copy of the channel's ``R - 1`` and no ``d^2 x m^2`` block frame
of the transient corner; and a certified transient corner holds only the
LU of its own real form."""

import tracemalloc

import numpy as np
import pytest

import qdsa.analyze
import qdsa.asymptotics
from qdsa.analyze import run_analyze
from qdsa.asymptotics import Dynamics, _corner, _fixed_point_form, recurrent_projection
from qdsa.channels import HEISENBERG, SCHRODINGER, to_superoperator
from qdsa.models import build_fixture, fixture_names
from qdsa.sampling import block_diagonal_channel, transient_block_generator

ASSEMBLY_FACTOR = 1.75
ANALYSIS_FACTOR = 1.75


def _model(kind: str, d: int):
    rng = np.random.default_rng(1)
    if kind == "generator":
        return transient_block_generator(d // 2, d - d // 2, rng)[0]
    return block_diagonal_channel([4] * (d // 4), 2, rng)[0]


def _traced_peak(fn, *args) -> int:
    """Peak bytes traced while ``fn(*args)`` runs, over what was held before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _root(a: np.ndarray) -> np.ndarray:
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("d", [24, 32])
@pytest.mark.parametrize("kind", ["generator", "channel"])
class TestPeak:
    def test_assembly(self, kind, d):
        model = _model(kind, d)
        out_bytes = to_superoperator(model, SCHRODINGER).real.nbytes
        assert _traced_peak(to_superoperator, model, SCHRODINGER) <= ASSEMBLY_FACTOR * out_bytes

    def test_recurrent_projection(self, kind, d):
        _assert_analysis_peak(recurrent_projection, kind, d)

    def test_run_analyze(self, kind, d):
        _assert_analysis_peak(run_analyze, kind, d)


def _assert_analysis_peak(analysis, kind: str, d: int):
    model = _model(kind, d)
    out_bytes = (d ** 2) ** 2 * 8
    analysis(model)  # frame tables and lazy imports on a first call
    assert _traced_peak(analysis, model) <= ANALYSIS_FACTOR * out_bytes


@pytest.mark.parametrize("kind", ["generator", "channel"])
def test_analysis_assembles_the_top_level_form_once_and_caches_none(monkeypatch, kind):
    # no product, slack or fallback reads the cached Dynamics.schrodinger:
    # a generator rung is reduced to its certified corners of size 12, a
    # channel rung to its six blocks of size 4, and neither assembles a
    # form at 24
    sizes, made = [], _recorded(monkeypatch)
    assemble = qdsa.asymptotics._real_schrodinger
    monkeypatch.setattr(qdsa.asymptotics, "_real_schrodinger",
                        lambda g, ops, dim: sizes.append(dim) or assemble(g, ops, dim))
    run_analyze(_model(kind, 24))
    assert sizes == ([12, 12] if kind == "generator" else [4] * 6)
    assert len(made) == 1 and "schrodinger" not in vars(made[0])


def _recorded(monkeypatch) -> list:
    """The top-level Dynamics that ``run_analyze`` builds, in order."""
    made = []

    class Recorded(Dynamics):
        def __init__(self, model, tol=None):
            super().__init__(model, tol)
            made.append(self)

    monkeypatch.setattr(qdsa.analyze, "Dynamics", Recorded)
    return made


def _with_corners(dyn):
    """``dyn`` and every corner cached under it."""
    yield dyn
    for value in dyn._cache.values():
        if isinstance(value, Dynamics):
            yield from _with_corners(value)


ANALYZE_LADDER = [f"{kind}-d{d}" for kind, d in (("generator", 4), ("generator", 8),
                                                 ("generator", 12), ("channel", 8),
                                                 ("channel", 16))]


@pytest.mark.parametrize("name", fixture_names() + ANALYZE_LADDER)
def test_only_a_flow_caches_the_real_form(monkeypatch, name):
    # every split factors an F it forms and drops, so after an analysis a
    # Dynamics holds the cached real form only beside a flow taken on it:
    # the top level and each of its corners, on the fixtures and the
    # analyze-ladder rungs
    made = _recorded(monkeypatch)
    kind, _, d = name.partition("-d")
    run_analyze(_model(kind, int(d)) if d else build_fixture(name))
    assert len(made) == 1
    for dyn in _with_corners(made[0]):
        flows = any(key[0] == "flow" for key in dyn._cache)
        assert flows or "schrodinger" not in vars(dyn)


def _arrays(obj):
    """The arrays held by ``obj``: in its dicts, tuples and lists, and in
    the closures of its functions."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _arrays(value)
    elif callable(obj):
        for cell in getattr(obj, "__closure__", None) or ():
            yield from _arrays(cell.cell_contents)


def test_transient_corner_holds_its_lu_only():
    # after the Krylov action at the default horizon, the certificate's
    # corner of 16 caches no real form and no flow: its one m^2 x m^2
    # array is the LU the certificate factored and the action solved with
    dyn = Dynamics(_model("generator", 32))
    recurrent_projection(dyn)
    corner = _corner(dyn, dyn.reduction[1])
    n = corner.dim ** 2
    assert "schrodinger" not in vars(corner) and "lu" in vars(corner)
    assert not any(key[0] == "flow" for key in corner._cache)
    assert [a.shape for a in _arrays(vars(corner)) if a.size >= n * n] == [(n, n)]


@pytest.mark.parametrize("name", ["AD", "ADK", "M3"])
class TestOwnedRealForm:
    def test_superoperator_owns_a_float_buffer(self, name):
        for picture in (HEISENBERG, SCHRODINGER):
            r = to_superoperator(build_fixture(name), picture).real
            root = _root(r)
            assert root.dtype == np.float64 and root.nbytes == r.nbytes
        assert to_superoperator(build_fixture(name), SCHRODINGER).real.flags.c_contiguous

    def test_dynamics_holds_a_contiguous_float_matrix(self, name):
        r = Dynamics(build_fixture(name)).schrodinger
        assert r.flags.c_contiguous and _root(r).dtype == np.float64

    def test_fixed_point_matrix_has_the_bits_of_subtracting_the_identity(self, name):
        # assembled afresh, F is an array of its own with the bits of R, or
        # of R - 1 for a channel
        dyn = Dynamics(build_fixture(name))
        r = to_superoperator(build_fixture(name), SCHRODINGER).real
        want = r - np.eye(r.shape[0]) if dyn.discrete else r
        got = _fixed_point_form(dyn)
        assert got.tobytes() == want.tobytes()
        assert _root(got) is not _root(r) and got.flags.writeable
        assert "schrodinger" not in vars(dyn)
