"""Memory of the superoperator assembly: the real form owns its buffer,
building it holds at most 1.75 times its bytes at once, and a whole
structure analysis of a model with few terms no more: its one
``d^2 x d^2`` array is the real form the kernel split assembles and factors
in place, with no cached real form beside it, no complex Schrodinger
matrix, no copy of the channel's ``R - 1`` and no ``d^2 x m^2`` block frame
of the transient corner."""

import tracemalloc

import numpy as np
import pytest

import qdsa.analyze
import qdsa.asymptotics
from qdsa.analyze import run_analyze
from qdsa.asymptotics import Dynamics, _fixed_point_matrix, recurrent_projection
from qdsa.channels import HEISENBERG, SCHRODINGER, to_superoperator
from qdsa.models import build_fixture
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
    # the split's own real form is the only top-level assembly: no product,
    # slack or fallback reads the cached Dynamics.schrodinger
    sizes, made = [], []
    assemble = qdsa.asymptotics._real_schrodinger
    monkeypatch.setattr(qdsa.asymptotics, "_real_schrodinger",
                        lambda g, ops, dim: sizes.append(dim) or assemble(g, ops, dim))

    class Recorded(Dynamics):
        def __init__(self, model):
            super().__init__(model)
            made.append(self)

    monkeypatch.setattr(qdsa.analyze, "Dynamics", Recorded)
    run_analyze(_model(kind, 24))
    assert sizes.count(24) == 1
    assert len(made) == 1 and "schrodinger" not in vars(made[0])


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
        r = to_superoperator(build_fixture(name), SCHRODINGER).real
        got = _fixed_point_matrix(r, discrete=True)
        want = r - np.eye(r.shape[0])
        assert got.tobytes() == want.tobytes()
        assert _fixed_point_matrix(r, discrete=False) is r
