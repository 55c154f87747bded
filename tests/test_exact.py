"""The analysis's rank decisions against the exact oracle of ``exact.py``.

On every bundled fixture the stationary dimension and the rank of ``r_o``
that ``run_analyze`` decides numerically are the exact ones over the
Gaussian rationals.
"""

import pytest

from exact import exact_ranks
from qdsa.analyze import AnalysisOptions, run_analyze
from qdsa.models import build_fixture, fixture_names
from test_dynamics import GOLDEN_SEED


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_ranks_are_the_exact_ones(name):
    report = run_analyze(build_fixture(name), AnalysisOptions(seed=GOLDEN_SEED))
    exact = exact_ranks(build_fixture(name))
    assert exact == (report.stationary_dim, report.recurrent.rank)
    assert exact[1] == report.stationary_support.rank
