import qdsa.verify
from qdsa.errors import TheoremViolation
from qdsa.verify import _tally, run_verify


def test_tally_counts_each_trial_once():
    result = _tally("p", iter([(0.5, 0), (2.0, 1), (1.0, True)]))
    assert (result.name, result.trials, result.failures, result.worst) == ("p", 3, 2, 2.0)
    assert not result.passed


def test_tally_of_no_trials_passes():
    result = _tally("p", iter(()))
    assert (result.trials, result.failures, result.worst) == (0, 0, 0.0)


def test_theorem_violation_is_one_failure_per_trial(monkeypatch):
    def broken(*args, **kwargs):
        raise TheoremViolation("forced")

    monkeypatch.setattr(qdsa.verify, "fixed_point_support_check", broken)
    summary = run_verify(seed=5, trials=3, dims=(2,))
    result = next(r for r in summary.results if r.name == "fixed-point-support-superharmonic")
    assert (result.trials, result.failures, result.worst) == (3, 3, 1.0)
    assert not summary.passed
