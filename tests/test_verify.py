import dataclasses

import numpy as np

import qdsa.harmonic
import qdsa.verify
from qdsa.analyze import CheckResult, run_analyze
from qdsa.errors import TheoremViolation
from qdsa.linalg import DEFAULT_TOL
from qdsa.verify import (
    PropertyResult,
    VerifySummary,
    _generator_criterion,
    _tally,
    format_summary,
    run_verify,
)
from test_dynamics import _counting


def test_tally_counts_each_trial_once():
    result = _tally("p", iter([(0.5, 0), (2.0, 1), (1.0, True)]))
    assert (result.name, result.trials, result.failures, result.worst) == ("p", 3, 2, 2.0)
    assert not result.passed


def test_tally_of_no_trials_passes():
    result = _tally("p", iter(()))
    assert (result.trials, result.failures, result.worst) == (0, 0, 0.0)


def test_summary_skips_a_property_that_ran_no_trial():
    ran, idle, failed = (PropertyResult("ran", 3, 0, 0.0), PropertyResult("idle", 0, 0, 0.0),
                         PropertyResult("failed", 2, 1, 1.0))
    lines = format_summary(VerifySummary(3, 4, (1,), (ran, idle))).splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == ["PASS", "SKIP"]
    assert lines[-1] == "verify: PASS (1/1 properties, 1 skipped)"
    summary = VerifySummary(3, 4, (1,), (ran, failed, idle))
    assert not summary.passed
    assert format_summary(summary).endswith("verify: FAIL (1/2 properties, 1 skipped)")
    # a run in which every property ran prints no skip count
    assert format_summary(VerifySummary(3, 4, (1,), (ran, failed))).endswith(
        "verify: FAIL (1/2 properties)")


def test_theorem_violation_is_one_failure_per_trial(monkeypatch):
    def broken(*args, **kwargs):
        raise TheoremViolation("forced")

    monkeypatch.setattr(qdsa.verify, "_fixed_point_support", broken)
    summary = run_verify(seed=5, trials=3, dims=(2,))
    result = next(r for r in summary.results if r.name == "fixed-point-support-superharmonic")
    assert (result.trials, result.failures, result.worst) == (3, 3, 1.0)
    assert not summary.passed


def test_recurrent_properties_are_the_analysis_checks(monkeypatch):
    # a supports-match check that fails in every report fails one trial per
    # structured model of its property and of no other recurrent property
    def mismatched(spec, options=None):
        report = run_analyze(spec, options)
        checks = tuple(CheckResult(c.name, 1.0, c.tolerance) if c.name == "supports-match"
                       else c for c in report.checks)
        return dataclasses.replace(report, checks=checks)

    monkeypatch.setattr(qdsa.verify, "run_analyze", mismatched)
    summary = run_verify(seed=5, trials=8, dims=(2, 3))
    results = {r.name: r for r in summary.results}
    mismatch = results["recurrent-equals-stationary-support"]
    assert (mismatch.trials, mismatch.failures, mismatch.worst) == (4, 4, 1.0)
    for name in ("recurrent-limit-support-full", "decay-ideal-agreement"):
        assert (results[name].trials, results[name].failures) == (4, 0)
    assert not summary.passed


def test_generator_criterion_takes_each_residual_once(monkeypatch):
    calls = _counting(monkeypatch, qdsa.harmonic, "_residual")
    outcomes = list(_generator_criterion(np.random.default_rng(1), 20, (2, 3, 4), DEFAULT_TOL))
    assert len(outcomes) == 30
    assert len(calls) == 30
