"""Command-line interface.

Subcommands:

* ``analyze --model F [--horizon T] [--tol X] [--output F2] [--pretty]``
  runs the full structural analysis and writes a JSON report to stdout or
  ``--output``; ``--pretty`` adds a human-readable table on stderr.  The
  exit code is 0 only when every structural check passes.
* ``verify [--seed N] [--trials K] [--dims 2,3,4]`` runs the randomized
  property suites, printing one line per property.
* ``evolve --model F --state F3 --times t1,t2,...`` evolves a state file
  and prints the resulting states as JSON.
* ``examples list`` / ``examples emit NAME`` lists or writes the bundled
  models.

Exit codes: 0 success, 1 validation or parse failure (including usage), 2
property or structural-law failure, 3 internal numerical failure.  The
environment variable ``QDS_SEED`` provides the fallback seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .analyze import AnalysisOptions, default_seed, run_analyze
from .asymptotics import Dynamics
from .channels import SCHRODINGER, DensityMatrix
from .errors import (
    ConvergenceFailure,
    InternalError,
    QdsaError,
    TheoremViolation,
    ValidationError,
)
from .linalg import ToleranceConfig
from .modelio import matrix_to_json, model_spec_from_fixture, parse_model, parse_state
from .models import FIXTURES, fixture_names
from .verify import format_summary, run_verify

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PROPERTY = 2
EXIT_INTERNAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdsa",
        description="Long-time structure of finite-dimensional quantum dynamical semigroups.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze one model file")
    analyze.add_argument("--model", required=True, help="path to a JSON model file")
    analyze.add_argument("--horizon", type=float, default=None,
                         help="evolution horizon (iteration count for channels)")
    analyze.add_argument("--tol", type=float, default=None,
                         help="override the absolute tolerance")
    analyze.add_argument("--output", default=None, help="write the JSON report here")
    analyze.add_argument("--pretty", action="store_true",
                         help="also print a readable table to stderr")
    analyze.add_argument("--seed", type=int, default=None,
                         help="seed for the enclosure split (default QDS_SEED or 42)")

    verify = sub.add_parser("verify", help="run the randomized property suites")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--dims", default="2,3,4",
                        help="comma-separated list of dimensions")
    verify.add_argument("--output", default=None, help="also write a JSON summary here")

    evolve = sub.add_parser("evolve", help="evolve a state file at given times")
    evolve.add_argument("--model", required=True)
    evolve.add_argument("--state", required=True)
    evolve.add_argument("--times", required=True,
                        help="comma-separated list of nonnegative times")
    evolve.add_argument("--output", default=None)

    examples = sub.add_parser("examples", help="list or emit bundled models")
    examples.add_argument("action", choices=["list", "emit"])
    examples.add_argument("name", nargs="?", default=None)
    examples.add_argument("--output", default=None)
    return parser


def _emit(text: str, output):
    """``text`` and a newline to the file ``output``, else to stdout; a file
    that cannot be written is a ValidationError."""
    if not output:
        print(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {output}: {exc.strerror or exc}") from exc


def _cmd_analyze(args) -> int:
    spec = parse_model(args.model)
    tol = None if args.tol is None else ToleranceConfig(atol=args.tol, psd_tol=args.tol)
    report = run_analyze(spec, AnalysisOptions(horizon=args.horizon, tol=tol, seed=args.seed))
    _emit(report.to_json(), args.output)
    if args.pretty:
        print(report.pretty(), file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_PROPERTY


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else default_seed()
    try:
        dims = tuple(int(d) for d in args.dims.split(",") if d.strip())
    except ValueError as exc:
        raise ValidationError(f"bad --dims value {args.dims!r}") from exc
    summary = run_verify(seed=seed, trials=args.trials, dims=dims)
    print(format_summary(summary))
    if args.output:
        payload = {**dataclasses.asdict(summary), "passed": summary.passed}
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return EXIT_OK if summary.passed else EXIT_PROPERTY


def _cmd_evolve(args) -> int:
    spec = parse_model(args.model)
    state = parse_state(args.state, spec.dim)
    try:
        times = [float(t) for t in args.times.split(",") if t.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --times value {args.times!r}") from exc
    if not times:
        raise ValidationError("--times must list at least one time")
    dyn = Dynamics(spec.model)
    states = []
    for t in times:
        evolved = dyn.flow(t, SCHRODINGER).apply(state.matrix)
        states.append(matrix_to_json(DensityMatrix(evolved).matrix))
    payload = {"label": spec.label, "times": times, "states": states}
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return EXIT_OK


def _cmd_examples(args) -> int:
    if args.action == "list":
        for name in fixture_names():
            print(f"{name:<6} {FIXTURES[name].description}")
        return EXIT_OK
    if not args.name:
        raise ValidationError("examples emit requires a fixture name")
    spec = model_spec_from_fixture(args.name)
    _emit(json.dumps(spec.to_json_dict(), indent=2, sort_keys=True), args.output)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; remap the
        # latter onto the validation exit code.
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    try:
        code = {"analyze": _cmd_analyze, "verify": _cmd_verify, "evolve": _cmd_evolve,
                "examples": _cmd_examples}[args.command](args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # a closed reader: stdout to devnull, so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INVALID
    except TheoremViolation as exc:
        print(f"structural failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (ConvergenceFailure, InternalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except QdsaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
