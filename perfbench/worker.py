"""Run one workload in this process and print its raw results as one JSON line.

``run.py`` starts this script with BLAS threads capped and ``src`` on the
path.  Modes:

* ``--setup-only``: import ``qdsa`` and build the inputs, report the time;
* default: set up, then repeat the workload's operations for ``--seconds``;
* ``--trace``: set up, then time an untraced, a traced and an untraced
  pass, and report the per-layer aggregates and the tracing overhead;
* ``--trace-only``: set up and time one traced pass.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time starts before numpy and qdsa load

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402  (imports numpy and qdsa)

IN_PROCESS_PASSES_PER_CYCLE = 3  # fixture passes between two fresh-process CLI pairs
SETUP_REPEATS = 15  # reference loops in the sample that scales set-up time


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": np.__version__, "scipy": scipy.__version__}


def _measure(workload, inputs, seconds, counts) -> dict:
    """Closed loop, one client: the next operation starts when the last ends.

    Each timed pass is also scaled by the reference loop run next to it
    (``reference.Scaler``); ``pass_s`` holds the raw times and
    ``scaled_pass_s`` the scaled ones.
    """
    samples = {}
    passes = samples["pass_s"] = []
    scaled = samples["scaled_pass_s"] = []
    if workload == "fixtures":
        golden, fixtures = inputs["golden"], inputs["fixtures"]
        for fixture in fixtures:  # warm-up: first calls pay one-off lazy set-up
            w.analyze_fixture(fixture, golden, counts)
        # In-process passes and fresh-process calls alternate, so that both
        # sample the machine over the whole run.
        calls = samples["analyze_call_s"] = []
        cli = samples["cli_analyze_s"] = []
        cold = samples["cli_start_s"] = []
        scaler = reference.Scaler()
        start = time.perf_counter()
        while not cli or time.perf_counter() < start + seconds:
            scaler.mark()
            for _ in range(IN_PROCESS_PASSES_PER_CYCLE):
                times = [w.analyze_fixture(fixture, golden, counts) for fixture in fixtures]
                calls += times
                passes.append(sum(times) / len(times))
                scaled.append(scaler.scale(passes[-1]))
            cli.append(w.cli_analyze(fixtures[len(cli) % len(fixtures)], golden, counts))
            cold.append(w.cli_list(golden, counts))
        samples["ref_s"] = scaler.samples
        samples["ref_nominal_s"] = reference.NOMINAL_S
        return samples

    scaler = reference.Scaler()
    scaler.mark()
    start = time.perf_counter()
    while not passes or time.perf_counter() < start + seconds:
        if workload == "verify":
            passes.append(w.verify_pass(inputs, counts))
        else:
            times = w.ladder_pass(workload, inputs, counts)
            for label, dt in times.items():
                samples.setdefault("rungs", {}).setdefault(label, []).append(dt)
            passes.append(sum(times.values()))
        scaled.append(scaler.scale(passes[-1]))
    samples["ref_s"] = scaler.samples
    samples["ref_nominal_s"] = reference.NOMINAL_S
    return samples


def _one_pass(workload, inputs, counts, op=contextlib.nullcontext) -> float:
    start = time.perf_counter()
    if workload == "fixtures":
        w.fixtures_in_process_pass(inputs, counts, op)
    elif workload == "verify":
        w.verify_pass(inputs, counts, op)
    else:
        w.ladder_pass(workload, inputs, counts, op)
    return time.perf_counter() - start


def _trace(workload, seed, inputs, counts, untraced: bool) -> dict:
    """One traced pass, between two untraced passes when ``untraced`` is set.

    The faster untraced pass is the reference, so that neither one-off
    first-call set-up nor a slow spell of the machine counts as tracing cost.
    """
    result = {}
    if untraced:
        before = _one_pass(workload, inputs, counts)
    tracer = tracing.Tracer()

    @contextlib.contextmanager
    def op(op_id):
        with tracer.span("bench.op", op=op_id):
            yield

    with tracing.installed(tracer):
        with tracer.span("bench.inputs", op="inputs"):
            inputs = w.build_inputs(workload, seed)
        root = len(tracer.spans)
        with tracer.span("bench.pass", op="pass"):
            _one_pass(workload, inputs, counts, op)
    if untraced:
        result["untraced_pass_s"] = min(before, _one_pass(workload, inputs, counts))
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    w.OUT.mkdir(exist_ok=True)
    tracer.write(w.OUT / f"trace-{workload}-seed{seed}-blas{threads}.json")
    result["layers"] = tracing.layer_metrics(tracer, root)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=w.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true", help="untraced, traced, untraced pass")
    mode.add_argument("--trace-only", action="store_true", help="traced pass alone")
    args = parser.parse_args(argv)
    inputs = w.build_inputs(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    # Set-up is Python-bound (imports, small-model sampling), so it is
    # scaled like the Python-bound passes, by a reference sample taken
    # right after it.  The first loops of a fresh process run cold, hence
    # the longer sample.
    result = {"setup_s": setup_s,
              "scaled_setup_s": setup_s * reference.NOMINAL_S / reference.sample(SETUP_REPEATS)}
    if not args.setup_only:
        counts = w.Counts()
        if args.trace or args.trace_only:
            result.update(_trace(args.workload, args.seed, inputs, counts, args.trace))
        else:
            result["samples"] = _measure(args.workload, inputs, args.seconds, counts)
        result["counts"] = counts.as_dict()
        result["env"] = _environment()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
