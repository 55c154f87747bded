"""Workload inputs, operations and known-answer checks.

Every input is generated from the benchmark seed; ``qdsa`` only ever sees
the generated models.  Each operation is timed by its caller, and its
output is checked against an answer known from the construction (ladders),
from a recorded golden set (fixtures) or from the program's own summary
(verify).
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# The library is called through module attributes, never through names
# bound here, so that the traced run's patches see every call.
import qdsa.cli
from qdsa import projections_equal  # the gate's own check stays untraced
from qdsa.analyze import AnalysisOptions

WORKLOADS = ("fixtures", "analyze-ladder", "structure-ladder", "verify")
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "fixtures.json"
OUT = ROOT / ".perfbench_out"  # fixture model files and span dumps

ANALYSIS_SEED = 42          # analysis seed of the fixture runs
ANALYZE_LADDER = (("generator", 4), ("generator", 8), ("generator", 12),
                  ("channel", 8), ("channel", 16))
STRUCTURE_LADDER = (("generator", 24), ("generator", 32),
                    ("channel", 24), ("channel", 32))
# Short calls (about half a second) let the reference samples taken on each
# side of a call track the machine's speed during it; see reference.py.
VERIFY_TRIALS = 20
VERIFY_DIMS = (2, 3, 4)

FLOAT_ATOL = 1e-9           # golden comparison of float report fields
FLOAT_RTOL = 1e-6
PROJECTION_ATOL = 1e-8


class Counts:
    """Operations attempted and how each ended."""

    def __init__(self):
        self.attempted = 0
        self.raised = 0
        self.failing = 0      # returned a report with a failing check
        self.wrong = []       # known-answer mismatches, one message each
        self.reports = 0      # fixture reports compared with the golden set
        self.identical = 0    # ... of which byte-identical

    def as_dict(self):
        return dict(vars(self))


# ---------------------------------------------------------------- inputs

def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _rung(kind: str, d: int, seed: int):
    rng = np.random.default_rng(seed)
    if kind == "generator":
        model, block = qdsa.sampling.transient_block_generator(d // 2, d - d // 2, rng)
        return f"generator-d{d}", model, block
    model, _ = qdsa.sampling.block_diagonal_channel([4] * (d // 4), 2, rng)
    return f"channel-d{d}", model, None


def build_inputs(workload: str, seed: int):
    """Generate the workload's inputs from ``seed``."""
    if workload == "fixtures":
        model_dir = OUT / "models"
        model_dir.mkdir(parents=True, exist_ok=True)
        order = np.random.default_rng(seed).permutation(qdsa.models.fixture_names())
        fixtures = []
        for name in order:
            path = model_dir / f"{name}.json"
            spec = qdsa.modelio.model_spec_from_fixture(str(name))
            path.write_text(json.dumps(spec.to_json_dict(), indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
            fixtures.append((str(name), path, qdsa.modelio.parse_model(path)))
        return {"fixtures": fixtures, "golden": load_golden()}
    if workload == "analyze-ladder":
        return [_rung(kind, d, seed) for kind, d in ANALYZE_LADDER]
    if workload == "structure-ladder":
        return [_rung(kind, d, seed) for kind, d in STRUCTURE_LADDER]
    if workload == "verify":
        return seed
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- checks

def _projection_matrix(data) -> np.ndarray:
    cols = [[complex(re, im) for re, im in col] for col in data["range_basis"]]
    basis = np.array(cols, dtype=complex).T.reshape(-1, data["rank"])
    return basis @ basis.conj().T


def _compare(got, want, path: str, diffs: list):
    if type(got) is not type(want) and not (isinstance(want, float) and isinstance(got, int)):
        diffs.append(f"{path} {got!r} != {want!r}")
    elif isinstance(want, dict) and {"rank", "range_basis"} <= set(want):
        if got.get("rank") != want["rank"]:
            diffs.append(f"{path}.rank {got.get('rank')} != {want['rank']}")
        elif want["rank"] and np.max(np.abs(_projection_matrix(got) - _projection_matrix(want))) \
                > PROJECTION_ATOL:
            diffs.append(f"{path} projection differs")
    elif isinstance(want, dict):
        if set(got) != set(want):
            diffs.append(f"{path} keys {sorted(set(got) ^ set(want))} differ")
        for key in sorted(set(got) & set(want)):
            _compare(got[key], want[key], f"{path}.{key}", diffs)
    elif isinstance(want, list):
        if len(got) != len(want):
            diffs.append(f"{path} length {len(got)} != {len(want)}")
        for i, (a, b) in enumerate(zip(got, want)):
            _compare(a, b, f"{path}[{i}]", diffs)
    elif isinstance(want, float):
        if abs(got - want) > FLOAT_ATOL + FLOAT_RTOL * abs(want):
            diffs.append(f"{path} {got!r} != {want!r}")
    elif got != want:
        diffs.append(f"{path} {got!r} != {want!r}")


def check_report_json(name: str, text: str, golden: dict, counts: Counts):
    """Compare an analyze JSON report with the golden one.

    Discrete fields must match exactly; float fields within FLOAT_ATOL +
    FLOAT_RTOL; projections as matrices, since a range basis is fixed only
    up to a unitary.
    """
    want = golden["reports"][name]
    counts.reports += 1
    try:
        got = json.loads(text)
    except json.JSONDecodeError:
        counts.wrong.append(f"{name}: report is not JSON")
        return
    diffs = []
    _compare(got, want, name, diffs)
    if diffs:
        counts.wrong.append("; ".join(diffs[:3]))
    counts.identical += text.rstrip("\n") == json.dumps(want, indent=2, sort_keys=True)


def _check_structure(label: str, block, recurrent, enclosure_ranks, dim: int, counts: Counts):
    if block is not None:
        if not projections_equal(recurrent, block):
            counts.wrong.append(f"{label}: recurrent projection is not the constructed block")
    elif recurrent.rank != dim or any(k != 4 for k in enclosure_ranks):
        counts.wrong.append(f"{label}: recurrent rank {recurrent.rank}, "
                            f"enclosure ranks {list(enclosure_ranks)}")


# ---------------------------------------------------------------- operations

def _timed(counts: Counts, fn, *args):
    """Run one operation; return (seconds, result or None if it raised)."""
    counts.attempted += 1
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # an operation that raises is counted, not fatal
        counts.raised += 1
        print(f"operation raised: {type(exc).__name__}: {exc}", file=sys.stderr)
        return time.perf_counter() - start, None
    return time.perf_counter() - start, result


def analyze_fixture(fixture, golden, counts: Counts):
    name, _, spec = fixture
    dt, report = _timed(counts, qdsa.run_analyze, spec, AnalysisOptions(seed=ANALYSIS_SEED))
    if report is not None:
        counts.failing += not report.passed
        check_report_json(name, report.to_json(), golden, counts)
    return dt


def cli_call(argv, fixture: str | None, golden, counts: Counts, fresh: bool = True) -> float:
    """One ``qdsa`` command, checked; returns its wall time.

    ``fresh`` runs it in a new interpreter, as a user would; otherwise it
    goes through ``qdsa.cli.main`` in this process.  Stdout must match the
    golden report of ``fixture``, or the golden listing when it is None.
    """
    counts.attempted += 1
    start = time.perf_counter()
    if fresh:
        proc = subprocess.run([sys.executable, "-m", "qdsa.cli", *argv], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qdsa.cli.main(argv)
        out, err = buf.getvalue(), ""
    dt = time.perf_counter() - start
    if code not in (0, 2):  # 2 is a report with a failing check
        counts.raised += 1
        print(f"qdsa {' '.join(argv)} exited {code}: {err.strip()[-500:]}", file=sys.stderr)
    elif fixture is None:
        if out != golden["examples_list"]:
            counts.wrong.append("examples list output differs")
    else:
        counts.failing += code == 2
        check_report_json(fixture, out, golden, counts)
    return dt


def cli_analyze(fixture, golden, counts: Counts, fresh: bool = True) -> float:
    name, path, _ = fixture
    return cli_call(["analyze", "--model", str(path)], name, golden, counts, fresh)


def cli_list(golden, counts: Counts, fresh: bool = True) -> float:
    return cli_call(["examples", "list"], None, golden, counts, fresh)


def fixtures_in_process_pass(inputs, counts: Counts, op=contextlib.nullcontext):
    """All three ways per fixture, the CLI ones through ``qdsa.cli.main``.

    This is the pass the traced run measures: it runs the same library code
    as the fresh-process calls, without interpreter start and imports.
    """
    golden = inputs["golden"]
    for fixture in inputs["fixtures"]:
        name = fixture[0]
        with op(f"{name}/analyze"):
            analyze_fixture(fixture, golden, counts)
        with op(f"{name}/cli-analyze"):
            cli_analyze(fixture, golden, counts, fresh=False)
        with op(f"{name}/cli-list"):
            cli_list(golden, counts, fresh=False)


def ladder_pass(workload: str, rungs, counts: Counts, op=contextlib.nullcontext) -> dict:
    """One pass over the ladder; returns each rung's operation time."""
    times = {}
    for label, model, block in rungs:
        with op(label):
            if workload == "analyze-ladder":
                dt, report = _timed(counts, qdsa.run_analyze, model,
                                    AnalysisOptions(seed=ANALYSIS_SEED))
            else:
                dt, report = _timed(counts, qdsa.recurrent_projection, model)
        times[label] = dt
        if report is None:
            continue
        if workload == "analyze-ladder":
            counts.failing += not report.passed
            ranks = report.enclosure_ranks
        else:
            ranks = [p.rank for p in report.enclosures.minimal_projections]
        _check_structure(label, block, report.recurrent, ranks, model.dim, counts)
    return times


def verify_pass(seed: int, counts: Counts, op=contextlib.nullcontext) -> float:
    with op(f"verify-seed{seed}"):
        dt, summary = _timed(counts, qdsa.run_verify, seed, VERIFY_TRIALS, VERIFY_DIMS)
    if summary is not None and not summary.passed:
        counts.failing += 1
        bad = [r.name for r in summary.results if not r.passed]
        counts.wrong.append(f"verify seed {seed}: failing properties {bad}")
    return dt
