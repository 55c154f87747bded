"""Span tracer that wraps the public functions of ``qdsa`` from outside.

``installed`` replaces every public function of every ``qdsa`` module (the
names in each module's ``__all__``) with a recording wrapper, in every
module namespace that binds it, so calls made inside the package are caught
too, and restores them on exit.  It also wraps the numpy/scipy kernels the
package calls, as the ``kernel`` layer.  Spans are kept in memory;
``Tracer.write`` dumps them.

A span is ``[name, start, end, parent_index, op_id]``.  A layer is the
module a function is defined in; its self time is the span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module path, attribute) of the kernels the package calls by attribute
# lookup, so patching the attribute catches every call site.
KERNELS = {
    "svd": ("numpy.linalg", "svd"),
    "eigh": ("numpy.linalg", "eigh"),
    "solve": ("numpy.linalg", "solve"),
    "matrix_power": ("numpy.linalg", "matrix_power"),
    "kron": ("numpy", "kron"),
    "expm": ("scipy.linalg", "expm"),
}

# Functions whose distinct-argument ratio shows repeated work.
DISTINCT = ("channels.propagator", "channels.to_superoperator")
ANALYSIS = "analyze.run_analyze"


def _model_key(obj) -> str:
    """Content fingerprint of a channel or generator."""
    h = hashlib.blake2b(type(obj).__name__.encode(), digest_size=16)
    arrays = getattr(obj, "kraus_ops", None)
    if arrays is None:
        arrays = (obj.hamiltonian, *obj.lindblad_ops)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _svd_flop(args, kwargs) -> float:
    a = args[0]
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    if kwargs.get("compute_uv", True):
        real = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        real = 4 * m * n * n - 4 * n ** 3 / 3
    return real * (4 if a.dtype.kind == "c" else 1)


def _expm_flop(args, kwargs) -> float:
    """Scaling-and-squaring with a degree-13 Pade core (Al-Mohy-Higham)."""
    a = args[0]
    n = a.shape[-1]
    norm1 = float(abs(a).sum(axis=0).max()) if a.size else 0.0
    squarings = max(0, math.ceil(math.log2(norm1 / 5.37))) if norm1 > 0 else 0
    matmul = 2 * n ** 3 * (4 if a.dtype.kind == "c" else 1)
    return matmul * (6 + squarings + 4 / 3)


_FLOP = {"kernel.svd": _svd_flop, "kernel.expm": _expm_flop}


def _kernel_n(name, args) -> int:
    if name == "kernel.kron":
        return int(args[0].shape[0] * args[1].shape[0])
    return int(max(args[0].shape))


class Tracer:
    """In-memory span recorder with per-call counters."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self.keys = defaultdict(set)
        self.errors = Counter()
        self.max_n = Counter()
        self.flop = Counter()
        self.names = set()  # every wrapped function, called or not

    @contextmanager
    def span(self, name: str, op=None):
        """A span opened by the benchmark itself (layer ``bench``).

        ``op`` becomes the operation id of this span and of those after it.
        """
        if op is not None:
            self.op = op
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _observe(self, name, args, kwargs):
        if name in DISTINCT:
            obj = args[0]
            if name == "channels.propagator":
                t = args[1] if len(args) > 1 else kwargs["t"]
                picture = args[2] if len(args) > 2 else kwargs.get("picture", "heisenberg")
                self.keys[name].add((_model_key(obj), float(t), picture))
            else:
                picture = args[1] if len(args) > 1 else kwargs.get("picture", "heisenberg")
                self.keys[name].add((_model_key(obj), picture))
        elif name.startswith("kernel."):
            self.max_n[name] = max(self.max_n[name], _kernel_n(name, args))
            if name in _FLOP:
                self.flop[name] += _FLOP[name](args, kwargs)

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._observe(name, args, kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                parent = self.spans[idx][3]
                if parent is None or self.spans[parent][0].split(".", 1)[0] != layer:
                    qdsa_error = sys.modules["qdsa.errors"].QdsaError
                    kind = "typed" if isinstance(exc, qdsa_error) else "raw"
                    self.errors[f"{layer}.errors.{kind}"] += 1
                raise
            finally:
                self._close(idx)

        return traced

    def self_times(self):
        """Per-span self time, in span order."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _qdsa_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qdsa" or name.startswith("qdsa."))]


@contextmanager
def installed(tracer: Tracer):
    """Patch every public ``qdsa`` function and kernel; restore on exit."""
    import importlib

    import qdsa.cli  # noqa: F401  (loads every submodule, the CLI too)
    from qdsa.analyze import AnalysisReport

    modules = _qdsa_modules()
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)

    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    patch(mod, attr, wrappers[val])
        patch(AnalysisReport, "to_json",
              tracer.wrap("analyze.to_json", AnalysisReport.to_json))
        for short, (modname, attr) in KERNELS.items():
            owner = importlib.import_module(modname)
            patch(owner, attr, tracer.wrap(f"kernel.{short}", getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, old in reversed(patches):
            setattr(owner, attr, old)


def layer_metrics(tracer: Tracer, pass_root: int) -> dict:
    """Aggregate spans into the per-layer metric dictionary.

    ``pass_root`` is the index of the benchmark's root span around the
    measured pass; the accounting covers the spans below it.
    """
    self_t = tracer.self_times()
    calls = Counter()
    self_s = Counter()
    layer_s = Counter()
    in_pass = [False] * len(tracer.spans)
    in_analysis = [False] * len(tracer.spans)
    pass_layers_s = 0.0
    spaces_in_analysis = 0
    for i, (name, _, _, parent, _) in enumerate(tracer.spans):
        in_pass[i] = i == pass_root or (parent is not None and in_pass[parent])
        in_analysis[i] = parent is not None and (in_analysis[parent]
                                                 or tracer.spans[parent][0] == ANALYSIS)
        spaces_in_analysis += in_analysis[i] and name == "asymptotics.stationary_space"
        layer = name.split(".", 1)[0]
        calls[name] += 1
        self_s[name] += self_t[i]
        layer_s[layer] += self_t[i]
        if in_pass[i] and layer != "bench":
            pass_layers_s += self_t[i]

    layers = {name.split(".", 1)[0] for name in tracer.names}
    metrics = {f"{layer}.errors.{kind}": 0 for layer in layers for kind in ("typed", "raw")}
    metrics.update({f"{layer}.self_s": 0.0 for layer in layers})
    metrics.update({f"{name}.{field}": 0 for name in tracer.names for field in ("calls", "self_s")})
    metrics.update({f"kernel.{k}.max_n": 0 for k in KERNELS})
    metrics.update({f"{name}.gflop": 0.0 for name in _FLOP})
    for name in calls:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    for layer, value in layer_s.items():
        metrics[f"{layer}.self_s"] = value
    for name in tracer.max_n:
        metrics[f"{name}.max_n"] = tracer.max_n[name]
    for name, value in tracer.flop.items():
        metrics[f"{name}.gflop"] = value / 1e9
    for name in DISTINCT:
        n = calls[name]
        metrics[f"{name}.distinct"] = len(tracer.keys[name])
        metrics[f"{name}.distinct_ratio"] = len(tracer.keys[name]) / n if n else 0.0
    analyses = calls[ANALYSIS]
    metrics["asymptotics.stationary_space.calls_per_analysis"] = (
        spaces_in_analysis / analyses if analyses else 0.0)
    metrics.update(tracer.errors)
    root = tracer.spans[pass_root]
    metrics["trace.pass_s"] = root[2] - root[1]
    metrics["trace.layers_in_pass_s"] = pass_layers_s
    return metrics
