"""Spans and counts at the public functions of each stripdamp layer.

While a Tracer is installed, it replaces module attributes with wrappers.
The package calls these functions through module attributes and module
globals (``cap.boundary_pair`` from ``eigen`` and ``quasimode``,
``resolvent_norm`` from ``scan_peaks``, ``discrete_energy`` from
``evolve``), so every inner call passes through a wrapper. Each wrapper
records a span (name, start, end, parent) plus the count it can read at that
boundary. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager

from stripdamp import cap, eigen, evolve, quasimode, resolvent

# (module, attribute) pairs that are wrapped, in layer order
WRAPPED = (
    (cap, "boundary_pair"),
    (eigen, "find_eigenvalue"),
    (eigen, "raw_compatibility_root"),
    (quasimode, "build_quasimode"),
    (resolvent, "resolvent_norm"),
    (resolvent, "scan_peaks"),
    (evolve, "evolve"),
    (evolve, "discrete_energy"),
)
LAYERS = ("cap", "eigen", "quasimode", "resolvent", "evolve")

# counts that must repeat exactly between two traced passes of one workload
DETERMINISTIC_COUNTS = (
    "cap.solves", "cap.points", "eigen.newton_iters", "eigen.maxiter_runs",
    "eigen.secant_iters", "quasimode.nodes", "resolvent.calls",
    "resolvent.window_calls",
)


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _info(name, bound, result):
    """The count each wrapped function exposes at its boundary."""
    a = bound.arguments
    if name == "cap.boundary_pair":
        return {"points": int(a["n"])}
    if name == "eigen.find_eigenvalue":
        return {"iters": int(result.iterations), "max_iter": int(a["max_iter"])}
    if name == "eigen.raw_compatibility_root":
        return {"iters": int(result[2])}
    if name == "quasimode.build_quasimode":
        return {"nodes": int(result.x.size)}
    if name == "resolvent.resolvent_norm":
        return {"coarse": bool(a["tol"] > _DEFAULT_RESOLVENT_TOL)}
    if name == "resolvent.scan_peaks":
        return {"peaks": len(result.samples)}
    if name == "evolve.evolve":
        return {"steps": int(round(a["T"] / a["dt"]))}
    return {}


_ORIGINAL = {f"{_layer(m)}.{attr}": getattr(m, attr) for m, attr in WRAPPED}
_DEFAULT_RESOLVENT_TOL = inspect.signature(resolvent.resolvent_norm).parameters["tol"].default


class Tracer:
    """Collects spans as lists [name, start, end, parent index, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span[4] = _info(name, bound, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every function in WRAPPED for the duration of the block."""
        for module, attr in WRAPPED:
            name = f"{_layer(module)}.{attr}"
            setattr(module, attr, self._wrap(name, _ORIGINAL[name]))
        try:
            yield self
        finally:
            for module, attr in WRAPPED:
                setattr(module, attr, _ORIGINAL[f"{_layer(module)}.{attr}"])


def layer_metrics(spans, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass that took pass_s seconds.

    A span's self time is its duration minus that of its direct children;
    the layer self times plus pass.unattributed_s add up to pass_s.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_s = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        self_s[s[0].split(".")[0]] += dur[i] - child[i]

    def select(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    solves = select("cap.boundary_pair")
    points = [spans[i][4]["points"] for i in solves]
    roots = select("eigen.find_eigenvalue")
    root_set = set(roots)
    solves_in_newton = sum(1 for i in solves if spans[i][3] in root_set)
    secant = select("eigen.raw_compatibility_root")
    builds = select("quasimode.build_quasimode")
    calls = select("resolvent.resolvent_norm")
    scans = select("resolvent.scan_peaks")
    scan_set = set(scans)
    calls_in_scans = sum(1 for i in calls if spans[i][3] in scan_set)
    peaks = sum(spans[i][4]["peaks"] for i in scans)
    runs = select("evolve.evolve")
    steps = sum(spans[i][4]["steps"] for i in runs)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    values = {
        "cap.solves": (len(solves), "count"),
        "cap.points": (sum(points), "count"),
        "cap.max_points": (max(points, default=0), "count"),
        "cap.self_s": (self_s["cap"], "s"),
        "cap.ns_per_point": (ratio(self_s["cap"], sum(points), 1e9), "ns"),
        "eigen.newton_iters": (sum(spans[i][4]["iters"] for i in roots), "count"),
        "eigen.maxiter_runs": (sum(1 for i in roots
                                   if spans[i][4]["iters"] >= spans[i][4]["max_iter"]), "count"),
        "eigen.solves_per_root": (ratio(solves_in_newton, len(roots)), "ratio"),
        "eigen.secant_iters": (sum(spans[i][4]["iters"] for i in secant), "count"),
        "eigen.self_s": (self_s["eigen"], "s"),
        "quasimode.nodes": (sum(spans[i][4]["nodes"] for i in builds), "count"),
        "quasimode.s_per_build": (ratio(sum(dur[i] for i in builds), len(builds)), "s"),
        "quasimode.self_s": (self_s["quasimode"], "s"),
        "resolvent.calls": (len(calls), "count"),
        "resolvent.window_calls": (sum(1 for i in calls if spans[i][4]["coarse"]), "count"),
        "resolvent.calls_per_peak": (ratio(calls_in_scans, peaks), "ratio"),
        "resolvent.ms_per_call": (ratio(sum(dur[i] for i in calls), len(calls), 1e3), "ms"),
        "resolvent.self_s": (self_s["resolvent"], "s"),
        "evolve.us_per_step": (ratio(self_s["evolve"], steps, 1e6), "us"),
        "evolve.energy_s": (sum((dur[i] for i in select("evolve.discrete_energy")), 0.0), "s"),
        "evolve.self_s": (self_s["evolve"], "s"),
        "pass.unattributed_s": (pass_s - sum(self_s.values()), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def differing_counts(traced_spans):
    """Names in DETERMINISTIC_COUNTS whose value differs between traced passes.

    Every pass does the same work, so any difference means a pass was
    served from a cache or otherwise skipped work.
    """
    counts = [layer_metrics(spans, 0.0) for spans in traced_spans]
    return [k for k in DETERMINISTIC_COUNTS if len({c[k]["value"] for c in counts}) > 1]
