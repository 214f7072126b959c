"""Span tracing for the benchmark's traced run, applied from outside chflow.

Each traced layer is a public chflow function wrapped *where it is looked
up*: a module attribute that callers reach through the module, an entry of
a dispatch table, or a name a module imported into its own namespace.  The
wrappers record a span (name, start, end, parent) per call and a few counts;
``traced()`` installs them and restores every original name on exit.

A layer's self time is its spans' durations minus the time their child
spans cover.  No file of chflow is changed to trace it.
"""

import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int = None       # index of the enclosing span, or None


class Tracer:
    """Collects spans and counts in memory for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._open = []

    def span(self, name, fn, count=None):
        """Wrap fn so each call records a span; count(tracer, args, result)."""

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            rec = Span(name, self.clock(), None, self._open[-1] if self._open else None)
            self.spans.append(rec)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = self.clock()
                self._open.pop()
            self.counts[f"{name}.calls"] += 1
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so calls are counted without a span (cheap, hot helpers)."""

        def wrapper(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Total self time per span name: duration minus child coverage."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = defaultdict(float)
    for i, sp in enumerate(spans):
        out[sp.name] += (sp.end - sp.start) - _covered(children.get(i, ()))
    return dict(out)


# ---------------------------------------------------------------------------
# What is traced
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One name to wrap: owner[key] for a dict, owner.key otherwise."""

    owner: object
    key: str
    layer: str
    kind: str = "span"       # "span" or "counter"
    count: object = None     # extra count hook for spans

    def get(self):
        if isinstance(self.owner, dict):
            return self.owner[self.key]
        return vars(self.owner)[self.key]

    def set(self, value):
        if isinstance(self.owner, dict):
            self.owner[self.key] = value
        else:
            setattr(self.owner, self.key, value)


def _count_points(tracer, args, result):
    tracer.counts["offgrid.points"] += len(args[2])


def _count_steps(tracer, args, result):
    tracer.counts["dynamics.steps"] += result.steps


def _count_bytes(tracer, args, result):
    tracer.counts["harness.emit.bytes"] += os.path.getsize(args[0])


# Module attributes wrapped as spans: (module, attribute, layer).  Each is
# looked up through its module by its callers.
_SPAN_ATTRS = (
    ("dynamics", "integrate", "dynamics.integrate"),
    ("dynamics", "step_rk4", "dynamics.step_rk4"),
    ("dynamics", "friedrichs_iterate", "dynamics.friedrichs_iterate"),
    ("dynamics", "stability_pair", "dynamics.stability_pair"),
    ("besov", "besov_norm", "besov.besov_norm"),
    ("besov", "lp_decompose", "besov.lp_decompose"),
    ("weights", "persistence_monitor", "weights.persistence_monitor"),
    ("characteristics", "evolve_flow", "characteristics.evolve_flow"),
    ("characteristics", "check_transport_identity", "characteristics.check_transport_identity"),
    ("characteristics", "check_m_flow_identity", "characteristics.check_m_flow_identity"),
    # imported into characteristics' namespace from offgrid
    ("characteristics", "evaluate_samples", "characteristics.evaluate_samples"),
    # the off-grid kernel: evolve_flow imports _kernels.trig_eval at call
    # time, offgrid imported its own binding
    ("_kernels", "trig_eval", "offgrid"),
    ("offgrid", "trig_eval", "offgrid"),
    ("harness", "write_csv", "harness.emit"),
    ("harness", "write_json", "harness.emit"),
)

_COUNTS = {
    "dynamics.integrate": _count_steps,
    "offgrid": _count_points,
    "harness.emit": _count_bytes,
}

# Cheap helpers counted without spans: (module, owner attribute or None,
# attribute, layer).  inertia_multiplier is imported into dynamics.
_COUNTER_ATTRS = (
    ("spectral", "Grid", "half_coeffs", "spectral.half_coeffs"),
    ("spectral", "Grid", "apply_multiplier", "spectral.apply_multiplier"),
    ("spectral", None, "inertia_multiplier", "spectral.inertia"),
    ("dynamics", None, "inertia_multiplier", "spectral.inertia"),
)

# Entry points: spans that frame a run rather than a layer of it.
ENTRY_LAYERS = ("harness.run_scenario", "harness.run_suite")


def _module(name):
    try:
        return importlib.import_module(f"chflow.{name}")
    except ImportError:
        return None


def targets():
    """Every name the traced run wraps, skipping any that no longer exist."""
    found = []
    harness = _module("harness")
    for fn in ("run_scenario", "run_suite"):
        found.append(Target(harness, fn, f"harness.{fn}"))
    for mod, attr, layer in _SPAN_ATTRS:
        module = _module(mod)
        if module is not None and attr in vars(module):
            found.append(Target(module, attr, layer, count=_COUNTS.get(layer)))
    dynamics = _module("dynamics")
    for key in getattr(dynamics, "_RHS", {}):
        found.append(Target(dynamics._RHS, key, "dynamics.rhs"))
    for key in getattr(harness, "DIAGNOSTICS", {}):
        found.append(Target(harness.DIAGNOSTICS, key, f"harness.diag.{key}"))
    for mod, owner, attr, layer in _COUNTER_ATTRS:
        module = _module(mod)
        obj = module if owner is None else getattr(module, owner, None)
        if obj is not None and attr in vars(obj):
            found.append(Target(obj, attr, layer, kind="counter"))
    return found


@contextmanager
def traced(tracer, wrap=None):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for t in wrap if wrap is not None else targets():
            original = t.get()
            saved.append((t, original))
            if t.kind == "counter":
                t.set(tracer.counter(t.layer, original))
            else:
                t.set(tracer.span(t.layer, original, t.count))
        yield tracer
    finally:
        for t, original in reversed(saved):
            t.set(original)


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced pass of wall time wall_s."""
    selfs = self_times(tracer.spans)
    out = {name: float(v) for name, v in tracer.counts.items()}
    for name, v in selfs.items():
        out[f"{name}.self_s"] = v
    out["harness.emit.files"] = out.get("harness.emit.calls", 0.0)
    points = out.get("offgrid.points", 0.0)
    out["offgrid.ns_per_point"] = (
        1e9 * out.get("offgrid.self_s", 0.0) / points if points else 0.0
    )
    attributed = sum(v for name, v in selfs.items() if name not in ENTRY_LAYERS)
    out["trace.unattributed_s"] = wall_s - attributed
    return out
