"""Workload passes of the chflow benchmark and the gates that check them.

A pass is one execution of a workload through the public entry points
``harness.run_scenario`` and ``harness.run_suite``.  Every run in a pass is
attempted and gated; a run fails when it raises, when its manifest reports
a diagnostic with status ``error`` or ``fail`` (or a blow-up), when a suite
reports ``pass: false``, or when a CSV it wrote carries a header other than
the one frozen in ``chflow.schema``.

Why each workload exists, and the layer shares measured on it, are in
README.md beside this file.
"""

import ctypes
import ctypes.util
import gc
import math
import os
import random
import time
import traceback
from dataclasses import dataclass, field, replace

WORKLOADS = ("verify", "suites", "emit")

SUITES = ("convergence", "stability", "friedrichs", "persistence")

# The verify presets run to VERIFY_T_FINAL instead of t = 1, with the
# presets' snapshot spacing of 0.01, so that a pass is short and a run
# holds about ten of them.  The grid sizes, and so the cost of each
# off-grid call, stay those of the presets.
VERIFY_T_FINAL = 0.25
VERIFY_SNAPSHOTS = 26

# The emit runs are dense in time: a snapshot every 0.005 up to t = 0.5.
# Their diagnostics are grid-level only, so they make no off-grid calls.
EMIT_T_FINAL = 0.5
EMIT_SNAPSHOTS = 101
EMIT_DIAGNOSTICS = ("casimir", "formulation", "besov", "decay")

# Gates whose value must stay above the tolerance; all others are upper bounds.
LOWER_BOUND_DIAGNOSTICS = ("decay",)

# Suite pass thresholds, mirroring the suite functions in chflow.harness.
CONVERGENCE_MIN_DROP = 10.0
CONVERGENCE_ERROR_FLOOR = 1e-11
CONVERGENCE_ORDER = 4.0
CONVERGENCE_ORDER_TOL = 0.3
STABILITY_LINEARITY = 1.2
FRIEDRICHS_MAX_RATIO = 0.8
PERSISTENCE_MAX_RESIDUAL = math.log(1.05)
PERSISTENCE_MAX_SHIFT = 0.01

# Seeded Gaussian draws: (amplitude, width, centre) ranges per profile.  The
# amplitudes stay below 1 so max|u| < 1 and the CFL step count, hence the
# work in a pass, does not depend on the seed.
_GAUSS_RANGES = {
    "2cch.u0": ((0.685, 0.715), (1.95, 2.05), (-0.1, 0.1)),
    "2cch.rho0": ((0.485, 0.515), (1.45, 1.55), (-0.1, 0.1)),
    "hkmetric.u0": ((0.385, 0.415), (1.95, 2.05), (-0.1, 0.1)),
    "decay.u0": ((0.685, 0.715), (2.45, 2.55), (-0.1, 0.1)),
    "decay.rho0": ((0.485, 0.515), (1.95, 2.05), (-0.1, 0.1)),
}


def _gaussian(rng, key):
    (a0, a1), (w0, w1), (c0, c1) = _GAUSS_RANGES[key]
    return (
        ("profile", "gaussian"),
        ("amp", round(rng.uniform(a0, a1), 6)),
        ("width", round(rng.uniform(w0, w1), 6)),
        ("center", round(rng.uniform(c0, c1), 6)),
    )


def scenarios(workload, seed):
    """The scenarios of one ``verify`` or ``emit`` pass, drawn from ``seed``.

    The same seed always gives the same scenarios.  ``suites`` carries the
    fixed data of the suite functions and has no scenarios.
    """
    from chflow.harness import PRESETS

    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        short = dict(t_final=VERIFY_T_FINAL, snapshots=VERIFY_SNAPSHOTS)
        return [
            replace(PRESETS["2cch"], **short, u0=_gaussian(rng, "2cch.u0"),
                    rho0=_gaussian(rng, "2cch.rho0")),
            replace(PRESETS["hkmetric"], **short, u0=_gaussian(rng, "hkmetric.u0")),
        ]
    if workload == "emit":
        dense = dict(t_final=EMIT_T_FINAL, snapshots=EMIT_SNAPSHOTS,
                     diagnostics=EMIT_DIAGNOSTICS)
        return [
            replace(PRESETS["decay"], **dense, u0=_gaussian(rng, "decay.u0"),
                    rho0=_gaussian(rng, "decay.rho0")),
            replace(PRESETS["2cch"], n=2048, **dense,
                    u0=_gaussian(rng, "2cch.u0"), rho0=_gaussian(rng, "2cch.rho0")),
        ]
    if workload == "suites":
        return []
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def drawn_parameters(workload, seed):
    """The seeded initial data of a pass, for the benchmark's output."""
    if workload == "suites":
        return "fixed suite data; the seed is not used"
    return {
        sc.name: {"u0": dict(sc.u0), "rho0": dict(sc.rho0)}
        for sc in scenarios(workload, seed)
    }


def setup_scenario(workload, seed):
    """The first scenario a pass builds; its build ends the set-up time."""
    from chflow.harness import PRESETS

    found = scenarios(workload, seed)
    return found[0] if found else replace(PRESETS["2cch"], n=256)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


def _csv_schema(name):
    from chflow import schema

    for suffix, columns in (
        ("_trajectory.csv", schema.TRAJECTORY_COLUMNS),
        ("_identities.csv", schema.IDENTITY_COLUMNS),
        ("_decay.csv", schema.DECAY_COLUMNS),
        ("_besov_u.csv", schema.BESOV_COLUMNS),
    ):
        if name.endswith(suffix):
            return columns
    if "_persistence_" in name and name.endswith(".csv"):
        return schema.PERSISTENCE_COLUMNS
    return None


def tol_ratio(name, inv):
    """How close a gated manifest value comes to its tolerance (1 = at it).

    None when the invariant has no numeric value or no tolerance.
    """
    value, tol = inv.get("value"), inv.get("tolerance")
    if value is None or tol is None:
        return None
    if name in LOWER_BOUND_DIAGNOSTICS:
        return tol / value if value > 0 else math.inf
    return value / tol


def check_manifest(manifest, scenario, out_dir):
    """Problems found in one run's manifest and files; empty when it passed."""
    from chflow import schema

    problems = []
    if set(manifest) != set(schema.MANIFEST_KEYS):
        problems.append(f"manifest keys {sorted(manifest)} differ from the schema")
    if manifest.get("schema_version") != schema.SCHEMA_VERSION:
        problems.append(f"schema_version {manifest.get('schema_version')!r}")
    if manifest.get("outcome") != "completed":
        problems.append(f"outcome {manifest.get('outcome')!r}")
    invariants = manifest.get("invariants", {})
    for diag in scenario.diagnostics:
        status = invariants.get(diag, {}).get("status")
        if status in (None, "error", "fail"):
            problems.append(f"diagnostic {diag}: {invariants.get(diag)}")
    for name in manifest.get("outputs", []):
        if not name.endswith(".csv"):
            continue
        expected = _csv_schema(name)
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name} listed but not written")
            continue
        with open(path) as fh:
            header = tuple(fh.readline().rstrip("\n").split(","))
        if expected is None or header != tuple(expected):
            problems.append(f"{name} header {header} differs from the schema")
    return problems


def manifest_ratios(manifest):
    return [
        r for name, inv in manifest.get("invariants", {}).items()
        if (r := tol_ratio(name, inv)) is not None
    ]


def suite_ratios(report):
    """Closeness of each suite threshold, value/limit (limit/value for floors)."""
    name = report["suite"]
    if name == "convergence":
        sp = report["spatial"]
        out = [
            min(CONVERGENCE_MIN_DROP / drop, err / CONVERGENCE_ERROR_FLOOR)
            for drop, err in zip(sp["drops"], sp["sup_error"][1:])
        ]
        out += [abs(o - CONVERGENCE_ORDER) / CONVERGENCE_ORDER_TOL
                for o in report["temporal"]["orders"]]
        return out
    if name == "stability":
        lin = report["linearity_ratios"]
        return [max(lin) / min(lin) / STABILITY_LINEARITY]
    if name == "friedrichs":
        return [max(report["ratios"][1:]) / FRIEDRICHS_MAX_RATIO]
    if name == "persistence":
        return [report["worst_fit_residual"] / PERSISTENCE_MAX_RESIDUAL,
                report["worst_L_doubling_shift"] / PERSISTENCE_MAX_SHIFT]
    return []


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    ratios: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    windows: list = field(default_factory=list)  # (name, start, end) per run

    @property
    def worst_tol_ratio(self):
        return max(self.ratios) if self.ratios else math.nan


def _release_heap():
    """Hand freed memory back to the OS between runs.

    A user runs one scenario per process.  Without this, whether the second
    run of a pass reuses the heap the first one freed depends on the exact
    sizes the seed gives, and a pass's peak memory jumps by 6% between
    seeds.  A no-op where the C library has no malloc_trim.
    """
    gc.collect()
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)


_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))


def jobs(workload, seed):
    """The runs of one pass: (name, scenario), scenario None for a suite."""
    if workload == "suites":
        return [(name, None) for name in SUITES]
    return [(sc.name, sc) for sc in scenarios(workload, seed)]


def run_job(result, name, scenario, out_dir):
    """Run one scenario or suite into out_dir, gate it and add it to result.

    The run's perf_counter window, gate included, goes to result.windows.
    """
    from chflow import harness

    result.attempted += 1
    t0 = time.perf_counter()
    try:
        if scenario is None:
            report = harness.run_suite(name, out_dir, workers=1)
            problems = [] if report.get("pass") is True else [f"suite report {report}"]
            ratios = suite_ratios(report)
        else:
            manifest = harness.run_scenario(scenario, out_dir)
            problems = check_manifest(manifest, scenario, out_dir)
            ratios = manifest_ratios(manifest)
    except Exception:
        problems = [traceback.format_exc()]
        ratios = []
    result.windows.append((name, t0, time.perf_counter()))
    _release_heap()
    result.ratios.extend(ratios)
    if problems:
        result.failed += 1
        result.problems.extend(f"{name}: {p}" for p in problems)


def run_pass(workload, seed, out_dir):
    """Run every scenario or suite of one pass into out_dir and gate it."""
    result = PassResult()
    for name, scenario in jobs(workload, seed):
        run_job(result, name, scenario, os.path.join(out_dir, name))
    return result
