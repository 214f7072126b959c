#!/usr/bin/env python3
"""The chflow benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --write-benchmark-json

The passes of a workload run in fresh processes (perfbench/worker.py) with
BLAS pinned to one thread.  With --trace 0 the run samples set-up time in
SETUP_SAMPLES - 1 set-up-only processes, then repeats the runs of the
workload in one process while they fit in --seconds, and reports the
end-to-end metrics (see measure()).  With --trace 1 it runs one plain pass
and one traced pass of the same seed and reports the per-layer metrics of
the traced one, the tracing overhead and the size sweep.

The last line of standard output is the result object; the line before it
records the environment, the seeded inputs, the raw wall time and every
run.
--write-benchmark-json regenerates BENCHMARK.json from the tables below.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import sweep  # noqa: E402
import workloads  # noqa: E402

RUN_SECONDS = 42
SETUP_SAMPLES = 5
DEADLINE_S = 170          # a run must end within 180 s
_STARTED = time.perf_counter()
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOAD_WHY = {
    "verify": "flow-identity presets 2cch and hkmetric: off-grid evaluation and characteristics do almost all the work",
    "suites": "convergence, stability, friedrichs and persistence suites: no off-grid calls, work in dynamics, spectral, besov and weights",
    "emit": "dense-output decay and 2cch runs at n=2048 with grid-level diagnostics: CSV emission dominates",
}

# (name, unit, better, bound)
END_TO_END = (
    ("norm_wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("worst_tol_ratio", "ratio", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
)

_SPAN_LAYERS = (
    "dynamics.integrate", "dynamics.step_rk4", "dynamics.rhs",
    "dynamics.friedrichs_iterate", "dynamics.stability_pair",
    "besov.besov_norm", "besov.lp_decompose", "weights.persistence_monitor",
    "characteristics.evolve_flow", "characteristics.check_transport_identity",
    "characteristics.check_m_flow_identity", "characteristics.evaluate_samples",
)
_DIAGNOSTICS = ("casimir", "transport", "mflow", "formulation", "besov", "decay")


def _unit(name):
    if name.endswith("ns_per_point"):
        return "ns"
    if name.endswith("ms_per_call"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


PER_LAYER = tuple(
    [f"{layer}.{kind}" for layer in _SPAN_LAYERS for kind in ("calls", "self_s")]
    + ["dynamics.steps", "offgrid.calls", "offgrid.points", "offgrid.self_s",
       "offgrid.ns_per_point",
       "harness.emit.files", "harness.emit.bytes", "harness.emit.self_s"]
    + [f"harness.diag.{d}.self_s" for d in _DIAGNOSTICS]
    + ["harness.run_scenario.self_s", "harness.run_suite.self_s",
       "spectral.half_coeffs.calls", "spectral.apply_multiplier.calls",
       "spectral.inertia.calls", "trace.overhead_frac", "trace.unattributed_s"]
    + sweep.metric_names()
)


def benchmark_spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WORKLOAD_WHY[w]} for w in workloads.WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": _unit(n), "better": "lower"} for n in PER_LAYER
        ],
    }


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(worker_env, seed):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **worker_env,
        "blas_threads": THREAD_ENV,
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _worker(workload, seed, out_dir, *flags):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--out", out_dir, *flags]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=dict(os.environ, **THREAD_ENV), capture_output=True,
        text=True, timeout=max(1.0, DEADLINE_S - (time.perf_counter() - _STARTED)),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"benchmark worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, work_dir):
    """Set-up samples, then runs in one process while they fit in `seconds`.

    `norm_wall_s` adds up, over the runs of a pass, the median of each
    run's time divided by the host slowdown sampled during it (probe.py):
    a spell of contention on the shared host then neither stretches a pass
    nor shifts the median.  The raw wall time, the same sum without the
    division, is kept in the record line.
    """
    t_start = time.perf_counter()
    setups = [_worker(workload, seed, work_dir, "--setup-only")["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    budget = seconds - (time.perf_counter() - t_start) - statistics.median(setups)
    record = _worker(workload, seed, os.path.join(work_dir, "runs"),
                     "--seconds", f"{max(budget, 0.0):.3f}")
    setups.append(record["setup_s"])
    runs = record["runs"]
    names = dict.fromkeys(r["name"] for r in runs)
    metrics = {
        "norm_wall_s": sum(
            statistics.median(r["s"] / r["slowdown"] for r in runs if r["name"] == n)
            for n in names),
        "peak_rss_mb": record["peak_rss_mb"],
        "worst_tol_ratio": record["worst_tol_ratio"],
        "setup_s": statistics.median(setups),
    }
    extra = {
        "wall_s": sum(statistics.median(r["s"] for r in runs if r["name"] == n)
                      for n in names),
        "setup_s_samples": setups,
    }
    return [record], metrics, extra


def measure_traced(workload, seed, work_dir):
    """One plain and one traced pass of the same inputs."""
    plain = _worker(workload, seed, os.path.join(work_dir, "plain"))
    traced = _worker(workload, seed, os.path.join(work_dir, "traced"), "--trace")
    layers = traced.pop("layers")
    layers["trace.overhead_frac"] = (
        sum(r["s"] for r in traced["runs"]) / sum(r["s"] for r in plain["runs"]) - 1.0)
    metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
    extra = {name: v for name, v in layers.items() if name not in metrics}
    return [plain, traced], metrics, {"unlisted_layers": extra}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json at the repository root")
    args = parser.parse_args()

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(benchmark_spec(), fh, indent=2)
            fh.write("\n")
        return
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(ROOT, "src", "chflow")):
        sys.exit(f"chflow sources not found under {os.path.join(ROOT, 'src')}")

    work_dir = os.path.join(HERE, "_work", str(os.getpid()))
    try:
        if args.trace:
            records, metrics, extra = measure_traced(args.workload, args.seed, work_dir)
        else:
            records, metrics, extra = measure(args.workload, args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):   # left in place while another run uses it
            os.rmdir(os.path.dirname(work_dir))

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    units = {n: u for n, u, _, _ in END_TO_END}
    info = {
        "workload": args.workload,
        "environment": environment(records[0]["environment"], args.seed),
        "inputs": records[0]["inputs"],
        "failed_frac": failed / attempted,
        "workers": [{k: v for k, v in r.items() if k not in ("environment", "inputs")}
                    for r in records],
        **extra,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name) or _unit(name)}
            for name, value in metrics.items()
        },
    }))


if __name__ == "__main__":
    main()
