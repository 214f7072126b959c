"""Benchmark passes in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload verify --seed 1 --out DIR [--seconds S]
    python3 perfbench/worker.py --workload verify --seed 1 --out DIR --trace
    python3 perfbench/worker.py --workload verify --seed 1 --setup-only

Set-up time runs from before ``import chflow`` to the build of the pass's
first scenario.  A pass is every run of the workload, each with its outputs
written and gated, and the time of each run is recorded.  With --seconds
the runs go on round after round, in pass order, while the next one is
expected to end within S seconds, after at least one whole pass; without
it there is one pass.  Untraced runs go under probe.Sampler, which records
the host's slowdown during each.  Peak memory is this process's high-water
mark at the end of the first pass.  With --trace the pass runs under the
span wrappers of spans.py and the size sweep follows it.
"""

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_chflow():
    if not os.path.isdir(os.path.join(SRC, "chflow")):
        sys.exit(f"chflow sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import chflow

    if not os.path.abspath(chflow.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported chflow from {chflow.__file__}, not from {SRC}")
    return chflow


def environment(chflow):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "chflow.kernel_backend": getattr(chflow, "kernel_backend", "none"),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    chflow = _import_chflow()
    sys.path.insert(0, HERE)
    import workloads

    workloads.setup_scenario(args.workload, args.seed).build()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    import probe
    import spans

    tracer = spans.Tracer()
    sampler = probe.Sampler()
    todo = workloads.jobs(args.workload, args.seed)
    result = workloads.PassResult()
    t_start = time.perf_counter()
    with spans.traced(tracer) if args.trace else sampler:
        for i in itertools.count():
            name, scenario = todo[i % len(todo)]
            out = os.path.join(args.out, f"run{i}")
            workloads.run_job(result, name, scenario, out)
            shutil.rmtree(out, ignore_errors=True)
            if i + 1 == len(todo):
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if i + 1 < len(todo):
                continue
            if args.seconds is None:
                break
            following = todo[(i + 1) % len(todo)][0]
            typical = statistics.median(
                end - start for n, start, end in result.windows if n == following)
            if time.perf_counter() - t_start + typical > args.seconds:
                break
    runs = [{"name": n, "s": end - start, "slowdown": sampler.slowdown(start, end)}
            for n, start, end in result.windows]

    record = {
        "setup_s": setup_s,
        "runs": runs,
        "peak_rss_mb": peak_rss_mb,
        "attempted": result.attempted,
        "failed": result.failed,
        "worst_tol_ratio": result.worst_tol_ratio,
        "problems": result.problems,
        "environment": environment(chflow),
        "inputs": workloads.drawn_parameters(args.workload, args.seed),
    }
    if args.trace:
        import sweep

        record["layers"] = spans.layer_metrics(tracer, sum(r["s"] for r in runs))
        record["layers"].update(sweep.run_sweep())
    print(json.dumps(record))


if __name__ == "__main__":
    main()
