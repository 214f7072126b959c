"""Tests of the benchmark itself: span arithmetic, names, inputs, wrappers.

Run with the package sources on the path:
    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import os
import re
import signal
import time
from dataclasses import replace

import pytest

import probe
import run
import spans
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_self_time_of_nested_spans():
    recorded = [
        spans.Span("a", 0.0, 10.0),
        spans.Span("b", 1.0, 4.0, parent=0),
        spans.Span("c", 2.0, 3.0, parent=1),
        spans.Span("d", 5.0, 9.0, parent=0),
        spans.Span("b", 11.0, 12.0),
    ]
    assert spans.self_times(recorded) == pytest.approx(
        {"a": 10.0 - 3.0 - 4.0, "b": 2.0 + 1.0, "c": 1.0, "d": 4.0}
    )


def test_overlapping_children_are_covered_once():
    recorded = [
        spans.Span("p", 0.0, 10.0),
        spans.Span("x", 1.0, 5.0, parent=0),
        spans.Span("y", 3.0, 7.0, parent=0),
    ]
    assert spans.self_times(recorded)["p"] == pytest.approx(4.0)


def test_tracer_records_parents_and_self_time():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: [inner(), inner()])
    outer()
    # outer: 0..5, inner: 1..2 and 3..4
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert spans.self_times(tracer.spans) == {"outer": 3.0, "inner": 2.0}
    assert tracer.counts == {"outer.calls": 1, "inner.calls": 2}


def test_metric_and_workload_names():
    spec = run.benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(spec["per_layer"]) <= 128
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_benchmark_json_matches_the_tables():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        assert json.load(fh) == run.benchmark_spec()


@pytest.mark.parametrize("workload", ["verify", "emit"])
def test_seeded_inputs_are_deterministic_and_valid(workload):
    first = workloads.scenarios(workload, 7)
    assert first == workloads.scenarios(workload, 7)
    assert first != workloads.scenarios(workload, 8)
    for seed in range(50):
        for sc in workloads.scenarios(workload, seed):
            assert sc.validate() == []
            for spec in (dict(sc.u0), dict(sc.rho0)):
                assert spec.get("amp", 0.0) < 1.0


def test_suites_take_no_seeded_inputs():
    assert workloads.scenarios("suites", 1) == []
    assert isinstance(workloads.drawn_parameters("suites", 1), str)


@pytest.mark.parametrize("workload", ["verify", "emit"])
def test_seeded_pass_clears_every_gate(workload, tmp_path):
    result = workloads.run_pass(workload, 3, str(tmp_path))
    assert result.problems == []
    assert (result.attempted, result.failed) == (2, 0)
    assert 0.0 < result.worst_tol_ratio < 1.0


def test_gates_count_a_failing_status_and_a_wrong_header(tmp_path):
    from chflow.harness import PRESETS, run_scenario

    sc = PRESETS["zero"]
    manifest = run_scenario(sc, str(tmp_path))
    assert workloads.check_manifest(manifest, sc, str(tmp_path)) == []

    bad = dict(manifest, invariants=dict(manifest["invariants"]))
    bad["invariants"]["casimir"] = {"status": "fail", "value": 2.0, "tolerance": 1.0}
    assert len(workloads.check_manifest(bad, sc, str(tmp_path))) == 1
    assert max(workloads.manifest_ratios(bad)) == 2.0

    path = tmp_path / f"{sc.name}_trajectory.csv"
    path.write_text("t,x,u,rho\n")
    assert len(workloads.check_manifest(manifest, sc, str(tmp_path))) == 1


def test_decay_gate_is_a_lower_bound():
    assert workloads.tol_ratio("decay", {"value": 1.8, "tolerance": 0.9}) == 0.5
    assert workloads.tol_ratio("transport", {"value": 1e-5, "tolerance": 1e-4}) == \
        pytest.approx(0.1)
    assert workloads.tol_ratio("besov", {"value": 0.1, "tolerance": None}) is None


def test_wrappers_restore_every_name(tmp_path):
    from chflow.harness import PRESETS, run_scenario

    wrapped = spans.targets()
    originals = [t.get() for t in wrapped]
    tracer = spans.Tracer()
    sc = replace(PRESETS["zero"], diagnostics=("casimir", "transport", "formulation"))
    with pytest.raises(RuntimeError):
        with spans.traced(tracer, wrapped):
            assert all(t.get() is not o for t, o in zip(wrapped, originals))
            run_scenario(sc, str(tmp_path))
            raise RuntimeError("leave the traced block early")
    assert all(t.get() is o for t, o in zip(wrapped, originals))

    layers = spans.layer_metrics(tracer, wall_s=math.inf)
    assert layers["offgrid.calls"] > 0
    assert layers["offgrid.points"] == layers["offgrid.calls"] * sc.n
    assert layers["dynamics.steps"] == layers["dynamics.step_rk4.calls"]
    assert layers["dynamics.rhs.calls"] >= 4 * layers["dynamics.step_rk4.calls"]
    assert layers["harness.emit.files"] == 3     # trajectory, identities, manifest
    assert set(layers) <= set(run.PER_LAYER) | {
        f"{t.layer}.{k}" for t in wrapped for k in ("calls", "self_s")
    }



def test_sampler_probes_the_block_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    with probe.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 20 * probe.INTERVAL_S:
            sum(i * i for i in range(1000))
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    assert 0.0 < sampler.slowdown(start, end) < math.inf
    assert math.isnan(sampler.slowdown(end + 1.0, end + 2.0))
