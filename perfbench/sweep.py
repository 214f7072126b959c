"""Size sweep of the hot layers through chflow's public functions.

Best-of-k timings at n in SIZES of off-grid evaluation (values and
derivatives at n points), one m-form RHS evaluation and one RK4 step, plus
one flow-map evolution at n = 1024.  The inputs are fixed, not seeded: the
sweep measures the kernels, not the workload.
"""

import time

import numpy as np

SIZES = (256, 1024, 4096)
FLOW_N = 1024


def _best(fn, calls, batches=3):
    """Best time per call over `batches` timed batches of `calls` calls."""
    best = np.inf
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def _data(n, L=20.0):
    from chflow import Grid, Params, State
    from chflow.profiles import gaussian

    grid = Grid(L, n)
    state = State(0.0, gaussian(grid, 0.7, 2.0), gaussian(grid, 0.5, 1.5))
    return grid, state, Params(b=2.0, kappa=1.0, alpha=0.0, r=1.0)


def metric_names():
    names = []
    for n in SIZES:
        names += [f"offgrid.evaluate.n{n}.ns_per_point",
                  f"dynamics.rhs_m_form.n{n}.ms_per_call",
                  f"dynamics.step_rk4.n{n}.ms_per_call"]
    return names + [f"characteristics.evolve_flow.n{FLOW_N}.s"]


def run_sweep():
    from chflow import StepControl, evaluate, evolve_flow, integrate, rhs_m_form, step_rk4

    out = {}
    for n in SIZES:
        grid, state, params = _data(n)
        pts = np.random.default_rng(n).uniform(-grid.L, grid.L, n)
        calls = max(1, 1024 // n)
        t = _best(lambda: evaluate(state.u, pts, deriv=True), calls)
        out[f"offgrid.evaluate.n{n}.ns_per_point"] = 1e9 * t / n
        calls = max(1, 16384 // n)
        t = _best(lambda: rhs_m_form(state, params), calls)
        out[f"dynamics.rhs_m_form.n{n}.ms_per_call"] = 1e3 * t
        t = _best(lambda: step_rk4(state, params, 1e-3), max(1, calls // 4))
        out[f"dynamics.step_rk4.n{n}.ms_per_call"] = 1e3 * t

    grid, state, params = _data(FLOW_N)
    ctrl = StepControl(cfl=1.0, dt_max=0.01, t_final=0.1)
    traj = integrate(state, params, ctrl, output_times=np.linspace(0.0, 0.1, 11))
    out[f"characteristics.evolve_flow.n{FLOW_N}.s"] = _best(lambda: evolve_flow(traj), 1, 2)
    return out
