"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Heavy runs are shared through module-scoped fixtures, and
the suites through conftest's session-scoped ``suite_reports``.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from chflow.besov import BesovIndex, besov_norm, k_max
from chflow.characteristics import check_flow_identities, evolve_flow
from chflow.dynamics import (
    Params,
    State,
    StepControl,
    integrate,
    rhs_m_form,
)
from chflow.harness import PRESETS, run_scenario
from chflow.profiles import band_limited_noise, gaussian
from chflow.spectral import Grid, RealField

from conftest import dealias, lp_decompose, reconstruct_rho, rhs_nonlocal, sobolev_norm

CH_PARAMS = Params(b=2.0, kappa=1.0, alpha=0.0, r=1.0)


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------


def _identity_run(n, dt, t_final=1.0):
    grid = Grid(20.0, n)
    ctrl = StepControl(cfl=1.0, dt_max=dt, t_final=t_final)
    times = np.arange(0.0, t_final + dt / 2, dt)
    traj = integrate(
        State(0.0, gaussian(grid, 0.7, 2.0), gaussian(grid, 0.5, 1.5)),
        CH_PARAMS, ctrl, output_times=times,
    )
    return traj, evolve_flow(traj)


@pytest.fixture(scope="module")
def identity_fine():
    return _identity_run(1024, 0.01)


@pytest.fixture(scope="module")
def identity_coarse():
    return _identity_run(512, 0.02)


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def test_criterion_01_formulation_equivalence():
    grid = Grid(20.0, 512)
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        u = dealias(band_limited_noise(grid, seed=seed, kmax_frac=0.25, amp=0.6))
        rho = dealias(
            band_limited_noise(grid, seed=seed + 500, kmax_frac=0.25, amp=0.4)
        )
        st = State(0.0, u, rho)
        du_a, dr_a = rhs_m_form(st, CH_PARAMS)
        du_b, dr_b = rhs_nonlocal(st, CH_PARAMS)
        for a, b in ((du_a, du_b), (dr_a, dr_b)):
            scale = max(np.max(np.abs(a.samples)), 1e-300)
            worst = max(worst, float(np.max(np.abs(a.samples - b.samples))) / scale)
    elapsed = time.perf_counter() - start
    _report(
        1, "formulation-equivalence",
        worst < 1e-10 and elapsed < 10.0,
        f"worst rel diff {worst:.3e} (tol 1e-10), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_casimir_conservation():
    from chflow.characteristics import casimir

    ok = True
    details = []
    for b in (2.0, 3.0):
        params = Params(b=b, kappa=1.0, alpha=0.0, r=1.0)
        drifts = []
        for dt in (0.02, 0.01):
            grid = Grid(20.0, 1024)
            rho0 = RealField(grid, 0.3 + gaussian(grid, 0.5, 1.5).samples)
            ctrl = StepControl(cfl=1.0, dt_max=dt, t_final=1.0)
            start = time.perf_counter()
            traj = integrate(
                State(0.0, gaussian(grid, 0.7, 2.0), rho0), params, ctrl,
                output_times=np.linspace(0.0, 1.0, 11),
            )
            elapsed = time.perf_counter() - start
            ok = ok and elapsed < 60.0
            vals = [casimir(RealField(traj.grid, rho), b) for rho in traj.rho]
            drifts.append(max(abs(v - vals[0]) for v in vals) / abs(vals[0]))
        base, half = drifts
        ok = ok and base < 1e-6
        # 4th-order integrator: halving dt must cut the drift 8x, unless the
        # drift already sits at the round-off floor (b = 2 conserves the
        # mean exactly on the grid, so both drifts are ~0)
        shrinks = (half <= base / 8.0) or (half < 1e-12)
        ok = ok and shrinks
        details.append(f"b={b:g}: drift {base:.2e} -> {half:.2e}")
    _report(2, "casimir-conservation", ok, "; ".join(details) + " (tol 1e-6, 8x)")


def test_criterion_03_transport_identity(identity_fine, identity_coarse):
    traj_f, flow_f = identity_fine
    traj_c, flow_c = identity_coarse
    dev_f, _ = check_flow_identities(*flow_f, traj_f, CH_PARAMS, momentum=False)
    dev_c, _ = check_flow_identities(*flow_c, traj_c, CH_PARAMS, momentum=False)
    ok = (
        dev_f[0] == 0.0
        and float(np.max(dev_f)) < 1e-4
        and float(np.max(dev_f)) < float(np.max(dev_c))
    )
    _report(
        3, "transport-identity", ok,
        f"max dev {np.max(dev_f):.3e} at n=1024 (tol 1e-4), "
        f"coarse {np.max(dev_c):.3e}, t=0 dev {dev_f[0]:.1e}",
    )


def test_criterion_04_representation_formula(identity_fine):
    traj, flow = identity_fine
    rec = reconstruct_rho(flow, traj, CH_PARAMS.b)
    i_half = int(np.argmin(np.abs(traj.times - 0.5)))
    assert traj.times[i_half] == pytest.approx(0.5, abs=1e-12)
    err = float(
        np.max(np.abs(rec[i_half].samples - traj.rho[i_half]))
    )
    _report(
        4, "representation-formula", err < 1e-4,
        f"sup error {err:.3e} at t=0.5, n=1024 (tol 1e-4)",
    )


def test_criterion_05_momentum_flow_identity(identity_fine, identity_coarse):
    traj_f, flow_f = identity_fine
    traj_c, flow_c = identity_coarse
    _, dev_f = check_flow_identities(*flow_f, traj_f, CH_PARAMS)
    _, dev_c = check_flow_identities(*flow_c, traj_c, CH_PARAMS)
    ok = float(np.max(dev_f)) < 1e-4 and float(np.max(dev_f)) < float(np.max(dev_c))
    _report(
        5, "momentum-flow-identity", ok,
        f"max dev {np.max(dev_f):.3e} (tol 1e-4), coarse {np.max(dev_c):.3e}",
    )


def test_criterion_06_support_containment(out_root):
    manifest = run_scenario(
        replace(PRESETS["support"], name="acc_support"), str(out_root / "support")
    )
    entry = manifest["invariants"]["support"]
    _report(
        6, "support-containment", entry["status"] == "pass",
        f"contained fraction {entry.get('value')} over t in [0, 1] "
        "(rho and m, threshold 1e-10, slack 2dx)",
    )


def test_criterion_07_continuous_dependence(suite_reports):
    _, report = suite_reports["stability"]
    lin, held = report["checks"]["linearity"], report["checks"]["heldout"]
    # sup_du/eps within 20%, and every held-out growth rate under C_hat;
    # the linearity value is the spread of the table's ratios up to round-off
    lr = report["linearity_ratios"]
    ok = (lin["tolerance"] == 0.2 and held["tolerance"] == 1.0
          and math.isclose(lin["value"], max(lr) / min(lr) - 1.0, rel_tol=1e-9)
          and max(lr) / min(lr) <= 1.2 and held["value"] < 1.0
          and lin["status"] == held["status"] == "pass")
    _report(
        7, "continuous-dependence", ok,
        f"linearity ratios {['%.3f' % r for r in report['linearity_ratios']]} "
        f"(within 20%), held-out growth at most {held['value']:.3f} of C_hat "
        f"{report['C_hat']:.3f} on 2 held-out sets",
    )


def test_criterion_08_iteration_scheme(suite_reports):
    _, report = suite_reports["friedrichs"]
    ratios = report["ratios"][1:]       # between iterates 2..6
    check = report["checks"]["contraction"]
    ok = (check["tolerance"] == 0.8 and check["value"] == max(ratios)
          and all(r < 0.8 for r in ratios) and report["pass"])
    _report(
        8, "iteration-convergence", ok,
        f"error ratios {['%.3f' % r for r in ratios]} (each < 0.8) at T=0.1",
    )


def test_criterion_09_weighted_persistence(suite_reports):
    out, report = suite_reports["persistence"]
    assert sorted(os.listdir(out)) == ["persistence_battery.csv", "persistence_report.json"]
    checks = report["checks"]
    ok = (
        checks["residual"]["tolerance"] == math.log(1.05)
        and checks["residual"]["value"] == report["worst_fit_residual"] < math.log(1.05)
        and checks["L_doubling"]["tolerance"] == 0.01
        and checks["L_doubling"]["value"] == report["worst_L_doubling_shift"] <= 0.01
        and checks["bound"]["tolerance"] == checks["bound"]["value"] == 1.0
        and report["pass"]
    )
    _report(
        9, "weighted-persistence", ok,
        f"worst log-affine residual {report['worst_fit_residual']:.4f} "
        f"(< {math.log(1.05):.4f}), worst L-doubling shift "
        f"{report['worst_L_doubling_shift']:.4f} (<= 0.01)",
    )


def test_criterion_10_exponential_decay(out_root):
    manifest = run_scenario(
        replace(PRESETS["decay"], name="acc_decay", diagnostics=("decay",)),
        str(out_root / "decay"),
    )
    entry = manifest["invariants"]["decay"]
    _report(
        10, "exponential-decay-persistence", entry["status"] == "pass",
        f"min fitted tail rate {entry['value']:.4f} over all snapshots "
        "(>= 0.9, Gaussian data, L=40)",
    )


def test_criterion_11_besov_machinery():
    # (a) one-octave shift scales the norm by exactly 2^s
    g = Grid(np.pi, 128)
    f4 = RealField(g, np.sin(4 * g.x))
    f8 = RealField(g, np.sin(8 * g.x))
    worst_scaling = 0.0
    for s in (0.5, 1.0, 2.0):
        ratio = besov_norm(f8, BesovIndex(s)) / besov_norm(f4, BesovIndex(s))
        worst_scaling = max(worst_scaling, abs(ratio - 2.0**s) / 2.0**s)

    # (b) squared-norm ratio to the Sobolev multiplier norm stays in the
    # interval given by enumerating the weight envelope per dyadic block
    grid = Grid(20.0, 256)
    s = 2.0
    axi = np.abs(grid.xi)
    lo, hi = np.inf, 0.0
    for k in range(-1, k_max(grid) + 1):
        sel = axi < 1.0 if k == -1 else (axi >= 2.0**k) & (axi < 2.0 ** (k + 1))
        if np.any(sel):
            vals = 2.0 ** (2 * k * s) / (1.0 + axi[sel] ** 2) ** s
            lo, hi = min(lo, vals.min()), max(hi, vals.max())
    ratios_ok = True
    for seed in range(50):
        f = band_limited_noise(grid, seed=seed, kmax_frac=0.5)
        ratio = besov_norm(f, BesovIndex(s)) ** 2 / sobolev_norm(f, s) ** 2
        ratios_ok = ratios_ok and lo * (1 - 1e-10) <= ratio <= hi * (1 + 1e-10)

    # (c) partition of unity: blocks reconstruct the input
    worst_rec = 0.0
    for style in ("sharp", "smooth"):
        for seed in (3, 4):
            f = band_limited_noise(grid, seed=seed, kmax_frac=0.5)
            total = np.sum([b.samples for b in lp_decompose(f, style).blocks], axis=0)
            worst_rec = max(worst_rec, float(np.max(np.abs(total - f.samples))))

    ok = worst_scaling < 1e-10 and ratios_ok and worst_rec < 1e-10
    _report(
        11, "besov-machinery", ok,
        f"octave scaling err {worst_scaling:.1e} (tol 1e-10), ratio in "
        f"[{lo:.3e}, {hi:.3e}] for 50 fields, reconstruction err "
        f"{worst_rec:.1e} (tol 1e-10)",
    )


def test_criterion_12_convergence(suite_reports):
    _, report = suite_reports["convergence"]
    orders = report["temporal"]["orders"]
    drops = report["spatial"]["drops"]
    spatial, temporal = report["checks"]["spatial"], report["checks"]["temporal"]
    # the 10x drop and the 1e-11 floor enter the spatial value, not its tolerance
    errs = report["spatial"]["sup_error"][1:]
    ok = (
        spatial["tolerance"] == 1.0
        and spatial["value"] == max(min(10.0 / d, e / 1e-11) for d, e in zip(drops, errs))
        and temporal["tolerance"] == 0.3
        and all(d >= 10.0 or e < 1e-11 for d, e in zip(drops, errs))
        and temporal["value"] == max(abs(o - 4.0) for o in orders)
        and all(abs(o - 4.0) <= 0.3 for o in orders)
        and report["pass"]
    )
    _report(
        12, "convergence", ok,
        f"spatial error drops {['%.0fx' % d for d in drops]} (>= 10x per "
        f"doubling to 1e-11 floor), temporal orders {['%.2f' % o for o in orders]} "
        "(4 +/- 0.3)",
    )
