"""Flow map, transport identities, conservation, and support tracking."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from chflow.characteristics import (
    FlowDegeneracyError,
    casimir,
    check_flow_identities,
    check_support_containment,
    evolve_flow,
    track_support,
)
from chflow.dynamics import Params, State, StepControl, Trajectory, integrate
from chflow.offgrid import evaluate
from chflow.profiles import bump, gaussian
from chflow.spectral import Grid, RealField, invert_inertia

from chflow.harness import PRESETS

from conftest import fieldwise_flow_identities, reconstruct_rho, stagewise_evolve_flow

CH_PARAMS = Params(b=2.0, kappa=1.0, alpha=0.0, r=1.0)


def _const_trajectory(grid, c, times, params=CH_PARAMS):
    y = np.zeros((len(times), 2, grid.n))
    y[:, 0] = c
    return Trajectory(grid, times, y, params)


def _run(grid, u0, rho0, t_final, dt, params=CH_PARAMS, nsnap=None):
    ctrl = StepControl(cfl=1.0, dt_max=dt, t_final=t_final)
    nsnap = nsnap or (int(round(t_final / dt)) + 1)
    times = np.linspace(0.0, t_final, nsnap)
    return integrate(State(0.0, u0, rho0), params, ctrl, output_times=times)


class TestEvolveFlow:
    def test_zero_velocity_identity_flow(self, grid20):
        times = np.linspace(0.0, 1.0, 9)
        traj = _const_trajectory(grid20, 0.0, times)
        phi, phi_x = evolve_flow(traj)
        for p, p_x in zip(phi, phi_x):
            assert np.array_equal(p, grid20.x)
            assert np.all(p_x == 1.0)

    def test_constant_velocity_translates(self, grid20):
        c = 0.7
        times = np.linspace(0.0, 1.0, 9)
        traj = _const_trajectory(grid20, c, times)
        phi, phi_x = evolve_flow(traj)
        for t, p, p_x in zip(times, phi, phi_x):
            assert np.max(np.abs(p - (grid20.x + c * t))) < 1e-12
            assert np.max(np.abs(p_x - 1.0)) < 1e-12

    def test_phi_x_matches_exponential_quadrature(self):
        # the flow derivative solves d(phi_x)/dt = u_x(t, phi) phi_x, so
        # phi_x = exp(int u_x(s, phi(s)) ds); check against Simpson quadrature
        g = Grid(20.0, 256)
        traj = _run(g, gaussian(g, 0.5, 2.0), gaussian(g, 0.3, 1.5), 0.2, 1e-3)
        phi, phi_x = evolve_flow(traj)
        ux_series = np.empty((len(phi), g.n))
        for i, (p, u) in enumerate(zip(phi, traj.u)):
            _, dvals = evaluate(RealField(g, u), p, deriv=True)
            ux_series[i] = dvals
        integral = simpson(ux_series, x=traj.times, axis=0)
        expect = np.exp(integral)
        got = phi_x[-1]
        assert np.max(np.abs(got - expect) / expect) < 1e-8

    @pytest.mark.parametrize("preset", ["2cch", "hkmetric"])
    def test_spreading_once_matches_per_stage_evaluation(self, preset):
        # the flow spreads each step's coefficients once and the checks read
        # rho and m in one call; both equal one evaluation per stage and per
        # field, bit for bit
        sc = replace(PRESETS[preset], t_final=0.1, snapshots=11)
        _, params, ctrl, state0 = sc.build()
        traj = integrate(state0, params, ctrl, sc.output_times())
        phi, phi_x = evolve_flow(traj)
        ref_phi, ref_phi_x = stagewise_evolve_flow(traj)
        assert np.array_equal(phi, ref_phi) and np.array_equal(phi_x, ref_phi_x)
        assert np.any(phi[-1] != phi[0])
        for momentum in (True, False):
            transport, mflow = check_flow_identities(phi, phi_x, traj, params, momentum)
            ref_transport, ref_mflow = fieldwise_flow_identities(phi, phi_x, traj, params, momentum)
            assert np.array_equal(transport, ref_transport)
            if momentum:
                assert np.array_equal(mflow, ref_mflow)
            else:
                assert mflow is None

    def test_rejects_sparse_snapshots(self, grid20):
        traj = _run(grid20, gaussian(grid20, 0.3, 2.0),
                    RealField(grid20, np.zeros(grid20.n)), 0.2, 1e-3, nsnap=3)
        assert traj.max_dt > 0
        with pytest.raises(ValueError, match="stride"):
            evolve_flow(traj)

    def test_monotonicity_guard(self, grid20):
        # u = -5 tanh(4x) squeezes the markers into x = 0; one RK4 step of
        # 0.5 through the steep compression carries them past each other
        times = np.linspace(0.0, 1.0, 3)
        y = np.zeros((len(times), 2, grid20.n))
        y[:, 0] = -5.0 * np.tanh(4.0 * grid20.x)
        traj = Trajectory(grid20, times, y, CH_PARAMS)
        with pytest.raises(FlowDegeneracyError, match="monotonicity at t=0.5"):
            evolve_flow(traj)


class TestTransportIdentity:
    def test_exact_zero_at_t0(self, grid20):
        traj = _run(grid20, gaussian(grid20, 0.5, 2.0), gaussian(grid20, 0.4, 1.5),
                    0.05, 5e-3)
        devs, _ = check_flow_identities(*evolve_flow(traj), traj, CH_PARAMS, momentum=False)
        assert devs[0] == 0.0

    def test_zero_rho_stays_zero(self, grid20):
        traj = _run(grid20, gaussian(grid20, 0.5, 2.0),
                    RealField(grid20, np.zeros(grid20.n)), 0.2, 2e-3)
        devs, _ = check_flow_identities(*evolve_flow(traj), traj, CH_PARAMS, momentum=False)
        assert np.max(devs) < 1e-12

    def test_smooth_run_deviation_small(self):
        g = Grid(20.0, 512)
        traj = _run(g, gaussian(g, 0.5, 2.0), gaussian(g, 0.4, 1.5), 0.5, 5e-3)
        devs, _ = check_flow_identities(*evolve_flow(traj), traj, CH_PARAMS, momentum=False)
        assert np.max(devs) < 1e-5


class TestSupBoundAlongFlow:
    def test_rho_sup_controlled_by_slope_history(self):
        # wherever (b-1) u_x >= -M1 along the flow, the density sup obeys
        # max|rho(t)| <= exp(M1 t) max|rho_0|; M1 is measured from the run
        g = Grid(20.0, 512)
        b = 2.0
        traj = _run(g, gaussian(g, 0.5, 2.0), gaussian(g, 0.4, 1.5), 0.5, 5e-3)
        phi, _ = evolve_flow(traj)
        m1 = 0.0
        for p, u in zip(phi, traj.u):
            _, ux_at_phi = evaluate(RealField(g, u), p, deriv=True)
            m1 = max(m1, float(np.max(-(b - 1.0) * ux_at_phi)))
        rho0_max = np.max(np.abs(traj.rho[0]))
        for t, rho in zip(traj.times, traj.rho):
            bound = math.exp(m1 * t) * rho0_max
            assert np.max(np.abs(rho)) <= bound * (1 + 1e-10)


class TestCasimir:
    def test_zero_field(self, grid20):
        assert casimir(RealField(grid20, np.zeros(grid20.n)), 2.0) == 0.0

    def test_gaussian_integral_oracle(self):
        g = Grid(20.0, 1024)
        rho = RealField(g, np.exp(-g.x**2))
        got = casimir(rho, 2.0)
        oracle, _ = quad(lambda x: math.exp(-(x**2)), -20.0, 20.0)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_b1_rejected(self, grid20):
        with pytest.raises(ValueError):
            casimir(RealField(grid20, np.ones(grid20.n)), 1.0)

    def test_b3_conservation_over_run(self):
        g = Grid(20.0, 512)
        rho0 = RealField(g, 0.3 + gaussian(g, 0.5, 1.5).samples)
        traj = _run(g, gaussian(g, 0.5, 2.0), rho0, 0.5, 5e-3,
                    params=Params(b=3.0, kappa=1.0, alpha=0.0, r=1.0))
        vals = [casimir(RealField(g, rho), 3.0) for rho in traj.rho]
        drift = max(abs(v - vals[0]) for v in vals) / vals[0]
        assert drift < 1e-6


class TestReconstructRho:
    def test_exact_at_t0(self, grid20):
        traj = _run(grid20, gaussian(grid20, 0.5, 2.0), gaussian(grid20, 0.4, 1.5),
                    0.05, 5e-3)
        rec = reconstruct_rho(evolve_flow(traj), traj, b=2.0)
        assert np.array_equal(rec[0].samples, traj.rho[0])

    def test_frozen_zero_velocity(self, grid20):
        times = np.linspace(0.0, 1.0, 9)
        rho = gaussian(grid20, 0.4, 1.5)
        y = np.zeros((len(times), 2, grid20.n))
        y[:, 1] = rho.samples
        traj = Trajectory(grid20, times, y, CH_PARAMS)
        rec = reconstruct_rho(evolve_flow(traj), traj, b=2.0)
        for r in rec:
            assert np.max(np.abs(r.samples - rho.samples)) < 1e-12

    def test_matches_solver_on_smooth_run(self):
        g = Grid(20.0, 512)
        traj = _run(g, gaussian(g, 0.5, 2.0), gaussian(g, 0.4, 1.5), 0.5, 5e-3)
        rec = reconstruct_rho(evolve_flow(traj), traj, b=2.0)
        err = np.max(np.abs(rec[-1].samples - traj.rho[-1]))
        assert err < 1e-4


class TestMFlowIdentity:
    def test_exact_zero_at_t0(self, grid20):
        traj = _run(grid20, gaussian(grid20, 0.5, 2.0), gaussian(grid20, 0.4, 1.5),
                    0.05, 5e-3)
        _, devs = check_flow_identities(*evolve_flow(traj), traj, CH_PARAMS)
        assert devs[0] == 0.0

    def test_requires_zero_alpha(self, grid20):
        traj = _run(grid20, gaussian(grid20, 0.5, 2.0), gaussian(grid20, 0.4, 1.5),
                    0.05, 5e-3, params=Params(b=2.0, kappa=1.0, alpha=0.5, r=1.0))
        flow = evolve_flow(traj)
        with pytest.raises(ValueError, match="alpha"):
            check_flow_identities(*flow, traj, Params(b=2.0, kappa=1.0, alpha=0.5))

    def test_pure_transport_when_kappa_zero(self):
        # kappa = 0, rho = 0: m phi_x^b is carried unchanged along the flow
        g = Grid(20.0, 512)
        params = Params(b=2.0, kappa=0.0, alpha=0.0, r=1.0)
        traj = _run(g, gaussian(g, 0.5, 2.0), RealField(g, np.zeros(g.n)),
                    0.5, 5e-3, params=params)
        _, devs = check_flow_identities(*evolve_flow(traj), traj, params)
        assert np.max(devs) < 1e-5

    def test_coupled_run_small_deviation(self):
        g = Grid(20.0, 512)
        traj = _run(g, gaussian(g, 0.5, 2.0), gaussian(g, 0.4, 1.5), 0.5, 5e-3)
        _, devs = check_flow_identities(*evolve_flow(traj), traj, CH_PARAMS)
        assert np.max(devs) < 1e-4


class TestSupport:
    def test_bump_readoff(self, grid20):
        w = 1.0
        f = bump(grid20, 1.0, w)
        sup = track_support(f)
        assert sup.beta == pytest.approx(-w, abs=2 * grid20.dx)
        assert sup.gamma == pytest.approx(w, abs=2 * grid20.dx)

    def test_zero_field_has_no_support(self, grid20):
        assert track_support(RealField(grid20, np.zeros(grid20.n))) is None

    def test_velocity_leaks_outside_momentum_support(self, grid20):
        # the inverse inertia kernel has exponential tails: u = A^{-1} m
        # cannot stay compactly supported even when m is
        m0 = bump(grid20, 0.5, 2.0)
        u0 = invert_inertia(m0, 1.0)
        sup_m = track_support(m0)
        sup_u = track_support(u0)
        assert sup_u.beta < sup_m.beta - 2 * grid20.dx
        assert sup_u.gamma > sup_m.gamma + 2 * grid20.dx

    def test_containment_on_bump_run(self):
        g = Grid(20.0, 1024)
        m0 = bump(g, 0.5, 2.0)
        u0 = invert_inertia(m0, 1.0)
        rho0 = bump(g, 0.5, 2.0)
        traj = _run(g, u0, rho0, 0.5, 5e-3)
        phi, _ = evolve_flow(traj)
        report = check_support_containment(phi, traj, CH_PARAMS)
        assert report.checked_m
        assert report.all_contained

    def test_containment_from_rest(self):
        # u_0 = 0 gives m_0 = 0: m is born from the coupling on the support
        # of rho, so rho_0's support is the reference interval of both
        g = Grid(20.0, 256)
        traj = _run(g, RealField(g, np.zeros(g.n)), bump(g, 0.5, 2.0), 0.2, 5e-3)
        phi, _ = evolve_flow(traj)
        report = check_support_containment(phi, traj, CH_PARAMS)
        assert report.checked_m
        assert report.m_support[0] is None
        assert all(s is not None for s in report.m_support[1:])
        assert report.flow_interval_m == report.flow_interval_rho
        assert report.all_contained

    def test_empty_rho_rejected(self, grid20):
        traj = _run(grid20, gaussian(grid20, 0.3, 2.0),
                    RealField(grid20, np.zeros(grid20.n)), 0.05, 5e-3)
        phi, _ = evolve_flow(traj)
        with pytest.raises(ValueError, match="support"):
            check_support_containment(phi, traj, CH_PARAMS)
