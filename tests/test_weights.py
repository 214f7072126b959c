"""Weight family, admissibility, persistence monitor, decay fits."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from chflow.dynamics import Params, State, StepControl, Trajectory, integrate
from chflow.harness import NORM_PS, WEIGHT_BATTERY
from chflow.profiles import bump, gaussian, sech
from chflow.spectral import Grid, RealField
from chflow.weights import StandardWeight, decay_fits, fit_window, persistence_monitor

from conftest import (
    decay_profile,
    full_multiplier,
    full_xi,
    per_pair_persistence_monitor,
    svd_decay_fit,
)


class TestWeightFamily:
    def test_trivial_weight_is_one(self):
        w = StandardWeight()
        x = np.linspace(-50, 50, 101)
        assert np.all(w(x) == 1.0)

    def test_right_only_is_one_on_left(self):
        w = StandardWeight(a=0.9, b=1.0, side="right")
        x = np.array([-5.0, -1.0, 0.0, 1.0, 5.0])
        vals = w(x)
        assert np.all(vals[:3] == 1.0)
        assert vals[3] == pytest.approx(math.exp(0.9))
        assert vals[4] == pytest.approx(math.exp(4.5))

    def test_positive_everywhere(self):
        w = StandardWeight(a=0.5, b=0.5, c=-2.0, d=1.0)
        x = np.linspace(-80, 80, 1001)
        assert np.all(w(x) > 0.0)

    def test_admissible_flag(self):
        assert StandardWeight(a=0.9, b=1.0).admissible
        assert StandardWeight(a=0.0, b=0.0, c=3.0).admissible
        assert not StandardWeight(a=1.0, b=1.0).admissible
        assert not StandardWeight(a=-0.1, b=1.0).admissible


def _rho_only_W(rho, w, p):
    """The monitor's W on a run that holds u = 0 and rho fixed: ||rho w||_p."""
    y = np.zeros((2, 2, rho.grid.n))
    y[:, 1] = rho.samples
    traj = Trajectory(rho.grid, np.array([0.0, 1.0]), y, Params())
    W = persistence_monitor(traj, [w], [p])[w, p].W
    assert W[0] == W[1]
    return float(W[0])


def _short_run(L=40.0, n=2048, t_final=0.4):
    g = Grid(L, n)
    params = Params(b=2.0, kappa=1.0, alpha=0.0, r=1.0)
    ctrl = StepControl(t_final=t_final, dt_max=5e-3)
    return integrate(
        State(0.0, sech(g, 0.6, 1.2), gaussian(g, 0.4, 2.0)),
        params, ctrl, output_times=np.linspace(0.0, t_final, 6),
    )


class TestPersistenceMonitor:
    def test_battery_pass_equals_the_per_pair_monitor(self):
        traj = _short_run()
        reports = persistence_monitor(traj, WEIGHT_BATTERY, NORM_PS)
        assert list(reports) == [(w, p) for w in WEIGHT_BATTERY for p in NORM_PS]
        for (w, p), rep in reports.items():
            ref = per_pair_persistence_monitor(traj, w, p)
            assert np.array_equal(rep.W, ref.W), (w, p)
            assert np.array_equal(rep.sup_norms, ref.sup_norms), (w, p)
            assert (rep.C_hat, rep.residual, rep.bound_ok) == (
                ref.C_hat, ref.residual, ref.bound_ok), (w, p)
            assert (rep.M, rep.intercept, rep.p, rep.weight) == (
                ref.M, ref.intercept, p, w)

    def test_zero_data_stays_zero(self, grid20):
        params = Params()
        ctrl = StepControl(t_final=0.2, dt_max=5e-3)
        z = RealField(grid20, np.zeros(grid20.n))
        traj = integrate(State(0.0, z, z), params, ctrl,
                         output_times=np.linspace(0.0, 0.2, 5))
        w = StandardWeight(c=3.0)
        rep = persistence_monitor(traj, [w], [math.inf])[w, math.inf]
        assert np.all(rep.W == 0.0)
        assert rep.bound_ok

    def test_algebraic_weight_bounded_growth(self):
        traj = _short_run()
        reports = persistence_monitor(traj, [StandardWeight(c=3.0)], (1.0, 2.0, math.inf))
        assert len(reports) == 3
        for rep in reports.values():
            assert rep.bound_ok
            assert rep.residual < math.log(1.05)
            assert np.all(np.isfinite(rep.W))
            assert rep.M > 0

    def test_gaussian_data_algebraic_weight_sup(self):
        # Gaussian data with a cubic algebraic weight at p = inf: the sup is
        # carried by the bulk, stays finite, and grows at most linearly in
        # log scale along the run
        g = Grid(40.0, 2048)
        params = Params(b=2.0, kappa=1.0, alpha=0.0, r=1.0)
        ctrl = StepControl(t_final=0.4, dt_max=5e-3)
        traj = integrate(
            State(0.0, gaussian(g, 0.7, 2.5), gaussian(g, 0.5, 2.0)),
            params, ctrl, output_times=np.linspace(0.0, 0.4, 5),
        )
        w = StandardWeight(c=3.0)
        rep = persistence_monitor(traj, [w], [math.inf])[w, math.inf]
        assert np.all(np.isfinite(rep.W))
        assert rep.bound_ok

    def test_right_only_exponential_finite(self):
        traj = _short_run()
        w = StandardWeight(a=0.9, b=1.0, side="right")
        rep = persistence_monitor(traj, [w], [math.inf])[w, math.inf]
        assert np.all(np.isfinite(rep.W))
        assert rep.bound_ok

    def test_exponential_bound_constant_finite_on_window(self):
        # sup over snapshots of e^{|x|} (|u| + |u_x| + |rho|) on the tail
        # window stays finite and of one scale: the pointwise e^{-|x|}
        # envelope persists along the run
        traj = _short_run()
        g = traj.grid
        window = (np.abs(g.x) >= 9.0) & (np.abs(g.x) <= 14.0)
        c_prime = 0.0
        for u, rho in zip(traj.u, traj.rho):
            u_x = full_multiplier(1j * full_xi(g), u)
            tot = np.abs(u) + np.abs(u_x) + np.abs(rho)
            c_prime = max(c_prime, np.max(np.exp(np.abs(g.x[window])) * tot[window]))
        assert np.isfinite(c_prime)
        assert c_prime < 100.0

    def test_W_of_the_unit_weight_is_plain_l2(self, grid20):
        f = gaussian(grid20, 1.0, 2.0)
        expect = math.sqrt(grid20.dx * np.sum(f.samples**2))
        assert _rho_only_W(f, StandardWeight(), 2.0) == pytest.approx(expect, rel=1e-12)

    def test_W_half_exponential_sup(self):
        g = Grid(20.0, 1024)
        f = RealField(g, np.exp(-np.abs(g.x)))
        w = StandardWeight(a=0.5, b=1.0)
        assert _rho_only_W(f, w, math.inf) == pytest.approx(1.0, rel=1e-12)

    def test_W_of_a_bump_against_quadrature_oracle(self):
        # the bump is centered away from the weight's |x| kink so the grid
        # quadrature sees a smooth integrand and keeps spectral accuracy
        g = Grid(20.0, 2048)
        width, center = 2.0, 5.0
        f = bump(g, 1.0, width, center)
        got = _rho_only_W(f, StandardWeight(c=2.0), 1.0)

        def integrand(x):
            xi = (x - center) / width
            if abs(xi) >= 1.0:
                return 0.0
            return math.exp(-1.0 / (1.0 - xi * xi)) * (1.0 + abs(x)) ** 2

        oracle, _ = quad(integrand, center - width, center + width, limit=200)
        assert got == pytest.approx(oracle, rel=1e-8)

    def test_inadmissible_weight_rejected_by_default(self):
        traj = _short_run()
        with pytest.raises(ValueError, match="admissible"):
            persistence_monitor(traj, [StandardWeight(c=1.0), StandardWeight(a=1.0, b=1.0)],
                                [math.inf])


def _assert_unfitted(fit):
    """decay_fits gave the row NaN fits: too few usable samples to fit."""
    assert all(math.isnan(v) for v in
               (fit.a_hat, fit.c_hat, fit.residual_exp, fit.residual_alg)), fit


class TestDecayProfile:
    def test_synthetic_exponential_rate(self):
        g = Grid(40.0, 2048)
        f = RealField(g, np.exp(-0.5 * np.abs(g.x)))
        fit = decay_profile(f)
        assert fit.a_hat == pytest.approx(0.5, abs=0.02)

    def test_constant_has_zero_rates(self):
        g = Grid(40.0, 2048)
        f = RealField(g, np.full(g.n, 0.7))
        fit = decay_profile(f)
        assert fit.a_hat == pytest.approx(0.0, abs=1e-12)
        assert fit.c_hat == pytest.approx(0.0, abs=1e-12)

    def test_synthetic_algebraic_rate(self):
        g = Grid(40.0, 2048)
        f = RealField(g, (1.0 + np.abs(g.x)) ** (-3.0))
        fit = decay_profile(f)
        assert fit.c_hat == pytest.approx(3.0, abs=0.1)

    def test_all_zero_window_rejected(self):
        g = Grid(40.0, 2048)
        f = RealField(g, np.where(np.abs(g.x) < 5.0, 1.0, 0.0))
        _assert_unfitted(decay_profile(f, window=(10.0, 20.0)))
        # no grid point in the window
        _assert_unfitted(decay_profile(f, window=(50.0, 60.0)))

    def test_bad_window_rejected(self):
        g = Grid(40.0, 2048)
        with pytest.raises(ValueError):
            fit_window(g, window=(5.0, 2.0))

    def test_one_usable_sample_rejected(self):
        # a lone sample gives no slope; neither do two at the same |x|
        g = Grid(40.0, 2048)
        _, cols = fit_window(g, (10.0, 20.0))
        j = np.flatnonzero(cols)[5]
        one = np.zeros(g.n)
        one[j] = 0.5
        _assert_unfitted(decay_profile(RealField(g, one), window=(10.0, 20.0)))
        mirrored = one.copy()
        mirrored[g.n - j] = 0.25       # x[n - j] = -x[j]
        _assert_unfitted(decay_profile(RealField(g, mirrored), window=(10.0, 20.0)))

    def test_two_usable_samples_fit_their_line(self):
        g = Grid(40.0, 2048)
        f = np.zeros(g.n)
        _, cols = fit_window(g, (10.0, 20.0))
        idx = np.flatnonzero(cols & (g.x > 0))[[3, 40]]
        f[idx] = np.exp(-0.8 * g.x[idx])
        fit = decay_profile(RealField(g, f), window=(10.0, 20.0))
        assert fit.n_points == 2
        assert fit.a_hat == pytest.approx(0.8, rel=1e-12)
        assert fit.residual_exp == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_row_fits_match_the_svd_fit(self, seed):
        # random windows: rows fully usable, partly masked (zeros and
        # samples at the 1e-300 floor), with one usable sample, and empty
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 300))
        x = np.sort(rng.uniform(0.0, 30.0, m))
        rates = rng.uniform(0.2, 3.0, (12, 1))
        a = np.exp(-rates * x + rng.normal(0.0, 0.5, (12, m)) + rng.uniform(-5, 5, (12, 1)))
        a[3:6] *= rng.random((3, m)) < 0.5
        a[6, rng.random(m) < 0.5] = 1e-300
        a[7] = 0.0
        a[8] = 0.0
        a[8, m // 2] = 1.0
        a[9, : m // 2] = 0.0
        got = decay_fits(x, a)
        for i, row in enumerate(a):
            want = svd_decay_fit(x, row)
            if want is None or want[-1] < 2:
                assert all(np.isnan(v[i]) for v in got[:4]), i
                continue
            assert got[4][i] == want[4]
            rates, residuals = [v[i] for v in got[:2]], [v[i] for v in got[2:4]]
            np.testing.assert_allclose(rates, want[:2], rtol=1e-12, err_msg=f"row {i}")
            # a line through two samples leaves residuals of round-off only
            np.testing.assert_allclose(residuals, want[2:4], rtol=1e-12,
                                       atol=1e-12 if want[4] == 2 else 0.0, err_msg=f"row {i}")

    def test_profile_is_the_one_row_case(self):
        g = Grid(40.0, 2048)
        rng = np.random.default_rng(3)
        samples = np.exp(-0.6 * np.abs(g.x)) * rng.uniform(0.5, 2.0, (4, g.n))
        (lo, hi), cols = fit_window(g)
        rows = decay_fits(np.abs(g.x[cols]), samples[:, cols])
        for i, f in enumerate(samples):
            fit = decay_profile(RealField(g, f))
            assert (fit.a_hat, fit.c_hat, fit.residual_exp, fit.residual_alg, fit.n_points) \
                == tuple(v[i] for v in rows)
            assert fit.window == (lo, hi)
