"""RHS formulations, time stepping, and the model's structural properties."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chflow import dynamics
from chflow.besov import BesovIndex, besov_norm
from chflow.dynamics import (
    BlowUpError,
    FormulationError,
    Params,
    StabilityResult,
    State,
    StepControl,
    Trajectory,
    _m_form,
    _nonlocal,
    friedrichs_iterate,
    integrate,
    integrate_ensemble,
    rhs_m_form,
    rhs_nonlocal,
    rk4,
    stability_pairs,
    step_rk4,
)
from chflow.profiles import band_limited_noise, gaussian
from chflow.spectral import ConfigurationError, Grid, RealField, apply_inertia, dealias, operators

from conftest import (
    full_xi,
    physical_friedrichs_iterate,
    serial_friedrichs_iterate,
    stage_by_stage_rk4,
    stepwise_integrate,
)


def _state(grid, u=None, rho=None, t=0.0):
    z = np.zeros(grid.n)
    return State(
        t,
        RealField(grid, z if u is None else u),
        RealField(grid, z if rho is None else rho),
    )


def _state_rows(state):
    return np.stack((state.u.samples, state.rho.samples))


def _random_state(grid, seed, amp=0.5):
    u = dealias(band_limited_noise(grid, seed=seed, kmax_frac=0.2, amp=amp))
    rho = dealias(band_limited_noise(grid, seed=seed + 1000, kmax_frac=0.2, amp=amp))
    return State(0.0, u, rho)


CH_PARAMS = Params(b=2.0, kappa=1.0, alpha=0.0, r=1.0)


class TestRhs:
    def test_zero_state_is_fixed_point(self, grid20):
        st = _state(grid20)
        for rhs in (rhs_m_form, rhs_nonlocal):
            du, drho = rhs(st, CH_PARAMS)
            assert np.all(du.samples == 0.0)
            assert np.all(drho.samples == 0.0)

    def test_constant_rho_contributes_nothing(self, grid20):
        st = _state(grid20, rho=np.full(grid20.n, 1.3))
        du, drho = rhs_m_form(st, Params(b=2.5, kappa=2.0, alpha=0.0))
        assert np.max(np.abs(du.samples)) < 1e-14
        assert np.max(np.abs(drho.samples)) < 1e-14

    @pytest.mark.parametrize("params", [
        Params(b=2.0, kappa=1.0, alpha=0.0, r=1.0),
        Params(b=3.0, kappa=-0.5, alpha=0.7, r=1.0),
        Params(b=0.0, kappa=2.0, alpha=-0.2, r=1.0),
    ])
    def test_formulations_agree_for_r1(self, grid20, params):
        st = _random_state(grid20, seed=17)
        du_a, dr_a = rhs_m_form(st, params)
        du_b, dr_b = rhs_nonlocal(st, params)
        scale = np.max(np.abs(du_a.samples))
        assert np.max(np.abs(du_a.samples - du_b.samples)) < 1e-10 * scale
        rho_scale = max(1e-30, np.max(np.abs(dr_a.samples)))
        assert np.max(np.abs(dr_a.samples - dr_b.samples)) < 1e-10 * rho_scale

    def test_variable_alpha_supported_in_m_form_only(self, grid20):
        # the nonlocal reduction folds alpha*u_x into d/dx(alpha*u), which
        # holds only for constant alpha; the m form takes a field fine
        alpha = dealias(band_limited_noise(grid20, seed=77, kmax_frac=0.1, amp=0.3))
        params = Params(b=2.0, kappa=1.0, alpha=alpha, r=1.0)
        st = _random_state(grid20, seed=18)
        du_a, _ = rhs_m_form(st, params)
        assert np.all(np.isfinite(du_a.samples))
        with pytest.raises(FormulationError):
            rhs_nonlocal(st, params)

    def test_nonlocal_requires_r1(self, grid20):
        st = _random_state(grid20, seed=3)
        with pytest.raises(FormulationError):
            rhs_nonlocal(st, Params(r=2.0))

    @settings(max_examples=60, deadline=None)
    @given(
        log2n=st.integers(5, 9),
        L=st.floats(0.5, 100.0),
        b=st.floats(-3.0, 5.0),
        kappa=st.floats(-3.0, 3.0),
        alpha=st.floats(-2.0, 2.0),
        kmax_frac=st.floats(0.05, 0.66),
        seed=st.integers(0, 2**31),
    )
    def test_formulations_agree_on_random_grids_and_params(
        self, log2n, L, b, kappa, alpha, kmax_frac, seed
    ):
        # the formulation diagnostic's relative bound, on dealiased
        # band-limited data over random grids and constant alpha
        grid = Grid(L, 2**log2n)
        u = dealias(band_limited_noise(grid, seed=seed, kmax_frac=kmax_frac, amp=0.8))
        rho = dealias(band_limited_noise(grid, seed=seed + 1, kmax_frac=kmax_frac, amp=0.5))
        state = State(0.0, u, rho)
        params = Params(b=b, kappa=kappa, alpha=alpha, r=1.0)
        for a, c in zip(rhs_m_form(state, params), rhs_nonlocal(state, params)):
            scale = max(np.max(np.abs(a.samples)), 1e-300)
            assert np.max(np.abs(a.samples - c.samples)) < 1e-10 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        log2n=st.integers(4, 10),
        L=st.floats(0.5, 100.0),
        r=st.floats(1.0, 3.0),
        use_dealias=st.booleans(),
        b=st.floats(-3.0, 5.0),
        kappa=st.floats(-3.0, 3.0),
        alpha=st.floats(-2.0, 2.0),
        field_alpha=st.booleans(),
        kmax_frac=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**31),
    )
    def test_m_form_matches_per_product_formula(
        self, log2n, L, r, use_dealias, b, kappa, alpha, field_alpha, kmax_frac, seed
    ):
        # the RHS sums each equation's products and dealiases once; here each
        # product is dealiased on its own, through the full complex FFT
        grid = Grid(L, 2**log2n)
        u = band_limited_noise(grid, seed=seed, kmax_frac=kmax_frac, amp=0.8).samples
        rho = band_limited_noise(grid, seed=seed + 1, kmax_frac=kmax_frac, amp=0.5).samples
        if field_alpha:
            a = band_limited_noise(grid, seed=seed + 2, kmax_frac=kmax_frac, amp=alpha)
            params = Params(b=b, kappa=kappa, alpha=a, r=r)
        else:
            params = Params(b=b, kappa=kappa, alpha=alpha, r=r)

        xi = full_xi(grid)
        mask = np.abs(xi) <= (2.0 / 3.0) * grid.xi_max + 1e-12 if use_dealias else 1.0
        inertia = (1.0 + xi**2) ** r

        def op(mult, f):
            return np.fft.ifft(mult * np.fft.fft(f)).real

        def prod(f, g):
            return op(mask, f * g)

        u_x, rho_x = op(1j * xi, u), op(1j * xi, rho)
        m, m_x = op(inertia, u), op(1j * xi * inertia, u)
        alpha_ux = prod(a.samples, u_x) if field_alpha else alpha * u_x
        m_terms = (alpha_ux, -b * prod(u_x, m), -prod(u, m_x), -kappa * prod(rho, rho_x))
        rho_terms = (-prod(u, rho_x), -(b - 1.0) * prod(u_x, rho))
        du_ref = op(1.0 / inertia, sum(m_terms))
        drho_ref = sum(rho_terms)

        du, drho = rhs_m_form(_state(grid, u, rho), params, use_dealias)
        for got, ref, terms in ((du, du_ref, m_terms), (drho, drho_ref, rho_terms)):
            scale = sum(np.linalg.norm(t) for t in terms)
            assert np.linalg.norm(got.samples - ref) <= 1e-12 * max(scale, 1e-300)

    @pytest.mark.parametrize("field_alpha", [False, True])
    @pytest.mark.parametrize("bad", ["u", "rho"])
    def test_m_form_raises_blowup_on_nan(self, grid20, bad, field_alpha):
        y = {"u": np.zeros(grid20.n), "rho": np.zeros(grid20.n)}
        y[bad][7] = np.nan
        alpha = RealField(grid20, np.ones(grid20.n)) if field_alpha else 0.5
        st_ = _state(grid20, y["u"], y["rho"], t=0.25)
        with pytest.raises(BlowUpError) as exc:
            rhs_m_form(st_, Params(b=2.0, kappa=0.0, alpha=alpha))
        assert exc.value.t == 0.25

    @pytest.mark.parametrize("use_dealias", [True, False])
    @pytest.mark.parametrize("rhs, alpha", [
        (_m_form, 0.0), (_m_form, 0.7), (_m_form, "field"), (_nonlocal, 0.0), (_nonlocal, -0.4),
    ])
    def test_stacked_rhs_equals_row_by_row(self, grid20, rhs, alpha, use_dealias):
        if alpha == "field":
            alpha = RealField(grid20, 0.5 + 0.3 * np.cos(np.pi * grid20.x / grid20.L))
        params = Params(b=2.5, kappa=0.8, alpha=alpha, r=1.0)
        ops = operators(grid20, params.r, use_dealias)
        ys = np.fft.rfft([np.stack((s.u.samples, s.rho.samples))
                          for s in (_random_state(grid20, seed, amp) for seed, amp in
                                    ((1, 0.3), (2, 1.7), (3, 0.9), (4, 2.4)))])
        t = np.array([0.0, 0.1, 0.2, 0.3])[:, None, None]
        stacked = rhs(ops, params, t, ys)
        assert stacked.shape == ys.shape
        for i, y in enumerate(ys):
            assert np.array_equal(stacked[i], rhs(ops, params, t[i, 0, 0], y))

    @pytest.mark.parametrize("rhs", [_m_form, _nonlocal])
    @pytest.mark.parametrize("bad_row", [(1, 0), (2, 1)])
    def test_stacked_rhs_names_the_member_with_a_nan(self, grid20, rhs, bad_row):
        ops = operators(grid20, 1.0, True)
        ys = np.stack([np.stack((s.u.samples, s.rho.samples))
                       for s in (_random_state(grid20, seed) for seed in range(3))])
        member, row = bad_row
        ys[member, row, 11] = np.nan
        t = np.array([0.0, 0.25, 0.5])[:, None, None]
        with pytest.raises(BlowUpError) as exc:
            rhs(ops, CH_PARAMS, t, np.fft.rfft(ys))
        assert exc.value.member == member
        assert exc.value.t == t[member, 0, 0]
        assert f"in member {member}" in str(exc.value)

    def test_blowup_error_carries_diagnostics(self, grid20):
        bad = np.full(grid20.n, np.nan)
        st = State(0.5, RealField(grid20, bad), RealField(grid20, np.zeros(grid20.n)))
        with pytest.raises(BlowUpError) as exc:
            rhs_m_form(st, CH_PARAMS)
        assert exc.value.t == 0.5


class TestStepRK4:
    @pytest.mark.parametrize("lam", [-3.0, -0.5, 0.7, 2.0])
    def test_linear_step_is_degree4_taylor_factor(self, lam):
        y0 = np.array([[1.0, -2.5, 0.3], [4.0, 1e-3, -7.0]])
        t0, h = 0.25, 0.1
        stage_times = []

        def f(t, y):
            stage_times.append(t)
            return lam * y

        z = lam * h
        factor = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
        y1 = rk4(f, t0, y0, h)
        assert np.max(np.abs(y1 - factor * y0)) <= 1e-15 * np.max(np.abs(factor * y0))
        assert stage_times == [t0, t0 + 0.5 * h, t0 + 0.5 * h, t0 + h]

    def test_zero_fixed_point(self, grid20):
        st = _state(grid20)
        out = step_rk4(st, CH_PARAMS, 1e-2)
        assert np.all(out.u.samples == 0.0)
        assert out.t == pytest.approx(1e-2)

    def test_single_step_matches_fine_reference(self):
        g = Grid(np.pi, 128)
        st = _state(g, u=np.sin(g.x))
        coarse = step_rk4(st, CH_PARAMS, 1e-3)
        fine = st
        for _ in range(10):
            fine = step_rk4(fine, CH_PARAMS, 1e-4)
        assert np.max(np.abs(coarse.u.samples - fine.u.samples)) < 1e-11

    def test_global_error_scales_as_dt4(self):
        # Richardson oracle: run to T at dt and dt/2 against a dt/8 reference;
        # the global error should drop ~16x per halving (factor-two slack)
        g = Grid(20.0, 256)
        st = _state(g, u=gaussian(g, 0.5, 2.0).samples, rho=gaussian(g, 0.3, 1.5).samples)
        T = 0.2

        def final_u(dt):
            s = st
            for _ in range(int(round(T / dt))):
                s = step_rk4(s, CH_PARAMS, dt)
            return s.u.samples

        oracle = final_u(0.0025)
        e1 = np.max(np.abs(final_u(0.02) - oracle))
        e2 = np.max(np.abs(final_u(0.01) - oracle))
        assert 8.0 < e1 / e2 < 32.0

    def test_one_step_local_defect_is_fifth_order(self):
        g = Grid(20.0, 256)
        st = _state(g, u=gaussian(g, 0.5, 2.0).samples, rho=gaussian(g, 0.3, 1.5).samples)

        def defect(dt):
            one = step_rk4(st, CH_PARAMS, dt)
            two = step_rk4(step_rk4(st, CH_PARAMS, dt / 2), CH_PARAMS, dt / 2)
            return np.max(np.abs(one.u.samples - two.u.samples))

        ratio = defect(0.02) / defect(0.01)
        assert 16.0 < ratio < 64.0    # local truncation error ~ dt^5


class TestConstructorsRejectNonFinite:
    @pytest.mark.parametrize("field, value", [
        ("dt_max", np.inf), ("dt_max", np.nan), ("t_final", np.inf), ("t_final", np.nan),
        ("t_final", 0.0), ("gradient_ceiling", np.nan), ("gradient_ceiling", 0.0),
    ])
    def test_step_control(self, field, value):
        with pytest.raises(ValueError, match=field):
            StepControl(**{field: value})

    def test_infinite_gradient_ceiling_switches_the_ceiling_off(self):
        assert StepControl(gradient_ceiling=np.inf).gradient_ceiling == np.inf

    @pytest.mark.parametrize("make, errors", [
        (lambda: Params(b=np.nan, r=0.5),
         ["b must be finite, got nan", "r must be >= 1, got 0.5"]),
        (lambda: StepControl(cfl=0, dt_max=np.nan),
         ["cfl must lie in (0, 1], got 0", "dt_max must be finite and positive, got nan"]),
    ], ids=("params", "step_control"))
    def test_every_bad_field_in_one_error(self, make, errors):
        with pytest.raises(ConfigurationError) as exc:
            make()
        assert exc.value.errors == errors

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("field", ["b", "kappa", "alpha", "r"])
    def test_params(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Params(**{field: value})


class TestIntegrate:
    def test_zero_data_zero_trajectory(self, grid20):
        ctrl = StepControl(t_final=0.3)
        traj = integrate(_state(grid20), CH_PARAMS, ctrl)
        assert np.all(traj.u == 0.0)
        assert np.all(traj.rho == 0.0)

    def test_output_times_hit_exactly(self, grid20):
        ctrl = StepControl(t_final=0.5, dt_max=0.013)
        times = np.linspace(0.0, 0.5, 6)
        traj = integrate(_random_state(grid20, 8), CH_PARAMS, ctrl, output_times=times)
        assert np.array_equal(traj.times, times)

    def test_spatial_refinement_drops_error(self):
        # high-resolution oracle: error vs the n=512 run drops >= 10x per doubling
        runs = {}
        for n in (128, 256, 512):
            g = Grid(20.0, n)
            st = _state(g, u=gaussian(g, 0.5, 1.0).samples,
                        rho=gaussian(g, 0.3, 1.0).samples)
            ctrl = StepControl(cfl=1.0, dt_max=2e-3, t_final=0.25)
            runs[n] = integrate(st, CH_PARAMS, ctrl, output_times=[0.0, 0.25])
        u512 = runs[512].u[-1]
        err128 = np.max(np.abs(runs[128].u[-1] - u512[::4]))
        err256 = np.max(np.abs(runs[256].u[-1] - u512[::2]))
        assert err128 / err256 >= 10.0

    def test_casimir_mean_rho_conserved_exactly_b2(self, grid20):
        # b=2 makes the rho equation a perfect derivative: the mean is
        # conserved to round-off by construction
        st = _state(grid20, u=gaussian(grid20, 0.5, 2.0).samples,
                    rho=gaussian(grid20, 0.4, 1.5).samples)
        ctrl = StepControl(t_final=0.5, dt_max=5e-3)
        traj = integrate(st, CH_PARAMS, ctrl, output_times=[0.0, 0.25, 0.5])
        means = [np.mean(rho) for rho in traj.rho]
        assert max(abs(m - means[0]) for m in means) < 1e-14

    def test_translation_equivariance(self, grid20):
        shift = 1
        st = _state(grid20, u=gaussian(grid20, 0.5, 2.0).samples,
                    rho=gaussian(grid20, 0.3, 1.5).samples)
        st_shifted = _state(
            grid20,
            u=np.roll(st.u.samples, shift),
            rho=np.roll(st.rho.samples, shift),
        )
        ctrl = StepControl(t_final=0.2, dt_max=5e-3)
        a = integrate(st, CH_PARAMS, ctrl, output_times=[0.0, 0.2])
        b = integrate(st_shifted, CH_PARAMS, ctrl, output_times=[0.0, 0.2])
        diff = np.max(np.abs(np.roll(a.u[-1], shift) - b.u[-1]))
        assert diff < 1e-10

    def test_time_reversal_single_component(self, grid20):
        # with rho = 0 and alpha = 0 the family is invariant under
        # (t, u) -> (-t, -u); evolve, negate, evolve back
        params = Params(b=2.0, kappa=1.0, alpha=0.0, r=1.0)
        st = _state(grid20, u=gaussian(grid20, 0.4, 2.0).samples)
        ctrl = StepControl(t_final=0.3, dt_max=2e-3, cfl=1.0)
        fwd = integrate(st, params, ctrl, output_times=[0.0, 0.3])
        back_start = _state(grid20, u=-fwd.u[-1])
        back = integrate(back_start, params, ctrl, output_times=[0.0, 0.3])
        returned = -back.u[-1]
        assert np.max(np.abs(returned - st.u.samples)) < 1e-6

    def test_blowup_detected_and_carries_state(self):
        g = Grid(np.pi, 256)
        st = _state(g, u=2.0 * np.sin(g.x))
        ctrl = StepControl(t_final=10.0, dt_max=5e-3, gradient_ceiling=1.5)
        with pytest.raises(BlowUpError) as exc:
            integrate(st, Params(b=2.0, kappa=0.0, alpha=0.0), ctrl)
        assert exc.value.t > 0.0
        assert exc.value.max_gradient > 1.5
        assert exc.value.last_state is not None
        assert exc.value.partial is not None
        assert len(exc.value.partial.times) == len(exc.value.partial.y) >= 1

    @pytest.mark.parametrize("which", ["u", "rho"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_data_rejected(self, grid20, which, bad):
        # bad input is a ValueError up front, not a blow-up at t = 0
        samples = np.exp(-grid20.x**2)
        samples[7] = bad
        st = _state(grid20, **{which: samples})
        with pytest.raises(ValueError, match="non-finite"):
            integrate(st, Params(b=2.0, kappa=1.0, alpha=0.0),
                      StepControl(t_final=0.1, dt_max=0.01))

    def test_overflow_reported_as_blowup(self):
        # a wildly unstable step drives the state to inf/nan; the run must
        # surface that as a blow-up, not a numpy warning or bare nan output
        g = Grid(np.pi, 64)
        st = _state(g, u=50.0 * np.sin(4 * g.x))
        ctrl = StepControl(cfl=1.0, dt_max=0.5, t_final=5.0, dealias=False,
                           gradient_ceiling=1e30)
        with np.errstate(all="ignore"):
            with pytest.raises(BlowUpError):
                integrate(st, Params(b=2.0, kappa=0.0, alpha=0.0), ctrl)

    @pytest.mark.parametrize("ceiling", [1e300, np.inf])
    def test_blowup_inside_rhs_keeps_the_partial_run(self, ceiling):
        # with a ceiling this high the RHS meets the overflow before the
        # step's own checks do; the run still hands back what it recorded
        g = Grid(np.pi, 64)
        st = _state(g, u=50.0 * np.sin(4 * g.x))
        ctrl = StepControl(cfl=1.0, dt_max=0.5, t_final=5.0, dealias=False,
                           gradient_ceiling=ceiling)
        with np.errstate(all="ignore"):
            with pytest.raises(BlowUpError) as exc:
                integrate(st, Params(b=2.0, kappa=0.0, alpha=0.0), ctrl,
                          output_times=np.linspace(0.0, 5.0, 501))
        partial, last = exc.value.partial, exc.value.last_state
        assert isinstance(exc.value.__cause__, BlowUpError)
        assert partial is not None and len(partial.times) > 1
        assert len(partial.times) == len(partial.y)
        assert np.all(np.isfinite(partial.y))
        assert np.all(np.isfinite(last.u.samples)) and last.t >= partial.times[-1]

    def test_integration_agrees_across_formulations(self, grid20):
        # the RHS-level equivalence must survive a full run: same data,
        # same steps, the nonlocal form stepped by the same rule tracks the
        # m form integrate advances to round-off
        st = _state(grid20, u=gaussian(grid20, 0.5, 2.0).samples,
                    rho=gaussian(grid20, 0.4, 1.5).samples)
        ctrl = StepControl(cfl=1.0, dt_max=2e-3, t_final=0.1)
        times = [0.0, 0.05, 0.1]
        a = integrate(st, CH_PARAMS, ctrl, output_times=times)
        b = stepwise_integrate(st, CH_PARAMS, ctrl, "nonlocal", times)
        for ua, ub, rho_a, rho_b in zip(a.u, b.u, a.rho, b.rho):
            assert np.max(np.abs(ua - ub)) < 1e-11
            assert np.max(np.abs(rho_a - rho_b)) < 1e-11

    def test_reduction_to_b_equation_assumes_c0_equals_minus_alpha(self):
        # independently coded single-component solver of
        #   u_t - u_xxt + c0 u_x + (b+1) u u_x = b u_x u_xx + u u_xxx
        # with c0 = -alpha; with rho = 0 the two-component system must match
        g = Grid(20.0, 256)
        b, alpha = 2.5, 0.3
        dt, T = 2e-3, 0.3
        u0 = gaussian(g, 0.5, 2.0).samples

        xi = full_xi(g)
        mask = np.abs(xi) <= (2.0 / 3.0) * g.xi_max + 1e-12
        helm = 1.0 + xi**2

        def dealias_prod(a, c):
            return np.fft.ifft(mask * np.fft.fft(a * c)).real

        def rhs_oracle(u):
            uh = np.fft.fft(u)
            ux = np.fft.ifft(1j * xi * uh).real
            uxx = np.fft.ifft(-(xi**2) * uh).real
            ux3 = np.fft.ifft(-1j * xi**3 * uh).real
            c0 = -alpha
            rhs = (
                -c0 * ux
                - (b + 1.0) * dealias_prod(u, ux)
                + b * dealias_prod(ux, uxx)
                + dealias_prod(u, ux3)
            )
            return np.fft.ifft(np.fft.fft(rhs) / helm).real

        u = np.fft.ifft(mask * np.fft.fft(u0)).real
        for _ in range(int(round(T / dt))):
            k1 = rhs_oracle(u)
            k2 = rhs_oracle(u + 0.5 * dt * k1)
            k3 = rhs_oracle(u + 0.5 * dt * k2)
            k4 = rhs_oracle(u + dt * k3)
            u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

        params = Params(b=b, kappa=1.0, alpha=alpha, r=1.0)
        ctrl = StepControl(cfl=1.0, dt_max=dt, t_final=T)
        traj = integrate(_state(g, u=u0), params, ctrl, output_times=[0.0, T])
        assert np.max(np.abs(traj.u[-1] - u)) < 1e-8


def _ensemble_ctrl(grid, dealias_on=True):
    # dt_max never binds: every step is a CFL step, and members with
    # max|u| above 1 take smaller ones; a member with max|u| <= 1 takes 8
    cfl = 0.5
    return StepControl(cfl=cfl, dt_max=1.0, t_final=8 * cfl * grid.dx, dealias=dealias_on)


def _assert_same_run(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.y, b.y)
    assert (a.steps, a.min_dt, a.max_dt) == (b.steps, b.min_dt, b.max_dt)


class TestEnsemble:
    @settings(max_examples=25, deadline=None)
    @given(
        log2n=st.integers(5, 9),
        amps=st.lists(st.floats(0.2, 2.5), min_size=1, max_size=5),
        dealias_on=st.booleans(),
        alpha_kind=st.sampled_from(["zero", "constant", "field"]),
        n_out=st.integers(2, 5),
    )
    def test_members_equal_serial_runs(self, log2n, amps, dealias_on, alpha_kind, n_out):
        grid = Grid(8.0, 2**log2n)
        if alpha_kind == "field":
            alpha = RealField(grid, 0.4 + 0.2 * np.cos(np.pi * grid.x / grid.L))
        else:
            alpha = 0.0 if alpha_kind == "zero" else 0.4
        params = Params(b=2.0, kappa=1.0, alpha=alpha, r=1.0)
        ctrl = _ensemble_ctrl(grid, dealias_on)
        times = np.linspace(0.0, ctrl.t_final, n_out)
        states = [State(0.0, gaussian(grid, a, 1.5, 0.5 * i), gaussian(grid, 0.3, 1.2))
                  for i, a in enumerate(amps)]
        runs = integrate_ensemble(states, params, ctrl, times)
        assert len(runs) == len(states)
        for st_, run in zip(states, runs):
            _assert_same_run(run, integrate(st_, params, ctrl, times))

    def test_members_finish_at_different_step_counts(self):
        grid = Grid(8.0, 128)
        ctrl = _ensemble_ctrl(grid)
        states = [State(0.0, gaussian(grid, a, 1.5), gaussian(grid, 0.3, 1.2))
                  for a in (0.5, 1.6, 2.5)]
        times = [0.0, ctrl.t_final]
        runs = integrate_ensemble(states, CH_PARAMS, ctrl, output_times=times)
        assert runs[0].steps == 8 < runs[1].steps < runs[2].steps
        for st_, run in zip(states, runs):
            _assert_same_run(run, integrate(st_, CH_PARAMS, ctrl, output_times=times))

    def test_per_member_dt_max_equals_own_integrate(self):
        # member 0 has max|u| > 1 and a dt_max of 1, so its CFL step binds;
        # the others take their own dt_max, and all four leave the stack at
        # different ticks
        grid = Grid(8.0, 128)
        ctrl = StepControl(cfl=0.5, dt_max=1e-2, t_final=0.25)
        dt_max = (1.0, 0.03, 0.02, 1e-2 / 3)
        states = [State(0.0, gaussian(grid, a, 1.5), gaussian(grid, 0.4, 1.2))
                  for a in (1.6, 0.7, 0.5, 0.3)]
        times = [0.0, 0.1, 0.25]
        runs = integrate_ensemble(states, CH_PARAMS, ctrl, times, dt_max)
        for st_, d, run in zip(states, dt_max, runs):
            alone = dataclasses.replace(ctrl, dt_max=d)
            _assert_same_run(run, integrate(st_, CH_PARAMS, alone, times))
        assert runs[0].max_dt < 0.5 * grid.dx < dt_max[0]
        assert runs[1].max_dt == dt_max[1]
        assert len({run.steps for run in runs}) == len(runs)

    @pytest.mark.parametrize("dt_max", [(0.01,), (0.01, 0.02, 0.03), (0.01, np.nan),
                                        (0.01, np.inf), (0.01, 0.0), (-0.01, 0.01)])
    def test_dt_max_needs_a_finite_positive_value_per_member(self, grid20, dt_max):
        ctrl = StepControl(t_final=0.1)
        with pytest.raises(ValueError, match="dt_max"):
            integrate_ensemble([_state(grid20), _state(grid20)], CH_PARAMS, ctrl,
                               dt_max=dt_max)

    @pytest.mark.parametrize("times", [[0.0, np.nan, 0.1], [0.0, 0.05, np.inf]])
    def test_output_times_must_be_finite(self, grid20, times):
        # NaN passes the ordering and last-time checks on its own
        with pytest.raises(ValueError, match="finite"):
            integrate(_state(grid20), CH_PARAMS, StepControl(t_final=0.1), output_times=times)

    def test_members_must_share_grid_and_start(self, grid20):
        ctrl = StepControl(t_final=0.1)
        other = _state(Grid(10.0, 256))
        with pytest.raises(ValueError, match="share"):
            integrate_ensemble([_state(grid20), other], CH_PARAMS, ctrl)
        with pytest.raises(ValueError, match="share"):
            integrate_ensemble([_state(grid20), _state(grid20, t=0.05)], CH_PARAMS, ctrl)

    def test_blowup_names_the_member_and_keeps_its_partial_run(self):
        # the burst data of the harness blow-up test (mode k = 4, amp 50)
        # between two healthy members
        g = Grid(np.pi, 64)
        ctrl = StepControl(cfl=1.0, dt_max=0.5, t_final=5.0, dealias=False,
                           gradient_ceiling=np.inf)
        params = Params(b=2.0, kappa=0.0, alpha=0.0)
        times = np.linspace(0.0, 5.0, 501)
        burst = _state(g, u=50.0 * np.cos(4 * g.x))
        states = [_state(g, u=0.3 * np.sin(g.x)), burst, _state(g, u=0.2 * np.cos(2 * g.x))]
        with np.errstate(all="ignore"):
            with pytest.raises(BlowUpError) as ens:
                integrate_ensemble(states, params, ctrl, output_times=times)
            with pytest.raises(BlowUpError) as alone:
                integrate(burst, params, ctrl, output_times=times)
        err, ref = ens.value, alone.value
        assert err.member == 1 and "in member 1" in str(err)
        assert type(err.__cause__) is type(ref.__cause__)
        assert err.t == ref.t
        assert np.array_equal(err.max_gradient, ref.max_gradient, equal_nan=True)
        _assert_same_run(err.partial, ref.partial)
        assert len(err.partial.times) > 1 and np.all(np.isfinite(err.partial.y))
        assert err.last_state.t == ref.last_state.t
        assert np.array_equal(err.last_state.u.samples, ref.last_state.u.samples)
        assert np.array_equal(err.last_state.rho.samples, ref.last_state.rho.samples)


class TestHalfSpectrumState:
    """The steppers carry the rfft half spectrum of (u, rho)."""

    @pytest.mark.parametrize("rhs", [rhs_m_form])
    def test_undealiased_run_matches_physical_stepping(self, rhs):
        # A narrow Gaussian reaches the Nyquist mode, where the constant-alpha
        # term's i*xi/inertia leaves an imaginary part; the carried spectrum
        # must drop it as the irfft of a physical step does.
        grid = Grid(np.pi, 64)
        params = Params(b=2.5, kappa=0.8, alpha=0.7, r=1.0)
        st = _state(grid, u=gaussian(grid, 0.5, 0.15).samples,
                    rho=gaussian(grid, 0.4, 0.2, 0.3).samples)
        times = np.linspace(0.0, 0.04, 21)
        ctrl = StepControl(cfl=1.0, dt_max=2e-3, t_final=0.04, dealias=False)
        traj = integrate(st, params, ctrl, output_times=times)
        assert traj.steps == len(times) - 1

        def f(t, y):
            du, drho = rhs(State(t, RealField(grid, y[0]), RealField(grid, y[1])), params,
                           use_dealias=False)
            return np.stack((du.samples, drho.samples))

        y = traj.y[0]
        for k in range(len(times) - 1):
            y = rk4(f, times[k], y, times[k + 1] - times[k])
            assert np.max(np.abs(traj.y[k + 1] - y)) <= 1e-14

    def test_iterates_match_physical_space_iteration(self, grid20):
        # the physical-space loop transforms every state and source in each
        # RHS evaluation; the half-spectrum stack agrees with it to round-off
        params = Params(b=2.0, kappa=1.0, alpha=0.5, r=1.0)
        ctrl = StepControl(cfl=1.0, dt_max=1e-3, t_final=0.03, dealias=False)
        u0 = gaussian(grid20, 0.6, 0.25)    # narrow: the Nyquist mode is not negligible
        rho0 = gaussian(grid20, 0.4, 0.3, 0.5)
        # iterates 4 and 5 keep every mode, so the frozen sources of iterate
        # 4 carry the Nyquist entry that the alpha term makes imaginary
        stacked = friedrichs_iterate(u0, rho0, params, 5, ctrl)
        physical = physical_friedrichs_iterate(u0, rho0, params, 5, ctrl)
        for a, b in zip(stacked, physical):
            assert np.max(np.abs(a.y - b.y)) <= 1e-14

    @pytest.fixture
    def fft_calls(self, monkeypatch):
        calls = []
        for name in ("rfft", "irfft"):
            def counted(*args, _fft=getattr(np.fft, name), _name=name, **kwargs):
                calls.append(_name)
                return _fft(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        return calls

    @pytest.mark.parametrize("rhs", [_m_form, _nonlocal])
    def test_rhs_makes_two_transforms(self, grid20, fft_calls, rhs):
        y_hat = np.fft.rfft(np.stack([_state_rows(_random_state(grid20, seed))
                                      for seed in range(3)]))
        fft_calls.clear()
        dy_hat = rhs(operators(grid20), Params(b=2.5, kappa=0.8, alpha=0.3), 0.0, y_hat)
        assert dy_hat.shape == y_hat.shape
        assert fft_calls == ["irfft", "rfft"]

    @pytest.mark.parametrize("use_dealias", [True, False])
    @pytest.mark.parametrize("form", ["m"])
    def test_integrate_matches_stage_by_stage_stepping(self, grid20, form, use_dealias):
        # the jet each step hands to the next one changes no bit of a run
        params = Params(b=2.5, kappa=0.8, alpha=0.3, r=1.0)
        ctrl = StepControl(cfl=0.8, dt_max=4e-3, t_final=0.06, dealias=use_dealias)
        st = _random_state(grid20, 5, amp=1.5)
        times = np.linspace(0.0, 0.06, 4)
        traj = integrate(st, params, ctrl, times)
        assert traj.steps > 3 * len(times)
        _assert_same_run(traj, stepwise_integrate(st, params, ctrl, form, times))

    def test_rk4_takes_a_precomputed_k1(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)

        def f(t, v):
            return a @ v + t

        ref = stage_by_stage_rk4(f, 0.3, y, 0.1)
        assert np.array_equal(rk4(f, 0.3, y, 0.1), ref)
        assert np.array_equal(rk4(f, 0.3, y, 0.1, f(0.3, y)), ref)

    def test_step_rk4_takes_the_jet(self, grid20, fft_calls):
        ops = operators(grid20)
        y_hat = np.fft.rfft(np.stack([_state_rows(_random_state(grid20, s)) for s in (1, 2)]))
        stack = dynamics.Stack(grid20, np.zeros((2, 1, 1)), y_hat)
        dt = np.full((2, 1, 1), 1e-2)
        jet = dynamics._m_jet(ops, y_hat)
        fft_calls.clear()
        plain = step_rk4(stack, CH_PARAMS, dt)
        with_jet = step_rk4(stack, CH_PARAMS, dt, jet=jet)
        assert len(fft_calls) == 8 + 7
        assert np.array_equal(plain.y, with_jet.y) and np.array_equal(plain.t, with_jet.t)

    @pytest.mark.parametrize("use_dealias", [True, False])
    def test_integrate_makes_eight_transforms_per_step(self, grid20, fft_calls, use_dealias):
        # four RHS evaluations of two transforms each, less the first
        # stage's irfft, and one irfft of the jet of the step's result per
        # step; the start takes an rfft and the irfft of the first jet
        ctrl = StepControl(cfl=1.0, dt_max=5e-3, t_final=0.05, dealias=use_dealias)
        st = _random_state(grid20, 3)
        fft_calls.clear()
        traj = integrate(st, CH_PARAMS, ctrl)
        assert traj.steps > 10
        assert len(fft_calls) == 2 + 8 * traj.steps

    def test_rhs_lin_makes_two_transforms(self, grid20, fft_calls, monkeypatch):
        per_step = []

        def counting(f, t, y, h):
            before = len(fft_calls)
            out = rk4(f, t, y, h)
            per_step.append(len(fft_calls) - before)
            return out

        monkeypatch.setattr(dynamics, "rk4", counting)
        ctrl = StepControl(cfl=1.0, dt_max=1e-3, t_final=0.02)
        friedrichs_iterate(gaussian(grid20, 0.6, 1.5), gaussian(grid20, 0.4, 1.5),
                           CH_PARAMS, 3, ctrl)
        assert len(per_step) == 20 + 3 * 2
        assert set(per_step) == {4 * 2}


class TestTrajectoryStorage:
    def test_rows_views_and_momentum(self, grid20):
        params = Params(b=2.0, kappa=1.0, alpha=0.0, r=1.5)
        times = np.linspace(0.0, 0.2, 5)
        traj = integrate(_random_state(grid20, 9), params, StepControl(t_final=0.2),
                         output_times=times)
        assert traj.times.shape == (len(times),)
        assert traj.y.shape == (len(times), 2, grid20.n)
        for view, row in ((traj.u, 0), (traj.rho, 1)):
            assert np.shares_memory(view, traj.y) and np.array_equal(view, traj.y[:, row])
        assert not traj.y.flags.writeable and not traj.times.flags.writeable
        with pytest.raises(ValueError):
            traj.u[0, 0] = 1.0
        m = traj.m
        for i, u in enumerate(traj.u):
            m_ref = apply_inertia(RealField(grid20, u), params.r).samples
            assert np.max(np.abs(m[i] - m_ref)) <= 1e-13 * np.max(np.abs(m_ref))

    def test_constructor_checks_shape_and_leaves_caller_arrays(self, grid20):
        times = np.linspace(0.0, 1.0, 3)
        y = np.zeros((3, 2, grid20.n))
        traj = Trajectory(grid20, times, y, CH_PARAMS)
        assert y.flags.writeable and times.flags.writeable
        assert not traj.y.flags.writeable
        with pytest.raises(ValueError, match="shape"):
            Trajectory(grid20, times, y[:2], CH_PARAMS)


class TestFriedrichs:
    def test_zero_data_gives_zero_iterates(self, grid20):
        z = RealField(grid20, np.zeros(grid20.n))
        ctrl = StepControl(cfl=1.0, dt_max=0.01, t_final=0.05)
        iterates = friedrichs_iterate(z, z, CH_PARAMS, K=3, ctrl=ctrl)
        assert len(iterates) == 4
        for it in iterates:
            assert np.all(it.u == 0.0)

    def test_first_iterate_constant_when_coefficients_zero(self, grid20):
        # iterate 1 sees zero frozen coefficients, so its momentum (and
        # density) stay exactly at their low-passed initial values
        u0 = gaussian(grid20, 0.5, 2.0)
        rho0 = gaussian(grid20, 0.3, 1.5)
        ctrl = StepControl(cfl=1.0, dt_max=0.01, t_final=0.05)
        iterates = friedrichs_iterate(u0, rho0, CH_PARAMS, K=1, ctrl=ctrl)
        first = iterates[1]
        for u, rho in zip(first.u[1:], first.rho[1:]):
            assert np.array_equal(u, first.u[0])
            assert np.array_equal(rho, first.rho[0])

    def test_iterates_approach_direct_solution(self, grid20):
        u0 = gaussian(grid20, 0.5, 2.0)
        rho0 = gaussian(grid20, 0.3, 1.5)
        ctrl = StepControl(cfl=1.0, dt_max=1e-3, t_final=0.05)
        iterates = friedrichs_iterate(u0, rho0, CH_PARAMS, K=4, ctrl=ctrl)
        direct = integrate(
            State(0.0, u0, rho0), CH_PARAMS, ctrl, output_times=iterates[1].times
        )
        idx = BesovIndex(2.0)
        errs = []
        for k in (2, 3, 4):
            sup = max(
                besov_norm(RealField(grid20, a - b), idx)
                for a, b in zip(iterates[k].u, direct.u)
            )
            errs.append(sup)
        assert errs[1] < 0.8 * errs[0]
        assert errs[2] < 0.8 * errs[1]

    @pytest.mark.parametrize("kind", ["constant", "field"])
    def test_iterates_converge_with_alpha(self, grid20, kind):
        # The frozen m source is alpha*u_{k,x}, as in the m equation.  With
        # alpha*u_k in its place the sup error stalls near 1e-2.
        if kind == "constant":
            alpha = 0.5
        else:
            alpha = RealField(grid20, 0.5 + 0.3 * np.cos(2 * np.pi * grid20.x / grid20.L))
        params = Params(b=2.0, kappa=1.0, alpha=alpha, r=1.0)
        u0 = gaussian(grid20, 0.6, 1.5)
        rho0 = gaussian(grid20, 0.4, 1.5)
        ctrl = StepControl(cfl=1.0, dt_max=1e-3, t_final=0.05)
        iterates = friedrichs_iterate(u0, rho0, params, K=6, ctrl=ctrl)
        direct = integrate(
            State(0.0, u0, rho0), params, ctrl, output_times=iterates[1].times
        )
        errs = [
            max(np.max(np.abs(a - b)) for a, b in zip(it.u, direct.u))
            for it in iterates[1:]
        ]
        for prev, nxt in zip(errs, errs[1:]):
            assert nxt <= 0.8 * prev
        assert errs[-1] <= 1e-9

    @pytest.mark.parametrize("use_dealias", [True, False])
    @pytest.mark.parametrize("r", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", ["zero", "constant", "field"])
    @pytest.mark.parametrize("nsteps", [3, 4, 50])
    @pytest.mark.parametrize("K", [1, 2, 6])
    def test_stack_equals_serial_iterates(self, grid20, K, nsteps, alpha, r, use_dealias):
        alpha = {
            "zero": 0.0,
            "constant": 0.5,
            "field": RealField(grid20, 0.5 + 0.3 * np.cos(2 * np.pi * grid20.x / grid20.L)),
        }[alpha]
        params = Params(b=2.0, kappa=1.0, alpha=alpha, r=r)
        ctrl = StepControl(cfl=1.0, dt_max=1e-3, t_final=nsteps * 1e-3, dealias=use_dealias)
        u0 = gaussian(grid20, 0.6, 1.5)
        rho0 = gaussian(grid20, 0.4, 1.5)
        stacked = friedrichs_iterate(u0, rho0, params, K, ctrl)
        serial = serial_friedrichs_iterate(u0, rho0, params, K, ctrl)
        assert len(stacked) == len(serial) == K + 1
        for a, b in zip(stacked, serial):
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("K, nsteps", [(1, 3), (2, 4), (6, 50)])
    def test_stack_takes_lagged_ticks(self, grid20, monkeypatch, K, nsteps):
        # one stacked rk4 step per tick, nsteps + 3(K-1) ticks, every
        # iterate takes each of its nsteps steps once, and at most
        # ceil(nsteps / 3) iterates share a tick
        members = []

        def counting(f, t, y, h):
            members.append(len(y))
            return rk4(f, t, y, h)

        monkeypatch.setattr(dynamics, "rk4", counting)
        ctrl = StepControl(cfl=1.0, dt_max=1e-3, t_final=nsteps * 1e-3)
        friedrichs_iterate(gaussian(grid20, 0.6, 1.5), gaussian(grid20, 0.4, 1.5),
                           CH_PARAMS, K, ctrl)
        assert len(members) == nsteps + 3 * (K - 1)
        assert sum(members) == K * nsteps
        assert max(members) == min(K, -(-nsteps // 3))

    def test_frozen_rows_stay_in_a_window(self, grid20):
        # beyond the returned iterates, the memory a run needs does not grow
        # with the number of steps: a (T, 3, n) array of frozen rows would
        # add 3n floats per step
        u0 = gaussian(grid20, 0.6, 1.5)
        rho0 = gaussian(grid20, 0.4, 1.5)

        def extra_bytes(nsteps):
            ctrl = StepControl(cfl=1.0, dt_max=1e-3, t_final=nsteps * 1e-3)
            tracemalloc.start()
            try:
                iterates = friedrichs_iterate(u0, rho0, CH_PARAMS, 2, ctrl)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - sum(it.y.nbytes + it.times.nbytes for it in iterates)

        extra_bytes(50)   # the first run fills the operator caches
        growth = extra_bytes(200) - extra_bytes(50)
        assert growth < 150 * 3 * grid20.n * 8 / 4


class TestStability:
    def test_zero_perturbation_gives_zero_difference(self, grid20):
        u0 = gaussian(grid20, 0.5, 2.0)
        rho0 = gaussian(grid20, 0.3, 1.5)
        pert = RealField(grid20, np.cos(np.pi * grid20.x / grid20.L))
        ctrl = StepControl(cfl=1.0, dt_max=5e-3, t_final=0.1)
        res = stability_pairs([(u0, rho0)], pert, [0.0], CH_PARAMS, ctrl)[0]
        assert res.sup_du[0] == 0.0
        assert res.sup_drho[0] == 0.0

    def test_difference_scales_linearly(self, grid20):
        u0 = gaussian(grid20, 0.5, 2.0)
        rho0 = gaussian(grid20, 0.3, 1.5)
        pert = RealField(grid20, np.cos(np.pi * grid20.x / grid20.L))
        ctrl = StepControl(cfl=1.0, dt_max=5e-3, t_final=0.1)
        res = stability_pairs([(u0, rho0)], pert, [1e-2, 5e-3], CH_PARAMS, ctrl)[0]
        ratio = res.sup_du[0] / res.sup_du[1]
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_gamma_pairs_base_with_first_perturbed_run(self, grid20):
        u0 = gaussian(grid20, 0.5, 2.0)
        rho0 = gaussian(grid20, 0.3, 1.5)
        pert = RealField(grid20, np.cos(np.pi * grid20.x / grid20.L))
        ctrl = StepControl(cfl=1.0, dt_max=5e-3, t_final=0.05)
        params = Params(b=2.0, kappa=1.0, alpha=0.25, r=1.0)
        res = stability_pairs([(u0, rho0)], pert, [1e-2, 5e-3, 1e-3], params, ctrl, s=3.0)[0]

        base = integrate(State(0.0, u0, rho0), params, ctrl, output_times=res.times)
        u0p = RealField(grid20, u0.samples + 1e-2 * pert.samples)
        first = integrate(State(0.0, u0p, rho0), params, ctrl, output_times=res.times)
        idx_u, idx_rho = BesovIndex(3.0), BesovIndex(2.0)
        expect = [
            besov_norm(RealField(grid20, ua), idx_u) + besov_norm(RealField(grid20, ub), idx_u)
            + besov_norm(RealField(grid20, rho_a), idx_rho)
            + besov_norm(RealField(grid20, rho_b), idx_rho) + 0.25
            for ua, ub, rho_a, rho_b in zip(base.u, first.u, base.rho, first.rho)
        ]
        assert np.array_equal(res.gamma, expect)

    def test_pairs_equal_one_pair_per_dataset(self, grid20):
        # amplitudes above 1 make the CFL steps differ between datasets, so
        # members finish at different steps of the shared stack
        datasets = [
            (gaussian(grid20, 0.5, 2.0), gaussian(grid20, 0.3, 1.5)),
            (gaussian(grid20, 1.5, 1.5, -3.0), gaussian(grid20, 0.4, 2.0, 1.0)),
            (band_limited_noise(grid20, seed=2, kmax_frac=0.08, amp=2.0),
             band_limited_noise(grid20, seed=102, kmax_frac=0.08, amp=0.3)),
        ]
        pert = RealField(grid20, np.cos(3 * np.pi * grid20.x / grid20.L))
        params = Params(b=2.0, kappa=1.0, alpha=0.25, r=1.0)
        ctrl = StepControl(cfl=0.03, dt_max=5e-3, t_final=0.05)
        eps = [1e-2, 1e-3]
        out_times = np.linspace(0.0, ctrl.t_final, 6)
        results = stability_pairs(datasets, pert, eps, params, ctrl, output_times=out_times)
        assert len(results) == len(datasets)
        for (u0, rho0), res in zip(datasets, results):
            ref = stability_pairs([(u0, rho0)], pert, eps, params, ctrl,
                                  output_times=out_times)[0]
            for field in dataclasses.fields(StabilityResult):
                assert np.array_equal(getattr(res, field.name), getattr(ref, field.name))
