"""Shared fixtures, field builders and oracles.

chflow keeps only the rfft half spectrum k = 0..n/2.  The full_* helpers
build the whole complex spectrum, k = -n/2..n/2-1 in FFT order, with numpy's
complex FFT, as an independent reference for the half-spectrum paths.
:func:`serial_friedrichs_iterate` is the Friedrichs iteration run one
iterate after another, the bitwise reference for the lagged stack, and
:func:`physical_friedrichs_iterate` the same loop in physical space, its
round-off reference.  :func:`per_pair_persistence_monitor` monitors one
(weight, p) pair per call, the bitwise reference for the one-pass battery
monitor.  :func:`reconstruct_rho` rebuilds rho from rho_0 along the flow,
an independent check of the solver's density (acceptance criterion 04).
:func:`stepwise_integrate` is integrate as it stepped before each step's
jet was reused, with :func:`stage_by_stage_rk4`: every stage transforms
its own input and each step's result is transformed again for its
samples, the bitwise reference for the jet handed from step to step.  It
steps either RHS of :data:`RHS_FORMS`, so the nonlocal form, which
integrate does not advance, can be run for the integration-level check.
:func:`float_edge_values` lists the float64 values whose text is hardest to
get right, for the CSV formatter's tests against ``repr``.
:func:`stagewise_evolve_flow` and :func:`fieldwise_flow_identities` are the
flow and its checks with one ``evaluate_coeffs`` call per RK4 stage and per
field, each spreading its own coefficients, the bitwise references for the
flow that spreads each coefficient set once and the checks that read rho and
m in one call.
"""

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from functools import partial

from chflow import besov, weights
from chflow.dynamics import Trajectory, _m_form, _nonlocal, rk4, rk4_stages
from chflow.offgrid import evaluate_coeffs
from chflow.profiles import band_limited_noise
from chflow.spectral import Grid, RealField, dealias, operators


def _float_neighbours(values, count):
    """The count nearest float64 values on each side of each of values."""
    below, above = [values], [values]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.concatenate(below[1:] + above[1:])


def float_edge_values():
    """Every power of two (the asymmetric rounding interval), 2**53 and its
    neighbours, every power of ten and its neighbours, 20 neighbours each of
    1e16 and 1e-4 (where repr changes layout), the extremes, the non-finite
    values and zero, each with both signs."""
    tens = np.array([10.0**e for e in range(-323, 309)])
    values = np.concatenate([
        [2.0**e for e in range(-1074, 1024)],
        [2.0**53], _float_neighbours(np.array([2.0**53]), 2),
        tens, _float_neighbours(tens, 1),
        _float_neighbours(np.array([1e16, 1e-4]), 20),
        [5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
         1.7976931348623157e308, 0.1, 0.2, 0.3, 123.0, 0.0, np.inf, np.nan],
    ])
    return np.concatenate([values, -values])


@pytest.fixture
def grid_pi():
    return Grid(np.pi, 64)


@pytest.fixture
def grid20():
    return Grid(20.0, 256)


def random_fields(grid, count, kmax_frac=0.25, amp=1.0, start_seed=0):
    return [
        band_limited_noise(grid, seed=start_seed + i, kmax_frac=kmax_frac, amp=amp)
        for i in range(count)
    ]


def _full_k(grid):
    return np.fft.fftfreq(grid.n, d=1.0 / grid.n)


def full_xi(grid):
    """Wavenumbers pi*k/L of every mode, in FFT order."""
    return np.pi * _full_k(grid) / grid.L


def full_coeffs(grid, samples):
    """Coefficients of every mode in FFT order, basis exp(i*xi*x)."""
    phase = np.where(_full_k(grid) % 2 == 0, 1.0, -1.0)
    return phase * np.fft.fft(samples) / grid.n


def full_samples(grid, coeffs):
    """Inverse of :func:`full_coeffs`: the real part of the mode sum on the grid."""
    phase = np.where(_full_k(grid) % 2 == 0, 1.0, -1.0)
    return np.fft.ifft(phase * coeffs * grid.n).real


def full_multiplier(mult, samples):
    """A multiplier given on every mode (FFT order), through the complex FFT."""
    return np.fft.ifft(mult * np.fft.fft(samples)).real


def serial_friedrichs_iterate(u0, rho0, params, K, ctrl):
    """The Friedrichs iterates 0..K, each run over its whole time span before
    the next starts, with its frozen rows computed one snapshot at a time.
    Like friedrichs_iterate it carries the half spectra of the iterates and
    of the frozen sources, so the two agree bit for bit."""
    grid = u0.grid
    dt = ctrl.dt_max
    nsteps = int(round(ctrl.t_final / dt))
    times = dt * np.arange(nsteps + 1)
    ops = operators(grid, params.r, ctrl.dealias)
    n = grid.n
    alpha = params.alpha_samples(grid)

    iterates = [
        Trajectory(grid, times, np.zeros((nsteps + 1, 2, n)), params)
    ]
    spectra = np.zeros((nsteps + 1, 2, n // 2 + 1), complex)
    frozen_u = np.zeros((nsteps + 1, n))
    frozen_src = np.zeros((nsteps + 1, 2, n // 2 + 1), complex)
    for k in range(K):
        if k > 0:
            for y_hat, row_u, row_src in zip(spectra, frozen_u, frozen_src):
                uk, rk, uk_x, mk, rk_x = np.fft.irfft(np.concatenate((
                    y_hat, ops.jet[:2] * y_hat[:1], ops.jet[3:] * y_hat[1:])), n)
                nl_m = params.b * uk_x * mk + params.kappa * rk * rk_x
                if isinstance(alpha, np.ndarray):
                    nl_m -= alpha * uk_x
                src_hat = -ops.solve * np.fft.rfft(np.stack((nl_m, (params.b - 1.0) * uk_x * rk)))
                if not isinstance(alpha, np.ndarray) and alpha != 0.0:
                    src_hat[0] += alpha * (ops.ixi / ops.inertia) * y_hat[0]
                src_hat[:, -1] = src_hat[:, -1].real
                row_u[:] = uk
                row_src[:] = src_hat

        def rhs_lin(t, y_hat):
            cu, src = next(stages_u), next(stages_src)
            grads = np.fft.irfft(ops.jet[2:] * y_hat, n)
            return src - ops.solve * np.fft.rfft(cu * grads)

        u = besov.lowpass(u0, k + 1)
        rho = besov.lowpass(rho0, k + 1)
        spectra[0] = np.fft.rfft(np.stack((u.samples, rho.samples)))
        if ctrl.dealias:
            spectra[0] *= ops.mask
        for j in range(nsteps):
            stages_u = rk4_stages(times, frozen_u, j, dt)
            stages_src = rk4_stages(times, frozen_src, j, dt)
            spectra[j + 1] = rk4(rhs_lin, times[j], spectra[j], dt)
        iterates.append(Trajectory(grid, times, np.fft.irfft(spectra, n), params))
    return iterates


def physical_friedrichs_iterate(u0, rho0, params, K, ctrl):
    """The Friedrichs iterates 0..K run serially in physical space: every
    state and frozen source is held as samples, and each RHS evaluation
    transforms them.  A round-off reference for the half-spectrum stack."""
    grid = u0.grid
    dt = ctrl.dt_max
    nsteps = int(round(ctrl.t_final / dt))
    times = dt * np.arange(nsteps + 1)
    ops = operators(grid, params.r, ctrl.dealias)
    n = grid.n
    alpha = params.alpha_samples(grid)

    iterates = [
        Trajectory(grid, times, np.zeros((nsteps + 1, 2, n)), params)
    ]
    frozen = np.empty((nsteps + 1, 3, n))
    for k in range(K):
        for yk, row in zip(iterates[-1].y, frozen):
            uk, rk = yk
            y_hat = np.fft.rfft(yk)
            uk_x, mk, rk_x = np.fft.irfft(ops.jet[[0, 1, 3]] * y_hat[[0, 0, 1]], n)
            nl_m = params.b * uk_x * mk + params.kappa * rk * rk_x
            if isinstance(alpha, np.ndarray):
                nl_m -= alpha * uk_x
            src_hat = -ops.solve * np.fft.rfft(np.stack((nl_m, (params.b - 1.0) * uk_x * rk)))
            if not isinstance(alpha, np.ndarray) and alpha != 0.0:
                src_hat[0] += alpha * (ops.ixi / ops.inertia) * y_hat[0]
            row[0] = uk
            row[1:] = np.fft.irfft(src_hat, n)

        def rhs_lin(t, y):
            cu_src = next(stages)
            grads = np.fft.irfft(ops.jet[2:] * np.fft.rfft(y), n)
            return cu_src[1:] - np.fft.irfft(ops.solve * np.fft.rfft(cu_src[0] * grads), n)

        u = besov.lowpass(u0, k + 1)
        rho = besov.lowpass(rho0, k + 1)
        if ctrl.dealias:
            u, rho = dealias(u), dealias(rho)
        ys = np.empty((nsteps + 1, 2, n))
        ys[0] = u.samples, rho.samples
        for j in range(nsteps):
            stages = rk4_stages(times, frozen, j, dt)
            ys[j + 1] = rk4(rhs_lin, times[j], ys[j], dt)
        iterates.append(Trajectory(grid, times, ys, params))
    return iterates


def _masked_norm(samples, wvals, dx, p):
    a = np.abs(samples)
    peak = a.max(initial=0.0)
    g = np.where(a > weights.SIGNAL_FLOOR * peak, a, 0.0) * wvals
    if np.isinf(p):
        return float(g.max(initial=0.0))
    return float((dx * np.sum(g**p)) ** (1.0 / p))


def per_pair_persistence_monitor(traj, w, p):
    """The PersistenceReport of one (weight, p) pair, with u_x, the masks
    and the sup norms recomputed for the pair."""
    if not w.admissible:
        raise ValueError("weight is not admissible for the persistence bound")
    grid = traj.grid
    times = traj.times
    wvals = w(grid.x)
    Ws = []
    sup_norms = []
    for u, u_x, rho in zip(traj.u, operators(grid).dx(traj.u), traj.rho):
        Ws.append(
            _masked_norm(u, wvals, grid.dx, p)
            + _masked_norm(u_x, wvals, grid.dx, p)
            + _masked_norm(rho, wvals, grid.dx, p)
        )
        sup_norms.append(
            float(np.max(np.abs(u)))
            + float(np.max(np.abs(u_x)))
            + float(np.max(np.abs(rho)))
        )
    Ws = np.array(Ws)
    sup_norms = np.array(sup_norms)
    M = float(sup_norms.max())
    if np.all(Ws == 0.0):
        return weights.PersistenceReport(times, Ws, sup_norms, M, 0.0, 0.0, 0.0, True, p, w)
    y = np.log(Ws)
    xdata = (1.0 + M) * times
    A = np.vstack([xdata, np.ones_like(xdata)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    residual = float(np.max(np.abs(y - (slope * xdata + intercept))))
    bound_ok = bool(np.all(y - y[0] <= slope * xdata + weights.RESIDUAL_TOL))
    return weights.PersistenceReport(
        times, Ws, sup_norms, M, float(slope), float(intercept), residual, bound_ok, p, w
    )


def reconstruct_rho(flow, traj, b):
    """Rebuild rho(t) from rho_0, the inverse flow, and the u_x history.

    rho(t, x) = rho_0(y) * exp((1-b) * int_0^t u_x(s, phi(s, y)) ds) with
    y = phi^{-1}(t, x): the slope history is accumulated along each
    characteristic (trapezoid over snapshots), which is what the transport
    identity combined with the flow-derivative exponential actually gives;
    integrating at frozen x instead leaves an O(t^2) model error that no
    refinement removes.  phi^{-1} comes from monotone cubic interpolation of
    the (periodically extended) marker set, and rho_0 and the accumulated
    integral are sampled the same way, so the t = 0 reconstruction is
    exactly rho_0 on the grid.  flow is (phi, phi_x) as evolve_flow
    returns it.
    """
    grid = traj.grid
    times = traj.times
    x = grid.x
    period = 2.0 * grid.L
    rho0 = traj.rho[0]
    u_coeffs = grid.half_coeffs(traj.u)
    phi, _ = flow
    markers = phi[0]

    def periodic_interp(xs, ys, shift_y):
        return PchipInterpolator(
            np.concatenate([xs - period, xs, xs + period]),
            np.concatenate([ys - shift_y, ys, ys + shift_y]),
        )

    rho0_interp = periodic_interp(x, rho0, 0.0)

    out = []
    integral = np.zeros_like(markers)   # int u_x(s, phi(s, marker)) ds
    prev_ux = None
    for j, p in enumerate(phi):
        _, ux_at_phi = evaluate_coeffs(grid, u_coeffs[j], p, deriv=True)
        if j > 0:
            dt = times[j] - times[j - 1]
            integral = integral + 0.5 * dt * (ux_at_phi + prev_ux)
        prev_ux = ux_at_phi
        inv = periodic_interp(p, markers, period)
        y = inv(x)
        integral_at_y = periodic_interp(markers, integral, 0.0)(y)
        out.append(
            RealField(grid, rho0_interp(y) * np.exp((1.0 - b) * integral_at_y))
        )
    return out


def stage_by_stage_rk4(f, t, y, h):
    """The classical Runge-Kutta step, each stage value held until the
    stage after it has ended (rk4 drops it sooner); the same arithmetic."""
    dtype = y.dtype

    def g(s, v):
        return f(s, v.view(dtype)).view(float)

    y = y.view(float)
    half = 0.5 * h
    k1 = g(t, y)
    k = g(t + half, y + half * k1)
    acc = k1 + 2.0 * k
    del k1
    k = g(t + half, y + half * k)
    acc += 2.0 * k
    acc += g(t + h, y + h * k)
    return (y + (h / 6.0) * acc).view(dtype)


# the RHS forms stepwise_integrate steps, by name: the m form integrate
# advances, and the nonlocal form it is checked against
RHS_FORMS = {"m": _m_form, "nonlocal": _nonlocal}


def stepwise_integrate(state0, params, ctrl, form, output_times):
    """One state advanced by the step rule of integrate with the RHS
    RHS_FORMS[form], one member of a stack at a time: every RHS evaluation
    transforms its own input, and after each step one irfft of
    (u, rho, u_x) gives the snapshot, the gradient check and the next
    step's max|u|."""
    grid = state0.grid
    ops = operators(grid, params.r, ctrl.dealias)
    f = partial(RHS_FORMS[form], ops, params)
    y = np.stack([(state0.u.samples, state0.rho.samples)])
    y_hat = np.fft.rfft(y)
    if ctrl.dealias:
        y_hat *= ops.mask
        y = np.fft.irfft(y_hat, grid.n)
    t, u_max = state0.t, np.abs(y[0, 0]).max()
    times, ys, dts = [], [], []
    if abs(output_times[0] - t) <= 1e-14:
        times.append(t)
        ys.append(y[0])
    while len(times) < len(output_times):
        h = min(ctrl.dt_max, ctrl.cfl * grid.dx / max(1.0, float(u_max)))
        target = output_times[len(times)]
        hit = t + h >= target - 1e-13
        dt = target - t if hit else h
        y_hat = stage_by_stage_rk4(f, np.full((1, 1, 1), t), y_hat, np.full((1, 1, 1), dt))
        u, rho, u_x = np.fft.irfft(np.concatenate((y_hat, ops.jet[:1] * y_hat[:, :1]), axis=1),
                                   grid.n)[0]
        assert np.abs(u_x).max() <= ctrl.gradient_ceiling
        t = target if hit else t + dt
        dts.append(dt)
        u_max = np.abs(u).max()
        if hit:
            times.append(t)
            ys.append(np.stack((u, rho)))
    return Trajectory(grid, times, ys, params, max(dts), min(dts), len(dts))


def stagewise_evolve_flow(traj):
    """evolve_flow with one evaluate_coeffs call per RK4 stage: (phi, phi_x)."""
    grid, times = traj.grid, traj.times
    series = grid.half_coeffs(traj.u)

    def velocity(t, y):
        u, u_x = evaluate_coeffs(grid, next(stages), y[0], deriv=True)
        return np.stack((u, u_x * y[1]))

    phi, phi_x = np.empty((2, len(times), grid.n))
    y = np.stack((grid.x, np.ones(grid.n)))
    phi[0], phi_x[0] = y
    for j in range(len(times) - 1):
        h = times[j + 1] - times[j]
        stages = rk4_stages(times, series, j, h)
        y = rk4(velocity, times[j], y, h)
        phi[j + 1], phi_x[j + 1] = y
    return phi, phi_x


def fieldwise_flow_identities(phi, phi_x, traj, params, momentum=True):
    """check_flow_identities with one evaluate_coeffs call per field and
    snapshot, rho with rho_x and then m: (transport, mflow or None)."""
    grid, times, b = traj.grid, traj.times, params.b
    rho_coeffs, m_coeffs = grid.half_coeffs(traj.rho), grid.half_coeffs(traj.m)
    transport, mflow = np.empty(len(times)), np.empty(len(times))
    integral = 0.0
    for j, (p, p_x) in enumerate(zip(phi, phi_x)):
        rho_at, rhox_at = evaluate_coeffs(grid, rho_coeffs[j], p, deriv=True)
        m_at = evaluate_coeffs(grid, m_coeffs[j], p)
        if j == 0:
            rho0_at, m0_at = rho_at, m_at
        transport[j] = np.max(np.abs(rho_at * p_x ** (b - 1.0) - rho0_at))
        integrand = rho_at * rhox_at * p_x**b
        if j > 0:
            integral = integral + 0.5 * (times[j] - times[j - 1]) * (integrand + prev)
        prev = integrand
        mflow[j] = np.max(np.abs(m_at * p_x**b - (m0_at - params.kappa * integral)))
    return transport, mflow if momentum else None
