"""Right-hand sides, time integration, and the approximation experiments.

The evolved unknowns are (u, rho); the momentum m = (1 - d^2/dx^2)^r u is
recomputed from u inside every RHS call so the two representations cannot
drift apart.  Two RHS formulations are provided:

* ``m`` form (any r >= 1):
      m_t = alpha*u_x - b*u_x*m - u*m_x - kappa*rho*rho_x,
      rho_t = -u*rho_x - (b-1)*u_x*rho,
  with du/dt recovered through the inverse inertia operator.

* ``nonlocal`` form (r = 1 only):
      u_t + u*u_x = -d/dx G * P(u, rho),
      P = (b/2)u^2 + ((3-b)/2)u_x^2 + (kappa/2)rho^2 - alpha*u,
  where G is the kernel of (1 - d^2/dx^2)^(-1).

Dealiasing (two-thirds rule) is linear, so each equation's products are
summed pointwise and the sum is dealiased once (Orszag, J. Atmos. Sci. 28,
1971); for band-limited states the two formulations agree to round-off, and
that equivalence is one of the artifact's checks.  All transforms are real
(rfft/irfft on the half spectrum).
"""

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import besov
from .spectral import Grid, Operators, RealField, dealias, operators


class FormulationError(ValueError):
    """Requested RHS formulation is not valid for these parameters."""


class BlowUpError(RuntimeError):
    """Gradient ceiling exceeded or non-finite values appeared.

    Raised by integrate, it carries the last valid state and the partial
    trajectory so wavebreaking runs can be inspected rather than discarded;
    raised by an RHS evaluation on its own, it carries neither.
    """

    def __init__(self, t, max_gradient, last_state=None, partial=None):
        super().__init__(
            f"blow-up detected at t={t:.6g} (max |u_x| = {max_gradient:.3e})"
        )
        self.t = t
        self.max_gradient = max_gradient
        self.last_state = last_state
        self.partial = partial


@dataclass(frozen=True)
class Params:
    """Model constants selecting a member of the two-component family.

    alpha may be a real constant or a RealField sampled on the grid; it is
    time independent either way.  b = 1 is allowed by the dynamics but
    rejected by the Casimir diagnostic.
    """

    b: float = 2.0
    kappa: float = 1.0
    alpha: object = 0.0
    r: float = 1.0

    def __post_init__(self):
        if self.r < 1.0:
            raise ValueError(f"inertia exponent r must be >= 1, got {self.r}")

    def alpha_samples(self, grid: Grid):
        if isinstance(self.alpha, RealField):
            if self.alpha.grid != grid:
                raise ValueError("alpha field lives on a different grid")
            return self.alpha.samples
        return float(self.alpha)

    def alpha_is_zero(self) -> bool:
        if isinstance(self.alpha, RealField):
            return bool(np.all(self.alpha.samples == 0.0))
        return self.alpha == 0.0


@dataclass(frozen=True)
class State:
    t: float
    u: RealField
    rho: RealField

    def __post_init__(self):
        if self.u.grid != self.rho.grid:
            raise ValueError("u and rho must share a grid")

    @property
    def grid(self) -> Grid:
        return self.u.grid


@dataclass(frozen=True)
class StepControl:
    cfl: float = 0.3
    dt_max: float = 0.01
    t_final: float = 1.0
    dealias: bool = True
    gradient_ceiling: float = 1e6

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.dt_max <= 0:
            raise ValueError("dt_max must be positive")


@dataclass
class Trajectory:
    """Snapshots of a run plus the settings that produced them.

    ``y[i]`` is the stacked (u, rho) at ``times[i]``: ``times`` has shape
    (T,) and ``y`` shape (T, 2, n).  Both are read-only; ``u`` and ``rho``
    are views of ``y``, and ``m`` is computed from ``u`` on each access.
    """

    grid: Grid
    times: np.ndarray
    y: np.ndarray
    params: Params
    ctrl: StepControl
    formulation: str = "m"
    max_dt: float = 0.0
    min_dt: float = np.inf
    steps: int = 0

    def __post_init__(self):
        # views, so the caller's arrays keep their own flags
        self.times = np.asarray(self.times, dtype=float).view()
        self.y = np.asarray(self.y, dtype=float).view()
        if self.y.shape != (len(self.times), 2, self.grid.n):
            raise ValueError(f"y has shape {self.y.shape}, not (len(times), 2, n)")
        self.times.flags.writeable = False
        self.y.flags.writeable = False

    @property
    def u(self):
        return self.y[:, 0]

    @property
    def rho(self):
        return self.y[:, 1]

    @property
    def m(self):
        """Momentum (1 - d^2/dx^2)^r u of every snapshot, shape (T, n)."""
        inertia = operators(self.grid, self.params.r).inertia
        return np.fft.irfft(inertia * np.fft.rfft(self.u), self.grid.n)

    @property
    def states(self):
        """The snapshots as States (read-only views of the rows)."""
        return tuple(State(t, RealField(self.grid, u), RealField(self.grid, rho))
                     for t, u, rho in zip(self.times, self.u, self.rho))


# ---------------------------------------------------------------------------
# RHS evaluation (array level on the stacked (u, rho), RealField at the
# boundary)
# ---------------------------------------------------------------------------


def _m_form(ops: Operators, params: Params, t: float, y):
    """Momentum-form RHS of the stacked (u, rho); valid for any r >= 1.

    Each equation's products are summed pointwise and dealiased once; the
    momentum sum goes straight to u_t through mask / inertia.
    """
    u, rho = y
    n = ops.grid.n
    y_hat = np.fft.rfft(y)
    u_x, m, m_x, rho_x = np.fft.irfft(ops.jet * y_hat[[0, 0, 0, 1]], n)
    alpha = params.alpha_samples(ops.grid)

    nl_m = params.b * u_x * m + u * m_x + params.kappa * rho * rho_x
    if isinstance(alpha, np.ndarray):
        nl_m -= alpha * u_x
    if not np.all(np.isfinite(nl_m)):
        raise BlowUpError(t, float(np.max(np.abs(u_x))))
    nl_rho = u * rho_x + (params.b - 1.0) * u_x * rho
    dy_hat = -ops.solve * np.fft.rfft(np.stack((nl_m, nl_rho)))
    if not isinstance(alpha, np.ndarray) and alpha != 0.0:
        dy_hat[0] += alpha * (ops.ixi / ops.inertia) * y_hat[0]
    return np.fft.irfft(dy_hat, n)


def _pressure_hat(ops: Operators, params: Params, u, u_x, rho, u_hat):
    """Half spectrum of P = (b/2)u^2 + ((3-b)/2)u_x^2 + (kappa/2)rho^2 - alpha*u,
    its quadratic part summed and dealiased once."""
    quad = (
        0.5 * params.b * u * u
        + 0.5 * (3.0 - params.b) * u_x * u_x
        + 0.5 * params.kappa * rho * rho
    )
    alpha = params.alpha_samples(ops.grid)
    if isinstance(alpha, np.ndarray):
        quad -= alpha * u
        return ops.mask * np.fft.rfft(quad)
    return ops.mask * np.fft.rfft(quad) - alpha * u_hat


def _nonlocal(ops: Operators, params: Params, t: float, y):
    """Nonlocal (Green's function) RHS of the stacked (u, rho).

    Stated for r = 1 and constant alpha: the reduction of the alpha term
    into the pressure uses alpha*u_x = d/dx(alpha*u).
    """
    if params.r != 1.0:
        raise FormulationError(
            f"the nonlocal formulation requires r = 1, got r = {params.r}"
        )
    if isinstance(params.alpha, RealField):
        raise FormulationError(
            "the nonlocal formulation requires a constant alpha"
        )
    u, rho = y
    n = ops.grid.n
    y_hat = np.fft.rfft(y)
    u_x, rho_x = np.fft.irfft(ops.ixi * y_hat, n)
    p_hat = _pressure_hat(ops, params, u, u_x, rho, y_hat[0])
    nl_hat = ops.mask * np.fft.rfft(
        np.stack((u * u_x, u * rho_x + (params.b - 1.0) * u_x * rho))
    )
    nl_hat[0] += (ops.ixi / ops.inertia) * p_hat
    dy = -np.fft.irfft(nl_hat, n)
    if not np.all(np.isfinite(dy[0])):
        raise BlowUpError(t, float(np.max(np.abs(u_x))))
    return dy


def _on_state(rhs, state: State, params: Params, use_dealias: bool):
    grid = state.grid
    y = np.stack((state.u.samples, state.rho.samples))
    dy = rhs(operators(grid, params.r, use_dealias), params, state.t, y)
    return RealField(grid, dy[0]), RealField(grid, dy[1])


def rhs_m_form(state: State, params: Params, use_dealias: bool = True):
    """Momentum-form RHS (du/dt, drho/dt); valid for any r >= 1."""
    return _on_state(_m_form, state, params, use_dealias)


def rhs_nonlocal(state: State, params: Params, use_dealias: bool = True):
    """Nonlocal-form RHS (du/dt, drho/dt); r = 1 and constant alpha only."""
    return _on_state(_nonlocal, state, params, use_dealias)


_RHS = {"m": _m_form, "nonlocal": _nonlocal}


def get_rhs(formulation: str):
    try:
        return _RHS[formulation]
    except KeyError:
        raise FormulationError(
            f"unknown formulation {formulation!r}; choose 'm' or 'nonlocal'"
        ) from None


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------


def rk4(f, t, y, h):
    """One classical four-stage Runge-Kutta step of y' = f(t, y), y an array."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_rk4(state: State, params: Params, dt: float, formulation: str = "m",
             use_dealias: bool = True) -> State:
    """One classical four-stage Runge-Kutta step."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    rhs = partial(get_rhs(formulation), operators(state.grid, params.r, use_dealias), params)
    y = rk4(rhs, state.t, np.stack((state.u.samples, state.rho.samples)), dt)
    return State(state.t + dt, RealField(state.grid, y[0]), RealField(state.grid, y[1]))


def _max_gradient(ops: Operators, state: State) -> float:
    return float(np.max(np.abs(ops.dx(state.u.samples))))


def integrate(state0: State, params: Params, ctrl: StepControl,
              formulation: str = "m", output_times=None) -> Trajectory:
    """Advance to ctrl.t_final with CFL-limited steps, recording snapshots.

    dt = min(dt_max, cfl*dx / max(1, max|u|)), clipped so every requested
    output time is hit exactly.  Raises ValueError if the initial u or rho
    is non-finite, and BlowUpError if max|u_x| exceeds the ceiling or a
    non-finite value appears, in a step's result or inside the RHS; the
    error carries the last valid state and the partial trajectory of the
    snapshots recorded before it.
    """
    state0.u.validate()
    state0.rho.validate()
    grid = state0.grid
    ops = operators(grid, params.r, ctrl.dealias)
    if output_times is None:
        output_times = np.linspace(state0.t, ctrl.t_final, 17)
    output_times = np.asarray(output_times, dtype=float)
    if output_times.ndim != 1 or np.any(np.diff(output_times) <= 0):
        raise ValueError("output times must be strictly increasing")
    if abs(output_times[-1] - ctrl.t_final) > 1e-12:
        raise ValueError("last output time must equal t_final")

    state = state0
    if ctrl.dealias:
        state = State(state0.t, dealias(state0.u), dealias(state0.rho))
    times = np.empty(len(output_times))
    ys = np.empty((len(output_times), 2, grid.n))
    steps, max_dt, min_dt = 0, 0.0, np.inf
    next_out = 0

    def record(state):
        nonlocal next_out
        times[next_out], ys[next_out] = state.t, (state.u.samples, state.rho.samples)
        next_out += 1

    def recorded():
        return Trajectory(grid, times[:next_out], ys[:next_out], params, ctrl,
                          formulation, max_dt, min_dt, steps)

    if abs(output_times[0] - state.t) <= 1e-14:
        record(state)

    while next_out < len(output_times):
        umax = float(np.max(np.abs(state.u.samples)))
        dt = min(ctrl.dt_max, ctrl.cfl * grid.dx / max(1.0, umax))
        t_target = output_times[next_out]
        hit_output = state.t + dt >= t_target - 1e-13
        if hit_output:
            dt = t_target - state.t
        try:
            new_state = step_rk4(state, params, dt, formulation, ctrl.dealias)
        except BlowUpError as exc:
            raise BlowUpError(exc.t, exc.max_gradient, state, recorded()) from exc
        if hit_output:
            new_state = replace(new_state, t=t_target)

        if not np.all(np.isfinite(new_state.u.samples)) or not np.all(
            np.isfinite(new_state.rho.samples)
        ):
            raise BlowUpError(state.t, _max_gradient(ops, state), state, recorded())
        grad = _max_gradient(ops, new_state)
        if grad > ctrl.gradient_ceiling:
            raise BlowUpError(new_state.t, grad, state, recorded())

        steps += 1
        max_dt = max(max_dt, dt)
        min_dt = min(min_dt, dt)
        state = new_state
        if hit_output:
            record(state)
    return recorded()


# ---------------------------------------------------------------------------
# Approximation-by-iteration scheme
# ---------------------------------------------------------------------------


def lagrange4(times, series, t):
    """Cubic Lagrange interpolant at t of series on the four snapshots
    bracketing t; series[i] is an array sampled at times[i]."""
    n = len(times)
    j = int(np.searchsorted(times, t) - 1)
    lo = min(max(j - 1, 0), n - 4)
    idx = np.arange(lo, lo + 4)
    w = np.ones(4)
    for a in range(4):
        for b_ in range(4):
            if a != b_:
                w[a] *= (t - times[idx[b_]]) / (times[idx[a]] - times[idx[b_]])
    return sum(wi * series[i] for wi, i in zip(w, idx))


def rk4_stages(times, series, j, h):
    """The values of series at the four stages of the rk4 step of size h
    from times[j], in rk4's call order: series[j], the midpoint value twice
    (cubic in time; the mean of the two ends with fewer than four
    snapshots), series[j + 1]."""
    if len(times) > 3:
        mid = lagrange4(times, series, times[j] + 0.5 * h)
    else:
        mid = 0.5 * (series[j] + series[j + 1])
    return iter((series[j], mid, mid, series[j + 1]))


def friedrichs_iterate(u0: RealField, rho0: RealField, params: Params,
                       K: int, ctrl: StepControl):
    """Linear-transport iteration converging to the direct solution.

    Iterate 0 is the zero pair.  Iterate k+1 solves, with coefficients and
    sources frozen from iterate k,

        m_t = -u_k m_x + alpha u_{k,x} - b u_{k,x} m_k - kappa rho_k rho_{k,x},
        rho_t = -u_k rho_x - (b-1) u_{k,x} rho_k,

    from low-passed data (modes |xi| < 2^{k+1} kept).  All iterates share a
    fixed step dt = ctrl.dt_max so coefficient time grids line up; midpoint
    coefficient values come from cubic interpolation in time.  Returns the
    list of trajectories for iterates 0..K.
    """
    if K < 1:
        raise ValueError("need at least one iterate")
    grid = u0.grid
    dt = ctrl.dt_max
    nsteps = int(round(ctrl.t_final / dt))
    if abs(nsteps * dt - ctrl.t_final) > 1e-10:
        raise ValueError("t_final must be an integer multiple of dt_max")
    if nsteps < 3:
        raise ValueError("need at least three steps for midpoint interpolation")
    times = dt * np.arange(nsteps + 1)
    ops = operators(grid, params.r, ctrl.dealias)
    n = grid.n
    alpha = params.alpha_samples(grid)

    iterates = [
        Trajectory(grid, times, np.zeros((nsteps + 1, 2, n)), params, ctrl, "linearized")
    ]
    # Frozen coefficient u_k and the sources, one row per snapshot; the m
    # source is carried as its u_t share, (m source) / inertia.
    frozen = np.empty((nsteps + 1, 3, n))

    for k in range(K):
        for yk, row in zip(iterates[-1].y, frozen):
            uk, rk = yk
            y_hat = np.fft.rfft(yk)
            uk_x, mk, rk_x = np.fft.irfft(ops.jet[[0, 1, 3]] * y_hat[[0, 0, 1]], n)
            # the alpha u_{k,x} source enters as in _m_form
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
            grads = np.fft.irfft(ops.jet[2:] * np.fft.rfft(y), n)   # m_x, rho_x
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
        iterates.append(Trajectory(grid, times, ys, params, ctrl, "linearized"))
    return iterates


# ---------------------------------------------------------------------------
# Paired-run continuous dependence measurement
# ---------------------------------------------------------------------------


@dataclass
class StabilityResult:
    """Difference-norm measurements for a battery of perturbation sizes."""

    eps: np.ndarray            # perturbation sizes
    sup_du: np.ndarray         # sup_t of the u-difference norm, per eps
    sup_drho: np.ndarray       # sup_t of the rho-difference norm, per eps
    times: np.ndarray
    du_series: list            # u-difference norm time series, per eps
    drho_series: list
    gamma: np.ndarray          # measured growth-rate integrand per snapshot
    s: float

    def gamma_integral(self):
        """Cumulative integral of the growth integrand (trapezoid)."""
        steps = 0.5 * (self.gamma[1:] + self.gamma[:-1]) * np.diff(self.times)
        return np.concatenate(([0.0], np.cumsum(steps)))


def stability_pair(u0: RealField, rho0: RealField, perturbation: RealField,
                   eps_list, params: Params, ctrl: StepControl, s: float = 3.0,
                   formulation: str = "m", output_times=None) -> StabilityResult:
    """Run (u0, rho0) against (u0 + eps*pert, rho0) for each eps.

    Differences are measured in the p = q = 2 dyadic norms at regularity
    s-1 for u and s-2r for rho; the growth integrand per snapshot is the sum
    of the solution norms at regularity s (u) and s-2r+1 (rho) plus the
    size of alpha.
    """
    grid = u0.grid
    base = integrate(State(0.0, u0, rho0), params, ctrl, formulation, output_times)
    times = base.times
    r = params.r
    idx_du = besov.BesovIndex(s - 1.0)
    idx_drho = besov.BesovIndex(s - 2.0 * r)
    idx_u = besov.BesovIndex(s)
    idx_rho = besov.BesovIndex(s - 2.0 * r + 1.0)

    if isinstance(params.alpha, RealField):
        alpha_norm = besov.besov_norm(params.alpha, besov.BesovIndex(s - 2.0 * r))
    else:
        alpha_norm = abs(float(params.alpha))

    def norms(rows, idx):
        return np.array([besov.besov_norm(RealField(grid, f), idx) for f in rows])

    eps_arr = np.asarray(list(eps_list), dtype=float)
    du_series, drho_series = [], []
    gamma = None
    for eps in eps_arr:
        u0p = RealField(grid, u0.samples + eps * perturbation.samples)
        pert_run = integrate(State(0.0, u0p, rho0), params, ctrl, formulation, times)
        du_series.append(norms(pert_run.u - base.u, idx_du))
        drho_series.append(norms(pert_run.rho - base.rho, idx_drho))
        if gamma is None:
            # The growth integrand pairs the base run with the first
            # perturbed run only.
            gamma = (norms(base.u, idx_u) + norms(pert_run.u, idx_u)
                     + norms(base.rho, idx_rho) + norms(pert_run.rho, idx_rho)
                     + alpha_norm)

    return StabilityResult(
        eps=eps_arr,
        sup_du=np.array([s_.max() for s_ in du_series]),
        sup_drho=np.array([s_.max() for s_ in drho_series]),
        times=times,
        du_series=du_series,
        drho_series=drho_series,
        gamma=gamma,
        s=s,
    )
