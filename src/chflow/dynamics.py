"""Right-hand sides, time integration, and the approximation experiments.

The evolved unknowns are (u, rho), carried by the time steppers as their
rfft half spectra y_hat of shape (..., 2, n/2+1); the momentum
m = (1 - d^2/dx^2)^r u is recomputed from u inside every RHS call so the
two representations cannot drift apart.  The steppers advance the ``m``
form (any r >= 1):

      m_t = alpha*u_x - b*u_x*m - u*m_x - kappa*rho*rho_x,
      rho_t = -u*rho_x - (b-1)*u_x*rho,

with du/dt recovered through the inverse inertia operator.  The
``nonlocal`` form (r = 1 and a constant alpha only),

      u_t + u*u_x = -d/dx G * P(u, rho),
      P = (b/2)u^2 + ((3-b)/2)u_x^2 + (kappa/2)rho^2 - alpha*u,

with G the kernel of (1 - d^2/dx^2)^(-1), is the reference rhs_nonlocal
checks the m form against; no stepper advances it.

Dealiasing (two-thirds rule) is linear, so each equation's products are
summed pointwise and the sum is dealiased once (Orszag, J. Atmos. Sci. 28,
1971); for band-limited states the two forms agree to round-off, and that
equivalence is one of the artifact's checks.  All transforms are real
(rfft/irfft on the half spectrum).  An RHS evaluation takes y_hat and
returns dy_hat with two transforms: one irfft of the jet (u, its
derivatives, rho, rho_x) and one rfft of the summed products.  The m form's
jet may also be handed in: integrate_ensemble transforms each step's result
into its jet once, reads the snapshots, the gradient check and the CFL
step from its first rows, and passes it to the next step's first stage, so
a step makes 8 FFT calls (4 rfft, 3 irfft inside the stages, 1 irfft of
the jet).  The public rhs_m_form, rhs_nonlocal and step_rk4 of a State
transform at their boundaries.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import besov
from .spectral import (
    ConfigurationError,
    Grid,
    Operators,
    RealField,
    inertia_exponent_errors,
    operators,
    raise_errors,
)


class FormulationError(ConfigurationError):
    """The nonlocal form is not valid for these parameters."""


class BlowUpError(RuntimeError):
    """Gradient ceiling exceeded or non-finite values appeared.

    ``member`` is the index of the failing member in an ensemble or a
    stacked RHS evaluation (None for the RHS of a single state).  Raised by
    integrate or integrate_ensemble, the error carries that member's last
    valid state and partial trajectory so wavebreaking runs can be inspected
    rather than discarded; raised by an RHS evaluation on its own, it
    carries neither.
    """

    def __init__(self, t, max_gradient, last_state=None, partial=None, member=None):
        where = "" if member is None else f" in member {member}"
        super().__init__(
            f"blow-up detected at t={t:.6g}{where} (max |u_x| = {max_gradient:.3e})"
        )
        self.t = t
        self.max_gradient = max_gradient
        self.last_state = last_state
        self.partial = partial
        self.member = member


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
        # every field is a number, except an alpha given as a field
        errors = [f"{name} must be finite, got {value}" for name, value in vars(self).items()
                  if not isinstance(value, RealField) and not math.isfinite(value)]
        raise_errors(errors + inertia_exponent_errors(self.r))

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
class Stack:
    """B states on one grid as one array of half spectra: ``y[i]`` is the
    rfft of the stacked (u, rho) of member i at time ``t[i]``; t has shape
    (B, 1, 1) and y (B, 2, n/2+1).  The imaginary part of the Nyquist entry
    is zero, as in the rfft of real samples."""

    grid: Grid
    t: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class StepControl:
    cfl: float = 0.3
    dt_max: float = 0.01
    t_final: float = 1.0
    dealias: bool = True
    gradient_ceiling: float = 1e6

    def __post_init__(self):
        errors = [] if 0.0 < self.cfl <= 1.0 else [f"cfl must lie in (0, 1], got {self.cfl}"]
        for name in ("dt_max", "t_final"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                errors.append(f"{name} must be finite and positive, got {value}")
        # inf switches the ceiling off; non-finite values still end a run
        if not self.gradient_ceiling > 0:
            errors.append(f"gradient_ceiling must be positive, got {self.gradient_ceiling}")
        raise_errors(errors)


@dataclass
class Trajectory:
    """Snapshots of a run, its model constants and its step statistics.

    ``y[i]`` is the stacked (u, rho) at ``times[i]``: ``times`` has shape
    (T,) and ``y`` shape (T, 2, n).  Both are read-only; ``u`` and ``rho``
    are views of ``y``, and ``m`` is computed from ``u`` on each access.
    """

    grid: Grid
    times: np.ndarray
    y: np.ndarray
    params: Params
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
        return self.grid.apply_multiplier(self.u, operators(self.grid, self.params.r).inertia)


# ---------------------------------------------------------------------------
# RHS evaluation (array level on the half spectra y_hat of the stacked
# (u, rho), shape (2, n/2+1), or a stack (B, 2, n/2+1) of B members;
# RealField at the boundary)
# ---------------------------------------------------------------------------


def _check_finite(t, u_x, values):
    """Raise BlowUpError unless values are all finite; with a member axis
    (values of shape (B, k)) the error names the first failing member."""
    finite = np.isfinite(values)
    if finite.all():
        return
    if values.ndim == 1:
        raise BlowUpError(t, float(np.max(np.abs(u_x))))
    i = int(np.argmin(finite.all(axis=-1)))
    t_i = t if np.ndim(t) == 0 else float(np.ravel(t)[i])
    raise BlowUpError(t_i, float(np.max(np.abs(u_x[i]))), member=i)


def _jet(y_hat, n, u_mult, rho_mult=()):
    """Samples of (u, rho), then of u_mult[i] * u_hat for each i, then of
    rho_mult[i] * rho_hat, from one irfft of a buffer of this call."""
    k = len(u_mult)
    buf = np.empty(y_hat.shape[:-2] + (2 + k + len(rho_mult), y_hat.shape[-1]), complex)
    buf[..., :2, :] = y_hat
    np.multiply(u_mult, y_hat[..., :1, :], out=buf[..., 2:2 + k, :])
    if len(rho_mult):
        np.multiply(rho_mult, y_hat[..., 1:, :], out=buf[..., 2 + k:, :])
    return np.fft.irfft(buf, n)


def _real_nyquist(dy_hat):
    """Drop the imaginary part of the Nyquist entry, as irfft would: an odd
    multiplier (i*xi) leaves one there, which must not reach u_x."""
    dy_hat[..., -1].imag = 0.0
    return dy_hat


def _m_jet(ops: Operators, y_hat):
    """The jet (u, rho, u_x, m, m_x, rho_x) the m form reads, one irfft."""
    return _jet(y_hat, ops.grid.n, ops.jet[:3], ops.jet[3:])


def _m_form(ops: Operators, params: Params, t, y_hat, jet=None):
    """Momentum-form RHS of the half spectra of the stacked (u, rho); valid
    for any r >= 1.

    One irfft gives (u, rho, u_x, m, m_x, rho_x), unless that jet of y_hat
    is given; each equation's products are summed pointwise and dealiased
    once, in one rfft, and the momentum sum goes straight to u_t through
    mask / inertia.
    """
    if jet is None:
        jet = _m_jet(ops, y_hat)
    u, rho, u_x, m, m_x, rho_x = (jet[..., i, :] for i in range(6))
    alpha = params.alpha_samples(ops.grid)

    prods = np.empty_like(jet[..., :2, :])
    nl_m, nl_rho = prods[..., 0, :], prods[..., 1, :]
    np.multiply(params.b * u_x, m, out=nl_m)
    nl_m += u * m_x
    nl_m += params.kappa * rho * rho_x
    if isinstance(alpha, np.ndarray):
        nl_m -= alpha * u_x
    _check_finite(t, u_x, nl_m)
    np.multiply(u, rho_x, out=nl_rho)
    nl_rho += (params.b - 1.0) * u_x * rho
    dy_hat = np.fft.rfft(prods)
    dy_hat *= -ops.solve
    if not isinstance(alpha, np.ndarray) and alpha != 0.0:
        dy_hat[..., 0, :] += alpha * (ops.ixi / ops.inertia) * y_hat[..., 0, :]
        _real_nyquist(dy_hat)
    return dy_hat


def _nonlocal(ops: Operators, params: Params, t, y_hat):
    """Nonlocal (Green's function) RHS of the half spectra of the stacked
    (u, rho), the reference the m form is checked against.

    Stated for r = 1 and constant alpha: the reduction of the alpha term
    into the pressure P = (b/2)u^2 + ((3-b)/2)u_x^2 + (kappa/2)rho^2 - alpha*u
    uses alpha*u_x = d/dx(alpha*u).  One irfft gives (u, rho, u_x, rho_x);
    the quadratic part of P and the two transport products are dealiased in
    one rfft.  The Nyquist entry of the result may keep an imaginary part,
    which the irfft of every caller drops.
    """
    raise_errors(nonlocal_errors(params.r, params.alpha), FormulationError)
    jet = _jet(y_hat, ops.grid.n, ops.jet[:1], ops.jet[3:])
    u, rho, u_x, rho_x = (jet[..., i, :] for i in range(4))
    quad = (
        0.5 * params.b * u * u
        + 0.5 * (3.0 - params.b) * u_x * u_x
        + 0.5 * params.kappa * rho * rho
    )
    prods_hat = ops.mask * np.fft.rfft(
        np.stack((quad, u * u_x, u * rho_x + (params.b - 1.0) * u_x * rho), axis=-2)
    )
    p_hat = prods_hat[..., 0, :] - float(params.alpha) * y_hat[..., 0, :]
    nl_hat = prods_hat[..., 1:, :]
    nl_hat[..., 0, :] += (ops.ixi / ops.inertia) * p_hat
    dy_hat = -nl_hat
    _check_finite(t, u_x, dy_hat[..., 0, :])
    return dy_hat


def _on_state(rhs, state: State, params: Params, use_dealias: bool):
    grid = state.grid
    y_hat = np.fft.rfft(np.stack((state.u.samples, state.rho.samples)))
    dy = np.fft.irfft(rhs(operators(grid, params.r, use_dealias), params, state.t, y_hat), grid.n)
    return RealField(grid, dy[0]), RealField(grid, dy[1])


def rhs_m_form(state: State, params: Params, use_dealias: bool = True):
    """Momentum-form RHS (du/dt, drho/dt); valid for any r >= 1."""
    return _on_state(_m_form, state, params, use_dealias)


def rhs_nonlocal(state: State, params: Params, use_dealias: bool = True):
    """Nonlocal-form RHS (du/dt, drho/dt); r = 1 and constant alpha only."""
    return _on_state(_nonlocal, state, params, use_dealias)


# step_rk4 reads its RHS from this table at call time, so a tracer that
# wraps the entry (perfbench/spans.py) sees every stage evaluation
_RHS = {"m": _m_form}


def nonlocal_errors(r=1.0, alpha=0.0):
    """Why the nonlocal form cannot be evaluated with inertia exponent r
    and this alpha, one message per reason; [] when it can: it needs r = 1
    and a constant alpha."""
    errors = [] if r == 1.0 else [f"the nonlocal form requires r = 1, got r = {r}"]
    if isinstance(alpha, RealField):
        errors.append("the nonlocal form requires a constant alpha")
    return errors


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------


def rk4(f, t, y, h, k1=None):
    """One classical four-stage Runge-Kutta step of y' = f(t, y), y an array;
    k1 is f(t, y), evaluated here unless the caller has it.

    The stages are combined on the real view of y and of each f(t, y): the
    coefficients are real, so a complex y (a half spectrum) costs real
    arithmetic rather than complex products.
    """
    dtype = y.dtype

    def g(s, v):
        return f(s, v.view(dtype)).view(float)

    y = y.view(float)
    half = 0.5 * h
    # acc = k1 + 2 k2 + 2 k3 + k4, summed in that order as the stages end;
    # a stage value is dropped as soon as it is in acc and has formed the
    # next stage's input, so it is not held while that stage is evaluated
    k1 = g(t, y) if k1 is None else k1.view(float)
    k = g(t + half, y + half * k1)
    acc = k1 + 2.0 * k
    del k1
    k = y + half * k
    k = g(t + half, k)
    acc += 2.0 * k
    k = y + h * k
    acc += g(t + h, k)
    return (y + (h / 6.0) * acc).view(dtype)


def step_rk4(state, params: Params, dt, use_dealias: bool = True, jet=None):
    """One classical four-stage Runge-Kutta step of the m form, for a State
    or for every member of a Stack at once (dt then has shape (B, 1, 1),
    one per member).  A Stack is stepped in its half spectra; a State is
    transformed to them and back.  A Stack's jet, the samples _m_jet gives
    of its spectra, saves the first stage its irfft; it is dropped once
    that stage is evaluated, so a caller that hands over its only reference
    frees it before the second stage."""
    if (np.asarray(dt) <= 0).any():
        raise ValueError("dt must be positive")
    rhs = partial(_RHS["m"], operators(state.grid, params.r, use_dealias), params)
    if isinstance(state, Stack):
        k1 = None if jet is None else rhs(state.t, state.y, jet)
        del jet
        return Stack(state.grid, state.t + dt, rk4(rhs, state.t, state.y, dt, k1))
    y_hat = np.fft.rfft(np.stack((state.u.samples, state.rho.samples)))
    y = np.fft.irfft(rk4(rhs, state.t, y_hat, dt), state.grid.n)
    return State(state.t + dt, RealField(state.grid, y[0]), RealField(state.grid, y[1]))


def integrate_ensemble(states0, params: Params, ctrl: StepControl,
                       output_times=None, dt_max=None) -> list:
    """Advance every state of states0 to ctrl.t_final, recording snapshots;
    returns one Trajectory per state.

    The members share a grid and a start time and are advanced as one
    (B, 2, n/2+1) stack of half spectra, one step_rk4 call per step.  After
    each step one irfft gives the m form's jet of the new spectra
    (see _m_jet): its rows (u, rho, u_x) give the snapshots, the gradient
    check and the next step's max|u|, and the whole jet is the next step's
    first RHS input, so no stage transforms the same spectra twice.  Each
    member takes its own step dt = min(dt_max[i], cfl*dx / max(1, max|u|)),
    clipped so every requested output time is hit exactly, and leaves the
    stack once its last output is recorded; dt_max holds one bound per
    member and defaults to ctrl.dt_max for all.  Member i's Trajectory
    therefore equals integrate(states0[i], ...) with
    ctrl.dt_max = dt_max[i], bit for bit.  Raises ValueError if an initial
    u or rho is non-finite, an output time is non-finite or out of order,
    or a dt_max is missing, non-finite or not positive; raises BlowUpError
    if a member's max|u_x| exceeds the ceiling or a non-finite value
    appears, in a step's result or inside the RHS; the error names the
    first member that failed in the step and carries its last valid state
    and the partial trajectory of the snapshots it recorded before it.
    """
    states0 = list(states0)
    if not states0:
        raise ValueError("an ensemble needs at least one state")
    for st in states0:
        st.u.validate()
        st.rho.validate()
    grid, t0 = states0[0].grid, states0[0].t
    if any(st.grid != grid or st.t != t0 for st in states0):
        raise ValueError("ensemble members must share a grid and a start time")
    B = len(states0)
    dt_max = [ctrl.dt_max] * B if dt_max is None else [float(d) for d in dt_max]
    if len(dt_max) != B:
        raise ValueError(f"dt_max needs one value per member: {len(dt_max)} for {B}")
    if not all(math.isfinite(d) and d > 0 for d in dt_max):
        raise ValueError(f"every dt_max must be finite and positive, got {dt_max}")
    ops = operators(grid, params.r, ctrl.dealias)
    jet_of = partial(_m_jet, ops)
    if output_times is None:
        output_times = np.linspace(t0, ctrl.t_final, 17)
    output_times = np.asarray(output_times, dtype=float)
    if output_times.ndim != 1 or not np.isfinite(output_times).all():
        raise ValueError("output times must be a finite 1-d sequence")
    if np.any(np.diff(output_times) <= 0):
        raise ValueError("output times must be strictly increasing")
    if abs(output_times[-1] - ctrl.t_final) > 1e-12:
        raise ValueError("last output time must equal t_final")

    y = np.stack([(st.u.samples, st.rho.samples) for st in states0])
    y_hat = np.fft.rfft(y)
    if ctrl.dealias:
        y_hat *= ops.mask
    phys = jet_of(y_hat)
    if ctrl.dealias:
        y = phys[:, :2]
    T = len(output_times)
    times = np.empty((B, T))
    ys = np.empty((B, T, 2, grid.n))
    # per member: snapshots recorded, steps taken, step size range
    count, steps = [0] * B, [0] * B
    max_dt, min_dt = [0.0] * B, [np.inf] * B

    def recorded(i):
        return Trajectory(grid, times[i, :count[i]], ys[i, :count[i]], params,
                          max_dt[i], min_dt[i], steps[i])

    def blowup(row, t_fail, grad=None):
        # the last valid state is rebuilt from its half spectra
        i = members[row]
        u, rho, u_x = jet_of(y_hat[row:row + 1])[0, :3]
        last = State(t[row], RealField(grid, u), RealField(grid, rho))
        if grad is None:
            grad = np.abs(u_x).max()
        return BlowUpError(t_fail, float(grad), last, recorded(i), member=i)

    if abs(output_times[0] - t0) <= 1e-14:
        times[:, 0], ys[:, 0], count = t0, y, [1] * B
    # stack row k holds member members[k] at time t[k]; jet holds the jet
    # of y_hat for the next step's first stage, in a one-item list so that
    # the step can be handed its only reference (see step_rk4)
    members = [i for i in range(B) if count[i] < T]
    t = [t0] * len(members)
    u_max = np.abs(y[members, 0]).max(axis=-1)
    jet = [phys]
    del y, phys

    while members:
        dt, t_new, hit = [], [], []
        for row, i in enumerate(members):
            h = min(dt_max[i], ctrl.cfl * grid.dx / max(1.0, float(u_max[row])))
            t_target = output_times[count[i]]
            hit.append(t[row] + h >= t_target - 1e-13)
            dt.append(t_target - t[row] if hit[row] else h)
            t_new.append(t_target if hit[row] else t[row] + dt[row])
        try:
            y_new = step_rk4(Stack(grid, np.array(t)[:, None, None], y_hat), params,
                             np.array(dt)[:, None, None], ctrl.dealias, jet.pop()).y
        except BlowUpError as exc:
            raise blowup(exc.member, exc.t, exc.max_gradient) from exc

        phys = jet_of(y_new)
        finite = np.isfinite(phys[:, :2])
        if not finite.all():
            row = int(np.argmin(finite.all(axis=(1, 2))))
            raise blowup(row, t[row])
        grad = np.abs(phys[:, 2]).max(axis=-1)
        for row, i in enumerate(members):
            if grad[row] > ctrl.gradient_ceiling:
                raise blowup(row, t_new[row], grad[row])
            steps[i] += 1
            max_dt[i], min_dt[i] = max(max_dt[i], dt[row]), min(min_dt[i], dt[row])
            if hit[row]:
                times[i, count[i]], ys[i, count[i]] = t_new[row], phys[row, :2]
                count[i] += 1

        # a member whose last output is recorded leaves the stack
        rows = [row for row, i in enumerate(members) if count[i] < T]
        members, t = [members[row] for row in rows], [t_new[row] for row in rows]
        u_max = np.abs(phys[rows, 0]).max(axis=-1)
        if len(rows) < len(phys):
            y_new, phys = y_new[rows], phys[rows]
        y_hat = y_new
        jet.append(phys)
        del phys, y_new
    return [recorded(i) for i in range(B)]


def integrate(state0: State, params: Params, ctrl: StepControl,
              output_times=None) -> Trajectory:
    """Advance one state to ctrl.t_final: the one-member case of
    :func:`integrate_ensemble`, whose step rule and blow-up report it shares."""
    return integrate_ensemble([state0], params, ctrl, output_times)[0]


# ---------------------------------------------------------------------------
# Approximation-by-iteration scheme
# ---------------------------------------------------------------------------


def cubic_weights(times, t):
    """The cubic Lagrange interpolant at t on the four snapshots bracketing
    t, as (lo, w): its value is sum_a w[a] * series[lo + a]."""
    n = len(times)
    j = int(np.searchsorted(times, t) - 1)
    lo = min(max(j - 1, 0), n - 4)
    idx = np.arange(lo, lo + 4)
    w = np.ones(4)
    for a in range(4):
        for b_ in range(4):
            if a != b_:
                w[a] *= (t - times[idx[b_]]) / (times[idx[a]] - times[idx[b_]])
    return lo, w


def lagrange4(series, weights):
    """The cubic interpolant of series with the (lo, w) of
    :func:`cubic_weights`; series[i] is an array sampled at times[i]."""
    lo, w = weights
    return sum(wi * series[lo + a] for a, wi in enumerate(w))


def rk4_stages(times, series, j, h, mid_weights=None):
    """The values of series at the four stages of the rk4 step of size h
    from times[j], in rk4's call order: series[j], the midpoint value twice
    (cubic in time; the mean of the two ends with fewer than four
    snapshots), series[j + 1].  mid_weights are the midpoint's
    cubic_weights, when the caller has computed them already."""
    if len(times) > 3:
        mid = lagrange4(series, mid_weights or cubic_weights(times, times[j] + 0.5 * h))
    else:
        mid = 0.5 * (series[j] + series[j + 1])
    return iter((series[j], mid, mid, series[j + 1]))


# Iterate k+1 lags iterate k by this many steps, and the frozen rows of each
# iterate are kept in a rolling window of _WINDOW rows (see friedrichs_iterate).
_LAG = 3
_WINDOW = 8


class _Window:
    """A series whose row i lives in slot i % len(rows) of a rolling buffer."""

    def __init__(self, rows):
        self.rows = rows

    def __getitem__(self, i):
        return self.rows[i % len(self.rows)]


def friedrichs_iterate(u0: RealField, rho0: RealField, params: Params,
                       K: int, ctrl: StepControl):
    """Linear-transport iteration converging to the direct solution.

    Iterate 0 is the zero pair.  Iterate k+1 solves, with coefficients and
    sources frozen from iterate k,

        m_t = -u_k m_x + alpha u_{k,x} - b u_{k,x} m_k - kappa rho_k rho_{k,x},
        rho_t = -u_k rho_x - (b-1) u_{k,x} rho_k,

    from low-passed data (modes |xi| < 2^{k+1} kept).  All iterates share a
    fixed step dt = ctrl.dt_max so coefficient time grids line up; midpoint
    coefficient values come from cubic interpolation in time, with the
    weights of each step computed once for all iterates.  Returns the list
    of trajectories for iterates 0..K.

    Iterates 1..K advance together as one lagged (K, 2, n/2+1) stack of
    half spectra, a pipelined waveform relaxation: at tick g, iterate k
    takes step j = g - 3(k-1) when 0 <= j < nsteps, so the run is
    nsteps + 3(K-1) stacked rk4 steps.  Step j reads the frozen rows
    lo..lo+3 of iterate k-1, lo = min(max(j-1, 0), nsteps-3), hence rows up
    to max(j+2, 3), which the lag of 3 has written by the tick before.
    After each tick one irfft of the new spectra gives the snapshots and the
    jet of the frozen rows, and one rfft their sources; the frozen
    coefficient u_k (samples) and the two sources (half spectra) go into a
    rolling window of 8 rows per iterate: from the oldest row a step reads
    to the newest row written are at most 5 rows, so the window holds every
    row still to be read, and the frozen rows never take a (K, T, ...)
    array.  Every iterate equals the one computed after its predecessor has
    finished, bit for bit.
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
    mid_weights = [cubic_weights(times, t + 0.5 * dt) for t in times[:-1]]
    ops = operators(grid, params.r, ctrl.dealias)
    n, nh = grid.n, grid.n // 2 + 1
    alpha = params.alpha_samples(grid)

    def frozen(jet, y_hat):
        """Frozen coefficient u_k (R, n) and the half spectra of the two
        sources (R, 2, n/2+1) of the rows of y_hat with samples jet; the m
        source is carried as its u_t share, (m source) / inertia."""
        uk, rk, uk_x, mk, rk_x = (jet[:, i] for i in range(5))
        # the alpha u_{k,x} source enters as in _m_form
        nl_m = params.b * uk_x * mk + params.kappa * rk * rk_x
        if isinstance(alpha, np.ndarray):
            nl_m -= alpha * uk_x
        src_hat = -ops.solve * np.fft.rfft(np.stack((nl_m, (params.b - 1.0) * uk_x * rk), axis=1))
        if not isinstance(alpha, np.ndarray) and alpha != 0.0:
            src_hat[:, 0] += alpha * (ops.ixi / ops.inertia) * y_hat[:, 0]
        return uk, _real_nyquist(src_hat)

    def rhs_lin(t, y_hat):
        cu = np.stack([next(s) for s, _ in stages])
        src = np.stack([next(s) for _, s in stages])
        grads = np.fft.irfft(ops.jet[2:] * y_hat, n)   # m_x, rho_x
        return src - ops.solve * np.fft.rfft(cu[:, None] * grads)

    def advance(level, row, y_hat):
        """Write snapshot row[i] of iterate level[i] + 1 from its spectra
        y_hat[i], and the frozen rows of the iterates that feed another."""
        jet = _jet(y_hat, n, ops.jet[:2], ops.jet[3:])   # u, rho, u_x, m, rho_x
        ys[level, row] = jet[:, :2]
        feed = level < K - 1
        if feed.any():
            slot = (level[feed] + 1, row[feed] % _WINDOW)
            win_u[slot], win_src[slot] = frozen(jet[feed], y_hat[feed])

    # ys[k - 1] is iterate k; win_u[k], win_src[k] hold the frozen rows of
    # iterate k (zero for iterate 0)
    ys = np.empty((K, nsteps + 1, 2, n))
    win_u = np.zeros((K, _WINDOW, n))
    win_src = np.zeros((K, _WINDOW, 2, nh), complex)
    series = [(_Window(wu), _Window(ws)) for wu, ws in zip(win_u, win_src)]
    y_hat = np.stack([np.fft.rfft(np.stack((besov.lowpass(u0, k).samples,
                                            besov.lowpass(rho0, k).samples)))
                      for k in range(1, K + 1)])
    if ctrl.dealias:
        y_hat *= ops.mask
    advance(np.arange(K), np.zeros(K, int), y_hat)

    for g in range(nsteps + _LAG * (K - 1)):
        level = np.array([i for i in range(K) if 0 <= g - _LAG * i < nsteps])
        j = g - _LAG * level
        stages = [[rk4_stages(times, s, ji, dt, mid_weights[ji]) for s in series[i]]
                  for i, ji in zip(level, j)]
        y_new = rk4(rhs_lin, 0.0, y_hat[level], dt)
        y_hat[level] = y_new
        advance(level, j + 1, y_new)

    zero = Trajectory(grid, times, np.zeros((nsteps + 1, 2, n)), params)
    return [zero] + [Trajectory(grid, times, y, params) for y in ys]


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


def stability_pairs(datasets, perturbation: RealField, eps_list, params: Params,
                    ctrl: StepControl, s: float = 3.0, output_times=None) -> list:
    """Run each (u0, rho0) of datasets against (u0 + eps*pert, rho0) for
    each eps; returns one StabilityResult per dataset.

    Every dataset's base run and perturbed runs are advanced as one
    ensemble (:func:`integrate_ensemble`), each with its own steps, so every
    run equals its own integrate call bit for bit.  Differences are measured
    in the p = q = 2 dyadic norms at regularity s-1 for u and s-2r for rho,
    each time series in one batched :func:`besov.besov_norms` call; the
    growth integrand per snapshot is the sum of the solution norms at
    regularity s (u) and s-2r+1 (rho) of the base run and the first
    perturbed run, plus the size of alpha.
    """
    datasets = list(datasets)
    eps_arr = np.asarray(list(eps_list), dtype=float)
    starts = []
    for u0, rho0 in datasets:
        starts.append(State(0.0, u0, rho0))
        starts += [State(0.0, RealField(u0.grid, u0.samples + eps * perturbation.samples), rho0)
                   for eps in eps_arr]
    runs = integrate_ensemble(starts, params, ctrl, output_times)
    r = params.r
    idx_du = besov.BesovIndex(s - 1.0)
    idx_drho = besov.BesovIndex(s - 2.0 * r)
    idx_u = besov.BesovIndex(s)
    idx_rho = besov.BesovIndex(s - 2.0 * r + 1.0)
    if isinstance(params.alpha, RealField):
        alpha_norm = besov.besov_norm(params.alpha, besov.BesovIndex(s - 2.0 * r))
    else:
        alpha_norm = abs(float(params.alpha))

    def result(base, perturbed):
        def norms(rows, idx):
            return besov.besov_norms(base.grid, rows, idx)

        du_series = [norms(run.u - base.u, idx_du) for run in perturbed]
        drho_series = [norms(run.rho - base.rho, idx_drho) for run in perturbed]
        gamma = None
        if perturbed:
            first = perturbed[0]
            gamma = (norms(base.u, idx_u) + norms(first.u, idx_u)
                     + norms(base.rho, idx_rho) + norms(first.rho, idx_rho)
                     + alpha_norm)
        return StabilityResult(
            eps=eps_arr,
            sup_du=np.array([s_.max() for s_ in du_series]),
            sup_drho=np.array([s_.max() for s_ in drho_series]),
            times=base.times,
            du_series=du_series,
            drho_series=drho_series,
            gamma=gamma,
            s=s,
        )

    per = len(eps_arr) + 1
    return [result(runs[i], runs[i + 1:i + per]) for i in range(0, len(runs), per)]
