"""Lagrangian flow map and the transport/conservation identity checks.

The flow map phi solves phi_t = u(t, phi(t, x)), phi(0, x) = x, and its
derivative solves (phi_x)_t = u_x(t, phi) * phi_x, so phi_x stays positive
while the solution is smooth.  evolve_flow returns the flow at the
snapshots as two (T, n) arrays, phi and phi_x, which the checks below read.
Along the flow they measure, per snapshot, how well the discrete solution
satisfies

* the density transport identity   rho(t, phi) * phi_x^(b-1) = rho_0,
* the momentum balance             m(t, phi) * phi_x^b = m_0 - kappa * I(t)
  with I(t) the time integral of rho * rho_x * phi_x^b along the flow
  (valid for alpha identically zero),
* conservation of the integral of |rho|^(1/(b-1)),
* containment of the supports of rho and m in the transported interval.

Off-grid values of u, u_x, rho, m come from trigonometric interpolation
by a Gaussian-gridding NUFFT (see chflow.offgrid), which matches the exact
mode sum to round-off (about 1e-13 relative to sum_k |c_k|), so spatial
evaluation adds no interpolation error beyond that for band-limited fields.
Each set of coefficients is spread onto the fine grid once, and fields
read at the same points share one kernel call: the flow spreads each RK4
step's midpoint and end velocity together and reads the end grid again as
the next step's start, and the checks read rho and m at a snapshot's
markers in one call.
"""

from dataclasses import dataclass

import numpy as np

from . import offgrid
from .dynamics import Trajectory, rk4, rk4_stages
from .spectral import RealField


class FlowDegeneracyError(RuntimeError):
    """phi stopped being strictly increasing (approach to wavebreaking)."""


MAX_STRIDE_STEPS = 4   # the most solver steps one snapshot interval may span


def stride_too_coarse(stride, dt):
    """Whether snapshots stride apart are too sparse to evolve the flow of steps <= dt."""
    return stride > MAX_STRIDE_STEPS * dt + 1e-12


@dataclass(frozen=True)
class SupportInterval:
    beta: float
    gamma: float
    threshold: float

    def __post_init__(self):
        if self.beta > self.gamma:
            raise ValueError("support interval must have beta <= gamma")


def _uniform_spacing(times):
    dts = np.diff(times)
    if len(dts) == 0:
        raise ValueError("trajectory needs at least two snapshots")
    if np.max(dts) - np.min(dts) > 1e-9 * np.max(dts):
        raise ValueError("flow evolution expects uniformly spaced snapshots")
    return float(np.mean(dts))


def evolve_flow(traj: Trajectory):
    """The flow at the trajectory's snapshots, from markers at the grid
    points: (phi, phi_x), each of shape (T, n); row 0 is grid.x and ones.

    phi is lifted, not wrapped mod 2L.  One RK4 step per snapshot interval;
    u and u_x at the markers come from trigonometric interpolation of the
    stored snapshots (midpoint coefficients by cubic interpolation in time,
    which matches the integrator's order), each spread once.  Snapshots
    must be uniform and no coarser than MAX_STRIDE_STEPS solver steps.
    Raises FlowDegeneracyError once phi stops increasing or phi_x turns
    nonpositive.
    """
    grid, times = traj.grid, traj.times
    stride = _uniform_spacing(times)
    if traj.max_dt > 0 and stride_too_coarse(stride, traj.max_dt):
        raise ValueError(
            f"snapshot stride {stride:.3g} exceeds {MAX_STRIDE_STEPS}x the solver step "
            f"{traj.max_dt:.3g}; store denser output for flow evolution"
        )
    series = grid.half_coeffs(traj.u)

    def velocity(t, y):
        # (phi, phi_x)' = (u, u_x * phi_x) at phi, from the stage's fine grid
        (u,), (u_x,) = offgrid.evaluate_spread(grid, next(stages), y[0], True)
        return np.stack((u, u_x * y[1]))

    phi, phi_x = np.empty((2, len(times), grid.n))
    y = np.stack((grid.x, np.ones(grid.n)))
    phi[0], phi_x[0] = y
    end = offgrid.spread(series[:1])
    for j in range(len(times) - 1):
        h = times[j + 1] - times[j]
        _, mid, _, _ = rk4_stages(times, series, j, h)
        fine = offgrid.spread(np.stack((mid, series[j + 1])))
        stages = iter((end, fine[:1], fine[:1], fine[1:]))
        end = fine[1:]
        y = rk4(velocity, times[j], y, h)
        if np.any(np.diff(y[0]) <= 0.0):
            raise FlowDegeneracyError(f"flow map lost monotonicity at t={times[j + 1]:.6g}")
        if np.any(y[1] <= 0.0):
            raise FlowDegeneracyError(f"flow derivative lost positivity at t={times[j + 1]:.6g}")
        phi[j + 1], phi_x[j + 1] = y
    return phi, phi_x


def check_flow_identities(phi, phi_x, traj: Trajectory, params, momentum=True):
    """Max deviations per snapshot of the transport identity and, when
    momentum (which requires alpha identically zero), of the momentum
    balance: (transport, mflow), mflow None unless momentum.

    One pass over the flow: each snapshot spreads rho, and m when
    momentum, and evaluates them with rho_x at the markers in one kernel
    call; the coupling integral accumulates by the trapezoid rule.  The
    references rho_0 and m_0 at the markers are the t = 0 values on the
    same interpolation path as the evolved side, so both deviations at
    t = 0 are exactly zero.
    """
    if momentum and not params.alpha_is_zero():
        raise ValueError("the momentum flow identity requires alpha == 0")
    grid, times, b = traj.grid, traj.times, params.b
    coeffs = [grid.half_coeffs(traj.rho)] + ([grid.half_coeffs(traj.m)] if momentum else [])
    transport, mflow = np.empty(len(times)), np.empty(len(times)) if momentum else None
    integral = 0.0     # of rho * rho_x * phi_x^b along the flow, from t = 0
    for j, (p, p_x) in enumerate(zip(phi, phi_x)):
        fine = offgrid.spread(np.stack([c[j] for c in coeffs]))
        vals, dvals = offgrid.evaluate_spread(grid, fine, p, True)
        rho_at, rhox_at = vals[0], dvals[0]
        rho0_at = rho_at if j == 0 else rho0_at
        transport[j] = np.max(np.abs(rho_at * p_x ** (b - 1.0) - rho0_at))
        if momentum:
            integrand = rho_at * rhox_at * p_x**b
            if j > 0:
                integral = integral + 0.5 * (times[j] - times[j - 1]) * (integrand + prev)
            prev = integrand
            m_at = vals[1]
            m0_at = m_at if j == 0 else m0_at
            mflow[j] = np.max(np.abs(m_at * p_x**b - (m0_at - params.kappa * integral)))
    return transport, mflow


def casimir(rho: RealField, b: float) -> float:
    """Grid quadrature of |rho|^(1/(b-1)); conserved along smooth runs."""
    if b == 1.0:
        raise ValueError("the conserved density is undefined for b = 1")
    return float(rho.grid.dx * np.sum(np.abs(rho.samples) ** (1.0 / (b - 1.0))))


def track_support(field: RealField, eps_supp: float = None):
    """Smallest grid interval holding all samples with |f| > threshold.

    The threshold defaults to 1e-10 * max|f|.  Returns None for fields with
    no sample above threshold.
    """
    a = np.abs(field.samples)
    peak = float(a.max(initial=0.0))
    if eps_supp is None:
        eps_supp = 1e-10 * peak
    idx = np.nonzero(a > eps_supp)[0]
    if idx.size == 0:
        return None
    x = field.grid.x
    return SupportInterval(float(x[idx[0]]), float(x[idx[-1]]), eps_supp)


@dataclass
class ContainmentReport:
    times: np.ndarray
    rho_ok: np.ndarray           # per snapshot
    m_ok: np.ndarray             # per snapshot (all True when m not checked)
    rho_support: list            # SupportInterval or None per snapshot
    m_support: list
    flow_interval_rho: list      # (phi(beta)-2dx, phi(gamma)+2dx) per snapshot
    flow_interval_m: list
    checked_m: bool

    @property
    def all_contained(self) -> bool:
        return bool(np.all(self.rho_ok) and np.all(self.m_ok))


def _marker_index(markers, x0):
    return int(np.argmin(np.abs(markers - x0)))


def check_support_containment(phi, traj: Trajectory, params) -> ContainmentReport:
    """Verify rho (and m, when alpha == 0) stay in the transported interval.

    phi is the marker positions evolve_flow returns.  The reference
    intervals are [phi(t, beta) - 2dx, phi(t, gamma) + 2dx] where
    [beta, gamma] bounds the initial support: the rho check uses the
    support of rho_0; the m check uses the hull of the supports of m_0 and
    rho_0, since the coupling source lives on the support of rho.  When
    m_0 vanishes, m is born from that source alone: its interval is rho_0's
    and its threshold is relative to the largest |m| of the run.
    """
    grid = traj.grid
    slack = 2.0 * grid.dx
    markers = phi[0]
    eps_rel = 1e-10   # support threshold, relative to the largest |f|

    def contained(rows, eps, i_lo, i_hi):
        sups = [track_support(RealField(grid, f), eps) for f in rows]
        ivls = [(lo - slack, hi + slack) for lo, hi in zip(phi[:, i_lo], phi[:, i_hi])]
        ok = [s is None or (s.beta >= lo and s.gamma <= hi) for s, (lo, hi) in zip(sups, ivls)]
        return sups, ivls, np.array(ok)

    rho = traj.rho
    eps_rho = eps_rel * np.max(np.abs(rho[0]))
    sup_rho0 = track_support(RealField(grid, rho[0]), eps_rho)
    if sup_rho0 is None:
        raise ValueError("rho_0 has empty support; nothing to contain")
    rho_sup, ivl_rho, rho_ok = contained(
        rho, eps_rho, _marker_index(markers, sup_rho0.beta), _marker_index(markers, sup_rho0.gamma)
    )

    check_m = params.alpha_is_zero()
    m_sup, ivl_m, m_ok = [None] * len(phi), [None] * len(phi), np.ones(len(phi), bool)
    if check_m:
        m = traj.m
        eps_m = eps_rel * np.max(np.abs(m[0]))
        sup_m0 = track_support(RealField(grid, m[0]), eps_m)
        if sup_m0 is None:
            eps_m = eps_rel * np.max(np.abs(m))
            sup_m0 = sup_rho0
        i_beta_m = _marker_index(markers, min(sup_m0.beta, sup_rho0.beta))
        i_gamma_m = _marker_index(markers, max(sup_m0.gamma, sup_rho0.gamma))
        m_sup, ivl_m, m_ok = contained(m, eps_m, i_beta_m, i_gamma_m)

    return ContainmentReport(
        times=traj.times,
        rho_ok=rho_ok,
        m_ok=m_ok,
        rho_support=rho_sup,
        m_support=m_sup,
        flow_interval_rho=ivl_rho,
        flow_interval_m=ivl_m,
        checked_m=check_m,
    )
