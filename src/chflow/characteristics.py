"""Lagrangian flow map and the transport/conservation identity checks.

The flow map phi solves phi_t = u(t, phi(t, x)), phi(0, x) = x, and its
derivative solves (phi_x)_t = u_x(t, phi) * phi_x, so phi_x stays positive
while the solution is smooth.  Along the flow the checks below measure, per
snapshot, how well the discrete solution satisfies

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
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, rk4, rk4_stages
from .offgrid import evaluate_coeffs
from .spectral import RealField


class FlowDegeneracyError(RuntimeError):
    """phi stopped being strictly increasing (approach to wavebreaking)."""


@dataclass(frozen=True)
class FlowMap:
    """Marker positions and flow derivative at one instant."""

    t: float
    markers: np.ndarray   # initial positions
    phi: np.ndarray       # current positions (lifted, not wrapped mod 2L)
    phi_x: np.ndarray

    def check(self):
        if np.any(np.diff(self.phi) <= 0.0):
            raise FlowDegeneracyError(
                f"flow map lost monotonicity at t={self.t:.6g}"
            )
        if np.any(self.phi_x <= 0.0):
            raise FlowDegeneracyError(
                f"flow derivative lost positivity at t={self.t:.6g}"
            )
        return self


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
    """Integrate the marker ODE through the trajectory's snapshots, from
    markers at the grid points.

    One RK4 step per snapshot interval; the velocity and its derivative at
    marker positions come from trigonometric interpolation of the stored
    snapshots (midpoint coefficients by cubic interpolation in time, which
    matches the integrator's order).  Snapshots must be uniform and no
    coarser than four solver steps.  Returns one FlowMap per snapshot.
    """
    grid = traj.grid
    times = traj.times
    stride = _uniform_spacing(times)
    if traj.max_dt > 0 and stride > 4.0 * traj.max_dt + 1e-12:
        raise ValueError(
            f"snapshot stride {stride:.3g} exceeds 4x the solver step "
            f"{traj.max_dt:.3g}; store denser output for flow evolution"
        )
    markers = grid.x.copy()
    series = grid.half_coeffs(traj.u)

    def velocity(t, y):
        # (phi, phi_x)' = (u, u_x * phi_x) at phi, from the stage's coefficients
        u, u_x = evaluate_coeffs(grid, next(stages), y[0], deriv=True)
        return np.stack((u, u_x * y[1]))

    y = np.stack((markers, np.ones_like(markers)))
    flows = [FlowMap(times[0], markers, y[0], y[1]).check()]
    for j in range(len(times) - 1):
        h = times[j + 1] - times[j]
        stages = rk4_stages(times, series, j, h)
        y = rk4(velocity, times[j], y, h)
        flows.append(FlowMap(times[j + 1], markers, y[0], y[1]).check())
    return flows


def rho_along_flow(flows, traj: Trajectory):
    """rho and rho_x at every snapshot's flow positions, two arrays of shape
    (T, markers).

    One off-grid evaluation per snapshot gives both; the values do not
    depend on whether the derivative is asked for.  Row 0 is at
    phi(0) = the markers, the t = 0 reference of both flow identity checks,
    which share this evaluation when both run.
    """
    grid = traj.grid
    rows = [evaluate_coeffs(grid, coeffs, fl.phi, deriv=True)
            for fl, coeffs in zip(flows, grid.half_coeffs(traj.rho))]
    rho_at, rhox_at = zip(*rows)
    return np.array(rho_at), np.array(rhox_at)


def check_transport_identity(flows, traj: Trajectory, b: float, along=None):
    """Max deviation of rho(t, phi) * phi_x^(b-1) from rho_0, per snapshot.

    ``along`` is :func:`rho_along_flow` of (flows, traj), computed here when
    not given.  The reference rho_0 at the markers is its row 0, computed
    through the same interpolation path as the evolved side, so the
    deviation at t = 0 is exactly zero.
    """
    rho_at = (rho_along_flow(flows, traj) if along is None else along)[0]
    return np.array([float(np.max(np.abs(r * fl.phi_x ** (b - 1.0) - rho_at[0])))
                     for fl, r in zip(flows, rho_at)])


def casimir(rho: RealField, b: float) -> float:
    """Grid quadrature of |rho|^(1/(b-1)); conserved along smooth runs."""
    if b == 1.0:
        raise ValueError("the conserved density is undefined for b = 1")
    return float(rho.grid.dx * np.sum(np.abs(rho.samples) ** (1.0 / (b - 1.0))))


def check_m_flow_identity(flows, traj: Trajectory, params, along=None):
    """Max deviation of the momentum balance along the flow, per snapshot.

    Requires alpha identically zero.  The coupling integral is accumulated
    with the trapezoid rule over snapshots, with rho and rho_x read off at
    the markers' positions at each intermediate time: ``along``, which is
    :func:`rho_along_flow` of (flows, traj), computed here when not given.
    The reference m_0 at the markers is m at the t = 0 flow positions.
    """
    if not params.alpha_is_zero():
        raise ValueError("the momentum flow identity requires alpha == 0")
    b = params.b
    grid = traj.grid
    rho_at, rhox_at = rho_along_flow(flows, traj) if along is None else along
    m_coeffs = grid.half_coeffs(traj.m)

    devs = []
    integral = np.zeros_like(flows[0].phi)
    prev_integrand = None
    times = traj.times
    for j, fl in enumerate(flows):
        integrand = rho_at[j] * rhox_at[j] * fl.phi_x**b
        if j > 0:
            dt = times[j] - times[j - 1]
            integral = integral + 0.5 * dt * (integrand + prev_integrand)
        prev_integrand = integrand
        m_at = evaluate_coeffs(grid, m_coeffs[j], fl.phi)
        if j == 0:
            m0_at = m_at
        lhs = m_at * fl.phi_x**b
        rhs = m0_at - params.kappa * integral
        devs.append(float(np.max(np.abs(lhs - rhs))))
    return np.array(devs)


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


def check_support_containment(flows, traj: Trajectory, params) -> ContainmentReport:
    """Verify rho (and m, when alpha == 0) stay in the transported interval.

    The reference intervals are [phi(t, beta) - 2dx, phi(t, gamma) + 2dx]
    where [beta, gamma] bounds the initial support: the rho check uses the
    support of rho_0; the m check uses the hull of the supports of m_0 and
    rho_0, since the coupling source lives on the support of rho.  When
    m_0 vanishes, m is born from that source alone: its interval is rho_0's
    and its threshold is relative to the largest |m| of the run.
    """
    grid = traj.grid
    slack = 2.0 * grid.dx
    markers = flows[0].markers
    eps_rel = 1e-10   # support threshold, relative to the largest |f|

    def contained(rows, eps, i_lo, i_hi):
        sups = [track_support(RealField(grid, f), eps) for f in rows]
        ivls = [(fl.phi[i_lo] - slack, fl.phi[i_hi] + slack) for fl in flows]
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
    m_sup, ivl_m, m_ok = [None] * len(flows), [None] * len(flows), np.ones(len(flows), bool)
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
