"""Moderate weight family, weighted norms, persistence and decay monitors.

The standard weight family is

    w(x) = exp(a*|x|^b) * (1 + |x|)^c * log(e + |x|)^d,

optionally one-sided (w = 1 on x <= 0).  A weight is flagged admissible for
the persistence bound when a >= 0, 0 <= b <= 1 and a*b < 1; the numerical
check also reports the smallest A with |w'| <= A*w on the grid and whether
the companion integral of v(x)*exp(-|x|) converges under domain doubling,
with v the all-positive-parameter member of the same family.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .spectral import RealField, operators

# persistence_monitor: the tolerance of its growth bound on log W (5%
# multiplicative), and the floor, relative to each field's peak, below which
# samples leave the weighted norms (see persistence_monitor)
RESIDUAL_TOL = math.log(1.05)
SIGNAL_FLOOR = 1e-12


class UndefinedFitError(ValueError):
    """The requested fit window contains no usable (nonzero) samples."""


@dataclass(frozen=True)
class StandardWeight:
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0
    side: str = "both"          # "both" or "right"

    def __post_init__(self):
        if self.side not in ("both", "right"):
            raise ValueError("side must be 'both' or 'right'")

    @property
    def admissible(self) -> bool:
        return self.a >= 0.0 and 0.0 <= self.b <= 1.0 and self.a * self.b < 1.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        logw = self.a * ax**self.b + self.c * np.log1p(ax) + self.d * np.log(
            np.log(np.e + ax)
        )
        w = np.exp(logw)
        if self.side == "right":
            w = np.where(x <= 0.0, 1.0, w)
        return w

    def _slope_term(self, ax):
        """(log w)' for x > 0 as a function of |x|; the x -> 0+ limit at 0."""
        if self.a != 0.0 and self.b != 0.0:
            with np.errstate(divide="ignore"):
                power = self.a * self.b * np.where(
                    (ax > 0.0) | (self.b >= 1.0), ax ** (self.b - 1.0), np.inf
                )
        else:
            power = np.zeros_like(ax)
        return power + self.c / (1.0 + ax) + self.d / ((np.e + ax) * np.log(np.e + ax))

    def log_derivative_magnitude(self, x):
        """|w'|/w with one-sided limits at x = 0 (the a.e. essential bound)."""
        x = np.asarray(x, dtype=float)
        out = np.abs(self._slope_term(np.abs(x)))
        if self.side == "right":
            out = np.where(x < 0.0, 0.0, out)
        return out

    def companion(self) -> "StandardWeight":
        """Sub-multiplicative companion: same family, all parameters |.|."""
        return StandardWeight(abs(self.a), abs(self.b), abs(self.c), abs(self.d))


@dataclass
class AdmissibilityReport:
    admissible: bool
    smallest_A: float
    companion_integrals: dict     # half-length -> integral of v * exp(-|x|)
    companion_converges: bool
    messages: list


def _trapezoid(y, x):
    """Trapezoid rule, term for term as numpy's (numpy < 2 has no trapezoid)."""
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def admissibility_check(w: StandardWeight, L: float = 40.0, n: int = 4096) -> AdmissibilityReport:
    """Numerical admissibility report on [-L, L].

    Checks the parameter restriction, reports the smallest A with
    |w'| <= A*w on the grid, and tests convergence of the companion
    integral by comparing tail increments across domain doublings.
    """
    messages = []
    ok = w.admissible
    if not ok:
        messages.append(
            f"parameter restriction violated: need a>=0, 0<=b<=1, a*b<1 "
            f"(got a={w.a}, b={w.b})"
        )

    x = np.linspace(-L, L, n + 1)    # odd count so x = 0 is sampled
    smallest_A = float(np.max(w.log_derivative_magnitude(x)))

    v = w.companion()
    integrals = {}
    for half in (L, 2 * L, 4 * L):
        xs = np.linspace(-half, half, int(n * half / L) + 1)
        integrand = v(xs) * np.exp(-np.abs(xs))
        integrals[half] = _trapezoid(integrand, xs)
    inc1 = integrals[2 * L] - integrals[L]
    inc2 = integrals[4 * L] - integrals[2 * L]
    scale = max(integrals[L], 1e-300)
    converges = inc2 <= 0.5 * inc1 + 1e-12 * scale
    if not converges:
        ok = False
        messages.append(
            "companion integral of v*exp(-|x|) keeps growing under domain "
            f"doubling (increments {inc1:.3e} -> {inc2:.3e})"
        )
    return AdmissibilityReport(ok, smallest_A, integrals, converges, messages)


def companion_in_lp(w: StandardWeight, p: float, L: float = 40.0, n: int = 4096) -> bool:
    """Check v*exp(-|x|) in L^p by tail-increment decay under doubling."""
    v = w.companion()
    vals = {}
    for half in (L, 2 * L, 4 * L):
        xs = np.linspace(-half, half, int(n * half / L) + 1)
        g = v(xs) * np.exp(-np.abs(xs))
        if np.isinf(p):
            vals[half] = float(np.max(g))
        else:
            vals[half] = _trapezoid(g**p, xs)
    if np.isinf(p):
        return vals[4 * L] <= vals[L] * (1.0 + 1e-9)
    inc1 = vals[2 * L] - vals[L]
    inc2 = vals[4 * L] - vals[2 * L]
    return inc2 <= 0.5 * inc1 + 1e-12 * max(vals[L], 1e-300)


def weighted_norm(f: RealField, w: StandardWeight, p: float) -> float:
    """L^p norm of f * w by grid quadrature (max of |f*w| for p = inf)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    g = np.abs(f.samples * w(f.grid.x))
    if np.isinf(p):
        return float(g.max(initial=0.0))
    return float((f.grid.dx * np.sum(g**p)) ** (1.0 / p))


@dataclass
class PersistenceReport:
    times: np.ndarray
    W: np.ndarray                # ||u w||_p + ||u_x w||_p + ||rho w||_p per snapshot
    sup_norms: np.ndarray        # |u|_inf + |u_x|_inf + |rho|_inf per snapshot
    M: float                     # max of sup_norms
    C_hat: float                 # fitted slope of log W against (1+M) t
    intercept: float
    residual: float              # max |log W - affine fit|
    bound_ok: bool               # log W(t) - log W(0) <= C_hat (1+M) t + tol
    p: float
    weight: StandardWeight


def persistence_monitor(traj: Trajectory, battery, ps,
                        relaxed_admissibility: bool = False) -> dict:
    """Track the weighted size of (u, u_x, rho) along a run and fit its growth.

    Returns one PersistenceReport per (weight, p) key, for every weight of
    battery and every p of ps, from one pass over the snapshots: u_x, the
    masked fields and their sup norms are computed once per snapshot, and
    each w(x) once per run.

    Inadmissible weights are rejected unless relaxed_admissibility is set and the
    p-dependent companion condition holds.  Spectral solutions carry an
    absolute round-off floor of about 1e-16 * max|f|; an exponential weight
    amplifies that floor by exp(a*L), which would dominate the norm with
    pure noise on wide domains.  Samples with |f| <= SIGNAL_FLOOR * max|f|
    are therefore excluded: the monitored quantity is the weighted norm of
    the representable part of the field.  This floor leaves genuinely
    decaying tails intact.  The fitted slope C_hat is the least-squares
    slope of log W against (1+M)t; bound_ok states whether the measured
    growth stays under that affine bound within RESIDUAL_TOL (a 5%
    multiplicative tolerance).
    """
    grid = traj.grid
    for w in battery:
        if not w.admissible and not (
            relaxed_admissibility and all(companion_in_lp(w, p, grid.L) for p in ps)
        ):
            raise ValueError(
                "weight is not admissible for the persistence bound; "
                "pass relaxed_admissibility=True with a p satisfying the companion "
                "condition to monitor it anyway"
            )
    times = traj.times
    wvals = [w(grid.x) for w in battery]
    Ws = np.empty((len(battery), len(ps), len(times)))
    sup_norms = np.empty(len(times))
    for i, fields in enumerate(zip(traj.u, operators(grid).dx(traj.u), traj.rho)):
        masked = []
        sup = 0.0
        for f in fields:
            a = np.abs(f)
            peak = a.max(initial=0.0)
            masked.append(np.where(a > SIGNAL_FLOOR * peak, a, 0.0))
            sup += float(peak)
        sup_norms[i] = sup
        for j, wv in enumerate(wvals):
            gs = [m * wv for m in masked]
            for k, p in enumerate(ps):
                if np.isinf(p):
                    Ws[j, k, i] = sum(float(g.max(initial=0.0)) for g in gs)
                else:
                    Ws[j, k, i] = sum(float((grid.dx * np.sum(g**p)) ** (1.0 / p))
                                      for g in gs)
    M = float(sup_norms.max())
    if not np.all(np.isfinite(Ws)):
        raise ValueError("weighted norm overflowed; persistence violated or weight too strong")

    xdata = (1.0 + M) * times
    A = np.vstack([xdata, np.ones_like(xdata)]).T
    reports = {}
    for w, W_w in zip(battery, Ws):
        for p, W in zip(ps, W_w):
            if np.all(W == 0.0):
                reports[w, p] = PersistenceReport(
                    times, W, sup_norms, M, 0.0, 0.0, 0.0, True, p, w)
                continue
            y = np.log(W)
            (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
            residual = float(np.max(np.abs(y - (slope * xdata + intercept))))
            bound_ok = bool(np.all(y - y[0] <= slope * xdata + RESIDUAL_TOL))
            reports[w, p] = PersistenceReport(
                times, W, sup_norms, M, float(slope), float(intercept), residual,
                bound_ok, p, w,
            )
    return reports


@dataclass
class DecayFit:
    a_hat: float          # exponential rate: |f| ~ exp(-a|x|)
    c_hat: float          # algebraic rate:  |f| ~ (1+|x|)^(-c)
    residual_exp: float   # rms residual of the exponential fit (log scale)
    residual_alg: float
    window: tuple
    n_points: int


def window_errors(window):
    """The fit window rule: [] when window is None (the default window) or a
    pair of finite numbers with 0 <= lo < hi, else the message saying why not."""
    if window is None:
        return []
    try:
        lo, hi = window
        ok = math.isfinite(lo) and math.isfinite(hi) and 0 <= lo < hi
    except (TypeError, ValueError):
        ok = False
    return [] if ok else [
        f"window must be None or a pair of finite numbers 0 <= lo < hi, got {window!r}"]


def decay_profile(f: RealField, window=None) -> DecayFit:
    """Fit tail decay rates of |f| on a window of |x|.

    Least squares of log|f| against |x| gives the exponential rate, against
    log(1+|x|) the algebraic rate.  The window defaults to
    [0.45L, 0.7L], past the data bulk but clear of the periodic seam.
    """
    grid = f.grid
    errors = window_errors(window)
    if errors:
        raise ValueError(errors[0])
    lo, hi = (0.45 * grid.L, 0.7 * grid.L) if window is None else window
    ax = np.abs(grid.x)
    mask = (ax >= lo) & (ax <= hi) & (np.abs(f.samples) > 1e-300)   # log|f| finite
    if not np.any(mask):
        raise UndefinedFitError("no usable samples in the fit window")
    xw = ax[mask]
    yw = np.log(np.abs(f.samples[mask]))

    def fit(xcol):
        A = np.vstack([xcol, np.ones_like(xcol)]).T
        coef, *_ = np.linalg.lstsq(A, yw, rcond=None)
        res = float(np.sqrt(np.mean((A @ coef - yw) ** 2)))
        return float(coef[0]), res

    slope_exp, res_exp = fit(xw)
    slope_alg, res_alg = fit(np.log1p(xw))
    return DecayFit(-slope_exp, -slope_alg, res_exp, res_alg, (lo, hi), int(mask.sum()))
