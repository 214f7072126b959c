"""Moderate weight family, weighted norms, persistence and decay monitors.

The standard weight family is

    w(x) = exp(a*|x|^b) * (1 + |x|)^c * log(e + |x|)^d,

optionally one-sided (w = 1 on x <= 0).  A weight is flagged admissible for
the persistence bound when a >= 0, 0 <= b <= 1 and a*b < 1.

Tail decay rates come from a centred least-squares fit of log|f| on a
window of |x| (see :func:`fit_window`), made for every row of a (rows, m)
block at once by :func:`decay_fits`.  Samples with |f| <= 1e-300 stay out
of their row's fit, and a row needs at least two usable samples, at
distinct |x|, to be fitted.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .spectral import operators

# persistence_monitor: the tolerance of its growth bound on log W (5%
# multiplicative), and the floor, relative to each field's peak, below which
# samples leave the weighted norms (see persistence_monitor)
RESIDUAL_TOL = math.log(1.05)
SIGNAL_FLOOR = 1e-12


class UndefinedFitError(ValueError):
    """The fit window holds fewer than two usable samples at distinct |x|."""


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


def persistence_monitor(traj: Trajectory, battery, ps) -> dict:
    """Track the weighted size of (u, u_x, rho) along a run and fit its growth.

    Returns one PersistenceReport per (weight, p) key, for every weight of
    battery and every p of ps, from one pass over the snapshots: u_x, the
    masked fields and their sup norms are computed once per snapshot, and
    each w(x) once per run.

    Inadmissible weights are rejected.  Spectral solutions carry an
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
        if not w.admissible:
            raise ValueError(f"weight {w} is not admissible for the persistence bound")
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


def fit_window(grid, window=None):
    """The fit window (lo, hi), by default [0.45L, 0.7L], past the data bulk
    but clear of the periodic seam, and the mask of the grid points with
    lo <= |x| <= hi."""
    errors = window_errors(window)
    if errors:
        raise ValueError(errors[0])
    lo, hi = (0.45 * grid.L, 0.7 * grid.L) if window is None else window
    ax = np.abs(grid.x)
    return (lo, hi), (ax >= lo) & (ax <= hi)


def decay_fits(x, a):
    """Tail decay fits of every row of a = |f| (shape (rows, m)) against the
    window abscissae x = |x| (shape (m,)).

    Returns the arrays (a_hat, c_hat, residual_exp, residual_alg, n_points),
    one entry per row: the negated least-squares slopes of log|f| against
    |x| (the exponential rate, |f| ~ exp(-a|x|)) and against log(1+|x|)
    (the algebraic rate, |f| ~ (1+|x|)^(-c)), in the centred closed form,
    their rms residuals on the log scale and the number of samples fitted.
    Samples with |f| <= 1e-300 stay out of their row's fit; a row with
    fewer than two of them at distinct |x| gets NaN fits.
    """
    # C order: each row then sums as its own 1-D array would, so one row
    # fits alone exactly as it does within a block
    a = np.ascontiguousarray(a)
    usable = a > 1e-300                                # log|f| finite
    skip = ~usable
    count = usable.sum(axis=-1)
    d = np.where(usable, x, np.nan)
    spread = (np.fmax.reduce(d, axis=-1, initial=-np.inf)
              > np.fmin.reduce(d, axis=-1, initial=np.inf))
    # the centred log|f| and abscissae, zero where a sample is not usable
    dy = np.where(usable, a, 1.0)
    np.log(dy, out=dy)
    fits = []
    with np.errstate(divide="ignore", invalid="ignore"):
        dy -= dy.sum(axis=-1, keepdims=True) / count[:, None]
        np.copyto(dy, 0.0, where=skip)
        for xcol in (x, np.log1p(x)):
            np.copyto(d, xcol)
            np.copyto(d, 0.0, where=skip)
            d -= d.sum(axis=-1, keepdims=True) / count[:, None]
            np.copyto(d, 0.0, where=skip)
            slope = np.sum(d * dy, axis=-1) / np.sum(d * d, axis=-1)
            d *= -slope[:, None]
            d += dy
            res = np.sqrt(np.sum(d * d, axis=-1) / count)
            fits.append((np.where(spread, -slope, np.nan), np.where(spread, res, np.nan)))
    (a_hat, res_exp), (c_hat, res_alg) = fits
    return a_hat, c_hat, res_exp, res_alg, count

