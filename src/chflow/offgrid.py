"""Off-grid evaluation of fields by exact trigonometric interpolation.

Every off-grid value in chflow comes from :func:`evaluate_coeffs`, which
sums the half spectrum of a real field at arbitrary points with the dense
kernel :func:`trig_eval`.
"""

import numpy as np

from .spectral import RealField


def trig_eval(re, im, pts, xi1, want_deriv):
    """Evaluate sum_k c_k exp(i*k*xi1*x) (real field, half spectrum) at pts.

    re, im: real and imaginary parts of coefficients k = 0..n/2 in the
    exp(i*xi*x) basis (Nyquist entry is the cosine amplitude).  Builds the
    full points-by-modes phase matrix, so it allocates O(len(pts) * n/2)
    scratch per call.  Returns (values, derivatives_or_None).
    """
    re = np.asarray(re, dtype=float)
    im = np.asarray(im, dtype=float)
    pts = np.asarray(pts, dtype=float)
    k = np.arange(re.size)
    weight = np.full(re.size, 2.0)
    weight[0] = 1.0
    weight[-1] = 1.0
    theta = np.outer(pts, xi1 * k)
    cos_t = np.cos(theta)
    sin_t = np.sin(theta)
    vals = cos_t @ (weight * re) - sin_t @ (weight * im)
    if not want_deriv:
        return vals, None
    xk = xi1 * k
    derivs = -(sin_t @ (weight * re * xk) + cos_t @ (weight * im * xk))
    return vals, derivs


def evaluate_coeffs(grid, coeffs, points, deriv: bool = False):
    """Evaluate the real field with half-spectrum coefficients on grid.

    coeffs is what ``grid.half_coeffs`` returns, or a linear combination of
    such arrays (for instance interpolated in time).  Exact (to round-off)
    on band-limited fields; periodic in 2L, so points may lie outside
    [-L, L).  With deriv=True also returns the spectral derivative of the
    interpolant, consistent with spectral.derivative.
    """
    vals, dvals = trig_eval(
        np.ascontiguousarray(coeffs.real),
        np.ascontiguousarray(coeffs.imag),
        np.ascontiguousarray(points, dtype=float),
        np.pi / grid.L,
        deriv,
    )
    return (vals, dvals) if deriv else vals


def evaluate(f: RealField, points, deriv: bool = False):
    """Evaluate the trigonometric interpolant of f at arbitrary points."""
    return evaluate_coeffs(f.grid, f.grid.half_coeffs(f.samples), points, deriv)
