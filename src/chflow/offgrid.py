"""Off-grid evaluation of fields by a Gaussian-gridding type-2 NUFFT.

Every off-grid value in chflow sums the half spectrum of a real field at
arbitrary points by a non-uniform FFT by Gaussian gridding (Dutt &
Rokhlin, SIAM J. Sci. Comput. 14, 1993; Greengard & Lee, SIAM Review 46,
2004), in two steps:

* :func:`spread` deconvolves coefficients by the Gaussian's Fourier
  transform and inverse-FFTs them onto a grid oversampled by SIGMA.  It
  depends on the coefficients alone, and takes a stack of rows at once.
* :func:`trig_eval`, the kernel, convolves the Gaussian at each point with
  its 2*W nearest fine-grid values.  The weights depend on the points
  alone, so they are computed once for every row of a spread stack.

:func:`evaluate_spread` reads a spread stack at points given in a grid's
coordinates, and :func:`evaluate_coeffs` is the two steps on one row.  A
caller that reads several fields at the same points, or one field at
several sets of points, spreads each coefficient set once.  The whole
costs O(n log n + points*W) instead of the O(points*n) of the mode sum,
and agrees with the exact mode sum to round-off (about 1e-13 relative to
sum_k |c_k| on values, and to xi_max * sum_k |c_k| on derivatives).
"""

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import RealField

SIGMA = 2  # oversampling factor of the fine grid
W = 16  # half-width of the Gaussian, in fine-grid cells
BLOCK = 480  # points per block: 120 KiB for each (BLOCK, 2W) temporary


@lru_cache(maxsize=16)
def _gridding(n):
    """Fine-grid size, deconvolution factors (k = 0..n/2) and Gaussian tau."""
    tau = np.pi * W / (n * n * SIGMA * (SIGMA - 0.5))
    k = np.arange(n // 2 + 1)
    deconv = np.sqrt(np.pi / tau) * np.exp(k * k * tau)
    deconv.flags.writeable = False
    return SIGMA * n, deconv, tau


@lru_cache(maxsize=1)
def _offsets():
    """A block's cell offsets j = -W+1 .. W, one row per point, built on
    first use: subtracting a contiguous array runs as one loop, where
    broadcasting a (2W,) row runs one loop per point."""
    offsets = np.tile(np.arange(-W + 1.0, W + 1.0), (BLOCK, 1))
    offsets.flags.writeable = False
    return offsets


def spread(coeffs):
    """The fine grids of a (k, n/2+1) stack of coefficient rows, as the
    (k, SIGMA*n + 1, 2W) read-only stack of windows trig_eval reads: window
    c of a row holds its fine-grid values c-W+1 .. c+W.

    Each row holds coefficients k = 0..n/2 in the exp(i*xi*x) basis of a
    real field (the Nyquist entry is the cosine amplitude); each fine row
    depends on its own coefficients alone.
    """
    coeffs = np.asarray(coeffs)
    n = 2 * (coeffs.shape[-1] - 1)
    m, deconv, _ = _gridding(n)
    # deconvolved Hermitian spectrum on the fine grid: irfft pads it with
    # zeros to m/2+1 modes and supplies the negative ones (dropping the
    # imaginary part of k = 0); the Nyquist cosine is split half to +n/2,
    # half to -n/2
    spec = deconv * coeffs
    spec[:, n // 2] *= 0.5
    fine = np.fft.irfft(spec, m)
    fine = np.concatenate((fine[:, m - W + 1:], fine, fine[:, : W + 1]), axis=1)
    return sliding_window_view(fine, 2 * W, axis=1)


def trig_eval(fine, xi1, pts, deriv):
    """Evaluate each row's sum_k c_k exp(i*k*xi1*x) at the 1-D points pts.

    fine is what spread returns for the rows' coefficients.  The sums are
    2*pi/xi1 periodic, so points may lie anywhere.  Returns (values,
    derivatives or None), each of shape (rows, points).
    """
    m = fine.shape[1] - 1
    tau = _gridding(m // SIGMA)[2]
    # theta = xi1*x mod 2*pi in fine-grid cells h: cell index and offset
    # d_j = u - cell - j to the neighbour cell + j, j = -W+1 .. W
    h = 2.0 * np.pi / m
    u = np.mod(xi1 * np.asarray(pts, dtype=float), 2.0 * np.pi) / h
    vals = np.empty((len(fine), u.size))
    dvals = np.empty_like(vals) if deriv else None
    # Points go in blocks of BLOCK: each point's sums are its own, so the
    # values do not depend on the blocking, and a block's (BLOCK, 2W)
    # temporaries stay small enough for the C allocator to reuse heap
    # memory instead of mapping and faulting in fresh pages on every call.
    # A block's cells and weights serve every row.
    size = min(BLOCK, u.size)
    d_buf, gauss_buf = np.empty((size, 2 * W)), np.empty((size, 2 * W))
    for s in range(0, u.size, BLOCK):
        ub = u[s:s + BLOCK]
        cell = np.floor(ub)
        d = d_buf[:ub.size]
        d[...] = (ub - cell)[:, None]
        d -= _offsets()[:ub.size]
        cell = cell.astype(np.intp)
        # Gaussian exp(-(d*h)^2 / (4 tau)); its theta-derivative is
        # -(d*h) / (2 tau) times the same weight
        gauss = np.multiply(d, d, out=gauss_buf[:ub.size])
        gauss *= -h * h / (4.0 * tau)
        np.exp(gauss, out=gauss)
        for row, row_windows in enumerate(fine):
            near = row_windows[cell]
            near *= gauss
            np.add.reduce(near, axis=1, out=vals[row, s:s + BLOCK])
            if deriv:
                np.einsum("ij,ij->i", near, d, out=dvals[row, s:s + BLOCK])
                dvals[row, s:s + BLOCK] *= -xi1 * h / (2.0 * tau)
    return vals, dvals


def evaluate_spread(grid, fine, points, deriv: bool = False):
    """Evaluate the fields of a spread stack on grid at points of any shape:
    (values, derivatives or None), each of shape (rows,) + points.shape.

    The fields are periodic in 2L, so points may lie outside [-L, L).  They
    are first reduced by fmod, which is exact in floating point, so a
    marker far outside the box costs no more accuracy than one inside it.
    The derivative is the spectral derivative of the interpolant,
    consistent with ``spectral.operators(grid).dx`` on the grid.
    """
    points = np.asarray(points, dtype=float)
    vals, dvals = trig_eval(fine, np.pi / grid.L, np.fmod(points, 2.0 * grid.L).ravel(), deriv)
    shape = (len(fine),) + points.shape
    return vals.reshape(shape), dvals.reshape(shape) if deriv else None


def evaluate_coeffs(grid, coeffs, points, deriv: bool = False):
    """Evaluate the real field with half-spectrum coefficients on grid.

    coeffs is what ``grid.half_coeffs`` returns, or a linear combination of
    such arrays (for instance interpolated in time).  Exact to round-off on
    band-limited fields.  The values, and with deriv=True the derivatives,
    have the shape of points; see evaluate_spread.
    """
    vals, dvals = evaluate_spread(grid, spread(np.asarray(coeffs)[None]), points, deriv)
    return (vals[0], dvals[0]) if deriv else vals[0]


def evaluate(f: RealField, points, deriv: bool = False):
    """Evaluate the trigonometric interpolant of f at arbitrary points."""
    return evaluate_coeffs(f.grid, f.grid.half_coeffs(f.samples), points, deriv)
