"""Off-grid evaluation of fields by a Gaussian-gridding type-2 NUFFT.

Every off-grid value in chflow comes from :func:`evaluate_coeffs`, which
sums the half spectrum of a real field at arbitrary points with the kernel
:func:`trig_eval`.  The kernel is a non-uniform FFT by Gaussian gridding
(Dutt & Rokhlin, SIAM J. Sci. Comput. 14, 1993; Greengard & Lee, SIAM
Review 46, 2004): deconvolve the coefficients by the Gaussian's Fourier
transform, inverse-FFT onto a grid oversampled by SIGMA, then convolve with
the Gaussian at each point from its 2*W nearest fine-grid values.  It costs
O(n log n + points*W) instead of the O(points*n) of the mode sum, and
agrees with the exact mode sum to round-off (about 1e-13 relative to
sum_k |c_k| on values, and to xi_max * sum_k |c_k| on derivatives).
"""

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import RealField

SIGMA = 2  # oversampling factor of the fine grid
W = 16  # half-width of the Gaussian, in fine-grid cells
BLOCK = 256  # points per block: 64 KiB for each (BLOCK, 2W) temporary


@lru_cache(maxsize=16)
def _gridding(n):
    """Fine-grid size, deconvolution factors (k = 0..n/2) and Gaussian tau."""
    tau = np.pi * W / (n * n * SIGMA * (SIGMA - 0.5))
    k = np.arange(n // 2 + 1)
    deconv = np.sqrt(np.pi / tau) * np.exp(k * k * tau)
    deconv.flags.writeable = False
    return SIGMA * n, deconv, tau


def trig_eval(re, im, pts, xi1, want_deriv):
    """Evaluate sum_k c_k exp(i*k*xi1*x) (real field, half spectrum) at pts.

    re, im: real and imaginary parts of coefficients k = 0..n/2 in the
    exp(i*xi*x) basis (Nyquist entry is the cosine amplitude).  pts is 1-D;
    the sum is 2*pi/xi1 periodic, so points may lie anywhere.  Returns
    (values, derivatives_or_None).
    """
    re = np.asarray(re, dtype=float)
    n = 2 * (re.size - 1)
    m, deconv, tau = _gridding(n)
    # deconvolved Hermitian spectrum on the fine grid: irfft supplies the
    # negative modes (and drops the imaginary part of k = 0); the Nyquist
    # cosine is split half to +n/2, half to -n/2
    spec = np.zeros(m // 2 + 1, dtype=complex)
    spec[: re.size] = deconv * (re + 1j * np.asarray(im, dtype=float))
    spec[re.size - 1] *= 0.5
    fine = np.fft.irfft(spec, m)
    # periodic padding, so window c holds fine-grid values c-W+1 .. c+W
    fine = np.concatenate((fine[m - W + 1:], fine, fine[: W + 1]))

    # theta = xi1*x mod 2*pi in fine-grid cells h: cell index and offset
    # d_j = u - cell - j to the neighbour cell + j, j = -W+1 .. W
    h = 2.0 * np.pi / m
    u = np.mod(xi1 * np.asarray(pts, dtype=float), 2.0 * np.pi) / h
    windows = sliding_window_view(fine, 2 * W)
    vals = np.empty(u.size)
    dvals = np.empty(u.size) if want_deriv else None
    # Points go in blocks of BLOCK: each point's sums are its own, so the
    # values do not depend on the blocking, and a block's (BLOCK, 2W)
    # temporaries stay small enough for the C allocator to reuse heap
    # memory instead of mapping and faulting in fresh pages on every call.
    for s in range(0, u.size, BLOCK):
        ub = u[s:s + BLOCK]
        cell = np.floor(ub)
        d = np.subtract.outer(ub - cell, np.arange(-W + 1, W + 1))
        near = windows[cell.astype(np.intp)]
        # Gaussian exp(-(d*h)^2 / (4 tau)); its theta-derivative is
        # -(d*h) / (2 tau) times the same weight
        gauss = d * d
        gauss *= -h * h / (4.0 * tau)
        np.exp(gauss, out=gauss)
        near *= gauss
        vals[s:s + BLOCK] = near.sum(axis=1)
        if want_deriv:
            dvals[s:s + BLOCK] = np.einsum("ij,ij->i", near, d) * (-xi1 * h / (2.0 * tau))
    return vals, dvals


def evaluate_coeffs(grid, coeffs, points, deriv: bool = False):
    """Evaluate the real field with half-spectrum coefficients on grid.

    coeffs is what ``grid.half_coeffs`` returns, or a linear combination of
    such arrays (for instance interpolated in time).  Exact to round-off on
    band-limited fields; periodic in 2L, so points may lie outside [-L, L).
    They are first reduced by fmod, which is exact in floating point, so a
    marker far outside the box costs no more accuracy than one inside it.
    With deriv=True also returns the spectral derivative of the
    interpolant, consistent with spectral.derivative.
    """
    vals, dvals = trig_eval(
        np.ascontiguousarray(coeffs.real),
        np.ascontiguousarray(coeffs.imag),
        np.fmod(np.asarray(points, dtype=float), 2.0 * grid.L),
        np.pi / grid.L,
        deriv,
    )
    return (vals, dvals) if deriv else vals


def evaluate(f: RealField, points, deriv: bool = False):
    """Evaluate the trigonometric interpolant of f at arbitrary points."""
    return evaluate_coeffs(f.grid, f.grid.half_coeffs(f.samples), points, deriv)
