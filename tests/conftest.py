"""Shared fixtures, field builders and full-spectrum oracles.

chflow keeps only the rfft half spectrum k = 0..n/2.  The full_* helpers
build the whole complex spectrum, k = -n/2..n/2-1 in FFT order, with numpy's
complex FFT, as an independent reference for the half-spectrum paths.
"""

import numpy as np
import pytest

from chflow.profiles import band_limited_noise
from chflow.spectral import Grid


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
