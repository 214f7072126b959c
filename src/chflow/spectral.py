"""Periodic pseudo-spectral grid, real fields and Fourier multipliers.

Everything here acts on a uniform grid for [-L, L) with wavenumbers
xi_k = pi*k/L.  chflow has one Fourier layout, the rfft half spectrum of
real samples: coefficients c_k, k = 0..n/2, of
f(x) = sum_k c_k exp(i*xi_k*x), the negative modes being the conjugates
c_{-k} = conj(c_k).  Coefficients are stored in this absolute basis (not
the index basis of the raw FFT), so single harmonics have the textbook
coefficients and off-grid evaluation needs no extra phase.  Every operator
is a diagonal multiplier on the same k = 0..n/2 array.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class GridMismatchError(ValueError):
    """Operands live on different grids, or an array has the wrong length."""


class ConfigurationError(ValueError):
    """Fields failed their checks; .errors lists one message per field."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def raise_errors(errors, kind=ConfigurationError):
    """Raise kind (a ConfigurationError) listing errors, unless there are none."""
    if errors:
        raise kind(errors)


def inertia_exponent_errors(r):
    """The inertia exponent rule, r >= 1: [] or the message saying why not.
    A NaN is left to the caller's finiteness check."""
    return [f"r must be >= 1, got {r}"] if r < 1.0 else []


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L) with n points, n a power of two."""

    L: float
    n: int

    def __post_init__(self):
        errors = []
        if not (math.isfinite(self.L) and self.L > 0):
            errors.append(f"L must be finite and positive, got {self.L}")
        if not isinstance(self.n, numbers.Integral):
            errors.append(f"n must be an integer, got {self.n!r}")
        elif self.n < 16 or self.n & (self.n - 1):
            errors.append(f"n must be a power of two >= 16, got {self.n}")
        raise_errors(errors)

    @property
    def dx(self):
        return 2.0 * self.L / self.n

    @cached_property
    def x(self):
        return -self.L + self.dx * np.arange(self.n)

    @cached_property
    def xi(self):
        """Wavenumbers pi*k/L of the half spectrum k = 0..n/2."""
        return np.pi * np.arange(self.n // 2 + 1) / self.L

    @property
    def xi_max(self):
        return np.pi * (self.n // 2) / self.L

    @cached_property
    def half_phase(self):
        """(-1)^k for k = 0..n/2: the FFT index basis to exp(i*xi*x)."""
        return np.where(np.arange(self.n // 2 + 1) % 2 == 0, 1.0, -1.0)

    @cached_property
    def dealias_mask(self):
        """Two-thirds rule: True on modes with xi <= (2/3)*xi_max."""
        return self.xi <= (2.0 / 3.0) * self.xi_max + 1e-12

    def apply_multiplier(self, samples, mult):
        """irfft(mult * rfft(samples)) for a multiplier on k = 0..n/2.

        Acts on the last axis, so samples may stack rows.  The multiplier
        of a real operator is Hermitian, mult(-xi) = conj(mult(xi)), so the
        half spectrum determines it; irfft drops the imaginary part of the
        Nyquist entry, which keeps odd derivatives real.
        """
        return np.fft.irfft(mult * np.fft.rfft(samples), self.n)

    def half_coeffs(self, samples):
        """Coefficients c_k, k = 0..n/2, of f(x) = sum_k c_k exp(i*xi_k*x)."""
        return self.half_phase * np.fft.rfft(samples) / self.n


@dataclass(frozen=True)
class RealField:
    """A real-valued function sampled on a Grid."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.samples.shape != (self.grid.n,):
            raise GridMismatchError(
                f"sample count {self.samples.shape} does not match grid n={self.grid.n}"
            )

    def validate(self):
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("field contains non-finite samples")
        return self


def inertia_multiplier(grid: Grid, r: float):
    """(1 + xi^2)^r, computed pointwise; exact for any real r."""
    return np.exp(r * np.log1p(grid.xi**2))


def invert_inertia(m: RealField, r: float) -> RealField:
    """Velocity from momentum: multiplier (1 + xi^2)^(-r).  Smooths by 2r."""
    raise_errors(inertia_exponent_errors(r))
    return RealField(m.grid, m.grid.apply_multiplier(m.samples, inertia_multiplier(m.grid, -r)))


@dataclass(frozen=True, eq=False)
class Operators:
    """The Fourier multipliers the RHS code shares on one grid.

    Every array lives on the rfft half spectrum k = 0..n/2 of real samples:
    ``ixi`` is i*xi, ``inertia`` the multiplier (1 + xi^2)^r and ``mask`` the
    two-thirds mask as floats (the scalar 1.0 when products are not
    dealiased).  ``jet`` stacks (ixi, inertia, ixi * inertia, ixi): applied
    to the half spectra of (u, u, u, rho) it gives (u_x, m, m_x, rho_x).
    ``solve`` stacks (mask / inertia, mask): applied to the half spectra of
    the summed momentum and density nonlinearities it dealiases both and
    recovers u_t from m_t.  Build it through :func:`operators`, which
    caches it.
    """

    grid: Grid
    ixi: np.ndarray
    inertia: np.ndarray
    mask: object
    jet: np.ndarray
    solve: np.ndarray

    def dx(self, a):
        """Spectral d/dx of samples, multiplier i*xi."""
        return self.grid.apply_multiplier(a, self.ixi)


def operators(grid: Grid, r: float = 1.0, use_dealias: bool = True) -> Operators:
    """The cached :class:`Operators` of (grid, r, use_dealias).

    The arguments are normalised before the cache, so every call form of
    one triple (defaults, positional or keyword) returns the same bundle.
    """
    return _operators(grid, float(r), bool(use_dealias))


@lru_cache(maxsize=64)
def _operators(grid: Grid, r: float, use_dealias: bool) -> Operators:
    ixi = 1j * grid.xi
    a_mult = inertia_multiplier(grid, r)
    mask = grid.dealias_mask.astype(float) if use_dealias else 1.0
    jet = np.stack((ixi, a_mult, ixi * a_mult, ixi))
    solve = np.stack((mask / a_mult, mask * np.ones_like(a_mult)))
    shared = (ixi, a_mult, jet, solve) + ((mask,) if use_dealias else ())
    for arr in shared:
        arr.flags.writeable = False
    return Operators(grid, ixi, a_mult, mask, jet, solve)
