"""Periodic pseudo-spectral grid, field containers, and multiplier operators.

Everything here acts on a uniform grid for [-L, L) with wavenumbers
xi_k = pi*k/L.  Spectral coefficients are stored in the absolute basis
exp(i*xi_k*x) (not the index basis of the raw FFT), so single harmonics have
the textbook coefficients and off-grid evaluation needs no extra phase.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class GridMismatchError(ValueError):
    """Operands live on different grids, or an array has the wrong length."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L) with n points, n a power of two."""

    L: float
    n: int

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError(f"half length must be positive, got {self.L}")
        if self.n < 16 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")

    @property
    def dx(self):
        return 2.0 * self.L / self.n

    @cached_property
    def x(self):
        return -self.L + self.dx * np.arange(self.n)

    @cached_property
    def k_index(self):
        """Integer mode numbers in FFT order: 0, 1, ..., n/2-1, -n/2, ..., -1."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(int)

    @cached_property
    def xi(self):
        """Wavenumbers pi*k/L in FFT order."""
        return np.pi * self.k_index / self.L

    @property
    def xi_max(self):
        return np.pi * (self.n // 2) / self.L

    @cached_property
    def mode_phase(self):
        """(-1)^k per mode; converts FFT-index coefficients to exp(i*xi*x)."""
        return np.where(self.k_index % 2 == 0, 1.0, -1.0)

    @cached_property
    def half_phase(self):
        """(-1)^k for the rfft half spectrum k = 0..n/2."""
        k = np.arange(self.n // 2 + 1)
        return np.where(k % 2 == 0, 1.0, -1.0)

    @cached_property
    def dealias_mask(self):
        """Two-thirds rule: True on modes with |xi| <= (2/3)*xi_max."""
        return np.abs(self.xi) <= (2.0 / 3.0) * self.xi_max + 1e-12

    # -- raw array helpers.  Multipliers are diagonal, so the mode phase
    #    cancels and they act on the raw rfft half spectrum k = 0..n/2. ------

    def to_coeffs(self, samples):
        return self.mode_phase * np.fft.fft(samples) / self.n

    def to_samples(self, coeffs):
        return np.fft.ifft(self.mode_phase * coeffs * self.n).real

    def apply_multiplier(self, samples, mult):
        """Apply a Fourier multiplier given in FFT order on the full grid.

        The multiplier must be Hermitian, mult(-xi) = conj(mult(xi)), so the
        result is real; only its k = 0..n/2 half is read.  irfft drops the
        imaginary part of the Nyquist entry, as taking the real part of a
        full inverse transform would.
        """
        return np.fft.irfft(mult[: self.n // 2 + 1] * np.fft.rfft(samples), self.n)

    def dealias_samples(self, samples):
        return self.apply_multiplier(samples, self.dealias_mask)

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


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a field, in FFT mode order, basis exp(i*xi*x)."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        if self.coeffs.shape != (self.grid.n,):
            raise GridMismatchError(
                f"coefficient count {self.coeffs.shape} does not match grid n={self.grid.n}"
            )


def transform(f: RealField) -> SpectralField:
    """Forward transform to exp(i*xi*x)-basis coefficients."""
    return SpectralField(f.grid, f.grid.to_coeffs(f.samples))


def inverse_transform(F: SpectralField) -> RealField:
    """Inverse of :func:`transform`; round-trips to ~1e-15 relative."""
    return RealField(F.grid, F.grid.to_samples(F.coeffs))


def derivative(f: RealField, order: int = 1) -> RealField:
    """Spectral derivative d^order/dx^order.

    The multiplier is (i*xi)^order; the Nyquist mode is zeroed for odd
    orders so the result stays real.
    """
    if order < 0:
        raise ValueError("derivative order must be nonnegative")
    if order == 0:
        return f
    grid = f.grid
    mult = (1j * grid.xi) ** order
    if order % 2:
        mult = mult.copy()
        mult[grid.n // 2] = 0.0
    return RealField(grid, grid.apply_multiplier(f.samples, mult))


def inertia_multiplier(grid: Grid, r: float):
    """(1 + xi^2)^r, computed pointwise; exact for any real r."""
    return np.exp(r * np.log1p(grid.xi**2))


def _check_inertia_exponent(r, allow_any_r):
    if r < 1.0 and not allow_any_r:
        raise ValueError(
            f"inertia exponent r={r} is below 1; pass allow_any_r=True to explore"
        )


def apply_inertia(f: RealField, r: float, allow_any_r: bool = False) -> RealField:
    """Momentum from velocity: multiplier (1 + xi^2)^r."""
    _check_inertia_exponent(r, allow_any_r)
    return RealField(f.grid, f.grid.apply_multiplier(f.samples, inertia_multiplier(f.grid, r)))


def invert_inertia(m: RealField, r: float, allow_any_r: bool = False) -> RealField:
    """Velocity from momentum: multiplier (1 + xi^2)^(-r).  Smooths by 2r."""
    _check_inertia_exponent(r, allow_any_r)
    return RealField(m.grid, m.grid.apply_multiplier(m.samples, inertia_multiplier(m.grid, -r)))


def dealias(f: RealField) -> RealField:
    """Zero all modes with |xi| > (2/3)*xi_max (two-thirds rule)."""
    return RealField(f.grid, f.grid.dealias_samples(f.samples))


@dataclass(frozen=True, eq=False)
class Operators:
    """The Fourier multipliers the RHS code shares on one grid.

    Every array lives on the rfft half spectrum k = 0..n/2 of real samples:
    ``ixi`` is i*xi, ``inertia`` the multiplier (1 + xi^2)^r, ``ixi_inertia``
    their product and ``mask`` the two-thirds mask as floats (the scalar 1.0
    when products are not dealiased).  ``jet`` stacks (ixi, inertia,
    ixi_inertia, ixi): applied to the half spectra of (u, u, u, rho) it gives
    (u_x, m, m_x, rho_x).  ``solve`` stacks (mask / inertia, mask): applied to
    the half spectra of the summed momentum and density nonlinearities it
    dealiases both and recovers u_t from m_t.  Build it through
    :func:`operators`, which caches it.
    """

    grid: Grid
    ixi: np.ndarray
    inertia: np.ndarray
    ixi_inertia: np.ndarray
    mask: object
    jet: np.ndarray
    solve: np.ndarray

    def dx(self, a):
        """Spectral d/dx of samples; irfft drops the imaginary Nyquist entry
        of i*xi*a_hat, as :func:`derivative` zeroes it."""
        return np.fft.irfft(self.ixi * np.fft.rfft(a), self.grid.n)


@lru_cache(maxsize=64)
def operators(grid: Grid, r: float = 1.0, use_dealias: bool = True) -> Operators:
    """The cached :class:`Operators` of (grid, r, use_dealias)."""
    half = slice(0, grid.n // 2 + 1)
    ixi = 1j * grid.xi[half]
    a_mult = inertia_multiplier(grid, r)[half]
    ixi_a = ixi * a_mult
    mask = grid.dealias_mask[half].astype(float) if use_dealias else 1.0
    jet = np.stack((ixi, a_mult, ixi_a, ixi))
    solve = np.stack((mask / a_mult, mask * np.ones_like(a_mult)))
    shared = (ixi, a_mult, ixi_a, jet, solve) + ((mask,) if use_dealias else ())
    for arr in shared:
        arr.flags.writeable = False
    return Operators(grid, ixi, a_mult, ixi_a, mask, jet, solve)


def l2_norm(f: RealField) -> float:
    """L2 norm by grid quadrature, sqrt(dx * sum f^2)."""
    return float(np.sqrt(f.grid.dx * np.sum(f.samples**2)))


def coeff_l2_norm(F: SpectralField) -> float:
    """L2 norm from coefficients, sqrt(2L * sum |c|^2); Parseval partner."""
    return float(np.sqrt(2.0 * F.grid.L * np.sum(np.abs(F.coeffs) ** 2)))
