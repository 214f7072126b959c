"""Named initial-data profiles used by scenarios and tests."""

import numpy as np

from .spectral import Grid, RealField


def zero(grid: Grid) -> RealField:
    return RealField(grid, np.zeros(grid.n))


def gaussian(grid: Grid, amp: float = 1.0, width: float = 1.0, center: float = 0.0) -> RealField:
    return RealField(grid, amp * np.exp(-(((grid.x - center) / width) ** 2)))


def bump(grid: Grid, amp: float = 1.0, width: float = 1.0, center: float = 0.0) -> RealField:
    """C-infinity bump amp*exp(-1/(1 - ((x-c)/w)^2)) on |x-c| < w, else 0.

    Exactly compactly supported, smooth enough for any Sobolev hypothesis;
    peak value is amp/e.
    """
    xi = (grid.x - center) / width
    out = np.zeros(grid.n)
    inside = np.abs(xi) < 1.0
    out[inside] = amp * np.exp(-1.0 / (1.0 - xi[inside] ** 2))
    return RealField(grid, out)


def mode(grid: Grid, k: int = 1, amp: float = 1.0, phase: float = 0.0) -> RealField:
    """Single harmonic amp*cos(pi*k*x/L + phase)."""
    return RealField(grid, amp * np.cos(np.pi * k * grid.x / grid.L + phase))


def sech(grid: Grid, amp: float = 1.0, width: float = 1.0, center: float = 0.0) -> RealField:
    """amp/cosh((x-c)/w); tails ~ exp(-|x|/w), the profile the dynamics
    itself sustains, which makes it the natural seed for weighted-norm runs."""
    return RealField(grid, amp / np.cosh((grid.x - center) / width))


def band_limited_noise(grid: Grid, seed: int, kmax_frac: float = 0.25,
                       amp: float = 1.0, decay: float = 2.0) -> RealField:
    """Random real field with modes limited to |k| <= kmax_frac * n/2.

    Coefficients get random phases and a (1 + xi^2)^(-decay/2) envelope, then
    the samples are rescaled to max |f| = amp.  Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    kcut = max(2, int(kmax_frac * grid.n // 2))
    c = np.zeros_like(grid.xi, dtype=complex)
    for k in range(1, kcut + 1):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        c[k] = z * (1.0 + (np.pi * k / grid.L) ** 2) ** (-decay / 2.0)
    c[0] = rng.standard_normal() * 0.1
    samples = np.fft.irfft(grid.half_phase * c * grid.n, grid.n)
    peak = np.max(np.abs(samples))
    if peak > 0:
        samples = samples * (amp / peak)
    return RealField(grid, samples)


PROFILES = {
    "zero": zero,
    "gaussian": gaussian,
    "bump": bump,
    "mode": mode,
    "sech": sech,
}


def make_profile(grid: Grid, spec: dict) -> RealField:
    """Build a profile from a {'profile': name, **params} mapping."""
    spec = dict(spec)
    name = spec.pop("profile", "zero")
    if name not in PROFILES:
        raise ValueError(f"unknown profile {name!r}; choose from {sorted(PROFILES)}")
    if name == "mode" and "k" in spec:
        spec["k"] = int(spec["k"])
    return PROFILES[name](grid, **spec)
