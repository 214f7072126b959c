"""Named initial-data profiles used by scenarios and tests."""

import inspect
import numbers
import sys

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


def _parameters(name):
    """The parameters of profile name after grid, by name."""
    return dict(list(inspect.signature(PROFILES[name]).parameters.items())[1:])


def profile_errors(spec) -> list:
    """Every reason a {'profile': name, **params} spec builds no profile:
    an unknown name, a key that is no parameter, a parameter that is not a
    finite number (an int past the float range is none), an int parameter
    that is not integral, a width that is not positive."""
    spec = dict(spec)
    name = spec.pop("profile", "zero")
    if name not in PROFILES:
        return [f"profile {name!r} unknown; choose from {sorted(PROFILES)}"]
    takes = _parameters(name)
    errors = []
    for key, val in spec.items():
        if key not in takes:
            errors.append(f"{key} is not a parameter of profile {name!r}; it takes {list(takes)}")
        elif not (isinstance(val, numbers.Real) and abs(val) <= sys.float_info.max):
            errors.append(f"{key} must be a finite number for profile {name!r}, got {val!r}")
        elif takes[key].annotation is int and not float(val).is_integer():
            errors.append(f"{key} must be an integer for profile {name!r}, got {val!r}")
        elif key == "width" and not val > 0:
            errors.append(f"width must be positive for profile {name!r}, got {val!r}")
    return errors


def make_profile(grid: Grid, spec: dict) -> RealField:
    """Build a profile from a spec that profile_errors passes; an int
    parameter given as an integral float is cast by its annotation."""
    spec = dict(spec)
    name = spec.pop("profile", "zero")
    takes = _parameters(name)
    return PROFILES[name](grid, **{key: int(val) if takes[key].annotation is int else val
                                   for key, val in spec.items()})
