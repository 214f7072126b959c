"""Discrete Littlewood-Paley decomposition and Besov/Sobolev norms.

Blocks are frequency annuli |xi| ~ 2^k.  Two partitions are provided:

* ``sharp``  -- indicator cutoffs, block k covers 2^k <= |xi| < 2^{k+1}
  (block -1 is the low-pass |xi| < 1).  Exact block supports, default.
* ``smooth`` -- raised-cosine low-pass chi with a one-octave transition;
  block k = chi(xi/2^{k+1}) - chi(xi/2^k) is supported in 2^k < |xi| < 2^{k+2}.

Both telescope, so the blocks reconstruct the input exactly on the grid.
The Besov norm is the weighted block-norm sum

    ( sum_{k >= -1} 2^{k s q} ||block_k f||_{L^p}^q )^{1/q},

with the sup over k when q is infinite.  For p = q = 2 this is equivalent
(up to partition constants) to the Sobolev multiplier norm
sqrt(2L * sum_k (1 + xi_k^2)^s |c_k|^2).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import Grid, RealField


@dataclass(frozen=True)
class BesovIndex:
    """Regularity s, integrability p, summability q (p, q in [1, inf])."""

    s: float
    p: float = 2.0
    q: float = 2.0

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise ValueError("regularity index must be finite")
        if self.p < 1 or self.q < 1:
            raise ValueError("p and q must be >= 1 (inf allowed)")


def k_max(grid: Grid) -> int:
    return max(0, math.ceil(math.log2(grid.xi_max)))


def _smooth_lowpass(t):
    """chi(|xi|/c): 1 inside, cos^2 ramp over one octave, 0 beyond."""
    t = np.abs(t)
    out = np.zeros_like(t)
    out[t <= 1.0] = 1.0
    ramp = (t > 1.0) & (t < 2.0)
    out[ramp] = np.cos(0.5 * np.pi * np.log2(t[ramp])) ** 2
    return out


@lru_cache(maxsize=32)
def _block_multipliers(grid: Grid, style: str):
    """Per-block Fourier multipliers on the rfft half spectrum k = 0..n/2,
    stacked one row per block and cached per (grid, style)."""
    axi = grid.xi
    km = k_max(grid)
    mults = []
    if style == "sharp":
        mults.append((axi < 1.0).astype(float))
        for k in range(km + 1):
            mults.append(((axi >= 2.0**k) & (axi < 2.0 ** (k + 1))).astype(float))
    elif style == "smooth":
        prev = _smooth_lowpass(axi)          # S_0
        mults.append(prev)
        for k in range(km + 1):
            nxt = _smooth_lowpass(axi / 2.0 ** (k + 1))
            mults.append(nxt - prev)
            prev = nxt
    else:
        raise ValueError(f"unknown cutoff style {style!r}")
    mults = np.stack(mults)
    mults.flags.writeable = False
    return mults


def _blocks(grid: Grid, samples, style: str):
    """Dyadic blocks of every row of samples (shape (..., n)): shape (..., K, n)."""
    mults = _block_multipliers(grid, style)
    return np.fft.irfft(mults * np.fft.rfft(samples)[..., None, :], grid.n)


def lowpass(f: RealField, j: int) -> RealField:
    """Cumulative low-pass S_j f = sum of the sharp blocks k < j."""
    grid = f.grid
    return RealField(grid, grid.apply_multiplier(f.samples, (grid.xi < 2.0**j).astype(float)))


def besov_norms(grid: Grid, samples, idx: BesovIndex, style: str = "sharp"):
    """Besov norm of every row of samples (shape (..., n)), shape (...);
    each equals :func:`besov_norm` of its row bit for bit."""
    a = np.abs(_blocks(grid, samples, style))
    if np.isinf(idx.p):
        block_norms = a.max(axis=-1, initial=0.0)
    else:
        block_norms = (grid.dx * np.sum(a**idx.p, axis=-1)) ** (1.0 / idx.p)
    weights = np.array([2.0 ** (k * idx.s) for k in range(-1, a.shape[-2] - 1)])
    terms = weights * block_norms
    if np.isinf(idx.q):
        return terms.max(axis=-1, initial=0.0)
    return np.sum(terms**idx.q, axis=-1) ** (1.0 / idx.q)


def besov_norm(f: RealField, idx: BesovIndex, style: str = "sharp") -> float:
    """Besov norm of one field: the one-row case of :func:`besov_norms`."""
    return float(besov_norms(f.grid, f.samples[None], idx, style)[0])

