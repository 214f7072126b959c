"""Off-grid evaluation against the dense two-sided mode sum."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chflow.offgrid import evaluate
from chflow.profiles import band_limited_noise
from chflow.spectral import Grid, RealField, derivative


def _dense_oracle(grid, f, pts):
    # brute-force mode sum over the full (two-sided) spectrum
    c = grid.to_coeffs(f.samples)
    return np.real(np.exp(1j * np.outer(pts, grid.xi)) @ c)


def test_dense_oracle():
    grid = Grid(11.0, 128)
    f = band_limited_noise(grid, seed=3, kmax_frac=0.4)
    pts = np.random.default_rng(5).uniform(-11, 11, 200)
    vals = evaluate(f, pts)
    assert np.max(np.abs(vals - _dense_oracle(grid, f, pts))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    log2n=st.integers(4, 10),
    L=st.floats(0.5, 100.0),
    seed=st.integers(0, 2**32 - 1),
    fracs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=64),
)
def test_matches_dense_oracle_and_spectral_derivative(log2n, L, seed, fracs):
    grid = Grid(L, 2**log2n)
    # white noise excites every mode, the Nyquist cosine included
    f = RealField(grid, np.random.default_rng(seed).standard_normal(grid.n))
    # sum |c_k| bounds |f| everywhere; round-off in the phases scales with it
    scale = np.sum(np.abs(grid.to_coeffs(f.samples)))

    pts = L * np.array(fracs)
    vals = evaluate(f, pts)
    assert np.max(np.abs(vals - _dense_oracle(grid, f, pts))) <= 1e-12 * scale

    _, dvals = evaluate(f, grid.x, deriv=True)
    fx = derivative(f, 1).samples
    assert np.max(np.abs(dvals - fx)) <= 1e-12 * grid.xi_max * scale


def test_evaluate_reproduces_grid_samples():
    grid = Grid(20.0, 256)
    f = band_limited_noise(grid, seed=2)
    vals = evaluate(f, grid.x)
    assert np.max(np.abs(vals - f.samples)) < 1e-12


def test_evaluate_is_periodic():
    grid = Grid(20.0, 256)
    f = band_limited_noise(grid, seed=9)
    pts = np.random.default_rng(0).uniform(-20, 20, 50)
    a = evaluate(f, pts)
    b = evaluate(f, pts + 2 * grid.L)
    assert np.max(np.abs(a - b)) < 1e-11


def test_derivative_consistent_with_spectral_derivative():
    grid = Grid(20.0, 256)
    f = band_limited_noise(grid, seed=4)
    fx = derivative(f, 1)
    vals, dvals = evaluate(f, grid.x, deriv=True)
    assert np.max(np.abs(dvals - fx.samples)) < 1e-10
