"""Off-grid evaluation against the dense two-sided mode sum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chflow.offgrid import BLOCK, evaluate, evaluate_coeffs, evaluate_spread, spread
from chflow.profiles import band_limited_noise
from chflow.spectral import Grid, RealField

from conftest import derivative, full_coeffs, full_xi


def _dense_oracle(grid, f, pts):
    # brute-force mode sum over the full (two-sided) spectrum
    c = full_coeffs(grid, f.samples)
    return np.real(np.exp(1j * np.outer(pts, full_xi(grid))) @ c)


def _dense_derivative(grid, f, pts):
    # d/dx of the same mode sum, Nyquist term included (off the grid it does
    # not vanish, unlike in the grid derivative)
    c = full_coeffs(grid, f.samples)
    xi = full_xi(grid)
    return np.real(np.exp(1j * np.outer(pts, xi)) @ (1j * xi * c))


def _white_noise(grid, seed):
    # as in the property test below: every mode excited, scale = sum |c_k|
    f = RealField(grid, np.random.default_rng(seed).standard_normal(grid.n))
    return f, np.sum(np.abs(full_coeffs(grid, f.samples)))


def _assert_matches_dense(grid, f, scale, pts, oracle_pts=None):
    oracle_pts = pts if oracle_pts is None else oracle_pts
    vals, dvals = evaluate(f, pts, deriv=True)
    assert np.max(np.abs(vals - _dense_oracle(grid, f, oracle_pts))) <= 1e-12 * scale
    d_err = np.max(np.abs(dvals - _dense_derivative(grid, f, oracle_pts)))
    assert d_err <= 1e-12 * grid.xi_max * scale


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
    scale = np.sum(np.abs(full_coeffs(grid, f.samples)))

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


@settings(max_examples=60, deadline=None)
@given(
    log2n=st.integers(4, 10),
    L=st.floats(0.5, 100.0),
    seed=st.integers(0, 2**32 - 1),
    fracs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=64),
)
def test_off_grid_derivatives_match_dense_sum(log2n, L, seed, fracs):
    grid = Grid(L, 2**log2n)
    f, scale = _white_noise(grid, seed)
    _assert_matches_dense(grid, f, scale, L * np.array(fracs))


@pytest.mark.parametrize("L", [0.5, 20.0, 100.0])
def test_lifted_points_far_outside_the_box(L):
    # flow markers drift out of [-L, L); the field is exactly 2L-periodic
    # and fmod is exact, so the oracle at the reduced point is the reference
    # (the mode sum at |x| = 50L itself carries phase round-off ~ eps*50*pi*k)
    grid = Grid(L, 1024)
    f, scale = _white_noise(grid, 11)
    pts = np.random.default_rng(12).uniform(-50.0 * L, 50.0 * L, 300)
    _assert_matches_dense(grid, f, scale, pts, np.fmod(pts, 2.0 * L))


@pytest.mark.parametrize("L", [0.5, 20.0, 100.0])
def test_points_on_the_wrap_boundary(L):
    grid = Grid(L, 256)
    f, scale = _white_noise(grid, 13)
    pts = np.array([-L, L - 1e-15, L, -L + 1e-15, 0.0, -1e-300])
    _assert_matches_dense(grid, f, scale, pts)


def test_large_grid():
    # at n = 4096 the phase round-off of an unreduced |x| ~ 200L exceeds the
    # bound, so this also checks that lifted points are reduced exactly
    grid = Grid(100.0, 4096)
    f, scale = _white_noise(grid, 14)
    rng = np.random.default_rng(15)
    pts = np.concatenate((rng.uniform(-100.0, 100.0, 250), rng.uniform(-2e4, 2e4, 250)))
    _assert_matches_dense(grid, f, scale, pts, np.fmod(pts, 2.0 * grid.L))


@pytest.mark.parametrize("deriv", [False, True])
def test_blocks_do_not_change_values(deriv):
    # points are evaluated in blocks; each point's value is its own, so the
    # whole set equals the points taken one at a time, bit for bit
    g = Grid(7.0, 256)
    f = band_limited_noise(g, seed=5, kmax_frac=0.4)
    pts = np.random.default_rng(2).uniform(-30.0, 30.0, 2 * BLOCK + 37)
    whole = evaluate(f, pts, deriv=deriv)
    single = [evaluate(f, pts[i:i + 1], deriv=deriv) for i in range(len(pts))]
    if deriv:
        assert np.array_equal(whole[0], np.concatenate([v for v, _ in single]))
        assert np.array_equal(whole[1], np.concatenate([d for _, d in single]))
    else:
        assert np.array_equal(whole, np.concatenate(single))


@pytest.mark.parametrize("deriv", [False, True])
def test_rows_share_the_weights(deriv):
    # a stack of rows is weighed once per block and the weights serve every
    # row; each row equals its own one-row evaluation, bit for bit
    g = Grid(7.0, 256)
    samples = np.stack([band_limited_noise(g, seed=s, kmax_frac=0.4).samples for s in (5, 6, 7)])
    coeffs = g.half_coeffs(samples)
    pts = np.random.default_rng(3).uniform(-30.0, 30.0, 2 * BLOCK + 37)
    vals, dvals = evaluate_spread(g, spread(coeffs), pts, deriv)
    assert vals.shape == (len(coeffs), len(pts))
    assert (dvals is not None) == deriv
    for row, c in enumerate(coeffs):
        single = evaluate_coeffs(g, c, pts, deriv)
        if deriv:
            assert np.array_equal(vals[row], single[0])
            assert np.array_equal(dvals[row], single[1])
        else:
            assert np.array_equal(vals[row], single)


@pytest.mark.parametrize("deriv", [False, True])
@pytest.mark.parametrize("shape", [None, (), (1, 2), (2, 3), (2, 1, 3)])
def test_any_point_shape(deriv, shape):
    # scalars and arrays of any shape are evaluated as their raveled points
    # and come back in their own shape, bit for bit the 1-D values
    g = Grid(7.0, 64)
    f = band_limited_noise(g, seed=8, kmax_frac=0.4)
    flat = np.random.default_rng(4).uniform(-20.0, 20.0, int(np.prod(shape or ())))
    pts = float(flat[0]) if shape is None else flat.reshape(shape)
    ref = evaluate(f, flat, deriv)
    for out in (evaluate(f, pts, deriv), evaluate_coeffs(g, g.half_coeffs(f.samples), pts, deriv)):
        for got, want in zip(out, ref) if deriv else [(out, ref)]:
            assert np.shape(got) == np.shape(pts)
            assert np.array_equal(np.ravel(got), want)
