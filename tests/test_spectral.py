"""The half-spectrum transform, multiplier operators, and their exactness
properties, with the full complex FFT as the reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chflow.besov import _block_multipliers, lowpass
from chflow.profiles import band_limited_noise, bump, gaussian
from chflow.spectral import (
    ConfigurationError,
    Grid,
    GridMismatchError,
    RealField,
    invert_inertia,
    operators,
)

from conftest import (
    apply_inertia,
    dealias,
    derivative,
    full_coeffs,
    full_multiplier,
    full_samples,
    full_xi,
    lp_norm,
    random_fields,
    sobolev_norm,
)


def _mode_sum(grid, c, pts):
    """Real field with half-spectrum coefficients c at pts, by the dense sum
    over k = -n/2..n/2: interior modes twice (with their conjugates), k = 0
    and the Nyquist mode once."""
    twice = np.full(c.size, 2.0)
    twice[[0, -1]] = 1.0
    return np.real(np.exp(1j * np.outer(pts, grid.xi)) @ (twice * c))


class TestGrid:
    def test_basic_layout(self):
        g = Grid(20.0, 256)
        assert g.dx == pytest.approx(40.0 / 256)
        assert g.x[0] == -20.0
        assert np.all(np.diff(g.x) > 0)
        assert g.xi[1] == pytest.approx(np.pi / 20.0)

    @pytest.mark.parametrize("n", [8, 100, 257])
    def test_rejects_bad_point_counts(self, n):
        with pytest.raises(ValueError):
            Grid(1.0, n)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            Grid(-1.0, 64)

    @pytest.mark.parametrize("L", [np.inf, np.nan])
    def test_rejects_non_finite_length(self, L):
        with pytest.raises(ValueError, match="finite"):
            Grid(L, 64)

    def test_every_bad_field_in_one_error(self):
        with pytest.raises(ConfigurationError) as exc:
            Grid(-1.0, 100)
        assert exc.value.errors == ["L must be finite and positive, got -1.0",
                                    "n must be a power of two >= 16, got 100"]

    def test_field_length_mismatch(self):
        g = Grid(1.0, 32)
        with pytest.raises(GridMismatchError):
            RealField(g, np.zeros(16))


class TestTransform:
    """Grid.half_coeffs, the one forward transform, against the full FFT."""

    def test_zero_field_has_zero_coeffs(self, grid_pi):
        assert np.all(grid_pi.half_coeffs(np.zeros(grid_pi.n)) == 0.0)

    def test_single_cosine_has_two_coeffs(self, grid_pi):
        # cos(xi_1 x) = (exp(i xi_1 x) + exp(-i xi_1 x)) / 2: the full spectrum
        # holds c_1 = c_-1 = 1/2, the half spectrum c_1 alone
        samples = np.cos(np.pi * grid_pi.x / grid_pi.L)
        full = full_coeffs(grid_pi, samples)
        assert set(np.nonzero(np.abs(full) > 1e-13)[0]) == {1, grid_pi.n - 1}
        assert full[-1] == pytest.approx(0.5, abs=1e-14)
        c = grid_pi.half_coeffs(samples)
        assert set(np.nonzero(np.abs(c) > 1e-13)[0]) == {1}
        assert c[1] == pytest.approx(0.5, abs=1e-14)

    def test_round_trip_on_random_fields(self, grid20):
        for f in random_fields(grid20, 5):
            back = _mode_sum(grid20, grid20.half_coeffs(f.samples), grid20.x)
            scale = np.max(np.abs(f.samples))
            assert np.max(np.abs(back - f.samples)) < 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        log2n=st.integers(4, 10),
        L=st.floats(0.5, 100.0),
        seed=st.integers(0, 2**32 - 1),
        k_frac=st.floats(0.0, 1.0),
    )
    def test_round_trips_on_random_grids(self, log2n, L, seed, k_frac):
        grid = Grid(L, 2**log2n)
        f = np.random.default_rng(seed).standard_normal(grid.n)
        c = grid.half_coeffs(f)
        scale = np.sum(np.abs(c))
        assert np.max(np.abs(c - full_coeffs(grid, f)[: c.size])) <= 1e-12 * scale
        back = _mode_sum(grid, c, grid.x)
        assert np.max(np.abs(back - f)) <= 1e-12 * scale
        again = grid.half_coeffs(back)
        assert np.max(np.abs(again - c)) <= 1e-12 * scale
        # a single harmonic lands on its one mode in the exp(i*xi*x) basis
        k = 1 + int(k_frac * (grid.n // 2 - 2))
        c = grid.half_coeffs(np.cos(np.pi * k * grid.x / L))
        expected = np.zeros(c.size)
        expected[k] = 0.5
        assert np.max(np.abs(c - expected)) <= 1e-12

    def test_hermitian_symmetry(self, grid20):
        # the full spectrum of a real field is Hermitian, c_-k = conj(c_k),
        # so the half spectrum k = 0..n/2 carries all of it
        (f,) = random_fields(grid20, 1)
        full = full_coeffs(grid20, f.samples)
        assert np.allclose(full[1:], np.conj(full[1:][::-1]), atol=1e-15)
        half = grid20.half_coeffs(f.samples)
        assert half.shape == (grid20.n // 2 + 1,)
        assert np.allclose(half, full[: half.size], atol=1e-15)

    def test_parseval(self, grid20):
        for f in random_fields(grid20, 3):
            c = grid20.half_coeffs(f.samples)
            power = 2.0 * np.sum(np.abs(c) ** 2) - abs(c[0]) ** 2 - abs(c[-1]) ** 2
            assert math.sqrt(2.0 * grid20.L * power) == pytest.approx(
                lp_norm(f, 2.0), rel=1e-12
            )


class TestDerivative:
    def test_eigenfunction(self, grid_pi):
        f = RealField(grid_pi, np.sin(2 * grid_pi.x))
        d = derivative(f)
        assert np.max(np.abs(d.samples - 2 * np.cos(2 * grid_pi.x))) < 1e-12

    def test_constant_derivative_is_zero(self, grid_pi):
        d = derivative(RealField(grid_pi, np.full(grid_pi.n, 3.7)))
        assert np.max(np.abs(d.samples)) < 1e-13

    def test_second_derivative_of_gaussian(self):
        # analytic oracle: (e^{-(x/w)^2})'' = e^{-(x/w)^2} (4x^2/w^4 - 2/w^2)
        g = Grid(20.0, 512)
        w = 1.5
        f = gaussian(g, 1.0, w)
        exact = f.samples * (4 * g.x**2 / w**4 - 2 / w**2)
        d2 = derivative(f, order=2)
        assert np.max(np.abs(d2.samples - exact)) < 1e-10

    def test_order_zero_is_identity(self, grid_pi):
        f = RealField(grid_pi, np.sin(grid_pi.x))
        assert derivative(f, 0) is f

    def test_commutes_with_inertia(self, grid20):
        (f,) = random_fields(grid20, 1)
        a = derivative(apply_inertia(f, 1.5), 1)
        b = apply_inertia(derivative(f, 1), 1.5)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-11 * np.max(np.abs(a.samples))


class TestInertia:
    def test_constant_is_fixed_point(self, grid_pi):
        for r in (1.0, 1.5, 2.0, 3.0):
            f = RealField(grid_pi, np.full(grid_pi.n, 2.5))
            out = apply_inertia(f, r)
            assert np.max(np.abs(out.samples - 2.5)) < 1e-10

    def test_eigenvalue_on_single_mode(self, grid_pi):
        f = RealField(grid_pi, np.sin(2 * grid_pi.x))
        out = apply_inertia(f, 2.0)
        assert np.max(np.abs(out.samples - 25.0 * f.samples)) < 1e-9

    def test_invert_eigenvalue(self, grid_pi):
        f = RealField(grid_pi, 25.0 * np.sin(2 * grid_pi.x))
        out = invert_inertia(f, 2.0)
        assert np.max(np.abs(out.samples - np.sin(2 * grid_pi.x))) < 1e-12

    def test_invert_preserves_constants(self, grid_pi):
        f = RealField(grid_pi, np.full(grid_pi.n, -1.7))
        for r in (1.0, 1.5, 3.0):
            out = invert_inertia(f, r)
            assert np.max(np.abs(out.samples + 1.7)) < 1e-12

    def test_round_trip_fractional(self, grid20):
        (f,) = random_fields(grid20, 1)
        back = invert_inertia(apply_inertia(f, 1.5), 1.5)
        assert np.max(np.abs(back.samples - f.samples)) < 1e-11

    def test_rejects_small_r_without_override(self, grid_pi):
        f = RealField(grid_pi, np.zeros(grid_pi.n))
        # the one statement of the r >= 1 rule, which Params applies too
        with pytest.raises(ConfigurationError, match=r"^r must be >= 1, got 0.5$"):
            invert_inertia(f, 0.5)

    def test_linearity(self, grid20):
        f, g = random_fields(grid20, 2)
        lhs = apply_inertia(RealField(grid20, 2.0 * f.samples + 3.0 * g.samples), 1.5)
        rhs = 2.0 * apply_inertia(f, 1.5).samples + 3.0 * apply_inertia(g, 1.5).samples
        assert np.max(np.abs(lhs.samples - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
    def test_apply_then_invert_on_dealiased_fields(self, grid20, r):
        # invert-after-apply shrinks the round-off injected in between, so it
        # holds at 1e-11 for every r; the reverse order re-amplifies high-mode
        # round-off by (1 + xi^2)^r and is checked against that bound below.
        f = dealias(random_fields(grid20, 1, kmax_frac=0.5)[0])
        back = invert_inertia(apply_inertia(f, r), r)
        assert np.max(np.abs(back.samples - f.samples)) < 1e-11

    @pytest.mark.parametrize("r", [1.0, 1.5, 2.0, 3.0])
    def test_invert_then_apply_conditioning(self, grid20, r):
        f = dealias(random_fields(grid20, 1, kmax_frac=0.5)[0])
        back = apply_inertia(invert_inertia(f, r), r)
        err = np.max(np.abs(back.samples - f.samples))
        xi_edge = (2.0 / 3.0) * grid20.xi_max
        conditioning = (1.0 + xi_edge**2) ** r
        bound = max(1e-11, 256 * np.finfo(float).eps * conditioning)
        assert err < bound


class TestHelmholtz:
    def test_single_mode_multiplier(self, grid_pi):
        f = RealField(grid_pi, np.cos(3 * grid_pi.x))
        out = invert_inertia(f, 1.0)
        assert np.max(np.abs(out.samples - f.samples / 10.0)) < 1e-13

    def test_inverse_pair(self, grid20):
        (f,) = random_fields(grid20, 1)
        g = invert_inertia(f, 1.0)
        back = g.samples - derivative(g, 2).samples
        assert np.max(np.abs(back - f.samples)) < 1e-11

    def test_matches_line_kernel_quadrature(self):
        # direct convolution oracle: (G*f)(x) ~ dx * sum_j G(x - y_j) f(y_j),
        # Richardson-extrapolated over dx and dx/2 to kill the O(dx^2) error
        # the kernel's |x| kink leaves in the rectangle rule
        def direct_conv(grid, samples):
            offsets = grid.dx * np.arange(-(grid.n - 1), grid.n)
            kernel = 0.5 * np.exp(-np.abs(offsets))
            return grid.dx * np.convolve(kernel, samples, mode="valid")

        g = Grid(40.0, 4096)
        g2 = Grid(40.0, 8192)
        f = bump(g, 1.0, 3.0)
        conv1 = direct_conv(g, f.samples)
        conv2 = direct_conv(g2, bump(g2, 1.0, 3.0).samples)[::2]
        oracle = (4.0 * conv2 - conv1) / 3.0
        out = invert_inertia(f, 1.0)
        assert np.max(np.abs(out.samples - oracle)) < 1e-6

    def test_narrow_source_approximates_kernel(self):
        g = Grid(40.0, 4096)
        w = 0.05
        f = gaussian(g, 1.0, w)
        mass = g.dx * np.sum(f.samples)
        out = invert_inertia(f, 1.0).samples / mass
        window = (np.abs(g.x) >= 1.0) & (np.abs(g.x) <= 5.0)
        exact = 0.5 * np.exp(-np.abs(g.x[window]))
        rel = np.abs(out[window] - exact) / exact
        assert np.max(rel) < 1e-3


class TestDealias:
    def test_band_limited_field_unchanged(self, grid20):
        f = random_fields(grid20, 1, kmax_frac=0.3)[0]
        c = grid20.half_coeffs(f.samples)
        assert np.allclose(grid20.half_coeffs(dealias(f).samples), c)

    def test_nyquist_mode_removed(self, grid_pi):
        c = np.zeros(grid_pi.n, dtype=complex)
        c[grid_pi.n // 2] = 1.0
        out = dealias(RealField(grid_pi, full_samples(grid_pi, c)))
        assert np.all(full_coeffs(grid_pi, out.samples) == 0.0)

    def test_product_matches_double_resolution_oracle(self):
        # multiply on a 2n grid (exact for the retained band), then compare
        # the retained coefficients with the dealiased n-grid product
        g = Grid(np.pi, 64)
        g2 = Grid(np.pi, 128)
        kcut = g.n // 3
        rng = np.random.default_rng(7)

        def make(gr):
            c = np.zeros(gr.n, dtype=complex)
            for k in range(1, kcut + 1):
                z = rng.standard_normal() + 1j * rng.standard_normal()
                c[k] = z / (1 + k * k)
                c[-k] = np.conj(c[k])
            return c

        ca, cb = make(g), make(g)
        fa, fb = full_samples(g, ca), full_samples(g, cb)
        ca2 = np.zeros(g2.n, dtype=complex)
        cb2 = np.zeros(g2.n, dtype=complex)
        ca2[:kcut + 1], ca2[-kcut:] = ca[:kcut + 1], ca[-kcut:]
        cb2[:kcut + 1], cb2[-kcut:] = cb[:kcut + 1], cb[-kcut:]
        prod2 = full_coeffs(g2, full_samples(g2, ca2) * full_samples(g2, cb2))

        prod = full_coeffs(g, dealias(RealField(g, fa * fb)).samples)
        keep = np.abs(full_xi(g)) <= (2.0 / 3.0) * g.xi_max
        oracle = np.zeros(g.n, dtype=complex)
        idx = np.fft.fftfreq(g.n, 1.0 / g.n).astype(int)
        for pos, k in enumerate(idx):
            if keep[pos]:
                oracle[pos] = prod2[k]
        assert np.max(np.abs(prod - oracle)) < 1e-12


def _assert_close(got, ref, scale):
    assert np.linalg.norm(got - ref) <= 1e-12 * max(scale, 1e-300)


def _full_band_limited_noise(grid, seed, kmax_frac):
    """band_limited_noise built on the full spectrum, c_-k = conj(c_k)."""
    rng = np.random.default_rng(seed)
    kcut = max(2, int(kmax_frac * grid.n // 2))
    c = np.zeros(grid.n, dtype=complex)
    for k in range(1, kcut + 1):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        c[k] = z * (1.0 + (np.pi * k / grid.L) ** 2) ** -1.0
        c[-k] = np.conj(c[k])
    c[0] = rng.standard_normal() * 0.1
    samples = full_samples(grid, c)
    return samples / np.max(np.abs(samples))


_RANDOM_GRIDS = dict(
    log2n=st.integers(4, 10),
    L=st.floats(0.5, 100.0),
    r=st.floats(1.0, 3.0),
    use_dealias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)


class TestHalfSpectrum:
    """The rfft operators against a full complex-FFT reference."""

    @settings(max_examples=60, deadline=None)
    @given(**_RANDOM_GRIDS)
    def test_operators_match_full_fft(self, log2n, L, r, use_dealias, seed):
        grid = Grid(L, 2**log2n)
        a = np.random.default_rng(seed).standard_normal(grid.n)
        ops = operators(grid, r, use_dealias)
        xi = full_xi(grid)
        inertia = np.exp(r * np.log1p(xi**2))
        scale = np.linalg.norm(a)
        _assert_close(ops.dx(a), full_multiplier(1j * xi, a), grid.xi_max * scale)
        _assert_close(grid.apply_multiplier(a, ops.inertia), full_multiplier(inertia, a),
                      np.max(inertia) * scale)
        _assert_close(grid.apply_multiplier(a, ops.jet[2]),
                      full_multiplier(1j * xi * inertia, a),
                      grid.xi_max * np.max(inertia) * scale)

    @settings(max_examples=60, deadline=None)
    @given(**_RANDOM_GRIDS, j=st.integers(-2, 12))
    def test_apply_multiplier_matches_full_fft(self, log2n, L, r, use_dealias, seed, j):
        # every path through Grid.apply_multiplier, the package's and the
        # conftest oracles', against the same multiplier on the full spectrum
        grid = Grid(L, 2**log2n)
        f = RealField(grid, np.random.default_rng(seed).standard_normal(grid.n))
        xi = full_xi(grid)
        mask = np.abs(xi) <= (2.0 / 3.0) * grid.xi_max + 1e-12
        inertia = np.exp(r * np.log1p(xi**2))
        paths = [
            (apply_inertia(f, r), inertia),
            (invert_inertia(f, r), 1.0 / inertia),
            (lowpass(f, j), (np.abs(xi) < 2.0**j).astype(float)),
            (dealias(f), mask.astype(float)),
        ] + [(derivative(f, order), (1j * xi) ** order) for order in (1, 2, 3)]
        for got, mult in paths:
            _assert_close(got.samples, full_multiplier(mult, f.samples),
                          np.max(np.abs(mult)) * np.linalg.norm(f.samples))

    @settings(max_examples=40, deadline=None)
    @given(log2n=st.integers(4, 10), L=st.floats(0.5, 100.0),
           seed=st.integers(0, 2**32 - 1), s=st.floats(-2.0, 3.0),
           kmax_frac=st.floats(0.05, 1.0))
    def test_norm_and_noise_match_full_fft(self, log2n, L, seed, s, kmax_frac):
        grid = Grid(L, 2**log2n)
        f = band_limited_noise(grid, seed, kmax_frac)
        ref = _full_band_limited_noise(grid, seed, kmax_frac)
        assert np.max(np.abs(f.samples - ref)) <= 1e-14
        c = full_coeffs(grid, f.samples)
        weights = np.exp(s * np.log1p(full_xi(grid) ** 2))
        expect = math.sqrt(2.0 * L * np.sum(weights * np.abs(c) ** 2))
        assert sobolev_norm(f, s) == pytest.approx(expect, rel=1e-12)

    def test_one_bundle_per_grid_r_and_dealias(self, grid20):
        ops = operators(grid20, 1.0, True)
        same = (operators(grid20), operators(grid20, 1.0), operators(grid20, 1),
                operators(grid20, np.float64(1.0), use_dealias=1),
                operators(grid=grid20, r=1.0, use_dealias=True))
        assert all(o is ops for o in same)
        assert operators(grid20, 1.0, False) is not ops
        assert operators(grid20, 2.0) is not ops
        assert operators(Grid(20.0, 256), 1.0) is ops

    def test_operator_arrays_are_read_only(self, grid20):
        ops = operators(grid20, 1.5, True)
        for arr in (ops.ixi, ops.inertia, ops.mask, ops.jet, ops.solve):
            assert arr.shape[-1] == grid20.n // 2 + 1
            assert not arr.flags.writeable

    @pytest.mark.parametrize("L, n", [(np.pi, 16), (20.0, 256), (100.0, 1024)])
    def test_every_spectral_array_is_a_half_spectrum(self, L, n):
        grid = Grid(L, n)
        ops = operators(grid, 1.5, True)
        arrays = [grid.xi, grid.dealias_mask, grid.half_coeffs(grid.x)]
        arrays += [ops.ixi, ops.inertia, ops.mask, ops.jet, ops.solve]
        arrays += [_block_multipliers(grid, style) for style in ("sharp", "smooth")]
        for arr in arrays:
            assert arr.shape[-1] == n // 2 + 1
