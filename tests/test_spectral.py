"""Transforms, multiplier operators, and their exactness properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chflow.besov import _smooth_lowpass
from chflow.profiles import bump, gaussian
from chflow.spectral import (
    Grid,
    GridMismatchError,
    RealField,
    SpectralField,
    apply_inertia,
    coeff_l2_norm,
    dealias,
    derivative,
    inertia_multiplier,
    inverse_transform,
    invert_inertia,
    l2_norm,
    operators,
    transform,
)

from conftest import random_fields


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

    def test_field_length_mismatch(self):
        g = Grid(1.0, 32)
        with pytest.raises(GridMismatchError):
            RealField(g, np.zeros(16))
        with pytest.raises(GridMismatchError):
            SpectralField(g, np.zeros(16, dtype=complex))


class TestTransform:
    def test_zero_field_has_zero_coeffs(self, grid_pi):
        F = transform(RealField(grid_pi, np.zeros(grid_pi.n)))
        assert np.all(F.coeffs == 0.0)

    def test_single_cosine_has_two_coeffs(self, grid_pi):
        f = RealField(grid_pi, np.cos(np.pi * grid_pi.x / grid_pi.L))
        c = transform(f).coeffs
        nonzero = np.nonzero(np.abs(c) > 1e-13)[0]
        assert set(nonzero) == {1, grid_pi.n - 1}
        assert c[1] == pytest.approx(0.5, abs=1e-14)
        assert c[-1] == pytest.approx(0.5, abs=1e-14)

    def test_round_trip_on_random_fields(self, grid20):
        for f in random_fields(grid20, 5):
            back = inverse_transform(transform(f))
            scale = np.max(np.abs(f.samples))
            assert np.max(np.abs(back.samples - f.samples)) < 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        log2n=st.integers(4, 10),
        L=st.floats(0.5, 100.0),
        seed=st.integers(0, 2**32 - 1),
        k_frac=st.floats(0.0, 1.0),
    )
    def test_round_trips_on_random_grids(self, log2n, L, seed, k_frac):
        grid = Grid(L, 2**log2n)
        f = RealField(grid, np.random.default_rng(seed).standard_normal(grid.n))
        F = transform(f)
        back = inverse_transform(F)
        assert np.max(np.abs(back.samples - f.samples)) <= 1e-12 * np.max(np.abs(f.samples))
        again = transform(back).coeffs
        assert np.max(np.abs(again - F.coeffs)) <= 1e-12 * np.max(np.abs(F.coeffs))
        # a single harmonic lands on its two modes in the exp(i*xi*x) basis
        k = 1 + int(k_frac * (grid.n // 2 - 2))
        c = transform(RealField(grid, np.cos(np.pi * k * grid.x / L))).coeffs
        expected = np.zeros(grid.n)
        expected[[k, grid.n - k]] = 0.5
        assert np.max(np.abs(c - expected)) <= 1e-12

    def test_hermitian_symmetry(self, grid20):
        (f,) = random_fields(grid20, 1)
        c = transform(f).coeffs
        assert np.allclose(c[1:], np.conj(c[1:][::-1]), atol=1e-15)

    def test_parseval(self, grid20):
        for f in random_fields(grid20, 3):
            assert coeff_l2_norm(transform(f)) == pytest.approx(
                l2_norm(f), rel=1e-12
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

    def test_negative_order_rejected(self, grid_pi):
        with pytest.raises(ValueError):
            derivative(RealField(grid_pi, np.zeros(grid_pi.n)), -1)

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
        with pytest.raises(ValueError):
            apply_inertia(f, 0.5)
        apply_inertia(f, 0.5, allow_any_r=True)

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
        F = transform(f)
        assert np.allclose(transform(dealias(inverse_transform(F))).coeffs, F.coeffs)

    def test_nyquist_mode_removed(self, grid_pi):
        c = np.zeros(grid_pi.n, dtype=complex)
        c[grid_pi.n // 2] = 1.0
        out = transform(dealias(inverse_transform(SpectralField(grid_pi, c))))
        assert np.all(out.coeffs == 0.0)

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
        fa, fb = g.to_samples(ca), g.to_samples(cb)
        ca2 = np.zeros(g2.n, dtype=complex)
        cb2 = np.zeros(g2.n, dtype=complex)
        ca2[:kcut + 1], ca2[-kcut:] = ca[:kcut + 1], ca[-kcut:]
        cb2[:kcut + 1], cb2[-kcut:] = cb[:kcut + 1], cb[-kcut:]
        prod2 = g2.to_coeffs(g2.to_samples(ca2) * g2.to_samples(cb2))

        prod = transform(dealias(RealField(g, fa * fb))).coeffs
        keep = np.abs(g.xi) <= (2.0 / 3.0) * g.xi_max
        oracle = np.zeros(g.n, dtype=complex)
        idx = np.fft.fftfreq(g.n, 1.0 / g.n).astype(int)
        for pos, k in enumerate(idx):
            if keep[pos]:
                oracle[pos] = prod2[k]
        assert np.max(np.abs(prod - oracle)) < 1e-12


def _full_fft_multiplier(mult, samples):
    """Reference: a multiplier applied through the full complex FFT."""
    return np.fft.ifft(mult * np.fft.fft(samples)).real


def _assert_close(got, ref, scale):
    assert np.linalg.norm(got - ref) <= 1e-12 * max(scale, 1e-300)


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
        _assert_close(ops.dx(a), _full_fft_multiplier(1j * grid.xi, a),
                      grid.xi_max * np.linalg.norm(a))

    @settings(max_examples=60, deadline=None)
    @given(**_RANDOM_GRIDS, j=st.integers(-2, 12))
    def test_apply_multiplier_matches_full_fft(self, log2n, L, r, use_dealias, seed, j):
        grid = Grid(L, 2**log2n)
        f = np.random.default_rng(seed).standard_normal(grid.n)
        mults = [
            inertia_multiplier(grid, r),
            inertia_multiplier(grid, -r),
            (np.abs(grid.xi) < 2.0**j).astype(float),
            _smooth_lowpass(grid.xi / 2.0**j),
            grid.dealias_mask if use_dealias else np.ones(grid.n),
        ] + [(1j * grid.xi) ** order for order in (1, 2, 3)]
        for mult in mults:
            _assert_close(grid.apply_multiplier(f, mult), _full_fft_multiplier(mult, f),
                          np.max(np.abs(mult)) * np.linalg.norm(f))

    def test_operator_arrays_are_read_only(self, grid20):
        ops = operators(grid20, 1.5, True)
        for arr in (ops.ixi, ops.inertia, ops.ixi_inertia, ops.mask, ops.jet, ops.solve):
            assert arr.shape[-1] == grid20.n // 2 + 1
            assert not arr.flags.writeable
