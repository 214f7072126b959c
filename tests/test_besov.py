"""Dyadic decomposition and norm estimators."""

import math

import numpy as np
import pytest

from chflow.besov import BesovIndex, besov_norm, besov_norms, k_max, lowpass
from chflow.spectral import Grid, RealField, invert_inertia

from conftest import (
    derivative,
    full_coeffs,
    full_xi,
    lp_decompose,
    lp_norm,
    random_fields,
    sobolev_norm,
)


class TestDecomposition:
    def test_zero_field(self, grid20):
        dec = lp_decompose(RealField(grid20, np.zeros(grid20.n)))
        assert all(np.all(b.samples == 0.0) for b in dec.blocks)

    @pytest.mark.parametrize("style", ["sharp", "smooth"])
    def test_reconstruction(self, grid20, style):
        for f in random_fields(grid20, 3, kmax_frac=0.5):
            dec = lp_decompose(f, style)
            total = np.sum([b.samples for b in dec.blocks], axis=0)
            assert np.max(np.abs(total - f.samples)) < 1e-10

    def test_single_mode_lands_in_one_block(self):
        g = Grid(np.pi, 64)
        f = RealField(g, np.sin(4 * g.x))     # xi = 4 lies in [2^2, 2^3)
        dec = lp_decompose(f, "sharp")
        norms = [lp_norm(b, 2.0) for b in dec.blocks]
        hot = [k for k, v in zip(dec.k_values, norms) if v > 1e-12]
        assert hot == [2]

    def test_sharp_block_supports(self, grid20):
        f = random_fields(grid20, 1, kmax_frac=0.5)[0]
        dec = lp_decompose(f, "sharp")
        for k, block in zip(dec.k_values, dec.blocks):
            c = np.abs(full_coeffs(grid20, block.samples))
            axi = np.abs(full_xi(grid20))
            if k == -1:
                outside = c[axi >= 1.0]
            else:
                outside = c[(axi < 2.0**k) | (axi >= 2.0 ** (k + 1))]
            assert np.all(outside < 1e-13)

    def test_smooth_block_supports_one_octave_overlap(self, grid20):
        f = random_fields(grid20, 1, kmax_frac=0.5)[0]
        dec = lp_decompose(f, "smooth")
        for k, block in zip(dec.k_values, dec.blocks):
            if k < 0:
                continue
            c = np.abs(full_coeffs(grid20, block.samples))
            axi = np.abs(full_xi(grid20))
            outside = c[(axi <= 2.0**k) | (axi >= 2.0 ** (k + 2))]
            assert np.all(outside < 1e-13)

    def test_lowpass_is_partial_sum(self, grid20):
        f = random_fields(grid20, 1, kmax_frac=0.5)[0]
        dec = lp_decompose(f, "sharp")
        for j in (0, 1, 3):
            partial = np.sum(
                [b.samples for k, b in zip(dec.k_values, dec.blocks) if k < j], axis=0
            )
            assert np.max(np.abs(lowpass(f, j).samples - partial)) < 1e-12

    def test_k_max_covers_nyquist(self, grid20):
        assert 2.0 ** (k_max(grid20) + 1) > grid20.xi_max


class TestBesovNorm:
    def test_zero(self, grid20):
        z = RealField(grid20, np.zeros(grid20.n))
        assert besov_norm(z, BesovIndex(1.5, 2, 2)) == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_single_mode_value(self, p):
        g = Grid(np.pi, 128)
        f4 = RealField(g, np.sin(4 * g.x))
        for s in (0.5, 1.0, 2.0):
            idx = BesovIndex(s, p, 2.0)
            assert besov_norm(f4, idx) == pytest.approx(
                2.0 ** (2 * s) * lp_norm(f4, p), rel=1e-12
            )

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_single_mode_scaling(self, p):
        # shifting the harmonic up one octave multiplies the norm by 2^s;
        # at p in {2, inf} the grid L^p norms of the two harmonics coincide
        # exactly (p=1 would add an O(dx^2) |sin| kink-quadrature offset)
        g = Grid(np.pi, 128)
        f4 = RealField(g, np.sin(4 * g.x))
        f8 = RealField(g, np.sin(8 * g.x))
        for s in (0.5, 1.0, 2.0):
            idx = BesovIndex(s, p, 2.0)
            ratio = besov_norm(f8, idx) / besov_norm(f4, idx)
            assert ratio == pytest.approx(2.0**s, rel=1e-10)

    def test_q_infinity_takes_sup(self):
        g = Grid(np.pi, 128)
        f = RealField(g, np.sin(2 * g.x) + np.sin(8 * g.x))
        s = 1.0
        got = besov_norm(f, BesovIndex(s, 2.0, math.inf))
        dec = lp_decompose(f)
        expect = max(
            2.0 ** (k * s) * lp_norm(b, 2.0) for k, b in zip(dec.k_values, dec.blocks)
        )
        assert got == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("style", ["sharp", "smooth"])
    @pytest.mark.parametrize("p, q", [(2.0, 2.0), (1.0, 3.0), (math.inf, 2.0), (2.0, math.inf)])
    def test_batched_rows_equal_the_per_block_formula(self, grid20, style, p, q):
        fields = random_fields(grid20, 6, kmax_frac=0.4)
        rows = np.stack([f.samples for f in fields]).reshape(2, 3, grid20.n)
        idx = BesovIndex(1.5, p, q)
        norms = besov_norms(grid20, rows, idx, style)
        assert norms.shape == (2, 3)
        for f, got in zip(fields, norms.ravel()):
            dec = lp_decompose(f, style)
            terms = np.array([2.0 ** (k * idx.s) * lp_norm(b, p)
                              for k, b in zip(dec.k_values, dec.blocks)])
            ref = terms.max() if math.isinf(q) else np.sum(terms**q) ** (1.0 / q)
            assert got == besov_norm(f, idx, style)
            assert got == pytest.approx(ref, rel=4e-16)

    def test_absolute_homogeneity(self, grid20):
        f = random_fields(grid20, 1)[0]
        idx = BesovIndex(1.5, 2, 2)
        base = besov_norm(f, idx)
        for lam in (-3.0, 0.25):
            scaled = RealField(grid20, lam * f.samples)
            assert besov_norm(scaled, idx) == pytest.approx(abs(lam) * base, rel=1e-12)

    def test_triangle_inequality(self, grid20):
        idx = BesovIndex(1.5, 2, 2)
        for fa, fb in zip(random_fields(grid20, 4, start_seed=0),
                          random_fields(grid20, 4, start_seed=50)):
            fsum = RealField(grid20, fa.samples + fb.samples)
            assert besov_norm(fsum, idx) <= (
                besov_norm(fa, idx) + besov_norm(fb, idx)
            ) * (1 + 1e-12)

    def test_monotone_embedding(self, grid20):
        # s' < s: norm at s' bounded by 2^(s - s') times the norm at s
        # (the factor comes from the k = -1 low-pass block)
        s, sp = 2.0, 1.0
        C = 2.0 ** (s - sp)
        for f in random_fields(grid20, 5):
            a = besov_norm(f, BesovIndex(sp, 2, 2))
            b = besov_norm(f, BesovIndex(s, 2, 2))
            assert a <= C * b * (1 + 1e-12)

    def test_ratio_to_sobolev_confined(self, grid20):
        # enumeration oracle: on each block, 2^{2ks} / (1 + xi^2)^s is bounded
        # by its extremes over the block's grid frequencies; the global ratio
        # of squared norms must lie between those envelope constants
        s = 2.0
        axi = np.abs(grid20.xi)
        lo, hi = np.inf, 0.0
        dec_kvals = range(-1, k_max(grid20) + 1)
        for k in dec_kvals:
            if k == -1:
                sel = axi < 1.0
            else:
                sel = (axi >= 2.0**k) & (axi < 2.0 ** (k + 1))
            if not np.any(sel):
                continue
            vals = 2.0 ** (2 * k * s) / (1.0 + axi[sel] ** 2) ** s
            lo = min(lo, vals.min())
            hi = max(hi, vals.max())
        for f in random_fields(grid20, 50, kmax_frac=0.5):
            ratio = besov_norm(f, BesovIndex(s, 2, 2)) ** 2 / sobolev_norm(f, s) ** 2
            assert lo * (1 - 1e-10) <= ratio <= hi * (1 + 1e-10)

    def test_embedding_chain(self, grid20):
        # H^s -> B^{2r+1/2}_{2,1} -> H^{2r+1/2} for s > 2r + 1/2, with
        # grid-level constants from Cauchy-Schwarz over the block count
        r = 1.0
        s = 3.0
        sigma = 2 * r + 0.5
        nblocks = k_max(grid20) + 2
        for f in random_fields(grid20, 10):
            b21 = besov_norm(f, BesovIndex(sigma, 2, 1))
            hs = sobolev_norm(f, s)
            hsig = sobolev_norm(f, sigma)
            # lower chain: the B_{2,1} sum dominates the H^sigma square sum
            # up to the block-count equivalence constants measured above
            assert hsig <= math.sqrt(2.0) * 2.0**sigma * b21 * (1 + 1e-10)
            # upper chain: Cauchy-Schwarz gives B_{2,1} <= sqrt(#blocks) * B_{2,2}
            # and block weights are within 2^sigma of the Sobolev multiplier
            assert b21 <= math.sqrt(nblocks) * 2.0**sigma * math.sqrt(2.0) * hs * (
                1 + 1e-10
            )


class TestSobolevNorm:
    def test_s0_equals_l2(self, grid20):
        for f in random_fields(grid20, 3):
            assert sobolev_norm(f, 0.0) == pytest.approx(lp_norm(f, 2.0), rel=1e-12)

    @pytest.mark.parametrize("s", [0.0, 1.0, 2.0])
    def test_single_mode_closed_form(self, s):
        g = Grid(np.pi, 64)
        f = RealField(g, np.sin(2 * g.x))
        expect = math.sqrt(g.L) * 5.0 ** (s / 2.0)
        assert sobolev_norm(f, s) == pytest.approx(expect, rel=1e-12)

    def test_h1_is_l2_plus_gradient(self, grid20):
        for f in random_fields(grid20, 3):
            fx = derivative(f, 1)
            expect = math.sqrt(lp_norm(f, 2.0) ** 2 + lp_norm(fx, 2.0) ** 2)
            assert sobolev_norm(f, 1.0) == pytest.approx(expect, rel=1e-10)

    def test_inertia_inverse_shifts_index_exactly(self, grid20):
        # smoothing by 2r: || A^{-r} f ||_{s + 2r} == || f ||_s
        f = random_fields(grid20, 1)[0]
        sm = invert_inertia(f, 1.5)
        assert sobolev_norm(sm, 2.0 + 3.0) == pytest.approx(
            sobolev_norm(f, 2.0), rel=1e-11
        )
