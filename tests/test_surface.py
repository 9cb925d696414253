import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouwave import make_torus_grid

TWO_PI = 2.0 * np.pi


def bessel_i0(x):
    # series sum_k (x^2/4)^k / (k!)^2, converged to double precision
    return sum((x * x / 4.0) ** k / math.factorial(k) ** 2 for k in range(40))


class TestGridConstruction:
    def test_default_torus(self):
        g = make_torus_grid(8, 8)
        assert g.area == pytest.approx(4 * np.pi**2, rel=1e-15)
        assert g.lap_symbol[1, 0] == pytest.approx(1.0, rel=1e-14)
        assert g.lap_symbol[0, 0] == 0.0
        assert np.all(g.lap_symbol >= 0)

    def test_rectangular_area(self):
        g = make_torus_grid(8, 8, TWO_PI, np.pi)
        assert g.area == pytest.approx(2 * np.pi**2, rel=1e-15)

    def test_unit_periods_symbol(self):
        g = make_torus_grid(16, 16, 1.0, 1.0)
        assert g.lap_symbol[1, 1] == pytest.approx(8 * np.pi**2, rel=1e-14)

    @pytest.mark.parametrize("n1,n2", [(7, 8), (8, 7), (6, 8), (8, 4)])
    def test_rejects_bad_sizes(self, n1, n2):
        with pytest.raises(ValueError, match="even"):
            make_torus_grid(n1, n2)

    @pytest.mark.parametrize("L1,L2", [(0.0, 1.0), (1.0, -2.0)])
    def test_rejects_bad_periods(self, L1, L2):
        with pytest.raises(ValueError, match="positive"):
            make_torus_grid(8, 8, L1, L2)

    def test_dealias_mask_band(self):
        g = make_torus_grid(24, 24)
        kept = (np.abs(g.k1[:, None]) <= 8) & (np.abs(g.k2[None, :]) <= 8)
        assert np.array_equal(g.dealias_mask, kept)

    @pytest.mark.parametrize("n1, n2", [(8, 8), (24, 30), (32, 32), (30, 64)])
    def test_dealias_half_is_the_mask(self, n1, n2, rng):
        g = make_torus_grid(n1, n2)
        shape = (2, n1, n2 // 2 + 1)
        modes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expect = modes * g.dealias_mask[:, : n2 // 2 + 1]
        out = g.dealias_half(modes)
        assert out is modes and np.array_equal(out, expect)

    @pytest.mark.parametrize("n1, n2", [(8, 8), (24, 30), (32, 32), (30, 64)])
    def test_packed_kept_modes_are_the_mask(self, n1, n2, rng):
        # packing holds exactly the modes the mask keeps, in the mask's
        # rows order, and unpacking into zeros gives the dealiased spectrum
        g = make_torus_grid(n1, n2)
        half_mask = g.dealias_mask[:, : n2 // 2 + 1]
        assert g.kept_half_shape[0] * g.kept_half_shape[1] == half_mask.sum()
        shape = (2, n1, n2 // 2 + 1)
        modes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        packed = g.pack_kept_half(modes, np.empty((2,) + g.kept_half_shape, dtype=complex))
        assert np.array_equal(packed.reshape(2, -1), modes[:, half_mask].reshape(2, -1))
        out = g.unpack_kept_half(packed, np.zeros_like(modes))
        assert np.array_equal(out, g.dealias_half(modes.copy()))


class TestTransforms:
    def test_cosine_single_pair(self, grid64):
        x1, _ = grid64.mesh()
        modes = grid64.to_spectral(np.cos(x1) * np.ones((1, 64)))
        big = np.abs(modes) > 1e-8
        assert big.sum() == 2
        assert big[1, 0] and big[-1, 0]

    def test_constant_only_dc(self, grid64):
        modes = grid64.to_spectral(np.ones((64, 64)))
        assert abs(modes[0, 0] - 64 * 64) < 1e-9
        modes[0, 0] = 0.0
        assert np.abs(modes).max() < 1e-9

    def test_round_trip(self, grid64, rng):
        f = rng.standard_normal((64, 64))
        back = grid64.to_physical(grid64.to_spectral(f))
        assert np.abs(back - f).max() <= 1e-13 * np.abs(f).max()

    def test_rejects_nonfinite(self, grid64):
        f = np.zeros((64, 64))
        f[3, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            grid64.to_spectral(f)

    def test_half_spectrum_round_trip(self, grid64, rng):
        f = rng.standard_normal((64, 64))
        back = grid64.to_physical_half_stack(grid64.to_spectral_half_stack(f))
        assert np.abs(back - f).max() <= 1e-13 * np.abs(f).max()

    def test_batched_half_transforms_match_per_component(self, rng):
        # one rfft/irfft over the stack gives the bits of one call per
        # component, and the bits of scipy.fft's 2D half transforms
        scipy_fft = pytest.importorskip("scipy.fft")
        g = make_torus_grid(128, 128)
        f = rng.standard_normal((2, 128, 128))
        modes = g.to_spectral_half_stack(f)
        assert modes.shape == (2, 128, 65)
        assert np.array_equal(modes, np.stack([scipy_fft.rfft2(c) for c in f]))
        back = g.to_physical_half_stack(modes)
        assert np.array_equal(back, np.stack([scipy_fft.irfft2(m, s=(128, 128)) for m in modes]))

    def test_half_transforms_of_nonfinite_spectra_warn_nothing(self, grid32):
        # a dying run transforms non-finite or overflowing spectra, and its
        # status, not a floating point warning, reports it
        modes = np.full((2, 32, 17), 1e308, dtype=complex)
        modes[1, 2, 3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = grid32.to_physical_half_stack(modes)
            again = grid32.to_spectral_half_stack(back)
        assert not np.isfinite(back[0]).all() and not np.isfinite(again[1]).all()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_parseval(self, grid32, seed):
        f = np.random.default_rng(seed).standard_normal((32, 32))
        modes = grid32.to_spectral(f)
        lhs = grid32.norm_l2(f) ** 2
        rhs = grid32.area * float((modes.real**2 + modes.imag**2).sum()) / (32 * 32) ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestQuadrature:
    def test_constant(self, grid64):
        assert grid64.integrate(np.ones((64, 64))) == pytest.approx(4 * np.pi**2, rel=1e-15)

    def test_zero_mean_mode(self, grid64):
        x1, _ = grid64.mesh()
        assert abs(grid64.integrate(np.cos(x1) * np.ones((1, 64)))) < 1e-13

    def test_exp_cosine_bessel(self, grid64):
        x1, _ = grid64.mesh()
        val = grid64.integrate(np.exp(np.cos(x1)) * np.ones((1, 64)))
        exact = 4 * np.pi**2 * bessel_i0(1.0)
        assert val == pytest.approx(exact, rel=1e-10)

    def test_band_limited_product_exactness(self, grid32):
        # trig polynomials inside the n/3 band: their product is below the
        # Nyquist band, so the equal-weight rule equals the fine-grid value
        fine = make_torus_grid(128, 128)

        def sample(grid):
            x1, x2 = grid.mesh()
            f = 0.7 + np.cos(3 * x1) * np.sin(2 * x2) - 0.4 * np.sin(x1 + 5 * x2)
            g = 1.1 - 0.3 * np.sin(4 * x2) + 0.8 * np.cos(2 * x1 - x2)
            return f * g

        coarse_val = grid32.integrate(sample(grid32))
        fine_val = fine.integrate(sample(fine))
        assert coarse_val == pytest.approx(fine_val, rel=1e-13)


class TestNormsAndMeans:
    def test_constant_field(self, grid64):
        f = 2.5 * np.ones((64, 64))
        assert grid64.mean(f) == pytest.approx(2.5, rel=1e-15)
        assert grid64.seminorm_h1(f) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_norms(self, grid64):
        x1, _ = grid64.mesh()
        f = np.cos(x1) * np.ones((1, 64))
        assert grid64.norm_l2(f) ** 2 == pytest.approx(2 * np.pi**2, rel=1e-13)
        assert grid64.seminorm_h1(f) ** 2 == pytest.approx(2 * np.pi**2, rel=1e-13)
        assert grid64.norm_h1(f) ** 2 == pytest.approx(4 * np.pi**2, rel=1e-13)

    @pytest.mark.parametrize("n1,n2,L2", [(32, 32, TWO_PI), (16, 24, 3.0)])
    def test_half_spectrum_matches_full_spectrum(self, rng, n1, n2, L2):
        # the full complex spectrum, as the norms and -Delta were first taken
        g = make_torus_grid(n1, n2, TWO_PI, L2)
        f = rng.standard_normal((n1, n2))
        modes = np.fft.fft2(f)
        semi = np.sqrt(g.area * (g.lap_symbol * np.abs(modes) ** 2).sum()) / (n1 * n2)
        assert g.seminorm_h1(f) == pytest.approx(semi, rel=1e-12)
        assert g.norm_h1(f) == pytest.approx(np.hypot(semi, g.norm_l2(f)), rel=1e-12)
        lap = np.fft.ifft2(g.lap_symbol * modes).real
        np.testing.assert_allclose(g.minus_laplacian(f), lap, rtol=0, atol=1e-12 * np.abs(lap).max())
        stack = np.stack([f, 2.0 * f])
        np.testing.assert_array_equal(g.minus_laplacian(stack), np.stack([g.minus_laplacian(c) for c in stack]))

    def test_seminorm_vs_finite_differences(self, grid64):
        # independent oracle: evaluate the same band-limited field on a fine
        # grid analytically and do 4th-order central differences there
        def field(x1, x2):
            return (
                0.9 * np.cos(x1 + 2 * x2)
                + 0.5 * np.sin(3 * x1)
                - 0.7 * np.cos(2 * x1 - 3 * x2 + 0.3)
            )

        x1, x2 = grid64.mesh()
        spectral = grid64.seminorm_h1(field(x1, x2) + np.zeros((64, 64)))

        nf = 512
        hgrid = TWO_PI / nf
        xf = np.arange(nf) * hgrid
        F = field(xf[:, None], xf[None, :]) + np.zeros((nf, nf))

        def d4(a, axis):
            return (
                -np.roll(a, -2, axis) + 8 * np.roll(a, -1, axis)
                - 8 * np.roll(a, 1, axis) + np.roll(a, 2, axis)
            ) / (12 * hgrid)

        gx, gy = d4(F, 0), d4(F, 1)
        fd = np.sqrt((gx**2 + gy**2).sum() * hgrid**2)
        assert spectral == pytest.approx(fd, rel=1e-6)


class TestLogIntegralExp:
    def test_zero_field(self, grid64):
        z = np.zeros((64, 64))
        expect = np.log(4 * np.pi**2)
        assert grid64.log_integral_exp(z) == pytest.approx(expect, rel=1e-14)
        assert grid64.log_integral_exp(z, -1.0) == pytest.approx(expect, rel=1e-14)

    def test_cosine_bessel(self, grid64):
        x1, _ = grid64.mesh()
        f = np.cos(x1) * np.ones((1, 64))
        expect = np.log(4 * np.pi**2 * bessel_i0(1.0))
        assert grid64.log_integral_exp(f, 1.0) == pytest.approx(expect, rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), c=st.floats(-5, 5))
    def test_shift_property(self, grid32, seed, c):
        f = np.random.default_rng(seed).standard_normal((32, 32))
        base = grid32.log_integral_exp(f)
        shifted = grid32.log_integral_exp(f + c)
        assert shifted == pytest.approx(base + c, abs=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 10.0))
    def test_discrete_jensen(self, grid32, seed, scale):
        f = scale * np.random.default_rng(seed).standard_normal((32, 32))
        centered = f - grid32.mean(f)
        assert grid32.log_integral_exp(centered) >= np.log(grid32.area) - 1e-12

    def test_no_overflow_at_700(self, grid32):
        x1, _ = grid32.mesh()
        f = 700.0 * np.cos(x1) * np.ones((1, 32))
        val = grid32.log_integral_exp(f)
        assert np.isfinite(val)
        # saddle point: log integral ~ max + log of the Laplace width, so it
        # must sit within a few units of 700
        assert 680 < val < 701

    def test_weight_path(self, grid64):
        w = np.full((64, 64), 2.0)
        z = np.zeros((64, 64))
        assert grid64.log_integral_exp(z, 1.0, log_weight=np.log(w)) == pytest.approx(
            np.log(2 * 4 * np.pi**2), rel=1e-13
        )

    def test_rejects_bad_sign(self, grid64):
        with pytest.raises(ValueError, match="sign"):
            grid64.log_integral_exp(np.zeros((64, 64)), 2.0)


class TestNormalizedExp:
    def test_density_integrates_to_one(self, grid64, rng):
        f = 3.0 * rng.standard_normal((64, 64))
        dens, logz = grid64.normalized_exp(f, 1.0)
        assert grid64.integrate(dens) == pytest.approx(1.0, abs=1e-12)
        assert logz == pytest.approx(grid64.log_integral_exp(f), rel=1e-13)
