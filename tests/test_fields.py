import numpy as np
import pytest

from liouwave import make_torus_grid, random_smooth_field, wave_state_new


class TestWaveStateNew:
    def test_zero_data(self, grid32):
        st = wave_state_new(grid32, np.zeros((32, 32)), np.zeros((32, 32)))
        assert st.ncomp == 1
        assert st.t == 0.0
        assert np.all(st.u == 0) and np.all(st.v == 0)

    def test_mean_zero_velocity_accepted_unchanged(self, grid32):
        x1, _ = grid32.mesh()
        v = np.cos(x1) * np.ones((1, 32))
        st = wave_state_new(grid32, np.zeros((32, 32)), v)
        # the sampled cosine is mean-zero up to summation round-off, so at
        # most a ~1e-17 shift is subtracted
        assert np.allclose(st.v[0], v, rtol=0, atol=1e-15)
        assert abs(grid32.mean(st.v[0])) < 1e-15
        assert np.array_equal(st.v[0], v - grid32.mean(v))

    def test_constant_velocity_rejected(self, grid32):
        with pytest.raises(ValueError, match="mean"):
            wave_state_new(grid32, np.zeros((32, 32)), np.ones((32, 32)))

    def test_small_mean_repaired(self, grid32):
        x1, _ = grid32.mesh()
        v = np.cos(x1) * np.ones((1, 32)) + 1e-12
        given = v.copy()
        st = wave_state_new(grid32, np.zeros((32, 32)), v)
        assert abs(grid32.mean(st.v[0])) < 1e-13
        assert np.array_equal(st.v[0], v - grid32.mean(v))
        assert np.array_equal(v, given)  # the caller's array is not repaired in place

    def test_shape_mismatch(self, grid32):
        with pytest.raises(ValueError, match="shape"):
            wave_state_new(grid32, np.zeros((16, 16)), np.zeros((16, 16)))

    def test_nonfinite_rejected(self, grid32):
        bad = np.zeros((32, 32))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            wave_state_new(grid32, bad, np.zeros((32, 32)))

    def test_multicomponent_stacking(self, grid32):
        u0 = [np.zeros((32, 32)), np.ones((32, 32))]
        st = wave_state_new(grid32, u0, np.zeros((2, 32, 32)))
        assert st.ncomp == 2
        assert st.u.shape == (2, 32, 32)

    def test_clone_is_independent(self, grid32):
        st = wave_state_new(grid32, np.ones((32, 32)), np.zeros((32, 32)))
        other = st.clone()
        other.u[0, 0, 0] = 99.0
        assert st.u[0, 0, 0] == 1.0


class TestDealias:
    # the grid's two-thirds mask, applied as the stepper applies it
    def test_band_limited_unchanged(self, grid32):
        modes = np.zeros((32, 32), dtype=complex)
        modes[2, 3] = 1.0 + 2.0j
        assert np.array_equal(modes * grid32.dealias_mask, modes)

    def test_high_mode_zeroed(self):
        g = make_torus_grid(8, 8)
        modes = np.zeros((8, 8), dtype=complex)
        modes[3, 0] = 1.0  # k1 = n1/2 - 1 = 3 > floor(8/3) = 2
        assert np.all(modes * g.dealias_mask == 0)

    def test_idempotent(self, grid32, rng):
        modes = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        once = modes * grid32.dealias_mask
        assert np.array_equal(once * grid32.dealias_mask, once)


class TestRandomSmoothField:
    def test_deterministic(self, grid32):
        a = random_smooth_field(grid32, np.random.default_rng(5), 4, 1.0)
        b = random_smooth_field(grid32, np.random.default_rng(5), 4, 1.0)
        assert np.array_equal(a, b)

    def test_norm_scaling(self, grid32):
        f = random_smooth_field(grid32, np.random.default_rng(5), 4, 2.5)
        assert grid32.norm_h1(f) == pytest.approx(2.5, rel=1e-12)
        v = random_smooth_field(grid32, np.random.default_rng(5), 4, 0.7, zero_mean=True, norm="l2")
        assert grid32.norm_l2(v) == pytest.approx(0.7, rel=1e-12)
        assert abs(grid32.mean(v)) < 1e-12

    def test_band_limited(self, grid32):
        f = random_smooth_field(grid32, np.random.default_rng(5), 3, 1.0)
        modes = grid32.to_spectral(f)
        outside = (np.abs(grid32.k1[:, None]) > 3) | (np.abs(grid32.k2[None, :]) > 3)
        assert np.abs(modes[outside]).max() < 1e-10
