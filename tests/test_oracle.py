import numpy as np
import pytest

from liouwave import (
    CouplingConfig,
    StepperConfig,
    evolve,
    make_torus_grid,
    random_smooth_field,
    rhs_fields,
    wave_state_new,
)
from oracle import dense_evolve, direct_ball_mass


@pytest.fixture(scope="module")
def grid16():
    return make_torus_grid(16, 16)


class TestDenseEvolve:
    def test_linear_eigenmode(self, grid16):
        x1, _ = grid16.mesh()
        st = wave_state_new(grid16, np.cos(x1) * np.ones((1, 16)), np.zeros((16, 16)))
        rhs_eval = lambda u: np.zeros_like(u)
        out = dense_evolve(st, 1.0, rhs_eval, 1000)
        exact = np.cos(1.0) * np.cos(x1) * np.ones((1, 16))
        assert np.abs(out.u[0] - exact).max() < 1e-10

    def test_zero_state(self, grid16):
        cfg = CouplingConfig("sinh_gordon", (np.pi, np.pi))
        st = wave_state_new(grid16, np.zeros((16, 16)), np.zeros((16, 16)))
        out = dense_evolve(st, 0.5, lambda u: rhs_fields(grid16, u, cfg), 500)
        assert np.abs(out.u).max() < 1e-14
        assert np.abs(out.v).max() < 1e-14

    def test_mean_follows_the_free_flow(self, grid16):
        # rhs_fields leaves a constant per component (here rho/|M|); the
        # oracle drops the forcing's zero mode, as the stepper does, so the
        # average of u stays put (the velocity's is zero)
        cfg = CouplingConfig("mean_field", (5.0,))
        gen = np.random.default_rng(5)
        u0 = random_smooth_field(grid16, gen, 3, 0.5) + 0.7
        u1 = random_smooth_field(grid16, gen, 3, 0.2, zero_mean=True, norm="l2")
        st = wave_state_new(grid16, u0, u1)
        out = dense_evolve(st, 0.25, lambda u: rhs_fields(grid16, u, cfg), 250)
        assert abs(grid16.mean(out.u[0]) - grid16.mean(u0)) < 1e-14
        assert abs(grid16.mean(out.v[0])) < 1e-14

    def test_grid_cap(self):
        g = make_torus_grid(32, 32)
        st = wave_state_new(g, np.zeros((32, 32)), np.zeros((32, 32)))
        with pytest.raises(ValueError, match="16"):
            dense_evolve(st, 0.1, lambda u: np.zeros_like(u), 10)

    def test_approaches_stepper_with_resolution(self, grid16):
        cfg = CouplingConfig("sinh_gordon", (np.pi, np.pi))
        gen = np.random.default_rng(42)
        u0 = random_smooth_field(grid16, gen, 3, 0.2)
        u1 = random_smooth_field(grid16, gen, 3, 0.1, zero_mean=True, norm="l2")
        st = wave_state_new(grid16, u0, u1)
        rhs_eval = lambda u: rhs_fields(grid16, u, cfg)
        ref = dense_evolve(st, 0.25, rhs_eval, 10_000, dealias=True)
        errs = []
        for h in (5e-3, 2.5e-3):
            traj = evolve(st, 0.25, StepperConfig(h=h, sample_every=10**9), cfg)
            errs.append(grid16.norm_l2(traj.final_state.u[0] - ref.u[0]))
        assert errs[1] < errs[0]
        assert 2.5 <= errs[0] / errs[1] <= 6.0


class TestDirectBallMass:
    def test_uniform_area_ratio(self, grid64):
        dens = np.full((64, 64), 1 / (4 * np.pi**2))
        val = direct_ball_mass(grid64, dens, (np.pi, np.pi), 0.5)
        cell = grid64.L1 / grid64.n1
        bound = 2 * np.pi * 0.5 * cell / (4 * np.pi**2) * 3
        assert abs(val - np.pi * 0.25 / (4 * np.pi**2)) < bound

    def test_zero_radius(self, grid64):
        dens = np.full((64, 64), 1 / (4 * np.pi**2))
        # off-grid center: the degenerate ball contains no sample points
        assert direct_ball_mass(grid64, dens, (1.0, 1.0), 0.0) == 0.0

    def test_matches_convolution_map(self, grid64, rng):
        from liouwave import ball_mass_map, density

        u = random_smooth_field(grid64, rng, 3, 1.5)
        dens = density(grid64, u, +1.0)
        out = ball_mass_map(grid64, dens, 0.5)
        val = direct_ball_mass(grid64, dens, (grid64.x1[10], grid64.x2[20]), 0.5)
        assert out[10, 20] == pytest.approx(val, abs=1e-12)
