import numpy as np
import pytest

import liouwave.propagator as prop
from liouwave import (
    CouplingConfig,
    MonitorThresholds,
    StepperConfig,
    apply_cos,
    apply_sinc,
    bubble_field,
    cartan_matrix,
    dense_evolve,
    duhamel_step,
    evolve,
    linear_flow,
    random_smooth_field,
    rhs_fields,
    wave_state_new,
)
from liouwave.fields import STATUS_BLOWUP, STATUS_COMPLETED, STATUS_MAXSTEPS, STATUS_NONFINITE


def make_rhs(grid, cfg):
    return lambda u: rhs_fields(grid, u, cfg)


def eigenmode_state(grid, amp=1.0):
    x1, _ = grid.mesh()
    u0 = amp * np.cos(x1) * np.ones((1, grid.n2))
    return wave_state_new(grid, u0, np.zeros((grid.n1, grid.n2)))


class TestModeFactors:
    def test_t_zero(self, grid32, rng):
        modes = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        assert np.array_equal(apply_cos(grid32, 0.0, modes), modes)
        assert np.abs(apply_sinc(grid32, 0.0, modes)).max() == 0.0

    def test_unit_mode_half_period(self, grid32):
        modes = np.zeros((32, 32), dtype=complex)
        modes[1, 0] = 1.0  # lambda = 1
        out = apply_cos(grid32, np.pi, modes)
        assert out[1, 0] == pytest.approx(-1.0, rel=1e-14)

    def test_zero_mode_sinc_limit(self, grid32):
        modes = np.zeros((32, 32), dtype=complex)
        modes[0, 0] = 1.0
        out = apply_sinc(grid32, 3.0, modes)
        assert out[0, 0] == pytest.approx(3.0, rel=1e-15)


class TestLinearFlow:
    def test_eigenmode_solution(self, grid64):
        st = eigenmode_state(grid64)
        out = linear_flow(st, 1.37)
        x1, _ = grid64.mesh()
        exact = np.cos(1.37) * np.cos(x1) * np.ones((1, 64))
        assert np.abs(out.u[0] - exact).max() < 1e-13

    def test_group_law(self, grid32, rng):
        u0 = random_smooth_field(grid32, rng, 4, 1.0)
        u1 = random_smooth_field(grid32, rng, 4, 0.5, zero_mean=True, norm="l2")
        st = wave_state_new(grid32, u0, u1)
        a = linear_flow(linear_flow(st, 0.7), 1.9)
        b = linear_flow(st, 2.6)
        assert np.abs(a.u - b.u).max() < 1e-12
        assert np.abs(a.v - b.v).max() < 1e-12

    def test_velocity_quarter_period(self, grid64):
        x1, _ = grid64.mesh()
        v0 = np.cos(x1) * np.ones((1, 64))
        st = wave_state_new(grid64, np.zeros((64, 64)), v0)
        out = linear_flow(st, np.pi / 2)
        assert np.abs(out.u[0] - v0[None][0]).max() < 1e-13
        assert np.abs(out.v[0]).max() < 1e-13


class TestDuhamelStep:
    def test_zero_forcing_reduces_to_linear_flow(self, grid32, rng):
        cfg = CouplingConfig("mean_field", (0.0,))
        u0 = random_smooth_field(grid32, rng, 4, 1.0)
        st = wave_state_new(grid32, u0, np.zeros((32, 32)))
        stepped = duhamel_step(st, 0.3, make_rhs(grid32, cfg), "frozen")
        flowed = linear_flow(st, 0.3)
        assert np.abs(stepped.u - flowed.u).max() < 1e-13
        assert np.abs(stepped.v - flowed.v).max() < 1e-13

    def test_zero_state_stationary(self, grid32):
        cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        st = wave_state_new(grid32, np.zeros((32, 32)), np.zeros((32, 32)))
        out = st
        for _ in range(5):
            out = duhamel_step(out, 0.05, make_rhs(grid32, cfg), "symmetric")
        assert np.abs(out.u).max() < 1e-15
        assert np.abs(out.v).max() < 1e-15

    def test_time_symmetry(self, grid64):
        cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        gen = np.random.default_rng(5)
        u0 = random_smooth_field(grid64, gen, 4, 1.0)
        u1 = random_smooth_field(grid64, gen, 4, 0.5, zero_mean=True, norm="l2")
        st = wave_state_new(grid64, u0, u1)
        rhs_eval = make_rhs(grid64, cfg)
        there = duhamel_step(st, 1e-3, rhs_eval, "symmetric")
        back = duhamel_step(there, -1e-3, rhs_eval, "symmetric")
        resid = grid64.norm_h1(back.u[0] - st.u[0]) + grid64.norm_l2(back.v[0] - st.v[0])
        assert resid < 1e-10

    def test_symmetric_second_order_vs_oracle(self):
        from liouwave import make_torus_grid

        g = make_torus_grid(16, 16)
        cfg = CouplingConfig("sinh_gordon", (np.pi, np.pi))
        gen = np.random.default_rng(42)
        u0 = random_smooth_field(g, gen, 3, 0.2)
        u1 = random_smooth_field(g, gen, 3, 0.1, zero_mean=True, norm="l2")
        st = wave_state_new(g, u0, u1)
        rhs_eval = make_rhs(g, cfg)
        ref = dense_evolve(st, 0.5, rhs_eval, 20_000, dealias=True)
        errs = []
        for h in (4e-3, 2e-3):
            traj = evolve(st, 0.5, StepperConfig(h=h, sample_every=10**9), cfg)
            errs.append(g.norm_l2(traj.final_state.u[0] - ref.u[0]))
        assert 3.0 <= errs[0] / errs[1] <= 5.0


class TestEvolve:
    def test_linear_trajectory_matches_flow(self, grid64):
        cfg = CouplingConfig("mean_field", (0.0,))
        st = eigenmode_state(grid64)
        traj = evolve(st, 2.0, StepperConfig(h=0.05, sample_every=4), cfg, snapshot_every=4)
        assert traj.status == STATUS_COMPLETED
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
        for step, snap in traj.snapshots:
            ref = linear_flow(st, step * 0.05)
            assert np.abs(snap.u - ref.u).max() < 1e-12
            assert np.abs(snap.v - ref.v).max() < 1e-12
        x1, _ = grid64.mesh()
        final_exact = np.cos(traj.times[-1]) * np.cos(x1) * np.ones((1, 64))
        assert np.abs(traj.final_state.u[0] - final_exact).max() < 1e-12

    def test_mean_conservation_nonlinear(self, grid32):
        cfg = CouplingConfig("sinh_gordon", (2 * np.pi, 3 * np.pi))
        gen = np.random.default_rng(8)
        u0 = random_smooth_field(grid32, gen, 3, 1.0) + 0.4
        u1 = random_smooth_field(grid32, gen, 3, 0.5, zero_mean=True, norm="l2")
        st = wave_state_new(grid32, u0, u1)
        traj = evolve(st, 2.0, StepperConfig(h=5e-3, sample_every=20), cfg)
        m0 = traj.reports[0].means[0]
        for rep in traj.reports:
            assert abs(rep.means[0] - m0) <= 1e-12
            assert abs(grid32.mean(traj.final_state.v[0])) <= 1e-12

    def test_energy_drift_small_both_schemes_ordered(self, grid32):
        cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        gen = np.random.default_rng(3)
        u0 = random_smooth_field(grid32, gen, 3, 1.0)
        st = wave_state_new(grid32, u0, np.zeros((32, 32)))

        def max_drift(scheme, h):
            traj = evolve(st, 1.0, StepperConfig(h=h, scheme=scheme, sample_every=50), cfg)
            e0 = traj.reports[0].E
            return max(abs(r.E - e0) / (1 + abs(e0)) for r in traj.reports)

        assert max_drift("symmetric", 1e-3) < 1e-8
        assert max_drift("frozen", 1e-3) > max_drift("symmetric", 1e-3)

    def test_asymmetric_and_weighted_energy_conserved(self, grid64):
        gen = np.random.default_rng(13)
        u0 = random_smooth_field(grid64, gen, 4, 1.2)
        u1 = random_smooth_field(grid64, gen, 4, 0.6, zero_mean=True, norm="l2")
        st = wave_state_new(grid64, u0, u1)
        x1, x2 = grid64.mesh()
        w1 = (1.0 + 0.5 * np.cos(x1)) * np.ones((64, 64))
        w2 = (1.0 + 0.3 * np.sin(x2)) * np.ones((64, 64))
        configs = [
            CouplingConfig("asymmetric_sinh", (4 * np.pi, 2 * np.pi), a=2.0),
            CouplingConfig("sinh_gordon", (4 * np.pi, 3 * np.pi), weights=(w1, w2)),
        ]
        for cfg in configs:
            traj = evolve(st, 1.0, StepperConfig(h=1e-3, sample_every=100), cfg)
            e0 = traj.reports[0].E
            drift = max(abs(r.E - e0) / (1 + abs(e0)) for r in traj.reports)
            assert traj.status == STATUS_COMPLETED
            assert drift < 1e-9

    def test_dealias_off_path(self, grid32):
        cfg = CouplingConfig("sinh_gordon", (2 * np.pi, 2 * np.pi))
        gen = np.random.default_rng(6)
        u0 = random_smooth_field(grid32, gen, 3, 0.8)
        st = wave_state_new(grid32, u0, np.zeros((32, 32)))
        traj = evolve(st, 0.5, StepperConfig(h=2e-3, dealias=False, sample_every=50), cfg)
        assert traj.status == STATUS_COMPLETED
        assert abs(traj.reports[-1].means[0] - traj.reports[0].means[0]) < 1e-12

    def test_toda_runs_and_conserves_mean(self, grid32):
        cfg = CouplingConfig("toda", (np.pi, np.pi), matrix=cartan_matrix("A", 2))
        gen = np.random.default_rng(4)
        u0 = np.stack([random_smooth_field(grid32, gen, 3, 0.8) for _ in range(2)])
        st = wave_state_new(grid32, u0, np.zeros_like(u0))
        traj = evolve(st, 1.0, StepperConfig(h=5e-3, sample_every=50), cfg)
        assert traj.status == STATUS_COMPLETED
        for i in range(2):
            assert abs(traj.reports[-1].means[i] - traj.reports[0].means[i]) < 1e-12

    def test_blowup_alarm_with_bubble(self, grid64):
        cfg = CouplingConfig("sinh_gordon", (10 * np.pi, 0.0))
        u0 = bubble_field(grid64, (np.pi, np.pi), 32.0)
        st = wave_state_new(grid64, u0, np.zeros((64, 64)))
        monitor = MonitorThresholds(grad_l2=15.0, log_int=50.0, r=0.5, eps=0.1)
        traj = evolve(st, 1.0, StepperConfig(h=1e-3), cfg, monitor=monitor)
        assert traj.status == STATUS_BLOWUP
        assert traj.concentration
        plus = [r for r in traj.concentration if r.sign > 0]
        assert plus and plus[0].covered_fraction >= 0.9
        assert plus[0].alarmed

    def test_constant_state_completes_under_monitor(self, grid32):
        # u = 55 is an exact stationary solution; the monitor must stay quiet
        cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        st = wave_state_new(grid32, np.full((32, 32), 55.0), np.zeros((32, 32)))
        traj = evolve(st, 0.1, StepperConfig(h=1e-2), cfg, monitor=MonitorThresholds())
        assert traj.status == STATUS_COMPLETED
        assert np.abs(traj.final_state.u - 55.0).max() < 1e-12

    def test_max_steps_status(self, grid32):
        cfg = CouplingConfig("mean_field", (0.0,))
        st = eigenmode_state(grid32)
        traj = evolve(st, 1.0, StepperConfig(h=1e-2, max_steps=7), cfg)
        assert traj.status == STATUS_MAXSTEPS
        assert traj.times[-1] == pytest.approx(0.07)

    def test_nonfinite_status(self, grid32, monkeypatch):
        cfg = CouplingConfig("sinh_gordon", (np.pi, np.pi))
        st = eigenmode_state(grid32, 0.5)
        calls = {"n": 0}
        real = prop.rhs_fields

        def exploding(grid, u, c):
            calls["n"] += 1
            out = real(grid, u, c)
            if calls["n"] > 4:
                out = out + np.nan
            return out

        monkeypatch.setattr(prop, "rhs_fields", exploding)
        traj = evolve(st, 1.0, StepperConfig(h=1e-2), cfg)
        assert traj.status == STATUS_NONFINITE

    def test_rejects_backward_target(self, grid32):
        cfg = CouplingConfig("mean_field", (0.0,))
        st = eigenmode_state(grid32)
        with pytest.raises(ValueError, match="precedes"):
            evolve(st, -1.0, StepperConfig(h=1e-2), cfg)


class TestStepperConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            StepperConfig(h=0.0)
        with pytest.raises(ValueError):
            StepperConfig(h=0.1, scheme="leapfrog")
        with pytest.raises(ValueError):
            StepperConfig(h=0.1, sample_every=0)
