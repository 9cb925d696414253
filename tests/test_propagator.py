import warnings

import numpy as np
import pytest

import liouwave.propagator as prop
from liouwave import (
    CouplingConfig,
    MonitorThresholds,
    StepperConfig,
    bubble_field,
    cartan_matrix,
    duhamel_step,
    evolve,
    linear_flow,
    random_smooth_field,
    rhs_fields,
    wave_state_new,
)
from liouwave.fields import STATUS_BLOWUP, STATUS_COMPLETED, STATUS_MAXSTEPS, STATUS_NONFINITE
from liouwave.rhs import DynamicRangeError
from oracle import dense_evolve


def make_rhs(grid, cfg):
    return lambda u: rhs_fields(grid, u, cfg)


def eigenmode_state(grid, amp=1.0):
    x1, _ = grid.mesh()
    u0 = amp * np.cos(x1) * np.ones((1, grid.n2))
    return wave_state_new(grid, u0, np.zeros((grid.n1, grid.n2)))


class TestModeFactors:
    # the time-t factors (cos, sinc, q, wsin) of `_mode_factors`, on the
    # (n1, n2//2+1) modes of the half spectrum
    def test_t_zero(self, grid32, rng):
        modes = rng.standard_normal((32, 17)) + 1j * rng.standard_normal((32, 17))
        cosw, sincw, _, _ = prop._mode_factors(grid32, 0.0)
        assert np.array_equal(modes * cosw, modes)
        assert np.abs(modes * sincw).max() == 0.0

    def test_unit_mode_half_period(self, grid32):
        modes = np.zeros((32, 17), dtype=complex)
        modes[1, 0] = 1.0  # lambda = 1
        out = modes * prop._mode_factors(grid32, np.pi)[0]
        assert out[1, 0] == pytest.approx(-1.0, rel=1e-14)

    def test_zero_mode_sinc_limit(self, grid32):
        modes = np.zeros((32, 17), dtype=complex)
        modes[0, 0] = 1.0
        out = modes * prop._mode_factors(grid32, 3.0)[1]
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
        stepped = duhamel_step(st, 0.3, cfg, "frozen")
        flowed = linear_flow(st, 0.3)
        assert np.abs(stepped.u - flowed.u).max() < 1e-13
        assert np.abs(stepped.v - flowed.v).max() < 1e-13

    def test_zero_state_stationary(self, grid32):
        cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        st = wave_state_new(grid32, np.zeros((32, 32)), np.zeros((32, 32)))
        out = st
        for _ in range(5):
            out = duhamel_step(out, 0.05, cfg, "symmetric")
        assert np.abs(out.u).max() < 1e-15
        assert np.abs(out.v).max() < 1e-15

    def test_time_symmetry(self, grid64):
        cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        gen = np.random.default_rng(5)
        u0 = random_smooth_field(grid64, gen, 4, 1.0)
        u1 = random_smooth_field(grid64, gen, 4, 0.5, zero_mean=True, norm="l2")
        st = wave_state_new(grid64, u0, u1)
        there = duhamel_step(st, 1e-3, cfg, "symmetric")
        back = duhamel_step(there, -1e-3, cfg, "symmetric")
        resid = grid64.norm_h1(back.u[0] - st.u[0]) + grid64.norm_l2(back.v[0] - st.v[0])
        assert resid < 1e-10

    def test_unknown_scheme_rejected(self, grid32, rng):
        # public input: a misspelt scheme must raise, not run one of SCHEMES
        cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        st = wave_state_new(grid32, random_smooth_field(grid32, rng, 4, 1.0), np.zeros((32, 32)))
        with pytest.raises(ValueError, match="unknown scheme"):
            duhamel_step(st, 1e-2, cfg, "symetric")

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
    def test_linear_trajectory_matches_flow(self, grid64, checkpoint_log):
        cfg = CouplingConfig("mean_field", (0.0,))
        st = eigenmode_state(grid64)
        checkpoints = checkpoint_log()
        traj = evolve(st, 2.0, StepperConfig(h=0.05, sample_every=4), cfg, snapshot_every=4,
                      on_checkpoint=checkpoints)
        assert traj.status == STATUS_COMPLETED
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))
        for step, snap in checkpoints:
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
        assert traj.stop_reason.condition == "grad_l2"
        assert traj.stop_reason.value == traj.reports[-1].grad_l2 >= 15.0
        assert traj.concentration
        plus = [r for r in traj.concentration if r.sign > 0]
        assert plus and plus[0].covered_fraction >= 0.9
        assert plus[0].alarmed

    def test_constant_state_completes_under_monitor(self, grid32):
        # u = 55 is an exact stationary solution; the monitor must stay quiet
        cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        st = wave_state_new(grid32, np.full((32, 32), 55.0), np.zeros((32, 32)))
        traj = evolve(st, 0.1, StepperConfig(h=1e-2), cfg, monitor=MonitorThresholds())
        assert traj.status == STATUS_COMPLETED and traj.stop_reason is None
        assert np.abs(traj.final_state.u - 55.0).max() < 1e-12

    def test_max_steps_status(self, grid32):
        cfg = CouplingConfig("mean_field", (0.0,))
        st = eigenmode_state(grid32)
        traj = evolve(st, 1.0, StepperConfig(h=1e-2, max_steps=7), cfg)
        assert traj.status == STATUS_MAXSTEPS
        assert traj.times[-1] == pytest.approx(0.07)
        assert (traj.stop_reason.condition, traj.stop_reason.value) == ("max_steps", 7.0)
        assert traj.stop_reason.t == traj.times[-1]

    def test_stop_reason_max_abs_u(self, grid32):
        # the hard stop on |u| names the condition, the value that tripped it
        # and the time of the step it was read on
        cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        st = acceptance_like_state(grid32, 1)
        start = float(np.abs(st.u).max())
        stepper = StepperConfig(h=1e-3, sample_every=1000, max_abs_u=start + 0.05)
        traj = evolve(st, 1.0, stepper, cfg)
        reason = traj.stop_reason
        assert traj.status == STATUS_BLOWUP and reason.condition == "max_abs_u"
        assert reason.value == float(np.abs(traj.final_state.u).max()) >= start + 0.05
        assert 0.0 < reason.t == traj.times[-1] == traj.final_state.t < 1.0

    def test_stop_reason_names_the_alarmed_measure(self, grid32):
        # a monitor alarm on a log-integral names the measure; here the
        # bubble sits in the second component of a Toda system
        traj = initial_alarm_run(grid32)[1]
        reason = traj.stop_reason
        assert traj.status == STATUS_BLOWUP
        assert reason.condition == "log_int(e^{u_2})"
        assert reason.value == traj.reports[-1].log_integrals[1] >= 8.0
        assert reason.t == traj.times[-1]

    def test_nonfinite_status(self, grid32, monkeypatch):
        cfg = CouplingConfig("sinh_gordon", (np.pi, np.pi))
        st = eigenmode_state(grid32, 0.5)
        calls = {"n": 0}
        real = prop.rhs_fields

        def exploding(grid, u, c, **kwargs):
            calls["n"] += 1
            out = real(grid, u, c, **kwargs)
            if calls["n"] > 4:
                if kwargs.get("return_log_normalizers"):
                    return out[0] + np.nan, out[1]
                out = out + np.nan
            return out

        monkeypatch.setattr(prop, "rhs_fields", exploding)
        traj = evolve(st, 1.0, StepperConfig(h=1e-2), cfg)
        assert traj.status == STATUS_NONFINITE
        assert traj.stop_reason.condition == "non_finite"

    def test_nonfinite_forcing_input_stops_at_its_step(self, grid32, monkeypatch):
        # the forcing at a state holding a NaN raises DynamicRangeError, and
        # the run ends non-finite at the step whose forcing saw it: the
        # carried forcing at u_2 is the 5th rhs call of the symmetric scheme
        # (initial forcing, then predictor and new state per step)
        cfg = CouplingConfig("sinh_gordon", (np.pi, np.pi))
        st = eigenmode_state(grid32, 0.5)
        calls = {"n": 0}
        real = prop.rhs_fields

        def poisoned(grid, u, c, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 5:
                u = u.copy()
                u[0, 3, 3] = np.nan
            return real(grid, u, c, **kwargs)

        monkeypatch.setattr(prop, "rhs_fields", poisoned)
        traj = evolve(st, 1.0, StepperConfig(h=1e-2), cfg)
        assert traj.status == STATUS_NONFINITE
        assert traj.stop_reason.condition == "non_finite"
        assert calls["n"] == 5
        assert traj.stop_reason.t == traj.final_state.t == pytest.approx(2e-2)
        assert np.isfinite(traj.final_state.u).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, -np.inf)])
    def test_nonfinite_velocity_stops_at_its_step(self, grid32, monkeypatch, bad):
        # a NaN or an infinity in the carried velocity spectra, with u still
        # finite, ends the run non-finite at the step that made it (frozen:
        # a symmetric step would also stop one step later, at its predictor),
        # and the status says so without a floating point warning from the
        # transforms of the non-finite spectra
        cfg = CouplingConfig("sinh_gordon", (np.pi, np.pi))
        st = eigenmode_state(grid32, 0.5)
        calls = {"n": 0}
        real = prop.Stepper.step

        def poisoned(self, uh, vh, fh):
            uh, vh = real(self, uh, vh, fh)
            calls["n"] += 1
            if calls["n"] == 3:
                vh[0, 2, 3] = bad
            return uh, vh

        monkeypatch.setattr(prop.Stepper, "step", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(st, 1.0, StepperConfig(h=1e-2, scheme="frozen"), cfg)
        assert traj.status == STATUS_NONFINITE
        assert traj.stop_reason.condition == "non_finite"
        assert calls["n"] == 3
        assert traj.stop_reason.t == traj.final_state.t == pytest.approx(3e-2)
        assert np.isfinite(traj.final_state.u).all()

    def test_rejects_backward_target(self, grid32):
        cfg = CouplingConfig("mean_field", (0.0,))
        st = eigenmode_state(grid32)
        with pytest.raises(ValueError, match="precedes"):
            evolve(st, -1.0, StepperConfig(h=1e-2), cfg)


def raise_at_forcing_call(monkeypatch, n):
    """Make the n-th `rhs_fields` call of `evolve`'s stepper raise
    `DynamicRangeError`.  The symmetric scheme calls it for the initial
    forcing, then per step for the predictor and for the new state."""
    calls = {"n": 0}
    real = prop.rhs_fields

    def counted(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == n:
            raise DynamicRangeError("out of range")
        return real(*args, **kwargs)

    monkeypatch.setattr(prop, "rhs_fields", counted)


def velocity_driven_state(grid):
    """u = 0, v = cos x1: with no forcing u = sin(t) cos x1, whose gradient
    norm grows from 0 over the first quarter period."""
    x1, _ = grid.mesh()
    return wave_state_new(grid, np.zeros((grid.n1, grid.n2)), np.cos(x1) * np.ones((1, grid.n2)))


def initial_alarm_run(grid):
    """A Toda A2 run whose monitor raises the log_int alarm on the initial
    data: a bubble in the second component.  Returns (state, trajectory)."""
    cfg = CouplingConfig("toda", (5 * np.pi, 5 * np.pi), matrix=cartan_matrix("A", 2))
    u0 = np.stack([np.zeros((32, 32)), bubble_field(grid, (np.pi, np.pi), 16.0)])
    st = wave_state_new(grid, u0, np.zeros_like(u0))
    monitor = MonitorThresholds(grad_l2=1e9, log_int=8.0)
    return st, evolve(st, 0.1, StepperConfig(h=1e-2), cfg, monitor=monitor)


class TestStopPaths:
    """The stop paths of `evolve`: each condition's value, time, status and
    final state."""

    def test_predictor_forcing_raises(self, grid32, monkeypatch):
        # step 2's predictor forcing is the 4th rhs call: the run stops with a
        # NaN at the slice before it, the last one it made
        raise_at_forcing_call(monkeypatch, 4)
        traj = evolve(eigenmode_state(grid32, 0.5), 1.0, StepperConfig(h=1e-2),
                      CouplingConfig("sinh_gordon", (np.pi, np.pi)))
        reason = traj.stop_reason
        assert traj.status == STATUS_NONFINITE
        assert reason.condition == "non_finite" and np.isnan(reason.value)
        assert reason.t == traj.final_state.t == traj.times[-1] == pytest.approx(1e-2)
        assert len(traj.reports) == 2
        assert np.isfinite(traj.final_state.u).all() and np.isfinite(traj.final_state.v).all()

    def test_max_grad_l2_without_monitor(self, grid32):
        # the hard stop on the gradient norm needs no monitor: it is read at
        # the first sample at or above it, and names that sample's value
        st = velocity_driven_state(grid32)
        limit = 0.5 * float(np.sqrt(2.0)) * np.pi  # half the norm of grad cos x1
        traj = evolve(st, 1.0, StepperConfig(h=1e-2, max_grad_l2=limit),
                      CouplingConfig("mean_field", (0.0,)))
        reason = traj.stop_reason
        assert traj.status == STATUS_BLOWUP and reason.condition == "max_grad_l2"
        assert reason.value == traj.reports[-1].grad_l2 >= limit > traj.reports[-2].grad_l2
        assert 0.0 < reason.t == traj.times[-1] == traj.final_state.t < 1.0
        assert not traj.concentration

    def test_alarm_at_the_initial_sample(self, grid32):
        # an alarm on the data takes no step: one report, and a final state
        # equal to the data that shares no memory with it
        st, traj = initial_alarm_run(grid32)
        assert traj.status == STATUS_BLOWUP
        assert traj.stop_reason.condition == "log_int(e^{u_2})" and traj.stop_reason.t == 0.0
        assert len(traj.reports) == 1 and traj.times == [0.0]
        final = traj.final_state
        assert final.t == st.t
        assert np.array_equal(final.u, st.u) and np.array_equal(final.v, st.v)
        assert not np.shares_memory(final.u, st.u) and not np.shares_memory(final.v, st.v)

    @pytest.mark.parametrize("path, condition, status", [
        ("completed", None, STATUS_COMPLETED),
        ("initial_alarm", "log_int(e^{u_2})", STATUS_BLOWUP),
        ("grad_l2_alarm", "grad_l2", STATUS_BLOWUP),
        ("max_grad_l2", "max_grad_l2", STATUS_BLOWUP),
        ("max_abs_u", "max_abs_u", STATUS_BLOWUP),
        ("predictor_raises", "non_finite", STATUS_NONFINITE),
        ("carried_forcing_raises", "non_finite", STATUS_NONFINITE),
        ("velocity_not_finite", "non_finite", STATUS_NONFINITE),
        ("max_steps", "max_steps", STATUS_MAXSTEPS),
    ])
    def test_status_follows_stop_reason(self, grid32, monkeypatch, path, condition, status):
        linear = CouplingConfig("mean_field", (0.0,))
        sinh = CouplingConfig("sinh_gordon", (np.pi, np.pi))
        driven = velocity_driven_state(grid32)
        if path == "completed":
            traj = evolve(driven, 0.05, StepperConfig(h=1e-2), linear)
        elif path == "initial_alarm":
            traj = initial_alarm_run(grid32)[1]
        elif path == "grad_l2_alarm":
            traj = evolve(driven, 1.0, StepperConfig(h=1e-2), linear,
                          monitor=MonitorThresholds(grad_l2=2.0))
        elif path == "max_grad_l2":
            traj = evolve(driven, 1.0, StepperConfig(h=1e-2, max_grad_l2=2.0), linear)
        elif path == "max_abs_u":
            traj = evolve(driven, 1.0, StepperConfig(h=1e-2, max_abs_u=0.3), linear)
        elif path in ("predictor_raises", "carried_forcing_raises"):
            raise_at_forcing_call(monkeypatch, 4 if path == "predictor_raises" else 3)
            traj = evolve(eigenmode_state(grid32, 0.5), 1.0, StepperConfig(h=1e-2), sinh)
        elif path == "velocity_not_finite":
            real = prop.Stepper.step

            def poisoned(self, uh, vh, fh):
                uh, vh = real(self, uh, vh, fh)
                vh[0, 2, 3] = np.nan
                return uh, vh

            monkeypatch.setattr(prop.Stepper, "step", poisoned)
            traj = evolve(eigenmode_state(grid32, 0.5), 1.0, StepperConfig(h=1e-2), sinh)
        else:
            traj = evolve(driven, 1.0, StepperConfig(h=1e-2, max_steps=3), linear)
        reason = traj.stop_reason
        assert (None if reason is None else reason.condition) == condition
        assert traj.status == status
        assert traj.times == [r.t for r in traj.reports]
        if reason is not None:
            assert reason.t == traj.final_state.t


def acceptance_like_state(grid, ncomp):
    """Data seeded like the acceptance energy criteria (seed 11, amplitudes
    6 and 3)."""
    gen = np.random.default_rng(11)
    u0 = np.stack([random_smooth_field(grid, gen, 4, 6.0) for _ in range(ncomp)])
    u1 = np.stack(
        [random_smooth_field(grid, gen, 4, 3.0, zero_mean=True, norm="l2") for _ in range(ncomp)]
    )
    return wave_state_new(grid, u0, u1)


class TestSpectralState:
    @pytest.mark.parametrize("scheme", ["symmetric", "frozen"])
    @pytest.mark.parametrize(
        "n, cfg",
        [
            (128, CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))),
            (64, CouplingConfig("toda", (3 * np.pi, 3 * np.pi), matrix=cartan_matrix("A", 2))),
        ],
        ids=["sinh128", "todaA2_64"],
    )
    def test_evolve_matches_physical_step_loop(self, n, cfg, scheme):
        # evolve carries the half spectra across steps; Stepper.advance goes
        # through physical space every step: the two agree to round-off
        from liouwave import make_torus_grid

        g = make_torus_grid(n, n)
        st = acceptance_like_state(g, cfg.ncomp)
        h, n_steps = 1e-3, 200
        traj = evolve(st, n_steps * h, StepperConfig(h=h, scheme=scheme, sample_every=10**9), cfg)
        step = prop.Stepper(g, h, cfg, scheme)
        u, v = st.u, st.v
        for _ in range(n_steps):
            u, v = step.advance(u, v)
        assert traj.status == STATUS_COMPLETED
        assert np.abs(traj.final_state.u - u).max() <= 1e-12
        assert np.abs(traj.final_state.v - v).max() <= 1e-12

    @pytest.mark.parametrize("scheme, per_step", [("symmetric", 2), ("frozen", 1)])
    @pytest.mark.parametrize("ncomp", [1, 2])
    def test_transform_counts(self, grid32, monkeypatch, checkpoint_log, scheme, per_step, ncomp):
        from liouwave.surface import SpectralGrid

        counts = {"to_spectral_half_stack": 0, "to_physical_half_stack": 0}

        def counting(name):
            real = getattr(SpectralGrid, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in counts:
            monkeypatch.setattr(SpectralGrid, name, counting(name))
        if ncomp == 1:
            cfg = CouplingConfig("sinh_gordon", (2 * np.pi, 2 * np.pi))
        else:
            cfg = CouplingConfig("toda", (np.pi, np.pi), matrix=cartan_matrix("A", 2))
        gen = np.random.default_rng(2)
        u0 = np.stack([random_smooth_field(grid32, gen, 3, 1.0) for _ in range(ncomp)])
        u1 = np.stack(
            [random_smooth_field(grid32, gen, 3, 0.5, zero_mean=True, norm="l2") for _ in range(ncomp)]
        )
        st = wave_state_new(grid32, u0, u1)
        # 12 steps; samples at steps 4, 8, 12 and checkpoints at 6, 12.  The
        # samples read the carried spectra, so the physical v is made only at
        # the checkpoint steps (12 is also the final state)
        checkpoints = checkpoint_log()
        traj = evolve(st, 12 * 1e-2, StepperConfig(h=1e-2, scheme=scheme, sample_every=4), cfg,
                      snapshot_every=6, on_checkpoint=checkpoints)
        assert traj.status == STATUS_COMPLETED and len(checkpoints) == 2
        # every transform is one batched call over the components: the
        # initial u and v plus the forcing at the initial state, one rfft per
        # forcing and one irfft per new position, and u and v again at each
        # checkpoint
        initial, rederive, v_steps = 3, 2 * 2, 2
        assert counts["to_spectral_half_stack"] == initial + 12 * per_step + rederive
        assert counts["to_physical_half_stack"] == 12 * per_step + v_steps

    @pytest.mark.parametrize("family, lse_per_sample", [("sinh_gordon", 0), ("toda", 2)])
    def test_sample_cost(self, grid32, monkeypatch, family, lse_per_sample):
        # a sample inside evolve reads the carried spectra and the carried
        # forcing's log-normalizers: no transform, and a log-sum-exp only for
        # Toda's unweighted log_minus, one per component
        from liouwave.surface import SpectralGrid

        counts = {"fft": 0, "lse": 0, "samples": 0}
        sampling = [False]

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                if sampling[0]:
                    counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        def in_sample(fn, key=None):
            def wrapper(*args, **kwargs):
                if key:
                    counts[key] += 1
                sampling[0] = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    sampling[0] = False

            return wrapper

        for name in ("to_spectral_half_stack", "to_physical_half_stack", "to_spectral", "to_physical"):
            monkeypatch.setattr(SpectralGrid, name, counting("fft", getattr(SpectralGrid, name)))
        for name in ("log_integral_exp", "normalized_exp"):
            monkeypatch.setattr(SpectralGrid, name, counting("lse", getattr(SpectralGrid, name)))
        monkeypatch.setattr(prop, "evaluate_report", in_sample(prop.evaluate_report, "samples"))
        monkeypatch.setattr(prop, "blowup_monitor", in_sample(prop.blowup_monitor))
        if family == "toda":
            cfg = CouplingConfig("toda", (np.pi, np.pi), matrix=cartan_matrix("A", 2))
        else:
            cfg = CouplingConfig("sinh_gordon", (2 * np.pi, 2 * np.pi))
        st = acceptance_like_state(grid32, cfg.ncomp)
        traj = evolve(st, 10 * 1e-3, StepperConfig(h=1e-3), cfg, monitor=MonitorThresholds(),
                      snapshot_every=5)
        assert traj.status == STATUS_COMPLETED
        assert counts["samples"] == len(traj.reports) == 11
        assert counts["fft"] == 0
        assert counts["lse"] == lse_per_sample * counts["samples"]

    def test_checkpoint_steps_are_canonical(self, grid64, checkpoint_log):
        # a run started from a checkpoint snapshot repeats the uninterrupted
        # run bit for bit when it re-derives at the same cadence, and differs
        # in round-off when it does not
        cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        st = acceptance_like_state(grid64, 1)
        stepper = StepperConfig(h=1e-3, sample_every=10)
        full_checkpoints, same_checkpoints = checkpoint_log(), checkpoint_log()
        full = evolve(st, 0.1, stepper, cfg, snapshot_every=20, on_checkpoint=full_checkpoints)
        step, snap = full_checkpoints[0]
        assert step == 20
        same = evolve(snap, 0.1, stepper, cfg, snapshot_every=20, first_step_index=20, t_origin=0.0,
                      on_checkpoint=same_checkpoints)
        assert np.array_equal(same.final_state.u, full.final_state.u)
        assert np.array_equal(same.final_state.v, full.final_state.v)
        assert [(k, s.u.tobytes()) for k, s in same_checkpoints] == [
            (k, s.u.tobytes()) for k, s in full_checkpoints[1:]
        ]
        carried = evolve(snap, 0.1, stepper, cfg, first_step_index=20, t_origin=0.0)
        assert not np.array_equal(carried.final_state.u, full.final_state.u)


class TestStepperBuffers:
    """A step writes into the buffers that keep the (uh, vh) the step before
    read, which its caller gave up: orbits can interleave through one
    Stepper."""

    @pytest.mark.parametrize("scheme", prop.SCHEMES)
    @pytest.mark.parametrize("ncomp", [1, 2])
    def test_interleaved_orbits(self, grid32, scheme, ncomp):
        if ncomp == 1:
            cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        else:
            cfg = CouplingConfig("toda", (3 * np.pi, 3 * np.pi), matrix=cartan_matrix("A", 2))
        a = acceptance_like_state(grid32, ncomp)
        b = wave_state_new(grid32, -0.5 * a.u, 2.0 * a.v)
        h, n_steps = 1e-3, 20

        # physical orbits: one shared stepper against one stepper per orbit
        shared = prop.Stepper(grid32, h, cfg, scheme)
        own = [prop.Stepper(grid32, h, cfg, scheme) for _ in range(2)]
        mixed = alone = [(s.u, s.v) for s in (a, b)]
        for _ in range(n_steps):
            mixed = [shared.advance(u, v) for u, v in mixed]
            alone = [step.advance(u, v) for step, (u, v) in zip(own, alone)]
        for (u, v), (u1, v1) in zip(mixed, alone):
            assert np.array_equal(u, u1) and np.array_equal(v, v1)

        # carried spectra through one stepper against evolve on each orbit
        shared = prop.Stepper(grid32, h, cfg, scheme)
        carried = [
            (grid32.to_spectral_half_stack(s.u), grid32.to_spectral_half_stack(s.v), s.u)
            for s in (a, b)
        ]

        def stepped(uh, vh, u):
            uh, vh = shared.step(uh, vh, shared.forcing(u)[0])
            return uh, vh, grid32.to_physical_half_stack(uh)

        for _ in range(n_steps):
            carried = [stepped(*orbit) for orbit in carried]
        for s, (_, vh, u) in zip((a, b), carried):
            traj = evolve(s, n_steps * h, StepperConfig(h=h, scheme=scheme, sample_every=10**9), cfg)
            assert traj.status == STATUS_COMPLETED
            assert np.array_equal(traj.final_state.u, u)
            assert np.array_equal(traj.final_state.v, grid32.to_physical_half_stack(vh))


def weights_of(grid):
    x1, x2 = grid.mesh()
    ones = np.ones((grid.n1, grid.n2))
    return (1.0 + 0.5 * np.cos(x1)) * ones, (1.0 + 0.3 * np.sin(x2)) * ones


FORCING_CASES = {
    "mean_field": lambda g: CouplingConfig("mean_field", (5.0,)),
    "sinh_gordon": lambda g: CouplingConfig("sinh_gordon", (4 * np.pi, 3 * np.pi)),
    "asymmetric_sinh_a2": lambda g: CouplingConfig("asymmetric_sinh", (4 * np.pi, 3 * np.pi), a=2.0),
    "toda_A2": lambda g: CouplingConfig("toda", (3 * np.pi, 2 * np.pi), matrix=cartan_matrix("A", 2)),
    "toda_G2": lambda g: CouplingConfig("toda", (2 * np.pi, np.pi), matrix=cartan_matrix("G2", 2)),
    "toda_A2_rho2_zero": lambda g: CouplingConfig("toda", (3 * np.pi, 0.0), matrix=cartan_matrix("A", 2)),
    "sinh_gordon_weighted": lambda g: CouplingConfig(
        "sinh_gordon", (4 * np.pi, 3 * np.pi), weights=weights_of(g)),
    "toda_A2_weighted": lambda g: CouplingConfig(
        "toda", (3 * np.pi, 2 * np.pi), matrix=cartan_matrix("A", 2), weights=weights_of(g)),
}


def evaluated_measures(cfg):
    """The measures the forcing exponentiates: those with rho != 0."""
    from liouwave.rhs import equation_measures

    return [m for m in equation_measures(cfg) if m.rho != 0.0]


class TestStepperForcing:
    """`Stepper.forcing` on a `CouplingConfig`: one buffer-backed pass per
    measure, with no mean subtraction, against a direct evaluation of the
    zero-mean forcing and of the measures' log-normalizers."""

    @staticmethod
    def state(grid, cfg):
        gen = np.random.default_rng(7)
        return np.stack([random_smooth_field(grid, gen, 3, 3.0) for _ in range(cfg.ncomp)])

    @staticmethod
    def direct(grid, u, cfg):
        """(forcing, log-normalizers) by plain numpy: each density and each
        log-normalizer taken apart, the latter as max g + log of the
        quadrature of e^(g - max g) for the exponent g."""
        coupling = cfg.matrix.entries if cfg.family == "toda" else np.ones((1, 1))
        f, logz = np.zeros(u.shape), []
        for m in evaluated_measures(cfg):
            g = m.sign * (m.scale * u[m.component])
            if m.log_weight is not None:
                g = g + m.log_weight
            top = g.max()
            logz.append(top + float(np.log(grid.cell_area * np.exp(g - top).sum())))
            d = np.exp(g)
            for i in range(cfg.ncomp):
                f[i] += coupling[i, m.component] * m.sign * m.rho * d / grid.integrate(d)
        return f - f.mean(axis=(1, 2), keepdims=True), logz

    @pytest.mark.parametrize("case", sorted(FORCING_CASES))
    def test_matches_direct_forcing(self, grid32, case):
        cfg = FORCING_CASES[case](grid32)
        u = self.state(grid32, cfg)
        step = prop.Stepper(grid32, 1e-3, cfg)
        fh, logz = step.forcing(u)
        f, logz_direct = self.direct(grid32, u, cfg)
        ref = grid32.to_spectral_half_stack(f) * grid32.dealias_mask[:, :17]
        ref[:, 0, 0] = 0.0
        assert np.abs(fh - ref).max() <= 1e-14 * np.abs(ref).max()
        assert [x for x in logz if x is not None] == logz_direct
        assert logz == rhs_fields(grid32, u, cfg, return_log_normalizers=True)[1]
        # the buffer is reused: a second call gives the same forcing
        again, logz_again = step.forcing(u)
        assert np.array_equal(again, fh) and logz_again == logz

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("case", sorted(FORCING_CASES))
    def test_dynamic_range_error_on_the_same_inputs(self, grid32, case, bad):
        from liouwave.rhs import DynamicRangeError

        cfg = FORCING_CASES[case](grid32)
        u = self.state(grid32, cfg)
        u[-1, 5, 7] = bad
        # out of range: a NaN or +inf in the exponent of an evaluated measure
        expected = any(
            m.component == cfg.ncomp - 1 and not m.sign * m.scale * bad < np.inf
            for m in evaluated_measures(cfg)
        )
        raised = []
        for forcing in (lambda: rhs_fields(grid32, u, cfg),
                        lambda: prop.Stepper(grid32, 1e-3, cfg).forcing(u)):
            try:
                out = forcing()
            except DynamicRangeError:
                raised.append(True)
            else:
                raised.append(False)
                assert np.isfinite(out[0] if isinstance(out, tuple) else out).all()
        assert raised == [expected, expected]

    @pytest.mark.parametrize("case", ["sinh_gordon", "asymmetric_sinh_a2", "toda_A2_weighted"])
    def test_consecutive_calls_allocate_no_physical_array(self, grid64, case):
        import tracemalloc

        cfg = FORCING_CASES[case](grid64)
        u = self.state(grid64, cfg)
        step = prop.Stepper(grid64, 1e-3, cfg)
        step.forcing(u)  # warm-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fh, _ = step.forcing(u)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # beyond the returned half spectra, less than one physical component
        assert peak - fh.nbytes < u[0].nbytes


class TestStepperConfigValidation:
    def test_bad_values(self, grid32):
        with pytest.raises(ValueError):
            StepperConfig(h=0.0)
        # the scheme is checked once, by the Stepper that `evolve` builds
        with pytest.raises(ValueError, match="unknown scheme"):
            evolve(eigenmode_state(grid32), 0.1, StepperConfig(h=0.1, scheme="leapfrog"),
                   CouplingConfig("mean_field", (0.0,)))
        with pytest.raises(ValueError):
            StepperConfig(h=0.1, sample_every=0)
