import numpy as np
import pytest

from liouwave import (
    ConcentrationQuery,
    CouplingConfig,
    MonitorThresholds,
    ball_mass_map,
    blowup_monitor,
    bubble_field,
    cartan_matrix,
    concentration_window,
    density,
    detect_concentration,
    evaluate_report,
    functional_J,
    random_smooth_field,
    wave_state_new,
)
from oracle import direct_ball_mass


class TestDensity:
    def test_uniform_for_constants(self, grid64):
        for c in (0.0, 3.7):
            dens = density(grid64, c * np.ones((64, 64)), +1.0)
            assert np.abs(dens - 1 / (4 * np.pi**2)).max() < 1e-15

    def test_integrates_to_one(self, grid64, rng):
        for _ in range(3):
            u = 5.0 * rng.standard_normal((64, 64))
            for sign in (+1.0, -1.0):
                dens = density(grid64, u, sign)
                assert grid64.integrate(dens) == pytest.approx(1.0, abs=1e-12)

    def test_bubble_concentrates(self, grid64):
        u = bubble_field(grid64, (np.pi, np.pi), 8.0)
        dens = density(grid64, u, +1.0)
        mass = direct_ball_mass(grid64, dens, (np.pi, np.pi), 0.5)
        assert mass >= 0.9


class TestBallMassMap:
    def test_uniform_density_area_ratio(self, grid64):
        dens = np.full((64, 64), 1 / (4 * np.pi**2))
        out = ball_mass_map(grid64, dens, 0.5)
        expect = np.pi * 0.25 / (4 * np.pi**2)
        # discretization affects the ball boundary only
        cell = grid64.L1 / grid64.n1
        bound = 2 * np.pi * 0.5 * cell / (4 * np.pi**2) * 3
        assert np.abs(out - expect).max() < bound

    def test_matches_direct_summation(self, grid64, rng):
        u = random_smooth_field(grid64, rng, 3, 2.0)
        dens = density(grid64, u, +1.0)
        out = ball_mass_map(grid64, dens, 0.7)
        for i, j in ((0, 0), (13, 40), (32, 32)):
            center = (grid64.x1[i], grid64.x2[j])
            assert out[i, j] == pytest.approx(
                direct_ball_mass(grid64, dens, center, 0.7), abs=1e-12
            )

    def test_monotone_in_radius(self, grid64, rng):
        u = random_smooth_field(grid64, rng, 3, 1.0)
        dens = density(grid64, u, +1.0)
        small = ball_mass_map(grid64, dens, 0.3)
        big = ball_mass_map(grid64, dens, 0.6)
        assert np.all(big >= small - 1e-12)

    def test_rejects_oversized_radius(self, grid64):
        dens = np.full((64, 64), 1 / (4 * np.pi**2))
        with pytest.raises(ValueError, match="radius"):
            ball_mass_map(grid64, dens, np.pi)


class TestDetectConcentration:
    def test_uniform_no_alarm(self, grid64):
        dens = np.full((64, 64), 1 / (4 * np.pi**2))
        rep = detect_concentration(grid64, dens, ConcentrationQuery(m=1, r=0.5, eps=0.1))
        assert rep.covered_fraction == pytest.approx(np.pi * 0.25 / (4 * np.pi**2), abs=3e-3)
        assert not rep.alarmed

    def test_single_bubble_located(self, grid64):
        center = (np.pi, np.pi)
        u = bubble_field(grid64, center, 8.0)
        dens = density(grid64, u, +1.0)
        rep = detect_concentration(grid64, dens, ConcentrationQuery(m=1, r=0.5, eps=0.1))
        assert rep.alarmed and rep.covered_fraction >= 0.9
        p = rep.points[0]
        cell = np.hypot(grid64.L1 / grid64.n1, grid64.L2 / grid64.n2)
        assert np.hypot(p[0] - center[0], p[1] - center[1]) <= cell

    def test_two_bubbles_separated(self, grid64):
        c1, c2 = (np.pi / 2, np.pi), (np.pi / 2 + np.pi, np.pi)
        u = np.logaddexp(bubble_field(grid64, c1, 8.0), bubble_field(grid64, c2, 8.0))
        u -= u.mean()
        dens = density(grid64, u, +1.0)
        rep = detect_concentration(
            grid64, dens, ConcentrationQuery(m=2, r=0.5, eps=0.1, delta=1.0)
        )
        assert rep.covered_fraction >= 0.9
        assert len(rep.points) == 2
        found = sorted(p[0] for p in rep.points)
        assert found[0] == pytest.approx(c1[0], abs=0.2)
        assert found[1] == pytest.approx(c2[0], abs=0.2)
        # separation of accepted points
        dx = abs(rep.points[0][0] - rep.points[1][0])
        dx = min(dx, 2 * np.pi - dx)
        dy = abs(rep.points[0][1] - rep.points[1][1])
        dy = min(dy, 2 * np.pi - dy)
        assert np.hypot(dx, dy) >= 1.0

    def test_fraction_monotone_in_m_and_r(self, grid64):
        c1, c2 = (2.0, 2.0), (5.0, 5.0)
        u = np.logaddexp(bubble_field(grid64, c1, 8.0), bubble_field(grid64, c2, 8.0))
        u -= u.mean()
        dens = density(grid64, u, +1.0)
        f = {}
        for m in (1, 2):
            for r in (0.3, 0.5):
                rep = detect_concentration(grid64, dens, ConcentrationQuery(m=m, r=r, eps=0.1))
                f[m, r] = rep.covered_fraction
        assert f[2, 0.3] >= f[1, 0.3] and f[2, 0.5] >= f[1, 0.5]
        assert f[1, 0.5] >= f[1, 0.3] and f[2, 0.5] >= f[2, 0.3]

    def test_query_validation(self):
        with pytest.raises(ValueError):
            ConcentrationQuery(m=0, r=0.5, eps=0.1)
        with pytest.raises(ValueError):
            ConcentrationQuery(m=1, r=0.5, eps=1.5)
        with pytest.raises(ValueError):
            ConcentrationQuery(m=1, r=-0.5, eps=0.1)
        # the monitor's query defaults obey the same rules when it is made
        for bad, msg in (({"r": -1.0}, "radius"), ({"eps": 1.5}, "eps"),
                         ({"delta": -2.0}, "delta")):
            with pytest.raises(ValueError, match=msg):
                MonitorThresholds(**bad)


class TestWindows:
    def test_scalar_windows(self):
        assert concentration_window(10 * np.pi, 8 * np.pi) == 1
        assert concentration_window(17 * np.pi, 8 * np.pi) == 2
        assert concentration_window(8 * np.pi, 8 * np.pi) == 1  # closed left endpoint
        assert concentration_window(7.9 * np.pi, 8 * np.pi) == 0

    def test_toda_windows(self):
        assert concentration_window(4 * np.pi, 4 * np.pi) == 1
        assert concentration_window(9 * np.pi, 4 * np.pi) == 2


def _reason(reason):
    return reason.condition, reason.value, reason.t


class TestBlowupMonitor:
    def test_quiet_on_calm_state(self, grid32, rng):
        cfg = CouplingConfig("sinh_gordon", (10 * np.pi, 0.0))
        u0 = random_smooth_field(grid32, rng, 3, 1.0)
        st = wave_state_new(grid32, u0, np.zeros((32, 32)))
        reason, reports = blowup_monitor(st, cfg, MonitorThresholds())
        assert reason is None and reports == []

    def test_alarm_on_bubble(self, grid64):
        cfg = CouplingConfig("sinh_gordon", (10 * np.pi, 17 * np.pi))
        u0 = bubble_field(grid64, (np.pi, np.pi), 32.0)
        st = wave_state_new(grid64, u0, np.zeros((64, 64)), t0=0.25)
        report = evaluate_report(st, cfg)
        assert max(report.log_integrals) >= 1.0  # log_int = 1 trips too: grad_l2 wins
        for log_int in (50.0, 1.0):
            thr = MonitorThresholds(grad_l2=15.0, log_int=log_int, r=0.5, eps=0.1)
            reason, reports = blowup_monitor(st, cfg, thr)
            assert _reason(reason) == ("grad_l2", report.grad_l2, 0.25)
            by_sign = {r.sign: r for r in reports}
            assert len(by_sign[+1].points) == 1  # floor(10 pi / 8 pi)
            assert len(by_sign[-1].points) == 2  # floor(17 pi / 8 pi)
            assert by_sign[+1].alarmed and by_sign[+1].covered_fraction >= 0.9

    def test_subcritical_sign_skipped(self, grid64):
        cfg = CouplingConfig("sinh_gordon", (10 * np.pi, 0.0))
        u0 = bubble_field(grid64, (np.pi, np.pi), 32.0)
        st = wave_state_new(grid64, u0, np.zeros((64, 64)))
        reason, reports = blowup_monitor(st, cfg, MonitorThresholds(grad_l2=15.0))
        assert _reason(reason) == ("grad_l2", evaluate_report(st, cfg).grad_l2, 0.0)
        assert [r.sign for r in reports] == [1]

    def test_toda_monitor_per_component(self, grid64):
        cfg = CouplingConfig("toda", (5 * np.pi, np.pi), matrix=cartan_matrix("A", 2))
        u0 = np.stack([bubble_field(grid64, (np.pi, np.pi), 32.0), np.zeros((64, 64))])
        st = wave_state_new(grid64, u0, np.zeros_like(u0))
        reason, reports = blowup_monitor(st, cfg, MonitorThresholds(grad_l2=15.0))
        assert _reason(reason) == ("grad_l2", evaluate_report(st, cfg).grad_l2, 0.0)
        assert len(reports) == 1 and reports[0].component == 0
        assert len(reports[0].points) == 1  # floor(5 pi / 4 pi)

    def test_minus_measure_located_at_minus_bubble(self, grid64):
        # the -1 measure is e^{-u}: its point sits on the negative bubble
        cfg = CouplingConfig("sinh_gordon", (10 * np.pi, 10 * np.pi))
        u0 = bubble_field(grid64, (1.0, 1.0), 6.0) - bubble_field(grid64, (4.0, 4.0), 6.0)
        st = wave_state_new(grid64, u0, np.zeros((64, 64)))
        reason, reports = blowup_monitor(st, cfg, MonitorThresholds(log_int=1.0))
        # the two bubbles mirror each other, so the larger log-integral names the measure
        logs = evaluate_report(st, cfg).log_integrals
        name = "e^{u}" if logs[0] >= logs[1] else "e^{-u}"
        assert _reason(reason) == (f"log_int({name})", max(logs), 0.0)
        by_sign = {r.sign: r for r in reports}
        assert np.allclose(by_sign[+1].points, [(0.98, 0.98)], atol=0.05)
        assert np.allclose(by_sign[-1].points, [(4.03, 4.03)], atol=0.05)

    def test_uncoupled_measure_not_watched(self, grid64):
        # mean-field carries no e^{-u} measure, so a deep well stays quiet
        u0 = -bubble_field(grid64, (np.pi, np.pi), 6.0)
        st = wave_state_new(grid64, u0, np.zeros((64, 64)))
        thr = MonitorThresholds(log_int=5.0)
        sg = CouplingConfig("sinh_gordon", (10 * np.pi, 10 * np.pi))
        reason, _ = blowup_monitor(st, sg, thr)
        assert _reason(reason) == ("log_int(e^{-u})", evaluate_report(st, sg).log_integrals[1], 0.0)
        mf = CouplingConfig("mean_field", (10 * np.pi,))
        assert blowup_monitor(st, mf, thr) == (None, [])


class TestBubbleField:
    def test_mean_zero(self, grid64):
        u = bubble_field(grid64, (np.pi, np.pi), 8.0)
        assert abs(grid64.mean(u)) < 1e-12

    def test_mild_profile_at_lam_one(self, grid64):
        # direct evaluation: the lam=1 profile spans (1 + 2 pi^2)^2 ~ 434
        # between center and the far corner, orders below sharp bubbles
        u1 = bubble_field(grid64, (np.pi, np.pi), 1.0)
        d1 = density(grid64, u1, +1.0)
        assert d1.max() / d1.min() == pytest.approx((1 + 2 * np.pi**2) ** 2, rel=0.05)
        u8 = bubble_field(grid64, (np.pi, np.pi), 8.0)
        d8 = density(grid64, u8, +1.0)
        assert d8.max() / d8.min() > 1e3 * d1.max() / d1.min()

    def test_rejects_small_lam(self, grid64):
        with pytest.raises(ValueError):
            bubble_field(grid64, (0.0, 0.0), 0.5)

    def test_J_decreasing_supercritical(self, grid64):
        cfg = CouplingConfig("sinh_gordon", (10 * np.pi, 0.0))
        vals = [
            functional_J(grid64, bubble_field(grid64, (np.pi, np.pi), lam), cfg)
            for lam in (2.0, 4.0, 8.0, 16.0, 32.0)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
