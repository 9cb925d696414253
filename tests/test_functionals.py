import numpy as np
import pytest

from liouwave import (
    CouplingConfig,
    bubble_field,
    cartan_matrix,
    energy,
    energy_sg,
    energy_toda,
    evaluate_report,
    functional_J,
    functional_J_sg,
    functional_J_toda,
    grad_J,
    mt_residual,
    random_smooth_field,
    wave_state_new,
)

LOG_AREA = np.log(4 * np.pi**2)


class TestFunctionalJ:
    def test_zero_field_value(self, grid64):
        val = functional_J_sg(grid64, np.zeros((64, 64)), 3.0, 5.0)
        assert val == pytest.approx(-(3.0 + 5.0) * LOG_AREA, rel=1e-13)

    def test_translation_invariance(self, grid32, rng):
        u = random_smooth_field(grid32, rng, 3, 1.0)
        a = functional_J_sg(grid32, u, 8 * np.pi, 8 * np.pi)
        b = functional_J_sg(grid32, u + 4.2, 8 * np.pi, 8 * np.pi)
        assert a == pytest.approx(b, abs=1e-9)

    def test_coercive_trend_along_cosine(self, grid64):
        x1, _ = grid64.mesh()
        base = np.cos(x1) * np.ones((1, 64))
        vals = [functional_J_sg(grid64, s * base, 8 * np.pi, 8 * np.pi) for s in range(1, 9)]
        diffs = np.diff(vals)
        # quadratic Dirichlet growth wins over the linear log terms
        assert all(d > 0 for d in diffs[1:])
        assert np.all(np.diff(diffs) > 0)
        assert vals[-1] > 0

    def test_monotone_in_rho1(self, grid32, rng):
        u = random_smooth_field(grid32, rng, 3, 2.0)
        lp = grid32.log_integral_exp(u - grid32.mean(u))
        assert lp > np.log(grid32.area)
        j_small = functional_J_sg(grid32, u, 2.0, 1.0)
        j_big = functional_J_sg(grid32, u, 5.0, 1.0)
        assert j_big < j_small


class TestEnergies:
    def test_zero_state_values(self, grid32):
        z = wave_state_new(grid32, np.zeros((32, 32)), np.zeros((32, 32)))
        assert energy_sg(z, 3.0, 5.0) == pytest.approx(-8.0 * LOG_AREA, rel=1e-13)
        mat = cartan_matrix("A", 2)
        zt = wave_state_new(grid32, np.zeros((2, 32, 32)), np.zeros((2, 32, 32)))
        assert energy_toda(zt, (3.0, 5.0), mat) == pytest.approx(-8.0 * LOG_AREA, rel=1e-13)

    def test_identity_E_equals_K_plus_J(self, grid32):
        cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        gen = np.random.default_rng(99)
        for _ in range(10):
            u0 = random_smooth_field(grid32, gen, 4, 1.5)
            u1 = random_smooth_field(grid32, gen, 4, 0.8, zero_mean=True, norm="l2")
            st = wave_state_new(grid32, u0, u1)
            e = energy(st, cfg)
            k = 0.5 * grid32.norm_l2(st.v[0]) ** 2
            j = functional_J(grid32, st.u, cfg)
            assert abs(e - (k + j)) <= 1e-10 * (1 + abs(e))

    def test_toda_dirichlet_inverse_contraction(self, grid32, rng):
        mat = cartan_matrix("A", 2)
        w = random_smooth_field(grid32, rng, 3, 1.3)
        u = np.stack([w, np.zeros((32, 32))])
        val = functional_J_toda(grid32, u, (0.0, 0.0), mat)
        expect = 0.5 * (2.0 / 3.0) * grid32.seminorm_h1(w) ** 2
        assert val == pytest.approx(expect, rel=1e-12)

    def test_toda_energy_needs_inverse(self, grid32):
        from liouwave import coupling_matrix_from_entries

        singular = coupling_matrix_from_entries([[1.0, 1.0], [1.0, 1.0]])
        zt = wave_state_new(grid32, np.zeros((2, 32, 32)), np.zeros((2, 32, 32)))
        with pytest.raises(ValueError, match="singular"):
            energy_toda(zt, (1.0, 1.0), singular)

    def test_g2_energy_form_symmetric(self):
        mat = cartan_matrix("G2", 2)
        q = mat.energy_form()
        assert np.allclose(q, q.T, atol=1e-14)
        coeffs = mat.log_coefficients((1.0, 1.0))
        assert np.array_equal(coeffs, [3.0, 1.0])


class TestGradJ:
    def test_zero_at_constants(self, grid32):
        cfg = CouplingConfig("sinh_gordon", (7.0, 3.0))
        g = grad_J(grid32, 1.7 * np.ones((32, 32)), cfg)
        assert np.abs(g).max() < 1e-13

    def test_directional_derivative_second_order(self, grid64):
        # strongly skewed profiles keep the third directional derivative well
        # above the round-off floor of the central difference
        cfg = CouplingConfig("sinh_gordon", (8 * np.pi, 0.0))
        u = bubble_field(grid64, (np.pi, np.pi), 3.0) * 1.2
        phi = bubble_field(grid64, (2.0, 4.0), 2.0) * 1.5
        inner = grid64.integrate(grad_J(grid64, u, cfg) * phi)
        errs = []
        for eps in (1e-3, 1e-4):
            fd = (
                functional_J_sg(grid64, u + eps * phi, 8 * np.pi, 0.0)
                - functional_J_sg(grid64, u - eps * phi, 8 * np.pi, 0.0)
            ) / (2 * eps)
            errs.append(abs(fd - inner))
        ratio = errs[0] / errs[1]
        assert 80.0 <= ratio <= 120.0

    def test_mean_field_matches_sinh_with_rho2_zero(self, grid32, rng):
        u = random_smooth_field(grid32, rng, 3, 1.0)
        a = grad_J(grid32, u, CouplingConfig("mean_field", (6.0,)))
        b = grad_J(grid32, u, CouplingConfig("sinh_gordon", (6.0, 0.0)))
        assert np.abs(a - b).max() < 1e-14

    def test_toda_gradient_fd(self, grid32, rng):
        mat = cartan_matrix("A", 2)
        cfg = CouplingConfig("toda", (2.0, 3.0), matrix=mat)
        u = np.stack([bubble_field(grid32, (np.pi, np.pi), 2.0),
                      0.8 * bubble_field(grid32, (2.0, 2.0), 2.0)])
        phi = np.stack([bubble_field(grid32, (1.0, 4.0), 2.0),
                        bubble_field(grid32, (4.0, 1.0), 2.0)])
        gr = grad_J(grid32, u, cfg)
        inner = sum(grid32.integrate(gr[i] * phi[i]) for i in range(2))
        eps = 1e-4
        fd = (
            functional_J_toda(grid32, u + eps * phi, cfg.rho, mat)
            - functional_J_toda(grid32, u - eps * phi, cfg.rho, mat)
        ) / (2 * eps)
        assert fd == pytest.approx(inner, rel=1e-6)


class TestMtResidual:
    def test_zero_field_values(self, grid64):
        z = np.zeros((64, 64))
        assert mt_residual(grid64, z, "standard") == pytest.approx(-8 * np.pi * LOG_AREA, rel=1e-13)
        assert mt_residual(grid64, z, "sinh") == pytest.approx(-16 * np.pi * LOG_AREA, rel=1e-13)

    def test_translation_invariance(self, grid32, rng):
        u = random_smooth_field(grid32, rng, 3, 1.5)
        for flavor in ("standard", "sinh"):
            assert mt_residual(grid32, u, flavor) == pytest.approx(
                mt_residual(grid32, u + 2.0, flavor), abs=1e-9
            )

    def test_improved_flavor_formula(self, grid32, rng):
        u = random_smooth_field(grid32, rng, 3, 1.0)
        val = mt_residual(grid32, u, "improved", k=2, l=1, eps=0.5)
        dir_term = 0.5 * grid32.seminorm_h1(u) ** 2
        lp = grid32.log_integral_exp(u - grid32.mean(u), 1.0)
        lm = grid32.log_integral_exp(u - grid32.mean(u), -1.0)
        expect = 1.5 * dir_term - 16 * np.pi * lp - 8 * np.pi * lm
        assert val == pytest.approx(expect, rel=1e-12)

    def test_toda_flavor_uses_matrix(self, grid32, rng):
        mat = cartan_matrix("A", 2)
        u = np.stack([random_smooth_field(grid32, rng, 3, 1.0) for _ in range(2)])
        val = mt_residual(grid32, u, "toda", matrix=mat)
        expect = functional_J_toda(grid32, u, (4 * np.pi, 4 * np.pi), mat)
        assert val == pytest.approx(expect, rel=1e-12)

    def test_sinh_residual_bounded_on_bubbles_while_J_sinks(self, grid64):
        # lam beyond ~n/2 is unresolved on this grid, so stop at 32
        lams = (2.0, 4.0, 8.0, 16.0, 32.0)
        js, resids = [], []
        for lam in lams:
            u = bubble_field(grid64, (np.pi, np.pi), lam)
            js.append(functional_J_sg(grid64, u, 10 * np.pi, 0.0))
            resids.append(mt_residual(grid64, u, "sinh"))
        assert all(b < a for a, b in zip(js, js[1:]))
        assert js[0] - js[-1] > 30.0
        # the paired residual stays in a narrow band while J drops freely
        assert max(resids) - min(resids) < 10.0


class TestEvaluateReport:
    def test_report_consistency(self, grid32, rng):
        cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 2 * np.pi))
        u0 = random_smooth_field(grid32, rng, 3, 1.0)
        u1 = random_smooth_field(grid32, rng, 3, 0.5, zero_mean=True, norm="l2")
        st = wave_state_new(grid32, u0, u1)
        rep = evaluate_report(st, cfg)
        assert rep.E == pytest.approx(rep.kinetic + rep.J, rel=1e-12)
        assert rep.E == pytest.approx(energy(st, cfg), rel=1e-12)
        assert rep.log_plus >= np.log(grid32.area) - 1e-12
        assert rep.log_minus >= np.log(grid32.area) - 1e-12
        assert rep.grad_l2 == pytest.approx(grid32.seminorm_h1(u0), rel=1e-12)

    def test_asymmetric_log_minus_is_the_equation_measure(self, grid32):
        # log_minus is log int e^{-a(u - ubar)}, as in J and the monitor
        cfg = CouplingConfig("asymmetric_sinh", (4 * np.pi, 4 * np.pi), a=2.0)
        gen = np.random.default_rng(11)
        u0 = random_smooth_field(grid32, gen, 4, 6.0)
        u1 = random_smooth_field(grid32, gen, 4, 3.0, zero_mean=True, norm="l2")
        rep = evaluate_report(wave_state_new(grid32, u0, u1), cfg)
        direct = np.log(grid32.integrate(np.exp(-2.0 * (u0 - u0.mean()))))
        assert rep.log_minus == pytest.approx(direct, rel=1e-13)
        assert rep.log_minus == pytest.approx(3.7745, abs=1e-4)
        sinh = mt_residual(grid32, u0, "sinh")
        assert rep.mt_residual == pytest.approx(sinh, rel=1e-13)

    def test_toda_report(self, grid32, rng):
        cfg = CouplingConfig("toda", (np.pi, np.pi), matrix=cartan_matrix("A", 2))
        u0 = np.stack([random_smooth_field(grid32, rng, 3, 1.0) for _ in range(2)])
        st = wave_state_new(grid32, u0, np.zeros_like(u0))
        rep = evaluate_report(st, cfg)
        assert rep.kinetic == 0.0
        assert rep.E == pytest.approx(energy(st, cfg), rel=1e-12)
        assert len(rep.means) == 2
