import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouwave import (
    CouplingConfig,
    DynamicRangeError,
    cartan_matrix,
    coupling_matrix_from_entries,
    evaluate_report,
    random_smooth_field,
    rhs_fields,
    rhs_scalar,
    rhs_toda,
    wave_state_new,
)


class TestCartanMatrices:
    def test_a2_entries_and_inverse(self):
        m = cartan_matrix("A", 2)
        assert np.array_equal(m.entries, [[2.0, -1.0], [-1.0, 2.0]])
        assert np.allclose(m.inverse, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-14)
        assert np.array_equal(m.symmetrizer, [1.0, 1.0])

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_an_tridiagonal(self, n):
        m = cartan_matrix("A", n)
        expect = 2.0 * np.eye(n)
        idx = np.arange(n - 1)
        expect[idx, idx + 1] = -1.0
        expect[idx + 1, idx] = -1.0
        assert np.array_equal(m.entries, expect)
        assert np.allclose(m.entries @ m.inverse, np.eye(n), atol=1e-12)

    def test_g2(self):
        m = cartan_matrix("G2", 2)
        assert np.array_equal(m.entries, [[2.0, -1.0], [-3.0, 2.0]])
        assert np.array_equal(m.symmetrizer, [3.0, 1.0])
        da = m.symmetrizer[:, None] * m.entries
        assert np.array_equal(da, [[6.0, -3.0], [-3.0, 2.0]])

    def test_g2_rank_guard(self):
        with pytest.raises(ValueError, match="rank 2"):
            cartan_matrix("G2", 3)

    def test_b3_c3_trailing_entries(self):
        b = cartan_matrix("B", 3)
        assert b.entries[1, 2] == -2.0 and b.entries[2, 1] == -1.0
        c = cartan_matrix("C", 3)
        assert c.entries[1, 2] == -1.0 and c.entries[2, 1] == -2.0
        for m in (b, c):
            da = m.symmetrizer[:, None] * m.entries
            assert np.allclose(da, da.T, atol=1e-12)
            assert np.allclose(m.entries @ m.inverse, np.eye(3), atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            cartan_matrix("D", 4)

    def test_singular_custom_has_no_inverse(self):
        m = coupling_matrix_from_entries([[1.0, 1.0], [1.0, 1.0]])
        assert m.inverse is None
        with pytest.raises(ValueError, match="singular"):
            m.energy_form()

    def test_custom_symmetric_gets_unit_symmetrizer(self):
        m = coupling_matrix_from_entries([[2.0, -0.5], [-0.5, 1.0]])
        assert np.array_equal(m.symmetrizer, [1.0, 1.0])


class TestCouplingConfig:
    def test_arity_validation(self):
        with pytest.raises(ValueError, match="1 rho"):
            CouplingConfig("mean_field", (1.0, 2.0))
        with pytest.raises(ValueError, match="2 rho"):
            CouplingConfig("sinh_gordon", (1.0,))
        with pytest.raises(ValueError, match="rho values"):
            CouplingConfig("toda", (1.0,), matrix=cartan_matrix("A", 2))

    def test_toda_needs_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            CouplingConfig("toda", (1.0, 2.0))

    def test_scalar_families_take_no_matrix(self):
        for family, rho in (("mean_field", (1.0,)), ("sinh_gordon", (1.0, 1.0)),
                            ("asymmetric_sinh", (1.0, 1.0))):
            with pytest.raises(ValueError, match="only valid for toda"):
                CouplingConfig(family, rho, matrix=cartan_matrix("A", 3))

    def test_asymmetry_guard(self):
        with pytest.raises(ValueError, match="asymmetric"):
            CouplingConfig("sinh_gordon", (1.0, 1.0), a=2.0)
        cfg = CouplingConfig("asymmetric_sinh", (1.0, 1.0), a=2.0)
        assert cfg.a == 2.0

    def test_nonpositive_weight_rejected(self):
        w = np.zeros((32, 32))
        with pytest.raises(ValueError, match="positive"):
            CouplingConfig("sinh_gordon", (1.0, 1.0), weights=(w, None))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_one_bad_weight_entry_rejected(self, bad):
        # the input check is the only guard before np.log(w): a single bad
        # grid point in an otherwise valid field must be caught
        w = np.ones((32, 32))
        w[5, 7] = bad
        with pytest.raises(ValueError, match="positive"):
            CouplingConfig("sinh_gordon", (1.0, 1.0), weights=(None, w))

    def test_weight_slot_count_checked(self):
        w = np.ones((32, 32))
        with pytest.raises(ValueError, match="weight slots"):
            CouplingConfig("sinh_gordon", (1.0, 1.0), weights=(w,))
        with pytest.raises(ValueError, match="weight slots"):
            CouplingConfig("toda", (1.0, 1.0), matrix=cartan_matrix("A", 2), weights=(w, w, w))


class TestScalarRhs:
    def test_zero_field(self, grid64):
        cfg = CouplingConfig("sinh_gordon", (3.0, 5.0))
        out = rhs_scalar(grid64, np.zeros((64, 64)), cfg)
        assert np.abs(out).max() < 1e-15

    def test_constant_field(self, grid64):
        cfg = CouplingConfig("sinh_gordon", (3.0, 5.0))
        out = rhs_scalar(grid64, 2.7 * np.ones((64, 64)), cfg)
        assert np.abs(out).max() < 1e-14

    def test_cosine_value_against_bessel(self, grid64):
        x1, _ = grid64.mesh()
        u = np.cos(x1) * np.ones((1, 64))
        cfg = CouplingConfig("mean_field", (1.0,))
        out = rhs_scalar(grid64, u, cfg)
        i0 = sum(0.25**k / math.factorial(k) ** 2 for k in range(40))
        expected = np.e / (4 * np.pi**2 * i0) - 1 / (4 * np.pi**2)
        assert out[0, 0] == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5000), c=st.floats(-3, 3))
    def test_gauge_invariance(self, grid32, seed, c):
        cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        u = np.random.default_rng(seed).standard_normal((32, 32))
        a = rhs_scalar(grid32, u, cfg)
        b = rhs_scalar(grid32, u + c, cfg)
        assert np.abs(a - b).max() < 1e-12

    def test_exact_zero_mean(self, grid64, rng):
        cfg = CouplingConfig("sinh_gordon", (10.0, 7.0))
        u = 2.0 * rng.standard_normal((64, 64))
        out = rhs_scalar(grid64, u, cfg)
        assert abs(out.mean()) < 1e-16 * np.abs(out).max()

    def test_family_consistency(self, grid32, rng):
        u = random_smooth_field(grid32, rng, 3, 1.0)
        mf = rhs_scalar(grid32, u, CouplingConfig("mean_field", (5.0,)))
        sg0 = rhs_scalar(grid32, u, CouplingConfig("sinh_gordon", (5.0, 0.0)))
        assert np.abs(mf - sg0).max() < 1e-14
        sg = rhs_scalar(grid32, u, CouplingConfig("sinh_gordon", (5.0, 3.0)))
        asym1 = rhs_scalar(grid32, u, CouplingConfig("asymmetric_sinh", (5.0, 3.0), a=1.0))
        assert np.abs(sg - asym1).max() < 1e-14
        w = np.ones((32, 32))
        weighted = rhs_scalar(
            grid32, u, CouplingConfig("sinh_gordon", (5.0, 3.0), weights=(w, w))
        )
        assert np.abs(sg - weighted).max() < 1e-14

    def test_dynamic_range_error(self, grid32):
        cfg = CouplingConfig("sinh_gordon", (1.0, 1.0))
        bad = np.zeros((32, 32))
        bad[0, 0] = np.inf
        with pytest.raises(DynamicRangeError, match="dynamic range"):
            rhs_scalar(grid32, bad, cfg)

    def test_weighted_rhs_against_direct_evaluation(self, grid64, rng):
        x1, x2 = grid64.mesh()
        w1 = (1.0 + 0.5 * np.cos(x1)) * np.ones((64, 64))
        w2 = (1.0 + 0.3 * np.sin(x2)) * np.ones((64, 64))
        cfg = CouplingConfig("sinh_gordon", (2.0, 3.0), weights=(w1, w2))
        u = random_smooth_field(grid64, rng, 3, 1.0)
        out = rhs_scalar(grid64, u, cfg)
        d1 = w1 * np.exp(u) / grid64.integrate(w1 * np.exp(u))
        d2 = w2 * np.exp(-u) / grid64.integrate(w2 * np.exp(-u))
        direct = 2.0 * (d1 - 1 / grid64.area) - 3.0 * (d2 - 1 / grid64.area)
        direct -= direct.mean()
        assert np.abs(out - direct).max() < 1e-14

    def test_asymmetric_rhs_against_direct_evaluation(self, grid64, rng):
        cfg = CouplingConfig("asymmetric_sinh", (2.0, 3.0), a=2.0)
        u = random_smooth_field(grid64, rng, 3, 0.8)
        out = rhs_scalar(grid64, u, cfg)
        d1 = np.exp(u) / grid64.integrate(np.exp(u))
        d2 = np.exp(-2.0 * u) / grid64.integrate(np.exp(-2.0 * u))
        direct = 2.0 * (d1 - 1 / grid64.area) - 3.0 * (d2 - 1 / grid64.area)
        direct -= direct.mean()
        assert np.abs(out - direct).max() < 1e-14


class TestNonFiniteState:
    # the max of each exponential pass is the finiteness check: a NaN or a
    # +inf in u is out of dynamic range
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("family", ["mean_field", "sinh_gordon", "toda"])
    def test_rhs_fields_raises(self, grid32, rng, family, bad):
        if family == "toda":
            cfg = CouplingConfig("toda", (2.0, 3.0), matrix=cartan_matrix("A", 2))
        elif family == "mean_field":
            cfg = CouplingConfig("mean_field", (5.0,))
        else:
            cfg = CouplingConfig("sinh_gordon", (2.0, 3.0))
        u = np.stack([random_smooth_field(grid32, rng, 3, 1.0) for _ in range(cfg.ncomp)])
        u[-1, 5, 7] = bad
        with pytest.raises(DynamicRangeError, match="dynamic range"):
            rhs_fields(grid32, u, cfg)
        with pytest.raises(DynamicRangeError, match="dynamic range"):
            rhs_fields(grid32, u, cfg, return_log_normalizers=True)


class TestWeightLogs:
    @pytest.mark.parametrize("family", ["sinh_gordon", "toda"])
    def test_weighted_calls_take_no_grid_log(self, grid32, rng, monkeypatch, family):
        # the weights' logs are taken once, by CouplingConfig; the rhs and the
        # report add them without another log or positivity check per call
        x1, x2 = grid32.mesh()
        w = (
            (1.0 + 0.5 * np.cos(x1)) * np.ones((32, 32)),
            (1.0 + 0.3 * np.sin(x2)) * np.ones((32, 32)),
        )
        if family == "toda":
            cfg = CouplingConfig("toda", (3.0, 3.0), matrix=cartan_matrix("A", 2), weights=w)
        else:
            cfg = CouplingConfig("sinh_gordon", (2.0, 3.0), weights=w)
        u = np.stack([random_smooth_field(grid32, rng, 3, 1.0) for _ in range(cfg.ncomp)])
        state = wave_state_new(grid32, u, np.zeros_like(u))
        grid_logs = []
        real_log = np.log

        def counting_log(x, *args, **kwargs):
            if np.size(x) > 1:
                grid_logs.append(np.shape(x))
            return real_log(x, *args, **kwargs)

        monkeypatch.setattr(np, "log", counting_log)
        rhs_fields(grid32, u, cfg)
        evaluate_report(state, cfg)
        assert grid_logs == []


class TestTodaRhs:
    def test_zero_fields(self, grid32):
        cfg = CouplingConfig("toda", (2.0, 3.0), matrix=cartan_matrix("A", 2))
        out = rhs_toda(grid32, np.zeros((2, 32, 32)), cfg)
        assert np.abs(out).max() < 1e-15

    def test_equal_components_column_formula(self, grid64, rng):
        rho = (2.0, 3.0)
        cfg = CouplingConfig("toda", rho, matrix=cartan_matrix("A", 2))
        w = random_smooth_field(grid64, rng, 3, 1.0)
        out = rhs_toda(grid64, np.stack([w, w]), cfg)
        dens = np.exp(w) / grid64.integrate(np.exp(w))
        direct = (2 * rho[0] - rho[1]) * (dens - 1 / grid64.area)
        direct -= direct.mean()
        assert np.abs(out[0] - direct).max() < 1e-13

    def test_dense_summation_oracle(self, grid32, rng):
        rho = (1.5, 2.5, 0.5)
        mat = cartan_matrix("A", 3)
        cfg = CouplingConfig("toda", rho, matrix=mat)
        u = np.stack([random_smooth_field(grid32, rng, 3, 0.8) for _ in range(3)])
        out = rhs_toda(grid32, u, cfg)
        for i in range(3):
            acc = np.zeros((32, 32))
            for j in range(3):
                dens = np.exp(u[j]) / grid32.integrate(np.exp(u[j]))
                acc += mat.entries[i, j] * rho[j] * (dens - 1 / grid32.area)
            acc -= acc.mean()
            assert np.abs(out[i] - acc).max() < 1e-13

    def test_permutation_symmetry(self, grid32, rng):
        cfg = CouplingConfig("toda", (2.0, 2.0), matrix=cartan_matrix("A", 2))
        u = np.stack([random_smooth_field(grid32, rng, 3, 1.0) for _ in range(2)])
        out = rhs_toda(grid32, u, cfg)
        swapped = rhs_toda(grid32, u[::-1].copy(), cfg)
        assert np.abs(out - swapped[::-1]).max() < 1e-14

    def test_component_means_zero(self, grid32, rng):
        cfg = CouplingConfig("toda", (2.0, 3.0), matrix=cartan_matrix("A", 2))
        u = np.stack([random_smooth_field(grid32, rng, 3, 1.0) for _ in range(2)])
        out = rhs_toda(grid32, u, cfg)
        for i in range(2):
            assert abs(out[i].mean()) < 1e-17
