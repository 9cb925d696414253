import tracemalloc

import numpy as np
import pytest

import liouwave.kernels as kernels
import liouwave.propagator as prop
from liouwave import (
    CouplingConfig,
    bubble_field,
    cartan_matrix,
    picard_radius,
    picard_solve,
    picard_time,
    random_smooth_field,
    wave_state_new,
)
from liouwave.picard import _NodeDistance, first_contraction_ratio, sup_h1_distance


def small_state(grid, amp=0.05, seed=20):
    gen = np.random.default_rng(seed)
    u0 = random_smooth_field(grid, gen, 3, amp)
    u1 = random_smooth_field(grid, gen, 3, amp / 2, zero_mean=True, norm="l2")
    return wave_state_new(grid, u0, u1)


SG = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
TODA = CouplingConfig("toda", (3 * np.pi, 3 * np.pi), matrix=cartan_matrix("A", 2))


class TestPicardRadius:
    def test_zero_state(self, grid32):
        st = wave_state_new(grid32, np.zeros((32, 32)), np.zeros((32, 32)))
        assert picard_radius(st) == 0.0

    def test_cosine_value(self, grid32):
        x1, _ = grid32.mesh()
        st = wave_state_new(grid32, np.cos(x1) * np.ones((1, 32)), np.zeros((32, 32)))
        assert picard_radius(st) == pytest.approx(6 * np.pi, rel=1e-12)

    def test_homogeneity(self, grid32):
        st = small_state(grid32, 0.8)
        scaled = wave_state_new(grid32, 3.0 * st.u, 3.0 * st.v)
        assert picard_radius(scaled) == pytest.approx(3.0 * picard_radius(st), rel=1e-12)


def test_half_spectrum_path_distance_matches_full(grid32, rng):
    # Parseval over the full spectrum of real fields, the definition the
    # Hermitian column weights of the half spectrum must reproduce
    shape = (3, 2, 32, 32)
    au, av, bu, bv = (rng.standard_normal(shape) for _ in range(4))
    dist = _NodeDistance(grid32, (2, 32, 17))
    d = max(dist(*(np.fft.rfft2(x[j]) for x in (au, av, bu, bv))) for j in range(shape[0]))
    norm = grid32.area / (32 * 32) ** 2
    du, dv = np.fft.fft2(au - bu), np.fft.fft2(av - bv)
    h1 = np.sqrt(norm * ((1.0 + grid32.lap_symbol) * np.abs(du) ** 2).sum(axis=(1, 2, 3)))
    l2 = np.sqrt(norm * (np.abs(dv) ** 2).sum(axis=(1, 2, 3)))
    assert d == pytest.approx(float((h1 + l2).max()), rel=1e-12)


def _parseval_norm(norm, weights, dh):
    # the whole-path formula the per-node distance replaced: sqrt(norm * sum
    # of weights * |dh|^2) over components and modes
    return np.sqrt(norm * (weights * (dh.real**2 + dh.imag**2)).sum(axis=(-3, -2, -1)))


@pytest.mark.parametrize("ncomp", [1, 2])
def test_node_distance_matches_whole_path_formula(grid32, rng, ncomp):
    shape = (5, ncomp, 32, 32)
    au, av, bu, bv = (np.fft.rfft2(rng.standard_normal(shape)) for _ in range(4))
    colw = grid32.half_column_weights
    norm = grid32.area / (32 * 32) ** 2
    h1 = _parseval_norm(norm, (1.0 + grid32.lap_symbol[:, : colw.size]) * colw, au - bu)
    l2 = _parseval_norm(norm, colw, av - bv)
    dist = _NodeDistance(grid32, au.shape[1:])
    d = [dist(au[j], av[j], bu[j], bv[j]) for j in range(5)]
    np.testing.assert_allclose(d, h1 + l2, rtol=1e-12, atol=0)
    np.testing.assert_allclose([dist.h1(au[j], bu[j]) for j in range(5)], h1, rtol=1e-12, atol=0)
    assert dist(au[0], av[0], au[0], av[0]) == 0.0


def _frozen_loop(u0h, v0h, factors, m, forcing):
    # nodes 0..m of the frozen-forcing update, forcing(j) frozen over step j,
    # each step in numpy expressions
    cos, sinc, q, wsin = factors
    uh = np.empty((m + 1,) + u0h.shape, dtype=complex)
    vh = np.empty_like(uh)
    uh[0], vh[0] = u0h, v0h
    for j in range(m):
        fh = forcing(j)
        uh[j + 1] = cos * uh[j] + sinc * vh[j] + q * fh
        vh[j + 1] = cos * vh[j] - wsin * uh[j] + sinc * fh
    return uh, vh


def _iterate(grid, st, h, m, k, dealias=True):
    # the nodes (uh, vh) of the k-th Picard iterate from the free path on m
    # steps of h, each iterate by the frozen-forcing loop over the one before
    step = prop.Stepper(grid, h, SG, "frozen", dealias)
    u0h, v0h = grid.to_spectral_half_stack(st.u), grid.to_spectral_half_stack(st.v)
    path = _frozen_loop(u0h, v0h, step.factors, m, lambda j: np.zeros_like(u0h))
    for _ in range(k):
        def forcing(j, prev=path[0]):
            return step.forcing(grid.to_physical_half_stack(prev[j]))[0]
        path = _frozen_loop(u0h, v0h, step.factors, m, forcing)
    return path


class TestOnePathBuffer:
    """The iterates overwrite one path; the solve returns its last counted
    iterate, also when it draws one more for the first ratio."""

    def check_last_counted(self, grid, st, states, rep, h, dealias=True):
        # the path's replayed nodes are those of the counted iterate, bit
        # for bit, and the states are their transforms
        m = len(states) - 1
        expect_uh, expect_vh = _iterate(grid, st, h, m, rep.iterations, dealias)
        read = 0
        for j, ((uh, vh), s) in enumerate(zip(rep.path.nodes(), states)):
            assert np.array_equal(uh, expect_uh[j]) and np.array_equal(vh, expect_vh[j])
            assert np.array_equal(s.u, grid.to_physical_half_stack(uh))
            assert np.array_equal(s.v, grid.to_physical_half_stack(vh))
            read += 1
        assert read == m + 1

    def test_one_iteration_keeps_the_counted_iterate(self, grid32):
        # the second correction is drawn after the solve stops
        st = small_state(grid32)
        states, rep = picard_solve(st, SG, 0.05, 1e-3, max_iter=1)
        assert rep.iterations == 1 and not rep.converged
        assert len(rep.first_distances) == 2 and 0 < rep.first_ratio() < 1
        self.check_last_counted(grid32, st, states, rep, 1e-3)

    def test_diverging_solve_keeps_the_counted_iterate(self, grid32):
        st = small_state(grid32, 1.0)
        states, rep = picard_solve(st, SG, 24.0, 0.5, tol=1e-12, max_iter=12)
        assert not rep.converged and rep.iterations < 12
        assert all(r >= 1.0 for r in rep.contraction_ratios[-3:])
        self.check_last_counted(grid32, st, states, rep, 0.5)

    @pytest.mark.parametrize("dealias", [True, False])
    def test_orbits_through_the_one_stepper_leave_node_0(self, grid32, dealias):
        # the solve, picard-verify's orbit and two interleaved replays all
        # step through the path's stepper, each from a copy of node 0: node
        # 0 stays the data's transforms and the replays the counted iterate
        st = small_state(grid32)
        states, rep = picard_solve(st, SG, 0.05, 1e-3, dealias=dealias)
        u0h, v0h = rep.path.u0h.copy(), rep.path.v0h.copy()
        assert np.array_equal(u0h, grid32.to_spectral_half_stack(st.u))
        assert np.array_equal(v0h, grid32.to_spectral_half_stack(st.v))
        assert sup_h1_distance(rep.path, st) <= 1e-8
        self.check_last_counted(grid32, st, states, rep, 1e-3, dealias)
        assert np.array_equal(rep.path.u0h, u0h) and np.array_equal(rep.path.v0h, v0h)


def _traced_peak(run):
    # tracemalloc peak of run(), after one untraced call for first-call
    # allocations
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStates:
    """The solve holds its path as node 0 and each step's kept forcing
    block, and returns it as states replayed and transformed when read."""

    m = 50

    @staticmethod
    def node_bytes(grid):
        # one node's half spectrum of u (or of v), one component
        return grid.n1 * (grid.n2 // 2 + 1) * 16

    def test_peak_is_the_forcing_path_and_scratch(self, grid32):
        # the solve plus one pass over its states peaks at the path plus
        # about 25 nodes of scratch (factors, node buffers, forcing); the
        # node path the forcing path replaced is 2*(m+1) = 102 nodes
        st = small_state(grid32)
        held = {}

        def solve_and_read():
            held["states"], held["rep"] = picard_solve(st, SG, 0.05, 1e-3)
            for _ in held["states"]:
                pass

        peak = _traced_peak(solve_and_read)
        path = held["rep"].path
        kept = path.forcing.nbytes + path.u0h.nbytes + path.v0h.nbytes
        assert peak < kept + 30 * self.node_bytes(grid32)

    def test_one_iteration_solve_holds_one_path(self, grid32):
        # the uncounted second correction reads the counted iterate: no
        # copy of the path, so no more than one node above a converged solve
        st = small_state(grid32)
        converged = _traced_peak(lambda: picard_solve(st, SG, 0.05, 1e-3))
        one = _traced_peak(lambda: picard_solve(st, SG, 0.05, 1e-3, max_iter=1))
        assert one <= converged + self.node_bytes(grid32)

    @pytest.mark.parametrize("dealias", [True, False])
    @pytest.mark.parametrize("cfg", [SG, TODA], ids=["sinh_gordon", "toda"])
    def test_path_holds_the_kept_forcing(self, grid32, dealias, cfg):
        gen = np.random.default_rng(5)
        u0 = np.stack([random_smooth_field(grid32, gen, 3, 0.05) for _ in range(cfg.ncomp)])
        st = wave_state_new(grid32, u0, np.zeros_like(u0))
        _, rep = picard_solve(st, cfg, 0.05, 1e-3, dealias=dealias)
        n = grid32.n1
        per_step = (2 * (n // 3) + 1) * (n // 3 + 1) if dealias else n * (n // 2 + 1)
        assert rep.path.forcing.dtype == np.complex128
        assert rep.path.forcing.size == self.m * cfg.ncomp * per_step

    def test_one_pass_makes_m_combines(self, grid32, monkeypatch):
        st = small_state(grid32)
        states, _ = picard_solve(st, SG, 0.05, 1e-3)
        calls = []
        combine = kernels.gautschi_combine

        def counted(*args, **kwargs):
            calls.append(1)
            return combine(*args, **kwargs)

        monkeypatch.setattr(kernels, "gautschi_combine", counted)
        assert sum(1 for _ in states) == self.m + 1
        assert len(calls) == self.m
        calls.clear()
        states[7]
        assert len(calls) == 7

    def test_length_times_and_indexes(self, grid32):
        base = small_state(grid32)
        st = wave_state_new(grid32, base.u, base.v, 0.3)
        states, rep = picard_solve(st, SG, 0.05, 1e-3)
        m = self.m
        assert len(states) == m + 1
        assert states[-1].t == st.t + rep.T
        assert [s.t for s in states] == [st.t + j * 1e-3 for j in range(m + 1)]
        for j in (0, 7, m):
            assert np.array_equal(states[j - m - 1].u, states[j].u)
            assert np.array_equal(states[j - m - 1].v, states[j].v)
        for j in (m + 1, -m - 2):
            with pytest.raises(IndexError):
                states[j]
        with pytest.raises(TypeError):
            states[1:3]

    def test_passes_are_bit_identical(self, grid32):
        st = small_state(grid32)
        states, _ = picard_solve(st, SG, 0.05, 1e-3)
        first = [(s.u, s.v) for s in states]
        second = [(s.u, s.v) for s in states]
        assert len(first) == len(second) == len(states)
        for (u1, v1), (u2, v2) in zip(first, second):
            assert u1 is not u2
            assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
        for j in (0, 7, len(states) - 1):
            assert np.array_equal(states[j].u, first[j][0])
            assert np.array_equal(states[j].v, first[j][1])


class TestPicardSolve:
    def test_zero_data_one_iteration(self, grid32):
        st = wave_state_new(grid32, np.zeros((32, 32)), np.zeros((32, 32)))
        states, rep = picard_solve(st, SG, 0.05, 1e-3)
        assert rep.converged
        assert rep.iterations == 1
        assert rep.final_distance == 0.0
        assert all(np.abs(s.u).max() == 0.0 for s in states)

    def test_converges_and_matches_frozen_stepper(self, grid32):
        st = small_state(grid32)
        T, h = 0.05, 1e-3
        states, rep = picard_solve(st, SG, T, h, tol=1e-10)
        assert rep.converged
        assert rep.final_distance <= 1e-10
        assert all(r < 1.0 for r in rep.contraction_ratios)
        # the fixed point is the frozen-scheme orbit on the same grid
        step = prop.Stepper(grid32, h, SG, "frozen")
        u, v = st.u.copy(), st.v.copy()
        sup = 0.0
        for k, s_k in enumerate(states):
            if k > 0:
                u, v = step.advance(u, v)
            sup = max(sup, grid32.norm_h1(s_k.u[0] - u[0]) + grid32.norm_l2(s_k.v[0] - v[0]))
        assert sup <= 1e-8

    def test_iterates_preserve_mean(self, grid32):
        gen = np.random.default_rng(31)
        u0 = random_smooth_field(grid32, gen, 3, 0.5) + 1.3
        st = wave_state_new(grid32, u0, np.zeros((32, 32)))
        states, rep = picard_solve(st, SG, 0.04, 2e-3)
        m0 = grid32.mean(st.u[0])
        for s in states:
            assert abs(grid32.mean(s.u[0]) - m0) <= 1e-12

    def test_divergence_reported(self, grid32):
        # long horizon: three measured ratios >= 1 make the solver give up
        # before the iteration cap
        st = small_state(grid32, 1.0)
        states, rep = picard_solve(st, SG, 24.0, 0.5, tol=1e-12, max_iter=12)
        assert not rep.converged
        assert rep.iterations < 12
        assert len(rep.contraction_ratios) >= 3
        assert all(r >= 1.0 for r in rep.contraction_ratios[-3:])

    def test_validates_arguments(self, grid32):
        st = small_state(grid32)
        with pytest.raises(ValueError):
            picard_solve(st, SG, -0.1, 1e-3)
        with pytest.raises(ValueError):
            picard_solve(st, SG, 0.1, 1e-3, tol=0.0)
        with pytest.raises(ValueError):
            picard_solve(st, SG, 0.1, 1e-3, max_iter=0)


class TestContractionRatios:
    def test_ratio_shrinks_with_horizon(self, grid32):
        st = small_state(grid32)
        r_full = first_contraction_ratio(st, SG, 0.05, steps=50)
        r_half = first_contraction_ratio(st, SG, 0.025, steps=25)
        assert 0 < r_half < r_full < 1

    def test_nonincreasing_in_T_on_average(self, grid32):
        ratios_T, ratios_half = [], []
        for seed in (1, 2, 3, 4):
            st = small_state(grid32, 0.4, seed)
            ratios_T.append(first_contraction_ratio(st, SG, 0.2, steps=32))
            ratios_half.append(first_contraction_ratio(st, SG, 0.1, steps=16))
        assert np.mean(ratios_half) <= np.mean(ratios_T)


class TestPicardTime:
    def test_zero_data_returns_trial(self, grid32):
        st = wave_state_new(grid32, np.zeros((32, 32)), np.zeros((32, 32)))
        assert picard_time(st, SG, 0.5, trial_T=0.37) == 0.37

    def test_target_window_and_doubling(self, grid32):
        st = small_state(grid32, 0.5)
        t_mid = picard_time(st, SG, 0.5, trial_T=0.5)
        r_mid = first_contraction_ratio(st, SG, t_mid, steps=32)
        assert 0.25 <= r_mid <= 0.5
        t_big = picard_time(st, SG, 0.99, trial_T=0.5)
        assert 1.5 <= t_big / t_mid <= 3.0

    def test_larger_data_smaller_horizon(self, grid32):
        # concentrated profiles, where the exponential Lipschitz growth bites
        bub = bubble_field(grid32, (np.pi, np.pi), 4.0)
        t_small = picard_time(
            wave_state_new(grid32, bub, np.zeros((32, 32))), SG, 0.5
        )
        t_large = picard_time(
            wave_state_new(grid32, 2.0 * bub, np.zeros((32, 32))), SG, 0.5
        )
        assert t_large < t_small

    def test_rejects_bad_target(self, grid32):
        st = small_state(grid32)
        with pytest.raises(ValueError):
            picard_time(st, SG, 1.5)
