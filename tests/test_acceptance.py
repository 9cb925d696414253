"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; the random data is seeded and the expected
behavior was derived with the independent oracles in liouwave.oracle or
directly from the defining formulas.  Run with `pytest tests/test_acceptance.py -v -s`
to see the summary lines.
"""

import math
import time

import numpy as np
import pytest

from liouwave import (
    ConcentrationQuery,
    CouplingConfig,
    MonitorThresholds,
    StepperConfig,
    bubble_field,
    cartan_matrix,
    concentration_window,
    dense_evolve,
    density,
    detect_concentration,
    energy,
    evolve,
    functional_J,
    grad_J,
    make_torus_grid,
    picard_solve,
    random_smooth_field,
    rhs_fields,
    wave_state_new,
)
from liouwave.picard import first_contraction_ratio

LOG_AREA = np.log(4 * np.pi**2)


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE #{num:<2} {tag}  {desc}{suffix}")
    assert ok, f"criterion {num}: {desc} {suffix}"


def seeded_state(grid, seed, amp_u, amp_v, ncomp=1, kmax=4):
    gen = np.random.default_rng(seed)
    u0 = np.stack([random_smooth_field(grid, gen, kmax, amp_u) for _ in range(ncomp)])
    u1 = np.stack(
        [random_smooth_field(grid, gen, kmax, amp_v, zero_mean=True, norm="l2") for _ in range(ncomp)]
    )
    return wave_state_new(grid, u0, u1)


def max_mean_drift(traj):
    m0 = traj.reports[0].means
    du = max(abs(r.means[i] - m0[i]) for r in traj.reports for i in range(len(m0)))
    dv = max(abs(vm) for r in traj.reports for vm in r.v_means)
    return du, dv


def max_energy_drift(traj):
    e0 = traj.reports[0].E
    return max(abs(r.E - e0) / (1.0 + abs(e0)) for r in traj.reports)


def test_criterion_1_linear_exactness(checkpoint_log):
    grid = make_torus_grid(64, 64)
    x1, _ = grid.mesh()
    st = wave_state_new(grid, np.cos(x1) * np.ones((1, 64)), np.zeros((64, 64)))
    cfg = CouplingConfig("sinh_gordon", (0.0, 0.0))
    stepper = StepperConfig(h=0.1, scheme="symmetric", sample_every=1)
    t0 = time.perf_counter()
    checkpoints = checkpoint_log()
    evolve(st, 10.0, stepper, cfg, snapshot_every=1, on_checkpoint=checkpoints)
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for step, snap in checkpoints:
        exact = np.cos(step * 0.1) * np.cos(x1) * np.ones((1, 64))
        worst = max(worst, float(np.abs(snap.u[0] - exact).max()))
    report(
        1,
        "linear eigenmode exact to 1e-12 at every sample, runtime < 1 s",
        worst <= 1e-12 and elapsed < 1.0,
        f"max err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_mean_conservation_battery():
    grid = make_torus_grid(64, 64)
    runs = [
        ("sinh_gordon", CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi)), 1),
        ("mean_field", CouplingConfig("mean_field", (5 * np.pi,)), 1),
        ("asymmetric", CouplingConfig("asymmetric_sinh", (4 * np.pi, 2 * np.pi), a=2.0), 1),
        ("toda A2", CouplingConfig("toda", (2 * np.pi, 2 * np.pi), matrix=cartan_matrix("A", 2)), 2),
    ]
    worst_u = worst_v = 0.0
    for _, cfg, ncomp in runs:
        st = seeded_state(grid, 17, 1.0, 0.5, ncomp)
        st.u += 0.3  # nonzero average to make the conservation visible
        traj = evolve(st, 1.0, StepperConfig(h=2e-3, sample_every=25), cfg)
        du, dv = max_mean_drift(traj)
        worst_u, worst_v = max(worst_u, du), max(worst_v, dv)
    report(
        2,
        "component averages conserved to 1e-12 and velocity means stay below 1e-12",
        worst_u <= 1e-12 and worst_v <= 1e-12,
        f"max |ubar(t)-ubar(0)| {worst_u:.2e}, max |vbar| {worst_v:.2e}",
    )


def test_criterion_3_energy_conservation_sinh():
    grid = make_torus_grid(128, 128)
    cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
    st = seeded_state(grid, 11, 6.0, 3.0)
    t0 = time.perf_counter()
    traj = evolve(st, 10.0, StepperConfig(h=1e-3, sample_every=200), cfg)
    elapsed = time.perf_counter() - t0
    drift = max_energy_drift(traj)
    du, dv = max_mean_drift(traj)
    traj_half = evolve(st, 10.0, StepperConfig(h=5e-4, sample_every=400), cfg)
    factor = drift / max_energy_drift(traj_half)
    ok = (
        traj.status == "completed"
        and drift <= 1e-6
        and 3.0 <= factor <= 5.0
        and elapsed < 120.0
        and du <= 1e-12
        and dv <= 1e-12
    )
    report(
        3,
        "sinh-Gordon energy drift <= 1e-6 at h=1e-3, halving factor in [3,5], runtime < 2 min",
        ok,
        f"drift {drift:.2e}, factor {factor:.2f}, {elapsed:.0f} s",
    )


def test_criterion_4_energy_conservation_toda():
    grid = make_torus_grid(128, 128)
    cfg = CouplingConfig("toda", (3 * np.pi, 3 * np.pi), matrix=cartan_matrix("A", 2))
    st = seeded_state(grid, 11, 6.0, 3.0, ncomp=2)
    t0 = time.perf_counter()
    traj = evolve(st, 10.0, StepperConfig(h=1e-3, sample_every=200), cfg)
    elapsed = time.perf_counter() - t0
    drift = max_energy_drift(traj)
    du, dv = max_mean_drift(traj)
    traj_half = evolve(st, 10.0, StepperConfig(h=5e-4, sample_every=400), cfg)
    factor = drift / max_energy_drift(traj_half)
    ok = (
        traj.status == "completed"
        and drift <= 1e-6
        and 3.0 <= factor <= 5.0
        and elapsed < 120.0
        and du <= 1e-12
        and dv <= 1e-12
    )
    report(
        4,
        "Toda (A2) energy drift <= 1e-6 at h=1e-3, halving factor in [3,5], runtime < 2 min",
        ok,
        f"drift {drift:.2e}, factor {factor:.2f}, {elapsed:.0f} s",
    )


def test_criterion_5_picard_agreement():
    grid = make_torus_grid(32, 32)
    cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
    st = seeded_state(grid, 20, 0.05, 0.02, kmax=3)
    T, h = 0.05, 1e-3
    states, rep = picard_solve(st, cfg, T, h, tol=1e-10)

    import liouwave.propagator as prop

    step = prop.Stepper(grid, h, cfg, "frozen")
    u, v = st.u.copy(), st.v.copy()
    sup = 0.0
    for k, s_k in enumerate(states):
        if k > 0:
            u, v = step.advance(u, v)
        sup = max(sup, grid.norm_h1(s_k.u[0] - u[0]))
    r_full = first_contraction_ratio(st, cfg, T, steps=round(T / h))
    r_half = first_contraction_ratio(st, cfg, T / 2, steps=round(T / 2 / h))
    # the absolute gate alone passes the first iterate on data this small;
    # relative to the first correction d(Fu, u) it does not
    d0 = float(rep.first_distances[0].max())
    ok = (
        rep.converged
        and all(r < 1.0 for r in rep.contraction_ratios)
        and sup <= 1e-8
        and sup <= 1e-8 * d0
        and r_half < r_full
    )
    report(
        5,
        "Picard converges (ratios < 1), sup-H1 agreement <= 1e-8 and <= 1e-8 * max d(Fu, u), "
        "ratio(T/2) < ratio(T)",
        ok,
        f"sup {sup:.2e} (sup/d0 {sup / d0:.1e}), ratios {r_half:.2e} < {r_full:.2e}",
    )


def test_criterion_6_oracle_equivalence():
    grid = make_torus_grid(16, 16)
    cfg = CouplingConfig("sinh_gordon", (np.pi, np.pi))
    st = seeded_state(grid, 42, 0.2, 0.1, kmax=3)
    rhs_eval = lambda u: rhs_fields(grid, u, cfg)
    h = 2e-3
    main_steps = round(1.0 / h)
    t0 = time.perf_counter()
    traj = evolve(st, 1.0, StepperConfig(h=h, sample_every=10**9), cfg)
    ref = dense_evolve(st, 1.0, rhs_eval, substeps=100 * main_steps, dealias=True)
    elapsed = time.perf_counter() - t0
    diff = grid.norm_l2(traj.final_state.u[0] - ref.u[0])
    ok = diff <= 1e-8 and elapsed < 30.0
    report(
        6,
        "evolve() matches dense RK4 eigenbasis oracle to 1e-8 in L2, runtime < 30 s",
        ok,
        f"diff {diff:.2e}, {elapsed:.0f} s",
    )


def test_criterion_7_subcritical_boundedness():
    grid = make_torus_grid(64, 64)
    cfg = CouplingConfig("sinh_gordon", (7 * np.pi, 7 * np.pi))
    st = seeded_state(grid, 8, 1.5, 0.75)
    traj = evolve(
        st, 50.0, StepperConfig(h=2e-3, sample_every=50), cfg, monitor=MonitorThresholds()
    )
    grads = np.array([r.grad_l2 for r in traj.reports])
    times = np.array(traj.times)
    early = grads[times <= 1.0 + 1e-12].max()
    ratio = grads.max() / early
    jensen = all(
        r.log_plus >= LOG_AREA - 1e-12 and r.log_minus >= LOG_AREA - 1e-12
        for r in traj.reports
    )
    du, dv = max_mean_drift(traj)
    ok = (
        traj.status == "completed"
        and not traj.concentration
        and ratio <= 10.0
        and jensen
        and du <= 1e-12
        and dv <= 1e-12
    )
    report(
        7,
        "subcritical 7pi run completes; gradients bounded by 10x early max; Jensen holds",
        ok,
        f"status {traj.status}, ratio {ratio:.2f}",
    )


def test_criterion_8_supercritical_concentration():
    grid = make_torus_grid(128, 128)
    center = (np.pi, np.pi)
    lams = (2.0, 4.0, 8.0, 16.0, 32.0)
    jvals = []
    detections = {}
    for lam in lams:
        u = bubble_field(grid, center, lam)
        jvals.append(functional_J(grid, u, CouplingConfig("sinh_gordon", (10 * np.pi, 0.0))))
        dens = density(grid, u, +1.0)
        detections[lam] = detect_concentration(
            grid, dens, ConcentrationQuery(m=1, r=0.5, eps=0.1)
        )
    decreasing = all(b < a for a, b in zip(jvals, jvals[1:]))
    cell = math.hypot(grid.L1 / grid.n1, grid.L2 / grid.n2)
    located = True
    for lam in (8.0, 16.0, 32.0):
        det = detections[lam]
        p = det.points[0]
        dist = math.hypot(
            min(abs(p[0] - center[0]), grid.L1 - abs(p[0] - center[0])),
            min(abs(p[1] - center[1]), grid.L2 - abs(p[1] - center[1])),
        )
        located = located and det.covered_fraction >= 0.9 and dist <= cell
    windows = (
        concentration_window(10 * np.pi, 8 * np.pi) == 1
        and concentration_window(17 * np.pi, 8 * np.pi) == 2
    )
    ok = decreasing and located and windows
    report(
        8,
        "bubble family: J strictly decreasing, detector >= 0.9 within one cell, windows exact",
        ok,
        f"J {jvals[0]:.1f} -> {jvals[-1]:.1f}",
    )


def test_criterion_9_quadrature_and_functional_spot_values():
    grid = make_torus_grid(64, 64)
    x1, _ = grid.mesh()
    i0 = sum(0.25**k / math.factorial(k) ** 2 for k in range(40))
    val = grid.integrate(np.exp(np.cos(x1)) * np.ones((1, 64)))
    quad_ok = abs(val - 4 * np.pi**2 * i0) <= 1e-10 * 4 * np.pi**2 * i0

    rho1, rho2 = 4 * np.pi, 3 * np.pi
    j0 = functional_J(grid, np.zeros((64, 64)), CouplingConfig("sinh_gordon", (rho1, rho2)))
    j_ok = abs(j0 + (rho1 + rho2) * LOG_AREA) <= 1e-12 * abs(j0)

    cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
    gen = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        u0 = random_smooth_field(grid, gen, 4, 1.5)
        u1 = random_smooth_field(grid, gen, 4, 0.8, zero_mean=True, norm="l2")
        st = wave_state_new(grid, u0, u1)
        e = energy(st, cfg)
        k = 0.5 * grid.norm_l2(st.v[0]) ** 2
        j = functional_J(grid, st.u, cfg)
        worst = max(worst, abs(e - (k + j)) / (1.0 + abs(e)))
    identity_ok = worst <= 1e-10
    report(
        9,
        "Bessel quadrature 1e-10, J(0) exact, E = kinetic + J on 100 random states",
        quad_ok and j_ok and identity_ok,
        f"quad rel {abs(val - 4*np.pi**2*i0)/(4*np.pi**2*i0):.1e}, identity {worst:.1e}",
    )


def test_criterion_10_stability_and_gradient():
    grid = make_torus_grid(64, 64)
    cfg = CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
    st = seeded_state(grid, 5, 1.0, 0.5)
    delta = 1e-6
    bump = bubble_field(grid, (2.0, 3.0), 2.0)
    bump *= delta / grid.norm_h1(bump)
    pert = wave_state_new(grid, st.u[0] + bump, st.v[0])

    import liouwave.propagator as prop

    step = prop.Stepper(grid, 1e-3, cfg, "symmetric")
    ua, va = st.u.copy(), st.v.copy()
    ub, vb = pert.u.copy(), pert.v.copy()
    sup = 0.0
    for k in range(1000):
        ua, va = step.advance(ua, va)
        ub, vb = step.advance(ub, vb)
        if (k + 1) % 50 == 0:
            sup = max(sup, grid.norm_h1(ub[0] - ua[0]))
    stability_ok = sup <= 100.0 * delta

    u = bubble_field(grid, (np.pi, np.pi), 3.0) * 1.2
    phi = bubble_field(grid, (2.0, 4.0), 2.0) * 1.5
    fd_cfg = CouplingConfig("sinh_gordon", (8 * np.pi, 0.0))
    inner = grid.integrate(grad_J(grid, u, fd_cfg) * phi)
    errs = []
    for eps in (1e-3, 1e-4):
        fd = (
            functional_J(grid, u + eps * phi, fd_cfg)
            - functional_J(grid, u - eps * phi, fd_cfg)
        ) / (2 * eps)
        errs.append(abs(fd - inner))
    ratio = errs[0] / errs[1]
    gradient_ok = 80.0 <= ratio <= 120.0
    report(
        10,
        "perturbation growth <= 100x delta at T=1; gradient FD ratio 100 +/- 20%",
        stability_ok and gradient_ok,
        f"sup/delta {sup/delta:.2f}, FD ratio {ratio:.1f}",
    )
