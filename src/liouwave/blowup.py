"""Concentration detection and blow-up alarms.

The normalized measures of the equation (`rhs.equation_measures`: h1 e^u and
h2 e^{-a u}, or h_j e^{u_j} per Toda component) are probability densities on
the torus; finite-time singularity formation announces itself through
gradient and log-integral growth together with those densities piling their
mass into finitely many metric balls.  This module computes the densities,
their ball-mass maps, a deterministic greedy point detector, and the monitor
that evolve() consults, including the coupling-window arithmetic (each
measure's rho and window width from the table) that fixes how many
concentration points to look for.

The monitor decides a sample's alarm, once: it returns the stop reason
that `evolve` records, or None.  On a quiet sample it makes no transform
and no log-sum-exp of its own: it thresholds the gradient norm and the
measures' log-integrals of the sample's `FunctionalReport`, which `evolve`
builds from the half spectra it carries.  Only an alarm builds densities
and runs the detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import StopReason
from .functionals import evaluate_report
from .rhs import CouplingConfig, equation_measures
from .surface import SpectralGrid


@dataclass
class ConcentrationQuery:
    """Detector parameters: up to m points, metric balls of radius r, target
    residual eps, minimum pairwise separation delta."""

    m: int
    r: float
    eps: float
    delta: float = 0.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not self.r > 0:
            raise ValueError("ball radius must be positive")
        if not (0 < self.eps < 1):
            raise ValueError("eps must lie in (0, 1)")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


@dataclass
class ConcentrationReport:
    """Detector output for one measure."""

    sign: int
    points: list
    ball_fractions: list
    covered_fraction: float
    alarmed: bool
    component: int = 0


@dataclass
class MonitorThresholds:
    """Alarm thresholds and detector query defaults for blowup_monitor."""

    grad_l2: float = 1e3
    log_int: float = 50.0
    r: float = 0.5
    eps: float = 0.1
    delta: float = 0.0

    def __post_init__(self):
        if not (self.grad_l2 > 0 and self.log_int > 0):
            raise ValueError("monitor thresholds must be positive")
        ConcentrationQuery(1, self.r, self.eps, self.delta)  # the detector's rules


def density(grid: SpectralGrid, u: np.ndarray, sign: float = 1.0) -> np.ndarray:
    """e^{sign*u} / int(e^{sign*u}); integrates to 1 up to round-off and is
    overflow-safe for any finite u."""
    dens, _ = grid.normalized_exp(u, sign)
    return dens


def ball_fits(r: float, L1: float, L2: float) -> bool:
    """Whether metric balls of radius r fit the L1 x L2 torus: r is below
    half the shortest period, so a ball does not wrap onto itself."""
    return r < min(L1, L2) / 2


def _ball_kernel_half(grid: SpectralGrid, r: float) -> np.ndarray:
    """Half spectrum of the discretized indicator of the ball B(0, r)."""
    if not ball_fits(r, grid.L1, grid.L2):
        raise ValueError("ball radius must be below half the shortest period")
    return grid.to_spectral_half_stack((grid.torus_distance((0.0, 0.0)) <= r).astype(float))


def ball_mass_map(grid: SpectralGrid, dens: np.ndarray, r: float, kernel_half=None) -> np.ndarray:
    """integral of `dens` over the metric ball B(x, r), for every center x,
    via circular convolution with the discretized ball indicator on half
    (rfft) spectra.  `kernel_half`, the indicator's half spectrum for this
    r, is transformed here when not given."""
    if kernel_half is None:
        kernel_half = _ball_kernel_half(grid, r)
    conv = grid.to_physical_half_stack(grid.to_spectral_half_stack(dens) * kernel_half)
    out = conv * grid.cell_area
    np.maximum(out, 0.0, out=out)
    return out


def detect_concentration(
    grid: SpectralGrid, dens: np.ndarray, query: ConcentrationQuery, sign: int = 1,
    component: int = 0,
) -> ConcentrationReport:
    """Greedy peak selection.

    Up to m times: take the center maximizing the current ball-mass map
    (first grid index on ties), then zero the density and exclude further
    centers within distance max(delta, 2r), which keeps the accepted points
    pairwise separated and their balls disjoint.  The covered fraction is
    the mass of the *original* density over the union of accepted balls.
    The ball indicator is transformed once per call, and each pass makes
    one rfft and one irfft.
    """
    kernel_half = _ball_kernel_half(grid, query.r)
    work = np.array(dens, dtype=float)
    allowed = np.ones_like(work, dtype=bool)
    exclusion = max(query.delta, 2.0 * query.r)
    points = []
    fractions = []
    union = np.zeros_like(work, dtype=bool)
    for _ in range(query.m):
        masses = np.where(allowed, ball_mass_map(grid, work, query.r, kernel_half), -np.inf)
        flat = int(np.argmax(masses))
        i1, i2 = divmod(flat, grid.n2)
        center = (grid.x1[i1], grid.x2[i2])
        dist = grid.torus_distance(center)
        points.append(center)
        fractions.append(float(masses[i1, i2]))
        union |= dist <= query.r
        near = dist < exclusion
        work[near] = 0.0
        allowed &= ~near
        if not allowed.any():
            break
    covered = float((dens * union).sum() * grid.cell_area)
    return ConcentrationReport(
        sign=sign,
        points=points,
        ball_fractions=fractions,
        covered_fraction=covered,
        alarmed=covered >= 1.0 - query.eps,
        component=component,
    )


def concentration_window(rho: float, step: float) -> int:
    """Index m of the half-open window [m*step, (m+1)*step) containing rho."""
    return int(math.floor(rho / step))


def blowup_monitor(state, cfg: CouplingConfig, thresholds: MonitorThresholds, report=None):
    """Check the blow-up signatures and, when tripped, locate concentration.

    Returns (reason, reports): reason is None on a quiet slice, else the
    `fields.StopReason` it trips at `report.t`, "grad_l2" when the report's
    gradient norm (the largest over components) reaches its threshold, else
    "log_int(<measure name>)" for the measure with the largest centred log
    integral log int w e^{sign*a*(u - ubar)} at or above its threshold among
    the equation's measures with nonzero rho (`rhs.equation_measures`;
    weights and the asymmetry exponent included); reports are the
    detector's, empty on a quiet slice.  Constant states, which are
    stationary, stay quiet.  Both signals are read from `report`, the
    slice's `FunctionalReport`, which is built here only when none is
    passed.  The number of points per measure comes from the coupling
    windows: floor(rho_i / 8 pi) for the scalar families, floor(rho_i / 4 pi)
    per component for coupled systems (critical endpoints land in the
    higher window).

    The underlying dichotomy concerns a sequence of times approaching the
    singularity; sampled snapshots cannot distinguish subsequential from
    uniform behavior, so a quiet detector on an alarmed state is reported
    as-is rather than interpreted.
    """
    if report is None:
        report = evaluate_report(state, cfg)
    watched = [(m, lg) for m, lg in zip(equation_measures(cfg), report.log_integrals)
               if m.rho != 0.0]
    if not report.grad_l2 < thresholds.grad_l2:
        reason = StopReason("grad_l2", report.grad_l2, report.t)
    else:
        tripped = [(m, lg) for m, lg in watched if not lg < thresholds.log_int]
        if not tripped:
            return None, []
        m, lg = max(tripped, key=lambda x: x[1])
        reason = StopReason(f"log_int({m.name})", lg, report.t)

    g = state.grid
    reports = []
    for m, _ in watched:
        window = concentration_window(m.rho, m.window)
        if window < 1:
            continue
        dens, _ = g.normalized_exp(m.scale * state.u[m.component], m.sign,
                                   log_weight=m.log_weight)
        query = ConcentrationQuery(m=window, r=thresholds.r, eps=thresholds.eps,
                                   delta=thresholds.delta)
        reports.append(detect_concentration(g, dens, query, sign=m.sign, component=m.component))
    return reason, reports


def bubble_field(grid: SpectralGrid, center, lam: float, clamp: float = 30.0) -> np.ndarray:
    """Mean-zero concentration profile

        u(x) = log( lam^2 / (1 + lam^2 d(x, center)^2)^2 ),

    clamped below at -clamp and shifted to zero mean.  As lam grows the
    measure e^u/int(e^u) concentrates at the center."""
    if lam < 1:
        raise ValueError("lam must be >= 1")
    d = grid.torus_distance(center)
    u = np.log(lam**2 / (1.0 + lam**2 * d**2) ** 2)
    np.maximum(u, -float(clamp), out=u)
    return u - u.mean()
