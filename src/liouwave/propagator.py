"""Spectral linear flow and trigonometric time stepping for all families.

The free wave flow is applied exactly mode-by-mode through cos(t w) and
sin(t w)/w factors (w = sqrt of the Laplacian symbol); every step solves the
forced equation with the forcing frozen (first order) or averaged over a
predictor step (second order).  All error therefore sits in the nonlinearity:
with zero forcing the stepper is exact to round-off for any step size.

The forcing's zero mode is annihilated each step, so the component averages
obey exactly ubar+ = ubar + h*vbar with vbar constant.

One stepping primitive serves every caller: `_mode_factors` builds the
per-mode factors, `StepTables` keeps their half-spectrum (rfft) columns, and
`_combine` applies the update to one component's half spectra.  The step,
`linear_flow` (zero forcing) and the Picard solution map all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .blowup import MonitorThresholds, blowup_monitor
from .fields import (
    STATUS_BLOWUP,
    STATUS_COMPLETED,
    STATUS_MAXSTEPS,
    STATUS_NONFINITE,
    Trajectory,
    WaveState,
)
from .functionals import evaluate_report
from .rhs import CouplingConfig, DynamicRangeError, rhs_fields
from .surface import SpectralGrid


@dataclass
class StepperConfig:
    """Fixed-step time integration parameters and hard stop thresholds."""

    h: float
    scheme: str = "symmetric"  # "symmetric" (second order) or "frozen" (first)
    dealias: bool = True
    max_abs_u: float = 200.0
    max_grad_l2: float = 1e6
    max_steps: int = 10_000_000
    sample_every: int = 1

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("step size must be positive")
        if self.scheme not in ("frozen", "symmetric"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (self.max_abs_u > 0 and self.max_grad_l2 > 0 and self.max_steps > 0):
            raise ValueError("stop thresholds must be positive")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")


def _mode_factors(grid: SpectralGrid, t: float):
    """Per-mode factors of the time-t free flow on the full FFT layout.

    Returns (cos(t w), sin(t w)/w, (1 - cos(t w))/w^2, w sin(t w)) with the
    limits t and t^2/2 at w = 0 (the third via the half-angle form).  This
    is the one place the propagator's trigonometric factors are built.
    """
    lam = grid.lap_symbol
    om = np.sqrt(lam)
    th = t * om
    cosw = np.cos(th)
    sincw = np.where(om > 0, np.sin(th) / np.where(om > 0, om, 1.0), t)
    qw = np.where(lam > 0, 2.0 * np.sin(0.5 * th) ** 2 / np.where(lam > 0, lam, 1.0), 0.5 * t**2)
    wsinw = om * np.sin(th)
    return cosw, sincw, qw, wsinw


class StepTables:
    """Per-mode factors of the time-h propagator (see `_mode_factors`),
    restricted to the n2//2+1 columns of the half (rfft) spectrum of a real
    field."""

    def __init__(self, grid: SpectralGrid, h: float):
        self.grid = grid
        self.h = float(h)
        ncol = grid.n2 // 2 + 1
        self.cosw, self.sincw, self.qw, self.wsinw = (
            np.ascontiguousarray(f[:, :ncol]) for f in _mode_factors(grid, self.h)
        )


def apply_cos(grid: SpectralGrid, t: float, modes: np.ndarray) -> np.ndarray:
    """Multiply each mode by cos(t w)."""
    return modes * _mode_factors(grid, t)[0]


def apply_sinc(grid: SpectralGrid, t: float, modes: np.ndarray) -> np.ndarray:
    """Multiply each mode by sin(t w)/w, with the zero mode scaled by t."""
    return modes * _mode_factors(grid, t)[1]


def _combine(tables: StepTables, uh, vh, fh):
    """The frozen-forcing update of one component's half spectra."""
    uh_out = np.empty_like(uh)
    vh_out = np.empty_like(uh)
    kernels.gautschi_combine(
        tables.cosw, tables.sincw, tables.qw, tables.wsinw, uh, vh, fh, uh_out, vh_out
    )
    return uh_out, vh_out


def _forcing_half(grid, f, mask):
    """Half spectra of the stacked forcing fields f, dealiased by `mask` (full
    layout, or None) and with the zero mode removed, which makes the
    component averages evolve exactly as ubar + t*vbar."""
    mask_h = None if mask is None else mask[:, : grid.n2 // 2 + 1]
    fh = np.empty((f.shape[0], grid.n1, grid.n2 // 2 + 1), dtype=np.complex128)
    for i in range(f.shape[0]):
        fh[i] = grid.to_spectral_half(f[i])
        if mask_h is not None:
            fh[i] *= mask_h
        fh[i, 0, 0] = 0.0
    return fh


def linear_flow(state: WaveState, t: float) -> WaveState:
    """Exact free flow by time t (any sign): the step's update with zero
    forcing."""
    g = state.grid
    tables = StepTables(g, t)
    zero = np.zeros((g.n1, g.n2 // 2 + 1), dtype=np.complex128)
    u_new = np.empty_like(state.u)
    v_new = np.empty_like(state.v)
    for i in range(state.ncomp):
        uh, vh = _combine(
            tables, g.to_spectral_half(state.u[i]), g.to_spectral_half(state.v[i]), zero
        )
        u_new[i] = g.to_physical_half(uh)
        v_new[i] = g.to_physical_half(vh)
    return WaveState(g, state.t + t, u_new, v_new)


def _step_arrays(grid, u, v, tables, rhs_eval, scheme, mask):
    """One step on stacked physical arrays; returns new (u, v).

    Works on the half (Hermitian-unique) spectrum of the real fields."""
    n = u.shape[0]
    fh = _forcing_half(grid, rhs_eval(u), mask)
    uh = np.empty_like(fh)
    vh = np.empty_like(fh)
    for i in range(n):
        uh[i] = grid.to_spectral_half(u[i])
        vh[i] = grid.to_spectral_half(v[i])
    u_new = np.empty_like(u)
    v_new = np.empty_like(v)
    if scheme == "frozen":
        for i in range(n):
            uh_i, vh_i = _combine(tables, uh[i], vh[i], fh[i])
            u_new[i] = grid.to_physical_half(uh_i)
            v_new[i] = grid.to_physical_half(vh_i)
        return u_new, v_new
    # symmetric: frozen predictor, then the step with the averaged forcing
    u_pred = np.empty_like(u)
    for i in range(n):
        uh_i, _ = _combine(tables, uh[i], vh[i], fh[i])
        u_pred[i] = grid.to_physical_half(uh_i)
    f1h = _forcing_half(grid, rhs_eval(u_pred), mask)
    for i in range(n):
        fa = 0.5 * (fh[i] + f1h[i])
        uh_i, vh_i = _combine(tables, uh[i], vh[i], fa)
        u_new[i] = grid.to_physical_half(uh_i)
        v_new[i] = grid.to_physical_half(vh_i)
    return u_new, v_new


def duhamel_step(state: WaveState, h: float, rhs_eval: Callable, scheme: str = "symmetric",
                 dealias: bool = True) -> WaveState:
    """Single step of size h (sign free; the trigonometric factors give the
    exact backward free flow for h < 0).  `rhs_eval` maps stacked physical
    components to the forcing fields."""
    g = state.grid
    tables = StepTables(g, h)
    mask = g.dealias_mask if dealias else None
    u_new, v_new = _step_arrays(g, state.u, state.v, tables, rhs_eval, scheme, mask)
    return WaveState(g, state.t + h, u_new, v_new)


def evolve(
    state: WaveState,
    T: float,
    stepper: StepperConfig,
    cfg: CouplingConfig,
    monitor: Optional[MonitorThresholds] = None,
    snapshot_every: int = 0,
    first_step_index: int = 0,
    t_origin: Optional[float] = None,
) -> Trajectory:
    """Run the fixed-step flow from state.t to T (rounded to a whole number
    of steps) with functional sampling and optional blow-up monitoring.

    Numeric stop conditions terminate with a recorded status, never an
    exception.  `first_step_index`/`t_origin` keep sampling phase and time
    arithmetic identical when a run is resumed from a checkpoint.
    """
    g = state.grid
    if T < state.t:
        raise ValueError("target time precedes the state's time")
    tables = StepTables(g, stepper.h)
    mask = g.dealias_mask if stepper.dealias else None
    rhs_eval = lambda u: rhs_fields(g, u, cfg)
    t0 = state.t if t_origin is None else float(t_origin)
    n_steps = int(round((T - state.t) / stepper.h))
    capped = n_steps > stepper.max_steps
    if capped:
        n_steps = stepper.max_steps

    traj = Trajectory()
    u, v = state.u.copy(), state.v.copy()
    t = state.t

    def current_state():
        return WaveState(g, t, u, v)

    def sample() -> bool:
        """Record a report; returns True when the monitor raises the alarm."""
        traj.times.append(t)
        traj.reports.append(evaluate_report(current_state(), cfg))
        if monitor is not None:
            status, reports = blowup_monitor(current_state(), cfg, monitor)
            if status == "alarm":
                traj.concentration = reports
                return True
        return False

    if sample():
        traj.status = STATUS_BLOWUP
        traj.final_state = current_state().clone()
        return traj
    if traj.reports[-1].grad_l2 >= stepper.max_grad_l2:
        traj.status = STATUS_BLOWUP
        traj.final_state = current_state().clone()
        return traj

    status = STATUS_COMPLETED
    for k in range(1, n_steps + 1):
        try:
            u, v = _step_arrays(g, u, v, tables, rhs_eval, stepper.scheme, mask)
        except DynamicRangeError:
            status = STATUS_NONFINITE
            break
        gk = first_step_index + k
        t = t0 + gk * stepper.h
        max_u = float(np.abs(u).max())
        max_v = float(np.abs(v).max())
        if not (np.isfinite(max_u) and np.isfinite(max_v)):
            status = STATUS_NONFINITE
            break
        if snapshot_every and gk % snapshot_every == 0:
            traj.snapshots.append((gk, current_state().clone()))
        hard_stop = max_u >= stepper.max_abs_u
        if gk % stepper.sample_every == 0 or k == n_steps or hard_stop:
            if sample():
                status = STATUS_BLOWUP
                break
            if traj.reports[-1].grad_l2 >= stepper.max_grad_l2 or hard_stop:
                status = STATUS_BLOWUP
                break
    else:
        status = STATUS_MAXSTEPS if capped else STATUS_COMPLETED

    traj.status = status
    traj.final_state = current_state().clone()
    return traj
