"""Spectral linear flow and trigonometric time stepping for all families.

The free wave flow is applied exactly mode-by-mode through cos(t w) and
sin(t w)/w factors (w = sqrt of the Laplacian symbol); every step solves the
forced equation with the forcing frozen (first order) or averaged over a
predictor step (second order).  All error therefore sits in the nonlinearity:
with zero forcing the stepper is exact to round-off for any step size.

The forcing's zero mode is annihilated each step, so the component averages
obey exactly ubar+ = ubar + h*vbar with vbar constant.

One per-mode update serves every caller: `_mode_factors` builds the
per-mode factors, `StepTables` keeps their half-spectrum (rfft) columns, and
`kernels.gautschi_combine` applies the update to one component's half
spectra.  The step and the Picard solution map both run through it.

The state is carried in mode space.  `_step`, the one stepping primitive,
maps the half spectra (uh, vh) plus the physical u that the forcing needs to
the next such triple, so a symmetric step costs 2 forward + 2 inverse
transforms per component (the frozen step 1 + 1).  `evolve` makes the
physical v by one inverse transform per component only where a sample,
checkpoint or final state needs it.  `_step_arrays` (physical in and out)
is `_step` between forward transforms of u and v and an inverse transform
of the new v; `duhamel_step` calls it, and so does `linear_flow`, as one
frozen step with zero forcing.

Checkpoint steps are canonical: at every step that `evolve` snapshots, the
carried spectra are replaced by the transforms of the physical u and v it
stores, so a run resumed from that snapshot (with the same checkpoint
cadence) repeats the uninterrupted run bit for bit.
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
        # (cos, sinc, q, wsin), in the argument order of the combine kernel
        self.factors = tuple(np.ascontiguousarray(f[:, :ncol]) for f in _mode_factors(grid, self.h))


def apply_cos(grid: SpectralGrid, t: float, modes: np.ndarray) -> np.ndarray:
    """Multiply each mode by cos(t w)."""
    return modes * _mode_factors(grid, t)[0]


def apply_sinc(grid: SpectralGrid, t: float, modes: np.ndarray) -> np.ndarray:
    """Multiply each mode by sin(t w)/w, with the zero mode scaled by t."""
    return modes * _mode_factors(grid, t)[1]


def _to_half(grid, fields):
    """Half spectra of stacked real fields, one rfft per component."""
    out = np.empty((fields.shape[0], grid.n1, grid.n2 // 2 + 1), dtype=np.complex128)
    for i in range(fields.shape[0]):
        out[i] = grid.to_spectral_half(fields[i])
    return out


def _to_physical(grid, modes):
    """Stacked real fields of stacked half spectra, one irfft per component."""
    out = np.empty((modes.shape[0], grid.n1, grid.n2))
    for i in range(modes.shape[0]):
        out[i] = grid.to_physical_half(modes[i])
    return out


def _forcing_half(grid, f, mask):
    """Half spectra of the stacked forcing fields f, dealiased by `mask` (full
    layout, or None) and with the zero mode removed, which makes the
    component averages evolve exactly as ubar + t*vbar."""
    fh = _to_half(grid, f)
    if mask is not None:
        fh *= mask[:, : grid.n2 // 2 + 1]
    fh[:, 0, 0] = 0.0
    return fh


def _step(grid, uh, vh, u, tables, rhs_eval, scheme, mask):
    """One step of the state carried in mode space: the half spectra (uh, vh)
    of the stacked components and u, the physical image of uh that the
    forcing is evaluated on.  Returns the new (uh, vh, u).

    Each forcing evaluation costs one rfft per component and each new
    physical u one irfft per component: 2 + 2 per component for the
    symmetric scheme, 1 + 1 for the frozen one."""
    fh = _forcing_half(grid, rhs_eval(u), mask)
    uh_new = np.empty_like(uh)
    vh_new = np.empty_like(vh)
    if scheme == "symmetric":
        # frozen predictor for the position only, then the step with the
        # averaged forcing
        for i in range(u.shape[0]):
            kernels.gautschi_combine(*tables.factors, uh[i], vh[i], fh[i], uh_new[i])
        f1h = _forcing_half(grid, rhs_eval(_to_physical(grid, uh_new)), mask)
        fh = 0.5 * (fh + f1h)
    for i in range(u.shape[0]):
        kernels.gautschi_combine(*tables.factors, uh[i], vh[i], fh[i], uh_new[i], vh_new[i])
    return uh_new, vh_new, _to_physical(grid, uh_new)


def _step_arrays(grid, u, v, tables, rhs_eval, scheme, mask):
    """One step on stacked physical arrays; returns new (u, v)."""
    _, vh, u_new = _step(grid, _to_half(grid, u), _to_half(grid, v), u, tables, rhs_eval,
                         scheme, mask)
    return u_new, _to_physical(grid, vh)


def linear_flow(state: WaveState, t: float) -> WaveState:
    """Exact free flow by time t (any sign): one frozen step of size t with
    zero forcing."""
    g = state.grid
    u, v = _step_arrays(g, state.u, state.v, StepTables(g, t), np.zeros_like, "frozen", None)
    return WaveState(g, state.t + t, u, v)


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
    uh, vh = _to_half(g, u), _to_half(g, v)
    t = state.t

    def current_state():
        """The physical state; v is made from vh when a step made it stale."""
        nonlocal v
        if v is None:
            v = _to_physical(g, vh)
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
            uh, vh, u = _step(g, uh, vh, u, tables, rhs_eval, stepper.scheme, mask)
        except DynamicRangeError:
            status = STATUS_NONFINITE
            break
        v = None
        gk = first_step_index + k
        t = t0 + gk * stepper.h
        max_u = float(np.abs(u).max())
        if not (np.isfinite(max_u) and np.isfinite(vh).all()):
            status = STATUS_NONFINITE
            break
        if snapshot_every and gk % snapshot_every == 0:
            traj.snapshots.append((gk, current_state().clone()))
            # canonical step: a resume from this snapshot starts from these spectra
            uh, vh = _to_half(g, u), _to_half(g, v)
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
