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
`kernels.gautschi_combine` applies the update to the stacked half spectra
of all components in one call.  The step and the Picard solution map both
run through it.

The state is carried in mode space.  `_step`, the one stepping primitive,
maps the half spectra (uh, vh) plus the half spectra fh of the forcing at
the physical u to the new (uh, vh) and the new physical u, writing into
preallocated buffers (`_StepBuffers`).  `evolve` then evaluates the forcing
at the new u, after the step's finiteness checks, and carries it into the
next step; that is the same arithmetic as evaluating it at the start of the
next step.  Every transform is one batched scipy call over the components,
so a symmetric step costs 2 rfft + 2 irfft calls whatever the component
count (the frozen step 1 + 1), plus the one forcing at the initial state.
Samples read what `evolve` carries: the report and the monitor get the half
spectra, the physical u and the log-normalizers of the carried forcing, so
a sample makes no transform and no log-sum-exp for a measure the forcing
exponentiated.  The physical v is made, by one irfft call, only at
checkpoint steps and for the final state.  `_step_arrays` (physical in and
out) is `_step` between forward transforms of u and v plus the forcing at u,
and an inverse transform of the new v; `duhamel_step` calls it, and so does
`linear_flow`, as one frozen step with zero forcing.

Checkpoint steps are canonical: at every step whose global index is a
multiple of `snapshot_every`, `evolve` hands the physical state to
`on_checkpoint` and then replaces the carried spectra by the transforms of
that u and v, and the step's sample reads those; the carried forcing is a
function of u alone.  So a run resumed from that state (with the same
checkpoint cadence) repeats the uninterrupted run bit for bit.  `evolve` keeps no checkpoint itself: the callback gets the live
state, which a caller that keeps it clones, so a run's memory does not grow
with its number of checkpoints.  Samples leave the same way, through
`on_sample`, as they are taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .blowup import MonitorThresholds, alarm_condition, blowup_monitor
from .fields import (
    STATUS_BLOWUP,
    STATUS_COMPLETED,
    STATUS_MAXSTEPS,
    STATUS_NONFINITE,
    StopReason,
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


def _forcing_half(grid, f, mask):
    """Half spectra of the stacked forcing fields f, dealiased by `mask` (the
    half-spectrum columns of a mask, e.g. `grid.dealias_half_mask`, or
    None) and with the zero mode removed, which makes the component averages
    evolve exactly as ubar + t*vbar."""
    fh = grid.to_spectral_half_stack(f)
    if mask is not None:
        fh *= mask
    fh[:, 0, 0] = 0.0
    return fh


class _StepBuffers:
    """Preallocated half spectra of a run of steps: the pair (uh, vh) the next
    step writes and the symmetric predictor's position, which is also the
    scratch of the step's last combine."""

    def __init__(self, uh):
        self.uh, self.vh, self.pred = (np.empty_like(uh) for _ in range(3))


def _step(grid, uh, vh, fh, tables, rhs_eval, scheme, mask, buffers):
    """One step of the state carried in mode space: the half spectra (uh, vh)
    of the stacked components and fh, the masked half spectra of the
    forcing at u (`_forcing_half`).  Returns the new (uh, vh, u) with u the
    physical image of the new uh, on which the caller evaluates the next
    forcing.  The new spectra are written into `buffers`, which then keep
    the (uh, vh) read here for the next step to overwrite: the caller must
    hold no other reference to them.

    One combine call updates every component.  The symmetric step takes a
    frozen predictor for the position, evaluates the forcing there (one
    rfft, after one irfft) and steps with the average of the two forcings;
    with the forcing at the new u, evaluated by the caller, that is 2 + 2
    batched transforms per step, 1 + 1 for the frozen one."""
    if scheme == "symmetric":
        # the velocity buffer is free until the last combine: its scratch here
        kernels.gautschi_combine(*tables.factors, uh, vh, fh, buffers.pred, tmp=buffers.vh)
        f1h = _forcing_half(grid, rhs_eval(grid.to_physical_half_stack(buffers.pred)), mask)
        f1h += fh
        f1h *= 0.5
        fh = f1h
    uh_new, vh_new = buffers.uh, buffers.vh
    kernels.gautschi_combine(*tables.factors, uh, vh, fh, uh_new, vh_new, tmp=buffers.pred)
    buffers.uh, buffers.vh = uh, vh
    return uh_new, vh_new, grid.to_physical_half_stack(uh_new)


def _step_arrays(grid, u, v, tables, rhs_eval, scheme, mask):
    """One step on stacked physical arrays; returns new (u, v).  `mask` is a
    dealias mask on the full layout (or None)."""
    mask = None if mask is None else mask[:, : grid.n2 // 2 + 1]
    uh, vh = grid.to_spectral_half_stack(u), grid.to_spectral_half_stack(v)
    fh = _forcing_half(grid, rhs_eval(u), mask)
    _, vh, u_new = _step(grid, uh, vh, fh, tables, rhs_eval, scheme, mask, _StepBuffers(uh))
    return u_new, grid.to_physical_half_stack(vh)


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
    on_sample: Optional[Callable] = None,
    on_checkpoint: Optional[Callable] = None,
) -> Trajectory:
    """Run the fixed-step flow from state.t to T (rounded to a whole number
    of steps) with functional sampling and optional blow-up monitoring.

    Numeric stop conditions terminate with a recorded status and
    `stop_reason`, never an exception.  `first_step_index`/`t_origin` keep
    sampling phase and time arithmetic identical when a run is resumed from
    a checkpoint.  `on_sample(t, report)` is called with each sample as it
    is taken; at each checkpoint step (global step index a multiple of
    `snapshot_every`, 0 for none) `on_checkpoint(step_index, state)` gets
    the live state, to be cloned by a caller that keeps it.  An exception
    raised by a callback ends the run and propagates.
    """
    g = state.grid
    if T < state.t:
        raise ValueError("target time precedes the state's time")
    tables = StepTables(g, stepper.h)
    mask = g.dealias_half_mask if stepper.dealias else None
    rhs_eval = lambda u: rhs_fields(g, u, cfg)
    t0 = state.t if t_origin is None else float(t_origin)
    n_steps = int(round((T - state.t) / stepper.h))
    capped = n_steps > stepper.max_steps
    if capped:
        n_steps = stepper.max_steps

    def forcing(u):
        """The forcing at u, carried into the next step: its masked half
        spectra and its measures' log-normalizers, which the sample of u
        reads.  It depends on the physical u only."""
        f, logz = rhs_fields(g, u, cfg, return_log_normalizers=True)
        return _forcing_half(g, f, mask), logz

    traj = Trajectory()
    u, v = state.u.copy(), state.v.copy()
    uh, vh = g.to_spectral_half_stack(u), g.to_spectral_half_stack(v)
    fh, logz = forcing(u)
    buffers = _StepBuffers(uh)
    t = state.t

    def current_state():
        """The physical state; v is made from vh when a step made it stale."""
        nonlocal v
        if v is None:
            v = g.to_physical_half_stack(vh)
        return WaveState(g, t, u, v)

    def stop(condition, value):
        traj.stop_reason = StopReason(condition, float(value), float(t))

    def sample() -> bool:
        """Record a report; returns True, with the stop reason set, when the
        monitor raises the alarm or the gradient norm reaches its hard
        limit.  Report and monitor read the carried spectra, the physical u
        and the carried forcing's log-normalizers, so a sample makes no
        transform (state.v may be stale, None)."""
        state_t = WaveState(g, t, u, v)
        report = evaluate_report(state_t, cfg, spectra=(uh, vh), log_normalizers=logz)
        traj.times.append(t)
        traj.reports.append(report)
        if on_sample is not None:
            on_sample(t, report)
        if monitor is not None:
            status, reports = blowup_monitor(state_t, cfg, monitor, report=report)
            if status == "alarm":
                traj.concentration = reports
                stop(*alarm_condition(report, cfg, monitor))
                return True
        if report.grad_l2 >= stepper.max_grad_l2:
            stop("max_grad_l2", report.grad_l2)
            return True
        return False

    if sample():
        traj.status = STATUS_BLOWUP
        traj.final_state = current_state().clone()
        return traj

    status = STATUS_COMPLETED
    for k in range(1, n_steps + 1):
        try:
            uh, vh, u = _step(g, uh, vh, fh, tables, rhs_eval, stepper.scheme, mask, buffers)
        except DynamicRangeError:
            status = STATUS_NONFINITE
            stop("non_finite", np.nan)
            break
        v = None
        gk = first_step_index + k
        t = t0 + gk * stepper.h
        max_u = max(float(u.max()), -float(u.min()))  # max|u|; NaN when u has one
        finite = bool(np.isfinite(max_u) and np.isfinite(vh.view(np.float64)).all())
        if finite:
            try:
                fh, logz = forcing(u)
            except DynamicRangeError:
                finite = False
        if not finite:
            status = STATUS_NONFINITE
            stop("non_finite", max_u)
            break
        if snapshot_every and gk % snapshot_every == 0:
            checkpoint = current_state()
            if on_checkpoint is not None:
                on_checkpoint(gk, checkpoint)
            # canonical step: a resume from this state starts from these
            # spectra (the carried forcing is a function of u alone)
            uh, vh = g.to_spectral_half_stack(u), g.to_spectral_half_stack(v)
        hard_stop = max_u >= stepper.max_abs_u
        if gk % stepper.sample_every == 0 or k == n_steps or hard_stop:
            if sample():
                status = STATUS_BLOWUP
                break
            if hard_stop:
                stop("max_abs_u", max_u)
                status = STATUS_BLOWUP
                break
    else:
        if capped:
            status = STATUS_MAXSTEPS
            stop("max_steps", n_steps)

    traj.status = status
    traj.final_state = current_state().clone()
    return traj
