"""Spectral linear flow and trigonometric time stepping for all families.

The free wave flow is applied exactly mode-by-mode through cos(t w) and
sin(t w)/w factors (w = sqrt of the Laplacian symbol); every step solves the
forced equation with the forcing frozen (first order) or averaged over a
predictor step (second order).  All error therefore sits in the nonlinearity:
with zero forcing the stepper is exact to round-off for any step size.

The forcing's zero mode is annihilated each step, so the component averages
obey exactly ubar+ = ubar + h*vbar with vbar constant.

One object, `Stepper`, built for the equation's `CouplingConfig`, is behind
every step.  It holds the time-h factors of `_mode_factors` (the one
builder of the per-mode factors, on the half (rfft) columns), whether the
forcing is dealiased, and the buffers of the step and of the forcing, made
once, and `kernels.gautschi_combine` applies the update to the stacked half
spectra of all components in one call.  `evolve`, `duhamel_step`, the
Picard solution map and picard-verify's orbit all run through it;
`linear_flow` is the combine alone, with zero forcing.

The forcing has one path, `Stepper.forcing(u) -> (fh, logz)`: `rhs_fields`
writing into the stepper's physical buffer (one exponential pass per
measure with rho != 0 into a slice of its own, one coupling-matrix
product, no mean subtraction), then one batched rfft, the mask and the
removal of the zero mode, which is the one place the forcing's constant is
dropped; logz are the log-normalizers of its measures.

The state is carried in mode space.  `Stepper.step` maps the half spectra
(uh, vh) plus the forcing spectrum at u to the new (uh, vh) in the
stepper's buffers, transforming nothing back; a symmetric step computes
the free flow cos*uh + sinc*vh of the position once, for its predictor and
its final position.  `evolve` transforms the new uh and evaluates the
forcing at the new u, after the step's finiteness checks, and carries it
into the next step; that is the same arithmetic as evaluating it at the
start of the next step.  Every transform is one batched call over the
components, so a symmetric step costs 2 rfft + 2 irfft calls whatever the
component count (the frozen step 1 + 1), plus the one forcing at the
initial state.
Samples read what `evolve` carries: the report and the monitor get the half
spectra, the physical u and the log-normalizers of the carried forcing, so
a sample makes no transform and no log-sum-exp for a measure the forcing
exponentiated.  The physical v is made, by one irfft call, only at
checkpoint steps and for the final state.  `Stepper.advance` (physical in
and out) is `step` between forward transforms of u and v plus the forcing
at u, and inverse transforms of the new u and v; `duhamel_step` is one
`advance`.

Checkpoint steps are canonical: at every step whose global index is a
multiple of `snapshot_every`, `evolve` hands the physical state to
`on_checkpoint` and then replaces the carried spectra by the transforms of
that u and v, and the step's sample reads those; the carried forcing is a
function of u alone.  So a run resumed from that state (with the same
checkpoint cadence) repeats the uninterrupted run bit for bit.  `evolve`
keeps no checkpoint itself: the callback gets the live state, which a
caller that keeps it clones, so a run's memory does not grow with its
number of checkpoints.  Samples leave the same way, through `on_sample`, as
they are taken.

`evolve` steps while no stop reason is set and records the reason once;
the run's status follows from it (`fields.STATUS_OF_STOP`).  Its docstring
tables each condition with its value, time and status.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .blowup import MonitorThresholds, alarm_condition, blowup_monitor
from .fields import StopReason, Trajectory, WaveState
from .functionals import evaluate_report
from .rhs import CouplingConfig, DynamicRangeError, rhs_fields
from .surface import SpectralGrid

SCHEMES = ("frozen", "symmetric")


@dataclass
class StepperConfig:
    """Fixed-step time integration parameters and hard stop thresholds."""

    h: float
    scheme: str = "symmetric"  # of SCHEMES: "symmetric" (second order) or "frozen" (first)
    dealias: bool = True
    max_abs_u: float = 200.0
    max_grad_l2: float = 1e6
    max_steps: int = 10_000_000
    sample_every: int = 1

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("step size must be positive")
        if not (self.max_abs_u > 0 and self.max_grad_l2 > 0 and self.max_steps > 0):
            raise ValueError("stop thresholds must be positive")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")


def _mode_factors(grid: SpectralGrid, t: float):
    """Per-mode factors of the time-t free flow on the n2//2+1 columns of the
    half (rfft) spectrum of a real field.

    Returns (cos(t w), sin(t w)/w, (1 - cos(t w))/w^2, w sin(t w)) with the
    limits t and t^2/2 at w = 0 (the third via the half-angle form), in the
    argument order of the combine kernel.  This is the one place the
    propagator's trigonometric factors are built.
    """
    lam = np.ascontiguousarray(grid.lap_symbol[:, : grid.n2 // 2 + 1])
    om = np.sqrt(lam)
    th = t * om
    cosw = np.cos(th)
    sincw = np.where(om > 0, np.sin(th) / np.where(om > 0, om, 1.0), t)
    qw = np.where(lam > 0, 2.0 * np.sin(0.5 * th) ** 2 / np.where(lam > 0, lam, 1.0), 0.5 * t**2)
    wsinw = om * np.sin(th)
    return cosw, sincw, qw, wsinw


class Stepper:
    """The time-h step of the forced wave equation of `cfg` on the stacked
    half spectra of all components, for a scheme of `SCHEMES`.

    `factors` are the time-h `_mode_factors`; `dealias` applies the
    two-thirds mask to the forcing (`grid.dealias_half`).  `cfg` fixes the
    component and measure counts, so the buffers are made here once: three
    step buffers shaped (ncomp, n1, n2//2+1) and the physical buffer of the
    forcing, one (n1, n2) slice per component and per measure."""

    def __init__(self, grid: SpectralGrid, h: float, cfg: CouplingConfig,
                 scheme: str = "symmetric", dealias: bool = True):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.grid = grid
        self.cfg = cfg
        self.scheme = scheme
        self.factors = _mode_factors(grid, float(h))
        self.dealias = dealias
        half = (cfg.ncomp, grid.n1, grid.n2 // 2 + 1)
        self._buffers = tuple(np.empty(half, dtype=np.complex128) for _ in range(3))
        self._physical = np.empty((cfg.ncomp + cfg.ncomp_measures, grid.n1, grid.n2))

    def forcing(self, u):
        """The forcing at the stacked physical u as the step takes it:
        (fh, logz), fh its half spectra, masked and with the zero mode
        removed, which makes the component averages evolve exactly as
        ubar + t*vbar (so the forcing's own constant never matters), and
        logz the log-normalizers of its measures.  Raises
        `DynamicRangeError` where `rhs_fields` does."""
        # the forcing's components, then one slice per measure
        n = self.cfg.ncomp
        f, logz = rhs_fields(self.grid, u, self.cfg, return_log_normalizers=True,
                             out=self._physical[:n], work=self._physical[n:])
        fh = self.grid.to_spectral_half_stack(f)
        if self.dealias:
            self.grid.dealias_half(fh)
        fh[:, 0, 0] = 0.0
        return fh, logz

    def step(self, uh, vh, fh):
        """One step of the state carried in mode space: the half spectra
        (uh, vh) and the forcing spectrum `fh` at u, as `forcing` returns
        it.  Returns the new (uh, vh); a caller that needs the physical u
        transforms the new uh.

        The new spectra are written into the stepper's buffers, which then
        keep the (uh, vh) read here for the next step to overwrite: the
        caller gives up its inputs, and may interleave orbits through one
        stepper.

        One combine call updates every component.  The symmetric step takes
        a frozen predictor for the position, evaluates the forcing there
        (one rfft, after one irfft) and steps with the average of the two
        forcings; the predictor leaves the free flow cos*uh + sinc*vh of the
        position in the new position's buffer, and the final combine adds
        to it.  The frozen step is the combine alone."""
        uh_new, vh_new, pred = self._buffers
        free = None
        if self.scheme == "symmetric":
            # the velocity buffer is free until the last combine: its scratch here
            kernels.gautschi_combine(*self.factors, uh, vh, fh, pred, tmp=vh_new,
                                     free_out=uh_new)
            f1h, _ = self.forcing(self.grid.to_physical_half_stack(pred))
            f1h += fh
            f1h *= 0.5
            fh, free = f1h, uh_new
        kernels.gautschi_combine(*self.factors, uh, vh, fh, uh_new, vh_new, tmp=pred, free=free)
        self._buffers = (uh, vh, pred)
        return uh_new, vh_new

    def advance(self, u, v):
        """One step on stacked physical arrays; returns the new (u, v)."""
        g = self.grid
        uh, vh = self.step(g.to_spectral_half_stack(u), g.to_spectral_half_stack(v),
                           self.forcing(u)[0])
        return g.to_physical_half_stack(uh), g.to_physical_half_stack(vh)


def linear_flow(state: WaveState, t: float) -> WaveState:
    """Exact free flow by time t (any sign): one combine of the time-t
    factors with zero forcing, between the transforms of the state."""
    g = state.grid
    uh, vh = g.to_spectral_half_stack(state.u), g.to_spectral_half_stack(state.v)
    uh_t, vh_t = np.empty_like(uh), np.empty_like(vh)
    kernels.gautschi_combine(*_mode_factors(g, float(t)), uh, vh, np.zeros_like(uh), uh_t, vh_t)
    u, v = g.to_physical_half_stack(uh_t), g.to_physical_half_stack(vh_t)
    return WaveState(g, state.t + t, u, v)


def duhamel_step(state: WaveState, h: float, cfg: CouplingConfig, scheme: str = "symmetric",
                 dealias: bool = True) -> WaveState:
    """Single step of size h (sign free; the trigonometric factors give the
    exact backward free flow for h < 0) of the equation of `cfg`."""
    u, v = Stepper(state.grid, h, cfg, scheme, dealias).advance(state.u, state.v)
    return WaveState(state.grid, state.t + h, u, v)


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

    Numeric stop conditions end the run with its `stop_reason`, never an
    exception, and the status follows from the condition
    (`fields.STATUS_OF_STOP`; no condition: completed).  A sample checks the
    first two rows (the monitor's only when one is given), a step the rest:

    condition           value                           time            status
    ------------------  ------------------------------  --------------  -------------
    grad_l2, log_int()  the monitor's alarm signal      the sample      blow-up-alarm
    max_grad_l2         the sample's gradient norm      the sample      blow-up-alarm
    non_finite          NaN: the predictor's forcing    previous slice  non-finite
    non_finite          max|u|: u, vh or forcing at u   new slice       non-finite
    max_abs_u           max|u|, if its sample set none  new slice       blow-up-alarm
    max_steps           the steps taken, at the cap     last slice      max-steps

    `first_step_index`/`t_origin` keep sampling phase and time arithmetic
    identical when a run is resumed from a checkpoint.  `on_sample(t,
    report)` is called with each sample as it is taken; at each checkpoint
    step (global step index a multiple of `snapshot_every`, 0 for none)
    `on_checkpoint(step_index, state)` gets the live state, to be cloned by
    a caller that keeps it.  An exception raised by a callback ends the run
    and propagates.
    """
    g = state.grid
    if T < state.t:
        raise ValueError("target time precedes the state's time")
    step = Stepper(g, stepper.h, cfg, stepper.scheme, stepper.dealias)
    t0 = state.t if t_origin is None else float(t_origin)
    n_steps = int(round((T - state.t) / stepper.h))
    capped = n_steps > stepper.max_steps
    n_steps = min(n_steps, stepper.max_steps)

    traj = Trajectory()
    u, v = state.u.copy(), state.v.copy()
    uh, vh = g.to_spectral_half_stack(u), g.to_spectral_half_stack(v)
    # the forcing at u, carried into the next step: its half spectra and its
    # measures' log-normalizers, which the sample of u reads; it depends on
    # the physical u only
    forcing = step.forcing(u)
    t = state.t

    def current_state():
        """The physical state; v is made from vh when a step made it stale."""
        nonlocal v
        if v is None:
            v = g.to_physical_half_stack(vh)
        return WaveState(g, t, u, v)

    def sample() -> Optional[StopReason]:
        """Record a report; returns the stop reason it trips, or None.
        Report and monitor read the carried spectra, the physical u and the
        carried forcing's log-normalizers, so a sample makes no transform
        (state.v may be stale, None)."""
        state_t = WaveState(g, t, u, v)
        report = evaluate_report(state_t, cfg, spectra=(uh, vh), log_normalizers=forcing[1])
        traj.reports.append(report)
        if on_sample is not None:
            on_sample(t, report)
        if monitor is not None:
            status, reports = blowup_monitor(state_t, cfg, monitor, report=report)
            if status == "alarm":
                traj.concentration = reports
                return StopReason(*alarm_condition(report, cfg, monitor), t)
        if report.grad_l2 >= stepper.max_grad_l2:
            return StopReason("max_grad_l2", report.grad_l2, t)
        return None

    reason = sample()
    k = 0
    while reason is None and k < n_steps:
        k += 1
        gk = first_step_index + k
        max_u = np.nan  # what a predictor that raises reads: it makes no new slice
        try:
            uh, vh = step.step(uh, vh, forcing[0])
            u, v, t = g.to_physical_half_stack(uh), None, t0 + gk * stepper.h
            max_u = max(float(u.max()), -float(u.min()))  # max|u|; NaN when u has one
            vf = vh.view(np.float64)  # max and min carry a NaN or an inf, with no temporary
            finite = bool(np.isfinite(max_u) and np.isfinite(vf.max()) and np.isfinite(vf.min()))
            if finite:
                forcing = step.forcing(u)
        except DynamicRangeError:
            finite = False
        if not finite:
            reason = StopReason("non_finite", max_u, t)
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
            reason = sample()
            if reason is None and hard_stop:
                reason = StopReason("max_abs_u", max_u, t)
    if reason is None and capped:
        reason = StopReason("max_steps", n_steps, t)

    traj.stop_reason = reason
    traj.final_state = current_state().clone()
    return traj
