"""Multi-component wave states and field utilities.

A state is a time slice (u, du/dt) with one or more components, all sharing a
grid.  Construction enforces the zero-mean hypothesis on the velocity: small
deviations (file round-trips) are repaired by subtracting the mean, large ones
are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .surface import SpectralGrid

STATUS_COMPLETED = "completed"
STATUS_BLOWUP = "blow-up-alarm"
STATUS_NONFINITE = "non-finite"
STATUS_MAXSTEPS = "max-steps"

# a run's status by its stop condition (None: it reached T); any other is an alarm
STATUS_OF_STOP = {None: STATUS_COMPLETED, "non_finite": STATUS_NONFINITE, "max_steps": STATUS_MAXSTEPS}


@dataclass
class WaveState:
    """One time slice: u and v = du/dt, each of shape (ncomp, n1, n2).

    Value semantics: arrays are owned; use clone() before mutating a shared
    instance.
    """

    grid: SpectralGrid
    t: float
    u: np.ndarray
    v: np.ndarray
    v_mean_shift: tuple = ()

    @property
    def ncomp(self) -> int:
        return self.u.shape[0]

    def clone(self) -> "WaveState":
        return WaveState(self.grid, self.t, self.u.copy(), self.v.copy(), self.v_mean_shift)


@dataclass
class StopReason:
    """The stop condition that ended a run before its target time: its name,
    the value that tripped it and the time of the slice it was read on."""

    condition: str
    value: float
    t: float

    def __post_init__(self):
        self.value, self.t = float(self.value), float(self.t)

    def __str__(self):
        return f"{self.condition} = {self.value!r} at t = {self.t!r}"


@dataclass
class Trajectory:
    """Sampled run: per-sample reports, the stop reason unless it reached its
    target time, the detector's reports of an alarm and the final state;
    `times` and `status` (`STATUS_OF_STOP`) follow from them, read-only."""

    reports: list = field(default_factory=list)
    stop_reason: Optional[StopReason] = None
    concentration: list = field(default_factory=list)
    final_state: Optional[WaveState] = None

    @property
    def times(self) -> list:
        return [r.t for r in self.reports]

    @property
    def status(self) -> str:
        reason = self.stop_reason
        return STATUS_OF_STOP.get(None if reason is None else reason.condition, STATUS_BLOWUP)


def _stack_components(grid, arrs, what):
    a = np.asarray(arrs, dtype=np.float64)
    if a.ndim == 2:
        a = a[None, :, :]
    if a.ndim != 3 or a.shape[1:] != (grid.n1, grid.n2):
        raise ValueError(f"{what} shape {a.shape} does not match grid {grid.n1}x{grid.n2}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite values")
    return np.ascontiguousarray(a)


def wave_state_new(grid: SpectralGrid, u0, u1, t0: float = 0.0) -> WaveState:
    """Validated state constructor.

    The velocity components must have (numerically) zero mean: if
    |mean(u1_i)| exceeds 1e-8 * ||u1_i||_L2 + 1e-12 the data is rejected,
    otherwise the mean is subtracted and the shift recorded on the state.
    """
    u = _stack_components(grid, u0, "u0")
    v = _stack_components(grid, u1, "u1")
    if u.shape != v.shape:
        raise ValueError("u0 and u1 must have the same number of components")
    shifts = []
    for i in range(v.shape[0]):
        m = grid.mean(v[i])
        tol = 1e-8 * grid.norm_l2(v[i]) + 1e-12
        if abs(m) > tol:
            raise ValueError(
                f"velocity component {i} has nonzero mean {m:.3e} "
                f"(tolerance {tol:.3e}); the evolution requires mean-zero velocity"
            )
        if m != 0.0:
            v[i] -= m
        shifts.append(m)
    return WaveState(grid, float(t0), u, v, tuple(shifts))


def random_smooth_field(
    grid: SpectralGrid,
    rng: np.random.Generator,
    kmax: int = 4,
    amplitude: float = 1.0,
    zero_mean: bool = False,
    norm: str = "h1",
) -> np.ndarray:
    """Band-limited random field, deterministic given the generator state.

    Modes with |k1|,|k2| <= kmax (clipped to the dealias band) get iid complex
    Gaussian coefficients; the field is rescaled so its H1 (or L2) norm equals
    `amplitude`.
    """
    kmax = int(min(kmax, grid.n1 // 3, grid.n2 // 3))
    coef = rng.standard_normal((grid.n1, grid.n2)) + 1j * rng.standard_normal(
        (grid.n1, grid.n2)
    )
    band = (np.abs(grid.k1[:, None]) <= kmax) & (np.abs(grid.k2[None, :]) <= kmax)
    coef *= band
    f = grid.to_physical(coef)
    if zero_mean:
        f = f - f.mean()
    size = _full_spectrum_norm_h1(grid, f) if norm == "h1" else grid.norm_l2(f)
    if size > 0:
        f *= amplitude / size
    return f


def _full_spectrum_norm_h1(grid: SpectralGrid, f: np.ndarray) -> float:
    """H1 norm of f by Parseval over its full complex spectrum: the
    normalization the seeded data were first drawn with, kept so that they
    stay those data to round-off (`SpectralGrid.norm_h1` sums the half
    spectrum, in another order); reruns repeat them to the bit."""
    modes = grid.to_spectral(f)
    s = float((grid.lap_symbol * (modes.real**2 + modes.imag**2)).sum())
    return float(np.hypot(float(np.sqrt(grid.area * s)) / (grid.n1 * grid.n2), grid.norm_l2(f)))
