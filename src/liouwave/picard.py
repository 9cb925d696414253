"""Local fixed-point solver and its contraction diagnostics.

The solution map F takes a candidate path u(s) on [0, T] to the solution of
the linear wave equation forced by rhs(u(s)), with the original initial data.
Iterating F from the free flow converges, for small T, to the orbit of the
frozen-forcing stepper on the same time grid; the measured sup-distance
ratios between successive iterates estimate the contraction factor, which
shrinks roughly linearly with T.  Every iterate preserves the component
averages of the initial data.

Paths are held as half (rfft) spectra, and F runs through the propagator's
per-mode update (`StepTables`, `kernels.gautschi_combine`, `_forcing_half`),
the same one the stepper and `linear_flow` use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .fields import WaveState
from .propagator import StepTables, _forcing_half
from .rhs import CouplingConfig, rhs_fields


@dataclass
class PicardReport:
    """Ball radius, accepted horizon, and the measured contraction record."""

    R: float
    T: float
    iterations: int
    contraction_ratios: list
    converged: bool
    final_distance: float


def picard_radius(state: WaveState) -> float:
    """3 * (||u0||_H1 + ||u1||_L2), with component-stacked norms."""
    g = state.grid
    h1 = np.sqrt(sum(g.norm_h1(state.u[i]) ** 2 for i in range(state.ncomp)))
    l2 = np.sqrt(sum(g.norm_l2(state.v[i]) ** 2 for i in range(state.ncomp)))
    return 3.0 * float(h1 + l2)


class _Path:
    """Spectral trajectory of one Picard iterate: modes at every node."""

    __slots__ = ("uh", "vh")

    def __init__(self, uh, vh):
        self.uh = uh  # (m+1, ncomp, n1, n2//2+1) complex half spectra
        self.vh = vh


def _path_distance(grid, a: _Path, b: _Path) -> float:
    """sup over nodes of (H1 distance of u) + (L2 distance of v), by Parseval
    on the half spectrum with the grid's Hermitian column weights."""
    norm = grid.area / (grid.n1 * grid.n2) ** 2
    colw = grid.half_column_weights
    h1w = (1.0 + grid.lap_symbol[:, : colw.size]) * colw
    du = a.uh - b.uh
    dv = a.vh - b.vh
    h1 = np.sqrt(norm * (h1w * (du.real**2 + du.imag**2)).sum(axis=(1, 2, 3)))
    l2 = np.sqrt(norm * (colw * (dv.real**2 + dv.imag**2)).sum(axis=(1, 2, 3)))
    return float((h1 + l2).max())


def _initial_spectra(state: WaveState):
    g = state.grid
    return g.to_spectral_half_stack(state.u), g.to_spectral_half_stack(state.v)


def _propagate(u0h, v0h, tables, m, forcing) -> _Path:
    """Nodes 0..m of the frozen-forcing update from (u0h, v0h), with
    forcing(j) the half spectra frozen over step j."""
    uh = np.empty((m + 1,) + u0h.shape, dtype=np.complex128)
    vh = np.empty_like(uh)
    uh[0], vh[0] = u0h, v0h
    tmp = np.empty_like(u0h)
    for j in range(m):
        kernels.gautschi_combine(*tables.factors, uh[j], vh[j], forcing(j), uh[j + 1], vh[j + 1],
                                 tmp=tmp)
    return _Path(uh, vh)


def _free_path(u0h, v0h, tables, m) -> _Path:
    """The solution map with zero forcing: the free flow at the nodes."""
    zero = np.zeros_like(u0h)
    return _propagate(u0h, v0h, tables, m, lambda j: zero)


def _apply_solution_map(grid, cfg, path: _Path, u0h, v0h, tables, mask) -> _Path:
    """F(path): propagate the initial data with forcing frozen at the nodes
    of the given path."""
    def forcing(j):
        u_phys = grid.to_physical_half_stack(path.uh[j])
        return _forcing_half(grid, rhs_fields(grid, u_phys, cfg), mask)

    return _propagate(u0h, v0h, tables, path.uh.shape[0] - 1, forcing)


def picard_solve(
    state: WaveState,
    cfg: CouplingConfig,
    T: float,
    h: float,
    tol: float = 1e-10,
    max_iter: int = 60,
    dealias: bool = True,
):
    """Iterate the solution map on the fixed time grid until the sup distance
    between successive iterates falls below tol.

    Returns (states, report): the converged discrete path as WaveStates and
    the PicardReport with per-iteration contraction ratios.  Three
    consecutive ratios >= 1 abort with converged=False (shrink T).
    """
    if not (T > 0 and h > 0 and tol > 0):
        raise ValueError("T, h and tol must be positive")
    g = state.grid
    m = max(1, int(round(T / h)))
    tables = StepTables(g, h)
    mask = g.dealias_half_mask if dealias else None
    u0h, v0h = _initial_spectra(state)

    path = _free_path(u0h, v0h, tables, m)
    ratios = []
    distances = []
    converged = False
    rising = 0
    for _ in range(max_iter):
        new_path = _apply_solution_map(g, cfg, path, u0h, v0h, tables, mask)
        d = _path_distance(g, new_path, path)
        if distances:
            prev = distances[-1]
            ratios.append(d / prev if prev > 0 else 0.0)
            rising = rising + 1 if ratios[-1] >= 1.0 else 0
        distances.append(d)
        path = new_path
        if d <= tol:
            converged = True
            break
        if rising >= 3:
            break

    states = []
    for j in range(m + 1):
        states.append(WaveState(g, state.t + j * h, g.to_physical_half_stack(path.uh[j]),
                                g.to_physical_half_stack(path.vh[j])))
    report = PicardReport(
        R=picard_radius(state),
        T=m * h,
        iterations=len(distances),
        contraction_ratios=ratios,
        converged=converged,
        final_distance=distances[-1] if distances else 0.0,
    )
    return states, report


def first_contraction_ratio(state, cfg, T, steps=32, dealias=True) -> float:
    """d(F^2 u, F u) / d(F u, u) starting from the free path; 0 for data whose
    first correction already vanishes."""
    g = state.grid
    h = T / steps
    tables = StepTables(g, h)
    mask = g.dealias_half_mask if dealias else None
    u0h, v0h = _initial_spectra(state)
    p0 = _free_path(u0h, v0h, tables, steps)
    p1 = _apply_solution_map(g, cfg, p0, u0h, v0h, tables, mask)
    d0 = _path_distance(g, p1, p0)
    if d0 <= 1e-300:
        return 0.0
    p2 = _apply_solution_map(g, cfg, p1, u0h, v0h, tables, mask)
    return _path_distance(g, p2, p1) / d0


def picard_time(
    state: WaveState,
    cfg: CouplingConfig,
    target_ratio: float,
    trial_T: float = 0.5,
    steps: int = 32,
) -> float:
    """Largest horizon (up to the search tolerance) whose measured first
    contraction ratio lies in [target_ratio/2, target_ratio].

    The ratio scales about linearly with T, so the search rescales T
    proportionally; it errors out if T underflows 1e-8 without success.
    """
    if not (0 < target_ratio < 1):
        raise ValueError("target_ratio must lie in (0, 1)")
    T = float(trial_T)
    r = first_contraction_ratio(state, cfg, T, steps)
    if r == 0.0:
        return T
    for _ in range(60):
        if target_ratio / 2 <= r <= target_ratio:
            return T
        # aim at 0.75*target: the ratio is about linear in T, so rescale
        T *= 0.75 * target_ratio / r
        if T < 1e-8:
            raise RuntimeError("no admissible horizon above the underflow guard")
        r = first_contraction_ratio(state, cfg, T, steps)
    raise RuntimeError("contraction-ratio search did not settle")
