"""Brute-force references used by the test suite.

dense_evolve integrates the first-order system (u, v) in the full discrete
Fourier eigenbasis with classical RK4 at a far finer resolution than the
production stepper; direct_ball_mass is the masked-summation counterpart of
the convolution-based ball-mass map.  Test-scale only: grids are capped at
16 x 16.  The one economy is that dense_evolve transforms all components in
one batched call, which gives the same bits as one call per component and
keeps the acceptance oracle run inside its time budget.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .fields import WaveState
from .surface import SpectralGrid


def dense_evolve(state: WaveState, T: float, rhs_eval, substeps: int,
                 dealias: bool = False) -> WaveState:
    """RK4 on d/dt (uh, vh) = (vh, -lam*uh + fft(rhs(u))) with `substeps`
    steps over [state.t, state.t + T].  Grid must be at most 16 x 16.

    The forcing's zero mode is dropped, as the production stepper drops it:
    the equation's forcing integrates to zero, and `rhs_fields` leaves a
    constant per component for the integrator to remove.

    Set `dealias` to integrate the same forcing-projected system the
    production stepper integrates with its mask on."""
    g = state.grid
    if g.n1 > 16 or g.n2 > 16:
        raise ValueError("dense oracle is restricted to grids of at most 16 x 16")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    n = state.ncomp
    lam = g.lap_symbol
    mask = g.dealias_mask if dealias else None
    uh = np.stack([g.to_spectral(state.u[i]) for i in range(n)])
    vh = np.stack([g.to_spectral(state.v[i]) for i in range(n)])

    axes = (-2, -1)
    neg_lam = -lam[None, :, :]

    def deriv(uh_in, vh_in):
        u_phys = scipy.fft.ifft2(uh_in, axes=axes).real
        fh = scipy.fft.fft2(rhs_eval(u_phys), axes=axes)
        if mask is not None:
            fh *= mask
        fh[:, 0, 0] = 0.0
        return vh_in, neg_lam * uh_in + fh

    dt = T / substeps
    for _ in range(substeps):
        k1u, k1v = deriv(uh, vh)
        k2u, k2v = deriv(uh + 0.5 * dt * k1u, vh + 0.5 * dt * k1v)
        k3u, k3v = deriv(uh + 0.5 * dt * k2u, vh + 0.5 * dt * k2v)
        k4u, k4v = deriv(uh + dt * k3u, vh + dt * k3v)
        uh = uh + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        vh = vh + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)

    u = np.stack([g.to_physical(uh[i]) for i in range(n)])
    v = np.stack([g.to_physical(vh[i]) for i in range(n)])
    return WaveState(g, state.t + T, u, v)


def direct_ball_mass(grid: SpectralGrid, dens: np.ndarray, center, r: float) -> float:
    """Mass of `dens` over the flat-torus ball B(center, r) by direct masked
    summation (no convolution)."""
    mask = grid.torus_distance(center) <= r
    return float((dens * mask).sum() * grid.cell_area)
