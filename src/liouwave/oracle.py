"""Brute-force references used by the test suite.

dense_evolve integrates the first-order system (u, v) in the full discrete
Fourier eigenbasis with classical RK4 at a far finer resolution than the
production stepper; direct_ball_mass is the masked-summation counterpart of
the convolution-based ball-mass map.  Test-scale only: grids are capped at
16 x 16, so dense_evolve transforms all components by dense DFT matrices,
W1 @ X @ W2: it shares no FFT code with the production stepper, and at
these sizes the products cost less than FFT calls.
"""

from __future__ import annotations

import numpy as np

from .fields import WaveState
from .surface import SpectralGrid


def _dft_matrix(n: int) -> np.ndarray:
    """The n-point DFT matrix exp(-2*pi*i*k*l/n), with k*l reduced mod n."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * (np.outer(k, k) % n) / n)


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
    mask = g.dealias_mask if dealias else None
    w1, w2 = _dft_matrix(g.n1), _dft_matrix(g.n2)
    w1_inv, w2_inv = w1.conj() / g.n1, w2.conj() / g.n2

    def fft2(x):
        return w1 @ x @ w2

    def ifft2(x):
        return w1_inv @ x @ w2_inv

    uh, vh = fft2(state.u), fft2(state.v)
    neg_lam = -g.lap_symbol[None, :, :]

    def deriv(uh_in, vh_in):
        fh = fft2(rhs_eval(ifft2(uh_in).real))
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

    return WaveState(g, state.t + T, ifft2(uh).real, ifft2(vh).real)


def direct_ball_mass(grid: SpectralGrid, dens: np.ndarray, center, r: float) -> float:
    """Mass of `dens` over the flat-torus ball B(center, r) by direct masked
    summation (no convolution)."""
    mask = grid.torus_distance(center) <= r
    return float((dens * mask).sum() * grid.cell_area)
