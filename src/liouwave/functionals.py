"""Energies, Euler-Lagrange functionals, their L2 gradients, and the
Moser-Trudinger-type residual diagnostics.

Scalar families:   J(u) = 1/2 ||grad u||^2 - rho1 log int h1 e^{u - ubar}
                          - (rho2/a) log int h2 e^{-a(u - ubar)}
Coupled systems:   J(u) = 1/2 sum_ij Q_ij <grad u_i, grad u_j>
                          - sum_i c_i log int e^{u_i - ubar_i}
with Q the symmetrized inverse coupling and c_i = d_i rho_i.  The conserved
energy adds the matching kinetic quadratic form; E = kinetic + J is an
identity at every slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import WaveState
from .rhs import CouplingConfig, CouplingMatrix, rhs_fields
from .surface import SpectralGrid

EIGHT_PI = 8.0 * np.pi
FOUR_PI = 4.0 * np.pi


@dataclass
class FunctionalReport:
    """Diagnostics of one time slice."""

    t: float
    means: tuple
    v_means: tuple
    kinetic: float
    dirichlet: float
    log_plus: float
    log_minus: float
    J: float
    E: float
    mt_residual: float
    grad_l2: float


def _centered_log_integral(grid, u, sign, weight=None, scale=1.0):
    """log int w e^{sign*scale*(u - ubar)}."""
    centered = scale * (u - grid.mean(u))
    return grid.log_integral_exp(centered, sign, weight)


def _dirichlet_matrix(grid, u, q):
    """1/2 sum_ij q_ij <grad u_i, grad u_j>, computed spectrally."""
    n = u.shape[0]
    modes = [grid.to_spectral(u[i]) for i in range(n)]
    norm = grid.area / (grid.n1 * grid.n2) ** 2
    total = 0.0
    for i in range(n):
        for j in range(n):
            if q[i, j] == 0.0:
                continue
            cross = float((grid.lap_symbol * (modes[i] * np.conj(modes[j])).real).sum())
            total += q[i, j] * cross * norm
    return 0.5 * total


def _kinetic_matrix(grid, v, q):
    n = v.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if q[i, j] == 0.0:
                continue
            total += q[i, j] * grid.integrate(v[i] * v[j])
    return 0.5 * total


def functional_J_sg(grid: SpectralGrid, u: np.ndarray, rho1: float, rho2: float) -> float:
    """Unweighted symmetric functional
    1/2 ||grad u||^2 - rho1 log int e^{u-ubar} - rho2 log int e^{-u+ubar}."""
    dir_term = 0.5 * grid.seminorm_h1(u) ** 2
    lp = _centered_log_integral(grid, u, +1.0)
    lm = _centered_log_integral(grid, u, -1.0)
    return dir_term - rho1 * lp - rho2 * lm


def functional_J_scalar(grid: SpectralGrid, u: np.ndarray, cfg: CouplingConfig) -> float:
    """Family-correct scalar functional (weights and asymmetry included)."""
    rho1, rho2 = cfg.rho_pair()
    dir_term = 0.5 * grid.seminorm_h1(u) ** 2
    val = dir_term
    if rho1 != 0.0:
        val -= rho1 * _centered_log_integral(grid, u, +1.0, cfg.weight(0))
    if rho2 != 0.0:
        val -= (rho2 / cfg.a) * _centered_log_integral(
            grid, u, -1.0, cfg.weight(1), scale=cfg.a
        )
    return val


def functional_J_toda(grid: SpectralGrid, u: np.ndarray, rho, matrix: CouplingMatrix) -> float:
    q = matrix.energy_form()
    coeffs = matrix.log_coefficients(rho)
    val = _dirichlet_matrix(grid, u, q)
    for i in range(matrix.n):
        val -= coeffs[i] * _centered_log_integral(grid, u[i], +1.0)
    return val


def functional_J(grid: SpectralGrid, u: np.ndarray, cfg: CouplingConfig) -> float:
    """Dispatch on family; u is stacked (ncomp, n1, n2)."""
    if cfg.family == "toda":
        return functional_J_toda(grid, u, cfg.rho, cfg.matrix)
    return functional_J_scalar(grid, u[0], cfg)


def energy_sg(state: WaveState, rho1: float, rho2: float) -> float:
    """Conserved energy of the symmetric scalar flow:
    1/2 int(|du/dt|^2 + |grad u|^2) - rho1 log int e^{u-ubar}
    - rho2 log int e^{-u+ubar}."""
    g = state.grid
    u, v = state.u[0], state.v[0]
    kin = 0.5 * g.norm_l2(v) ** 2
    dir_term = 0.5 * g.seminorm_h1(u) ** 2
    lp = _centered_log_integral(g, u, +1.0)
    lm = _centered_log_integral(g, u, -1.0)
    return kin + dir_term - rho1 * lp - rho2 * lm


def energy_toda(state: WaveState, rho, matrix: CouplingMatrix) -> float:
    """Conserved energy of the coupled flow (inverse-coupling contractions on
    both the kinetic and Dirichlet terms)."""
    g = state.grid
    q = matrix.energy_form()
    coeffs = matrix.log_coefficients(rho)
    val = _kinetic_matrix(g, state.v, q) + _dirichlet_matrix(g, state.u, q)
    for i in range(matrix.n):
        val -= coeffs[i] * _centered_log_integral(g, state.u[i], +1.0)
    return val


def energy(state: WaveState, cfg: CouplingConfig) -> float:
    """Family dispatch; kinetic part plus the family-correct functional."""
    if cfg.family == "toda":
        return energy_toda(state, cfg.rho, cfg.matrix)
    g = state.grid
    kin = 0.5 * g.norm_l2(state.v[0]) ** 2
    return kin + functional_J_scalar(g, state.u[0], cfg)


def grad_J(grid: SpectralGrid, u: np.ndarray, cfg: CouplingConfig) -> np.ndarray:
    """L2 gradient of the functional: -Delta u minus the equation forcing.
    Vanishes exactly at constants for the symmetric problem."""
    if cfg.family == "toda":
        q = cfg.matrix.energy_form()
        coeffs = cfg.matrix.log_coefficients(cfg.rho)
        lap = np.stack([grid.minus_laplacian(u[j]) for j in range(cfg.matrix.n)])
        out = np.einsum("ij,jxy->ixy", q, lap)
        inv_area = 1.0 / grid.area
        for i in range(cfg.matrix.n):
            dens, _ = grid.normalized_exp(u[i], 1.0, cfg.weight(i))
            out[i] -= coeffs[i] * (dens - inv_area)
        return out
    uu = u[0] if u.ndim == 3 else u
    return grid.minus_laplacian(uu) - rhs_fields(grid, uu[None, :, :], cfg)[0]


def mt_residual(grid: SpectralGrid, u: np.ndarray, flavor: str = "standard", **params) -> float:
    """Sharp-constant residuals.

    standard: 1/2 ||grad u||^2 - 8 pi log int e^{u-ubar}
    sinh:     1/2 ||grad u||^2 - 8 pi (log int e^{u-ubar} + log int e^{-u+ubar})
    toda:     matrix-contracted Dirichlet form minus 4 pi per-component logs
              (params: matrix)
    improved: (1+eps)/2 ||grad u||^2 - 8 k pi log int e^{u-ubar}
              - 8 l pi log int e^{-u+ubar}  (params: k, l, eps)

    The geometric constant in the underlying inequalities is not explicit, so
    residual values are diagnostics, never asserted against a bound.
    """
    if flavor == "toda":
        matrix = params["matrix"]
        uu = u if u.ndim == 3 else u[None]
        val = _dirichlet_matrix(grid, uu, matrix.energy_form())
        for i in range(uu.shape[0]):
            val -= FOUR_PI * _centered_log_integral(grid, uu[i], +1.0)
        return val
    uu = u[0] if u.ndim == 3 else u
    dir_term = 0.5 * grid.seminorm_h1(uu) ** 2
    lp = _centered_log_integral(grid, uu, +1.0)
    lm = _centered_log_integral(grid, uu, -1.0)
    if flavor == "standard":
        return dir_term - EIGHT_PI * lp
    if flavor == "sinh":
        return dir_term - EIGHT_PI * (lp + lm)
    if flavor == "improved":
        k, l, eps = int(params["k"]), int(params["l"]), float(params.get("eps", 0.0))
        return (1.0 + eps) * dir_term - EIGHT_PI * k * lp - EIGHT_PI * l * lm
    raise ValueError(f"unknown residual flavor {flavor!r}")


def evaluate_report(state: WaveState, cfg: CouplingConfig) -> FunctionalReport:
    """Full per-slice diagnostics used by trajectory sampling.

    For the scalar families log_minus is log int h2 e^{-a(u - ubar)}, the
    measure of the equation's e^{-au} term.  For multi-component states
    log_plus/log_minus are the max over components of
    log int e^{+-(u_j - ubar_j)} (the blow-up monitors track the worst
    component).
    """
    g = state.grid
    n = state.ncomp
    means = tuple(g.mean(state.u[i]) for i in range(n))
    v_means = tuple(g.mean(state.v[i]) for i in range(n))
    seminorms = [g.seminorm_h1(state.u[i]) for i in range(n)]
    grad_l2 = max(seminorms)
    lps = [_centered_log_integral(g, state.u[i], +1.0) for i in range(n)]
    log_plus = max(lps)
    if cfg.family == "toda":
        log_minus = max(_centered_log_integral(g, state.u[i], -1.0) for i in range(n))
        q = cfg.matrix.energy_form()
        kinetic = _kinetic_matrix(g, state.v, q)
        dirichlet = _dirichlet_matrix(g, state.u, q)
        coeffs = cfg.matrix.log_coefficients(cfg.rho)
        jval = dirichlet - float(sum(coeffs[i] * lps[i] for i in range(n)))
        resid = mt_residual(g, state.u, "toda", matrix=cfg.matrix) if cfg.matrix.inverse is not None else float("nan")
    else:
        kinetic = 0.5 * g.norm_l2(state.v[0]) ** 2
        dirichlet = 0.5 * seminorms[0] ** 2
        jval = functional_J_scalar(g, state.u[0], cfg)
        log_minus = _centered_log_integral(g, state.u[0], -1.0, cfg.weight(1), scale=cfg.a)
        if cfg.family == "mean_field":
            resid = dirichlet - EIGHT_PI * lps[0]
        else:
            # the sinh residual is the unweighted a = 1 integral (see mt_residual)
            lm = log_minus
            if cfg.a != 1.0 or cfg.weight(1) is not None:
                lm = _centered_log_integral(g, state.u[0], -1.0)
            resid = dirichlet - EIGHT_PI * (lps[0] + lm)
    return FunctionalReport(
        t=state.t,
        means=means,
        v_means=v_means,
        kinetic=kinetic,
        dirichlet=dirichlet,
        log_plus=log_plus,
        log_minus=log_minus,
        J=jval,
        E=kinetic + jval,
        mt_residual=resid,
        grad_l2=grad_l2,
    )
