"""Energies, Euler-Lagrange functionals, their L2 gradients, and the
Moser-Trudinger-type residuals (J at the inequalities' critical rho).

    J(u) = 1/2 sum_ij Q_ij <grad u_i, grad u_j>
           - sum_m c_m log int w_m e^{sign_m*scale_m*(u_c - ubar_c)}

over the measures m of `rhs.equation_measures`, with Q the symmetrized
inverse coupling (1 for the scalar families) and c_m the measure's
coefficient: rho1 and rho2/a for h1 e^u and h2 e^{-a u}, d_j rho_j for the
Toda measure h_j e^{u_j}.  The L2 gradient `grad_J` is one formula over the
same table.  The conserved energy adds the matching kinetic quadratic form;
E = kinetic + J is an identity at every slice.

J, E and the residuals all come from one pass over the half (rfft) spectra
of a slice (`_slice_terms`).  Means are the zero modes; H1 seminorms and the
Dirichlet and kinetic forms come from one Parseval Gram matrix per field
(`_gram`: one BLAS product with the grid's Hermitian column weights),
contracted with the energy form.  Each measure of the table has one centred
log-integral per slice, which J, the report's columns and the blow-up
monitor share.  `evolve` hands the report the half spectra it carries and the
log-normalizers of the forcing it evaluated on the same u, so a sample makes
no transform, and no log-sum-exp for a measure the forcing exponentiated;
without them the report takes one rfft per component of u and v and one
log-sum-exp per measure, and runs the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import WaveState
from .rhs import EIGHT_PI, FOUR_PI, CouplingConfig, equation_measures
from .surface import SpectralGrid


@dataclass
class FunctionalReport:
    """Diagnostics of one time slice.

    `log_integrals` holds the centred log-integral of each measure of
    `equation_measures(cfg)`, in that order (it is not a CSV column)."""

    t: float
    means: tuple
    v_means: tuple
    kinetic: float
    dirichlet: float
    log_plus: float
    log_minus: float
    J: float
    E: float
    grad_l2: float
    log_integrals: tuple


def _energy_form(cfg: CouplingConfig) -> np.ndarray:
    """The matrix Q contracting the Dirichlet and kinetic Gram matrices: the
    coupling matrix's energy form, and 1 for one component."""
    return cfg.matrix.energy_form() if cfg.ncomp > 1 else np.ones((1, 1))


def _stacked(u: np.ndarray) -> np.ndarray:
    return u if u.ndim == 3 else u[None]


def _gram(grid: SpectralGrid, modes: np.ndarray, gradient: bool) -> np.ndarray:
    """G_ij = <f_i, f_j> in L2, or <grad f_i, grad f_j> with `gradient`, of the
    stacked fields whose half spectra are `modes`, by Parseval: one BLAS
    product of the real view of the spectra with its column-weighted copy."""
    w = grid.gram_gradient_weights if gradient else grid.gram_weights
    n = modes.shape[0]
    x = np.ascontiguousarray(modes).view(np.float64).reshape(n, grid.n1, -1)
    gram = (x * w).reshape(n, -1) @ x.reshape(n, -1).T
    gram += gram.T  # symmetric to the bit
    return (0.5 * grid.area / (grid.n1 * grid.n2) ** 2) * gram


def _form(gram: np.ndarray, q: np.ndarray) -> float:
    """1/2 sum_ij q_ij G_ij."""
    return 0.5 * float((q * gram).sum())


def _means(grid: SpectralGrid, modes: np.ndarray) -> tuple:
    """Component averages, read off the zero modes."""
    return tuple(float(modes[i, 0, 0].real) / (grid.n1 * grid.n2) for i in range(modes.shape[0]))


def _centered_log_integral(grid, u, mean, sign, log_weight=None, scale=1.0,
                           log_normalizer=None) -> float:
    """log int w e^{sign*scale*(u - mean)} = log Z - sign*scale*mean, with
    log Z = log int w e^{sign*scale*u} (w = e^{log_weight}) the measure's
    log-normalizer: `log_normalizer` when the rhs took it on this u, else
    one log-sum-exp with the rhs's arithmetic."""
    if log_normalizer is None:
        log_normalizer = grid.log_integral_exp(u if scale == 1.0 else scale * u, sign,
                                               log_weight=log_weight)
    return float(log_normalizer - sign * scale * mean)


def _slice_terms(grid: SpectralGrid, u: np.ndarray, uh: np.ndarray, cfg: CouplingConfig,
                 log_normalizers=None) -> tuple:
    """J's terms on one slice of the stacked u, whose half spectra are uh:
    (Q, means, Dirichlet Gram matrix, Dirichlet form, centred log-integral of
    each measure of `equation_measures(cfg)`, J).  A measure with a
    log-normalizer in `log_normalizers` takes no log-sum-exp."""
    q = _energy_form(cfg)
    if uh.shape[0] != q.shape[0]:
        raise ValueError(f"expected {q.shape[0]} components, got {uh.shape[0]}")
    means = _means(grid, uh)
    grads = _gram(grid, uh, True)
    dirichlet = _form(grads, q)
    measures = equation_measures(cfg)
    if log_normalizers is None:
        log_normalizers = (None,) * len(measures)
    logs = tuple(
        _centered_log_integral(grid, u[m.component], means[m.component], m.sign, m.log_weight,
                               m.scale, logz)
        for m, logz in zip(measures, log_normalizers)
    )
    jval = dirichlet
    for m, lg in zip(measures, logs):
        if m.coefficient != 0.0:
            jval -= m.coefficient * lg
    return q, means, grads, dirichlet, logs, float(jval)


def functional_J(grid: SpectralGrid, u: np.ndarray, cfg: CouplingConfig) -> float:
    """The functional J (weights and asymmetry included); u is stacked
    (ncomp, n1, n2), or one (n1, n2) field for the scalar families."""
    u = _stacked(u)
    return _slice_terms(grid, u, grid.to_spectral_half_stack(u), cfg)[-1]


def energy(state: WaveState, cfg: CouplingConfig) -> float:
    """Conserved energy: the kinetic form (contracted with the energy form,
    as the Dirichlet one) plus the functional J."""
    return evaluate_report(state, cfg).E


def grad_J(grid: SpectralGrid, u: np.ndarray, cfg: CouplingConfig) -> np.ndarray:
    """L2 gradient of the functional, shaped as u: component i is

        sum_j Q_ij (-Delta u_j) - sum_m c_m sign_m scale_m (dens_m - 1/|M|)

    over the measures m on u_i (`equation_measures`), c_m the measure's
    coefficient in J and dens_m its density.  Vanishes at constants for the
    symmetric problem."""
    uu = _stacked(u)
    out = np.einsum("ij,jxy->ixy", _energy_form(cfg), grid.minus_laplacian(uu))
    for m in equation_measures(cfg):
        if m.coefficient != 0.0:
            dens, _ = grid.normalized_exp(m.scale * uu[m.component], m.sign,
                                          log_weight=m.log_weight)
            out[m.component] -= m.coefficient * m.sign * m.scale * (dens - 1.0 / grid.area)
    return out.reshape(np.shape(u))


def mt_residual(grid: SpectralGrid, u: np.ndarray, flavor: str = "standard", **params) -> float:
    """Sharp-constant residuals: the functional J, unweighted, at the
    critical parameters of each Moser-Trudinger inequality.

    standard: mean_field at rho = 8 pi
              (1/2 ||grad u||^2 - 8 pi log int e^{u-ubar})
    sinh:     sinh_gordon at (8 pi, 8 pi)
    toda:     toda at rho_j = 4 pi / d_j, d the symmetrizer, so every
              log-integral has coefficient 4 pi (params: matrix)
    improved: (1+eps) J at sinh_gordon (8 k pi, 8 l pi)/(1+eps)
              (params: k, l, eps)

    The geometric constant in the underlying inequalities is not explicit,
    so residual values are diagnostics, never asserted against a bound.
    """
    if flavor == "standard":
        return functional_J(grid, u, CouplingConfig("mean_field", (EIGHT_PI,)))
    if flavor == "sinh":
        return functional_J(grid, u, CouplingConfig("sinh_gordon", (EIGHT_PI, EIGHT_PI)))
    if flavor == "toda":
        mat = params["matrix"]
        # without a symmetrizer J is undefined, and its energy form says so
        d = np.ones(mat.n) if mat.symmetrizer is None else mat.symmetrizer
        return functional_J(grid, u, CouplingConfig("toda", FOUR_PI / d, matrix=mat))
    if flavor == "improved":
        k, l, eps = int(params["k"]), int(params["l"]), float(params.get("eps", 0.0))
        c = 1.0 + eps
        cfg = CouplingConfig("sinh_gordon", (EIGHT_PI * k / c, EIGHT_PI * l / c))
        return c * functional_J(grid, u, cfg)
    raise ValueError(f"unknown residual flavor {flavor!r}")


def evaluate_report(state: WaveState, cfg: CouplingConfig, spectra=None,
                    log_normalizers=None) -> FunctionalReport:
    """Full per-slice diagnostics used by trajectory sampling.

    `spectra` = (uh, vh) are the stacked half spectra of state.u and
    state.v; `evolve` passes the ones it carries, and then state.v is not
    read.  Without them the report transforms state.u and state.v.
    `log_normalizers` are those of `rhs_fields(..., return_log_normalizers=
    True)` on state.u, which `evolve` carries with the forcing: a measure
    with one has the centred log-integral log Z - sign*scale*ubar and takes
    no log-sum-exp.  Without one the report takes the same log Z by one
    log-sum-exp, so the two give the same bits.

    Each equation measure's centred log-integral is taken once and kept in
    `log_integrals`; J is made from them and the Dirichlet form as in
    `functional_J`, and E = kinetic + J.  For the scalar families log_plus
    is log int h1 e^{u - ubar} and log_minus is log int h2 e^{-a(u - ubar)},
    the two measures.  For coupled systems log_plus is the max over
    components of log int h_j e^{u_j - ubar_j} (the measures) and log_minus
    the max of the unweighted log int e^{-(u_j - ubar_j)}.  So a log-sum-exp
    is made only for a column that is not an equation measure with a
    log-normalizer: Toda's log_minus and measures with rho = 0.
    """
    g = state.grid
    if spectra is None:
        spectra = (g.to_spectral_half_stack(state.u), g.to_spectral_half_stack(state.v))
    uh, vh = spectra
    q, means, grads, dirichlet, logs, jval = _slice_terms(g, state.u, uh, cfg, log_normalizers)
    kinetic = _form(_gram(g, vh, False), q)
    if cfg.family == "toda":
        log_plus = max(logs)
        log_minus = max(_centered_log_integral(g, state.u[i], mean, -1)
                        for i, mean in enumerate(means))
    else:
        log_plus, log_minus = logs
    return FunctionalReport(
        t=float(state.t),
        means=means,
        v_means=_means(g, vh),
        kinetic=kinetic,
        dirichlet=dirichlet,
        log_plus=log_plus,
        log_minus=log_minus,
        J=jval,
        E=kinetic + jval,
        grad_l2=float(np.sqrt(grads.diagonal().max())),
        log_integrals=logs,
    )
