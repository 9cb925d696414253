"""Right-hand sides of the wave equations, for every equation family.

All families share the structure "coupling * (normalized exponential measure
minus the uniform density)", which integrates to zero; outputs get their
discrete mean subtracted so the zero-mean structure holds to round-off and
the component averages are conserved exactly by the propagator.

Each measure takes one exponential pass (`SpectralGrid.normalized_exp`),
whose max is also the finiteness check: a NaN or +inf exponent raises
`DynamicRangeError`.  The pass also yields the measure's log-normalizer,
which `rhs_fields` hands back on request, so a sample of the same state
reads its log-integrals without exponentiating again.  Toda components are
combined by one coupling-matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Optional

import numpy as np

from .surface import SpectralGrid

FAMILIES = ("mean_field", "sinh_gordon", "asymmetric_sinh", "toda")

_RHO_ARITY = {"mean_field": 1, "sinh_gordon": 2, "asymmetric_sinh": 2}


class DynamicRangeError(RuntimeError):
    """State drove the exponential nonlinearity out of dynamic range."""


@dataclass
class CouplingMatrix:
    """Coupling matrix of a multi-component system.

    `symmetrizer` is a positive diagonal d with d_i a_ij = d_j a_ji (None when
    no such d exists); `inverse` is the plain matrix inverse (None when
    singular, which disables the energy functionals).
    """

    kind: str
    n: int
    entries: np.ndarray
    symmetrizer: Optional[np.ndarray]
    inverse: Optional[np.ndarray]

    def energy_form(self) -> np.ndarray:
        """Symmetric matrix Q = diag(d) @ inverse contracting the kinetic and
        Dirichlet terms of the conserved energy.  For symmetric couplings
        (d = 1) this is just the inverse."""
        if self.inverse is None:
            raise ValueError("energy undefined for singular coupling")
        if self.symmetrizer is None:
            raise ValueError("energy undefined for non-symmetrizable coupling")
        return self.symmetrizer[:, None] * self.inverse

    def log_coefficients(self, rho) -> np.ndarray:
        """Coefficients d_i * rho_i of the log-integral terms of the energy."""
        if self.symmetrizer is None:
            raise ValueError("energy undefined for non-symmetrizable coupling")
        return self.symmetrizer * np.asarray(rho, dtype=float)


def _tridiagonal_symmetrizer(a: np.ndarray) -> Optional[np.ndarray]:
    """Forward recursion d_1 = 1, d_j = d_{j-1} a_{j-1,j} / a_{j,j-1},
    normalized to the smallest positive integers when rational; verified
    against the defining identity before being returned."""
    n = a.shape[0]
    d = [Fraction(1)]
    for j in range(1, n):
        up, lo = a[j - 1, j], a[j, j - 1]
        if lo == 0 or up == 0:
            return None
        d.append(d[-1] * Fraction(up) / Fraction(lo))
    if any(x <= 0 for x in d):
        return None
    denom = 1
    for x in d:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in d]
    g = 0
    for x in ints:
        g = gcd(g, x)
    dv = np.array([x // g for x in ints], dtype=float)
    if not np.allclose(dv[:, None] * a, (dv[:, None] * a).T, rtol=0, atol=1e-12 * max(1.0, np.abs(a).max())):
        return None
    return dv


def _finish_matrix(kind: str, a: np.ndarray) -> CouplingMatrix:
    n = a.shape[0]
    if np.allclose(a, a.T, rtol=0, atol=0):
        d = np.ones(n)
    else:
        d = _tridiagonal_symmetrizer(a)
    try:
        inv = np.linalg.inv(a)
        if not np.allclose(a @ inv, np.eye(n), atol=1e-10):
            inv = None
    except np.linalg.LinAlgError:
        inv = None
    return CouplingMatrix(kind, n, a, d, inv)


def cartan_matrix(kind: str, n: int) -> CouplingMatrix:
    """Coupling matrices of kind A, B, C (rank n) or G2 (rank 2).

    A_n is the symmetric tridiagonal 2/-1 matrix; B_n and C_n modify one of
    the two trailing off-diagonal entries to -2; G2 = [[2,-1],[-3,2]].
    """
    kind = kind.upper()
    if kind == "G2":
        if n != 2:
            raise ValueError("G2 has rank 2")
        a = np.array([[2.0, -1.0], [-3.0, 2.0]])
        return _finish_matrix(kind, a)
    if kind not in ("A", "B", "C"):
        raise ValueError(f"unknown matrix kind {kind!r}; expected A, B, C or G2")
    if n < 1:
        raise ValueError("rank must be >= 1")
    a = 2.0 * np.eye(n)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = -1.0
    a[idx + 1, idx] = -1.0
    if n >= 2:
        if kind == "B":
            a[n - 2, n - 1] = -2.0
        elif kind == "C":
            a[n - 1, n - 2] = -2.0
    return _finish_matrix(kind, a)


def coupling_matrix_from_entries(entries) -> CouplingMatrix:
    """Custom coupling matrix; symmetrizer and inverse are computed when they
    exist, otherwise left unset (energy diagnostics disabled)."""
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("coupling matrix must be square")
    return _finish_matrix("custom", a)


@dataclass
class CouplingConfig:
    """Equation family plus its parameters.

    rho has length 1 (mean_field), 2 (sinh_gordon, asymmetric_sinh) or n
    (toda, with `matrix` of rank n).  `a` is the asymmetry exponent of the
    e^{-a u} measure and must be 1 except for asymmetric_sinh.  Weights, when
    given, are strictly positive fields, one per measure; their logs are
    taken once, here, and every log-sum-exp of a weighted measure adds them
    (`log_weight`).
    """

    family: str
    rho: tuple
    a: float = 1.0
    weights: Optional[tuple] = None
    matrix: Optional[CouplingMatrix] = None
    weight_bound: float = field(init=False, default=1.0)
    log_weights: Optional[tuple] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        self.rho = tuple(float(r) for r in np.atleast_1d(self.rho))
        if self.family == "toda":
            if self.matrix is None:
                raise ValueError("toda requires a coupling matrix")
            if self.matrix.n < 2:
                raise ValueError("toda systems have at least 2 components")
            if len(self.rho) != self.matrix.n:
                raise ValueError(
                    f"toda with rank {self.matrix.n} needs {self.matrix.n} rho values"
                )
        else:
            if len(self.rho) != _RHO_ARITY[self.family]:
                raise ValueError(
                    f"family {self.family} takes {_RHO_ARITY[self.family]} rho value(s)"
                )
        if not self.a > 0:
            raise ValueError("asymmetry exponent must be positive")
        if self.family != "asymmetric_sinh" and self.a != 1.0:
            raise ValueError("a != 1 is only valid for asymmetric_sinh")
        if self.weights is not None:
            self.weights = tuple(
                None if w is None else np.asarray(w, dtype=float) for w in self.weights
            )
            if len(self.weights) != self.ncomp_measures:
                raise ValueError(
                    f"expected {self.ncomp_measures} weight slots, got {len(self.weights)}"
                )
            bound = 1.0
            for w in self.weights:
                if w is None:
                    continue
                if not np.all(np.isfinite(w)) or not np.all(w > 0):
                    raise ValueError("weights must be strictly positive")
                bound = max(bound, float(w.max()), float(1.0 / w.min()))
            self.weight_bound = bound
            self.log_weights = tuple(None if w is None else np.log(w) for w in self.weights)

    @property
    def ncomp(self) -> int:
        return self.matrix.n if self.family == "toda" else 1

    @property
    def ncomp_measures(self) -> int:
        return self.matrix.n if self.family == "toda" else 2

    def log_weight(self, i: int):
        """log of measure i's weight field, or None when it is unweighted."""
        if self.log_weights is None:
            return None
        return self.log_weights[i]

    def rho_pair(self):
        """(rho1, rho2) with rho2 = 0 for the mean-field family."""
        if self.family == "toda":
            raise ValueError("scalar rho pair undefined for toda")
        if self.family == "mean_field":
            return self.rho[0], 0.0
        return self.rho[0], self.rho[1]


def _measure_density(grid, values, sign, log_weight):
    """Normalized density of w * e^{sign*values} (w = e^{log_weight}) and its
    log-normalizer log int w e^{sign*values}, from one exponential pass;
    rejects states whose exponent is out of range."""
    try:
        return grid.normalized_exp(values, sign, log_weight=log_weight)
    except ValueError as exc:
        raise DynamicRangeError("state out of dynamic range") from exc


def _rhs_scalar(grid, u, cfg):
    """(forcing, log-normalizers of the two measures, None where rho = 0)."""
    if cfg.family == "toda":
        raise ValueError("use rhs_toda for toda configurations")
    rho1, rho2 = cfg.rho_pair()
    logz = [None, None]
    out = None
    # the -1/|M| offsets are constants, so they drop out under the final
    # mean subtraction
    if rho1 != 0.0:
        out, logz[0] = _measure_density(grid, u, 1, cfg.log_weight(0))
        out *= rho1
    if rho2 != 0.0:
        dens, logz[1] = _measure_density(grid, u if cfg.a == 1.0 else cfg.a * u, -1,
                                         cfg.log_weight(1))
        dens *= -rho2
        if out is None:
            out = dens
        else:
            out += dens
    if out is None:
        return np.zeros_like(u), logz
    out -= out.mean()
    return out, logz


def _rhs_toda(grid, u, cfg):
    """(forcing, log-normalizer of each component's measure)."""
    if cfg.family != "toda":
        raise ValueError("rhs_toda requires a toda configuration")
    n = cfg.matrix.n
    if u.shape[0] != n:
        raise ValueError(f"expected {n} components, got {u.shape[0]}")
    dens = np.empty((n, u[0].size))
    logz = [None] * n
    for j in range(n):
        d, logz[j] = _measure_density(grid, u[j], 1, cfg.log_weight(j))
        dens[j] = d.ravel()
    # the -1/|M| offsets drop out under the mean subtraction, as above
    coeff = cfg.matrix.entries * np.asarray(cfg.rho)[None, :]
    out = coeff @ dens
    out -= out.mean(axis=1, keepdims=True)
    return out.reshape(u.shape), logz


def rhs_scalar(grid: SpectralGrid, u: np.ndarray, cfg: CouplingConfig) -> np.ndarray:
    """Forcing of the scalar families:

        rho1*(h1 e^u / int(h1 e^u) - 1/|M|) - rho2*(h2 e^{-a u} / int - 1/|M|)

    The output mean is subtracted, so the result integrates to zero exactly.
    """
    return _rhs_scalar(grid, u, cfg)[0]


def rhs_toda(grid: SpectralGrid, u: np.ndarray, cfg: CouplingConfig) -> np.ndarray:
    """Forcing of the coupled system: component i gets
    sum_j a_ij rho_j (e^{u_j} / int(e^{u_j}) - 1/|M|), mean-subtracted."""
    return _rhs_toda(grid, u, cfg)[0]


def rhs_fields(grid: SpectralGrid, u: np.ndarray, cfg: CouplingConfig,
               return_log_normalizers: bool = False):
    """Family dispatch on stacked (ncomp, n1, n2) input.

    With `return_log_normalizers`, returns (forcing, logz): logz[i] is the
    log-normalizer log int w e^{sign*scale*u_c} of measure i of
    `functionals.equation_measures(cfg)`, which the forcing divided by, or
    None for a measure with rho = 0, which the forcing does not evaluate.
    The report reads a measure's centred log-integral off it as
    logz[i] - sign*scale*ubar_c.
    """
    if cfg.family == "toda":
        out, logz = _rhs_toda(grid, u, cfg)
    else:
        out, logz = _rhs_scalar(grid, u[0], cfg)
        out = out[None, :, :]
    return (out, tuple(logz)) if return_log_normalizers else out
