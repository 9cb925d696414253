"""Right-hand sides of the wave equations, for every equation family.

All families share the structure "coupling * (normalized exponential measure
minus the uniform density)", which integrates to zero.  The public
`rhs_scalar` and `rhs_toda` subtract their discrete mean, so the zero-mean
structure holds to round-off.  `rhs_fields`, the forcing the propagator
steps with, leaves out both the constant -rho/|M| offsets and the mean
subtraction: the stepper removes the forcing's zero mode itself
(`propagator.Stepper.forcing`), which conserves the component averages
exactly.

Each measure takes one exponential pass (`SpectralGrid.shifted_exp`),
whose max is also the finiteness check: a NaN or +inf exponent raises
`DynamicRangeError`.  Its normalizer 1/Z and its rho fold into one scale of
the exponential, with no density array of its own; the pass also yields the
measure's log-normalizer, which `rhs_fields` hands back on request, so a
sample of the same state reads its log-integrals without exponentiating
again.  Toda components are combined by one coupling-matrix product.  The
stepper hands `rhs_fields` buffers it keeps, so its forcing allocates no
grid-sized array.
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


def _exp_measure(grid, x, sign, log_weight, out):
    """Writes e^{g - m} of the measure w e^{sign*x} into `out` by one
    exponential pass (`SpectralGrid.shifted_exp`), g its exponent and
    m = max g.  Returns (z, log Z): z = the integral of out, so out/z is the
    measure's density, and log Z = m + log z its log-normalizer.  Rejects
    states whose exponent is out of range."""
    try:
        _, m, s = grid.shifted_exp(x, sign, log_weight, out)
    except ValueError as exc:
        raise DynamicRangeError("state out of dynamic range") from exc
    z = grid.cell_area * s
    return z, m + float(np.log(z))


def _scalar_forcing(grid, u, cfg, out, work):
    """Writes rho1 h1 e^u / Z1 - rho2 h2 e^{-a u} / Z2 of the one component
    u into `out`, each measure's exponential scaled by one factor rho / z,
    with `work` holding the second; returns the log-normalizers of the two
    measures (None where rho = 0, which the forcing does not evaluate)."""
    if cfg.family == "toda":
        raise ValueError("use rhs_toda for toda configurations")
    rho1, rho2 = cfg.rho_pair()
    logz = [None, None]
    if rho1 == 0.0 and rho2 == 0.0:
        out.fill(0.0)
        return logz
    if rho1 != 0.0:
        z, logz[0] = _exp_measure(grid, u, 1, cfg.log_weight(0), out)
        out *= rho1 / z
    if rho2 != 0.0:
        dens = out if rho1 == 0.0 else work
        x = u if cfg.a == 1.0 else np.multiply(u, cfg.a, out=dens)
        z, logz[1] = _exp_measure(grid, x, -1, cfg.log_weight(1), dens)
        dens *= -rho2 / z
        if dens is not out:
            out += dens
    return logz


def _toda_forcing(grid, u, cfg, out, work):
    """Writes sum_j a_ij rho_j e^{u_j} / Z_j into component i of `out`, from
    the exponentials of every component in `work`, by one product with the
    coupling matrix whose columns carry the scales rho_j / z_j; returns the
    log-normalizer of each component's measure."""
    if cfg.family != "toda":
        raise ValueError("rhs_toda requires a toda configuration")
    n = cfg.matrix.n
    if u.shape[0] != n:
        raise ValueError(f"expected {n} components, got {u.shape[0]}")
    z = np.empty(n)
    logz = [None] * n
    for j in range(n):
        z[j], logz[j] = _exp_measure(grid, u[j], 1, cfg.log_weight(j), work[j])
    coeff = cfg.matrix.entries * (np.asarray(cfg.rho) / z)[None, :]
    np.matmul(coeff, work.reshape(n, -1), out=out.reshape(n, -1))
    return logz


def _buffer(buf, shape):
    """`buf` checked to be a C-contiguous float array of `shape` (its
    reshapes must be views), or a fresh one when None."""
    if buf is None:
        return np.empty(shape)
    if buf.shape != shape or buf.dtype != np.float64 or not buf.flags.c_contiguous:
        raise ValueError(f"forcing buffers must be C-contiguous float arrays of shape {shape}")
    return buf


def _zero_mean(f):
    """f minus the discrete mean of each component (the last two axes)."""
    f -= f.mean(axis=(-2, -1), keepdims=True)
    return f


def rhs_scalar(grid: SpectralGrid, u: np.ndarray, cfg: CouplingConfig) -> np.ndarray:
    """Forcing of the scalar families:

        rho1*(h1 e^u / int(h1 e^u) - 1/|M|) - rho2*(h2 e^{-a u} / int - 1/|M|)

    The output mean is subtracted, so the result integrates to zero exactly.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.empty(u.shape)
    _scalar_forcing(grid, u, cfg, out, np.empty(u.shape))
    return _zero_mean(out)


def rhs_toda(grid: SpectralGrid, u: np.ndarray, cfg: CouplingConfig) -> np.ndarray:
    """Forcing of the coupled system: component i gets
    sum_j a_ij rho_j (e^{u_j} / int(e^{u_j}) - 1/|M|), mean-subtracted."""
    u = np.asarray(u, dtype=np.float64)
    out = np.empty(u.shape)
    _toda_forcing(grid, u, cfg, out, np.empty(u.shape))
    return _zero_mean(out)


def rhs_fields(grid: SpectralGrid, u: np.ndarray, cfg: CouplingConfig,
               return_log_normalizers: bool = False, out=None, work=None):
    """The forcing of stacked (ncomp, n1, n2) input, up to one constant per
    component: it leaves out the -rho/|M| offsets and keeps its discrete
    mean, because the integrators drop the forcing's zero mode
    (`propagator.Stepper.forcing`, `oracle.dense_evolve`).  `rhs_scalar` and
    `rhs_toda` give the zero-mean forcing.

    Each measure takes one exponential pass and one scale.  `out` receives
    the forcing and `work` holds the measures' exponentials: C-contiguous
    float arrays of shape (ncomp, n1, n2), fresh when None, so a caller that
    keeps them (the stepper) makes no grid-sized array per call.

    With `return_log_normalizers`, returns (forcing, logz): logz[i] is the
    log-normalizer log int w e^{sign*scale*u_c} of measure i of
    `functionals.equation_measures(cfg)`, which the forcing divided by, or
    None for a measure with rho = 0, which the forcing does not evaluate.
    The report reads a measure's centred log-integral off it as
    logz[i] - sign*scale*ubar_c.
    """
    u = np.asarray(u, dtype=np.float64)
    shape = (cfg.ncomp,) + u.shape[-2:]
    out, work = _buffer(out, shape), _buffer(work, shape)
    if cfg.family == "toda":
        logz = _toda_forcing(grid, u, cfg, out, work)
    else:
        logz = _scalar_forcing(grid, u[0], cfg, out[0], work[0])
    return (out, tuple(logz)) if return_log_normalizers else out
