"""Right-hand sides of the wave equations, and the table of their measures.

Every equation shares the structure "coupling * (normalized exponential
measure minus the uniform density)", which integrates to zero.
`equation_measures(cfg)` is the one table of an equation's measures
w e^{sign*scale*u_c}: per measure its sign, scale, weight, rho, coefficient
in J, column of the coupling matrix (the Cartan matrix of a Toda system,
[[1]] for the scalar families) and concentration window.  The forcing here,
J and its gradient (`functionals`), the report's log-integrals and the
blow-up monitor (`blowup`) all read it.

The public `rhs_scalar` and `rhs_toda` subtract their discrete mean, so the
zero-mean structure holds to round-off.  `rhs_fields`, the forcing the
propagator steps with, leaves out both the constant -rho/|M| offsets and the
mean subtraction: the stepper removes the forcing's zero mode itself
(`propagator.Stepper.forcing`), which conserves the component averages
exactly.

Each measure with rho != 0 takes one exponential pass
(`SpectralGrid.shifted_exp`), whose max is also the finiteness check: a NaN
or +inf exponent raises `DynamicRangeError`.  One matrix product then
applies the coupling columns, each scaled by its measure's sign*rho/Z, so
the normalizer 1/Z needs no density array of its own.  The pass also yields
the measure's log-normalizer, which `rhs_fields` hands back on request, so a
sample of the same state reads its log-integrals without exponentiating
again.  The stepper hands `rhs_fields` buffers it keeps, so its forcing
allocates no grid-sized array.
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

EIGHT_PI = 8.0 * np.pi
FOUR_PI = 4.0 * np.pi


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
    (toda, with `matrix` of rank n; no other family takes one).  `a` is the
    asymmetry exponent of the e^{-a u} measure and must be 1 except for
    asymmetric_sinh.  Weights, when given, are strictly positive fields, one
    per measure; their logs are taken once, here, and every log-sum-exp of a
    weighted measure adds them (`log_weight`).
    """

    family: str
    rho: tuple
    a: float = 1.0
    weights: Optional[tuple] = None
    matrix: Optional[CouplingMatrix] = None
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
            if self.matrix is not None:
                raise ValueError("a coupling matrix is only valid for toda")
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
            for w in self.weights:
                if w is None:
                    continue
                if not np.all(np.isfinite(w)) or not np.all(w > 0):
                    raise ValueError("weights must be strictly positive")
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


@dataclass(eq=False)
class Measure:
    """One measure w e^{sign*scale*u_c} of the equation's nonlinearity, on
    component c = `component`: the log of its weight (None when unweighted),
    its rho, its coefficient in J (rho/scale times the symmetrizer entry
    d_c; None when the coupling has no symmetrizer, which leaves J
    undefined), its column A[:, c] of the coupling matrix A ([1] for the
    scalar families) through which its density drives the components, the
    width of its concentration windows and a name for alarms."""

    sign: int
    scale: float
    log_weight: Optional[np.ndarray]
    rho: float
    coefficient: Optional[float]
    coupling: np.ndarray
    window: float
    component: int
    name: str


def equation_measures(cfg: CouplingConfig) -> list:
    """The equation's measures, one per rho entry, in the order of rho:
    h1 e^{u} and h2 e^{-a u} for the scalar families (the second with
    rho2 = 0 for mean field; windows of 8 pi), h_j e^{u_j} per component
    for coupled systems (windows of 4 pi).  This is the one definition of
    the measures: the forcing, J, its gradient, the report and the monitor
    read them here.  Measures with rho = 0 are listed too; they enter
    neither the forcing, nor J, nor the monitor."""
    if cfg.family == "toda":
        entries, d = cfg.matrix.entries, cfg.matrix.symmetrizer
        return [Measure(+1, 1.0, cfg.log_weight(j), rho, None if d is None else d[j] * rho,
                        entries[:, j], FOUR_PI, j, f"e^{{u_{j + 1}}}")
                for j, rho in enumerate(cfg.rho)]
    rho1, rho2 = cfg.rho if len(cfg.rho) == 2 else (cfg.rho[0], 0.0)
    minus = "e^{-u}" if cfg.a == 1.0 else f"e^{{-{cfg.a:g}u}}"
    one = np.ones(1)
    return [Measure(+1, 1.0, cfg.log_weight(0), rho1, rho1, one, EIGHT_PI, 0, "e^{u}"),
            Measure(-1, cfg.a, cfg.log_weight(1), rho2, rho2 / cfg.a, one, EIGHT_PI, 0, minus)]


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


def _buffer(buf, shape):
    """`buf` checked to be a C-contiguous float array of `shape` (its
    reshapes must be views), or a fresh one when None."""
    if buf is None:
        return np.empty(shape)
    if buf.shape != shape or buf.dtype != np.float64 or not buf.flags.c_contiguous:
        raise ValueError(f"forcing buffers must be C-contiguous float arrays of shape {shape}")
    return buf


def rhs_scalar(grid: SpectralGrid, u: np.ndarray, cfg: CouplingConfig) -> np.ndarray:
    """Forcing of the scalar families on one (n1, n2) field:

        rho1*(h1 e^u / int(h1 e^u) - 1/|M|) - rho2*(h2 e^{-a u} / int - 1/|M|)

    The output mean is subtracted, so the result integrates to zero exactly.
    """
    return rhs_toda(grid, np.asarray(u)[None], cfg)[0]


def rhs_toda(grid: SpectralGrid, u: np.ndarray, cfg: CouplingConfig) -> np.ndarray:
    """Forcing of stacked (ncomp, n1, n2) input; for the coupled system,
    component i gets sum_j a_ij rho_j (e^{u_j} / int(e^{u_j}) - 1/|M|).
    The discrete mean of each component is subtracted."""
    f = rhs_fields(grid, u, cfg)
    f -= f.mean(axis=(-2, -1), keepdims=True)
    return f


def rhs_fields(grid: SpectralGrid, u: np.ndarray, cfg: CouplingConfig,
               return_log_normalizers: bool = False, out=None, work=None):
    """The forcing of stacked (ncomp, n1, n2) input, up to one constant per
    component: component i gets sum_m A[i, c_m] sign_m rho_m dens_m over
    the measures m of `equation_measures(cfg)` with rho_m != 0, dens_m the
    density of the measure on component c_m.  It leaves out the -rho/|M|
    offsets and keeps its discrete mean, because the integrators drop the
    forcing's zero mode (`propagator.Stepper.forcing`, and the test
    suite's dense reference integrator, `dense_evolve` in `tests/oracle.py`).
    `rhs_scalar` and `rhs_toda` give the zero-mean forcing.

    Each measure with rho != 0 takes one exponential pass into its own
    slice of `work`; one matrix product then applies the coefficients
    C[i, m] = A[i, c_m] sign_m rho_m / z_m, z_m the integral of the
    exponential.  `out` receives the forcing, shaped as u, and `work` has
    one (n1, n2) slice per measure of the table: C-contiguous float arrays,
    fresh when None, so a caller that keeps them (the stepper) makes no
    grid-sized array per call.

    With `return_log_normalizers`, returns (forcing, logz): logz[m] is the
    log-normalizer log int w e^{sign*scale*u_c} of measure m, which the
    forcing divided by, or None for a measure with rho = 0, which the
    forcing does not evaluate.  The report reads a measure's centred
    log-integral off it as logz[m] - sign*scale*ubar_c.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 3 or u.shape[0] != cfg.ncomp:
        raise ValueError(f"expected {cfg.ncomp} stacked components, got shape {u.shape}")
    measures = equation_measures(cfg)
    out = _buffer(out, u.shape)
    work = _buffer(work, (len(measures),) + u.shape[1:])
    logz = [None] * len(measures)
    coeff = np.empty((cfg.ncomp, len(measures)))
    k = 0  # measures exponentiated so far: work[:k] holds them
    for i, m in enumerate(measures):
        if m.rho == 0.0:
            continue
        x = u[m.component]
        if m.scale != 1.0:
            x = np.multiply(x, m.scale, out=work[k])
        z, logz[i] = _exp_measure(grid, x, m.sign, m.log_weight, work[k])
        coeff[:, k] = m.coupling * (m.sign * m.rho / z)
        k += 1
    np.matmul(coeff[:, :k], work.reshape(len(measures), -1)[:k], out=out.reshape(cfg.ncomp, -1))
    return (out, tuple(logz)) if return_log_normalizers else out
