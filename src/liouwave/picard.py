"""Local fixed-point solver and its contraction diagnostics.

The solution map F takes a candidate path u(s) on [0, T] to the solution of
the linear wave equation forced by rhs(u(s)), with the original initial data.
Iterating F from the free flow converges, for small T, to the orbit of the
frozen-forcing stepper on the same time grid; the measured sup-distance
ratios between successive iterates estimate the contraction factor, which
shrinks roughly linearly with T.  Every iterate preserves the component
averages of the initial data.

Paths are held as half (rfft) spectra, and F runs through the propagator's
per-mode update: the time-h factors and the masked forcing of a
`propagator.Stepper` (`factors`, `forcing`) and `kernels.gautschi_combine`,
the same ones `evolve` and `linear_flow` step with.  The iterates live in one
path buffer: F is causal (node j+1 of F(p) depends on nodes 0..j of p only),
so node j+1 of F(p) waits in a one-node buffer until p[j+1] has been read,
for its distance and its forcing, and is then stored over it.  Distances are
taken node by node (`_NodeDistance`: one product of the float view of a
node's difference with the grid's interleaved Parseval weights), with no
whole-path temporaries.  The path stays in mode space: `picard_solve`
returns its nodes as a read-only sequence of states, each transformed when
it is read (`_States`, a view of the report's `path`), and picard-verify
compares the stepper's orbit with the path's half spectra by the same
per-node distance (`sup_h1_distance`), transforming no node back.

The first contraction ratio has one definition, `_first_ratio`: the sup over
the nodes of d(F^2 u, F u) over that of d(F u, u), from the free path u.
`picard_solve` keeps the per-node distances of its own first two
corrections in its report, so by causality the ratio on [0, k h] for any
k <= m is read off the solve: nodes 0..k of the iterates are those of the
solve on k steps.  `first_contraction_ratio` computes the same quantity on
a grid of its own.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .fields import WaveState
from .propagator import Stepper
from .rhs import CouplingConfig

# a first correction at most this large counts as vanishing: ratio 0
_VANISHING = 1e-300


@dataclass
class PicardReport:
    """Ball radius, accepted horizon, and the measured contraction record.

    `first_distances` holds the per-node distances d(F u, u) and
    d(F^2 u, F u) of the first two corrections from the free path u (the
    second is left out when the first vanishes), and `path` the returned
    path's half spectra."""

    R: float
    T: float
    iterations: int
    contraction_ratios: list
    converged: bool
    final_distance: float
    first_distances: tuple = field(default=(), repr=False)
    path: _Path = field(default=None, repr=False)

    def first_ratio(self, nodes=None) -> float:
        """The first contraction ratio on nodes 0..nodes, i.e. on the horizon
        nodes*h (all nodes when None)."""
        return _first_ratio(self.first_distances, nodes)


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


class _NodeDistance:
    """Parseval distances between the half spectra of one node, shaped
    (ncomp, n1, n2//2+1): the H1 distance of two u and the L2 distance of two
    v, each one product of the squared float view of their difference with
    the grid's interleaved Parseval weights (`SpectralGrid.gram_weights`,
    plus `gram_gradient_weights` for H1).  Holds one node-sized scratch."""

    def __init__(self, grid, shape):
        self.norm = grid.area / (grid.n1 * grid.n2) ** 2
        ncomp = shape[0]
        self.h1w = np.tile((grid.gram_weights + grid.gram_gradient_weights).ravel(), ncomp)
        self.l2w = np.tile(grid.gram_weights, ncomp * grid.n1)
        self.diff = np.empty(shape, dtype=np.complex128)

    def _distance(self, a, b, weights) -> float:
        x = np.subtract(a, b, out=self.diff).view(np.float64).reshape(-1)
        return math.sqrt(self.norm * float(np.square(x, out=x) @ weights))

    def h1(self, au, bu) -> float:
        return self._distance(au, bu, self.h1w)

    def __call__(self, au, av, bu, bv) -> float:
        """(H1 distance of u) + (L2 distance of v)."""
        return self.h1(au, bu) + self._distance(av, bv, self.l2w)


class _States(Sequence):
    """A path's nodes as WaveStates, read-only: node j, at time t0 + j*h, is
    transformed from the path's half spectra when it is read (two inverse
    transforms), so no physical copy of the path is held.  A view of the
    path: it reads the spectra as they are at the time of the read."""

    __slots__ = ("grid", "t0", "h", "path")

    def __init__(self, grid, t0, h, path: _Path):
        self.grid, self.t0, self.h, self.path = grid, t0, h, path

    def __len__(self):
        return self.path.uh.shape[0]

    def __getitem__(self, j):
        j = range(len(self))[operator.index(j)]
        g = self.grid
        return WaveState(g, self.t0 + j * self.h, g.to_physical_half_stack(self.path.uh[j]),
                         g.to_physical_half_stack(self.path.vh[j]))


def _node_distances(grid, a: _Path, b: _Path) -> np.ndarray:
    """Per node, (H1 distance of u) + (L2 distance of v) (`_NodeDistance`)."""
    dist = _NodeDistance(grid, a.uh.shape[1:])
    return np.array([dist(a.uh[j], a.vh[j], b.uh[j], b.vh[j]) for j in range(a.uh.shape[0])])


def _path_distance(grid, a: _Path, b: _Path) -> float:
    """sup over nodes of `_node_distances`."""
    return float(_node_distances(grid, a, b).max())


def sup_h1_distance(grid, path, state0, cfg, h, dealias):
    """sup over the Picard time grid of the H1 distance between the u of
    `path` (a Picard path's half spectra) and the frozen-scheme orbit started
    from the same data, which picard-verify reports.  The orbit is stepped
    as `evolve` steps it, carried in mode space through `Stepper.step` (per
    node one forward transform of the forcing and one inverse transform of
    the new u), and each distance is the Picard solve's per-node H1
    distance (`_NodeDistance`) on the half spectra."""
    step = Stepper(grid, h, cfg, "frozen", dealias)
    u = state0.u
    uh, vh = grid.to_spectral_half_stack(u), grid.to_spectral_half_stack(state0.v)
    dist = _NodeDistance(grid, uh.shape)
    sup = dist.h1(path.uh[0], uh)
    for k in range(1, path.uh.shape[0]):
        uh, vh, u = step.step(uh, vh, step.forcing(u))
        sup = max(sup, dist.h1(path.uh[k], uh))
    return sup


def _free_path(u0h, v0h, factors, m) -> _Path:
    """The solution map with zero forcing: the free flow at the nodes."""
    uh = np.empty((m + 1,) + u0h.shape, dtype=np.complex128)
    vh = np.empty_like(uh)
    uh[0], vh[0] = u0h, v0h
    zero, tmp = np.zeros_like(u0h), np.empty_like(u0h)
    for j in range(m):
        kernels.gautschi_combine(*factors, uh[j], vh[j], zero, uh[j + 1], vh[j + 1], tmp=tmp)
    return _Path(uh, vh)


def _iterates(path: _Path, step: Stepper):
    """The Picard iterates F(p), F^2(p), ... of the path p, each written over
    p's own buffer, with its per-node distances to the iterate before.

    F(p) starts from p's node 0, the initial data, and steps node j with
    the forcing frozen at p[j].  Node j+1 of F(p) waits in a one-node buffer
    while p[j+1] is read for its distance and then for its forcing, and is
    stored over p[j+1] before the next combine reads it."""
    grid, m = step.grid, path.uh.shape[0] - 1
    node_uh, node_vh, tmp = (np.empty_like(path.uh[0]) for _ in range(3))
    dist = _NodeDistance(grid, node_uh.shape)
    while True:
        d = np.zeros(m + 1)  # node 0 is the initial data in every iterate
        for j in range(m):
            fh, _ = step.forcing(grid.to_physical_half_stack(path.uh[j]))
            if j > 0:
                path.uh[j], path.vh[j] = node_uh, node_vh
            kernels.gautschi_combine(*step.factors, path.uh[j], path.vh[j], fh, node_uh, node_vh,
                                     tmp=tmp)
            d[j + 1] = dist(node_uh, node_vh, path.uh[j + 1], path.vh[j + 1])
        path.uh[m], path.vh[m] = node_uh, node_vh
        yield path, d


def _free_path_iterates(state, cfg, h, m, dealias):
    """The free path on m steps of h from the state's data, and its Picard
    iterates (`_iterates`), which overwrite it."""
    g = state.grid
    step = Stepper(g, h, cfg, "frozen", dealias)
    u0h, v0h = g.to_spectral_half_stack(state.u), g.to_spectral_half_stack(state.v)
    path = _free_path(u0h, v0h, step.factors, m)
    return path, _iterates(path, step)


def _first_complete(first) -> bool:
    """Whether `first` holds the per-node distances of both first
    corrections, or of the first alone when it vanishes."""
    return len(first) == 2 or (len(first) == 1 and float(first[0].max()) <= _VANISHING)


def _first_distances(iterates, taken=()) -> tuple:
    """Per-node distances of the first two corrections: those `taken`
    already, completed from `iterates`."""
    first = list(taken)
    while not _first_complete(first):
        first.append(next(iterates)[1])
    return tuple(first)


def _first_ratio(first_distances, nodes=None) -> float:
    """d(F^2 u, F u) / d(F u, u) as sups over nodes 0..nodes (all when
    None); 0 when the first correction vanishes there."""
    stop = None if nodes is None else nodes + 1
    lead = float(first_distances[0][:stop].max())
    if lead <= _VANISHING:
        return 0.0
    return float(first_distances[1][:stop].max()) / lead


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

    Returns (states, report): the converged discrete path, as a read-only
    sequence of its m+1 WaveStates (`_States`: `len`, integer indexes,
    repeated iteration), each transformed from `report.path` when it is
    read, and the PicardReport with per-iteration contraction ratios and
    the first two corrections' per-node distances (one more iteration is
    made, and not counted, when the solve stops after one).  Three
    consecutive ratios >= 1 abort with converged=False (shrink T).
    """
    if not (T > 0 and h > 0 and tol > 0):
        raise ValueError("T, h and tol must be positive")
    m = max(1, int(round(T / h)))
    path, iterates = _free_path_iterates(state, cfg, h, m, dealias)

    ratios = []
    distances = []
    first = []
    converged = False
    rising = 0
    for _ in range(max_iter):
        path, node_d = next(iterates)
        d = float(node_d.max())
        if len(first) < 2:
            first.append(node_d)
        if distances:
            prev = distances[-1]
            ratios.append(d / prev if prev > 0 else 0.0)
            rising = rising + 1 if ratios[-1] >= 1.0 else 0
        distances.append(d)
        if d <= tol:
            converged = True
            break
        if rising >= 3:
            break
    if not _first_complete(first):
        # the uncounted second correction is drawn over the path buffer
        path = _Path(path.uh.copy(), path.vh.copy())
        first = _first_distances(iterates, first)

    report = PicardReport(
        R=picard_radius(state),
        T=m * h,
        iterations=len(distances),
        contraction_ratios=ratios,
        converged=converged,
        final_distance=distances[-1] if distances else 0.0,
        first_distances=tuple(first),
        path=path,
    )
    return _States(state.grid, state.t, h, path), report


def first_contraction_ratio(state, cfg, T, steps=32, dealias=True) -> float:
    """d(F^2 u, F u) / d(F u, u) starting from the free path on `steps` steps
    of T/steps; 0 for data whose first correction already vanishes."""
    _, iterates = _free_path_iterates(state, cfg, T / steps, steps, dealias)
    return _first_ratio(_first_distances(iterates))


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
