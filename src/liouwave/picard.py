"""Local fixed-point solver and its contraction diagnostics.

The solution map F takes a candidate path u(s) on [0, T] to the solution of
the linear wave equation forced by rhs(u(s)), with the original initial data.
Iterating F from the free flow converges, for small T, to the orbit of the
frozen-forcing stepper on the same time grid; the measured sup-distance
ratios between successive iterates estimate the contraction factor, which
shrinks roughly linearly with T.  Every iterate preserves the component
averages of the initial data.

F runs through the step `evolve` takes: each path (`_Path`) holds one
frozen `propagator.Stepper`, whose `forcing` and `step` its replays, the
map and picard-verify's orbit all use.  A path is held as what fixes it:
node 0's half (rfft) spectra and, for each step, the forcing spectrum the
step was taken with, of which only the kept two-thirds band is stored when
the forcing is dealiased (58 KB per node against 266 KB for a node's
(uh, vh) at 128^2).  A node is read by replaying the step from node 0, bit
for bit the node the solve computed.  Every orbit starts from a copy of
node 0, which stays read-only; a node's arrays are taken over at the next
step of any orbit.  The iterates overwrite one path: F is causal (node j+1
of F(p) depends on nodes 0..j of p only), so the old path p is replayed and
the new one advanced side by side, and step j's slot takes its new forcing
once p[j+1] has been replayed from the old one (`_correction`).  Distances
are taken node by node (`_NodeDistance`: one product of the float view of
a node's difference with the grid's interleaved Parseval weights), with no
whole-path temporaries.  `picard_solve` returns the nodes as a read-only
sequence of states, replayed and transformed when read (`_States`, a view
of the report's `path`), and picard-verify compares the stepper's orbit
with the replayed half spectra by the same per-node distance
(`sup_h1_distance`), transforming no node back.

The first contraction ratio has one definition, `PicardReport.first_ratio`:
the sup over the nodes of d(F^2 u, F u) over that of d(F u, u), from the
free path u.  `picard_solve` keeps the per-node distances of its own first
two corrections in its report, so by causality the ratio on [0, k h] for
any k <= m is read off the solve: nodes 0..k of the iterates are those of
the solve on k steps.  `first_contraction_ratio` is the ratio of a
one-iteration solve on a grid of its own.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

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
    path: node 0's half spectra and each step's kept forcing block
    (`_Path`), whose nodes `path.nodes()` replays."""

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
        nodes*h (all nodes when None): d(F^2 u, F u) / d(F u, u) as sups
        over those nodes; 0 when the first correction vanishes there."""
        stop = None if nodes is None else nodes + 1
        lead = float(self.first_distances[0][:stop].max())
        if lead <= _VANISHING:
            return 0.0
        return float(self.first_distances[1][:stop].max()) / lead


def picard_radius(state: WaveState) -> float:
    """3 * (||u0||_H1 + ||u1||_L2), with component-stacked norms."""
    g = state.grid
    h1 = np.sqrt(sum(g.norm_h1(state.u[i]) ** 2 for i in range(state.ncomp)))
    l2 = np.sqrt(sum(g.norm_l2(state.v[i]) ** 2 for i in range(state.ncomp)))
    return 3.0 * float(h1 + l2)


class _Path:
    """One Picard iterate, held as what fixes it: node 0's half spectra
    (u0h, v0h), shaped (ncomp, n1, n2//2+1), and for each step j the kept
    block of the masked forcing spectrum that step was taken with.  With
    the two-thirds mask that block is the modes the mask keeps (rows
    |k1| <= n1//3, columns k2 <= n2//3), packed by the grid
    (`SpectralGrid.pack_kept_half`); without it, the whole half spectrum.
    Built with zero forcing, it is the free path; `step` is the frozen
    stepper every orbit of the path steps through.

    Nodes are read by replaying the step from node 0 (`nodes`), which gives
    bit for bit the nodes the solve computed: a dropped mode's forcing is
    an exact zero, in the stored step and in the replay."""

    __slots__ = ("u0h", "v0h", "step", "forcing")

    def __init__(self, state: WaveState, cfg: CouplingConfig, h, m, dealias):
        g = state.grid
        self.step = Stepper(g, h, cfg, "frozen", dealias)
        self.u0h, self.v0h = g.to_spectral_half_stack(state.u), g.to_spectral_half_stack(state.v)
        block = g.kept_half_shape if dealias else self.u0h.shape[1:]
        self.forcing = np.zeros((m, self.u0h.shape[0]) + block, dtype=np.complex128)

    @property
    def m(self) -> int:
        return self.forcing.shape[0]

    def store(self, j, fh):
        """Keep the forcing half spectra `fh` step j is taken with."""
        if self.step.dealias:
            self.step.grid.pack_kept_half(fh, self.forcing[j])
        else:
            self.forcing[j] = fh

    def nodes(self):
        """Nodes 0..m as (uh, vh), replayed from a copy of node 0 by
        `step` with each step's forcing, unpacked into a zeroed node buffer
        when packed.  Node 0 is read-only; another node's arrays are taken
        over at the next step of any orbit, so a reader keeps a copy."""
        yield self.u0h, self.v0h
        grid = self.step.grid
        uh, vh = self.u0h.copy(), self.v0h.copy()
        fh = np.zeros_like(uh) if self.step.dealias else None
        for j in range(self.m):
            f = self.forcing[j] if fh is None else grid.unpack_kept_half(self.forcing[j], fh)
            uh, vh = self.step.step(uh, vh, f)
            yield uh, vh


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
    replayed from the path's node 0 and transformed when it is read (two
    inverse transforms), so neither the nodes nor a physical copy of them
    are held.  Iteration replays the path once; an index j replays j steps.
    A view of the path: it reads it as it is at the time of the read."""

    __slots__ = ("grid", "t0", "h", "path")

    def __init__(self, grid, t0, h, path: _Path):
        self.grid, self.t0, self.h, self.path = grid, t0, h, path

    def __len__(self):
        return self.path.m + 1

    def _state(self, j, uh, vh):
        g = self.grid
        return WaveState(g, self.t0 + j * self.h, g.to_physical_half_stack(uh),
                         g.to_physical_half_stack(vh))

    def __getitem__(self, j):
        j = range(len(self))[operator.index(j)]
        return self._state(j, *next(islice(self.path.nodes(), j, None)))

    def __iter__(self):
        for j, (uh, vh) in enumerate(self.path.nodes()):
            yield self._state(j, uh, vh)


def sup_h1_distance(path, state0):
    """sup over the Picard time grid of the H1 distance between the u of
    `path` (a Picard path, its nodes replayed) and the frozen-scheme orbit
    started from the same data `state0`, which picard-verify reports.  The
    orbit starts from a copy of the path's node 0, the transforms of
    `state0`, and is stepped as `evolve` steps it, through the path's
    stepper: per step one forward transform of the forcing and, but for
    the last, one inverse transform of the new u.  Each distance is the
    Picard solve's per-node H1 distance (`_NodeDistance`) on the half
    spectra."""
    step = path.step
    grid, u = step.grid, state0.u
    uh, vh = path.u0h.copy(), path.v0h.copy()
    dist = _NodeDistance(grid, uh.shape)
    nodes = path.nodes()
    sup = dist.h1(next(nodes)[0], uh)
    for j, (path_uh, _) in enumerate(nodes, start=1):
        uh, vh = step.step(uh, vh, step.forcing(u)[0])
        if j < path.m:
            u = grid.to_physical_half_stack(uh)
        sup = max(sup, dist.h1(path_uh, uh))
    return sup


def _correction(path: _Path, store: bool = True):
    """Applies the solution map F to the path p and returns, per node, the
    distance of F(p) to p (0 at node 0, the initial data in every iterate).

    F(p) starts from p's node 0 and steps node j with the forcing frozen at
    p[j].  The previous iterate p (replayed) and the new one advance side by
    side, node by node through the path's stepper.  With `store`, F(p) is
    kept over p: F is causal, so slot j takes the forcing of step j once
    p[j+1] has been replayed from the old one.  Without it p is only read."""
    step, grid = path.step, path.step.grid
    old = path.nodes()
    pu, _ = next(old)
    uh, vh = path.u0h.copy(), path.v0h.copy()
    dist = _NodeDistance(grid, uh.shape)
    d = np.zeros(path.m + 1)
    for j in range(path.m):
        fh, _ = step.forcing(grid.to_physical_half_stack(pu))
        uh, vh = step.step(uh, vh, fh)
        pu, pv = next(old)
        d[j + 1] = dist(uh, vh, pu, pv)
        if store:
            path.store(j, fh)
    return d


def _first_distances(first, path: _Path) -> tuple:
    """The per-node distances of the first two corrections from the free
    path: `first`, those of the iterations counted so far (at least one),
    completed, when it holds only the first and that does not vanish, by
    the second correction, read off the last iterate `path` without
    storing it."""
    if len(first) == 1 and float(first[0].max()) > _VANISHING:
        first = [*first, _correction(path, store=False)]
    return tuple(first)


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
    repeated iteration), each replayed from `report.path` and transformed
    when it is read, and the PicardReport with per-iteration contraction
    ratios and the first two corrections' per-node distances (when the
    solve stops after one iteration, the second is read off the path
    without being counted or kept).  Three consecutive ratios >= 1 abort
    with converged=False (shrink T).
    """
    if not (T > 0 and h > 0 and tol > 0):
        raise ValueError("T, h and tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    m = max(1, int(round(T / h)))
    path = _Path(state, cfg, h, m, dealias)

    ratios = []
    distances = []
    first = []
    converged = False
    rising = 0
    for _ in range(max_iter):
        node_d = _correction(path)
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
    report = PicardReport(
        R=picard_radius(state),
        T=m * h,
        iterations=len(distances),
        contraction_ratios=ratios,
        converged=converged,
        final_distance=distances[-1],
        first_distances=_first_distances(first, path),
        path=path,
    )
    return _States(state.grid, state.t, h, path), report


def first_contraction_ratio(state, cfg, T, steps=32, dealias=True) -> float:
    """d(F^2 u, F u) / d(F u, u) starting from the free path on `steps` steps
    of T/steps; 0 for data whose first correction already vanishes.  The
    ratio of a one-iteration solve on that grid."""
    return picard_solve(state, cfg, T, T / steps, max_iter=1, dealias=dealias)[1].first_ratio()


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
