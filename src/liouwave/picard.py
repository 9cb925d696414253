"""Local fixed-point solver and its contraction diagnostics.

The solution map F takes a candidate path u(s) on [0, T] to the solution of
the linear wave equation forced by rhs(u(s)), with the original initial data.
Iterating F from the free flow converges, for small T, to the orbit of the
frozen-forcing stepper on the same time grid; the measured sup-distance
ratios between successive iterates estimate the contraction factor, which
shrinks roughly linearly with T.  Every iterate preserves the component
averages of the initial data.

F runs through the propagator's per-mode update: the time-h factors and
the masked forcing of a `propagator.Stepper` (`factors`, `forcing`) and
`kernels.gautschi_combine`, the same ones `evolve` steps with.  A path is
held as what fixes it (`_Path`): node 0's half (rfft) spectra and, for
each step, the forcing spectrum the step was taken with,
of which only the kept two-thirds band is stored when the forcing is
dealiased (58 KB per node against 266 KB for a node's (uh, vh) at 128^2).
A node is read by replaying the combine from node 0, bit for bit the node
the solve computed.  The iterates overwrite one path: F is causal (node j+1
of F(p) depends on nodes 0..j of p only), so the old path p is replayed and
the new one advanced side by side, each in one-node buffers, and step j's
slot takes its new forcing once p[j+1] has been replayed from the old one
(`_correction`).  Distances are taken node by node (`_NodeDistance`: one
product of the float view of a node's difference with the grid's
interleaved Parseval weights), with no whole-path temporaries.
`picard_solve` returns the nodes as a read-only sequence of states,
replayed and transformed when read (`_States`, a view of the report's
`path`), and picard-verify compares the stepper's orbit with the replayed
half spectra by the same per-node distance (`sup_h1_distance`),
transforming no node back.

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
from itertools import islice

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
        nodes*h (all nodes when None)."""
        return _first_ratio(self.first_distances, nodes)


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
    Built with zero forcing, it is the free path.

    Nodes are read by replaying the step from node 0 (`nodes`), which gives
    bit for bit the nodes the solve computed: a dropped mode's forcing is
    an exact zero, in the stored step and in the replay."""

    __slots__ = ("u0h", "v0h", "factors", "forcing", "_packing")

    def __init__(self, step: Stepper, u0h, v0h, m):
        self.u0h, self.v0h, self.factors = u0h, v0h, step.factors
        # the grid that packs the mask's kept modes, or None: whole spectra
        self._packing = step.grid if step.dealias else None
        block = self._packing.kept_half_shape if self._packing else u0h.shape[1:]
        self.forcing = np.zeros((m, u0h.shape[0]) + block, dtype=np.complex128)

    @property
    def m(self) -> int:
        return self.forcing.shape[0]

    def store(self, j, fh):
        """Keep the forcing half spectra `fh` step j is taken with."""
        if self._packing is None:
            self.forcing[j] = fh
        else:
            self._packing.pack_kept_half(fh, self.forcing[j])

    def nodes(self):
        """Nodes 0..m as (uh, vh), replayed from node 0 by
        `kernels.gautschi_combine` with each step's forcing, unpacked into a
        zeroed node buffer when packed.  A node's arrays are overwritten two
        reads later, so a reader that keeps a node copies it."""
        uh, vh = self.u0h, self.v0h
        yield uh, vh
        fh = None if self._packing is None else np.zeros_like(uh)
        tmp = np.empty_like(uh)
        out, spare = (np.empty_like(uh), np.empty_like(vh)), (np.empty_like(uh), np.empty_like(vh))
        for j in range(self.m):
            f = (self.forcing[j] if fh is None
                 else self._packing.unpack_kept_half(self.forcing[j], fh))
            kernels.gautschi_combine(*self.factors, uh, vh, f, *out, tmp=tmp)
            (uh, vh), out, spare = out, spare, out
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


def sup_h1_distance(grid, path, state0, cfg, h, dealias):
    """sup over the Picard time grid of the H1 distance between the u of
    `path` (a Picard path, its nodes replayed) and the frozen-scheme orbit
    started from the same data, which picard-verify reports.  The orbit is
    stepped as `evolve` steps it, carried in mode space through
    `Stepper.step` (per node one forward transform of the forcing and one
    inverse transform of the new u), and each distance is the Picard
    solve's per-node H1 distance (`_NodeDistance`) on the half spectra."""
    step = Stepper(grid, h, cfg, "frozen", dealias)
    u = state0.u
    uh, vh = grid.to_spectral_half_stack(u), grid.to_spectral_half_stack(state0.v)
    dist = _NodeDistance(grid, uh.shape)
    nodes = path.nodes()
    sup = dist.h1(next(nodes)[0], uh)
    for path_uh, _ in nodes:
        uh, vh, u = step.step(uh, vh, step.forcing(u))
        sup = max(sup, dist.h1(path_uh, uh))
    return sup


def _correction(path: _Path, step: Stepper, store: bool = True):
    """Applies the solution map F to the path p and returns, per node, the
    distance of F(p) to p (0 at node 0, the initial data in every iterate).

    F(p) starts from p's node 0 and steps node j with the forcing frozen at
    p[j].  The previous iterate p (replayed) and the new one advance side by
    side, node by node in buffers of their own.  With `store`, F(p) is kept
    over p: F is causal, so slot j takes the forcing of step j once p[j+1]
    has been replayed from the old one.  Without it p is only read."""
    grid = step.grid
    old = path.nodes()
    pu, _ = next(old)
    uh, vh = path.u0h, path.v0h
    tmp = np.empty_like(uh)
    out, spare = (np.empty_like(uh), np.empty_like(vh)), (np.empty_like(uh), np.empty_like(vh))
    dist = _NodeDistance(grid, uh.shape)
    d = np.zeros(path.m + 1)
    for j in range(path.m):
        fh, _ = step.forcing(grid.to_physical_half_stack(pu))
        kernels.gautschi_combine(*step.factors, uh, vh, fh, *out, tmp=tmp)
        (uh, vh), out, spare = out, spare, out
        pu, pv = next(old)
        d[j + 1] = dist(uh, vh, pu, pv)
        if store:
            path.store(j, fh)
    return d


def _initial_iterate(state, cfg, h, m, dealias):
    """The free path on m steps of h from the state's data (zero forcing),
    and the frozen stepper of its solution map."""
    g = state.grid
    step = Stepper(g, h, cfg, "frozen", dealias)
    u0h, v0h = g.to_spectral_half_stack(state.u), g.to_spectral_half_stack(state.v)
    return _Path(step, u0h, v0h, m), step


def _first_distances(first, path: _Path, step: Stepper) -> tuple:
    """The per-node distances of the first two corrections from the free
    path: `first`, those of the iterations counted so far (at least one),
    completed, when it holds only the first and that does not vanish, by
    the second correction, read off the last iterate `path` without
    storing it."""
    if len(first) == 1 and float(first[0].max()) > _VANISHING:
        first = [*first, _correction(path, step, store=False)]
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
    path, step = _initial_iterate(state, cfg, h, m, dealias)

    ratios = []
    distances = []
    first = []
    converged = False
    rising = 0
    for _ in range(max_iter):
        node_d = _correction(path, step)
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
        first_distances=_first_distances(first, path, step),
        path=path,
    )
    return _States(state.grid, state.t, h, path), report


def first_contraction_ratio(state, cfg, T, steps=32, dealias=True) -> float:
    """d(F^2 u, F u) / d(F u, u) starting from the free path on `steps` steps
    of T/steps; 0 for data whose first correction already vanishes."""
    path, step = _initial_iterate(state, cfg, T / steps, steps, dealias)
    return _first_ratio(_first_distances([_correction(path, step)], path, step))


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
