"""The benchmark's four workloads.

Each workload has a set-up (config, grid and initial data, paid once), a
timed ``run_once`` that returns what the program produced, and ``assess``,
which checks those outputs outside the timed region.

Seeding.  The physical data are fixed: the evolve workloads use the data of
acceptance criteria #3/#4 (generator seed 11, amplitudes 6 and 3), and the
CLI workloads use the README config's own ``seed = 11``.  The benchmark seed
picks a symmetry image of that data (a torus translation by whole grid
cells, plus a sign flip for sinh-Gordon or a component swap for Toda A2), a
bubble centre for the probe, and the pair of checkpoints the resume starts
from.  Independent random data would make ``energy_drift`` vary threefold
between seeds, which would hide a real change in accuracy; a symmetry image
has the same drift to round-off and the same cost.
"""

from __future__ import annotations

import math
import os
import shutil
from typing import NamedTuple

import numpy as np

import liouwave as lw
from liouwave import cli, picard

H = 1e-3
ACCEPTANCE_SEED = 11
MEAN_DRIFT_BOUND = 1e-12  # acceptance criteria #2-#4
ENERGY_DRIFT_BOUND = 1e-6  # acceptance criteria #3/#4
PICARD_SUP_BOUND = 1e-8  # acceptance criterion #5
COVERED_BOUND = 0.9  # acceptance criterion #8, for lam >= 8


class Outcome(NamedTuple):
    """What one timed run produced: time steps advanced, the energy drift of
    its trajectory, and the output checks that failed."""

    steps: int
    energy_drift: float
    errors: list


def acceptance_data(grid, ncomp):
    """Initial data seeded like acceptance criteria #3/#4."""
    gen = np.random.default_rng(ACCEPTANCE_SEED)
    u0 = np.stack([lw.random_smooth_field(grid, gen, 4, 6.0) for _ in range(ncomp)])
    u1 = np.stack(
        [lw.random_smooth_field(grid, gen, 4, 3.0, zero_mean=True, norm="l2") for _ in range(ncomp)]
    )
    return u0, u1


def symmetry_image(u0, u1, seed, mirror):
    """Translate both fields by a seeded whole number of grid cells and apply
    `mirror` (a symmetry of the equation) when the seed says so."""
    rng = np.random.default_rng(seed)
    shift = (int(rng.integers(u0.shape[-2])), int(rng.integers(u0.shape[-1])))
    u0 = np.roll(u0, shift, axis=(-2, -1))
    u1 = np.roll(u1, shift, axis=(-2, -1))
    if rng.integers(2):
        u0, u1 = mirror(u0), mirror(u1)
    return u0, u1


def relative_energy_drift(energies):
    e0 = energies[0]
    return max(abs(e - e0) / (1.0 + abs(e0)) for e in energies)


def read_report(path):
    """report.txt as a dict of its `key: value` lines."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition(": ")
            if sep:
                out[key.strip()] = value.strip()
    return out


class EvolveWorkload:
    """In-process `evolve` of the acceptance data with the default monitor."""

    def __init__(self, family, n, n_steps, sample_every, seed):
        self.family, self.n, self.n_steps = family, n, n_steps
        self.sample_every, self.seed = sample_every, seed

    def setup(self):
        self.grid = lw.make_torus_grid(self.n, self.n)
        if self.family == "sinh_gordon":
            self.cfg = lw.CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
            u0, u1 = acceptance_data(self.grid, 1)
            u0, u1 = symmetry_image(u0, u1, self.seed, np.negative)
        else:
            self.cfg = lw.CouplingConfig(
                "toda", (3 * np.pi, 3 * np.pi), matrix=lw.cartan_matrix("A", 2)
            )
            u0, u1 = acceptance_data(self.grid, 2)
            u0, u1 = symmetry_image(u0, u1, self.seed, lambda a: a[::-1])
        self.state = lw.wave_state_new(self.grid, u0, u1)
        self.stepper = lw.StepperConfig(h=H, sample_every=self.sample_every)
        self.monitor = lw.MonitorThresholds()

    def run_once(self):
        return lw.evolve(self.state, self.n_steps * H, self.stepper, self.cfg, monitor=self.monitor)

    def assess(self, traj):
        errors = []
        if traj.status != "completed":
            errors.append(f"status {traj.status}")
        m0 = traj.reports[0].means
        du = max(abs(r.means[i] - m0[i]) for r in traj.reports for i in range(len(m0)))
        dv = max(abs(x) for r in traj.reports for x in r.v_means)
        if max(du, dv) > MEAN_DRIFT_BOUND:
            errors.append(f"mean drift {max(du, dv):.3e}")
        drift = relative_energy_drift([r.E for r in traj.reports])
        if not drift <= ENERGY_DRIFT_BOUND:
            errors.append(f"energy drift {drift:.3e}")
        return Outcome(self.n_steps, drift, errors)

    def close(self):
        pass


class _CliWorkload:
    """Shared scratch directory handling for the workloads that drive
    `liouwave.cli.main`; all files stay inside the checkout."""

    def __init__(self, work_root, seed):
        self.work_root, self.seed = work_root, seed
        self.runs = 0

    def _make_dir(self):
        os.makedirs(self.work_root, exist_ok=True)
        self.dir = os.path.join(self.work_root, f"{type(self).__name__}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def _write(self, name, text):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _next_out(self):
        self.runs += 1
        return os.path.join(self.dir, f"run{self.runs:04d}")

    def assess(self, result):
        """Check the outputs of one run (in `_assess`), then delete them."""
        out, codes = result
        try:
            errors = [f"exit code {c}" for c in codes if c != 0]
            return Outcome(0, math.nan, errors) if errors else self._assess(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


README_EVOLVE = """\
scenario = evolve
family = sinh_gordon
rho1 = 12.566370614359172      # 4 pi
rho2 = 12.566370614359172
grid.n1 = {n}
grid.n2 = {n}
T = {T!r}
h = 0.001
sample_every = {sample_every}
seed = 11
init.kind = random
init.amplitude = 6.0
init.vel_amplitude = 3.0
checkpoint_every = {checkpoint_every}
"""


class CheckpointResumeWorkload(_CliWorkload):
    """`liouwave run` of the README evolve config with frequent checkpoints,
    then `liouwave resume` from checkpoints s and N - s, so the resumed runs
    always cover N steps between them whatever s the seed picks."""

    def __init__(self, n, n_steps, checkpoint_every, sample_every, work_root, seed):
        super().__init__(work_root, seed)
        self.n, self.n_steps = n, n_steps
        self.checkpoint_every, self.sample_every = checkpoint_every, sample_every
        # resume points: sample steps (so the resumed rows line up with the
        # uninterrupted ones) between N/5 and N/2, both of them checkpoints
        stride = math.lcm(checkpoint_every, sample_every)
        choices = [
            s for s in range(stride, n_steps // 2 + 1, stride)
            if s >= n_steps // 5 and (n_steps - s) % stride == 0 and 2 * s != n_steps
        ]
        s = int(np.random.default_rng(seed).choice(choices))
        self.resume_steps = (s, n_steps - s)

    def setup(self):
        self._make_dir()
        text = README_EVOLVE.format(
            n=self.n, T=self.n_steps * H, sample_every=self.sample_every,
            checkpoint_every=self.checkpoint_every,
        )
        # the CLI parses the config and builds grid and data inside its run,
        # so set-up here is only the scratch directory and the config file
        self.config_path = self._write("evolve.cfg", text)

    def run_once(self):
        out = self._next_out()
        codes = [cli.main(["run", self.config_path, "--out", out])]
        for s in self.resume_steps:
            ckpt = os.path.join(out, f"checkpoint_step{s:08d}.lwav")
            codes.append(cli.main(["resume", ckpt, "--out", os.path.join(out, f"resumed{s}")]))
        return out, codes

    def _assess(self, out):
        errors = []
        report = read_report(os.path.join(out, "report.txt"))
        if report.get("status") != "completed":
            errors.append(f"status {report.get('status')}")
        drift = float(report["max_energy_drift"])
        if not drift <= ENERGY_DRIFT_BOUND:
            errors.append(f"energy drift {drift:.3e}")
        with open(os.path.join(out, "timeseries.csv"), "rb") as fh:
            rows = fh.read().split(b"\n")[1:-1]
        means = [float(r.split(b",")[1]) for r in rows]
        if max(abs(m - means[0]) for m in means) > MEAN_DRIFT_BOUND:
            errors.append("mean drift above 1e-12")
        for s in self.resume_steps:
            path = os.path.join(out, f"resumed{s}", "timeseries.csv")
            with open(path, "rb") as fh:
                resumed = fh.read().split(b"\n")[1:-1]
            if resumed != rows[s // self.sample_every:]:
                errors.append(f"resume from step {s} differs from the uninterrupted rows")
        steps = self.n_steps + sum(self.n_steps - s for s in self.resume_steps)
        return Outcome(steps, drift, errors)


PICARD_VERIFY = """\
scenario = picard-verify
family = sinh_gordon
rho1 = 12.566370614359172
rho2 = 12.566370614359172
grid.n1 = {n}
grid.n2 = {n}
T = {T!r}
h = 0.001
seed = 11
init.kind = random
init.amplitude = 1.0
init.vel_amplitude = 0.5
"""

BUBBLE_PROBE = """\
scenario = bubble-probe
family = mean_field
rho1 = {rho1!r}      # 17 pi: two detector passes (m = 2)
grid.n1 = {n}
grid.n2 = {n}
bubble.x1 = {x1!r}
bubble.x2 = {x2!r}
"""


class PicardProbeWorkload(_CliWorkload):
    """`liouwave run` of a picard-verify scenario, then of a bubble-probe
    scenario whose bubble centre is a seeded grid point.

    Its time steps are the T/h node steps of the Picard path, a count that
    does not depend on how many iterations the solve takes, so
    `steps_per_s` is T/h over `wall_s` and moves with it.  Its energy drift is that of the converged Picard path, which the
    CLI does not write out: the first assessment solves the same problem once
    more, untimed, and checks that it reproduces the CLI's report exactly.
    """

    def __init__(self, n_picard, T, n_probe, work_root, seed):
        super().__init__(work_root, seed)
        self.n_picard, self.T, self.n_probe = n_picard, T, n_probe
        rng = np.random.default_rng(seed)
        cell = 2 * np.pi / n_probe
        self.centre = tuple(float(int(rng.integers(n_probe)) * cell) for _ in range(2))
        self._path_drift = None

    def setup(self):
        self._make_dir()
        ptext = PICARD_VERIFY.format(n=self.n_picard, T=self.T)
        btext = BUBBLE_PROBE.format(
            n=self.n_probe, rho1=17 * np.pi, x1=self.centre[0], x2=self.centre[1]
        )
        # as in CheckpointResumeWorkload.setup, only the config files
        self.picard_path = self._write("picard.cfg", ptext)
        self.probe_path = self._write("probe.cfg", btext)
        self.picard_text = ptext

    def run_once(self):
        out = self._next_out()
        pdir, bdir = os.path.join(out, "picard"), os.path.join(out, "probe")
        codes = [
            cli.main(["run", self.picard_path, "--out", pdir]),
            cli.main(["run", self.probe_path, "--out", bdir]),
        ]
        return out, codes

    def _assess(self, out):
        errors = []
        rep = read_report(os.path.join(out, "picard", "report.txt"))
        if rep.get("converged") != "True":
            errors.append("picard did not converge")
        sup = float(rep["sup_h1_vs_stepper"])
        if not sup <= PICARD_SUP_BOUND:
            errors.append(f"sup_h1_vs_stepper {sup:.3e}")
        iterations = int(rep["iterations"])
        drift = self._picard_path_drift(iterations, rep["final_distance"], errors)
        probe = os.path.join(out, "probe", "report.txt")
        with open(probe, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if "J_strictly_decreasing: True" not in lines:
            errors.append("bubble-probe J is not strictly decreasing")
        for line in lines:
            if not line.startswith("lam="):
                continue
            fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
            if float(fields["lam"]) >= 8 and not float(fields["covered"]) >= COVERED_BOUND:
                errors.append(f"bubble-probe covered {fields['covered']} at lam={fields['lam']}")
        return Outcome(max(1, int(round(self.T / H))), drift, errors)

    def _picard_path_drift(self, iterations, final_distance, errors):
        if self._path_drift is None:
            rc = cli.parse_config(self.picard_text)
            state = cli.build_initial_state(rc, cli.build_grid(rc), rc["seed"])
            cfg = cli.build_coupling(rc)
            states, rep = picard.picard_solve(
                state, cfg, rc["T"], rc["h"], tol=rc["picard.tol"],
                max_iter=rc["picard.max_iter"], dealias=rc["dealias"],
            )
            self._path_drift = (
                relative_energy_drift([lw.energy(s, cfg) for s in states]),
                rep.iterations, repr(rep.final_distance),
            )
        drift, iters, dist = self._path_drift
        if (iters, dist) != (iterations, final_distance):
            errors.append("picard rerun does not reproduce the CLI report")
        return drift


WORKLOADS = ("evolve_sinh_256", "evolve_toda_128_dense", "cli_checkpoint_resume_256",
             "verify_picard_probe_128")


def make_workload(name, seed, work_root, smoke=False):
    """Build a workload; `smoke` shrinks every grid and run for a quick
    end-to-end test of the harness."""
    if name == "evolve_sinh_256":
        return EvolveWorkload("sinh_gordon", 32 if smoke else 256, 20 if smoke else 200, 200, seed)
    if name == "evolve_toda_128_dense":
        return EvolveWorkload("toda", 32 if smoke else 128, 10 if smoke else 200, 1, seed)
    if name == "cli_checkpoint_resume_256":
        return CheckpointResumeWorkload(32 if smoke else 256, 50 if smoke else 150, 5, 10,
                                        work_root, seed)
    if name == "verify_picard_probe_128":
        return PicardProbeWorkload(32 if smoke else 128, 0.01 if smoke else 0.05,
                                   64 if smoke else 256, work_root, seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
