"""Batch front end: flat-text configs, scenario orchestration, CSV time
series, binary snapshots and checkpoint/resume.

Each scenario's runner (`_RUNNERS`) computes, and returns its text outputs
as {file name: lines}, report.txt last; `run` writes them.  Only an evolve
run (`run` or `resume`) writes as it goes: a flushed CSV row per sample
(`TimeseriesWriter`) and each checkpoint when its step is reached, by atomic
renames (`_write_checkpoint`), so a killed run leaves a prefix of its rows
and complete, resumable checkpoints.  Timing goes to telemetry.jsonl only.

Configs are "key = value" lines with '#' comments; unknown keys are errors,
as are keys the family does not take (`_FAMILY_KEYS` and the rho arity).
A run is deterministic given (config, seed): identical inputs produce byte
identical CSV and snapshot files on one platform.  Scenarios:

    evolve          time-step the configured family, write timeseries.csv
    picard-verify   run the fixed-point solver and cross-check the stepper
    functional-scan scan the variational functional along a scaling family
    bubble-probe    J values and detector output along a bubble family

The flows' invariants are pinned by the test suite (`python -m pytest`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import struct
import sys
import time

import numpy as np

from . import blowup, functionals, picard, propagator, rhs
from .fields import WaveState, random_smooth_field, wave_state_new
from .surface import TWO_PI, make_torus_grid

SCENARIOS = ("evolve", "picard-verify", "functional-scan", "bubble-probe")

CSV_COLUMNS = (
    "t", "mean_u", "kinetic", "dirichlet", "log_plus", "log_minus", "J", "E",
    "energy_drift", "grad_l2", "conc_fraction_plus", "conc_fraction_minus", "status",
)

SNAPSHOT_MAGIC = b"LWAV"
SNAPSHOT_VERSION = 1


def _parse_bool(s):
    if s.lower() in ("true", "1", "yes", "on"):
        return True
    if s.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_float_list(s):
    values = tuple(float(x) for x in s.split(",") if x.strip())
    if not values:
        raise ValueError("expected at least one value")
    return values


def _positive(x):
    if not x > 0:
        raise ValueError("must be positive")
    return x


def _nonnegative(x):
    if x < 0:
        raise ValueError("must be nonnegative")
    return x


def _even_ge8(x):
    if x % 2 or x < 8:
        raise ValueError("must be even and >= 8")
    return x


def _in_unit(x):
    if not (0 < x < 1):
        raise ValueError("must lie in (0, 1)")
    return x


def _at_least_one(x):
    if x < 1:
        raise ValueError("must be >= 1")
    return x


def _each(constraint):
    def check(values):
        for x in values:
            constraint(x)
        return values
    return check


def _choice(*options):
    def check(x):
        if x not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return x
    return check


# key -> (parser, default, constraint)
SCHEMA = {
    "scenario": (str, "evolve", _choice(*SCENARIOS)),
    "family": (str, "sinh_gordon", _choice(*rhs.FAMILIES)),
    "rho1": (float, 0.0, None),
    "rho2": (float, 0.0, None),
    "rho3": (float, 0.0, None),
    "rho4": (float, 0.0, None),
    "rho5": (float, 0.0, None),
    "rho6": (float, 0.0, None),
    "rho7": (float, 0.0, None),
    "rho8": (float, 0.0, None),
    "a": (float, 1.0, _positive),
    "matrix": (str, "A", _choice("A", "B", "C", "G2")),
    "ncomp": (int, 2, _positive),
    "T": (float, 1.0, _nonnegative),
    "h": (float, 1e-2, _positive),
    "scheme": (str, "symmetric", _choice(*propagator.SCHEMES)),
    "dealias": (_parse_bool, True, None),
    "sample_every": (int, 10, _positive),
    "seed": (int, 0, _nonnegative),
    "grid.n1": (int, 64, _even_ge8),
    "grid.n2": (int, 64, _even_ge8),
    "grid.L1": (float, TWO_PI, _positive),
    "grid.L2": (float, TWO_PI, _positive),
    "init.kind": (str, "random", _choice("zero", "random", "eigenmode", "bubble")),
    "init.amplitude": (float, 0.5, _nonnegative),
    "init.vel_amplitude": (float, 0.0, _nonnegative),
    "init.kmax": (int, 4, _positive),
    "bubble.lam": (float, 8.0, _at_least_one),
    "bubble.x1": (float, np.pi, None),
    "bubble.x2": (float, np.pi, None),
    "bubble.clamp": (float, 30.0, _positive),
    "stop.max_abs_u": (float, 200.0, _positive),
    "stop.max_grad": (float, 1e6, _positive),
    "stop.max_steps": (int, 10_000_000, _positive),
    "alarm.grad": (float, 1e3, _positive),
    "alarm.logint": (float, 50.0, _positive),
    "conc.r": (float, 0.5, _positive),
    "conc.eps": (float, 0.1, _in_unit),
    "conc.delta": (float, 0.0, _nonnegative),
    "checkpoint_every": (int, 0, _nonnegative),
    "snapshot_final": (_parse_bool, True, None),
    "picard.tol": (float, 1e-10, _positive),
    "picard.max_iter": (int, 60, _positive),
    "scan.values": (_parse_float_list, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0), None),
    "probe.lams": (_parse_float_list, (2.0, 4.0, 8.0, 16.0, 32.0), _each(_at_least_one)),
}

_RHO_KEYS = tuple(f"rho{i}" for i in range(1, 9))

# the keys only some families take; the rho keys go by `_rho_arity`
_FAMILY_KEYS = {"a": ("asymmetric_sinh",), "matrix": ("toda",), "ncomp": ("toda",)}


def _rho_arity(family, values):
    """How many rho keys the family takes: ncomp for toda, else the arity of
    `rhs`."""
    return values["ncomp"] if family == "toda" else rhs._RHO_ARITY[family]


def _applicable(key, family, values):
    """Whether `family` takes `key`."""
    if key in _RHO_KEYS:
        return int(key[3:]) <= _rho_arity(family, values)
    return family in _FAMILY_KEYS.get(key, (family,))


class RunConfig:
    """Validated flat configuration; values live in `.values` keyed as in the
    config text."""

    def __init__(self, values):
        self.values = values

    def __getitem__(self, key):
        return self.values[key]

    @property
    def family(self):
        return self.values["family"]

    @property
    def ncomp(self):
        return self.values["ncomp"] if self.family == "toda" else 1

    def rho(self):
        return tuple(self.values[key] for key in _RHO_KEYS[:_rho_arity(self.family, self.values)])

    def text(self, overrides=None):
        """Canonical serialization: every key applicable to the family, with
        resolved values; parses back to an equivalent config."""
        lines = []
        for key in SCHEMA:
            if not _applicable(key, self.family, self.values):
                continue
            val = self.values[key]
            if overrides and key in overrides:
                val = overrides[key]
            if isinstance(val, tuple):
                val = ",".join(repr(x) for x in val)
            elif isinstance(val, bool):
                val = "true" if val else "false"
            elif isinstance(val, float):
                val = repr(val)
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    """Parse and validate "key = value" lines.  Unknown keys, type errors and
    constraint violations raise ValueError naming the key."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
        if key in raw:
            raise ValueError(f"duplicate config key {key!r}")
        raw[key] = value

    values = {}
    family = raw.get("family", SCHEMA["family"][1])
    if family not in rhs.FAMILIES:
        raise ValueError(f"family must be one of {', '.join(rhs.FAMILIES)}")

    for key, (parser, default, constraint) in SCHEMA.items():
        if key in raw:
            try:
                val = parser(raw[key])
                if constraint is not None:
                    constraint(val)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        else:
            val = default
        values[key] = val

    for key in SCHEMA:
        if key in raw and not _applicable(key, family, values):
            if key in _RHO_KEYS:
                raise ValueError(f"unknown key {key!r} for family {family}")
            families = " or ".join(_FAMILY_KEYS[key])
            raise ValueError(f"key {key!r} is only valid for family {families}")
    if family == "toda" and not 2 <= values["ncomp"] <= 8:
        raise ValueError("config key 'ncomp': toda takes 2 to 8 components")
    if family == "toda" and values["matrix"] == "G2" and values["ncomp"] != 2:
        raise ValueError("matrix G2 forces ncomp = 2")
    if values["scenario"] == "picard-verify":
        steps = values["T"] / values["h"]
        if not values["T"] > 0:
            raise ValueError("config key 'T' must be positive for picard-verify")
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError("config key 'T' must be a whole number of steps h for picard-verify")
    # the detector's balls (evolve's alarms, bubble-probe) must fit the torus
    if values["scenario"] in ("evolve", "bubble-probe") and not blowup.ball_fits(
            values["conc.r"], values["grid.L1"], values["grid.L2"]):
        raise ValueError("config key 'conc.r' must be below half the shortest period")
    return RunConfig(values)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# -- snapshots ----------------------------------------------------------------

def write_snapshot(state: WaveState, path: str) -> None:
    """Binary state dump: magic LWAV, version, sizes, periods, time, then the
    u and v component blocks as little-endian f64, row-major."""
    g = state.grid
    n = state.ncomp
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIII", SNAPSHOT_MAGIC, SNAPSHOT_VERSION, g.n1, g.n2, n))
        fh.write(struct.pack("<ddd", g.L1, g.L2, state.t))
        fh.write(np.ascontiguousarray(state.u, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(state.v, dtype="<f8").tobytes())


def read_snapshot(path: str, grid=None) -> WaveState:
    """Inverse of write_snapshot; bit-exact (no mean repair is applied).
    Magic/version/shape problems raise ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = struct.calcsize("<4sIIII") + struct.calcsize("<ddd")
    if len(data) < head:
        raise ValueError("not a snapshot file (truncated header)")
    magic, version, n1, n2, ncomp = struct.unpack_from("<4sIIII", data, 0)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError("not a snapshot file")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    L1, L2, t = struct.unpack_from("<ddd", data, struct.calcsize("<4sIIII"))
    expected = head + 2 * ncomp * n1 * n2 * 8
    if len(data) != expected:
        raise ValueError(
            f"truncated snapshot file: expected {expected} bytes, got {len(data)}"
        )
    if grid is None:
        grid = make_torus_grid(n1, n2, L1, L2)
    elif (grid.n1, grid.n2) != (n1, n2) or (grid.L1, grid.L2) != (L1, L2):
        raise ValueError("snapshot shape does not match the supplied grid")
    block = ncomp * n1 * n2
    flat = np.frombuffer(data, dtype="<f8", offset=head)
    u = flat[:block].reshape(ncomp, n1, n2).astype(np.float64)
    v = flat[block:].reshape(ncomp, n1, n2).astype(np.float64)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("snapshot contains non-finite values")
    return WaveState(grid, t, np.ascontiguousarray(u), np.ascontiguousarray(v))


# -- run pieces ----------------------------------------------------------------

def build_grid(rc: RunConfig):
    return make_torus_grid(rc["grid.n1"], rc["grid.n2"], rc["grid.L1"], rc["grid.L2"])


def build_coupling(rc: RunConfig) -> rhs.CouplingConfig:
    if rc.family == "toda":
        matrix = rhs.cartan_matrix(rc["matrix"], rc["ncomp"])
        return rhs.CouplingConfig("toda", rc.rho(), matrix=matrix)
    return rhs.CouplingConfig(rc.family, rc.rho(), a=rc["a"])


def build_initial_state(rc: RunConfig, grid, seed: int) -> WaveState:
    """Deterministic initial data per init.kind; velocities are mean-zero."""
    kind = rc["init.kind"]
    n = rc.ncomp
    rng = np.random.default_rng(seed)
    u0 = np.zeros((n, grid.n1, grid.n2))
    u1 = np.zeros_like(u0)
    amp = rc["init.amplitude"]
    vamp = rc["init.vel_amplitude"]
    if kind == "random":
        for i in range(n):
            u0[i] = random_smooth_field(grid, rng, rc["init.kmax"], amp, norm="h1")
        if vamp > 0:
            for i in range(n):
                u1[i] = random_smooth_field(
                    grid, rng, rc["init.kmax"], vamp, zero_mean=True, norm="l2"
                )
    elif kind == "eigenmode":
        x1, _ = grid.mesh()
        u0[0] = amp * np.cos(TWO_PI * x1 / grid.L1) * np.ones((1, grid.n2))
    elif kind == "bubble":
        u0[0] = blowup.bubble_field(
            grid, (rc["bubble.x1"], rc["bubble.x2"]), rc["bubble.lam"], rc["bubble.clamp"]
        )
    return wave_state_new(grid, u0, u1, 0.0)


def build_stepper(rc: RunConfig) -> propagator.StepperConfig:
    return propagator.StepperConfig(
        h=rc["h"],
        scheme=rc["scheme"],
        dealias=rc["dealias"],
        max_abs_u=rc["stop.max_abs_u"],
        max_grad_l2=rc["stop.max_grad"],
        max_steps=rc["stop.max_steps"],
        sample_every=rc["sample_every"],
    )


def build_monitor(rc: RunConfig) -> blowup.MonitorThresholds:
    return blowup.MonitorThresholds(
        grad_l2=rc["alarm.grad"],
        log_int=rc["alarm.logint"],
        r=rc["conc.r"],
        eps=rc["conc.eps"],
        delta=rc["conc.delta"],
    )


def _fmt(x) -> str:
    return repr(float(x))


class TimeseriesWriter:
    """timeseries.csv written as the run goes: one row per sample, flushed
    as soon as it is final.  The latest row is held back until the next
    sample or `close`, so that the run's status and the concentration
    columns land on the last row; a run that dies leaves a prefix of its
    rows.  `e0` is the reference energy of the drift column; None takes the
    first sample's energy."""

    def __init__(self, path, e0=None):
        self.e0 = e0
        self._held = None
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._fh.write(",".join(CSV_COLUMNS) + "\n")

    def add(self, t, rep):
        if self.e0 is None:
            self.e0 = rep.E
        if self._held is not None:
            self._write(*self._held, "running", ())
        self._held = (t, rep)

    def close(self, status="running", concentration=()):
        """Write the held row with `status` and the detector's reports (a
        run that did not finish passes neither), then close the file."""
        try:
            if self._held is not None:
                self._write(*self._held, status, concentration)
        finally:
            self._fh.close()

    def _write(self, t, rep, status, concentration):
        drift = abs(rep.E - self.e0) / (1.0 + abs(self.e0))
        plus = [r.covered_fraction for r in concentration if r.sign > 0]
        minus = [r.covered_fraction for r in concentration if r.sign < 0]
        self._fh.write(",".join([
            _fmt(t), _fmt(rep.means[0]), _fmt(rep.kinetic), _fmt(rep.dirichlet),
            _fmt(rep.log_plus), _fmt(rep.log_minus), _fmt(rep.J), _fmt(rep.E),
            _fmt(drift), _fmt(rep.grad_l2), _fmt(max(plus)) if plus else "",
            _fmt(max(minus)) if minus else "", status,
        ]) + "\n")
        self._fh.flush()


def write_timeseries(path, traj, e0):
    """The CSV of a finished trajectory, as `TimeseriesWriter` streams it:
    one row per sample, the concentration columns filled only on the last
    row, where the detector ran."""
    writer = TimeseriesWriter(path, e0)
    try:
        for t, rep in zip(traj.times, traj.reports):
            writer.add(t, rep)
    finally:
        writer.close(traj.status, traj.concentration)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _replace_atomically(path, write):
    """`write(tmp)` then rename tmp to `path`: a reader sees the whole file
    or none of it, even if the process is killed mid-write."""
    tmp = path + ".tmp"
    write(tmp)
    os.replace(tmp, path)


def _write_checkpoint(out_dir, step_index, state, t0, e0, seed):
    """One checkpoint: the snapshot, then its `.json` metadata (the run's
    origin t0, initial energy and seed).  Each file appears by an atomic
    rename, the `.json` last, so a checkpoint is complete exactly when its
    `.json` exists."""
    base = os.path.join(out_dir, f"checkpoint_step{step_index:08d}")
    # a .json left in this directory by an earlier run must not vouch for the new .lwav
    if os.path.exists(base + ".json"):
        os.remove(base + ".json")
    _replace_atomically(base + ".lwav", lambda p: write_snapshot(state, p))
    meta = {"step": step_index, "t0": t0, "E0": e0, "seed": seed}

    def write_meta(p):
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)

    _replace_atomically(base + ".json", write_meta)


def _evolve_streaming(command, rc, state, out_dir, seed, t0, e0=None, first_step_index=0):
    """`evolve` the config's flow from `state` with its outputs written as
    the run goes: a CSV row per sample and each checkpoint as it is reached.
    Appends two lines to telemetry.jsonl: a start record, flushed before
    the first step, so that a killed run leaves a trace of what it was, and
    an end record with the run's status and timing.  Returns (trajectory,
    E0); E0 is the first sample's energy unless given."""
    stepper = build_stepper(rc)
    _append_telemetry(out_dir, {
        "event": "start", "command": command, "grid": [rc["grid.n1"], rc["grid.n2"]],
        "family": rc.family, "scheme": stepper.scheme, "T": rc["T"], "h": stepper.h,
        "first_step_index": first_step_index,
    })
    csv = TimeseriesWriter(os.path.join(out_dir, "timeseries.csv"), e0)
    spent = {"csv": 0.0, "checkpoint": 0.0}

    def on_sample(t, rep):
        start = time.perf_counter()
        csv.add(t, rep)
        spent["csv"] += time.perf_counter() - start

    def on_checkpoint(step_index, snap):
        # the first sample, which sets E0, precedes every checkpoint
        start = time.perf_counter()
        _write_checkpoint(out_dir, step_index, snap, t0, csv.e0, seed)
        spent["checkpoint"] += time.perf_counter() - start

    traj = None
    start = time.perf_counter()
    try:
        traj = propagator.evolve(
            state, rc["T"], stepper, build_coupling(rc), build_monitor(rc),
            snapshot_every=rc["checkpoint_every"], first_step_index=first_step_index,
            t_origin=float(t0), on_sample=on_sample, on_checkpoint=on_checkpoint,
        )
    finally:
        if traj is None:
            csv.close()
        else:
            csv.close(traj.status, traj.concentration)
    wall = time.perf_counter() - start
    steps = int(round((traj.final_state.t - state.t) / stepper.h))
    _append_telemetry(out_dir, {
        "event": "end", "command": command, "status": traj.status, "stop_reason": _stop_text(traj),
        "steps": steps, "wall_s": wall, "steps_per_s": steps / wall,
        "checkpoint_write_s": spent["checkpoint"], "csv_write_s": spent["csv"],
        "scheme": stepper.scheme, "python": platform.python_version(), "numpy": np.__version__,
    })
    return traj, csv.e0


def _append_telemetry(out_dir, record):
    """Append one JSON line to telemetry.jsonl and close the file, so the
    line is written out when this returns."""
    with open(os.path.join(out_dir, "telemetry.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def _stop_text(traj):
    return "none" if traj.stop_reason is None else str(traj.stop_reason)


def _run_evolve(rc, grid, out_dir, seed):
    state = build_initial_state(rc, grid, seed)
    traj, e0 = _evolve_streaming("run", rc, state, out_dir, seed, state.t)
    if rc["snapshot_final"] and traj.final_state is not None:
        write_snapshot(traj.final_state, os.path.join(out_dir, "final.lwav"))
    lines = [
        "scenario: evolve",
        f"status: {traj.status}",
        f"stop_reason: {_stop_text(traj)}",
        f"samples: {len(traj.times)}",
        f"final_t: {_fmt(traj.times[-1])}",
        f"E0: {_fmt(e0)}",
        f"max_energy_drift: {_fmt(max(abs(r.E - e0) / (1.0 + abs(e0)) for r in traj.reports))}",
    ]
    for rep in traj.concentration:
        points = ", ".join(f"({_fmt(round(x, 6))}, {_fmt(round(y, 6))})" for x, y in rep.points)
        lines.append(
            f"concentration sign={rep.sign:+d} component={rep.component} "
            f"points=[{points}] covered={rep.covered_fraction:.6f} alarmed={rep.alarmed}"
        )
    return {"report.txt": lines}


def _run_resume(checkpoint, out_dir):
    """Continue the run a checkpoint belongs to.  The resumed run steps with
    the config's checkpoint cadence (checkpoint steps are canonical, see
    `propagator`) and writes the checkpoints it reaches, with the original
    run's metadata and a copy of its config.used, so it can be resumed in
    turn, also after it was killed.  A checkpoint without its `.json` is
    incomplete and refused, as is one whose `.json` lacks a field or whose
    snapshot does not hold the config's components; nothing is written
    then."""
    meta_path = os.path.splitext(checkpoint)[0] + ".json"
    if not os.path.exists(meta_path):
        raise ValueError(f"missing checkpoint metadata {meta_path}")
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    missing = [key for key in ("step", "t0", "E0", "seed") if key not in meta]
    if missing:
        raise ValueError(f"checkpoint {checkpoint}: its metadata lacks {', '.join(missing)}")
    cfg_path = os.path.join(os.path.dirname(os.path.abspath(checkpoint)), "config.used")
    if not os.path.exists(cfg_path):
        raise ValueError("missing config.used next to the checkpoint")
    rc = load_config(cfg_path)
    state = read_snapshot(checkpoint, build_grid(rc))
    if state.ncomp != rc.ncomp:
        raise ValueError(f"checkpoint {checkpoint}: {state.ncomp} components, "
                         f"config.used has {rc.ncomp}")
    os.makedirs(out_dir, exist_ok=True)
    cfg_copy = os.path.join(out_dir, "config.used")
    if not (os.path.exists(cfg_copy) and os.path.samefile(cfg_path, cfg_copy)):
        shutil.copyfile(cfg_path, cfg_copy)
    traj, _ = _evolve_streaming(
        "resume", rc, state, out_dir, meta["seed"], meta["t0"], float(meta["E0"]),
        first_step_index=int(meta["step"]),
    )
    _write_lines(os.path.join(out_dir, "report.txt"), [
        "scenario: resume",
        f"resumed_from: {checkpoint}",
        f"status: {traj.status}",
        f"stop_reason: {_stop_text(traj)}",
        f"final_t: {_fmt(traj.times[-1])}",
    ])
    return 0


def _run_picard_verify(rc, grid, out_dir, seed):
    state = build_initial_state(rc, grid, seed)
    states, rep = picard.picard_solve(
        state, build_coupling(rc), rc["T"], rc["h"], tol=rc["picard.tol"],
        max_iter=rc["picard.max_iter"], dealias=rc["dealias"],
    )
    # both first ratios are read off the solve, on its grid of m steps of h;
    # the half horizon is round(m/2) steps, one when m = 1
    m = len(states) - 1
    return {"report.txt": [
        "scenario: picard-verify",
        f"R: {rep.R!r}",
        f"T: {rep.T!r}",
        f"iterations: {rep.iterations}",
        f"converged: {rep.converged}",
        f"final_distance: {rep.final_distance!r}",
        f"ratios: {[round(r, 6) for r in rep.contraction_ratios]}",
        f"sup_h1_vs_stepper: {picard.sup_h1_distance(rep.path, state)!r}",
        f"first_ratio_T: {rep.first_ratio()!r}",
        f"first_ratio_T_half: {rep.first_ratio(max(1, round(m / 2)))!r}",
    ]}


def _in_first_component(cfg, u):
    """The stacked field of `cfg`'s components with u in component 0 and
    zeros in the others."""
    out = np.zeros((cfg.ncomp,) + u.shape)
    out[0] = u
    return out


def _run_functional_scan(rc, grid, out_dir, seed):
    cfg = build_coupling(rc)
    x1, _ = grid.mesh()
    base = np.cos(TWO_PI * x1 / grid.L1) * np.ones((1, grid.n2))
    rows = ["s,J,mt_standard,mt_sinh"]
    jvals = []
    for s in rc["scan.values"]:
        u = s * base
        jv = functionals.functional_J(grid, _in_first_component(cfg, u), cfg)
        jvals.append(jv)
        rows.append(",".join([
            _fmt(s), _fmt(jv),
            _fmt(functionals.mt_residual(grid, u, "standard")),
            _fmt(functionals.mt_residual(grid, u, "sinh")),
        ]))
    return {"scan.csv": rows, "report.txt": [
        "scenario: functional-scan",
        f"J_values: {[round(j, 6) for j in jvals]}",
    ]}


def _run_bubble_probe(rc, grid, out_dir, seed):
    cfg = build_coupling(rc)
    center = (rc["bubble.x1"], rc["bubble.x2"])
    # the bubble sits at the centre modulo the periods, as does its distance
    c1, c2 = center[0] % grid.L1, center[1] % grid.L2
    rows = ["lam,J,covered_fraction,point_x1,point_x2,dist_to_center"]
    jvals = []
    report_lines = ["scenario: bubble-probe"]
    first = rhs.equation_measures(cfg)[0]
    query = blowup.ConcentrationQuery(
        m=max(1, blowup.concentration_window(first.rho, first.window)),
        r=rc["conc.r"], eps=rc["conc.eps"], delta=rc["conc.delta"],
    )
    for lam in rc["probe.lams"]:
        u = blowup.bubble_field(grid, center, lam, rc["bubble.clamp"])
        jv = functionals.functional_J(grid, _in_first_component(cfg, u), cfg)
        jvals.append(jv)
        det = blowup.detect_concentration(grid, blowup.density(grid, u, +1.0), query)
        p = det.points[0]
        dist = float(np.hypot(
            min(abs(p[0] - c1), grid.L1 - abs(p[0] - c1)),
            min(abs(p[1] - c2), grid.L2 - abs(p[1] - c2)),
        ))
        rows.append(",".join([
            _fmt(lam), _fmt(jv), _fmt(det.covered_fraction), _fmt(p[0]), _fmt(p[1]), _fmt(dist),
        ]))
        report_lines.append(
            f"lam={lam:g} J={jv:.6f} covered={det.covered_fraction:.6f} "
            f"point=({p[0]:.4f},{p[1]:.4f}) alarmed={det.alarmed}"
        )
    decreasing = all(b < a for a, b in zip(jvals, jvals[1:]))
    report_lines.append(f"J_strictly_decreasing: {decreasing}")
    return {"bubble.csv": rows, "report.txt": report_lines}


# scenario -> runner(rc, grid, out_dir, seed), which returns {file name: lines}
_RUNNERS = {
    "evolve": _run_evolve,
    "picard-verify": _run_picard_verify,
    "functional-scan": _run_functional_scan,
    "bubble-probe": _run_bubble_probe,
}


def run(rc: RunConfig, out_dir: str, seed=None) -> int:
    """Execute the configured scenario, writing into out_dir: config.used
    first, then what the scenario streams as it runs (evolve: telemetry.jsonl,
    the CSV rows and the checkpoints, then final.lwav), then the text files
    its runner returns, report.txt last.  Returns 0: numeric stop conditions
    are recorded statuses, and config and I/O failures raise, which `main`
    turns into exit code 1."""
    os.makedirs(out_dir, exist_ok=True)
    seed = rc["seed"] if seed is None else int(seed)
    config_text = rc.text(overrides={"seed": seed})
    _write_lines(os.path.join(out_dir, "config.used"), config_text.splitlines())
    outputs = _RUNNERS[rc["scenario"]](rc, build_grid(rc), out_dir, seed)
    for name, lines in outputs.items():
        _write_lines(os.path.join(out_dir, name), lines)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="liouwave",
        description="Pseudo-spectral wave flows with normalized-exponential nonlinearities on the flat 2-torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--seed", type=int, default=None)
    p_resume = sub.add_parser("resume", help="continue an evolve run from a checkpoint")
    p_resume.add_argument("checkpoint")
    p_resume.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run(load_config(args.config), args.out, args.seed)
        out = args.out
        if out is None:
            meta = os.path.splitext(os.path.basename(args.checkpoint))[0]
            out = os.path.join(os.path.dirname(os.path.abspath(args.checkpoint)),
                               f"resumed_{meta}")
        return _run_resume(args.checkpoint, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
