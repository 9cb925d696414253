"""Batch front end: flat-text configs, scenario orchestration, CSV time
series, binary snapshots and checkpoint/resume.

Configs are "key = value" lines with '#' comments; unknown keys are errors.
A run is deterministic given (config, seed): identical inputs produce byte
identical CSV and snapshot files on one platform.  Scenarios:

    evolve          time-step the configured family, write timeseries.csv
    picard-verify   run the fixed-point solver and cross-check the stepper
    functional-scan scan the variational functional along a scaling family
    bubble-probe    J values and detector output along a bubble family
    check           run the built-in invariant suite, print pass/fail lines
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import struct
import sys

import numpy as np

from . import blowup, functionals, picard, propagator, rhs
from .fields import WaveState, random_smooth_field, wave_state_new
from .surface import TWO_PI, make_torus_grid

SCENARIOS = ("evolve", "picard-verify", "functional-scan", "bubble-probe", "check")

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
    return tuple(float(x) for x in s.split(",") if x.strip())


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
    "scheme": (str, "symmetric", _choice("frozen", "symmetric")),
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
    "probe.lams": (_parse_float_list, (2.0, 4.0, 8.0, 16.0, 32.0), None),
}

_RHO_KEYS = tuple(f"rho{i}" for i in range(1, 9))


class RunConfig:
    """Validated flat configuration; values live in `.values` keyed as in the
    config text, and `explicit` records which keys the text actually set."""

    def __init__(self, values, explicit):
        self.values = values
        self.explicit = explicit

    def __getitem__(self, key):
        return self.values[key]

    @property
    def family(self):
        return self.values["family"]

    @property
    def ncomp(self):
        return self.values["ncomp"] if self.family == "toda" else 1

    def rho(self):
        if self.family == "mean_field":
            return (self.values["rho1"],)
        if self.family == "toda":
            return tuple(self.values[f"rho{i}"] for i in range(1, self.values["ncomp"] + 1))
        return (self.values["rho1"], self.values["rho2"])

    def _applicable(self, key):
        fam = self.family
        if key in _RHO_KEYS:
            arity = self.values["ncomp"] if fam == "toda" else (1 if fam == "mean_field" else 2)
            return int(key[3:]) <= arity
        if key == "a":
            return fam == "asymmetric_sinh"
        if key in ("matrix", "ncomp"):
            return fam == "toda"
        return True

    def text(self, overrides=None):
        """Canonical serialization: every key applicable to the family, with
        resolved values; parses back to an equivalent config."""
        lines = []
        for key in SCHEMA:
            if not self._applicable(key):
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
    explicit = set(raw)
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

    # family-conditional keys
    arity = values["ncomp"] if family == "toda" else (1 if family == "mean_field" else 2)
    for i, key in enumerate(_RHO_KEYS, start=1):
        if key in explicit and i > arity:
            raise ValueError(f"unknown key {key!r} for family {family}")
    if "a" in explicit and family != "asymmetric_sinh":
        raise ValueError("key 'a' is only valid for family asymmetric_sinh")
    for key in ("matrix", "ncomp"):
        if key in explicit and family != "toda":
            raise ValueError(f"key {key!r} is only valid for family toda")
    if family == "toda" and values["ncomp"] > 8:
        raise ValueError("at most 8 components are supported by the rho1..rho8 keys")
    if family == "toda" and values["matrix"] == "G2" and values["ncomp"] != 2:
        raise ValueError("matrix G2 forces ncomp = 2")
    return RunConfig(values, explicit)


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


def write_timeseries(path, traj, e0):
    """One CSV row per sample; the concentration columns are filled only on
    the row where the detector ran."""
    rows = [",".join(CSV_COLUMNS)]
    for idx, (t, rep) in enumerate(zip(traj.times, traj.reports)):
        last = idx == len(traj.reports) - 1
        drift = abs(rep.E - e0) / (1.0 + abs(e0))
        frac_p = frac_m = ""
        if last and traj.concentration:
            plus = [r.covered_fraction for r in traj.concentration if r.sign > 0]
            minus = [r.covered_fraction for r in traj.concentration if r.sign < 0]
            frac_p = _fmt(max(plus)) if plus else ""
            frac_m = _fmt(max(minus)) if minus else ""
        status = traj.status if last else "running"
        rows.append(",".join([
            _fmt(t), _fmt(rep.means[0]), _fmt(rep.kinetic), _fmt(rep.dirichlet),
            _fmt(rep.log_plus), _fmt(rep.log_minus), _fmt(rep.J), _fmt(rep.E),
            _fmt(drift), _fmt(rep.grad_l2), frac_p, frac_m, status,
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def _write_report(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_evolve(rc, out_dir, seed):
    grid = build_grid(rc)
    cfg = build_coupling(rc)
    state = build_initial_state(rc, grid, seed)
    stepper = build_stepper(rc)
    monitor = build_monitor(rc)
    traj = propagator.evolve(
        state, rc["T"], stepper, cfg, monitor, snapshot_every=rc["checkpoint_every"]
    )
    e0 = traj.reports[0].E
    write_timeseries(os.path.join(out_dir, "timeseries.csv"), traj, e0)
    _write_checkpoints(out_dir, traj, state.t, e0, seed)
    if rc["snapshot_final"] and traj.final_state is not None:
        write_snapshot(traj.final_state, os.path.join(out_dir, "final.lwav"))
    lines = [
        "scenario: evolve",
        f"status: {traj.status}",
        f"samples: {len(traj.times)}",
        f"final_t: {traj.times[-1]!r}",
        f"E0: {e0!r}",
        f"max_energy_drift: {max(abs(r.E - e0) / (1.0 + abs(e0)) for r in traj.reports)!r}",
    ]
    for rep in traj.concentration:
        lines.append(
            f"concentration sign={rep.sign:+d} component={rep.component} "
            f"points={[(round(p[0], 6), round(p[1], 6)) for p in rep.points]} "
            f"covered={rep.covered_fraction:.6f} alarmed={rep.alarmed}"
        )
    _write_report(os.path.join(out_dir, "report.txt"), lines)
    return 0


def _write_checkpoints(out_dir, traj, t0, e0, seed):
    """Each checkpoint snapshot of `traj`, with the run's origin t0, initial
    energy and seed as its `.json` metadata."""
    for step_index, snap in traj.snapshots:
        base = os.path.join(out_dir, f"checkpoint_step{step_index:08d}")
        write_snapshot(snap, base + ".lwav")
        meta = {"step": step_index, "t0": t0, "E0": e0, "seed": seed}
        with open(base + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def _run_resume(checkpoint, out_dir):
    """Continue the run a checkpoint belongs to.  The resumed run steps with
    the config's checkpoint cadence (checkpoint steps are canonical, see
    `propagator`) and writes the checkpoints it reaches, with the original
    run's metadata and a copy of its config.used, so it can be resumed in
    turn."""
    meta_path = os.path.splitext(checkpoint)[0] + ".json"
    if not os.path.exists(meta_path):
        raise ValueError(f"missing checkpoint metadata {meta_path}")
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    cfg_path = os.path.join(os.path.dirname(os.path.abspath(checkpoint)), "config.used")
    if not os.path.exists(cfg_path):
        raise ValueError(f"missing config.used next to the checkpoint")
    rc = load_config(cfg_path)
    grid = build_grid(rc)
    state = read_snapshot(checkpoint, grid)
    cfg = build_coupling(rc)
    stepper = build_stepper(rc)
    monitor = build_monitor(rc)
    traj = propagator.evolve(
        state, rc["T"], stepper, cfg, monitor, snapshot_every=rc["checkpoint_every"],
        first_step_index=int(meta["step"]), t_origin=float(meta["t0"]),
    )
    os.makedirs(out_dir, exist_ok=True)
    write_timeseries(os.path.join(out_dir, "timeseries.csv"), traj, float(meta["E0"]))
    _write_checkpoints(out_dir, traj, meta["t0"], meta["E0"], meta["seed"])
    cfg_copy = os.path.join(out_dir, "config.used")
    if not (os.path.exists(cfg_copy) and os.path.samefile(cfg_path, cfg_copy)):
        shutil.copyfile(cfg_path, cfg_copy)
    _write_report(os.path.join(out_dir, "report.txt"), [
        "scenario: resume",
        f"resumed_from: {checkpoint}",
        f"status: {traj.status}",
        f"final_t: {traj.times[-1]!r}",
    ])
    return 0


def _run_picard_verify(rc, out_dir, seed):
    grid = build_grid(rc)
    cfg = build_coupling(rc)
    state = build_initial_state(rc, grid, seed)
    T, h = rc["T"], rc["h"]
    states, rep = picard.picard_solve(
        state, cfg, T, h, tol=rc["picard.tol"], max_iter=rc["picard.max_iter"],
        dealias=rc["dealias"],
    )
    stepper = build_stepper(rc)
    stepper.scheme = "frozen"
    sup = _sup_h1_distance(grid, states, state, cfg, stepper)
    ratio_half = picard.first_contraction_ratio(state, cfg, T / 2, steps=max(2, int(round(T / 2 / h))))
    ratio_full = picard.first_contraction_ratio(state, cfg, T, steps=max(2, int(round(T / h))))
    lines = [
        "scenario: picard-verify",
        f"R: {rep.R!r}",
        f"T: {rep.T!r}",
        f"iterations: {rep.iterations}",
        f"converged: {rep.converged}",
        f"final_distance: {rep.final_distance!r}",
        f"ratios: {[round(r, 6) for r in rep.contraction_ratios]}",
        f"sup_h1_vs_stepper: {sup!r}",
        f"first_ratio_T: {ratio_full!r}",
        f"first_ratio_T_half: {ratio_half!r}",
    ]
    _write_report(os.path.join(out_dir, "report.txt"), lines)
    return 0


def _sup_h1_distance(grid, states, state0, cfg, stepper):
    """sup over the Picard time grid of the H1 distance to the frozen-scheme
    orbit started from the same data."""
    rhs_eval = lambda u: rhs.rhs_fields(grid, u, cfg)
    tables = propagator.StepTables(grid, stepper.h)
    mask = grid.dealias_mask if stepper.dealias else None
    u, v = state0.u.copy(), state0.v.copy()
    sup = 0.0
    for k, st in enumerate(states):
        if k > 0:
            u, v = propagator._step_arrays(grid, u, v, tables, rhs_eval, "frozen", mask)
        d = np.sqrt(sum(grid.norm_h1(st.u[i] - u[i]) ** 2 for i in range(st.ncomp)))
        sup = max(sup, float(d))
    return sup


def _run_functional_scan(rc, out_dir, seed):
    grid = build_grid(rc)
    cfg = build_coupling(rc)
    x1, _ = grid.mesh()
    base = np.cos(TWO_PI * x1 / grid.L1) * np.ones((1, grid.n2))
    rows = ["s,J,mt_standard,mt_sinh"]
    jvals = []
    for s in rc["scan.values"]:
        u = s * base
        jv = functionals.functional_J(grid, u[None], cfg)
        jvals.append(jv)
        rows.append(",".join([
            _fmt(s), _fmt(jv),
            _fmt(functionals.mt_residual(grid, u, "standard")),
            _fmt(functionals.mt_residual(grid, u, "sinh")),
        ]))
    with open(os.path.join(out_dir, "scan.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    rng = np.random.default_rng(seed)
    max_gap = 0.0
    for _ in range(10):
        u0 = random_smooth_field(grid, rng, 4, 1.0)
        u1 = random_smooth_field(grid, rng, 4, 1.0, zero_mean=True, norm="l2")
        st = wave_state_new(grid, u0, u1)
        if rc.family == "toda":
            break
        e = functionals.energy(st, cfg)
        k = 0.5 * grid.norm_l2(st.v[0]) ** 2
        j = functionals.functional_J_scalar(grid, st.u[0], cfg)
        max_gap = max(max_gap, abs(e - (k + j)) / (1.0 + abs(e)))
    _write_report(os.path.join(out_dir, "report.txt"), [
        "scenario: functional-scan",
        f"J_values: {[round(j, 6) for j in jvals]}",
        f"energy_identity_max_gap: {max_gap!r}",
    ])
    return 0


def _run_bubble_probe(rc, out_dir, seed):
    grid = build_grid(rc)
    cfg = build_coupling(rc)
    center = (rc["bubble.x1"], rc["bubble.x2"])
    rows = ["lam,J,covered_fraction,point_x1,point_x2,dist_to_center"]
    jvals = []
    report_lines = ["scenario: bubble-probe"]
    rho1 = rc.rho()[0]
    m = max(1, blowup.concentration_window(rho1, 8.0 * np.pi)) if rc.family != "toda" else 1
    for lam in rc["probe.lams"]:
        u = blowup.bubble_field(grid, center, lam, rc["bubble.clamp"])
        jv = functionals.functional_J(grid, u[None], cfg)
        jvals.append(jv)
        dens = blowup.density(grid, u, +1.0)
        query = blowup.ConcentrationQuery(m=m, r=rc["conc.r"], eps=rc["conc.eps"], delta=rc["conc.delta"])
        det = blowup.detect_concentration(grid, dens, query)
        p = det.points[0]
        dist = float(np.hypot(
            min(abs(p[0] - center[0]), grid.L1 - abs(p[0] - center[0])),
            min(abs(p[1] - center[1]), grid.L2 - abs(p[1] - center[1])),
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
    with open(os.path.join(out_dir, "bubble.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    _write_report(os.path.join(out_dir, "report.txt"), report_lines)
    return 0


# -- built-in invariant battery --------------------------------------------------

def run_checks(verbose=True):
    """Fast self-contained invariant suite; returns the list of
    (name, passed, detail) and prints one line per check."""
    results = []

    def check(name, fn):
        try:
            fn()
            results.append((name, True, ""))
        except AssertionError as exc:
            results.append((name, False, str(exc)))
        except Exception as exc:  # noqa: BLE001 - report, do not crash the battery
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    rng = np.random.default_rng(12345)
    grid = make_torus_grid(32, 32)

    def _roundtrip():
        f = rng.standard_normal((32, 32))
        g = grid.to_physical(grid.to_spectral(f))
        assert np.abs(g - f).max() <= 1e-13 * np.abs(f).max()

    def _parseval():
        f = rng.standard_normal((32, 32))
        modes = grid.to_spectral(f)
        lhs = grid.norm_l2(f) ** 2
        rhs_ = grid.area * float((modes.real**2 + modes.imag**2).sum()) / (32 * 32) ** 2
        assert abs(lhs - rhs_) <= 1e-12 * max(1.0, lhs)

    def _bessel():
        g64 = make_torus_grid(64, 64)
        x1, _ = g64.mesh()
        val = g64.integrate(np.exp(np.cos(x1) * np.ones((1, 64))))
        i0 = sum((0.25**k) / (math.factorial(k) ** 2) for k in range(30))
        assert abs(val - g64.area * i0) <= 1e-10 * g64.area * i0

    def _jensen():
        for _ in range(5):
            f = rng.standard_normal((32, 32)) * 3.0
            assert grid.log_integral_exp(f - grid.mean(f)) >= np.log(grid.area) - 1e-12

    def _cartan():
        a2 = rhs.cartan_matrix("A", 2)
        assert np.array_equal(a2.entries, [[2, -1], [-1, 2]])
        assert np.allclose(a2.inverse, np.array([[2, 1], [1, 2]]) / 3.0, atol=1e-14)
        g2 = rhs.cartan_matrix("G2", 2)
        assert np.array_equal(g2.entries, [[2, -1], [-3, 2]])
        assert np.array_equal(g2.symmetrizer, [3, 1])

    def _rhs_zero_mean():
        cfg = rhs.CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        u = rng.standard_normal((32, 32))
        out = rhs.rhs_scalar(grid, u, cfg)
        assert abs(grid.integrate(out)) <= 1e-12
        gauge = rhs.rhs_scalar(grid, u + 3.7, cfg)
        assert np.abs(out - gauge).max() <= 1e-12

    def _linear_exact():
        st = wave_state_new(grid, np.cos(TWO_PI * grid.mesh()[0] / grid.L1) * np.ones((1, 32)),
                            np.zeros((32, 32)))
        cfg = rhs.CouplingConfig("mean_field", (0.0,))
        stepper = propagator.StepperConfig(h=0.1, scheme="symmetric", sample_every=5)
        traj = propagator.evolve(st, 2.0, stepper, cfg)
        x1, _ = grid.mesh()
        exact = np.cos(traj.times[-1]) * np.cos(x1) * np.ones((1, 32))
        assert np.abs(traj.final_state.u[0] - exact).max() <= 1e-12

    def _mean_conserved():
        cfg = rhs.CouplingConfig("sinh_gordon", (2 * np.pi, 2 * np.pi))
        u0 = random_smooth_field(grid, rng, 3, 0.5) + 0.3
        st = wave_state_new(grid, u0, np.zeros((32, 32)))
        stepper = propagator.StepperConfig(h=1e-2, sample_every=20)
        traj = propagator.evolve(st, 1.0, stepper, cfg)
        m0 = traj.reports[0].means[0]
        assert all(abs(r.means[0] - m0) <= 1e-12 for r in traj.reports)

    def _energy_identity():
        cfg = rhs.CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        u0 = random_smooth_field(grid, rng, 3, 0.8)
        u1 = random_smooth_field(grid, rng, 3, 0.5, zero_mean=True, norm="l2")
        st = wave_state_new(grid, u0, u1)
        e = functionals.energy(st, cfg)
        k = 0.5 * grid.norm_l2(st.v[0]) ** 2
        j = functionals.functional_J_scalar(grid, st.u[0], cfg)
        assert abs(e - (k + j)) <= 1e-10 * (1.0 + abs(e))

    def _energy_drift():
        cfg = rhs.CouplingConfig("sinh_gordon", (4 * np.pi, 4 * np.pi))
        u0 = random_smooth_field(grid, rng, 3, 0.5)
        st = wave_state_new(grid, u0, np.zeros((32, 32)))
        stepper = propagator.StepperConfig(h=1e-3, sample_every=100)
        traj = propagator.evolve(st, 1.0, stepper, cfg)
        e0 = traj.reports[0].E
        drift = max(abs(r.E - e0) / (1 + abs(e0)) for r in traj.reports)
        assert drift <= 1e-6, f"drift {drift:.3e}"

    def _detector():
        g = make_torus_grid(64, 64)
        u = blowup.bubble_field(g, (np.pi, np.pi), 8.0)
        dens = blowup.density(g, u, +1.0)
        det = blowup.detect_concentration(
            g, dens, blowup.ConcentrationQuery(m=1, r=0.5, eps=0.1)
        )
        assert det.covered_fraction >= 0.9, f"covered {det.covered_fraction:.3f}"

    check("transform round-trip", _roundtrip)
    check("parseval identity", _parseval)
    check("quadrature bessel value", _bessel)
    check("discrete jensen bound", _jensen)
    check("cartan matrices", _cartan)
    check("rhs zero mean and gauge invariance", _rhs_zero_mean)
    check("linear eigenmode exactness", _linear_exact)
    check("mean conservation", _mean_conserved)
    check("energy identity E = K + J", _energy_identity)
    check("energy drift (symmetric scheme)", _energy_drift)
    check("bubble concentration detector", _detector)

    if verbose:
        for name, ok, detail in results:
            line = f"{'PASS' if ok else 'FAIL'}  {name}"
            if detail and not ok:
                line += f"  ({detail})"
            print(line)
    return results


def run(rc: RunConfig, out_dir: str, seed=None) -> int:
    """Execute the configured scenario, writing into out_dir.  Numeric stop
    conditions are recorded statuses; the exit code is nonzero only for
    config/IO/internal failures."""
    os.makedirs(out_dir, exist_ok=True)
    effective_seed = rc["seed"] if seed is None else int(seed)
    with open(os.path.join(out_dir, "config.used"), "w", encoding="utf-8") as fh:
        fh.write(rc.text(overrides={"seed": effective_seed}))
    scenario = rc["scenario"]
    if scenario == "evolve":
        return _run_evolve(rc, out_dir, effective_seed)
    if scenario == "picard-verify":
        return _run_picard_verify(rc, out_dir, effective_seed)
    if scenario == "functional-scan":
        return _run_functional_scan(rc, out_dir, effective_seed)
    if scenario == "bubble-probe":
        return _run_bubble_probe(rc, out_dir, effective_seed)
    if scenario == "check":
        results = run_checks()
        return 0 if all(ok for _, ok, _ in results) else 1
    raise ValueError(f"unknown scenario {scenario!r}")


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
    p_check = sub.add_parser("check", help="run the built-in invariant suite")
    p_resume = sub.add_parser("resume", help="continue an evolve run from a checkpoint")
    p_resume.add_argument("checkpoint")
    p_resume.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            rc = load_config(args.config)
            return run(rc, args.out, args.seed)
        if args.command == "check":
            results = run_checks()
            return 0 if all(ok for _, ok, _ in results) else 1
        if args.command == "resume":
            out = args.out
            if out is None:
                meta = os.path.splitext(os.path.basename(args.checkpoint))[0]
                out = os.path.join(os.path.dirname(os.path.abspath(args.checkpoint)),
                                   f"resumed_{meta}")
            return _run_resume(args.checkpoint, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
