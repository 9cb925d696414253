"""Span recorder for the traced benchmark run.

The recorder wraps, from outside, the functions that liouwave's modules call
across module boundaries: the scipy transforms behind `surface`, the
log-sum-exp methods of `SpectralGrid`, `rhs_fields`, the per-mode combine in
`kernels`, `evolve`, the sampled report, the blow-up monitor and detector,
the Picard solver, the CLI's snapshot and CSV writers and `WaveState.clone`.
Every binding of a wrapped function inside the liouwave package is replaced,
so calls made through `from .x import f` names are seen too.  No file of the
program changes.

Spans (name, start, end, parent, run id) are kept in memory and written out
at the end.  A target that no longer exists is recorded as missing, and every
metric that needs it is left out of the result rather than reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
import tracemalloc

MIB = float(1 << 20)

# span name -> (module, attribute path) of every function it wraps
TARGETS = {
    "surface.fft": [("scipy.fft", f) for f in ("rfft2", "irfft2", "fft2", "ifft2")],
    "surface.lse": [("liouwave.surface", "SpectralGrid.log_integral_exp"),
                    ("liouwave.surface", "SpectralGrid.normalized_exp")],
    "rhs": [("liouwave.rhs", "rhs_fields")],
    "kernels.combine": [("liouwave.kernels", "gautschi_combine")],
    "propagator.evolve": [("liouwave.propagator", "evolve")],
    "functionals.report": [("liouwave.functionals", "evaluate_report")],
    "blowup.monitor": [("liouwave.blowup", "blowup_monitor")],
    "blowup.detect": [("liouwave.blowup", "detect_concentration")],
    "picard.solve": [("liouwave.picard", "picard_solve")],
    "picard.contraction_ratio": [("liouwave.picard", "first_contraction_ratio")],
    "cli.snapshot.write": [("liouwave.cli", "write_snapshot")],
    "cli.snapshot.read": [("liouwave.cli", "read_snapshot")],
    "cli.timeseries.write": [("liouwave.cli", "write_timeseries")],
    "fields.clone": [("liouwave.fields", "WaveState.clone")],
}
SAMPLING = ("functionals.report", "blowup.monitor")


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def patch(targets, make_wrapper):
    """Replace every function named in `targets` ({name: [(module, path)]})
    by `make_wrapper(name, fn)`, at its definition and at every binding of
    it inside the liouwave package.  Returns (restore list, names of which
    no target exists)."""
    restore, missing = [], set()
    for name, paths in targets.items():
        found = False
        for module_name, path in paths:
            try:
                owner, attr, fn = _resolve(module_name, path)
            except (ImportError, AttributeError):
                continue
            found = True
            wrapper = make_wrapper(name, fn)
            sites = [(owner, attr)]
            if not isinstance(owner, type):
                for mod_name, mod in list(sys.modules.items()):
                    if mod is not None and mod is not owner and (
                            mod_name == "liouwave" or mod_name.startswith("liouwave.")):
                        sites += [(mod, k) for k, v in vars(mod).items() if v is fn]
            for site, site_attr in sites:
                restore.append((site, site_attr, fn))
                setattr(site, site_attr, wrapper)
        if not found:
            missing.add(name)
    return restore, missing


def unpatch(restore):
    for site, attr, fn in reversed(restore):
        setattr(site, attr, fn)
    restore.clear()


def _nbytes(*objs):
    return sum(getattr(o, "nbytes", 0) for o in objs)


def _evolve_info(sig):
    def info(args, kwargs, result):
        b = sig.bind(*args, **kwargs)
        state, T, stepper = b.arguments["state"], b.arguments["T"], b.arguments["stepper"]
        return {"steps": min(int(round((T - state.t) / stepper.h)), stepper.max_steps),
                "h": stepper.h}
    return info


def _measures(span_name, fn):
    """What a span records besides its times, computed after it ends."""
    if span_name in ("surface.fft", "kernels.combine"):
        return lambda a, k, r: {"bytes": _nbytes(*a, r)}
    if span_name == "propagator.evolve":
        return _evolve_info(inspect.signature(fn))
    if span_name == "functionals.report":
        return lambda a, k, r: {"t": float(r.t)}
    if span_name == "picard.solve":
        return lambda a, k, r: {"iterations": int(r[1].iterations)}
    if span_name == "cli.snapshot.write":
        sig = inspect.signature(fn)
        return lambda a, k, r: {"bytes": os.path.getsize(sig.bind(*a, **k).arguments["path"])}
    if span_name == "fields.clone":
        return lambda a, k, r: {"bytes": _nbytes(r.u, r.v)}
    return None


class Recorder:
    """Collects spans while installed; `run_id` tags the spans of one run."""

    def __init__(self, track_alloc=False):
        self.spans = []  # [name, start_ns, end_ns, parent index, run id, info]
        self.run_id = 0
        self.missing = set()
        self.track_alloc = track_alloc
        self.alloc_windows = []  # MiB, one per stepping window
        self._stack = []
        self._restore = []
        self._window_base = None

    # -- wrapping -----------------------------------------------------------

    def install(self):
        self._restore, missing = patch(TARGETS, self._wrap)
        self.missing |= missing

    def uninstall(self):
        unpatch(self._restore)

    def _wrap(self, span_name, fn):
        measure = _measures(span_name, fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [span_name, 0, 0, stack[-1] if stack else -1, self.run_id, None]
            spans.append(rec)
            if self.track_alloc and span_name == "functionals.report":
                self._close_window()
            stack.append(idx)
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if measure is not None:
                rec[5] = measure(args, kwargs, result)
            if self.track_alloc and span_name in SAMPLING and "propagator.evolve" in (
                    spans[i][0] for i in stack):
                self._open_window()
            elif self.track_alloc and span_name == "propagator.evolve":
                self._window_base = None
            return result

        return wrapper

    # -- allocation windows (the tracemalloc pass) ----------------------------
    # A window opens after each sample of `evolve` and closes at its next
    # sample; its value is the traced peak above the memory held when it
    # opened, i.e. the transient working set of the steps in between.

    def _open_window(self):
        tracemalloc.reset_peak()
        self._window_base = tracemalloc.get_traced_memory()[0]

    def _close_window(self):
        if self._window_base is not None:
            peak = tracemalloc.get_traced_memory()[1]
            self.alloc_windows.append((peak - self._window_base) / MIB)
            self._window_base = None

    # -- output ----------------------------------------------------------------

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run, info) in enumerate(self.spans):
                row = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "run": run}
                if info:
                    row.update(info)
                fh.write(json.dumps(row) + "\n")


def exact_counts(recorder):
    """Per run: the counts that must repeat exactly between runs of one
    commit (transform and log-sum-exp calls, Picard iterations, snapshot
    bytes)."""
    counts = {}
    for name, _, _, _, run, info in recorder.spans:
        c = counts.setdefault(run, {"fft": 0, "lse": 0, "picard_iterations": [],
                                    "snapshot_bytes": 0})
        if name == "surface.fft":
            c["fft"] += 1
        elif name == "surface.lse":
            c["lse"] += 1
        elif name == "picard.solve":
            c["picard_iterations"].append(info["iterations"])
        elif name == "cli.snapshot.write":
            c["snapshot_bytes"] += info["bytes"]
    return counts


# metric -> (unit, span names it needs); BENCHMARK.json says which way is better
PER_LAYER = {
    "surface.fft.calls_per_step": ("count", ("surface.fft", "propagator.evolve")),
    "surface.fft.ms_per_step": ("ms", ("surface.fft", "propagator.evolve")),
    "surface.fft.mb_per_step": ("MiB", ("surface.fft", "propagator.evolve")),
    "surface.fft.calls_per_sample": ("count", ("surface.fft",) + SAMPLING),
    "surface.lse.calls_per_step": ("count", ("surface.lse", "propagator.evolve")),
    "surface.lse.ms_per_step": ("ms", ("surface.lse", "propagator.evolve")),
    "surface.lse.calls_per_sample": ("count", ("surface.lse",) + SAMPLING),
    "rhs.calls_per_step": ("count", ("rhs", "propagator.evolve")),
    "rhs.ms_per_step": ("ms", ("rhs", "propagator.evolve")),
    "kernels.combine.calls_per_step": ("count", ("kernels.combine", "propagator.evolve")),
    "kernels.combine.ms_per_step": ("ms", ("kernels.combine", "propagator.evolve")),
    "kernels.combine.mb_per_step": ("MiB", ("kernels.combine", "propagator.evolve")),
    "propagator.step_ms.p50": ("ms", ("propagator.evolve",) + SAMPLING),
    "propagator.step_ms.p90": ("ms", ("propagator.evolve",) + SAMPLING),
    "propagator.step_ms.windows": ("count", ("propagator.evolve",) + SAMPLING),
    "propagator.self_ms_per_step": ("ms", ("propagator.evolve",)),
    "propagator.alloc_mb_per_step": ("MiB", ("propagator.evolve",) + SAMPLING),
    "functionals.report.ms_per_sample": ("ms", ("functionals.report", "propagator.evolve")),
    "blowup.monitor.ms_per_sample": ("ms", ("blowup.monitor", "propagator.evolve")),
    "blowup.detect.ms_per_call": ("ms", ("blowup.detect",)),
    "blowup.detect.fft_calls_per_call": ("count", ("blowup.detect", "surface.fft")),
    "picard.iterations": ("count", ("picard.solve",)),
    "picard.solve_ms": ("ms", ("picard.solve",)),
    "picard.fft_calls_per_solve": ("count", ("picard.solve", "surface.fft")),
    "picard.contraction_ratio_ms": ("ms", ("picard.contraction_ratio",)),
    "cli.snapshot.write_ms": ("ms", ("cli.snapshot.write",)),
    "cli.snapshot.read_ms": ("ms", ("cli.snapshot.read",)),
    "cli.snapshot.mb_written": ("MiB", ("cli.snapshot.write",)),
    "cli.timeseries.write_ms": ("ms", ("cli.timeseries.write",)),
    "fields.clone.mb_held": ("MiB", ("fields.clone", "propagator.evolve")),
    "trace.overhead_frac": ("fraction", ()),
    "trace.unattributed_frac": ("fraction", ("propagator.evolve",) + SAMPLING),
}


def _ratio(a, b):
    return a / b if b else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(recorder, n_runs, overhead_frac):
    """Per-layer metrics from the recorded spans of `n_runs` traced runs.

    A layer this workload does not exercise reads 0; a metric whose wrapped
    function is missing is left out.  Per-step figures count the spans made
    while `evolve` steps, outside its sampling spans; per-sample figures count
    those inside the report and monitor spans `evolve` makes.
    """
    spans = recorder.spans
    ancestors = []  # names of every enclosing span, per span
    for name, _, _, parent, _, _ in spans:
        ancestors.append(ancestors[parent] | {spans[parent][0]} if parent >= 0 else frozenset())
    dur = [(s[2] - s[1]) / 1e6 for s in spans]

    def select(name, *, inside=None, outside=()):
        return [i for i, s in enumerate(spans) if s[0] == name
                and (inside is None or inside in ancestors[i])
                and not any(o in ancestors[i] for o in outside)]

    evolves = select("propagator.evolve")
    steps = sum(spans[i][5]["steps"] for i in evolves)
    samples = select("functionals.report", inside="propagator.evolve")
    monitors = select("blowup.monitor", inside="propagator.evolve")

    def per_step(name):
        idx = select(name, inside="propagator.evolve", outside=SAMPLING)
        mib = sum((spans[i][5] or {}).get("bytes", 0) for i in idx) / MIB
        return _ratio(len(idx), steps), _ratio(sum(dur[i] for i in idx), steps), _ratio(mib, steps)

    def per_sample(name):
        n = len([i for i, s in enumerate(spans) if s[0] == name
                 and "propagator.evolve" in ancestors[i]
                 and any(a in ancestors[i] for a in SAMPLING)])
        return _ratio(n, len(samples))

    # step time: evolve minus its sampling spans, per window between samples
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    per_window, self_ms, step_ms = [], 0.0, 0.0
    for e in evolves:
        kids = children.get(e, [])
        sampling = [k for k in kids if spans[k][0] in SAMPLING]
        self_ms += dur[e] - sum(dur[k] for k in kids)
        step_ms += dur[e] - sum(dur[k] for k in sampling)
        reports = [k for k in sampling if spans[k][0] == "functionals.report"]
        for a, b in zip(reports, reports[1:]):
            # the window runs from the end of one sample's spans to the next sample
            start = max(spans[k][2] for k in sampling if spans[a][1] <= spans[k][1] < spans[b][1])
            n = round((spans[b][5]["t"] - spans[a][5]["t"]) / spans[e][5]["h"])
            if n > 0:
                per_window.append((spans[b][1] - start) / 1e6 / n)

    fft_n, fft_ms, fft_mb = per_step("surface.fft")
    lse_n, lse_ms, _ = per_step("surface.lse")
    rhs_n, rhs_ms, _ = per_step("rhs")
    cmb_n, cmb_ms, cmb_mb = per_step("kernels.combine")
    detects = select("blowup.detect")
    solves = select("picard.solve")
    ratios = select("picard.contraction_ratio")
    writes = select("cli.snapshot.write")
    held = {}  # evolve span -> bytes of the clones made inside it
    for c in select("fields.clone", inside="propagator.evolve"):
        e = _enclosing(spans, c, "propagator.evolve")
        held[e] = held.get(e, 0) + spans[c][5]["bytes"]
    iterations = [spans[i][5]["iterations"] for i in solves]
    alloc = max(recorder.alloc_windows, default=0.0)

    values = {
        "surface.fft.calls_per_step": fft_n,
        "surface.fft.ms_per_step": fft_ms,
        "surface.fft.mb_per_step": fft_mb,
        "surface.fft.calls_per_sample": per_sample("surface.fft"),
        "surface.lse.calls_per_step": lse_n,
        "surface.lse.ms_per_step": lse_ms,
        "surface.lse.calls_per_sample": per_sample("surface.lse"),
        "rhs.calls_per_step": rhs_n,
        "rhs.ms_per_step": rhs_ms,
        "kernels.combine.calls_per_step": cmb_n,
        "kernels.combine.ms_per_step": cmb_ms,
        "kernels.combine.mb_per_step": cmb_mb,
        "propagator.step_ms.p50": _percentile(per_window, 0.5),
        "propagator.step_ms.p90": _percentile(per_window, 0.9),
        "propagator.step_ms.windows": len(per_window),
        "propagator.self_ms_per_step": _ratio(self_ms, steps),
        "propagator.alloc_mb_per_step": alloc,
        "functionals.report.ms_per_sample": _mean([dur[i] for i in samples]),
        "blowup.monitor.ms_per_sample": _mean([dur[i] for i in monitors]),
        "blowup.detect.ms_per_call": _mean([dur[i] for i in detects]),
        "blowup.detect.fft_calls_per_call": _ratio(len(select("surface.fft", inside="blowup.detect")), len(detects)),
        "picard.iterations": _ratio(sum(iterations), len(iterations)),
        "picard.solve_ms": _mean([dur[i] for i in solves]),
        "picard.fft_calls_per_solve": _ratio(len(select("surface.fft", inside="picard.solve")), len(solves)),
        "picard.contraction_ratio_ms": _mean([dur[i] for i in ratios]),
        "cli.snapshot.write_ms": _mean([dur[i] for i in writes]),
        "cli.snapshot.read_ms": _mean([dur[i] for i in select("cli.snapshot.read")]),
        "cli.snapshot.mb_written": sum(spans[i][5]["bytes"] for i in writes) / MIB / n_runs,
        "cli.timeseries.write_ms": _mean([dur[i] for i in select("cli.timeseries.write")]),
        "fields.clone.mb_held": max(held.values(), default=0) / MIB,
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": _ratio(self_ms, step_ms),
    }
    out = {}
    for name, (unit, needs) in PER_LAYER.items():
        if not any(n in recorder.missing for n in needs):
            out[name] = {"value": values[name], "unit": unit}
    return out


def _enclosing(spans, i, name):
    """Index of the innermost span called `name` that encloses span i."""
    p = spans[i][3]
    while spans[p][0] != name:
        p = spans[p][3]
    return p


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
