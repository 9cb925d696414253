#!/usr/bin/env python3
"""liouwave benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it measures the package under ``src/`` of
that checkout and fails if Python resolves ``liouwave`` anywhere else.  The
process pins every thread pool to one thread and the hash seed, re-executing
itself once if they were not already set.

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics (times from segments.py's fastest-segment sum).  ``--trace 1`` alternates
untraced and traced repeats, then makes one traced pass under tracemalloc,
and reports the per-layer metrics; its spans are written to
``.bench_out/spans/``.  Every repeat's outputs are checked; the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}`` and the
line before it records provenance.  See perfbench/README.md.
"""

import os
import sys
import time

T_START = time.perf_counter()

PINNED_ENV = {
    "LIOUWAVE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    # string hashing orders small allocations, which moved the verify
    # workload's peak RSS between 189 and 195 MiB from run to run
    "PYTHONHASHSEED": "0",
}
if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    # the interpreter reads PYTHONHASHSEED at start: replace this process
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

SETUP_PROBES = 5
MIN_RUNS = 3
MIN_TRACED_RUNS = 2

END_TO_END = {
    "steps_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "energy_drift": "1",
}


class HarnessError(RuntimeError):
    """The benchmark itself misbehaved; no result is printed."""


def import_program():
    """Import liouwave from this checkout, or fail."""
    try:
        import liouwave
    except ImportError as exc:
        raise HarnessError(f"cannot import liouwave from {SRC}: {exc}") from None
    resolved = Path(liouwave.__file__).resolve()
    if not resolved.is_relative_to(SRC / "liouwave"):
        raise HarnessError(f"liouwave resolves to {resolved}, not to this checkout's {SRC}")
    return liouwave


def provenance(liouwave, args):
    import numpy
    import scipy

    try:
        from liouwave import kernels
        backend = kernels.backend
        ext = getattr(getattr(kernels, "_ext", None), "__file__", None)
    except ImportError:
        backend, ext = "absent", None
    if ext is not None and not Path(ext).resolve().is_relative_to(SRC):
        raise HarnessError(f"compiled kernel {ext} is not part of this checkout")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "kernels_backend": backend, "kernels_ext": ext,
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "liouwave_file": str(Path(liouwave.__file__).resolve()),
    }


def setup_probe(args):
    """Child process: import, set the workload up, report the time taken."""
    import_program()
    from workloads import make_workload

    w = make_workload(args.workload, args.seed, str(OUT), args.smoke)
    try:
        w.setup()
        elapsed = time.perf_counter() - T_START
    finally:
        w.close()
    print(json.dumps({"setup_s": elapsed}))


def probe_setup(args):
    """Set-up time of one fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise HarnessError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Tally:
    """Checked outcomes of the repeats of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.passed = []

    def add(self, outcome):
        """Count a repeat; returns whether its outputs passed the checks."""
        self.attempted += 1
        if outcome.errors:
            self.failed += 1
            print(f"check failed: {'; '.join(outcome.errors)}", file=sys.stderr)
            return False
        self.passed.append(outcome)
        return True


def run_untraced(w, args, tally):
    from segments import Probe

    # set-up probes are spread over the run, so that their median sees the
    # same mix of contention as the repeats; the time they take is not counted
    n_setups = 1 if args.smoke else SETUP_PROBES
    setups = []
    probe = Probe()
    probe.install()
    try:
        t_start = time.perf_counter()
        t_end = t_start + args.seconds
        while time.perf_counter() < t_end or tally.attempted < (1 if args.smoke else MIN_RUNS):
            probe.begin()
            raw = w.run_once()
            probe.stop()
            if tally.add(w.assess(raw)):
                probe.commit()
            if len(setups) < n_setups and time.perf_counter() - t_start >= len(setups) * args.seconds / n_setups:
                t0 = time.perf_counter()
                setups.append(probe_setup(args))
                t_end += time.perf_counter() - t0
    except ValueError as exc:
        raise HarnessError(str(exc)) from None
    finally:
        probe.uninstall()
    while len(setups) < n_setups:
        setups.append(probe_setup(args))
    metrics = {"steps_per_s": 0.0, "wall_s": 0.0, "energy_drift": 0.0}
    if tally.passed:
        steps = {o.steps for o in tally.passed}
        if len(steps) != 1:
            raise HarnessError(f"repeats advanced different numbers of steps: {sorted(steps)}")
        wall = probe.wall_s()
        metrics = {
            "steps_per_s": steps.pop() / wall,
            "wall_s": wall,
            "energy_drift": statistics.median(o.energy_drift for o in tally.passed),
        }
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}


def run_traced(w, args, tally):
    import tracemalloc

    import spans
    from segments import Probe

    # `plain` times untraced repeats and `traced` traced ones, with the same
    # estimator as the untraced run; their ratio is the tracing overhead
    recorder = spans.Recorder()
    plain, traced = Probe(), Probe()
    plain.install()
    traced.install()
    try:
        t_end = time.perf_counter() + args.seconds
        runs = 0
        while time.perf_counter() < t_end or runs < MIN_TRACED_RUNS:
            for probe, recording in ((plain, False), (traced, True)):
                recorder.run_id = runs
                if recording:
                    recorder.install()
                probe.begin()
                try:
                    raw = w.run_once()
                finally:
                    probe.stop()
                    recorder.uninstall()
                if tally.add(w.assess(raw)):
                    probe.commit()
            runs += 1
    except ValueError as exc:
        raise HarnessError(str(exc)) from None
    finally:
        traced.uninstall()
        plain.uninstall()

    counts = spans.exact_counts(recorder)
    first = counts.get(0)
    for run, c in counts.items():
        if c != first:
            raise HarnessError(f"exact counts differ between traced runs 0 and {run}: {first} vs {c}")

    alloc = spans.Recorder(track_alloc=True)
    tracemalloc.start()
    alloc.install()
    try:
        raw = w.run_once()
    finally:
        alloc.uninstall()
        tracemalloc.stop()
    tally.add(w.assess(raw))
    recorder.alloc_windows = alloc.alloc_windows
    recorder.missing |= alloc.missing

    overhead = traced.wall_s() / plain.wall_s() - 1.0 if plain.best and traced.best else 0.0
    recorder.write(str(OUT / "spans" / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl"))
    return spans.layer_metrics(recorder, runs, overhead)


def run_workload(args):
    """Run one workload; returns (provenance, result dict)."""
    liouwave = import_program()
    from workloads import make_workload

    prov = provenance(liouwave, args)
    try:
        w = make_workload(args.workload, args.seed, str(OUT), args.smoke)
    except ValueError as exc:
        raise HarnessError(str(exc)) from None
    tally = Tally()
    try:
        w.setup()
        metrics = run_traced(w, args, tally) if args.trace else run_untraced(w, args, tally)
    finally:
        w.close()
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return prov, result


def smoke():
    """Tiny grids, one run of each workload per mode: every named metric
    must be emitted, with the unit BENCHMARK.json gives it."""
    from workloads import WORKLOADS

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        raise HarnessError("workloads differ from BENCHMARK.json")
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=0.0, trace=trace, smoke=True)
            _, result = run_workload(args)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace={trace}: metrics {sorted(got.items())}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed checks")
            print(f"smoke {name} trace={trace}: {len(got)} metrics, correct={result['correct']}")
    for p in problems:
        print(f"smoke FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="liouwave benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids; alone: test the harness")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        if args.smoke and args.workload is None:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        prov, result = run_workload(args)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
