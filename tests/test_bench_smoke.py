"""The benchmark harness binds to names inside the package (the combine in
`kernels`, `evolve`, the Picard solver, the snapshot writers, ...).  Its smoke
mode runs every workload traced and untraced on small inputs and fails when a
binding is lost or a per-layer metric goes missing, so renaming one of those
names breaks this test rather than a later benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
