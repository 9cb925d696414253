"""Contention-robust wall time of a repeated, deterministic run.

On a shared 2-core host, another tenant slows this process's operations by
up to 2x, in stretches that last from milliseconds to about a minute.  The
median repeat time moved by ~20% between runs; the fastest observation of a
short piece of work moved much less.  So a run is cut into short segments,
and a segment's cost is the fastest of its occurrences.

A `Probe` records one timestamp, with the function's name and the shape of
its array argument, at each entry to a scipy transform, to `rhs_fields` and
to the per-mode combine, which every workload calls every millisecond or
so.  A segment is the time between two consecutive events.  Every repeat
must make the same sequence of events, so segment i of one repeat does the
same work as segment i of any other repeat, and only those are compared.

The run's wall time is the sum over i of the fastest time seen for
segment i.
"""

from __future__ import annotations

import time
from array import array

from spans import patch, unpatch

PROBED = {
    "rfft2": [("scipy.fft", "rfft2")],
    "irfft2": [("scipy.fft", "irfft2")],
    "fft2": [("scipy.fft", "fft2")],
    "ifft2": [("scipy.fft", "ifft2")],
    "rhs": [("liouwave.rhs", "rhs_fields")],
    "combine": [("liouwave.kernels", "gautschi_combine")],
}


class Probe:
    """Timestamps probed calls between `begin` and `stop`; `commit` folds a
    checked repeat into the fastest time per segment, so memory does not
    grow with the number of repeats."""

    def __init__(self):
        self.codes = {"begin": 0, "end": 1}  # (function, shape) -> event code
        self.names = None  # event codes of one repeat, the same in every repeat
        self.best = None  # fastest duration seen of each segment, ns
        self._names = self._times = None
        self._pending = None  # (codes, times) of the repeat last stopped
        self._restore = []

    def install(self):
        def make_wrapper(name, fn):
            def wrapper(*args, **kwargs):
                if self._names is not None:  # inside a repeat
                    event = (name, next((a.shape for a in args if hasattr(a, "shape")), None))
                    self._names.append(self.codes.setdefault(event, len(self.codes)))
                    self._times.append(time.perf_counter_ns())
                return fn(*args, **kwargs)
            return wrapper

        self._restore, _ = patch(PROBED, make_wrapper)

    def uninstall(self):
        unpatch(self._restore)

    def begin(self):
        self._names, self._times = array("i", [0]), array("q", [time.perf_counter_ns()])

    def stop(self):
        self._times.append(time.perf_counter_ns())
        self._names.append(1)
        self._pending = (self._names, self._times)
        self._names = self._times = None

    def commit(self):
        """Count the stopped repeat.  Every repeat must make the same calls."""
        names, times = self._pending
        durations = array("q", (b - a for a, b in zip(times, times[1:])))
        if self.names is None:
            self.names, self.best = names, durations
        elif names != self.names:
            raise ValueError("repeats made different sequences of probed calls")
        else:
            self.best = array("q", map(min, self.best, durations))

    def wall_s(self):
        """Sum over the segments of a repeat of the fastest time seen for
        each, in seconds."""
        return sum(self.best) / 1e9
