"""Timing loop and statistics shared by every workload.

A workload is a fixed list of operations (one metric point or one CLI
command each).  The loop runs them in order, one at a time (a closed loop
with a single client), and starts over until the time budget is spent,
always completing at least one full pass.  Each operation's time is the
median over its executions, so a run that repeated only some operations
reports on the same footing as one that did not.
"""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(frozen=True)
class Op:
    """One operation: a stable key and a call taking no arguments."""

    key: str
    run: Callable[[], Any]


@dataclass
class OpResult:
    """Every execution of one operation in one pass sequence.

    ``durations`` are at the reference speed when the run had a speed probe;
    ``raw_durations`` are always the wall times as measured.
    """

    durations: list = field(default_factory=list)
    raw_durations: list = field(default_factory=list)
    intervals: list = field(default_factory=list)
    output: Any = None
    error: BaseException | None = None
    errors: int = 0
    mismatches: int = 0
    crosscheck_warnings: int = 0

    @property
    def executions(self):
        return len(self.durations)

    @property
    def median_s(self):
        return statistics.median(self.durations)


def _execute(op: Op, result: OpResult, tracer=None):
    span = tracer.operation(op.key) if tracer is not None else nullcontext()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        error = output = None
        with span:
            started = time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # a failed operation is recorded, not fatal
                error = exc
            elapsed = time.perf_counter() - started
    result.durations.append(elapsed)
    result.raw_durations.append(elapsed)
    result.intervals.append((started, started + elapsed))
    result.crosscheck_warnings += sum(
        1 for w in caught if issubclass(w.category, RuntimeWarning) and "closed form" in str(w.message)
    )
    first = result.executions == 1
    if error is not None:
        result.errors += 1
        if result.error is None:
            result.error = error
    elif first:
        result.output = output
    elif result.error is None and output != result.output:
        result.mismatches += 1  # a deterministic call gave a different answer


class SpeedProbe:
    """The machine's current speed, from a fixed computation that uses no uwoc code.

    The shared host switches between a fast and a slow state every 10 to 60
    seconds, and code of different kinds slows down by different factors
    (see NOTES.md).  The kernel runs between operations at most every
    ``every_s`` seconds.  Each execution's wall time is multiplied by
    (``reference_s`` / mean kernel time around it) ** ``alpha``, where
    ``alpha`` is the workload's measured log-sensitivity to the kernel's
    slowdown: the result is the time at the speed at which the kernel takes
    ``reference_s``.
    """

    def __init__(self, kernel, reference_s, alpha, every_s=0.5):
        self.kernel = kernel
        self.reference_s = reference_s
        self.alpha = alpha
        self.every_s = every_s
        self.samples = []  # (time taken, kernel seconds: best of 3)

    def sample(self):
        best = math.inf
        for _ in range(3):
            started = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - started)
        self.samples.append((time.perf_counter(), best))

    def maybe_sample(self):
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.every_s:
            self.sample()

    def kernel_s(self, start, end):
        """Mean kernel time from the last sample before ``start`` to the
        first sample after ``end``."""
        times = [t for t, _ in self.samples]
        lo = max(bisect.bisect_right(times, start) - 1, 0)
        hi = min(bisect.bisect_left(times, end), len(times) - 1)
        return statistics.fmean(k for _, k in self.samples[lo:hi + 1])

    def scale(self, start, end):
        return (self.reference_s / self.kernel_s(start, end)) ** self.alpha

    def summary(self):
        kernel = [k for _, k in self.samples]
        return {"probe_samples": len(kernel), "probe_ms.min": min(kernel) * 1e3,
                "probe_ms.median": statistics.median(kernel) * 1e3,
                "probe_ms.max": max(kernel) * 1e3}


def run_ops(ops, seconds, max_passes=None, tracer=None, probe=None):
    """Run ``ops`` in order, repeating the list until ``seconds`` have passed.

    At least one full pass always runs.  After it, an operation whose median
    time so far exceeds the time left is skipped, and the loop ends after a
    pass that ran nothing, so a run overshoots ``seconds`` only by its first
    pass and cheap operations fill the end of the budget.  ``max_passes``
    caps the count.  With a ``probe`` the durations are scaled to its
    reference speed.  Returns {key: OpResult} in the order of ``ops``.
    """
    results = {op.key: OpResult() for op in ops}
    started = time.perf_counter()
    passes = 0
    while max_passes is None or passes < max_passes:
        ran = False
        for op in ops:
            result = results[op.key]
            if passes >= 1 and result.median_s > seconds - (time.perf_counter() - started):
                continue
            if probe is not None:
                probe.maybe_sample()
            _execute(op, result, tracer)
            ran = True
        if not ran:
            break
        passes += 1
    if probe is not None:
        probe.sample()
        for r in results.values():
            r.durations = [d * probe.scale(*iv) for d, iv in zip(r.raw_durations, r.intervals)]
    return results


def wall_s(results, raw=False):
    """Wall time of one pass of the fixed work: the sum of per-op medians."""
    if raw:
        return float(sum(statistics.median(r.raw_durations) for r in results.values()))
    return float(sum(r.median_s for r in results.values()))


def count_failures(results, failures):
    """(attempted, failed) over the distinct operations of a pass sequence.

    An operation fails if any execution raised, if a repeat differed from
    its first execution, or if its output failed its check.  Counting
    operations rather than executions makes both numbers depend on the
    seed only, not on how many repeats the time budget allowed.
    """
    failed = sum(1 for key, r in results.items() if key in failures or r.errors or r.mismatches)
    return len(results), failed


def measure_setup(env, cwd, reps, probe):
    """Median wall time of a fresh interpreter importing ``uwoc.cli``, as
    (scaled to the probe's reference speed, raw)."""
    intervals, times = [], []
    for _ in range(reps):
        probe.sample()
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import uwoc.cli"], env=env, cwd=cwd, check=True)
        intervals.append((started, time.perf_counter()))
        times.append(intervals[-1][1] - started)
    probe.sample()
    scaled = [t * probe.scale(*iv) for t, iv in zip(times, intervals)]
    return statistics.median(scaled), statistics.median(times)
