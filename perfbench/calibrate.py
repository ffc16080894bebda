"""Host-speed calibration for the benchmark's timings.

The shared hosts this benchmark runs on change speed by up to 40% within
seconds, which is wider than any useful regression bound.  A run therefore
times :func:`kernel`, a fixed pure-Python event loop that shares no code
with the program (a change to the program cannot change it), every
:data:`EVERY_S` seconds while the workload runs, and scales its timings to
the speed at which :func:`kernel` takes :data:`REFERENCE_S`::

    scaled = raw * REFERENCE_S / median kernel seconds around the timing

The samples are taken in band, from a ``SIGALRM`` handler, so a
repetition lasting seconds is sampled throughout rather than only at its
ends; the handler's own time is subtracted from the repetition it
interrupted.  The kernel exercises what the simulator's hot paths do:
slotted objects, attribute access, method calls, dict and deque updates,
then a JSON encode and a SHA-256, the way a trace digest does.  On a
2-vCPU KVM guest whose speed varied by up to 1.8x between runs, one-second
medians of kernel time and of ``e13-faulty`` repetition time correlated at
0.94, and ten runs of each workload gave median wall times whose quartile
spread was at most 8% of their median scaled, against up to 22% unscaled.
"""

from __future__ import annotations

import gc
import hashlib
import json
import signal
import statistics
from collections import deque
from contextlib import contextmanager
from time import monotonic, perf_counter
from typing import Iterator, List, Optional, Tuple

#: Seconds :func:`kernel` takes at the reference host speed.
REFERENCE_S = 0.0025

#: Simulated ticks per calibration run (about 2.5 ms of work).
TICKS = 6_000

#: Seconds between in-band samples (about 1% of the run).
EVERY_S = 0.2

#: Seconds around a timing whose samples scale it; host speed changes
#: within seconds, so nearer samples track it better than the run's.
MARGIN_S = 1.0

#: Fewest samples a scale rests on; short runs fall back to all samples.
MIN_SAMPLES = 5


class _Task:
    __slots__ = ("name", "budget", "state", "period")

    def __init__(self, name: str, budget: int, period: int) -> None:
        self.name = name
        self.budget = budget
        self.state = "ready"
        self.period = period


class _Event:
    __slots__ = ("tick", "kind", "task")

    def __init__(self, tick: int, kind: str, task: str) -> None:
        self.tick = tick
        self.kind = kind
        self.task = task


class _Loop:
    def __init__(self) -> None:
        self.tasks = [_Task(f"t{i}", 5 + i, 50 + 10 * i) for i in range(8)]
        self.log: deque = deque()
        self.counts: dict = {}

    def pick(self):
        best = None
        for task in self.tasks:
            if task.state == "ready" and (best is None
                                          or task.budget < best.budget):
                best = task
        return best

    def tick(self, now: int) -> None:
        task = self.pick()
        if task is None:
            return
        task.budget -= 1
        if task.budget <= 0:
            task.state = "done"
            self.record(_Event(now, "done", task.name))
        if now % task.period == 0:
            for other in self.tasks:
                if other.state == "done":
                    other.state = "ready"
                    other.budget = 5
                    self.record(_Event(now, "release", other.name))

    def record(self, event: _Event) -> None:
        self.log.append(event)
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1


def kernel(ticks: int = TICKS) -> str:
    """Run the calibration loop; returns its digest (always the same)."""
    loop = _Loop()
    for now in range(ticks):
        loop.tick(now)
    text = json.dumps([[e.tick, e.kind, e.task] for e in loop.log])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sample() -> float:
    """Seconds one :func:`kernel` run takes on this host now (the garbage
    collector paused, so a large live heap does not bill it)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Calibration samples of one run, with the monotonic time of each."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        #: Seconds spent in in-band samples so far.
        self.busy_s = 0.0
        self._inside = False

    def take(self, count: int = 1) -> None:
        """Sample now, *count* times."""
        for _ in range(count):
            self.samples.append((monotonic(), sample()))

    def _interrupt(self, signum, frame) -> None:
        if self._inside:  # a late signal landing in this very handler
            return
        self._inside = True
        start = perf_counter()
        try:
            self.take()
        finally:
            self.busy_s += perf_counter() - start
            self._inside = False

    @contextmanager
    def sampling(self) -> Iterator["HostSpeed"]:
        """Sample every :data:`EVERY_S` seconds in band (main thread)."""
        previous = signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: Optional[float] = None,
              end: Optional[float] = None) -> float:
        """Factor taking a timing between monotonic times *start* and
        *end* (default: the whole run) to the reference speed."""
        near = [seconds for when, seconds in self.samples
                if start is None or start - MARGIN_S <= when <= end + MARGIN_S]
        if len(near) < MIN_SAMPLES:
            near = [seconds for _, seconds in self.samples]
        return REFERENCE_S / statistics.median(near)
