"""The simulated platform: clock loop driving the PMK (Sect. 6 substrate).

The paper's prototype ran four RTEMS partitions on QEMU/IA-32; this module
is the reproduction's equivalent substrate.  A :class:`Simulator` owns the
time source, trace, interrupt controller and the PMK; :meth:`step` delivers
one clock interrupt (whose ISR is the PMK's
:meth:`~repro.core.pmk.Pmk.clock_tick`) and advances time, and the ``run``
helpers drive whole spans, MTFs, or predicates.

Determinism: no wall-clock, threads or global randomness — a configuration
plus a seed fully determines every trace event.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..config.schema import SystemConfig
from ..core.pmk import Pmk
from ..core.runtime import PartitionRuntime
from ..exceptions import SimulationError
from ..types import Ticks
from .interrupts import InterruptController, Vector
from .time import TimeSource
from .trace import Trace

__all__ = ["Simulator"]

#: The clock vector, read once: an enum member lookup costs more than the
#: rest of ``run_fast``'s set-up, which runs tens of thousands of times
#: per constellation campaign.
_CLOCK = Vector.CLOCK


class Simulator:
    """Deterministic tick-driven execution of one AIR module.

    ``run`` and ``step`` deliver every tick through the clock interrupt
    vector; ``run_fast`` batches provably uniform spans between event
    ticks and steps only those, through the same ISR.

    ``cycle_cache`` controls steady-state MTF cycle memoization (DESIGN
    decision 13): ``run_fast`` probes MTF boundaries for a fingerprint
    fixed point and replays verified whole-frame templates instead of
    stepping, under the same bit-identity contract.  It is armed by
    default; passing ``False`` for it is the off switch, and the only
    one: no layer above the simulator carries it.
    """

    def __init__(self, config: SystemConfig, *,
                 cycle_cache: bool = True) -> None:
        self.config = config
        self.time = TimeSource()
        self.trace = Trace()
        self.interrupts = InterruptController()
        self.pmk = Pmk(config, time=self.time, trace=self.trace)
        self.interrupts.install(Vector.CLOCK, self.pmk.clock_tick,
                                owner=InterruptController.PMK_OWNER)
        # Event-core efficiency counters.  Host-side bookkeeping only:
        # they differ between run() and run_fast() by design, so they are
        # read through ``event_core_stats`` (and ``repro run --profile``),
        # never through the deterministic metrics registry.
        self._spans_batched = 0
        self._ticks_batched = 0
        self._ticks_stepped = 0
        self._cycle_cache = None
        if cycle_cache:
            from .cycle_cache import CycleCache

            self._cycle_cache = CycleCache(self)

    # -------------------------------------------------------------- #
    # time control
    # -------------------------------------------------------------- #

    @property
    def now(self) -> Ticks:
        """Current simulated time."""
        return self.time.now

    @property
    def stopped(self) -> bool:
        """True after a module-stop recovery action (Sect. 2.4)."""
        return self.pmk.stopped

    def step(self) -> None:
        """Execute exactly one clock tick."""
        self._ticks_stepped += 1
        self.interrupts.raise_interrupt(Vector.CLOCK)
        self.time.advance()

    def run(self, ticks: Ticks) -> None:
        """Execute *ticks* clock ticks (stopping early on module stop)."""
        if ticks < 0:
            raise SimulationError(f"cannot run {ticks} ticks")
        for _ in range(ticks):
            if self.pmk.stopped:
                break
            self.step()

    def run_fast(self, ticks: Ticks) -> None:
        """Execute *ticks* clock ticks on the event-driven execution core.

        DESIGN.md design-decision 4: instead of raising one clock
        interrupt per tick, ask every layer for its ``next_event_tick``
        horizon — the scheduler's next preemption point, the router's next
        in-flight delivery, the active partition's next timer wake-up,
        policy preemption, deadline expiry, and the running process's
        remaining ``Compute`` budget (see
        :meth:`~repro.core.pmk.Pmk.next_event_tick`).  Every tick strictly
        before the minimum of those horizons is provably uniform — idle
        *or* actively computing — and is executed as one batched span;
        only the interesting ticks go through the full ISR.

        The trace (and every instrumentation counter) stays bit-identical
        to :meth:`run`, asserted by the equivalence tests across active
        windows, mode switches, deadline misses and HM restarts.  Every
        stepped tick runs the clock ISR.  Under the default wiring — the
        clock vector holds exactly the PMK's handler, unmasked — the loop
        calls that handler directly and settles the vector's dispatch
        count for every such tick; any other wiring delivers each stepped
        tick through the full vector, exactly as :meth:`step` does.
        """
        if ticks < 0:
            raise SimulationError(f"cannot run {ticks} ticks")
        time = self.time
        pmk = self.pmk
        step = self.step
        cache = self._cycle_cache
        interrupts = self.interrupts
        isr = interrupts.sole_handler(_CLOCK)
        if isr != pmk.clock_tick:
            isr = None
        advance = time.advance
        bypassed = 0
        now = time.now
        target = now + ticks
        try:
            while now < target:
                if pmk.stopped:
                    return
                if cache is not None and cache.on_boundary(now, target):
                    now = time.now
                    continue
                event = pmk.next_event_tick(now)
                if event > now:
                    span = min(event, target) - now
                    pmk.execute_span(now, span)
                    time.skip(span)
                    self._spans_batched += 1
                    self._ticks_batched += span
                    now += span
                    if event >= target:
                        continue
                    # Spans typically land exactly on the MTF boundary
                    # (the schedule switch is an event tick), so the cache
                    # must be consulted again before the boundary tick is
                    # stepped.
                    if cache is not None and cache.on_boundary(now, target):
                        now = time.now
                        continue
                # The event tick itself always runs the ISR — no need to
                # recompute the horizon to discover that.
                if isr is None:
                    step()
                else:
                    isr()
                    advance()
                    bypassed += 1
                now += 1
        finally:
            if bypassed:
                self._ticks_stepped += bypassed
                interrupts.account_bypassed(_CLOCK, bypassed)

    def run_until(self, tick: Ticks) -> None:
        """Run until simulated time reaches *tick*."""
        if tick < self.time.now:
            raise SimulationError(
                f"cannot run backwards: now={self.time.now}, target={tick}")
        self.run(tick - self.time.now)

    def run_mtf(self, count: int = 1) -> None:
        """Run *count* complete major time frames of the current schedule.

        Alignment is relative to the last schedule switch, matching
        Algorithm 1's modulo arithmetic.
        """
        for _ in range(count):
            scheduler = self.pmk.scheduler
            mtf = scheduler.current.mtf
            offset = (self.time.now - scheduler.last_schedule_switch) % mtf
            self.run(mtf - offset if offset else mtf)

    def run_while(self, predicate: Callable[["Simulator"], bool], *,
                  limit: Ticks = 1_000_000) -> None:
        """Run while *predicate(self)* holds, bounded by *limit* ticks."""
        for _ in range(limit):
            if self.pmk.stopped or not predicate(self):
                return
            self.step()
        raise SimulationError(
            f"run_while exceeded the {limit}-tick safety bound")

    # -------------------------------------------------------------- #
    # snapshot / fork (DESIGN decision 8)
    # -------------------------------------------------------------- #

    def snapshot(self):
        """Checkpoint the full deterministic state at the current tick.

        Returns a :class:`~repro.kernel.snapshot.SimulatorSnapshot` that
        can be pickled, cached, and forked into any number of independent
        continuations — each bit-identical to a cold run reaching the
        same tick.  The host-side event-core counters are *not* captured
        (they are nondeterministic across execution modes by design).
        """
        from .snapshot import SimulatorSnapshot

        return SimulatorSnapshot.capture(self)

    # -------------------------------------------------------------- #
    # host-side counters (DESIGN decision 6)
    # -------------------------------------------------------------- #

    @property
    def event_core_stats(self) -> dict:
        """Event-core efficiency counters (host-side, nondeterministic
        across execution modes): spans batched and the split of executed
        ticks between batched spans and full stepped ISRs."""
        return {
            "spans_batched": self._spans_batched,
            "ticks_batched": self._ticks_batched,
            "ticks_stepped": self._ticks_stepped,
        }

    @property
    def cycle_cache_stats(self) -> Optional[dict]:
        """Cycle-cache counters (DESIGN decision 13), or None when the
        cache is off.  Host-side, nondeterministic material — governed
        under the ``timing.execution`` telemetry sidecar, never part of
        the deterministic report."""
        if self._cycle_cache is None:
            return None
        return dict(self._cycle_cache.stats)

    # -------------------------------------------------------------- #
    # convenience accessors
    # -------------------------------------------------------------- #

    def runtime(self, partition: str) -> PartitionRuntime:
        """The runtime of *partition*."""
        return self.pmk.runtime(partition)

    def apex(self, partition: str):
        """The APEX instance of *partition*."""
        return self.pmk.apex(partition)

    @property
    def active_partition(self) -> Optional[str]:
        """Partition currently holding the processor."""
        return self.pmk.active_partition
