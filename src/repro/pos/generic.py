"""Generic non-real-time partition operating system (Sect. 2.5).

AIR extends POS heterogeneity to generic systems such as embedded Linux,
which bring functions RTOSs lack (scripting interpreters, rich libraries)
at the price of no timeliness guarantees.  This POS models that guest:

* scheduling is a fair round-robin with a time quantum, *ignoring* process
  priorities — the partition offers no real-time guarantees internally
  (its model-level requirement is typically ``d = 0``, Sect. 3.1);
* the guest believes it owns the hardware clock; the
  :meth:`attempt_clock_takeover` method performs the privileged clock
  operations an unmodified kernel would execute at boot.  Under AIR these
  are paravirtualized: the PMK traps them (``ClockTamperingError``) so a
  non-real-time kernel "cannot undermine the overall time guarantees of
  the system by disabling or diverting system clock interrupts".
"""

from __future__ import annotations

from typing import List, Optional

from ..core.model import Partition
from ..exceptions import ClockTamperingError
from ..kernel.snapshot_schema import RAW
from ..kernel.time import GuestClock
from ..types import Ticks
from .base import PartitionOs
from .tcb import Tcb

__all__ = ["GenericPos"]

#: Default round-robin quantum, in ticks.
DEFAULT_QUANTUM: Ticks = 5


class GenericPos(PartitionOs):
    """Round-robin, priority-blind scheduler modelling a non-RT guest."""

    kernel_name = "generic"
    has_quantum_horizon = True
    #: :meth:`choose_heir` rotates on the quantum counter, which advances
    #: without a generation bump: every dispatch runs the real policy.
    memoizes_dispatch = False

    def __init__(self, partition: Partition,
                 quantum: Ticks = DEFAULT_QUANTUM) -> None:
        super().__init__(partition)
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.quantum = quantum
        self._ticks_on_current: Ticks = 0
        self._guest_clock: Optional[GuestClock] = None
        self._takeover_attempts = 0

    # -------------------------------------------------------------- #
    # scheduling policy
    # -------------------------------------------------------------- #

    def choose_heir(self, now: Ticks) -> Optional[Tcb]:
        """Round-robin among schedulable processes, rotating each quantum.

        Time accounting lives in :meth:`on_tick_consumed` (the policy hook
        may run several times per tick); here we only *read* it.
        """
        ready = self.ready_set()
        if not ready:
            self._ticks_on_current = 0
            return None
        ready.sort(key=lambda tcb: tcb.name)  # stable deterministic ring
        current = self.running
        if current is not None and current.is_schedulable:
            if self._ticks_on_current < self.quantum:
                return current
            # Quantum exhausted: rotate past the current process.
            self._ticks_on_current = 0
            names = [tcb.name for tcb in ready]
            try:
                index = names.index(current.name)
            except ValueError:
                index = -1
            return ready[(index + 1) % len(ready)]
        self._ticks_on_current = 0
        return ready[0]

    def dispatch(self, now: Ticks) -> Optional[Tcb]:
        previous = self.running
        heir = super().dispatch(now)
        if heir is not previous:
            self._ticks_on_current = 0
        return heir

    def on_tick_consumed(self, tcb: Tcb) -> None:
        """Charge the consumed tick against the running quantum."""
        self._ticks_on_current += 1

    def on_span_consumed(self, tcb: Tcb, ticks: Ticks) -> None:
        """Charge a batched span against the running quantum."""
        self._ticks_on_current += ticks

    def next_quantum_tick(self, now: Ticks) -> Optional[Ticks]:
        """First tick at which :meth:`choose_heir` would rotate the ring.

        With a process running, the round-robin check fires once the
        quantum is exhausted; ticks strictly before that keep the current
        process and only advance the counter (batched by
        :meth:`on_span_consumed`).  Under a preemption lock the counter
        can already exceed the quantum — the clamp then returns *now*,
        degrading that (rare) stretch to per-tick execution rather than
        risking a missed rotation at unlock.
        """
        if self.running is None:
            return None
        return now + max(self.quantum - self._ticks_on_current, 0)

    # -------------------------------------------------------------- #
    # snapshot / restore
    # -------------------------------------------------------------- #

    SNAPSHOT_SCHEMA = {**PartitionOs.SNAPSHOT_SCHEMA,
                       "ticks_on_current": RAW, "takeover_attempts": RAW}

    def snapshot(self, resource_ref) -> dict:
        state = super().snapshot(resource_ref)
        state["ticks_on_current"] = self._ticks_on_current
        state["takeover_attempts"] = self._takeover_attempts
        return state

    def restore(self, state: dict, **kwargs) -> None:
        super().restore(state, **kwargs)
        self._ticks_on_current = state["ticks_on_current"]
        self._takeover_attempts = state["takeover_attempts"]

    # -------------------------------------------------------------- #
    # paravirtualized clock surface (Sect. 2.5)
    # -------------------------------------------------------------- #

    def attach_guest_clock(self, clock: GuestClock) -> None:
        """Give the guest its (read-only) clock handle."""
        self._guest_clock = clock

    @property
    def takeover_attempts(self) -> int:
        """Number of trapped clock takeover attempts by this guest."""
        return self._takeover_attempts

    def attempt_clock_takeover(self) -> List[str]:
        """Execute the privileged clock operations a bare-metal kernel would.

        Every operation is trapped by the PMK paravirtualization layer;
        none takes effect.  Returns the list of trapped operation names so
        experiments can assert full coverage.
        """
        if self._guest_clock is None:
            raise RuntimeError(
                f"partition {self.name!r} has no guest clock attached")
        trapped: List[str] = []
        for operation in (self._guest_clock.disable_interrupts,
                          lambda: self._guest_clock.set_timer_frequency(1000),
                          lambda: self._guest_clock.divert_clock_vector(
                              lambda: None)):
            try:
                operation()
            except ClockTamperingError as exc:
                trapped.append(exc.operation)
                self._takeover_attempts += 1
        return trapped
