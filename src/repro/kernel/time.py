"""System clock abstraction for the simulated platform.

The AIR Partition Scheduler runs "at every system clock tick" (Sect. 2.1);
everything in the paper's model is expressed in ticks.  :class:`TimeSource`
is the single authority over simulated time.  Only the kernel (PMK) may
advance it; guest operating systems get a read-only view
(:class:`GuestClock`) and any attempt to disable or divert the tick source —
the hazard Sect. 2.5 paravirtualizes against for non-real-time guests — is
trapped and reported instead of honoured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..exceptions import ClockTamperingError, SimulationError
from ..types import Ticks
from .snapshot_schema import RAW, TICK

__all__ = ["TimeSource", "GuestClock", "TamperAttempt"]


@dataclass(frozen=True)
class TamperAttempt:
    """Record of one trapped attempt to interfere with the system clock."""

    tick: Ticks
    partition: str
    operation: str


class TimeSource:
    """Monotonic tick counter owned by the PMK.

    ``ticks`` mirrors Algorithm 1's global clock tick counter.  The counter
    only moves forward, one tick at a time, via :meth:`advance` — this keeps
    the simulation deterministic and makes off-by-one errors loud.
    """

    def __init__(self) -> None:
        self._ticks: Ticks = 0
        self._tamper_attempts: List[TamperAttempt] = []

    @property
    def now(self) -> Ticks:
        """Current simulated time in ticks."""
        return self._ticks

    def read(self) -> Ticks:
        """Current simulated time, as a plain method.

        ``time.read`` is the shared clock callable handed to every
        component that needs to stamp events (Health Monitor, router, PAL,
        runtimes): one bound method instead of one closure per consumer,
        and one attribute load instead of a property dispatch on the
        per-tick hot path.
        """
        return self._ticks

    def advance(self) -> Ticks:
        """Advance time by exactly one tick; returns the new time.

        Mirrors Algorithm 1 line 1 (``ticks <- ticks + 1``).
        """
        self._ticks += 1
        return self._ticks

    def skip(self, count: Ticks) -> Ticks:
        """Advance time by *count* ticks at once.

        Reserved for the simulator's event-driven execution core, which
        batches provably uniform tick spans (idle stretches *and* active
        compute windows) between interesting ticks; the per-tick clock ISR
        is the normal path.
        """
        if count < 0:
            raise SimulationError(f"cannot skip {count} ticks")
        self._ticks += count
        return self._ticks

    # -------------------------------------------------------------- #
    # paravirtualization trap surface (Sect. 2.5)
    # -------------------------------------------------------------- #

    def record_tamper_attempt(self, partition: str, operation: str) -> TamperAttempt:
        """Record a trapped guest attempt to disable/divert the clock.

        The PMK wraps the privileged clock instructions of non-real-time
        guests (paravirtualization, Sect. 2.5); when a guest executes one,
        the wrapper lands here.  The attempt is logged — never honoured —
        and returned so the caller can raise it to Health Monitoring.
        """
        attempt = TamperAttempt(tick=self._ticks, partition=partition,
                                operation=operation)
        self._tamper_attempts.append(attempt)
        return attempt

    @property
    def tamper_attempts(self) -> tuple:
        """All trapped tampering attempts so far, in order."""
        return tuple(self._tamper_attempts)

    def guest_view(self, partition: str) -> "GuestClock":
        """A read-only clock handle for *partition*'s operating system."""
        return GuestClock(self, partition)

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    SNAPSHOT_SCHEMA = {"ticks": TICK, "tamper_attempts": RAW}

    def snapshot(self) -> dict:
        """Capture the tick counter and tamper log as pure data."""
        return {"ticks": self._ticks,
                "tamper_attempts": list(self._tamper_attempts)}

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture onto this time source."""
        self._ticks = state["ticks"]
        self._tamper_attempts = list(state["tamper_attempts"])


class GuestClock:
    """Read-only clock exposed to a partition's operating system.

    Reading time is always allowed.  The mutating operations a bare-metal
    kernel would perform on a one-shot/periodic timer are represented here
    as explicit methods that *always* trap: this is the paravirtualization
    contract of Sect. 2.5 made executable.
    """

    def __init__(self, source: TimeSource, partition: str) -> None:
        self._source = source
        self._partition = partition

    @property
    def now(self) -> Ticks:
        """Current time, identical to the PMK's view."""
        return self._source.now

    @property
    def partition(self) -> str:
        """Partition this handle belongs to."""
        return self._partition

    def disable_interrupts(self) -> None:
        """Trap: a guest may not mask the system clock interrupt."""
        self._trap("disable_interrupts")

    def set_timer_frequency(self, hz: int) -> None:
        """Trap: a guest may not reprogram the tick source."""
        self._trap(f"set_timer_frequency({hz})")

    def divert_clock_vector(self, handler: Callable[[], None]) -> None:
        """Trap: a guest may not steal the clock interrupt vector."""
        self._trap("divert_clock_vector")

    def _trap(self, operation: str) -> None:
        self._source.record_tamper_attempt(self._partition, operation)
        raise ClockTamperingError(
            f"partition {self._partition!r} attempted {operation}; the PMK "
            f"paravirtualization layer trapped the instruction (Sect. 2.5)",
            partition=self._partition, operation=operation)
