"""Fault injection scheduling over a running simulation (Sect. 6).

A :class:`FaultInjector` wraps a :class:`~repro.kernel.simulator.Simulator`
and applies :class:`~repro.fault.faults.Fault` instances at scheduled
simulated times.  Faults are applied *before* the tick they are scheduled
at executes, so a fault "at tick T" is visible to the clock ISR of tick T.

The injector keeps a log of ``(tick, fault, status)`` records so
experiments can correlate injections with trace events.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..exceptions import SimulationError
from ..kernel.simulator import Simulator
from ..types import Ticks
from .faults import Fault, fault_from_dict, fault_to_dict

__all__ = ["CHECK_INTERVAL", "InjectionRecord", "FaultInjector"]

#: The span cap of :meth:`FaultInjector.run_fast`: simulated ticks
#: between ``should_abort`` polls (the campaign runner's wall-clock
#: timeout check).
CHECK_INTERVAL: Ticks = 20_000


@dataclass(frozen=True)
class InjectionRecord:
    """One applied fault and its reported status."""

    tick: Ticks
    fault: Fault
    status: str


class FaultInjector:
    """Time-ordered fault application over a simulator."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self._pending: List[Tuple[Ticks, int, Fault]] = []
        self._sequence = 0
        self._log: List[InjectionRecord] = []

    def schedule(self, tick: Ticks, fault: Fault) -> None:
        """Apply *fault* just before simulated tick *tick* executes.

        Scheduling strictly in the past raises :class:`SimulationError`
        rather than silently never firing — a campaign spec with a stale
        injection tick must fail loudly, not drop the fault.  ``tick ==
        now`` is accepted: the fault fires before the current tick's ISR
        on the next ``run``/``run_fast`` call.
        """
        if tick < self.simulator.now:
            raise SimulationError(
                f"cannot schedule a fault in the past "
                f"(now={self.simulator.now}, requested={tick})")
        self._sequence += 1
        heapq.heappush(self._pending, (tick, self._sequence, fault))

    def inject_now(self, fault: Fault) -> InjectionRecord:
        """Apply *fault* immediately."""
        status = fault.apply(self.simulator)
        record = InjectionRecord(tick=self.simulator.now, fault=fault,
                                 status=status)
        self._log.append(record)
        return record

    @property
    def log(self) -> Tuple[InjectionRecord, ...]:
        """Every applied fault, in application order."""
        return tuple(self._log)

    @property
    def pending_count(self) -> int:
        """Faults scheduled but not yet applied."""
        return len(self._pending)

    def state_dict(self) -> Dict[str, Any]:
        """The applied-fault log as pure data (for snapshot transport).

        Lets a simulator checkpoint taken *after* faults were applied
        carry its injection history: a forked continuation seeds a fresh
        injector with this state and schedules only the not-yet-applied
        remainder of its timeline, so the final log is bit-identical to an
        uninterrupted run's.  Pending (scheduled but unapplied) faults are
        deliberately not captured — snapshots are taken at points where
        everything scheduled has fired; capturing with live pending faults
        would silently drop them, so it fails loudly instead.
        """
        if self._pending:
            raise SimulationError(
                f"cannot capture injector state with {len(self._pending)} "
                f"pending fault(s) — run past them or don't schedule them "
                f"before capture")
        return {"log": [(record.tick, fault_to_dict(record.fault),
                         record.status) for record in self._log]}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Overlay a captured applied-fault log (inverse of state_dict).

        Replaces the current log wholesale; faults are rebuilt from their
        dict forms, so the restored records are value-equal (same kind,
        fields, tick and status) to the captured ones.
        """
        self._log = [
            InjectionRecord(tick=tick, fault=fault_from_dict(dict(fields)),
                            status=status)
            for tick, fields, status in state["log"]]

    def run(self, ticks: Ticks) -> None:
        """Advance the simulation by *ticks*, applying due faults."""
        target = self.simulator.now + ticks
        while self.simulator.now < target and not self.simulator.stopped:
            self._apply_due()
            self.simulator.step()
        self._apply_due()  # faults scheduled exactly at the target tick

    def run_fast(self, ticks: Ticks, *,
                 should_abort: Optional[Callable[[], bool]] = None
                 ) -> bool:
        """Advance by *ticks* on the event-driven core, applying due faults.

        Equivalent to :meth:`run` (bit-identical trace and injection log)
        but drives the simulator with
        :meth:`~repro.kernel.simulator.Simulator.run_fast` between
        injection points: each inner span is bounded by the earliest
        pending fault tick, so a fault scheduled at tick T is still
        applied before T's clock ISR.

        *should_abort*, polled at least every :data:`CHECK_INTERVAL`
        simulated ticks, lets a caller impose a wall-clock budget (the campaign
        runner's per-scenario timeout).  Returns False if aborted,
        True on normal completion.
        """
        simulator = self.simulator
        target = simulator.now + ticks
        while simulator.now < target and not simulator.stopped:
            if should_abort is not None and should_abort():
                return False
            self._apply_due()
            bound = min(target, simulator.now + CHECK_INTERVAL)
            if self._pending:
                bound = min(bound, self._pending[0][0])
            simulator.run_fast(bound - simulator.now)
        self._apply_due()  # faults scheduled exactly at the target tick
        return True

    def run_mtf(self, count: int = 1) -> None:
        """Advance by *count* MTFs of the current schedule, applying faults."""
        for _ in range(count):
            scheduler = self.simulator.pmk.scheduler
            mtf = scheduler.current.mtf
            offset = ((self.simulator.now - scheduler.last_schedule_switch)
                      % mtf)
            self.run(mtf - offset if offset else mtf)

    def _apply_due(self) -> None:
        now = self.simulator.now
        while self._pending and self._pending[0][0] <= now:
            _, _, fault = heapq.heappop(self._pending)
            self.inject_now(fault)
