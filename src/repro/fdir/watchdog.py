"""PMK-level partition heartbeat watchdogs.

A hung partition is indistinguishable, from the outside, from one that is
merely unlucky with its windows — unless someone expects it to *say*
something.  The watchdog service holds one deadline per configured
partition: an application process kicks it through the APEX call
``KICK_WATCHDOG`` (a paravirtualized system call in AIR terms — the
deadline lives in the PMK, outside the partition's fault domain, which is
why a crashed partition cannot fake its own liveness).  Silence past the
configured window raises :attr:`~repro.types.ErrorCode.WATCHDOG_EXPIRED`
into the Health Monitor, where tables/escalation decide the response
(default: partition restart).

Event-core compatibility: kicks happen only from APEX calls, which the
event core executes on stepped ticks; expiries are polled by the PMK
clock tick, and :meth:`WatchdogService.next_expiry` feeds the module's
``next_event_tick`` horizon so a fast-skip span never jumps over an
expiry.  A watchdog is *inert* until its first kick — configuring one for
a partition that never kicks changes no trace.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

from ..kernel.snapshot_schema import COUNTER, TICK, Rows
from ..kernel.trace import Trace, WatchdogExpired
from ..types import Ticks

__all__ = ["WatchdogService"]


class WatchdogService:
    """Heartbeat deadlines for configured partitions.

    ``on_expired`` is called with (partition, last_kick_tick, now) for
    each expiry — the PMK routes it into the Health Monitor.
    """

    def __init__(self, windows: Mapping[str, Ticks], *,
                 on_expired: Callable[[str, Ticks, Ticks], None],
                 trace: Optional[Trace] = None) -> None:
        self._windows: Dict[str, Ticks] = dict(windows)
        self._on_expired = on_expired
        self._trace = trace
        #: partition -> (last_kick, deadline); armed watchdogs only.
        self._armed: Dict[str, Tuple[Ticks, Ticks]] = {}
        self._next_expiry: Optional[Ticks] = None
        self.kicks = 0
        self.expiries = 0

    def watches(self, partition: str) -> bool:
        """Is a watchdog configured for *partition*?"""
        return partition in self._windows

    def kick(self, partition: str, now: Ticks) -> bool:
        """Record a heartbeat; arms the watchdog on the first kick.

        Returns False (no-op) when no watchdog is configured for
        *partition*.
        """
        window = self._windows.get(partition)
        if window is None:
            return False
        self.kicks += 1
        self._armed[partition] = (now, now + window)
        self._refresh_next_expiry()
        return True

    def disarm(self, partition: str) -> None:
        """Forget *partition*'s deadline (it re-arms on the next kick)."""
        if self._armed.pop(partition, None) is not None:
            self._refresh_next_expiry()

    def check(self, now: Ticks) -> Tuple[str, ...]:
        """Fire every watchdog whose deadline has passed.

        Expired watchdogs disarm (one report per silence, not one per
        tick); a restarted partition re-arms by kicking again.  Returns
        the expired partition names, sorted for determinism.
        """
        if self._next_expiry is None or now < self._next_expiry:
            return ()
        expired = sorted(partition
                         for partition, (_, deadline) in self._armed.items()
                         if deadline <= now)
        for partition in expired:
            last_kick, _ = self._armed.pop(partition)
            self.expiries += 1
            if self._trace is not None:
                self._trace.record(WatchdogExpired(
                    tick=now, partition=partition, last_kick=last_kick))
            self._on_expired(partition, last_kick, now)
        self._refresh_next_expiry()
        return tuple(expired)

    def next_expiry(self) -> Optional[Ticks]:
        """Earliest armed deadline (the event-core horizon), or None."""
        return self._next_expiry

    def armed(self) -> Tuple[Tuple[str, Ticks, Ticks], ...]:
        """(partition, last_kick, deadline) for armed watchdogs, sorted."""
        return tuple(sorted(
            (partition, last_kick, deadline)
            for partition, (last_kick, deadline) in self._armed.items()))

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    #: ``armed`` maps a partition to its ``(last_kick, deadline)`` ticks.
    SNAPSHOT_SCHEMA = {"armed": Rows(TICK, TICK), "kicks": COUNTER,
                       "expiries": COUNTER}

    def snapshot(self) -> dict:
        """Capture armed deadlines and counters as pure data."""
        return {"armed": dict(self._armed),
                "kicks": self.kicks,
                "expiries": self.expiries}

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture onto this service."""
        self._armed = dict(state["armed"])
        self.kicks = state["kicks"]
        self.expiries = state["expiries"]
        self._refresh_next_expiry()

    def _refresh_next_expiry(self) -> None:
        self._next_expiry = (min(deadline for _, deadline
                                 in self._armed.values())
                             if self._armed else None)
