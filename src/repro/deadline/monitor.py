"""Process deadline violation monitoring — Algorithm 3 (Sect. 5).

The monitor owns one :class:`~repro.deadline.structures.DeadlineStore` per
partition and implements the verification loop run inside the surrogate
clock tick announcement routine (Fig. 7b):

1. only the *earliest* deadline is examined by default (O(1) retrieval);
2. if it has not passed, the check is done — the common case costs one
   comparison;
3. if it has, the violation is reported to Health Monitoring
   (``HM_DEADLINEVIOLATED``) and the entry removed (O(1), node in hand);
   following deadlines are then checked in ascending order until one that
   has not been missed.

This placement is "optimal with respect to deadline violation detection
latency" (Sect. 5): a violation is detected at the first tick announcement
after its deadline time — immediately if the partition is active, or at the
partition's next dispatch if it was inactive when the deadline passed
(the dispatcher announces all elapsed ticks, Fig. 7a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..kernel.snapshot_schema import COUNTER, RAW
from ..types import Ticks
from .structures import DeadlineRecord, DeadlineStore, make_store

__all__ = ["Violation", "DeadlineMonitor"]


@dataclass(frozen=True, slots=True)
class Violation:
    """One detected deadline miss.

    ``detection_latency`` is ``detected_at - deadline_time``: zero when the
    miss is caught at the very tick the deadline expired is impossible by
    definition (a deadline at *t* is violated once *t* has passed without
    completion, i.e. observed at ``t' > t``), so the minimum is 1 tick when
    the partition is active; larger values mean the partition was inactive
    and the miss surfaced at dispatch (Sect. 5's second paragraph).
    """

    process: str
    deadline_time: Ticks
    detected_at: Ticks
    detection_latency: Ticks


class DeadlineMonitor:
    """Per-partition deadline bookkeeping plus the Algorithm 3 check loop.

    Parameters
    ----------
    partition:
        Owning partition name (for reporting).
    store_kind:
        ``"list"`` (paper's implementation) or ``"tree"`` (ablation).
    on_violation:
        Callback invoked for each violation, in detection order — the
        ``HM_DEADLINEVIOLATED`` hook of Algorithm 3 line 6.
    """

    def __init__(self, partition: str, *, store_kind: str = "list",
                 on_violation: Optional[Callable[[Violation], None]] = None
                 ) -> None:
        self.partition = partition
        self.store: DeadlineStore = make_store(store_kind)
        self.on_violation = on_violation
        self._violations: List[Violation] = []
        self._checks = 0
        self._comparisons = 0

    # -------------------------------------------------------------- #
    # registration interface used by the APEX primitives (Sect. 5.2)
    # -------------------------------------------------------------- #

    def register(self, process: str, deadline_time: Ticks) -> None:
        """PAL_REGISTERPROCESSDEADLINE: insert or move *process*'s deadline.

        Called by START (deadline = now + time capacity), DELAYED_START,
        PERIODIC_WAIT (next release + capacity) and REPLENISH (Fig. 6).
        """
        self.store.register(process, deadline_time)

    def unregister(self, process: str) -> bool:
        """PAL_REMOVEPROCESSDEADLINE: drop *process*'s deadline (STOP paths)."""
        return self.store.unregister(process)

    def deadline_of(self, process: str) -> Optional[Ticks]:
        """Currently registered absolute deadline ``D'(t)`` of *process*."""
        return self.store.deadline_of(process)

    # -------------------------------------------------------------- #
    # Algorithm 3
    # -------------------------------------------------------------- #

    def verify(self, now: Ticks) -> List[Violation]:
        """Run the Algorithm 3 loop at time *now*; returns new violations.

        The loop invariant matches the paper: examine deadlines in
        ascending order, stopping at the first with
        ``deadline_time >= now`` (line 3); every earlier entry is a
        violation — report (line 6) and remove (line 7).
        """
        self._checks += 1
        violations: List[Violation] = []
        while True:
            earliest = self.store.earliest()
            self._comparisons += 1
            if earliest is None or earliest.deadline_time >= now:
                break
            self.store.pop_earliest()
            violation = Violation(
                process=earliest.process,
                deadline_time=earliest.deadline_time,
                detected_at=now,
                detection_latency=now - earliest.deadline_time,
            )
            violations.append(violation)
            self._violations.append(violation)
            if self.on_violation is not None:
                self.on_violation(violation)
        return violations

    # -------------------------------------------------------------- #
    # event-driven execution support
    # -------------------------------------------------------------- #

    def next_violation_tick(self) -> Optional[Ticks]:
        """First tick at which :meth:`verify` could detect a violation.

        A deadline at ``D`` is violated once ``D`` has passed, i.e. first
        observable at ``D + 1`` (Algorithm 3 reports when
        ``deadline_time < now``).  O(1) via the store's earliest entry;
        None when no deadline is registered.  This is the monitor's
        ``next_event_tick`` horizon: every verification strictly before it
        is the single no-violation comparison.
        """
        earliest = self.store.earliest()
        return earliest.deadline_time + 1 if earliest is not None else None

    def batch_account(self, checks: Ticks) -> None:
        """Account *checks* uniform no-violation verifications at once.

        The event-driven core calls this instead of :meth:`verify` for
        batched spans it has proven violation-free (span end before
        :meth:`next_violation_tick`); each skipped verification would have
        cost exactly one comparison, keeping E6's instrumentation
        bit-identical to per-tick execution.
        """
        self._checks += checks
        self._comparisons += checks

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    SNAPSHOT_SCHEMA = {"store": DeadlineStore.SNAPSHOT_SCHEMA,
                       "violations": RAW, "checks": COUNTER,
                       "comparisons": COUNTER}

    def snapshot(self) -> dict:
        """Capture the deadline store and detection history as pure data."""
        return {"store": self.store.snapshot(),
                "violations": list(self._violations),
                "checks": self._checks,
                "comparisons": self._comparisons}

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture onto this monitor."""
        self.store.restore(state["store"])
        self._violations = list(state["violations"])
        self._checks = state["checks"]
        self._comparisons = state["comparisons"]

    # -------------------------------------------------------------- #
    # instrumentation
    # -------------------------------------------------------------- #

    @property
    def violations(self) -> List[Violation]:
        """All violations detected so far, in detection order."""
        return list(self._violations)

    @property
    def check_count(self) -> int:
        """Number of times :meth:`verify` ran (one per tick announcement)."""
        return self._checks

    @property
    def comparison_count(self) -> int:
        """Total earliest-deadline comparisons performed across all checks.

        In the absence of violations this equals :attr:`check_count` —
        the paper's "only the earliest deadline is verified by default".
        """
        return self._comparisons

    def pending_count(self) -> int:
        """Number of currently registered deadlines."""
        return len(self.store)
