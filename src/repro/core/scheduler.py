"""AIR Partition Scheduler with mode-based schedules — Algorithm 1 (Sect. 4).

The scheduler runs at every system clock tick.  Its fast path — the best and
most frequent case the paper highlights in Sect. 4.3 — performs only two
computations: increment the tick counter and check whether a partition
preemption point has been reached.  Only at preemption points does it do
more: effect a pending schedule switch if the MTF boundary was crossed
(lines 3-7), pick the heir partition (line 8) and advance the table iterator
(line 9).

The implementation mirrors Algorithm 1 line by line (see the docstring of
:meth:`PartitionScheduler.tick`); instrumentation counters let benchmark E5
separate the fast path from the preemption-point and switch paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..exceptions import SchedulingError, UnknownScheduleError
from ..kernel.snapshot_schema import COUNTERS, PHASE, RAW
from ..kernel.trace import ScheduleSwitched, ScheduleSwitchRequested, Trace
from ..types import ScheduleChangeAction, Ticks
from .model import DispatchEntry, ScheduleTable, SystemModel

__all__ = ["CompiledSchedule", "SchedulerStats", "PartitionScheduler"]


@dataclass(frozen=True)
class CompiledSchedule:
    """Run-time form of one PST, as consulted by Algorithm 1.

    ``table`` is the dispatch table (one entry per partition preemption
    point); ``mtf`` the major time frame; both are precomputed so the tick
    path does no model traversal.
    """

    schedule_id: str
    mtf: Ticks
    table: Tuple[DispatchEntry, ...]
    source: ScheduleTable

    @classmethod
    def compile(cls, schedule: ScheduleTable) -> "CompiledSchedule":
        """Precompute the dispatch table of *schedule*."""
        return cls(schedule_id=schedule.schedule_id,
                   mtf=schedule.major_time_frame,
                   table=schedule.dispatch_table(),
                   source=schedule)

    @property
    def number_partition_preemption_points(self) -> int:
        """Algorithm 1's ``numberPartitionPreemptionPoints``."""
        return len(self.table)


@dataclass
class SchedulerStats:
    """Instrumentation for experiment E5 (Sect. 4.3's efficiency claim)."""

    ticks: int = 0
    fast_path: int = 0
    preemption_points: int = 0
    schedule_switches: int = 0

    @property
    def fast_path_fraction(self) -> float:
        """Fraction of ticks that took the two-computation fast path."""
        return self.fast_path / self.ticks if self.ticks else 0.0


class PartitionScheduler:
    """First level of the two-level hierarchical scheduler (Fig. 2, Fig. 4).

    Parameters
    ----------
    system:
        The validated system model; every PST is compiled at construction.
    trace:
        Event sink for switch requests and effective switches.
    """

    def __init__(self, system: SystemModel,
                 trace: Optional[Trace] = None) -> None:
        self._schedules: Dict[str, CompiledSchedule] = {
            schedule.schedule_id: CompiledSchedule.compile(schedule)
            for schedule in system.schedules}
        self._trace = trace
        self.current_schedule: str = system.initial_schedule
        self.next_schedule: str = system.initial_schedule
        self.last_schedule_switch: Ticks = 0
        self.table_iterator: int = 0
        self.heir_partition: Optional[str] = None
        self.stats = SchedulerStats()
        #: Partitions owing a ScheduleChangeAction at their next dispatch
        #: (consumed by the Partition Dispatcher — Algorithm 2, line 9).
        self.pending_change_actions: Dict[str, ScheduleChangeAction] = {}
        #: Horizon-memo state generation: bumped whenever the table
        #: iterator, current schedule or epoch can move (the preemption
        #: point path of :meth:`tick`, and :meth:`restore`).
        self._horizon_generation = 0
        self._horizon_memo: Tuple[int, Ticks] = (-1, 0)

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    @property
    def schedule_ids(self) -> Tuple[str, ...]:
        """All compiled schedule identifiers."""
        return tuple(self._schedules)

    def schedule(self, schedule_id: str) -> CompiledSchedule:
        """The compiled schedule *schedule_id*."""
        try:
            return self._schedules[schedule_id]
        except KeyError:
            raise UnknownScheduleError(
                f"no schedule named {schedule_id!r}") from None

    @property
    def current(self) -> CompiledSchedule:
        """The schedule currently in force."""
        return self._schedules[self.current_schedule]

    @property
    def switch_pending(self) -> bool:
        """True if a schedule change awaits the next MTF boundary."""
        return self.next_schedule != self.current_schedule

    # -------------------------------------------------------------- #
    # mode-based schedule service entry point (Sect. 4.2)
    # -------------------------------------------------------------- #

    def request_switch(self, schedule_id: str, *, now: Ticks,
                       requested_by: str = "") -> None:
        """SET_MODULE_SCHEDULE service: store the next-schedule identifier.

        "The immediate result is only that of storing the identifier of
        the next schedule" — the switch takes effect at the start of the
        next MTF (Sect. 4.2).  A later request before the boundary simply
        overwrites the pending identifier; requesting the current schedule
        cancels a pending switch.
        """
        if schedule_id not in self._schedules:
            raise UnknownScheduleError(
                f"cannot switch to unknown schedule {schedule_id!r} "
                f"(available: {sorted(self._schedules)})")
        self.next_schedule = schedule_id
        if self._trace is not None:
            self._trace.record(ScheduleSwitchRequested(
                tick=now, requested_by=requested_by,
                from_schedule=self.current_schedule, to_schedule=schedule_id))

    # -------------------------------------------------------------- #
    # Algorithm 1
    # -------------------------------------------------------------- #

    def tick(self, ticks: Ticks) -> bool:
        """One clock tick of the AIR Partition Scheduler.

        *ticks* is the global clock tick counter value (the caller — the
        clock ISR — performs line 1's increment by advancing the
        :class:`~repro.kernel.time.TimeSource`; it is passed in rather
        than re-read for testability).

        Returns True when a partition preemption point was reached, i.e.
        the Partition Dispatcher must run (:attr:`heir_partition` holds
        the heir).

        Line-by-line correspondence with Algorithm 1::

            1: ticks <- ticks + 1                      (caller)
            2: if schedules[cs].table[it].tick ==
                  (ticks - lastScheduleSwitch) mod schedules[cs].mtf:
            3:   if cs != nextSchedule and
                    (ticks - lastScheduleSwitch) mod schedules[cs].mtf == 0:
            4:     cs <- nextSchedule
            5:     lastScheduleSwitch <- ticks
            6:     tableIterator <- 0
            7:   end if
            8:   heirPartition <- schedules[cs].table[it].partition
            9:   tableIterator <- (it + 1) mod
                    schedules[cs].numberPartitionPreemptionPoints
            10: end if
        """
        self.stats.ticks += 1
        schedule = self._schedules[self.current_schedule]
        offset = (ticks - self.last_schedule_switch) % schedule.mtf
        if schedule.table[self.table_iterator].tick != offset:          # l. 2
            self.stats.fast_path += 1
            return False
        if self.current_schedule != self.next_schedule and offset == 0:  # l. 3
            previous = self.current_schedule
            self.current_schedule = self.next_schedule                  # l. 4
            self.last_schedule_switch = ticks                           # l. 5
            self.table_iterator = 0                                     # l. 6
            schedule = self._schedules[self.current_schedule]
            self.stats.schedule_switches += 1
            self._arm_change_actions(schedule)
            if self._trace is not None:
                self._trace.record(ScheduleSwitched(
                    tick=ticks, from_schedule=previous,
                    to_schedule=self.current_schedule))
        entry = schedule.table[self.table_iterator]
        self.heir_partition = entry.partition                           # l. 8
        self.table_iterator = ((self.table_iterator + 1)                # l. 9
                               % schedule.number_partition_preemption_points)
        self.stats.preemption_points += 1
        self._horizon_generation += 1
        return True

    # -------------------------------------------------------------- #
    # event-driven execution support
    # -------------------------------------------------------------- #

    def next_preemption_tick(self, now: Ticks) -> Ticks:
        """Absolute tick of the next Algorithm 1 table-entry match.

        Returns *now* itself when the current tick is a partition
        preemption point (the ISR must run).  Every tick strictly before
        the returned one takes the two-computation fast path, so the
        event-driven core may batch them: this is the scheduler's
        ``next_event_tick`` horizon.

        Schedule switches cannot be missed by jumping here: a pending
        switch takes effect at an MTF boundary, and an MTF boundary always
        carries a dispatch-table entry (offset 0), i.e. it *is* a
        preemption point of the current schedule.

        The absolute result is constant between preemption points (the
        iterator only advances inside :meth:`tick`'s match path, which
        bumps the generation counter), so it is memoized per generation —
        a ``request_switch`` does not move the horizon because the MTF
        boundary it targets is itself a table entry.
        """
        generation = self._horizon_generation
        memo_generation, memo_tick = self._horizon_memo
        if memo_generation == generation and memo_tick >= now:
            return memo_tick
        schedule = self._schedules[self.current_schedule]
        entry = schedule.table[self.table_iterator]
        offset = (now - self.last_schedule_switch) % schedule.mtf
        horizon = now + (entry.tick - offset) % schedule.mtf
        self._horizon_memo = (generation, horizon)
        return horizon

    def batch_account(self, ticks: Ticks) -> None:
        """Account *ticks* fast-path ticks executed as one batch.

        The event-driven core only batches spans strictly inside a
        preemption-point-free stretch, where :meth:`tick` would have taken
        the fast path every time; the instrumentation counters stay
        bit-identical to per-tick execution.
        """
        self.stats.ticks += ticks
        self.stats.fast_path += ticks

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    SNAPSHOT_SCHEMA = {
        "current_schedule": RAW,
        "next_schedule": RAW,
        "last_schedule_switch": PHASE,
        "table_iterator": RAW,
        "heir_partition": RAW,
        "pending_change_actions": RAW,
        "stats": COUNTERS,
    }

    def snapshot(self) -> dict:
        """Capture Algorithm 1's mutable state as pure data.

        Compiled schedules are structural (rebuilt from the system model
        at construction) and are *not* captured — only the iterator
        position, schedule identifiers, pending change actions and
        instrumentation counters.
        """
        return {
            "current_schedule": self.current_schedule,
            "next_schedule": self.next_schedule,
            "last_schedule_switch": self.last_schedule_switch,
            "table_iterator": self.table_iterator,
            "heir_partition": self.heir_partition,
            "pending_change_actions": dict(self.pending_change_actions),
            "stats": {"ticks": self.stats.ticks,
                      "fast_path": self.stats.fast_path,
                      "preemption_points": self.stats.preemption_points,
                      "schedule_switches": self.stats.schedule_switches},
        }

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture onto this scheduler."""
        self.current_schedule = state["current_schedule"]
        self.next_schedule = state["next_schedule"]
        self.last_schedule_switch = state["last_schedule_switch"]
        self.table_iterator = state["table_iterator"]
        self.heir_partition = state["heir_partition"]
        self.pending_change_actions = dict(state["pending_change_actions"])
        stats = state["stats"]
        self.stats = SchedulerStats(**stats)
        self._horizon_generation += 1

    def _arm_change_actions(self, schedule: CompiledSchedule) -> None:
        """Arm each scheduled partition's ScheduleChangeAction.

        The actions are *performed* per partition at its first dispatch
        after the switch (Algorithm 2, line 9 — the paper's reading of
        ARINC 653 Part 2, Sect. 4.3); here they are only recorded as
        pending.
        """
        self.pending_change_actions.clear()
        for requirement in schedule.source.requirements:
            action = schedule.source.change_action_for(requirement.partition)
            if action is not ScheduleChangeAction.IGNORE:
                self.pending_change_actions[requirement.partition] = action

    def take_pending_action(
            self, partition: str) -> Optional[ScheduleChangeAction]:
        """Pop the pending change action for *partition*, if any
        (PENDINGSCHEDULECHANGEACTION — Algorithm 2, line 9)."""
        return self.pending_change_actions.pop(partition, None)
