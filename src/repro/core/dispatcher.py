"""AIR Partition Dispatcher with mode-based schedules — Algorithm 2 (Sect. 4.3).

Executed after the Partition Scheduler whenever a partition preemption point
is reached.  If the heir partition is the one already active, the elapsed
time is a single tick (line 2).  Otherwise the dispatcher saves the active
partition's execution context, stamps its ``lastTick`` (lines 4-5), computes
the heir's elapsed ticks since it last held the processor (line 6), restores
its context (line 8), and invokes any pending schedule change action for the
heir (line 9) — the paper's chosen point for applying
``ScheduleChangeAction``, so the restart "will only affect its own execution
time window".

The dispatcher also switches the active MMU context (spatial partitioning
follows the processor): this is the run-time half of Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..kernel.context import ContextBank
from ..kernel.snapshot_schema import COUNTERS, RAW
from ..kernel.trace import PartitionDispatched, Trace
from ..spatial.mmu import Mmu
from ..types import ScheduleChangeAction, Ticks
from .scheduler import PartitionScheduler

__all__ = ["DispatchOutcome", "DispatcherStats", "PartitionDispatcher"]

#: Hook applying a ScheduleChangeAction to a partition (runtime-provided).
ChangeActionApplier = Callable[[str, ScheduleChangeAction], None]


@dataclass(frozen=True, slots=True)
class DispatchOutcome:
    """Result of one dispatcher run.

    ``elapsed_ticks`` is Algorithm 2's ``elapsedTicks``: how much simulated
    time the (possibly new) active partition must be told has passed —
    consumed by the PAL's surrogate tick announcement (Fig. 7).
    ``switched`` is True when a context switch occurred.
    """

    active_partition: Optional[str]
    elapsed_ticks: Ticks
    switched: bool


@dataclass
class DispatcherStats:
    """Instrumentation: same-partition vs context-switch dispatches."""

    runs: int = 0
    context_switches: int = 0
    change_actions_applied: int = 0


class PartitionDispatcher:
    """Second half of the PMK's first-level scheduling (Figs. 4-5).

    Parameters
    ----------
    contexts:
        The context bank performing SAVECONTEXT/RESTORECONTEXT.
    scheduler:
        The partition scheduler (source of pending change actions).
    mmu:
        Optional MMU whose active context tracks the active partition.
    apply_change_action:
        Runtime hook that executes a partition's ScheduleChangeAction.
    trace:
        Event sink.
    change_action_policy:
        ``"first_dispatch"`` (the paper's choice: apply when the partition
        is first dispatched after the switch) or ``"mtf_start"`` (the
        alternative reading of ARINC 653 Part 2: apply to all partitions
        at the beginning of the first MTF under the new schedule) —
        the design-decision ablation of DESIGN.md item 2.
    """

    def __init__(self, contexts: ContextBank, scheduler: PartitionScheduler,
                 *, mmu: Optional[Mmu] = None,
                 apply_change_action: Optional[ChangeActionApplier] = None,
                 trace: Optional[Trace] = None,
                 change_action_policy: str = "first_dispatch") -> None:
        if change_action_policy not in ("first_dispatch", "mtf_start"):
            raise ValueError(
                f"unknown change_action_policy {change_action_policy!r}")
        self.contexts = contexts
        self.scheduler = scheduler
        self.mmu = mmu
        self.apply_change_action = apply_change_action
        self._trace = trace
        self.change_action_policy = change_action_policy
        self.active_partition: Optional[str] = None
        self.stats = DispatcherStats()

    def run(self, ticks: Ticks, *,
            running_process: Optional[str] = None) -> DispatchOutcome:
        """One dispatcher execution — Algorithm 2.

        *ticks* is the current global tick; *running_process* is the name
        of the process currently holding the CPU in the active partition
        (saved into its context on a switch).

        Line-by-line correspondence::

            1: if heirPartition == activePartition:
            2:   elapsedTicks <- 1
            3: else
            4:   SAVECONTEXT(activePartition.context)
            5:   activePartition.lastTick <- ticks - 1
            6:   elapsedTicks <- ticks - heirPartition.lastTick
            7:   activePartition <- heirPartition
            8:   RESTORECONTEXT(heirPartition.context)
            9:   PENDINGSCHEDULECHANGEACTION(heirPartition)
            10: end if
        """
        self.stats.runs += 1
        heir = self.scheduler.heir_partition
        if heir == self.active_partition:                            # l. 1
            outcome = DispatchOutcome(active_partition=self.active_partition,
                                      elapsed_ticks=1, switched=False)  # l. 2
            if self.change_action_policy == "mtf_start":
                self._apply_all_pending(ticks)
            return outcome

        previous = self.active_partition
        if previous is not None:
            self.contexts.save(previous, tick=ticks,                 # l. 4-5
                               running_process=running_process)
        if heir is not None:
            context = self.contexts.restore(heir)                    # l. 8
            elapsed = ticks - context.last_tick                      # l. 6
        else:
            self.contexts.release()
            elapsed = 0
        self.active_partition = heir                                 # l. 7
        self.stats.context_switches += 1
        if self.mmu is not None:
            self.mmu.switch_context(heir)
        if self._trace is not None:
            self._trace.record(PartitionDispatched(
                tick=ticks, previous=previous, heir=heir))

        if self.change_action_policy == "mtf_start":
            self._apply_all_pending(ticks)
        elif heir is not None:                                       # l. 9
            action = self.scheduler.take_pending_action(heir)
            if action is not None:
                self._apply(heir, action)

        return DispatchOutcome(active_partition=heir, elapsed_ticks=elapsed,
                               switched=True)

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    SNAPSHOT_SCHEMA = {"active_partition": RAW, "stats": COUNTERS}

    def snapshot(self) -> dict:
        """Capture the dispatcher's mutable state as pure data."""
        return {"active_partition": self.active_partition,
                "stats": {"runs": self.stats.runs,
                          "context_switches": self.stats.context_switches,
                          "change_actions_applied":
                              self.stats.change_actions_applied}}

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture onto this dispatcher."""
        self.active_partition = state["active_partition"]
        self.stats = DispatcherStats(**state["stats"])

    def _apply_all_pending(self, ticks: Ticks) -> None:
        """``mtf_start`` policy: drain every pending action immediately."""
        for partition in list(self.scheduler.pending_change_actions):
            action = self.scheduler.take_pending_action(partition)
            if action is not None:
                self._apply(partition, action)

    def _apply(self, partition: str, action: ScheduleChangeAction) -> None:
        self.stats.change_actions_applied += 1
        if self.apply_change_action is not None:
            self.apply_change_action(partition, action)
