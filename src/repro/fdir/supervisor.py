"""The FDIR supervisor: persistence-aware escalation above the HM tables.

The Health Monitor stays exactly what ARINC 653 says it is — a
classification table mapping one error to one action.  The supervisor
sits *above* it (the DREMS-OS pattern, arXiv:1710.00268): the monitor
classifies and proposes the table action, then hands (report, proposal)
to :meth:`FdirSupervisor.supervise`, which may override it based on
*history*:

* **escalation** — repeated matches of an :class:`~repro.fdir.policy.EscalationRule`
  within its persistence window climb the rule's chain; rung 0 is the
  table's own action, so the chain strictly extends (never replaces)
  the integration-time tables.  Each rung's action fires exactly once —
  on the report that crosses the persistence threshold — and the table
  action resumes while evidence for the next rung re-accumulates;
* **restart-storm throttling** — a partition restarted by supervision
  that promptly earns another restart is eventually *parked*: stopped
  for good, with a :class:`~repro.kernel.trace.PartitionParked` event
  saying so.  Parked partitions stay parked — every later action against
  them is suppressed to IGNORE, and PST switches cannot revive them
  (``apply_change_action`` only restarts NORMAL-mode partitions);
* **mode degradation + probation** — a
  :attr:`~repro.types.RecoveryAction.SWITCH_SCHEDULE` rung requests the
  degraded PST through the ordinary Sect. 4 machinery (effective at the
  MTF boundary, ScheduleChangeActions honored).  A clean ``probation``
  interval with no matching reports switches back to the nominal
  schedule and resets all escalation state.

Determinism: the supervisor is driven only by error reports (trace-stable
between ``run`` and ``run_fast``) and by :meth:`poll` at stepped ticks;
:meth:`next_event_tick` feeds the PMK horizon so the event core never
skips a probation deadline or watchdog expiry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Deque, Dict, Optional, Tuple

from collections import deque

from ..kernel.trace import (
    EscalationRecovered,
    EscalationStepped,
    PartitionParked,
    Trace,
)
from ..kernel.snapshot_schema import RAW, TICK, Each
from ..types import ErrorCode, RecoveryAction, Ticks
from .policy import EscalationRule, FdirConfig
from .watchdog import WatchdogService

if TYPE_CHECKING:  # pragma: no cover
    from ..hm.monitor import ErrorReport

__all__ = ["FdirSupervisor"]

#: Actions that (re)start a partition — the ones parking must suppress.
_RESTART_ACTIONS = frozenset({
    RecoveryAction.RESTART_PARTITION,
})


class _RuleState:
    """Mutable per-(rule, partition) escalation state."""

    __slots__ = ("occurrences", "rung")

    def __init__(self) -> None:
        self.occurrences: Deque[Ticks] = deque()
        self.rung = 0


class FdirSupervisor:
    """History-keeping decision layer between Health Monitor and PMK.

    *module* is the PMK (needs ``scheduler.current_schedule`` and
    ``set_module_schedule``); *watchdog*, when given, is polled and its
    expiry horizon folded into :meth:`next_event_tick`.
    """

    def __init__(self, config: FdirConfig, *, module,
                 watchdog: Optional[WatchdogService] = None,
                 trace: Optional[Trace] = None) -> None:
        self.config = config
        self.module = module
        self.watchdog = watchdog
        self._trace = trace
        #: (rule index, partition-or-"<module>") -> escalation state.
        self._states: Dict[Tuple[int, str], _RuleState] = {}
        #: partition -> (last supervised restart tick, quick-restart streak).
        self._storm: Dict[str, Tuple[Ticks, int]] = {}
        #: partition -> total supervised restarts ordered.
        self._restarts: Dict[str, int] = {}
        self._parked: Dict[str, Ticks] = {}
        self._rule_index = {id(rule): index
                            for index, rule in enumerate(config.rules)}
        # Degraded-mode state (single module-wide schedule degradation).
        self._nominal_schedule: Optional[str] = None
        self._degraded_schedule: Optional[str] = None
        self._probation_deadline: Optional[Ticks] = None

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    @property
    def degraded(self) -> bool:
        """Is the module currently in a supervisor-requested degraded PST?"""
        return self._degraded_schedule is not None

    @property
    def parked(self) -> Tuple[str, ...]:
        """Partitions parked by restart-storm throttling, sorted."""
        return tuple(sorted(self._parked))

    def is_parked(self, partition: Optional[str]) -> bool:
        """Has storm throttling permanently stopped *partition*?"""
        return partition in self._parked

    def restart_count(self, partition: str) -> int:
        """Supervised partition restarts ordered against *partition*."""
        return self._restarts.get(partition, 0)

    def restart_counts(self) -> Tuple[Tuple[str, int], ...]:
        """All supervised restart counts, sorted by partition."""
        return tuple(sorted(self._restarts.items()))

    def rung_of(self, rule: EscalationRule,
                partition: Optional[str]) -> int:
        """Current escalation rung for (*rule*, *partition*); 0 = table."""
        key = (self._rule_index[id(rule)], partition or "<module>")
        state = self._states.get(key)
        return state.rung if state is not None else 0

    # -------------------------------------------------------------- #
    # the supervision hook (called by HealthMonitor.report)
    # -------------------------------------------------------------- #

    def supervise(self, report: "ErrorReport",
                  action: RecoveryAction) -> RecoveryAction:
        """Possibly override the table's *action* for *report*.

        Called after LOG_THEN_ACT thresholding, before execution — the
        returned action is what the HM executes and records.
        """
        partition = report.partition
        now = report.tick
        if partition is not None and partition in self._parked:
            # Parked partitions stay parked: no restarts, no stops, no
            # escalation churn — the report is still logged by the HM.
            return RecoveryAction.IGNORE

        rule = self.config.rule_for(report.code, partition)
        if rule is not None:
            if self.degraded:
                self._extend_probation(now)
            action = self._escalate(rule, report, action)

        if action in _RESTART_ACTIONS and partition is not None:
            action = self._throttle_restart(partition, now, action)
        return action

    # -------------------------------------------------------------- #
    # per-tick polling (PMK clock tick) + event-core horizon
    # -------------------------------------------------------------- #

    def poll(self, now: Ticks) -> None:
        """Fire due watchdogs and, when probation lapses, recover."""
        if self.watchdog is not None:
            self.watchdog.check(now)
        deadline = self._probation_deadline
        if deadline is not None and now >= deadline:
            self._recover(now)

    def next_event_tick(self, now: Ticks) -> Optional[Ticks]:
        """Earliest tick at which the supervisor must run (or None)."""
        horizon = self._probation_deadline
        if self.watchdog is not None:
            expiry = self.watchdog.next_expiry()
            if expiry is not None and (horizon is None or expiry < horizon):
                horizon = expiry
        return horizon

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    SNAPSHOT_SCHEMA = {
        "states": Each({"occurrences": RAW, "rung": RAW}),
        "storm": RAW,
        "restarts": RAW,
        "parked": RAW,
        "nominal_schedule": RAW,
        "degraded_schedule": RAW,
        "probation_deadline": TICK,
        "watchdog": WatchdogService.SNAPSHOT_SCHEMA,
    }

    def snapshot(self) -> dict:
        """Capture escalation/storm/parking/probation state as pure data.

        Rule identities are captured by index (``config.rules`` order),
        which is stable across a rebuild from the same configuration.
        """
        return {
            "states": {key: {"occurrences": list(state.occurrences),
                             "rung": state.rung}
                       for key, state in self._states.items()},
            "storm": dict(self._storm),
            "restarts": dict(self._restarts),
            "parked": dict(self._parked),
            "nominal_schedule": self._nominal_schedule,
            "degraded_schedule": self._degraded_schedule,
            "probation_deadline": self._probation_deadline,
            "watchdog": (self.watchdog.snapshot()
                         if self.watchdog is not None else None),
        }

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture onto this supervisor."""
        self._states = {}
        for key, rule_state in state["states"].items():
            rebuilt = _RuleState()
            rebuilt.occurrences = deque(rule_state["occurrences"])
            rebuilt.rung = rule_state["rung"]
            self._states[key] = rebuilt
        self._storm = dict(state["storm"])
        self._restarts = dict(state["restarts"])
        self._parked = dict(state["parked"])
        self._nominal_schedule = state["nominal_schedule"]
        self._degraded_schedule = state["degraded_schedule"]
        self._probation_deadline = state["probation_deadline"]
        if state["watchdog"] is not None and self.watchdog is not None:
            self.watchdog.restore(state["watchdog"])

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #

    def _escalate(self, rule: EscalationRule, report: "ErrorReport",
                  table_action: RecoveryAction) -> RecoveryAction:
        key = (self._rule_index[id(rule)],
               report.partition or "<module>")
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _RuleState()
        now = report.tick
        occurrences = state.occurrences
        occurrences.append(now)
        floor = now - rule.window
        while occurrences and occurrences[0] <= floor:
            occurrences.popleft()
        if (len(occurrences) < rule.threshold
                or state.rung >= len(rule.chain)):
            # Below threshold (or chain exhausted): the integration-time
            # table action stays in force while evidence re-accumulates —
            # each rung demands *fresh* persistence, and firing the
            # escalated action once per step keeps the escalator itself
            # from manufacturing a restart storm.
            return table_action
        state.rung += 1
        occurrences.clear()
        step = rule.chain[state.rung - 1]
        if self._trace is not None:
            self._trace.record(EscalationStepped(
                tick=now, partition=report.partition,
                code=report.code.value, rung=state.rung,
                action=step.action.value))
        if step.action is RecoveryAction.SWITCH_SCHEDULE:
            self._degrade(step.schedule, now)
            return RecoveryAction.SWITCH_SCHEDULE
        return step.action

    def _throttle_restart(self, partition: str, now: Ticks,
                          action: RecoveryAction) -> RecoveryAction:
        window = self.config.storm_window
        if window:
            previous = self._storm.get(partition)
            if previous is not None and now - previous[0] <= window:
                streak = previous[1] + 1
                if streak >= self.config.storm_limit:
                    return self._park(partition, now)
                self._storm[partition] = (now, streak)
            else:
                self._storm[partition] = (now, 0)
        self._restarts[partition] = self._restarts.get(partition, 0) + 1
        return action

    def _park(self, partition: str, now: Ticks) -> RecoveryAction:
        self._parked[partition] = now
        if self._trace is not None:
            self._trace.record(PartitionParked(
                tick=now, partition=partition,
                restarts=self._restarts.get(partition, 0)))
        if self.watchdog is not None:
            self.watchdog.disarm(partition)
        return RecoveryAction.PARK_PARTITION

    def _degrade(self, schedule: str, now: Ticks) -> None:
        if self._degraded_schedule == schedule:
            return  # already degraded to this PST; probation was extended.
        if self._degraded_schedule is None:
            self._nominal_schedule = self.module.scheduler.current_schedule
        self._degraded_schedule = schedule
        self.module.set_module_schedule(schedule, requested_by="fdir")
        self._extend_probation(now)

    def _extend_probation(self, now: Ticks) -> None:
        if self.config.probation:
            self._probation_deadline = now + self.config.probation

    def _recover(self, now: Ticks) -> None:
        nominal = self._nominal_schedule
        self._probation_deadline = None
        self._degraded_schedule = None
        self._nominal_schedule = None
        self._states.clear()
        self._storm.clear()
        if nominal is not None:
            if self.module.scheduler.current_schedule != nominal:
                self.module.set_module_schedule(nominal,
                                                requested_by="fdir")
            if self._trace is not None:
                self._trace.record(EscalationRecovered(
                    tick=now, schedule=nominal))
