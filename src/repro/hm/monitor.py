"""The AIR Health Monitor (Sect. 2.4).

"The AIR Health Monitor is responsible for handling hardware and software
errors (like deadlines missed, memory protection violations, or hardware
failures).  The aim is to isolate errors within its domain of occurrence:
process level errors will cause an application error handler to be invoked,
while partition level errors trigger a response action defined at system
integration time.  Errors detected at system level may lead the entire
system to be stopped or reinitialized."

The monitor classifies every reported error through the
:class:`~repro.hm.tables.HmTables`, consults the partition's application
error handler for process-level errors (Sect. 5: "the actual action to be
performed is defined by the application programmer, through an appropriate
error handler"), and applies the resulting recovery action through an
:class:`ActionExecutor` implemented by the PMK/runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..kernel.snapshot_schema import RAW
from ..kernel.trace import HealthMonitorEvent, Trace
from ..types import ErrorCode, ErrorLevel, RecoveryAction, Ticks
from .tables import HmTables

__all__ = ["ErrorReport", "HandledError", "ActionExecutor", "HealthMonitor"]


@dataclass(frozen=True)
class ErrorReport:
    """One error as reported to the Health Monitor."""

    tick: Ticks
    code: ErrorCode
    partition: Optional[str] = None
    process: Optional[str] = None
    detail: str = ""


@dataclass(frozen=True)
class HandledError:
    """The monitor's disposition of one reported error."""

    report: ErrorReport
    level: ErrorLevel
    action: RecoveryAction
    handled_by_application: bool


#: Application error handler: returns the action to take, or None to defer
#: to the partition HM table (Sect. 5's "appropriate error handler").
ApplicationHandler = Callable[[ErrorReport], Optional[RecoveryAction]]


class ActionExecutor:
    """Recovery actions the Health Monitor can order.

    Implemented by the PMK/partition runtime; the monitor itself never
    touches partition state directly (separation of concerns: detection
    and classification here, actuation in the kernel).
    """

    def stop_process(self, partition: str, process: str) -> None:
        """Stop the faulty process (dormant, no restart)."""
        raise NotImplementedError

    def restart_process(self, partition: str, process: str) -> None:
        """Stop then reinitialize the process from its entry address."""
        raise NotImplementedError

    def restart_partition(self, partition: str) -> None:
        """Restart the partition (warm start)."""
        raise NotImplementedError

    def stop_partition(self, partition: str) -> None:
        """Shut the partition down (idle mode)."""
        raise NotImplementedError

    def module_stop(self) -> None:
        """Stop the entire module."""
        raise NotImplementedError

    def module_restart(self) -> None:
        """Reinitialize the entire module."""
        raise NotImplementedError


class HealthMonitor:
    """Classification and dispatch of error reports."""

    def __init__(self, tables: HmTables, executor: ActionExecutor, *,
                 clock: Callable[[], Ticks],
                 trace: Optional[Trace] = None) -> None:
        self.tables = tables
        self.executor = executor
        self._clock = clock
        self._trace = trace
        self._log: List[HandledError] = []
        self._handlers: Dict[str, ApplicationHandler] = {}
        self._occurrences: Dict[Tuple[str, ErrorCode], int] = {}
        #: Optional FDIR supervisor (see :mod:`repro.fdir.supervisor`):
        #: consulted after table classification, before execution, so
        #: escalation history can override the static table action.
        self.supervisor = None

    # -------------------------------------------------------------- #
    # configuration
    # -------------------------------------------------------------- #

    def install_handler(self, partition: str,
                        handler: ApplicationHandler) -> None:
        """Install *partition*'s application error handler
        (APEX CREATE_ERROR_HANDLER)."""
        self._handlers[partition] = handler

    def remove_handler(self, partition: str) -> None:
        """Remove the partition's error handler, if any."""
        self._handlers.pop(partition, None)

    # -------------------------------------------------------------- #
    # reporting entry point
    # -------------------------------------------------------------- #

    def report(self, code: ErrorCode, *, partition: Optional[str] = None,
               process: Optional[str] = None, detail: str = "") -> HandledError:
        """Classify and handle one error; returns the disposition."""
        report = ErrorReport(tick=self._clock(), code=code,
                             partition=partition, process=process,
                             detail=detail)
        level = self.tables.level_of(code)
        if level is ErrorLevel.PROCESS and (partition is None or process is None):
            # A process-level code without process identity escalates.
            level = (ErrorLevel.PARTITION if partition is not None
                     else ErrorLevel.MODULE)

        action, by_application = self._decide(report, level)
        action = self._apply_log_threshold(report, action)
        if self.supervisor is not None:
            action = self.supervisor.supervise(report, action)
        self._execute(report, level, action)

        handled = HandledError(report=report, level=level, action=action,
                               handled_by_application=by_application)
        self._log.append(handled)
        if self._trace is not None:
            self._trace.record(HealthMonitorEvent(
                tick=report.tick, level=level.value, code=code.value,
                partition=partition, process=process, action=action.value,
                detail=detail))
        return handled

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    @property
    def log(self) -> Tuple[HandledError, ...]:
        """Every handled error, in order."""
        return tuple(self._log)

    def errors_for(self, partition: str) -> Tuple[HandledError, ...]:
        """Handled errors attributed to *partition*."""
        return tuple(h for h in self._log if h.report.partition == partition)

    def occurrence_count(self, partition: str, code: ErrorCode) -> int:
        """How many times *code* was reported against *partition*."""
        return self._occurrences.get((partition, code), 0)

    def occurrences(self) -> Tuple[Tuple[str, ErrorCode, int], ...]:
        """Every (partition, code, count) triple, sorted (telemetry hook)."""
        return tuple(sorted(
            ((partition, code, count)
             for (partition, code), count in self._occurrences.items()),
            key=lambda item: (item[0], item[1].value)))

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    SNAPSHOT_SCHEMA = {"log": RAW, "occurrences": RAW}

    def snapshot(self) -> dict:
        """Capture the disposition log and occurrence counters as pure data.

        Application handlers are structural (reinstalled by the partition
        initialization replay via CREATE_ERROR_HANDLER) and the supervisor
        hook is wired at construction; neither is captured here.
        """
        return {"log": list(self._log),
                "occurrences": dict(self._occurrences)}

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture onto this monitor."""
        self._log = list(state["log"])
        self._occurrences = dict(state["occurrences"])

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #

    def _decide(self, report: ErrorReport,
                level: ErrorLevel) -> Tuple[RecoveryAction, bool]:
        if level is ErrorLevel.MODULE:
            return self.tables.module_action(report.code), False
        assert report.partition is not None
        if level is ErrorLevel.PROCESS:
            handler = self._handlers.get(report.partition)
            if handler is not None:
                try:
                    chosen = handler(report)
                except Exception as exc:  # noqa: BLE001 — fault containment
                    # A faulty error handler is itself an application
                    # error; it must not take the whole module down.
                    # Record the failure and fall back to the table.
                    if self._trace is not None:
                        self._trace.record(HealthMonitorEvent(
                            tick=report.tick,
                            level=ErrorLevel.PROCESS.value,
                            code=ErrorCode.APPLICATION_ERROR.value,
                            partition=report.partition,
                            process=report.process,
                            action=RecoveryAction.IGNORE.value,
                            detail=f"error handler raised "
                                   f"{type(exc).__name__}: {exc}"))
                    chosen = None
                if chosen is not None:
                    return chosen, True
        return self.tables.partition_action(report.partition,
                                            report.code), False

    def _apply_log_threshold(self, report: ErrorReport,
                             action: RecoveryAction) -> RecoveryAction:
        """LOG_THEN_ACT: ignore until the threshold, then the fallback."""
        key = (report.partition or "<module>", report.code)
        self._occurrences[key] = self._occurrences.get(key, 0) + 1
        if action is not RecoveryAction.LOG_THEN_ACT:
            return action
        if self._occurrences[key] <= self.tables.log_threshold:
            return RecoveryAction.IGNORE
        return self.tables.log_fallback_action

    def _execute(self, report: ErrorReport, level: ErrorLevel,
                 action: RecoveryAction) -> None:
        partition = report.partition
        process = report.process
        if action is RecoveryAction.IGNORE:
            return
        if action is RecoveryAction.STOP_PROCESS and partition and process:
            self.executor.stop_process(partition, process)
        elif (action is RecoveryAction.STOP_AND_RESTART_PROCESS
              and partition and process):
            self.executor.restart_process(partition, process)
        elif (action is RecoveryAction.STOP_PROCESS_PARTITION_RECOVERS
              and partition and process):
            self.executor.stop_process(partition, process)
        elif action is RecoveryAction.RESTART_PARTITION and partition:
            self.executor.restart_partition(partition)
        elif action is RecoveryAction.STOP_PARTITION and partition:
            self.executor.stop_partition(partition)
        elif action is RecoveryAction.PARK_PARTITION and partition:
            # Storm-throttled: stop the partition; the FDIR supervisor
            # suppresses every later action against it, so it stays down.
            self.executor.stop_partition(partition)
        elif action is RecoveryAction.MODULE_RESTART:
            self.executor.module_restart()
        elif action is RecoveryAction.MODULE_STOP:
            self.executor.module_stop()
