"""Per-partition runtime: operating mode, initialization, restart.

A :class:`PartitionRuntime` is the containment domain of Sect. 2: "a
(system) application, and the given APEX interface, POS and AIR PAL
instances compose the containment domain of each partition".  It tracks the
partition's operating mode ``M_m(t)`` (eq. (3)), drives initialization
(cold/warm start → NORMAL), executes window ticks, and implements the
restart semantics used by both Health Monitoring recovery actions (Sect. 5)
and mode-based ScheduleChangeActions (Sect. 4).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..apex.interface import ApexInterface, PartitionControl
from ..config.schema import PartitionRuntimeConfig
from ..exceptions import SimulationError
from ..kernel.snapshot_schema import RAW
from ..kernel.trace import PartitionModeChanged, Trace
from ..pos.base import PartitionOs
from ..pos.pal import PosAdaptationLayer
from ..types import PartitionMode, ScheduleChangeAction, StartCondition, Ticks

__all__ = ["PartitionRuntime"]


class PartitionRuntime(PartitionControl):
    """Mode and lifecycle management for one partition."""

    def __init__(self, *, pos: PartitionOs, pal: PosAdaptationLayer,
                 config: PartitionRuntimeConfig,
                 clock: Callable[[], Ticks],
                 trace: Optional[Trace] = None) -> None:
        self.pos = pos
        self.pal = pal
        self.config = config
        self._clock = clock
        self._trace = trace
        self._mode = pos.partition.initial_mode
        self._start_condition = StartCondition.NORMAL_START
        self._initialized = False
        self._pending_restart: Optional[PartitionMode] = None
        self.apex: Optional[ApexInterface] = None
        self.init_count = 0
        self.restart_count = 0

    @property
    def name(self) -> str:
        """Partition name."""
        return self.pos.name

    # -------------------------------------------------------------- #
    # PartitionControl (used by APEX SET_PARTITION_MODE)
    # -------------------------------------------------------------- #

    @property
    def mode(self) -> PartitionMode:
        """``M_m(t)`` — eq. (3)."""
        return self._mode

    @property
    def start_condition(self) -> StartCondition:
        """Why the partition last entered a start mode (ARINC 653 status)."""
        return self._start_condition

    def enter_normal(self) -> None:
        """End of initialization: the process scheduler becomes active."""
        self._set_mode(PartitionMode.NORMAL)
        self._initialized = True

    def shutdown(self) -> None:
        """IDLE: shut down, executing no processes (eq. (3))."""
        self._stop_all_processes(reason="partition shutdown")
        self._set_mode(PartitionMode.IDLE)
        self._initialized = False

    def request_restart(self, mode: PartitionMode, *,
                        condition: StartCondition =
                        StartCondition.PARTITION_RESTART) -> None:
        """Queue a restart into COLD_START or WARM_START.

        Effective before the partition's next executed tick — a restart
        requested from inside one of its own processes tears the partition
        down immediately (no further process runs) and re-initializes on
        the same or next window tick.  *condition* records who ordered it
        (self/HM/module) for GET_PARTITION_STATUS.
        """
        if not mode.is_starting:
            raise SimulationError(
                f"restart mode must be coldStart/warmStart, got {mode.value}")
        self._pending_restart = mode
        self._start_condition = condition
        self._stop_all_processes(reason=f"restart into {mode.value}")
        self._set_mode(mode)

    # -------------------------------------------------------------- #
    # lifecycle driven by the PMK
    # -------------------------------------------------------------- #

    def attach_apex(self, apex: ApexInterface) -> None:
        """Late wiring of the APEX instance (PMK construction order)."""
        self.apex = apex

    def apply_change_action(self, action: ScheduleChangeAction) -> None:
        """Perform a mode-based ScheduleChangeAction (Sect. 4).

        Invoked by the Partition Dispatcher at the partition's first
        dispatch after a schedule switch (Algorithm 2, line 9).  Only
        partitions in NORMAL mode are restarted (Sect. 4.2).
        """
        if action is ScheduleChangeAction.IGNORE:
            return
        if self._mode is not PartitionMode.NORMAL:
            return
        target = (PartitionMode.COLD_START
                  if action is ScheduleChangeAction.COLD_START
                  else PartitionMode.WARM_START)
        self.restart_count += 1
        self.request_restart(target)

    def execute_tick(self, now: Ticks) -> Optional[str]:
        """Run one tick of the partition's execution window.

        Initialization (when in a start mode) happens here, consuming the
        tick — a real partition's init code also runs inside its windows.
        Returns the name of the process that consumed the tick, or None.
        """
        if self._pending_restart is not None:
            self._pending_restart = None
            self._initialized = False
        if self._mode.is_starting and not self._initialized:
            self._initialize()
            return None  # the initialization consumed this tick
        if self._mode is not PartitionMode.NORMAL:
            return None  # idle / still starting: no process execution
        return self.pos.execute_tick(now)

    # -------------------------------------------------------------- #
    # event-driven execution support
    # -------------------------------------------------------------- #

    def next_event_tick(self, now: Ticks) -> Optional[Ticks]:
        """First tick ≥ *now* whose execution this partition cannot batch.

        Returns *now* itself when the current tick must run through the
        full per-tick path: a pending restart, an initialization tick, a
        running process whose ``Compute`` budget is exhausted (its body
        will advance), or a dispatchable ready process.  Otherwise the
        bound is the earliest of the PAL horizon (timers, policy
        preemption, deadline expiry) and the running process's remaining
        compute budget; None means this partition imposes no bound.
        """
        mode = self._mode
        if mode is PartitionMode.NORMAL:
            # NORMAL implies no pending restart (a restart request moves
            # the mode to coldStart/warmStart immediately).  Resolve the
            # "this very tick is interesting" cases before paying for the
            # PAL horizon — exhausted compute budgets dominate the stepped
            # ticks on packed schedules.
            budget_end = None
            running = self.pos.running
            if running is not None:
                if running.compute_remaining <= 0:
                    return now
                budget_end = now + running.compute_remaining
            elif self.pos.has_schedulable():
                return now
            event = self.pal.next_event_tick(now)
            if budget_end is not None and (event is None or budget_end < event):
                return budget_end
            return event
        if self._pending_restart is not None:
            return now
        if mode.is_starting and not self._initialized:
            return now
        return self.pal.next_event_tick(now)

    def execute_span(self, ticks: Ticks) -> Optional[str]:
        """Batch-execute *ticks* window ticks of a proven-uniform span.

        The caller guarantees the span ends at or before
        :meth:`next_event_tick`, so the per-tick sequence (surrogate
        announcement, then process execution) reduces to batch
        bookkeeping: the quiet-span form of the PAL's
        :meth:`~repro.pos.pal.PosAdaptationLayer.announce_ticks` is POS
        elapsed-time bookkeeping plus the Algorithm 3 batch accounting,
        bit-identical to *ticks* single-tick announcements.  Returns the
        process charged, or None.
        """
        pos = self.pos
        pos.announce_span(ticks)
        self.pal.monitor.batch_account(ticks)
        if self._mode is not PartitionMode.NORMAL:
            return None
        return pos.execute_span(ticks)

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    #: ``init_count`` and ``restart_count`` are counters kept raw: a
    #: (re)initialization is never steady.
    SNAPSHOT_SCHEMA = {"mode": RAW, "start_condition": RAW,
                       "initialized": RAW, "pending_restart": RAW,
                       "init_count": RAW, "restart_count": RAW}

    def snapshot(self) -> dict:
        """Capture mode/lifecycle state as pure data.

        ``init_count`` doubles as the restore-side signal for whether the
        structural initialization replay must run (see
        :mod:`repro.kernel.snapshot`).
        """
        return {"mode": self._mode,
                "start_condition": self._start_condition,
                "initialized": self._initialized,
                "pending_restart": self._pending_restart,
                "init_count": self.init_count,
                "restart_count": self.restart_count}

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture (no trace events emitted)."""
        self._mode = state["mode"]
        self._start_condition = state["start_condition"]
        self._initialized = state["initialized"]
        self._pending_restart = state["pending_restart"]
        self.init_count = state["init_count"]
        self.restart_count = state["restart_count"]

    def replay_initialization(self) -> None:
        """Re-run the structural half of initialization during restore.

        Rebuilds everything :meth:`_initialize` wires up — bodies, error
        handler, ports, resources, started processes — on a freshly
        constructed simulator.  The *state* it sets as a side effect
        (process fields, partition mode, trace events) is overwritten by
        the component overlays applied afterwards; the APEX ``create_*``
        services are idempotent (NO_ACTION on duplicates), so this is safe
        even if initialization partially completed before the checkpoint.
        """
        self._initialize()
        self.init_count -= 1  # the overlaid count is authoritative

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #

    def _initialize(self) -> None:
        """Run the partition's initialization sequence.

        Bodies and the error handler are always wired first.  With an
        ``init_hook`` configured, the hook then does the rest (create
        ports/resources, START processes, SET_PARTITION_MODE(NORMAL));
        otherwise the default sequence STARTs the auto-start processes and
        enters NORMAL mode.
        """
        if self.apex is None:
            raise SimulationError(
                f"partition {self.name!r}: APEX not attached before init")
        self.init_count += 1
        self._initialized = True
        if self.config.error_handler is not None:
            self.apex.create_error_handler(self.config.error_handler)
        for process, factory in self.config.bodies.items():
            self.apex.register_body(process, factory)
        if self.config.init_hook is not None:
            self.config.init_hook(self.apex)
            return
        to_start = (self.config.auto_start
                    if self.config.auto_start is not None
                    else tuple(self.config.bodies))
        for process in to_start:
            result = self.apex.start(process)
            if not result.is_ok:
                raise SimulationError(
                    f"partition {self.name!r}: auto-start of {process!r} "
                    f"failed with {result.code.value}")
        self.apex.set_partition_mode(PartitionMode.NORMAL)

    def _stop_all_processes(self, *, reason: str) -> None:
        for tcb in self.pos.tcbs():
            self.pal.unregister_deadline(tcb.name)
            if tcb.state is not tcb.state.DORMANT:
                self.pos.stop_process(tcb, reason=reason)
            else:
                tcb.reset_runtime()

    def _set_mode(self, mode: PartitionMode) -> None:
        if mode is self._mode:
            return
        previous = self._mode
        self._mode = mode
        if self._trace is not None:
            self._trace.record(PartitionModeChanged(
                tick=self._clock(), partition=self.name,
                previous_mode=previous.value, new_mode=mode.value))
