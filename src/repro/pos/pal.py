"""AIR POS Adaptation Layer (PAL) — Sects. 2.2, 5.2, 5.3.

The PAL wraps each partition's operating system, hiding its particularities
from the AIR architecture components.  Concretely it:

* owns the partition's deadline bookkeeping (the paper places the deadline
  control structures at the PAL "from the engineering, integrity and
  spatial separation points of view" — Sect. 5.2) and provides the private
  register/unregister interfaces the APEX primitives call (Fig. 6);
* implements the *surrogate clock tick announcement routine* (Fig. 7):
  announce the elapsed ticks to the native POS, then run the Algorithm 3
  deadline verification and report violations to Health Monitoring;
* forwards POS events (dispatches, state changes, releases, completions,
  faults) to the trace and to Health Monitoring.

The PAL deliberately knows nothing about *which* POS flavour it wraps —
only the :class:`~repro.pos.base.PartitionOs` interface — which is exactly
the homogeneity argument of Sect. 2.2.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..deadline.monitor import DeadlineMonitor, Violation
from ..kernel.trace import (
    DeadlineMissed,
    DeadlineRegistered,
    DeadlineUnregistered,
    ProcessCompleted,
    ProcessDispatched,
    ProcessStateChanged,
    Trace,
)
from ..types import ProcessState, Ticks
from .base import PartitionOs
from .tcb import Tcb

__all__ = ["PosAdaptationLayer"]

#: Signature of the Health Monitoring hook for deadline violations.
ViolationSink = Callable[[Violation], None]

#: Signature of the Health Monitoring hook for application faults.
FaultSink = Callable[[Tcb, BaseException], None]


class PosAdaptationLayer:
    """Wraps one :class:`~repro.pos.base.PartitionOs` instance.

    Parameters
    ----------
    pos:
        The partition operating system to adapt.
    clock:
        Zero-argument callable returning current time
        (``PAL_GETCURRENTTIME`` in Algorithm 3).
    trace:
        Event sink.
    store_kind:
        Deadline structure: ``"list"`` (paper) or ``"tree"`` (ablation).
    on_violation / on_fault:
        Health Monitoring hooks (``HM_DEADLINEVIOLATED`` and the
        application-error path of Sect. 2.4).
    """

    def __init__(self, pos: PartitionOs, *, clock: Callable[[], Ticks],
                 trace: Trace, store_kind: str = "list",
                 on_violation: Optional[ViolationSink] = None,
                 on_fault: Optional[FaultSink] = None) -> None:
        self.pos = pos
        self._clock = clock
        self._trace = trace
        # The partition name is read on every traced state change — the
        # clock-ISR hot path — so it is cached here instead of going
        # through two property hops per event.
        self._partition_name = pos.name
        self.on_violation = on_violation
        self.on_fault = on_fault
        self.monitor = DeadlineMonitor(pos.name, store_kind=store_kind,
                                       on_violation=self._report_violation)
        pos.callbacks.on_state_change = self._trace_state_change
        pos.callbacks.on_dispatch = self._trace_dispatch
        pos.callbacks.on_release = self._register_release_deadline
        pos.callbacks.on_completion = self._handle_completion
        pos.callbacks.on_fault = self._handle_fault

    @property
    def partition(self) -> str:
        """Name of the wrapped partition."""
        return self._partition_name

    def now(self) -> Ticks:
        """PAL_GETCURRENTTIME — the PMK's clock, read-only."""
        return self._clock()

    # -------------------------------------------------------------- #
    # surrogate clock tick announcement (Fig. 7)
    # -------------------------------------------------------------- #

    def announce_ticks(self, elapsed: Ticks) -> List[Violation]:
        """The modified announcement routine of Fig. 7b.

        First the native POS announcement runs for the elapsed span (timer
        wake-ups, periodic releases — Fig. 7a invokes it ``#elapsedTicks``
        times; our POS takes the span in one call with identical effect),
        then the Algorithm 3 deadline verification loop.  Returns the
        violations detected by this announcement.
        """
        now = self._clock()
        self.pos.announce_ticks(now, elapsed)
        return self.monitor.verify(now)

    def next_event_tick(self, now: Ticks) -> Optional[Ticks]:
        """First tick at which this partition's announcement could act.

        The PAL horizon is the earliest of its layers' horizons: the POS
        timer wheel (delay expiries, periodic releases, resource
        timeouts), the POS scheduling policy (e.g. a round-robin quantum
        expiry), and the Algorithm 3 deadline store.  None when all three
        are unbounded.
        """
        pos = self.pos
        event = pos.next_timer_tick()
        if pos.has_quantum_horizon:
            quantum = pos.next_quantum_tick(now)
            if quantum is not None and (event is None or quantum < event):
                event = quantum
        violation = self.monitor.next_violation_tick()
        if violation is not None and (event is None or violation < event):
            event = violation
        return event

    # -------------------------------------------------------------- #
    # deadline register/unregister interfaces (Sect. 5.2, Fig. 6)
    # -------------------------------------------------------------- #

    def register_deadline(self, process: str, deadline_time: Ticks) -> None:
        """Insert or move *process*'s absolute deadline (START/REPLENISH)."""
        self.monitor.register(process, deadline_time)
        self.pos.tcb(process).deadline_time = deadline_time
        self._trace.record(DeadlineRegistered(
            tick=self._clock(), partition=self._partition_name, process=process,
            deadline_time=deadline_time))

    def unregister_deadline(self, process: str) -> None:
        """Drop *process*'s deadline (STOP, completion)."""
        if self.monitor.unregister(process):
            self._trace.record(DeadlineUnregistered(
                tick=self._clock(), partition=self._partition_name, process=process))
        self.pos.tcb(process).deadline_time = None

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    SNAPSHOT_SCHEMA = {"monitor": DeadlineMonitor.SNAPSHOT_SCHEMA}

    def snapshot(self) -> dict:
        """Capture the PAL's only mutable state: the deadline monitor."""
        return {"monitor": self.monitor.snapshot()}

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture (callbacks are structural)."""
        self.monitor.restore(state["monitor"])

    # -------------------------------------------------------------- #
    # POS callback handlers
    # -------------------------------------------------------------- #

    def _report_violation(self, violation: Violation) -> None:
        self._trace.record(DeadlineMissed(
            tick=violation.detected_at, partition=self._partition_name,
            process=violation.process, deadline_time=violation.deadline_time,
            detection_latency=violation.detection_latency))
        if self.on_violation is not None:
            self.on_violation(violation)

    def _register_release_deadline(self, tcb: Tcb, release_tick: Ticks) -> None:
        """On a periodic release point, the new job's deadline is
        ``release + time capacity`` (ARINC 653 semantics, Fig. 6)."""
        if tcb.has_deadline:
            self.register_deadline(tcb.name, release_tick + tcb.model.deadline)

    def _handle_completion(self, tcb: Tcb) -> None:
        self.unregister_deadline(tcb.name)
        self._trace.record(ProcessCompleted(
            tick=self._clock(), partition=self._partition_name, process=tcb.name))

    def _handle_fault(self, tcb: Tcb, exc: BaseException) -> None:
        self.unregister_deadline(tcb.name)
        if self.on_fault is not None:
            self.on_fault(tcb, exc)

    def _trace_state_change(self, tcb: Tcb, previous: ProcessState,
                            reason: str) -> None:
        # ``_value_`` is the plain instance attribute behind ``Enum.value``
        # — the descriptor hop is measurable at this call rate.
        self._trace.record(ProcessStateChanged(
            tick=self._clock(), partition=self._partition_name,
            process=tcb.model.name, previous_state=previous._value_,
            new_state=tcb.state._value_, reason=reason))

    def _trace_dispatch(self, now: Ticks, previous: Optional[str],
                        heir: Optional[str]) -> None:
        self._trace.record(ProcessDispatched(
            tick=now, partition=self._partition_name, previous=previous,
            heir=heir))
