"""TSP invariant oracle: offline verification of partitioning guarantees.

The paper's central claims are *invariants* — temporal partitioning
(Sect. 3: only the scheduled partition executes), bounded deadline-miss
detection (Sect. 5, Algorithm 3), spatial containment (Sect. 2.4/Fig. 3:
cross-boundary accesses are trapped and reported) and mode-switch
discipline (Sect. 4: PST switches only at MTF boundaries).  The oracle
re-checks them over any recorded :class:`~repro.kernel.trace.Trace`,
with no simulator in sight: a pure function from (trace, config) to a
tuple of structured :class:`InvariantViolation`\\ s, empty iff the run
honored every invariant.

The check is a fold plus a finalize step, each invariant a state plus a
transition (the shape of the Circus ARINC 653 specification):
:func:`fold` steps a plain-data :class:`OracleState` through events in
trace order, and :func:`finalize` settles what only the trace's end can
decide — memory faults never matched by a Health Monitor event.
:func:`check_trace` is the two in one pass.  Because the state after a
prefix is all the fold needs, a run forked from a checkpoint resumes the
fold from the checkpoint's state and steps only its own events
(:mod:`repro.campaign.prefix`); the verdict equals a full pass's.

Checked invariants (names appear in ``InvariantViolation.invariant``):

``monotonic-time``
    Event ticks are nondecreasing.
``window-containment``
    Every process dispatch (with a non-None heir) happens inside its
    partition's execution window — no computation outside the window.
``schedule-conformance``
    (Needs *config*.)  Every partition dispatch agrees with the PST in
    force: heir == the table's window owner at the MTF offset.
``mtf-boundary-switch``
    Every ``ScheduleSwitched`` lands on an MTF boundary of the outgoing
    schedule (Algorithm 1, lines 3-7).
``deadline-detection``
    Every miss is detected with latency >= 1 and on the first tick the
    owning partition runs after expiry (Algorithm 3's bound: within one
    clock tick while the partition holds the processor).  Exemptions:
    partitions restarted between expiry and detection, and deadlines
    registered *after* their expiry (an overloaded periodic release
    keeps its nominal deadline, so the store only learns of the miss at
    the late release point) — there the bound runs from registration.
``memory-containment``
    Every ``MemoryFault`` is matched by a same-tick Health Monitor
    event classifying a memory violation for the same partition.
``parked-stays-parked``
    After ``PartitionParked``, the partition never again runs a process
    nor re-enters a starting/normal mode.

The oracle is deliberately trace-order-based (not tick-based) for
same-tick sequences: the trace records causality within a tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..kernel.trace import (
    DeadlineMissed,
    DeadlineRegistered,
    HealthMonitorEvent,
    MemoryFault,
    PartitionDispatched,
    PartitionModeChanged,
    PartitionParked,
    ProcessDispatched,
    ScheduleSwitched,
    TraceEvent,
)
from ..types import ErrorCode, PartitionMode, Ticks

__all__ = ["MAX_VIOLATIONS", "InvariantViolation", "OracleState",
           "check_trace", "finalize", "fold", "render_violations"]


@dataclass(frozen=True)
class InvariantViolation:
    """One broken TSP invariant, located in the trace."""

    invariant: str
    tick: Ticks
    detail: str
    partition: Optional[str] = None
    process: Optional[str] = None


_STARTING_OR_NORMAL = frozenset({
    PartitionMode.NORMAL.value,
    PartitionMode.COLD_START.value,
    PartitionMode.WARM_START.value,
})

#: The most violations one report collects (a corrupted trace should not
#: produce an unbounded report); :func:`check_trace`'s default cap.
MAX_VIOLATIONS = 64


class OracleState:
    """The oracle fold's state after a prefix of a trace.

    Plain data — ints, strings, dicts and lists of them, and the
    violations flagged so far — so a state pickles and copies cheaply.
    ``schedule_id`` names the schedule in force (None without a config),
    ``spans`` holds each partition's closed dispatch spans ``(start,
    end)`` (end exclusive; the active partition's open span starts at
    ``active_since``), ``mode_changes`` the restart marks of the
    deadline-detection exemption, ``registered`` the last deadline
    registration tick per ``(partition, process)`` and
    ``pending_memory_faults`` the ``(tick, partition, address)`` of every
    memory fault not yet matched by a Health Monitor event.
    """

    __slots__ = ("schedule_id", "last_switch", "last_tick", "active",
                 "active_since", "spans", "parked", "mode_changes",
                 "registered", "pending_memory_faults", "violations")

    def __init__(self, config) -> None:
        model = config.model if config is not None else None
        self.schedule_id: Optional[str] = \
            model.initial_schedule if model else None
        self.last_switch: Ticks = 0
        self.last_tick: Ticks = 0
        self.active: Optional[str] = None
        self.active_since: Ticks = 0
        self.spans: Dict[str, List[Tuple[Ticks, Ticks]]] = {}
        self.parked: Dict[str, Ticks] = {}
        self.mode_changes: Dict[str, List[Ticks]] = {}
        self.registered: Dict[Tuple[str, str], Ticks] = {}
        self.pending_memory_faults: List[Tuple[Ticks, str, int]] = []
        self.violations: List[InvariantViolation] = []

    def copy(self) -> "OracleState":
        """An independent state folding on from the same prefix."""
        clone = OracleState.__new__(OracleState)
        for name in ("schedule_id", "last_switch", "last_tick", "active",
                     "active_since"):
            setattr(clone, name, getattr(self, name))
        clone.spans = {key: list(value) for key, value in self.spans.items()}
        clone.parked = dict(self.parked)
        clone.mode_changes = {key: list(value)
                              for key, value in self.mode_changes.items()}
        clone.registered = dict(self.registered)
        clone.pending_memory_faults = list(self.pending_memory_faults)
        clone.violations = list(self.violations)
        return clone


def _unmatched_fault(fault: Tuple[Ticks, str, int]) -> InvariantViolation:
    tick, partition, address = fault
    return InvariantViolation(
        invariant="memory-containment", tick=tick,
        detail=f"memory fault at address {address} has no same-tick HM "
               f"memoryViolation event",
        partition=partition)


def check_trace(trace: Iterable[TraceEvent], config=None,
                max_violations: int = MAX_VIOLATIONS,
                state: Optional[OracleState] = None
                ) -> Tuple[InvariantViolation, ...]:
    """Verify the TSP invariants over *trace*: :func:`fold`, then
    :func:`finalize`.

    *config* (a :class:`~repro.config.schema.SystemConfig`) enables the
    schedule-conformance check; without it only trace-intrinsic
    invariants run.  At most *max_violations* are collected.

    *state* resumes a fold: an :class:`OracleState` already stepped
    through the events that precede *trace*, which then holds only the
    events after them.  This call steps and finalizes *state*, so a
    caller that keeps the prefix state passes a :meth:`~OracleState.copy`.
    """
    if state is None:
        state = OracleState(config)
    return finalize(fold(state, trace, config, max_violations),
                    max_violations)


def fold(state: OracleState, events: Iterable[TraceEvent], config,
         max_violations: int) -> OracleState:
    """Step *state* through *events*, in trace order; returns *state*.

    Each invariant is a check of one event against the state plus an
    update of the state.  The one check that needs the future — a
    memory fault with no same-tick HM event — is settled when the first
    later-tick event arrives, or by :func:`finalize` at the trace's end.
    """
    violations = state.violations

    def flag(invariant: str, tick: Ticks, detail: str,
             partition: Optional[str] = None,
             process: Optional[str] = None) -> None:
        if len(violations) < max_violations:
            violations.append(InvariantViolation(
                invariant=invariant, tick=tick, detail=detail,
                partition=partition, process=process))

    model = config.model if config is not None else None
    schedule = model.schedule(state.schedule_id) if model else None
    last_switch = state.last_switch
    last_tick = state.last_tick
    active = state.active
    active_since = state.active_since
    spans = state.spans
    parked = state.parked
    mode_changes = state.mode_changes
    registered = state.registered
    pending_memory_faults = state.pending_memory_faults

    def close_active(until: Ticks) -> None:
        if active is not None and until > active_since:
            spans.setdefault(active, []).append((active_since, until))

    def active_between(partition: str, start: Ticks, end: Ticks) -> bool:
        """Was *partition* dispatched at any tick in (start, end)?"""
        if end <= start + 1:
            return False
        for span_start, span_end in spans.get(partition, ()):
            if span_start < end and span_end > start + 1:
                return True
        if partition == active and active_since < end:
            return True
        return False

    def flush_memory_faults(now: Ticks) -> None:
        while pending_memory_faults and pending_memory_faults[0][0] < now:
            fault = pending_memory_faults.pop(0)
            if len(violations) < max_violations:
                violations.append(_unmatched_fault(fault))

    for event in events:
        tick = event.tick
        if tick < last_tick:
            flag("monotonic-time", tick,
                 f"event {event.kind} at tick {tick} after tick {last_tick}")
        else:
            last_tick = tick
        if pending_memory_faults:
            flush_memory_faults(tick)

        event_type = type(event)
        if event_type is PartitionDispatched:
            close_active(tick)
            active = event.heir
            active_since = tick
            if schedule is not None:
                offset = (tick - last_switch) % schedule.major_time_frame
                expected = schedule.active_partition_at(offset)
                if event.heir != expected:
                    flag("schedule-conformance", tick,
                         f"dispatched {event.heir!r} but schedule "
                         f"{schedule.schedule_id!r} assigns offset {offset} "
                         f"to {expected!r}", partition=event.heir)
        elif event_type is ProcessDispatched:
            if event.heir is not None and event.partition != active:
                flag("window-containment", tick,
                     f"process {event.heir!r} dispatched in partition "
                     f"{event.partition!r} while {active!r} holds the "
                     f"processor", partition=event.partition,
                     process=event.heir)
            if event.heir is not None and event.partition in parked:
                flag("parked-stays-parked", tick,
                     f"parked partition ran process {event.heir!r}",
                     partition=event.partition, process=event.heir)
        elif event_type is ScheduleSwitched:
            if schedule is not None:
                mtf = schedule.major_time_frame
                if (tick - last_switch) % mtf != 0:
                    flag("mtf-boundary-switch", tick,
                         f"switch {event.from_schedule!r} -> "
                         f"{event.to_schedule!r} at offset "
                         f"{(tick - last_switch) % mtf} of MTF {mtf}")
                schedule = model.schedule(event.to_schedule)
            last_switch = tick
        elif event_type is DeadlineMissed:
            latency = event.detection_latency
            detected_at = tick
            deadline_time = event.deadline_time
            if latency < 1 or detected_at - deadline_time != latency:
                flag("deadline-detection", tick,
                     f"latency {latency} inconsistent with deadline at "
                     f"{deadline_time} detected at {detected_at}",
                     partition=event.partition, process=event.process)
            elif latency > 1:
                restarted = any(deadline_time < change <= detected_at
                                for change in mode_changes.get(
                                    event.partition, ()))
                # A deadline registered after its own expiry (late
                # periodic release under overload) is only detectable
                # from the registration tick onward.
                known_since = max(deadline_time, registered.get(
                    (event.partition, event.process), deadline_time))
                if not restarted and active_between(
                        event.partition, known_since, detected_at):
                    flag("deadline-detection", tick,
                         f"partition ran between deadline expiry at "
                         f"{deadline_time} and detection at {detected_at} "
                         f"(latency {latency})",
                         partition=event.partition, process=event.process)
        elif event_type is DeadlineRegistered:
            registered[(event.partition, event.process)] = tick
        elif event_type is MemoryFault:
            pending_memory_faults.append(
                (tick, event.partition, event.address))
        elif event_type is HealthMonitorEvent:
            if (event.code == ErrorCode.MEMORY_VIOLATION.value
                    and pending_memory_faults):
                pending_memory_faults = [
                    fault for fault in pending_memory_faults
                    if not (fault[0] == tick
                            and fault[1] == event.partition)]
        elif event_type is PartitionModeChanged:
            mode_changes.setdefault(event.partition, []).append(tick)
            if (event.partition in parked
                    and event.new_mode in _STARTING_OR_NORMAL):
                flag("parked-stays-parked", tick,
                     f"parked partition re-entered mode "
                     f"{event.new_mode!r}", partition=event.partition)
        elif event_type is PartitionParked:
            parked[event.partition] = tick

    if schedule is not None:
        state.schedule_id = schedule.schedule_id
    state.last_switch = last_switch
    state.last_tick = last_tick
    state.active = active
    state.active_since = active_since
    state.pending_memory_faults = pending_memory_faults
    return state


def finalize(state: OracleState,
             max_violations: int) -> Tuple[InvariantViolation, ...]:
    """End the fold: every memory fault still pending has no same-tick
    HM event, so it is flagged; returns the violations, in order."""
    violations = state.violations
    for fault in state.pending_memory_faults:
        if len(violations) < max_violations:
            violations.append(_unmatched_fault(fault))
    state.pending_memory_faults = []
    return tuple(violations)


def render_violations(
        violations: Tuple[InvariantViolation, ...]) -> str:
    """Human-readable one-line-per-violation report."""
    if not violations:
        return "oracle: all TSP invariants hold"
    lines = [f"oracle: {len(violations)} invariant violation(s)"]
    for violation in violations:
        where = violation.partition or "<module>"
        if violation.process:
            where += f"/{violation.process}"
        lines.append(f"  [{violation.invariant}] tick {violation.tick} "
                     f"{where}: {violation.detail}")
    return "\n".join(lines)
