"""The metrics fold: every per-event quantity, declared once.

Dispatch counts, the Sect. 6 deadline misses with their Algorithm 3
detection latency, HM, FDIR and memory-fault events, and queuing-port
traffic, delivery latency and depth are each accumulated here by one
*step* per event class over a plain-data :class:`MetricsState` (ints,
nested dicts of ints and dicts of int lists).  Three views read it:

* the live registry (:class:`repro.obs.instrument.SimulatorMetrics`)
  folds a simulator's trace from a cursor, catching up when read;
* the derived report (:func:`repro.obs.derived.derived_metrics`) folds
  a saved trace for its jitter, deadline, port, HM and memory-fault
  sections;
* the campaign pairs (:func:`repro.obs.derived.compact_metrics`) fold a
  scenario's trace and read a flat summary off the state.

The state is a function of the event sequence alone, so every view is
byte-identical between ``run`` and ``run_fast``, live and replayed.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

from ..kernel.trace import (
    ApplicationMessage,
    ClockTamperTrapped,
    DeadlineMissed,
    EscalationRecovered,
    EscalationStepped,
    HealthMonitorEvent,
    MemoryFault,
    PartitionDispatched,
    PartitionModeChanged,
    PartitionParked,
    PortMessageReceived,
    PortMessageSent,
    ProcessCompleted,
    ProcessDispatched,
    ScheduleSwitched,
    ScheduleSwitchRequested,
    TraceEvent,
    WatchdogExpired,
)

__all__ = ["COUNTERS", "SAMPLES", "STEPS", "MetricsState", "entries",
           "fold", "total"]

#: Counter tables: name -> (units, labels outermost first).  A table
#: with no labels is an int; otherwise it maps each value of its first
#: label to a table of the remaining labels.  Nesting, rather than tuple
#: keys, keeps the hot steps free of allocations.
COUNTERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "partition_context_switches": ("switches", ()),
    "partition_dispatches": ("dispatches", ("partition",)),
    "process_dispatches": ("dispatches", ("partition", "process")),
    "process_completions": ("completions", ("partition", "process")),
    "deadline_misses": ("misses", ("partition", "process")),
    "schedule_switch_requests": ("requests", ("to_schedule",)),
    "schedule_switches": ("switches", ("from_schedule", "to_schedule")),
    "partition_mode_changes": ("changes", ("partition", "new_mode")),
    "hm_events": ("events", ("level", "code", "action")),
    "memory_faults": ("faults", ("partition", "access")),
    "clock_tamper_traps": ("traps", ("partition",)),
    "port_messages_sent": ("messages", ("port", "partition")),
    "port_messages_received": ("messages", ("port", "partition")),
    "application_messages": ("messages", ("partition",)),
    "fdir_escalations": ("escalations", ("partition", "code", "action")),
    "fdir_partitions_parked": ("partitions", ("partition",)),
    "fdir_recoveries": ("recoveries", ("schedule",)),
    "watchdog_expiries": ("expiries", ("partition",)),
}

#: Sample tables: name -> the label of its keys.  A table maps each label
#: value to the integers observed for it, in trace order.
SAMPLES: Dict[str, str] = {
    "deadline_detection_latency_ticks": "partition",
    "partition_dispatch_interval_ticks": "partition",
    "port_delivery_latency_ticks": "port",
    "port_queue_depth": "port",
}


class MetricsState:
    """The fold's state: one attribute per :data:`COUNTERS` and
    :data:`SAMPLES` table, plus ``port_in_flight`` (port -> current
    depth, see :func:`_port_received`) and ``last_dispatch`` (partition
    -> tick of its latest dispatch)."""

    __slots__ = (*COUNTERS, *SAMPLES, "port_in_flight", "last_dispatch")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, {})
        for name, (_, labels) in COUNTERS.items():
            if not labels:
                setattr(self, name, 0)

    def copy(self) -> "MetricsState":
        """An independent state folding on from the same events."""
        clone = MetricsState.__new__(MetricsState)
        for name in self.__slots__:
            setattr(clone, name, _copy_table(getattr(self, name)))
        return clone


def _copy_table(table):
    """A copy of a state table sharing nothing mutable with it."""
    if type(table) is list:
        return list(table)
    if type(table) is not dict:
        return table
    copied = dict(table)
    for key, inner in copied.items():
        if type(inner) is not int:
            copied[key] = _copy_table(inner)
    return copied


def total(table) -> int:
    """Events counted by a counter table, over every label."""
    if type(table) is int:
        return table
    return sum(total(inner) for inner in table.values())


def entries(table, depth: int) -> List[Tuple[tuple, int]]:
    """``(label values, count)`` of a counter table *depth* labels deep."""
    if depth == 0:
        return [((), table)]
    return [((value,) + rest, count) for value, inner in table.items()
            for rest, count in entries(inner, depth - 1)]


# ------------------------------------------------------------------ #
# steps
# ------------------------------------------------------------------ #


def _count(table: dict, values: tuple) -> None:
    """Count one event under *values* (one per label) in *table*."""
    for value in values[:-1]:
        inner = table.get(value)
        if inner is None:
            inner = table[value] = {}
        table = inner
    last = values[-1]
    table[last] = table.get(last, 0) + 1


# The steps of frequent events inline _count, and every step appends
# samples through try/except: neither allocates once a key exists.


def _partition_dispatched(state: MetricsState,
                          event: PartitionDispatched) -> None:
    state.partition_context_switches += 1
    heir = event.heir
    if heir is None:
        return
    counts = state.partition_dispatches
    counts[heir] = counts.get(heir, 0) + 1
    tick = event.tick
    last_dispatch = state.last_dispatch
    previous = last_dispatch.get(heir)
    last_dispatch[heir] = tick
    if previous is not None:
        try:
            state.partition_dispatch_interval_ticks[heir].append(
                tick - previous)
        except KeyError:
            state.partition_dispatch_interval_ticks[heir] = [tick - previous]


def _process_dispatched(state: MetricsState,
                        event: ProcessDispatched) -> None:
    heir = event.heir
    if heir is not None:
        try:
            counts = state.process_dispatches[event.partition]
        except KeyError:
            counts = state.process_dispatches[event.partition] = {}
        counts[heir] = counts.get(heir, 0) + 1


def _port_sent(state: MetricsState, event: PortMessageSent) -> None:
    port = event.port
    try:
        counts = state.port_messages_sent[port]
    except KeyError:
        counts = state.port_messages_sent[port] = {}
    counts[event.partition] = counts.get(event.partition, 0) + 1
    in_flight = state.port_in_flight
    depth = in_flight[port] = in_flight.get(port, 0) + 1
    try:
        state.port_queue_depth[port].append(depth)
    except KeyError:
        state.port_queue_depth[port] = [depth]


def _port_received(state: MetricsState, event: PortMessageReceived) -> None:
    """Count the receive, sample its delivery latency, and apply the one
    depth rule.

    Depth is a running send-minus-receive count per port *name*, floored
    at zero: :func:`_port_sent` adds one and samples the result into
    ``port_queue_depth``, a receive takes one off, and
    ``port_in_flight`` holds the current value.  A send names its
    *source* port and a receive its *destination* port, so the two
    never meet on a channel: a source port's "depth" is its send count
    and a destination port's stays 0.  On E13 (100 MTFs) ``tm_out``
    peaks at 200.  The ``air_port_queue_depth`` and
    ``air_port_in_flight`` instruments, the derived per-port
    ``peak_queue_depth`` and the campaign pair of that name all read
    this rule.  Keying it by destination queue instead would re-pin the
    registry digests and every campaign report that carries
    ``peak_queue_depth``.
    """
    port = event.port
    try:
        counts = state.port_messages_received[port]
    except KeyError:
        counts = state.port_messages_received[port] = {}
    counts[event.partition] = counts.get(event.partition, 0) + 1
    try:
        state.port_delivery_latency_ticks[port].append(event.latency)
    except KeyError:
        state.port_delivery_latency_ticks[port] = [event.latency]
    in_flight = state.port_in_flight
    in_flight[port] = max(in_flight.get(port, 0) - 1, 0)


def _deadline_missed(state: MetricsState, event: DeadlineMissed) -> None:
    _count(state.deadline_misses, (event.partition, event.process))
    try:
        state.deadline_detection_latency_ticks[event.partition].append(
            event.detection_latency)
    except KeyError:
        state.deadline_detection_latency_ticks[event.partition] = [
            event.detection_latency]


def _escalation_stepped(state: MetricsState,
                        event: EscalationStepped) -> None:
    _count(state.fdir_escalations,
           (event.partition or "<module>", event.code, event.action))


def _tally(table: str) -> Callable[[MetricsState, TraceEvent], None]:
    """The step counting an event in *table* under the event's fields
    named like the table's labels."""
    _, fields = COUNTERS[table]

    def step(state: MetricsState, event: TraceEvent) -> None:
        _count(getattr(state, table),
               tuple([getattr(event, field) for field in fields]))

    return step


#: The fold: event class -> its step.  Other classes change nothing.
STEPS: Dict[type, Callable[[MetricsState, TraceEvent], None]] = {
    PartitionDispatched: _partition_dispatched,
    ProcessDispatched: _process_dispatched,
    DeadlineMissed: _deadline_missed,
    PortMessageSent: _port_sent,
    PortMessageReceived: _port_received,
    EscalationStepped: _escalation_stepped,
    ProcessCompleted: _tally("process_completions"),
    ScheduleSwitchRequested: _tally("schedule_switch_requests"),
    ScheduleSwitched: _tally("schedule_switches"),
    PartitionModeChanged: _tally("partition_mode_changes"),
    HealthMonitorEvent: _tally("hm_events"),
    MemoryFault: _tally("memory_faults"),
    ClockTamperTrapped: _tally("clock_tamper_traps"),
    ApplicationMessage: _tally("application_messages"),
    PartitionParked: _tally("fdir_partitions_parked"),
    EscalationRecovered: _tally("fdir_recoveries"),
    WatchdogExpired: _tally("watchdog_expiries"),
}


def fold(state: MetricsState,
         events: Iterable[TraceEvent]) -> MetricsState:
    """Step *state* through *events*, in order; returns *state*."""
    step_for = STEPS.get
    for event in events:
        step = step_for(type(event))
        if step is not None:
            step(state, event)
    return state
