"""Chrome trace-event / Perfetto timeline export from a :class:`Trace`.

Produces the JSON object format documented for ``chrome://tracing`` and
understood by ``ui.perfetto.dev``: one thread track per partition (spans
for the partition's execution windows, nested spans for the process the
partition's POS is running), instant events for deadline misses, schedule
switches, HM actions, memory faults and FDIR supervision (escalation
rungs, parking, watchdog expiry, recovery), and counter tracks for
per-port queue depths (the depth rule of :mod:`repro.obs.fold`).

One simulated tick maps to one microsecond of trace time (``ts``/``dur``
are integers, so the mapping is exact); ``displayTimeUnit`` is set to
milliseconds so an MTF of a few thousand ticks renders at a comfortable
zoom.  The export is a pure function of the trace — equal traces produce
byte-identical files.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from ..kernel.trace import (
    ClockTamperTrapped,
    DeadlineMissed,
    EscalationRecovered,
    EscalationStepped,
    HealthMonitorEvent,
    MemoryFault,
    PartitionDispatched,
    PartitionParked,
    PortMessageReceived,
    PortMessageSent,
    ProcessDispatched,
    ScheduleSwitched,
    Trace,
    WatchdogExpired,
)
from .fold import MetricsState, fold

__all__ = ["to_chrome_trace", "save_timeline"]

#: pid of the single emitted "process" (the AIR module).
MODULE_PID = 1
#: tid reserved for module-wide instants (schedule switches, module HM).
MODULE_TID = 0


def _partition_tids(trace: Trace) -> Dict[str, int]:
    """Stable partition -> tid map (sorted names, tids from 1)."""
    names = set()
    for event in trace:
        partition = getattr(event, "partition", None)
        if partition:
            names.add(partition)
        heir = getattr(event, "heir", None)
        if heir and isinstance(event, PartitionDispatched):
            names.add(heir)
    return {name: tid for tid, name in enumerate(sorted(names), start=1)}


def to_chrome_trace(trace: Trace, *,
                    trace_name: str = "AIR module") -> Dict[str, object]:
    """Render *trace* as a Chrome trace-event JSON object."""
    tids = _partition_tids(trace)
    events: List[Dict[str, object]] = []

    events.append({"ph": "M", "pid": MODULE_PID, "name": "process_name",
                   "args": {"name": trace_name}})
    events.append({"ph": "M", "pid": MODULE_PID, "tid": MODULE_TID,
                   "name": "thread_name", "args": {"name": "module"}})
    for partition, tid in sorted(tids.items(), key=lambda item: item[1]):
        events.append({"ph": "M", "pid": MODULE_PID, "tid": tid,
                       "name": "thread_name", "args": {"name": partition}})

    def span(name: str, cat: str, tid: int, start: int, end: int,
             args: Optional[dict] = None) -> None:
        record = {"name": name, "cat": cat, "ph": "X", "pid": MODULE_PID,
                  "tid": tid, "ts": start, "dur": end - start}
        if args:
            record["args"] = args
        events.append(record)

    def instant(name: str, cat: str, tid: int, tick: int, scope: str,
                args: Optional[dict] = None) -> None:
        record = {"name": name, "cat": cat, "ph": "i", "pid": MODULE_PID,
                  "tid": tid, "ts": tick, "s": scope}
        if args:
            record["args"] = args
        events.append(record)

    # One chronological pass: partition windows, nested process execution
    # (clipped to the owning partition's active intervals so the slices
    # nest), instants and queue-depth counters.
    horizon = trace.events[-1].tick if len(trace) else 0
    active: Optional[str] = None
    active_since = 0
    running: Dict[str, Optional[str]] = {}
    running_since = 0
    ports = MetricsState()

    def close_process(partition: str, until: int) -> None:
        process = running.get(partition)
        if process is not None and until > running_since:
            span(process, "process", tids[partition], running_since, until)

    def close_window(until: int) -> None:
        if active is not None and until > active_since:
            span(active, "window", tids[active], active_since, until)

    for event in trace:
        event_type = type(event)
        if event_type is PartitionDispatched:
            if active is not None:
                close_process(active, event.tick)
                close_window(event.tick)
            active = event.heir
            active_since = event.tick
            running_since = event.tick
        elif event_type is ProcessDispatched:
            if event.partition == active:
                close_process(active, event.tick)
                running_since = event.tick
            running[event.partition] = event.heir
        elif event_type is DeadlineMissed:
            instant(f"deadline miss: {event.process}", "deadline",
                    tids.get(event.partition, MODULE_TID), event.tick, "t",
                    {"deadline_time": event.deadline_time,
                     "detection_latency": event.detection_latency})
        elif event_type is ScheduleSwitched:
            instant(f"PST switch: {event.from_schedule} -> "
                    f"{event.to_schedule}", "schedule", MODULE_TID,
                    event.tick, "g",
                    {"from": event.from_schedule, "to": event.to_schedule})
        elif event_type is HealthMonitorEvent:
            tid = (tids.get(event.partition, MODULE_TID)
                   if event.partition else MODULE_TID)
            instant(f"HM {event.code}: {event.action}", "hm", tid,
                    event.tick, "t",
                    {"level": event.level, "code": event.code,
                     "action": event.action, "detail": event.detail})
        elif event_type is MemoryFault:
            instant(f"memory fault: {event.access}", "memory",
                    tids.get(event.partition, MODULE_TID), event.tick, "t",
                    {"address": event.address, "detail": event.detail})
        elif event_type is ClockTamperTrapped:
            instant(f"clock tamper: {event.operation}", "paravirt",
                    tids.get(event.partition, MODULE_TID), event.tick, "t")
        elif event_type is EscalationStepped:
            tid = (tids.get(event.partition, MODULE_TID)
                   if event.partition else MODULE_TID)
            instant(f"FDIR escalation rung {event.rung}: {event.action}",
                    "fdir", tid, event.tick, "t",
                    {"code": event.code, "rung": event.rung,
                     "action": event.action})
        elif event_type is PartitionParked:
            instant(f"FDIR parked {event.partition}", "fdir",
                    tids.get(event.partition, MODULE_TID), event.tick, "g",
                    {"restarts": event.restarts})
        elif event_type is EscalationRecovered:
            instant(f"FDIR recovered: back to {event.schedule}", "fdir",
                    MODULE_TID, event.tick, "g",
                    {"schedule": event.schedule})
        elif event_type is WatchdogExpired:
            instant(f"watchdog expired: {event.partition}", "fdir",
                    tids.get(event.partition, MODULE_TID), event.tick, "t",
                    {"last_kick": event.last_kick})
        elif event_type is PortMessageSent \
                or event_type is PortMessageReceived:
            fold(ports, (event,))
            events.append({"name": f"queue:{event.port}", "cat": "comm",
                           "ph": "C", "pid": MODULE_PID, "ts": event.tick,
                           "args": {"in_flight":
                                    ports.port_in_flight[event.port]}})
    if active is not None:
        close_process(active, horizon)
        close_window(horizon)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro", "tick_unit": "1 tick = 1 us"},
    }


def save_timeline(trace: Trace, path: str, *,
                  trace_name: str = "AIR module") -> int:
    """Write the Chrome trace-event JSON for *trace* to *path*.

    Returns the number of emitted trace events (spans + instants +
    counters + metadata).
    """
    document = to_chrome_trace(trace, trace_name=trace_name)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, sort_keys=True, separators=(",", ":"))
    return len(document["traceEvents"])
