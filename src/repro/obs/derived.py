"""Derived metrics: paper-level quantities computed from any saved trace.

Where :mod:`repro.obs.instrument` accumulates metrics *live*, this module
recomputes the interesting quantities purely from a :class:`Trace` — so a
``save_jsonl`` file written months ago (or shipped from a campaign worker)
is analyzable offline, with no simulator in sight:

* **window occupancy vs. PST entitlement** — the run-time counterpart of
  eqs. (1)-(5): the fraction of the analyzed span each partition actually
  held the processor, against its table allocation per schedule;
* **MTF-by-MTF utilization series** — per-frame occupancy per partition,
  segmented at schedule switches (Algorithm 1 aligns frames to the last
  switch, and so do we);
* **dispatch jitter** — distributions of inter-dispatch intervals;
* **deadline miss counts and Algorithm 3 detection-latency distributions**;
* **channel delivery latencies and peak queue depths**;
* **HM event counts by level/code/action**.

Everything is computed with integer arithmetic plus plain float division in
a fixed order, so the canonical JSON form is byte-identical for equal
traces.  Distributions use nearest-rank percentiles (no interpolation).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from ..kernel.trace import (
    DeadlineMissed,
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

__all__ = ["COMPACT_METRIC_NAMES", "derived_metrics", "derived_to_json",
           "compact_metrics", "percentile", "distribution"]

#: The fixed key set :func:`compact_metrics` emits, in emission order.
#: The governed telemetry namespace constrains the
#: ``campaign/<digest>/scenario/<id>/metric/<name>`` topic to this set.
COMPACT_METRIC_NAMES: Tuple[str, ...] = (
    "context_switches",
    "deadline_detection_latency_max",
    "deadline_detection_latency_sum",
    "deadline_misses",
    "delivery_latency_max",
    "delivery_latency_sum",
    "fdir_escalations",
    "fdir_parked",
    "fdir_watchdog_expiries",
    "hm_events",
    "peak_queue_depth",
    "port_received",
    "port_sent",
    "process_dispatches",
)


def _rank(ordered: Sequence[int], fraction: float) -> int:
    """Nearest-rank percentile of the sorted, non-empty *ordered*."""
    rank = max(1, -(-len(ordered) * fraction // 1))  # ceil without math
    return ordered[min(int(rank), len(ordered)) - 1]


def percentile(values: Sequence[int], fraction: float) -> int:
    """Nearest-rank percentile of *values* (must be non-empty)."""
    return _rank(sorted(values), fraction)


def distribution(values: Sequence[int]) -> Dict[str, int]:
    """Deterministic summary of an integer sample: count/sum/min/max/p50/p90/p99.

    The sample is sorted once and all seven quantities read off it.
    """
    if not values:
        return {"count": 0, "sum": 0, "min": None, "max": None,
                "p50": None, "p90": None, "p99": None}
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "sum": sum(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "p50": _rank(ordered, 0.50),
        "p90": _rank(ordered, 0.90),
        "p99": _rank(ordered, 0.99),
    }


def _dispatch_spans(trace: Trace,
                    horizon: int) -> List[Tuple[int, int, Optional[str]]]:
    """(start, end, partition-or-None) spans from PartitionDispatched events,
    clipped to *horizon*."""
    spans: List[Tuple[int, int, Optional[str]]] = []
    active: Optional[str] = None
    since = 0
    for event in trace.of_type(PartitionDispatched):
        if event.tick > since:
            spans.append((since, min(event.tick, horizon), active))
        active = event.heir
        since = event.tick
    if horizon > since:
        spans.append((since, horizon, active))
    return spans


def _schedule_segments(trace: Trace, horizon: int,
                       initial: Optional[str]) -> List[Tuple[int, int, Optional[str]]]:
    """(start, end, schedule_id) segments delimited by ScheduleSwitched."""
    segments: List[Tuple[int, int, Optional[str]]] = []
    current = initial
    since = 0
    for event in trace.of_type(ScheduleSwitched):
        if current is None:
            current = event.from_schedule
        if event.tick > since:
            segments.append((since, min(event.tick, horizon), current))
        current = event.to_schedule
        since = event.tick
    if horizon > since:
        segments.append((since, horizon, current))
    return segments


def _overlap(a_start: int, a_end: int, b_start: int, b_end: int) -> int:
    return max(0, min(a_end, b_end) - max(a_start, b_start))


def _make_frame_occupancy(spans, partitions):
    """Per-frame occupancy function over *spans*: ``f(start, end) ->
    {partition: ticks}``.

    *spans* come from :func:`_dispatch_spans`: contiguous, with strictly
    increasing starts.  A frame therefore overlaps only the run of spans
    from the one holding its start (found by bisection) up to the first
    one starting at or past its end, so each frame costs the few spans
    it covers instead of a scan of the whole trace.
    """
    starts = [start for start, _, _ in spans]

    def occupancy(frame_start: int, frame_end: int) -> Dict[str, int]:
        occupied = dict.fromkeys(partitions, 0)
        index = max(bisect_right(starts, frame_start) - 1, 0)
        while index < len(spans) and starts[index] < frame_end:
            start, end, owner = spans[index]
            if owner in occupied:
                occupied[owner] += _overlap(start, end, frame_start,
                                            frame_end)
            index += 1
        return occupied

    return occupancy


def derived_metrics(trace: Trace, config=None,
                    horizon: Optional[int] = None) -> Dict[str, object]:
    """Compute the derived-metric report from *trace*.

    *config* (a :class:`~repro.config.schema.SystemConfig`), when given,
    adds PST entitlements and the MTF-by-MTF utilization series; without
    it only trace-intrinsic quantities are reported.  *horizon* bounds the
    analyzed span (default: the last event's tick).
    """
    events = trace.events
    if horizon is None:
        horizon = events[-1].tick if events else 0
    model = config.model if config is not None else None
    initial_schedule = model.schedules[0].schedule_id if model else None

    spans = _dispatch_spans(trace, horizon)
    segments = _schedule_segments(trace, horizon, initial_schedule)

    # ---- occupancy vs. entitlement -------------------------------- #
    occupied: Dict[str, int] = {}
    for start, end, partition in spans:
        if partition is not None:
            occupied[partition] = occupied.get(partition, 0) + (end - start)
    partitions = sorted(set(occupied)
                        | (set(model.partition_names) if model else set()))
    occupancy = {}
    for partition in partitions:
        ticks = occupied.get(partition, 0)
        entry: Dict[str, object] = {
            "ticks": ticks,
            "fraction": ticks / horizon if horizon else 0.0,
        }
        if model is not None:
            entitlement = {}
            for schedule in model.schedules:
                allocated = schedule.allocated_time(partition)
                entitlement[schedule.schedule_id] = {
                    "allocated": allocated,
                    "fraction": allocated / schedule.major_time_frame,
                }
            entry["entitlement"] = entitlement
        occupancy[partition] = entry

    # ---- MTF-by-MTF utilization series ---------------------------- #
    utilization_series: List[Dict[str, object]] = []
    if model is not None:
        frame_occupancy = _make_frame_occupancy(spans, partitions)
        for seg_start, seg_end, schedule_id in segments:
            if schedule_id is None:
                continue
            mtf = model.schedule(schedule_id).major_time_frame
            frame_start = seg_start
            index = 0
            while frame_start < seg_end:
                frame_end = min(frame_start + mtf, seg_end)
                utilization_series.append({
                    "schedule": schedule_id,
                    "frame": index,
                    "start": frame_start,
                    "ticks": frame_end - frame_start,
                    "occupied": frame_occupancy(frame_start, frame_end),
                })
                frame_start = frame_end
                index += 1

    # ---- dispatch jitter ------------------------------------------ #
    last_dispatch: Dict[str, int] = {}
    intervals: Dict[str, List[int]] = {}
    for event in trace.of_type(PartitionDispatched):
        if event.heir is None:
            continue
        previous = last_dispatch.get(event.heir)
        if previous is not None:
            intervals.setdefault(event.heir, []).append(event.tick - previous)
        last_dispatch[event.heir] = event.tick
    jitter = {partition: distribution(intervals.get(partition, []))
              for partition in partitions}

    # ---- deadline misses ------------------------------------------ #
    misses = trace.of_type(DeadlineMissed)
    miss_counts: Dict[str, int] = {}
    latencies: Dict[str, List[int]] = {}
    for event in misses:
        miss_counts[event.partition] = miss_counts.get(event.partition, 0) + 1
        latencies.setdefault(event.partition, []).append(
            event.detection_latency)
    process_dispatches: Dict[str, int] = {}
    for event in trace.of_type(ProcessDispatched):
        if event.heir is not None:
            process_dispatches[event.partition] = (
                process_dispatches.get(event.partition, 0) + 1)
    deadline = {
        partition: {
            "misses": miss_counts.get(partition, 0),
            "process_dispatches": process_dispatches.get(partition, 0),
            "miss_rate": (miss_counts.get(partition, 0)
                          / process_dispatches[partition]
                          if process_dispatches.get(partition) else 0.0),
            "detection_latency": distribution(latencies.get(partition, [])),
        }
        for partition in sorted(set(miss_counts) | set(process_dispatches)
                                | set(partitions))}

    # ---- channels -------------------------------------------------- #
    sent: Dict[str, int] = {}
    received: Dict[str, int] = {}
    delivery: Dict[str, List[int]] = {}
    depth: Dict[str, int] = {}
    peak_depth: Dict[str, int] = {}
    for event in events:
        if type(event) is PortMessageSent:
            sent[event.port] = sent.get(event.port, 0) + 1
            depth[event.port] = depth.get(event.port, 0) + 1
            if depth[event.port] > peak_depth.get(event.port, 0):
                peak_depth[event.port] = depth[event.port]
        elif type(event) is PortMessageReceived:
            received[event.port] = received.get(event.port, 0) + 1
            depth[event.port] = max(depth.get(event.port, 0) - 1, 0)
            delivery.setdefault(event.port, []).append(event.latency)
    ports = {
        port: {
            "sent": sent.get(port, 0),
            "received": received.get(port, 0),
            "peak_queue_depth": peak_depth.get(port, 0),
            "delivery_latency": distribution(delivery.get(port, [])),
        }
        for port in sorted(set(sent) | set(received))}

    # ---- health monitoring ---------------------------------------- #
    hm: Dict[str, int] = {}
    for event in trace.of_type(HealthMonitorEvent):
        key = f"{event.level}/{event.code}/{event.action}"
        hm[key] = hm.get(key, 0) + 1

    return {
        "horizon": horizon,
        "events": len(trace),
        "schedules": [{"start": s, "end": e, "schedule": sid}
                      for s, e, sid in segments],
        "occupancy": occupancy,
        "utilization_series": utilization_series,
        "dispatch_jitter": jitter,
        "deadline": deadline,
        "ports": ports,
        "hm_events": dict(sorted(hm.items())),
        "memory_faults": trace.count(MemoryFault),
    }


def derived_to_json(report: Dict[str, object]) -> str:
    """Canonical JSON for a :func:`derived_metrics` report."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def compact_metrics(trace: Trace,
                    tally: Optional[Dict[type, int]] = None
                    ) -> Tuple[Tuple[str, int], ...]:
    """Flat, integer-only metric pairs for the campaign boundary.

    Small, picklable and deterministic — a ``ScenarioResult`` carries this
    instead of a full registry; the aggregator folds the pairs into
    cross-scenario distributions that are byte-identical for any worker
    count.

    *tally*, when given, maps further event classes to running counts,
    and the same pass adds each event of exactly that class, so a caller
    needing such counts as well does not scan the trace again.  Only
    classes none of the pairs count can be tallied: an event a pair
    counts never reaches the tally.
    """
    context_switches = 0
    process_dispatches = 0
    misses = 0
    latency_sum = 0
    latency_max = 0
    port_sent = 0
    port_received = 0
    delivery_sum = 0
    delivery_max = 0
    depth: Dict[str, int] = {}
    peak_depth = 0
    hm_events = 0
    escalations = 0
    parked = 0
    watchdog_expiries = 0
    for event in trace:
        event_type = type(event)
        if event_type is PartitionDispatched:
            context_switches += 1
        elif event_type is ProcessDispatched:
            if event.heir is not None:
                process_dispatches += 1
        elif event_type is DeadlineMissed:
            misses += 1
            latency_sum += event.detection_latency
            if event.detection_latency > latency_max:
                latency_max = event.detection_latency
        elif event_type is PortMessageSent:
            port_sent += 1
            depth[event.port] = depth.get(event.port, 0) + 1
            if depth[event.port] > peak_depth:
                peak_depth = depth[event.port]
        elif event_type is PortMessageReceived:
            port_received += 1
            delivery_sum += event.latency
            if event.latency > delivery_max:
                delivery_max = event.latency
            depth[event.port] = max(depth.get(event.port, 0) - 1, 0)
        elif event_type is HealthMonitorEvent:
            hm_events += 1
        elif event_type is EscalationStepped:
            escalations += 1
        elif event_type is PartitionParked:
            parked += 1
        elif event_type is WatchdogExpired:
            watchdog_expiries += 1
        elif tally and event_type in tally:
            tally[event_type] += 1
    return (
        ("context_switches", context_switches),
        ("deadline_detection_latency_max", latency_max),
        ("deadline_detection_latency_sum", latency_sum),
        ("deadline_misses", misses),
        ("delivery_latency_max", delivery_max),
        ("delivery_latency_sum", delivery_sum),
        ("fdir_escalations", escalations),
        ("fdir_parked", parked),
        ("fdir_watchdog_expiries", watchdog_expiries),
        ("hm_events", hm_events),
        ("peak_queue_depth", peak_depth),
        ("port_received", port_received),
        ("port_sent", port_sent),
        ("process_dispatches", process_dispatches),
    )
