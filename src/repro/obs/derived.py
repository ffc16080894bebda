"""Derived metrics: paper-level quantities computed from any saved trace.

Where :mod:`repro.obs.instrument` renders the metrics fold
(:mod:`repro.obs.fold`) *live*, this module folds a finished
:class:`Trace` — so a ``save_jsonl`` file written months ago (or shipped
from a campaign worker) is analyzable offline, with no simulator in
sight — and adds the quantities that need whole spans:

* **window occupancy vs. PST entitlement** — the run-time counterpart of
  eqs. (1)-(5): the fraction of the analyzed span each partition actually
  held the processor, against its table allocation per schedule;
* **MTF-by-MTF utilization series** — per-frame occupancy per partition,
  segmented at schedule switches (Algorithm 1 aligns frames to the last
  switch, and so do we);
* **dispatch jitter** — distributions of inter-dispatch intervals;
* **deadline miss counts and Algorithm 3 detection-latency distributions**;
* **per-port delivery latencies and peak queue depths** (depth as the
  fold's depth step defines it: see :mod:`repro.obs.fold`);
* **HM event counts by level/code/action**;
* **the campaign pairs** (:func:`compact_metrics`) — a flat summary of
  the same fold, combined across constellation nodes by the rule each
  pair declares.

Everything is computed with integer arithmetic plus plain float division in
a fixed order, so the canonical JSON form is byte-identical for equal
traces.  Distributions use nearest-rank percentiles (no interpolation).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..kernel.trace import (
    PartitionDispatched,
    ScheduleSwitched,
    Trace,
    TraceEvent,
)
from .fold import MetricsState, entries, fold, total

__all__ = ["COMPACT_METRIC_NAMES", "derived_metrics", "derived_to_json",
           "compact_metrics", "combine_compact", "percentile",
           "distribution"]


def _sample_sum(table: Dict[str, List[int]]) -> int:
    return sum(sum(samples) for samples in table.values())


def _sample_max(table: Dict[str, List[int]]) -> int:
    return max((max(samples) for samples in table.values()), default=0)


#: The campaign pairs, in emission order: name, the fold table it reads,
#: how it reads it, and the rule combining one value per constellation
#: node into the fleet's (:func:`combine_compact`).
COMPACT_QUANTITIES: Tuple[Tuple[str, str, Callable, Callable], ...] = (
    ("context_switches", "partition_context_switches", total, sum),
    ("deadline_detection_latency_max", "deadline_detection_latency_ticks",
     _sample_max, max),
    ("deadline_detection_latency_sum", "deadline_detection_latency_ticks",
     _sample_sum, sum),
    ("deadline_misses", "deadline_misses", total, sum),
    ("delivery_latency_max", "port_delivery_latency_ticks", _sample_max, max),
    ("delivery_latency_sum", "port_delivery_latency_ticks", _sample_sum, sum),
    ("fdir_escalations", "fdir_escalations", total, sum),
    ("fdir_parked", "fdir_partitions_parked", total, sum),
    ("fdir_watchdog_expiries", "watchdog_expiries", total, sum),
    ("hm_events", "hm_events", total, sum),
    # The depth rule of repro.obs.fold._port_received; the fleet value
    # sums the nodes' peaks.
    ("peak_queue_depth", "port_queue_depth", _sample_max, sum),
    ("port_received", "port_messages_received", total, sum),
    ("port_sent", "port_messages_sent", total, sum),
    ("process_dispatches", "process_dispatches", total, sum),
)

#: The fixed key set :func:`compact_metrics` emits, in emission order.
#: The governed telemetry namespace constrains the
#: ``campaign/<digest>/scenario/<id>/metric/<name>`` topic to this set.
COMPACT_METRIC_NAMES: Tuple[str, ...] = tuple(
    quantity[0] for quantity in COMPACT_QUANTITIES)


def _rank(ordered: Sequence[int], fraction: float) -> int:
    """Nearest-rank percentile of the sorted, non-empty *ordered*."""
    rank = max(1, -(-len(ordered) * fraction // 1))  # ceil without math
    return ordered[min(int(rank), len(ordered)) - 1]


def percentile(values: Sequence[int], fraction: float) -> int:
    """Nearest-rank percentile of *values* (deterministic, no
    interpolation); 0 for no values."""
    if not values:
        return 0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], "
                         f"got {fraction}")
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


def _by_first_label(table: Dict[str, object]) -> Dict[str, int]:
    """A counter table's events per value of its first label."""
    return {value: total(inner) for value, inner in table.items()}


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

    # ---- the fold: jitter, deadlines, channels, HM ---------------- #
    state = fold(MetricsState(), events)
    intervals = state.partition_dispatch_interval_ticks
    jitter = {partition: distribution(intervals.get(partition, []))
              for partition in partitions}

    miss_counts = _by_first_label(state.deadline_misses)
    latencies = state.deadline_detection_latency_ticks
    process_dispatches = _by_first_label(state.process_dispatches)
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

    sent = _by_first_label(state.port_messages_sent)
    received = _by_first_label(state.port_messages_received)
    depths = state.port_queue_depth
    delivery = state.port_delivery_latency_ticks
    ports = {
        port: {
            "sent": sent.get(port, 0),
            "received": received.get(port, 0),
            "peak_queue_depth": max(depths.get(port, [0])),
            "delivery_latency": distribution(delivery.get(port, [])),
        }
        for port in sorted(set(sent) | set(received))}

    hm: Dict[str, int] = {}
    for (level, code, action), count in entries(state.hm_events, 3):
        key = f"{level}/{code}/{action}"
        hm[key] = hm.get(key, 0) + count

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
        "memory_faults": total(state.memory_faults),
    }


def derived_to_json(report: Dict[str, object]) -> str:
    """Canonical JSON for a :func:`derived_metrics` report."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def compact_metrics(trace: Iterable[TraceEvent],
                    state: Optional[MetricsState] = None
                    ) -> Tuple[Tuple[str, int], ...]:
    """Flat, integer-only metric pairs for the campaign boundary.

    Small, picklable and deterministic — a ``ScenarioResult`` carries this
    instead of a full registry; the aggregator folds the pairs into
    cross-scenario distributions that are byte-identical for any worker
    count.  The pairs are :data:`COMPACT_QUANTITIES` read off a fold of
    *trace*, in :data:`COMPACT_METRIC_NAMES` order.

    *state*, when given, is the fold state the pass steps (a fresh one
    otherwise), so a caller reads any further quantity of the same pass
    from it afterwards.  A state already folded over a run's first events
    makes *trace* the events after them: a run forked from a checkpoint
    passes a copy of the checkpoint's state and only its own events.
    """
    state = fold(state if state is not None else MetricsState(), trace)
    return tuple((name, read(getattr(state, table)))
                 for name, table, read, _ in COMPACT_QUANTITIES)


def combine_compact(per_node: Iterable[Tuple[Tuple[str, int], ...]]
                    ) -> Tuple[Tuple[str, int], ...]:
    """Fleet-wide pairs from one :func:`compact_metrics` result per node:
    each quantity's declared combine over the nodes' values."""
    columns = zip(*[[value for _, value in pairs] for pairs in per_node])
    return tuple((name, combine(column)) for (name, _, _, combine), column
                 in zip(COMPACT_QUANTITIES, columns))
