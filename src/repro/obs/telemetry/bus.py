"""The campaign telemetry bus: worker-side publisher, parent-side aggregator.

Transport shape (DESIGN decision 11):

* **Timing channel, streamed.**  Workers construct a
  :class:`TelemetryPublisher` around a best-effort sink — the parent's
  multiprocessing queue in pools, the aggregator's ``ingest`` directly in
  serial runs — and publish lifecycle events (started / forked /
  progress / finished / crashed) plus end-of-worker cache and transport
  counters.  Every publish is ``put_nowait`` + drop-on-full: telemetry
  may lose events under pressure, it may never block, fail, or reorder
  the simulation.
* **Deterministic channel, derived.**  Nothing deterministic crosses the
  queue.  The aggregator writes the deterministic JSONL lines in
  :meth:`TelemetryAggregator.finish`, purely from the sorted
  ``ScenarioResult`` list — per-scenario ``record`` events, per-scenario
  compact-metric events, and the closing ``report`` — so those lines are
  byte-stable across worker counts, chunk sizes, and queue-arrival
  races *by construction*, not by synchronization.

The JSONL log (``--telemetry-out``) therefore interleaves timing lines in
arrival order, then appends the deterministic block; consumers filter on
the ``channel`` field (the byte-stability contract covers the filtered
deterministic sequence, and E21 tests exactly that).
"""

from __future__ import annotations

import json
import queue as queue_module
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from .events import TelemetryEvent
from .topics import (
    CHANNEL_DETERMINISTIC,
    CHANNEL_TIMING,
    TopicRegistry,
    default_registry,
)

__all__ = ["TelemetryPublisher", "TelemetryAggregator",
           "PROGRESS_MIN_INTERVAL_S"]

#: Progress heartbeats from one worker are rate-limited to this spacing —
#: frequent enough for a live view, cheap enough to vanish in the noise
#: of the E15 overhead budget.
PROGRESS_MIN_INTERVAL_S = 0.2


class TelemetryPublisher:
    """Worker-side handle: typed publishes onto a best-effort sink.

    *sink* is any callable taking one JSON-ready event dict; it may raise
    ``queue.Full`` (counted in ``dropped``, never propagated).  One
    publisher per worker process; ``seq`` numbers its own publishes so
    the parent can detect per-worker drops.
    """

    def __init__(self, sink: Callable[[dict], None], campaign_id: str,
                 worker: str,
                 progress_interval_s: float = PROGRESS_MIN_INTERVAL_S
                 ) -> None:
        self.sink = sink
        self.campaign_id = campaign_id
        self.worker = worker
        self.progress_interval_s = progress_interval_s
        self.seq = 0
        self.dropped = 0
        self._last_progress: Dict[str, float] = {}

    # ---- plumbing ------------------------------------------------- #

    def _publish(self, topic_suffix: str, payload: dict) -> None:
        event = TelemetryEvent(
            topic=f"campaign/{self.campaign_id}/{topic_suffix}",
            channel=CHANNEL_TIMING, payload=payload,
            worker=self.worker, seq=self.seq)
        self.seq += 1
        try:
            self.sink(event.to_dict())
        except queue_module.Full:
            self.dropped += 1
        except Exception:  # noqa: BLE001 — telemetry must never fail a run
            self.dropped += 1

    def _publish_worker(self, topic: str, payload: dict) -> None:
        event = TelemetryEvent(topic=topic, channel=CHANNEL_TIMING,
                               payload=payload, worker=self.worker,
                               seq=self.seq)
        self.seq += 1
        try:
            self.sink(event.to_dict())
        except Exception:  # noqa: BLE001
            self.dropped += 1

    # ---- scenario lifecycle --------------------------------------- #

    def scenario_started(self, scenario_id: str, ticks: int) -> None:
        self._publish(f"scenario/{scenario_id}/started",
                      {"ticks": ticks})

    def scenario_forked(self, scenario_id: str, tick: int) -> None:
        self._publish(f"scenario/{scenario_id}/forked",
                      {"forked_at_tick": tick})

    def scenario_progress(self, scenario_id: str, tick: int,
                          ticks: int) -> None:
        """Rate-limited heartbeat; silently skipped inside the interval."""
        now = time.monotonic()
        last = self._last_progress.get(scenario_id)
        if last is not None and now - last < self.progress_interval_s:
            return
        self._last_progress[scenario_id] = now
        self._publish(f"scenario/{scenario_id}/progress",
                      {"tick": tick, "ticks": ticks})

    def scenario_finished(self, scenario_id: str, status: str,
                          wall_time_s: float, forked_at: int) -> None:
        self._last_progress.pop(scenario_id, None)
        self._publish(f"scenario/{scenario_id}/finished",
                      {"status": status,
                       "wall_time_s": round(wall_time_s, 6),
                       "forked_at_tick": forked_at})

    def scenario_crashed(self, scenario_id: str, error: str) -> None:
        self._publish(f"scenario/{scenario_id}/crashed",
                      {"error": error})

    def flight_record(self, scenario_id: str, path: str) -> None:
        self._publish(f"scenario/{scenario_id}/flight-record",
                      {"path": path})

    # ---- constellation node stream -------------------------------- #

    def node_role(self, node: int, role: str, epoch: int) -> None:
        self._publish_worker(f"node/{node}/role",
                             {"role": role, "epoch": epoch})

    def node_crashed(self, node: int, tick: int, role: str) -> None:
        self._publish_worker(f"node/{node}/crash",
                             {"tick": tick, "role": role})

    def node_link_stats(self, src: int, dst: int,
                        stats: Dict[str, int]) -> None:
        for name, value in sorted(stats.items()):
            self._publish_worker(f"node/{src}/link/{dst}/{name}",
                                 {"value": value})

    # ---- worker counters ------------------------------------------ #

    def cache_stats(self, stats: Dict[str, int]) -> None:
        for name, value in sorted(stats.items()):
            self._publish_worker(f"worker/{self.worker}/cache/{name}",
                                 {"value": value})

    def shm_stats(self, stats: Dict[str, int]) -> None:
        for name, value in sorted(stats.items()):
            self._publish_worker(f"worker/{self.worker}/shm/{name}",
                                 {"value": value})

    def cycle_cache_stats(self, stats: Dict[str, int]) -> None:
        for name, value in sorted(stats.items()):
            self._publish_worker(f"worker/{self.worker}/cycle_cache/{name}",
                                 {"value": value})


class _QueueSink:
    """Picklable non-blocking adapter around a multiprocessing queue."""

    def __init__(self, queue) -> None:
        self.queue = queue

    def __call__(self, record: dict) -> None:
        self.queue.put_nowait(record)


class TelemetryAggregator:
    """Parent-side collector: drains workers, logs, renders, derives.

    Lifecycle::

        aggregator = TelemetryAggregator(campaign_id, log_path=...,
                                         live=..., total=len(scenarios))
        sink = aggregator.start(context)   # None context = serial/in-process
        ... run campaign; workers publish through `sink` ...
        aggregator.finish(results)         # joins drain, writes det block

    ``ingest`` is thread-safe; the drain thread and a serial in-process
    publisher may interleave freely.
    """

    def __init__(self, campaign_id: str, *,
                 log_path: Optional[str] = None,
                 live: bool = False,
                 panel=None,
                 total: int = 0,
                 registry: Optional[TopicRegistry] = None,
                 printer: Callable[[str], None] = print) -> None:
        self.campaign_id = campaign_id
        self.log_path = log_path
        self.live = live
        self.panel = panel
        self.total = total
        self.registry = registry if registry is not None \
            else default_registry()
        self.printer = printer
        self._lock = threading.Lock()
        self._log = None
        self._queue = None
        self._drain: Optional[threading.Thread] = None
        self.timing_events = 0
        self.deterministic_events = 0
        self.invalid_topics = 0
        self.finished = 0
        self.crashed = 0
        self.workers_seen: set = set()

    # ---- lifecycle ------------------------------------------------- #

    def start(self, context=None):
        """Open the log and (with a *context*) the queue + drain thread.

        Returns the worker sink: a picklable queue adapter when *context*
        is a multiprocessing context, or :meth:`ingest` itself for serial
        in-process publishing.
        """
        if self.log_path is not None:
            self._log = open(self.log_path, "w", encoding="utf-8")
        if context is None:
            return self.ingest
        self._queue = context.Queue()
        self._drain = threading.Thread(
            target=self._drain_loop, name="telemetry-drain", daemon=True)
        self._drain.start()
        return _QueueSink(self._queue)

    def _drain_loop(self) -> None:
        while True:
            record = self._queue.get()
            if record is None:
                return
            try:
                self.ingest(record)
            except Exception:  # noqa: BLE001 — a bad record must not
                pass           # kill the drain thread mid-campaign

    # ---- ingest ----------------------------------------------------- #

    def ingest(self, record: dict) -> None:
        """Accept one event dict (from the queue or a serial publisher)."""
        with self._lock:
            channel = record.get("channel")
            if self.registry.validate(record.get("topic", ""), channel):
                self.invalid_topics += 1
            if channel == CHANNEL_DETERMINISTIC:
                self.deterministic_events += 1
            else:
                self.timing_events += 1
            worker = record.get("worker")
            if worker is not None:
                self.workers_seen.add(worker)
            if self._log is not None:
                self._log.write(json.dumps(record, sort_keys=True,
                                           separators=(",", ":")) + "\n")
            if self.panel is not None:
                self.panel.feed(record)
            if self.live:
                line = self._live_line(record)
                if line is not None:
                    self.printer(line)

    def _live_line(self, record: dict) -> Optional[str]:
        topic = record.get("topic", "")
        segments = topic.split("/")
        if len(segments) != 5 or segments[2] != "scenario":
            return None
        scenario_id, kind = segments[3], segments[4]
        payload = record.get("payload", {})
        if kind == "finished":
            self.finished += 1
            status = payload.get("status", "?")
            if status != "ok":
                self.crashed += 1
            progress = (f"{self.finished}/{self.total}"
                        if self.total else f"{self.finished}")
            return (f"[telemetry] {progress} {scenario_id} {status} "
                    f"wall={payload.get('wall_time_s', 0.0):.3f}s "
                    f"forked_at={payload.get('forked_at_tick', -1)}")
        if kind == "crashed":
            return (f"[telemetry] {scenario_id} CRASHED: "
                    f"{payload.get('error', '')[:120]}")
        if kind == "flight-record":
            return (f"[telemetry] {scenario_id} flight record -> "
                    f"{payload.get('path', '')}")
        return None

    # ---- close + deterministic derivation --------------------------- #

    def finish(self, results: Sequence = ()) -> Dict[str, object]:
        """Join the drain thread, derive the deterministic block, close.

        *results* is the final ``ScenarioResult`` sequence; the
        deterministic JSONL lines are derived from it here, sorted by
        scenario id — never from queue traffic — which is the whole
        byte-stability argument.  Returns the stream stats for the
        ``timing.execution`` sidecar.
        """
        if self._queue is not None:
            self._queue.put(None)
            self._drain.join(timeout=30.0)
            self._queue.close()
            self._queue = None
        for event in derive_deterministic_events(
                self.campaign_id, results):
            record = event.to_dict()
            with self._lock:
                self.deterministic_events += 1
                if self._log is not None:
                    self._log.write(event.to_json() + "\n")
                if self.panel is not None:
                    self.panel.feed(record)
        if self._log is not None:
            self._log.close()
            self._log = None
        return self.stats()

    def stats(self) -> Dict[str, object]:
        """Stream counters for the nondeterministic reporting sidecar."""
        return {
            "deterministic_events": self.deterministic_events,
            "invalid_topics": self.invalid_topics,
            "timing_events": self.timing_events,
            "workers_seen": len(self.workers_seen),
        }


def derive_deterministic_events(campaign_id: str,
                                results: Sequence) -> List[TelemetryEvent]:
    """The deterministic event block for *results*, in canonical order.

    Scenario-id-sorted ``record`` + compact-metric events, then the
    closing ``report`` carrying the post-run campaign digest.  Derived
    purely from the results, so equal results (the repo's core
    invariant across worker counts) give byte-equal blocks.
    """
    from ...campaign.results import aggregate

    events: List[TelemetryEvent] = []
    ordered = sorted(results, key=lambda result: result.scenario_id)
    for result in ordered:
        base = f"campaign/{campaign_id}/scenario/{result.scenario_id}"
        events.append(TelemetryEvent(
            topic=f"{base}/record", channel=CHANNEL_DETERMINISTIC,
            payload=result.to_dict()))
        for name, value in result.metrics:
            events.append(TelemetryEvent(
                topic=f"{base}/metric/{name}",
                channel=CHANNEL_DETERMINISTIC,
                payload={"value": value}))
        for node, stats in getattr(result, "node_comm", ()):
            for name, value in stats:
                events.append(TelemetryEvent(
                    topic=f"{base}/node/{node}/comm/{name}",
                    channel=CHANNEL_DETERMINISTIC,
                    payload={"value": value}))
    events.append(TelemetryEvent(
        topic=f"campaign/{campaign_id}/report",
        channel=CHANNEL_DETERMINISTIC,
        payload=aggregate(ordered)))
    return events
