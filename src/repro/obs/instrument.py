"""Live instrumentation: feed a MetricsRegistry from a running simulator.

:class:`SimulatorMetrics` subscribes to the simulator's :class:`Trace` and
updates registry instruments as events are recorded — partition/process
dispatch counters, the Algorithm 3 detection-latency histogram, channel
delivery latencies and queue depths, HM classifications, memory faults.
:meth:`collect` additionally snapshots the component-level counters that
do not flow through the trace (scheduler/dispatcher stats, deadline-monitor
check counts, MMU access/fault totals, PMK occupancy).

Determinism: every input is either a trace event (bit-identical between
``run`` and ``run_fast`` by the fast-skip equivalence suite) or a counter
kept batch-identical by the event core's ``batch_account`` paths — so the
serialized registry is byte-identical across execution modes, runs and
campaign worker counts.  Host-time quantities never enter the registry;
``repro run --profile`` reports them per module through cProfile.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Type

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
    Trace,
    TraceEvent,
    WatchdogExpired,
)
from .metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

__all__ = ["AIR_INSTRUMENTS", "SimulatorMetrics", "instrument"]

#: Queue-depth histogram bounds (messages in flight per channel).
QUEUE_DEPTH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64)

#: The authoritative instrument inventory: every metric name this module
#: can register, mapped to ``(kind, units)``.  The governed telemetry
#: namespace (:mod:`repro.obs.telemetry.topics`) derives its ``air/...``
#: topic set from this table, and ``tests/obs`` pins that every name a
#: handler or ``collect()`` touches appears here — add an instrument
#: without listing it and the governance tests fail, not production.
AIR_INSTRUMENTS: Dict[str, tuple] = {
    # per-event counters (trace observer handlers)
    "air_partition_context_switches_total": ("counter", "switches"),
    "air_partition_dispatches_total": ("counter", "dispatches"),
    "air_process_dispatches_total": ("counter", "dispatches"),
    "air_process_completions_total": ("counter", "completions"),
    "air_deadline_misses_total": ("counter", "misses"),
    "air_schedule_switch_requests_total": ("counter", "requests"),
    "air_schedule_switches_total": ("counter", "switches"),
    "air_partition_mode_changes_total": ("counter", "changes"),
    "air_hm_events_total": ("counter", "events"),
    "air_memory_faults_total": ("counter", "faults"),
    "air_clock_tamper_traps_total": ("counter", "traps"),
    "air_port_messages_sent_total": ("counter", "messages"),
    "air_port_messages_received_total": ("counter", "messages"),
    "air_application_messages_total": ("counter", "messages"),
    "air_fdir_escalations_total": ("counter", "escalations"),
    "air_fdir_partitions_parked_total": ("counter", "partitions"),
    "air_fdir_recoveries_total": ("counter", "recoveries"),
    "air_watchdog_expiries_total": ("counter", "expiries"),
    # distributions (trace observer handlers)
    "air_deadline_detection_latency_ticks": ("histogram", "ticks"),
    "air_port_queue_depth": ("histogram", "messages"),
    "air_port_delivery_latency_ticks": ("histogram", "ticks"),
    # component-counter snapshots (collect())
    "air_port_in_flight": ("gauge", "messages"),
    "air_ticks_executed": ("gauge", "ticks"),
    "air_idle_ticks": ("gauge", "ticks"),
    "air_partition_ticks": ("gauge", "ticks"),
    "air_module_restarts": ("gauge", "restarts"),
    "air_scheduler_ticks": ("gauge", "ticks"),
    "air_scheduler_fast_path_ticks": ("gauge", "ticks"),
    "air_scheduler_preemption_points": ("gauge", "points"),
    "air_scheduler_schedule_switches": ("gauge", "switches"),
    "air_dispatcher_runs": ("gauge", "runs"),
    "air_dispatcher_context_switches": ("gauge", "switches"),
    "air_dispatcher_change_actions": ("gauge", "actions"),
    "air_deadline_checks": ("gauge", "checks"),
    "air_deadline_comparisons": ("gauge", "comparisons"),
    "air_deadlines_pending": ("gauge", "deadlines"),
    "air_mmu_accesses": ("gauge", "accesses"),
    "air_mmu_faults": ("gauge", "faults"),
    "air_comm_in_flight": ("gauge", "messages"),
    "air_hm_occurrences": ("gauge", "events"),
    "air_fdir_degraded": ("gauge", "flag"),
    "air_fdir_parked_partitions": ("gauge", "partitions"),
    "air_fdir_supervised_restarts": ("gauge", "restarts"),
    "air_watchdog_kicks": ("gauge", "kicks"),
    "air_watchdog_expired": ("gauge", "expiries"),
}


class SimulatorMetrics:
    """Trace observer maintaining a deterministic metrics registry."""

    def __init__(self, simulator,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.simulator = simulator
        self.registry = registry if registry is not None else MetricsRegistry()
        self._in_flight: Dict[str, int] = {}
        # Per-label-value instrument caches: the registry's kwargs-based
        # lookup (dict build + label sort) is too slow for the per-event
        # hot path, so each handler resolves its instrument once per
        # distinct label tuple and then increments the cached object.
        self._cache: Dict[tuple, object] = {}
        self._context_switches = self.registry.counter(
            "air_partition_context_switches_total")
        self._handlers: Dict[Type[TraceEvent],
                             Callable[[TraceEvent], None]] = {
            PartitionDispatched: self._on_partition_dispatched,
            ProcessDispatched: self._on_process_dispatched,
            ProcessCompleted: self._on_process_completed,
            DeadlineMissed: self._on_deadline_missed,
            ScheduleSwitchRequested: self._on_switch_requested,
            ScheduleSwitched: self._on_schedule_switched,
            PartitionModeChanged: self._on_mode_changed,
            HealthMonitorEvent: self._on_hm_event,
            MemoryFault: self._on_memory_fault,
            ClockTamperTrapped: self._on_clock_tamper,
            PortMessageSent: self._on_port_sent,
            PortMessageReceived: self._on_port_received,
            ApplicationMessage: self._on_application_message,
            EscalationStepped: self._on_escalation_stepped,
            PartitionParked: self._on_partition_parked,
            EscalationRecovered: self._on_escalation_recovered,
            WatchdogExpired: self._on_watchdog_expired,
        }
        # The subscribed observer is a closure, not a bound method: the
        # per-event path must not pay attribute lookups for the handler
        # table on every trace record.
        handler_for = self._handlers.get

        def observe(event: TraceEvent) -> None:
            handler = handler_for(type(event))
            if handler is not None:
                handler(event)

        self._observe = observe
        simulator.trace.subscribe(observe)

    def close(self) -> None:
        """Detach from the trace (stop observing)."""
        self.simulator.trace.unsubscribe(self._observe)

    # -------------------------------------------------------------- #
    # the observer
    # -------------------------------------------------------------- #

    def __call__(self, event: TraceEvent) -> None:
        self._observe(event)

    # -------------------------------------------------------------- #
    # per-event handlers
    #
    # Hot handlers inline their cache lookup (no helper call, no lambda
    # allocation per event); cold handlers go through the registry's
    # kwargs lookup directly.
    # -------------------------------------------------------------- #

    def _on_partition_dispatched(self, event: PartitionDispatched) -> None:
        self._context_switches.inc()
        heir = event.heir
        if heir is not None:
            key = ("pdisp", heir)
            counter = self._cache.get(key)
            if counter is None:
                counter = self._cache[key] = self.registry.counter(
                    "air_partition_dispatches_total", partition=heir)
            counter.inc()

    def _on_process_dispatched(self, event: ProcessDispatched) -> None:
        heir = event.heir
        if heir is not None:
            key = ("prdisp", event.partition, heir)
            counter = self._cache.get(key)
            if counter is None:
                counter = self._cache[key] = self.registry.counter(
                    "air_process_dispatches_total",
                    partition=event.partition, process=heir)
            counter.inc()

    def _on_process_completed(self, event: ProcessCompleted) -> None:
        key = ("prdone", event.partition, event.process)
        counter = self._cache.get(key)
        if counter is None:
            counter = self._cache[key] = self.registry.counter(
                "air_process_completions_total",
                partition=event.partition, process=event.process)
        counter.inc()

    def _on_deadline_missed(self, event: DeadlineMissed) -> None:
        key = ("miss", event.partition, event.process)
        counter = self._cache.get(key)
        if counter is None:
            counter = self._cache[key] = self.registry.counter(
                "air_deadline_misses_total",
                partition=event.partition, process=event.process)
        counter.inc()
        key = ("misslat", event.partition)
        histogram = self._cache.get(key)
        if histogram is None:
            histogram = self._cache[key] = self.registry.histogram(
                "air_deadline_detection_latency_ticks",
                DEFAULT_LATENCY_BUCKETS, partition=event.partition)
        histogram.observe(event.detection_latency)

    def _on_switch_requested(self, event: ScheduleSwitchRequested) -> None:
        self.registry.counter("air_schedule_switch_requests_total",
                              to_schedule=event.to_schedule).inc()

    def _on_schedule_switched(self, event: ScheduleSwitched) -> None:
        self.registry.counter("air_schedule_switches_total",
                              from_schedule=event.from_schedule,
                              to_schedule=event.to_schedule).inc()

    def _on_mode_changed(self, event: PartitionModeChanged) -> None:
        self.registry.counter("air_partition_mode_changes_total",
                              partition=event.partition,
                              new_mode=event.new_mode).inc()

    def _on_hm_event(self, event: HealthMonitorEvent) -> None:
        self.registry.counter("air_hm_events_total",
                              level=event.level, code=event.code,
                              action=event.action).inc()

    def _on_memory_fault(self, event: MemoryFault) -> None:
        self.registry.counter("air_memory_faults_total",
                              partition=event.partition,
                              access=event.access).inc()

    def _on_clock_tamper(self, event: ClockTamperTrapped) -> None:
        self.registry.counter("air_clock_tamper_traps_total",
                              partition=event.partition).inc()

    def _on_port_sent(self, event: PortMessageSent) -> None:
        port = event.port
        cache = self._cache
        key = ("sent", event.partition, port)
        counter = cache.get(key)
        if counter is None:
            counter = cache[key] = self.registry.counter(
                "air_port_messages_sent_total",
                partition=event.partition, port=port)
        counter.inc()
        depth = self._in_flight.get(port, 0) + 1
        self._in_flight[port] = depth
        key = ("depth", port)
        histogram = cache.get(key)
        if histogram is None:
            histogram = cache[key] = self.registry.histogram(
                "air_port_queue_depth", QUEUE_DEPTH_BUCKETS, port=port)
        histogram.observe(depth)
        key = ("flight", port)
        gauge = cache.get(key)
        if gauge is None:
            gauge = cache[key] = self.registry.gauge(
                "air_port_in_flight", port=port)
        gauge.set(depth)

    def _on_port_received(self, event: PortMessageReceived) -> None:
        port = event.port
        cache = self._cache
        key = ("rcvd", event.partition, port)
        counter = cache.get(key)
        if counter is None:
            counter = cache[key] = self.registry.counter(
                "air_port_messages_received_total",
                partition=event.partition, port=port)
        counter.inc()
        key = ("lat", port)
        histogram = cache.get(key)
        if histogram is None:
            histogram = cache[key] = self.registry.histogram(
                "air_port_delivery_latency_ticks",
                DEFAULT_LATENCY_BUCKETS, port=port)
        histogram.observe(event.latency)
        depth = max(self._in_flight.get(port, 0) - 1, 0)
        self._in_flight[port] = depth
        key = ("flight", port)
        gauge = cache.get(key)
        if gauge is None:
            gauge = cache[key] = self.registry.gauge(
                "air_port_in_flight", port=port)
        gauge.set(depth)

    def _on_escalation_stepped(self, event: EscalationStepped) -> None:
        self.registry.counter("air_fdir_escalations_total",
                              partition=event.partition or "<module>",
                              code=event.code,
                              action=event.action).inc()

    def _on_partition_parked(self, event: PartitionParked) -> None:
        self.registry.counter("air_fdir_partitions_parked_total",
                              partition=event.partition).inc()

    def _on_escalation_recovered(self, event: EscalationRecovered) -> None:
        self.registry.counter("air_fdir_recoveries_total",
                              schedule=event.schedule).inc()

    def _on_watchdog_expired(self, event: WatchdogExpired) -> None:
        self.registry.counter("air_watchdog_expiries_total",
                              partition=event.partition).inc()

    def _on_application_message(self, event: ApplicationMessage) -> None:
        key = ("appmsg", event.partition)
        counter = self._cache.get(key)
        if counter is None:
            counter = self._cache[key] = self.registry.counter(
                "air_application_messages_total",
                partition=event.partition)
        counter.inc()

    # -------------------------------------------------------------- #
    # component-counter snapshot
    # -------------------------------------------------------------- #

    def collect(self) -> MetricsRegistry:
        """Snapshot component counters into the registry and return it.

        Everything read here is batch-identical between per-tick and
        event-core execution (``SchedulerStats.batch_account`` et al.), so
        collecting after equivalent runs yields equal registries.
        """
        registry = self.registry
        pmk = self.simulator.pmk

        registry.gauge("air_ticks_executed").set(pmk.ticks_executed)
        registry.gauge("air_idle_ticks").set(pmk.idle_ticks)
        for partition, ticks in sorted(pmk.partition_ticks.items()):
            registry.gauge("air_partition_ticks",
                           partition=partition).set(ticks)
        registry.gauge("air_module_restarts").set(pmk.module_restarts)

        scheduler = pmk.scheduler.stats
        registry.gauge("air_scheduler_ticks").set(scheduler.ticks)
        registry.gauge("air_scheduler_fast_path_ticks").set(
            scheduler.fast_path)
        registry.gauge("air_scheduler_preemption_points").set(
            scheduler.preemption_points)
        registry.gauge("air_scheduler_schedule_switches").set(
            scheduler.schedule_switches)

        dispatcher = pmk.dispatcher.stats
        registry.gauge("air_dispatcher_runs").set(dispatcher.runs)
        registry.gauge("air_dispatcher_context_switches").set(
            dispatcher.context_switches)
        registry.gauge("air_dispatcher_change_actions").set(
            dispatcher.change_actions_applied)

        for partition, runtime in sorted(pmk.runtimes.items()):
            monitor = runtime.pal.monitor
            registry.gauge("air_deadline_checks",
                           partition=partition).set(monitor.check_count)
            registry.gauge("air_deadline_comparisons",
                           partition=partition).set(monitor.comparison_count)
            registry.gauge("air_deadlines_pending",
                           partition=partition).set(monitor.pending_count())

        registry.gauge("air_mmu_accesses").set(pmk.mmu.access_count)
        registry.gauge("air_mmu_faults").set(pmk.mmu.fault_count)
        registry.gauge("air_comm_in_flight").set(pmk.router.in_flight)

        for partition, code, count in pmk.health_monitor.occurrences():
            registry.gauge("air_hm_occurrences",
                           partition=partition, code=code.value).set(count)

        if pmk.fdir is not None:
            fdir = pmk.fdir
            registry.gauge("air_fdir_degraded").set(int(fdir.degraded))
            registry.gauge("air_fdir_parked_partitions").set(
                len(fdir.parked))
            for partition, restarts in fdir.restart_counts():
                registry.gauge("air_fdir_supervised_restarts",
                               partition=partition).set(restarts)
        if pmk.watchdog is not None:
            registry.gauge("air_watchdog_kicks").set(pmk.watchdog.kicks)
            registry.gauge("air_watchdog_expired").set(
                pmk.watchdog.expiries)
        return registry


def instrument(simulator, *, replay: bool = False) -> SimulatorMetrics:
    """Attach live metrics to *simulator*; returns the observer.

    Call before running; read ``observer.collect().to_json()`` after.

    *replay* feeds the events already in the simulator's trace through
    the observer before going live — the way to instrument a simulator
    restored from a :class:`~repro.kernel.snapshot.SimulatorSnapshot`:
    the restored trace holds the pre-checkpoint events, so replaying them
    makes the registry digest equal a cold run instrumented from tick 0
    (component-counter gauges come from ``collect()`` and are captured by
    the snapshot already).
    """
    metrics = SimulatorMetrics(simulator)
    if replay:
        observe = metrics._observe
        for event in simulator.trace:
            observe(event)
    return metrics
