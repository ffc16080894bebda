"""Live instrumentation: the metrics fold as a deterministic registry.

:class:`SimulatorMetrics` keeps a cursor into the simulator's
:class:`Trace` and, whenever it is read, folds the events recorded since
(:mod:`repro.obs.fold`); :meth:`collect` renders the fold state as
registry instruments — partition/process
dispatch counters, the Algorithm 3 detection-latency histogram, channel
delivery latencies and queue depths, HM classifications, memory faults —
and snapshots the component-level counters that do not flow through the
trace (scheduler/dispatcher stats, deadline-monitor check counts, MMU
access/fault totals, PMK occupancy).

Determinism: every input is either a trace event (bit-identical between
``run`` and ``run_fast`` by the fast-skip equivalence suite) or a counter
kept batch-identical by the event core's ``batch_account`` paths — so the
serialized registry is byte-identical across execution modes, runs and
campaign worker counts.  Host-time quantities never enter the registry;
``repro run --profile`` reports them per module through cProfile.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict

from .fold import COUNTERS, SAMPLES, MetricsState, entries, fold
from .metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

__all__ = ["AIR_INSTRUMENTS", "SimulatorMetrics", "instrument"]

#: Queue-depth histogram bounds (the depth rule is at
#: :func:`repro.obs.fold._port_received`).
QUEUE_DEPTH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64)

#: The fold sample tables rendered as histograms, with their bounds.
HISTOGRAM_BOUNDS: Dict[str, tuple] = {
    "deadline_detection_latency_ticks": DEFAULT_LATENCY_BUCKETS,
    "port_delivery_latency_ticks": DEFAULT_LATENCY_BUCKETS,
    "port_queue_depth": QUEUE_DEPTH_BUCKETS,
}

#: The authoritative instrument inventory: every metric name this module
#: can register, mapped to ``(kind, units)``.  The governed telemetry
#: namespace (:mod:`repro.obs.telemetry.topics`) derives its ``air/...``
#: topic set from this table, and ``tests/obs`` pins that every name
#: ``collect()`` renders appears here — add an instrument without listing
#: it and the governance tests fail, not production.
AIR_INSTRUMENTS: Dict[str, tuple] = {
    # per-event counters: the fold's counter tables
    **{f"air_{table}_total": ("counter", units)
       for table, (units, _) in COUNTERS.items()},
    # distributions (fold sample tables; queue depth and in-flight
    # follow the depth rule at repro.obs.fold._port_received)
    "air_deadline_detection_latency_ticks": ("histogram", "ticks"),
    "air_port_queue_depth": ("histogram", "messages"),
    "air_port_delivery_latency_ticks": ("histogram", "ticks"),
    # component-counter snapshots (collect()), and the fold's in-flight
    # depth per port
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
    """Live view of the metrics fold (:mod:`repro.obs.fold`) over a
    simulator's trace, rendered as a deterministic registry.

    The view counts the events recorded after its construction: it
    starts its cursor at the log's current length and folds the log from
    there each time :attr:`state` is read.
    """

    def __init__(self, simulator) -> None:
        self.simulator = simulator
        self._state = MetricsState()
        # Log index of the first event not yet folded into the state.
        self._folded = len(simulator.trace)

    @property
    def state(self) -> MetricsState:
        """The fold state, caught up with the log."""
        trace = self.simulator.trace
        if self._folded < len(trace):
            fold(self._state, islice(trace, self._folded, None))
            self._folded = len(trace)
        return self._state

    @property
    def registry(self) -> MetricsRegistry:
        """The registry as of now (:meth:`collect`), for live displays."""
        return self.collect()

    def collect(self) -> MetricsRegistry:
        """Render the fold state (caught up with the log first) and the
        component counters as a fresh registry.

        Counter table ``<name>`` renders as ``air_<name>_total``, sample
        table ``<name>`` as the histogram ``air_<name>`` (the tables in
        :data:`HISTOGRAM_BOUNDS`), and ``port_in_flight`` as the gauge
        ``air_port_in_flight``.  The component counters are
        batch-identical between per-tick and event-core execution
        (``SchedulerStats.batch_account`` et al.), so collecting after
        equivalent runs yields equal registries.
        """
        registry = MetricsRegistry()
        state = self.state
        for table, (_, labels) in COUNTERS.items():
            name = f"air_{table}_total"
            for values, count in entries(getattr(state, table), len(labels)):
                registry.counter(name, **dict(zip(labels, values))).inc(count)
        for table, bounds in HISTOGRAM_BOUNDS.items():
            label = SAMPLES[table]
            for value, samples in getattr(state, table).items():
                histogram = registry.histogram(f"air_{table}", bounds,
                                               **{label: value})
                for sample in samples:
                    histogram.observe(sample)
        for port, depth in state.port_in_flight.items():
            registry.gauge("air_port_in_flight", port=port).set(depth)

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
    """Attach live metrics to *simulator*; returns the metrics view.

    Call before running; read ``metrics.collect().to_json()`` after.

    *replay* starts the cursor at the head of the log, so the events
    already in the simulator's trace are folded too — the way to
    instrument a simulator after its run, or one restored from a
    :class:`~repro.kernel.snapshot.SimulatorSnapshot`: the restored trace
    holds the pre-checkpoint events, so folding them makes the registry
    digest equal a cold run instrumented from tick 0 (component-counter
    gauges come from ``collect()`` and are captured by the snapshot
    already).
    """
    metrics = SimulatorMetrics(simulator)
    if replay:
        metrics._folded = 0
    return metrics
