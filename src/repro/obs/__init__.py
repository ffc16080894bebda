"""Observability: deterministic telemetry for the simulated AIR system.

DESIGN decision 6.  Six pieces:

* :mod:`repro.obs.metrics` — deterministic instruments (counters, gauges,
  fixed-bucket histograms) timestamped in simulated ticks;
* :mod:`repro.obs.fold` — every per-event quantity, declared once as a
  fold over trace events; the next two modules are its views;
* :mod:`repro.obs.instrument` — the fold read from a cursor into a
  running :class:`~repro.kernel.simulator.Simulator`'s trace, rendered
  as a registry;
* :mod:`repro.obs.derived` — paper-level quantities recomputed offline
  from any saved :class:`~repro.kernel.trace.Trace`, and the campaign's
  compact metric pairs;
* :mod:`repro.obs.timeline` — Chrome trace-event / Perfetto JSON export;
* :mod:`repro.obs.telemetry` — the campaign telemetry bus: governed
  topic namespace, live worker streaming, crash flight recorder
  (DESIGN decision 11).

Host time never enters the metrics registry: ``repro run --profile``
reports it per module through cProfile, next to the simulator's
host-side ``event_core_stats`` and ``cycle_cache_stats`` counters.
"""

from .derived import COMPACT_METRIC_NAMES, compact_metrics, \
    derived_metrics, derived_to_json
from .instrument import AIR_INSTRUMENTS, SimulatorMetrics, instrument
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .timeline import save_timeline, to_chrome_trace

__all__ = [
    "AIR_INSTRUMENTS",
    "COMPACT_METRIC_NAMES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "SimulatorMetrics",
    "instrument",
    "derived_metrics",
    "derived_to_json",
    "compact_metrics",
    "to_chrome_trace",
    "save_timeline",
]
