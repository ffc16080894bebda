"""Campaign results: per-scenario summaries and deterministic aggregation.

A :class:`ScenarioResult` is the compact record a worker ships back across
the process boundary instead of the full trace: counters, window occupancy
and the trace's content digest (:meth:`repro.kernel.trace.Trace.summary`).
Aggregation is *deterministic by construction*: results are keyed and
ordered by scenario id, wall-clock timings are kept out of the
deterministic report, and the whole campaign collapses to one
``campaign_digest`` — the invariant the pool runner is tested against
(identical bytes for any worker count and chunking).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "ScenarioResult",
    "aggregate",
    "canonical_execution_telemetry",
    "deterministic_report",
    "report_json",
    "render_summary",
    "percentile",
]

#: The fixed top-level key set of the canonicalized ``timing.execution``
#: sidecar — every key always present (None when the runner produced no
#: such section), so sidecar diffs across runs compare like for like.
EXECUTION_TELEMETRY_KEYS = ("prefix_tree", "telemetry_stream",
                            "cycle_cache", "workers")

#: Scenario completion states.
STATUS_OK = "ok"
STATUS_CRASHED = "crashed"
STATUS_TIMEOUT = "timeout"


@dataclass(frozen=True)
class ScenarioResult:
    """What one scenario produced — everything the aggregate needs.

    ``wall_time_s`` and ``forked_at_tick`` are the only nondeterministic
    fields (cache contents depend on scheduling order, wall time on the
    host); every consumer of the determinism invariant must go through
    :meth:`to_dict` (which excludes them) or :func:`deterministic_report`.
    """

    scenario_id: str
    seed: int
    status: str
    ticks: int = 0
    deadline_misses: int = 0
    hm_events: int = 0
    schedule_switches: int = 0
    memory_faults: int = 0
    faults_applied: int = 0
    #: The injector's log, compacted to ``(tick, fault kind, status)`` —
    #: what was actually applied, correlatable with the trace.
    injections: Tuple[Tuple[int, str, str], ...] = ()
    trace_events: int = 0
    trace_digest: str = ""
    occupancy: Tuple[Tuple[str, int], ...] = ()
    #: Compact deterministic metric pairs (:func:`repro.obs.compact_metrics`).
    metrics: Tuple[Tuple[str, int], ...] = ()
    error: str = ""
    #: Per-node inter-node fabric counters for constellation scenarios:
    #: ``(("n0", (("sent", 12), ...)), ...)`` keyed by
    #: :data:`repro.constellation.comm.NODE_COMM_STAT_KEYS`.  Empty for
    #: single-node scenarios (and then absent from :meth:`to_dict`, so
    #: historical report bytes are unchanged).
    node_comm: Tuple[Tuple[str, Tuple[Tuple[str, int], ...]], ...] = ()
    wall_time_s: float = 0.0
    #: Tick this run forked from a cached prefix snapshot (``-1`` = cold
    #: run).  Which runs fork depends on cache state, not on the scenario,
    #: so this lives with the timing sidecar, never in the digest.
    forked_at_tick: int = -1

    @property
    def ok(self) -> bool:
        """True if the scenario ran to its horizon without failure."""
        return self.status == STATUS_OK

    def to_dict(self, *, include_timing: bool = False) -> Dict[str, Any]:
        """JSON-compatible record; timing only on request (nondeterministic)."""
        record: Dict[str, Any] = {
            "id": self.scenario_id,
            "seed": self.seed,
            "status": self.status,
            "ticks": self.ticks,
            "deadline_misses": self.deadline_misses,
            "hm_events": self.hm_events,
            "schedule_switches": self.schedule_switches,
            "memory_faults": self.memory_faults,
            "faults_applied": self.faults_applied,
            "injections": [
                {"tick": tick, "fault": kind, "status": status}
                for tick, kind, status in self.injections],
            "trace_events": self.trace_events,
            "trace_digest": self.trace_digest,
            "occupancy": {partition: ticks
                          for partition, ticks in self.occupancy},
            "metrics": {name: value for name, value in self.metrics},
            "error": self.error,
        }
        if self.node_comm:
            record["node_comm"] = {
                node: {name: value for name, value in stats}
                for node, stats in self.node_comm}
        if include_timing:
            record["wall_time_s"] = self.wall_time_s
            record["forked_at_tick"] = self.forked_at_tick
        return record


def percentile(values: Sequence[int], fraction: float) -> int:
    """Nearest-rank percentile of *values* (deterministic, no interpolation)."""
    if not values:
        return 0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in [0, 1], "
                         f"got {fraction}")
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def _distribution(values: Sequence[int]) -> Dict[str, int]:
    return {
        "p50": percentile(values, 0.50),
        "p90": percentile(values, 0.90),
        "p99": percentile(values, 0.99),
        "max": max(values) if values else 0,
    }


def aggregate(results: Sequence[ScenarioResult]) -> Dict[str, Any]:
    """Deterministic campaign aggregate, keyed by scenario id order.

    Identical result sets produce byte-identical aggregates regardless of
    the order workers delivered them in — the pool runner's invariant.
    """
    ordered = sorted(results, key=lambda result: result.scenario_id)
    statuses: Dict[str, int] = {}
    for result in ordered:
        statuses[result.status] = statuses.get(result.status, 0) + 1
    totals = {
        "ticks": sum(r.ticks for r in ordered),
        "deadline_misses": sum(r.deadline_misses for r in ordered),
        "hm_events": sum(r.hm_events for r in ordered),
        "schedule_switches": sum(r.schedule_switches for r in ordered),
        "memory_faults": sum(r.memory_faults for r in ordered),
        "faults_applied": sum(r.faults_applied for r in ordered),
        "trace_events": sum(r.trace_events for r in ordered),
    }
    digest = hashlib.sha256("|".join(
        f"{r.scenario_id}:{r.status}:{r.trace_digest}:"
        + ";".join(f"{tick}@{kind}={status}"
                   for tick, kind, status in r.injections)
        for r in ordered).encode("utf-8")).hexdigest()[:16]
    # Cross-scenario distributions of the compact metric pairs each
    # worker computed (repro.obs.compact_metrics): folded in scenario-id
    # order, so the section inherits the byte-identity invariant.
    metric_samples: Dict[str, List[int]] = {}
    for result in ordered:
        for name, value in result.metrics:
            metric_samples.setdefault(name, []).append(value)
    metrics = {
        name: dict(_distribution(values), total=sum(values))
        for name, values in sorted(metric_samples.items())}
    return {
        "scenarios": len(ordered),
        "status": dict(sorted(statuses.items())),
        "totals": totals,
        "deadline_misses": _distribution(
            [r.deadline_misses for r in ordered]),
        "trace_events": _distribution([r.trace_events for r in ordered]),
        "metrics": metrics,
        "campaign_digest": digest,
    }


def deterministic_report(results: Sequence[ScenarioResult]
                         ) -> Dict[str, Any]:
    """Aggregate + per-scenario records, with every timing field excluded."""
    ordered = sorted(results, key=lambda result: result.scenario_id)
    return {
        "aggregate": aggregate(ordered),
        "scenarios": [result.to_dict() for result in ordered],
    }


def canonical_execution_telemetry(
        telemetry: Mapping[str, Any]) -> Dict[str, Any]:
    """Canonical form of the runner's execution-telemetry sidecar.

    The raw dict the runner fills is keyed by whatever execution produced
    — most damagingly, the per-worker section is keyed by *pid*, so two
    otherwise identical runs never diff clean.  Canonicalization pins the
    shape:

    * the top level always carries exactly
      :data:`EXECUTION_TELEMETRY_KEYS` (missing sections become None);
    * worker entries are renamed ``worker-00``, ``worker-01``, ... in
      sorted original-key order (pids are monotonic per campaign, so the
      renumbering is stable within a run and comparable across runs;
      the nondeterministic pid itself is preserved *inside* the entry);
    * everything else is passed through untouched.

    The values stay nondeterministic (they are timing-channel material);
    only the key structure is stabilized, which is what makes sidecar
    diffs meaningful.
    """
    canonical: Dict[str, Any] = {
        key: telemetry.get(key) for key in EXECUTION_TELEMETRY_KEYS}
    workers = telemetry.get("workers")
    if workers:
        renamed: Dict[str, Any] = {}
        for index, key in enumerate(sorted(workers)):
            entry = workers[key]
            if isinstance(entry, Mapping):
                entry = dict(entry)
                entry.setdefault("label", key)
            renamed[f"worker-{index:02d}"] = entry
        canonical["workers"] = renamed
    return canonical


def report_json(results: Sequence[ScenarioResult], *,
                include_timing: bool = False,
                meta: Optional[Mapping[str, Any]] = None,
                telemetry: Optional[Mapping[str, Any]] = None) -> str:
    """The campaign report as canonical JSON.

    Without *include_timing* (and *meta*) the bytes depend only on the
    scenario results — the form the determinism tests compare.
    *telemetry* (the runner's execution-telemetry dict: divergence-trie
    shape, per-worker cache counters, telemetry-stream counters) is
    nondeterministic sidecar material and only emitted with timing, in
    the stable key order of
    :func:`canonical_execution_telemetry`.
    """
    document: Dict[str, Any] = deterministic_report(results)
    if include_timing:
        ordered = sorted(results, key=lambda result: result.scenario_id)
        document["timing"] = {
            "total_wall_time_s": sum(r.wall_time_s for r in ordered),
            "per_scenario_wall_time_s": {
                r.scenario_id: r.wall_time_s for r in ordered},
            "prefix_cache": {
                "forked_scenarios": sum(
                    1 for r in ordered if r.forked_at_tick >= 0),
                "ticks_skipped": sum(
                    max(r.forked_at_tick, 0) for r in ordered),
                "per_scenario_forked_at": {
                    r.scenario_id: r.forked_at_tick for r in ordered},
            },
        }
        if telemetry:
            document["timing"]["execution"] = \
                canonical_execution_telemetry(telemetry)
    if meta:
        document["meta"] = dict(meta)
    return json.dumps(document, sort_keys=True, indent=2)


def render_summary(results: Sequence[ScenarioResult]) -> str:
    """Human-readable campaign summary (the CLI's stdout)."""
    summary = aggregate(results)
    lines = [
        f"campaign: {summary['scenarios']} scenarios, "
        + ", ".join(f"{count} {status}"
                    for status, count in summary["status"].items()),
        f"  simulated ticks : {summary['totals']['ticks']}",
        f"  deadline misses : {summary['totals']['deadline_misses']} "
        f"(p50 {summary['deadline_misses']['p50']}, "
        f"max {summary['deadline_misses']['max']})",
        f"  HM events       : {summary['totals']['hm_events']}",
        f"  schedule switches: {summary['totals']['schedule_switches']}",
        f"  memory faults   : {summary['totals']['memory_faults']}",
        f"  faults applied  : {summary['totals']['faults_applied']}",
        f"  campaign digest : {summary['campaign_digest']}",
    ]
    failures = [r for r in sorted(results, key=lambda r: r.scenario_id)
                if not r.ok]
    for result in failures[:10]:
        lines.append(f"  FAILED {result.scenario_id} "
                     f"[{result.status}]: {result.error}")
    if len(failures) > 10:
        lines.append(f"  ... and {len(failures) - 10} more failures")
    return "\n".join(lines)
