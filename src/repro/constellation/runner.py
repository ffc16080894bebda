"""Constellation scenario execution: one unit of campaign work.

:func:`run_constellation_scenario` is to a
:class:`~repro.constellation.scenarios.ConstellationScenario` what
:func:`repro.campaign.runner.run_scenario` is to a single-node scenario:
build the fleet, schedule its cross-node and per-node faults, run the
lockstep loop to the horizon (absorbing crashes and wall-clock
timeouts), audit with *both* oracles — the per-node TSP invariants over
every node's trace and the cross-node invariants over the fabric's
observation log — and compact everything into one
:class:`~repro.campaign.results.ScenarioResult`.  The result's
``trace_digest`` is the constellation's *combined* digest (node traces +
fabric events + protocol record), so campaign digests inherit
byte-identity across worker counts from the lockstep loop's
determinism.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..campaign.artifacts import ScenarioArtifacts
from ..campaign.results import (
    STATUS_CRASHED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ScenarioResult,
)
from ..fdir.oracle import InvariantViolation, check_trace
from ..kernel.trace import MemoryFault, ScheduleSwitched
from ..obs.derived import compact_metrics
from .constellation import Constellation
from .oracle import check_constellation
from .scenarios import ConstellationScenario

__all__ = ["run_constellation_scenario"]


def _failing_node(violations: Sequence[InvariantViolation],
                  constellation: Constellation) -> Optional[int]:
    """The node to stamp on the crash bundle: first named by a violation
    (``node<i>`` or a per-node trace audit), else the first crashed one."""
    for violation in violations:
        where = violation.partition or ""
        if where.startswith("node") and where[4:].isdigit():
            return int(where[4:])
    for event in constellation.protocol_events:
        if event.get("event") == "node-crashed":
            return event["node"]
    return None


def _record_failure(scenario: ConstellationScenario, *, status: str,
                    error: str, violations: Sequence = (),
                    constellation: Optional[Constellation] = None,
                    publisher=None,
                    artifacts: Optional[ScenarioArtifacts] = None) -> None:
    """Failure-path observability (best effort, never masks the error)."""
    path = None
    if artifacts is not None and artifacts.flight_recorder_dir is not None:
        from ..obs.telemetry.recorder import (
            flight_record,
            save_flight_record,
        )

        node_id = None
        simulator = None
        injector = None
        backlog = None
        if constellation is not None:
            node_id = _failing_node(violations, constellation)
            node = constellation.nodes[node_id or 0]
            simulator = node.simulator
            injector = node.injector
            backlog = dict(
                {f"node{n.index}": constellation.comm.backlog(n.index)
                 for n in constellation.nodes},
                total=constellation.comm.backlog())
        bundle = flight_record(
            scenario, status=status, error=error, violations=violations,
            simulator=simulator, injector=injector,
            node_id=node_id, internode_backlog=backlog,
            last_n=artifacts.flight_record_last_n)
        path = save_flight_record(bundle, artifacts.flight_recorder_dir)
    if publisher is not None:
        publisher.scenario_crashed(scenario.scenario_id, error)
        if path is not None:
            publisher.flight_record(scenario.scenario_id, path)


def _merge_injections(constellation: Constellation
                      ) -> Tuple[Tuple[int, str, str], ...]:
    """Cross-node and per-node injections in one deterministic order.

    Per-node fault kinds are prefixed ``n<i>:`` so the campaign digest
    (which folds injections in) distinguishes *which* node took a fault.
    """
    merged: List[Tuple[int, str, str]] = []
    for tick, fault, status in constellation.fault_log:
        merged.append((tick, type(fault).__name__, status))
    for node in constellation.nodes:
        for record in node.injector.log:
            merged.append((record.tick,
                           f"n{node.index}:{type(record.fault).__name__}",
                           record.status))
    merged.sort(key=lambda entry: (entry[0], entry[1]))
    return tuple(merged)


def _sum_metrics(constellation: Constellation, tally: Dict[type, int]
                 ) -> Tuple[Tuple[str, int], ...]:
    """Fleet-wide compact metrics: per-name sum (max for ``*_max``).

    Stays inside the governed
    :data:`~repro.obs.derived.COMPACT_METRIC_NAMES` key set, so the
    campaign metric topics need no constellation-specific variants.
    *tally* sums fleet-wide like the pairs (see :func:`compact_metrics`).
    """
    folded = {}
    for node in constellation.nodes:
        for name, value in compact_metrics(node.simulator.trace, tally):
            if name.endswith("_max"):
                folded[name] = max(folded.get(name, 0), value)
            else:
                folded[name] = folded.get(name, 0) + value
    return tuple(sorted(folded.items()))


def run_constellation_scenario(
        scenario: ConstellationScenario, *,
        timeout_s: Optional[float] = None,
        check_interval: int = 20_000,
        cycle_cache: Optional[bool] = None,
        publisher=None,
        artifacts: Optional[ScenarioArtifacts] = None) -> ScenarioResult:
    """Execute one constellation scenario to completion, failure or timeout.

    Mirrors :func:`repro.campaign.runner.run_scenario`'s contract: every
    exception degrades to a ``crashed`` result, a blown wall-clock budget
    to ``timeout``, and (unless ``oracle=False``) both the per-node TSP
    oracle and the cross-node oracle audit the finished run — any
    violation downgrades it to ``crashed`` with the details in ``error``.
    """
    start = time.perf_counter()
    if check_interval < 1:
        raise ValueError(
            f"check_interval must be >= 1, got {check_interval}")
    constellation = None
    if publisher is not None:
        publisher.scenario_started(scenario.scenario_id, scenario.ticks)
    try:
        constellation = Constellation(scenario.constellation, scenario.seed,
                                      cycle_cache=cycle_cache)
        for tick, fault in scenario.faults:
            constellation.schedule_fault(tick, fault)
        for node_index, tick, fault in scenario.node_faults:
            constellation.nodes[node_index].injector.schedule(tick, fault)
        should_abort = None
        if timeout_s is not None:
            deadline = start + timeout_s
            should_abort = lambda: time.perf_counter() > deadline
        if publisher is not None:
            inner_abort = should_abort
            live = constellation

            def should_abort() -> bool:
                publisher.scenario_progress(
                    scenario.scenario_id, live.now, scenario.ticks)
                return inner_abort() if inner_abort is not None else False
        completed = constellation.run(scenario.ticks,
                                      should_abort=should_abort,
                                      check_interval=check_interval)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        result = ScenarioResult(
            scenario_id=scenario.scenario_id,
            seed=scenario.seed,
            status=STATUS_CRASHED,
            error=error,
            wall_time_s=time.perf_counter() - start,
        )
        _record_failure(scenario, status=STATUS_CRASHED, error=error,
                        constellation=constellation, publisher=publisher,
                        artifacts=artifacts)
        if publisher is not None:
            publisher.scenario_finished(
                scenario.scenario_id, STATUS_CRASHED,
                result.wall_time_s, -1)
        return result
    status = STATUS_OK if completed else STATUS_TIMEOUT
    error = "" if completed else \
        f"exceeded {timeout_s}s wall-clock budget at tick " \
        f"{constellation.now}"
    violations: List[InvariantViolation] = []
    if completed and scenario.oracle:
        # Per-node TSP invariants first (each node must be as sound as a
        # single-node run), then the cross-node invariants.
        for node, config in zip(constellation.nodes,
                                constellation.system_configs):
            for violation in check_trace(node.simulator.trace, config):
                violations.append(InvariantViolation(
                    invariant=violation.invariant, tick=violation.tick,
                    detail=f"[node{node.index}] {violation.detail}",
                    partition=f"node{node.index}",
                    process=violation.process))
        violations.extend(check_constellation(
            constellation.comm.events, constellation.protocol_events,
            scenario.constellation, end_tick=constellation.now,
            final_backlog=constellation.comm.backlog()))
        if violations:
            status = STATUS_CRASHED
            error = (f"oracle: {len(violations)} invariant violation(s); "
                     + "; ".join(
                         f"{v.invariant}@{v.tick}: {v.detail}"
                         for v in violations[:3]))
    if status == STATUS_CRASHED:
        _record_failure(scenario, status=status, error=error,
                        violations=violations,
                        constellation=constellation, publisher=publisher,
                        artifacts=artifacts)
    traces = [node.simulator.trace for node in constellation.nodes]
    tally = {ScheduleSwitched: 0, MemoryFault: 0}
    metrics = _sum_metrics(constellation, tally)
    counts = dict(metrics)
    occupancy = []
    for node in constellation.nodes:
        for partition, ticks in sorted(
                node.simulator.pmk.partition_ticks.items()):
            occupancy.append((f"n{node.index}/{partition}", ticks))
    node_comm = tuple(
        (f"n{node.index}",
         tuple(sorted(constellation.comm.node_stats(node.index).items())))
        for node in constellation.nodes)
    if publisher is not None:
        # Governed node/<id>/* stream: final roles, crash events and
        # per-directed-link fabric counters (timing channel — the
        # deterministic per-node record rides in node_comm instead).
        for event in constellation.protocol_events:
            if event.get("event") == "node-crashed":
                publisher.node_crashed(event["node"], event["tick"],
                                       event["role"])
        for node in constellation.nodes:
            publisher.node_role(node.index, node.role, node.epoch)
            for peer in range(scenario.constellation.nodes):
                if peer != node.index:
                    publisher.node_link_stats(
                        node.index, peer,
                        constellation.comm.link_stats(node.index, peer))
    result = ScenarioResult(
        scenario_id=scenario.scenario_id,
        seed=scenario.seed,
        status=status,
        ticks=constellation.now,
        deadline_misses=counts["deadline_misses"],
        hm_events=counts["hm_events"],
        schedule_switches=tally[ScheduleSwitched],
        memory_faults=tally[MemoryFault],
        faults_applied=(len(constellation.fault_log)
                        + sum(len(node.injector.log)
                              for node in constellation.nodes)),
        injections=_merge_injections(constellation),
        trace_events=sum(len(t) for t in traces),
        trace_digest=constellation.combined_digest(),
        occupancy=tuple(occupancy),
        metrics=metrics,
        error=error,
        node_comm=node_comm,
        wall_time_s=time.perf_counter() - start,
    )
    if publisher is not None:
        publisher.scenario_finished(scenario.scenario_id, status,
                                    result.wall_time_s, -1)
    return result
