"""The constellation part of the campaign's one scenario lifecycle.

:func:`repro.campaign.runner.run_scenario` runs every scenario — wall
clock, lifecycle events, abort poll, exception capture, oracle downgrade,
flight-recorder bundle, artifact export and result assembly — and hands
a :class:`~repro.constellation.scenarios.ConstellationScenario` to a
:class:`ConstellationRun` for what differs: build the fleet and schedule
its cross-node and per-node faults, run the lockstep loop to the horizon,
audit with *both* oracles — the per-node TSP invariants over every node's
trace and the cross-node invariants over the fabric's observation log —
and compact the fleet into one
:class:`~repro.campaign.results.ScenarioResult`'s kind-specific fields.
The result's ``trace_digest`` is the constellation's *combined* digest
(node traces + fabric events + protocol record), so campaign digests
inherit byte-identity across worker counts from the lockstep loop's
determinism.

``check_trace``, ``compact_metrics`` and ``check_constellation`` are
looked up in this module's namespace at call time, so instrumentation
that patches them here sees every constellation audit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..fdir.oracle import InvariantViolation, check_trace
from ..obs.derived import combine_compact, compact_metrics
from ..obs.fold import MetricsState
from .constellation import Constellation
from .oracle import check_constellation
from .scenarios import ConstellationScenario

__all__ = ["ConstellationRun"]


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


class ConstellationRun:
    """One constellation scenario's part in the campaign lifecycle.

    Constellations never fork: N snapshots plus fabric and protocol
    state is not a :class:`~repro.kernel.snapshot.SimulatorSnapshot`, so
    ``forked_at`` stays ``-1``.
    """

    forked_at = -1

    def __init__(self, scenario: ConstellationScenario) -> None:
        self.scenario = scenario
        self.constellation: Optional[Constellation] = None

    def build(self) -> None:
        self.constellation = Constellation(
            self.scenario.constellation, self.scenario.seed)

    def schedule(self) -> None:
        constellation = self.constellation
        for tick, fault in self.scenario.faults:
            constellation.schedule_fault(tick, fault)
        for node_index, tick, fault in self.scenario.node_faults:
            constellation.nodes[node_index].injector.schedule(tick, fault)

    @property
    def now(self) -> int:
        return self.constellation.now

    def advance(self, should_abort) -> bool:
        return self.constellation.run(self.scenario.ticks,
                                      should_abort=should_abort)

    def audit(self) -> List[InvariantViolation]:
        """Per-node TSP invariants first (each node must be as sound as
        a single-node run), then the cross-node invariants."""
        constellation = self.constellation
        violations: List[InvariantViolation] = []
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
            self.scenario.constellation, end_tick=constellation.now,
            final_backlog=constellation.comm.backlog()))
        return violations

    def simulators(self):
        """``(artifact label, simulator)`` per node: ``<id>.n<i>``."""
        if self.constellation is None:
            return []
        return [(f"{self.scenario.scenario_id}.n{node.index}",
                 node.simulator) for node in self.constellation.nodes]

    def bundle_kwargs(self, violations) -> Dict[str, object]:
        """The failing node and the inter-node backlog census."""
        constellation = self.constellation
        if constellation is None:
            return {}
        node_id = _failing_node(violations, constellation)
        node = constellation.nodes[node_id or 0]
        backlog = dict(
            {f"node{n.index}": constellation.comm.backlog(n.index)
             for n in constellation.nodes},
            total=constellation.comm.backlog())
        return {"simulator": node.simulator, "injector": node.injector,
                "node_id": node_id, "internode_backlog": backlog}

    def metrics(self):
        """``(fleet-wide compact pairs, one fold state per node)``.

        Each pair combines the nodes' values by the rule it declares
        (:data:`~repro.obs.derived.COMPACT_QUANTITIES`), so the fleet
        stays inside the governed
        :data:`~repro.obs.derived.COMPACT_METRIC_NAMES` key set and the
        campaign metric topics need no constellation-specific variants.
        """
        states = [MetricsState() for _ in self.constellation.nodes]
        return combine_compact([
            compact_metrics(node.simulator.trace, state)
            for node, state in zip(self.constellation.nodes, states)]), \
            states

    def result_fields(self) -> Dict[str, object]:
        constellation = self.constellation
        nodes = constellation.nodes
        occupancy = []
        for node in nodes:
            for partition, ticks in sorted(
                    node.simulator.pmk.partition_ticks.items()):
                occupancy.append((f"n{node.index}/{partition}", ticks))
        return {
            "faults_applied": (len(constellation.fault_log)
                               + sum(len(node.injector.log)
                                     for node in nodes)),
            "injections": _merge_injections(constellation),
            "trace_events": sum(len(node.simulator.trace) for node in nodes),
            "trace_digest": constellation.combined_digest(),
            "occupancy": tuple(occupancy),
            "node_comm": tuple(
                (f"n{node.index}", tuple(sorted(
                    constellation.comm.node_stats(node.index).items())))
                for node in nodes),
        }

    def publish(self, publisher) -> None:
        """The governed node/<id>/* stream: final roles, crash events and
        per-directed-link fabric counters (timing channel — the
        deterministic per-node record rides in ``node_comm`` instead)."""
        constellation = self.constellation
        for event in constellation.protocol_events:
            if event.get("event") == "node-crashed":
                publisher.node_crashed(event["node"], event["tick"],
                                       event["role"])
        for node in constellation.nodes:
            publisher.node_role(node.index, node.role, node.epoch)
            for peer in range(self.scenario.constellation.nodes):
                if peer != node.index:
                    publisher.node_link_stats(
                        node.index, peer,
                        constellation.comm.link_stats(node.index, peer))
