"""Constellation runner + campaign integration tests.

The expensive acceptance sweep (50 scenarios x workers {1,2,4}) lives in
CI's constellation-smoke job; here a smaller barrage
proves the same invariants so the suite stays fast.
"""

import json

import pytest

from repro.apps.prototype import MTF
from repro.campaign.results import STATUS_CRASHED, STATUS_OK, aggregate
from repro.campaign.runner import run_campaign, run_scenario
from repro.campaign.scenarios import load_campaign_spec
from repro.constellation import (
    Constellation,
    ConstellationConfig,
    ConstellationScenario,
    NODE_COMM_STAT_KEYS,
    SilentNodeFault,
    constellation_campaign,
    constellation_scenario_to_dict,
    failover_drill,
)
from repro.fault.faults import MemoryViolationFault

from ..conftest import cycle_cache_off


def drill():
    return failover_drill(nodes=3, seed=0, mtfs=8)


class TestRunner:
    def test_drill_result_shape(self):
        result = run_scenario(drill())
        assert result.status == STATUS_OK
        assert result.ticks == 8 * MTF
        assert result.error == ""
        assert len(result.trace_digest) == 16
        # One merged injection: the cross-node silence.
        assert [(kind, status.split(" ")[0]) for _, kind, status in
                result.injections] == [("SilentNodeFault", "node")]
        # Per-node fabric stats under governed keys, all three nodes.
        assert [node for node, _ in result.node_comm] == ["n0", "n1", "n2"]
        for _, stats in result.node_comm:
            assert {name for name, _ in stats} == set(NODE_COMM_STAT_KEYS)
        # Occupancy is namespaced per node.
        assert all(name.startswith("n") and "/" in name
                   for name, _ in result.occupancy)

    def test_node_faults_prefixed_in_injections(self):
        scenario = ConstellationScenario(
            scenario_id="xt-nf", ticks=4 * MTF,
            constellation=ConstellationConfig(nodes=2),
            node_faults=((1, MTF, MemoryViolationFault("P2")),))
        result = run_scenario(scenario)
        kinds = [kind for _, kind, _ in result.injections]
        assert "n1:MemoryViolationFault" in kinds

    def test_oracle_violation_downgrades_to_crashed(self):
        # An impossible failover deadline turns the clean drill into an
        # oracle failure.
        scenario = failover_drill(seed=0, mtfs=8)
        tight = ConstellationConfig(
            **dict(scenario.constellation.to_dict(), failover_deadline=10))
        scenario = ConstellationScenario(
            scenario_id="xt-tight", seed=0, ticks=scenario.ticks,
            constellation=tight, faults=scenario.faults)
        result = run_scenario(scenario)
        assert result.status == STATUS_CRASHED
        assert "failover-deadline" in result.error

    def test_oracle_off_keeps_ok(self):
        scenario = failover_drill(seed=0, mtfs=8)
        tight = ConstellationConfig(
            **dict(scenario.constellation.to_dict(), failover_deadline=10))
        scenario = ConstellationScenario(
            scenario_id="xt-tight-off", seed=0, ticks=scenario.ticks,
            constellation=tight, faults=scenario.faults, oracle=False)
        assert run_scenario(scenario).status == STATUS_OK

    def test_timeout_degrades(self):
        result = run_scenario(drill(), timeout_s=0.0)
        assert result.status == "timeout"
        assert "wall-clock" in result.error


class TestCampaignIntegration:
    def test_digest_identical_across_workers(self):
        scenarios = constellation_campaign(count=6, base_seed=0)
        reports = []
        for workers in (1, 2):
            results = run_campaign(scenarios, workers=workers)
            assert all(r.status == STATUS_OK for r in results), [
                (r.scenario_id, r.error) for r in results
                if r.status != STATUS_OK]
            reports.append(json.dumps(aggregate(results), sort_keys=True))
        assert len(set(reports)) == 1

    def test_digests_identical_with_cycle_cache_on_and_off(
            self, monkeypatch):
        # Constellation nodes are armed like every other simulator; a
        # cache-off reference run of them changes no digest.
        def run(armed):
            constellation = Constellation(
                ConstellationConfig(nodes=3, loss_probability=0.05),
                seed=11)
            constellation.schedule_fault(MTF, SilentNodeFault(node=0))
            constellation.run(6 * MTF)
            assert [node.simulator.cycle_cache_stats is not None
                    for node in constellation.nodes] == [armed] * 3
            report = json.dumps(aggregate(run_campaign(
                constellation_campaign(count=4, base_seed=0))),
                sort_keys=True)
            return ([node.simulator.trace.digest()
                     for node in constellation.nodes],
                    constellation.combined_digest(), report)

        cached = run(True)
        with monkeypatch.context() as patch:
            cycle_cache_off(patch)
            reference = run(False)
        assert cached == reference

    def test_mixed_spec_loads_both_kinds(self, tmp_path):
        from repro.campaign.scenarios import (
            chaos_campaign,
            scenario_to_dict,
        )

        single = chaos_campaign(count=1, mtfs=4)[0]
        spec = {"scenarios": [
            scenario_to_dict(single),
            constellation_scenario_to_dict(drill()),
        ]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        loaded = load_campaign_spec(str(path))
        assert len(loaded) == 2
        assert not getattr(loaded[0], "is_constellation", False)
        assert loaded[1].is_constellation
        results = run_campaign(loaded)
        assert [r.status for r in results] == [STATUS_OK, STATUS_OK]


class TestFailureObservability:
    def test_flight_record_stamped_with_failing_node(self, tmp_path):
        from repro.campaign.artifacts import ScenarioArtifacts

        scenario = failover_drill(seed=0, mtfs=8)
        tight = ConstellationConfig(
            **dict(scenario.constellation.to_dict(), failover_deadline=10))
        scenario = ConstellationScenario(
            scenario_id="xt-rec", seed=0, ticks=scenario.ticks,
            constellation=tight, faults=scenario.faults)
        artifacts = ScenarioArtifacts(
            flight_recorder_dir=str(tmp_path))
        result = run_scenario(scenario, artifacts=artifacts)
        assert result.status == STATUS_CRASHED
        [bundle_path] = tmp_path.glob("*.json")
        bundle = json.loads(bundle_path.read_text())
        # Satellite contract: the bundle names the failing node and the
        # inter-node backlog census.
        assert bundle["node_id"] == 1  # the node that blew the deadline
        backlog = bundle["internode_backlog"]
        assert set(backlog) == {"node0", "node1", "node2", "total"}
        assert backlog["total"] == sum(
            backlog[f"node{i}"] for i in range(3))

    def test_single_node_bundles_carry_null_node_fields(self, tmp_path):
        from repro.campaign.artifacts import ScenarioArtifacts
        from repro.campaign.scenarios import Scenario
        from repro.fault.faults import SimulatedCrashFault

        scenario = Scenario(
            scenario_id="solo-crash", factory="prototype", ticks=2 * MTF,
            faults=((100, SimulatedCrashFault(detail="boom")),))
        result = run_scenario(scenario, artifacts=ScenarioArtifacts(
            flight_recorder_dir=str(tmp_path)))
        assert result.status == STATUS_CRASHED
        [bundle_path] = tmp_path.glob("*.json")
        bundle = json.loads(bundle_path.read_text())
        assert bundle["node_id"] is None
        assert bundle["internode_backlog"] is None


class TestTelemetryIntegration:
    def test_derived_node_comm_events_validate(self):
        from repro.obs.telemetry.bus import derive_deterministic_events
        from repro.obs.telemetry.topics import default_registry

        result = run_scenario(drill())
        events = derive_deterministic_events("deadbeef00000000", [result])
        registry = default_registry()
        node_events = [e for e in events if "/node/" in e.topic]
        assert len(node_events) == 3 * len(NODE_COMM_STAT_KEYS)
        for event in events:
            assert registry.resolve(event.topic) is not None, event.topic
            assert registry.validate(event.topic, event.channel) == []
