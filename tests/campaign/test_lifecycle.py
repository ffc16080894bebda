"""The scenario lifecycle contract, single-node and constellation alike.

:func:`repro.campaign.runner.run_scenario` is the one body that runs a
scenario of either kind; these tests pin what that buys: the same
publisher lifecycle events for every outcome, one flight-recorder bundle
per failure, and metrics/timeline exports for every simulator the
scenario ran (``<id>.*`` for a single node, ``<id>.n<i>.*`` per
constellation node).
"""

import json

import pytest

from repro.apps.prototype import MTF
from repro.campaign import ScenarioArtifacts
from repro.campaign import runner as campaign_runner
from repro.campaign.results import STATUS_CRASHED, STATUS_OK
from repro.campaign.runner import run_scenario
from repro.campaign.scenarios import Scenario
from repro.constellation import ConstellationConfig, ConstellationScenario
from repro.constellation import runner as constellation_runner
from repro.fault.faults import SimulatedCrashFault
from repro.fdir.oracle import InvariantViolation

NODES = 2

#: The publisher calls that make up a scenario's lifecycle (progress
#: heartbeats and node/* streams are kind-specific and left out).
LIFECYCLE = ("scenario_started", "scenario_forked", "scenario_crashed",
             "flight_record", "scenario_finished")


class RecordingPublisher:
    """Stands in for a TelemetryPublisher and records every call."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append((name, args))

    def lifecycle(self):
        return [name for name, _ in self.calls if name in LIFECYCLE]


def single(scenario_id, faults=()):
    return Scenario(scenario_id=scenario_id, factory="prototype",
                    ticks=2 * MTF, faults=faults)


def constellation(scenario_id, faults=()):
    return ConstellationScenario(
        scenario_id=scenario_id, ticks=2 * MTF,
        constellation=ConstellationConfig(nodes=NODES),
        node_faults=tuple((1, tick, fault) for tick, fault in faults))


KINDS = {
    "single": (single, campaign_runner),
    "constellation": (constellation, constellation_runner),
}


def planted(trace, config=None, **kwargs):
    return (InvariantViolation(invariant="schedule-conformance", tick=42,
                               detail="planted for the test"),)


def run_outcome(kind, outcome, tmp_path, monkeypatch):
    build, module = KINDS[kind]
    faults = ()
    if outcome == "oracle":
        monkeypatch.setattr(module, "check_trace", planted)
    elif outcome == "exception":
        faults = ((100, SimulatedCrashFault(detail="boom")),)
    publisher = RecordingPublisher()
    bundles = tmp_path / f"{kind}-{outcome}"
    result = run_scenario(
        build(f"{kind}-{outcome}", faults), publisher=publisher,
        artifacts=ScenarioArtifacts(flight_recorder_dir=str(bundles)))
    return result, publisher, bundles


class TestLifecycleEvents:
    @pytest.mark.parametrize("outcome,status,expected", [
        ("ok", STATUS_OK, ["scenario_started", "scenario_finished"]),
        ("oracle", STATUS_CRASHED,
         ["scenario_started", "scenario_crashed", "flight_record",
          "scenario_finished"]),
        ("exception", STATUS_CRASHED,
         ["scenario_started", "scenario_crashed", "flight_record",
          "scenario_finished"]),
    ])
    def test_same_event_sequence_for_both_kinds(
            self, outcome, status, expected, tmp_path, monkeypatch):
        for kind in KINDS:
            result, publisher, bundles = run_outcome(
                kind, outcome, tmp_path, monkeypatch)
            assert result.status == status, (kind, result.error)
            assert publisher.lifecycle() == expected, kind
            finished = [args for name, args in publisher.calls
                        if name == "scenario_finished"]
            assert finished == [(result.scenario_id, status,
                                 result.wall_time_s, -1)], kind
            assert len(list(bundles.glob("*.json"))) == \
                (0 if outcome == "ok" else 1), kind

    def test_oracle_error_string_shared(self, tmp_path, monkeypatch):
        detail = "schedule-conformance@42: {}planted for the test"
        per_node = [detail.format(f"[node{i}] ") for i in range(NODES)]
        expected = {
            "single": "oracle: 1 invariant violation(s); "
                      + detail.format(""),
            "constellation": f"oracle: {NODES} invariant violation(s); "
                             + "; ".join(per_node),
        }
        for kind in KINDS:
            result, _, _ = run_outcome(kind, "oracle", tmp_path,
                                       monkeypatch)
            assert result.error == expected[kind], kind

    def test_constellation_exception_crash_bundle(self, tmp_path,
                                                  monkeypatch):
        result, _, bundles = run_outcome("constellation", "exception",
                                         tmp_path, monkeypatch)
        assert result.status == STATUS_CRASHED
        assert result.error.startswith("SimulationError: ")
        [path] = bundles.glob("*.json")
        bundle = json.loads(path.read_text())
        backlog = bundle["internode_backlog"]
        assert set(backlog) == \
            {f"node{i}" for i in range(NODES)} | {"total"}
        assert bundle["error"] == result.error


class TestExports:
    def test_every_simulator_is_exported(self, tmp_path):
        metrics_dir = tmp_path / "metrics"
        timeline_dir = tmp_path / "timelines"
        artifacts = ScenarioArtifacts(metrics_dir=str(metrics_dir),
                                      timeline_dir=str(timeline_dir))
        for build in (single, constellation):
            result = run_scenario(build(f"export-{build.__name__}"),
                                  artifacts=artifacts)
            assert result.status == STATUS_OK, result.error
        labels = ["export-single"] + [
            f"export-constellation.n{i}" for i in range(NODES)]
        assert sorted(p.name for p in metrics_dir.iterdir()) == sorted(
            f"{label}.metrics.json" for label in labels)
        assert sorted(p.name for p in timeline_dir.iterdir()) == sorted(
            f"{label}.timeline.json" for label in labels)
        for label in labels:
            metrics = json.loads(
                (metrics_dir / f"{label}.metrics.json").read_text())
            assert metrics["counters"], label
            timeline = json.loads(
                (timeline_dir / f"{label}.timeline.json").read_text())
            assert timeline["traceEvents"], label
