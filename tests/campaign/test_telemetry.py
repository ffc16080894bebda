"""Campaign-level telemetry integration: digests, streams, artifacts.

The load-bearing invariant: enabling the telemetry bus must not perturb
the simulation — campaign digests are byte-identical with telemetry on
vs off, at any worker count — and the deterministic channel of the
event log is itself byte-stable across worker counts.
"""

import json
from multiprocessing.pool import Pool

import pytest

from repro.__main__ import main
from repro.campaign import (
    ScenarioArtifacts,
    canonical_execution_telemetry,
    chaos_campaign,
    report_json,
    run_campaign,
)
from repro.campaign.results import EXECUTION_TELEMETRY_KEYS
from repro.obs.telemetry import (
    TelemetryAggregator,
    campaign_spec_digest,
    default_registry,
)

from ..conftest import cycle_cache_off


def small_chaos(crash_scenarios=0):
    return chaos_campaign(count=4, mtfs=4, base_seed=0,
                          crash_scenarios=crash_scenarios)


def run_with_bus(scenarios, *, workers, log_path=None, artifacts=None,
                 panel=None):
    bus = TelemetryAggregator(campaign_spec_digest(scenarios),
                              log_path=log_path, panel=panel,
                              total=len(scenarios))
    telemetry: dict = {}
    results = run_campaign(scenarios, workers=workers, telemetry=telemetry,
                           bus=bus, artifacts=artifacts)
    return results, telemetry


class TestTelemetryDoesNotPerturbDigests:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_reports_identical_with_and_without_bus(self, workers):
        scenarios = small_chaos()
        baseline = run_campaign(scenarios, workers=workers)
        with_bus, _ = run_with_bus(scenarios, workers=workers)
        assert report_json(with_bus) == report_json(baseline)


class TestDeterministicChannelByteStability:
    def test_identical_across_worker_counts(self, tmp_path):
        scenarios = small_chaos()
        blocks = []
        for workers in (1, 2, 4):
            log = tmp_path / f"telemetry-{workers}.jsonl"
            run_with_bus(scenarios, workers=workers, log_path=str(log))
            blocks.append([line for line in log.read_text().splitlines()
                           if json.loads(line)["channel"]
                           == "deterministic"])
        assert blocks[0] == blocks[1] == blocks[2]
        assert blocks[0]  # non-empty: records + report

    def test_every_logged_topic_is_governed(self, tmp_path):
        scenarios = small_chaos(crash_scenarios=1)
        log = tmp_path / "telemetry.jsonl"
        results, telemetry = run_with_bus(
            scenarios, workers=2, log_path=str(log),
            artifacts=ScenarioArtifacts(
                flight_recorder_dir=str(tmp_path / "flightrec")))
        registry = default_registry()
        entries = [(record["topic"], record["channel"]) for record in
                   map(json.loads, log.read_text().splitlines())]
        assert entries
        report = registry.validate_batch(entries)
        assert all(entry["valid"] for entry in report), [
            entry for entry in report if not entry["valid"]]
        assert telemetry["telemetry_stream"]["invalid_topics"] == 0


class TestPoolShutdown:
    def test_workers_exit_before_terminate_and_flush_their_counters(
            self, tmp_path, monkeypatch):
        # Leaving ``with Pool(...)`` is terminate(), which kills a worker
        # whose queue feeder may still be flushing its final events (or
        # holding the queue lock the parent's closing sentinel needs).
        calls = []
        join, terminate = Pool.join, Pool.terminate

        def recorded_join(pool):
            join(pool)
            calls.append("joined")

        def recorded_terminate(pool):
            calls.append("terminate")
            terminate(pool)

        monkeypatch.setattr(Pool, "join", recorded_join)
        monkeypatch.setattr(Pool, "terminate", recorded_terminate)
        log = tmp_path / "telemetry.jsonl"
        _, telemetry = run_with_bus(small_chaos(), workers=2,
                                    log_path=str(log))
        assert "joined" in calls
        assert calls.index("joined") < calls.index("terminate")
        last = {}
        numbered = []
        for record in map(json.loads, log.read_text().splitlines()):
            last[record["topic"]] = record["payload"].get("value")
            if "seq" in record:
                numbered.append((record["worker"], record["seq"]))
        # Gauges the parent publishes for a worker continue its numbering.
        assert len(numbered) == len(set(numbered))
        workers = {pid: sidecar for pid, sidecar
                   in telemetry["workers"].items() if pid != "prebuild"}
        assert workers
        for pid, sidecar in workers.items():
            for stat, value in sidecar["prefix_cache"].items():
                assert last.get(f"worker/{pid}/cache/{stat}") == value, (
                    pid, stat)
            for stat, value in (sidecar["cycle_cache"] or {}).items():
                assert last.get(f"worker/{pid}/cycle_cache/{stat}") \
                    == value, (pid, stat)


class TestCycleCacheTotals:
    """Every cycle-cache figure of the sidecar is a sum over the results
    the campaign returned, so no counter leaks from one campaign into
    the next run in the same process (``fingerprint_ns`` is wall time,
    so only the event counts and bytes are compared)."""

    COUNTS = ("hits", "misses", "invalidations", "bytes")

    def totals(self, scenarios, workers):
        telemetry: dict = {}
        results = run_campaign(scenarios, workers=workers,
                               telemetry=telemetry)
        return telemetry["cycle_cache"], results

    def test_pooled_totals_do_not_inherit_the_parents(self, cruise):
        # A pooled run after a serial one in the same process reports
        # only its own scenarios' counters.
        serial, _ = self.totals(cruise, 1)
        pooled, _ = self.totals(cruise, 2)
        assert serial["hits"] > 0
        for key in self.COUNTS:
            assert pooled[key] == serial[key], key

    def test_serial_totals_do_not_leak_between_campaigns(self, cruise):
        first, results = self.totals(cruise, 1)
        second, _ = self.totals(cruise, 1)
        assert first["hits"] > 0
        for key in self.COUNTS:
            assert second[key] == first[key], key
            assert first[key] == sum(
                result.cycle_cache_stats[key] for result in results), key

    def test_crashed_result_carries_its_counters(self, cruise,
                                                 cruise_drill):
        from dataclasses import replace

        from repro.campaign import deterministic_report

        results = run_campaign(cruise + [cruise_drill])
        crashed = [r for r in results if r.status == "crashed"]
        assert [r.scenario_id for r in crashed] == ["cruise-crash"]
        assert crashed[0].cycle_cache_stats["hits"] > 0
        assert "cycle_cache_stats" not in crashed[0].to_dict()
        # Timing-only: the field never reaches the deterministic report.
        stripped = [replace(r, cycle_cache_stats=None) for r in results]
        assert json.dumps(deterministic_report(results), sort_keys=True) \
            == json.dumps(deterministic_report(stripped), sort_keys=True)

    def test_cache_off_results_carry_no_counters(self, monkeypatch):
        cycle_cache_off(monkeypatch)
        telemetry: dict = {}
        results = run_campaign(small_chaos(), telemetry=telemetry)
        assert all(r.cycle_cache_stats is None for r in results)
        assert telemetry["cycle_cache"] == {}
        assert telemetry["workers"]["serial"]["cycle_cache"] is None


class TestFlightRecorderThroughRunner:
    def test_crashed_scenario_produces_bundle(self, tmp_path):
        scenarios = small_chaos(crash_scenarios=1)
        directory = tmp_path / "flightrec"
        results, _ = run_with_bus(
            scenarios, workers=2,
            artifacts=ScenarioArtifacts(
                flight_recorder_dir=str(directory)))
        crashed = [r for r in results if r.status == "crashed"]
        assert len(crashed) == 1
        bundle_path = directory / f"{crashed[0].scenario_id}.flightrec.json"
        bundle = json.loads(bundle_path.read_text())
        assert bundle["status"] == "crashed"
        assert "SimulatedCrashFault" in bundle["error"]
        assert bundle["config_identity"]["partitions"]
        assert bundle["fault_log"]  # the barrage before the crash drill
        assert bundle["last_events"]
        assert bundle["oracle"]["checked"] is True
        # Only failed scenarios leave bundles.
        assert len(list(directory.iterdir())) == 1

    def test_crash_drill_does_not_change_surviving_digests(self):
        plain = {r.scenario_id: r.trace_digest
                 for r in run_campaign(small_chaos(), workers=1)}
        drilled = {r.scenario_id: r.trace_digest
                   for r in run_campaign(small_chaos(crash_scenarios=1),
                                         workers=1)}
        survivors = {sid for sid, digest in drilled.items() if digest}
        assert survivors  # the non-crashing scenarios
        for sid in survivors:
            assert drilled[sid] == plain[sid]


class TestScenarioArtifactDirs:
    def test_metrics_and_timeline_dumps(self, tmp_path):
        scenarios = small_chaos()
        metrics_dir = tmp_path / "metrics"
        timeline_dir = tmp_path / "timelines"
        results = run_campaign(
            scenarios, workers=2,
            artifacts=ScenarioArtifacts(metrics_dir=str(metrics_dir),
                                        timeline_dir=str(timeline_dir)))
        assert all(result.ok for result in results)
        for result in results:
            metrics = json.loads(
                (metrics_dir / f"{result.scenario_id}.metrics.json")
                .read_text())
            assert any(name.startswith("air_process_dispatches_total")
                       for name in metrics["counters"])
            timeline = json.loads(
                (timeline_dir / f"{result.scenario_id}.timeline.json")
                .read_text())
            assert timeline["traceEvents"]

    def test_replayed_metrics_match_compact_pairs(self, tmp_path):
        """The dumped registry agrees with the worker's compact metrics."""
        scenarios = small_chaos()[:1]
        metrics_dir = tmp_path / "metrics"
        results = run_campaign(
            scenarios, workers=1,
            artifacts=ScenarioArtifacts(metrics_dir=str(metrics_dir)))
        result = results[0]
        registry = json.loads(
            (metrics_dir / f"{result.scenario_id}.metrics.json")
            .read_text())

        def total(prefix):
            return sum(value
                       for name, value in registry["counters"].items()
                       if name.split("{")[0] == prefix)

        compact = dict(result.metrics)
        assert total("air_deadline_misses_total") == \
            compact["deadline_misses"]
        assert total("air_hm_events_total") == compact["hm_events"]


class TestExecutionSidecarCanonicalization:
    def test_fixed_top_level_key_order(self):
        canonical = canonical_execution_telemetry({})
        assert tuple(canonical) == EXECUTION_TELEMETRY_KEYS
        assert all(value is None for value in canonical.values())

    def test_worker_sections_renamed_stably(self):
        telemetry = {"workers": {"9911": {"hits": 1},
                                 "1002": {"hits": 2}}}
        canonical = canonical_execution_telemetry(telemetry)
        assert list(canonical["workers"]) == ["worker-00", "worker-01"]
        assert canonical["workers"]["worker-00"] == {"hits": 2,
                                                     "label": "1002"}
        assert canonical["workers"]["worker-01"] == {"hits": 1,
                                                     "label": "9911"}

    def test_report_json_sidecar_regression(self, tmp_path):
        """End to end: the emitted sidecar carries the canonical shape."""
        scenarios = small_chaos()
        telemetry: dict = {}
        results = run_campaign(scenarios, workers=2, telemetry=telemetry)
        document = json.loads(report_json(results, include_timing=True,
                                          telemetry=telemetry))
        execution = document["timing"]["execution"]
        assert list(execution) == sorted(EXECUTION_TELEMETRY_KEYS)
        workers = execution["workers"]
        assert workers and all(key.startswith("worker-")
                               for key in workers)
        assert all("label" in entry for entry in workers.values())


class TestTelemetryCLI:
    def test_campaign_live_telemetry_and_validate(self, tmp_path, capsys):
        log = tmp_path / "telemetry.jsonl"
        flightrec = tmp_path / "flightrec"
        assert main(["campaign", "--suite", "chaos", "--scenarios", "4",
                     "--mtfs", "4", "--workers", "2",
                     "--crash-scenarios", "1", "--live",
                     "--telemetry-out", str(log),
                     "--flight-recorder-dir", str(flightrec)]) == 1
        out = capsys.readouterr().out
        assert "[telemetry]" in out
        assert "Campaign Activity" in out  # the VITRAL panel frame
        assert "telemetry written to" in out
        assert list(flightrec.glob("*.flightrec.json"))
        # The produced log passes the governance validator.
        assert main(["telemetry", "validate", str(log)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["invalid"] == 0
        assert report["topics"] > 0

    def test_telemetry_validate_flags_bad_topics(self, tmp_path, capsys):
        bad = tmp_path / "topics.txt"
        bad.write_text("worker/1/cache/hits\nnothing/registered\n")
        assert main(["telemetry", "validate", str(bad)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["invalid"] == 1
        assert report["results"][0]["topic"] == "nothing/registered"

    def test_telemetry_topics_lists_registry(self, capsys):
        assert main(["telemetry", "topics"]) == 0
        document = json.loads(capsys.readouterr().out)
        patterns = {entry["pattern"] for entry in document}
        assert "campaign/<digest>/scenario/<id>/record" in patterns
        assert "bench/<benchmark>/<field>" in patterns
