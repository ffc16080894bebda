"""Tests for serial and pooled campaign execution."""

import pytest

from repro.campaign.results import STATUS_CRASHED, STATUS_OK, STATUS_TIMEOUT
from repro.campaign.runner import (
    autodetect_workers,
    run_campaign,
    run_pool,
    run_scenario,
    run_serial,
)
from repro.campaign.scenarios import Scenario, fault_matrix_campaign
from repro.apps.prototype import FAULTY_PROCESS, MTF
from repro.fault.faults import StartProcessFault


def faulty_scenario(scenario_id="one", mtfs=4, seed=0):
    return Scenario(
        scenario_id=scenario_id, factory="prototype", seed=seed,
        ticks=mtfs * MTF,
        faults=((1 * MTF, StartProcessFault("P1", FAULTY_PROCESS)),),
        schedule_commands=((2 * MTF, "chi2"),))


class TestRunScenario:
    def test_ok_scenario_reports_metrics(self):
        result = run_scenario(faulty_scenario())
        assert result.status == STATUS_OK
        assert result.ok
        assert result.ticks == 4 * MTF
        # The injected WCET overrun misses on every post-injection P1
        # dispatch except the first (Sect. 6).
        assert result.deadline_misses >= 1
        assert result.schedule_switches == 1
        assert result.faults_applied == 2  # fault + switch command
        assert result.trace_events > 0
        assert len(result.trace_digest) == 16
        assert dict(result.occupancy)["P1"] == 4 * 200

    @pytest.mark.parametrize("index", [0, 1, 2, 6])
    def test_counts_equal_full_trace_scans(self, monkeypatch, index):
        # The four result counts come out of the compact-metrics pass;
        # they must equal a full isinstance scan of the same trace.
        from repro.campaign import runner
        from repro.campaign.scenarios import chaos_campaign
        from repro.kernel.trace import (
            DeadlineMissed,
            HealthMonitorEvent,
            MemoryFault,
            ScheduleSwitched,
        )

        traces = []
        original = runner.compact_metrics

        def keeping_trace(trace, *args):
            traces.append(trace)
            return original(trace, *args)

        monkeypatch.setattr(runner, "compact_metrics", keeping_trace)
        spec = chaos_campaign(count=index + 1, mtfs=8, base_seed=0)[index]
        result = run_scenario(spec)
        (trace,) = traces
        assert result.faults_applied > 0
        assert (result.deadline_misses, result.hm_events,
                result.schedule_switches, result.memory_faults) == (
            trace.count(DeadlineMissed), trace.count(HealthMonitorEvent),
            trace.count(ScheduleSwitched), trace.count(MemoryFault))
        assert result.hm_events > 0
        assert result.memory_faults + result.schedule_switches > 0

    def test_scenario_results_are_deterministic(self):
        first = run_scenario(faulty_scenario())
        second = run_scenario(faulty_scenario())
        assert first.to_dict() == second.to_dict()

    def test_broken_factory_degrades_to_crashed_result(self):
        result = run_scenario(Scenario(scenario_id="b", factory="broken",
                                       ticks=100))
        assert result.status == STATUS_CRASHED
        assert "broken factory" in result.error
        assert not result.ok

    def test_unknown_schedule_command_degrades_to_crashed_result(self):
        scenario = Scenario(scenario_id="u", factory="prototype",
                            ticks=2 * MTF,
                            schedule_commands=((MTF, "no-such-chi"),))
        result = run_scenario(scenario)
        assert result.status == STATUS_CRASHED
        assert "no-such-chi" in result.error

    def test_timeout_degrades_to_timeout_result(self):
        scenario = Scenario(scenario_id="t", factory="prototype",
                            ticks=10_000_000)
        result = run_scenario(scenario, timeout_s=0.01)
        assert result.status == STATUS_TIMEOUT
        assert 0 < result.ticks < 10_000_000
        assert "wall-clock" in result.error

    def test_injection_log_surfaced_in_result(self):
        result = run_scenario(faulty_scenario())
        assert [(tick, kind) for tick, kind, _ in result.injections] == [
            (1 * MTF, "StartProcessFault"),
            (2 * MTF, "ScheduleSwitchFault"),
        ]
        assert result.injections[0][2] \
            == "started P1/p1-faulty: noError"
        assert result.to_dict()["injections"] == [
            {"tick": tick, "fault": kind, "status": status}
            for tick, kind, status in result.injections]

    def test_check_interval_does_not_change_the_result(self):
        default = run_scenario(faulty_scenario(), timeout_s=60.0)
        fine = run_scenario(faulty_scenario(), timeout_s=60.0,
                            check_interval=137)
        assert fine.to_dict() == default.to_dict()

    def test_invalid_check_interval_rejected(self):
        with pytest.raises(ValueError, match="check_interval"):
            run_scenario(faulty_scenario(), check_interval=0)


class TestOracleIntegration:
    def test_invariant_violation_downgrades_to_crashed(self, monkeypatch):
        from repro.campaign import runner as runner_module
        from repro.fdir.oracle import InvariantViolation

        def corrupt(trace, config=None, **kwargs):
            return (InvariantViolation(
                invariant="schedule-conformance", tick=42,
                detail="planted for the test"),)

        monkeypatch.setattr(runner_module, "check_trace", corrupt)
        result = run_scenario(faulty_scenario())
        assert result.status == STATUS_CRASHED
        assert result.error.startswith("oracle: 1 invariant violation")
        assert "schedule-conformance@42" in result.error

    def test_oracle_opt_out_skips_the_check(self, monkeypatch):
        from dataclasses import replace

        from repro.campaign import runner as runner_module

        def explode(trace, config=None, **kwargs):  # pragma: no cover
            raise AssertionError("oracle must not run when opted out")

        monkeypatch.setattr(runner_module, "check_trace", explode)
        result = run_scenario(replace(faulty_scenario(), oracle=False))
        assert result.status == STATUS_OK

    def test_real_scenarios_pass_the_oracle(self):
        # Every faulty_scenario run in this file goes through the real
        # check_trace and still reports ok — asserted explicitly here.
        assert run_scenario(faulty_scenario()).status == STATUS_OK


class TestCampaignExecution:
    def test_one_bad_scenario_does_not_abort_the_campaign(self):
        scenarios = [faulty_scenario("a"),
                     Scenario(scenario_id="b", factory="broken", ticks=10),
                     faulty_scenario("c", seed=1)]
        results = run_serial(scenarios)
        assert [r.status for r in results] == \
            [STATUS_OK, STATUS_CRASHED, STATUS_OK]

    def test_pool_preserves_scenario_order(self):
        scenarios = fault_matrix_campaign(count=6, mtfs=4)
        results = run_pool(scenarios, workers=2)
        assert [r.scenario_id for r in results] == \
            [s.scenario_id for s in scenarios]

    def test_pool_absorbs_crashed_scenarios(self):
        scenarios = [faulty_scenario("a"),
                     Scenario(scenario_id="b", factory="broken", ticks=10),
                     faulty_scenario("c", seed=1),
                     Scenario(scenario_id="d", factory="broken", ticks=10)]
        results = run_pool(scenarios, workers=2)
        assert [r.status for r in results] == \
            [STATUS_OK, STATUS_CRASHED, STATUS_OK, STATUS_CRASHED]

    def test_run_campaign_dispatches_serial_below_two_workers(self):
        scenarios = fault_matrix_campaign(count=2, mtfs=3)
        assert [r.to_dict() for r in run_campaign(scenarios, workers=1)] \
            == [r.to_dict() for r in run_serial(scenarios)]

    def test_autodetect_workers_positive(self):
        assert autodetect_workers() >= 1


class TestChaosDigestEquality:
    """Pooled execution at campaign scale: a 50-scenario chaos barrage
    produces byte-identical deterministic reports (trace digests,
    metrics, oracle verdicts) at any worker count and serially."""

    @pytest.fixture(scope="class")
    def chaos_50(self):
        from repro.campaign.scenarios import chaos_campaign

        return chaos_campaign(count=50, mtfs=5, base_seed=11)

    @pytest.fixture(scope="class")
    def serial_report(self, chaos_50):
        return deterministic(run_serial(chaos_50))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pooled_chaos_digests_match_serial(
            self, chaos_50, serial_report, workers):
        pooled = run_campaign(chaos_50, workers=workers)
        assert deterministic(pooled) == serial_report
        assert all(result.ok for result in pooled)


def deterministic(results):
    import json

    from repro.campaign.results import deterministic_report

    return json.dumps(deterministic_report(results), sort_keys=True)


class TestPrefixTreeDigestEquality:
    """The divergence-trie acceptance gate: over a deep shared-fault
    chaos campaign, the deterministic report is byte-identical to the
    cold reference (cache off) serially and pooled at 2/4 workers, under
    the fork and the spawn start method — the trie, locality grouping
    and the checkpoint hand-off to the pool are pure optimizations."""

    @pytest.fixture(scope="class")
    def shared_chaos(self):
        from repro.campaign.scenarios import chaos_campaign

        return chaos_campaign(count=12, mtfs=8, base_seed=7,
                              shared_seed=True, prefix_mtfs=2,
                              shared_faults=2)

    @pytest.fixture(scope="class")
    def tree_off_report(self, shared_chaos):
        return deterministic(run_serial(shared_chaos, prefix_cache=False))

    def test_serial_tree_on_matches_tree_off(self, shared_chaos,
                                             tree_off_report):
        telemetry = {}
        results = run_serial(shared_chaos, telemetry=telemetry)
        assert deterministic(results) == tree_off_report
        assert telemetry["prefix_tree"]["enabled"]
        assert telemetry["prefix_tree"]["planned_scenarios"] == \
            len(shared_chaos)
        # Interior forking really happened: past the fault-free prefix.
        assert max(r.forked_at_tick for r in results) > 2 * MTF

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pooled_digests_match_at_any_worker_count(
            self, shared_chaos, tree_off_report, workers):
        pooled = run_campaign(shared_chaos, workers=workers)
        assert deterministic(pooled) == tree_off_report

    def test_forced_spawn_matches_too(self, shared_chaos, tree_off_report,
                                      monkeypatch):
        # Under spawn the pre-built cache reaches each worker pickled
        # through the pool initializer instead of inherited.
        from repro.campaign import runner

        monkeypatch.setattr(runner.multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        telemetry = {}
        pooled = run_pool(shared_chaos, workers=2, telemetry=telemetry)
        assert deterministic(pooled) == tree_off_report
        workers = [stats for label, stats in telemetry["workers"].items()
                   if label != "prebuild"]
        assert workers
        assert all(stats["prefix_cache"]["stores"] == 0
                   and stats["prefix_cache"]["hits"] > 0
                   for stats in workers)

    def test_chunksize_never_changes_the_report(self, shared_chaos,
                                                tree_off_report):
        pooled = run_pool(shared_chaos, workers=2, chunksize=1)
        assert deterministic(pooled) == tree_off_report

    def test_pool_telemetry_reports_tree_and_workers(self, shared_chaos):
        telemetry = {}
        run_pool(shared_chaos, workers=2, telemetry=telemetry)
        tree = telemetry["prefix_tree"]
        assert tree["enabled"]
        assert tree["groups"] >= 1
        assert tree["capture_levels"] >= 1
        assert set(telemetry) == {"prefix_tree", "workers", "cycle_cache"}
        # Every group is split across both workers, so the parent
        # pre-builds every level once and the workers only fork from it:
        # worker counters start from zero and show no build of their own.
        workers = dict(telemetry["workers"])
        prebuild = workers.pop("prebuild")["prefix_cache"]
        assert workers
        for stats in workers.values():
            assert stats["prefix_cache"]["stores"] == 0
            assert stats["prefix_cache"]["misses"] == 0
        assert prebuild["stores"] + sum(
            stats["prefix_cache"]["stores"]
            for stats in workers.values()) == tree["capture_levels"]
