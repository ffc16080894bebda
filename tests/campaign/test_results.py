"""Tests for campaign aggregation and the determinism invariant.

The acceptance invariant of the campaign engine: the deterministic report
is byte-identical for worker counts {1, 2, 4} and any chunk size — same
scenarios, same seeds, same aggregate, ordered by scenario id.
"""

import pytest

from repro.campaign.results import (
    ScenarioResult,
    aggregate,
    deterministic_report,
    render_summary,
    report_json,
)
from repro.campaign.runner import run_campaign
from repro.campaign.scenarios import Scenario, fault_matrix_campaign
from repro.obs.derived import percentile


def result(scenario_id, *, status="ok", misses=0, events=10, digest="d"):
    return ScenarioResult(
        scenario_id=scenario_id, seed=0, status=status,
        ticks=100, deadline_misses=misses, trace_events=events,
        trace_digest=digest, wall_time_s=0.5)


class TestPercentile:
    def test_nearest_rank(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(values, 0.50) == 5
        assert percentile(values, 0.90) == 9
        assert percentile(values, 0.99) == 10
        assert percentile(values, 1.0) == 10
        assert percentile(values, 0.0) == 1

    def test_empty_and_bad_fraction(self):
        assert percentile([], 0.5) == 0
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestAggregate:
    def test_totals_and_statuses(self):
        summary = aggregate([result("a", misses=2),
                             result("b", status="crashed"),
                             result("c", misses=3)])
        assert summary["scenarios"] == 3
        assert summary["status"] == {"crashed": 1, "ok": 2}
        assert summary["totals"]["deadline_misses"] == 5

    def test_aggregate_is_delivery_order_independent(self):
        results = [result("a", misses=1), result("b", misses=2),
                   result("c", misses=3)]
        assert aggregate(results) == aggregate(list(reversed(results)))

    def test_digest_tracks_content(self):
        base = [result("a"), result("b")]
        changed = [result("a"), result("b", digest="other")]
        assert aggregate(base)["campaign_digest"] != \
            aggregate(changed)["campaign_digest"]

    def test_digest_tracks_injections(self):
        from dataclasses import replace

        base = [result("a"), result("b")]
        changed = [result("a"),
                   replace(result("b"),
                           injections=((10, "MemoryViolationFault", "ok"),))]
        assert aggregate(base)["campaign_digest"] != \
            aggregate(changed)["campaign_digest"]

    def test_report_json_excludes_timing_by_default(self):
        text = report_json([result("a")])
        assert "wall_time" not in text
        assert "timing" not in text
        assert "wall_time_s" in report_json([result("a")],
                                            include_timing=True)

    def test_render_summary_names_failures(self):
        text = render_summary([result("a"),
                               result("b", status="crashed")])
        assert "FAILED b [crashed]" in text


class TestCampaignMetrics:
    """ScenarioResult carries compact trace-derived metrics that aggregate
    deterministically (the ISSUE 3 campaign integration)."""

    def test_results_carry_compact_metrics(self):
        from repro.campaign.runner import run_scenario

        scenario = fault_matrix_campaign(count=1, mtfs=3)[0]
        outcome = run_scenario(scenario)
        pairs = dict(outcome.metrics)
        assert pairs["deadline_misses"] == outcome.deadline_misses
        assert pairs["context_switches"] > 0
        assert outcome.to_dict()["metrics"] == pairs

    def test_aggregate_summarizes_metric_distributions(self):
        from dataclasses import replace

        base = replace(
            result("a"),
            metrics=(("context_switches", 10), ("deadline_misses", 2)))
        other = replace(
            result("b"),
            metrics=(("context_switches", 30), ("deadline_misses", 0)))
        summary = aggregate([base, other])
        section = summary["metrics"]["context_switches"]
        assert section["total"] == 40
        assert section["max"] == 30
        assert section["p50"] == 10

    def test_metric_aggregation_is_order_independent(self):
        from dataclasses import replace

        results = [replace(result(name), metrics=(("deadline_misses", i),))
                   for i, name in enumerate("abc")]
        assert aggregate(results)["metrics"] == \
            aggregate(list(reversed(results)))["metrics"]

    def test_pooled_metrics_match_serial(self):
        campaign = fault_matrix_campaign(count=4, mtfs=3)
        serial = aggregate(run_campaign(campaign))["metrics"]
        assert serial  # non-trivial section
        for workers in (2, 4):
            assert aggregate(run_campaign(
                campaign, workers=workers))["metrics"] == serial


class TestDeterminismInvariant:
    """Pooled execution must reproduce the serial report bit-for-bit."""

    @pytest.fixture(scope="class")
    def campaign(self):
        return fault_matrix_campaign(count=8, mtfs=4)

    @pytest.fixture(scope="class")
    def serial_json(self, campaign):
        return report_json(run_campaign(campaign))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_counts_agree(self, campaign, serial_json, workers):
        results = run_campaign(campaign, workers=workers)
        assert report_json(results) == serial_json

    @pytest.mark.parametrize("chunksize", [1, 3, 8])
    def test_chunk_sizes_agree(self, campaign, serial_json, chunksize):
        results = run_campaign(campaign, workers=2, chunksize=chunksize)
        assert report_json(results) == serial_json

    def test_failures_are_deterministic_too(self):
        scenarios = [Scenario(scenario_id=f"b{i}", factory="broken",
                              ticks=10) for i in range(4)]
        assert report_json(run_campaign(scenarios, workers=2)) == \
            report_json(run_campaign(scenarios))


class TestChaosSuiteInvariant:
    """The ISSUE 4 acceptance bar: a >= 50-scenario randomized barrage
    under full FDIR supervision, every trace oracle-clean, and the report
    byte-identical for any worker count (injections included in the
    digest)."""

    @pytest.fixture(scope="class")
    def campaign(self):
        from repro.campaign.scenarios import chaos_campaign

        return chaos_campaign(count=50, mtfs=8)

    @pytest.fixture(scope="class")
    def serial_results(self, campaign):
        return run_campaign(campaign)

    def test_all_scenarios_survive_the_oracle(self, serial_results):
        assert [r.status for r in serial_results] == ["ok"] * 50
        # Every scenario actually injected its barrage.
        assert all(len(r.injections) >= 3 for r in serial_results)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_counts_agree_byte_for_byte(self, campaign,
                                               serial_results, workers):
        assert report_json(run_campaign(campaign, workers=workers)) == \
            report_json(serial_results)
