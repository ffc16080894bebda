"""Tests for prefix-sharing campaign scheduling (repro.campaign.prefix)."""

import json

import pytest

from repro.apps.prototype import MTF
from repro.campaign.prefix import (
    MIN_PREFIX_TICKS,
    PREFIX_QUANTUM,
    SnapshotCache,
    build_divergence_trie,
    prefix_key,
    prefix_levels,
    run_with_prefix_cache,
    scenario_fingerprint,
)
from repro.campaign.results import deterministic_report, report_json
from repro.campaign.runner import run_campaign, run_scenario, run_serial
from repro.campaign.scenarios import Scenario, chaos_campaign
from repro.fault.faults import MemoryViolationFault, PartitionCrashFault


def scenario(scenario_id="s", seed=0, ticks=4 * MTF, faults=(),
             commands=(), **kwargs):
    return Scenario(scenario_id=scenario_id, seed=seed, ticks=ticks,
                    faults=tuple(faults), schedule_commands=tuple(commands),
                    **kwargs)


class TestScenarioFingerprint:
    def test_shared_seed_scenarios_share_a_fingerprint(self):
        a = scenario("a", faults=((MTF, MemoryViolationFault("P2")),))
        b = scenario("b", ticks=9 * MTF,
                     commands=((2 * MTF, "chi2"),))
        assert scenario_fingerprint(a) == scenario_fingerprint(b)

    def test_seed_and_kwargs_change_the_fingerprint(self):
        base = scenario()
        assert scenario_fingerprint(scenario(seed=1)) != \
            scenario_fingerprint(base)
        assert scenario_fingerprint(
            scenario(factory_kwargs={"fdir_supervision": True})) != \
            scenario_fingerprint(base)

    def test_fingerprint_is_stable_across_calls(self):
        assert scenario_fingerprint(scenario()) == \
            scenario_fingerprint(scenario())


class TestSnapshotCache:
    """LRU and counter behaviour.  Entries carry sentinel objects as
    their live snapshots: the cache never looks inside one."""

    def test_get_put_round_trip_and_counters(self):
        cache = SnapshotCache(capacity=4)
        live = object()
        assert cache.get_snapshot("fp", 1024) is None
        cache.put("fp", 1024, b"payload", live)
        assert cache.get_snapshot("fp", 1024) is live
        assert cache.get_snapshot("fp", 2048) is None
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 2,
                                 "stores": 1, "refreshes": 0,
                                 "evictions": 0, "fallbacks": 0,
                                 "total_bytes": 7, "stored_bytes": 7,
                                 "hit_bytes": 7, "evicted_bytes": 0}

    def test_lru_eviction_order(self):
        cache = SnapshotCache(capacity=2)
        a, c = object(), object()
        cache.put("a", 0, b"a", a)
        cache.put("b", 0, b"b", object())
        assert cache.get_snapshot("a", 0) is a  # refresh a's recency
        cache.put("c", 0, b"c", c)              # evicts b, the LRU entry
        assert cache.get_snapshot("b", 0) is None
        assert cache.get_snapshot("a", 0) is a
        assert cache.get_snapshot("c", 0) is c
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_duplicate_put_replaces_payload_and_touches_recency(self):
        cache = SnapshotCache(capacity=2)
        fresh = object()
        cache.put("a", 0, b"a", object())
        cache.put("b", 0, b"b", object())
        cache.put("a", 0, b"fresh", fresh)
        assert cache.stores == 2        # still two distinct entries...
        assert cache.refreshes == 1     # ...one of them refreshed in place
        assert cache.total_bytes == len(b"fresh") + len(b"b")
        cache.put("c", 0, b"c", object())  # b is now the LRU entry
        assert cache.get_snapshot("a", 0) is fresh  # not the stale entry
        assert cache.get_snapshot("b", 0) is None

    def test_reset_counters_keeps_the_contents(self):
        cache = SnapshotCache(capacity=1)
        cache.put("a", 0, b"a", object())
        cache.put("b", 0, b"bb", object())  # evicts a
        cache.get_snapshot("a", 0)
        cache.reset_counters()
        assert cache.stats() == {"entries": 1, "hits": 0, "misses": 0,
                                 "stores": 0, "refreshes": 0,
                                 "evictions": 0, "fallbacks": 0,
                                 "total_bytes": 2, "stored_bytes": 0,
                                 "hit_bytes": 0, "evicted_bytes": 0}
        assert cache.get_snapshot("b", 0) is not None

    def test_duplicate_put_resets_the_memoized_snapshot(self):
        """A refreshed entry must not serve the stale live snapshot."""
        from repro.apps.prototype import build_prototype
        from repro.kernel.simulator import Simulator
        from repro.kernel.snapshot import SimulatorSnapshot

        sim = Simulator(build_prototype().config)
        sim.run_fast(512)
        early = SimulatorSnapshot.capture(sim)
        cache = SnapshotCache()
        cache.put("fp", 512, early.to_bytes(), early)
        assert cache.get_snapshot("fp", 512) is early
        sim.run_fast(512)
        late = SimulatorSnapshot.capture(sim)
        cache.put("fp", 512, late.to_bytes(), late)
        assert cache.get_snapshot("fp", 512) is late
        # A refresh without a live snapshot re-memoizes from the payload.
        cache.put("fp", 512, late.to_bytes())
        memoized = cache.get_snapshot("fp", 512)
        assert memoized is not late and memoized.tick == late.tick

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            SnapshotCache(capacity=0)

    def test_byte_counters_in_stats_sidecar(self):
        cache = SnapshotCache(capacity=2)
        cache.put("a", 0, b"12345", object())
        cache.get_snapshot("a", 0)
        cache.get_snapshot("a", 0)
        stats = cache.stats()
        assert stats["stored_bytes"] == 5
        assert stats["hit_bytes"] == 10
        assert stats["total_bytes"] == 5


class TestRunWithPrefixCache:
    def make(self, scenario_id, fault_tick, *, ticks=6 * MTF):
        return scenario(scenario_id, ticks=ticks,
                        faults=((fault_tick, MemoryViolationFault("P2")),))

    def plan(self, spec, sibling):
        """*spec*'s slice of the trie planned over *spec* and *sibling*."""
        return build_divergence_trie([spec, sibling])[spec.scenario_id]

    def test_result_matches_cold_run_and_reports_the_fork(self):
        spec = self.make("warm", 4 * MTF + 50)
        plan = self.plan(spec, self.make("sibling", 5 * MTF))
        cache = SnapshotCache()
        seeded = run_with_prefix_cache(spec, cache, plan=plan)  # seeds
        warm = run_with_prefix_cache(spec, cache, plan=plan)    # forks
        cold = run_scenario(spec)
        assert cold.forked_at_tick == -1
        assert warm.forked_at_tick == \
            (4 * MTF + 50) // PREFIX_QUANTUM * PREFIX_QUANTUM
        for run in (seeded, warm):
            assert run.to_dict(include_timing=False) == \
                cold.to_dict(include_timing=False)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["stores"] == 1

    def test_short_prefix_degrades_to_a_cold_run(self):
        spec = self.make("early", MIN_PREFIX_TICKS // 2)
        plan = self.plan(spec, self.make("sibling", MIN_PREFIX_TICKS // 2
                                         + 1))
        assert plan.capture_levels == ()
        cache = SnapshotCache()
        result = run_with_prefix_cache(spec, cache, plan=plan)
        assert result.ok
        assert result.forked_at_tick == -1
        assert len(cache) == 0

    def test_prefix_failure_degrades_to_a_cold_run(self, monkeypatch):
        from repro.kernel.snapshot import SimulatorSnapshot

        def broken_capture(cls, sim, extras=None):
            raise RuntimeError("capture exploded")

        monkeypatch.setattr(SimulatorSnapshot, "capture",
                            classmethod(broken_capture))
        spec = self.make("degraded", 4 * MTF)
        plan = self.plan(spec, self.make("sibling", 5 * MTF))
        cache = SnapshotCache()
        result = run_with_prefix_cache(spec, cache, plan=plan)
        assert result.ok
        assert result.forked_at_tick == -1
        assert cache.stats()["fallbacks"] == 1


class TestPrefixKey:
    def shared(self, scenario_id, extra_faults=(), **kwargs):
        lead = ((2 * MTF, MemoryViolationFault("P2")),)
        return scenario(scenario_id, ticks=8 * MTF,
                        faults=lead + tuple(extra_faults), **kwargs)

    def test_depth_zero_is_the_fingerprint(self):
        spec = self.shared("s")
        assert prefix_key(spec, 0) == scenario_fingerprint(spec)

    def test_shared_leading_events_share_deeper_keys(self):
        a = self.shared("a", [(5 * MTF, MemoryViolationFault("P4"))])
        b = self.shared("b", [(6 * MTF, PartitionCrashFault("P2"))])
        assert prefix_key(a, 1) == prefix_key(b, 1)
        assert prefix_key(a, 2) != prefix_key(b, 2)

    def test_fault_payload_and_tick_enter_the_key(self):
        base = scenario("x", faults=((2 * MTF, MemoryViolationFault("P2")),))
        other_tick = scenario(
            "y", faults=((2 * MTF + 1, MemoryViolationFault("P2")),))
        other_fault = scenario(
            "z", faults=((2 * MTF, MemoryViolationFault("P4")),))
        assert prefix_key(base, 1) != prefix_key(other_tick, 1)
        assert prefix_key(base, 1) != prefix_key(other_fault, 1)

    def test_commands_enter_the_timeline_and_the_key(self):
        with_command = scenario("c", commands=((2 * MTF, "chi2"),))
        with_fault = scenario(
            "f", faults=((2 * MTF, MemoryViolationFault("P2")),))
        assert prefix_key(with_command, 1) != prefix_key(with_fault, 1)

    def test_depth_beyond_the_timeline_raises(self):
        with pytest.raises(ValueError, match="exceeds"):
            prefix_key(self.shared("s"), 5)


class TestPrefixLevels:
    def test_fault_free_scenario_has_only_the_root_level(self):
        levels = prefix_levels(scenario("s", ticks=4 * MTF))
        assert [(depth, tick) for depth, _, tick in levels] == \
            [(0, 4 * MTF // PREFIX_QUANTUM * PREFIX_QUANTUM)]

    def test_each_event_adds_a_level_at_its_quantized_boundary(self):
        spec = scenario("s", ticks=8 * MTF, faults=(
            (3 * MTF, MemoryViolationFault("P2")),
            (5 * MTF + 100, PartitionCrashFault("P2")),
        ))
        levels = prefix_levels(spec)
        quantize = lambda t: t // PREFIX_QUANTUM * PREFIX_QUANTUM
        assert [(depth, tick) for depth, _, tick in levels] == [
            (0, quantize(3 * MTF)),
            (1, quantize(5 * MTF + 100)),
            (2, quantize(8 * MTF)),
        ]

    def test_too_early_root_is_skipped_but_deeper_levels_survive(self):
        spec = scenario("s", ticks=4 * MTF,
                        faults=((100, MemoryViolationFault("P2")),))
        levels = prefix_levels(spec)
        assert [depth for depth, _, _ in levels] == [1]
        # The surviving checkpoint sits after the fault it applied.
        assert levels[0][2] >= 100

    def test_level_quantizing_below_its_last_event_is_skipped(self):
        # Second fault lands in the same quantum as the first: a depth-1
        # checkpoint would quantize to before the applied fault — invalid.
        spec = scenario("s", ticks=4 * MTF, faults=(
            (2 * MTF + 100, MemoryViolationFault("P2")),
            (2 * MTF + 200, PartitionCrashFault("P2")),
        ))
        depths = [depth for depth, _, _ in prefix_levels(spec)]
        assert 1 not in depths
        assert 0 in depths and 2 in depths

    def test_max_depth_truncates(self):
        spec = scenario("s", ticks=8 * MTF,
                        faults=((3 * MTF, MemoryViolationFault("P2")),))
        assert [d for d, _, _ in prefix_levels(spec, max_depth=0)] == [0]


class TestDivergenceTrie:
    def pair(self):
        lead = ((2 * MTF, MemoryViolationFault("P2")),
                (3 * MTF + 100, PartitionCrashFault("P2")))
        a = scenario("a", ticks=8 * MTF, faults=lead
                     + ((5 * MTF, MemoryViolationFault("P4")),))
        b = scenario("b", ticks=8 * MTF, faults=lead
                     + ((6 * MTF + 50, PartitionCrashFault("P4",
                                                           cold=True)),))
        return a, b

    def test_shared_levels_pinned_to_the_minimum_boundary(self):
        a, b = self.pair()
        plans = build_divergence_trie([a, b])
        assert plans["a"].capture_levels == plans["b"].capture_levels
        depths = [depth for depth, _, _ in plans["a"].capture_levels]
        assert depths == [0, 1, 2]
        # Depth 2 (both shared faults applied) diverges at 5*MTF for a,
        # 6*MTF+50 for b: pinned to the minimum quantized boundary so
        # both sharers address the same cache entry.
        quantize = lambda t: t // PREFIX_QUANTUM * PREFIX_QUANTUM
        assert plans["a"].capture_levels[2][2] == quantize(5 * MTF)
        ticks = [tick for _, _, tick in plans["a"].capture_levels]
        assert ticks == sorted(ticks)
        assert plans["a"].group_key == plans["b"].group_key \
            == plans["a"].capture_levels[2][1]

    def test_fork_levels_walk_deepest_first(self):
        a, b = self.pair()
        plan = build_divergence_trie([a, b])["a"]
        assert plan.fork_levels == tuple(reversed(plan.capture_levels))

    def test_unshared_scenarios_get_empty_plans(self):
        a, _ = self.pair()
        loner = scenario("loner", seed=99, ticks=4 * MTF)
        plans = build_divergence_trie([a, loner])
        assert plans["loner"].capture_levels == ()
        assert plans["loner"].group_key == "loner"
        assert plans["a"].capture_levels == ()  # nobody shares with a now
        assert plans["a"].group_key == "a"

    def test_root_only_sharing_without_common_faults(self):
        x = scenario("x", ticks=6 * MTF,
                     faults=((4 * MTF, MemoryViolationFault("P2")),))
        y = scenario("y", ticks=6 * MTF,
                     faults=((4 * MTF + 700, PartitionCrashFault("P2")),))
        plans = build_divergence_trie([x, y])
        assert [d for d, _, _ in plans["x"].capture_levels] == [0]
        # Pinned to the *minimum* quantized divergence across sharers.
        assert plans["x"].capture_levels[0][2] == \
            4 * MTF // PREFIX_QUANTUM * PREFIX_QUANTUM
        assert plans["y"].capture_levels == plans["x"].capture_levels
        assert plans["x"].group_key == scenario_fingerprint(x)

    def test_max_depth_zero_is_root_only(self):
        a, b = self.pair()
        plans = build_divergence_trie([a, b], max_depth=0)
        assert all(
            [d for d, _, _ in plan.capture_levels] == [0]
            for plan in plans.values())


class TestPlanExecution:
    """run_with_prefix_cache with a divergence-trie plan: multi-level
    forking is bit-identical to cold runs, and siblings hit the deepest
    shared checkpoint."""

    def pair(self):
        lead = ((2 * MTF, MemoryViolationFault("P2")),
                (3 * MTF + 100, PartitionCrashFault("P2")))
        a = scenario("a", ticks=8 * MTF, faults=lead
                     + ((5 * MTF, MemoryViolationFault("P4")),))
        b = scenario("b", ticks=8 * MTF, faults=lead
                     + ((6 * MTF + 50, PartitionCrashFault("P4",
                                                           cold=True)),))
        return a, b

    def test_multi_level_fork_matches_cold_runs(self):
        a, b = self.pair()
        plans = build_divergence_trie([a, b])
        cache = SnapshotCache()
        first = run_with_prefix_cache(a, cache, plan=plans["a"])
        second = run_with_prefix_cache(b, cache, plan=plans["b"])
        deepest_tick = plans["a"].capture_levels[-1][2]
        # The builder stored every shared level, ran from the deepest...
        assert cache.stats()["stores"] == len(plans["a"].capture_levels)
        assert first.forked_at_tick == deepest_tick
        # ...and the sibling exact-hit the deepest checkpoint directly.
        assert cache.stats()["hits"] == 1
        assert second.forked_at_tick == deepest_tick
        assert first.to_dict() == run_scenario(a).to_dict()
        assert second.to_dict() == run_scenario(b).to_dict()
        # Interior forks really did skip past applied faults.
        assert deepest_tick > 3 * MTF + 100
        assert first.faults_applied == 3

    def test_shallower_hit_extends_to_the_deeper_levels(self):
        a, b = self.pair()
        plans = build_divergence_trie([a, b])
        cache = SnapshotCache()
        # Seed only the root level, as a root-only planner would have.
        root = plans["a"].capture_levels[0]
        run_with_prefix_cache(
            a, cache,
            plan=type(plans["a"])(scenario_id="a", group_key="a",
                                  capture_levels=(root,)))
        stores_after_root = cache.stats()["stores"]
        assert stores_after_root == 1
        # The full plan finds the root, extends it to the deeper levels.
        result = run_with_prefix_cache(b, cache, plan=plans["b"])
        assert cache.stats()["stores"] == len(plans["b"].capture_levels)
        assert result.forked_at_tick == plans["b"].capture_levels[-1][2]
        assert result.to_dict() == run_scenario(b).to_dict()

    def test_empty_plan_runs_cold_without_caching(self):
        a, _ = self.pair()
        from repro.campaign.prefix import PrefixPlan

        cache = SnapshotCache()
        result = run_with_prefix_cache(
            a, cache, plan=PrefixPlan(scenario_id="a", group_key="a",
                                      capture_levels=()))
        assert result.ok and result.forked_at_tick == -1
        assert len(cache) == 0

    def test_plan_build_failure_degrades_to_cold(self, monkeypatch):
        from repro.kernel.snapshot import SimulatorSnapshot

        def broken_capture(cls, sim, extras=None):
            raise RuntimeError("capture exploded")

        monkeypatch.setattr(SimulatorSnapshot, "capture",
                            classmethod(broken_capture))
        a, b = self.pair()
        plans = build_divergence_trie([a, b])
        cache = SnapshotCache()
        result = run_with_prefix_cache(a, cache, plan=plans["a"])
        assert result.ok
        assert result.forked_at_tick == -1
        assert result.to_dict() == run_scenario(a).to_dict()
        assert cache.stats()["fallbacks"] == 1

    def test_healthy_campaign_counts_no_fallbacks(self):
        a, b = self.pair()
        plans = build_divergence_trie([a, b])
        cache = SnapshotCache()
        for spec in (a, b):
            run_with_prefix_cache(spec, cache, plan=plans[spec.scenario_id])
        assert cache.stats()["fallbacks"] == 0


class TestCampaignBitIdentity:
    """The ISSUE invariant: cache on/off, any worker count — one digest."""

    def campaign(self):
        return chaos_campaign(count=6, mtfs=10, base_seed=3,
                              shared_seed=True, prefix_mtfs=6)

    def deterministic(self, results):
        return json.dumps(deterministic_report(results), sort_keys=True)

    def test_serial_cache_on_equals_cache_off(self):
        campaign = self.campaign()
        cold = run_serial(campaign, prefix_cache=False)
        warm = run_serial(campaign, prefix_cache=True)
        assert self.deterministic(warm) == self.deterministic(cold)
        assert all(r.forked_at_tick >= 0 for r in warm)
        assert all(r.forked_at_tick == -1 for r in cold)

    def test_pooled_cache_on_equals_serial_cache_off(self):
        campaign = self.campaign()
        cold = run_serial(campaign, prefix_cache=False)
        pooled = run_campaign(campaign, workers=2, prefix_cache=True)
        assert self.deterministic(pooled) == self.deterministic(cold)

    def test_report_sidecar_carries_prefix_cache_stats(self):
        campaign = self.campaign()
        results = run_serial(campaign, prefix_cache=True)
        report = json.loads(report_json(results, include_timing=True))
        stats = report["timing"]["prefix_cache"]
        assert stats["forked_scenarios"] == len(campaign)
        assert stats["ticks_skipped"] > 0
        assert set(stats["per_scenario_forked_at"]) == \
            {s.scenario_id for s in campaign}
        # ...and the deterministic form never mentions the cache.
        assert "prefix_cache" not in report_json(results)

    def test_distinct_seeds_never_share_prefixes(self):
        campaign = chaos_campaign(count=3, mtfs=10, base_seed=3,
                                  prefix_mtfs=6)  # per-scenario seeds
        cold = run_serial(campaign, prefix_cache=False)
        warm = run_serial(campaign, prefix_cache=True)
        assert self.deterministic(warm) == self.deterministic(cold)
