"""One configuration, many simulators (DESIGN decision 14).

A campaign builds each configuration once per scenario fingerprint and
hands that one :class:`SystemConfig` to the checkpoint chain, every fork
and every cold run with the same fingerprint.  That rests on one premise:
a configuration is stateless integration data, so simulators built from
one object behave exactly like simulators built from separate ones.
These tests pin the premise, the once-per-state validation memo, and the
failure path of a build that raises.
"""

import pytest

from repro.apps.base import spin_forever
from repro.apps.prototype import MTF
from repro.campaign.prefix import (
    PrefixPlan,
    SnapshotCache,
    run_with_prefix_cache,
    scenario_fingerprint,
)
from repro.campaign.results import STATUS_CRASHED, STATUS_OK, report_json
from repro.campaign.runner import run_campaign, run_scenario
from repro.campaign.scenarios import FACTORIES, Scenario
from repro.config.loader import dump_config
from repro.config.schema import SystemConfig
from repro.exceptions import ConfigurationError, ValidationError
from repro.fault.faults import MemoryViolationFault, PartitionCrashFault
from repro.fault.injector import FaultInjector
from repro.kernel.simulator import Simulator

#: One scenario per registered factory (``broken`` builds nothing) plus
#: a configuration-document scenario.
SHARED = {
    "prototype": Scenario(scenario_id="prototype", factory="prototype",
                          seed=3),
    "prototype-fdir": Scenario(
        scenario_id="prototype-fdir", factory="prototype", seed=3,
        factory_kwargs={"fdir_supervision": True}),
    "generated": Scenario(scenario_id="generated", factory="generated",
                          seed=5),
    "config-doc": Scenario(
        scenario_id="config-doc",
        config_doc=dump_config(FACTORIES["prototype"](seed=2))),
}

#: Ticks per interleaved slice: neither a divisor nor a multiple of the MTF.
SLICE = 377


def _drive(first: SystemConfig, second: SystemConfig, *, mtfs: int = 6):
    """Trace digests of two simulators on *first* and *second*, advanced
    in alternating slices; a partition crash and a memory violation hit
    only the first.  Halfway, the first is checkpointed and a fork is
    restored onto *second*'s configuration object and run alongside."""
    a, b = Simulator(first), Simulator(second)
    crashed = first.model.partition_names[-1]
    injector = FaultInjector(a)
    injector.schedule(MTF + 5, PartitionCrashFault(crashed))
    injector.schedule(2 * MTF + 250, MemoryViolationFault(crashed))
    others = [FaultInjector(b)]
    horizon = mtfs * MTF
    while a.now < horizon:
        span = min(SLICE, horizon - a.now)
        for driver in [injector] + others:
            driver.run_fast(span)
        if len(others) == 1 and a.now >= horizon // 2:
            fork = a.snapshot().restore(second)
            others.append(FaultInjector(fork))
    fork_digest = others[1].simulator.trace.digest()
    return a.trace.digest(), b.trace.digest(), fork_digest


class TestSharingPremise:
    def test_every_registered_factory_is_covered(self):
        covered = {scenario.factory for scenario in SHARED.values()
                   if scenario.config_doc is None}
        assert covered == set(FACTORIES) - {"broken"}

    @pytest.mark.parametrize("name", sorted(SHARED))
    def test_one_config_object_runs_like_separate_ones(self, name):
        scenario = SHARED[name]
        shared = scenario.build_config()
        one = _drive(shared, shared)
        separate = _drive(scenario.build_config(), scenario.build_config())
        assert one == separate
        faulted, clean, fork = one
        assert faulted != clean      # the fault reached only one simulator
        assert fork == faulted       # the fork continued the first one


class TestValidationMemo:
    def test_many_simulators_validate_an_unchanged_config_once(
            self, monkeypatch):
        calls = []
        validate = SystemConfig.validate

        def counted(config):
            calls.append(config)
            return validate(config)

        monkeypatch.setattr(SystemConfig, "validate", counted)
        config = FACTORIES["prototype"](seed=0)
        for _ in range(3):
            Simulator(config)
        assert len(calls) == 1  # the builder's, reused by every Pmk

    def test_a_body_for_an_unknown_process_is_caught(self):
        config = FACTORIES["prototype"](seed=0)
        Simulator(config)
        config.runtime["P2"].bodies["ghost"] = spin_forever
        with pytest.raises(ValidationError, match="BODY_FOR_UNKNOWN_PROCESS"):
            Simulator(config)

    def test_an_auto_start_entry_without_a_body_is_caught(self):
        config = FACTORIES["prototype"](seed=0)
        Simulator(config)
        runtime = config.runtime["P2"]
        process = next(iter(runtime.bodies))
        del runtime.bodies[process]
        Simulator(config)  # a process without a body is legal...
        runtime.auto_start = (process,)
        with pytest.raises(ValidationError, match="AUTOSTART_WITHOUT_BODY"):
            Simulator(config)  # ...auto-starting it is not

    def test_a_replaced_model_is_validated_again(self, monkeypatch):
        config = FACTORIES["prototype"](seed=0)
        other = FACTORIES["generated"](seed=1)
        calls = []
        validate = SystemConfig.validate
        monkeypatch.setattr(SystemConfig, "validate",
                            lambda c: calls.append(c) or validate(c))
        config.model = other.model
        config.runtime = {}
        config.channels = ()
        config.fdir = None
        Simulator(config)
        assert calls == [config]


class TestConfigMemo:
    def test_one_build_per_fingerprint(self):
        scenarios = [Scenario(scenario_id=f"s{i}", seed=i % 2,
                              ticks=2 * MTF) for i in range(6)]
        cache = SnapshotCache()
        configs = [cache.config(scenario) for scenario in scenarios]
        assert cache.stats()["config_builds"] == 2
        assert configs[0] is configs[2] is configs[4]
        assert configs[1] is configs[3] is not configs[0]

    def test_the_memo_never_pickles(self):
        import pickle

        cache = SnapshotCache()
        scenario = SHARED["prototype"]
        cache.config(scenario)
        clone = pickle.loads(pickle.dumps(cache))
        clone.config(scenario)
        assert clone.stats()["config_builds"] == 2  # rebuilt on arrival

    def test_the_memo_is_bounded_by_the_capacity(self):
        cache = SnapshotCache(capacity=2)
        scenarios = [Scenario(scenario_id=f"s{i}", seed=i, ticks=MTF)
                     for i in range(3)]
        for scenario in scenarios + scenarios[2:]:
            cache.config(scenario)
        assert cache.stats()["config_builds"] == 3
        cache.config(scenarios[0])  # evicted: built again
        assert cache.stats()["config_builds"] == 4

    def test_campaign_runs_share_one_config_per_fingerprint(self):
        scenarios = [Scenario(scenario_id=f"s{i}", seed=0, ticks=4 * MTF,
                              faults=((2 * MTF + 7 * i,
                                       PartitionCrashFault("P2")),))
                     for i in range(4)]
        for prefix_cache in (True, False):
            telemetry = {}
            results = run_campaign(scenarios, prefix_cache=prefix_cache,
                                   telemetry=telemetry)
            stats = telemetry["workers"]["serial"]["prefix_cache"]
            assert stats["config_builds"] == 1
            assert report_json(results) == report_json(
                [run_scenario(scenario) for scenario in scenarios])


class TestFailedBuilds:
    """A build that raises is the scenario's crash, never a memo entry."""

    @staticmethod
    def broken(seeds, **kwargs):
        return [Scenario(scenario_id=f"b{i}", factory="broken", seed=seed,
                         ticks=4 * MTF, **kwargs)
                for i, seed in enumerate(seeds)]

    def check(self, scenarios, attempts):
        reference = report_json(
            [run_scenario(scenario) for scenario in scenarios])
        for prefix_cache in (True, False):
            telemetry = {}
            results = run_campaign(scenarios, prefix_cache=prefix_cache,
                                   telemetry=telemetry)
            assert [result.status for result in results] == \
                [STATUS_CRASHED] * len(scenarios)
            assert all(result.error.startswith(
                "ConfigurationError: broken factory")
                for result in results)
            assert report_json(results) == reference
            stats = telemetry["workers"]["serial"]["prefix_cache"]
            assert stats["config_builds"] == attempts[prefix_cache]

    def test_broken_factory_crashes_every_scenario(self):
        self.check(self.broken([0, 1, 2, 3]), attempts={True: 4, False: 4})

    def test_shared_fingerprint_group_whose_build_raises(self):
        shared = ((2 * MTF, PartitionCrashFault("P2")),
                  (3 * MTF, MemoryViolationFault("P2")))
        scenarios = self.broken([0, 0, 0], faults=shared)
        assert len({scenario_fingerprint(s) for s in scenarios}) == 1
        # With the cache on, each scenario first tries (and fails) to
        # build the shared chain, then to build its own run.
        self.check(scenarios, attempts={True: 6, False: 3})

    def test_a_failed_build_is_not_memoized(self, monkeypatch):
        attempts = []

        def flaky(seed=0, **kwargs):
            attempts.append(seed)
            if len(attempts) == 1:
                raise ConfigurationError("first build fails")
            return FACTORIES["prototype"](seed=seed)

        monkeypatch.setitem(FACTORIES, "flaky", flaky)
        scenarios = [Scenario(scenario_id=f"f{i}", factory="flaky",
                              ticks=2 * MTF) for i in range(3)]
        cache = SnapshotCache()
        plan = PrefixPlan(scenario_id="", group_key="", capture_levels=())
        results = [run_with_prefix_cache(scenario, cache, plan=plan)
                   for scenario in scenarios]
        assert [result.status for result in results] == \
            [STATUS_CRASHED, STATUS_OK, STATUS_OK]
        assert results[0].error == "ConfigurationError: first build fails"
        assert len(attempts) == 2
        assert cache.stats()["config_builds"] == 2
