"""The metrics fold and its three views: golden bytes and agreement.

The live registry (:class:`repro.obs.instrument.SimulatorMetrics`), the
derived report (:func:`repro.obs.derived.derived_metrics`) and the
campaign pairs (:func:`repro.obs.derived.compact_metrics`) all read one
per-event fold (:mod:`repro.obs.fold`).  The golden digests pin the
derived report's bytes on the two canonical single-simulator workloads;
the property tests assert that the views agree on generated runs.
"""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.prototype import (
    MTF,
    build_prototype,
    inject_faulty_process,
    make_simulator,
    make_steady_simulator,
)
from repro.campaign.scenarios import chaos_campaign
from repro.constellation.runner import ConstellationRun
from repro.constellation.scenarios import constellation_campaign
from repro.fault.injector import FaultInjector
from repro.kernel.simulator import Simulator
from repro.obs import (
    AIR_INSTRUMENTS,
    COMPACT_METRIC_NAMES,
    compact_metrics,
    derived_metrics,
    derived_to_json,
    instrument,
)
from repro.obs.derived import COMPACT_QUANTITIES
from repro.obs.fold import MetricsState, total

#: sha256 of ``derived_to_json(derived_metrics(trace, config))`` for the
#: E13 prototype with the faulty process injected, 100 MTFs, seed 0.
E13_DERIVED_SHA256 = \
    "0e3f40e51b51145d1cd938c7680701c79fa7f2a61daaf331d7ae643b43101945"

#: The same digest for the steady-cruise configuration, 200 MTFs, seed 0.
STEADY_DERIVED_SHA256 = \
    "fd275857427be9d3738e0f6abad9f0665e171d97bd25523b98fc06c47c79ee6b"

#: The live registry's digest on that trace (perfbench pins the same
#: value as e13-faulty's ``metrics_digest``).
E13_REGISTRY_DIGEST = "7b3af05073141ac3"

#: E13's campaign pairs on that trace.  ``peak_queue_depth`` reads the
#: send count of ``tm_out`` (see the depth step in repro.obs.fold).
E13_COMPACT = (
    ("context_switches", 700),
    ("deadline_detection_latency_max", 1010),
    ("deadline_detection_latency_sum", 98739),
    ("deadline_misses", 99),
    ("delivery_latency_max", 309),
    ("delivery_latency_sum", 492),
    ("fdir_escalations", 0),
    ("fdir_parked", 0),
    ("fdir_watchdog_expiries", 0),
    ("hm_events", 99),
    ("peak_queue_depth", 200),
    ("port_received", 400),
    ("port_sent", 300),
    ("process_dispatches", 1200),
)


@pytest.fixture(scope="module")
def e13():
    simulator = make_simulator(build_prototype(seed=0))
    inject_faulty_process(simulator)
    simulator.run_fast(100 * MTF)
    return simulator


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestGolden:
    def test_e13_derived_report_bytes(self, e13):
        report = derived_to_json(derived_metrics(e13.trace, e13.config))
        assert _sha256(report) == E13_DERIVED_SHA256

    def test_steady_cruise_derived_report_bytes(self):
        simulator = make_steady_simulator(seed=0)
        simulator.run_fast(200 * MTF)
        report = derived_to_json(
            derived_metrics(simulator.trace, simulator.config))
        assert _sha256(report) == STEADY_DERIVED_SHA256

    def test_e13_registry_digest(self, e13):
        registry = instrument(e13, replay=True).collect()
        assert registry.digest() == E13_REGISTRY_DIGEST

    def test_e13_compact_pairs(self, e13):
        assert compact_metrics(e13.trace) == E13_COMPACT


@st.composite
def chaos_runs(draw):
    """A chaos-suite scenario at a few MTFs, keeping a subset of its
    faults."""
    scenario = draw(st.sampled_from(chaos_campaign(
        count=4, mtfs=draw(st.integers(4, 6)),
        base_seed=draw(st.integers(0, 3)))))
    keep = draw(st.sets(st.integers(0, len(scenario.faults) - 1)))
    return replace(scenario, faults=tuple(
        fault for index, fault in enumerate(scenario.faults)
        if index in keep))


def _histogram_values(registry, name, key):
    return [value[key] for series, value
            in registry.to_dict()["histograms"].items()
            if series.split("{")[0] == name]


def _distribution_values(sections, field, key):
    return [section[field][key] for section in sections
            if section[field]["count"]]


class TestViewsAgree:
    @given(chaos_runs())
    @settings(max_examples=25, deadline=None)
    def test_registry_derived_and_compact_agree(self, scenario):
        config = scenario.build_config()
        simulator = Simulator(config)
        live = instrument(simulator)
        injector = FaultInjector(simulator)
        for tick, fault in scenario.timeline():
            injector.schedule(tick, fault)
        injector.run_fast(scenario.ticks)

        registry = live.collect()
        replayed = instrument(simulator, replay=True).collect()
        assert registry.digest() == replayed.digest()
        for series in (*registry.to_dict()["counters"],
                       *registry.to_dict()["histograms"]):
            assert series.split("{")[0] in AIR_INSTRUMENTS

        state = MetricsState()
        pairs = dict(compact_metrics(simulator.trace, state))
        report = derived_metrics(simulator.trace, config)
        deadline = report["deadline"].values()
        ports = report["ports"].values()
        counted = registry.counter_total
        assert pairs["port_sent"] == \
            counted("air_port_messages_sent_total") == \
            sum(port["sent"] for port in ports)
        assert pairs["port_received"] == \
            counted("air_port_messages_received_total") == \
            sum(port["received"] for port in ports)
        assert pairs["deadline_misses"] == \
            counted("air_deadline_misses_total") == \
            sum(partition["misses"] for partition in deadline)
        assert pairs["process_dispatches"] == \
            counted("air_process_dispatches_total") == \
            sum(partition["process_dispatches"] for partition in deadline)
        assert pairs["hm_events"] == counted("air_hm_events_total") == \
            sum(report["hm_events"].values())
        assert pairs["context_switches"] == \
            counted("air_partition_context_switches_total")
        assert total(state.memory_faults) == report["memory_faults"] == \
            counted("air_memory_faults_total")
        for pair, instrument_name, sections, field in (
                ("deadline_detection_latency",
                 "air_deadline_detection_latency_ticks", deadline,
                 "detection_latency"),
                ("delivery_latency", "air_port_delivery_latency_ticks",
                 ports, "delivery_latency")):
            assert pairs[f"{pair}_sum"] == \
                sum(_histogram_values(registry, instrument_name, "sum")) \
                == sum(_distribution_values(sections, field, "sum"))
            assert pairs[f"{pair}_max"] == \
                max(_histogram_values(registry, instrument_name, "max"),
                    default=0) == \
                max(_distribution_values(sections, field, "max"),
                    default=0)
        assert pairs["peak_queue_depth"] == \
            max(_histogram_values(registry, "air_port_queue_depth", "max"),
                default=0) == \
            max((port["peak_queue_depth"] for port in ports), default=0)

    def test_only_maxima_combine_by_max(self):
        # peak_queue_depth stays a fleet sum of node peaks.
        assert {name for name, _, _, combine in COMPACT_QUANTITIES
                if combine is max} == \
            {name for name in COMPACT_METRIC_NAMES if name.endswith("_max")}

    @given(st.integers(0, 20), st.integers(2, 3))
    @settings(max_examples=6, deadline=None)
    def test_fleet_pairs_combine_the_nodes(self, base_seed, nodes):
        scenario = constellation_campaign(
            count=1, nodes=nodes, mtfs=6, base_seed=base_seed)[0]
        run = ConstellationRun(scenario)
        run.build()
        run.schedule()
        run.advance(None)
        fleet, states = run.metrics()
        per_node = [dict(compact_metrics(node.simulator.trace))
                    for node in run.constellation.nodes]
        assert fleet == tuple(
            (name, combine([pairs[name] for pairs in per_node]))
            for name, _, _, combine in COMPACT_QUANTITIES)
        assert [total(state.port_messages_sent) for state in states] == \
            [pairs["port_sent"] for pairs in per_node]
