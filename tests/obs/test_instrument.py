"""Tests for live instrumentation and its determinism guarantees."""

import pytest

from repro.apps.prototype import (
    MTF,
    STEADY_MTF,
    build_prototype,
    inject_faulty_process,
    make_simulator,
    make_steady_simulator,
)
from repro.kernel.trace import DeadlineMissed, PartitionDispatched
from repro.obs import instrument
from repro.obs.fold import MetricsState, fold, total
from repro.vitral.windows import VitralScreen


def instrumented_run(*, fast, mtfs=3, faulty=True, seed=0):
    handles = build_prototype(seed=seed)
    simulator = make_simulator(handles)
    observer = instrument(simulator)
    if faulty:
        inject_faulty_process(simulator)
    handles.ttc_stats.queue_schedule_command("chi2")
    runner = simulator.run_fast if fast else simulator.run
    runner(mtfs * MTF)
    return simulator, observer


class TestLiveCounters:
    def test_deadline_misses_match_trace(self):
        simulator, observer = instrumented_run(fast=True)
        registry = observer.collect()
        assert registry.counter_total("air_deadline_misses_total") == \
            simulator.trace.count(DeadlineMissed)
        assert registry.counter_total("air_deadline_misses_total") > 0

    def test_detection_latency_histogram_populated(self):
        _, observer = instrumented_run(fast=True)
        histogram = observer.registry.histogram(
            "air_deadline_detection_latency_ticks", partition="P1")
        assert histogram.count > 0
        assert histogram.max >= histogram.min >= 0

    def test_component_counters_collected(self):
        simulator, observer = instrumented_run(fast=True)
        document = observer.collect().to_dict()
        assert document["gauges"]["air_ticks_executed"] == \
            simulator.pmk.ticks_executed
        assert document["gauges"]["air_partition_ticks{partition=P1}"] == \
            simulator.pmk.partition_ticks["P1"]
        assert document["gauges"]["air_scheduler_ticks"] == \
            simulator.pmk.scheduler.stats.ticks

    def test_schedule_switch_counted_with_labels(self):
        _, observer = instrumented_run(fast=True)
        counter = observer.registry.counter(
            "air_schedule_switches_total",
            from_schedule="chi1", to_schedule="chi2")
        assert counter.value == 1


class TestCursor:
    """The registry folds the log from a cursor: however often it is
    read, it equals one fold of the events since the cursor started."""

    @pytest.mark.parametrize("fast", [True, False])
    def test_collect_mid_run_equals_one_collect_at_the_end(self, fast):
        def run(reads):
            handles = build_prototype()
            simulator = make_simulator(handles)
            metrics = instrument(simulator)
            inject_faulty_process(simulator)
            handles.ttc_stats.queue_schedule_command("chi2")
            runner = simulator.run_fast if fast else simulator.run
            for _ in range(3):
                runner(MTF + 7)
                if reads:
                    metrics.collect()
            return simulator, metrics.collect().to_json()

        simulator, read_often = run(reads=True)
        assert read_often == run(reads=False)[1]
        assert read_often == \
            instrument(simulator, replay=True).collect().to_json()

    def test_replayed_frames_are_folded(self):
        simulator = make_steady_simulator()
        metrics = instrument(simulator)
        for _ in range(4):
            simulator.run_fast(3 * STEADY_MTF + 11)
            metrics.collect()
        assert simulator.cycle_cache_stats["hits"] > 0
        assert metrics.collect().to_json() == \
            instrument(simulator, replay=True).collect().to_json()
        plain = make_steady_simulator()
        plain_metrics = instrument(plain)
        plain.run_fast(simulator.now)
        assert metrics.collect().digest() == plain_metrics.collect().digest()

    def test_attached_later_counts_only_later_events(self):
        simulator = make_simulator(build_prototype())
        simulator.run_fast(2 * MTF)
        start = len(simulator.trace)
        metrics = instrument(simulator)
        simulator.run_fast(MTF)
        later = simulator.trace.events[start:]
        assert 0 < len(later) < len(simulator.trace)
        switches = metrics.collect().counter_total(
            "air_partition_context_switches_total")
        assert switches == sum(isinstance(event, PartitionDispatched)
                               for event in later)
        assert total(metrics.state.partition_context_switches) == switches

    def test_vitral_metrics_window_shows_the_whole_log(self):
        simulator = make_simulator(build_prototype())
        inject_faulty_process(simulator)
        simulator.run_fast(2 * MTF)
        screen = VitralScreen(simulator)
        simulator.run_fast(MTF)
        screen.sync()
        whole = fold(MetricsState(), simulator.trace)
        misses = total(whole.deadline_misses)
        assert misses == simulator.trace.count(DeadlineMissed) > 0
        assert f"deadline misses {misses}" in screen.metrics_window.lines
        assert f"hm events {total(whole.hm_events)}  mem faults " \
            f"{total(whole.memory_faults)}" in screen.metrics_window.lines


class TestDeterminism:
    """The ISSUE's acceptance criteria: byte-identical registry output."""

    def test_same_scenario_twice_is_byte_identical(self):
        a = instrumented_run(fast=True)[1].collect().to_json()
        b = instrumented_run(fast=True)[1].collect().to_json()
        assert a == b

    def test_run_fast_vs_stepped_is_byte_identical(self):
        fast = instrumented_run(fast=True)[1].collect().to_json()
        stepped = instrumented_run(fast=False)[1].collect().to_json()
        assert fast == stepped

    def test_registry_is_sensitive_to_the_run(self):
        faulty = instrumented_run(fast=True, faulty=True)[1].collect()
        healthy = instrumented_run(fast=True, faulty=False)[1].collect()
        assert faulty.to_json() != healthy.to_json()
        assert faulty.digest() != healthy.digest()

    def test_instrumented_trace_equals_uninstrumented(self):
        instrumented = instrumented_run(fast=True)[0]
        handles = build_prototype()
        bare = make_simulator(handles)
        inject_faulty_process(bare)
        handles.ttc_stats.queue_schedule_command("chi2")
        bare.run_fast(3 * MTF)
        assert bare.trace.digest() == instrumented.trace.digest()
