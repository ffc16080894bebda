"""Tests for offline derived metrics (repro.obs.derived)."""

from repro.apps.prototype import (
    MTF,
    build_prototype,
    inject_faulty_process,
    make_simulator,
)
from repro.kernel.trace import (
    DeadlineMissed,
    MemoryFault,
    PartitionDispatched,
    PortMessageReceived,
    PortMessageSent,
    ScheduleSwitched,
    Trace,
)
from repro.obs import compact_metrics, derived_metrics, derived_to_json
from repro.obs.derived import (
    _dispatch_spans,
    _make_frame_occupancy,
    distribution,
    percentile,
)


def prototype_run(mtfs=3, switch=True):
    handles = build_prototype()
    simulator = make_simulator(handles)
    inject_faulty_process(simulator)
    if switch:
        handles.ttc_stats.queue_schedule_command("chi2")
    simulator.run_fast(mtfs * MTF)
    return simulator


class TestPercentiles:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.90) == 90
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 100

    def test_single_value(self):
        assert percentile([7], 0.5) == 7

    def test_distribution_empty(self):
        summary = distribution([])
        assert summary["count"] == 0
        assert summary["p99"] is None


class TestOccupancyAgainstEntitlement:
    def test_occupancy_matches_pmk_counters(self):
        simulator = prototype_run()
        report = derived_metrics(simulator.trace, simulator.config,
                                 horizon=simulator.now)
        for partition, ticks in simulator.pmk.partition_ticks.items():
            assert report["occupancy"][partition]["ticks"] == ticks

    def test_entitlement_per_schedule_reported(self):
        simulator = prototype_run()
        report = derived_metrics(simulator.trace, simulator.config)
        entitlement = report["occupancy"]["P1"]["entitlement"]
        chi1 = simulator.config.model.schedule("chi1")
        assert entitlement["chi1"]["allocated"] == chi1.allocated_time("P1")
        assert entitlement["chi1"]["fraction"] == \
            chi1.allocated_time("P1") / chi1.major_time_frame

    def test_schedule_segments_cover_the_switch(self):
        simulator = prototype_run()
        report = derived_metrics(simulator.trace, simulator.config,
                                 horizon=simulator.now)
        segments = report["schedules"]
        assert [s["schedule"] for s in segments] == ["chi1", "chi2"]
        switch = simulator.trace.last(ScheduleSwitched)
        assert segments[0]["end"] == switch.tick
        assert segments[1]["start"] == switch.tick
        assert segments[-1]["end"] == simulator.now

    def test_mtf_series_frames_sum_to_occupancy(self):
        simulator = prototype_run(switch=False)
        report = derived_metrics(simulator.trace, simulator.config,
                                 horizon=simulator.now)
        series = report["utilization_series"]
        assert len(series) == 3  # three chi1 MTFs
        assert all(frame["ticks"] == MTF for frame in series)
        for partition in ("P1", "P2", "P3", "P4"):
            total = sum(frame["occupied"][partition] for frame in series)
            assert total == report["occupancy"][partition]["ticks"]

    def test_frame_occupancy_matches_the_overlap_scan(self):
        """The bisecting per-frame kernel against the scan of every span,
        on frames that start and end mid-span, before the first span and
        past the horizon."""
        simulator = prototype_run(mtfs=4)
        partitions = ("P1", "P2", "P3", "P4")
        horizon = simulator.now
        spans = _dispatch_spans(simulator.trace, horizon)
        occupancy = _make_frame_occupancy(spans, partitions)
        frames = [(start, start + length)
                  for start in range(0, horizon + MTF, 97)
                  for length in (1, 50, MTF, 3 * MTF)]
        for frame_start, frame_end in frames:
            assert occupancy(frame_start, frame_end) == {
                partition: sum(
                    max(0, min(end, frame_end) - max(start, frame_start))
                    for start, end, owner in spans if owner == partition)
                for partition in partitions}


class TestTraceIntrinsic:
    def test_misses_and_latencies(self):
        simulator = prototype_run()
        report = derived_metrics(simulator.trace, simulator.config)
        misses = simulator.trace.of_type(DeadlineMissed)
        assert report["deadline"]["P1"]["misses"] == len(misses)
        assert report["deadline"]["P1"]["detection_latency"]["count"] == \
            len(misses)
        assert 0.0 < report["deadline"]["P1"]["miss_rate"] < 1.0

    def test_port_latencies(self):
        simulator = prototype_run()
        report = derived_metrics(simulator.trace, simulator.config)
        received = simulator.trace.of_type(PortMessageReceived)
        total = sum(entry["received"] for entry in report["ports"].values())
        assert total == len(received)
        for entry in report["ports"].values():
            assert entry["peak_queue_depth"] >= 0

    def test_works_without_config(self):
        simulator = prototype_run()
        report = derived_metrics(simulator.trace)
        assert report["utilization_series"] == []
        assert report["occupancy"]["P1"]["ticks"] > 0
        assert "entitlement" not in report["occupancy"]["P1"]

    def test_empty_trace(self):
        report = derived_metrics(Trace())
        assert report["horizon"] == 0
        assert report["occupancy"] == {}
        assert report["events"] == 0

    def test_empty_trace_canonical_json_round_trips(self):
        import json

        report = derived_metrics(Trace())
        assert json.loads(derived_to_json(report)) == report
        assert report["utilization_series"] == []
        assert report["ports"] == {}
        assert report["hm_events"] == {}

    def test_single_mtf_trace(self):
        """One MTF, no switch: exactly one utilization frame, occupancy
        sums to the frame, and the jitter sample for each partition is a
        single dispatch (empty interval distribution)."""
        simulator = prototype_run(mtfs=1, switch=False)
        report = derived_metrics(simulator.trace, simulator.config,
                                 horizon=simulator.now)
        assert simulator.now == MTF
        series = report["utilization_series"]
        assert len(series) == 1
        assert series[0]["ticks"] == MTF
        for partition, entry in report["occupancy"].items():
            assert series[0]["occupied"][partition] == entry["ticks"]
        assert [s["schedule"] for s in report["schedules"]] == ["chi1"]


class TestDeterminism:
    def test_derived_json_byte_identical_across_modes(self):
        def one(fast):
            handles = build_prototype()
            simulator = make_simulator(handles)
            inject_faulty_process(simulator)
            handles.ttc_stats.queue_schedule_command("chi2")
            (simulator.run_fast if fast else simulator.run)(3 * MTF)
            return derived_to_json(
                derived_metrics(simulator.trace, simulator.config))
        assert one(True) == one(True)
        assert one(True) == one(False)

    def test_survives_jsonl_round_trip(self, tmp_path):
        simulator = prototype_run()
        path = str(tmp_path / "trace.jsonl")
        simulator.trace.save_jsonl(path)
        rebuilt = Trace.load_jsonl(path)
        assert derived_to_json(derived_metrics(rebuilt, simulator.config)) \
            == derived_to_json(
                derived_metrics(simulator.trace, simulator.config))


class TestCompactMetrics:
    def test_pairs_match_trace_counts(self):
        simulator = prototype_run()
        pairs = dict(compact_metrics(simulator.trace))
        assert pairs["deadline_misses"] == \
            simulator.trace.count(DeadlineMissed)
        assert pairs["context_switches"] == \
            simulator.trace.count(PartitionDispatched)
        assert pairs["port_sent"] == \
            simulator.trace.count(PortMessageSent)

    def test_tally_counts_further_classes_in_the_same_pass(self):
        simulator = prototype_run()
        tally = {ScheduleSwitched: 0, MemoryFault: 0}
        pairs = compact_metrics(simulator.trace, tally)
        assert pairs == compact_metrics(simulator.trace)
        assert tally == {
            ScheduleSwitched: simulator.trace.count(ScheduleSwitched),
            MemoryFault: simulator.trace.count(MemoryFault)}

    def test_names_sorted_and_ints(self):
        simulator = prototype_run()
        pairs = compact_metrics(simulator.trace)
        names = [name for name, _ in pairs]
        assert names == sorted(names)
        assert all(isinstance(value, int) for _, value in pairs)

    def test_empty_trace_is_all_zero(self):
        assert all(value == 0 for _, value in compact_metrics(Trace()))

    def test_names_match_the_governed_constant(self):
        from repro.obs.derived import COMPACT_METRIC_NAMES

        pairs = compact_metrics(Trace())
        assert tuple(name for name, _ in pairs) == COMPACT_METRIC_NAMES


class TestDistribution:
    def test_one_sort_matches_percentile_on_edge_samples(self):
        samples = ([7], [3, 1, 2], list(range(100, 0, -1)),
                   [5] * 9, [0, 0, 1, 10**9])
        for sample in samples:
            assert distribution(sample) == {
                "count": len(sample), "sum": sum(sample),
                "min": min(sample), "max": max(sample),
                "p50": percentile(sample, 0.50),
                "p90": percentile(sample, 0.90),
                "p99": percentile(sample, 0.99)}
