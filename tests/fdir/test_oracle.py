"""Tests for the TSP invariant oracle (repro.fdir.oracle).

Every verdict here is also checked as a resumed fold: :func:`check_trace`
below splits the trace at every event index, folds the prefix into an
:class:`OracleState` (also pushed through a pickle round trip) and
resumes the check from it over the rest, which must give the one-pass
violations — the ``max_violations`` cap and the finalize flush included.
"""

import pickle

from repro.fdir import oracle
from repro.fdir.oracle import MAX_VIOLATIONS, OracleState, render_violations
from repro.kernel.simulator import Simulator
from repro.kernel.trace import (
    DeadlineMissed,
    DeadlineRegistered,
    HealthMonitorEvent,
    MemoryFault,
    PartitionDispatched,
    PartitionModeChanged,
    PartitionParked,
    ProcessDispatched,
    ScheduleSwitched,
    Trace,
)
from repro.types import ErrorCode, ErrorLevel, PartitionMode, RecoveryAction

from ..conftest import build_two_partition_config


def check_trace(trace, config=None, max_violations=MAX_VIOLATIONS):
    """The oracle's one-pass verdict, asserted equal to the resumed fold's
    at every split point, from a live and from an unpickled state."""
    verdict = oracle.check_trace(trace, config, max_violations)
    events = list(trace)
    prefix = OracleState(config)
    for split in range(len(events) + 1):
        if split:
            oracle.fold(prefix, events[split - 1:split], config,
                        max_violations)
        for state in (prefix.copy(),
                      pickle.loads(pickle.dumps(prefix))):
            assert oracle.check_trace(events[split:], config,
                                      max_violations, state=state) \
                == verdict, f"resumed at event {split}"
    return verdict


def violations_of(trace, config=None, **kwargs):
    return [v.invariant for v in check_trace(trace, config, **kwargs)]


class TestCleanTraces:
    def test_empty_trace_is_clean(self):
        assert check_trace(Trace()) == ()

    def test_real_run_passes_with_and_without_config(self):
        config = build_two_partition_config()
        simulator = Simulator(config)
        simulator.run(1000)
        assert check_trace(simulator.trace) == ()
        assert check_trace(simulator.trace, config) == ()


class TestMonotonicTime:
    def test_backwards_tick_is_flagged(self):
        trace = Trace()
        trace.record(PartitionDispatched(tick=100, previous=None, heir="P1"))
        trace.record(PartitionDispatched(tick=50, previous="P1", heir=None))
        assert violations_of(trace) == ["monotonic-time"]

    def test_max_violations_bounds_the_report(self):
        trace = Trace()
        trace.record(PartitionDispatched(tick=100, previous=None, heir=None))
        for tick in range(10):
            trace.record(PartitionDispatched(tick=tick, previous=None,
                                             heir=None))
        assert len(check_trace(trace, max_violations=3)) == 3


class TestWindowContainment:
    def test_process_outside_its_partition_window_is_flagged(self):
        trace = Trace()
        trace.record(PartitionDispatched(tick=0, previous=None, heir="P1"))
        trace.record(ProcessDispatched(tick=10, partition="P2",
                                       previous=None, heir="intruder"))
        assert violations_of(trace) == ["window-containment"]

    def test_idle_heir_is_not_a_violation(self):
        trace = Trace()
        trace.record(PartitionDispatched(tick=0, previous=None, heir="P1"))
        trace.record(ProcessDispatched(tick=10, partition="P2",
                                       previous="x", heir=None))
        assert check_trace(trace) == ()


class TestScheduleConformance:
    def test_wrong_partition_at_offset_is_flagged(self):
        config = build_two_partition_config()  # P1@[0,60), P2@[100,160)
        trace = Trace()
        trace.record(PartitionDispatched(tick=0, previous=None, heir="P2"))
        assert violations_of(trace, config) == ["schedule-conformance"]

    def test_conforming_dispatches_pass(self):
        config = build_two_partition_config()
        trace = Trace()
        trace.record(PartitionDispatched(tick=0, previous=None, heir="P1"))
        trace.record(PartitionDispatched(tick=60, previous="P1", heir=None))
        trace.record(PartitionDispatched(tick=100, previous=None, heir="P2"))
        trace.record(PartitionDispatched(tick=300, previous=None, heir="P2"))
        assert check_trace(trace, config) == ()

    def test_switch_off_mtf_boundary_is_flagged(self):
        config = build_two_partition_config()  # MTF 200
        trace = Trace()
        trace.record(ScheduleSwitched(tick=150, from_schedule="main",
                                      to_schedule="main"))
        assert violations_of(trace, config) == ["mtf-boundary-switch"]
        boundary = Trace()
        boundary.record(ScheduleSwitched(tick=400, from_schedule="main",
                                         to_schedule="main"))
        assert check_trace(boundary, config) == ()


class TestDeadlineDetection:
    def test_zero_latency_is_flagged(self):
        trace = Trace()
        trace.record(DeadlineMissed(tick=100, partition="P1", process="p",
                                    deadline_time=100, detection_latency=0))
        assert violations_of(trace) == ["deadline-detection"]

    def test_inconsistent_latency_is_flagged(self):
        trace = Trace()
        trace.record(DeadlineMissed(tick=105, partition="P1", process="p",
                                    deadline_time=100, detection_latency=3))
        assert violations_of(trace) == ["deadline-detection"]

    def test_detection_deferred_while_partition_ran_is_flagged(self):
        # Algorithm 3 detects within one clock tick while the partition
        # holds the processor — running past the expiry unflagged breaks it.
        trace = Trace()
        trace.record(PartitionDispatched(tick=0, previous=None, heir="P1"))
        trace.record(DeadlineMissed(tick=50, partition="P1", process="p",
                                    deadline_time=40, detection_latency=10))
        assert violations_of(trace) == ["deadline-detection"]

    def test_latency_over_idle_span_is_legitimate(self):
        # Deadline expired while another partition held the processor:
        # detection happens at the owner's next dispatch (same tick).
        trace = Trace()
        trace.record(PartitionDispatched(tick=0, previous=None, heir="P2"))
        trace.record(PartitionDispatched(tick=50, previous="P2", heir="P1"))
        trace.record(DeadlineMissed(tick=50, partition="P1", process="p",
                                    deadline_time=40, detection_latency=10))
        assert check_trace(trace) == ()

    def test_restarted_partition_is_exempt(self):
        trace = Trace()
        trace.record(PartitionDispatched(tick=0, previous=None, heir="P1"))
        trace.record(PartitionModeChanged(
            tick=45, partition="P1",
            previous_mode=PartitionMode.NORMAL.value,
            new_mode=PartitionMode.COLD_START.value))
        trace.record(DeadlineMissed(tick=50, partition="P1", process="p",
                                    deadline_time=40, detection_latency=10))
        assert check_trace(trace) == ()

    def test_late_registration_under_overload_is_legitimate(self):
        # An overloaded periodic release keeps its nominal deadline: the
        # store first learns of the (already expired) deadline at the
        # late release point and detects the miss the same tick, even
        # though the partition was running all along.
        trace = Trace()
        trace.record(PartitionDispatched(tick=0, previous=None, heir="P1"))
        trace.record(DeadlineRegistered(tick=50, partition="P1", process="p",
                                        deadline_time=40))
        trace.record(DeadlineMissed(tick=50, partition="P1", process="p",
                                    deadline_time=40, detection_latency=10))
        assert check_trace(trace) == ()

    def test_late_registration_only_defers_the_bound_to_that_tick(self):
        # Registered late at 45, but the partition then ran 45..50
        # without detecting — still a violation from the registration on.
        trace = Trace()
        trace.record(PartitionDispatched(tick=0, previous=None, heir="P1"))
        trace.record(DeadlineRegistered(tick=45, partition="P1", process="p",
                                        deadline_time=40))
        trace.record(DeadlineMissed(tick=50, partition="P1", process="p",
                                    deadline_time=40, detection_latency=10))
        assert violations_of(trace) == ["deadline-detection"]

    def test_late_registration_of_another_process_does_not_exempt(self):
        trace = Trace()
        trace.record(PartitionDispatched(tick=0, previous=None, heir="P1"))
        trace.record(DeadlineRegistered(tick=50, partition="P1",
                                        process="other", deadline_time=40))
        trace.record(DeadlineMissed(tick=50, partition="P1", process="p",
                                    deadline_time=40, detection_latency=10))
        assert violations_of(trace) == ["deadline-detection"]


class TestMemoryContainment:
    def fault(self, trace, tick=10):
        trace.record(MemoryFault(tick=tick, partition="P1", address=0xBAD,
                                 access="write"))

    def test_unreported_memory_fault_is_flagged(self):
        trace = Trace()
        self.fault(trace)
        assert violations_of(trace) == ["memory-containment"]

    def test_same_tick_hm_classification_satisfies(self):
        trace = Trace()
        self.fault(trace)
        trace.record(HealthMonitorEvent(
            tick=10, level=ErrorLevel.PARTITION.value,
            code=ErrorCode.MEMORY_VIOLATION.value, partition="P1",
            process=None, action=RecoveryAction.RESTART_PARTITION.value))
        assert check_trace(trace) == ()

    def test_later_tick_hm_event_does_not_satisfy(self):
        trace = Trace()
        self.fault(trace)
        trace.record(HealthMonitorEvent(
            tick=11, level=ErrorLevel.PARTITION.value,
            code=ErrorCode.MEMORY_VIOLATION.value, partition="P1",
            process=None, action=RecoveryAction.RESTART_PARTITION.value))
        assert violations_of(trace) == ["memory-containment"]


class TestParkedStaysParked:
    def test_parked_partition_running_a_process_is_flagged(self):
        trace = Trace()
        trace.record(PartitionParked(tick=100, partition="P1", restarts=3))
        trace.record(PartitionDispatched(tick=140, previous=None, heir="P1"))
        trace.record(ProcessDispatched(tick=150, partition="P1",
                                       previous=None, heir="zombie"))
        assert "parked-stays-parked" in violations_of(trace)

    def test_parked_partition_reentering_normal_mode_is_flagged(self):
        trace = Trace()
        trace.record(PartitionParked(tick=100, partition="P1", restarts=3))
        trace.record(PartitionModeChanged(
            tick=160, partition="P1",
            previous_mode=PartitionMode.IDLE.value,
            new_mode=PartitionMode.NORMAL.value))
        assert violations_of(trace) == ["parked-stays-parked"]

    def test_parked_partition_staying_idle_is_clean(self):
        trace = Trace()
        trace.record(PartitionParked(tick=100, partition="P1", restarts=3))
        trace.record(PartitionModeChanged(
            tick=100, partition="P1",
            previous_mode=PartitionMode.NORMAL.value,
            new_mode=PartitionMode.IDLE.value))
        assert check_trace(trace) == ()


class TestRendering:
    def test_empty_report(self):
        assert "all TSP invariants hold" in render_violations(())

    def test_violations_render_one_line_each(self):
        trace = Trace()
        trace.record(DeadlineMissed(tick=105, partition="P1", process="p",
                                    deadline_time=100, detection_latency=3))
        report = render_violations(check_trace(trace))
        assert "1 invariant violation" in report
        assert "[deadline-detection]" in report
        assert "P1/p" in report
