"""Sect. 6 prototype behaviour: the paper's demonstration scenarios as tests.

These are the E3/E4 experiment assertions in test form: deadline-miss
detection on every P1 dispatch after injection, and schedule switches
honoured only at MTF boundaries without induced violations.
"""

import pytest

from repro.apps.prototype import (
    FAULTY_PROCESS,
    MTF,
    build_prototype,
    inject_faulty_process,
    make_simulator,
    make_steady_simulator,
)
from repro.kernel.trace import (
    DeadlineMissed,
    HealthMonitorEvent,
    ScheduleSwitched,
)
from repro.types import PartitionMode


class TestHealthyOperation:
    def test_no_deadline_misses_without_injection(self):
        sim = make_simulator()
        sim.run_mtf(6)
        assert sim.trace.count(DeadlineMissed) == 0

    def test_all_partitions_reach_normal_mode(self):
        sim = make_simulator()
        sim.run_mtf(2)
        for name in ("P1", "P2", "P3", "P4"):
            assert sim.runtime(name).mode is PartitionMode.NORMAL

    def test_data_flows_across_partitions(self):
        handles = build_prototype()
        sim = make_simulator(handles)
        sim.run_mtf(5)
        assert handles.ttc_stats.frames >= 8      # OBDH -> TTC telemetry
        assert handles.fdir_stats.samples_ok >= 3  # AOCS -> FDIR attitude


class TestDeadlineMissScenario:
    def test_violation_detected_every_p1_dispatch_except_first(self):
        # Sect. 6: "its deadline violation is detected and reported every
        # time (except the first) that P1 is scheduled and dispatched".
        sim = make_simulator()
        sim.run_mtf(2)                      # healthy start
        inject_faulty_process(sim)          # at tick 2600 (P1 window start)
        sim.run_mtf(5)
        misses = sim.trace.of_type(DeadlineMissed)
        # P1 dispatches after injection: 3900, 5200, 6500, 7800, 9100...
        assert [m.tick for m in misses] == [2 * MTF + k * MTF
                                            for k in range(1, 5)]
        assert all(m.process == FAULTY_PROCESS for m in misses)
        assert all(m.partition == "P1" for m in misses)

    def test_only_the_faulty_process_misses(self):
        sim = make_simulator()
        inject_faulty_process(sim)
        sim.run_mtf(6)
        assert {m.process for m in sim.trace.of_type(DeadlineMissed)} == \
            {FAULTY_PROCESS}

    def test_hm_applies_configured_recovery_action(self):
        sim = make_simulator()
        inject_faulty_process(sim)
        sim.run_mtf(3)
        events = [e for e in sim.trace.of_type(HealthMonitorEvent)
                  if e.code == "deadlineMissed"]
        assert events
        assert all(e.action == "stopAndRestartProcess" for e in events)

    def test_other_partitions_unaffected_by_p1_fault(self):
        # Fault containment: P2-P4 behaviour identical with and without
        # the injected fault.
        def partition_signature(sim):
            return [(e.tick, e.kind, getattr(e, "partition", None))
                    for e in sim.trace.events
                    if getattr(e, "partition", None) in ("P2", "P3", "P4")]

        healthy = make_simulator()
        healthy.run_mtf(6)
        faulty = make_simulator()
        inject_faulty_process(faulty)
        faulty.run_mtf(6)
        assert partition_signature(healthy) == partition_signature(faulty)


class TestModeBasedScheduleScenario:
    def test_switch_via_ttc_telecommand_at_mtf_boundary(self):
        handles = build_prototype()
        sim = make_simulator(handles)
        sim.run_mtf(1)
        handles.ttc_stats.queue_schedule_command("chi2")
        sim.run_mtf(3)
        switches = sim.trace.of_type(ScheduleSwitched)
        assert len(switches) == 1
        assert switches[0].to_schedule == "chi2"
        assert switches[0].tick % MTF == 0
        assert handles.ttc_stats.command_results == ["noError"]

    def test_unauthorized_partition_cannot_switch(self):
        sim = make_simulator()
        sim.run_mtf(1)
        from repro.apex.types import ReturnCode

        result = sim.apex("P2").set_module_schedule("chi2")
        assert result.code is ReturnCode.INVALID_MODE
        sim.run_mtf(2)
        assert sim.trace.count(ScheduleSwitched) == 0
        # The illegal request was reported to Health Monitoring.
        assert any(e.code == "illegalRequest"
                   for e in sim.trace.of_type(HealthMonitorEvent))

    def test_switches_do_not_induce_deadline_violations(self):
        # Sect. 6: "successive requests to change schedule are correctly
        # handled at the end of the current MTF and do not introduce
        # deadline violations other than the one injected".
        handles = build_prototype()
        sim = make_simulator(handles)
        sim.run_mtf(1)
        for target in ("chi2", "chi1", "chi2", "chi1"):
            handles.ttc_stats.queue_schedule_command(target)
            sim.run_mtf(2)
        assert sim.trace.count(ScheduleSwitched) == 4
        assert sim.trace.count(DeadlineMissed) == 0

    def test_injected_violation_persists_across_switch(self):
        handles = build_prototype()
        sim = make_simulator(handles)
        inject_faulty_process(sim)
        sim.run_mtf(2)
        before = sim.trace.count(DeadlineMissed)
        handles.ttc_stats.queue_schedule_command("chi2")
        sim.run_mtf(4)
        after = sim.trace.count(DeadlineMissed)
        assert after > before  # still detected each MTF under chi2

    def test_schedule_status_fields(self):
        handles = build_prototype()
        sim = make_simulator(handles)
        sim.run_mtf(1)
        status = sim.apex("P3").get_module_schedule_status().expect()
        assert status.current_schedule == "chi1"
        assert not status.switch_pending
        handles.ttc_stats.queue_schedule_command("chi2")
        sim.run(400)  # past the TTC window where the command executes
        status = sim.apex("P3").get_module_schedule_status().expect()
        assert status.next_schedule == "chi2"
        sim.run_mtf(2)
        status = sim.apex("P3").get_module_schedule_status().expect()
        assert status.current_schedule == "chi2"
        assert status.last_switch_tick % MTF == 0
        assert status.last_switch_tick > 0


class TestFactories:
    """The factories take ``cycle_cache`` by keyword only, so a stray
    positional argument raises instead of silently arming the cache."""

    def test_steady_factory_refuses_a_positional_argument(self):
        with pytest.raises(TypeError):
            make_steady_simulator("fast")

    def test_prototype_factory_refuses_a_second_positional_argument(self):
        with pytest.raises(TypeError):
            make_simulator(build_prototype(), "fast")
