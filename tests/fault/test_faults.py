"""Tests for the fault injection framework (repro.fault)."""

import pytest

from repro.apps.base import spin_forever

from repro.apps.prototype import FAULTY_PROCESS, MTF, build_prototype, make_simulator
from repro.fault.faults import (
    ClockTamperFault,
    MemoryViolationFault,
    MessageFloodFault,
    PartitionCrashFault,
    ProcessKillFault,
    StartProcessFault,
)
from repro.fault.injector import FaultInjector
from repro.exceptions import SimulationError
from repro.kernel.trace import DeadlineMissed, HealthMonitorEvent, MemoryFault
from repro.types import PartitionMode, ProcessState


@pytest.fixture
def sim():
    return make_simulator()


class TestInjector:
    def test_scheduled_fault_applies_at_tick(self, sim):
        injector = FaultInjector(sim)
        injector.schedule(2 * MTF, StartProcessFault("P1", FAULTY_PROCESS))
        injector.run(3 * MTF)
        assert len(injector.log) == 1
        assert injector.log[0].tick == 2 * MTF
        assert "noError" in injector.log[0].status

    def test_cannot_schedule_in_the_past(self, sim):
        sim.run(100)
        injector = FaultInjector(sim)
        with pytest.raises(SimulationError):
            injector.schedule(50, StartProcessFault("P1", FAULTY_PROCESS))

    def test_past_tick_fails_loudly_not_silently(self, sim):
        # Regression for campaign specs: a stale injection tick must raise
        # at schedule time — never be accepted and simply never fire.
        injector = FaultInjector(sim)
        injector.run(2 * MTF)
        with pytest.raises(SimulationError, match="in the past"):
            injector.schedule(2 * MTF - 1,
                              StartProcessFault("P1", FAULTY_PROCESS))
        assert injector.pending_count == 0
        assert len(injector.log) == 0

    def test_schedule_at_the_current_tick_still_fires(self, sim):
        sim.run(100)
        injector = FaultInjector(sim)
        injector.schedule(100, ProcessKillFault("P2", "obdh-storage"))
        injector.run(1)
        assert [r.tick for r in injector.log] == [100]

    def test_run_fast_matches_run(self):
        # The campaign runner drives scenarios with the event core; the
        # injection log and trace must be bit-identical to per-tick run().
        slow_sim = make_simulator()
        fast_sim = make_simulator()
        for simulator in (slow_sim, fast_sim):
            injector = FaultInjector(simulator)
            injector.schedule(1 * MTF, StartProcessFault("P1",
                                                         FAULTY_PROCESS))
            injector.schedule(2 * MTF + 100, MemoryViolationFault("P4"))
            injector.schedule(3 * MTF + 50, PartitionCrashFault("P2"))
            if simulator is slow_sim:
                injector.run(4 * MTF)
                slow = injector
            else:
                assert injector.run_fast(4 * MTF)
                fast = injector
        assert [(r.tick, r.status) for r in fast.log] == \
            [(r.tick, r.status) for r in slow.log]
        assert fast_sim.now == slow_sim.now
        assert [repr(e) for e in fast_sim.trace.events] == \
            [repr(e) for e in slow_sim.trace.events]

    def test_run_fast_result_independent_of_check_interval(self):
        # The abort-poll cadence only splits run_fast spans: the trace
        # and the injection log must not depend on it.  Chunks of 137
        # and 997 ticks split the horizon as a finer cap would.
        horizon = 4 * MTF
        outcomes = set()
        for chunk in (horizon, 137, 997):
            simulator = make_simulator()
            injector = FaultInjector(simulator)
            injector.schedule(1 * MTF, StartProcessFault("P1",
                                                         FAULTY_PROCESS))
            injector.schedule(2 * MTF + 100, MemoryViolationFault("P4"))
            while simulator.now < horizon:
                assert injector.run_fast(
                    min(chunk, horizon - simulator.now),
                    should_abort=lambda: False)
            outcomes.add((simulator.now, simulator.trace.digest(),
                          tuple((r.tick, r.status) for r in injector.log)))
        assert len(outcomes) == 1

    def test_run_fast_abort_hook_stops_early(self, sim):
        injector = FaultInjector(sim)
        assert injector.run_fast(10 * MTF, should_abort=lambda: True) \
            is False
        assert sim.now == 0

    def test_schedule_switch_fault_requests_switch(self, sim):
        from repro.fault.faults import ScheduleSwitchFault
        from repro.kernel.trace import ScheduleSwitched

        injector = FaultInjector(sim)
        injector.schedule(MTF // 2, ScheduleSwitchFault("chi2"))
        injector.run_fast(2 * MTF)
        switches = sim.trace.of_type(ScheduleSwitched)
        assert [s.to_schedule for s in switches] == ["chi2"]
        assert switches[0].tick == MTF  # effective at the MTF boundary

    def test_faults_apply_in_time_order(self, sim):
        injector = FaultInjector(sim)
        injector.schedule(200, ProcessKillFault("P2", "obdh-storage"))
        injector.schedule(100, ProcessKillFault("P2", "obdh-housekeeping"))
        injector.run(300)
        assert [r.tick for r in injector.log] == [100, 200]

    def test_run_mtf_helper(self, sim):
        injector = FaultInjector(sim)
        injector.run_mtf(2)
        assert sim.now == 2 * MTF

    def test_pending_count(self, sim):
        injector = FaultInjector(sim)
        injector.schedule(10_000, PartitionCrashFault("P2"))
        assert injector.pending_count == 1


class TestInjectorStateDict:
    def test_applied_log_round_trips(self, sim):
        injector = FaultInjector(sim)
        injector.schedule(1 * MTF, StartProcessFault("P1", FAULTY_PROCESS))
        injector.schedule(2 * MTF + 100, MemoryViolationFault("P4"))
        injector.run_fast(3 * MTF)
        state = injector.state_dict()
        clone = FaultInjector(make_simulator())
        clone.load_state_dict(state)
        assert [(r.tick, type(r.fault), r.status) for r in clone.log] == \
            [(r.tick, type(r.fault), r.status) for r in injector.log]
        assert clone.log[0].fault == injector.log[0].fault

    def test_state_dict_is_pure_data(self, sim):
        import json

        injector = FaultInjector(sim)
        injector.schedule(MTF, PartitionCrashFault("P2", cold=True))
        injector.run_fast(2 * MTF)
        # Must serialize without live objects — the snapshot extras
        # channel ships it across process boundaries.
        encoded = json.dumps(injector.state_dict())
        clone = FaultInjector(make_simulator())
        clone.load_state_dict(json.loads(encoded))
        assert clone.log[0].fault == PartitionCrashFault("P2", cold=True)

    def test_pending_faults_refuse_to_snapshot(self, sim):
        injector = FaultInjector(sim)
        injector.schedule(10_000, PartitionCrashFault("P2"))
        with pytest.raises(SimulationError, match="pending"):
            injector.state_dict()

    def test_loaded_log_continues_numbering_not_reapplying(self, sim):
        injector = FaultInjector(sim)
        injector.schedule(MTF, MemoryViolationFault("P2"))
        injector.run_fast(2 * MTF)
        resumed = FaultInjector(make_simulator())
        resumed.load_state_dict(injector.state_dict())
        assert resumed.pending_count == 0
        assert len(resumed.log) == 1  # seeded, not re-applied


class TestFaults:
    def test_start_process_fault_triggers_deadline_misses(self, sim):
        injector = FaultInjector(sim)
        injector.schedule(MTF, StartProcessFault("P1", FAULTY_PROCESS))
        injector.run(4 * MTF)
        assert sim.trace.count(DeadlineMissed) >= 2

    def test_memory_violation_fault_is_trapped_and_reported(self, sim):
        sim.run_mtf(1)
        injector = FaultInjector(sim)
        record = injector.inject_now(MemoryViolationFault("P2"))
        assert "trapped by MMU" in record.status
        assert sim.trace.count(MemoryFault) == 1
        hm_events = sim.trace.of_type(HealthMonitorEvent)
        assert any(e.code == "memoryViolation" and e.partition == "P2"
                   for e in hm_events)

    def test_memory_violation_recovery_restarts_partition(self, sim):
        sim.run_mtf(1)
        FaultInjector(sim).inject_now(MemoryViolationFault("P2"))
        # Default HM action for MEMORY_VIOLATION is RESTART_PARTITION.
        assert sim.runtime("P2").mode is PartitionMode.WARM_START
        sim.run_mtf(1)
        assert sim.runtime("P2").mode is PartitionMode.NORMAL

    def test_partition_crash_fault(self, sim):
        sim.run_mtf(1)
        record = FaultInjector(sim).inject_now(
            PartitionCrashFault("P4", cold=True))
        assert "coldStart" in record.status
        assert sim.runtime("P4").mode is PartitionMode.COLD_START
        sim.run_mtf(1)
        assert sim.runtime("P4").mode is PartitionMode.NORMAL
        assert sim.runtime("P4").init_count == 2

    def test_process_kill_fault(self, sim):
        sim.run_mtf(1)
        FaultInjector(sim).inject_now(ProcessKillFault("P2", "obdh-storage"))
        assert sim.runtime("P2").pos.tcb("obdh-storage").state is \
            ProcessState.DORMANT

    def test_message_flood_is_contained_to_the_channel(self, sim):
        sim.run_mtf(1)
        record = FaultInjector(sim).inject_now(
            MessageFloodFault("P4", "alert_out", count=50))
        assert "flooded 50/50" in record.status
        port = sim.apex("P3").queuing_port("alert_in")
        assert port.count <= 8              # bounded by channel depth
        assert port.overflow_count >= 40
        # The flood cannot break other partitions' timeliness.
        sim.run_mtf(2)
        assert sim.trace.count(DeadlineMissed) == 0

    def test_clock_tamper_fault_on_rtems_partition_not_applicable(self, sim):
        sim.run_mtf(1)
        record = FaultInjector(sim).inject_now(ClockTamperFault("P2"))
        assert "not applicable" in record.status

    def test_clock_tamper_fault_on_generic_partition(self):
        from repro import Compute, SystemBuilder
        from repro.kernel.simulator import Simulator

        builder = SystemBuilder()
        part = builder.partition("Plinux").pos("generic")
        part.process("bg", priority=1, periodic=False)
        part.body("bg", spin_forever)
        builder.schedule("main", mtf=100) \
            .require("Plinux", cycle=100, duration=50) \
            .window("Plinux", offset=0, duration=50)
        sim = Simulator(builder.build())
        sim.run_mtf(1)
        record = FaultInjector(sim).inject_now(ClockTamperFault("Plinux"))
        assert "3 clock operations trapped" in record.status
        hm_events = sim.trace.of_type(HealthMonitorEvent)
        assert sum(1 for e in hm_events if e.code == "clockTampering") == 3
        # Time kept flowing despite the takeover attempt.
        before = sim.now
        sim.run(10)
        assert sim.now == before + 10
