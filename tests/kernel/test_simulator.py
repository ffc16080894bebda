"""Tests for the tick-loop simulator (repro.kernel.simulator)."""

import pytest

from repro.apps.prototype import MTF, build_prototype, make_simulator
from repro.exceptions import SimulationError
from repro.kernel.simulator import Simulator
from repro.kernel.trace import ProcessDispatched
from repro.types import ErrorCode, PartitionMode

from ..conftest import build_two_partition_config


@pytest.fixture
def sim():
    return Simulator(build_two_partition_config())


class TestRunControls:
    def test_step_advances_one_tick(self, sim):
        sim.step()
        assert sim.now == 1

    def test_run_and_run_until(self, sim):
        sim.run(50)
        assert sim.now == 50
        sim.run_until(120)
        assert sim.now == 120
        with pytest.raises(SimulationError):
            sim.run_until(10)

    def test_run_rejects_negative(self, sim):
        with pytest.raises(SimulationError):
            sim.run(-1)

    def test_run_mtf_aligns_to_boundary(self, sim):
        sim.run(30)   # mid-MTF
        sim.run_mtf()
        assert sim.now == 200
        sim.run_mtf(2)
        assert sim.now == 600

    def test_run_while(self, sim):
        sim.run_while(lambda s: s.now < 77)
        assert sim.now == 77

    def test_run_while_bound(self, sim):
        with pytest.raises(SimulationError):
            sim.run_while(lambda s: True, limit=100)


class TestLifecycle:
    def test_partitions_initialize_and_run(self, sim):
        sim.run_mtf(2)
        assert sim.runtime("P1").mode is PartitionMode.NORMAL
        assert sim.runtime("P2").mode is PartitionMode.NORMAL
        assert sim.trace.count(ProcessDispatched) > 0

    def test_module_stop_halts_execution(self, sim):
        sim.run(10)
        sim.pmk.health_monitor.report(ErrorCode.POWER_FAILURE)
        assert sim.stopped
        before = sim.now
        sim.run(100)
        assert sim.now == before  # no further progress

    def test_module_restart_reinitializes_partitions(self, sim):
        sim.run_mtf(1)
        sim.pmk.module_restart()
        assert sim.runtime("P1").mode is PartitionMode.COLD_START
        sim.run_mtf(1)
        assert sim.runtime("P1").mode is PartitionMode.NORMAL
        assert sim.runtime("P1").init_count == 2

    def test_determinism_same_config_same_trace(self):
        def signature(simulator):
            simulator.run(1000)
            return [(e.tick, e.kind) for e in simulator.trace.events]

        first = signature(Simulator(build_two_partition_config()))
        second = signature(Simulator(build_two_partition_config()))
        assert first == second


class TestEventCoreStats:
    def test_stepped_run_batches_nothing(self):
        simulator = make_simulator(build_prototype())
        simulator.run(MTF)
        stats = simulator.event_core_stats
        assert stats == {"spans_batched": 0, "ticks_batched": 0,
                         "ticks_stepped": MTF}

    def test_fast_run_batches_most_ticks(self):
        simulator = make_simulator(build_prototype())
        simulator.run_fast(10 * MTF)
        stats = simulator.event_core_stats
        assert stats["ticks_batched"] + stats["ticks_stepped"] == 10 * MTF
        assert stats["ticks_batched"] > stats["ticks_stepped"]
