"""Tests for the tick-loop simulator (repro.kernel.simulator)."""

import pytest

from repro.apps.prototype import MTF, build_prototype, make_simulator
from repro.exceptions import SimulationError
from repro.kernel.interrupts import InterruptController, Vector
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


class TestClockWiring:
    """``run_fast`` calls the PMK's clock handler directly only while the
    clock vector holds exactly that handler, unmasked; any other wiring
    delivers every stepped tick through the full vector."""

    TICKS = 4 * MTF

    def run(self, rewire=None):
        """``(simulator, deliveries through the vector)`` after a
        ``run_fast`` under the wiring *rewire* leaves."""
        simulator = make_simulator(build_prototype())
        interrupts = simulator.interrupts
        if rewire is not None:
            rewire(interrupts)
        delivered = []
        raise_interrupt = interrupts.raise_interrupt

        def counting(vector):
            delivered.append(vector)
            return raise_interrupt(vector)

        interrupts.raise_interrupt = counting
        simulator.run_fast(self.TICKS)
        assert simulator.event_core_stats["ticks_stepped"] > 0
        return simulator, delivered

    def test_second_clock_handler_runs_on_every_stepped_tick(self):
        ran = []

        def rewire(interrupts):
            interrupts.install(Vector.CLOCK, lambda: ran.append(None),
                               owner=InterruptController.PMK_OWNER)

        simulator, delivered = self.run(rewire)
        stepped = simulator.event_core_stats["ticks_stepped"]
        assert len(delivered) == stepped
        assert len(ran) == stepped
        assert simulator.interrupts.dispatch_count(Vector.CLOCK) == stepped
        default, _ = self.run()
        assert simulator.trace.digest() == default.trace.digest()

    def test_masked_clock_vector_runs_no_handler(self):
        simulator, delivered = self.run(
            lambda interrupts: interrupts.mask(
                Vector.CLOCK, owner=InterruptController.PMK_OWNER))
        stepped = simulator.event_core_stats["ticks_stepped"]
        assert len(delivered) == stepped
        assert simulator.interrupts.dispatch_count(Vector.CLOCK) == 0

    def test_default_wiring_settles_the_dispatch_count(self):
        simulator, delivered = self.run()
        assert delivered == []
        assert simulator.interrupts.dispatch_count(Vector.CLOCK) == \
            simulator.event_core_stats["ticks_stepped"]
        stepped = make_simulator(build_prototype())
        stepped.run(self.TICKS)
        assert simulator.trace.digest() == stepped.trace.digest()

