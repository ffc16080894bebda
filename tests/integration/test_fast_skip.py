"""Equivalence tests for the event-driven execution core (DESIGN.md item 4).

`Simulator.run_fast` may only differ from `Simulator.run` in wall-clock
cost: traces, process states, deadline bookkeeping and instrumentation
counters must match bit-for-bit.  The matrix below covers idle skipping,
in-flight remote messages, memory-emulation probes, generic-POS quantum
rotation, deadline misses, mid-window schedule-switch requests and HM
partition restarts.
"""

import pytest

from repro import Call, Compute, SystemBuilder
from repro.apps.prototype import build_prototype, inject_faulty_process, \
    make_simulator
from repro.hm.tables import HmTables
from repro.kernel.simulator import Simulator
from repro.types import ErrorCode, PortDirection, RecoveryAction

from ..conftest import (
    build_two_partition_config,
    periodic_body,
    remote_config,
    spin_body,
)


def sparse_config():
    """A schedule that is ~80% idle — the fast-skip sweet spot."""
    builder = SystemBuilder()
    part = builder.partition("P1")
    part.process("worker", period=1000, deadline=1000, priority=1, wcet=50)
    part.body("worker", periodic_body(50))
    builder.schedule("sparse", mtf=1000) \
        .require("P1", cycle=1000, duration=100) \
        .window("P1", offset=300, duration=100)
    return builder.build()


def memory_config():
    """Two busy partitions with per-tick MMU probes enabled.

    Memory emulation is the one per-tick effect that cannot be collapsed
    into span arithmetic (probe addresses walk with the clock), so the
    event core batch-samples it — this config proves probe-for-probe
    equivalence.
    """
    config = build_two_partition_config()
    config.memory_emulation = True
    return config


def generic_pos_config():
    """A generic (round-robin) POS whose quantum expiries punctuate spans."""
    builder = SystemBuilder()
    p1 = builder.partition("P1").pos("generic", quantum=3)
    p1.process("ga", priority=1)
    p1.body("ga", spin_body)
    p1.process("gb", priority=1)
    p1.body("gb", spin_body)
    p2 = builder.partition("P2")
    p2.process("p2-main", period=200, deadline=200, priority=1, wcet=30)
    p2.body("p2-main", periodic_body(30))
    builder.schedule("main", mtf=200) \
        .require("P1", cycle=200, duration=60) \
        .window("P1", offset=0, duration=60) \
        .require("P2", cycle=200, duration=60) \
        .window("P2", offset=100, duration=60)
    return builder.build()


def hm_restart_config():
    """A chronic deadline misser whose HM action restarts its partition."""
    builder = SystemBuilder()
    builder.hm_tables(HmTables(partition_actions={
        "P1": {ErrorCode.DEADLINE_MISSED: RecoveryAction.RESTART_PARTITION},
    }))
    p1 = builder.partition("P1")
    p1.process("p1-over", period=400, deadline=150, priority=1, wcet=50)
    p1.body("p1-over", periodic_body(250))  # needs >1 window: always late
    p2 = builder.partition("P2")
    p2.process("p2-main", period=200, deadline=200, priority=1, wcet=30)
    p2.body("p2-main", periodic_body(30))
    builder.schedule("main", mtf=200) \
        .require("P1", cycle=200, duration=60) \
        .window("P1", offset=0, duration=60) \
        .require("P2", cycle=200, duration=60) \
        .window("P2", offset=100, duration=60)
    return builder.build()


def supervised_prototype_config():
    """The Sect. 6 prototype with the FDIR layer armed: watchdog deadlines
    and supervisor polling feed the event-core horizon."""
    return build_prototype(fdir_supervision=True).config


def signature(simulator):
    return [(e.tick, e.kind, getattr(e, "partition", None),
             getattr(e, "heir", None), getattr(e, "text", None))
            for e in simulator.trace.events]


def full_signature(simulator):
    """Every trace event, every field — the strictest equivalence check."""
    return [repr(e) for e in simulator.trace.events]


def assert_counters_match(fast, normal):
    assert fast.now == normal.now
    assert fast.pmk.ticks_executed == normal.pmk.ticks_executed
    assert fast.pmk.idle_ticks == normal.pmk.idle_ticks
    assert fast.pmk.partition_ticks == normal.pmk.partition_ticks
    assert fast.pmk.scheduler.stats.ticks == normal.pmk.scheduler.stats.ticks
    assert (fast.pmk.scheduler.stats.fast_path
            == normal.pmk.scheduler.stats.fast_path)


@pytest.mark.parametrize("make_config,ticks", [
    (sparse_config, 5000),
    (build_two_partition_config, 3000),
    (remote_config, 4000),
    (memory_config, 3000),
    (generic_pos_config, 3000),
    (hm_restart_config, 4000),
    (supervised_prototype_config, 4 * 1300 + 137),
])
def test_fast_skip_trace_equivalence(make_config, ticks):
    normal = Simulator(make_config())
    fast = Simulator(make_config())
    normal.run(ticks)
    fast.run_fast(ticks)
    assert full_signature(fast) == full_signature(normal)
    assert_counters_match(fast, normal)


def test_fast_skip_is_actually_faster_on_sparse_schedules():
    import time

    def timed(runner):
        simulator = Simulator(sparse_config())
        start = time.perf_counter()
        runner(simulator)
        return time.perf_counter() - start

    slow = timed(lambda s: s.run(200_000))
    quick = timed(lambda s: s.run_fast(200_000))
    assert quick < slow  # 80% of ticks are skippable

    # and the skip accounting still adds up
    simulator = Simulator(sparse_config())
    simulator.run_fast(10_000)
    assert simulator.pmk.idle_ticks == 9 * 1000  # 900 idle per MTF


def test_fast_skip_respects_module_stop():
    simulator = Simulator(sparse_config())
    simulator.run_fast(100)
    simulator.pmk.module_stop()
    before = simulator.now
    simulator.run_fast(1000)
    assert simulator.now == before


def test_fast_skip_mixed_with_normal_run():
    reference = Simulator(sparse_config())
    reference.run(4000)
    mixed = Simulator(sparse_config())
    mixed.run(700)
    mixed.run_fast(2000)
    mixed.run(1300)
    assert signature(mixed) == signature(reference)


def test_fast_skip_memory_probes_fire_per_tick():
    """With memory emulation on, the batched spans must replay exactly the
    per-tick MMU probe sequence — counted read-for-read, write-for-write."""

    def count_probes(simulator, runner, ticks):
        counts = {"read": 0, "write": 0}
        bus = simulator.pmk.bus
        original_read, original_write = bus.read, bus.write

        def read(*args, **kwargs):
            counts["read"] += 1
            return original_read(*args, **kwargs)

        def write(*args, **kwargs):
            counts["write"] += 1
            return original_write(*args, **kwargs)

        bus.read, bus.write = read, write
        getattr(simulator, runner)(ticks)
        return counts

    normal = Simulator(memory_config())
    fast = Simulator(memory_config())
    normal_counts = count_probes(normal, "run", 3000)
    fast_counts = count_probes(fast, "run_fast", 3000)
    assert fast_counts == normal_counts
    assert normal_counts["read"] > 0 and normal_counts["write"] > 0
    assert full_signature(fast) == full_signature(normal)


def drive_prototype(runner_name, *, faulty_at=None, switches=()):
    """Replay the E13 storyline with the given runner.

    *switches* is a sequence of ``(tick, schedule)`` requests issued
    mid-window; *faulty_at* injects the overrunning process at that tick.
    """
    simulator = make_simulator(build_prototype())
    runner = getattr(simulator, runner_name)
    actions = sorted(
        [(tick, "switch", name) for tick, name in switches]
        + ([(faulty_at, "inject", None)] if faulty_at is not None else []))
    now = 0
    for tick, kind, name in actions:
        runner(tick - now)
        now = tick
        if kind == "switch":
            simulator.pmk.set_module_schedule(name, requested_by="test")
        else:
            inject_faulty_process(simulator)
    runner(6 * 1300 + 137 - now)  # uneven tail: end mid-window too
    return simulator


def test_fast_skip_mid_window_schedule_switch():
    """chi1 -> chi2 -> chi1, each requested mid-window: the request itself
    is asynchronous but only takes effect at the MTF boundary, and the
    event core must not batch across either point."""
    reference = drive_prototype(
        "run", switches=[(650, "chi2"), (4 * 1300 + 210, "chi1")])
    fast = drive_prototype(
        "run_fast", switches=[(650, "chi2"), (4 * 1300 + 210, "chi1")])
    from repro.kernel.trace import ScheduleSwitched
    assert reference.trace.count(ScheduleSwitched) == 2
    assert full_signature(fast) == full_signature(reference)
    assert_counters_match(fast, reference)


def test_fast_skip_deadline_misses_and_hm():
    """The E13 faulty process: every P1 dispatch after the injection
    detects a violation, runs the HM chain and the error handler."""
    reference = drive_prototype("run", faulty_at=1950)
    fast = drive_prototype("run_fast", faulty_at=1950)
    from repro.kernel.trace import DeadlineMissed
    assert reference.trace.count(DeadlineMissed) > 0
    assert full_signature(fast) == full_signature(reference)
    assert_counters_match(fast, reference)


def test_fast_skip_hm_partition_restart_mid_run():
    """RESTART_PARTITION recovery: the partition is torn down and
    re-initialized mid-run; restart and init ticks cannot be batched."""
    normal = Simulator(hm_restart_config())
    fast = Simulator(hm_restart_config())
    normal.run(4000)
    fast.run_fast(4000)
    assert normal.runtime("P1").restart_count > 0 \
        or normal.runtime("P1").init_count > 1
    assert fast.runtime("P1").init_count == normal.runtime("P1").init_count
    assert full_signature(fast) == full_signature(normal)
    assert_counters_match(fast, normal)
