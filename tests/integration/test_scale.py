"""Scale and long-run integration tests.

A spacecraft module larger than the prototype (12 partitions, mixed POS
kinds, dozens of processes) running for many MTFs: the TSP invariants must
hold at scale and the simulation must stay deterministic.
"""

import pytest

from repro import Call, Compute, SystemBuilder
from repro.analysis.generator import generate_pst
from repro.core.model import PartitionRequirement
from repro.kernel.simulator import Simulator
from repro.kernel.trace import DeadlineMissed


def big_config(partitions=12, processes_per_partition=4, seed=0):
    requirements = []
    builder = SystemBuilder()
    builder.seed(seed)
    for index in range(partitions):
        name = f"P{index:02d}"
        cycle = 500 if index % 3 else 1000
        duty = 40 if index % 3 else 60  # total load ~0.88 processors
        requirements.append(PartitionRequirement(name, cycle, duty))
        part = builder.partition(name)
        if index % 4 == 3:
            part.pos("generic", quantum=4)
        for proc_index in range(processes_per_partition):
            process = f"t{proc_index}"
            work = 3 + proc_index
            if proc_index == 0:
                part.process(process, period=cycle, deadline=cycle,
                             priority=1, wcet=work)

                def make_periodic(w):
                    def body(ctx):
                        while True:
                            yield Compute(w)
                            yield Call(ctx.apex.periodic_wait)
                    return body

                part.body(process, make_periodic(work))
            else:
                part.process(process, priority=2 + proc_index,
                             periodic=False)

                def make_bg(w):
                    def body(ctx):
                        while True:
                            yield Compute(w)
                            result = yield Call(ctx.apex.timed_wait,
                                                (w * 10,))
                    return body

                part.body(process, make_bg(work))

    schedule = generate_pst(requirements, schedule_id="big")
    assert schedule is not None
    sched = builder.schedule("big", mtf=schedule.major_time_frame)
    for requirement in schedule.requirements:
        sched.require(requirement.partition, cycle=requirement.cycle,
                      duration=requirement.duration)
    for window in schedule.windows:
        sched.window(window.partition, offset=window.offset,
                     duration=window.duration)
    return builder.build()


@pytest.mark.slow
class TestScale:
    def test_twelve_partitions_fifty_mtfs_no_misses(self):
        simulator = Simulator(big_config())
        simulator.run_fast(50 * 1000)
        assert simulator.trace.count(DeadlineMissed) == 0
        occupancy = simulator.pmk.partition_ticks
        # Every partition actually received window time.
        assert all(ticks > 0 for ticks in occupancy.values())

    def test_occupancy_matches_allocations(self):
        config = big_config()
        simulator = Simulator(config)
        mtf = config.model.schedule("big").major_time_frame
        simulator.run(10 * mtf)
        schedule = config.model.schedule("big")
        for name, ticks in simulator.pmk.partition_ticks.items():
            assert ticks == 10 * schedule.allocated_time(name)

    def test_long_run_determinism(self):
        def fingerprint(seed):
            simulator = Simulator(big_config(seed=seed))
            simulator.run_fast(20_000)
            return (len(simulator.trace.events),
                    simulator.pmk.partition_ticks,
                    simulator.trace.digest())

        assert fingerprint(7) == fingerprint(7)

    def test_long_run_replays_steady_frames(self):
        # The whole log is kept, and the cycle cache, which relies on it,
        # replays the module's steady frames over a long run.
        simulator = Simulator(big_config())
        simulator.run_fast(30_000)
        assert simulator.now == 30_000
        assert simulator.cycle_cache_stats["hits"] > 0
