"""Shared fixtures and helpers for the AIR reproduction test suite."""

from __future__ import annotations

import pytest

from repro import Compute, Call, SystemBuilder
from repro.core.model import (
    Partition,
    PartitionRequirement,
    ProcessModel,
    ScheduleTable,
    SystemModel,
    TimeWindow,
)
from repro.fdir.policy import FdirConfig
from repro.kernel.simulator import Simulator
from repro.types import PartitionMode, PortDirection


def make_schedule(schedule_id="s1", mtf=100,
                  requirements=(("P1", 100, 40),),
                  windows=(("P1", 0, 40),), change_actions=None):
    """Terse ScheduleTable construction for tests."""
    return ScheduleTable(
        schedule_id=schedule_id, major_time_frame=mtf,
        requirements=tuple(PartitionRequirement(p, c, d)
                           for p, c, d in requirements),
        windows=tuple(TimeWindow(p, o, c) for p, o, c in windows),
        change_actions=change_actions or {})


def make_system(partitions=("P1",), **schedule_kwargs):
    """A SystemModel with bare partitions and one schedule."""
    schedule = make_schedule(**schedule_kwargs)
    return SystemModel(
        partitions=tuple(Partition(name=name) for name in partitions),
        schedules=(schedule,), initial_schedule=schedule.schedule_id)


def spin_body(ctx):
    """A body that computes forever (never blocks)."""
    while True:
        yield Compute(1_000_000)


def periodic_body(work):
    """A body computing *work* then waiting for its next release, forever."""
    def factory(ctx):
        while True:
            yield Compute(work)
            yield Call(ctx.apex.periodic_wait)
    return factory


def counting_periodic_body(work, counter):
    """Like periodic_body but appends the completion tick to *counter*."""
    def factory(ctx):
        while True:
            yield Compute(work)
            counter.append(ctx.apex.now())
            yield Call(ctx.apex.periodic_wait)
    return factory


def cycle_cache_off(monkeypatch) -> None:
    """Make cache-off the default of every :class:`Simulator` built while
    *monkeypatch* holds — through snapshot restores, campaigns and
    constellations, and in forked pool workers, which inherit it.

    A test-only substitution of the constructor's one switch, for
    reference runs against the cached default; never a production
    option.
    """
    monkeypatch.setitem(Simulator.__init__.__kwdefaults__, "cycle_cache",
                        False)


@pytest.fixture
def single_partition_sim():
    """One RTEMS partition, one periodic process, MTF 100, window [0, 50)."""
    builder = SystemBuilder()
    part = builder.partition("P1")
    part.process("worker", period=100, deadline=100, priority=1, wcet=10)
    part.body("worker", periodic_body(10))
    builder.schedule("main", mtf=100) \
        .require("P1", cycle=100, duration=50) \
        .window("P1", offset=0, duration=50)
    return Simulator(builder.build())


def build_two_partition_config(*, p2_spins=False, deadline_store="list"):
    """Two RTEMS partitions sharing an MTF of 200."""
    builder = SystemBuilder()
    builder.deadline_store(deadline_store)
    p1 = builder.partition("P1")
    p1.process("p1-main", period=200, deadline=200, priority=1, wcet=30)
    p1.body("p1-main", periodic_body(30))
    p2 = builder.partition("P2")
    if p2_spins:
        p2.process("p2-hog", priority=1)
        p2.body("p2-hog", spin_body)
    else:
        p2.process("p2-main", period=200, deadline=200, priority=1, wcet=30)
        p2.body("p2-main", periodic_body(30))
    builder.schedule("main", mtf=200) \
        .require("P1", cycle=200, duration=60) \
        .window("P1", offset=0, duration=60) \
        .require("P2", cycle=200, duration=60) \
        .window("P2", offset=100, duration=60)
    return builder.build()


def remote_config(*, latency=120, watchdog=None):
    """SRC sends one message per 500-tick MTF over a remote queuing
    channel to DST.

    The default latency lands deliveries inside idle gaps (the event core
    must defer its skip).  A *latency* above the MTF keeps a message in
    flight across every frame boundary.  With *watchdog*, SRC kicks an
    FDIR watchdog of that window each frame, so a window above the MTF
    keeps it armed across every boundary.
    """
    builder = SystemBuilder()
    src = builder.partition("SRC")
    src.process("tx", period=500, deadline=500, priority=1, wcet=5)

    def tx(ctx):
        while True:
            yield Compute(2)
            yield Call(ctx.apex.queuing_port("out").send, (b"ping",))
            if watchdog is not None:
                yield Call(ctx.apex.kick_watchdog)
            yield Call(ctx.apex.periodic_wait)

    src.body("tx", tx)

    def src_init(apex):
        apex.create_queuing_port("out", PortDirection.SOURCE)
        apex.start("tx")
        apex.set_partition_mode(PartitionMode.NORMAL)

    src.init_hook(src_init)

    dst = builder.partition("DST")
    dst.process("rx", period=500, deadline=500, priority=1, wcet=5)

    def rx(ctx):
        while True:
            yield Compute(1)
            result = yield Call(ctx.apex.queuing_port("in").receive)
            if result.is_ok:
                ctx.log(f"rx {result.value!r}")
            yield Call(ctx.apex.periodic_wait)

    dst.body("rx", rx)

    def dst_init(apex):
        apex.create_queuing_port("in", PortDirection.DESTINATION)
        apex.start("rx")
        apex.set_partition_mode(PartitionMode.NORMAL)

    dst.init_hook(dst_init)
    builder.queuing_channel("ch", source=("SRC", "out"),
                            destination=("DST", "in"), latency=latency)
    if watchdog is not None:
        builder.fdir(FdirConfig(watchdogs={"SRC": watchdog}))
    builder.schedule("main", mtf=500) \
        .require("SRC", cycle=500, duration=40) \
        .window("SRC", offset=0, duration=40) \
        .require("DST", cycle=500, duration=40) \
        .window("DST", offset=300, duration=40)
    return builder.build()
