"""Declared snapshot schemas (repro.kernel.snapshot_schema) as the
fingerprint walk reads them.

The audit: every leaf of every capture the cycle cache fingerprints is
declared, on a spread of configurations that between them instantiate
every class with a ``snapshot()`` method.  A key without a declaration,
a declared key left out, and a value of the wrong shape each raise
:class:`SnapshotSchemaError` — from ``state_fingerprint`` and from a
live cache probe alike, never a silently disabled cache.
"""

import pytest

from repro import Call, Compute, SystemBuilder
from repro.apex.interface import ApexInterface
from repro.apex.ports import QueuingPort, SamplingPort
from repro.apex.resources import (
    Blackboard,
    Buffer,
    Event,
    Semaphore,
    WaitQueue,
)
from repro.apps.prototype import (
    STEADY_MTF,
    build_prototype,
    make_simulator,
    make_steady_simulator,
)
from repro.comm.network import NetworkLink, ReliableLink
from repro.comm.router import CommRouter
from repro.core.dispatcher import PartitionDispatcher
from repro.core.pmk import Pmk
from repro.core.runtime import PartitionRuntime
from repro.core.scheduler import PartitionScheduler
from repro.deadline.monitor import DeadlineMonitor
from repro.deadline.structures import DeadlineList, DeadlineTree
from repro.exceptions import SnapshotSchemaError
from repro.fdir.supervisor import FdirSupervisor
from repro.fdir.watchdog import WatchdogService
from repro.hm.monitor import HealthMonitor
from repro.kernel.context import ContextBank
from repro.kernel.cycle_cache import (
    _components,
    _Fingerprinter,
    state_fingerprint,
)
from repro.kernel.simulator import Simulator
from repro.kernel.snapshot_schema import RAW, OneOf
from repro.kernel.time import TimeSource
from repro.pos.base import PartitionOs
from repro.pos.generic import GenericPos
from repro.pos.pal import PosAdaptationLayer
from repro.pos.tcb import Tcb
from repro.spatial.mmu import Mmu
from repro.types import INFINITE_TIME, PartitionMode

from ..conftest import remote_config


def generic_pos_config():
    """A generic-POS partition holding one of each intrapartition
    resource, with ``waiter`` blocked on the semaphore for good (a live
    wait-queue row)."""
    builder = SystemBuilder()
    guest = builder.partition("GUEST").pos("generic", quantum=3)
    guest.process("waiter", period=500, deadline=500, priority=1, wcet=5)
    guest.process("worker", period=500, deadline=500, priority=2, wcet=5)

    def waiter(ctx):
        yield Call(ctx.apex.semaphore("sem").wait, (INFINITE_TIME,))

    def worker(ctx):
        while True:
            yield Compute(2)
            yield Call(ctx.apex.buffer("buf").send, (b"frame",))
            yield Call(ctx.apex.periodic_wait)

    guest.body("waiter", waiter)
    guest.body("worker", worker)

    def init(apex):
        apex.create_buffer("buf", max_messages=4, max_message_size=16)
        apex.create_blackboard("board")
        apex.create_event("evt")
        apex.create_semaphore("sem", initial=0, maximum=1)
        apex.start("waiter")
        apex.start("worker")
        apex.set_partition_mode(PartitionMode.NORMAL)

    guest.init_hook(init)
    builder.schedule("main", mtf=500) \
        .require("GUEST", cycle=500, duration=50) \
        .window("GUEST", offset=0, duration=50)
    return builder.build()


def reliable_remote_simulator():
    """The remote configuration with its link wrapped in a ReliableLink."""
    simulator = Simulator(remote_config(latency=620, watchdog=800))
    channel = simulator.pmk.router._channels["ch"]
    channel.link = ReliableLink(channel.link)
    simulator.run_fast(500 * 4 + 250)
    return simulator


def audit_simulators():
    """(label, simulator) per audited configuration, each mid-run."""
    steady = make_steady_simulator()
    steady.run_fast(STEADY_MTF * 3 + 170)
    prototype = make_simulator(build_prototype())
    prototype.run_fast(STEADY_MTF * 2 + 170)
    supervised = make_simulator(build_prototype(fdir_supervision=True,
                                                deadline_store="tree"))
    supervised.run_fast(STEADY_MTF * 2 + 170)
    generic = Simulator(generic_pos_config())
    generic.run_fast(500 * 6 + 20)
    remote = Simulator(remote_config(latency=620, watchdog=800))
    remote.run_fast(500 * 20 + 250)
    return [("steady", steady), ("prototype", prototype),
            ("supervised", supervised), ("generic-pos", generic),
            ("remote", remote), ("reliable", reliable_remote_simulator())]


@pytest.fixture(scope="module")
def simulators():
    return audit_simulators()


def walk(simulator):
    """Per component: (name, the walker's ticks, counters and logs)."""
    walker = _Fingerprinter(origin=simulator.time.now,
                            mtf=simulator.pmk.scheduler.current.mtf,
                            full_logs=True)
    recorded = []
    for name, root, value, schema in _components(
            simulator.pmk.snapshot(), Pmk.SNAPSHOT_SCHEMA,
            simulator.time.snapshot(), TimeSource.SNAPSHOT_SCHEMA):
        walker.encode_component(root, value, schema)
        recorded.append((name, walker.ticks, walker.counters, walker.logs))
    return recorded


#: Every class whose snapshot() capture the fingerprint walks.
SNAPSHOT_CLASSES = [
    TimeSource, ContextBank, Mmu, WatchdogService, FdirSupervisor,
    DeadlineList, DeadlineTree, DeadlineMonitor, HealthMonitor,
    PartitionDispatcher, PartitionScheduler, PartitionRuntime, Tcb,
    PartitionOs, GenericPos, PosAdaptationLayer, ApexInterface, WaitQueue,
    Buffer, Blackboard, Event, Semaphore, SamplingPort, QueuingPort,
    NetworkLink, ReliableLink, CommRouter, Pmk,
]


def patch_snapshot(monkeypatch, cls, edit):
    """Route *cls*'s snapshot() captures through *edit*; returns the list
    of instances captured since."""
    captured = []
    original = cls.snapshot

    def snapshot(self, *args, **kwargs):
        captured.append(self)
        return edit(original(self, *args, **kwargs))

    monkeypatch.setattr(cls, "snapshot", snapshot)
    return captured


class TestEveryLeafDeclared:
    def test_audited_configurations_fingerprint(self, simulators):
        for label, simulator in simulators:
            recorded = walk(simulator)
            assert any(ticks for _, ticks, _, _ in recorded), label
            assert any(counters for _, _, counters, _ in recorded), label
            assert any(logs for _, _, _, logs in recorded), label
            assert len(state_fingerprint(simulator)) == 64, label

    def test_rows_record_their_tick_and_counter_columns(self, simulators):
        remote = dict(simulators)["remote"]
        recorded = {name: (ticks, counters)
                    for name, ticks, counters, _ in walk(remote)}
        ticks, _ = recorded["fdir"]
        assert ("fdir", "watchdog", "armed", "SRC", 0) in ticks
        assert ("fdir", "watchdog", "armed", "SRC", 1) in ticks
        ticks, counters = recorded["router"]
        in_flight = ("router", "channels", "ch", "link", "in_flight", 0)
        assert in_flight + (0,) in ticks
        assert in_flight + (2, "sent_at") in ticks
        assert in_flight + (1,) in counters
        assert in_flight + (2, "sequence") in counters

    def test_resume_logs_are_keyed_by_their_path(self, simulators):
        steady = dict(simulators)["steady"]
        for name, _, _, logs in walk(steady):
            for path, key in logs:
                assert name == "partition:" + key[0]
                assert path == ("partitions", key[0], "pos", "tcbs",
                                key[1], "resume_log")

    def test_every_snapshot_class_is_audited(self, simulators,
                                             monkeypatch):
        for cls in SNAPSHOT_CLASSES:
            captured = patch_snapshot(monkeypatch, cls, lambda state: state)
            for _, simulator in simulators:
                state_fingerprint(simulator)
            assert captured, cls.__name__
            monkeypatch.undo()


class TestLoudFailures:
    @pytest.mark.parametrize("cls", SNAPSHOT_CLASSES,
                             ids=lambda cls: cls.__name__)
    def test_undeclared_key_raises(self, cls, simulators, monkeypatch):
        captured = patch_snapshot(monkeypatch, cls,
                                  lambda state: {**state, "undeclared": 0})
        raised = []
        for label, simulator in simulators:
            del captured[:]
            try:
                state_fingerprint(simulator)
            except SnapshotSchemaError as exc:
                assert "undeclared" in str(exc), label
                raised.append(label)
                continue
            assert not captured, f"{cls.__name__} in {label}"
        assert raised

    def test_missing_declared_key_raises(self, simulators, monkeypatch):
        patch_snapshot(monkeypatch, Mmu, lambda state: {
            key: value for key, value in state.items()
            if key != "fault_count"})
        with pytest.raises(SnapshotSchemaError, match="fault_count"):
            state_fingerprint(dict(simulators)["steady"])

    def test_wrong_leaf_shape_raises(self, simulators, monkeypatch):
        patch_snapshot(monkeypatch, Tcb,
                       lambda state: {**state, "next_release": "soon"})
        with pytest.raises(SnapshotSchemaError, match="next_release"):
            state_fingerprint(dict(simulators)["steady"])

    def test_wrong_row_width_raises(self, simulators, monkeypatch):
        patch_snapshot(monkeypatch, WatchdogService, lambda state: {
            **state, "armed": {name: row + (0,)
                               for name, row in state["armed"].items()}})
        with pytest.raises(SnapshotSchemaError, match="declared a 2-tuple"):
            state_fingerprint(dict(simulators)["remote"])

    def test_live_cache_raises_instead_of_disabling(self, monkeypatch):
        patch_snapshot(monkeypatch, Tcb,
                       lambda state: {**state, "undeclared": 0})
        simulator = make_steady_simulator()
        with pytest.raises(SnapshotSchemaError):
            simulator.run_fast(STEADY_MTF * 8)

    def test_one_of_needs_distinct_alternatives(self):
        with pytest.raises(SnapshotSchemaError):
            OneOf({"a": RAW}, {"a": RAW})
