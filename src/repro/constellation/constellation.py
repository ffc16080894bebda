"""Lockstep multi-node execution with leader/standby failover.

A :class:`Constellation` runs N full AIR nodes — each its own
:class:`~repro.kernel.simulator.Simulator` with PMK/PST/FDIR stack and a
:class:`~repro.fault.injector.FaultInjector` — in deterministic lockstep:
the loop steps from one *sync boundary* to the next, pumps the
inter-node fabric, drains inboxes and runs one protocol step per node.
Boundaries are the earliest of: the sync quantum, the next link
delivery, the next beacon, the next watchdog expiry, the next pending
promotion and the next scheduled cross-node fault — so no
protocol-relevant tick is ever skipped, and the whole schedule is a pure
function of (config, seed, faults).

Most boundaries never read or write a node's simulator, so a node is not
stopped at each one.  Conservative lookahead (Chandy–Misra): when the
fleet is about to pass a node's position, the node runs, in node-id
order, to its *horizon* — the earliest tick at which the fleet can touch
it (:meth:`Constellation._horizon`).  The fleet touches a node's
simulator in three places only — the leader watchdog's expiry record,
the scheduler read behind ``promotion_due``, and ``crash_node``'s module
stop — and :meth:`Constellation._touch` checks at each that the node is
exactly at the fleet's tick.  See DESIGN decision 12 for why lockstep
(not event-interleaved node execution) is what keeps per-node trace
digests byte-identical to single-node runs.

Failover is driven by the existing FDIR machinery: every standby runs a
:class:`~repro.fdir.watchdog.WatchdogService` with one ``leader`` window
(its expiry event lands in that node's own trace, exactly like a
partition watchdog).  On expiry the standby computes the successor —
the lowest-id node it still believes alive — and, if that is itself,
promotes at its next MTF boundary (role changes are mode changes; AIR
changes modes only at MTF boundaries) under a fresh epoch, broadcasting
a leader claim.  A reappearing old leader steps down on seeing the
higher epoch.  The cross-node oracle checks the promotion landed within
the declared ``failover_deadline``.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..campaign.scenarios import FACTORIES
from ..exceptions import SimulationError
from ..fault.injector import FaultInjector
from ..fdir.watchdog import WatchdogService
from ..kernel.rng import SeededRng
from ..kernel.simulator import Simulator
from ..types import Ticks
from .comm import (
    MSG_CLAIM,
    MSG_HEARTBEAT,
    MSG_STATUS,
    InterNodeComm,
)
from .config import ConstellationConfig
from .faults import ConstellationFault

__all__ = ["Node", "Constellation", "ROLE_LEADER", "ROLE_STANDBY"]

ROLE_LEADER = "leader"
ROLE_STANDBY = "standby"


class Node:
    """One AIR node: simulator + injector + failover protocol state."""

    def __init__(self, index: int, simulator: Simulator,
                 heartbeat_timeout: Ticks) -> None:
        self.index = index
        self.simulator = simulator
        self.injector = FaultInjector(simulator)
        self.role = ROLE_LEADER if index == 0 else ROLE_STANDBY
        #: Highest epoch this node has adopted; the leader's own epoch.
        self.epoch = 0
        #: Who this node believes leads the constellation.
        self.leader = 0
        self.last_heard: Dict[int, Ticks] = {}
        self.next_beacon: Ticks = 0
        self.promotion_due: Optional[Ticks] = None
        self.detected_at: Optional[Ticks] = None
        self.crashed = False
        self.seq = 0
        #: The FDIR heartbeat watchdog: one ``leader`` window, expiry
        #: recorded into this node's own trace (WatchdogExpired), exactly
        #: like a partition watchdog.  ``on_expired`` is bound by the
        #: constellation (it needs cross-node state).
        self.watchdog = WatchdogService(
            {"leader": heartbeat_timeout},
            on_expired=lambda *args: None,
            trace=simulator.trace)

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq

    @property
    def alive(self) -> bool:
        """Not crashed.  A node whose own FDIR stopped its module stays
        alive to the fleet until the first boundary at or after its stop
        tick, where the constellation marks it crashed."""
        return not self.crashed


class Constellation:
    """N AIR nodes in deterministic lockstep over an inter-node fabric."""

    def __init__(self, config: ConstellationConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        self.now: Ticks = 0
        self.comm = InterNodeComm(config, seed)
        factory = FACTORIES[config.factory]
        seeds = SeededRng(seed).fork("node-seeds")
        self.nodes: List[Node] = []
        #: Per-node system configs, index-aligned with :attr:`nodes` —
        #: the runner audits each node's trace against its own config.
        self.system_configs: List[Any] = []
        for index in range(config.nodes):
            node_seed = seeds.fork(f"node-{index}").seed
            system = factory(seed=node_seed, **dict(config.factory_kwargs))
            simulator = Simulator(system)
            self.system_configs.append(system)
            self.nodes.append(Node(index, simulator,
                                   config.heartbeat_timeout))
        #: Pure-data protocol record (role changes, detections,
        #: promotions, crashes) — oracle + digest input.
        self.protocol_events: List[Dict[str, Any]] = []
        #: Applied cross-node faults: (tick, fault, status).
        self.fault_log: List[Tuple[Ticks, ConstellationFault, str]] = []
        self._pending: List[Tuple[Ticks, int, ConstellationFault]] = []
        self._fault_seq = 0
        self._record({"event": "leader-claimed", "tick": 0, "node": 0,
                      "epoch": 0, "boot": True})
        for node in self.nodes:
            node.last_heard = {peer: 0 for peer in range(config.nodes)
                               if peer != node.index}
            if node.role == ROLE_STANDBY:
                # Boot counts as having just heard the leader: the
                # watchdog arms immediately, so a leader silent from
                # tick 0 is still detected one timeout in.
                node.watchdog.kick("leader", 0)
            node.next_beacon = config.heartbeat_period

    # ---------------------------------------------------------------- #
    # cross-node fault scheduling
    # ---------------------------------------------------------------- #

    def schedule_fault(self, tick: Ticks, fault: ConstellationFault) -> None:
        """Apply *fault* at sync boundary *tick* (past ticks refused)."""
        if tick < self.now:
            raise SimulationError(
                f"cannot schedule a constellation fault in the past "
                f"(now={self.now}, requested={tick})")
        self._fault_seq += 1
        heapq.heappush(self._pending, (tick, self._fault_seq, fault))

    def _apply_due_faults(self) -> None:
        while self._pending and self._pending[0][0] <= self.now:
            _, _, fault = heapq.heappop(self._pending)
            status = fault.apply_to(self)
            self.fault_log.append((self.now, fault, status))

    def crash_node(self, index: int) -> None:
        """Kill node *index*: module stop, fabric silence, protocol event."""
        node = self.nodes[index]
        if node.crashed:
            return
        self._touch(node)
        node.crashed = True
        node.simulator.pmk.module_stop()
        self.comm.silence(self.now, index, until=-1)
        self._record({"event": "node-crashed", "tick": self.now,
                      "node": index, "role": node.role})

    # ---------------------------------------------------------------- #
    # the lockstep loop
    # ---------------------------------------------------------------- #

    def run(self, ticks: Ticks, *,
            should_abort: Optional[Callable[[], bool]] = None) -> bool:
        """Advance the whole constellation by *ticks*.

        Returns False if *should_abort* tripped (the campaign wall-clock
        budget), True on normal completion.  *should_abort* is polled
        once per lockstep boundary, never inside a node's span.
        """
        target = self.now + ticks
        while self.now < target:
            if should_abort is not None and should_abort():
                return False
            boundary = self._next_boundary(target)
            for node in self.nodes:
                simulator = node.simulator
                if simulator.now < boundary and not simulator.stopped:
                    node.injector.run_fast(
                        self._horizon(node, boundary, target)
                        - simulator.now)
            self.now = boundary
            for node in self.nodes:
                # A node whose own FDIR stopped the module (HM
                # escalation) is dead to the fleet even without an
                # injected crash, from the first boundary at or after
                # the tick it stopped at.
                simulator = node.simulator
                if (simulator.stopped and not node.crashed
                        and simulator.now <= boundary):
                    self.crash_node(node.index)
            self._apply_due_faults()
            self.comm.pump(self.now)
            for node in self.nodes:
                if node.alive:
                    self._process_inbox(node)
            for node in self.nodes:
                if node.alive:
                    self._protocol_step(node)
        return True

    def _horizon(self, node: Node, boundary: Ticks, target: Ticks) -> Ticks:
        """The latest tick *node* may run to before the fleet touches it.

        The earliest of the run target, the next pending cross-node fault
        (every node is at a fault tick, so a crash or a cascade it
        schedules finds each node in place), the node's armed leader
        watchdog expiry and one heartbeat timeout from now.  A kick only
        moves an armed expiry later, and a disarmed watchdog re-arms no
        earlier than one timeout after a boundary still to come.  Never
        before *boundary*: nothing touches a node between two
        boundaries.
        """
        horizon = min(target, self.now + self.config.heartbeat_timeout)
        if self._pending:
            horizon = min(horizon, self._pending[0][0])
        expiry = node.watchdog.next_expiry()
        if expiry is not None:
            horizon = min(horizon, expiry)
        return max(horizon, boundary)

    def _touch(self, node: Node) -> None:
        """The lookahead premise, checked wherever the fleet reads or
        writes a node's simulator: an unstopped node is exactly at the
        fleet's tick, never ahead of it."""
        simulator = node.simulator
        if simulator.now != self.now and not simulator.stopped:
            raise SimulationError(
                f"node {node.index} is at tick {simulator.now} where the "
                f"constellation touches it at tick {self.now}: its "
                f"lookahead horizon passed a tick the fleet can touch it")

    def _next_boundary(self, target: Ticks) -> Ticks:
        candidates = [target, self.now + self.config.sync_quantum]
        delivery = self.comm.next_delivery_tick
        if delivery is not None:
            candidates.append(delivery)
        if self._pending:
            candidates.append(self._pending[0][0])
        for node in self.nodes:
            if not node.alive:
                continue
            candidates.append(node.next_beacon)
            expiry = node.watchdog.next_expiry()
            if expiry is not None:
                candidates.append(expiry)
            if node.promotion_due is not None:
                candidates.append(node.promotion_due)
        future = [tick for tick in candidates if tick > self.now]
        return min(min(future), target)

    # ---------------------------------------------------------------- #
    # protocol
    # ---------------------------------------------------------------- #

    def _record(self, event: Dict[str, Any]) -> None:
        self.protocol_events.append(event)

    def _broadcast(self, node: Node, kind: str,
                   extra: Optional[Dict[str, Any]] = None) -> None:
        for peer in range(self.config.nodes):
            if peer == node.index:
                continue
            document = {"kind": kind, "src": node.index,
                        "epoch": node.epoch, "seq": node.next_seq()}
            if extra:
                document.update(extra)
            self.comm.send(self.now, node.index, peer, document)

    def _process_inbox(self, node: Node) -> None:
        for document in self.comm.receive(self.now, node.index):
            src = document["_from"]
            # CRC framing already rejected corrupt frames; a document
            # whose claimed src disagrees with its link of arrival is a
            # spoof the mesh cannot produce — drop defensively.
            if document.get("src") != src:
                continue
            node.last_heard[src] = self.now
            kind = document.get("kind")
            epoch = document.get("epoch", -1)
            if kind == MSG_STATUS:
                continue
            if kind not in (MSG_HEARTBEAT, MSG_CLAIM):
                continue  # storm junk that somehow framed clean
            if epoch > node.epoch:
                self._adopt_leader(node, src, epoch)
            elif epoch == node.epoch:
                if src == node.leader and node.role == ROLE_STANDBY:
                    node.watchdog.kick("leader", self.now)
                    if node.promotion_due is not None:
                        # The leader we gave up on reappeared before we
                        # promoted: stand down the failover.
                        self._record({"event": "failover-cancelled",
                                      "tick": self.now, "node": node.index,
                                      "leader": src})
                        node.promotion_due = None
                        node.detected_at = None
                elif node.role == ROLE_LEADER and src != node.index:
                    # Same-epoch leader conflict (possible only under an
                    # injected partition/Byzantine window; surfaces via
                    # the rival's claim *or* its heartbeats after a
                    # heal): lowest id wins so the fleet reconverges
                    # deterministically.
                    if src < node.index:
                        self._record({"event": "epoch-conflict",
                                      "tick": self.now, "epoch": epoch,
                                      "node": node.index, "winner": src})
                        self._adopt_leader(node, src, epoch)

    def _adopt_leader(self, node: Node, leader: int, epoch: int) -> None:
        stepped_down = node.role == ROLE_LEADER
        node.role = ROLE_STANDBY
        node.leader = leader
        node.epoch = epoch
        node.promotion_due = None
        node.detected_at = None
        node.watchdog.kick("leader", self.now)
        self._record({"event": "leader-adopted", "tick": self.now,
                      "node": node.index, "leader": leader, "epoch": epoch,
                      "stepped_down": stepped_down})

    def _protocol_step(self, node: Node) -> None:
        now = self.now
        if node.promotion_due is not None and now >= node.promotion_due:
            self._promote(node)
        if now >= node.next_beacon:
            kind = MSG_HEARTBEAT if node.role == ROLE_LEADER else MSG_STATUS
            self._broadcast(node, kind)
            while node.next_beacon <= now:
                node.next_beacon += self.config.heartbeat_period
        if node.watchdog.check(now):
            # The expiry went into the node's own trace at *now*, and a
            # standby's successor choice reads its scheduler there.
            self._touch(node)
            if node.role == ROLE_STANDBY:
                self._on_leader_silent(node)

    def _on_leader_silent(self, node: Node) -> None:
        now = self.now
        timeout = self.config.heartbeat_timeout
        believed_alive = {node.index} | {
            peer for peer, heard in node.last_heard.items()
            if peer != node.leader and now - heard <= timeout}
        successor = min(believed_alive)
        if successor != node.index:
            # Someone healthier outranks us: wait one more window for
            # their claim (re-arm the watchdog).
            self._record({"event": "leader-silent", "tick": now,
                          "node": node.index, "leader": node.leader,
                          "successor": successor})
            node.watchdog.kick("leader", now)
            return
        node.detected_at = now
        # Role changes are mode changes: promote at this node's next MTF
        # boundary, never mid-frame (paper Sect. 4 discipline).
        scheduler = node.simulator.pmk.scheduler
        mtf = scheduler.current.mtf
        offset = (now - scheduler.last_schedule_switch) % mtf
        node.promotion_due = now + (mtf - offset if offset else mtf)
        self._record({"event": "failover-detected", "tick": now,
                      "node": node.index, "leader": node.leader,
                      "promotion_due": node.promotion_due})

    def _promote(self, node: Node) -> None:
        node.role = ROLE_LEADER
        node.epoch += 1
        node.leader = node.index
        detected_at = node.detected_at
        node.promotion_due = None
        node.detected_at = None
        node.watchdog.disarm("leader")
        self._record({"event": "leader-claimed", "tick": self.now,
                      "node": node.index, "epoch": node.epoch,
                      "detected_at": detected_at})
        self._broadcast(node, MSG_CLAIM)

    # ---------------------------------------------------------------- #
    # results
    # ---------------------------------------------------------------- #

    @property
    def leaders(self) -> Tuple[int, ...]:
        """Indices of alive nodes currently in the leader role."""
        return tuple(node.index for node in self.nodes
                     if node.alive and node.role == ROLE_LEADER)

    def combined_digest(self) -> str:
        """One digest over every node trace + fabric + protocol record.

        Byte-identical across worker counts and abort-poll cadences — the
        constellation's extension of the single-node trace-digest
        invariant.
        """
        parts = [node.simulator.trace.digest() for node in self.nodes]
        parts.append(self.comm.events_digest())
        canonical = json.dumps(self.protocol_events, sort_keys=True,
                               separators=(",", ":"))
        parts.append(hashlib.sha256(
            canonical.encode("utf-8")).hexdigest()[:16])
        return hashlib.sha256(
            "|".join(parts).encode("utf-8")).hexdigest()[:16]
