"""Lockstep loop and failover protocol tests.

The failover drill numbers asserted here are the acceptance contract:
leader silenced mid-run, every standby's FDIR watchdog expires one
heartbeat-timeout later, the successor promotes at its next MTF boundary,
and the whole detection-to-promotion interval stays inside the declared
``failover_deadline``.
"""

import pytest

from repro.apps.prototype import MTF
from repro.campaign.scenarios import FACTORIES
from repro.constellation import (
    Constellation,
    ConstellationConfig,
    LinkPartitionFault,
    NodeCrashFault,
    ROLE_LEADER,
    ROLE_STANDBY,
    SilentNodeFault,
    check_constellation,
)
from repro.exceptions import SimulationError
from repro.kernel.rng import SeededRng
from repro.kernel.simulator import Simulator


def build(seed=4, **overrides):
    defaults = dict(nodes=3)
    defaults.update(overrides)
    return Constellation(ConstellationConfig(**defaults), seed)


class TestLockstep:
    def test_boot_roles(self):
        constellation = build()
        assert constellation.nodes[0].role == ROLE_LEADER
        assert [n.role for n in constellation.nodes[1:]] == [
            ROLE_STANDBY, ROLE_STANDBY]
        assert constellation.leaders == (0,)

    def test_fault_free_node_traces_match_standalone_runs(self):
        # The lockstep invariant DESIGN decision 12 buys: chunked
        # advancement between sync boundaries leaves each node's trace
        # byte-identical to the same simulator run alone.
        constellation = build(seed=4)
        constellation.run(4 * MTF)
        seeds = SeededRng(4).fork("node-seeds")
        for node in constellation.nodes:
            node_seed = seeds.fork(f"node-{node.index}").seed
            solo = Simulator(FACTORIES["prototype"](seed=node_seed))
            solo.run(4 * MTF)
            assert node.simulator.trace.digest() == solo.trace.digest()

    def test_fault_free_run_is_quiet(self):
        constellation = build()
        constellation.run(5 * MTF)
        assert constellation.leaders == (0,)
        assert all(node.epoch == 0 for node in constellation.nodes)
        # Only the boot claim in the protocol record.
        assert [e["event"] for e in constellation.protocol_events] == [
            "leader-claimed"]
        assert check_constellation(
            constellation.comm.events, constellation.protocol_events,
            constellation.config, end_tick=constellation.now,
            final_backlog=constellation.comm.backlog()) == ()

    def test_past_fault_refused(self):
        constellation = build()
        constellation.run(100)
        with pytest.raises(SimulationError):
            constellation.schedule_fault(50, SilentNodeFault(node=0))

    def test_abort_stops_early(self):
        constellation = build()
        polls = []
        completed = constellation.run(
            5 * MTF, should_abort=lambda: len(polls) >= 3 or
            polls.append(None))
        assert not completed
        assert constellation.now < 5 * MTF


class TestFailover:
    def test_silent_leader_recovers_within_deadline(self):
        constellation = build(seed=0)
        silence_at = MTF + MTF // 2
        constellation.schedule_fault(silence_at, SilentNodeFault(node=0))
        constellation.run(8 * MTF)
        events = {e["event"]: e for e in constellation.protocol_events
                  if not e.get("boot")}
        detected = events["failover-detected"]
        claimed = events["leader-claimed"]
        # Node 1 (lowest-id survivor) detects and promotes.
        assert detected["node"] == 1
        assert claimed["node"] == 1
        assert claimed["epoch"] == 1
        # Detection = one timeout after the last *heard* heartbeat
        # (kicked at delivery), so it lands inside (silence_at,
        # silence_at + timeout].
        assert silence_at < detected["tick"] <= \
            silence_at + constellation.config.heartbeat_timeout
        # The acceptance bound: promotion within the declared deadline.
        assert claimed["tick"] - claimed["detected_at"] <= \
            constellation.config.failover_deadline
        # Promotion lands on node 1's MTF boundary, never mid-frame.
        assert claimed["tick"] % MTF == 0
        assert constellation.leaders == (1,)
        # Node 2 adopts; so does node 0 — fail-silent blocks its sends,
        # not its ears, so the old leader hears the claim and steps down.
        adopted = [e for e in constellation.protocol_events
                   if e["event"] == "leader-adopted"]
        assert {e["node"] for e in adopted} == {0, 2}
        assert all(e["leader"] == 1 and e["epoch"] == 1 for e in adopted)
        assert check_constellation(
            constellation.comm.events, constellation.protocol_events,
            constellation.config, end_tick=constellation.now,
            final_backlog=constellation.comm.backlog()) == ()

    def test_watchdog_expiry_lands_in_node_trace(self):
        from repro.kernel.trace import WatchdogExpired

        constellation = build(seed=0)
        constellation.schedule_fault(MTF, SilentNodeFault(node=0))
        constellation.run(6 * MTF)
        # The detection is FDIR machinery: each standby's own trace
        # records the leader-watchdog expiry like any partition watchdog.
        for node in constellation.nodes[1:]:
            assert node.simulator.trace.count(WatchdogExpired) >= 1

    def test_transient_silence_cancels_failover(self):
        constellation = build(seed=0)
        # Silent long enough to trip detection, back before promotion:
        # detection at silence+timeout, promotion at the next MTF
        # boundary, so a window just past the timeout recovers in time.
        constellation.schedule_fault(
            100, SilentNodeFault(node=0,
                                 duration=constellation.config
                                 .heartbeat_timeout + 150))
        constellation.run(8 * MTF)
        kinds = [e["event"] for e in constellation.protocol_events]
        assert "failover-cancelled" in kinds
        assert constellation.leaders == (0,)
        assert all(node.epoch == 0 for node in constellation.nodes)

    def test_crashed_leader_failover(self):
        constellation = build(seed=2)
        constellation.schedule_fault(2 * MTF, NodeCrashFault(node=0))
        constellation.run(8 * MTF)
        assert constellation.nodes[0].crashed
        assert not constellation.nodes[0].alive
        assert constellation.leaders == (1,)
        crash = [e for e in constellation.protocol_events
                 if e["event"] == "node-crashed"]
        assert [(e["node"], e["role"]) for e in crash] == [(0, "leader")]

    def test_cascading_crash(self):
        constellation = build(seed=2)
        constellation.schedule_fault(
            MTF, NodeCrashFault(node=2, cascade=(1,), cascade_delay=400))
        constellation.run(4 * MTF)
        crashes = [(e["node"], e["tick"])
                   for e in constellation.protocol_events
                   if e["event"] == "node-crashed"]
        assert [node for node, _ in crashes] == [2, 1]
        assert crashes[1][1] - crashes[0][1] >= 400
        # The leader survives alone.
        assert constellation.leaders == (0,)

    def test_partition_heal_reconverges_on_highest_epoch(self):
        constellation = build(seed=5)
        # Isolate the leader for ~3 MTF: the majority side elects node 1
        # under epoch 1; after the heal the old leader hears the higher
        # epoch and steps down — exactly one leader at the end.
        constellation.schedule_fault(
            MTF, LinkPartitionFault(group_a=(0,), duration=3 * MTF))
        constellation.run(10 * MTF)
        assert constellation.leaders == (1,)
        stepped = [e for e in constellation.protocol_events
                   if e["event"] == "leader-adopted" and e["stepped_down"]]
        assert [e["node"] for e in stepped] == [0]
        # The oracle excuses the dual-leader interval (fault window) but
        # still demands clean message accounting and the deadline.
        violations = check_constellation(
            constellation.comm.events, constellation.protocol_events,
            constellation.config, end_tick=constellation.now,
            final_backlog=constellation.comm.backlog())
        assert violations == ()


class TestOracleTeeth:
    """The cross-node oracle must flag unexcused damage, not just pass
    clean runs."""

    def _clean_run(self):
        constellation = build(seed=0)
        constellation.run(2 * MTF)
        return constellation

    def test_unexplained_drop_flagged(self):
        constellation = self._clean_run()
        events = list(constellation.comm.events)
        events.append({"event": "dropped", "tick": 100, "src": 0,
                       "dst": 1, "seq": 9999, "reason": "gremlins"})
        violations = check_constellation(
            events, constellation.protocol_events, constellation.config,
            end_tick=constellation.now)
        assert any(v.invariant == "xnode-message-accounting"
                   and "gremlins" in v.detail for v in violations)

    def test_double_accept_flagged(self):
        constellation = self._clean_run()
        events = list(constellation.comm.events)
        accepted = next(e for e in events if e["event"] == "accepted")
        events.append(dict(accepted, tick=constellation.now))
        violations = check_constellation(
            events, constellation.protocol_events, constellation.config,
            end_tick=constellation.now)
        assert any("accepted twice" in v.detail for v in violations)

    def test_dual_leader_without_fault_window_flagged(self):
        constellation = self._clean_run()
        protocol = list(constellation.protocol_events)
        protocol.append({"event": "leader-claimed", "tick": 500,
                         "node": 2, "epoch": 0})
        violations = check_constellation(
            constellation.comm.events, protocol, constellation.config,
            end_tick=constellation.now)
        assert any(v.invariant == "single-leader-epoch"
                   for v in violations)

    def test_blown_deadline_flagged(self):
        constellation = self._clean_run()
        deadline = constellation.config.failover_deadline
        protocol = list(constellation.protocol_events)
        protocol.append({"event": "failover-detected", "tick": 100,
                         "node": 1, "leader": 0, "promotion_due": 1300})
        protocol.append({"event": "leader-claimed",
                         "tick": 100 + deadline + 1, "node": 1,
                         "epoch": 1, "detected_at": 100})
        violations = check_constellation(
            constellation.comm.events, protocol, constellation.config,
            end_tick=constellation.now)
        assert any(v.invariant == "failover-deadline" for v in violations)

    def test_dangling_detection_flagged(self):
        constellation = self._clean_run()
        protocol = list(constellation.protocol_events)
        protocol.append({"event": "failover-detected", "tick": 10,
                         "node": 1, "leader": 0, "promotion_due": 1300})
        violations = check_constellation(
            constellation.comm.events, protocol, constellation.config,
            end_tick=constellation.now)
        assert any("still incomplete" in v.detail for v in violations)

    def test_corrupt_rejection_without_byzantine_window_flagged(self):
        constellation = self._clean_run()
        events = list(constellation.comm.events)
        events.append({"event": "rejected-corrupt", "tick": 50,
                       "src": 0, "dst": 1, "seq": 3})
        violations = check_constellation(
            events, constellation.protocol_events, constellation.config,
            end_tick=constellation.now)
        assert any("never corrupted" in v.detail for v in violations)
