"""Lookahead tests: a node runs ahead to the next tick the fleet can touch.

The lockstep loop keeps its boundary schedule but advances a node only
when the fleet is about to pass the node's position, and then to the
node's horizon (DESIGN decision 12).  These tests pin what that must
keep — the combined digests of a campaign slice that exercises every
place the fleet touches a node — and show that the touch premise is
checked where it is used: a horizon that ignores pending cross-node
faults, or the node's leader-watchdog expiry, raises a
:class:`~repro.exceptions.SimulationError` instead of silently moving a
digest.
"""

import dataclasses

import pytest

from repro.apps.prototype import FAULTY_PROCESS, MTF
from repro.campaign.scenarios import FACTORIES
from repro.constellation import (
    Constellation,
    ConstellationConfig,
    NodeCrashFault,
    SilentNodeFault,
    constellation_campaign,
)
from repro.constellation.runner import ConstellationRun
from repro.exceptions import SimulationError
from repro.fault.faults import StartProcessFault
from repro.fault.injector import FaultInjector
from repro.fdir.policy import EscalationStep
from repro.types import RecoveryAction

#: A test-only node factory: the FDIR-supervised prototype whose P1
#: deadline-miss escalation stops the whole module at its first rung.
SELF_STOP_FACTORY = "prototype-escalates-to-module-stop"


def _self_stopping_prototype(seed=0, **kwargs):
    config = FACTORIES["prototype"](seed=seed, **kwargs)
    rule, = config.fdir.rules
    config.fdir = dataclasses.replace(config.fdir, rules=(
        dataclasses.replace(rule, chain=(
            EscalationStep(RecoveryAction.MODULE_STOP),)),))
    return config


def pinned_slice():
    """Four campaign scenarios plus two derived from them.

    The generator never draws a cascading crash or a module stop, so
    one scenario gains a ``NodeCrashFault`` cascading to a second node
    and another runs its nodes on :data:`SELF_STOP_FACTORY` with the
    faulty process started on the leader, whose own FDIR then stops it.
    """
    base = constellation_campaign(count=4, base_seed=0)
    cascade = dataclasses.replace(
        base[1], scenario_id=base[1].scenario_id + "+cascade",
        faults=base[1].faults + (
            (2 * MTF + 37,
             NodeCrashFault(node=2, cascade=(1,), cascade_delay=450)),))
    self_stop = dataclasses.replace(
        base[2], scenario_id=base[2].scenario_id + "+self-stop",
        constellation=dataclasses.replace(base[2].constellation,
                                          factory=SELF_STOP_FACTORY),
        node_faults=base[2].node_faults + (
            (0, MTF + 100, StartProcessFault("P1", FAULTY_PROCESS)),))
    return base + [cascade, self_stop]


def run_slice():
    """``{scenario id: finished ConstellationRun}`` for the pinned slice."""
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(FACTORIES, SELF_STOP_FACTORY, _self_stopping_prototype)
        for scenario in pinned_slice():
            run = ConstellationRun(scenario)
            run.build()
            run.schedule()
            assert run.advance(None)
            runs[scenario.scenario_id] = run
    return runs


#: Combined digests of :func:`pinned_slice`, computed before nodes ran
#: to their own lookahead (every node stopped at every sync boundary).
PINNED = {
    "xnode-00000": "0ea3ee14c911cfa8",
    "xnode-00001": "841f6530b5bdcf28",
    "xnode-00002": "450f0deb6833b052",
    "xnode-00003": "c51cf85d5569871f",
    "xnode-00001+cascade": "cd013ba06c0f6653",
    "xnode-00002+self-stop": "a3aeb75b572817bf",
}


@pytest.fixture(scope="module")
def runs():
    return run_slice()


def _events(run, kind):
    return [event for event in run.constellation.protocol_events
            if event["event"] == kind and not event.get("boot")]


class TestPinnedDigests:
    def test_combined_digests_unchanged(self, runs):
        assert {scenario_id: run.constellation.combined_digest()
                for scenario_id, run in runs.items()} == PINNED

    def test_slice_exercises_a_cascading_crash(self, runs):
        run = runs["xnode-00001+cascade"]
        crashes = [(tick, fault.node)
                   for tick, fault, _ in run.constellation.fault_log
                   if isinstance(fault, NodeCrashFault)]
        assert crashes == [(2 * MTF + 37, 2), (2 * MTF + 37 + 450, 1)]
        assert [(event["tick"], event["node"])
                for event in _events(run, "node-crashed")] == crashes

    def test_slice_exercises_a_failover(self, runs):
        pairs = [(detected, claimed)
                 for run in runs.values()
                 for detected in _events(run, "failover-detected")
                 for claimed in _events(run, "leader-claimed")
                 if claimed["node"] == detected["node"]
                 and claimed["detected_at"] == detected["tick"]]
        assert pairs

    def test_slice_exercises_an_fdir_self_stop(self, runs):
        run = runs["xnode-00002+self-stop"]
        constellation = run.constellation
        node = constellation.nodes[0]
        assert 0 not in [fault.node for _, fault, _ in constellation.fault_log
                         if isinstance(fault, NodeCrashFault)]
        crash, = [event for event in _events(run, "node-crashed")
                  if event["node"] == 0]
        assert crash["role"] == "leader"
        # Its own FDIR stopped it between two boundaries; the fleet
        # marked it crashed at the first boundary after its stop tick,
        # and the surviving standby took over.
        assert node.simulator.stopped
        assert 0 < crash["tick"] - node.simulator.now < \
            constellation.config.sync_quantum
        assert constellation.leaders == (2,)


def _hiding_pending_faults(horizon):
    def mutant(self, node, boundary, target):
        pending, self._pending = self._pending, []
        try:
            return horizon(self, node, boundary, target)
        finally:
            self._pending = pending
    return mutant


def _hiding_watchdog_expiry(horizon):
    def mutant(self, node, boundary, target):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(node.watchdog, "next_expiry", lambda: None)
            return horizon(self, node, boundary, target)
    return mutant


class TestTouchPremise:
    """A node the fleet touches must not be ahead of it."""

    def test_horizon_ignoring_pending_faults_is_caught(self, monkeypatch):
        monkeypatch.setattr(Constellation, "_horizon", _hiding_pending_faults(
            Constellation._horizon))
        constellation = Constellation(ConstellationConfig(nodes=3), 2)
        constellation.schedule_fault(2 * MTF + 37, NodeCrashFault(node=0))
        with pytest.raises(SimulationError,
                           match=r"node 0 is at tick \d+ where the "
                                 r"constellation touches it at tick 2637"):
            constellation.run(4 * MTF)

    def test_horizon_ignoring_the_watchdog_is_caught(self, monkeypatch):
        monkeypatch.setattr(Constellation, "_horizon",
                            _hiding_watchdog_expiry(Constellation._horizon))
        constellation = Constellation(ConstellationConfig(nodes=3), 0)
        constellation.schedule_fault(MTF, SilentNodeFault(node=0))
        with pytest.raises(SimulationError,
                           match=r"node [12] is at tick \d+ where the "
                                 r"constellation touches it at tick \d+"):
            constellation.run(4 * MTF)

    def test_both_mutants_fail_the_pinned_slice(self, monkeypatch):
        for mutate in (_hiding_pending_faults, _hiding_watchdog_expiry):
            with monkeypatch.context() as patch:
                patch.setattr(Constellation, "_horizon",
                              mutate(Constellation._horizon))
                with pytest.raises(SimulationError, match="lookahead"):
                    run_slice()


class TestLookahead:
    def test_nodes_are_not_stopped_at_every_boundary(self, monkeypatch):
        boundaries, advances = [], []
        next_boundary = Constellation._next_boundary
        run_fast = FaultInjector.run_fast
        monkeypatch.setattr(
            Constellation, "_next_boundary",
            lambda self, target: boundaries.append(None) or
            next_boundary(self, target))
        monkeypatch.setattr(
            FaultInjector, "run_fast",
            lambda self, ticks: advances.append(ticks) or
            run_fast(self, ticks))
        constellation = Constellation(ConstellationConfig(nodes=3), 4)
        constellation.run(8 * MTF)
        assert sum(advances) == 3 * 8 * MTF
        assert len(advances) * 3 < len(boundaries)
