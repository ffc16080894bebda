"""The Sect. 6 prototype system: four partitions, two PSTs, fault injection.

This module encodes, verbatim, the demonstration configuration of the
paper's prototype implementation (Fig. 8):

.. code-block:: text

    P = {P1, P2, P3, P4}
    Q1 = Q2 = {<P1,1300,200>, <P2,650,100>, <P3,650,100>, <P4,1300,100>}
    chi1 = <MTF=1300, {<P1,0,200>, <P2,200,100>, <P3,300,100>, <P4,400,600>,
                       <P2,1000,100>, <P3,1100,100>, <P4,1200,100>}>
    chi2 = <MTF=1300, {<P1,0,200>, <P4,200,100>, <P3,300,100>, <P2,400,600>,
                       <P4,1000,100>, <P3,1100,100>, <P2,1200,100>}>

Each partition runs a mockup application "representative of typical
functions present in a satellite system": P1 hosts the AOCS, P2 the OBDH,
P3 the TTC (the authorized system partition able to switch schedules) and
P4 the FDIR.  Every mockup process's period is a multiple of its
partition's cycle (Sect. 6).

The *faulty process* of the paper's demonstration lives dormant in P1:
its configured WCET (150) fits its declared deadline budget (200), but its
actual behaviour overruns — "its WCET was underestimated at system
configuration and integration time" (Sect. 5) — so, once injected
(started), its deadline violation "is detected and reported every time
(except the first) that P1 is scheduled and dispatched to execute".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..apex.interface import ApexInterface
from ..config.builder import SystemBuilder
from ..config.schema import SystemConfig
from ..kernel.simulator import Simulator
from ..types import PartitionMode, PortDirection, ScheduleChangeAction
from . import aocs, fdir, obdh, ttc
from .base import overrunning_worker

__all__ = ["PrototypeHandles", "MTF", "FAULTY_PROCESS", "build_prototype",
           "make_simulator", "inject_faulty_process", "STEADY_MTF",
           "build_steady_prototype", "make_steady_simulator"]

#: Major time frame of both prototype schedules (Fig. 8).
MTF = 1300

#: Name of the injectable faulty process hosted by P1.
FAULTY_PROCESS = "p1-faulty"

#: Budget the faulty process replenishes each iteration (its declared
#: time capacity), and the work it actually performs.
FAULTY_BUDGET = 200
FAULTY_WORK = 300


@dataclass
class PrototypeHandles:
    """Observability handles into the prototype's applications."""

    config: SystemConfig
    ttc_stats: "ttc.DownlinkStats"
    fdir_stats: "fdir.FdirStats"


def build_prototype(*, seed: int = 0, deadline_store: str = "list",
                    change_action_policy: str = "first_dispatch",
                    p1_change_action: ScheduleChangeAction =
                    ScheduleChangeAction.IGNORE,
                    fdir_supervision: bool = False) -> PrototypeHandles:
    """Build the Sect. 6 system configuration.

    ``p1_change_action`` optionally arms a ScheduleChangeAction for P1 on
    both schedules (the paper's demo uses none; tests use this hook).

    ``fdir_supervision`` attaches the FDIR supervision layer: a P1
    deadline-miss escalation chain (process restart -> partition restart
    -> degraded ``chi2`` switch -> partition stop), restart-storm
    parking, recovery probation back to ``chi1``, and a P4 heartbeat
    watchdog (P4 gains a ``fdir-heartbeat`` process).  The default build
    is unchanged — without supervision no new processes or events exist.
    """
    builder = SystemBuilder()
    builder.seed(seed)
    builder.deadline_store(deadline_store)
    builder.change_action_policy(change_action_policy)

    # P1's integration-time HM policy for deadline misses is the Sect. 5
    # recovery action "stopping the faulty process, and reinitializing it
    # from the entry address": the restarted process re-registers a fresh
    # deadline, overruns again, and is re-detected — so the violation is
    # "detected and reported every time (except the first) that P1 is
    # scheduled and dispatched to execute" (Sect. 6).
    from ..hm.tables import HmTables
    from ..types import ErrorCode, RecoveryAction

    builder.hm_tables(HmTables(partition_actions={
        "P1": {ErrorCode.DEADLINE_MISSED:
               RecoveryAction.STOP_AND_RESTART_PROCESS},
    }))

    # --- partitions and their mockup applications ------------------- #
    p1 = builder.partition("P1")
    aocs.configure(p1, cycle=MTF, duty=200)
    # The faulty process's declared WCET (40) passes every offline check —
    # it is "underestimated at system configuration and integration time"
    # (Sect. 5); the body actually computes FAULTY_WORK=300 per budget.
    p1.process(FAULTY_PROCESS, period=MTF, deadline=FAULTY_BUDGET,
               priority=9, wcet=40)
    p1.body(FAULTY_PROCESS, overrunning_worker(FAULTY_WORK, FAULTY_BUDGET))

    obdh.configure(builder.partition("P2"), cycle=650, duty=100)
    ttc_stats = ttc.configure(builder.partition("P3"), cycle=650, duty=100)
    fdir_stats = fdir.configure(builder.partition("P4"), cycle=MTF, duty=100,
                                heartbeat=fdir_supervision)

    if fdir_supervision:
        from ..fdir.policy import EscalationRule, EscalationStep, FdirConfig
        from ..types import ErrorCode, RecoveryAction

        builder.fdir(FdirConfig(
            rules=(
                # The Sect. 6 faulty process misses once per MTF while
                # armed; three misses within four frames climb one rung.
                EscalationRule(
                    code=ErrorCode.DEADLINE_MISSED, partition="P1",
                    window=4 * MTF, threshold=3,
                    chain=(
                        EscalationStep(RecoveryAction.RESTART_PARTITION),
                        EscalationStep(RecoveryAction.SWITCH_SCHEDULE,
                                       schedule="chi2"),
                        EscalationStep(RecoveryAction.STOP_PARTITION),
                    )),
            ),
            storm_window=3 * MTF, storm_limit=3,
            probation=8 * MTF,
            watchdogs={"P4": 4 * MTF},
        ))

    # --- interpartition channels ------------------------------------ #
    builder.sampling_channel(
        "attitude", source=("P1", aocs.ATTITUDE_PORT),
        destinations=(("P2", obdh.ATTITUDE_IN_PORT),
                      ("P4", fdir.ATTITUDE_MON_PORT)),
        max_message_size=64, refresh_period=2 * MTF)
    builder.queuing_channel(
        "telemetry", source=("P2", obdh.TELEMETRY_PORT),
        destination=("P3", ttc.TELEMETRY_IN_PORT),
        max_message_size=128, max_nb_messages=32)
    builder.queuing_channel(
        "alerts", source=("P4", fdir.ALERT_PORT),
        destination=("P3", ttc.ALERT_IN_PORT),
        max_message_size=64, max_nb_messages=8)

    # --- the two PSTs of Fig. 8 ------------------------------------- #
    chi1 = builder.schedule("chi1", mtf=MTF)
    chi2 = builder.schedule("chi2", mtf=MTF)
    for chi in (chi1, chi2):
        chi.require("P1", cycle=1300, duration=200)
        chi.require("P2", cycle=650, duration=100)
        chi.require("P3", cycle=650, duration=100)
        chi.require("P4", cycle=1300, duration=100)
        if p1_change_action is not ScheduleChangeAction.IGNORE:
            chi.on_switch("P1", p1_change_action)
    chi1.window("P1", offset=0, duration=200) \
        .window("P2", offset=200, duration=100) \
        .window("P3", offset=300, duration=100) \
        .window("P4", offset=400, duration=600) \
        .window("P2", offset=1000, duration=100) \
        .window("P3", offset=1100, duration=100) \
        .window("P4", offset=1200, duration=100)
    chi2.window("P1", offset=0, duration=200) \
        .window("P4", offset=200, duration=100) \
        .window("P3", offset=300, duration=100) \
        .window("P2", offset=400, duration=600) \
        .window("P4", offset=1000, duration=100) \
        .window("P3", offset=1100, duration=100) \
        .window("P2", offset=1200, duration=100)
    builder.initial_schedule("chi1")

    return PrototypeHandles(config=builder.build(), ttc_stats=ttc_stats,
                            fdir_stats=fdir_stats)


def make_simulator(handles: Optional[PrototypeHandles] = None,
                   **kwargs) -> Simulator:
    """Convenience: build (or reuse) a prototype config and wrap it in a
    simulator."""
    if handles is None:
        handles = build_prototype(**kwargs)
    return Simulator(handles.config)


#: Major time frame of the steady-state cruise configuration.
STEADY_MTF = 1300

#: Constant attitude record published every cruise frame (a parked
#: momentum-dumped attitude: unit quaternion, zero drift).
_CRUISE_ATTITUDE = b"\x00\x00\x00\x00" + b"\x00\x00\x80\x3f" * 3

#: Constant housekeeping telemetry frame forwarded to the TTC.
_CRUISE_TELEMETRY = b"HK:nominal,att=unit,wheels=parked"


def _cruise_attitude(job: int, ctx) -> bytes:
    return _CRUISE_ATTITUDE


def _cruise_telemetry(job: int, ctx) -> bytes:
    return _CRUISE_TELEMETRY


def build_steady_prototype(*, seed: int = 0) -> SystemConfig:
    """Build the long-horizon *cruise mode* configuration.

    The Sect. 6 demo system is deliberately never frame-periodic — job
    counters ride in every payload, the AOCS quaternion drifts, log
    messages fire on an 8-job cadence, and the momentum process runs at
    twice the MTF.  This variant models the operational regime those
    transients settle into: a satellite in cruise, every process period
    equal to its partition cycle, every payload a constant record, no
    rng draws and no job-indexed behaviour.  From the second frame on,
    each major time frame is a byte-predictable repeat of the previous
    one — the steady state the cycle cache (DESIGN decision 13) detects
    and replays, and the workload behind ``bench_event_core
    --steady-mtfs``.

    The schedule and channel topology mirror ``chi1`` of Fig. 8 so the
    cruise workload exercises the same kernel machinery (two windows per
    partition cycle, a sampling fan-out, a queuing pipeline) as the
    faulty-demo configuration.
    """
    from .base import (periodic_worker, queuing_consumer, queuing_producer,
                       sampling_consumer, sampling_producer)

    builder = SystemBuilder()
    builder.seed(seed)

    def _partition(name, processes, init_ports):
        part = builder.partition(name)
        for process, period, work, priority, factory in processes:
            part.process(process, period=period, deadline=period,
                         priority=priority, wcet=work)
            part.body(process, factory)

        def init(apex, _ports=init_ports, _procs=processes):
            apex_module = apex
            for port, direction, kind in _ports:
                if kind == "sampling":
                    apex_module.create_sampling_port(port, direction)
                else:
                    apex_module.create_queuing_port(port, direction)
            for process, *_ in _procs:
                apex_module.start(process).expect(f"starting {process}")
            apex_module.set_partition_mode(PartitionMode.NORMAL)

        part.init_hook(init)

    _partition("P1", [
        ("aocs-sensing", STEADY_MTF, 40, 1, periodic_worker(40)),
        ("aocs-control", STEADY_MTF, 50, 2,
         sampling_producer(aocs.ATTITUDE_PORT, work=50,
                           payload=_cruise_attitude)),
    ], [(aocs.ATTITUDE_PORT, PortDirection.SOURCE, "sampling")])
    _partition("P2", [
        ("obdh-housekeeping", 650, 25, 1,
         sampling_consumer(obdh.ATTITUDE_IN_PORT, work=25)),
        ("obdh-telemetry", 650, 25, 2,
         queuing_producer(obdh.TELEMETRY_PORT, work=25,
                          payload=_cruise_telemetry)),
    ], [(obdh.ATTITUDE_IN_PORT, PortDirection.DESTINATION, "sampling"),
        (obdh.TELEMETRY_PORT, PortDirection.SOURCE, "queuing")])
    _partition("P3", [
        ("ttc-telemetry", 650, 10, 1,
         queuing_consumer(ttc.TELEMETRY_IN_PORT, work_per_message=10,
                          drain_limit=4)),
    ], [(ttc.TELEMETRY_IN_PORT, PortDirection.DESTINATION, "queuing")])
    _partition("P4", [
        ("fdir-monitor", STEADY_MTF, 30, 1,
         sampling_consumer(fdir.ATTITUDE_MON_PORT, work=30)),
    ], [(fdir.ATTITUDE_MON_PORT, PortDirection.DESTINATION, "sampling")])

    builder.sampling_channel(
        "attitude", source=("P1", aocs.ATTITUDE_PORT),
        destinations=(("P2", obdh.ATTITUDE_IN_PORT),
                      ("P4", fdir.ATTITUDE_MON_PORT)),
        max_message_size=64, refresh_period=STEADY_MTF)
    builder.queuing_channel(
        "telemetry", source=("P2", obdh.TELEMETRY_PORT),
        destination=("P3", ttc.TELEMETRY_IN_PORT),
        max_message_size=128, max_nb_messages=32)

    cruise = builder.schedule("cruise", mtf=STEADY_MTF)
    cruise.require("P1", cycle=1300, duration=200)
    cruise.require("P2", cycle=650, duration=100)
    cruise.require("P3", cycle=650, duration=100)
    cruise.require("P4", cycle=1300, duration=100)
    cruise.window("P1", offset=0, duration=200) \
        .window("P2", offset=200, duration=100) \
        .window("P3", offset=300, duration=100) \
        .window("P4", offset=400, duration=600) \
        .window("P2", offset=1000, duration=100) \
        .window("P3", offset=1100, duration=100) \
        .window("P4", offset=1200, duration=100)
    builder.initial_schedule("cruise")
    return builder.build()


def make_steady_simulator(*, seed: int = 0) -> Simulator:
    """Build the cruise-mode configuration wrapped in a simulator."""
    return Simulator(build_steady_prototype(seed=seed))


def inject_faulty_process(simulator: Simulator) -> None:
    """Activate the faulty process on P1 — the paper demo's keyboard action.

    START registers the process's first deadline (now + its declared time
    capacity); its body then overruns every replenished budget.  Injection
    before P1's own initialization has run (which is what registers bodies)
    wires the body directly from the integration configuration.
    """
    apex = simulator.apex("P1")
    if not apex.has_body(FAULTY_PROCESS):
        runtime = simulator.runtime("P1")
        apex.register_body(FAULTY_PROCESS,
                           runtime.config.bodies[FAULTY_PROCESS])
    apex.start(FAULTY_PROCESS).expect("injecting faulty process")
