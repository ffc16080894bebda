"""The APEX interface: ARINC 653 services for one partition (Sect. 2.3).

AIR's APEX implementation is *portable* — the APEX Core Layer maps the
standard services onto AIR PAL functions and the native POS primitives
(Sect. 2.3, "Portable APEX").  Accordingly, :class:`ApexInterface` is
written purely against the :class:`~repro.pos.pal.PosAdaptationLayer` and
:class:`~repro.pos.base.PartitionOs` interfaces — never against a concrete
POS flavour.

One instance serves one partition and offers:

* process management (CREATE/START/DELAYED_START/STOP/SUSPEND/RESUME/
  SET_PRIORITY/GET_PROCESS_STATUS/LOCK_PREEMPTION...);
* time management (GET_TIME/TIMED_WAIT/PERIODIC_WAIT/REPLENISH) — the
  services whose deadline bookkeeping Fig. 6 illustrates;
* partition management (GET_PARTITION_STATUS/SET_PARTITION_MODE);
* mode-based schedule services (SET_MODULE_SCHEDULE/
  GET_MODULE_SCHEDULE_STATUS — ARINC 653 Part 2, Sect. 4.2), gated on the
  invoking partition being *authorized* (a system partition);
* intrapartition communication (buffers, blackboards, events, semaphores);
* interpartition communication (sampling and queuing ports);
* health-monitoring services (REPORT_APPLICATION_MESSAGE,
  RAISE_APPLICATION_ERROR, CREATE_ERROR_HANDLER).

Blocking services must be invoked from a process body via a ``Call`` effect
(see :mod:`repro.pos.effects`); non-blocking ones may also be invoked from
partition initialization hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..comm.messages import PortSpec
from ..comm.router import CommRouter
from ..core.model import ProcessModel
from ..exceptions import (
    AuthorizationError,
    SimulationError,
    UnknownProcessError,
)
from ..hm.monitor import ApplicationHandler, HealthMonitor
from ..kernel.rng import SeededRng
from ..kernel.snapshot_schema import RAW, Each
from ..kernel.trace import ApplicationMessage, Trace
from ..pos.base import PartitionOs
from ..pos.pal import PosAdaptationLayer
from ..pos.tcb import BodyFactory, Tcb, WaitCondition, WaitReason
from ..types import (
    ErrorCode,
    INFINITE_TIME,
    PartitionMode,
    PortDirection,
    ProcessState,
    QueuingDiscipline,
    Ticks,
    is_infinite,
)
from .ports import QueuingPort, SamplingPort
from .resources import Blackboard, Buffer, Event, Semaphore
from .types import (
    PartitionStatus,
    ProcessStatus,
    ReturnCode,
    ScheduleStatus,
    ServiceResult,
    error,
    ok,
)

__all__ = ["PartitionControl", "ModuleControl", "ProcessContext",
           "ApexInterface"]


class PartitionControl:
    """Runtime surface SET_PARTITION_MODE needs (implemented by
    :class:`~repro.core.runtime.PartitionRuntime`)."""

    @property
    def mode(self) -> PartitionMode:
        """Current operating mode ``M_m(t)``."""
        raise NotImplementedError

    @property
    def start_condition(self):
        """Why the partition last entered a start mode (ARINC 653)."""
        from ..types import StartCondition

        return StartCondition.NORMAL_START

    def enter_normal(self) -> None:
        """Transition to NORMAL (end of initialization)."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Transition to IDLE: stop every process."""
        raise NotImplementedError

    def request_restart(self, mode: PartitionMode) -> None:
        """Restart into COLD_START or WARM_START."""
        raise NotImplementedError


class ModuleControl:
    """PMK surface for module-level services (schedule switching)."""

    def set_module_schedule(self, schedule_id: str, *,
                            requested_by: str) -> None:
        """Store the next-schedule identifier (Sect. 4.2)."""
        raise NotImplementedError

    def schedule_status(self) -> ScheduleStatus:
        """Current/next schedule and last switch time (Part 2)."""
        raise NotImplementedError

    def kick_watchdog(self, partition: str) -> bool:
        """Record a partition heartbeat (FDIR watchdog service).

        Returns False when no watchdog watches *partition*.  Default:
        no watchdog service present.
        """
        return False


@dataclass
class ProcessContext:
    """Everything a process body receives when instantiated.

    Body factories have the signature ``factory(ctx: ProcessContext)`` and
    use ``ctx.apex`` for services, ``ctx.log`` for VITRAL-visible output,
    and ``ctx.rng`` for reproducible workload randomness.
    """

    apex: "ApexInterface"
    partition: str
    process: str
    rng: SeededRng = field(default_factory=lambda: SeededRng(0))

    def log(self, text: str) -> None:
        """Emit one line of application output (traced; shown by VITRAL)."""
        self.apex.report_application_message(text, process=self.process)


class ApexInterface:
    """APEX services of one partition."""

    def __init__(self, *, pal: PosAdaptationLayer,
                 partition_control: PartitionControl,
                 module_control: Optional[ModuleControl] = None,
                 health_monitor: Optional[HealthMonitor] = None,
                 router: Optional[CommRouter] = None,
                 trace: Optional[Trace] = None,
                 system_partition: bool = False,
                 rng: Optional[SeededRng] = None) -> None:
        self.pal = pal
        self.pos: PartitionOs = pal.pos
        self.partition_control = partition_control
        self.module_control = module_control
        self.health_monitor = health_monitor
        self.router = router
        self._trace = trace
        self.system_partition = system_partition
        self._rng = rng if rng is not None else SeededRng(0)
        self._factories: Dict[str, BodyFactory] = {}
        self._buffers: Dict[str, Buffer] = {}
        self._blackboards: Dict[str, Blackboard] = {}
        self._events: Dict[str, Event] = {}
        self._semaphores: Dict[str, Semaphore] = {}
        self._sampling_ports: Dict[str, SamplingPort] = {}
        self._queuing_ports: Dict[str, QueuingPort] = {}

    @property
    def partition(self) -> str:
        """Partition this interface serves."""
        return self.pos.name

    def now(self) -> Ticks:
        """GET_TIME: current system time in ticks."""
        return self.pal.now()

    # ================================================================ #
    # process management
    # ================================================================ #

    def register_body(self, process: str, factory: BodyFactory) -> None:
        """Bind *factory* as the body of *process* (integration-time wiring;
        the factory is invoked at every START with a fresh
        :class:`ProcessContext`)."""
        self.pos.tcb(process)  # raises for unknown processes
        self._factories[process] = factory

    def has_body(self, process: str) -> bool:
        """True if *process* has a registered body (START would not fail
        with INVALID_CONFIG)."""
        return process in self._factories

    def create_process(self, model: ProcessModel,
                       factory: BodyFactory) -> ServiceResult[str]:
        """CREATE_PROCESS: add a process not in the static configuration.

        Only legal during partition initialization (ARINC 653 forbids
        creation in NORMAL mode).
        """
        if self.partition_control.mode is PartitionMode.NORMAL:
            return error(ReturnCode.INVALID_MODE)
        try:
            self.pos.add_process(model)
        except Exception:
            return error(ReturnCode.NO_ACTION)
        self._factories[model.name] = factory
        return ok(model.name)

    def start(self, process: str) -> ServiceResult[None]:
        """START: make a dormant process ready (Sect. 5.2's first bullet).

        Initializes the process's attributes and runtime stack (here: a
        fresh generator), registers its deadline — ``t3 = now + time
        capacity`` in Fig. 6 — and places it in the ready state.
        """
        try:
            tcb = self.pos.tcb(process)
        except UnknownProcessError:
            return error(ReturnCode.INVALID_PARAM)
        if tcb.state is not ProcessState.DORMANT:
            return error(ReturnCode.NO_ACTION)
        factory = self._factories.get(process)
        if factory is None:
            return error(ReturnCode.INVALID_CONFIG)
        now = self.now()
        tcb.body_factory = factory
        tcb.instantiate_body(self._make_context(process))
        tcb.current_priority = tcb.model.priority
        tcb.started_at = now
        if tcb.model.periodic:
            tcb.next_release = now + tcb.model.period
        if tcb.model.is_sporadic:
            # A sporadic process waits for its first activation event;
            # its deadline only starts running at release (Sect. 3.3's
            # minimum-separation reading of T for sporadic processes).
            tcb.next_release = now  # earliest legal activation
            tcb.block(WaitCondition(reason=WaitReason.SPORADIC),
                      reason="awaiting sporadic activation")
            return ok()
        tcb.set_state(ProcessState.READY, reason="started",
                      ready_sequence=self.pos.next_ready_stamp())
        if tcb.has_deadline:
            self.pal.register_deadline(process, now + tcb.model.deadline)
        return ok()

    def delayed_start(self, process: str, delay: Ticks) -> ServiceResult[None]:
        """DELAYED_START: start *process* after *delay* ticks.

        The process waits until the delay expires (Sect. 5.2's second
        bullet); its first deadline is ``now + delay + time capacity``.
        """
        if delay < 0:
            return error(ReturnCode.INVALID_PARAM)
        try:
            tcb = self.pos.tcb(process)
        except UnknownProcessError:
            return error(ReturnCode.INVALID_PARAM)
        if tcb.model.is_sporadic:
            # A sporadic process is activated by events (release_sporadic),
            # not by the passage of time.
            return error(ReturnCode.INVALID_MODE)
        if tcb.state is not ProcessState.DORMANT:
            return error(ReturnCode.NO_ACTION)
        factory = self._factories.get(process)
        if factory is None:
            return error(ReturnCode.INVALID_CONFIG)
        now = self.now()
        tcb.body_factory = factory
        tcb.instantiate_body(self._make_context(process))
        tcb.current_priority = tcb.model.priority
        tcb.started_at = now
        if tcb.model.periodic:
            tcb.next_release = now + delay + tcb.model.period
        tcb.block(WaitCondition(reason=WaitReason.DELAY, wake_at=now + delay),
                  reason="delayed start")
        if tcb.has_deadline:
            self.pal.register_deadline(process,
                                       now + delay + tcb.model.deadline)
        return ok()

    def stop(self, process: str) -> ServiceResult[None]:
        """STOP: force *process* dormant and drop its deadline (Sect. 5.2)."""
        try:
            tcb = self.pos.tcb(process)
        except UnknownProcessError:
            return error(ReturnCode.INVALID_PARAM)
        if tcb.state is ProcessState.DORMANT:
            return error(ReturnCode.NO_ACTION)
        self.pal.unregister_deadline(process)
        self.pos.stop_process(tcb, reason="stopped via APEX")
        return ok()

    def stop_self(self) -> ServiceResult[None]:
        """STOP_SELF: the running process stops itself."""
        running = self.pos.running
        if running is None:
            return error(ReturnCode.NO_ACTION)
        return self.stop(running.name)

    def suspend(self, process: str) -> ServiceResult[None]:
        """SUSPEND: move another (ready) process to waiting-until-resumed."""
        try:
            tcb = self.pos.tcb(process)
        except UnknownProcessError:
            return error(ReturnCode.INVALID_PARAM)
        if tcb is self.pos.running:
            return self.suspend_self(INFINITE_TIME)
        if tcb.state is not ProcessState.READY:
            return error(ReturnCode.NO_ACTION)
        tcb.block(WaitCondition(reason=WaitReason.SUSPENDED),
                  reason="suspended")
        return ok()

    def suspend_self(self, timeout: Ticks = INFINITE_TIME
                     ) -> ServiceResult[None]:
        """SUSPEND_SELF: the running process suspends itself.

        With a finite *timeout* it resumes automatically on expiry.
        """
        running = self.pos.running
        if running is None:
            return error(ReturnCode.NO_ACTION)
        wake_at = None if is_infinite(timeout) else self.now() + timeout
        self.pos.block_running(
            WaitCondition(reason=WaitReason.SUSPENDED, wake_at=wake_at),
            reason="suspend_self")
        return ok()

    def resume(self, process: str) -> ServiceResult[None]:
        """RESUME: wake a suspended process."""
        try:
            tcb = self.pos.tcb(process)
        except UnknownProcessError:
            return error(ReturnCode.INVALID_PARAM)
        if (tcb.state is not ProcessState.WAITING or tcb.wait is None
                or tcb.wait.reason is not WaitReason.SUSPENDED):
            return error(ReturnCode.NO_ACTION)
        self.pos.wake(tcb, result=ok(), reason="resumed")
        return ok()

    def set_priority(self, process: str, priority: int) -> ServiceResult[None]:
        """SET_PRIORITY: change the process's current priority ``p'(t)``."""
        if priority < 0:
            return error(ReturnCode.INVALID_PARAM)
        try:
            tcb = self.pos.tcb(process)
        except UnknownProcessError:
            return error(ReturnCode.INVALID_PARAM)
        if tcb.state is ProcessState.DORMANT:
            return error(ReturnCode.INVALID_MODE)
        tcb.current_priority = priority
        # No eq. (13) transition happens here, so the POS scheduling memos
        # must be invalidated explicitly.
        self.pos.touch()
        return ok()

    def get_process_status(self, process: str) -> ServiceResult[ProcessStatus]:
        """GET_PROCESS_STATUS: the eq. (12) status vector."""
        try:
            tcb = self.pos.tcb(process)
        except UnknownProcessError:
            return error(ReturnCode.INVALID_PARAM)
        return ok(ProcessStatus(
            name=tcb.name, state=tcb.state,
            current_priority=tcb.current_priority,
            deadline_time=tcb.deadline_time,
            period=tcb.model.period, time_capacity=tcb.model.deadline,
            base_priority=tcb.model.priority))

    def lock_preemption(self) -> ServiceResult[int]:
        """LOCK_PREEMPTION: returns the new lock level."""
        return ok(self.pos.lock_preemption())

    def unlock_preemption(self) -> ServiceResult[int]:
        """UNLOCK_PREEMPTION: returns the new lock level."""
        try:
            return ok(self.pos.unlock_preemption())
        except Exception:
            return error(ReturnCode.NO_ACTION)

    # ================================================================ #
    # time management
    # ================================================================ #

    def get_time(self) -> ServiceResult[Ticks]:
        """GET_TIME."""
        return ok(self.now())

    def timed_wait(self, delay: Ticks) -> ServiceResult[None]:
        """TIMED_WAIT: block the caller for *delay* ticks."""
        if delay < 0:
            return error(ReturnCode.INVALID_PARAM)
        if self.pos.running is None:
            return error(ReturnCode.INVALID_MODE)
        if delay == 0:
            # Yield: go to ready behind equal-priority peers.
            running = self.pos.running
            self.pos.make_ready(running, reason="yield")
            return ok()
        self.pos.block_running(
            WaitCondition(reason=WaitReason.DELAY, wake_at=self.now() + delay),
            reason="timed_wait")
        return ok()

    def periodic_wait(self) -> ServiceResult[None]:
        """PERIODIC_WAIT: suspend until the next release point.

        Sect. 5.2's third bullet.  On release, the POS re-readies the
        process and the PAL registers the new job's deadline (Fig. 6).
        """
        running = self.pos.running
        if running is None:
            return error(ReturnCode.INVALID_MODE)
        if not running.model.periodic or running.next_release is None:
            return error(ReturnCode.INVALID_MODE)
        self.pos.block_running(
            WaitCondition(reason=WaitReason.PERIOD,
                          wake_at=running.next_release),
            reason="periodic_wait")
        return ok()

    def release_sporadic(self, process: str) -> ServiceResult[None]:
        """Activate a sporadic process (the model extension for future-work
        item (iii): aperiodic/sporadic processes and event overload).

        Enforces ``T`` as the lower bound between consecutive activations
        (Sect. 3.3): an activation arriving earlier than
        ``last release + T`` is *rejected* (``NO_ACTION``) and counted as
        an overload event, as is an activation arriving while the previous
        one is still being served (``NOT_AVAILABLE``).  On acceptance the
        job's deadline ``now + D`` is registered (eq. (24) applies to
        sporadic processes exactly as to periodic ones).
        """
        try:
            tcb = self.pos.tcb(process)
        except UnknownProcessError:
            return error(ReturnCode.INVALID_PARAM)
        if not tcb.model.is_sporadic:
            return error(ReturnCode.INVALID_MODE)
        if (tcb.state is not ProcessState.WAITING or tcb.wait is None
                or tcb.wait.reason is not WaitReason.SPORADIC):
            tcb.overload_rejections += 1
            return error(ReturnCode.NOT_AVAILABLE)
        now = self.now()
        if tcb.next_release is not None and now < tcb.next_release:
            tcb.overload_rejections += 1
            return error(ReturnCode.NO_ACTION)
        tcb.activation_count += 1
        tcb.next_release = now + tcb.model.period  # min separation
        self.pos.wake(tcb, result=ok(), reason="sporadic activation")
        if tcb.has_deadline:
            self.pal.register_deadline(process, now + tcb.model.deadline)
        return ok()

    def sporadic_wait(self) -> ServiceResult[None]:
        """The sporadic analogue of PERIODIC_WAIT: the running sporadic
        process completed its activation and awaits the next one."""
        running = self.pos.running
        if running is None or not running.model.is_sporadic:
            return error(ReturnCode.INVALID_MODE)
        self.pal.unregister_deadline(running.name)
        self.pos.block_running(
            WaitCondition(reason=WaitReason.SPORADIC),
            reason="awaiting sporadic activation")
        return ok()

    def replenish(self, budget: Ticks) -> ServiceResult[None]:
        """REPLENISH: postpone the caller's deadline to ``now + budget``.

        Fig. 6's ``t4`` path: the PAL moves the deadline entry, keeping
        the structure sorted.
        """
        if budget <= 0:
            return error(ReturnCode.INVALID_PARAM)
        running = self.pos.running
        if running is None:
            return error(ReturnCode.INVALID_MODE)
        if not running.has_deadline:
            return error(ReturnCode.NO_ACTION)
        self.pal.register_deadline(running.name, self.now() + budget)
        return ok()

    # ================================================================ #
    # partition management
    # ================================================================ #

    def get_partition_status(self) -> ServiceResult[PartitionStatus]:
        """GET_PARTITION_STATUS."""
        return ok(PartitionStatus(
            identifier=self.partition,
            operating_mode=self.partition_control.mode,
            start_condition=self.partition_control.start_condition,
            lock_level=1 if self.pos.preemption_locked else 0))

    def set_partition_mode(self, mode: PartitionMode) -> ServiceResult[None]:
        """SET_PARTITION_MODE — drives eq. (3)'s ``M_m(t)``.

        * ``NORMAL`` ends initialization (only from a start mode);
        * ``IDLE`` shuts the partition down;
        * ``COLD_START``/``WARM_START`` restart the partition.
        """
        current = self.partition_control.mode
        if mode is PartitionMode.NORMAL:
            if current is PartitionMode.NORMAL:
                return error(ReturnCode.NO_ACTION)
            if current is PartitionMode.IDLE:
                return error(ReturnCode.INVALID_MODE)
            self.partition_control.enter_normal()
            return ok()
        if mode is PartitionMode.IDLE:
            self.partition_control.shutdown()
            return ok()
        self.partition_control.request_restart(mode)
        return ok()

    # ================================================================ #
    # mode-based schedule services (ARINC 653 Part 2 — Sect. 4.2)
    # ================================================================ #

    def set_module_schedule(self, schedule_id: str) -> ServiceResult[None]:
        """SET_MODULE_SCHEDULE: request a switch at the next MTF boundary.

        "It must be invoked by an authorized partition" (Sect. 4.2) —
        non-system partitions get INVALID_MODE and the attempt is reported
        to Health Monitoring as an illegal request.
        """
        if self.module_control is None:
            return error(ReturnCode.NOT_AVAILABLE)
        if not self.system_partition:
            if self.health_monitor is not None:
                self.health_monitor.report(
                    ErrorCode.ILLEGAL_REQUEST, partition=self.partition,
                    process=(self.pos.running.name if self.pos.running
                             else None),
                    detail=f"unauthorized SET_MODULE_SCHEDULE({schedule_id})")
            return error(ReturnCode.INVALID_MODE)
        try:
            self.module_control.set_module_schedule(
                schedule_id, requested_by=self.partition)
        except Exception:
            return error(ReturnCode.INVALID_PARAM)
        return ok()

    def get_module_schedule_status(self) -> ServiceResult[ScheduleStatus]:
        """GET_MODULE_SCHEDULE_STATUS (Sect. 4.2's three fields)."""
        if self.module_control is None:
            return error(ReturnCode.NOT_AVAILABLE)
        return ok(self.module_control.schedule_status())

    def kick_watchdog(self) -> ServiceResult[None]:
        """KICK_WATCHDOG: heartbeat the partition's PMK-level watchdog.

        A paravirtualized liveness report (the deadline lives in the PMK,
        outside the partition's fault domain — a hung partition cannot
        fake its own heartbeat).  ``NOT_AVAILABLE`` when no watchdog
        service exists or none watches this partition; unlike
        SET_MODULE_SCHEDULE this needs no authorization — a partition may
        always attest its own liveness.
        """
        if self.module_control is None:
            return error(ReturnCode.NOT_AVAILABLE)
        if not self.module_control.kick_watchdog(self.partition):
            return error(ReturnCode.NOT_AVAILABLE)
        return ok()

    # ================================================================ #
    # intrapartition communication
    # ================================================================ #

    def _creation_allowed(self) -> bool:
        """Object creation is an initialization-time activity (ARINC 653)."""
        return self.partition_control.mode is not PartitionMode.NORMAL

    def create_buffer(self, name: str, *, max_messages: int,
                      max_message_size: int = 256,
                      discipline: QueuingDiscipline = QueuingDiscipline.FIFO
                      ) -> ServiceResult[Buffer]:
        """CREATE_BUFFER (``discipline`` orders blocked processes)."""
        if not self._creation_allowed():
            return error(ReturnCode.INVALID_MODE)
        if name in self._buffers:
            return error(ReturnCode.NO_ACTION)
        buffer = Buffer(name, self.pos, max_messages=max_messages,
                        max_message_size=max_message_size,
                        discipline=discipline,
                        clock=self.pal.now)
        self._buffers[name] = buffer
        return ok(buffer)

    def buffer(self, name: str) -> Buffer:
        """GET_BUFFER_ID analogue: look up a created buffer."""
        return self._buffers[name]

    def create_blackboard(self, name: str, *, max_message_size: int = 256
                          ) -> ServiceResult[Blackboard]:
        """CREATE_BLACKBOARD."""
        if not self._creation_allowed():
            return error(ReturnCode.INVALID_MODE)
        if name in self._blackboards:
            return error(ReturnCode.NO_ACTION)
        blackboard = Blackboard(name, self.pos,
                                max_message_size=max_message_size,
                                clock=self.pal.now)
        self._blackboards[name] = blackboard
        return ok(blackboard)

    def blackboard(self, name: str) -> Blackboard:
        """Look up a created blackboard."""
        return self._blackboards[name]

    def create_event(self, name: str) -> ServiceResult[Event]:
        """CREATE_EVENT."""
        if not self._creation_allowed():
            return error(ReturnCode.INVALID_MODE)
        if name in self._events:
            return error(ReturnCode.NO_ACTION)
        event = Event(name, self.pos, clock=self.pal.now)
        self._events[name] = event
        return ok(event)

    def event(self, name: str) -> Event:
        """Look up a created event."""
        return self._events[name]

    def create_semaphore(self, name: str, *, initial: int, maximum: int,
                         discipline: QueuingDiscipline = QueuingDiscipline.FIFO
                         ) -> ServiceResult[Semaphore]:
        """CREATE_SEMAPHORE (``discipline`` orders blocked processes)."""
        if not self._creation_allowed():
            return error(ReturnCode.INVALID_MODE)
        if name in self._semaphores:
            return error(ReturnCode.NO_ACTION)
        semaphore = Semaphore(name, self.pos, initial=initial, maximum=maximum,
                              discipline=discipline,
                              clock=self.pal.now)
        self._semaphores[name] = semaphore
        return ok(semaphore)

    def semaphore(self, name: str) -> Semaphore:
        """Look up a created semaphore."""
        return self._semaphores[name]

    # ================================================================ #
    # interpartition communication
    # ================================================================ #

    def create_sampling_port(self, port: str, direction: PortDirection
                             ) -> ServiceResult[SamplingPort]:
        """CREATE_SAMPLING_PORT."""
        if self.router is None:
            return error(ReturnCode.NOT_AVAILABLE)
        if not self._creation_allowed():
            return error(ReturnCode.INVALID_MODE)
        if port in self._sampling_ports:
            return error(ReturnCode.NO_ACTION)
        try:
            created = SamplingPort(PortSpec(self.partition, port), direction,
                                   self.router, clock=self.pal.now)
        except Exception:
            return error(ReturnCode.INVALID_CONFIG)
        self._sampling_ports[port] = created
        return ok(created)

    def sampling_port(self, port: str) -> SamplingPort:
        """Look up a created sampling port."""
        return self._sampling_ports[port]

    def create_queuing_port(self, port: str, direction: PortDirection
                            ) -> ServiceResult[QueuingPort]:
        """CREATE_QUEUING_PORT."""
        if self.router is None:
            return error(ReturnCode.NOT_AVAILABLE)
        if not self._creation_allowed():
            return error(ReturnCode.INVALID_MODE)
        if port in self._queuing_ports:
            return error(ReturnCode.NO_ACTION)
        try:
            created = QueuingPort(PortSpec(self.partition, port), direction,
                                  self.router, clock=self.pal.now,
                                  pos=self.pos)
        except Exception:
            return error(ReturnCode.INVALID_CONFIG)
        self._queuing_ports[port] = created
        return ok(created)

    def queuing_port(self, port: str) -> QueuingPort:
        """Look up a created queuing port."""
        return self._queuing_ports[port]

    # ================================================================ #
    # health monitoring services
    # ================================================================ #

    def report_application_message(self, text: str, *,
                                   process: Optional[str] = None
                                   ) -> ServiceResult[None]:
        """REPORT_APPLICATION_MESSAGE: free-form traced output."""
        if self._trace is not None:
            running = self.pos.running
            self._trace.record(ApplicationMessage(
                tick=self.now(), partition=self.partition,
                process=process or (running.name if running else None),
                text=text))
        return ok()

    def raise_application_error(self, detail: str = "") -> ServiceResult[None]:
        """RAISE_APPLICATION_ERROR: report a process-level error to HM."""
        if self.health_monitor is None:
            return error(ReturnCode.NOT_AVAILABLE)
        running = self.pos.running
        self.health_monitor.report(
            ErrorCode.APPLICATION_ERROR, partition=self.partition,
            process=running.name if running else None, detail=detail)
        return ok()

    def create_error_handler(self, handler: ApplicationHandler
                             ) -> ServiceResult[None]:
        """CREATE_ERROR_HANDLER: install the partition's error handler
        (Sect. 5: the programmer-defined recovery decision point)."""
        if self.health_monitor is None:
            return error(ReturnCode.NOT_AVAILABLE)
        if not self._creation_allowed():
            return error(ReturnCode.INVALID_MODE)
        self.health_monitor.install_handler(self.partition, handler)
        return ok()

    # ================================================================ #
    # snapshot / restore (simulator checkpointing)
    # ================================================================ #

    #: Resource-category tables, in a fixed order, for symbolic references.
    _RESOURCE_KINDS = ("buffers", "blackboards", "events", "semaphores",
                       "sampling_ports", "queuing_ports")

    def _resource_tables(self) -> Dict[str, Dict[str, Any]]:
        return {"buffers": self._buffers,
                "blackboards": self._blackboards,
                "events": self._events,
                "semaphores": self._semaphores,
                "sampling_ports": self._sampling_ports,
                "queuing_ports": self._queuing_ports}

    def resource_ref(self, resource: object) -> Any:
        """Symbolic ``(kind, name)`` reference for a live resource object.

        Used to encode :class:`~repro.pos.tcb.WaitCondition` resources in
        snapshots; inverted by :meth:`resolve_resource`.
        """
        for kind, table in self._resource_tables().items():
            for name, candidate in table.items():
                if candidate is resource:
                    return (kind, name)
        raise KeyError(
            f"partition {self.partition!r}: cannot encode wait resource "
            f"{resource!r} — not a registered APEX object")

    def resolve_resource(self, ref: Any) -> object:
        """Resolve a :meth:`resource_ref` reference against this APEX."""
        kind, name = ref
        return self._resource_tables()[kind][name]

    def rebuild_body(self, tcb: Tcb, resume_log: list) -> None:
        """Reconstruct *tcb*'s generator by replaying its resume log.

        The body is re-instantiated exactly as :meth:`start` would (fresh
        :class:`ProcessContext`, same forked rng stream) and fed the same
        send sequence the original generator consumed; the effects it
        yields along the way are discarded — their side effects already
        happened and live in the snapshotted state being overlaid.

        Replay rests on the body reading nothing but its context and the
        values it is sent.  A body that also reads host state outside the
        snapshot — the prototype's TTC ground-command queue, say — can
        take another branch on replay and fail or complete early; either
        is reported as a :class:`SimulationError` naming the process.
        """
        factory = self._factories.get(tcb.name, tcb.body_factory)
        if factory is None:
            raise SimulationError(
                f"partition {self.partition!r}: no body factory for "
                f"{tcb.name!r} during snapshot restore")
        tcb.body_factory = factory
        tcb.instantiate_body(self._make_context(tcb.name))
        generator = tcb.generator
        for value in resume_log:
            try:
                generator.send(value)
            except Exception as error:  # StopIteration included
                raise SimulationError(
                    f"process {self.partition}/{tcb.name}: body failed "
                    f"during snapshot replay ({error!r}) — it read state "
                    f"outside the snapshot (host input, shared objects), "
                    f"so it cannot be restored") from error

    SNAPSHOT_SCHEMA = {
        "rng": RAW,
        "buffers": Each(Buffer.SNAPSHOT_SCHEMA),
        "blackboards": Each(Blackboard.SNAPSHOT_SCHEMA),
        "events": Each(Event.SNAPSHOT_SCHEMA),
        "semaphores": Each(Semaphore.SNAPSHOT_SCHEMA),
        "sampling_ports": Each(SamplingPort.SNAPSHOT_SCHEMA),
        "queuing_ports": Each(QueuingPort.SNAPSHOT_SCHEMA),
    }

    def snapshot(self) -> Dict[str, Any]:
        """Capture resource/port contents and the rng stream as pure data."""
        state: Dict[str, Any] = {"rng": self._rng.state_dict()}
        for kind, table in self._resource_tables().items():
            state[kind] = {name: obj.snapshot()
                           for name, obj in sorted(table.items())}
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        """Overlay a :meth:`snapshot` capture onto this interface.

        Every captured object must already exist (recreated structurally
        by the partition-initialization replay); a missing one means the
        restore-side configuration diverged and raises ``KeyError``.
        """
        self._rng.load_state_dict(state["rng"])
        for kind, table in self._resource_tables().items():
            for name, obj_state in state[kind].items():
                table[name].restore(obj_state)

    # ================================================================ #
    # internals
    # ================================================================ #

    def _make_context(self, process: str) -> ProcessContext:
        return ProcessContext(apex=self, partition=self.partition,
                              process=process,
                              rng=self._rng.fork(process))
