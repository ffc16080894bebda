"""AIR Partition Management Kernel (PMK) — Sect. 2.1.

"The AIR Partition Management Kernel component, transversal to the whole
system, could be seen as a hypervisor, playing nevertheless a major role in
achieving dependability, by ensuring robust TSP."

:class:`Pmk` composes, from a validated
:class:`~repro.config.schema.SystemConfig`:

* **temporal partitioning** — the Partition Scheduler (Algorithm 1) and
  Partition Dispatcher (Algorithm 2), executed in the clock-tick ISR;
* **spatial partitioning** — the automatic memory layout, compiled MMU
  contexts, and the fault-to-Health-Monitor routing (Fig. 3);
* **interpartition communication** — the channel router (local
  memory-to-memory copies and simulated remote links);
* one **containment domain per partition** — POS + PAL + APEX +
  :class:`~repro.core.runtime.PartitionRuntime`;
* the **Health Monitor** with the PMK as recovery-action executor.

It also implements the module-level service surface used by APEX
(:class:`~repro.apex.interface.ModuleControl`: schedule switching per
Sect. 4.2) and exposes :meth:`clock_tick`, the ISR body the simulator binds
to the clock interrupt vector.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..apex.interface import ApexInterface, ModuleControl
from ..apex.types import ScheduleStatus
from ..comm.router import CommRouter
from ..config.schema import SystemConfig
from ..exceptions import SimulationError, SpatialViolationError
from ..fdir.supervisor import FdirSupervisor
from ..fdir.watchdog import WatchdogService
from ..hm.monitor import ActionExecutor, HealthMonitor
from ..kernel.context import ContextBank
from ..kernel.rng import SeededRng
from ..kernel.snapshot_schema import COUNTER, COUNTERS, RAW, Each, OneOf
from ..kernel.time import TimeSource
from ..kernel.trace import ClockTamperTrapped, MemoryFault, Trace
from ..pos.base import PartitionOs
from ..pos.generic import GenericPos
from ..pos.pal import PosAdaptationLayer
from ..pos.rtems import RtemsPos
from ..pos.tcb import Tcb
from ..spatial.descriptors import (
    MemoryDescriptor,
    MemorySection,
    ModuleMemoryLayout,
    PartitionMemoryMap,
)
from ..spatial.memory import MemoryBus, PhysicalMemory
from ..spatial.mmu import Mmu
from ..types import (
    AccessKind,
    ErrorCode,
    PartitionMode,
    PrivilegeLevel,
    ScheduleChangeAction,
    StartCondition,
    Ticks,
)
from .dispatcher import PartitionDispatcher
from .runtime import PartitionRuntime
from .scheduler import PartitionScheduler

__all__ = ["Pmk"]

#: Alignment of per-partition memory areas in the automatic layout.
_AREA_ALIGN = 64 * 1024


def _keep_live_generator(tcb, resume_log) -> None:
    """``rebuild_body`` stand-in for :meth:`Pmk.overlay`: keep the TCB's
    live generator instead of replaying the resume log."""


class Pmk(ModuleControl, ActionExecutor):
    """The Partition Management Kernel instance for one module."""

    def __init__(self, config: SystemConfig, *, time: TimeSource,
                 trace: Trace) -> None:
        config.ensure_valid()
        self.config = config
        self.time = time
        self.trace = trace
        self.stopped = False
        self.module_restarts = 0
        self._rng = SeededRng(config.seed)
        # One shared clock callable for every component (HM, router, PALs,
        # runtimes): a single bound method instead of a closure per
        # consumer — these sit on the per-tick hot path.
        self._clock = time.read

        # --- spatial partitioning -------------------------------------- #
        self.layout = ModuleMemoryLayout()
        self.mmu = Mmu(fault_handler=self._on_memory_fault)
        area_base = _AREA_ALIGN  # area 0 is PMK-reserved
        for partition in config.model.partitions:
            runtime_config = config.runtime_for(partition.name)
            memory_map = self._build_memory_map(
                partition.name, area_base, runtime_config.memory_size)
            self.layout.add_partition(memory_map)
            self.mmu.add_context(memory_map)
            area_base += self._aligned(runtime_config.memory_size)
        self.memory = PhysicalMemory(area_base)
        self.bus = MemoryBus(self.memory, self.mmu)

        # --- health monitoring ------------------------------------------ #
        self.health_monitor = HealthMonitor(
            config.hm_tables, self, clock=self._clock, trace=trace)

        # --- interpartition communication -------------------------------- #
        self.router = CommRouter(clock=self._clock, trace=trace)
        for channel in config.channels:
            self.router.add_channel(channel)

        # --- temporal partitioning --------------------------------------- #
        self.scheduler = PartitionScheduler(config.model, trace)
        self.contexts = ContextBank()
        self.dispatcher = PartitionDispatcher(
            self.contexts, self.scheduler, mmu=self.mmu,
            apply_change_action=self._apply_change_action, trace=trace,
            change_action_policy=config.change_action_policy)

        # --- per-partition containment domains --------------------------- #
        self.runtimes: Dict[str, PartitionRuntime] = {}
        for partition in config.model.partitions:
            self.runtimes[partition.name] = self._build_partition(partition.name)

        # --- FDIR supervision (escalation, parking, watchdogs) ----------- #
        self.watchdog: Optional[WatchdogService] = None
        self.fdir: Optional[FdirSupervisor] = None
        if config.fdir is not None:
            if config.fdir.watchdogs:
                self.watchdog = WatchdogService(
                    config.fdir.watchdogs,
                    on_expired=self._on_watchdog_expired, trace=trace)
            self.fdir = FdirSupervisor(
                config.fdir, module=self, watchdog=self.watchdog,
                trace=trace)
            self.health_monitor.supervisor = self.fdir

        self.ticks_executed = 0
        self.idle_ticks = 0
        #: Ticks each partition held the processor (window occupancy).
        self.partition_ticks: Dict[str, int] = {
            name: 0 for name in config.model.partition_names}
        # Per-partition (data, stack) probe regions for memory emulation.
        self._memory_probes: Dict[str, Tuple[MemoryDescriptor,
                                             MemoryDescriptor]] = {}
        if config.memory_emulation:
            for name in config.model.partition_names:
                memory_map = self.layout.map_of(name)
                data = memory_map.section(MemorySection.DATA)[0]
                stack = memory_map.section(MemorySection.STACK)[0]
                self._memory_probes[name] = (data, stack)

    # -------------------------------------------------------------- #
    # construction helpers
    # -------------------------------------------------------------- #

    @staticmethod
    def _aligned(size: int) -> int:
        return ((size + _AREA_ALIGN - 1) // _AREA_ALIGN) * _AREA_ALIGN

    def _build_memory_map(self, partition: str, base: int,
                          size: int) -> PartitionMemoryMap:
        """Automatic spatial layout: code (R+X), data (RW), stack (RW) at
        application level, plus a POS-level control block area (Fig. 3's
        per-level descriptors)."""
        code_size = max(size // 4, 4096)
        data_size = max(size // 2, 4096)
        stack_size = max(size // 8, 4096)
        pos_size = max(size - code_size - data_size - stack_size, 4096)
        cursor = base
        descriptors = []
        for section, section_size, level in (
                (MemorySection.CODE, code_size, PrivilegeLevel.APPLICATION),
                (MemorySection.DATA, data_size, PrivilegeLevel.APPLICATION),
                (MemorySection.STACK, stack_size, PrivilegeLevel.APPLICATION),
                (MemorySection.DATA, pos_size, PrivilegeLevel.POS)):
            descriptors.append(MemoryDescriptor(
                partition=partition, level=level, section=section,
                base=cursor, size=section_size))
            cursor += section_size
        return PartitionMemoryMap(partition, descriptors)

    def _build_partition(self, name: str) -> PartitionRuntime:
        partition = self.config.model.partition(name)
        runtime_config = self.config.runtime_for(name)
        pos: PartitionOs
        if runtime_config.pos_kind == "generic":
            generic = GenericPos(partition, quantum=runtime_config.quantum)
            generic.attach_guest_clock(self.time.guest_view(name))
            pos = generic
        else:
            pos = RtemsPos(partition)
        pal = PosAdaptationLayer(
            pos, clock=self._clock, trace=self.trace,
            store_kind=self.config.store_kind_for(name),
            on_violation=lambda violation, p=name: self.health_monitor.report(
                ErrorCode.DEADLINE_MISSED, partition=p,
                process=violation.process,
                detail=f"deadline {violation.deadline_time} missed, detected "
                       f"at {violation.detected_at}"),
            on_fault=lambda tcb, exc, p=name: self._on_process_fault(
                p, tcb, exc))
        runtime = PartitionRuntime(pos=pos, pal=pal, config=runtime_config,
                                   clock=self._clock,
                                   trace=self.trace)
        apex = ApexInterface(
            pal=pal, partition_control=runtime, module_control=self,
            health_monitor=self.health_monitor, router=self.router,
            trace=self.trace, system_partition=partition.system_partition,
            rng=self._rng.fork(name))
        runtime.attach_apex(apex)
        self.contexts.register(name)
        return runtime

    # -------------------------------------------------------------- #
    # accessors
    # -------------------------------------------------------------- #

    def runtime(self, partition: str) -> PartitionRuntime:
        """The runtime of *partition*."""
        try:
            return self.runtimes[partition]
        except KeyError:
            raise SimulationError(
                f"no runtime for partition {partition!r}") from None

    def apex(self, partition: str) -> ApexInterface:
        """The APEX instance of *partition*."""
        apex = self.runtime(partition).apex
        assert apex is not None
        return apex

    @property
    def active_partition(self) -> Optional[str]:
        """Partition currently holding the processor."""
        return self.dispatcher.active_partition

    def occupancy(self) -> Dict[str, float]:
        """Fraction of executed ticks each partition held the processor.

        The run-time counterpart of the PST's allocation — temporal
        isolation tests assert these fractions match the table exactly.
        """
        total = max(self.ticks_executed, 1)
        return {name: ticks / total
                for name, ticks in self.partition_ticks.items()}

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    #: ``module_restarts`` is a counter kept raw: a module restart is
    #: never steady.  A partition's POS capture is the base POS's or the
    #: generic POS's, told apart by its keys.
    SNAPSHOT_SCHEMA = {
        "stopped": RAW,
        "module_restarts": RAW,
        "rng": RAW,
        "ticks_executed": COUNTER,
        "idle_ticks": COUNTER,
        "partition_ticks": COUNTERS,
        "scheduler": PartitionScheduler.SNAPSHOT_SCHEMA,
        "contexts": ContextBank.SNAPSHOT_SCHEMA,
        "dispatcher": PartitionDispatcher.SNAPSHOT_SCHEMA,
        "mmu": Mmu.SNAPSHOT_SCHEMA,
        "router": CommRouter.SNAPSHOT_SCHEMA,
        "health_monitor": HealthMonitor.SNAPSHOT_SCHEMA,
        "fdir": FdirSupervisor.SNAPSHOT_SCHEMA,
        "partitions": Each({
            "runtime": PartitionRuntime.SNAPSHOT_SCHEMA,
            "pal": PosAdaptationLayer.SNAPSHOT_SCHEMA,
            "pos": OneOf(PartitionOs.SNAPSHOT_SCHEMA,
                         GenericPos.SNAPSHOT_SCHEMA),
            "apex": ApexInterface.SNAPSHOT_SCHEMA,
        }),
    }

    def snapshot(self) -> dict:
        """Capture the full deterministic PMK state as pure data.

        Every sub-component contributes its own :meth:`snapshot`; the
        result contains no live objects (generators are encoded as resume
        logs, wait resources and delivery closures as symbolic
        references), so it pickles and survives process boundaries.
        """
        partitions = {}
        for name, runtime in self.runtimes.items():
            apex = runtime.apex
            assert apex is not None
            partitions[name] = {
                "runtime": runtime.snapshot(),
                "pal": runtime.pal.snapshot(),
                "pos": runtime.pos.snapshot(apex.resource_ref),
                "apex": apex.snapshot(),
            }
        return {
            "stopped": self.stopped,
            "module_restarts": self.module_restarts,
            "rng": self._rng.state_dict(),
            "ticks_executed": self.ticks_executed,
            "idle_ticks": self.idle_ticks,
            "partition_ticks": dict(self.partition_ticks),
            "scheduler": self.scheduler.snapshot(),
            "contexts": self.contexts.snapshot(),
            "dispatcher": self.dispatcher.snapshot(),
            "mmu": self.mmu.snapshot(),
            "router": self.router.snapshot(),
            "health_monitor": self.health_monitor.snapshot(),
            "fdir": self.fdir.snapshot() if self.fdir is not None else None,
            "partitions": partitions,
        }

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture onto this freshly built PMK.

        Restore protocol (order matters):

        1. replay each previously-initialized partition's initialization
           sequence — rebuilds *structural* wiring (registered bodies,
           error handlers, resources, ports, router handlers) exactly as
           the original run did;
        2. per partition, rebuild process generators by replaying their
           resume logs, then overlay POS/TCB, runtime, PAL and APEX state
           (the overlays win over any state side effects of steps 1-2);
        3. overlay module-level components wholesale.

        The caller (:class:`~repro.kernel.snapshot.SimulatorSnapshot`)
        overlays the trace and time source afterwards, erasing the trace
        events steps 1-2 emitted.  Steps 2-3 are :meth:`overlay`'s
        rollback form.
        """
        for name, partition_state in state["partitions"].items():
            if partition_state["runtime"]["init_count"] > 0:
                self.runtime(name).replay_initialization()
        self.overlay(state, rebuild_bodies=True)

    def overlay(self, state: dict, *, rebuild_bodies: bool = False) -> None:
        """Overlay a :meth:`snapshot`-shaped *state* onto this *live* PMK.

        The cycle cache's resynchronization path (DESIGN decision 13):
        unlike :meth:`restore` this never replays initialization sequences
        (the PMK is mid-run, structural wiring is already live) and, by
        default, keeps the partitions' live process generators instead of
        rebuilding them from resume logs — the caller asserts the
        generators already correspond to *state* (the cache verified every
        generator yield it replayed).  ``rebuild_bodies=True`` is the
        rollback form: generators are discarded and rebuilt by resume-log
        replay exactly as :meth:`restore` would.
        """
        self.stopped = state["stopped"]
        self.module_restarts = state["module_restarts"]
        self._rng.load_state_dict(state["rng"])
        self.ticks_executed = state["ticks_executed"]
        self.idle_ticks = state["idle_ticks"]
        self.partition_ticks = dict(state["partition_ticks"])
        for name, partition_state in state["partitions"].items():
            runtime = self.runtime(name)
            apex = runtime.apex
            assert apex is not None
            rebuild_body = (apex.rebuild_body if rebuild_bodies
                            else _keep_live_generator)
            runtime.pos.restore(partition_state["pos"],
                                resolve_resource=apex.resolve_resource,
                                rebuild_body=rebuild_body)
            runtime.restore(partition_state["runtime"])
            runtime.pal.restore(partition_state["pal"])
            apex.restore(partition_state["apex"])
        self.scheduler.restore(state["scheduler"])
        self.contexts.restore_state(state["contexts"])
        self.dispatcher.restore(state["dispatcher"])
        self.mmu.restore(state["mmu"])
        self.router.restore(state["router"])
        self.health_monitor.restore(state["health_monitor"])
        if state["fdir"] is not None and self.fdir is not None:
            self.fdir.restore(state["fdir"])

    # -------------------------------------------------------------- #
    # the clock-tick ISR body
    # -------------------------------------------------------------- #

    def clock_tick(self) -> None:
        """One system clock tick (installed on the clock interrupt vector).

        Sequence per tick (Figs. 2, 4, 5, 7):

        1. AIR Partition Scheduler (Algorithm 1);
        2. at preemption points, AIR Partition Dispatcher (Algorithm 2) —
           yielding ``elapsedTicks``; otherwise ``elapsedTicks = 1``;
        3. the active partition's PAL surrogate tick announcement
           (Fig. 7): native POS timer bookkeeping, then Algorithm 3
           deadline verification;
        4. one tick of process execution in the active partition
           (the second scheduling level, eq. (14));
        5. pump of in-flight remote interpartition messages.
        """
        if self.stopped:
            return
        now = self.time.now
        self.ticks_executed += 1
        if self.fdir is not None:
            self.fdir.poll(now)
        elapsed: Ticks = 1
        if self.scheduler.tick(now):
            active = self.dispatcher.active_partition
            running = (self.runtimes[active].pos.running
                       if active is not None else None)
            outcome = self.dispatcher.run(
                now, running_process=running.name if running else None)
            elapsed = outcome.elapsed_ticks
        active = self.dispatcher.active_partition
        if active is None:
            self.idle_ticks += 1
        else:
            self.partition_ticks[active] += 1
            runtime = self.runtimes[active]
            runtime.pal.announce_ticks(elapsed)
            if not self.stopped:
                executed = runtime.execute_tick(now)
                if executed is not None and self._memory_probes:
                    self._emulate_memory_traffic(active, now)
        self.router.pump(now)

    # -------------------------------------------------------------- #
    # event-driven execution core
    # -------------------------------------------------------------- #

    def next_event_tick(self, now: Ticks) -> Ticks:
        """First tick ≥ *now* that must execute through the full clock ISR.

        The module-wide event horizon: the minimum of every layer's
        ``next_event_tick`` —

        * the Partition Scheduler's next preemption point (Algorithm 1's
          next table-entry match; also covers pending schedule switches,
          which only take effect at MTF boundaries);
        * the router's next in-flight remote delivery;
        * the active partition's horizon (POS timers, policy preemption,
          Algorithm 3 deadline expiry, remaining ``Compute`` budget,
          pending restarts/initialization).

        Every tick strictly before the returned one is provably uniform:
        its whole ISR reduces to counter updates and (at most) one
        ``Compute`` decrement, which :meth:`execute_span` applies as a
        batch.  Returning *now* means the current tick must be stepped.
        """
        if self.stopped:
            return now
        # The active partition most often pins the horizon to *now* (an
        # exhausted compute budget, a dispatchable ready process): ask it
        # first and skip the scheduler/router horizons when it does.
        partition_event = None
        active = self.dispatcher.active_partition
        if active is not None:
            partition_event = self.runtimes[active].next_event_tick(now)
            if partition_event is not None and partition_event <= now:
                return now
        event = self.scheduler.next_preemption_tick(now)
        delivery = self.router.next_delivery_tick()
        if delivery is not None and delivery < event:
            event = delivery
        if partition_event is not None and partition_event < event:
            event = partition_event
        if self.fdir is not None:
            fdir_event = self.fdir.next_event_tick(now)
            if fdir_event is not None and fdir_event < event:
                event = fdir_event
        return event

    def execute_span(self, now: Ticks, ticks: Ticks) -> None:
        """Batch-execute *ticks* uniform clock ticks starting at *now*.

        The caller guarantees ``now + ticks <= next_event_tick(now)``.
        All per-tick effects of :meth:`clock_tick` over the span are
        applied at once: scheduler fast-path accounting, occupancy
        counters, the active partition's announcement bookkeeping and the
        running process's ``Compute`` budget.  Memory-emulation probes are
        inherently per-tick (addresses walk with the clock), so they are
        batch-sampled in a tight loop — still far cheaper than full ISRs.
        """
        self.ticks_executed += ticks
        self.scheduler.batch_account(ticks)
        active = self.dispatcher.active_partition
        if active is None:
            self.idle_ticks += ticks
            return
        self.partition_ticks[active] += ticks
        executed = self.runtimes[active].execute_span(ticks)
        if executed is not None and self._memory_probes:
            for tick in range(now, now + ticks):
                self._emulate_memory_traffic(active, tick)

    def _emulate_memory_traffic(self, partition: str, now: Ticks) -> None:
        """One data read + one stack write through the MMU (Fig. 3's
        protection path exercised on every executed tick).

        Addresses walk the partition's own regions, so a fault here would
        indicate a broken layout or MMU — exactly what the emulation is
        meant to surface.
        """
        data, stack = self._memory_probes[partition]
        self.bus.read(data.base + (now % max(data.size - 4, 1)), 4,
                      level=PrivilegeLevel.APPLICATION, partition=partition)
        self.bus.write(stack.base + (now % max(stack.size - 4, 1)),
                       b"\x00\x00\x00\x00",
                       level=PrivilegeLevel.APPLICATION, partition=partition)

    # -------------------------------------------------------------- #
    # ModuleControl (APEX mode-based schedule services — Sect. 4.2)
    # -------------------------------------------------------------- #

    def set_module_schedule(self, schedule_id: str, *,
                            requested_by: str) -> None:
        """Store the next-schedule identifier (effective at MTF end)."""
        self.scheduler.request_switch(schedule_id, now=self.time.now,
                                      requested_by=requested_by)

    def schedule_status(self) -> ScheduleStatus:
        """Current schedule status (ARINC 653 Part 2 fields)."""
        return ScheduleStatus(
            last_switch_tick=self.scheduler.last_schedule_switch,
            current_schedule=self.scheduler.current_schedule,
            next_schedule=self.scheduler.next_schedule)

    def kick_watchdog(self, partition: str) -> bool:
        """Record a heartbeat for *partition* (APEX KICK_WATCHDOG).

        Returns False when no watchdog service is configured, or none
        watches this partition.
        """
        if self.watchdog is None:
            return False
        return self.watchdog.kick(partition, self.time.now)

    # -------------------------------------------------------------- #
    # ActionExecutor (Health Monitor recovery actions — Sect. 5)
    # -------------------------------------------------------------- #

    def stop_process(self, partition: str, process: str) -> None:
        """Stop the faulty process."""
        self.apex(partition).stop(process)

    def restart_process(self, partition: str, process: str) -> None:
        """Stop and reinitialize the process from its entry address."""
        apex = self.apex(partition)
        apex.stop(process)
        apex.start(process)

    def restart_partition(self, partition: str) -> None:
        """Warm-restart the partition (a Health Monitor recovery action)."""
        if self.watchdog is not None:
            # A deliberately restarted partition is not "hung": its stale
            # heartbeat deadline is dropped; the restarted application
            # re-arms the watchdog with its first kick.
            self.watchdog.disarm(partition)
        self.runtime(partition).request_restart(
            PartitionMode.WARM_START,
            condition=StartCondition.HM_PARTITION_RESTART)

    def stop_partition(self, partition: str) -> None:
        """Shut the partition down (idle)."""
        if self.watchdog is not None:
            self.watchdog.disarm(partition)
        self.runtime(partition).shutdown()

    def module_stop(self) -> None:
        """System-level halt (Sect. 2.4)."""
        self.stopped = True

    def module_restart(self) -> None:
        """System-level reinitialization: every partition cold-starts."""
        self.module_restarts += 1
        for runtime in self.runtimes.values():
            runtime.request_restart(
                PartitionMode.COLD_START,
                condition=StartCondition.HM_MODULE_RESTART)

    # -------------------------------------------------------------- #
    # fault routing
    # -------------------------------------------------------------- #

    def _apply_change_action(self, partition: str,
                             action: ScheduleChangeAction) -> None:
        from ..kernel.trace import ScheduleChangeActionApplied

        self.trace.record(ScheduleChangeActionApplied(
            tick=self.time.now, partition=partition, action=action.value,
            schedule=self.scheduler.current_schedule))
        self.runtime(partition).apply_change_action(action)

    def _on_memory_fault(self, partition: str, address: int,
                         access: AccessKind, detail: str) -> None:
        self.trace.record(MemoryFault(
            tick=self.time.now, partition=partition, address=address,
            access=access.value, detail=detail))
        if partition in self.runtimes:
            self.health_monitor.report(
                ErrorCode.MEMORY_VIOLATION, partition=partition,
                detail=f"{access.value}@{address:#x}: {detail}")

    def _on_watchdog_expired(self, partition: str, last_kick: Ticks,
                             now: Ticks) -> None:
        self.health_monitor.report(
            ErrorCode.WATCHDOG_EXPIRED, partition=partition,
            detail=f"no heartbeat since tick {last_kick}")

    def _on_process_fault(self, partition: str, tcb: Tcb,
                          exc: BaseException) -> None:
        if isinstance(exc, SpatialViolationError):
            # Already routed by the MMU fault handler.
            return
        from ..exceptions import ClockTamperingError

        if isinstance(exc, ClockTamperingError):
            self.trace.record(ClockTamperTrapped(
                tick=self.time.now, partition=partition,
                operation=exc.operation))
            self.health_monitor.report(
                ErrorCode.CLOCK_TAMPERING, partition=partition,
                process=tcb.name, detail=exc.operation)
            return
        self.health_monitor.report(
            ErrorCode.APPLICATION_ERROR, partition=partition,
            process=tcb.name, detail=repr(exc))
