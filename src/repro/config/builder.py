"""Fluent builder for AIR system configurations.

The paper's integration process defines partitions, schedules, channels and
HM policy in configuration files; this builder is the programmatic
equivalent used by the examples, tests and benchmarks.  It assembles a
:class:`~repro.config.schema.SystemConfig` incrementally and validates the
result on :meth:`SystemBuilder.build`.

Example::

    builder = SystemBuilder()
    p1 = builder.partition("P1").process("ctrl", period=650, deadline=650,
                                         priority=1, wcet=80)
    p1.body("ctrl", control_loop)
    builder.schedule("ops", mtf=1300) \\
        .require("P1", cycle=650, duration=100) \\
        .window("P1", offset=0, duration=100) \\
        .window("P1", offset=650, duration=100)
    system = builder.build()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..comm.messages import ChannelConfig, PortSpec, TransferMode
from ..core.model import (
    Partition,
    PartitionRequirement,
    ProcessModel,
    ScheduleTable,
    SystemModel,
    TimeWindow,
)
from ..exceptions import ConfigurationError
from ..fdir.policy import FdirConfig
from ..hm.monitor import ApplicationHandler
from ..hm.tables import HmTables
from ..pos.tcb import BodyFactory
from ..types import (
    INFINITE_TIME,
    PartitionMode,
    ScheduleChangeAction,
    Ticks,
)
from .schema import PartitionRuntimeConfig, SystemConfig

__all__ = ["PartitionBuilder", "ScheduleBuilder", "SystemBuilder"]


class PartitionBuilder:
    """Accumulates one partition's model and runtime wiring."""

    def __init__(self, owner: "SystemBuilder", name: str) -> None:
        self._owner = owner
        self.name = name
        self._processes: List[ProcessModel] = []
        self._system = False
        self._initial_mode = PartitionMode.COLD_START
        self._criticality = "C"
        self.runtime = PartitionRuntimeConfig()

    def system_partition(self, value: bool = True) -> "PartitionBuilder":
        """Mark as an ARINC 653 system partition (schedule-switch authority)."""
        self._system = value
        return self

    def criticality(self, label: str) -> "PartitionBuilder":
        """Set the integration criticality label."""
        self._criticality = label
        return self

    def pos(self, kind: str, *, quantum: Ticks = 5) -> "PartitionBuilder":
        """Choose the POS flavour (``"rtems"`` or ``"generic"``)."""
        self.runtime = PartitionRuntimeConfig(
            pos_kind=kind, quantum=quantum, bodies=self.runtime.bodies,
            auto_start=self.runtime.auto_start,
            init_hook=self.runtime.init_hook,
            error_handler=self.runtime.error_handler,
            memory_size=self.runtime.memory_size,
            deadline_store_kind=self.runtime.deadline_store_kind)
        return self

    def process(self, name: str, *, period: Ticks = INFINITE_TIME,
                deadline: Ticks = INFINITE_TIME, priority: int = 0,
                wcet: Ticks = INFINITE_TIME,
                periodic: Optional[bool] = None) -> "PartitionBuilder":
        """Declare a process (``tau_m,q`` — eq. (11))."""
        if periodic is None:
            periodic = period != INFINITE_TIME
        self._processes.append(ProcessModel(
            name=name, period=period, deadline=deadline, priority=priority,
            wcet=wcet, periodic=periodic))
        return self

    def body(self, process: str, factory: BodyFactory) -> "PartitionBuilder":
        """Bind *factory* as the body of *process*."""
        self.runtime.bodies[process] = factory
        return self

    def auto_start(self, *processes: str) -> "PartitionBuilder":
        """Restrict the default init sequence to these processes."""
        self.runtime.auto_start = processes
        return self

    def init_hook(self, hook) -> "PartitionBuilder":
        """Replace the default initialization sequence."""
        self.runtime.init_hook = hook
        return self

    def error_handler(self, handler: ApplicationHandler) -> "PartitionBuilder":
        """Install an application error handler at initialization."""
        self.runtime.error_handler = handler
        return self

    def memory(self, size: int) -> "PartitionBuilder":
        """Bytes granted by the automatic spatial layout."""
        self.runtime.memory_size = size
        return self

    def deadline_store(self, kind: str) -> "PartitionBuilder":
        """Per-partition deadline-structure override (E6 ablation)."""
        self.runtime.deadline_store_kind = kind
        return self

    def done(self) -> "SystemBuilder":
        """Return to the system builder."""
        return self._owner

    def _build(self) -> Partition:
        return Partition(name=self.name, processes=tuple(self._processes),
                         system_partition=self._system,
                         initial_mode=self._initial_mode,
                         criticality=self._criticality)


class ScheduleBuilder:
    """Accumulates one PST (``chi_i``)."""

    def __init__(self, owner: "SystemBuilder", schedule_id: str,
                 mtf: Ticks) -> None:
        self._owner = owner
        self.schedule_id = schedule_id
        self.mtf = mtf
        self._requirements: List[PartitionRequirement] = []
        self._windows: List[TimeWindow] = []
        self._actions: Dict[str, ScheduleChangeAction] = {}

    def require(self, partition: str, *, cycle: Ticks,
                duration: Ticks) -> "ScheduleBuilder":
        """Add ``Q_i,m = <P, eta, d>`` (eq. (19))."""
        self._requirements.append(PartitionRequirement(
            partition=partition, cycle=cycle, duration=duration))
        return self

    def window(self, partition: str, *, offset: Ticks,
               duration: Ticks) -> "ScheduleBuilder":
        """Add ``omega_i,j = <P, O, c>`` (eq. (20))."""
        self._windows.append(TimeWindow(partition=partition, offset=offset,
                                        duration=duration))
        return self

    def on_switch(self, partition: str,
                  action: ScheduleChangeAction) -> "ScheduleBuilder":
        """Set the partition's ScheduleChangeAction for this schedule."""
        self._actions[partition] = action
        return self

    def done(self) -> "SystemBuilder":
        """Return to the system builder."""
        return self._owner

    def _build(self) -> ScheduleTable:
        return ScheduleTable(schedule_id=self.schedule_id,
                             major_time_frame=self.mtf,
                             requirements=tuple(self._requirements),
                             windows=tuple(self._windows),
                             change_actions=dict(self._actions))


class SystemBuilder:
    """Top-level fluent configuration builder."""

    def __init__(self) -> None:
        self._partitions: Dict[str, PartitionBuilder] = {}
        self._schedules: Dict[str, ScheduleBuilder] = {}
        self._channels: List[ChannelConfig] = []
        self._initial_schedule: Optional[str] = None
        self._hm_tables = HmTables()
        self._deadline_store = "list"
        self._change_action_policy = "first_dispatch"
        self._seed = 0
        self._memory_emulation = False
        self._fdir: Optional[FdirConfig] = None

    def partition(self, name: str) -> PartitionBuilder:
        """Get or create the builder for partition *name*."""
        if name not in self._partitions:
            self._partitions[name] = PartitionBuilder(self, name)
        return self._partitions[name]

    def schedule(self, schedule_id: str, *, mtf: Ticks) -> ScheduleBuilder:
        """Get or create the builder for schedule *schedule_id*."""
        if schedule_id not in self._schedules:
            self._schedules[schedule_id] = ScheduleBuilder(self, schedule_id,
                                                           mtf)
            if self._initial_schedule is None:
                self._initial_schedule = schedule_id
        return self._schedules[schedule_id]

    def initial_schedule(self, schedule_id: str) -> "SystemBuilder":
        """Name the PST in force at module start (default: first declared)."""
        self._initial_schedule = schedule_id
        return self

    def sampling_channel(self, name: str, *, source: Tuple[str, str],
                         destinations: Tuple[Tuple[str, str], ...],
                         max_message_size: int = 256,
                         refresh_period: Ticks = 0,
                         latency: Ticks = 0) -> "SystemBuilder":
        """Add a sampling channel (``(partition, port)`` endpoint pairs)."""
        self._channels.append(ChannelConfig(
            name=name, mode=TransferMode.SAMPLING,
            source=PortSpec(*source),
            destinations=tuple(PortSpec(*d) for d in destinations),
            max_message_size=max_message_size,
            refresh_period=refresh_period, latency=latency))
        return self

    def queuing_channel(self, name: str, *, source: Tuple[str, str],
                        destination: Tuple[str, str],
                        max_message_size: int = 256,
                        max_nb_messages: int = 16,
                        latency: Ticks = 0) -> "SystemBuilder":
        """Add a queuing channel."""
        self._channels.append(ChannelConfig(
            name=name, mode=TransferMode.QUEUING,
            source=PortSpec(*source),
            destinations=(PortSpec(*destination),),
            max_message_size=max_message_size,
            max_nb_messages=max_nb_messages, latency=latency))
        return self

    def hm_tables(self, tables: HmTables) -> "SystemBuilder":
        """Replace the Health Monitoring tables."""
        self._hm_tables = tables
        return self

    def deadline_store(self, kind: str) -> "SystemBuilder":
        """Module-wide deadline structure (``"list"``/``"tree"``)."""
        self._deadline_store = kind
        return self

    def change_action_policy(self, policy: str) -> "SystemBuilder":
        """``"first_dispatch"`` (paper) or ``"mtf_start"`` (ablation)."""
        self._change_action_policy = policy
        return self

    def seed(self, seed: int) -> "SystemBuilder":
        """Seed for all derived randomness."""
        self._seed = seed
        return self

    def memory_emulation(self, enabled: bool = True) -> "SystemBuilder":
        """Run every executed tick through the simulated MMU (see
        :attr:`~repro.config.schema.SystemConfig.memory_emulation`)."""
        self._memory_emulation = enabled
        return self

    def fdir(self, config: FdirConfig) -> "SystemBuilder":
        """Enable FDIR supervision (escalation, parking, watchdogs)."""
        self._fdir = config
        return self

    def build(self) -> SystemConfig:
        """Assemble and validate the configuration."""
        if not self._partitions:
            raise ConfigurationError("no partitions declared")
        if not self._schedules:
            raise ConfigurationError("no schedules declared")
        assert self._initial_schedule is not None
        model = SystemModel(
            partitions=tuple(b._build() for b in self._partitions.values()),
            schedules=tuple(b._build() for b in self._schedules.values()),
            initial_schedule=self._initial_schedule)
        config = SystemConfig(
            model=model,
            runtime={name: builder.runtime
                     for name, builder in self._partitions.items()},
            channels=tuple(self._channels),
            hm_tables=self._hm_tables,
            deadline_store_kind=self._deadline_store,
            change_action_policy=self._change_action_policy,
            seed=self._seed,
            memory_emulation=self._memory_emulation,
            fdir=self._fdir)
        config.ensure_valid()
        return config
