"""Integration-time system configuration (Sect. 2.1's "AIR and ARINC 653
configuration files with the assistance of development tools support").

A :class:`SystemConfig` is everything the PMK needs to instantiate a module:
the formal :class:`~repro.core.model.SystemModel` (partitions + PSTs), plus
per-partition runtime wiring (POS flavour, process bodies, initialization
hook, error handler), interpartition channels, Health Monitoring tables,
spatial memory sizing and the policy knobs exposed for the design-decision
ablations of DESIGN.md.

Configurations are validated by :meth:`SystemConfig.validate`, which runs
the full offline verification of :mod:`repro.core.validation` and adds
configuration-level cross-checks (bodies refer to real processes, channels
refer to real partitions...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..comm.messages import ChannelConfig
from ..core.model import Partition, SystemModel
from ..core.validation import Severity, ValidationReport, validate_system
from ..exceptions import ConfigurationError
from ..fdir.policy import FdirConfig
from ..hm.monitor import ApplicationHandler
from ..hm.tables import HmTables
from ..pos.tcb import BodyFactory
from ..types import RecoveryAction, Ticks

__all__ = ["PartitionRuntimeConfig", "SystemConfig",
           "DEFAULT_PARTITION_MEMORY"]

#: Default per-partition memory grant (bytes) for the auto spatial layout.
DEFAULT_PARTITION_MEMORY = 256 * 1024

#: An initialization hook: runs in place of the default init sequence.
#: Receives the partition's APEX interface; must leave the partition in
#: NORMAL mode (or deliberately not, for staged initialization tests).
InitHook = Callable[["object"], None]


@dataclass
class PartitionRuntimeConfig:
    """Runtime wiring of one partition.

    Attributes
    ----------
    pos_kind:
        ``"rtems"`` (priority-preemptive RTOS) or ``"generic"`` (round-robin
        non-real-time guest) — the POS heterogeneity of Sects. 2, 2.5.
    quantum:
        Round-robin quantum for ``generic`` POSs.
    bodies:
        Process-name → body factory.  Processes without a body cannot be
        started.
    auto_start:
        Processes the default initialization sequence STARTs; ``None``
        means every process with a registered body.
    init_hook:
        Custom initialization (create ports/resources, start processes,
        SET_PARTITION_MODE(NORMAL)); replaces the default sequence.
    error_handler:
        Application error handler installed at initialization
        (Sect. 5's recovery decision point).
    memory_size:
        Bytes granted by the automatic spatial layout.
    deadline_store_kind:
        Per-partition override of the module-wide deadline structure
        (``"list"``/``"tree"`` — the E6 ablation); None inherits.
    """

    pos_kind: str = "rtems"
    quantum: Ticks = 5
    bodies: Dict[str, BodyFactory] = field(default_factory=dict)
    auto_start: Optional[Tuple[str, ...]] = None
    init_hook: Optional[InitHook] = None
    error_handler: Optional[ApplicationHandler] = None
    memory_size: int = DEFAULT_PARTITION_MEMORY
    deadline_store_kind: Optional[str] = None

    def __post_init__(self) -> None:
        if self.pos_kind not in ("rtems", "generic"):
            raise ConfigurationError(
                f"unknown pos_kind {self.pos_kind!r}; "
                f"expected 'rtems' or 'generic'")
        if self.quantum <= 0:
            raise ConfigurationError(
                f"quantum must be positive, got {self.quantum}")
        if self.memory_size <= 0:
            raise ConfigurationError(
                f"memory_size must be positive, got {self.memory_size}")
        if self.deadline_store_kind not in (None, "list", "tree"):
            raise ConfigurationError(
                f"deadline_store_kind must be 'list', 'tree' or None, got "
                f"{self.deadline_store_kind!r}")


@dataclass
class SystemConfig:
    """Complete module configuration."""

    model: SystemModel
    runtime: Dict[str, PartitionRuntimeConfig] = field(default_factory=dict)
    channels: Tuple[ChannelConfig, ...] = ()
    hm_tables: HmTables = field(default_factory=HmTables)
    deadline_store_kind: str = "list"
    change_action_policy: str = "first_dispatch"
    seed: int = 0
    #: When True, every executed process tick performs one checked read in
    #: the partition's DATA region and one checked write in its STACK
    #: region through the simulated MMU — exercising the Fig. 3 protection
    #: path on the hot loop, not just on faults.  Off by default (2-3x
    #: simulation cost).
    memory_emulation: bool = False
    #: FDIR supervision policy (escalation chains, restart-storm parking,
    #: recovery probation, partition watchdogs); None disables the
    #: supervision layer entirely (the HM tables act alone).
    fdir: Optional[FdirConfig] = None

    def __post_init__(self) -> None:
        if self.deadline_store_kind not in ("list", "tree"):
            raise ConfigurationError(
                f"deadline_store_kind must be 'list' or 'tree', got "
                f"{self.deadline_store_kind!r}")
        if self.change_action_policy not in ("first_dispatch", "mtf_start"):
            raise ConfigurationError(
                f"change_action_policy must be 'first_dispatch' or "
                f"'mtf_start', got {self.change_action_policy!r}")
        for name in self.runtime:
            self.model.partition(name)  # raises for unknown partitions

    def runtime_for(self, partition: str) -> PartitionRuntimeConfig:
        """Runtime config of *partition*, defaulting to a bare RTEMS POS."""
        if partition not in self.runtime:
            self.runtime[partition] = PartitionRuntimeConfig()
        return self.runtime[partition]

    def store_kind_for(self, partition: str) -> str:
        """Effective deadline structure for *partition*."""
        override = self.runtime_for(partition).deadline_store_kind
        return override if override is not None else self.deadline_store_kind

    def ensure_valid(self) -> None:
        """Raise :class:`~repro.exceptions.ValidationError` unless
        :meth:`validate` passes — running it only when what it reads has
        changed since it last passed.

        One configuration is checked once however many simulators are
        built from it (every :class:`~repro.core.pmk.Pmk` calls this).
        The memo is the exact input of :meth:`validate`, taken when it
        passed: the frozen model, the channels, the FDIR policy and its
        watchdog names, and each runtime's body names and ``auto_start``.
        Any later change to them — a body registered for an unknown
        process, an ``auto_start`` entry without a body — re-validates.
        """
        inputs = self._validation_inputs()
        if getattr(self, "_validated", None) != inputs:
            self.validate().raise_if_invalid()
            self._validated = inputs

    def _validation_inputs(self) -> tuple:
        fdir = self.fdir
        return (self.model, self.channels, fdir,
                tuple(fdir.watchdogs) if fdir is not None else (),
                tuple((name, tuple(runtime.bodies), runtime.auto_start)
                      for name, runtime in self.runtime.items()))

    def validate(self) -> ValidationReport:
        """Model verification (eqs. (20)-(23)) plus configuration checks."""
        report = validate_system(self.model)
        known = set(self.model.partition_names)
        for name, runtime in self.runtime.items():
            partition = self.model.partition(name)
            process_names = set(partition.process_names)
            for process in runtime.bodies:
                if process not in process_names:
                    report.add(Severity.ERROR, "BODY_FOR_UNKNOWN_PROCESS",
                               f"body registered for unknown process "
                               f"{process!r}", partition=name)
            for process in runtime.auto_start or ():
                if process not in process_names:
                    report.add(Severity.ERROR, "AUTOSTART_UNKNOWN_PROCESS",
                               f"auto_start names unknown process "
                               f"{process!r}", partition=name)
                elif process not in runtime.bodies:
                    report.add(Severity.ERROR, "AUTOSTART_WITHOUT_BODY",
                               f"auto_start process {process!r} has no "
                               f"registered body", partition=name)
        for channel in self.channels:
            endpoints = (channel.source, *channel.destinations)
            for endpoint in endpoints:
                if endpoint.partition not in known:
                    report.add(Severity.ERROR, "CHANNEL_UNKNOWN_PARTITION",
                               f"channel {channel.name!r} references unknown "
                               f"partition {endpoint.partition!r}")
        if self.fdir is not None:
            schedules = {s.schedule_id for s in self.model.schedules}
            for index, rule in enumerate(self.fdir.rules):
                if rule.partition is not None and rule.partition not in known:
                    report.add(Severity.ERROR, "FDIR_UNKNOWN_PARTITION",
                               f"escalation rule {index} targets unknown "
                               f"partition {rule.partition!r}")
                for step in rule.chain:
                    if (step.action is RecoveryAction.SWITCH_SCHEDULE
                            and step.schedule not in schedules):
                        report.add(Severity.ERROR, "FDIR_UNKNOWN_SCHEDULE",
                                   f"escalation rule {index} switches to "
                                   f"unknown schedule {step.schedule!r}")
            for partition in self.fdir.watchdogs:
                if partition not in known:
                    report.add(Severity.ERROR, "FDIR_UNKNOWN_PARTITION",
                               f"watchdog configured for unknown partition "
                               f"{partition!r}")
        return report
