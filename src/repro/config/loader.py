"""Configuration (de)serialization: the ARINC 653 XML analogue.

Real AIR/ARINC 653 integration exchanges configuration files between the
integrator's tools and the target build (Sect. 2.1's "AIR and ARINC 653
configuration files with the assistance of development tools support").
This module provides that interchange for the reproduction, using plain
dicts/JSON instead of XML: everything *declarative* round-trips — the
formal model (partitions, processes, schedules, change actions), channels,
HM tables and policy knobs.  Process *bodies* and hooks are code, not
configuration; they are re-attached after loading via
:meth:`~repro.config.schema.SystemConfig.runtime_for`.

`dump_*` functions emit JSON-compatible dicts; `load_*` rebuild validated
model objects (construction re-runs the eager well-formedness checks).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional

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
from ..fdir.policy import fdir_config_from_dict, fdir_config_to_dict
from ..hm.tables import HmTables
from ..types import (
    ErrorCode,
    ErrorLevel,
    PartitionMode,
    RecoveryAction,
    ScheduleChangeAction,
)
from .schema import PartitionRuntimeConfig, SystemConfig

__all__ = [
    "dump_model", "load_model",
    "dump_config", "load_config",
    "save_config", "read_config",
]


# ------------------------------------------------------------------ #
# model <-> dict
# ------------------------------------------------------------------ #


def _dump_process(process: ProcessModel) -> Dict[str, Any]:
    return {"name": process.name, "period": process.period,
            "deadline": process.deadline, "priority": process.priority,
            "wcet": process.wcet, "periodic": process.periodic}


def _load_process(data: Mapping[str, Any]) -> ProcessModel:
    return ProcessModel(name=data["name"],
                        period=data.get("period", -1),
                        deadline=data.get("deadline", -1),
                        priority=data.get("priority", 0),
                        wcet=data.get("wcet", -1),
                        periodic=data.get("periodic", True))


def _dump_partition(partition: Partition) -> Dict[str, Any]:
    return {"name": partition.name,
            "processes": [_dump_process(p) for p in partition.processes],
            "system_partition": partition.system_partition,
            "initial_mode": partition.initial_mode.value,
            "criticality": partition.criticality}


def _load_partition(data: Mapping[str, Any]) -> Partition:
    return Partition(
        name=data["name"],
        processes=tuple(_load_process(p) for p in data.get("processes", [])),
        system_partition=data.get("system_partition", False),
        initial_mode=PartitionMode(data.get("initial_mode", "coldStart")),
        criticality=data.get("criticality", "C"))


def _dump_schedule(schedule: ScheduleTable) -> Dict[str, Any]:
    return {
        "schedule_id": schedule.schedule_id,
        "major_time_frame": schedule.major_time_frame,
        "requirements": [
            {"partition": r.partition, "cycle": r.cycle,
             "duration": r.duration} for r in schedule.requirements],
        "windows": [
            {"partition": w.partition, "offset": w.offset,
             "duration": w.duration} for w in schedule.windows],
        "change_actions": {partition: action.value
                           for partition, action
                           in schedule.change_actions.items()},
    }


def _load_schedule(data: Mapping[str, Any]) -> ScheduleTable:
    return ScheduleTable(
        schedule_id=data["schedule_id"],
        major_time_frame=data["major_time_frame"],
        requirements=tuple(
            PartitionRequirement(r["partition"], r["cycle"], r["duration"])
            for r in data["requirements"]),
        windows=tuple(
            TimeWindow(w["partition"], w["offset"], w["duration"])
            for w in data["windows"]),
        change_actions={partition: ScheduleChangeAction(value)
                        for partition, value
                        in data.get("change_actions", {}).items()})


def dump_model(model: SystemModel) -> Dict[str, Any]:
    """Serialize a :class:`SystemModel` to a JSON-compatible dict."""
    return {"partitions": [_dump_partition(p) for p in model.partitions],
            "schedules": [_dump_schedule(s) for s in model.schedules],
            "initial_schedule": model.initial_schedule}


def load_model(data: Mapping[str, Any]) -> SystemModel:
    """Rebuild a :class:`SystemModel` from :func:`dump_model` output."""
    try:
        return SystemModel(
            partitions=tuple(_load_partition(p) for p in data["partitions"]),
            schedules=tuple(_load_schedule(s) for s in data["schedules"]),
            initial_schedule=data["initial_schedule"])
    except KeyError as missing:
        raise ConfigurationError(
            f"model document missing required key {missing}") from None


# ------------------------------------------------------------------ #
# channels and HM tables
# ------------------------------------------------------------------ #


def _dump_channel(channel: ChannelConfig) -> Dict[str, Any]:
    return {"name": channel.name, "mode": channel.mode.value,
            "source": {"partition": channel.source.partition,
                       "port": channel.source.port},
            "destinations": [{"partition": d.partition, "port": d.port}
                             for d in channel.destinations],
            "max_message_size": channel.max_message_size,
            "max_nb_messages": channel.max_nb_messages,
            "refresh_period": channel.refresh_period,
            "latency": channel.latency}


def _load_channel(data: Mapping[str, Any]) -> ChannelConfig:
    return ChannelConfig(
        name=data["name"], mode=TransferMode(data["mode"]),
        source=PortSpec(data["source"]["partition"], data["source"]["port"]),
        destinations=tuple(PortSpec(d["partition"], d["port"])
                           for d in data["destinations"]),
        max_message_size=data.get("max_message_size", 256),
        max_nb_messages=data.get("max_nb_messages", 16),
        refresh_period=data.get("refresh_period", 0),
        latency=data.get("latency", 0))


def _dump_hm_tables(tables: HmTables) -> Dict[str, Any]:
    return {
        "levels": {code.value: level.value
                   for code, level in tables.levels.items()},
        "partition_actions": {
            partition: {code.value: action.value
                        for code, action in overrides.items()}
            for partition, overrides in tables.partition_actions.items()},
        "module_actions": {code.value: action.value
                           for code, action in tables.module_actions.items()},
        "log_threshold": tables.log_threshold,
        "log_fallback_action": tables.log_fallback_action.value,
    }


def _load_hm_tables(data: Mapping[str, Any]) -> HmTables:
    return HmTables(
        levels={ErrorCode(code): ErrorLevel(level)
                for code, level in data.get("levels", {}).items()},
        partition_actions={
            partition: {ErrorCode(code): RecoveryAction(action)
                        for code, action in overrides.items()}
            for partition, overrides
            in data.get("partition_actions", {}).items()},
        module_actions={ErrorCode(code): RecoveryAction(action)
                        for code, action
                        in data.get("module_actions", {}).items()},
        log_threshold=data.get("log_threshold", 3),
        log_fallback_action=RecoveryAction(
            data.get("log_fallback_action", "stopProcess")))


# ------------------------------------------------------------------ #
# whole configuration
# ------------------------------------------------------------------ #


def dump_config(config: SystemConfig) -> Dict[str, Any]:
    """Serialize the declarative part of a :class:`SystemConfig`.

    Runtime wiring that *is* data (POS kind, quantum, memory size,
    deadline-store override, auto_start) round-trips; bodies, init hooks
    and error handlers do not (they are code) and must be re-attached
    after :func:`load_config`.
    """
    return {
        "model": dump_model(config.model),
        "runtime": {
            name: {"pos_kind": runtime.pos_kind,
                   "quantum": runtime.quantum,
                   "memory_size": runtime.memory_size,
                   "deadline_store_kind": runtime.deadline_store_kind,
                   "auto_start": (list(runtime.auto_start)
                                  if runtime.auto_start is not None
                                  else None)}
            for name, runtime in config.runtime.items()},
        "channels": [_dump_channel(c) for c in config.channels],
        "hm_tables": _dump_hm_tables(config.hm_tables),
        "deadline_store_kind": config.deadline_store_kind,
        "change_action_policy": config.change_action_policy,
        "seed": config.seed,
        "memory_emulation": config.memory_emulation,
        "fdir": (fdir_config_to_dict(config.fdir)
                 if config.fdir is not None else None),
    }


def load_config(data: Mapping[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`dump_config` output.

    Documents may carry ``"trace_capacity": null``, which earlier dumps
    wrote; any other value asks for a bounded trace, which the simulator
    does not have, and is rejected.
    """
    if data.get("trace_capacity") is not None:
        raise ConfigurationError(
            f"trace_capacity must be null, got {data['trace_capacity']!r}: "
            f"every trace keeps its whole log")
    runtime = {}
    for name, entry in data.get("runtime", {}).items():
        auto_start = entry.get("auto_start")
        runtime[name] = PartitionRuntimeConfig(
            pos_kind=entry.get("pos_kind", "rtems"),
            quantum=entry.get("quantum", 5),
            memory_size=entry.get("memory_size", 256 * 1024),
            deadline_store_kind=entry.get("deadline_store_kind"),
            auto_start=tuple(auto_start) if auto_start is not None else None)
    return SystemConfig(
        model=load_model(data["model"]),
        runtime=runtime,
        channels=tuple(_load_channel(c) for c in data.get("channels", [])),
        hm_tables=_load_hm_tables(data.get("hm_tables", {})),
        deadline_store_kind=data.get("deadline_store_kind", "list"),
        change_action_policy=data.get("change_action_policy",
                                      "first_dispatch"),
        seed=data.get("seed", 0),
        memory_emulation=data.get("memory_emulation", False),
        fdir=(fdir_config_from_dict(data["fdir"])
              if data.get("fdir") is not None else None))


def save_config(config: SystemConfig, path: str) -> None:
    """Write the configuration document as JSON to *path*."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(dump_config(config), stream, indent=2, sort_keys=True)


def read_config(path: str) -> SystemConfig:
    """Read a JSON configuration document from *path*."""
    with open(path, encoding="utf-8") as stream:
        return load_config(json.load(stream))
