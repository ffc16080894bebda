"""TTC — Telemetry, Tracking and Command mockup (Sects. 1, 6).

Drains the telemetry queue filled by OBDH and "downlinks" the frames
(accounted, not transmitted — the ground segment is outside the module),
and receives FDIR alerts for priority downlink.

The TTC partition is the prototype's *system partition*: it is authorized
to invoke the mode-based schedule services (Sect. 4.2), mirroring the
operational practice of mode changes arriving via telecommand.

Processes:

* ``ttc-telemetry`` — drains ``tm_in``, counts frames and bytes;
* ``ttc-telecommand`` — processes (simulated) ground commands; when a
  pending schedule request is queued via
  :meth:`DownlinkStats.queue_schedule_command`, it issues
  SET_MODULE_SCHEDULE.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..apex.interface import ApexInterface, ProcessContext
from ..config.builder import PartitionBuilder
from ..pos.effects import Call, Compute
from ..types import PortDirection, Ticks

__all__ = ["TELEMETRY_IN_PORT", "ALERT_IN_PORT", "DownlinkStats",
           "configure"]

#: Destination queuing port receiving OBDH telemetry.
TELEMETRY_IN_PORT = "tm_in"

#: Destination queuing port receiving FDIR alerts.
ALERT_IN_PORT = "alert_in"


class DownlinkStats:
    """Frames/bytes accounted by the telemetry process, plus the ground
    command queue (test observability and control)."""

    def __init__(self) -> None:
        self.frames = 0
        self.bytes = 0
        self.alerts = 0
        self.pending_commands: List[str] = []
        self.command_results: List[str] = []

    def queue_schedule_command(self, schedule_id: str) -> None:
        """Enqueue a ground telecommand asking the TTC to switch the module
        schedule — the reproduction's stand-in for the VITRAL keyboard
        interaction of Sect. 6."""
        self.pending_commands.append(schedule_id)


def _telemetry_body(work: Ticks, stats: DownlinkStats):
    def factory(ctx: ProcessContext) -> Iterator:
        while True:
            for _ in range(8):
                result = yield Call(
                    ctx.apex.queuing_port(TELEMETRY_IN_PORT).receive)
                if not result.is_ok:
                    break
                stats.frames += 1
                stats.bytes += len(result.value)
                yield Compute(work)
            yield Call(ctx.apex.periodic_wait)

    return factory


def _telecommand_body(work: Ticks, stats: DownlinkStats):
    def factory(ctx: ProcessContext) -> Iterator:
        while True:
            yield Compute(work)
            alert = yield Call(ctx.apex.queuing_port(ALERT_IN_PORT).receive)
            if alert.is_ok:
                stats.alerts += 1
                yield Call(ctx.log,
                           (f"ttc: alert downlinked ({alert.value!r})",))
            if stats.pending_commands:
                # Peek, and dequeue only once the call's result has been
                # used: a replay of this body (snapshot restore) fails on
                # the result it is sent and leaves the command queued
                # for the live run.
                schedule_id = stats.pending_commands[0]
                result = yield Call(ctx.apex.set_module_schedule,
                                    (schedule_id,))
                stats.command_results.append(result.code.value)
                stats.pending_commands.pop(0)
                yield Call(ctx.log,
                           (f"ttc: schedule switch to {schedule_id!r} "
                            f"-> {result.code.value}",))
            yield Call(ctx.apex.periodic_wait)

    return factory


def configure(builder: PartitionBuilder, *, cycle: Ticks, duty: Ticks,
              stats: Optional[DownlinkStats] = None) -> DownlinkStats:
    """Declare the TTC processes on *builder*; returns the stats object."""
    if stats is None:
        stats = DownlinkStats()
    telemetry = max(duty // 8, 1)
    telecommand = max(duty // 6, 1)
    builder.system_partition()
    builder.process("ttc-telemetry", period=cycle, deadline=cycle,
                    priority=2, wcet=duty // 2)
    builder.process("ttc-telecommand", period=cycle, deadline=cycle,
                    priority=1, wcet=telecommand)
    builder.body("ttc-telemetry", _telemetry_body(telemetry, stats))
    builder.body("ttc-telecommand", _telecommand_body(telecommand, stats))

    def init(apex: ApexInterface) -> None:
        from ..types import PartitionMode

        apex.create_queuing_port(TELEMETRY_IN_PORT, PortDirection.DESTINATION)
        apex.create_queuing_port(ALERT_IN_PORT, PortDirection.DESTINATION)
        for process in ("ttc-telemetry", "ttc-telecommand"):
            apex.start(process).expect(f"starting {process}")
        apex.set_partition_mode(PartitionMode.NORMAL)

    builder.init_hook(init)
    return stats
