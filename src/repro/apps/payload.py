"""Payload mockup: an imaging instrument with onboard compression (Sect. 1).

Payload subsystems are the flexible, lower-criticality side of the SWaP
consolidation story: here an imaging pipeline producing frames and a
compression stage, optionally hosted on a *generic* (non-real-time) POS —
the Sect. 2.5 coexistence scenario — since it has no hard deadlines
(``deadline = INFINITE_TIME``; the partition can be scheduled with d = 0 or
slack windows).

Processes:

* ``payload-imaging`` — periodic frame acquisition;
* ``payload-compress`` — batch compression of acquired frames (no
  deadline; runs in leftover window time).
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..apex.interface import ApexInterface, ProcessContext
from ..config.builder import PartitionBuilder
from ..pos.effects import Call, Compute
from ..types import INFINITE_TIME, Ticks

__all__ = ["PayloadStats", "configure"]


class PayloadStats:
    """Frames acquired/compressed (test observability)."""

    def __init__(self) -> None:
        self.frames_acquired = 0
        self.frames_compressed = 0


def _imaging_body(work: Ticks, stats: PayloadStats):
    def factory(ctx: ProcessContext) -> Iterator:
        # Frames are numbered by the process itself: *stats* is shared by
        # every simulator built from the configuration, so it only counts.
        frame = 0
        while True:
            yield Compute(work)
            frame += 1
            stats.frames_acquired += 1
            buffer = ctx.apex.buffer("frames")
            yield Call(buffer.send, (b"frame-%d" % frame,))
            yield Call(ctx.apex.periodic_wait)

    return factory


def _compress_body(work_per_frame: Ticks, stats: PayloadStats):
    def factory(ctx: ProcessContext) -> Iterator:
        from ..types import INFINITE_TIME as FOREVER

        buffer = ctx.apex.buffer("frames")
        while True:
            result = yield Call(buffer.receive, (FOREVER,))
            if result.is_ok:
                yield Compute(work_per_frame)
                stats.frames_compressed += 1

    return factory


def configure(builder: PartitionBuilder, *, cycle: Ticks, duty: Ticks,
              stats: Optional[PayloadStats] = None,
              generic_pos: bool = False) -> PayloadStats:
    """Declare the payload processes on *builder*; returns the stats object.

    ``generic_pos=True`` hosts the partition on the round-robin
    non-real-time POS (Sect. 2.5).
    """
    if stats is None:
        stats = PayloadStats()
    imaging = max(duty // 4, 1)
    compress = max(duty // 6, 1)
    if generic_pos:
        builder.pos("generic", quantum=3)
    builder.process("payload-imaging", period=cycle, deadline=cycle,
                    priority=2, wcet=imaging)
    builder.process("payload-compress", priority=6, periodic=False)
    builder.body("payload-imaging", _imaging_body(imaging, stats))
    builder.body("payload-compress", _compress_body(compress, stats))

    def init(apex: ApexInterface) -> None:
        from ..types import PartitionMode

        apex.create_buffer("frames", max_messages=32, max_message_size=64)
        for process in ("payload-imaging", "payload-compress"):
            apex.start(process).expect(f"starting {process}")
        apex.set_partition_mode(PartitionMode.NORMAL)

    builder.init_hook(init)
    return stats
