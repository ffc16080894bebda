"""Interpartition channel configuration and message envelopes (Sect. 2.1).

A *channel* joins one source port to one or more destination ports, in one
of the two ARINC 653 transfer modes:

* **sampling** — the destination keeps only the most recent message; reads
  report *validity* (message age vs. the port's refresh period);
* **queuing** — messages are buffered FIFO up to a configured depth.

Ports are location-agnostic for applications (Sect. 2.1): whether the
partitions share the processing platform (memory-to-memory copy) or are
physically separated (transmission through a communication infrastructure)
is a property of the channel, not of the API.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..exceptions import ConfigurationError
from ..kernel.snapshot_schema import COUNTER, RAW, TICK
from ..types import Ticks

__all__ = ["TransferMode", "PortSpec", "ChannelConfig", "Envelope"]


class TransferMode(enum.Enum):
    """ARINC 653 interpartition transfer modes."""

    SAMPLING = "sampling"
    QUEUING = "queuing"


@dataclass(frozen=True)
class PortSpec:
    """One end of a channel: a named port of a partition."""

    partition: str
    port: str

    def __post_init__(self) -> None:
        if not self.partition or not self.port:
            raise ConfigurationError(
                f"port spec needs partition and port names, got "
                f"{self.partition!r}/{self.port!r}")

    def __str__(self) -> str:
        return f"{self.partition}:{self.port}"


@dataclass(frozen=True)
class ChannelConfig:
    """Integration-time description of one interpartition channel.

    Attributes
    ----------
    name:
        Channel identifier (unique module-wide).
    mode:
        Sampling or queuing.
    source / destinations:
        The producing port and the consuming port(s).  Sampling channels
        may fan out to several destinations; queuing channels have exactly
        one.
    max_message_size:
        Upper bound on payload bytes, enforced at both ends.
    max_nb_messages:
        Queue depth (queuing mode only).
    refresh_period:
        Validity horizon for sampling reads (sampling mode only);
        0 disables the validity check.
    latency:
        Transport delay in ticks: 0 models partitions on the same
        processing platform (memory-to-memory copy); a positive value
        models physically separated partitions reached through the
        simulated communication infrastructure.
    """

    name: str
    mode: TransferMode
    source: PortSpec
    destinations: Tuple[PortSpec, ...]
    max_message_size: int = 256
    max_nb_messages: int = 16
    refresh_period: Ticks = 0
    latency: Ticks = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("channel needs a name")
        if not self.destinations:
            raise ConfigurationError(
                f"channel {self.name!r} needs at least one destination")
        if self.mode is TransferMode.QUEUING and len(self.destinations) != 1:
            raise ConfigurationError(
                f"queuing channel {self.name!r} must have exactly one "
                f"destination, got {len(self.destinations)}")
        if self.max_message_size <= 0:
            raise ConfigurationError(
                f"channel {self.name!r}: max_message_size must be positive")
        if self.max_nb_messages <= 0:
            raise ConfigurationError(
                f"channel {self.name!r}: max_nb_messages must be positive")
        if self.latency < 0:
            raise ConfigurationError(
                f"channel {self.name!r}: latency must be >= 0")
        for destination in self.destinations:
            if destination == self.source:
                raise ConfigurationError(
                    f"channel {self.name!r}: source and destination coincide "
                    f"({self.source})")

    @property
    def is_local(self) -> bool:
        """True for same-platform channels (zero-latency memory copy)."""
        return self.latency == 0


@dataclass(frozen=True)
class Envelope:
    """A message in flight: payload plus transport metadata."""

    #: Envelopes sit in port, router and link captures as they are.
    SNAPSHOT_SCHEMA = {"payload": RAW, "sent_at": TICK, "channel": RAW,
                       "sequence": COUNTER}

    payload: bytes
    sent_at: Ticks
    channel: str
    sequence: int
