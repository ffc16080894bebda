"""PMK-level interpartition message router (Sect. 2.1).

The AIR PMK "provides low-level mechanisms for interpartition communication"
and "deals with these specifics" of local vs. remote partitions.  The
:class:`CommRouter` is that mechanism: APEX ports hand it payloads; it
resolves the configured channel and either

* performs the *memory-to-memory copy* for partitions on the same platform
  (immediate delivery; payloads are copied, never shared, so spatial
  separation is preserved — the destination can never alias source
  memory), or
* hands the envelope to the channel's simulated
  :class:`~repro.comm.network.NetworkLink` for physically separated
  partitions, pumping deliveries as simulated time advances.

Destination handlers are registered by the APEX port objects; the router
does not know (or care) what a port does with a delivered envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..exceptions import ConfigurationError
from ..kernel.snapshot_schema import COUNTER, Each, OneOf
from ..kernel.trace import PortMessageReceived, PortMessageSent, Trace
from ..types import Ticks
from .messages import ChannelConfig, Envelope, PortSpec, TransferMode
from .network import NetworkLink, ReliableLink

__all__ = ["CommRouter"]

#: Destination-side delivery handler installed by an APEX port.
DeliveryHandler = Callable[[Envelope], None]

#: Transport types a channel may use.
Link = Union[NetworkLink, ReliableLink]


@dataclass
class _Channel:
    """Runtime state of one configured channel."""

    config: ChannelConfig
    link: Optional[Link]
    sequence: int = 0


class CommRouter:
    """Module-wide channel registry and message mover."""

    def __init__(self, *, clock: Callable[[], Ticks],
                 trace: Optional[Trace] = None) -> None:
        self._clock = clock
        self._trace = trace
        self._channels: Dict[str, _Channel] = {}
        self._linked: List[_Channel] = []
        self._by_source: Dict[PortSpec, _Channel] = {}
        self._handlers: Dict[PortSpec, DeliveryHandler] = {}
        # Channel storage exists from configuration time (it belongs to the
        # PMK, not to the destination partition): messages arriving before
        # the destination port object is created are held here and drained
        # at registration.
        self._undelivered: Dict[PortSpec, List[Envelope]] = {}
        #: Horizon-memo state generation: bumped whenever a link's
        #: in-flight heap can change (remote transmit, pump, restore).
        self._horizon_generation = 0
        self._horizon_memo: Tuple[int, Optional[Ticks]] = (-1, None)

    # -------------------------------------------------------------- #
    # configuration
    # -------------------------------------------------------------- #

    def add_channel(self, config: ChannelConfig,
                    link: Optional[Link] = None) -> None:
        """Register *config*; remote channels (latency > 0) need a *link*.

        If a remote channel is added without a link, a loss-free
        :class:`NetworkLink` with the channel's latency is created.
        """
        if config.name in self._channels:
            raise ConfigurationError(f"duplicate channel {config.name!r}")
        if config.source in self._by_source:
            raise ConfigurationError(
                f"port {config.source} already feeds channel "
                f"{self._by_source[config.source].config.name!r}")
        if not config.is_local and link is None:
            link = NetworkLink(latency=config.latency)
        channel = _Channel(config=config, link=link if not config.is_local else None)
        self._channels[config.name] = channel
        if channel.link is not None:
            self._linked.append(channel)
        self._by_source[config.source] = channel

    def register_destination(self, spec: PortSpec,
                             handler: DeliveryHandler) -> None:
        """Install the delivery handler for destination port *spec*."""
        if spec in self._handlers:
            raise ConfigurationError(
                f"destination port {spec} already registered")
        owning = [c for c in self._channels.values()
                  if spec in c.config.destinations]
        if not owning:
            raise ConfigurationError(
                f"destination port {spec} appears in no configured channel")
        self._handlers[spec] = handler
        for envelope in self._undelivered.pop(spec, []):
            self._deliver(spec, envelope)

    def channel_for_source(self, spec: PortSpec) -> ChannelConfig:
        """The channel fed by source port *spec*."""
        try:
            return self._by_source[spec].config
        except KeyError:
            raise ConfigurationError(
                f"source port {spec} appears in no configured channel"
            ) from None

    def channel(self, name: str) -> ChannelConfig:
        """Channel configuration by name."""
        try:
            return self._channels[name].config
        except KeyError:
            raise ConfigurationError(f"no channel named {name!r}") from None

    @property
    def channel_names(self) -> Tuple[str, ...]:
        """All configured channel names."""
        return tuple(self._channels)

    # -------------------------------------------------------------- #
    # data path
    # -------------------------------------------------------------- #

    def send(self, source: PortSpec, payload: bytes) -> Envelope:
        """Move *payload* from *source* toward every configured destination.

        Local destinations receive immediately (memory-to-memory copy);
        remote ones go through the channel's link.  Returns the envelope
        (telemetry for callers).
        """
        channel = self._by_source.get(source)
        if channel is None:
            raise ConfigurationError(
                f"source port {source} appears in no configured channel")
        config = channel.config
        if len(payload) > config.max_message_size:
            raise ConfigurationError(
                f"channel {config.name!r}: payload of {len(payload)} bytes "
                f"exceeds max_message_size {config.max_message_size}")
        now = self._clock()
        channel.sequence += 1
        envelope = Envelope(payload=bytes(payload), sent_at=now,
                            channel=config.name, sequence=channel.sequence)
        if self._trace is not None:
            self._trace.record(PortMessageSent(
                tick=now, partition=source.partition, port=source.port,
                size=len(payload)))
        for destination in config.destinations:
            if config.is_local:
                self._deliver(destination, envelope)
            else:
                assert channel.link is not None
                channel.link.transmit(
                    envelope, now,
                    lambda env, dest=destination: self._deliver(dest, env),
                    tag=destination)
        if not config.is_local:
            self._horizon_generation += 1
        return envelope

    @property
    def in_flight(self) -> int:
        """Messages currently traversing any remote link."""
        return sum(channel.link.in_flight
                   for channel in self._channels.values()
                   if channel.link is not None)

    def next_delivery_tick(self) -> Optional[Ticks]:
        """Earliest arrival tick across all remote links, or None.

        The router's ``next_event_tick`` horizon: :meth:`pump` is a no-op
        at every tick strictly before the returned one, so the
        event-driven core may batch across in-flight messages instead of
        degrading to tick-by-tick execution the moment one is airborne.

        The result depends only on the in-flight heaps, which change only
        under :meth:`send` (remote transmit), :meth:`pump` and
        :meth:`restore` — all of which bump the generation counter — so it
        is memoized per generation.
        """
        generation = self._horizon_generation
        memo_generation, memo_tick = self._horizon_memo
        if memo_generation == generation:
            return memo_tick
        earliest: Optional[Ticks] = None
        for channel in self._linked:
            arrival = channel.link.next_delivery_tick
            if arrival is not None and (earliest is None or arrival < earliest):
                earliest = arrival
        self._horizon_memo = (generation, earliest)
        return earliest

    def pump(self, now: Ticks) -> int:
        """Advance all remote links to *now*; returns deliveries performed."""
        delivered = 0
        for channel in self._linked:
            delivered += channel.link.pump(now)
        if delivered:
            self._horizon_generation += 1
        return delivered

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    SNAPSHOT_SCHEMA = {
        "channels": Each({"sequence": COUNTER,
                          "link": OneOf(NetworkLink.SNAPSHOT_SCHEMA,
                                        ReliableLink.SNAPSHOT_SCHEMA)}),
        "undelivered": Each(Each(Envelope.SNAPSHOT_SCHEMA)),
    }

    def snapshot(self) -> dict:
        """Capture channel sequences, link state and held messages.

        Channel configurations and destination handlers are structural
        (rebuilt from the system configuration and port re-registration);
        only the data path's mutable state is captured.
        """
        return {
            "channels": {
                name: {"sequence": channel.sequence,
                       "link": (channel.link.snapshot()
                                if channel.link is not None else None)}
                for name, channel in self._channels.items()},
            "undelivered": {spec: list(envelopes)
                            for spec, envelopes
                            in self._undelivered.items()},
        }

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture onto configured channels."""
        for name, channel_state in state["channels"].items():
            channel = self._channels[name]
            channel.sequence = channel_state["sequence"]
            if channel_state["link"] is not None:
                assert channel.link is not None
                channel.link.restore(
                    channel_state["link"],
                    lambda dest: lambda env: self._deliver(dest, env))
        self._undelivered = {spec: list(envelopes)
                             for spec, envelopes
                             in state["undelivered"].items()}
        self._horizon_generation += 1

    def _deliver(self, destination: PortSpec, envelope: Envelope) -> None:
        handler = self._handlers.get(destination)
        if handler is None:
            # Destination port object not yet created: hold the message in
            # the channel's PMK-side storage, bounded by the configured
            # queue depth (oldest dropped on overflow).
            held = self._undelivered.setdefault(destination, [])
            held.append(envelope)
            config = self._channels[envelope.channel].config
            while len(held) > config.max_nb_messages:
                del held[0]
            return
        now = self._clock()
        if self._trace is not None:
            self._trace.record(PortMessageReceived(
                tick=now, partition=destination.partition,
                port=destination.port, size=len(envelope.payload),
                latency=now - envelope.sent_at))
        handler(envelope)
