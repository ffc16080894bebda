"""Simulated communication infrastructure for physically separated partitions.

For partitions not sharing a processing platform, interpartition
communication "implies data transmission through a communication
infrastructure" (Sect. 2.1).  The paper's AIR PMK is "obliged to message
delivery guarantees" over that infrastructure; this module provides the
simulated transport the reproduction uses: an in-order link with
configurable latency and an optional deterministic loss model, plus the
retransmission wrapper that restores the delivery guarantee over a lossy
link.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..kernel.rng import SeededRng
from ..kernel.snapshot_schema import COUNTER, COUNTERS, RAW, TICK, Rows
from ..types import Ticks
from .messages import Envelope

__all__ = ["LINK_STAT_KEYS", "LinkStats", "NetworkLink", "ReliableLink"]

#: Delivery callback: (deliver_at_tick, envelope).
DeliverFn = Callable[[Envelope], None]

#: Authoritative stat names, in emission order.  Telemetry topic governance
#: (``node/<id>/link/<peer>/<stat>``) enumerates exactly these values, so a
#: counter added here without a registry update fails the topic audit.
LINK_STAT_KEYS: Tuple[str, ...] = (
    "sent", "delivered", "dropped", "duplicated", "retransmissions")


@dataclass
class LinkStats:
    """Counters exposed for experiments."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    retransmissions: int = 0

    def as_dict(self) -> dict:
        """Counters keyed by :data:`LINK_STAT_KEYS`, in order."""
        return {key: getattr(self, key) for key in LINK_STAT_KEYS}


class NetworkLink:
    """In-order link with fixed latency and optional probabilistic loss.

    Messages are enqueued with :meth:`transmit` and surface through the
    ``deliver`` callback when :meth:`pump` reaches their arrival tick.
    Loss and duplication are decided at transmit time with a seeded RNG so
    runs are reproducible.
    """

    def __init__(self, *, latency: Ticks, loss_probability: float = 0.0,
                 duplicate_probability: float = 0.0,
                 rng: Optional[SeededRng] = None) -> None:
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {loss_probability}")
        if not 0.0 <= duplicate_probability < 1.0:
            raise ValueError(f"duplicate_probability must be in [0, 1), "
                             f"got {duplicate_probability}")
        self.latency = latency
        self.loss_probability = loss_probability
        self.duplicate_probability = duplicate_probability
        self._rng = rng if rng is not None else SeededRng(0)
        self._in_flight: List[Tuple[Ticks, int, Envelope, DeliverFn, object]] = []
        self._sequence = 0
        self.stats = LinkStats()

    def transmit(self, envelope: Envelope, now: Ticks,
                 deliver: DeliverFn, *, tag: object = None,
                 delay: Ticks = 0) -> bool:
        """Send *envelope*; returns False if the link dropped it.

        *tag* is an optional pure-data identifier of the destination
        (snapshot support: the ``deliver`` closure itself cannot be
        captured, so checkpoints record the tag and the restore side
        rebuilds an equivalent closure from it).  *delay* adds extra
        latency to this transmission only (retransmission backoff).
        """
        self.stats.sent += 1
        if self.loss_probability and self._rng.chance(self.loss_probability):
            self.stats.dropped += 1
            return False
        arrival = now + self.latency + delay
        self._sequence += 1
        heapq.heappush(self._in_flight,
                       (arrival, self._sequence, envelope, deliver, tag))
        if (self.duplicate_probability
                and self._rng.chance(self.duplicate_probability)):
            # A duplicated frame: same payload, one tick behind the
            # original, so receiver-side dedup is genuinely exercised.
            self.stats.duplicated += 1
            self._sequence += 1
            heapq.heappush(self._in_flight,
                           (arrival + 1, self._sequence, envelope, deliver,
                            tag))
        return True

    def pump(self, now: Ticks) -> int:
        """Deliver every message whose arrival tick has been reached.

        Returns the number of deliveries performed.
        """
        delivered = 0
        while self._in_flight and self._in_flight[0][0] <= now:
            _, _, envelope, deliver, _ = heapq.heappop(self._in_flight)
            deliver(envelope)
            self.stats.delivered += 1
            delivered += 1
        return delivered

    @property
    def in_flight(self) -> int:
        """Messages currently traversing the link."""
        return len(self._in_flight)

    @property
    def next_delivery_tick(self) -> Optional[Ticks]:
        """Arrival tick of the earliest in-flight message, or None.

        The event-driven core uses this as the link's ``next_event_tick``
        horizon: no delivery can happen strictly before it, so ticks up to
        (excluding) it need no pump.
        """
        return self._in_flight[0][0] if self._in_flight else None

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    #: ``in_flight`` holds ``(arrival, sequence, envelope, tag)`` rows.
    SNAPSHOT_SCHEMA = {
        "in_flight": Rows(TICK, COUNTER, Envelope.SNAPSHOT_SCHEMA, RAW),
        "sequence": COUNTER,
        "rng": RAW,
        "stats": COUNTERS,
    }

    def snapshot(self) -> dict:
        """Capture in-flight messages (closures encoded as their tags),
        the loss rng stream and the counters as pure data."""
        return {
            "in_flight": [(arrival, seq, envelope, tag)
                          for arrival, seq, envelope, _, tag
                          in sorted(self._in_flight)],
            "sequence": self._sequence,
            "rng": self._rng.state_dict(),
            "stats": self.stats.as_dict(),
        }

    def restore(self, state: dict,
                make_deliver: Callable[[object], DeliverFn]) -> None:
        """Overlay a :meth:`snapshot` capture.

        *make_deliver* maps a transmit-time tag back to a live delivery
        closure (the router supplies one resolving destination port specs).
        """
        self._in_flight = [(arrival, seq, envelope, make_deliver(tag), tag)
                           for arrival, seq, envelope, tag
                           in state["in_flight"]]
        heapq.heapify(self._in_flight)
        self._sequence = state["sequence"]
        self._rng.load_state_dict(state["rng"])
        self.stats = LinkStats(**state["stats"])


class ReliableLink:
    """Delivery-guaranteeing wrapper: retransmit until the link accepts.

    The PMK is "obliged to message delivery guarantees" (Sect. 2.1); over a
    lossy transport that means retransmission.  The wrapper retries a
    transmit-time drop (up to ``max_retries`` per message), modelling a
    link-layer ARQ.  With ``backoff=(lo, hi)`` every retry adds a delay
    drawn from the wrapper's **own** RNG stream — forked from the supplied
    parent, never shared with the link's loss stream, so enabling backoff
    cannot perturb which frames the underlying link drops.
    """

    def __init__(self, link: NetworkLink, *, max_retries: int = 16,
                 backoff: Tuple[Ticks, Ticks] = (0, 0),
                 rng: Optional[SeededRng] = None) -> None:
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        lo, hi = backoff
        if lo < 0 or hi < lo:
            raise ValueError(f"backoff must be (lo, hi) with 0 <= lo <= hi, "
                             f"got {backoff!r}")
        self.link = link
        self.max_retries = max_retries
        self.backoff = (lo, hi)
        parent = rng if rng is not None else SeededRng(0)
        self._rng = parent.fork("reliable-backoff")

    @property
    def stats(self) -> LinkStats:
        """Counters of the wrapped link (retransmissions included)."""
        return self.link.stats

    def transmit(self, envelope: Envelope, now: Ticks,
                 deliver: DeliverFn, *, tag: object = None,
                 delay: Ticks = 0) -> bool:
        """Send with retransmission; returns False only on retry exhaustion."""
        lo, hi = self.backoff
        for attempt in range(self.max_retries):
            if self.link.transmit(envelope, now, deliver, tag=tag,
                                  delay=delay):
                return True
            self.link.stats.retransmissions += 1
            if hi:
                delay += self._rng.randint(lo, hi)
        return False

    def pump(self, now: Ticks) -> int:
        """Forward to the wrapped link."""
        return self.link.pump(now)

    @property
    def in_flight(self) -> int:
        """Messages currently traversing the wrapped link."""
        return self.link.in_flight

    @property
    def next_delivery_tick(self) -> Optional[Ticks]:
        """Arrival tick of the earliest in-flight message, or None."""
        return self.link.next_delivery_tick

    SNAPSHOT_SCHEMA = {"link": NetworkLink.SNAPSHOT_SCHEMA,
                       "backoff_rng": RAW}

    def snapshot(self) -> dict:
        """Capture the wrapped link plus the backoff rng stream."""
        return {"link": self.link.snapshot(),
                "backoff_rng": self._rng.state_dict()}

    def restore(self, state: dict,
                make_deliver: Callable[[object], DeliverFn]) -> None:
        """Overlay a :meth:`snapshot` capture (either format).

        Accepts both the wrapper format and a bare
        :meth:`NetworkLink.snapshot` dict (pre-backoff checkpoints).
        """
        if "link" in state:
            self.link.restore(state["link"], make_deliver)
            self._rng.load_state_dict(state["backoff_rng"])
        else:
            self.link.restore(state, make_deliver)
