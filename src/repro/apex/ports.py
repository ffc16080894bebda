"""APEX interpartition communication ports (Sect. 2.1, 2.3).

Applications reach interpartition communication exclusively through these
port objects, "in a way which is agnostic of whether the partitions are
local or remote to one another and how they communicate" — the port API is
identical for both; the PMK's :class:`~repro.comm.router.CommRouter` hides
the transport.

* :class:`SamplingPort` — most-recent-message semantics with validity
  (message age vs. the channel's refresh period);
* :class:`QueuingPort` — FIFO semantics with a bounded destination queue,
  blocking receive, and overflow accounting.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from ..comm.messages import Envelope, PortSpec, TransferMode
from ..comm.router import CommRouter
from ..exceptions import ConfigurationError
from ..kernel.snapshot_schema import COUNTER, Each
from ..pos.base import PartitionOs
from ..pos.tcb import Tcb, WaitCondition, WaitReason
from ..types import PortDirection, QueuingDiscipline, Ticks, is_infinite
from .resources import WaitQueue
from .types import ReturnCode, ServiceResult, error, ok

__all__ = ["SamplingPort", "QueuingPort"]


class _Port:
    """Common identity/validation for both port kinds."""

    expected_mode: TransferMode

    def __init__(self, spec: PortSpec, direction: PortDirection,
                 router: CommRouter, *, clock: Callable[[], Ticks]) -> None:
        self.spec = spec
        self.direction = direction
        self.router = router
        self._clock = clock
        if direction is PortDirection.SOURCE:
            config = router.channel_for_source(spec)
        else:
            matches = [router.channel(name) for name in router.channel_names
                       if spec in router.channel(name).destinations]
            if not matches:
                raise ConfigurationError(
                    f"destination port {spec} appears in no configured channel")
            config = matches[0]
        if config.mode is not self.expected_mode:
            raise ConfigurationError(
                f"port {spec}: channel {config.name!r} is "
                f"{config.mode.value}, expected {self.expected_mode.value}")
        self.config = config

    @property
    def name(self) -> str:
        """Port name within its partition."""
        return self.spec.port

    def _require_direction(self, needed: PortDirection) -> Optional[ServiceResult]:
        if self.direction is not needed:
            return error(ReturnCode.INVALID_MODE)
        return None


class SamplingPort(_Port):
    """Most-recent-message port with validity reporting."""

    expected_mode = TransferMode.SAMPLING

    def __init__(self, spec: PortSpec, direction: PortDirection,
                 router: CommRouter, *, clock: Callable[[], Ticks]) -> None:
        super().__init__(spec, direction, router, clock=clock)
        self._latest: Optional[Envelope] = None
        if direction is PortDirection.DESTINATION:
            router.register_destination(spec, self._on_delivery)

    def write(self, message: bytes) -> ServiceResult[None]:
        """WRITE_SAMPLING_MESSAGE (source ports only)."""
        failure = self._require_direction(PortDirection.SOURCE)
        if failure is not None:
            return failure
        if len(message) > self.config.max_message_size:
            return error(ReturnCode.INVALID_PARAM)
        self.router.send(self.spec, message)
        return ok()

    def read(self) -> ServiceResult[Tuple[bytes, bool]]:
        """READ_SAMPLING_MESSAGE (destination ports only).

        Returns ``(payload, validity)``; validity is True when the message
        age does not exceed the channel's refresh period (a refresh period
        of 0 disables the check).  An empty port yields ``NOT_AVAILABLE``
        ... reading never consumes the message (sampling semantics).
        """
        failure = self._require_direction(PortDirection.DESTINATION)
        if failure is not None:
            return failure
        if self._latest is None:
            return error(ReturnCode.NOT_AVAILABLE)
        age = self._clock() - self._latest.sent_at
        valid = (self.config.refresh_period == 0
                 or age <= self.config.refresh_period)
        return ok((self._latest.payload, valid))

    @property
    def last_envelope(self) -> Optional[Envelope]:
        """The most recent delivery (telemetry)."""
        return self._latest

    def _on_delivery(self, envelope: Envelope) -> None:
        self._latest = envelope

    # snapshot / restore ------------------------------------------- #

    SNAPSHOT_SCHEMA = {"latest": Envelope.SNAPSHOT_SCHEMA}

    def snapshot(self) -> dict:
        """Capture the port's most recent envelope (pure data)."""
        return {"latest": self._latest}

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture."""
        self._latest = state["latest"]


class QueuingPort(_Port):
    """Bounded FIFO port with blocking receive and overflow accounting."""

    expected_mode = TransferMode.QUEUING

    def __init__(self, spec: PortSpec, direction: PortDirection,
                 router: CommRouter, *, clock: Callable[[], Ticks],
                 pos: Optional[PartitionOs] = None) -> None:
        super().__init__(spec, direction, router, clock=clock)
        self._queue: Deque[Envelope] = deque()
        self._waiters = WaitQueue(QueuingDiscipline.FIFO)
        self._pos = pos
        self.overflow_count = 0
        if direction is PortDirection.DESTINATION:
            if pos is None:
                raise ConfigurationError(
                    f"destination queuing port {spec} needs the partition's "
                    f"POS for blocking receive")
            router.register_destination(spec, self._on_delivery)

    @property
    def count(self) -> int:
        """Messages currently queued at the destination."""
        return len(self._queue)

    def send(self, message: bytes) -> ServiceResult[None]:
        """SEND_QUEUING_MESSAGE (source ports only).

        The source side never blocks in this model: the PMK accepts the
        message and the *destination* queue bounds apply at delivery
        (overflow is counted there, mirroring a hardware FIFO dropping on
        a full sink).
        """
        failure = self._require_direction(PortDirection.SOURCE)
        if failure is not None:
            return failure
        if len(message) > self.config.max_message_size:
            return error(ReturnCode.INVALID_PARAM)
        self.router.send(self.spec, message)
        return ok()

    def receive(self, timeout: Ticks = 0) -> ServiceResult[bytes]:
        """RECEIVE_QUEUING_MESSAGE (destination ports only).

        Pops the oldest message; blocks up to *timeout* when empty
        (0 = fail immediately, INFINITE_TIME = wait forever).
        """
        failure = self._require_direction(PortDirection.DESTINATION)
        if failure is not None:
            return failure
        if self._queue:
            return ok(self._queue.popleft().payload)
        if timeout == 0:
            return error(ReturnCode.NOT_AVAILABLE)
        assert self._pos is not None
        wake_at = None if is_infinite(timeout) else self._clock() + timeout
        self._waiters.enqueue(self._pos.running)
        self._pos.block_running(
            WaitCondition(reason=WaitReason.RESOURCE, wake_at=wake_at,
                          resource=self),
            reason=f"queuing port {self.spec}: empty")
        return error(ReturnCode.TIMED_OUT)

    # timeout-cancellation protocol (POS timer bookkeeping) ---------- #

    def on_wait_timeout(self, tcb: Tcb) -> None:
        """A blocked receiver timed out."""
        self._waiters.remove(tcb)
        tcb.pending_result = error(ReturnCode.TIMED_OUT)
        tcb.has_pending_result = True

    def cancel_wait(self, tcb: Tcb) -> None:
        """A blocked receiver was stopped."""
        self._waiters.remove(tcb)

    # snapshot / restore ------------------------------------------- #

    SNAPSHOT_SCHEMA = {"queue": Each(Envelope.SNAPSHOT_SCHEMA),
                       "waiters": WaitQueue.SNAPSHOT_SCHEMA,
                       "overflow_count": COUNTER}

    def snapshot(self) -> dict:
        """Capture queued envelopes, blocked receivers and overflow count."""
        return {"queue": list(self._queue),
                "waiters": self._waiters.snapshot(),
                "overflow_count": self.overflow_count}

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture (waiters resolved via POS)."""
        self._queue = deque(state["queue"])
        if self._pos is not None:
            self._waiters.restore(state["waiters"], self._pos.tcb)
        self.overflow_count = state["overflow_count"]

    def _on_delivery(self, envelope: Envelope) -> None:
        assert self._pos is not None
        waiter = self._waiters.dequeue()
        if waiter is not None:
            self._pos.wake(waiter, result=ok(envelope.payload),
                           reason=f"queuing port {self.spec}: message arrived")
            return
        if len(self._queue) >= self.config.max_nb_messages:
            self.overflow_count += 1
            return
        self._queue.append(envelope)
