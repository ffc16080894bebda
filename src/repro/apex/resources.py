"""Intrapartition communication resources: buffers, blackboards, events,
semaphores.

These are the ARINC 653 APEX intrapartition services (available through the
standard interface of Sect. 2.3).  They live entirely inside one partition's
containment domain — they couple processes of the *same* partition, so they
involve no spatial-partitioning machinery (unlike the interpartition ports
of :mod:`repro.apex.ports`).

Blocking semantics follow the specification: a process invoking a service
that cannot complete immediately enters the ``waiting`` state (eq. (13))
queued on the resource under a FIFO or priority discipline, with an optional
timeout.  All resources implement the timeout-cancellation protocol the POS
expects (``on_wait_timeout``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..kernel.snapshot_schema import COUNTER, RAW, Rows
from ..pos.base import PartitionOs
from ..pos.tcb import Tcb, WaitCondition, WaitReason
from ..types import INFINITE_TIME, QueuingDiscipline, Ticks, is_infinite
from .types import ReturnCode, ServiceResult, error, ok

__all__ = ["WaitQueue", "Buffer", "Blackboard", "Event", "Semaphore"]


class WaitQueue:
    """Queue of processes blocked on a resource.

    ``FIFO`` wakes in arrival order; ``PRIORITY`` wakes the highest-priority
    waiter first (lower numerical value; arrival order breaks ties).
    """

    def __init__(self, discipline: QueuingDiscipline) -> None:
        self.discipline = discipline
        self._entries: List[Tuple[int, Tcb]] = []
        self._arrival = 0

    def enqueue(self, tcb: Tcb) -> None:
        """Add a waiter."""
        self._arrival += 1
        self._entries.append((self._arrival, tcb))

    def dequeue(self) -> Optional[Tcb]:
        """Remove and return the next waiter per the discipline, if any."""
        if not self._entries:
            return None
        if self.discipline is QueuingDiscipline.FIFO:
            index = 0
        else:
            index = min(range(len(self._entries)),
                        key=lambda i: (self._entries[i][1].current_priority,
                                       self._entries[i][0]))
        return self._entries.pop(index)[1]

    def remove(self, tcb: Tcb) -> bool:
        """Remove a specific waiter (timeout/stop path); True if present."""
        for index, (_, waiting) in enumerate(self._entries):
            if waiting is tcb:
                del self._entries[index]
                return True
        return False

    def __len__(self) -> int:
        return len(self._entries)

    # snapshot / restore ------------------------------------------- #

    #: ``entries`` holds ``(arrival, process name)`` rows.
    SNAPSHOT_SCHEMA = {"entries": Rows(COUNTER, RAW), "arrival": COUNTER}

    def snapshot(self) -> dict:
        """Capture waiters symbolically (by process name) as pure data."""
        return {"entries": [(arrival, tcb.name)
                            for arrival, tcb in self._entries],
                "arrival": self._arrival}

    def restore(self, state: dict,
                tcb_of: Callable[[str], Tcb]) -> None:
        """Rebuild the queue, resolving waiter names through *tcb_of*."""
        self._entries = [(arrival, tcb_of(name))
                         for arrival, name in state["entries"]]
        self._arrival = state["arrival"]


class _Resource:
    """Shared blocking machinery for intrapartition resources.

    ``clock`` is a zero-argument callable returning current time; resources
    created through the APEX interface receive the partition's PAL clock.
    """

    def __init__(self, name: str, pos: PartitionOs,
                 discipline: QueuingDiscipline,
                 clock: Optional[Callable[[], Ticks]] = None) -> None:
        self.name = name
        self.pos = pos
        self.queue = WaitQueue(discipline)
        self._clock = clock if clock is not None else lambda: pos.announced_ticks

    def _block_caller(self, timeout: Ticks, now: Ticks,
                      reason: str) -> ServiceResult[Any]:
        """Queue the running process on this resource.

        Returns the *provisional* result (the definitive one is installed
        by the waker or the timeout path before the process resumes).
        A zero timeout never blocks — the caller must handle that before
        calling here.
        """
        wake_at = None if is_infinite(timeout) else now + timeout
        self.queue.enqueue(self.pos.running)
        self.pos.block_running(
            WaitCondition(reason=WaitReason.RESOURCE, wake_at=wake_at,
                          resource=self),
            reason=reason)
        return error(ReturnCode.TIMED_OUT)

    # timeout-cancellation protocol (called by the POS timer bookkeeping)

    def on_wait_timeout(self, tcb: Tcb) -> None:
        """The wait timed out: leave the queue; result is TIMED_OUT."""
        self.queue.remove(tcb)
        tcb.pending_result = error(ReturnCode.TIMED_OUT)
        tcb.has_pending_result = True

    def cancel_wait(self, tcb: Tcb) -> None:
        """The waiter was stopped while queued (STOP recovery action)."""
        self.queue.remove(tcb)

    # snapshot / restore ------------------------------------------- #

    SNAPSHOT_SCHEMA = {"queue": WaitQueue.SNAPSHOT_SCHEMA}

    def snapshot(self) -> dict:
        """Capture resource state (wait queue; subclasses add content)."""
        return {"queue": self.queue.snapshot()}

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture (waiters resolved via the
        owning POS)."""
        self.queue.restore(state["queue"], self.pos.tcb)


class Buffer(_Resource):
    """APEX buffer: bounded FIFO message queue between processes.

    ``send`` blocks when full; ``receive`` blocks when empty — each with
    the standard timeout semantics (0 = never block, INFINITE = block
    forever).
    """

    def __init__(self, name: str, pos: PartitionOs, *, max_messages: int,
                 max_message_size: int,
                 discipline: QueuingDiscipline = QueuingDiscipline.FIFO,
                 clock: Optional[Callable[[], Ticks]] = None) -> None:
        super().__init__(name, pos, discipline, clock)
        if max_messages <= 0:
            raise ValueError(f"buffer {name!r}: max_messages must be positive")
        self.max_messages = max_messages
        self.max_message_size = max_message_size
        self._messages: Deque[bytes] = deque()
        # Senders blocked on a full buffer carry their pending message.
        self._pending_sends: dict[str, bytes] = {}

    @property
    def count(self) -> int:
        """Messages currently stored."""
        return len(self._messages)

    def send(self, message: bytes, timeout: Ticks = 0) -> ServiceResult[None]:
        """SEND_BUFFER: append *message*, blocking while full."""
        if len(message) > self.max_message_size:
            return error(ReturnCode.INVALID_PARAM)
        waiting_receiver = self.queue.dequeue()
        if waiting_receiver is not None:
            # Hand the message directly to a blocked receiver.
            self.pos.wake(waiting_receiver, result=ok(message),
                          reason=f"buffer {self.name}: message handed over")
            return ok()
        if len(self._messages) < self.max_messages:
            self._messages.append(message)
            return ok()
        if timeout == 0:
            return error(ReturnCode.NOT_AVAILABLE)
        sender = self.pos.running
        self._pending_sends[sender.name] = message
        return self._block_caller(timeout, self._clock(),
                                  f"buffer {self.name}: full")

    def receive(self, timeout: Ticks = 0) -> ServiceResult[bytes]:
        """RECEIVE_BUFFER: pop the oldest message, blocking while empty."""
        if self._messages:
            message = self._messages.popleft()
            self._admit_pending_sender()
            return ok(message)
        if timeout == 0:
            return error(ReturnCode.NOT_AVAILABLE)
        return self._block_caller(timeout, self._clock(),
                                  f"buffer {self.name}: empty")

    def on_wait_timeout(self, tcb: Tcb) -> None:
        self._pending_sends.pop(tcb.name, None)
        super().on_wait_timeout(tcb)

    def cancel_wait(self, tcb: Tcb) -> None:
        self._pending_sends.pop(tcb.name, None)
        super().cancel_wait(tcb)

    SNAPSHOT_SCHEMA = {**_Resource.SNAPSHOT_SCHEMA, "messages": RAW,
                       "pending_sends": RAW}

    def snapshot(self) -> dict:
        state = super().snapshot()
        state["messages"] = list(self._messages)
        state["pending_sends"] = dict(self._pending_sends)
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        self._messages = deque(state["messages"])
        self._pending_sends = dict(state["pending_sends"])

    def _admit_pending_sender(self) -> None:
        """A slot freed: admit one blocked sender's message, waking it."""
        sender = self.queue.dequeue()
        if sender is None:
            return
        message = self._pending_sends.pop(sender.name, None)
        if message is not None:
            self._messages.append(message)
        self.pos.wake(sender, result=ok(),
                      reason=f"buffer {self.name}: slot freed")


class Blackboard(_Resource):
    """APEX blackboard: a single overwritable message slot.

    ``display`` overwrites the slot and releases *all* processes waiting in
    ``read``; ``clear`` empties it; ``read`` returns the current message or
    blocks until one is displayed.
    """

    def __init__(self, name: str, pos: PartitionOs, *,
                 max_message_size: int,
                 clock: Optional[Callable[[], Ticks]] = None) -> None:
        super().__init__(name, pos, QueuingDiscipline.FIFO, clock)
        self.max_message_size = max_message_size
        self._message: Optional[bytes] = None

    @property
    def is_displayed(self) -> bool:
        """True if a message is currently on the blackboard."""
        return self._message is not None

    def display(self, message: bytes) -> ServiceResult[None]:
        """DISPLAY_BLACKBOARD: write the slot, waking every waiting reader."""
        if len(message) > self.max_message_size:
            return error(ReturnCode.INVALID_PARAM)
        self._message = message
        while True:
            reader = self.queue.dequeue()
            if reader is None:
                break
            self.pos.wake(reader, result=ok(message),
                          reason=f"blackboard {self.name}: displayed")
        return ok()

    def clear(self) -> ServiceResult[None]:
        """CLEAR_BLACKBOARD: empty the slot."""
        self._message = None
        return ok()

    def read(self, timeout: Ticks = 0) -> ServiceResult[bytes]:
        """READ_BLACKBOARD: return the displayed message or block for one."""
        if self._message is not None:
            return ok(self._message)
        if timeout == 0:
            return error(ReturnCode.NOT_AVAILABLE)
        return self._block_caller(timeout, self._clock(),
                                  f"blackboard {self.name}: empty")

    SNAPSHOT_SCHEMA = {**_Resource.SNAPSHOT_SCHEMA, "message": RAW}

    def snapshot(self) -> dict:
        state = super().snapshot()
        state["message"] = self._message
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        self._message = state["message"]


class Event(_Resource):
    """APEX event: a boolean flag processes can wait on.

    ``set`` wakes every waiter; ``wait`` returns immediately while the
    event is up, else blocks until ``set`` or timeout.
    """

    def __init__(self, name: str, pos: PartitionOs,
                 clock: Optional[Callable[[], Ticks]] = None) -> None:
        super().__init__(name, pos, QueuingDiscipline.FIFO, clock)
        self._is_set = False

    @property
    def is_set(self) -> bool:
        """Current flag state."""
        return self._is_set

    def set(self) -> ServiceResult[None]:
        """SET_EVENT: raise the flag and wake all waiters."""
        self._is_set = True
        while True:
            waiter = self.queue.dequeue()
            if waiter is None:
                break
            self.pos.wake(waiter, result=ok(),
                          reason=f"event {self.name}: set")
        return ok()

    def reset(self) -> ServiceResult[None]:
        """RESET_EVENT: lower the flag."""
        self._is_set = False
        return ok()

    def wait(self, timeout: Ticks = 0) -> ServiceResult[None]:
        """WAIT_EVENT: return if set, else block until set or timeout."""
        if self._is_set:
            return ok()
        if timeout == 0:
            return error(ReturnCode.NOT_AVAILABLE)
        return self._block_caller(timeout, self._clock(),
                                  f"event {self.name}: down")

    SNAPSHOT_SCHEMA = {**_Resource.SNAPSHOT_SCHEMA, "is_set": RAW}

    def snapshot(self) -> dict:
        state = super().snapshot()
        state["is_set"] = self._is_set
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        self._is_set = state["is_set"]


class Semaphore(_Resource):
    """APEX counting semaphore with FIFO or priority queuing."""

    def __init__(self, name: str, pos: PartitionOs, *, initial: int,
                 maximum: int,
                 discipline: QueuingDiscipline = QueuingDiscipline.FIFO,
                 clock: Optional[Callable[[], Ticks]] = None) -> None:
        super().__init__(name, pos, discipline, clock)
        if not 0 <= initial <= maximum:
            raise ValueError(
                f"semaphore {name!r}: need 0 <= initial <= maximum, got "
                f"initial={initial}, maximum={maximum}")
        self.maximum = maximum
        self._value = initial

    @property
    def value(self) -> int:
        """Current semaphore count."""
        return self._value

    def wait(self, timeout: Ticks = 0) -> ServiceResult[None]:
        """WAIT_SEMAPHORE: decrement, blocking at zero."""
        if self._value > 0:
            self._value -= 1
            return ok()
        if timeout == 0:
            return error(ReturnCode.NOT_AVAILABLE)
        return self._block_caller(timeout, self._clock(),
                                  f"semaphore {self.name}: zero")

    def signal(self) -> ServiceResult[None]:
        """SIGNAL_SEMAPHORE: increment, or hand the unit to a waiter."""
        waiter = self.queue.dequeue()
        if waiter is not None:
            self.pos.wake(waiter, result=ok(),
                          reason=f"semaphore {self.name}: signalled")
            return ok()
        if self._value >= self.maximum:
            return error(ReturnCode.NO_ACTION)
        self._value += 1
        return ok()

    SNAPSHOT_SCHEMA = {**_Resource.SNAPSHOT_SCHEMA, "value": RAW}

    def snapshot(self) -> dict:
        state = super().snapshot()
        state["value"] = self._value
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        self._value = state["value"]
