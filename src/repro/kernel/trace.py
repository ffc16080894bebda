"""Structured execution tracing for the simulated AIR system.

Every observable action of the runtime — partition dispatches, schedule
switches, deadline misses, Health Monitor decisions, memory faults, process
state changes — is recorded as a typed event.  The trace is the primary
instrument for the paper's experiments: the prototype of Sect. 6 demonstrates
its claims by *observing* scheduler and HM behaviour, and the tests/benches
of this reproduction assert on these events.

Events are hashable dataclasses sharing the :class:`TraceEvent` base (a
``tick`` timestamp plus a ``kind`` string for cheap filtering); they are
treated as immutable by convention — construction cost is on the clock-ISR
hot path, so the classes skip ``frozen``'s per-field ``object.__setattr__``
overhead and use ``slots`` (no per-instance dict to allocate, faster field
access).  :class:`Trace` is an append-only collector with query helpers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

from ..types import Ticks

__all__ = [
    "TraceEvent",
    "PartitionDispatched",
    "PartitionWindowStarted",
    "IdleWindowStarted",
    "ScheduleSwitchRequested",
    "ScheduleSwitched",
    "ScheduleChangeActionApplied",
    "ProcessDispatched",
    "ProcessStateChanged",
    "ProcessCompleted",
    "DeadlineRegistered",
    "DeadlineUnregistered",
    "DeadlineMissed",
    "HealthMonitorEvent",
    "EscalationStepped",
    "PartitionParked",
    "EscalationRecovered",
    "WatchdogExpired",
    "MemoryFault",
    "ClockTamperTrapped",
    "PortMessageSent",
    "PortMessageReceived",
    "PartitionModeChanged",
    "ApplicationMessage",
    "Trace",
    "FrameFormat",
    "frame_format",
    "EXTRA_TICK_FIELDS",
    "rebase_event",
    "rebase_plan",
    "tick_fields",
]

E = TypeVar("E", bound="TraceEvent")


@dataclass(unsafe_hash=True, slots=True)
class TraceEvent:
    """Base class: something that happened at simulated time ``tick``."""

    tick: Ticks

    @property
    def kind(self) -> str:
        """Short event-kind label (the class name)."""
        return type(self).__name__


# ------------------------------------------------------------------ #
# partition-level scheduling events
# ------------------------------------------------------------------ #


@dataclass(unsafe_hash=True, slots=True)
class PartitionDispatched(TraceEvent):
    """The Partition Dispatcher switched contexts (Algorithm 2, else-branch)."""

    previous: Optional[str]
    heir: Optional[str]


@dataclass(unsafe_hash=True, slots=True)
class PartitionWindowStarted(TraceEvent):
    """A partition's execution time window opened."""

    partition: str
    schedule: str
    window_offset: Ticks
    window_duration: Ticks


@dataclass(unsafe_hash=True, slots=True)
class IdleWindowStarted(TraceEvent):
    """An idle gap (no partition scheduled) opened."""

    schedule: str
    duration: Ticks


@dataclass(unsafe_hash=True, slots=True)
class ScheduleSwitchRequested(TraceEvent):
    """SET_MODULE_SCHEDULE accepted a pending switch (Sect. 4.2)."""

    requested_by: str
    from_schedule: str
    to_schedule: str


@dataclass(unsafe_hash=True, slots=True)
class ScheduleSwitched(TraceEvent):
    """A pending switch took effect at an MTF boundary (Algorithm 1, l. 4-6)."""

    from_schedule: str
    to_schedule: str


@dataclass(unsafe_hash=True, slots=True)
class ScheduleChangeActionApplied(TraceEvent):
    """A partition's ScheduleChangeAction ran at its first post-switch
    dispatch (Algorithm 2, line 9)."""

    partition: str
    action: str
    schedule: str


@dataclass(unsafe_hash=True, slots=True)
class PartitionModeChanged(TraceEvent):
    """A partition's operating mode M_m(t) changed (eq. (3))."""

    partition: str
    previous_mode: str
    new_mode: str


# ------------------------------------------------------------------ #
# process-level events
# ------------------------------------------------------------------ #


@dataclass(unsafe_hash=True, slots=True)
class ProcessDispatched(TraceEvent):
    """The partition's POS selected a new heir process (eq. (14))."""

    partition: str
    previous: Optional[str]
    heir: Optional[str]


@dataclass(unsafe_hash=True, slots=True)
class ProcessStateChanged(TraceEvent):
    """A process moved between eq. (13) states."""

    partition: str
    process: str
    previous_state: str
    new_state: str
    reason: str = ""


@dataclass(unsafe_hash=True, slots=True)
class ProcessCompleted(TraceEvent):
    """A process body ran to completion (returned)."""

    partition: str
    process: str


# ------------------------------------------------------------------ #
# deadline events (Sect. 5)
# ------------------------------------------------------------------ #


@dataclass(unsafe_hash=True, slots=True)
class DeadlineRegistered(TraceEvent):
    """The PAL registered/updated a process deadline (Fig. 6)."""

    partition: str
    process: str
    deadline_time: Ticks


@dataclass(unsafe_hash=True, slots=True)
class DeadlineUnregistered(TraceEvent):
    """The PAL removed a process's deadline (process stopped)."""

    partition: str
    process: str


@dataclass(unsafe_hash=True, slots=True)
class DeadlineMissed(TraceEvent):
    """Algorithm 3 detected a deadline violation — membership in V(t), eq. (24)."""

    partition: str
    process: str
    deadline_time: Ticks
    detection_latency: Ticks


# ------------------------------------------------------------------ #
# health monitoring / containment events
# ------------------------------------------------------------------ #


@dataclass(unsafe_hash=True, slots=True)
class HealthMonitorEvent(TraceEvent):
    """The Health Monitor classified an error and chose an action (Sect. 2.4)."""

    level: str
    code: str
    partition: Optional[str]
    process: Optional[str]
    action: str
    detail: str = ""


@dataclass(unsafe_hash=True, slots=True)
class EscalationStepped(TraceEvent):
    """The FDIR supervisor advanced an escalation chain one rung
    (persistence threshold crossed within its window)."""

    partition: Optional[str]
    code: str
    rung: int
    action: str


@dataclass(unsafe_hash=True, slots=True)
class PartitionParked(TraceEvent):
    """Restart-storm throttling gave up on a crash-looping partition:
    no further restarts will be ordered for it."""

    partition: str
    restarts: int


@dataclass(unsafe_hash=True, slots=True)
class EscalationRecovered(TraceEvent):
    """A clean probation interval elapsed in degraded mode; the supervisor
    switched back to the nominal schedule and reset escalation state."""

    schedule: str


@dataclass(unsafe_hash=True, slots=True)
class WatchdogExpired(TraceEvent):
    """A partition's heartbeat watchdog went silent past its window."""

    partition: str
    last_kick: Ticks


@dataclass(unsafe_hash=True, slots=True)
class MemoryFault(TraceEvent):
    """The simulated MMU refused a cross-boundary access (Fig. 3)."""

    partition: str
    address: int
    access: str
    detail: str = ""


@dataclass(unsafe_hash=True, slots=True)
class ClockTamperTrapped(TraceEvent):
    """The paravirtualization layer trapped a guest clock operation (Sect. 2.5)."""

    partition: str
    operation: str


# ------------------------------------------------------------------ #
# communication / application events
# ------------------------------------------------------------------ #


@dataclass(unsafe_hash=True, slots=True)
class PortMessageSent(TraceEvent):
    """A message entered an interpartition channel."""

    partition: str
    port: str
    size: int


@dataclass(unsafe_hash=True, slots=True)
class PortMessageReceived(TraceEvent):
    """A message was delivered from an interpartition channel."""

    partition: str
    port: str
    size: int
    latency: Ticks


@dataclass(unsafe_hash=True, slots=True)
class ApplicationMessage(TraceEvent):
    """Free-form output from an application (rendered by VITRAL windows)."""

    partition: str
    process: Optional[str]
    text: str


# ------------------------------------------------------------------ #
# the collector
# ------------------------------------------------------------------ #


class Trace:
    """Append-only event log with query helpers.

    Every event ever recorded stays in the log, in record order: digests,
    fork audits and cycle-cache replay all rely on the log being the
    whole run.  The canonical document keeps a constant ``"dropped":0``
    member (as does :meth:`summary`), so its bytes, and hence every
    digest, stay those of the established format.

    The log is the only way to read a run: live views (the metrics
    registry, VITRAL) keep a cursor into it and fold what is new when
    they are read.
    """

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []
        # Canonical JSON of already-encoded events, kept as joined chunks
        # (each chunk covers a contiguous batch, entries comma-separated)
        # with a watermark of how many events they cover.  Built lazily
        # and append-only.  Carried through snapshot()/restore()
        # so a run forked from a checkpoint re-encodes only its own tail
        # when digesting the full trace.
        self._encoded: List[str] = []
        self._encoded_count = 0
        # Replayed frames beyond the watermark, still to be encoded: one
        # ``(first event index, frame, tick offsets)`` per replay batch
        # (see :meth:`defer_frames`).  Encoding renders each from its
        # frame format instead of encoding its events one by one.
        self._deferred: List[Tuple[int, FrameFormat, range]] = []
        # Running sha256 of the canonical document up to and including
        # chunk ``_hashed - 1``.  Advanced by digest() alone, so a trace
        # that is never digested hashes nothing; dropped with the chunks
        # it covers by restore().  Not part of snapshot state (hash objects
        # do not pickle): a restored trace adopts the hash of its
        # capture's prefix from the live checkpoint (adopt_hash).
        self._hash: Optional["hashlib._Hash"] = None
        self._hashed = 0

    def record(self, event: TraceEvent) -> None:
        """Append *event* to the log."""
        self._events.append(event)

    @contextmanager
    def diverted(self) -> Iterator[List[TraceEvent]]:
        """Divert every event recorded inside the block into the yielded
        list instead of the log.

        For re-driving process bodies whose side-effect events (an
        application log line, say) are already in the log — the cycle
        cache's replay checks them against its verified frame delta,
        which it records instead.
        """
        diverted: List[TraceEvent] = []
        self.record = diverted.append  # type: ignore[method-assign]
        try:
            yield diverted
        finally:
            del self.record

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        """All recorded events, oldest first."""
        return tuple(self._events)

    def of_type(self, event_type: Type[E]) -> Tuple[E, ...]:
        """All events of exactly (or a subclass of) *event_type*."""
        return tuple(e for e in self._events if isinstance(e, event_type))

    def where(self, predicate: Callable[[TraceEvent], bool]) -> Tuple[TraceEvent, ...]:
        """All events satisfying *predicate*."""
        return tuple(e for e in self._events if predicate(e))

    def last(self, event_type: Type[E]) -> Optional[E]:
        """Most recent event of *event_type*, or None."""
        for event in reversed(self._events):
            if isinstance(event, event_type):
                return event
        return None

    def count(self, event_type: Type[E]) -> int:
        """Number of events of *event_type*."""
        return sum(1 for e in self._events if isinstance(e, event_type))

    def _lower_bound(self, tick: Ticks) -> int:
        """First index whose event has ``tick >= tick`` (binary search).

        Events are appended in nondecreasing tick order, so the tick
        sequence is sorted.  Hand-rolled rather than :mod:`bisect` because
        ``bisect(..., key=...)`` needs Python >= 3.10.
        """
        events = self._events
        lo, hi = 0, len(events)
        while lo < hi:
            mid = (lo + hi) // 2
            if events[mid].tick < tick:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def between(self, start: Ticks, end: Ticks) -> Tuple[TraceEvent, ...]:
        """Events with ``start <= tick < end`` (binary search, not a scan)."""
        if end <= start:
            return ()
        lo = self._lower_bound(start)
        hi = self._lower_bound(end)
        return tuple(self._events[lo:hi])

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    def snapshot(self) -> Dict[str, object]:
        """Capture the events with their canonical JSON.

        The events are held as a tuple of the event objects themselves:
        events are immutable by convention, so every trace restored from
        this capture can share them instead of rebuilding ~one object per
        event per fork.  :meth:`pack_state` turns a capture into pure data
        for pickling and :meth:`unpack_state` inverts it, so the in-memory
        capture keeps a single form of the events.

        The canonical event JSON ships alongside the events, so a trace
        restored from this capture digests its shared prefix without
        re-encoding it.  Amortized free — each event is encoded at most
        once over the trace's whole lifetime.  The constant
        ``"dropped": 0`` keeps the capture's keys and pickled bytes those
        of the established snapshot format.
        """
        return {"events": tuple(self._events), "dropped": 0,
                "encoded": ",".join(self._encode_pending())}

    def restore(self, state: Dict[str, object]) -> None:
        """Replace the log wholesale with a :meth:`snapshot` capture.

        The restored log is a fresh list over the capture's shared event
        objects.
        """
        self._events = list(state["events"])
        encoded = state["encoded"]
        # The capture encoded exactly the events it shipped, so the
        # adopted chunk's watermark is everything just restored.
        self._encoded = [encoded] if encoded else []
        self._encoded_count = len(self._events)
        self._deferred = []
        self._hash = None
        self._hashed = 0

    @staticmethod
    def prefix_hash(state: Dict[str, object]) -> Optional["hashlib._Hash"]:
        """The running :meth:`digest` hash over a :meth:`snapshot`
        capture's encoded events, or None for an empty capture.

        Kept beside a live checkpoint rather than in the capture, so the
        capture stays pure data; every trace restored from it continues
        a copy (:meth:`adopt_hash`) instead of re-hashing the prefix.
        """
        encoded = state["encoded"]
        if not encoded:
            return None
        running = hashlib.sha256(b'{"dropped":0,"events":[')
        running.update(encoded.encode("utf-8"))
        return running

    def adopt_hash(self, running: Optional["hashlib._Hash"]) -> None:
        """Continue digesting from a copy of *running*, the
        :meth:`prefix_hash` of the capture this trace was just restored
        from; a no-op when it adopted no encoded prefix."""
        if running is not None and len(self._encoded) == 1 \
                and self._hash is None:
            self._hash = running.copy()
            self._hashed = 1

    @staticmethod
    def pack_state(state: Dict[str, object]) -> Dict[str, object]:
        """A :meth:`snapshot` capture with its events tuple-encoded —
        ``(kind, *field values)``, a list — for pickling.

        Plain tuples of scalars serialize in a fraction of the time and
        bytes of an object graph with per-instance class references
        (snapshot format v2).  Inverse: :meth:`unpack_state`.
        """
        packed = dict(state)
        packed["events"] = [(type(event).__name__,)
                            + tuple(getattr(event, name)
                                    for name in _field_names(type(event)))
                            for event in state["events"]]
        return packed

    @staticmethod
    def unpack_state(packed: Dict[str, object]) -> Dict[str, object]:
        """Inverse of :meth:`pack_state`: decode each event once."""
        state = dict(packed)
        state["events"] = tuple(_EVENT_TYPES[encoded[0]](*encoded[1:])
                                for encoded in packed["events"])
        return state

    # -------------------------------------------------------------- #
    # export
    # -------------------------------------------------------------- #

    def to_dicts(self) -> List[dict]:
        """Every event as a JSON-compatible dict (``kind`` field
        added for dispatch on the consuming side).

        Events are flat slotted dataclasses of scalars, so this reads the
        cached per-class field-name tuple directly instead of paying
        ``dataclasses.asdict``'s recursive deep copy — an order of
        magnitude on digest-heavy campaign paths, with byte-identical
        JSON.
        """
        return [_event_record(event) for event in self._events]

    def save_jsonl(self, path: str) -> int:
        """Write the trace as JSON Lines (one event per line) to *path*.

        The ground-analysis-friendly format: greppable, streamable,
        loadable into any tooling.  Returns the number of events written.
        """
        events = self.to_dicts()
        with open(path, "w", encoding="utf-8") as stream:
            for record in events:
                stream.write(json.dumps(record, sort_keys=True) + "\n")
        return len(events)

    def defer_frames(self, start: int, frame: FrameFormat,
                     offsets: range) -> None:
        """Declare the log's newest events, from index *start* on, to be
        *frame* rendered once per tick offset in *offsets*.

        Cycle-cache replay (DESIGN decision 13) calls this for the frames
        it committed: encoding then renders those events from the frame's
        one format string (:meth:`FrameFormat.render`) instead of
        encoding them one by one — the same bytes, since the replayed
        events are the frame's events with every absolute-tick field
        shifted.  A declaration that does not cover exactly the
        not-yet-encoded tail of the log is ignored, and those events
        encode per event.
        """
        if (self._encoded_count <= start
                and start + len(offsets) * frame.events
                == len(self._events)):
            self._deferred.append((start, frame, offsets))

    def _encode_pending(self) -> List[str]:
        """Canonical JSON chunks covering every event.

        Only the events beyond the already-encoded watermark are encoded
        (deferred replayed frames rendered from their frame format, every
        other event through the per-class encoders, see
        :func:`_encode_events`); earlier chunks (including a prefix
        adopted from :meth:`restore`) are reused verbatim.  Joining the
        chunks with ``","`` is byte-identical to the events array of the
        one-shot ``json.dumps`` document.
        """
        events = self._events
        count = self._encoded_count
        if count < len(events):
            chunks = self._encoded
            for start, frame, offsets in self._deferred:
                if count < start:
                    chunks.append(",".join(
                        _encode_events(events[count:start])))
                chunks.extend(map(frame.render, offsets))
                count = start + len(offsets) * frame.events
            self._deferred = []
            if count < len(events):
                chunks.append(",".join(
                    _encode_events(events[count:])))
            self._encoded_count = len(events)
        return self._encoded

    def to_json(self) -> str:
        """The full trace as one canonical JSON document.

        Canonical means ``sort_keys`` and no insignificant whitespace, so
        equal traces serialize to equal bytes; :meth:`from_json` inverts it.
        The document is assembled from the lazily-maintained per-event
        encodings (see :meth:`_encode_pending`) — byte-identical to the
        one-shot ``json.dumps`` but incremental, so a trace restored from
        a checkpoint only pays for the events recorded after the fork.
        """
        return '{"dropped":0,"events":[%s]}' % ",".join(
            self._encode_pending())

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        """Rebuild a trace from :meth:`to_json` output.

        Each event dict's ``kind`` field selects the event class; the
        remaining fields are its constructor arguments.  A document that
        records evicted events (``dropped`` other than 0) is not a whole
        log, and is rejected.
        """
        document = json.loads(text)
        dropped = document.get("dropped", 0)
        if dropped != 0:
            raise ValueError(
                f"trace document dropped {dropped!r} events; only a "
                f"complete log (dropped 0) can be loaded")
        trace = cls()
        for record in document["events"]:
            trace.record(_event_from_dict(record))
        return trace

    @classmethod
    def load_jsonl(cls, path: str) -> "Trace":
        """Rebuild a trace from a :meth:`save_jsonl` file (one event per
        line; blank lines are skipped)."""
        trace = cls()
        with open(path, "r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if line:
                    trace.record(_event_from_dict(json.loads(line)))
        return trace

    def digest(self) -> str:
        """Stable content digest of the events (hex, 16 chars).

        Two traces with identical events have identical digests — the
        compact equivalence token that crosses the campaign worker-pool
        boundary instead of the full event list.

        Incremental: the trace keeps a running hash over its encoded
        chunks, so each call encodes only the events and hashes only the
        chunks added since the last one (a repeat call on an unchanged
        trace encodes and hashes nothing) and never assembles the
        :meth:`to_json` document.
        """
        chunks = self._encode_pending()
        running = self._hash
        if running is None:
            running = self._hash = hashlib.sha256(b'{"dropped":0,"events":[')
        for index in range(self._hashed, len(chunks)):
            if index:
                running.update(b",")
            running.update(chunks[index].encode("utf-8"))
        self._hashed = len(chunks)
        final = running.copy()
        final.update(b"]}")
        return final.hexdigest()[:16]

    def summary(self) -> Dict[str, object]:
        """Compact, JSON-compatible description of the trace.

        Per-kind event counts, the covered tick range, ``"dropped": 0``
        (kept so report bytes match earlier formats) and the content
        :meth:`digest` — everything a campaign aggregate needs,
        at a fixed size regardless of trace length.
        """
        counts: Dict[str, int] = {}
        for event in self._events:
            kind = event.kind
            counts[kind] = counts.get(kind, 0) + 1
        return {
            "events": len(self._events),
            "dropped": 0,
            "counts": dict(sorted(counts.items())),
            "first_tick": self._events[0].tick if self._events else None,
            "last_tick": self._events[-1].tick if self._events else None,
            "digest": self.digest(),
        }

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)


def _event_from_dict(record: dict) -> TraceEvent:
    """Reconstruct one event from its :meth:`Trace.to_dicts` form."""
    fields = dict(record)
    kind = fields.pop("kind")
    try:
        event_type = _EVENT_TYPES[kind]
    except KeyError:
        raise ValueError(f"unknown trace event kind {kind!r}")
    return event_type(**fields)


def _event_types() -> Dict[str, Type[TraceEvent]]:
    registry: Dict[str, Type[TraceEvent]] = {}
    pending = list(TraceEvent.__subclasses__())
    while pending:
        event_type = pending.pop()
        # ``@dataclass(slots=True)`` replaces each class; until a GC
        # pass, the discarded pre-decorator original still shows up in
        # ``__subclasses__()``.  Resolve through the defining module so
        # the registry always holds the live binding — events must be
        # reconstructed as instances of the class the metrics fold's
        # ``type(event)`` dispatch table references.
        module = sys.modules.get(event_type.__module__)
        registry[event_type.__name__] = getattr(
            module, event_type.__name__, event_type)
        pending.extend(event_type.__subclasses__())
    return registry


#: kind label -> event class, for :meth:`Trace.from_json` reconstruction.
_EVENT_TYPES = _event_types()

#: event class -> field-name tuple, in definition order (slots classes have
#: no ``__dict__``; export and snapshot encoding read fields through this).
_FIELD_NAMES: Dict[Type[TraceEvent], Tuple[str, ...]] = {}


def _field_names(event_type: Type[TraceEvent]) -> Tuple[str, ...]:
    names = _FIELD_NAMES.get(event_type)
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(event_type))
        _FIELD_NAMES[event_type] = names
    return names


#: Absolute-tick fields carried by event classes *beyond* the universal
#: ``tick`` stamp.  The cycle cache (DESIGN decision 13) translates recorded
#: event deltas forward by a whole number of major time frames; every field
#: listed here shifts with the translation, while everything else
#: (durations, window offsets, latencies, counts, labels) is
#: time-origin-relative and is carried verbatim.
EXTRA_TICK_FIELDS: Dict[Type[TraceEvent], Tuple[str, ...]] = {
    DeadlineRegistered: ("deadline_time",),
    DeadlineMissed: ("deadline_time",),
    WatchdogExpired: ("last_kick",),
}

#: event class -> frozenset of every absolute-tick field name (cache).
_TICK_FIELD_SETS: Dict[Type[TraceEvent], frozenset] = {}


def tick_fields(event_type: Type[TraceEvent]) -> frozenset:
    """Every absolute-tick field of *event_type* (``tick`` + extras)."""
    fields = _TICK_FIELD_SETS.get(event_type)
    if fields is None:
        fields = frozenset(
            ("tick",) + EXTRA_TICK_FIELDS.get(event_type, ()))
        _TICK_FIELD_SETS[event_type] = fields
    return fields


def rebase_event(event: TraceEvent, offset: Ticks) -> TraceEvent:
    """A copy of *event* with every absolute-tick field shifted by *offset*.

    Relative quantities (latencies, durations, window offsets) are carried
    verbatim — rebasing a steady-state cycle's event delta by a multiple of
    the MTF must produce exactly the events a stepped run would have
    recorded one cycle later.
    """
    event_type = type(event)
    shifted = tick_fields(event_type)
    kwargs = {}
    for name in _field_names(event_type):
        value = getattr(event, name)
        if name in shifted and value is not None:
            value = value + offset
        kwargs[name] = value
    return event_type(**kwargs)


def rebase_plan(event: TraceEvent
                ) -> Tuple[Type[TraceEvent], Tuple, Tuple[int, ...]]:
    """Precompiled form of :func:`rebase_event` for hot replay loops.

    Returns ``(type, args, tick_indices)``: the event's field values in
    positional order plus the indices of the non-``None`` absolute-tick
    fields among them.  ``type(*args')`` with the indexed positions
    shifted reproduces ``rebase_event(event, offset)`` without per-call
    field introspection.
    """
    event_type = type(event)
    shifted = tick_fields(event_type)
    names = _field_names(event_type)
    args = tuple(getattr(event, name) for name in names)
    indices = tuple(index for index, name in enumerate(names)
                    if name in shifted and args[index] is not None)
    return event_type, args, indices


# ------------------------------------------------------------------ #
# canonical JSON encoding
# ------------------------------------------------------------------ #

#: Templates each event class's encoder keeps; beyond the cap a rendering
#: is used once without being stored, so unique-valued fields (free-form
#: application text, HM details) cannot grow a long-lived process.
TEMPLATE_MEMO_CAP = 512

#: Field-value types the template memo serves (exact types: ``bool`` and
#: ``float`` compare equal to ``int`` but render differently).
_TEMPLATE_TYPES = (int, str, type(None))


def _event_record(event: TraceEvent) -> dict:
    """*event* as a JSON-compatible dict, ``kind`` included."""
    event_type = type(event)
    record = {name: getattr(event, name)
              for name in _field_names(event_type)}
    record["kind"] = event_type.__name__
    return record


def _dumps_event(event: TraceEvent) -> str:
    """The general (uncached) canonical encoding of one event."""
    return json.dumps(_event_record(event), sort_keys=True,
                      separators=(",", ":"))


class _EventEncoder:
    """Canonical JSON of one event class, memoized per distinct rendering.

    The sorted key order (fields plus ``kind``) is fixed once.  A
    template renders every non-tick value through ``json.dumps`` and
    leaves a ``%d`` slot per absolute-tick field (:func:`tick_fields`,
    the declaration the cycle cache rebases by), so a frame repeated at a
    later tick reuses the template and only substitutes integers.
    Templates are keyed on the non-tick values *and* every value's type.
    """

    __slots__ = ("read", "ticks", "templates", "_kind", "_layout")

    def __init__(self, event_type: Type[TraceEvent]) -> None:
        shifted = tick_fields(event_type)
        keys = sorted(_field_names(event_type) + ("kind",))
        ticks = [name for name in keys if name in shifted]
        others = [name for name in keys
                  if name != "kind" and name not in shifted]
        names = ticks + others
        getter = attrgetter(*names)
        #: event -> (tick values..., other values...), each group in
        #: sorted key order.
        self.read = getter if len(names) > 1 else (
            lambda event: (getter(event),))
        self.ticks = len(ticks)
        self.templates: Dict[tuple, str] = {}
        self._kind = event_type.__name__
        self._layout = tuple((name, name in shifted) for name in keys)

    def template(self, values: tuple) -> Optional[str]:
        """The template rendering an event with field *values* (as
        :attr:`read` returns them), stored on first use; ``None`` when a
        value is unhashable or not exactly ``int``/``str``/``None`` (a
        tick not exactly ``int``), or the memo is full and holds no
        template for *values*."""
        ticks = self.ticks
        key = (values[ticks:], *map(type, values))
        try:
            template = self.templates.get(key)
        except TypeError:  # an unhashable field value
            return None
        if template is not None:
            return template
        if (len(self.templates) >= TEMPLATE_MEMO_CAP
                or any(type(value) is not int for value in values[:ticks])
                or any(type(value) not in _TEMPLATE_TYPES
                       for value in values[ticks:])):
            return None
        others = iter(values[ticks:])
        parts = []
        for name, is_tick in self._layout:
            if is_tick:
                value = "%d"
            else:
                value = json.dumps(self._kind if name == "kind"
                                   else next(others)).replace("%", "%%")
            parts.append(f"{json.dumps(name)}:{value}")
        template = self.templates[key] = "{" + ",".join(parts) + "}"
        return template


#: event class -> its encoder, built on first use and shared by every
#: trace in the process: renderings repeat across scenarios, and the
#: templates are a pure cache (no output depends on what is stored).
_ENCODERS: Dict[Type[TraceEvent], _EventEncoder] = {}


def _encoder(event_type: Type[TraceEvent]) -> _EventEncoder:
    encoder = _ENCODERS.get(event_type)
    if encoder is None:
        encoder = _ENCODERS[event_type] = _EventEncoder(event_type)
    return encoder


def _encode_events(events: Iterable[TraceEvent]) -> List[str]:
    """Canonical JSON of each event, byte-identical to the entries of
    ``json.dumps(records, sort_keys=True, separators=(",", ":"))``.

    Values that are not exactly ``int``, ``str`` or ``None`` (a ``None``
    tick included) take the general ``json.dumps`` path.
    """
    out: List[str] = []
    append = out.append
    encoders = _ENCODERS
    for event in events:
        encoder = encoders.get(type(event))
        if encoder is None:
            encoder = _encoder(type(event))
        values = encoder.read(event)
        ticks = encoder.ticks
        try:
            template = encoder.templates.get(
                (values[ticks:], *map(type, values)))
        except TypeError:  # an unhashable field value
            template = None
        if template is None:
            template = encoder.template(values)
            if template is None:
                append(_dumps_event(event))
                continue
        append(template % values[:ticks])
    return out


class FrameFormat(NamedTuple):
    """A run of events encoded once as a single format string.

    *fmt* is the events' per-class templates (:class:`_EventEncoder`)
    joined with ``","`` — one ``%d`` slot per absolute-tick field, in
    order — and *ticks* the values filling those slots.  The same events
    with every absolute-tick field shifted by ``offset`` encode to
    :meth:`render` of that offset.
    """

    fmt: str
    ticks: Tuple[int, ...]
    #: Number of events the format covers.
    events: int

    def render(self, offset: Ticks) -> str:
        """The canonical JSON of the events shifted by *offset* ticks."""
        return self.fmt % tuple([tick + offset for tick in self.ticks])


def frame_format(events: Iterable[TraceEvent]) -> Optional[FrameFormat]:
    """*events* as one :class:`FrameFormat`, through the same per-class
    encoders :func:`_encode_events` uses; ``None`` when there are no
    events or any of them cannot be templated (see
    :meth:`_EventEncoder.template`)."""
    parts: List[str] = []
    ticks: List[int] = []
    for event in events:
        encoder = _encoder(type(event))
        values = encoder.read(event)
        template = encoder.template(values)
        if template is None:
            return None
        parts.append(template)
        ticks.extend(values[:encoder.ticks])
    if not parts:
        return None
    return FrameFormat(",".join(parts), tuple(ticks), len(parts))
