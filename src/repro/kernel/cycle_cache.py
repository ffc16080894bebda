"""Steady-state MTF cycle memoization (DESIGN.md decision 13).

The span-ceiling ablation (EXPERIMENTS.md E19) showed the event core's
remaining cost is the per-MTF semantic machinery itself: once every
provably-uniform span is batched, a healthy workload still executes ~18
stepped ticks and ~18 span boundaries of pure Python *per major time
frame* — and in steady state every one of those frames is a byte-
predictable repeat of the previous one.  The paper's strict temporal and
spatial partitioning (eqs. (1)-(24)) makes that repetition provable:
MTF-boundary state is a pure function of MTF-boundary state, so a frame
whose start state matches the previous frame's start state *up to a
constant time shift* must reproduce the previous frame shifted by one
MTF.  This module exploits exactly that.

How it works
------------

At each MTF boundary the cache computes a **time-rebased fingerprint**
of the full deterministic simulator state: sha256 over a canonical byte
encoding of the existing per-component ``snapshot()`` captures.  Each
leaf's kind comes from the ``SNAPSHOT_SCHEMA`` its component declares
next to ``snapshot()`` (:mod:`repro.kernel.snapshot_schema`), never from
its name, and a capture that disagrees with its declaration raises
:class:`~repro.exceptions.SnapshotSchemaError`:

* **absolute-tick leaves** (``TICK``: process wake-ups, armed deadlines,
  watchdog arming, envelope send times, context save stamps …) are
  encoded as their offset from the boundary tick, so values that march
  forward by exactly one MTF per frame compare equal; the scheduler's
  last switch (``PHASE``) is encoded by its phase within the MTF;
* **monotonic-counter leaves** (``COUNTER``/``COUNTERS``: tick,
  occupancy, sequence and arrival counters) are excluded from the digest
  and collected separately — their per-frame *deltas* must be uniform,
  their absolute values are free to grow;
* **everything else** (``RAW``: modes, rungs, queued payloads, rng
  streams, histories) is encoded verbatim — any change blocks the cache
  by construction; resume logs (``LOG``) compare their growth.  Five
  counters are declared ``RAW`` on purpose, since the events they count
  are never steady: ``mmu.fault_count``, the partition runtime's
  ``init_count`` and ``restart_count``, a TCB's ``overload_rejections``
  and the PMK's ``module_restarts``.

Three verification layers keep replay honest:

1. the fingerprint fixed point itself: two consecutive boundaries must
   produce identical digests (stale absolute values — an unkicked
   watchdog, a pending chi2 switch, an armed deadline crossing the
   boundary — break the fixed point and conservatively block caching);
2. at template build, the two fingerprint-equal frames are compared in
   full: uniform counter deltas, field-exact trace-event deltas (rebased
   by one MTF), identical generator-resume sequences (captured by a POS
   probe), and resume-log growth consistent with those resumes;
3. every replayed frame re-drives the *live* process generators with the
   recorded send values and verifies each yielded effect — a divergent
   body rolls the frame back and falls out to live execution.

A replayed frame is then: verified generator sends, the recorded trace
delta appended to the log with rebased ticks (the same events a live
frame records, so every view that folds the log reads them as live),
and one ``time.skip(MTF)``.

The fingerprint walk is the only pass that reads the declarations.
While it encodes, it records where each rebased tick, counter and
resume log lives (a tuple of real keys and indices from the PMK-state
root).  When replay hands control back to the event loop, live
component state is resynchronized from a copy of the boundary snapshot
in which exactly those recorded leaves are rewritten: ticks gain the
replayed time, counters their verified per-frame delta per frame, and
resume logs the verified per-frame slice per frame.  Deltas and edits
come from the same leaves, so they cannot disagree.

All statistics live in :data:`CYCLE_CACHE_STAT_KEYS` and are host-side
(nondeterministic) telemetry, governed under the ``timing.execution``
sidecar like every other execution-mode counter.
"""

from __future__ import annotations

import dataclasses
import hashlib
from enum import Enum
from functools import reduce
from operator import getitem
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

from ..exceptions import SimulationError, SnapshotSchemaError
from ..types import Ticks
from .snapshot_schema import COUNTER, LOG, PHASE, RAW, TICK, Each, OneOf
from .trace import frame_format, rebase_event, rebase_plan

__all__ = ["CycleCache", "CYCLE_CACHE_STAT_KEYS", "state_fingerprint"]

#: Host-side cycle-cache statistics, in the order the telemetry registry
#: governs them (``worker/<n>/cycle_cache/<stat>``).
CYCLE_CACHE_STAT_KEYS = ("hits", "misses", "invalidations",
                         "fingerprint_ns", "bytes")

#: Where a leaf lives: the real dict keys, list/tuple indices and
#: dataclass field names leading to it from the PMK-state root.
_Path = Tuple[Any, ...]

#: Consecutive fingerprint misses tolerated before probing backs off.
_BACKOFF_AFTER = 8

#: Maximum boundaries skipped between probe groups once backed off.
_MAX_STRIDE = 32

#: PMK snapshot keys fingerprinted together as the ``core`` component.
_CORE_KEYS = ("stopped", "module_restarts", "ticks_executed", "idle_ticks")


class _Unsupported(Exception):
    """State contains a value the canonical encoding cannot handle."""


# --------------------------------------------------------------------- #
# canonical fingerprint encoding
# --------------------------------------------------------------------- #

class _Fingerprinter:
    """One fingerprint walk: canonical bytes -> sha256, per component.

    The walk follows each component's declared snapshot schema
    (:mod:`repro.kernel.snapshot_schema`) and raises
    :class:`SnapshotSchemaError` where the capture disagrees with it.
    The byte grammar is deliberately explicit and versioned by the test
    suite's pinned digests: every value is tagged (``N`` none, ``T``/``F``
    bool, ``i`` int, ``t`` boundary-relative tick, ``m`` MTF-phase tick,
    ``c`` counter placeholder, ``f`` float, ``s`` str, ``b`` bytes, ``l``
    list, ``u`` tuple, ``d`` dict, ``E`` enum, ``D`` dataclass, ``C``
    callable, ``R``/``L`` resume-log reset/slice) so two states cannot
    collide across type or structure differences.  Dict items are encoded
    in insertion order — snapshot construction order, which is fixed by
    code, making digests stable across processes and interpreters.

    Alongside the bytes the walk records, per component, the path of
    every leaf replay must advance (a :data:`_Path`): *ticks* (each rebased
    tick), *counters* (path -> value) and *logs* (each resume log with
    its ``(partition, process)`` key).
    """

    def __init__(self, *, origin: Ticks, mtf: Ticks,
                 full_logs: bool = False) -> None:
        self.origin = origin
        self.mtf = mtf
        self.full_logs = full_logs
        #: previous boundary's (partition, process) -> resume-log length,
        #: supplied per component before :meth:`encode_component`.
        self.prev_lens: Dict[Tuple[str, str], int] = {}
        #: (partition, process) -> resume-log length at this boundary.
        self.new_lens: Dict[Tuple[str, str], int] = {}
        self.ticks: List[_Path] = []
        self.counters: Dict[_Path, int] = {}
        self.logs: List[Tuple[_Path, Tuple[str, str]]] = []
        self.slices_empty = True
        self._buffer = bytearray()
        self._stack: List[Any] = []

    # -- component entry point ------------------------------------- #

    def encode_component(self, root: _Path, value: Any, schema: Any,
                         prev_lens: Optional[Dict[Tuple[str, str], int]]
                         = None) -> Tuple[bytes, int]:
        """Encode one component found at *root* under its *schema*;
        returns ``(digest, byte_count)``."""
        self._buffer.clear()
        self.prev_lens = prev_lens if prev_lens is not None else {}
        self.new_lens = {}
        self.ticks = []
        self.counters = {}
        self.logs = []
        self.slices_empty = True
        self._stack = list(root)
        self._encode(value, schema)
        data = bytes(self._buffer)
        return hashlib.sha256(data).digest(), len(data)

    # -- declared values -------------------------------------------- #

    def _encode(self, value: Any, schema: Any) -> None:
        out = self._buffer
        if schema is RAW:
            self._raw(value)
        elif value is None:
            out += b"N"
        elif type(schema) is dict:
            self._struct(value, schema)
        elif schema is TICK:
            self.ticks.append(tuple(self._stack))
            out += b"t%d" % (self._int(value) - self.origin)
        elif schema is COUNTER:
            self.counters[tuple(self._stack)] = self._int(value)
            out += b"c"
        elif schema is PHASE:
            out += b"m%d" % ((self._int(value) - self.origin) % self.mtf)
        elif schema is LOG:
            self._resume_log(value)
        elif type(schema) is Each:
            self._each(value, schema.schema)
        elif type(schema) is tuple:
            self._row(value, schema)
        elif type(schema) is OneOf:
            if type(value) is not dict:
                raise self._shape("a dict", value)
            self._struct(value, schema.select(value))
        else:
            raise SnapshotSchemaError(
                f"{self._where()}: {schema!r} is not a snapshot schema")

    def _where(self) -> str:
        return "/".join(map(str, self._stack))

    def _shape(self, expected: str, value: Any) -> SnapshotSchemaError:
        return SnapshotSchemaError(
            f"{self._where()}: declared {expected}, captured "
            f"{type(value).__name__}")

    def _int(self, value: Any) -> int:
        if type(value) is not int:
            raise self._shape("an int", value)
        return value

    def _key(self, key: Any) -> None:
        encoded = repr(key).encode("utf-8")
        self._buffer += b"k%d:" % len(encoded)
        self._buffer += encoded

    def _struct(self, value: Any, schema: Dict[Any, Any]) -> None:
        """A dict with exactly the declared keys, or a dataclass with
        exactly the declared fields."""
        out = self._buffer
        stack = self._stack
        if type(value) is dict:
            self._check_keys(value.keys(), schema)
            out += b"d%d:" % len(value)
            for key, item in value.items():
                self._key(key)
                stack.append(key)
                self._encode(item, schema[key])
                stack.pop()
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            fields = dataclasses.fields(value)
            self._check_keys({field.name for field in fields}, schema)
            out += b"D%s;" % type(value).__qualname__.encode("utf-8")
            for field in fields:
                stack.append(field.name)
                self._encode(getattr(value, field.name), schema[field.name])
                stack.pop()
        else:
            raise self._shape("a dict or dataclass", value)

    def _check_keys(self, keys: Any, schema: Dict[Any, Any]) -> None:
        if keys != schema.keys():
            raise SnapshotSchemaError(
                f"{self._where()}: undeclared keys "
                f"{sorted(map(str, keys - schema.keys()))}, declared keys "
                f"not captured {sorted(map(str, schema.keys() - keys))}")

    def _each(self, value: Any, schema: Any) -> None:
        out = self._buffer
        stack = self._stack
        if type(value) is dict:
            out += b"d%d:" % len(value)
            for key, item in value.items():
                self._key(key)
                stack.append(key)
                self._encode(item, schema)
                stack.pop()
        elif type(value) is list:
            out += b"l%d:" % len(value)
            for index, item in enumerate(value):
                stack.append(index)
                self._encode(item, schema)
                stack.pop()
        else:
            raise self._shape("a dict or list", value)

    def _row(self, value: Any, columns: Tuple[Any, ...]) -> None:
        if type(value) is not tuple or len(value) != len(columns):
            raise self._shape(f"a {len(columns)}-tuple", value)
        self._buffer += b"u%d:" % len(columns)
        stack = self._stack
        for index, column in enumerate(columns):
            stack.append(index)
            self._encode(value[index], column)
            stack.pop()

    def _resume_log(self, log: Any) -> None:
        """Growing-log encoding: only the growth since the previous probe
        is content-compared; two boundaries match when their *new* resume
        entries match (the prefix is the generator's already-verified
        history).  An unknown or shrunken previous length is a reset
        marker, which can never match a slice encoding — the boundary
        after a pipeline (re)start is deliberately incomparable.

        The log's ``(partition, process)`` key comes from its path,
        ``partitions/<partition>/pos/tcbs/<process>/resume_log``."""
        stack = self._stack
        if type(log) is not list:
            raise self._shape("a resume log list", log)
        if stack[0] != "partitions":
            raise SnapshotSchemaError(
                f"{self._where()}: a resume log outside a partition's TCBs")
        out = self._buffer
        lkey = (stack[1], stack[-2])
        length = len(log)
        self.new_lens[lkey] = length
        self.logs.append((tuple(stack), lkey))
        if self.full_logs:
            out += b"R%d:" % length
            start = 0
        else:
            prev = self.prev_lens.get(lkey)
            if prev is None or prev > length:
                out += b"R%d" % length
                return
            start = prev
            out += b"L%d:" % (length - start)
        if length > start:
            self.slices_empty = False
        for index in range(start, length):
            self._raw(log[index])

    # -- raw subtrees ----------------------------------------------- #

    def _raw(self, value: Any) -> None:
        """Verbatim encoding: every int is ``i``, nothing is recorded."""
        out = self._buffer
        if value is None:
            out += b"N"
            return
        if value is True:
            out += b"T"
            return
        if value is False:
            out += b"F"
            return
        kind = type(value)
        if kind is int:
            out += b"i%d" % value
            return
        if kind is str:
            encoded = value.encode("utf-8")
            out += b"s%d:" % len(encoded)
            out += encoded
            return
        if kind is bytes:
            out += b"b%d:" % len(value)
            out += value
            return
        if kind is float:
            out += b"f%s" % repr(value).encode("ascii")
            return
        if kind is dict:
            out += b"d%d:" % len(value)
            for key, item in value.items():
                self._key(key)
                self._raw(item)
            return
        if kind is list or kind is tuple:
            out += (b"l%d:" if kind is list else b"u%d:") % len(value)
            for item in value:
                self._raw(item)
            return
        if isinstance(value, Enum):
            out += b"E%s.%s;" % (type(value).__qualname__.encode("utf-8"),
                                 value.name.encode("utf-8"))
            return
        if dataclasses.is_dataclass(value):
            out += b"D%s;" % type(value).__qualname__.encode("utf-8")
            for field in dataclasses.fields(value):
                self._raw(getattr(value, field.name))
            return
        if callable(value):
            out += b"C%s.%s;" % (
                getattr(value, "__module__", "?").encode("utf-8"),
                getattr(value, "__qualname__",
                        type(value).__qualname__).encode("utf-8"))
            return
        raise _Unsupported(f"cycle cache cannot encode {type(value)!r} "
                           f"under {self._where()}")


# --------------------------------------------------------------------- #
# component decomposition
# --------------------------------------------------------------------- #

def _components(state: dict, schema: dict, time_state: dict,
                time_schema: dict) -> List[Tuple[str, _Path, Any, Any]]:
    """Split a PMK snapshot (+ time snapshot) into fingerprint components,
    each with its declared schema (*schema* is the PMK's).

    The split is the dirty-reuse granularity: partitions are one
    component each, the rng stream is isolated (so steady frames that
    draw nothing reuse its digest), the four scalar captures form the
    ``core`` component, and the remaining module-level captures keep
    their snapshot keys.  Each component comes with its root, the path
    to it in the PMK state (the ``rng`` and ``core`` wrappers sit at the
    root itself); the time source's capture is no part of the PMK state
    and is rooted at its own snapshot.
    """
    if state.keys() != schema.keys():
        raise SnapshotSchemaError(
            f"PMK snapshot keys {sorted(state.keys() ^ schema.keys())} "
            f"disagree with the declared schema")
    components: List[Tuple[str, _Path, Any, Any]] = [
        ("time", (), time_state, time_schema),
        ("rng", (), {"rng": state["rng"]}, {"rng": schema["rng"]}),
        ("core", (), {key: state[key] for key in _CORE_KEYS},
         {key: schema[key] for key in _CORE_KEYS}),
    ]
    for name, value in state.items():
        if name not in _CORE_KEYS and name not in ("rng", "partitions"):
            components.append((name, (name,), value, schema[name]))
    partition_schema = schema["partitions"].schema
    for name, partition_state in state["partitions"].items():
        components.append(("partition:" + name, ("partitions", name),
                           partition_state, partition_schema))
    return components


# --------------------------------------------------------------------- #
# boundary records and cycle templates
# --------------------------------------------------------------------- #

class _Record:
    """Per-component fingerprint record, reusable while the component's
    raw snapshot is unchanged and contains no boundary-relative ticks.

    *ticks*, *counters* and *logs* are the leaves the walk recorded (see
    :class:`_Fingerprinter`); replay rewrites exactly those.
    """

    __slots__ = ("raw", "digest", "ticks", "counters", "lens", "logs",
                 "slices_empty")

    def __init__(self, raw: Any, digest: bytes, walker: _Fingerprinter,
                 ) -> None:
        self.raw = raw
        self.digest = digest
        self.ticks = walker.ticks
        self.counters = walker.counters
        self.lens = walker.new_lens
        self.logs = walker.logs
        self.slices_empty = walker.slices_empty


class _Boundary:
    """Everything one probed MTF boundary contributes to the pipeline."""

    __slots__ = ("now", "mtf", "fp", "records", "counters", "state",
                 "trace_len")

    def __init__(self, now: Ticks, mtf: Ticks, fp: bytes,
                 records: Dict[str, _Record], counters: Dict[_Path, int],
                 state: dict, trace_len: int) -> None:
        self.now = now
        self.mtf = mtf
        self.fp = fp
        self.records = records
        self.counters = counters
        self.state = state
        self.trace_len = trace_len


class _Template:
    """A verified steady-state frame, ready for replay.

    *sends* holds one ``(tcb, send, effect, logged, lag)`` per generator
    resume of the frame: *logged* is the precompiled (:func:`rebase_plan`)
    events the body recorded inside that resume, and *lag* the resume's
    tick relative to the frame start.
    """

    __slots__ = ("fp", "mtf", "recorded_start", "sends", "events",
                 "compiled", "frame", "deltas", "slices")

    def __init__(self, fp: bytes, mtf: Ticks, recorded_start: Ticks,
                 sends: List[Tuple[Any, Any, Any, Tuple[Any, ...], Ticks]],
                 events: Tuple[Any, ...], deltas: Dict[_Path, int],
                 slices: Dict[Tuple[str, str], Tuple[Any, ...]]) -> None:
        self.fp = fp
        self.mtf = mtf
        self.recorded_start = recorded_start
        self.sends = sends
        self.events = events
        #: Per-event ``(type, positional args, tick indices)`` — replay
        #: reconstructs rebased events by direct construction instead of
        #: per-event field introspection.
        self.compiled = tuple(rebase_plan(event) for event in events)
        #: The frame's canonical JSON as one format string, which the
        #: trace renders per replayed frame instead of re-encoding its
        #: events (``None``: some event cannot be templated, so replayed
        #: frames encode per event).
        self.frame = frame_format(events)
        self.deltas = deltas
        self.slices = slices


# --------------------------------------------------------------------- #
# the cache
# --------------------------------------------------------------------- #

class _ResumeTap:
    """The POS resume probe: collects ``(partition, process, send,
    effect)`` per generator resume, and in *spans* the ``(start, end,
    tick)`` of that resume: the trace positions of the events the body
    recorded inside it (``ctx.log`` lines and the like) and the tick it
    ran at.  The POSs hold this object rather than a bound method of the
    cache, so an armed hook ties no PMK and cache into a reference
    cycle."""

    __slots__ = ("entries", "spans", "_trace", "_time", "_start")

    def __init__(self, trace: Any, time: Any) -> None:
        self.entries: List[Tuple[str, str, Any, Any]] = []
        self.spans: List[Tuple[int, int, Ticks]] = []
        self._trace = trace
        self._time = time
        self._start = 0

    def enter(self) -> None:
        self._start = len(self._trace)

    def __call__(self, partition: str, process: str, send: Any,
                 effect: Any) -> None:
        self.entries.append((partition, process, send, effect))
        self.spans.append((self._start, len(self._trace), self._time.now))

    def take(self) -> Tuple[List[Tuple[str, str, Any, Any]],
                            List[Tuple[int, int, Ticks]]]:
        """The entries and spans since the last take, clearing both."""
        taken = self.entries, self.spans
        self.entries = []
        self.spans = []
        return taken


class CycleCache:
    """Fingerprint-keyed whole-MTF replay for one simulator instance.

    Armed by default (the :class:`~repro.kernel.simulator.Simulator`
    constructor's one switch turns it off) and bit-identity-preserving by construction: every observable
    the determinism contract covers — trace bytes, metrics digests,
    deterministic counters, oracle verdicts — is reproduced exactly,
    which the fast-skip/fork/chaos identity matrices assert.
    """

    def __init__(self, simulator: Any) -> None:
        # The simulator owns this cache, so the cache keeps its parts,
        # not the simulator: a back reference would make every armed
        # simulator a reference cycle that only the cyclic GC can free.
        self._pmk = simulator.pmk
        self._trace = simulator.trace
        self._time = simulator.time
        self.stats: Dict[str, int] = {key: 0 for key in
                                      CYCLE_CACHE_STAT_KEYS}
        # Memory emulation probes host state per executed tick, which is
        # permanently incompatible with replay.
        self._disabled = bool(simulator.pmk._memory_probes)
        self._prev1: Optional[_Boundary] = None
        self._prev2: Optional[_Boundary] = None
        self._template: Optional[_Template] = None
        self._resumes = _ResumeTap(self._trace, self._time)
        self._entries_prev: Optional[List[Tuple[str, str, Any, Any]]] = None
        self._hook_armed = False
        self._miss_streak = 0
        self._stride = 1
        self._skip = 0
        # Cheap probe gate (see _gate_open): absolute counter signature
        # at the last boundary seen, and the last inter-boundary delta.
        self._gate_last: Optional[Tuple[Ticks, tuple]] = None
        self._gate_delta: Optional[tuple] = None

    # -- driver entry point ------------------------------------------ #

    def on_boundary(self, now: Ticks, target: Ticks) -> int:
        """Called by the ``run_fast`` loops each iteration.

        Returns the number of whole MTFs replayed (0 = step live).  When
        nonzero, the simulator clock, trace and every live component
        have already been advanced to the post-replay boundary.
        """
        if self._disabled:
            return 0
        scheduler = self._pmk.scheduler
        mtf = scheduler.current.mtf
        if (now - scheduler.last_schedule_switch) % mtf:
            return 0  # not an MTF boundary
        if self._skip > 0:
            self._skip -= 1
            self._reset_pipeline()
            return 0
        if not self._gate_open(now, mtf):
            # The last two inter-boundary counter deltas disagree, so the
            # frame provably is not on a 1-MTF cycle — skip the (orders
            # of magnitude more expensive) fingerprint probe.  This keeps
            # the cache's cost on never-steady workloads down to a few
            # integer compares per boundary.
            self._reset_pipeline()
            return 0
        started = perf_counter_ns()
        try:
            boundary = self._probe(now, mtf)
        except _Unsupported:
            self._disable()
            return 0
        finally:
            self.stats["fingerprint_ns"] += perf_counter_ns() - started
        entries, spans = self._resumes.take()
        self._arm_hook()
        prev1, prev2 = self._prev1, self._prev2
        consecutive = (prev1 is not None and prev1.mtf == mtf
                       and prev1.now + mtf == now)
        template = self._template
        if (template is not None and template.mtf == mtf
                and template.fp == boundary.fp):
            replayed = self._replay(boundary, template, now, target)
            if replayed:
                return replayed
            self._rotate(boundary, entries, consecutive)
            return 0
        if not consecutive:
            self._rotate(boundary, entries, consecutive=False)
            return 0
        if boundary.fp != prev1.fp:
            self.stats["misses"] += 1
            self._back_off()
            self._rotate(boundary, entries, consecutive=True)
            return 0
        self._miss_streak = 0
        self._stride = 1
        matched_pair = (prev2 is not None and prev2.mtf == mtf
                        and prev2.now + mtf == prev1.now
                        and prev2.fp == prev1.fp
                        and self._entries_prev is not None)
        if matched_pair:
            template = self._build_template(prev2, prev1, boundary,
                                            self._entries_prev, entries,
                                            spans)
            if template is not None:
                self._template = template
                replayed = self._replay(boundary, template, now, target)
                if replayed:
                    return replayed
            else:
                self.stats["invalidations"] += 1
                self._back_off()
        self._rotate(boundary, entries, consecutive=True)
        return 0

    # -- pipeline bookkeeping ---------------------------------------- #

    def _rotate(self, boundary: _Boundary,
                entries: List[Tuple[str, str, Any, Any]],
                consecutive: bool) -> None:
        self._prev2 = self._prev1 if consecutive else None
        self._prev1 = boundary
        self._entries_prev = entries if consecutive else None

    def _reset_pipeline(self) -> None:
        self._prev1 = None
        self._prev2 = None
        self._entries_prev = None
        self._resumes.take()
        self._disarm_hook()

    def _back_off(self) -> None:
        self._miss_streak += 1
        if self._miss_streak >= _BACKOFF_AFTER:
            self._skip = self._stride
            self._stride = min(self._stride * 2, _MAX_STRIDE)

    # -- cheap probe gate --------------------------------------------- #

    def _gate_absolute(self) -> tuple:
        pmk = self._pmk
        trace = self._trace
        # Insertion order of partition_ticks is stable within a run, so
        # the values tuple compares positionally (no sort needed); the
        # key tuple rides along to guard against partition set changes.
        return (pmk.ticks_executed, pmk.idle_ticks,
                len(trace._events),
                tuple(pmk.partition_ticks),
                tuple(pmk.partition_ticks.values()))

    def _gate_open(self, now: Ticks, mtf: Ticks) -> bool:
        """Whether this boundary is worth a full fingerprint probe.

        A steady 1-MTF cycle advances every execution counter by the
        same amount each frame, so two consecutive *equal* inter-boundary
        deltas of a handful of cheap counters (ticks executed, idle
        ticks, trace growth, per-partition occupancy) are a necessary
        condition for a fingerprint fixed point.  Workloads that are
        never frame-periodic (varying log cadence, multi-MTF component
        periods, fault handling) fail the delta comparison immediately
        and never pay for a snapshot+hash probe.  Purely a cost filter:
        a false *pass* just means the fingerprint itself decides.
        """
        absolute = self._gate_absolute()
        last = self._gate_last
        self._gate_last = (now, absolute)
        if last is None or last[0] + mtf != now:
            self._gate_delta = None
            return False
        previous = last[1]
        if absolute[3] != previous[3]:  # partition set changed
            self._gate_delta = None
            return False
        delta = (absolute[0] - previous[0], absolute[1] - previous[1],
                 absolute[2] - previous[2],
                 tuple(value - prior for value, prior
                       in zip(absolute[4], previous[4])))
        matched = delta == self._gate_delta
        self._gate_delta = delta
        return matched

    def _disable(self) -> None:
        self.stats["invalidations"] += 1
        self._disabled = True
        self._template = None
        self._reset_pipeline()

    def _arm_hook(self) -> None:
        if self._hook_armed:
            return
        for runtime in self._pmk.runtimes.values():
            runtime.pos._cycle_probe = self._resumes
        self._hook_armed = True

    def _disarm_hook(self) -> None:
        if not self._hook_armed:
            return
        for runtime in self._pmk.runtimes.values():
            runtime.pos._cycle_probe = None
        self._hook_armed = False

    # -- fingerprinting ----------------------------------------------- #

    def _probe(self, now: Ticks, mtf: Ticks) -> _Boundary:
        state = self._pmk.snapshot()
        time_state = self._time.snapshot()
        prev1 = self._prev1
        prev_records = prev1.records if prev1 is not None else {}
        walker = _Fingerprinter(origin=now, mtf=mtf)
        records: Dict[str, _Record] = {}
        counters: Dict[_Path, int] = {}
        digest = hashlib.sha256()
        for name, root, value, schema in _components(
                state, self._pmk.SNAPSHOT_SCHEMA, time_state,
                self._time.SNAPSHOT_SCHEMA):
            prev = prev_records.get(name)
            if (prev is not None and not prev.ticks
                    and prev.slices_empty and prev.raw == value):
                # Unchanged pure-data component with no boundary-relative
                # leaves and no resume-log growth: its canonical bytes
                # are identical by construction — reuse the digest
                # without re-encoding.
                record = prev
            else:
                comp_digest, nbytes = walker.encode_component(
                    root, value, schema,
                    prev.lens if prev is not None else None)
                self.stats["bytes"] += nbytes
                record = _Record(value, comp_digest, walker)
            records[name] = record
            counters.update(record.counters)
            digest.update(record.digest)
        return _Boundary(now, mtf, digest.digest(), records, counters,
                         state, len(self._trace))

    # -- template construction ---------------------------------------- #

    def _build_template(self, a: _Boundary, b: _Boundary, c: _Boundary,
                        entries_ab: List[Tuple[str, str, Any, Any]],
                        entries_bc: List[Tuple[str, str, Any, Any]],
                        spans_bc: List[Tuple[int, int, Ticks]],
                        ) -> Optional[_Template]:
        mtf = c.mtf
        # 1. Uniform counter advancement across both frames.
        if a.counters.keys() != b.counters.keys() \
                or b.counters.keys() != c.counters.keys():
            return None
        deltas: Dict[_Path, int] = {}
        for path, value_b in b.counters.items():
            delta = value_b - a.counters[path]
            if c.counters[path] - value_b != delta:
                return None
            deltas[path] = delta
        # 2. Field-exact trace delta, rebased by one MTF.
        trace_events = self._trace._events
        if b.trace_len - a.trace_len != c.trace_len - b.trace_len:
            return None
        events_ab = trace_events[a.trace_len:b.trace_len]
        events_bc = trace_events[b.trace_len:c.trace_len]
        for first, second in zip(events_ab, events_bc):
            if type(first) is not type(second) \
                    or rebase_event(first, mtf) != second:
                return None
        # 3. Identical generator-resume sequences in both frames.
        if entries_ab != entries_bc:
            return None
        # 4. Resume-log growth must be explained exactly by the observed
        #    resumes: a send that faulted or completed the body appends to
        #    the log without reaching the probe, and must block replay.
        observed: Dict[Tuple[str, str], List[Any]] = {}
        for partition, process, send, _effect in entries_bc:
            observed.setdefault((partition, process), []).append(send)
        lens_b: Dict[Tuple[str, str], int] = {}
        for record in b.records.values():
            lens_b.update(record.lens)
        slices: Dict[Tuple[str, str], Tuple[Any, ...]] = {}
        for record in c.records.values():
            for path, key in record.logs:
                if key not in lens_b:
                    return None
                log = reduce(getitem, path, c.state)
                grown = log[lens_b[key]:]
                if grown != observed.get(key, []):
                    return None
                if grown:
                    slices[key] = tuple(grown)
        if set(observed) - set(slices):
            return None
        # 5. Pre-resolve the send targets against the live POSs, each with
        #    the events its body recorded inside that resume and the
        #    resume's lag into the frame: replay re-drives the body and
        #    checks it records those events again.
        pmk = self._pmk
        sends: List[Tuple[Any, Any, Any, Tuple[Any, ...], Ticks]] = []
        for (partition, process, send, effect), (start, end, tick) in zip(
                entries_bc, spans_bc):
            logged = events_bc[start - b.trace_len:end - b.trace_len]
            sends.append((pmk.runtime(partition).pos.tcb(process), send,
                          effect, tuple(rebase_plan(event)
                                        for event in logged),
                          tick - b.now))
        return _Template(c.fp, mtf, b.now, sends, tuple(events_bc),
                         deltas, slices)

    # -- replay -------------------------------------------------------- #

    def _replay(self, boundary: _Boundary, template: _Template,
                now: Ticks, target: Ticks) -> int:
        mtf = template.mtf
        want = (target - now) // mtf
        if want <= 0:
            return 0
        trace = self._trace
        # The rebased delta goes straight onto the event list: inside the
        # diverted block below, record() collects the re-drive's events.
        emit = trace._events.append
        skip = self._time.skip
        compiled = template.compiled
        base_offset = now - template.recorded_start
        start = len(trace._events)
        committed = 0
        diverged = False
        # Nothing but this loop runs during the batch, so the generator
        # objects cannot be swapped out mid-replay: bind their ``send``
        # methods once.  A completed generator raises StopIteration into
        # the divergence path like any other body fault.
        resumes: List[Tuple[Any, Any, Any, Tuple[Any, ...], Ticks]] = []
        for tcb, send, expected, logged, lag in template.sends:
            generator = tcb.generator
            if generator is None:
                return 0
            resumes.append((generator.send, send, expected, logged, lag))
        # Events a body records between yields (ctx.log lines) are part
        # of the frame delta *emit* re-records, so the re-drive's own are
        # diverted (*emit* was bound before) and checked instead: a body
        # whose log follows generator-local state the fingerprint cannot
        # see diverges here even though it yields the same effects.  The
        # re-drive runs at the frame start, *lag* ticks before the live
        # resume, so its clock-derived ticks are checked *lag* early.
        with trace.diverted() as redriven:
            for _cycle in range(want):
                offset = base_offset + committed * mtf
                for resume, send, expected, logged, lag in resumes:
                    try:
                        effect = resume(send)
                    except Exception:
                        diverged = True
                        break
                    if effect != expected:
                        diverged = True
                        break
                    if redriven or logged:
                        if not _same_events(redriven, logged,
                                            offset - lag):
                            diverged = True
                            break
                        redriven.clear()
                if diverged:
                    break
                for event_type, args, indices in compiled:
                    rebased = list(args)
                    for index in indices:
                        rebased[index] += offset
                    emit(event_type(*rebased))
                skip(mtf)
                committed += 1
        if committed == 0 and not diverged:
            return 0
        if committed and template.frame is not None:
            # The committed frames' events are the template's, shifted
            # by these offsets: the trace renders them from the frame
            # format when it next encodes (nothing is formatted here).
            trace.defer_frames(start, template.frame, range(
                base_offset, base_offset + committed * mtf, mtf))
        # Resynchronize every live component from the advanced boundary
        # state.  On divergence the partially-resumed generators are
        # discarded and rebuilt from the committed resume logs (the same
        # mechanism snapshot restore uses); on clean exit the live
        # generators *are* the advanced state and are kept.  The time
        # source needs no overlay: replay advanced it via ``skip`` and
        # the tamper history is raw-compared by the fingerprint.
        advanced = _advance(boundary, template, committed)
        try:
            # A rollback rebuilds bodies by resume-log replay, which must
            # not re-record their history either.
            with trace.diverted():
                self._pmk.overlay(advanced, rebuild_bodies=diverged)
        except Exception as exc:
            raise SimulationError(
                f"cycle cache failed to resynchronize after {committed} "
                f"replayed frame(s): {exc}") from exc
        if diverged:
            self.stats["invalidations"] += 1
            self._template = None
        self.stats["hits"] += committed
        # Replay advanced every gated counter by the uniform cycle delta,
        # so the gate stays open at the next boundary instead of needing
        # two live frames to re-learn the steady delta.
        self._gate_last = (now + committed * mtf, self._gate_absolute())
        # The overlay handed snapshot subtrees to live components; drop
        # every stored reference so later dirty-reuse comparisons can
        # never alias live state.
        self._reset_pipeline()
        self._arm_hook()
        return committed


def _advance(boundary: _Boundary, template: _Template, cycles: int) -> dict:
    """The PMK state of *boundary* advanced by *cycles* replayed frames.

    Rewrites exactly the leaves the fingerprint walk recorded: each
    rebased tick gains ``cycles * MTF``, each counter ``cycles`` times
    its verified per-frame delta, and each resume log the verified
    per-frame slice ``cycles`` times.  The time source is no part of the
    PMK state (replay advanced it with ``time.skip``).
    """
    edits: Dict[Any, Any] = {}

    def put(path: _Path, addend: Any) -> None:
        node = edits
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = addend

    shift = cycles * template.mtf
    for name, record in boundary.records.items():
        if name == "time":
            continue
        for path in record.ticks:
            put(path, shift)
        for path in record.counters:
            put(path, cycles * template.deltas[path])
        for path, key in record.logs:
            grown = template.slices.get(key)
            if grown:
                put(path, list(grown) * cycles)
    return _rewrite(boundary.state, edits)


def _rewrite(value: Any, edit: Any) -> Any:
    """*value* with *edit* applied.  A leaf edit is added to the leaf
    (``int + int``, ``list + list``); a dict of edits copies the
    container (dict, list, tuple, or dataclass via
    :func:`dataclasses.replace`) and rewrites the children it names.
    Everything off the edited paths is carried by reference."""
    if type(edit) is not dict:
        return value + edit
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{
            name: _rewrite(getattr(value, name), child)
            for name, child in edit.items()})
    copy = list(value) if type(value) is tuple else value.copy()
    for key, child in edit.items():
        copy[key] = _rewrite(copy[key], child)
    return tuple(copy) if type(value) is tuple else copy


def _same_events(events: List[Any], plans: Tuple[Any, ...],
                 offset: Ticks) -> bool:
    """Whether *events* are the :func:`rebase_plan` *plans* rebased by
    *offset*, one for one (dataclass equality compares the class too)."""
    if len(events) != len(plans):
        return False
    for event, (event_type, args, indices) in zip(events, plans):
        rebased = list(args)
        for index in indices:
            rebased[index] += offset
        if event != event_type(*rebased):
            return False
    return True


# --------------------------------------------------------------------- #
# test/diagnostic helper
# --------------------------------------------------------------------- #

def state_fingerprint(simulator: Any) -> str:
    """Hex fingerprint of *simulator*'s full deterministic state.

    The regression-test entry point: uses the cycle cache's canonical
    encoding with full resume-log content (no growth slicing, no digest
    reuse), so identical states produce identical digests across
    processes and interpreters, and states that differ in anything the
    kernel branches on — rng streams, FDIR escalation rungs, queued port
    payloads, pending schedule switches — produce different ones.
    Monotonic counters are excluded like in the cache's own fingerprint
    (each is encoded as a ``c`` placeholder), so states that differ only
    in counter values collide; a test that needs exact state equality
    compares ``pmk.snapshot()`` and ``time.snapshot()`` instead.
    """
    pmk_state = simulator.pmk.snapshot()
    time_state = simulator.time.snapshot()
    scheduler = simulator.pmk.scheduler
    walker = _Fingerprinter(origin=simulator.time.now,
                            mtf=scheduler.current.mtf, full_logs=True)
    digest = hashlib.sha256()
    for _name, root, value, schema in _components(
            pmk_state, simulator.pmk.SNAPSHOT_SCHEMA, time_state,
            simulator.time.SNAPSHOT_SCHEMA):
        comp_digest, _ = walker.encode_component(root, value, schema)
        digest.update(comp_digest)
    return digest.hexdigest()
