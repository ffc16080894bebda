"""Task control blocks: the runtime status of processes — eqs. (12)-(13).

A :class:`Tcb` joins a static :class:`~repro.core.model.ProcessModel`
(``tau_m,q`` — eq. (11)) with its runtime status ``S_m,q(t)`` (eq. (12)):
absolute deadline time ``D'(t)``, current priority ``p'(t)`` and state
``St(t)``.  It also carries the simulation-specific execution machinery
(the generator body, remaining compute budget, wait condition).

State transitions go through :meth:`Tcb.set_state` so every change can be
traced and the eq. (13) state machine is enforced in one place.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional

from ..core.model import ProcessModel
from ..exceptions import SimulationError
from ..kernel.snapshot_schema import COUNTER, LOG, RAW, TICK
from ..types import INFINITE_TIME, ProcessState, Ticks, is_infinite

__all__ = ["WaitReason", "WaitCondition", "Tcb", "ProcessBody", "BodyFactory"]

#: A process body: generator yielding :mod:`repro.pos.effects` objects.
ProcessBody = Generator[Any, Any, None]

#: Factory invoked at START to (re)create a process body.
BodyFactory = Callable[..., ProcessBody]


class WaitReason(enum.Enum):
    """Why a ``waiting`` process is blocked (the events listed under eq. (13))."""

    DELAY = "delay"                # TIMED_WAIT or delayed start
    PERIOD = "period"              # PERIODIC_WAIT until next release point
    SUSPENDED = "suspended"        # explicit SUSPEND, awaiting RESUME
    RESOURCE = "resource"          # semaphore/buffer/blackboard/event
    SPORADIC = "sporadic"          # sporadic process awaiting activation


@dataclass(slots=True)
class WaitCondition:
    """What will wake a waiting process.

    ``wake_at`` is the absolute tick of a timed wake-up (delay expiry,
    release point, or resource timeout); ``None`` means the wait is purely
    event-driven.  ``resource`` identifies the object being waited on, if
    any, so it can cancel the wait on signal.  ``timed_out`` is set by the
    POS when the wake was due to the timer, letting resource code
    distinguish timeout from satisfaction.
    """

    reason: WaitReason
    wake_at: Optional[Ticks] = None
    resource: Optional[object] = None
    timed_out: bool = False


@dataclass(slots=True)
class Tcb:
    """Runtime control block of one process.

    Attributes mirroring the formal model:

    * :attr:`state` — ``St_m,q(t)``, eq. (13);
    * :attr:`current_priority` — ``p'_m,q(t)``;
    * :attr:`deadline_time` — ``D'_m,q(t)`` (None when no deadline is
      pending, e.g. dormant or deadline-free processes).

    Simulation machinery:

    * :attr:`body_factory` recreates the generator on every START;
    * :attr:`compute_remaining` — ticks left on the current ``Compute``;
    * :attr:`pending_result` — value to send into the generator at resume;
    * :attr:`wait` — the active :class:`WaitCondition` when waiting;
    * :attr:`ready_since` — monotonic sequence number stamped on every
      entry to ``ready``; implements the eq. (14) antiquity tie-break.
    """

    model: ProcessModel
    partition: str
    body_factory: BodyFactory = None  # type: ignore[assignment]
    state: ProcessState = ProcessState.DORMANT
    current_priority: int = 0
    deadline_time: Optional[Ticks] = None
    generator: Optional[ProcessBody] = None
    compute_remaining: Ticks = 0
    pending_result: Any = None
    has_pending_result: bool = False
    wait: Optional[WaitCondition] = None
    ready_since: int = 0
    release_count: int = 0
    next_release: Optional[Ticks] = None
    activation_count: int = 0
    overload_rejections: int = 0
    body_started: bool = False
    started_at: Optional[Ticks] = None
    completed: bool = False
    on_state_change: Optional[Callable[["Tcb", ProcessState, str], None]] = None
    #: Every value sent into :attr:`generator` since the last
    #: :meth:`instantiate_body` — the replay script simulator snapshots use
    #: to reconstruct the (unpicklable) generator: re-instantiate the body
    #: and feed it the same send sequence, discarding the yielded effects.
    resume_log: List[Any] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.current_priority = self.model.priority

    # -------------------------------------------------------------- #
    # identity / model accessors
    # -------------------------------------------------------------- #

    @property
    def name(self) -> str:
        """Process name (unique within its partition)."""
        return self.model.name

    @property
    def has_deadline(self) -> bool:
        """True if the process participates in deadline monitoring (eq. (24))."""
        return self.model.has_deadline

    @property
    def is_schedulable(self) -> bool:
        """Membership in ``Ready_m(t)`` — eq. (15)."""
        return self.state.is_schedulable

    # -------------------------------------------------------------- #
    # state machine
    # -------------------------------------------------------------- #

    # Keyed by the state's ``_value_`` string with tuple values: enum
    # members hash through a Python-level ``Enum.__hash__``, which showed
    # up in the tick-loop profile at two hashes per transition.  String
    # keys hash in C (and cache), and tuple membership tests by identity.
    _ALLOWED = {
        "dormant": (ProcessState.READY, ProcessState.WAITING),
        "ready": (ProcessState.RUNNING, ProcessState.DORMANT,
                  ProcessState.WAITING),
        "running": (ProcessState.READY, ProcessState.WAITING,
                    ProcessState.DORMANT),
        "waiting": (ProcessState.READY, ProcessState.DORMANT),
    }

    def set_state(self, new_state: ProcessState, *, reason: str = "",
                  ready_sequence: Optional[int] = None) -> None:
        """Transition to *new_state*, enforcing the eq. (13) state machine.

        ``ready_sequence`` must be supplied on every transition *into*
        ``ready`` — it stamps :attr:`ready_since` for the antiquity
        tie-break of eq. (14).
        """
        if new_state is self.state:
            return
        if new_state not in self._ALLOWED[self.state._value_]:
            raise SimulationError(
                f"process {self.partition}/{self.name}: illegal state "
                f"transition {self.state.value} -> {new_state.value} "
                f"({reason or 'no reason given'})")
        if new_state is ProcessState.READY:
            if ready_sequence is None:
                raise SimulationError(
                    f"process {self.partition}/{self.name}: transition to "
                    f"ready requires a ready_sequence stamp")
            self.ready_since = ready_sequence
        previous = self.state
        self.state = new_state
        if new_state is not ProcessState.WAITING:
            self.wait = None
        if self.on_state_change is not None:
            self.on_state_change(self, previous, reason)

    def block(self, condition: WaitCondition, *, reason: str = "") -> None:
        """Enter the ``waiting`` state under *condition*."""
        self.wait = condition
        self.set_state(ProcessState.WAITING, reason=reason)
        # set_state clears .wait only for non-waiting targets; re-assert.
        self.wait = condition

    # -------------------------------------------------------------- #
    # execution machinery
    # -------------------------------------------------------------- #

    def instantiate_body(self, *args: Any) -> None:
        """(Re)create the generator from the factory — done at START.

        Restarting from the entry address (a Sect. 5 recovery action) is
        exactly this: throw away the old generator, build a fresh one.
        """
        if self.body_factory is None:
            raise SimulationError(
                f"process {self.partition}/{self.name} has no body factory")
        self.generator = self.body_factory(*args)
        self.compute_remaining = 0
        self.pending_result = None
        self.has_pending_result = False
        self.body_started = False
        self.completed = False
        self.resume_log = []

    def reset_runtime(self) -> None:
        """Clear all runtime fields back to the dormant baseline."""
        self.state = ProcessState.DORMANT
        self.current_priority = self.model.priority
        self.deadline_time = None
        self.generator = None
        self.compute_remaining = 0
        self.pending_result = None
        self.has_pending_result = False
        self.body_started = False
        self.wait = None
        self.release_count = 0
        self.next_release = None
        self.activation_count = 0
        self.overload_rejections = 0
        self.started_at = None
        self.completed = False
        self.resume_log = []

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    #: ``overload_rejections`` is a counter kept raw: an overload is
    #: never steady.
    SNAPSHOT_SCHEMA = {
        "model": RAW,
        "state": RAW,
        "current_priority": RAW,
        "deadline_time": TICK,
        "has_generator": RAW,
        "resume_log": LOG,
        "compute_remaining": RAW,
        "pending_result": RAW,
        "has_pending_result": RAW,
        "wait": {"reason": RAW, "wake_at": TICK, "resource": RAW,
                 "timed_out": RAW},
        "ready_since": COUNTER,
        "release_count": COUNTER,
        "next_release": TICK,
        "activation_count": COUNTER,
        "overload_rejections": RAW,
        "body_started": RAW,
        "started_at": RAW,
        "completed": RAW,
    }

    def snapshot(self, resource_ref: Callable[[object], Any]) -> dict:
        """Capture runtime state as pure data (no generator, no callbacks).

        The generator itself cannot be serialized; :attr:`resume_log`
        stands in for it (see :class:`SimulatorSnapshot`).  *resource_ref*
        encodes a live resource object (semaphore, buffer, queuing port…)
        as a symbolic reference the restoring side can resolve.
        """
        wait = None
        if self.wait is not None:
            wait = {
                "reason": self.wait.reason.value,
                "wake_at": self.wait.wake_at,
                "resource": (None if self.wait.resource is None
                             else resource_ref(self.wait.resource)),
                "timed_out": self.wait.timed_out,
            }
        return {
            "model": self.model,
            "state": self.state.value,
            "current_priority": self.current_priority,
            "deadline_time": self.deadline_time,
            "has_generator": self.generator is not None,
            "resume_log": list(self.resume_log),
            "compute_remaining": self.compute_remaining,
            "pending_result": self.pending_result,
            "has_pending_result": self.has_pending_result,
            "wait": wait,
            "ready_since": self.ready_since,
            "release_count": self.release_count,
            "next_release": self.next_release,
            "activation_count": self.activation_count,
            "overload_rejections": self.overload_rejections,
            "body_started": self.body_started,
            "started_at": self.started_at,
            "completed": self.completed,
        }

    def restore(self, state: dict,
                resolve_resource: Callable[[Any], object]) -> None:
        """Overlay a :meth:`snapshot` capture onto this TCB.

        The caller must already have reconstructed :attr:`generator` (via
        body replay) when ``state["has_generator"]`` is set; this method
        only restores the plain fields, bypassing the state machine (the
        captured state was legal when captured).
        """
        self.state = ProcessState(state["state"])
        self.current_priority = state["current_priority"]
        self.deadline_time = state["deadline_time"]
        self.resume_log = list(state["resume_log"])
        self.compute_remaining = state["compute_remaining"]
        self.pending_result = state["pending_result"]
        self.has_pending_result = state["has_pending_result"]
        wait = state["wait"]
        if wait is None:
            self.wait = None
        else:
            self.wait = WaitCondition(
                reason=WaitReason(wait["reason"]),
                wake_at=wait["wake_at"],
                resource=(None if wait["resource"] is None
                          else resolve_resource(wait["resource"])),
                timed_out=wait["timed_out"])
        self.ready_since = state["ready_since"]
        self.release_count = state["release_count"]
        self.next_release = state["next_release"]
        self.activation_count = state["activation_count"]
        self.overload_rejections = state["overload_rejections"]
        self.body_started = state["body_started"]
        self.started_at = state["started_at"]
        self.completed = state["completed"]

    def describe(self) -> str:
        """One-line human-readable status (used by VITRAL windows)."""
        deadline = ("-" if self.deadline_time is None
                    else str(self.deadline_time))
        return (f"{self.name:16s} {self.state.value:8s} "
                f"p'={self.current_priority:<3d} D'={deadline}")
