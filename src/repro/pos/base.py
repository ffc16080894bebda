"""Partition Operating System (POS) base machinery.

AIR foresees a different operating system per partition (Sect. 2): real-time
kernels (RTEMS-like, :mod:`repro.pos.rtems`) and generic non-real-time ones
(Linux-like, :mod:`repro.pos.generic`).  This module implements everything
they share — task control block management, the timer bookkeeping driven by
the PAL's tick announcements, process execution of generator bodies — and
leaves the *scheduling policy* (selection of ``heir_m(t)``) abstract.

Time accounting model
---------------------
Simulated CPU time is only consumed by ``Compute`` effects; service calls
(``Call`` effects) are instantaneous but may block the caller.  A guard
bounds the number of zero-time steps per tick so a body that never computes
cannot livelock the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.model import Partition, ProcessModel
from ..exceptions import (
    ProcessFaultError,
    SimulationError,
    UnknownProcessError,
)
from ..kernel.snapshot_schema import COUNTER, RAW, Each
from ..types import ProcessState, Ticks
from .effects import Call, Compute
from .tcb import Tcb, WaitCondition, WaitReason

__all__ = ["PartitionOs", "PosCallbacks"]

#: Upper bound on zero-simulated-time body steps within one tick.
_MAX_ZERO_TIME_STEPS = 1024


@dataclass
class PosCallbacks:
    """Hooks the PAL installs to observe and extend POS behaviour.

    * ``on_state_change(tcb, previous, reason)`` — every eq. (13) transition;
    * ``on_dispatch(now, previous_name, heir_name)`` — heir process changes;
    * ``on_release(tcb, release_tick)`` — a periodic process hit a release
      point; the PAL uses this to (re)register the new absolute deadline
      (Fig. 6);
    * ``on_completion(tcb)`` — a body ran to completion; the PAL unregisters
      its deadline;
    * ``on_fault(tcb, exc)`` — a body raised; routed to Health Monitoring.
    """

    on_state_change: Optional[Callable[[Tcb, ProcessState, str], None]] = None
    on_dispatch: Optional[Callable[[Ticks, Optional[str], Optional[str]], None]] = None
    on_release: Optional[Callable[[Tcb, Ticks], None]] = None
    on_completion: Optional[Callable[[Tcb], None]] = None
    on_fault: Optional[Callable[[Tcb, BaseException], None]] = None


class PartitionOs:
    """Base class for partition operating systems.

    Subclasses implement :meth:`choose_heir` — the policy selecting the heir
    process among the schedulable set ``Ready_m(t)`` (eq. (15)).

    Parameters
    ----------
    partition:
        The static partition model whose processes this POS manages.
    name:
        Kernel flavour label (e.g. ``"rtems"``, ``"generic"``), used in
        traces and VITRAL output.
    """

    #: Flavour label overridden by subclasses.
    kernel_name = "abstract"

    #: True when :meth:`next_quantum_tick` can ever return a bound.  The
    #: PAL horizon consults this flag to skip the call entirely for
    #: policies with no quantum concept (it is on the span-boundary hot
    #: path of the event-driven core).
    has_quantum_horizon = False

    #: True when :meth:`dispatch` is a function of the scheduling-state
    #: generation and the running process, so :meth:`execute_tick` may
    #: memoize it.  Policies whose heir choice carries per-call state
    #: (round-robin rotation) turn it off.
    memoizes_dispatch = True

    def __init__(self, partition: Partition) -> None:
        self.partition = partition
        self.callbacks = PosCallbacks()
        self._tcbs: Dict[str, Tcb] = {}
        self._ready_sequence = 0
        self._running: Optional[Tcb] = None
        self._preemption_lock = 0
        self._announced_ticks: Ticks = 0
        # Scheduling-state generation counter.  Every eq. (13) transition
        # funnels through Tcb.set_state -> _forward_state_change, so the
        # counter advances whenever the ready set, a wait condition or a
        # priority can have changed; the timer-horizon and dispatch
        # memos key on it.
        self._generation = 0
        self._timer_memo: Tuple[int, Optional[Ticks]] = (-1, None)
        self._dispatch_generation = -1
        #: Optional generator-resume observer — the cycle cache's
        #: recording tap (:mod:`repro.kernel.cycle_cache`): ``enter()``
        #: before every resume, ``(partition, process, send_value,
        #: effect)`` after every successful one.
        self._cycle_probe: Optional[Any] = None
        for model in partition.processes:
            self._tcbs[model.name] = Tcb(model=model, partition=partition.name)
        for tcb in self._tcbs.values():
            tcb.on_state_change = self._forward_state_change

    # -------------------------------------------------------------- #
    # introspection
    # -------------------------------------------------------------- #

    @property
    def name(self) -> str:
        """Partition this POS instance serves."""
        return self.partition.name

    @property
    def running(self) -> Optional[Tcb]:
        """The currently running process, if any."""
        return self._running

    @property
    def announced_ticks(self) -> Ticks:
        """Total ticks announced to this POS (its local notion of elapsed time)."""
        return self._announced_ticks

    def tcb(self, process_name: str) -> Tcb:
        """The TCB of *process_name*, or raise :class:`UnknownProcessError`."""
        try:
            return self._tcbs[process_name]
        except KeyError:
            raise UnknownProcessError(
                f"partition {self.name!r} has no process {process_name!r}"
            ) from None

    def tcbs(self) -> Tuple[Tcb, ...]:
        """All TCBs in declaration order."""
        return tuple(self._tcbs[m.name] for m in self.partition.processes)

    def add_process(self, model: ProcessModel) -> Tcb:
        """Dynamically create a process (APEX CREATE_PROCESS).

        ARINC 653 creates processes during partition initialization; the
        simulator also allows pre-declared models via the partition, so this
        is only needed for processes not in the static model.
        """
        if model.name in self._tcbs:
            raise SimulationError(
                f"partition {self.name!r}: process {model.name!r} already exists")
        tcb = Tcb(model=model, partition=self.name)
        tcb.on_state_change = self._forward_state_change
        self._tcbs[model.name] = tcb
        self._generation += 1
        return tcb

    def touch(self) -> None:
        """Invalidate scheduling memos after an out-of-band TCB mutation.

        For the rare services that change policy-relevant TCB fields
        *without* an eq. (13) state transition (APEX SET_PRIORITY).
        """
        self._generation += 1

    def ready_set(self) -> List[Tcb]:
        """``Ready_m(t)`` — eq. (15): processes in ready or running state."""
        return [tcb for tcb in self._tcbs.values() if tcb.is_schedulable]

    def has_schedulable(self) -> bool:
        """True when ``Ready_m(t)`` is non-empty (cheaper than building it).

        On the event-core horizon path; the unrolled state test avoids the
        per-TCB enum-property cost of :attr:`Tcb.is_schedulable`.
        """
        for tcb in self._tcbs.values():
            state = tcb.state
            if state is ProcessState.READY or state is ProcessState.RUNNING:
                return True
        return False

    # -------------------------------------------------------------- #
    # state transition services used by APEX and resources
    # -------------------------------------------------------------- #

    def next_ready_stamp(self) -> int:
        """Fresh antiquity sequence number for a transition into ``ready``."""
        self._ready_sequence += 1
        return self._ready_sequence

    def make_ready(self, tcb: Tcb, *, reason: str,
                   preserve_antiquity: bool = False) -> None:
        """Move *tcb* to ``ready``.

        ``preserve_antiquity`` keeps the previous :attr:`Tcb.ready_since`
        stamp — used when a *preempted* process returns to ready, so it
        keeps its seniority (the eq. (14) convention that processes are
        sorted by antiquity in the ready state).
        """
        stamp = tcb.ready_since if preserve_antiquity else self.next_ready_stamp()
        tcb.set_state(ProcessState.READY, reason=reason, ready_sequence=stamp)
        if self._running is tcb:
            self._running = None

    def block_running(self, condition: WaitCondition, *, reason: str) -> Tcb:
        """Block the currently running process under *condition*."""
        if self._running is None:
            raise SimulationError(
                f"partition {self.name!r}: no running process to block")
        tcb = self._running
        tcb.block(condition, reason=reason)
        self._running = None
        return tcb

    def stop_process(self, tcb: Tcb, *, reason: str) -> None:
        """Force *tcb* to ``dormant`` (APEX STOP / HM recovery action)."""
        if tcb.wait is not None and tcb.wait.resource is not None:
            cancel = getattr(tcb.wait.resource, "cancel_wait", None)
            if cancel is not None:
                cancel(tcb)
        tcb.set_state(ProcessState.DORMANT, reason=reason)
        tcb.reset_runtime()
        if self._running is tcb:
            self._running = None

    def wake(self, tcb: Tcb, *, result: Any = None, reason: str = "") -> None:
        """Wake a waiting process, delivering *result* to its next resume."""
        if tcb.state is not ProcessState.WAITING:
            raise SimulationError(
                f"process {self.name}/{tcb.name} is not waiting "
                f"(state={tcb.state.value})")
        tcb.pending_result = result
        tcb.has_pending_result = True
        self.make_ready(tcb, reason=reason or "woken")

    # -------------------------------------------------------------- #
    # preemption locking (APEX LOCK_PREEMPTION/UNLOCK_PREEMPTION)
    # -------------------------------------------------------------- #

    @property
    def preemption_locked(self) -> bool:
        """True while a process holds the preemption lock."""
        return self._preemption_lock > 0

    def lock_preemption(self) -> int:
        """Increase the preemption lock level; returns the new level."""
        self._preemption_lock += 1
        return self._preemption_lock

    def unlock_preemption(self) -> int:
        """Decrease the preemption lock level; returns the new level."""
        if self._preemption_lock == 0:
            raise SimulationError(
                f"partition {self.name!r}: preemption lock underflow")
        self._preemption_lock -= 1
        return self._preemption_lock

    # -------------------------------------------------------------- #
    # timer bookkeeping (driven by PAL tick announcements — Fig. 7)
    # -------------------------------------------------------------- #

    def announce_ticks(self, now: Ticks, elapsed: Ticks) -> None:
        """Process the passage of *elapsed* ticks ending at *now*.

        Invoked by the PAL's surrogate clock tick announcement routine
        (Fig. 7a: the native announcement is invoked ``#elapsedTicks``
        times).  Wakes timed waits whose expiry fell within the announced
        span and releases periodic processes.

        The scan is guarded by the memoized timer horizon: when no timed
        wait can have expired (the common case on a busy tick), the
        announcement is pure elapsed-time bookkeeping.  The guard cannot
        change behaviour — the scan below wakes exactly the waits with
        ``wake_at <= now``, and the horizon is their minimum.
        """
        self._announced_ticks += elapsed
        wake = self.next_timer_tick()
        if wake is None or wake > now:
            return
        self._wake_expired(now)

    def _wake_expired(self, now: Ticks) -> None:
        """Wake every timed wait whose expiry tick has been reached."""
        for tcb in self._tcbs.values():
            if tcb.state is not ProcessState.WAITING or tcb.wait is None:
                continue
            wait = tcb.wait
            if wait.wake_at is None or wait.wake_at > now:
                continue
            if wait.reason is WaitReason.DELAY:
                tcb.pending_result = None
                tcb.has_pending_result = True
                self.make_ready(tcb, reason="delay expired")
            elif wait.reason is WaitReason.PERIOD:
                self._release_periodic(tcb, wait.wake_at)
            elif wait.reason is WaitReason.RESOURCE:
                wait.timed_out = True
                resource = wait.resource
                if resource is not None:
                    on_timeout = getattr(resource, "on_wait_timeout", None)
                    if on_timeout is not None:
                        on_timeout(tcb)
                self.make_ready(tcb, reason="resource wait timed out")
            # SUSPENDED has wake_at only for SUSPEND with timeout:
            elif wait.reason is WaitReason.SUSPENDED:
                tcb.pending_result = None
                tcb.has_pending_result = True
                self.make_ready(tcb, reason="suspension timed out")

    def next_timer_tick(self) -> Optional[Ticks]:
        """Earliest pending timed wake-up among this POS's processes.

        The POS timer horizon for the event-driven core: no delay expiry,
        periodic release, resource timeout or timed-suspension wake can
        happen strictly before the returned tick, so
        :meth:`announce_ticks` is pure bookkeeping until then.  None when
        every wait is purely event-driven.  O(n) over the (small) TCB set,
        but memoized on the scheduling-state generation: wait conditions
        only change through :meth:`Tcb.set_state` transitions (wake-at
        values are fixed at :class:`WaitCondition` construction), so the
        scan is repaid only after a transition.
        """
        generation = self._generation
        memo_generation, memo_tick = self._timer_memo
        if memo_generation == generation:
            return memo_tick
        earliest: Optional[Ticks] = None
        for tcb in self._tcbs.values():
            if tcb.state is not ProcessState.WAITING or tcb.wait is None:
                continue
            wake_at = tcb.wait.wake_at
            if wake_at is not None and (earliest is None or wake_at < earliest):
                earliest = wake_at
        self._timer_memo = (generation, earliest)
        return earliest

    def announce_span(self, elapsed: Ticks) -> None:
        """Batch form of :meth:`announce_ticks` for a provably quiet span.

        The caller (the event-driven core) guarantees no timed wake-up
        falls inside the span (its end is bounded by
        :meth:`next_timer_tick`), so only the elapsed-time bookkeeping
        remains.
        """
        self._announced_ticks += elapsed

    def _release_periodic(self, tcb: Tcb, release_tick: Ticks) -> None:
        """Release a periodic process at *release_tick* (its release point)."""
        tcb.release_count += 1
        tcb.next_release = release_tick + tcb.model.period
        tcb.pending_result = None
        tcb.has_pending_result = True
        self.make_ready(tcb, reason="release point")
        if self.callbacks.on_release is not None:
            self.callbacks.on_release(tcb, release_tick)

    # -------------------------------------------------------------- #
    # scheduling and execution
    # -------------------------------------------------------------- #

    def choose_heir(self, now: Ticks) -> Optional[Tcb]:
        """Select ``heir_m(t)`` among :meth:`ready_set` — policy hook.

        May be invoked several times per tick (once per zero-time body
        step), so implementations must be side-effect free with respect to
        time accounting; use :meth:`on_tick_consumed` for per-tick state.
        """
        raise NotImplementedError

    def on_tick_consumed(self, tcb: Tcb) -> None:
        """Hook: *tcb* consumed one tick of CPU (quantum accounting).

        Subclasses overriding this must override :meth:`on_span_consumed`
        with the equivalent batch update, or batched execution diverges
        from per-tick execution.
        """

    def on_span_consumed(self, tcb: Tcb, ticks: Ticks) -> None:
        """Batch form of :meth:`on_tick_consumed`: *ticks* consumed at once."""

    def next_quantum_tick(self, now: Ticks) -> Optional[Ticks]:
        """First tick at which the policy could preempt the running process.

        The POS scheduling-policy horizon for the event-driven core.  The
        base policy hooks never preempt a computing process between
        preemption-relevant events, so there is no bound; quantum-driven
        policies (:class:`~repro.pos.generic.GenericPos`) override this
        with their round-robin expiry.
        """
        return None

    def dispatch(self, now: Ticks) -> Optional[Tcb]:
        """Apply the policy and effect the process-level context switch.

        Honours the preemption lock: while locked, the running process is
        kept if still schedulable.  Returns the (possibly unchanged) heir.
        """
        current = self._running
        if (self.preemption_locked and current is not None
                and current.is_schedulable):
            return current
        heir = self.choose_heir(now)
        if heir is current:
            return heir
        previous_name = current.name if current is not None else None
        if current is not None and current.state is ProcessState.RUNNING:
            # Preempted: back to ready, seniority preserved (eq. (14)).
            self.make_ready(current, reason="preempted", preserve_antiquity=True)
        if heir is not None:
            heir.set_state(ProcessState.RUNNING, reason="dispatched")
        self._running = heir
        if self.callbacks.on_dispatch is not None:
            self.callbacks.on_dispatch(now, previous_name,
                                       heir.name if heir else None)
        return heir

    def execute_tick(self, now: Ticks) -> Optional[str]:
        """Run the partition's processes for one tick of window time.

        Returns the name of the process that consumed the tick, or ``None``
        if the partition idled (no schedulable process).

        Dispatch is memoized on the scheduling-state generation: when
        nothing scheduling-relevant changed since the last dispatch,
        :meth:`dispatch` provably keeps the running process and performs
        no transition or callback, so the memo skips it.  The memo is
        never stored or used under the preemption lock (the heir then
        depends on the lock, which has no generation), nor by policies
        with :attr:`memoizes_dispatch` off.
        """
        for _ in range(_MAX_ZERO_TIME_STEPS):
            if self._dispatch_generation == self._generation \
                    and not self._preemption_lock:
                heir = self._running
            else:
                heir = self.dispatch(now)
                if self.memoizes_dispatch and not self._preemption_lock:
                    self._dispatch_generation = self._generation
            if heir is None:
                return None
            if heir.compute_remaining > 0:
                heir.compute_remaining -= 1
                self.on_tick_consumed(heir)
                return heir.name
            self._advance_body(heir, now)
        raise SimulationError(
            f"partition {self.name!r}: livelock — more than "
            f"{_MAX_ZERO_TIME_STEPS} zero-time steps at tick {now}")

    def execute_span(self, ticks: Ticks) -> Optional[str]:
        """Charge *ticks* window ticks as one batch — the event-core form
        of *ticks* consecutive :meth:`execute_tick` calls over a uniform
        span.

        The caller guarantees uniformity: the running process (if any) has
        at least *ticks* of ``Compute`` budget left and no wake-up,
        release, deadline event, policy preemption or partition preemption
        point falls inside the span — so each per-tick dispatch would have
        returned the same heir and each tick would only have decremented
        its budget.  With no running process the ready set is empty and
        the partition idles in-window.  Returns the name of the process
        charged, or None.
        """
        running = self._running
        if running is None:
            return None
        running.compute_remaining -= ticks
        self.on_span_consumed(running, ticks)
        return running.name

    def _advance_body(self, tcb: Tcb, now: Ticks) -> None:
        """Drive *tcb*'s generator until it computes, blocks or completes."""
        if tcb.generator is None:
            raise SimulationError(
                f"process {self.name}/{tcb.name} is running with no body "
                f"(was START invoked?)")
        send_value = None
        if tcb.has_pending_result:
            send_value = tcb.pending_result
            tcb.pending_result = None
            tcb.has_pending_result = False
        if not tcb.body_started:
            # A just-started generator can only receive None; a result
            # delivered before the body's first yield (e.g. a sporadic
            # activation) has no consumer and is dropped.
            send_value = None
            tcb.body_started = True
        for _ in range(_MAX_ZERO_TIME_STEPS):
            # The resume log records every value fed to the generator so a
            # simulator snapshot can rebuild it later by replaying the
            # same send sequence into a fresh instance of the body.
            tcb.resume_log.append(send_value)
            probe = self._cycle_probe
            if probe is not None:
                probe.enter()
            try:
                effect = tcb.generator.send(send_value)
            except StopIteration:
                self._complete(tcb)
                return
            except Exception as exc:  # application fault containment
                self._fault(tcb, exc)
                return
            if probe is not None:
                probe(self.name, tcb.name, send_value, effect)
            send_value = None
            if isinstance(effect, Compute):
                tcb.compute_remaining = effect.ticks
                return
            if isinstance(effect, Call):
                try:
                    result = effect.invoke()
                except Exception as exc:
                    self._fault(tcb, exc)
                    return
                if tcb.state is ProcessState.RUNNING:
                    send_value = result
                    continue
                # The service blocked or stopped the caller; deliver the
                # result (often refined by the waker) at resume time.
                if not tcb.has_pending_result:
                    tcb.pending_result = result
                    tcb.has_pending_result = True
                return
            self._fault(tcb, SimulationError(
                f"process body yielded unknown effect {effect!r}"))
            return
        raise SimulationError(
            f"process {self.name}/{tcb.name}: body issued more than "
            f"{_MAX_ZERO_TIME_STEPS} service calls without computing")

    def _complete(self, tcb: Tcb) -> None:
        """Body returned: the process terminates into ``dormant``."""
        tcb.completed = True
        tcb.set_state(ProcessState.DORMANT, reason="completed")
        tcb.generator = None
        if self._running is tcb:
            self._running = None
        if self.callbacks.on_completion is not None:
            self.callbacks.on_completion(tcb)

    def _fault(self, tcb: Tcb, exc: BaseException) -> None:
        """Body raised: contain the fault and report it (Sect. 2.4)."""
        tcb.set_state(ProcessState.DORMANT, reason=f"fault: {exc}")
        tcb.generator = None
        if self._running is tcb:
            self._running = None
        if self.callbacks.on_fault is not None:
            self.callbacks.on_fault(tcb, exc)
        else:
            raise ProcessFaultError(
                f"unhandled fault in {self.name}/{tcb.name}: {exc}",
                partition=self.name, process=tcb.name, cause=exc)

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    SNAPSHOT_SCHEMA = {"tcbs": Each(Tcb.SNAPSHOT_SCHEMA),
                       "ready_sequence": COUNTER, "running": RAW,
                       "preemption_lock": RAW, "announced_ticks": COUNTER}

    def snapshot(self, resource_ref: Callable[[object], Any]) -> dict:
        """Capture all POS scheduling state as pure data.

        *resource_ref* symbolically encodes the resource objects inside
        TCB wait conditions (see :meth:`Tcb.snapshot`).
        """
        return {
            "tcbs": {name: tcb.snapshot(resource_ref)
                     for name, tcb in self._tcbs.items()},
            "ready_sequence": self._ready_sequence,
            "running": self._running.name if self._running else None,
            "preemption_lock": self._preemption_lock,
            "announced_ticks": self._announced_ticks,
        }

    def restore(self, state: dict, *,
                resolve_resource: Callable[[Any], object],
                rebuild_body: Callable[[Tcb, List[Any]], None]) -> None:
        """Overlay a :meth:`snapshot` capture onto this POS.

        *rebuild_body* reconstructs a TCB's generator by re-instantiating
        its body and replaying the given resume log (supplied by the
        snapshot orchestrator, which owns the APEX context wiring); it runs
        before the TCB field overlay so the overlay always wins.
        """
        for name, tcb_state in state["tcbs"].items():
            tcb = self._tcbs.get(name)
            if tcb is None:
                tcb = self.add_process(tcb_state["model"])
            if tcb_state["has_generator"]:
                rebuild_body(tcb, list(tcb_state["resume_log"]))
            else:
                tcb.generator = None
            tcb.restore(tcb_state, resolve_resource)
        self._ready_sequence = state["ready_sequence"]
        running = state["running"]
        self._running = self._tcbs[running] if running is not None else None
        self._preemption_lock = state["preemption_lock"]
        self._announced_ticks = state["announced_ticks"]
        # Tcb.restore writes states directly (bypassing set_state), so the
        # memos must be invalidated explicitly.
        self._generation += 1

    # -------------------------------------------------------------- #
    # internals
    # -------------------------------------------------------------- #

    def _forward_state_change(self, tcb: Tcb, previous: ProcessState,
                              reason: str) -> None:
        self._generation += 1
        if self.callbacks.on_state_change is not None:
            self.callbacks.on_state_change(tcb, previous, reason)
