"""Deterministic simulator checkpoints: capture, pickle, fork, resume.

A :class:`SimulatorSnapshot` captures the *complete* deterministic state of
a :class:`~repro.kernel.simulator.Simulator` at a tick boundary — scheduler
iterator position, per-partition runtime/POS/process state, deadline
structures, port queues and in-flight router messages, Health Monitor and
FDIR supervision history, watchdog deadlines, every rng stream, and the
trace recorded so far — as *pure data*: no live object graph, no
``deepcopy``.  Each component contributes an explicit ``snapshot()`` /
``restore()`` pair, which keeps the capture honest (a new piece of mutable
state must be added to its component's snapshot or the fork-equivalence
tests fail loudly) and makes snapshots picklable across process boundaries.
The trace section is the one part that is not plain data: it holds the
recorded event objects themselves, which are immutable, so every fork
shares them; pickling writes them as plain tuples
(:meth:`Trace.pack_state`).  Beside the live capture, never in it, sits
the running sha256 of the trace prefix: each fork's trace continues a
copy of it, and an unpickled checkpoint rebuilds it on its first fork.

The two deliberately non-data pieces of simulator state are encoded
symbolically and reconstructed on restore:

* **process generators** — Python generators cannot be pickled, so each
  TCB records the sequence of values its generator consumed
  (``Tcb.resume_log``); restore re-instantiates the body from its factory
  and replays that sequence, discarding the yielded effects (their side
  effects already live in the captured state, which is overlaid on top);
* **closures** — wait-condition resources and in-flight delivery callbacks
  are captured as ``(kind, name)`` / destination-port references and
  resolved against the freshly built simulator.

Restore is *structural re-init + state overlay*: build a fresh
``Simulator(config)`` from a configuration equal to the captured one
(configurations hold process bodies and init hooks — closures — so they
are intentionally **not** part of the snapshot; the caller supplies one),
replay each initialized partition's initialization sequence to rebuild
wiring, then overlay every component's captured state.  The contract,
enforced by the fork-equivalence test matrix, is bit-identical
continuation: a forked simulator's trace digest, metrics digest and oracle
verdict equal those of an uninterrupted run from tick 0.

One snapshot can be restored any number of times — each call builds an
independent continuation, which is what makes prefix-sharing campaign
scheduling (:mod:`repro.campaign.prefix`) possible.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..config.schema import SystemConfig
from ..exceptions import SimulationError
from ..types import Ticks
from .simulator import Simulator
from .trace import Trace

__all__ = ["SNAPSHOT_VERSION", "SimulatorSnapshot", "config_identity"]

#: Bumped whenever the snapshot layout changes incompatibly.
#: v2: trace events are tuple-encoded (see :meth:`Trace.pack_state`).
#: v3: optional ``extras`` side-channel (e.g. the fault injector's
#: applied log for snapshot-after-applied-faults prefix sharing).
SNAPSHOT_VERSION = 3


def config_identity(config: SystemConfig) -> Dict[str, Any]:
    """Cheap structural fingerprint of *config* for restore validation.

    Restoring a snapshot onto a configuration that differs structurally
    from the captured one would silently corrupt the continuation; this
    identity check catches the obvious mismatches (it is a guard, not a
    cryptographic digest — the campaign layer keys its snapshot cache on
    the full scenario fingerprint).
    """
    model = config.model
    return {
        "seed": config.seed,
        "partitions": tuple(model.partition_names),
        "schedules": tuple(sorted(s.schedule_id for s in model.schedules)),
        "initial_schedule": model.initial_schedule,
    }


@dataclass(frozen=True)
class SimulatorSnapshot:
    """One checkpoint of a simulator, forkable into any number of runs."""

    version: int
    tick: Ticks
    identity: Dict[str, Any]
    time: Dict[str, Any]
    trace: Dict[str, Any]
    pmk: Dict[str, Any]
    #: Caller-owned side-channel riding along with the checkpoint — pure
    #: data, ignored by :meth:`restore`.  The campaign layer uses it to
    #: carry the fault injector's applied log for checkpoints taken
    #: *after* faults fired (interior divergence-trie nodes), so a forked
    #: continuation can seed its injector instead of re-applying.
    extras: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------ #
    # capture
    # ------------------------------------------------------------ #

    @classmethod
    def capture(cls, sim: Simulator, *,
                extras: Optional[Dict[str, Any]] = None
                ) -> "SimulatorSnapshot":
        """Checkpoint *sim* at its current tick (any tick boundary).

        *extras* attaches caller-owned pure data (it must pickle) to the
        checkpoint; the simulator state capture is unaffected by it.
        """
        return cls(version=SNAPSHOT_VERSION,
                   tick=sim.time.now,
                   identity=config_identity(sim.config),
                   time=sim.time.snapshot(),
                   trace=sim.trace.snapshot(),
                   pmk=sim.pmk.snapshot(),
                   extras=extras)

    def provenance(self) -> Dict[str, Any]:
        """JSON-ready identity of this checkpoint for post-mortem bundles.

        What a flight recorder needs to answer "what state did this run
        fork from": layout version, capture tick, the structural config
        identity, and whether an injector log rode along in ``extras`` —
        never the state payload itself (bundles must stay small and
        diffable).
        """
        identity = dict(self.identity)
        for key, value in identity.items():
            if isinstance(value, tuple):
                identity[key] = list(value)
        return {
            "version": self.version,
            "tick": self.tick,
            "identity": identity,
            "trace_events": len(self.trace.get("events", ()))
            if isinstance(self.trace, dict) else None,
            "carries_injector_state": bool(
                self.extras and "injector" in self.extras),
        }

    # ------------------------------------------------------------ #
    # fork / resume
    # ------------------------------------------------------------ #

    def restore(self, config: SystemConfig) -> Simulator:
        """Build a fresh simulator continuing from this checkpoint.

        *config* must be structurally equal to the captured simulator's
        configuration (same seed, partitions and schedules) — it carries
        the process bodies and init hooks the snapshot intentionally
        excludes.  Overlay order matters: time first (replay runs under
        the checkpoint clock), then the PMK (initialization replay and
        body reconstruction happen inside), then the trace — wholesale,
        erasing any events the replays emitted — which continues this
        checkpoint's running digest hash instead of re-hashing the
        prefix.

        The continuation is a default :class:`Simulator`, cycle cache
        armed; cache state is host-side and never captured.
        """
        if self.version != SNAPSHOT_VERSION:
            raise SimulationError(
                f"snapshot version {self.version} != supported "
                f"{SNAPSHOT_VERSION}")
        identity = config_identity(config)
        if identity != self.identity:
            raise SimulationError(
                f"snapshot/config mismatch: captured {self.identity}, "
                f"restoring onto {identity}")
        sim = Simulator(config)
        sim.time.restore(self.time)
        sim.pmk.restore(self.pmk)
        sim.trace.restore(self.trace)
        sim.trace.adopt_hash(self._trace_hash())
        return sim

    def _trace_hash(self):
        """The running hash of the captured trace prefix
        (:meth:`Trace.prefix_hash`), computed on first use and kept
        beside this live checkpoint — never pickled — so a checkpoint
        hashes its prefix at most once however often it is forked."""
        try:
            return self.__dict__["_prefix_hash"]
        except KeyError:
            running = Trace.prefix_hash(self.trace)
            object.__setattr__(self, "_prefix_hash", running)
            return running

    # ------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------ #

    def __getstate__(self) -> Dict[str, Any]:
        # The live trace section holds shared event objects; the pickled
        # form is the v2 tuple encoding (see :meth:`Trace.pack_state`).
        state = dict(self.__dict__)
        state.pop("_prefix_hash", None)
        state["trace"] = Trace.pack_state(self.trace)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        state = dict(state)
        state["trace"] = Trace.unpack_state(state["trace"])
        self.__dict__.update(state)

    def to_bytes(self) -> bytes:
        """Serialize for caching or shipping to a worker process.

        Pickle at the highest protocol; inverse: :meth:`from_bytes`.
        """
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "SimulatorSnapshot":
        """Inverse of :meth:`to_bytes`."""
        snapshot = pickle.loads(payload)
        if not isinstance(snapshot, cls):
            raise SimulationError(
                f"payload does not contain a {cls.__name__}")
        return snapshot
