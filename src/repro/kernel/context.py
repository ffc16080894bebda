"""Execution contexts for partition context switching (Algorithm 2).

A real PMK saves and restores processor state (registers, MMU configuration)
on every partition preemption point.  In the simulation, a partition's
"processor state" is the identity of its running process plus an opaque
scratch area owned by its POS; the :class:`ContextBank` implements the
``SAVECONTEXT``/``RESTORECONTEXT`` pair of Algorithm 2 (lines 4 and 8) and
tracks the per-partition ``lastTick`` bookkeeping used to compute
``elapsedTicks`` (lines 5-6), which the PAL later uses to announce the
passage of time to the POS (Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..exceptions import SimulationError
from ..types import Ticks
from .snapshot_schema import COUNTER, RAW, TICK, Each

__all__ = ["PartitionContext", "ContextBank"]


@dataclass
class PartitionContext:
    """Saved state of one partition between its execution windows.

    Attributes
    ----------
    partition:
        Owning partition name.
    last_tick:
        Algorithm 2's ``lastTick``: the final tick during which the
        partition held the processor (set on save, line 5).
    running_process:
        Name of the process that held the CPU when the context was saved;
        restored verbatim so execution resumes exactly where it stopped.
    scratch:
        Opaque POS-owned state (e.g. scheduler bookkeeping) carried across
        windows.  The PMK never interprets it — spatial separation applies
        to the kernel's own data structures too.
    save_count / restore_count:
        Instrumentation for tests and benches.
    """

    partition: str
    last_tick: Ticks = 0
    running_process: Optional[str] = None
    scratch: Dict[str, object] = field(default_factory=dict)
    save_count: int = 0
    restore_count: int = 0


class ContextBank:
    """Holds every partition's saved context; enforces single-owner switching.

    The bank refuses to restore a context that is already live (double
    dispatch) and to save one that is not — both would indicate a scheduler
    bug, and the paper's robustness argument rests on the dispatcher being
    exactly right.
    """

    def __init__(self) -> None:
        self._contexts: Dict[str, PartitionContext] = {}
        self._live: Optional[str] = None

    def register(self, partition: str) -> PartitionContext:
        """Create the context slot for *partition* (done once, at startup)."""
        if partition in self._contexts:
            raise SimulationError(
                f"context for partition {partition!r} already registered")
        context = PartitionContext(partition=partition)
        self._contexts[partition] = context
        return context

    def context_of(self, partition: str) -> PartitionContext:
        """The saved (or live) context of *partition*."""
        try:
            return self._contexts[partition]
        except KeyError:
            raise SimulationError(
                f"no context registered for partition {partition!r}") from None

    @property
    def live_partition(self) -> Optional[str]:
        """Partition whose context is currently loaded on the (virtual) CPU."""
        return self._live

    def save(self, partition: str, *, tick: Ticks,
             running_process: Optional[str]) -> PartitionContext:
        """SAVECONTEXT(activePartition.context) — Algorithm 2, line 4.

        Also applies line 5: ``activePartition.lastTick <- ticks - 1``
        (the caller passes ``tick`` as the *current* tick; the partition's
        last owned tick was the one before the preemption point).
        """
        if self._live != partition:
            raise SimulationError(
                f"cannot save context of {partition!r}: live partition is "
                f"{self._live!r}")
        context = self.context_of(partition)
        context.last_tick = tick - 1
        context.running_process = running_process
        context.save_count += 1
        self._live = None
        return context

    def restore(self, partition: str) -> PartitionContext:
        """RESTORECONTEXT(heirPartition.context) — Algorithm 2, line 8."""
        if self._live is not None:
            raise SimulationError(
                f"cannot restore context of {partition!r}: partition "
                f"{self._live!r} is still live (missing save)")
        context = self.context_of(partition)
        context.restore_count += 1
        self._live = partition
        return context

    def release(self) -> None:
        """Mark the CPU as running no partition (idle gap), without a save.

        Used when transitioning into an idle window from system start,
        where there is no active partition context to save.
        """
        self._live = None

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    SNAPSHOT_SCHEMA = {
        "live": RAW,
        "contexts": Each({"last_tick": TICK, "running_process": RAW,
                          "scratch": RAW, "save_count": COUNTER,
                          "restore_count": COUNTER}),
    }

    def snapshot(self) -> dict:
        """Capture every partition context and the live marker as pure data.

        ``scratch`` is POS-owned plain data; it is copied shallowly (the
        POSs in this model only store scalars there, if anything).
        """
        return {
            "live": self._live,
            "contexts": {
                name: {"last_tick": ctx.last_tick,
                       "running_process": ctx.running_process,
                       "scratch": dict(ctx.scratch),
                       "save_count": ctx.save_count,
                       "restore_count": ctx.restore_count}
                for name, ctx in self._contexts.items()},
        }

    def restore_state(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture onto registered contexts.

        (Named ``restore_state`` because :meth:`restore` is Algorithm 2's
        RESTORECONTEXT.)
        """
        self._live = state["live"]
        for name, ctx_state in state["contexts"].items():
            context = self.context_of(name)
            context.last_tick = ctx_state["last_tick"]
            context.running_process = ctx_state["running_process"]
            context.scratch = dict(ctx_state["scratch"])
            context.save_count = ctx_state["save_count"]
            context.restore_count = ctx_state["restore_count"]
