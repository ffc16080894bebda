"""Interrupt vector management for the simulated platform.

The system clock interrupt drives everything in AIR: the PMK's Partition
Scheduler and Dispatcher execute in the clock interrupt service routine
(ISR), and the PAL's surrogate tick-announcement (Fig. 7) — including
deadline verification (Algorithm 3) — runs there too.  This module provides
the vector table that binds them, and enforces the ownership rule from
Sect. 2.5: the clock vector belongs to the PMK, and guest attempts to rebind
or mask it are trapped, not honoured.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..exceptions import ClockTamperingError, SimulationError
from ..types import Ticks

__all__ = ["Vector", "InterruptController", "IsrRegistration"]


class Vector(enum.Enum):
    """Interrupt vectors of the simulated platform.

    Members hash by identity: ``Enum.__hash__`` runs in Python (it hashes
    the member name), and every vector-table lookup of the clock ISR
    would pay for it.  Members are singletons that compare by identity
    anyway, so the tables behave the same.
    """

    __hash__ = object.__hash__

    CLOCK = "clock"
    MEMORY_FAULT = "memoryFault"
    ILLEGAL_INSTRUCTION = "illegalInstruction"
    EXTERNAL_IO = "externalIo"


@dataclass(frozen=True)
class IsrRegistration:
    """Bookkeeping for one installed interrupt service routine."""

    vector: Vector
    owner: str
    handler: Callable[[], None]


class _VectorSlot:
    """One vector's table entry: its handler chain (a tuple, replaced on
    every install or uninstall, so a delivery in progress keeps the chain
    it started with), its mask bit and its delivery count."""

    __slots__ = ("chain", "masked", "count")

    def __init__(self) -> None:
        self.chain: Tuple[IsrRegistration, ...] = ()
        self.masked = False
        self.count = 0


class InterruptController:
    """Vector table with PMK-owned clock vector.

    Handlers are installed with an *owner* label.  Only the owner ``"PMK"``
    may bind :attr:`Vector.CLOCK`; any other owner attempting it triggers
    the paravirtualization trap (recorded, and raised as
    :class:`ClockTamperingError` so the POS adaptation layer can route it to
    Health Monitoring).  Multiple handlers may chain on a vector; they run
    in installation order.  Each vector's chain, mask bit and delivery
    count sit in one slot, so a delivery makes one table lookup.
    """

    PMK_OWNER = "PMK"

    def __init__(self) -> None:
        self._slots: Dict[Vector, _VectorSlot] = {
            vector: _VectorSlot() for vector in Vector}

    def install(self, vector: Vector, handler: Callable[[], None], *,
                owner: str) -> IsrRegistration:
        """Bind *handler* to *vector* on behalf of *owner*.

        Raises :class:`ClockTamperingError` if a non-PMK owner touches the
        clock vector (Sect. 2.5 protection).
        """
        if vector is Vector.CLOCK and owner != self.PMK_OWNER:
            raise ClockTamperingError(
                f"{owner!r} attempted to install a handler on the clock "
                f"vector; only the PMK owns it",
                partition=owner, operation="install_clock_isr")
        registration = IsrRegistration(vector=vector, owner=owner,
                                       handler=handler)
        self._slots[vector].chain += (registration,)
        return registration

    def uninstall(self, registration: IsrRegistration) -> None:
        """Remove a previously installed handler."""
        slot = self._slots[registration.vector]
        chain = list(slot.chain)
        try:
            chain.remove(registration)
        except ValueError:
            raise SimulationError(
                f"handler by {registration.owner!r} on "
                f"{registration.vector.value} is not installed") from None
        slot.chain = tuple(chain)

    def mask(self, vector: Vector, *, owner: str) -> None:
        """Mask *vector*.  The clock vector may only be masked by the PMK."""
        if vector is Vector.CLOCK and owner != self.PMK_OWNER:
            raise ClockTamperingError(
                f"{owner!r} attempted to mask the clock interrupt",
                partition=owner, operation="mask_clock")
        self._slots[vector].masked = True

    def unmask(self, vector: Vector) -> None:
        """Unmask *vector*."""
        self._slots[vector].masked = False

    def is_masked(self, vector: Vector) -> bool:
        """True if *vector* is currently masked."""
        return self._slots[vector].masked

    def raise_interrupt(self, vector: Vector) -> int:
        """Deliver *vector*: run its handler chain unless masked.

        Returns the number of handlers that ran.
        """
        slot = self._slots[vector]
        if slot.masked:
            return 0
        chain = slot.chain
        for registration in chain:
            registration.handler()
        slot.count += 1
        return len(chain)

    def handlers_on(self, vector: Vector) -> Tuple[IsrRegistration, ...]:
        """Currently installed handlers on *vector*, in chain order."""
        return self._slots[vector].chain

    def sole_handler(self, vector: Vector) -> Optional[Callable[[], None]]:
        """The handler on *vector* when it is the only one and the vector
        is unmasked, else None: delivering *vector* then amounts to
        calling it (and counting the delivery)."""
        slot = self._slots[vector]
        chain = slot.chain
        if len(chain) == 1 and not slot.masked:
            return chain[0].handler
        return None

    def dispatch_count(self, vector: Vector) -> int:
        """How many times *vector* has been delivered (unmasked)."""
        return self._slots[vector].count

    def account_bypassed(self, vector: Vector, count: int) -> None:
        """Settle *count* deliveries made by calling the vector's one
        handler directly (the default clock wiring, see
        :meth:`~repro.kernel.simulator.Simulator.run_fast`), so
        :meth:`dispatch_count` reads as if each went through the table."""
        self._slots[vector].count += count
