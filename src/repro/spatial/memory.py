"""Simulated physical memory accessed through the MMU.

:class:`MemoryBus` is the only way simulated code touches memory: every
read/write names the access kind and privilege level and is checked by the
:class:`~repro.spatial.mmu.Mmu` *before* any byte moves — a denied access
leaves memory untouched (zero silent corruption, the containment property
experiment E8 asserts).

It also provides :meth:`pmk_copy`, the PMK-mediated memory-to-memory copy
used for local interpartition communication (Sect. 2.1): the copy checks
*read* rights in the source partition's context and *write* rights in the
destination's, at PMK privilege, "not violating spatial separation
requirements".
"""

from __future__ import annotations

from typing import Optional

from ..exceptions import ConfigurationError
from ..types import AccessKind, PrivilegeLevel
from .mmu import Mmu

__all__ = ["PhysicalMemory", "MemoryBus"]


class PhysicalMemory:
    """Flat byte-addressable memory of a configurable size."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ConfigurationError(f"memory size must be positive, got {size}")
        self.size = size
        # Zeroed on first access: most simulators never move a byte (a
        # denied access traps first), and zero-filling the whole module's
        # memory is a measurable share of building one.
        self._bytes: Optional[bytearray] = None

    def _store(self) -> bytearray:
        if self._bytes is None:
            self._bytes = bytearray(self.size)
        return self._bytes

    def raw_read(self, address: int, length: int) -> bytes:
        """Unchecked read (PMK internals and tests only)."""
        self._bounds(address, length)
        return bytes(self._store()[address:address + length])

    def raw_write(self, address: int, data: bytes) -> None:
        """Unchecked write (PMK internals and tests only)."""
        self._bounds(address, len(data))
        self._store()[address:address + len(data)] = data

    def _bounds(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.size:
            raise ConfigurationError(
                f"physical access [{address:#x},{address + length:#x}) "
                f"outside memory of size {self.size:#x}")


class MemoryBus:
    """MMU-checked access path to physical memory."""

    def __init__(self, memory: PhysicalMemory, mmu: Mmu) -> None:
        self.memory = memory
        self.mmu = mmu

    def read(self, address: int, length: int = 1, *,
             level: PrivilegeLevel = PrivilegeLevel.APPLICATION,
             partition: Optional[str] = None) -> bytes:
        """Checked read in the active (or named) partition context."""
        self.mmu.check(address, AccessKind.READ, level,
                       partition=partition, length=length)
        return self.memory.raw_read(address, length)

    def write(self, address: int, data: bytes, *,
              level: PrivilegeLevel = PrivilegeLevel.APPLICATION,
              partition: Optional[str] = None) -> None:
        """Checked write in the active (or named) partition context."""
        self.mmu.check(address, AccessKind.WRITE, level,
                       partition=partition, length=len(data))
        self.memory.raw_write(address, data)

    def execute(self, address: int, *,
                level: PrivilegeLevel = PrivilegeLevel.APPLICATION,
                partition: Optional[str] = None) -> None:
        """Checked instruction fetch (no data transfer in the simulation)."""
        self.mmu.check(address, AccessKind.EXECUTE, level,
                       partition=partition, length=1)

    def pmk_copy(self, *, source_partition: str, source_address: int,
                 destination_partition: str, destination_address: int,
                 length: int) -> None:
        """Interpartition memory-to-memory copy mediated by the PMK.

        Source bytes must be readable in the source partition's context and
        the destination range writable in the destination's, both at PMK
        privilege; only then does the copy proceed (Sect. 2.1).
        """
        self.mmu.check(source_address, AccessKind.READ, PrivilegeLevel.PMK,
                       partition=source_partition, length=length)
        self.mmu.check(destination_address, AccessKind.WRITE,
                       PrivilegeLevel.PMK,
                       partition=destination_partition, length=length)
        data = self.memory.raw_read(source_address, length)
        self.memory.raw_write(destination_address, data)
