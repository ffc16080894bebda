"""Simulated three-level page-based MMU (Sect. 2.1, Fig. 3).

"The high-level abstract spatial partitioning description needs to be mapped
in runtime to the specific processor memory protection mechanisms, exploiting
the availability of a hardware Memory Management Unit (MMU) ... An example of
such mapping is the Gaisler SPARC V8 LEON3 three-level page-based MMU core."

This module performs exactly that mapping, in software: each partition's
:class:`~repro.spatial.descriptors.PartitionMemoryMap` is compiled into a
three-level page table (SPARC V8 reference MMU geometry: 256/64/64 entries
per level over 4 KiB pages, 32-bit virtual addresses), and every access
walks the table of the *current* context.  Addresses are identity-mapped —
protection, not relocation, is what TSP needs — so a translation fault is
precisely a spatial partitioning violation, delivered to the registered
fault handler (the PMK routes it to Health Monitoring) and raised as
:class:`~repro.exceptions.SpatialViolationError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..exceptions import ConfigurationError, SpatialViolationError
from ..kernel.snapshot_schema import COUNTER, RAW
from ..types import AccessKind, PrivilegeLevel
from .descriptors import MemoryDescriptor, PartitionMemoryMap

__all__ = ["PAGE_SIZE", "PageTableEntry", "PageTable", "MmuContext", "Mmu"]

#: SPARC V8 reference MMU page size.
PAGE_SIZE = 4096

#: Entries per table at each level (SPARC V8 reference MMU: 256/64/64).
_LEVEL_FANOUT = (256, 64, 64)

#: Bits of the virtual address consumed by each level (8 + 6 + 6 + 12 = 32).
_LEVEL_BITS = (8, 6, 6)


def _level_indices(address: int) -> Tuple[int, int, int]:
    """Split a 32-bit virtual address into the three level indices."""
    page = address // PAGE_SIZE
    index3 = page % _LEVEL_FANOUT[2]
    page //= _LEVEL_FANOUT[2]
    index2 = page % _LEVEL_FANOUT[1]
    page //= _LEVEL_FANOUT[1]
    index1 = page % _LEVEL_FANOUT[0]
    return index1, index2, index3


@dataclass
class PageTableEntry:
    """Leaf PTE: permissions and privilege for one 4 KiB page."""

    permissions: FrozenSet[AccessKind]
    level: PrivilegeLevel

    def allows(self, access: AccessKind, level: PrivilegeLevel) -> bool:
        """Permission and privilege check for one access."""
        return access in self.permissions and level <= self.level


class PageTable:
    """Sparse three-level page table for one partition context."""

    def __init__(self) -> None:
        # level-1 table: index1 -> {index2 -> {index3 -> PageTableEntry}}
        self._root: Dict[int, Dict[int, Dict[int, PageTableEntry]]] = {}
        self.mapped_pages = 0

    def map_page(self, address: int, entry: PageTableEntry) -> None:
        """Install *entry* for the page containing *address*."""
        self.map_pages(address // PAGE_SIZE, 1, entry)

    def map_pages(self, first_page: int, count: int,
                  entry: PageTableEntry) -> None:
        """Install *entry* for *count* consecutive pages from page number
        *first_page*, one level-3 table update per table touched."""
        page, end = first_page, first_page + count
        while page < end:
            index1, index2, index3 = _level_indices(page * PAGE_SIZE)
            stop = min(end, page + _LEVEL_FANOUT[2] - index3)
            level3 = self._root.setdefault(index1, {}).setdefault(index2, {})
            before = len(level3)
            level3.update(dict.fromkeys(
                range(index3, index3 + stop - page), entry))
            self.mapped_pages += len(level3) - before
            page = stop

    def lookup(self, address: int) -> Optional[PageTableEntry]:
        """Walk the three levels; None on any missing table (page fault)."""
        index1, index2, index3 = _level_indices(address)
        level2 = self._root.get(index1)
        if level2 is None:
            return None
        level3 = level2.get(index2)
        if level3 is None:
            return None
        return level3.get(index3)

    def walk_depth(self, address: int) -> int:
        """How many levels a walk of *address* traverses (instrumentation)."""
        index1, index2, index3 = _level_indices(address)
        level2 = self._root.get(index1)
        if level2 is None:
            return 1
        level3 = level2.get(index2)
        if level3 is None:
            return 2
        return 3


class MmuContext:
    """One partition's compiled address space."""

    def __init__(self, memory_map: PartitionMemoryMap) -> None:
        self.partition = memory_map.partition
        self.table = PageTable()
        self._descriptors = memory_map.descriptors
        for descriptor in memory_map.descriptors:
            self._compile(descriptor)

    def _compile(self, descriptor: MemoryDescriptor) -> None:
        """Fill PTEs for every page the descriptor touches.

        Descriptors need not be page-aligned; protection granularity is
        the page, so a partial page inherits the descriptor's rights —
        integration tooling should align regions, and the layout-level
        disjointness check runs on byte ranges, so no *other* partition's
        data can share the partial page.
        """
        first_page = descriptor.base // PAGE_SIZE
        last_page = (descriptor.end - 1) // PAGE_SIZE
        entry = PageTableEntry(permissions=descriptor.permissions,
                               level=descriptor.level)
        self.table.map_pages(first_page, last_page - first_page + 1, entry)

    def descriptor_for(self, address: int) -> Optional[MemoryDescriptor]:
        """The source descriptor covering *address* (diagnostics)."""
        for descriptor in self._descriptors:
            if descriptor.covers(address):
                return descriptor
        return None


#: Fault hook: (partition, address, access kind, detail).
FaultHandler = Callable[[str, int, AccessKind, str], None]


class Mmu:
    """The module's MMU: per-partition contexts plus the active context.

    The PMK dispatcher switches the active context on every partition
    context switch; all accesses are checked against the active context
    (or an explicitly named one, for PMK-mediated copies).
    """

    def __init__(self, *, fault_handler: Optional[FaultHandler] = None) -> None:
        self._contexts: Dict[str, MmuContext] = {}
        self._active: Optional[str] = None
        self._fault_handler = fault_handler
        self.access_count = 0
        self.fault_count = 0

    def add_context(self, memory_map: PartitionMemoryMap) -> MmuContext:
        """Compile and register *memory_map*'s context."""
        if memory_map.partition in self._contexts:
            raise ConfigurationError(
                f"MMU context for {memory_map.partition!r} already exists")
        context = MmuContext(memory_map)
        self._contexts[memory_map.partition] = context
        return context

    def set_fault_handler(self, handler: FaultHandler) -> None:
        """Install the fault hook (the PMK routes faults to HM)."""
        self._fault_handler = handler

    def switch_context(self, partition: Optional[str]) -> None:
        """Make *partition*'s address space active (None = no partition)."""
        if partition is not None and partition not in self._contexts:
            raise ConfigurationError(
                f"no MMU context for partition {partition!r}")
        self._active = partition

    @property
    def active_context(self) -> Optional[str]:
        """Partition whose address space is active."""
        return self._active

    def context_of(self, partition: str) -> MmuContext:
        """The compiled context of *partition*."""
        try:
            return self._contexts[partition]
        except KeyError:
            raise ConfigurationError(
                f"no MMU context for partition {partition!r}") from None

    # -------------------------------------------------------------- #
    # snapshot / restore (simulator checkpointing)
    # -------------------------------------------------------------- #

    #: ``fault_count`` is a counter kept raw: a fault is never steady.
    SNAPSHOT_SCHEMA = {"active": RAW, "access_count": COUNTER,
                       "fault_count": RAW}

    def snapshot(self) -> dict:
        """Capture the active context and counters as pure data.

        Page tables are structural — compiled from the configuration's
        memory maps at construction — and are not captured.
        """
        return {"active": self._active,
                "access_count": self.access_count,
                "fault_count": self.fault_count}

    def restore(self, state: dict) -> None:
        """Overlay a :meth:`snapshot` capture onto this MMU."""
        self._active = state["active"]
        self.access_count = state["access_count"]
        self.fault_count = state["fault_count"]

    # -------------------------------------------------------------- #
    # access checking
    # -------------------------------------------------------------- #

    def check(self, address: int, access: AccessKind,
              level: PrivilegeLevel = PrivilegeLevel.APPLICATION, *,
              partition: Optional[str] = None, length: int = 1) -> None:
        """Verify an access of *length* bytes at *address*; fault if denied.

        Checks the active context unless *partition* names another one
        (PMK-mediated operations).  Raises
        :class:`~repro.exceptions.SpatialViolationError` after notifying
        the fault handler — mirroring a hardware trap that the PMK fields
        before anything is read or written.
        """
        owner = partition if partition is not None else self._active
        self.access_count += 1
        if owner is None:
            self._fault("<none>", address, access,
                        "memory access with no active partition context")
            return
        context = self._contexts.get(owner)
        if context is None:
            self._fault(owner, address, access,
                        f"partition {owner!r} has no MMU context")
            return
        last = address + max(length, 1) - 1
        for probe in {address, last} | set(
                range((address // PAGE_SIZE + 1) * PAGE_SIZE, last + 1,
                      PAGE_SIZE)):
            entry = context.table.lookup(probe)
            if entry is None:
                self._fault(owner, probe, access,
                            "page not mapped in the partition's context")
                return
            if not entry.allows(access, level):
                self._fault(owner, probe, access,
                            f"{access.value} denied at privilege "
                            f"{level.name} (page allows "
                            f"{sorted(k.value for k in entry.permissions)} "
                            f"at level <= {entry.level.name})")
                return

    def _fault(self, partition: str, address: int, access: AccessKind,
               detail: str) -> None:
        self.fault_count += 1
        if self._fault_handler is not None:
            self._fault_handler(partition, address, access, detail)
        raise SpatialViolationError(
            f"spatial partitioning violation by {partition!r}: "
            f"{access.value} at {address:#x} — {detail}",
            partition=partition, address=address, access=access.value)
