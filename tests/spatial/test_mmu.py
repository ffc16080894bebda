"""Tests for the simulated 3-level MMU (repro.spatial.mmu)."""

import pytest

from repro.exceptions import ConfigurationError, SpatialViolationError
from repro.spatial.descriptors import (
    MemoryDescriptor,
    MemorySection,
    PartitionMemoryMap,
)
from repro.spatial.mmu import PAGE_SIZE, Mmu, PageTable, PageTableEntry
from repro.types import AccessKind, PrivilegeLevel


def make_map(partition="P1", base=0x10000, size=0x4000):
    return PartitionMemoryMap(partition, [
        MemoryDescriptor(partition=partition, level=PrivilegeLevel.APPLICATION,
                         section=MemorySection.CODE, base=base, size=size),
        MemoryDescriptor(partition=partition, level=PrivilegeLevel.APPLICATION,
                         section=MemorySection.DATA, base=base + size,
                         size=size),
        MemoryDescriptor(partition=partition, level=PrivilegeLevel.POS,
                         section=MemorySection.DATA, base=base + 2 * size,
                         size=size)])


@pytest.fixture
def mmu():
    mmu = Mmu()
    mmu.add_context(make_map("P1", base=0x10000))
    mmu.add_context(make_map("P2", base=0x40000))
    mmu.switch_context("P1")
    return mmu


class TestPageTable:
    def test_three_level_walk(self):
        table = PageTable()
        entry = PageTableEntry(permissions=frozenset({AccessKind.READ}),
                               level=PrivilegeLevel.APPLICATION)
        table.map_page(0x10000, entry)
        assert table.lookup(0x10000) is entry
        assert table.lookup(0x10FFF) is entry       # same 4 KiB page
        assert table.lookup(0x11000) is None        # next page unmapped
        assert table.walk_depth(0x10000) == 3

    def test_unmapped_regions_fail_at_shallow_levels(self):
        table = PageTable()
        # A totally unmapped address fails at level 1.
        assert table.walk_depth(0xDEAD0000) == 1

    def test_page_count(self):
        table = PageTable()
        entry = PageTableEntry(permissions=frozenset({AccessKind.READ}),
                               level=PrivilegeLevel.APPLICATION)
        for page in range(8):
            table.map_page(page * PAGE_SIZE, entry)
        table.map_page(0, entry)  # remap does not double-count
        assert table.mapped_pages == 8

    def test_bulk_mapping_equals_page_by_page(self):
        entry = PageTableEntry(permissions=frozenset({AccessKind.READ}),
                               level=PrivilegeLevel.APPLICATION)
        bulk, single = PageTable(), PageTable()
        # Crosses several level-3 tables and the level-2 boundary at 4096.
        first, count = 4000, 300
        bulk.map_pages(first, count, entry)
        for page in range(first, first + count):
            single.map_page(page * PAGE_SIZE, entry)
        assert bulk._root == single._root
        assert bulk.mapped_pages == single.mapped_pages == count
        bulk.map_pages(first + 250, 100, entry)  # half already mapped
        assert bulk.mapped_pages == count + 50


class TestMmuChecks:
    def test_allowed_access_passes(self, mmu):
        mmu.check(0x10000, AccessKind.READ)           # own code: readable
        mmu.check(0x10000, AccessKind.EXECUTE)
        mmu.check(0x14000, AccessKind.WRITE)          # own data: writable

    def test_wrong_kind_faults(self, mmu):
        with pytest.raises(SpatialViolationError):
            mmu.check(0x10000, AccessKind.WRITE)      # code is not writable

    def test_cross_partition_access_faults(self, mmu):
        # The core spatial partitioning property (Sect. 2.1).
        with pytest.raises(SpatialViolationError) as exc_info:
            mmu.check(0x40000, AccessKind.READ)       # P2's memory
        assert exc_info.value.partition == "P1"
        assert mmu.fault_count == 1

    def test_privilege_level_enforced(self, mmu):
        pos_area = 0x10000 + 2 * 0x4000
        mmu.check(pos_area, AccessKind.READ, PrivilegeLevel.POS)
        mmu.check(pos_area, AccessKind.READ, PrivilegeLevel.PMK)
        with pytest.raises(SpatialViolationError):
            mmu.check(pos_area, AccessKind.READ, PrivilegeLevel.APPLICATION)

    def test_range_check_spans_pages(self, mmu):
        # A range crossing into an unmapped page must fault.
        last_mapped = 0x10000 + 3 * 0x4000 - 2
        with pytest.raises(SpatialViolationError):
            mmu.check(last_mapped, AccessKind.READ, PrivilegeLevel.PMK,
                      length=4)

    def test_no_active_context_faults(self):
        mmu = Mmu()
        mmu.add_context(make_map("P1"))
        with pytest.raises(SpatialViolationError):
            mmu.check(0x10000, AccessKind.READ)

    def test_explicit_partition_overrides_active(self, mmu):
        # PMK-mediated access names the context explicitly.
        mmu.check(0x40000, AccessKind.READ, PrivilegeLevel.PMK,
                  partition="P2")

    def test_fault_handler_called_before_raise(self, mmu):
        faults = []
        mmu.set_fault_handler(
            lambda partition, address, kind, detail: faults.append(
                (partition, address, kind)))
        with pytest.raises(SpatialViolationError):
            mmu.check(0x40000, AccessKind.WRITE)
        assert faults == [("P1", 0x40000, AccessKind.WRITE)]


class TestContextManagement:
    def test_switch_to_unknown_context_rejected(self, mmu):
        with pytest.raises(ConfigurationError):
            mmu.switch_context("P9")

    def test_switch_to_none_models_idle(self, mmu):
        mmu.switch_context(None)
        assert mmu.active_context is None

    def test_duplicate_context_rejected(self, mmu):
        with pytest.raises(ConfigurationError):
            mmu.add_context(make_map("P1"))

    def test_context_compiles_all_pages(self, mmu):
        context = mmu.context_of("P1")
        assert context.table.mapped_pages == 3 * (0x4000 // PAGE_SIZE)

    def test_descriptor_for_diagnostics(self, mmu):
        context = mmu.context_of("P1")
        assert context.descriptor_for(0x14000).section is MemorySection.DATA
        assert context.descriptor_for(0xDEAD0000) is None
