"""Deadline bookkeeping data structures (Sect. 5.3).

The AIR PAL keeps per-partition process deadline information *ordered by
deadline time*, so the clock-tick ISR can retrieve the earliest deadline in
O(1) (Algorithm 3's critical property).  The paper discusses two candidate
structures and picks the first:

* :class:`DeadlineList` — a sorted (doubly) linked list.  Earliest: O(1).
  Removal of a node already in hand (the Algorithm 3 loop): O(1).
  Register/update: O(n).  The paper argues this wins because n is small
  and the O(n) operations run in partition window time, not in the ISR.
* :class:`DeadlineTree` — a self-balancing binary search tree (an AVL tree
  here), the theoretically superior alternative: register/update O(log n),
  with a cached leftmost pointer for O(1) earliest.  Implemented so the
  trade-off can be *measured* (benchmark E6) instead of argued.

Both implement the :class:`DeadlineStore` interface; property-based tests
assert they are observationally equivalent.

Keys are ``(deadline_time, sequence)`` pairs — the sequence number breaks
ties between equal deadlines in registration order, making iteration
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..exceptions import SimulationError
from ..kernel.snapshot_schema import COUNTER, RAW, TICK, Rows
from ..types import Ticks

__all__ = ["DeadlineRecord", "DeadlineStore", "DeadlineList", "DeadlineTree",
           "make_store"]


@dataclass(frozen=True)
class DeadlineRecord:
    """One registered deadline: *process* must finish by *deadline_time*."""

    process: str
    deadline_time: Ticks


class DeadlineStore:
    """Interface shared by both deadline structures.

    ``register`` inserts or updates (a replenishment moves the existing
    entry — Fig. 6's REPLENISH path); ``unregister`` removes (process
    stopped); ``earliest`` must be O(1); ``pop_earliest`` removes and
    returns the earliest entry (the Algorithm 3 removal, O(1) for the list
    since the node is already in hand).
    """

    def register(self, process: str, deadline_time: Ticks) -> None:
        """Insert *process* with *deadline_time*, replacing any prior entry."""
        raise NotImplementedError

    def unregister(self, process: str) -> bool:
        """Remove *process*'s entry; returns True if one existed."""
        raise NotImplementedError

    def earliest(self) -> Optional[DeadlineRecord]:
        """The entry with the smallest deadline, in O(1); None if empty."""
        raise NotImplementedError

    def pop_earliest(self) -> DeadlineRecord:
        """Remove and return the earliest entry."""
        raise NotImplementedError

    def deadline_of(self, process: str) -> Optional[Ticks]:
        """The registered deadline of *process*, or None."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[DeadlineRecord]:
        """Iterate entries in ascending (deadline, registration) order."""
        raise NotImplementedError

    def as_list(self) -> List[DeadlineRecord]:
        """All entries, ascending — convenience for tests."""
        return list(self)

    #: ``entries`` holds ``(process, deadline_time, sequence)`` rows.
    SNAPSHOT_SCHEMA = {"entries": Rows(RAW, TICK, COUNTER),
                       "sequence": COUNTER}

    def snapshot(self) -> dict:
        """Capture entries (with their tie-breaking sequence numbers) and
        the sequence counter as pure data."""
        raise NotImplementedError

    def restore(self, state: dict) -> None:
        """Rebuild the store bit-identically from a :meth:`snapshot`."""
        raise NotImplementedError


# ------------------------------------------------------------------ #
# sorted doubly linked list (the paper's choice)
# ------------------------------------------------------------------ #


class _ListNode:
    __slots__ = ("record", "sequence", "prev", "next")

    def __init__(self, record: DeadlineRecord, sequence: int) -> None:
        self.record = record
        self.sequence = sequence
        self.prev: Optional[_ListNode] = None
        self.next: Optional[_ListNode] = None

    @property
    def key(self) -> Tuple[Ticks, int]:
        return (self.record.deadline_time, self.sequence)


class DeadlineList(DeadlineStore):
    """Sorted doubly linked list with a per-process node index.

    The node index (a dict) gives O(1) access to a process's node, so
    ``unregister`` and the update half of ``register`` are O(1) unlink
    operations — matching the paper's observation that removal with the
    node already in hand is effectively O(1).  Insertion walks the list:
    O(n).
    """

    def __init__(self) -> None:
        self._head: Optional[_ListNode] = None
        self._tail: Optional[_ListNode] = None
        self._index: Dict[str, _ListNode] = {}
        self._sequence = 0

    def register(self, process: str, deadline_time: Ticks) -> None:
        existing = self._index.pop(process, None)
        if existing is not None:
            self._unlink(existing)
        self._sequence += 1
        node = _ListNode(DeadlineRecord(process, deadline_time), self._sequence)
        self._insert_sorted(node)
        self._index[process] = node

    def unregister(self, process: str) -> bool:
        node = self._index.pop(process, None)
        if node is None:
            return False
        self._unlink(node)
        return True

    def earliest(self) -> Optional[DeadlineRecord]:
        return self._head.record if self._head is not None else None

    def pop_earliest(self) -> DeadlineRecord:
        if self._head is None:
            raise SimulationError("pop_earliest on an empty deadline list")
        node = self._head
        self._unlink(node)
        del self._index[node.record.process]
        return node.record

    def deadline_of(self, process: str) -> Optional[Ticks]:
        node = self._index.get(process)
        return node.record.deadline_time if node is not None else None

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[DeadlineRecord]:
        node = self._head
        while node is not None:
            yield node.record
            node = node.next

    # snapshot / restore -------------------------------------------- #

    def snapshot(self) -> dict:
        entries = []
        node = self._head
        while node is not None:
            entries.append((node.record.process, node.record.deadline_time,
                            node.sequence))
            node = node.next
        return {"entries": entries, "sequence": self._sequence}

    def restore(self, state: dict) -> None:
        self._head = self._tail = None
        self._index = {}
        for process, deadline_time, sequence in state["entries"]:
            node = _ListNode(DeadlineRecord(process, deadline_time), sequence)
            if self._tail is None:          # entries come pre-sorted
                self._head = self._tail = node
            else:
                node.prev = self._tail
                self._tail.next = node
                self._tail = node
            self._index[process] = node
        self._sequence = state["sequence"]

    # internals ----------------------------------------------------- #

    def _insert_sorted(self, node: _ListNode) -> None:
        if self._head is None:
            self._head = self._tail = node
            return
        cursor = self._head
        while cursor is not None and cursor.key <= node.key:
            cursor = cursor.next
        if cursor is None:                      # append at tail
            node.prev = self._tail
            assert self._tail is not None
            self._tail.next = node
            self._tail = node
        elif cursor.prev is None:               # new head
            node.next = cursor
            cursor.prev = node
            self._head = node
        else:                                   # splice before cursor
            node.prev = cursor.prev
            node.next = cursor
            cursor.prev.next = node
            cursor.prev = node

    def _unlink(self, node: _ListNode) -> None:
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self._tail = node.prev
        node.prev = node.next = None


# ------------------------------------------------------------------ #
# AVL tree (the paper's discussed alternative)
# ------------------------------------------------------------------ #


class _TreeNode:
    __slots__ = ("key", "record", "left", "right", "height")

    def __init__(self, key: Tuple[Ticks, int], record: DeadlineRecord) -> None:
        self.key = key
        self.record = record
        self.left: Optional[_TreeNode] = None
        self.right: Optional[_TreeNode] = None
        self.height = 1


def _height(node: Optional[_TreeNode]) -> int:
    return node.height if node is not None else 0


def _update(node: _TreeNode) -> None:
    node.height = 1 + max(_height(node.left), _height(node.right))


def _balance_factor(node: _TreeNode) -> int:
    return _height(node.left) - _height(node.right)


def _rotate_right(node: _TreeNode) -> _TreeNode:
    pivot = node.left
    assert pivot is not None
    node.left = pivot.right
    pivot.right = node
    _update(node)
    _update(pivot)
    return pivot


def _rotate_left(node: _TreeNode) -> _TreeNode:
    pivot = node.right
    assert pivot is not None
    node.right = pivot.left
    pivot.left = node
    _update(node)
    _update(pivot)
    return pivot


def _rebalance(node: _TreeNode) -> _TreeNode:
    _update(node)
    factor = _balance_factor(node)
    if factor > 1:
        assert node.left is not None
        if _balance_factor(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if factor < -1:
        assert node.right is not None
        if _balance_factor(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class DeadlineTree(DeadlineStore):
    """AVL tree keyed by ``(deadline_time, sequence)`` with cached minimum.

    ``register``/``unregister`` are O(log n); ``earliest`` reads the cached
    leftmost record in O(1) (the cache is refreshed in O(log n) whenever a
    mutation may have invalidated it).
    """

    def __init__(self) -> None:
        self._root: Optional[_TreeNode] = None
        self._keys: Dict[str, Tuple[Ticks, int]] = {}
        self._sequence = 0
        self._min_record: Optional[DeadlineRecord] = None

    def register(self, process: str, deadline_time: Ticks) -> None:
        old_key = self._keys.get(process)
        if old_key is not None:
            self._root = self._delete(self._root, old_key)
        self._sequence += 1
        key = (deadline_time, self._sequence)
        record = DeadlineRecord(process, deadline_time)
        self._root = self._insert(self._root, key, record)
        self._keys[process] = key
        self._refresh_min()

    def unregister(self, process: str) -> bool:
        key = self._keys.pop(process, None)
        if key is None:
            return False
        self._root = self._delete(self._root, key)
        self._refresh_min()
        return True

    def earliest(self) -> Optional[DeadlineRecord]:
        return self._min_record

    def pop_earliest(self) -> DeadlineRecord:
        if self._min_record is None:
            raise SimulationError("pop_earliest on an empty deadline tree")
        record = self._min_record
        self.unregister(record.process)
        return record

    def deadline_of(self, process: str) -> Optional[Ticks]:
        key = self._keys.get(process)
        return key[0] if key is not None else None

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[DeadlineRecord]:
        yield from self._walk(self._root)

    # snapshot / restore -------------------------------------------- #

    def snapshot(self) -> dict:
        entries = [(record.process, record.deadline_time,
                    self._keys[record.process][1]) for record in self]
        return {"entries": entries, "sequence": self._sequence}

    def restore(self, state: dict) -> None:
        self._root = None
        self._keys = {}
        for process, deadline_time, sequence in state["entries"]:
            key = (deadline_time, sequence)
            record = DeadlineRecord(process, deadline_time)
            self._root = self._insert(self._root, key, record)
            self._keys[process] = key
        self._sequence = state["sequence"]
        self._refresh_min()

    # internals ----------------------------------------------------- #

    def _refresh_min(self) -> None:
        node = self._root
        if node is None:
            self._min_record = None
            return
        while node.left is not None:
            node = node.left
        self._min_record = node.record

    def _walk(self, node: Optional[_TreeNode]) -> Iterator[DeadlineRecord]:
        if node is None:
            return
        yield from self._walk(node.left)
        yield node.record
        yield from self._walk(node.right)

    def _insert(self, node: Optional[_TreeNode], key: Tuple[Ticks, int],
                record: DeadlineRecord) -> _TreeNode:
        if node is None:
            return _TreeNode(key, record)
        if key < node.key:
            node.left = self._insert(node.left, key, record)
        else:
            node.right = self._insert(node.right, key, record)
        return _rebalance(node)

    def _delete(self, node: Optional[_TreeNode],
                key: Tuple[Ticks, int]) -> Optional[_TreeNode]:
        if node is None:
            raise SimulationError(f"deadline tree: key {key} not found")
        if key < node.key:
            node.left = self._delete(node.left, key)
        elif key > node.key:
            node.right = self._delete(node.right, key)
        else:
            if node.left is None:
                return node.right
            if node.right is None:
                return node.left
            successor = node.right
            while successor.left is not None:
                successor = successor.left
            node.key = successor.key
            node.record = successor.record
            node.right = self._delete(node.right, successor.key)
        return _rebalance(node)


def make_store(kind: str) -> DeadlineStore:
    """Factory: ``"list"`` (paper's choice) or ``"tree"`` (the alternative)."""
    if kind == "list":
        return DeadlineList()
    if kind == "tree":
        return DeadlineTree()
    raise ValueError(f"unknown deadline store kind {kind!r}; "
                     f"expected 'list' or 'tree'")
