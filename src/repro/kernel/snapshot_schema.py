"""Declared snapshot schemas: the kind of every key a ``snapshot()`` emits.

Every class whose ``snapshot()`` capture the cycle cache fingerprints
(DESIGN.md decision 13) declares, in a ``SNAPSHOT_SCHEMA`` class
attribute next to that method, one schema per key it emits.  A schema is
a leaf kind or a combinator:

* :data:`RAW` — the value (any subtree) is compared verbatim;
* :data:`TICK` — an absolute simulation tick (or None), compared
  relative to the probed boundary and advanced by replay;
* :data:`PHASE` — a tick compared by its phase within the MTF;
* :data:`COUNTER` — a monotonic counter (or None): left out of the
  fingerprint, its per-frame delta must be uniform;
* :data:`COUNTERS` — ``Each(COUNTER)``: every child is a counter (stats
  blocks, per-partition occupancy);
* :data:`LOG` — a process resume log (only the growth since the previous
  probe is compared);
* a plain ``dict`` ``{key: schema}`` — a struct: a dict with exactly
  these keys, or a dataclass with exactly these fields;
* a plain ``tuple`` of schemas — a tuple of exactly that length, item
  *i* following schema *i*;
* :class:`Each` — a dict or list of children sharing one schema
  (partitions, TCBs, ports, queued envelopes);
* :func:`Rows` — ``Each`` of one tuple schema: a dict or list of
  fixed-length rows (watchdog arming, wait queues, deadline stores,
  in-flight messages);
* :class:`OneOf` — one of several structs, told apart by their exact key
  sets (a POS with or without its own fields, a bare or reliable link).

Composite classes refer to their children's declarations instead of
restating them.  The fingerprint walk raises :class:`~repro.exceptions.
SnapshotSchemaError` on any key without a declaration and on any value
whose shape does not match its declaration; nothing is classified by
name.
"""

from __future__ import annotations

from typing import Any

from ..exceptions import SnapshotSchemaError

__all__ = ["RAW", "TICK", "PHASE", "COUNTER", "COUNTERS", "LOG",
           "Each", "Rows", "OneOf", "SnapshotSchemaError"]


class _Kind:
    """A leaf kind; compared by identity."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


class Each:
    """A dict or list whose every child follows *schema*."""

    __slots__ = ("schema",)

    def __init__(self, schema: Any) -> None:
        self.schema = schema


RAW = _Kind("RAW")
TICK = _Kind("TICK")
PHASE = _Kind("PHASE")
COUNTER = _Kind("COUNTER")
COUNTERS = Each(COUNTER)
LOG = _Kind("LOG")


def Rows(*columns: Any) -> Each:
    """A dict or list of tuples, column *i* following ``columns[i]``."""
    return Each(columns)


class OneOf:
    """One of several struct schemas, chosen by the value's exact key set."""

    __slots__ = ("structs",)

    def __init__(self, *structs: dict) -> None:
        keys = [frozenset(struct) for struct in structs]
        if len(set(keys)) != len(keys):
            raise SnapshotSchemaError(
                "OneOf alternatives must have distinct key sets")
        self.structs = tuple(zip(keys, structs))

    def select(self, value: dict) -> dict:
        """The alternative declaring exactly *value*'s keys."""
        for keys, struct in self.structs:
            if value.keys() == keys:
                return struct
        raise SnapshotSchemaError(
            f"keys {sorted(map(str, value))} match no declared alternative")
