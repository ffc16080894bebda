"""Shared-memory snapshot transport for prefix-sharing worker pools.

Without it, every worker process pays one cold build per prefix checkpoint
it needs (per-worker :class:`~repro.campaign.prefix.SnapshotCache`s do not
see each other).  With it, the first worker to build a checkpoint publishes
the snapshot's pickle-protocol-5 form — main stream plus out-of-band
buffers, via :meth:`SimulatorSnapshot.to_buffers` — into a named
``multiprocessing.shared_memory`` segment; sibling workers attach the
segment and unpickle straight out of the mapping (``pickle.loads`` over
memoryviews into the segment — no intermediate copy of the payload), which
turns N-workers × cold-build into 1 × build + (N-1) × attach.

The transport is strictly an optimization with *transparent degradation*:
every failure path — segment missing (publisher hasn't finished), torn
write (``ready`` flag unset), create race, platform without shared memory
— returns ``None``/``False`` and the caller falls back to building the
checkpoint in its own worker.  Correctness never depends on a fetch
succeeding, so no path ever blocks or waits on a peer.

Lifecycle (fork start method only, see :func:`shm_available`):

* the parent creates the transport — generating the run id that namespaces
  every segment — and touches a probe segment so the multiprocessing
  resource tracker exists *before* the pool forks (children then share the
  parent's tracker, keeping register/unregister calls balanced in one
  place);
* workers inherit the run id, publish checkpoints as they build them
  (create races resolve via ``FileExistsError`` — first writer wins) and
  keep every attached segment mapped for the life of the process (the
  unpickled snapshot may alias the mapping);
* after the pool closes, the parent — which knows every plannable
  ``(key, tick)`` from the divergence trie — attaches and unlinks each
  segment (:meth:`SnapshotTransport.unlink_all`), releasing the backing
  memory.

Segment names are deterministic functions of ``(run id, key, tick)`` and
kept short (POSIX shm names are capped at 31 bytes on some platforms).

The spawn start method is deliberately unsupported: each spawned process
runs its own resource tracker, and a tracker that registered a segment it
did not unlink "cleans it up" on exit — unlinking segments out from under
live siblings.  Under fork there is exactly one tracker, inherited.
"""

from __future__ import annotations

import multiprocessing
import pickle
import struct
import uuid
from multiprocessing import shared_memory
from typing import Dict, Iterable, List, Optional, Tuple

from ..kernel.snapshot import SimulatorSnapshot
from ..types import Ticks

__all__ = ["SnapshotTransport", "shm_available"]

#: Header magic: identifies a segment as a snapshot transport payload.
_MAGIC = 0x52505346  # "RPSF"

#: Fixed header: magic u32, ready u32, main_len u64, nbuf u32
#: (little-endian, unaligned), then nbuf u64 buffer lengths, then the
#: main pickle stream, then the out-of-band buffers back to back.
_HEADER = struct.Struct("<IIQI")


def shm_available() -> bool:
    """True when this platform offers the ``fork`` start method.

    The transport requires it (one inherited resource tracker — see the
    module docstring for why spawn's per-process trackers would unlink
    live segments).  Whether a segment can actually be created is not
    probed here: every publish/fetch failure degrades on its own.
    """
    return "fork" in multiprocessing.get_all_start_methods()


class SnapshotTransport:
    """Publish/fetch prefix snapshots through named shared memory.

    One instance per process; workers in the same campaign share the
    parent's *run_id* (it namespaces the segments) but construct their
    own transport object post-fork.  All counters are nondeterministic
    sidecar material.
    """

    #: The fixed key set :meth:`stats` emits.  The governed telemetry
    #: namespace constrains ``worker/<n>/shm/<stat>`` to this set.
    STAT_KEYS = ("publishes", "publish_races", "publish_failures",
                 "attaches", "attach_failures", "fetch_misses",
                 "memo_hits")

    def __init__(self, run_id: Optional[str] = None, *,
                 probe: bool = True) -> None:
        self.run_id = run_id if run_id is not None else uuid.uuid4().hex[:6]
        #: (key, tick) -> memoized live snapshot from a prior fetch.
        self._attached: Dict[Tuple[str, Ticks], SimulatorSnapshot] = {}
        #: Attached segments, kept mapped: the unpickled snapshots may
        #: alias these mappings (zero-copy), so they live as long as we do.
        self._segments: List[shared_memory.SharedMemory] = []
        self.publishes = 0
        self.publish_races = 0
        self.publish_failures = 0
        self.attaches = 0
        self.attach_failures = 0
        self.fetch_misses = 0
        self.memo_hits = 0
        if probe:
            self._spawn_tracker()

    def _spawn_tracker(self) -> None:
        """Force the resource tracker into existence (parent side, pre-fork)."""
        try:
            segment = shared_memory.SharedMemory(
                name=self._segment_name("probe", 0), create=True, size=1)
            segment.close()
            segment.unlink()
        except Exception:  # noqa: BLE001 — the probe is best-effort
            pass

    def _segment_name(self, key: str, tick: Ticks) -> str:
        # "rp" + 6 run-id chars + 10 key chars + tick digits stays well
        # under the 31-byte POSIX shm name cap.
        return f"rp{self.run_id}-{key[:10]}-{tick}"

    # ------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------ #

    def publish(self, key: str, tick: Ticks,
                snapshot: SimulatorSnapshot) -> bool:
        """Make *snapshot* attachable by sibling workers.  Best effort.

        First writer wins: a create race (sibling already publishing the
        same checkpoint) is counted and reported as False, not an error.
        The ready flag is written last, so a reader can never observe a
        torn payload as complete.
        """
        try:
            main, buffers = snapshot.to_buffers()
            lengths = struct.pack(f"<{len(buffers)}Q",
                                  *[len(b) for b in buffers])
            size = (_HEADER.size + len(lengths) + len(main)
                    + sum(len(b) for b in buffers))
            segment = shared_memory.SharedMemory(
                name=self._segment_name(key, tick), create=True, size=size)
        except FileExistsError:
            self.publish_races += 1
            return False
        except Exception:  # noqa: BLE001 — transport is best-effort
            self.publish_failures += 1
            return False
        try:
            buf = segment.buf
            _HEADER.pack_into(buf, 0, _MAGIC, 0, len(main), len(buffers))
            offset = _HEADER.size
            buf[offset:offset + len(lengths)] = lengths
            offset += len(lengths)
            buf[offset:offset + len(main)] = main
            offset += len(main)
            for payload in buffers:
                buf[offset:offset + len(payload)] = payload
                offset += len(payload)
            struct.pack_into("<I", buf, 4, 1)  # ready flag, written last
            del buf
            segment.close()
        except Exception:  # noqa: BLE001
            self.publish_failures += 1
            return False
        self.publishes += 1
        return True

    def fetch(self, key: str, tick: Ticks) -> Optional[SimulatorSnapshot]:
        """Attach a published checkpoint, zero-copy.  None on any failure.

        A successful fetch is memoized (and its segment kept mapped) for
        the life of this process, so repeated fetches of one checkpoint
        cost a dict lookup.
        """
        memo = self._attached.get((key, tick))
        if memo is not None:
            self.memo_hits += 1
            return memo
        try:
            segment = shared_memory.SharedMemory(
                name=self._segment_name(key, tick))
        except FileNotFoundError:
            self.fetch_misses += 1
            return None
        except Exception:  # noqa: BLE001
            self.attach_failures += 1
            return None
        try:
            buf = segment.buf
            magic, ready, main_len, nbuf = _HEADER.unpack_from(buf, 0)
            if magic != _MAGIC or ready != 1:
                raise ValueError("segment not ready")
            lengths = struct.unpack_from(f"<{nbuf}Q", buf, _HEADER.size)
            offset = _HEADER.size + 8 * nbuf
            main = buf[offset:offset + main_len]
            offset += main_len
            views = []
            for length in lengths:
                views.append(buf[offset:offset + length])
                offset += length
            snapshot = pickle.loads(main, buffers=views)
            if not isinstance(snapshot, SimulatorSnapshot):
                raise TypeError("segment does not hold a snapshot")
        except Exception:  # noqa: BLE001 — torn/foreign segment: degrade
            self.attach_failures += 1
            try:
                segment.close()
            except Exception:  # noqa: BLE001 — views may pin the mapping
                pass
            return None
        self._attached[(key, tick)] = snapshot
        self._segments.append(segment)
        self.attaches += 1
        return snapshot

    # ------------------------------------------------------------ #
    # parent side
    # ------------------------------------------------------------ #

    def unlink_all(self, levels: Iterable[Tuple[str, Ticks]]) -> int:
        """Unlink every published segment for *levels* (after pool close).

        Returns the number of segments actually unlinked.  Safe to call
        with levels nobody published — missing segments are skipped.
        """
        removed = 0
        for key, tick in levels:
            try:
                segment = shared_memory.SharedMemory(
                    name=self._segment_name(key, tick))
            except FileNotFoundError:
                continue
            except Exception:  # noqa: BLE001
                continue
            try:
                segment.close()
                segment.unlink()
                removed += 1
            except Exception:  # noqa: BLE001
                pass
        return removed

    def stats(self) -> Dict[str, int]:
        """Counters for the nondeterministic reporting sidecar."""
        return {"publishes": self.publishes,
                "publish_races": self.publish_races,
                "publish_failures": self.publish_failures,
                "attaches": self.attaches,
                "attach_failures": self.attach_failures,
                "fetch_misses": self.fetch_misses,
                "memo_hits": self.memo_hits}
