"""Prefix-sharing campaign scheduling over simulator snapshots.

Campaign scenarios built from the same configuration and seed execute
*identically* until their first fault or schedule command — everything
before the first divergence point is shared, deterministic work.  A chaos
campaign injecting at tick ``10_000`` of fifty 20-MTF scenarios spends half
its budget simulating the same fault-free prefix fifty times.  Scenarios
that additionally share their first *k* timeline events (same faults at the
same ticks) stay identical even longer: past the fault-free root, through
every shared injection, until the first event where their timelines
diverge.

This module removes that redundancy at every level of the divergence tree:

* :func:`scenario_fingerprint` — content digest of everything that shapes
  a scenario's pre-divergence execution (config factory, seed, kwargs,
  inline config document);
* :func:`prefix_key` — the fingerprint extended with the scenario's first
  *depth* timeline events; equal keys mean bit-identical execution up to
  the next event, so interior checkpoints (snapshots taken *after* shared
  faults applied) are interchangeable too;
* :func:`prefix_levels` / :func:`build_divergence_trie` — the campaign's
  only fork planner: enumerate each scenario's usable fork levels, pin
  every level shared by >= 2 scenarios to one common capture tick, and
  hand each scenario a :class:`PrefixPlan` (which checkpoints to build,
  where to fork, which locality group it belongs to).  Root-only sharing
  is the depth-0 slice of the same plans;
* :class:`SnapshotCache` — LRU of *pickled*
  :class:`~repro.kernel.snapshot.SimulatorSnapshot` payloads, keyed by
  ``(prefix key, tick)``;
* :func:`run_with_prefix_cache` — the scenario executor: fork from the
  deepest cached checkpoint on the scenario's plan, build and cache any
  missing checkpoints on the way down, and run the scenario's divergent
  suffix from the fork.  An empty plan is a plain cold run.  Pool
  workers start from the parent's cache, pre-built with every split
  group's chain (:func:`~repro.campaign.runner.run_pool`).

Correctness rests on the snapshot layer's bit-identity contract (tested by
the fork-equivalence matrix): a forked run's trace digest, metrics and
oracle verdict equal a cold run's, so the campaign digest is identical
with the cache on or off and at any worker count.
Interior checkpoints carry the fault injector's applied log in the
snapshot's ``extras`` side-channel; a forked run seeds its injector from
it and schedules only the not-yet-applied remainder of the timeline, so
the injection log — which feeds the campaign digest — is bit-identical to
a cold run's.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..fault.faults import fault_to_dict
from ..kernel.snapshot import SimulatorSnapshot
from ..types import Ticks
from .scenarios import Scenario

__all__ = [
    "MIN_PREFIX_TICKS",
    "PREFIX_QUANTUM",
    "PrefixPlan",
    "SnapshotCache",
    "build_divergence_trie",
    "prefix_key",
    "prefix_levels",
    "run_with_prefix_cache",
    "scenario_fingerprint",
]

#: Prefixes shorter than this are not worth a capture/restore round trip.
MIN_PREFIX_TICKS: Ticks = 256

#: Capture ticks are quantized down to multiples of this, so sharers whose
#: level boundaries fall in the same quantum pin one common capture tick.
#: The sub-quantum remainder is simply simulated inside the forked run.
PREFIX_QUANTUM: Ticks = 1024


def scenario_fingerprint(scenario: Scenario) -> str:
    """Digest of everything shaping a scenario's pre-divergence execution.

    Two scenarios with equal fingerprints run bit-identically until the
    earlier of their divergence ticks, so their prefixes are
    interchangeable.  Faults, schedule commands and the tick horizon are
    deliberately excluded — they only shape the suffix (and enter the
    deeper :func:`prefix_key` levels instead).
    """
    document = {
        "factory": scenario.factory,
        "seed": scenario.seed,
        "kwargs": dict(scenario.factory_kwargs),
        "config": (dict(scenario.config_doc)
                   if scenario.config_doc is not None else None),
    }
    canonical = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def prefix_key(scenario: Scenario, depth: int) -> str:
    """Content key of the scenario's execution prefix through *depth* events.

    ``depth == 0`` is the fault-free root and returns
    :func:`scenario_fingerprint` unchanged.  Deeper keys fold in the
    first *depth* entries of :meth:`Scenario.timeline` — ticks and full
    fault payloads — so two scenarios with equal ``prefix_key(s, d)``
    execute bit-identically until their ``d``-th event (exclusive): same
    configuration and seed, same faults applied at the same ticks.
    """
    fingerprint = scenario_fingerprint(scenario)
    if depth <= 0:
        return fingerprint
    events = scenario.timeline()
    if depth > len(events):
        raise ValueError(
            f"{scenario.scenario_id}: depth {depth} exceeds the "
            f"{len(events)}-event timeline")
    document = [[tick, fault_to_dict(fault)]
                for tick, fault in events[:depth]]
    canonical = json.dumps(document, sort_keys=True, default=str)
    digest = hashlib.sha256(
        (fingerprint + "|" + canonical).encode("utf-8")).hexdigest()
    return digest[:16]


# ------------------------------------------------------------------ #
# the divergence trie
# ------------------------------------------------------------------ #


@dataclass(frozen=True)
class PrefixPlan:
    """One scenario's share of the campaign's divergence trie.

    ``capture_levels`` lists the shared checkpoints on this scenario's
    root-to-leaf path as ``(depth, prefix key, capture tick)`` in
    ascending depth: at level ``depth`` the first ``depth`` timeline
    events have been applied and the clock sits at ``capture tick``.
    Capture ticks are *pinned* by the planner to the minimum quantized
    boundary across every scenario sharing the key, so all sharers look
    up the exact same ``(key, tick)`` cache entry — no per-scenario
    quantization drift.  ``group_key`` (the deepest shared key, or the
    scenario id when nothing is shared) is the locality-dispatch handle:
    scenarios with equal group keys want the same worker.
    """

    scenario_id: str
    group_key: str
    capture_levels: Tuple[Tuple[int, str, Ticks], ...]

    @property
    def fork_levels(self) -> Tuple[Tuple[int, str, Ticks], ...]:
        """Capture levels deepest-first — the fork lookup order."""
        return tuple(reversed(self.capture_levels))


def prefix_levels(scenario: Scenario, *, max_depth: Optional[int] = None
                  ) -> List[Tuple[int, str, Ticks]]:
    """Enumerate the scenario's usable fork levels.

    Level *d* means "the first *d* timeline events applied"; its boundary
    is the ``d``-th event's tick (the horizon past the last event) and its
    candidate capture tick is that boundary quantized down to
    :data:`PREFIX_QUANTUM`.
    A level is usable when the capture tick clears
    :data:`MIN_PREFIX_TICKS` and does not quantize below the last applied
    event (the checkpoint must sit *after* everything it claims to have
    applied).  *max_depth* truncates the enumeration (``0`` = root only).
    """
    if getattr(scenario, "is_constellation", False):
        # A constellation has no single-simulator prefix to checkpoint:
        # N snapshots plus fabric/protocol state is not a
        # SimulatorSnapshot.  No levels -> singleton locality group ->
        # always a cold run.
        return []
    events = scenario.timeline()
    horizon = scenario.ticks
    limit = len(events)
    if max_depth is not None:
        limit = min(limit, max(0, max_depth))
    levels: List[Tuple[int, str, Ticks]] = []
    for depth in range(limit + 1):
        boundary = events[depth][0] if depth < len(events) else horizon
        boundary = min(boundary, horizon)
        snap = (boundary // PREFIX_QUANTUM) * PREFIX_QUANTUM
        if snap < MIN_PREFIX_TICKS:
            continue
        if depth and snap < events[depth - 1][0]:
            continue
        levels.append((depth, prefix_key(scenario, depth), snap))
    return levels


def build_divergence_trie(scenarios: Sequence[Scenario], *,
                          max_depth: Optional[int] = None
                          ) -> Dict[str, PrefixPlan]:
    """Plan the campaign's shared checkpoints: scenario id -> PrefixPlan.

    A level enters a scenario's plan only when >= 2 scenarios carry the
    same prefix key — singleton checkpoints would cost a capture + pickle
    and never be forked again.  Shared levels are pinned to the *minimum*
    quantized boundary across their sharers, which is always a valid
    capture tick for every sharer (the key pins the shared event ticks,
    every sharer's own boundary is at or past the last shared event, and
    capture ticks stay nondecreasing with depth).  Scenarios sharing
    nothing get an empty plan (a plain cold run — cheaper than caching a
    checkpoint nobody reuses).
    """
    per_scenario: Dict[str, List[Tuple[int, str, Ticks]]] = {}
    boundaries: Dict[str, List[Ticks]] = {}
    for scenario in scenarios:
        levels = prefix_levels(scenario, max_depth=max_depth)
        per_scenario[scenario.scenario_id] = levels
        for _, key, snap in levels:
            boundaries.setdefault(key, []).append(snap)
    pinned = {key: min(snaps) for key, snaps in boundaries.items()
              if len(snaps) >= 2}
    plans: Dict[str, PrefixPlan] = {}
    for scenario in scenarios:
        capture: List[Tuple[int, str, Ticks]] = []
        group = scenario.scenario_id
        for depth, key, _ in per_scenario[scenario.scenario_id]:
            if key in pinned:
                capture.append((depth, key, pinned[key]))
                group = key
        plans[scenario.scenario_id] = PrefixPlan(
            scenario_id=scenario.scenario_id, group_key=group,
            capture_levels=tuple(capture))
    return plans


# ------------------------------------------------------------------ #
# the snapshot cache
# ------------------------------------------------------------------ #


class SnapshotCache:
    """LRU of prefix snapshots, bounded by entry count.

    Content-addressed by ``(prefix key, tick)``.  Each entry holds the
    pickled payload (the canonical, explicitly-sized form) plus a memoized
    live :class:`SimulatorSnapshot`, so the hot path forks without paying
    an unpickle per scenario.  Sharing one live snapshot across forks is
    sound because ``restore`` copies every mutable container out of the
    snapshot state and never mutates it.  What forks do share are the
    trace's event objects, which are immutable: each fork's log is a
    fresh deque over them (pinned by the repeated-fork and shared-event
    entries of the fork-equivalence matrix).

    Re-``put`` of an existing key is an explicit **refresh** (counted in
    ``refreshes``, not ``stores``): the payload is replaced and the
    memoized snapshot reset, so a caller that rebuilt a prefix never
    leaves a stale payload behind.

    ``fallbacks`` counts the times :func:`run_with_prefix_cache` gave up
    on building a checkpoint (a capture, pickle or restore raised) and
    ran that scenario's prefix unshared.  Digests cannot show a fallback
    — a cold run is bit-identical — so this counter is the only trace of
    one.

    All counters (including the byte totals) describe cache behaviour
    only — they belong to the nondeterministic reporting sidecar, never
    to campaign digests.  :meth:`reset_counters` zeroes the flow
    counters while keeping the entries, so a cache handed to a pool
    worker reports only that worker's work.
    """

    #: The fixed key set :meth:`stats` emits.  The governed telemetry
    #: namespace constrains ``worker/<n>/cache/<stat>`` to this set.
    STAT_KEYS = ("entries", "hits", "misses", "stores", "refreshes",
                 "evictions", "fallbacks", "total_bytes", "stored_bytes",
                 "hit_bytes", "evicted_bytes")

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # key -> [payload bytes, memoized SimulatorSnapshot or None]
        self._entries: "OrderedDict[Tuple[str, Ticks], list]" = OrderedDict()
        self.total_bytes = 0
        self.reset_counters()

    def reset_counters(self) -> None:
        """Zero every counter except the two describing the current
        contents (``entries`` and ``total_bytes``)."""
        self.hits = self.misses = self.stores = self.refreshes = 0
        self.evictions = self.fallbacks = 0
        self.stored_bytes = self.hit_bytes = self.evicted_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, fingerprint: str, tick: Ticks, payload: bytes,
            snapshot: Optional[SimulatorSnapshot] = None) -> None:
        """Insert or refresh the snapshot at ``(fingerprint, tick)``.

        An existing key is refreshed in place: payload replaced, memoized
        snapshot reset to *snapshot*, recency touched.
        """
        key = (fingerprint, tick)
        entry = self._entries.get(key)
        if entry is not None:
            self.total_bytes -= len(entry[0])
            entry[0] = payload
            entry[1] = snapshot
            self.refreshes += 1
            self._entries.move_to_end(key)
        else:
            self._entries[key] = [payload, snapshot]
            self.stores += 1
        self.total_bytes += len(payload)
        self.stored_bytes += len(payload)
        while len(self._entries) > self.capacity:
            evicted = self._entries.popitem(last=False)[1]
            self.evictions += 1
            self.total_bytes -= len(evicted[0])
            self.evicted_bytes += len(evicted[0])

    def get_snapshot(self, fingerprint: str,
                     tick: Ticks) -> Optional[SimulatorSnapshot]:
        """Exact lookup as a live snapshot, unpickling at most once."""
        entry = self._entries.get((fingerprint, tick))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self.hit_bytes += len(entry[0])
        self._entries.move_to_end((fingerprint, tick))
        if entry[1] is None:
            entry[1] = SimulatorSnapshot.from_bytes(entry[0])
        return entry[1]

    def stats(self) -> Dict[str, int]:
        """Counters for the nondeterministic reporting sidecar."""
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "stores": self.stores,
                "refreshes": self.refreshes,
                "evictions": self.evictions,
                "fallbacks": self.fallbacks,
                "total_bytes": self.total_bytes,
                "stored_bytes": self.stored_bytes,
                "hit_bytes": self.hit_bytes,
                "evicted_bytes": self.evicted_bytes}


# ------------------------------------------------------------------ #
# the prefix-sharing executor
# ------------------------------------------------------------------ #


def _resume(snapshot: Optional[SimulatorSnapshot], config, *,
            cycle_cache: Optional[bool]):
    """A simulator and injector continuing *snapshot* (cold when None).

    The injector is seeded from the applied log the checkpoint carries
    in its ``extras``, so only the rest of the timeline is scheduled.
    """
    from ..fault.injector import FaultInjector
    from ..kernel.simulator import Simulator

    if snapshot is None:
        simulator = Simulator(config, cycle_cache=cycle_cache)
    else:
        simulator = snapshot.restore(config, cycle_cache=cycle_cache)
    injector = FaultInjector(simulator)
    state = snapshot.extras.get("injector") \
        if snapshot is not None and snapshot.extras else None
    if state is not None:
        injector.load_state_dict(state)
    return simulator, injector


def _build_plan_levels(scenario: Scenario, cache: SnapshotCache,
                       plan: PrefixPlan,
                       base_snapshot: Optional[SimulatorSnapshot],
                       base_depth: int, *,
                       cycle_cache: Optional[bool] = None,
                       check_interval: int) -> Optional[SimulatorSnapshot]:
    """Build and cache the plan's missing checkpoints.

    Starts from *base_snapshot* (the checkpoint at *base_depth*), else
    cold; schedules timeline events incrementally so a checkpoint at
    level *d* has exactly the first *d* events applied and nothing deeper
    pending.  Returns the deepest checkpoint reached (or *base_snapshot*
    if nothing new was needed); returns None to degrade on any failure.
    """
    try:
        config = scenario.build_config()
        simulator, injector = _resume(base_snapshot, config,
                                      cycle_cache=cycle_cache)
        cursor = max(base_depth, 0)
        events = scenario.timeline()
        deepest = base_snapshot
        for depth, key, tick in plan.capture_levels:
            if depth <= base_depth:
                continue  # at or behind the starting checkpoint
            for event_tick, fault in events[cursor:depth]:
                injector.schedule(event_tick, fault)
            cursor = depth
            injector.run_fast(tick - simulator.now,
                              check_interval=check_interval)
            snapshot = SimulatorSnapshot.capture(
                simulator, extras={"injector": injector.state_dict()})
            cache.put(key, tick, snapshot.to_bytes(), snapshot)
            deepest = snapshot
        return deepest
    except Exception:  # noqa: BLE001 — degrade to whatever we had
        cache.fallbacks += 1
        return None


def _fork_snapshot(scenario: Scenario, cache: SnapshotCache,
                   plan: PrefixPlan, *, cycle_cache: Optional[bool],
                   check_interval: int) -> Optional[SimulatorSnapshot]:
    """The checkpoint *scenario* forks from under *plan*, or None (cold).

    Walks the plan's fork levels deepest-first through *cache* and,
    unless the deepest level was found, builds and caches every missing
    checkpoint below the deepest one found (from cold when none was).
    An empty plan needs no checkpoint.
    """
    snapshot = None
    found_depth = -1
    for depth, key, tick in plan.fork_levels:
        snapshot = cache.get_snapshot(key, tick)
        if snapshot is not None:
            found_depth = depth
            break
    if plan.capture_levels and found_depth < plan.capture_levels[-1][0]:
        built = _build_plan_levels(
            scenario, cache, plan, snapshot, found_depth,
            cycle_cache=cycle_cache, check_interval=check_interval)
        if built is not None:
            snapshot = built
    return snapshot


def run_with_prefix_cache(scenario: Scenario, cache: SnapshotCache, *,
                          plan: PrefixPlan,
                          timeout_s: Optional[float] = None,
                          check_interval: int = 20_000,
                          cycle_cache: Optional[bool] = None,
                          publisher=None,
                          artifacts=None):
    """Run *scenario* from the checkpoint its *plan* names in *cache*.

    *plan* is the scenario's slice of :func:`build_divergence_trie`;
    :func:`_fork_snapshot` finds or builds the deepest checkpoint on it
    and the scenario's divergent suffix runs from there.  An empty plan
    is a cold run.

    Prefix construction failures degrade to an uncached cold run: the
    cache is an optimization, never a correctness dependency.

    *cycle_cache* is passed to every simulator built here, chain
    construction included (steady-state MTF memoization, armed unless
    ``False``).  Checkpoints capture deterministic state only, so they
    are byte-identical whichever mode built them or forks from them.
    """
    from .runner import run_scenario

    snapshot = _fork_snapshot(scenario, cache, plan,
                              cycle_cache=cycle_cache,
                              check_interval=check_interval)
    return run_scenario(scenario, timeout_s=timeout_s,
                        check_interval=check_interval,
                        from_snapshot=snapshot,
                        cycle_cache=cycle_cache,
                        publisher=publisher,
                        artifacts=artifacts)
