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
* :func:`divergence_tick` — the first tick at which a scenario stops being
  a pure prefix run (its earliest fault or schedule command);
* :func:`prefix_key` — the fingerprint extended with the scenario's first
  *depth* timeline events; equal keys mean bit-identical execution up to
  the next event, so interior checkpoints (snapshots taken *after* shared
  faults applied) are interchangeable too;
* :func:`prefix_levels` / :func:`build_divergence_trie` — the campaign-side
  planner: enumerate each scenario's usable fork levels, pin every level
  shared by >= 2 scenarios to one common capture tick, and hand each
  scenario a :class:`PrefixPlan` (which checkpoints to build, where to
  fork, which locality group it belongs to);
* :class:`SnapshotCache` — bounded LRU of *pickled*
  :class:`~repro.kernel.snapshot.SimulatorSnapshot` payloads, keyed by
  ``(prefix key, tick)``;
* :func:`run_with_prefix_cache` — the drop-in scenario executor: fork from
  the deepest cached ancestor (local cache first, then an optional
  shared-memory transport), build and publish any missing checkpoints on
  the way down, and run the scenario's divergent suffix from the fork.

Correctness rests on the snapshot layer's bit-identity contract (tested by
the fork-equivalence matrix): a forked run's trace digest, metrics and
oracle verdict equal a cold run's, so the campaign digest is identical
with the cache on or off, at any worker count and any trie depth.
Interior checkpoints carry the fault injector's applied log in the
snapshot's ``extras`` side-channel; a forked run seeds its injector from
it and schedules only the not-yet-applied remainder of the timeline, so
the injection log — which feeds the campaign digest — is bit-identical to
a cold run's.
"""

from __future__ import annotations

import hashlib
import json
import zlib
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
    "divergence_tick",
    "prefix_key",
    "prefix_levels",
    "run_with_prefix_cache",
    "scenario_fingerprint",
]

#: Prefixes shorter than this are not worth a capture/restore round trip.
MIN_PREFIX_TICKS: Ticks = 256

#: Snapshot ticks are quantized down to multiples of this, so scenarios
#: whose divergence ticks fall in the same quantum share one cache entry
#: (one capture + pickle, many forks) instead of each capturing its own.
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


def divergence_tick(scenario: Scenario) -> Ticks:
    """First tick at which *scenario* stops being a pure prefix run.

    The earliest fault or schedule-command tick, clamped to the scenario
    horizon.  A fault at tick T applies before T's clock ISR, so a
    snapshot taken *at* tick T is still strictly pre-divergence.
    """
    events = [tick for tick, _ in scenario.faults]
    events += [tick for tick, _ in scenario.schedule_commands]
    first = min(events) if events else scenario.ticks
    return max(0, min(first, scenario.ticks))


def prefix_key(scenario: Scenario, depth: int) -> str:
    """Content key of the scenario's execution prefix through *depth* events.

    ``depth == 0`` is the fault-free root and returns
    :func:`scenario_fingerprint` unchanged (PR 5 cache entries and trie
    roots are the same namespace).  Deeper keys fold in the first *depth*
    entries of :meth:`Scenario.timeline` — ticks and full fault payloads —
    so two scenarios with equal ``prefix_key(s, d)`` execute
    bit-identically until their ``d``-th event (exclusive): same
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


def prefix_levels(scenario: Scenario, *, quantum: Ticks = PREFIX_QUANTUM,
                  max_depth: Optional[int] = None
                  ) -> List[Tuple[int, str, Ticks]]:
    """Enumerate the scenario's usable fork levels.

    Level *d* means "the first *d* timeline events applied"; its boundary
    is the ``d``-th event's tick (the horizon past the last event) and its
    candidate capture tick is that boundary quantized down to *quantum*.
    A level is usable when the capture tick clears
    :data:`MIN_PREFIX_TICKS` and does not quantize below the last applied
    event (the checkpoint must sit *after* everything it claims to have
    applied).  *max_depth* truncates the enumeration (``0`` = root only).
    """
    if quantum < 1:
        raise ValueError(f"quantum must be >= 1, got {quantum}")
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
        snap = (boundary // quantum) * quantum
        if snap < MIN_PREFIX_TICKS:
            continue
        if depth and snap < events[depth - 1][0]:
            continue
        levels.append((depth, prefix_key(scenario, depth), snap))
    return levels


def build_divergence_trie(scenarios: Sequence[Scenario], *,
                          quantum: Ticks = PREFIX_QUANTUM,
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
        levels = prefix_levels(scenario, quantum=quantum,
                               max_depth=max_depth)
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
    """Bounded LRU of prefix snapshots.

    Content-addressed by ``(prefix key, tick)``.  Each entry holds the
    pickled payload (the canonical, explicitly-sized form) plus a memoized
    live :class:`SimulatorSnapshot`, so the hot path forks without paying
    an unpickle per scenario.  Sharing one live snapshot across forks is
    sound because ``restore`` copies every mutable container out of the
    snapshot state and never mutates it.  What forks do share are the
    trace's event objects, which are immutable: each fork's log is a
    fresh deque over them (pinned by the repeated-fork and shared-event
    entries of the fork-equivalence matrix).

    Two independent LRU bounds apply: *capacity* (entry count) and
    *max_bytes* (sum of stored payload sizes; ``None`` = unbounded).
    With *compress_level* set, payloads are zlib-compressed at ``put`` —
    the byte budget then meters compressed sizes — and every consumer
    decompresses transparently through the magic-byte sniffing in
    :meth:`SimulatorSnapshot.from_bytes`.

    A payload larger than *max_bytes* on its own is **rejected** (counted
    in ``rejects``) rather than inserted: inserting it would force every
    other entry out and still leave the budget blown, so the next insert
    would evict it in turn — an eviction-thrash loop where the cache holds
    at most one oversized entry and rebuilds everything else forever.
    Because every accepted payload fits the budget, eviction never needs
    to touch the entry just inserted.

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
    to campaign digests.
    """

    #: The fixed key set :meth:`stats` emits.  The governed telemetry
    #: namespace constrains ``worker/<n>/cache/<stat>`` to this set.
    STAT_KEYS = ("entries", "hits", "misses", "stores", "refreshes",
                 "rejects", "evictions", "fallbacks", "total_bytes",
                 "stored_bytes", "hit_bytes", "evicted_bytes")

    def __init__(self, capacity: int = 16,
                 max_bytes: Optional[int] = None,
                 compress_level: Optional[int] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if compress_level is not None and not 0 <= compress_level <= 9:
            raise ValueError(
                f"compress_level must be in 0..9, got {compress_level}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.compress_level = compress_level
        # key -> [payload bytes, memoized SimulatorSnapshot or None]
        self._entries: "OrderedDict[Tuple[str, Ticks], list]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.refreshes = 0
        self.rejects = 0
        self.evictions = 0
        self.fallbacks = 0
        self.total_bytes = 0
        self.stored_bytes = 0
        self.hit_bytes = 0
        self.evicted_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, fingerprint: str, tick: Ticks, payload: bytes,
            snapshot: Optional[SimulatorSnapshot] = None) -> bool:
        """Insert or refresh the snapshot at ``(fingerprint, tick)``.

        Returns False (and counts a reject) when the payload alone
        exceeds *max_bytes*; True otherwise.  An existing key is
        refreshed in place: payload replaced, memoized snapshot reset to
        *snapshot*, recency touched.
        """
        key = (fingerprint, tick)
        if self.compress_level is not None:
            payload = zlib.compress(payload, self.compress_level)
        if self.max_bytes is not None and len(payload) > self.max_bytes:
            self.rejects += 1
            return False
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
        while (len(self._entries) > self.capacity
               or (self.max_bytes is not None
                   and self.total_bytes > self.max_bytes)):
            oldest = next(iter(self._entries))
            if oldest == key:  # never evict the just-inserted entry
                break
            evicted = self._entries.pop(oldest)
            self.evictions += 1
            self.total_bytes -= len(evicted[0])
            self.evicted_bytes += len(evicted[0])
        return True

    def get(self, fingerprint: str, tick: Ticks) -> Optional[bytes]:
        """Exact payload lookup; counts a hit or miss, refreshes recency.

        The returned bytes may be zlib-compressed (when the cache runs a
        compression tier); :meth:`SimulatorSnapshot.from_bytes` sniffs
        and handles both forms.
        """
        entry = self._entries.get((fingerprint, tick))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self.hit_bytes += len(entry[0])
        self._entries.move_to_end((fingerprint, tick))
        return entry[0]

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

    def best_prefix(self, fingerprint: str,
                    max_tick: Ticks) -> Optional[Tuple[Ticks, bytes]]:
        """Longest cached prefix of *fingerprint* at or before *max_tick*.

        Advisory (used to extend a shorter prefix rather than rebuild
        from cold); does not touch the hit/miss counters but does refresh
        the winner's LRU recency (an entry still seeding new builds is an
        entry worth keeping).  Ties cannot arise — keys are unique per
        ``(fingerprint, tick)`` — and among candidates the *highest* tick
        at or below the cap wins.
        """
        best: Optional[Tuple[Ticks, bytes]] = None
        for (cached_fp, tick), entry in self._entries.items():
            if cached_fp != fingerprint or tick > max_tick:
                continue
            if best is None or tick > best[0]:
                best = (tick, entry[0])
        if best is not None:
            self._entries.move_to_end((fingerprint, best[0]))
        return best

    def stats(self) -> Dict[str, int]:
        """Counters for the nondeterministic reporting sidecar."""
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses, "stores": self.stores,
                "refreshes": self.refreshes, "rejects": self.rejects,
                "evictions": self.evictions,
                "fallbacks": self.fallbacks,
                "total_bytes": self.total_bytes,
                "stored_bytes": self.stored_bytes,
                "hit_bytes": self.hit_bytes,
                "evicted_bytes": self.evicted_bytes}


# ------------------------------------------------------------------ #
# the prefix-sharing executor
# ------------------------------------------------------------------ #


def _build_plan_levels(scenario: Scenario, cache: SnapshotCache,
                       plan: PrefixPlan,
                       base_snapshot: Optional[SimulatorSnapshot],
                       base_depth: int, *,
                       cycle_cache: Optional[bool] = None,
                       check_interval: int,
                       transport=None) -> Optional[SimulatorSnapshot]:
    """Build, cache and publish the plan's missing checkpoints.

    Starts from *base_snapshot* (a hit at *base_depth*), else from the
    longest cached fault-free root below the first capture tick, else
    cold; schedules timeline events incrementally so a checkpoint at
    level *d* has exactly the first *d* events applied and nothing deeper
    pending.  Each level boundary re-checks the shared-memory *transport*
    before simulating toward it, so workers racing through the same chain
    converge onto the first publisher's checkpoints instead of all
    building the full chain.  Returns the deepest checkpoint reached (or
    *base_snapshot* if nothing new was needed); returns None to degrade
    on any failure.
    """
    from ..fault.injector import FaultInjector
    from ..kernel.simulator import Simulator

    try:
        config = scenario.build_config()
        cursor = 0
        if base_snapshot is not None:
            simulator = base_snapshot.restore(
                config, cycle_cache=cycle_cache)
            cursor = base_depth
        else:
            root_depth, root_key, root_tick = plan.capture_levels[0]
            base = (cache.best_prefix(root_key, root_tick)
                    if root_depth == 0 else None)
            if base is not None:
                simulator = SimulatorSnapshot.from_bytes(
                    base[1]).restore(config, cycle_cache=cycle_cache)
            else:
                simulator = Simulator(config, cycle_cache=cycle_cache)
        injector = FaultInjector(simulator)
        if base_snapshot is not None and base_snapshot.extras:
            state = base_snapshot.extras.get("injector")
            if state is not None:
                injector.load_state_dict(state)
        events = scenario.timeline()
        deepest = base_snapshot
        for depth, key, tick in plan.capture_levels:
            if depth <= base_depth:
                continue  # at or behind the starting checkpoint
            if transport is not None:
                # Re-check shared memory at every level boundary: a
                # sibling worker racing through the same chain may have
                # published this checkpoint while we were simulating the
                # shallower span — attach and jump instead of rebuilding.
                fetched = transport.fetch(key, tick)
                if fetched is not None:
                    simulator = fetched.restore(
                        config, cycle_cache=cycle_cache)
                    injector = FaultInjector(simulator)
                    if fetched.extras:
                        state = fetched.extras.get("injector")
                        if state is not None:
                            injector.load_state_dict(state)
                    cursor = depth
                    deepest = fetched
                    continue
            for event_tick, fault in events[cursor:depth]:
                injector.schedule(event_tick, fault)
            cursor = depth
            injector.run_fast(tick - simulator.now,
                              check_interval=check_interval)
            snapshot = SimulatorSnapshot.capture(
                simulator, extras={"injector": injector.state_dict()})
            cache.put(key, tick, snapshot.to_bytes(), snapshot)
            if transport is not None:
                transport.publish(key, tick, snapshot)
            deepest = snapshot
        return deepest
    except Exception:  # noqa: BLE001 — degrade to whatever we had
        cache.fallbacks += 1
        return None


def run_with_prefix_cache(scenario: Scenario, cache: SnapshotCache, *,
                          timeout_s: Optional[float] = None,
                          check_interval: int = 20_000,
                          quantum: Ticks = PREFIX_QUANTUM,
                          cycle_cache: Optional[bool] = None,
                          plan: Optional[PrefixPlan] = None,
                          transport=None,
                          publisher=None,
                          artifacts=None):
    """Run *scenario*, sharing its execution prefix through *cache*.

    Without a *plan* this is root-only sharing (the PR 5 behaviour): the
    snapshot tick is the scenario's divergence tick quantized down to a
    multiple of *quantum*, so scenarios whose divergence ticks land in
    the same quantum fork from one shared cache entry (the sub-quantum
    remainder is simulated inside the forked run, where it costs one
    event-core pass).  On a miss the prefix is built once — extending the
    longest shorter cached prefix when one exists, from cold otherwise —
    cached, and forked.

    With a *plan* (one scenario's slice of :func:`build_divergence_trie`)
    the lookup walks the scenario's fork levels deepest-first — local
    cache, then the optional shared-memory *transport* (an object with
    ``fetch(key, tick) -> snapshot|None`` and
    ``publish(key, tick, snapshot)``) — and forks from the deepest
    ancestor found, building, caching and publishing every missing
    checkpoint on the way.

    Prefix construction failures degrade to an uncached cold run: the
    cache is an optimization, never a correctness dependency.

    *cycle_cache* is passed to every simulator built here, chain
    construction included (steady-state MTF memoization, armed unless
    ``False``).  Checkpoints capture deterministic state only, so they
    are byte-identical whichever mode built them or forks from them.
    """
    from ..kernel.simulator import Simulator
    from .runner import run_scenario

    if quantum < 1:
        raise ValueError(f"quantum must be >= 1, got {quantum}")
    if getattr(scenario, "is_constellation", False):
        # Constellations never fork from snapshots; run_scenario
        # dispatches to the constellation runner.
        return run_scenario(scenario, timeout_s=timeout_s,
                            check_interval=check_interval,
                            cycle_cache=cycle_cache,
                            publisher=publisher, artifacts=artifacts)
    if plan is not None:
        snapshot = None
        found_depth = -1
        for depth, key, tick in plan.fork_levels:
            snapshot = cache.get_snapshot(key, tick)
            if snapshot is None and transport is not None:
                snapshot = transport.fetch(key, tick)
            if snapshot is not None:
                found_depth = depth
                break
        if plan.capture_levels and \
                found_depth < plan.capture_levels[-1][0]:
            built = _build_plan_levels(
                scenario, cache, plan, snapshot, found_depth,
                cycle_cache=cycle_cache,
                check_interval=check_interval, transport=transport)
            if built is not None:
                snapshot = built
        return run_scenario(scenario, timeout_s=timeout_s,
                            check_interval=check_interval,
                            from_snapshot=snapshot,
                            cycle_cache=cycle_cache,
                            publisher=publisher,
                            artifacts=artifacts)
    snap_tick = (divergence_tick(scenario) // quantum) * quantum
    if snap_tick < MIN_PREFIX_TICKS:
        return run_scenario(scenario, timeout_s=timeout_s,
                            check_interval=check_interval,
                            cycle_cache=cycle_cache,
                            publisher=publisher,
                            artifacts=artifacts)
    fingerprint = scenario_fingerprint(scenario)
    snapshot = cache.get_snapshot(fingerprint, snap_tick)
    if snapshot is None:
        base = cache.best_prefix(fingerprint, snap_tick)
        try:
            config = scenario.build_config()
            if base is not None:
                simulator = SimulatorSnapshot.from_bytes(
                    base[1]).restore(config, cycle_cache=cycle_cache)
            else:
                simulator = Simulator(config, cycle_cache=cycle_cache)
            simulator.run_fast(snap_tick - simulator.now)
            snapshot = SimulatorSnapshot.capture(simulator)
            cache.put(fingerprint, snap_tick, snapshot.to_bytes(), snapshot)
        except Exception:  # noqa: BLE001 — degrade to a cold run
            cache.fallbacks += 1
            snapshot = None
    return run_scenario(scenario, timeout_s=timeout_s,
                        check_interval=check_interval,
                        from_snapshot=snapshot,
                        cycle_cache=cycle_cache,
                        publisher=publisher,
                        artifacts=artifacts)
