"""Campaign execution: serial and worker-pool scenario fan-out.

One scenario is one fully deterministic simulation; a campaign is many of
them.  :func:`run_scenario` is the single unit of work — build the config,
drive the event core through a :class:`~repro.fault.injector.FaultInjector`,
summarize the trace — and is what both the serial loop and the
``multiprocessing`` pool execute.  Faults, crashes and per-scenario
wall-clock timeouts degrade to recorded failure results; one bad scenario
never takes the campaign down.

Determinism invariant (tested): the deterministic report is byte-identical
for any worker count and any chunk size, because every scenario is
self-contained (config factory + seed), results are keyed by scenario id,
and nothing nondeterministic (wall time, delivery order, pid) enters the
deterministic record.

Prefix sharing (on by default, ``prefix_cache=False`` / ``--no-prefix-cache``
to disable): the divergence trie (:mod:`repro.campaign.prefix`) plans, for
every scenario, the cached
:class:`~repro.kernel.snapshot.SimulatorSnapshot` checkpoints of the
prefix it shares with others — the fault-free root and any interior level
after shared faults — and the scenario forks from the deepest one instead
of re-simulating it.  With the cache off every plan is empty, so both
settings run through the same serial loop and the same locality-group
pool dispatcher.  Checkpoints reach pool workers one way: the parent
builds those of every group split across workers, and the pool
initializer hands that cache to each worker.  Forked runs are
bit-identical to cold runs, so the
determinism invariant extends across the cache setting: same digests with
it on or off.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

from ..fdir.oracle import check_trace
from ..kernel.simulator import cycle_cache_armed
from ..kernel.snapshot import SimulatorSnapshot
from ..kernel.trace import MemoryFault, ScheduleSwitched
from ..kernel.cycle_cache import CYCLE_CACHE_STAT_KEYS
from ..obs.derived import compact_metrics
# Used as ``prefix.<name>`` so every call looks the function up on the
# module; instrumentation that patches it there sees every call.
from . import prefix
from .artifacts import ScenarioArtifacts, write_scenario_artifacts
from .results import (
    STATUS_CRASHED,
    STATUS_OK,
    STATUS_TIMEOUT,
    ScenarioResult,
)
from .scenarios import Scenario

__all__ = [
    "run_scenario",
    "run_serial",
    "run_pool",
    "run_campaign",
    "autodetect_workers",
]

#: Simulated ticks between wall-clock timeout polls inside a scenario
#: (and the span cap of every campaign ``run_fast`` call).
TIMEOUT_CHECK_INTERVAL = 20_000


def autodetect_workers() -> int:
    """Usable worker count: the scheduling affinity if the OS exposes it."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _record_failure(scenario, run, *, status: str, error: str,
                    violations: Sequence = (), publisher=None,
                    artifacts: Optional[ScenarioArtifacts] = None) -> None:
    """Failure-path observability: flight-recorder bundle + crash events.

    *run* supplies its kind's bundle arguments (the simulator, injector
    and fork point of a single node; the failing node and inter-node
    backlog of a constellation).  Best effort throughout — nothing here
    may replace or mask the scenario's original error.
    """
    path = None
    if artifacts is not None and artifacts.flight_recorder_dir is not None:
        from ..obs.telemetry.recorder import (
            flight_record,
            save_flight_record,
        )

        bundle = flight_record(
            scenario, status=status, error=error, violations=violations,
            last_n=artifacts.flight_record_last_n,
            **run.bundle_kwargs(violations))
        path = save_flight_record(bundle, artifacts.flight_recorder_dir)
    if publisher is not None:
        publisher.scenario_crashed(scenario.scenario_id, error)
        if path is not None:
            publisher.flight_record(scenario.scenario_id, path)


#: Per-process cycle-cache counter totals, accumulated across every
#: scenario this process executes with the cache armed (None until the
#: first one).  Host-side material for the execution sidecar only.
_CYCLE_CACHE_TOTALS: Optional[Dict[str, int]] = None


def _note_cycle_stats(run) -> None:
    """Fold the cycle-cache counters of *run*'s simulators into this
    process's total."""
    global _CYCLE_CACHE_TOTALS
    for _, simulator in run.simulators():
        stats = simulator.cycle_cache_stats
        if not stats:
            continue
        if _CYCLE_CACHE_TOTALS is None:
            _CYCLE_CACHE_TOTALS = {key: 0 for key in CYCLE_CACHE_STAT_KEYS}
        totals = _CYCLE_CACHE_TOTALS
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + value


class _NodeRun:
    """A single-node scenario's part in :func:`run_scenario`: one
    simulator and its fault injector, cold or forked from a checkpoint.

    ``check_trace`` and ``compact_metrics`` are looked up in this
    module's namespace at call time, so instrumentation that patches
    them here sees every single-node audit.
    """

    def __init__(self, scenario: Scenario,
                 from_snapshot: Optional[SimulatorSnapshot],
                 cycle_cache: Optional[bool]) -> None:
        self.scenario = scenario
        self.from_snapshot = from_snapshot
        self.cycle_cache = cycle_cache
        self.config = self.simulator = self.injector = None
        self.forked_at = -1

    def build(self) -> None:
        self.config = self.scenario.build_config()
        self.simulator, self.injector = prefix._resume(
            self.from_snapshot, self.config, cycle_cache=self.cycle_cache)
        if self.from_snapshot is not None:
            self.forked_at = self.simulator.now

    def schedule(self) -> None:
        # The merged timeline reproduces the historical heap order exactly
        # (faults first at equal ticks — see Scenario.timeline), so cold
        # runs are bit-identical to the former faults-then-commands
        # scheduling, and forked runs skip exactly the applied slice.
        applied = len(self.injector.log)
        for tick, fault in self.scenario.timeline()[applied:]:
            self.injector.schedule(tick, fault)

    @property
    def now(self) -> int:
        return self.simulator.now

    def advance(self, should_abort) -> bool:
        return self.injector.run_fast(
            self.scenario.ticks - self.simulator.now,
            should_abort=should_abort, check_interval=TIMEOUT_CHECK_INTERVAL)

    def audit(self) -> Sequence:
        return check_trace(self.simulator.trace, self.config)

    def simulators(self):
        """``(artifact label, simulator)``: the scenario id, once."""
        if self.simulator is None:
            return []
        return [(self.scenario.scenario_id, self.simulator)]

    def bundle_kwargs(self, violations) -> Dict[str, object]:
        return {"simulator": self.simulator, "injector": self.injector,
                "from_snapshot": self.from_snapshot,
                "forked_at": self.forked_at}

    def metrics(self, tally: Dict[type, int]):
        return compact_metrics(self.simulator.trace, tally)

    def result_fields(self) -> Dict[str, object]:
        trace = self.simulator.trace
        log = self.injector.log
        return {
            "faults_applied": len(log),
            "injections": tuple(
                (record.tick, type(record.fault).__name__, record.status)
                for record in log),
            "trace_events": len(trace),
            "trace_digest": trace.digest(),
            "occupancy": tuple(sorted(
                self.simulator.pmk.partition_ticks.items())),
        }

    def publish(self, publisher) -> None:
        """A single node streams no per-node events."""


def run_scenario(scenario: Scenario, *,
                 timeout_s: Optional[float] = None,
                 from_snapshot: Optional[SimulatorSnapshot] = None,
                 cycle_cache: Optional[bool] = None,
                 publisher=None,
                 artifacts: Optional[ScenarioArtifacts] = None
                 ) -> ScenarioResult:
    """Execute one scenario to completion, failure or timeout.

    The one lifecycle every scenario runs through, single-node and
    constellation alike.  Any exception — a broken config factory, a
    fault naming an unknown schedule, an internal invariant trip — is
    captured as a ``crashed`` result; exceeding *timeout_s* of wall time
    yields a ``timeout`` result with the metrics gathered so far.  Either
    way the caller gets a :class:`ScenarioResult`, never a raised
    exception.  Wall-clock timeout polls come at least every
    :data:`TIMEOUT_CHECK_INTERVAL` simulated ticks.

    *from_snapshot* forks the scenario from a checkpoint instead of a cold
    simulator: the snapshot must have been captured from the scenario's
    own configuration, either before its first fault/command tick (a
    fault-free root) or — when the snapshot's ``extras`` carry the fault
    injector's applied log — after any leading slice of its timeline was
    applied (an interior divergence-trie node).  The injector is seeded
    from that log and schedules only the not-yet-applied remainder, and
    the run covers the remaining ``scenario.ticks - snapshot.tick`` ticks.
    The result is bit-identical to a cold run (the snapshot layer's
    contract); only the nondeterministic ``forked_at_tick`` field records
    that a fork happened.

    *cycle_cache* is passed to the scenario's simulators: steady-state
    MTF memoization (DESIGN decision 13) is armed unless it is ``False``
    — a bit-identity contract, so digests are independent of it; its
    host-side hit counters accumulate into the per-worker execution
    sidecar.

    Unless the scenario opts out (``oracle=False``), the finished run is
    audited — by the TSP invariant oracle
    (:func:`repro.fdir.oracle.check_trace`), and for a constellation also
    per node and by the cross-node oracle; any violation downgrades an
    otherwise clean run to ``crashed`` with the violations in ``error``.

    *publisher* (a :class:`~repro.obs.telemetry.TelemetryPublisher`)
    streams timing-channel lifecycle events; *artifacts*
    (:class:`~repro.campaign.artifacts.ScenarioArtifacts`) dumps
    per-simulator metrics/timeline files (``<id>.*`` for a single node,
    ``<id>.n<i>.*`` per constellation node) and failure flight-recorder
    bundles.  Both are pure observers: every simulation step — including
    the ``run_fast`` chunking, whose span bounds are computed identically
    whether ``should_abort`` is set or not — is byte-identical with them
    on, off, or partially consumed.

    Constellation scenarios (``is_constellation``) run N lockstep nodes
    through :class:`repro.constellation.runner.ConstellationRun` instead
    of one simulator.  They never fork from snapshots (each constellation
    is its own locality group).
    """
    start = time.perf_counter()
    if getattr(scenario, "is_constellation", False):
        from ..constellation.runner import ConstellationRun

        run = ConstellationRun(scenario, cycle_cache)
    else:
        run = _NodeRun(scenario, from_snapshot, cycle_cache)
    scenario_id = scenario.scenario_id
    if publisher is not None:
        publisher.scenario_started(scenario_id, scenario.ticks)
    try:
        run.build()
        if run.forked_at >= 0 and publisher is not None:
            publisher.scenario_forked(scenario_id, run.forked_at)
        run.schedule()
        should_abort = None
        if timeout_s is not None:
            deadline = start + timeout_s
            should_abort = lambda: time.perf_counter() > deadline
        if publisher is not None:
            # Progress heartbeats piggyback on the existing abort poll:
            # the span bounds do not depend on should_abort being set, so
            # publishing from it cannot perturb the simulation.
            inner_abort = should_abort

            def should_abort() -> bool:
                publisher.scenario_progress(scenario_id, run.now,
                                            scenario.ticks)
                return inner_abort() if inner_abort is not None else False
        completed = run.advance(should_abort)
    except Exception as exc:
        _note_cycle_stats(run)
        error = f"{type(exc).__name__}: {exc}"
        result = ScenarioResult(
            scenario_id=scenario_id,
            seed=scenario.seed,
            status=STATUS_CRASHED,
            error=error,
            wall_time_s=time.perf_counter() - start,
            forked_at_tick=run.forked_at,
        )
        _record_failure(scenario, run, status=STATUS_CRASHED, error=error,
                        publisher=publisher, artifacts=artifacts)
        if publisher is not None:
            publisher.scenario_finished(
                scenario_id, STATUS_CRASHED, result.wall_time_s,
                run.forked_at)
        return result
    _note_cycle_stats(run)
    status = STATUS_OK if completed else STATUS_TIMEOUT
    error = "" if completed else \
        f"exceeded {timeout_s}s wall-clock budget at tick {run.now}"
    violations: Sequence = ()
    if completed and scenario.oracle:
        violations = run.audit()
        if violations:
            status = STATUS_CRASHED
            error = (f"oracle: {len(violations)} invariant violation(s); "
                     + "; ".join(
                         f"{v.invariant}@{v.tick}: {v.detail}"
                         for v in violations[:3]))
    if status == STATUS_CRASHED:
        _record_failure(scenario, run, status=status, error=error,
                        violations=violations, publisher=publisher,
                        artifacts=artifacts)
    if artifacts is not None and artifacts.wants_exports:
        for label, simulator in run.simulators():
            write_scenario_artifacts(label, simulator, artifacts)
    if publisher is not None:
        run.publish(publisher)
    tally = {ScheduleSwitched: 0, MemoryFault: 0}
    metrics = run.metrics(tally)
    counts = dict(metrics)
    fields = run.result_fields()
    result = ScenarioResult(
        scenario_id=scenario_id,
        seed=scenario.seed,
        status=status,
        ticks=run.now,
        deadline_misses=counts["deadline_misses"],
        hm_events=counts["hm_events"],
        schedule_switches=tally[ScheduleSwitched],
        memory_faults=tally[MemoryFault],
        metrics=metrics,
        error=error,
        wall_time_s=time.perf_counter() - start,
        forked_at_tick=run.forked_at,
        **fields,
    )
    if publisher is not None:
        publisher.scenario_finished(scenario_id, status,
                                    result.wall_time_s, run.forked_at)
    return result


#: Per-worker-process prefix cache, installed by the pool initializer
#: (:func:`_init_worker`) and reused across every pool task the worker
#: handles.  Module-level so it survives between tasks in the same worker.
_WORKER_PREFIX_CACHE = None

#: Per-worker-process telemetry wiring, installed by the pool initializer:
#: ``(sink, campaign id)`` or None.
_WORKER_TELEMETRY = None

#: Lazily built per-process :class:`TelemetryPublisher` over the wiring.
_WORKER_PUBLISHER = None


def _init_worker(cache, telemetry) -> None:
    """Pool initializer: install the parent's pre-built prefix *cache*
    and its *telemetry* wiring (``(sink, campaign id)`` or None).

    Under the fork start method initargs are inherited, not pickled, so
    every worker starts from the parent's live snapshots copy-on-write;
    under spawn the cache is pickled once per worker.
    """
    global _WORKER_PREFIX_CACHE, _WORKER_TELEMETRY, _WORKER_PUBLISHER, \
        _CYCLE_CACHE_TOTALS
    _WORKER_PREFIX_CACHE = cache
    _WORKER_TELEMETRY = telemetry
    _WORKER_PUBLISHER = None
    # A forked worker inherits the parent's totals; its sidecar must
    # count only the scenarios it runs itself.
    _CYCLE_CACHE_TOTALS = None


def _worker_publisher():
    """This worker's publisher, or None when telemetry is off."""
    global _WORKER_PUBLISHER
    if _WORKER_TELEMETRY is None:
        return None
    if _WORKER_PUBLISHER is None:
        from ..obs.telemetry.bus import TelemetryPublisher

        sink, campaign_id = _WORKER_TELEMETRY
        _WORKER_PUBLISHER = TelemetryPublisher(
            sink, campaign_id, worker=str(os.getpid()))
    return _WORKER_PUBLISHER


def _group_worker(payload):
    """Run one locality group (scenarios sharing a prefix) in one worker.

    Returns ``(original indices, results, sidecar)`` — the parent
    reassembles results into campaign order by index, so dispatch order
    (``imap_unordered``) never reaches the deterministic report.  The
    sidecar carries this worker's cumulative cache counters (keyed by
    pid on the parent side; later tasks from the same worker simply
    overwrite with larger counts).
    """
    indices, group, plans, timeout_s, cycle_cache, artifacts = payload
    cache = _WORKER_PREFIX_CACHE
    publisher = _worker_publisher()
    results = [
        prefix.run_with_prefix_cache(
            scenario, cache, plan=plan, timeout_s=timeout_s,
            cycle_cache=cycle_cache, publisher=publisher,
            artifacts=artifacts)
        for scenario, plan in zip(group, plans)]
    sidecar = {"pid": os.getpid(),
               "prefix_cache": cache.stats(),
               "cycle_cache": dict(_CYCLE_CACHE_TOTALS)
               if _CYCLE_CACHE_TOTALS is not None else None}
    if publisher is not None:
        # Cumulative counters per task; the log consumer reads the last
        # event per (worker, stat) topic as the worker's final value.
        publisher.cache_stats(cache.stats())
        if _CYCLE_CACHE_TOTALS is not None:
            publisher.cycle_cache_stats(_CYCLE_CACHE_TOTALS)
    return indices, results, sidecar


def _plan_campaign(scenarios: Sequence[Scenario], prefix_cache: bool):
    """Scenario id -> PrefixPlan: the divergence trie, or empty plans
    (every scenario a cold run in its own group) with the cache off."""
    if prefix_cache:
        return prefix.build_divergence_trie(scenarios)
    return {scenario.scenario_id: prefix.PrefixPlan(
                scenario_id=scenario.scenario_id,
                group_key=scenario.scenario_id, capture_levels=())
            for scenario in scenarios}


def _close_bus(bus, results: Sequence[ScenarioResult],
               telemetry: Optional[Dict]) -> None:
    """Finish the aggregator (deterministic block + log close) and stash
    its stream counters into the reporting sidecar."""
    if bus is None:
        return
    stats = bus.finish(results)
    if telemetry is not None:
        telemetry["telemetry_stream"] = stats


def run_serial(scenarios: Sequence[Scenario], *,
               timeout_s: Optional[float] = None,
               prefix_cache: bool = True,
               cycle_cache: Optional[bool] = None,
               telemetry: Optional[Dict] = None,
               bus=None,
               artifacts: Optional[ScenarioArtifacts] = None
               ) -> List[ScenarioResult]:
    """Run every scenario in this process, in order.

    With *prefix_cache* (the default) scenarios sharing a configuration
    and seed fork from cached snapshots of their common prefixes — the
    fault-free root and, via the divergence trie, interior checkpoints
    after shared faults; results are bit-identical either way.
    *telemetry*, when a dict, receives nondeterministic cache counters
    for the reporting sidecar.

    *bus* (a :class:`~repro.obs.telemetry.TelemetryAggregator`) turns on
    live streaming: the serial loop publishes straight into the
    aggregator (no queue), and the deterministic event block is derived
    from the finished results on close.  *artifacts* dumps per-scenario
    metrics/timeline files and failure flight-recorder bundles.
    """
    publisher = None
    if bus is not None:
        from ..obs.telemetry.bus import TelemetryPublisher

        publisher = TelemetryPublisher(bus.start(None), bus.campaign_id,
                                       worker="serial")
    cycle_before = dict(_CYCLE_CACHE_TOTALS or {})
    plans = _plan_campaign(scenarios, prefix_cache)
    cache = prefix.SnapshotCache()
    results = [
        prefix.run_with_prefix_cache(
            scenario, cache, plan=plans[scenario.scenario_id],
            timeout_s=timeout_s, cycle_cache=cycle_cache,
            publisher=publisher, artifacts=artifacts)
        for scenario in scenarios]
    if telemetry is not None:
        telemetry["prefix_tree"] = _tree_telemetry(plans, prefix_cache)
        telemetry["workers"] = {
            "serial": {"prefix_cache": cache.stats()}}
        _serial_cycle_telemetry(telemetry, cycle_before, cycle_cache)
    if publisher is not None:
        publisher.cache_stats(cache.stats())
        if cycle_cache_armed(cycle_cache):
            publisher.cycle_cache_stats(_cycle_totals_since(cycle_before))
    _close_bus(bus, results, telemetry)
    return results


def _cycle_totals_since(before: Dict[str, int]) -> Dict[str, int]:
    """This process's cycle-cache counters accumulated since *before*."""
    totals = _CYCLE_CACHE_TOTALS or {}
    return {key: totals.get(key, 0) - before.get(key, 0)
            for key in CYCLE_CACHE_STAT_KEYS}


def _serial_cycle_telemetry(telemetry: Dict, before: Dict[str, int],
                            cycle_cache: Optional[bool]) -> None:
    """Stash this campaign's serial-process cycle-cache counters."""
    if not cycle_cache_armed(cycle_cache):
        telemetry["cycle_cache"] = {"enabled": False}
        return
    delta = _cycle_totals_since(before)
    telemetry["cycle_cache"] = {"enabled": True, **delta}
    workers = telemetry.setdefault("workers", {})
    workers.setdefault("serial", {})["cycle_cache"] = delta


def _tree_telemetry(plans, prefix_cache: bool) -> Dict:
    groups = {plan.group_key for plan in plans.values()}
    levels = {level for plan in plans.values()
              for level in plan.capture_levels}
    return {
        "enabled": prefix_cache,
        "groups": len(groups),
        "planned_scenarios": sum(
            1 for plan in plans.values() if plan.capture_levels),
        "capture_levels": len(levels),
        "max_depth_planned": max(
            (level[0] for level in levels), default=0),
    }


def run_pool(scenarios: Sequence[Scenario], *,
             workers: Optional[int] = None,
             chunksize: Optional[int] = None,
             timeout_s: Optional[float] = None,
             prefix_cache: bool = True,
             cycle_cache: Optional[bool] = None,
             telemetry: Optional[Dict] = None,
             bus=None,
             artifacts: Optional[ScenarioArtifacts] = None
             ) -> List[ScenarioResult]:
    """Fan scenarios out over a ``multiprocessing`` pool.

    Scenarios are grouped by their plan's deepest shared prefix key and
    whole groups are handed to the same worker via ``imap_unordered`` —
    the worker that builds a prefix checkpoint is the worker that reuses
    it.  With *prefix_cache* off every plan is empty and every scenario
    is its own group.  Results are reassembled into campaign order by
    original index, so the result list matches the scenario list
    index-for-index, and the deterministic report is provably independent
    of dispatch: every scenario is self-contained, results are re-sorted
    by scenario id in the aggregate, and nothing nondeterministic enters
    the deterministic record.  *chunksize* caps scenarios per group task
    (default: each group split across the worker count).  At one worker
    (or one scenario) this is :func:`run_serial`.

    Checkpoints reach the workers one way: the parent pre-builds the
    chain of every group split across several workers into one
    :class:`~repro.campaign.prefix.SnapshotCache`, and the pool
    initializer installs that cache as each worker's own, so the
    workers sharing a group fork from it instead of racing each other
    to cold-build the same chain.  Under the fork start method the
    workers inherit the live snapshots copy-on-write; under spawn the
    cache is pickled once per worker.  Single-chunk groups are not
    pre-built: their one worker builds the chain exactly once anyway.
    Worker cache counters start from zero; the pre-build's own counters
    are the ``prebuild`` entry of *telemetry*'s ``workers`` section.

    Worker crashes are absorbed inside :func:`run_scenario`; only an
    interpreter-level death (signal, OOM kill) can still fail the pool.
    From the hand-off on, each worker process keeps its own copy of the
    cache (sharing one across processes would serialize on it).
    """
    if workers is None:
        workers = autodetect_workers()
    if workers <= 1 or len(scenarios) <= 1:
        return run_serial(scenarios, timeout_s=timeout_s,
                          prefix_cache=prefix_cache,
                          cycle_cache=cycle_cache,
                          telemetry=telemetry, bus=bus,
                          artifacts=artifacts)
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    plans = _plan_campaign(scenarios, prefix_cache)

    # Locality-aware dispatch: group scenarios by their deepest shared
    # prefix key (first-appearance order), split each group into at most
    # chunksize-sized tasks, and reassemble results by original index.
    groups: "OrderedDict[str, List[int]]" = OrderedDict()
    for index, scenario in enumerate(scenarios):
        key = plans[scenario.scenario_id].group_key
        groups.setdefault(key, []).append(index)

    payloads = []
    split_chains: List[Scenario] = []
    for key, indices in groups.items():
        cap = chunksize if chunksize else max(
            1, -(-len(indices) // workers))
        if len(indices) > cap:
            split_chains.append(scenarios[indices[0]])
        for start in range(0, len(indices), cap):
            chunk = indices[start:start + cap]
            payloads.append((
                tuple(chunk),
                tuple(scenarios[i] for i in chunk),
                tuple(plans[scenarios[i].scenario_id] for i in chunk),
                timeout_s, cycle_cache, artifacts))

    cache = prefix.SnapshotCache()
    for scenario in split_chains:
        prefix._fork_snapshot(scenario, cache, plans[scenario.scenario_id],
                              cycle_cache=cycle_cache)
    prebuild_stats = cache.stats()
    cache.reset_counters()

    # Telemetry: the aggregator owns a queue in this (parent) process and
    # drains it on a daemon thread, so events stream live even while the
    # blocking imap call below is in flight; workers receive the queue
    # sink through the pool initializer.
    wiring = (bus.start(context), bus.campaign_id) if bus is not None \
        else None
    results: List[Optional[ScenarioResult]] = [None] * len(scenarios)
    worker_stats: Dict[str, Dict] = {}
    with context.Pool(processes=workers, initializer=_init_worker,
                      initargs=(cache, wiring)) as pool:
        for indices, group_results, sidecar in pool.imap_unordered(
                _group_worker, payloads, chunksize=1):
            for index, result in zip(indices, group_results):
                results[index] = result
            worker_stats[str(sidecar["pid"])] = sidecar
        # Let the workers exit on their own before the context manager's
        # terminate(): a worker killed while its telemetry-queue feeder
        # thread holds the queue's shared lock would leave the parent's
        # closing sentinel blocked, and its final events unflushed.
        pool.close()
        pool.join()
    if telemetry is not None:
        telemetry["prefix_tree"] = _tree_telemetry(plans, prefix_cache)
        telemetry["workers"] = {
            pid: {"prefix_cache": sidecar["prefix_cache"],
                  "cycle_cache": sidecar.get("cycle_cache")}
            for pid, sidecar in sorted(worker_stats.items())}
        telemetry["workers"]["prebuild"] = {"prefix_cache": prebuild_stats}
        cycle_totals: Dict[str, int] = {}
        for sidecar in worker_stats.values():
            for name, value in (sidecar.get("cycle_cache") or {}).items():
                cycle_totals[name] = cycle_totals.get(name, 0) + value
        telemetry["cycle_cache"] = {
            "enabled": cycle_cache_armed(cycle_cache), **cycle_totals}
    _close_bus(bus, results, telemetry)  # type: ignore[arg-type]
    return results  # type: ignore[return-value]


def run_campaign(scenarios: Sequence[Scenario], *,
                 workers: int = 1,
                 chunksize: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 prefix_cache: bool = True,
                 cycle_cache: Optional[bool] = None,
                 telemetry: Optional[Dict] = None,
                 bus=None,
                 artifacts: Optional[ScenarioArtifacts] = None
                 ) -> List[ScenarioResult]:
    """Serial (`workers <= 1`, the default) or pooled campaign execution.

    *bus* streams live telemetry (see :func:`run_serial` /
    :func:`run_pool`); *artifacts* dumps per-scenario files.  Both leave
    every deterministic output — campaign digest, trace digests, oracle
    verdicts — byte-identical to a run without them, as does
    *cycle_cache* (steady-state MTF memoization, armed unless ``False``).
    """
    return run_pool(scenarios, workers=workers, chunksize=chunksize,
                    timeout_s=timeout_s, prefix_cache=prefix_cache,
                    cycle_cache=cycle_cache,
                    telemetry=telemetry, bus=bus, artifacts=artifacts)
