"""Campaign execution: one runner, in-process or over a worker pool.

One scenario is one fully deterministic simulation; a campaign is many of
them.  :func:`run_scenario` is the single unit of work — build the config,
drive the event core through a :class:`~repro.fault.injector.FaultInjector`,
summarize the trace — and :func:`run_campaign` the single way to run many:
one scenario loop (``_run_group``) that pool workers run per locality
group and an in-process campaign runs once over every scenario.  Faults,
crashes and per-scenario wall-clock timeouts degrade to recorded failure
results; one bad scenario never takes the campaign down.

Determinism invariant (tested): the deterministic report is byte-identical
for any worker count and any chunk size, because every scenario is
self-contained (config factory + seed), results are keyed by scenario id,
and nothing nondeterministic (wall time, delivery order, pid, cache
counters) enters the deterministic record.  Host-side counters travel
with the result that produced them — each result carries its own
simulators' cycle-cache counters — so every sidecar figure is a sum over
the results returned, never process-global state.

Prefix sharing (on by default, ``prefix_cache=False`` / ``--no-prefix-cache``
to disable): the divergence trie (:mod:`repro.campaign.prefix`) plans, for
every scenario, the cached
:class:`~repro.kernel.snapshot.SimulatorSnapshot` checkpoints of the
prefix it shares with others — the fault-free root and any interior level
after shared faults — and the scenario forks from the deepest one instead
of re-simulating it.  With the cache off every plan is empty, so both
settings run through the same scenario loop and the same locality-group
dispatch.  Checkpoints reach pool workers one way: the parent
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
from itertools import islice
from typing import Dict, List, Optional, Sequence

from ..fdir.oracle import check_trace
from ..kernel.cycle_cache import CYCLE_CACHE_STAT_KEYS
from ..obs.derived import compact_metrics
from ..obs.fold import total
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
    "run_campaign",
    "autodetect_workers",
]


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


def _sum_cycle_stats(stats) -> Optional[Dict[str, int]]:
    """Key-wise sum of cycle-cache counter dicts, skipping the None of an
    unarmed cache; None when every entry is None."""
    totals = None
    for entry in stats:
        if entry is None:
            continue
        if totals is None:
            totals = dict.fromkeys(CYCLE_CACHE_STAT_KEYS, 0)
        for key, value in entry.items():
            totals[key] += value
    return totals


class _NodeRun:
    """A single-node scenario's part in :func:`run_scenario`: one
    simulator and its fault injector, cold or forked from a checkpoint,
    on the configuration its :class:`~repro.campaign.prefix.Start`
    builds (by default the scenario's own build).

    ``check_trace`` and ``compact_metrics`` are looked up in this
    module's namespace at call time, so instrumentation that patches
    them here sees every single-node audit.  A forked run resumes both
    from the audit states its checkpoint carries and folds only the
    events recorded after the fork point.
    """

    def __init__(self, scenario: Scenario,
                 start: Optional[prefix.Start]) -> None:
        self.scenario = scenario
        self.start = start if start is not None \
            else prefix.Start(scenario.build_config, None)
        self.config = self.simulator = self.injector = None
        self.audits = None
        self.forked_at = -1

    def build(self) -> None:
        self.config = self.start.build_config()
        self.simulator, self.injector, self.audits = prefix._resume(
            self.start.snapshot, self.config)
        if self.start.snapshot is not None:
            self.forked_at = self.simulator.now

    def _events_since(self, count: int):
        """The trace's events after its first *count* (the whole trace
        for 0): what the audits fold on top of the fork point's states."""
        trace = self.simulator.trace
        return islice(trace, count, None) if count else trace

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
            should_abort=should_abort)

    def audit(self) -> Sequence:
        count, _, oracle = self.audits
        return check_trace(self._events_since(count), self.config,
                           state=oracle.copy())

    def simulators(self):
        """``(artifact label, simulator)``: the scenario id, once."""
        if self.simulator is None:
            return []
        return [(self.scenario.scenario_id, self.simulator)]

    def bundle_kwargs(self, violations) -> Dict[str, object]:
        return {"simulator": self.simulator, "injector": self.injector,
                "from_snapshot": self.start.snapshot,
                "forked_at": self.forked_at}

    def metrics(self):
        """``(compact pairs, fold states)``: one state, this node's."""
        count, metrics, _ = self.audits
        state = metrics.copy()
        return compact_metrics(self._events_since(count), state), (state,)

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
                 start: Optional[prefix.Start] = None,
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
    :data:`~repro.fault.injector.CHECK_INTERVAL` simulated ticks.

    *start* (a :class:`~repro.campaign.prefix.Start`) says where a
    single-node run starts.  Its ``build_config`` supplies the
    configuration and is called inside the run, so a build that raises
    is a ``crashed`` result.  A campaign passes the configuration its
    cache memoizes per scenario fingerprint; without a *start* the
    scenario builds its own.  Its ``snapshot`` forks the scenario from a
    checkpoint instead of a cold simulator: the snapshot must have been
    captured from the scenario's own configuration, either before its
    first fault/command tick (a fault-free root) or — when the
    snapshot's ``extras`` carry the fault injector's applied log — after
    any leading slice of its timeline was applied (an interior
    divergence-trie node).  The injector is seeded from that log and
    schedules only the not-yet-applied remainder, and the run covers
    the remaining ``scenario.ticks - snapshot.tick`` ticks.
    The result is bit-identical to a cold run (the snapshot layer's
    contract); only the nondeterministic ``forked_at_tick`` field records
    that a fork happened.

    The scenario's simulators run with the cycle cache armed
    (steady-state MTF memoization, DESIGN decision 13) — a bit-identity
    contract, so digests are independent of it; the result's
    ``cycle_cache_stats`` carries its simulators' summed host-side
    counters, crashed runs included.

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
    began = time.perf_counter()
    if getattr(scenario, "is_constellation", False):
        from ..constellation.runner import ConstellationRun

        run = ConstellationRun(scenario)
    else:
        run = _NodeRun(scenario, start)
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
            deadline = began + timeout_s
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
        error = f"{type(exc).__name__}: {exc}"
        result = ScenarioResult(
            scenario_id=scenario_id,
            seed=scenario.seed,
            status=STATUS_CRASHED,
            error=error,
            wall_time_s=time.perf_counter() - began,
            forked_at_tick=run.forked_at,
            cycle_cache_stats=_sum_cycle_stats(
                simulator.cycle_cache_stats
                for _, simulator in run.simulators()),
        )
        _record_failure(scenario, run, status=STATUS_CRASHED, error=error,
                        publisher=publisher, artifacts=artifacts)
        if publisher is not None:
            publisher.scenario_finished(
                scenario_id, STATUS_CRASHED, result.wall_time_s,
                run.forked_at)
        return result
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
    metrics, states = run.metrics()
    counts = dict(metrics)
    fields = run.result_fields()
    result = ScenarioResult(
        scenario_id=scenario_id,
        seed=scenario.seed,
        status=status,
        ticks=run.now,
        deadline_misses=counts["deadline_misses"],
        hm_events=counts["hm_events"],
        schedule_switches=sum(total(state.schedule_switches)
                              for state in states),
        memory_faults=sum(total(state.memory_faults) for state in states),
        metrics=metrics,
        error=error,
        wall_time_s=time.perf_counter() - began,
        forked_at_tick=run.forked_at,
        cycle_cache_stats=_sum_cycle_stats(
            simulator.cycle_cache_stats for _, simulator in run.simulators()),
        **fields,
    )
    if publisher is not None:
        publisher.scenario_finished(scenario_id, status,
                                    result.wall_time_s, run.forked_at)
    return result


#: Per-worker-process state, installed by the pool initializer
#: (:func:`_init_worker`) and reused across every task the worker
#: handles: the prefix cache its scenarios fork from, and its telemetry
#: publisher (None when telemetry is off).
_WORKER_PREFIX_CACHE = None
_WORKER_PUBLISHER = None


def _publisher(wiring, worker: str):
    """A :class:`TelemetryPublisher` for *worker* over *wiring* (``(sink,
    campaign id)``), or None when telemetry is off."""
    if wiring is None:
        return None
    from ..obs.telemetry.bus import TelemetryPublisher

    sink, campaign_id = wiring
    return TelemetryPublisher(sink, campaign_id, worker=worker)


def _init_worker(cache, wiring) -> None:
    """Pool initializer: install the parent's pre-built prefix *cache*
    and a publisher over its telemetry *wiring* (``(sink, campaign id)``
    or None), labelled with this worker's pid.

    Under the fork start method initargs are inherited, not pickled, so
    every worker starts from the parent's live snapshots copy-on-write;
    under spawn the cache is pickled once per worker.
    """
    global _WORKER_PREFIX_CACHE, _WORKER_PUBLISHER
    _WORKER_PREFIX_CACHE = cache
    _WORKER_PUBLISHER = _publisher(wiring, str(os.getpid()))


def _run_group(payload, cache, publisher):
    """Run one payload's scenarios, in order, against the prefix *cache*.

    The one scenario loop of a campaign: a pool worker runs each locality
    group it is handed here, and an in-process campaign runs itself here
    as one payload.  Returns ``(original indices, results, prefix-cache
    counters, next publish sequence number)``.  The counters are
    cumulative over every payload the cache served, so a worker's last
    task reports its total; the sequence number (None without telemetry)
    lets events published later under this worker's label continue its
    numbering.
    """
    indices, group, plans, timeout_s, artifacts = payload
    results = [
        prefix.run_with_prefix_cache(
            scenario, cache, plan=plan, timeout_s=timeout_s,
            publisher=publisher, artifacts=artifacts)
        for scenario, plan in zip(group, plans)]
    stats = cache.stats()
    if publisher is not None:
        # The log consumer reads the last event per (worker, stat) topic
        # as the worker's final value.
        publisher.cache_stats(stats)
    return (indices, results, stats,
            publisher.seq if publisher is not None else None)


def _pool_task(payload):
    """A pool worker's task: :func:`_run_group` over the worker's own
    cache and publisher, labelled with its pid."""
    return (str(os.getpid()),) + _run_group(
        payload, _WORKER_PREFIX_CACHE, _WORKER_PUBLISHER)


def _pool_tasks(context, workers: int, cache, wiring, payloads):
    """Yield each pool task's :func:`_pool_task` tuple as it completes.

    Dispatch order (``imap_unordered``) never reaches the deterministic
    report: the caller reassembles results by original index.
    """
    with context.Pool(processes=workers, initializer=_init_worker,
                      initargs=(cache, wiring)) as pool:
        yield from pool.imap_unordered(_pool_task, payloads, chunksize=1)
        # Let the workers exit on their own before the context manager's
        # terminate(): a worker killed while its telemetry-queue feeder
        # thread holds the queue's shared lock would leave the parent's
        # closing sentinel blocked, and its final events unflushed.
        pool.close()
        pool.join()


def _plan_campaign(scenarios: Sequence[Scenario], prefix_cache: bool):
    """Scenario id -> PrefixPlan: the divergence trie, or empty plans
    (every scenario a cold run in its own group) with the cache off."""
    if prefix_cache:
        return prefix.build_divergence_trie(scenarios)
    return {scenario.scenario_id: prefix.PrefixPlan(
                scenario_id=scenario.scenario_id,
                group_key=scenario.scenario_id, capture_levels=())
            for scenario in scenarios}


def _payload(scenarios: Sequence[Scenario], plans, indices,
             options) -> tuple:
    """The :func:`_run_group` payload of the scenarios at *indices*."""
    return (tuple(indices), tuple(scenarios[i] for i in indices),
            tuple(plans[scenarios[i].scenario_id] for i in indices)) \
        + options


def _locality_payloads(scenarios: Sequence[Scenario], plans, workers: int,
                       chunksize: Optional[int], options):
    """Locality-aware dispatch: ``(payloads, split chain heads)``.

    Scenarios are grouped by their plan's deepest shared prefix key
    (first-appearance order), and each group is split into tasks of at
    most *chunksize* scenarios (default: the group split across the
    worker count).  The head of every group split into several tasks is
    returned too: its chain is pre-built once for all of them.
    """
    groups: Dict[str, List[int]] = {}
    for index, scenario in enumerate(scenarios):
        key = plans[scenario.scenario_id].group_key
        groups.setdefault(key, []).append(index)
    payloads = []
    split_chains: List[Scenario] = []
    for indices in groups.values():
        cap = chunksize if chunksize else max(
            1, -(-len(indices) // workers))
        if len(indices) > cap:
            split_chains.append(scenarios[indices[0]])
        for start in range(0, len(indices), cap):
            payloads.append(_payload(scenarios, plans,
                                     indices[start:start + cap], options))
    return payloads, split_chains


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


def run_campaign(scenarios: Sequence[Scenario], *,
                 workers: int = 1,
                 chunksize: Optional[int] = None,
                 timeout_s: Optional[float] = None,
                 prefix_cache: bool = True,
                 telemetry: Optional[Dict] = None,
                 bus=None,
                 artifacts: Optional[ScenarioArtifacts] = None
                 ) -> List[ScenarioResult]:
    """Run every scenario, in-process or over a ``multiprocessing`` pool.

    The result list matches the scenario list index-for-index.  At one
    worker (the default), or when the campaign makes a single payload,
    the whole campaign is one payload, run in campaign order in this
    process with a fresh :class:`~repro.campaign.prefix.SnapshotCache`.
    Otherwise scenarios are grouped by their plan's deepest shared prefix
    key and whole groups are handed to the same worker via
    ``imap_unordered`` — the worker that builds a prefix checkpoint is
    the worker that reuses it; *chunksize* caps scenarios per group task
    (default: each group split across the worker count).  Both run the
    same :func:`_run_group` loop.

    With *prefix_cache* (the default) scenarios sharing a configuration
    and seed fork from cached snapshots of their common prefixes — the
    fault-free root and, via the divergence trie, interior checkpoints
    after shared faults; with it off every plan is empty and every
    scenario is its own group.  Checkpoints reach pool workers one way:
    this process pre-builds the chain of every group split across
    several workers into one cache, and the pool initializer installs
    that cache as each worker's own, so the workers sharing a group fork
    from it instead of racing each other to cold-build the same chain.
    Under the fork start method the workers inherit the live snapshots
    copy-on-write; under spawn the cache is pickled once per worker.
    Single-chunk groups are not pre-built: their one worker builds the
    chain exactly once anyway.

    The deterministic report is independent of all of this — worker
    count, chunking, dispatch order, the prefix cache and the cycle
    cache (steady-state MTF memoization): every scenario is
    self-contained, results are re-sorted by scenario id in
    the aggregate, and nothing nondeterministic enters the deterministic
    record.

    *telemetry*, when a dict, receives the nondeterministic execution
    sidecar: the trie shape (``prefix_tree``), per-worker prefix- and
    cycle-cache counters (``workers``: ``serial``, or one entry per pid
    plus the pre-build's own ``prebuild`` counters) and campaign-wide
    cycle-cache totals (``cycle_cache``).  Every cycle-cache figure is a
    sum of the returned results' ``cycle_cache_stats``.

    *bus* (a :class:`~repro.obs.telemetry.TelemetryAggregator`) turns on
    live streaming: in-process runs publish straight into the aggregator;
    a pool's workers publish onto a queue the aggregator drains on a
    thread, so events stream while the pool runs.  The deterministic
    event block is derived from the finished results on close.
    *artifacts* dumps per-scenario metrics/timeline files and failure
    flight-recorder bundles.  Both are pure observers.

    Worker crashes are absorbed inside :func:`run_scenario`; only an
    interpreter-level death (signal, OOM kill) can still fail the pool.
    """
    plans = _plan_campaign(scenarios, prefix_cache)
    options = (timeout_s, artifacts)
    payloads, split_chains = _locality_payloads(
        scenarios, plans, workers, chunksize, options) \
        if workers > 1 else ([], [])
    context = None
    if len(payloads) > 1:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
    wiring = (bus.start(context), bus.campaign_id) if bus is not None \
        else None
    prebuild_stats = None
    if context is None:
        whole = _payload(scenarios, plans, range(len(scenarios)), options)
        tasks = [("serial",) + _run_group(
            whole, prefix.SnapshotCache(), _publisher(wiring, "serial"))]
    else:
        cache = prefix.SnapshotCache()
        for scenario in split_chains:
            prefix._fork_snapshot(scenario, cache,
                                  plans[scenario.scenario_id])
        prebuild_stats = cache.stats()
        cache.reset_counters()
        tasks = _pool_tasks(context, workers, cache, wiring, payloads)

    results: List[Optional[ScenarioResult]] = [None] * len(scenarios)
    # Per worker label; a worker's tasks arrive in the order it ran
    # them, so its last task carries its cumulative prefix-cache counters
    # and its next sequence number.
    prefix_stats: Dict[str, Dict[str, int]] = {}
    cycle_stats: Dict[str, Optional[Dict[str, int]]] = {}
    next_seq: Dict[str, Optional[int]] = {}
    for label, indices, group_results, stats, seq in tasks:
        for index, result in zip(indices, group_results):
            results[index] = result
        prefix_stats[label] = stats
        next_seq[label] = seq
        cycle_stats[label] = _sum_cycle_stats(
            [cycle_stats.get(label)]
            + [result.cycle_cache_stats for result in group_results])
    labels = sorted(prefix_stats)

    if telemetry is not None:
        telemetry["prefix_tree"] = _tree_telemetry(plans, prefix_cache)
        telemetry["workers"] = {
            label: {"prefix_cache": prefix_stats[label],
                    "cycle_cache": cycle_stats[label]}
            for label in labels}
        if prebuild_stats is not None:
            telemetry["workers"]["prebuild"] = {
                "prefix_cache": prebuild_stats}
        telemetry["cycle_cache"] = \
            _sum_cycle_stats(cycle_stats.values()) or {}
    if bus is not None:
        # Each worker's cycle-cache gauges, published once under its
        # label from the results it returned.
        for label in labels:
            if cycle_stats[label] is not None:
                publisher = _publisher(wiring, label)
                publisher.seq = next_seq[label]
                publisher.cycle_cache_stats(cycle_stats[label])
        stream = bus.finish(results)
        if telemetry is not None:
            telemetry["telemetry_stream"] = stream
    return results  # type: ignore[return-value]
