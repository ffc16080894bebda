"""E15/E20/E21 — campaign engine: fault matrix, prefix tree, telemetry bus.

Three suites over the campaign engine (``repro.campaign``):

* **fault-matrix** (E15) — a >= 64-scenario fault-matrix campaign run
  serially, then pooled, reporting scenarios/sec for each and *always*
  asserting the determinism invariant (pooled deterministic report
  byte-identical to serial).  Speedup floor: >= 3x at 4 workers.

* **prefix-tree** (E20) — a deep shared-fault chaos campaign (>= 16
  scenarios sharing >= 2 identical leading faults) run with the full
  divergence trie vs root-only sharing (the same executor over
  ``build_divergence_trie(..., max_depth=0)`` plans: one shared checkpoint
  at the first divergence).  Reports simulated ticks/sec for both and
  asserts the digest matrix — byte-identical deterministic reports across
  {serial, pooled x {1, 2, 4}} x {cache on, cache off}, against the
  serial cold reference.  Speedup floor: >= 2x ticks/sec over the
  root-only baseline, serial.  Per-worker prefix-cache hit rates and
  store counts (the parent's pre-build is its own ``prebuild`` entry)
  ride in the artifact's nondeterministic ``meta`` sidecar.

* **telemetry** (E21) — the E15 fault-matrix workload pooled with the
  campaign telemetry bus fully enabled (live streaming to a discarding
  sink + JSONL event log) vs disabled, asserting byte-identical
  deterministic reports and reporting the enabled-overhead ratio.
  Acceptance ceiling: <= 10% wall-clock overhead enabled; disabled is
  the same code path with a None publisher, i.e. free by construction.

The speedup claims only hold where the hardware exists; pytest entry
points guard on the scheduling affinity, and the standalone mode asserts
them only under ``--check``.

Runs two ways:

* ``pytest benchmarks/bench_campaign.py`` — asserts determinism always and
  the speedup floors where the host allows;
* ``python benchmarks/bench_campaign.py [--scenarios N] [--mtfs N]
  [--workers N] [--prefix-scenarios N]
  [--prefix-mtfs N] [--json PATH] [--check]`` — standalone smoke (used by
  CI), writing the schema-versioned artifact to ``BENCH_campaign.json``
  in the repo root (via ``bench_lib``).
"""

from __future__ import annotations

import json
import time
from typing import Dict

import pytest

from repro.campaign import (
    SnapshotCache,
    build_divergence_trie,
    chaos_campaign,
    deterministic_report,
    fault_matrix_campaign,
    run_campaign,
    run_pool,
    run_serial,
    run_with_prefix_cache,
)
from repro.campaign.runner import autodetect_workers

from bench_lib import emit_bench_json, workload_record

#: Acceptance floor: pooled scenarios/sec vs serial at 4 workers.
SPEEDUP_FLOOR = 3.0

#: Default campaign size (acceptance: >= 64 scenarios).  The horizon is
#: long enough that per-scenario simulation work dominates pool startup.
CAMPAIGN_SCENARIOS = 64
CAMPAIGN_MTFS = 10

#: Acceptance floor: divergence-trie ticks/sec vs root-only sharing on
#: the deep shared-fault workload, serial.
PREFIX_SPEEDUP_FLOOR = 2.0

#: Acceptance ceiling: enabled-telemetry wall time over disabled on the
#: E15 workload (ISSUE 8: <= 10% enabled, ~zero disabled).
TELEMETRY_OVERHEAD_CEILING = 1.10

#: Default deep shared-fault campaign: >= 16 scenarios, one seed, three
#: identical leading faults spread across the first seven eighths of a
#: long injection span.  The horizon is deliberately deep — the trie's
#: advantage is the shared span it skips, while both modes pay the same
#: per-scenario digest/oracle/report costs, so short horizons understate
#: the steady-state ratio.
PREFIX_SCENARIOS = 16
PREFIX_MTFS = 128
PREFIX_SHARED_FAULTS = 3


def _report_bytes(results) -> str:
    return json.dumps(deterministic_report(results), sort_keys=True)


def run_benchmark(*, scenarios: int = CAMPAIGN_SCENARIOS,
                  mtfs: int = CAMPAIGN_MTFS, workers: int = 4,
                  chunksize=None) -> Dict[str, float]:
    """Time serial vs pooled execution; assert identical aggregates."""
    campaign = fault_matrix_campaign(count=scenarios, mtfs=mtfs)

    start = time.perf_counter()
    serial = run_serial(campaign)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    pooled = run_pool(campaign, workers=workers, chunksize=chunksize)
    pooled_s = time.perf_counter() - start

    # The determinism invariant is not load-dependent: assert it on every
    # benchmark run, CI smoke included.
    assert _report_bytes(pooled) == _report_bytes(serial), \
        "pooled aggregate differs from serial aggregate"
    assert all(result.ok for result in serial), \
        "fault-matrix campaign had failing scenarios"

    return {
        "scenarios": scenarios,
        "mtfs": mtfs,
        "workers": workers,
        "serial_s": serial_s,
        "pooled_s": pooled_s,
        "serial_scenarios_per_s": scenarios / serial_s,
        "pooled_scenarios_per_s": scenarios / pooled_s,
        "speedup": serial_s / pooled_s,
    }


# ------------------------------------------------------------------ #
# the prefix-tree suite (E20)
# ------------------------------------------------------------------ #


def deep_shared_campaign(*, scenarios: int = PREFIX_SCENARIOS,
                         mtfs: int = PREFIX_MTFS,
                         shared_faults: int = PREFIX_SHARED_FAULTS,
                         base_seed: int = 2):
    """The divergence-trie workload: one seed, identical leading faults."""
    return chaos_campaign(count=scenarios, mtfs=mtfs, base_seed=base_seed,
                          shared_seed=True, shared_faults=shared_faults)


def run_root_only(campaign):
    """Root-only prefix sharing, serial: depth-0 trie plans, so each
    shared configuration forks from one checkpoint at its first
    divergence and never from an interior level."""
    plans = build_divergence_trie(campaign, max_depth=0)
    cache = SnapshotCache()
    return [run_with_prefix_cache(scenario, cache,
                                  plan=plans[scenario.scenario_id])
            for scenario in campaign]


def assert_digest_matrix(campaign, *, worker_counts=(1, 2, 4)) -> int:
    """Byte-identical reports across dispatch x prefix cache.

    Runs {serial, pooled x *worker_counts*} x {cache on, cache off} and
    asserts every deterministic report equals the serial cache-off (cold)
    one.  Returns the number of variants checked.
    """
    expected = _report_bytes(run_serial(campaign, prefix_cache=False))
    checked = 1
    for prefix_cache in (True, False):
        for workers in (None, *worker_counts):
            if not prefix_cache and workers is None:
                continue  # the expected variant itself
            if workers is None:
                results = run_serial(campaign, prefix_cache=prefix_cache)
            else:
                results = run_campaign(campaign, workers=workers,
                                       prefix_cache=prefix_cache)
            label = (f"prefix_cache={prefix_cache} "
                     f"workers={workers or 'serial'}")
            assert _report_bytes(results) == expected, \
                f"digest mismatch: {label}"
            checked += 1
    return checked


def _worker_sidecar(telemetry: Dict) -> Dict:
    """Per-worker prefix-cache hit rates and stores (nondeterministic)."""
    workers = {}
    for pid, stats in (telemetry.get("workers") or {}).items():
        cache = stats.get("prefix_cache") or {}
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        workers[pid] = {
            "prefix_hits": cache.get("hits", 0),
            "prefix_misses": cache.get("misses", 0),
            "prefix_hit_rate": round(cache.get("hits", 0) / lookups, 3)
            if lookups else None,
            "prefix_stores": cache.get("stores", 0),
        }
    return {"workers": workers,
            "prefix_tree": telemetry.get("prefix_tree")}


def run_prefix_benchmark(*, scenarios: int = PREFIX_SCENARIOS,
                         mtfs: int = PREFIX_MTFS,
                         shared_faults: int = PREFIX_SHARED_FAULTS,
                         workers: int = 4,
                         digest_matrix: bool = True) -> Dict:
    """Time the trie vs root-only sharing on the deep shared workload."""
    campaign = deep_shared_campaign(scenarios=scenarios, mtfs=mtfs,
                                    shared_faults=shared_faults)

    start = time.perf_counter()
    baseline = run_root_only(campaign)
    baseline_s = time.perf_counter() - start
    total_ticks = sum(result.ticks for result in baseline)

    start = time.perf_counter()
    tree = run_serial(campaign)
    tree_s = time.perf_counter() - start

    telemetry: Dict = {}
    start = time.perf_counter()
    pooled_tree = run_pool(campaign, workers=workers, telemetry=telemetry)
    pooled_tree_s = time.perf_counter() - start

    expected = _report_bytes(baseline)
    for results in (tree, pooled_tree):
        assert _report_bytes(results) == expected, \
            "prefix-tree variant changed the deterministic report"
    assert all(result.ok for result in baseline), \
        "deep shared-fault campaign had failing scenarios"

    matrix_checked = 0
    if digest_matrix:
        matrix_checked = assert_digest_matrix(campaign)

    return {
        "scenarios": scenarios,
        "mtfs": mtfs,
        "shared_faults": shared_faults,
        "workers": workers,
        "total_ticks": total_ticks,
        "baseline_s": baseline_s,
        "tree_s": tree_s,
        "pooled_tree_s": pooled_tree_s,
        "baseline_ticks_per_s": total_ticks / baseline_s,
        "tree_ticks_per_s": total_ticks / tree_s,
        "pooled_tree_ticks_per_s": total_ticks / pooled_tree_s,
        "serial_speedup": baseline_s / tree_s,
        "digest_matrix_checked": matrix_checked,
        "sidecar": _worker_sidecar(telemetry),
    }


# ------------------------------------------------------------------ #
# the telemetry-bus suite (E21)
# ------------------------------------------------------------------ #


def run_telemetry_benchmark(*, scenarios: int = CAMPAIGN_SCENARIOS,
                            mtfs: int = CAMPAIGN_MTFS, workers: int = 4
                            ) -> Dict:
    """Time the E15 workload with the telemetry bus enabled vs disabled.

    Enabled means the full production path: worker-side publishers over
    the multiprocessing queue, live rendering into a discarding printer,
    and the JSONL event log — everything ``--live --telemetry-out``
    switches on.  Disabled is the default ``bus=None`` path.  Asserts the
    deterministic reports are byte-identical either way.
    """
    import os
    import tempfile

    from repro.obs.telemetry import TelemetryAggregator, \
        campaign_spec_digest

    campaign = fault_matrix_campaign(count=scenarios, mtfs=mtfs)

    start = time.perf_counter()
    disabled = run_campaign(campaign, workers=workers)
    disabled_s = time.perf_counter() - start

    handle, log_path = tempfile.mkstemp(suffix=".jsonl")
    os.close(handle)
    try:
        bus = TelemetryAggregator(campaign_spec_digest(campaign),
                                  log_path=log_path, live=True,
                                  total=len(campaign),
                                  printer=lambda line: None)
        telemetry: Dict = {}
        start = time.perf_counter()
        enabled = run_campaign(campaign, workers=workers, bus=bus,
                               telemetry=telemetry)
        enabled_s = time.perf_counter() - start
        logged_events = sum(1 for _ in open(log_path, encoding="utf-8"))
    finally:
        os.unlink(log_path)

    assert _report_bytes(enabled) == _report_bytes(disabled), \
        "telemetry perturbed the deterministic report"
    stream = telemetry.get("telemetry_stream") or {}
    assert stream.get("invalid_topics", 0) == 0, \
        "telemetry stream published ungoverned topics"

    return {
        "scenarios": scenarios,
        "mtfs": mtfs,
        "workers": workers,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "overhead": enabled_s / disabled_s,
        "timing_events": stream.get("timing_events", 0),
        "deterministic_events": stream.get("deterministic_events", 0),
        "logged_events": logged_events,
    }


# ------------------------------------------------------------------ #
# pytest entry points
# ------------------------------------------------------------------ #


def test_pooled_aggregate_matches_serial():
    """Determinism at benchmark scale, 2 workers (any host)."""
    run_benchmark(scenarios=16, mtfs=4, workers=2)


@pytest.mark.skipif(autodetect_workers() < 4,
                    reason="speedup floor needs >= 4 usable CPUs")
def test_speedup_floor_at_four_workers():
    numbers = run_benchmark(workers=4)
    assert numbers["speedup"] >= SPEEDUP_FLOOR, (
        f"campaign speedup {numbers['speedup']:.2f}x at 4 workers "
        f"below the {SPEEDUP_FLOOR}x floor")


def test_prefix_tree_digest_matrix_small():
    """The full dispatch x cache matrix at smoke scale."""
    campaign = deep_shared_campaign(scenarios=8, mtfs=12, shared_faults=2)
    assert assert_digest_matrix(campaign, worker_counts=(2,)) == 4


def test_telemetry_on_matches_off_at_smoke_scale():
    """Digest identity with the bus fully enabled — the E21 invariant."""
    numbers = run_telemetry_benchmark(scenarios=16, mtfs=4, workers=2)
    assert numbers["timing_events"] > 0
    assert numbers["deterministic_events"] > 0


@pytest.mark.skipif(autodetect_workers() < 4,
                    reason="overhead ceiling needs >= 4 usable CPUs")
def test_telemetry_overhead_ceiling():
    numbers = run_telemetry_benchmark(workers=4)
    assert numbers["overhead"] <= TELEMETRY_OVERHEAD_CEILING, (
        f"telemetry overhead {numbers['overhead']:.3f}x above the "
        f"{TELEMETRY_OVERHEAD_CEILING}x ceiling")


def test_prefix_tree_serial_speedup_floor():
    """Serial trie speedup needs no extra CPUs — asserted everywhere."""
    numbers = run_prefix_benchmark(workers=2, digest_matrix=False)
    assert numbers["serial_speedup"] >= PREFIX_SPEEDUP_FLOOR, (
        f"prefix-tree speedup {numbers['serial_speedup']:.2f}x serial "
        f"below the {PREFIX_SPEEDUP_FLOOR}x floor")


# ------------------------------------------------------------------ #
# standalone entry point
# ------------------------------------------------------------------ #


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", type=int,
                        default=CAMPAIGN_SCENARIOS)
    parser.add_argument("--mtfs", type=int, default=CAMPAIGN_MTFS)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--json", default=None,
                        help="artifact path (default: BENCH_campaign.json "
                             "in the repo root)")
    parser.add_argument("--prefix-scenarios", type=int,
                        default=PREFIX_SCENARIOS,
                        help="scenario count for the prefix-tree suite")
    parser.add_argument("--prefix-mtfs", type=int, default=PREFIX_MTFS,
                        help="tick horizon in MTFs for the prefix-tree "
                             "suite")
    parser.add_argument("--shared-faults", type=int,
                        default=PREFIX_SHARED_FAULTS,
                        help="identical leading faults per scenario in "
                             "the prefix-tree suite")
    parser.add_argument("--check", action="store_true",
                        help="assert the speedup floors (the pooled one "
                             "needs >= 4 CPUs)")
    args = parser.parse_args()

    numbers = run_benchmark(scenarios=args.scenarios, mtfs=args.mtfs,
                            workers=args.workers)
    print(f"campaign: {args.scenarios} scenarios x {args.mtfs} MTFs")
    print(f"  serial : {numbers['serial_s']:8.3f}s "
          f"({numbers['serial_scenarios_per_s']:7.1f} scenarios/s)")
    print(f"  pooled : {numbers['pooled_s']:8.3f}s "
          f"({numbers['pooled_scenarios_per_s']:7.1f} scenarios/s, "
          f"{args.workers} workers)")
    print(f"  speedup: {numbers['speedup']:5.2f}x")
    print("  determinism: pooled aggregate == serial aggregate")

    bus = run_telemetry_benchmark(scenarios=args.scenarios,
                                  mtfs=args.mtfs, workers=args.workers)
    print(f"telemetry: same workload, bus enabled vs disabled")
    print(f"  disabled : {bus['disabled_s']:8.3f}s")
    print(f"  enabled  : {bus['enabled_s']:8.3f}s "
          f"({bus['timing_events']} timing + "
          f"{bus['deterministic_events']} deterministic events)")
    print(f"  overhead : {bus['overhead']:5.3f}x "
          f"(ceiling {TELEMETRY_OVERHEAD_CEILING}x)")
    print("  determinism: enabled aggregate == disabled aggregate")

    prefix = run_prefix_benchmark(
        scenarios=args.prefix_scenarios, mtfs=args.prefix_mtfs,
        shared_faults=args.shared_faults, workers=args.workers)
    print(f"prefix-tree: {prefix['scenarios']} scenarios x "
          f"{prefix['mtfs']} MTFs, {prefix['shared_faults']} shared "
          f"leading faults")
    print(f"  root-only serial : {prefix['baseline_s']:8.3f}s "
          f"({prefix['baseline_ticks_per_s']:12,.0f} ticks/s)")
    print(f"  trie serial      : {prefix['tree_s']:8.3f}s "
          f"({prefix['tree_ticks_per_s']:12,.0f} ticks/s, "
          f"{prefix['serial_speedup']:.2f}x)")
    print(f"  trie pooled      : {prefix['pooled_tree_s']:8.3f}s "
          f"({prefix['pooled_tree_ticks_per_s']:12,.0f} ticks/s, "
          f"{args.workers} workers)")
    print(f"  digest matrix    : {prefix['digest_matrix_checked']} "
          f"variants byte-identical (dispatch x cache)")

    matrix = f"fault-matrix-{args.scenarios}x{args.mtfs}"
    deep = (f"prefix-tree-{prefix['scenarios']}x{prefix['mtfs']}"
            f"-shared{prefix['shared_faults']}")
    path = emit_bench_json("campaign", [
        workload_record(matrix, mode="serial",
                        scenarios_per_s=round(
                            numbers["serial_scenarios_per_s"], 2),
                        digests_asserted=True),
        workload_record(matrix,
                        mode=f"pooled-{args.workers}",
                        scenarios_per_s=round(
                            numbers["pooled_scenarios_per_s"], 2),
                        speedup=numbers["speedup"],
                        speedup_reference="serial",
                        digests_asserted=True,
                        speedup_floor=SPEEDUP_FLOOR),
        workload_record(deep, mode="root-only",
                        ticks_per_s=prefix["baseline_ticks_per_s"],
                        digests_asserted=True),
        workload_record(deep, mode="prefix-tree",
                        ticks_per_s=prefix["tree_ticks_per_s"],
                        speedup=prefix["serial_speedup"],
                        speedup_reference="root-only prefix sharing, "
                                          "serial",
                        digests_asserted=True,
                        speedup_floor=PREFIX_SPEEDUP_FLOOR,
                        digest_matrix_variants=prefix[
                            "digest_matrix_checked"]),
        workload_record(deep,
                        mode=f"prefix-tree-pooled-{args.workers}",
                        ticks_per_s=prefix["pooled_tree_ticks_per_s"],
                        digests_asserted=True),
        workload_record(matrix,
                        mode=f"telemetry-enabled-{args.workers}",
                        scenarios_per_s=round(
                            args.scenarios / bus["enabled_s"], 2),
                        speedup=round(1.0 / bus["overhead"], 4),
                        speedup_reference="same workload, telemetry "
                                          "disabled",
                        digests_asserted=True,
                        telemetry_overhead=round(bus["overhead"], 4),
                        telemetry_overhead_ceiling=
                        TELEMETRY_OVERHEAD_CEILING,
                        telemetry_events_logged=bus["logged_events"]),
    ], path=args.json, meta={"prefix_tree_sidecar": prefix["sidecar"]})
    print(f"  wrote {path}")
    failed = False
    if (args.check and numbers["speedup"] < SPEEDUP_FLOOR
            and autodetect_workers() >= 4):
        # Same gate as the pytest twin: the pooled floor is meaningless
        # without enough usable CPUs to parallelize onto.
        print(f"  FAIL: fault-matrix speedup below the "
              f"{SPEEDUP_FLOOR}x floor")
        failed = True
    if args.check and prefix["serial_speedup"] < PREFIX_SPEEDUP_FLOOR:
        print(f"  FAIL: prefix-tree serial speedup below the "
              f"{PREFIX_SPEEDUP_FLOOR}x floor")
        failed = True
    if (args.check and bus["overhead"] > TELEMETRY_OVERHEAD_CEILING
            and autodetect_workers() >= 4):
        print(f"  FAIL: telemetry overhead {bus['overhead']:.3f}x above "
              f"the {TELEMETRY_OVERHEAD_CEILING}x ceiling")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
