"""E18 — snapshot/fork execution: prefix-sharing campaign scheduling.

Chaos-style campaigns whose scenarios share a configuration and seed
execute identically until each scenario's first fault — a shared,
deterministic, fault-free prefix.  With the prefix cache
(``repro.campaign.prefix``) that prefix is simulated once, checkpointed as
a :class:`~repro.kernel.snapshot.SimulatorSnapshot`, and every scenario
forks from the cached checkpoint instead of re-simulating it from tick 0.

This benchmark runs a shared-seed chaos campaign (long fault-free prefix,
well past the >= 3-MTF floor) twice — cold (``prefix_cache=False``) and
with the cache — and reports scenarios/sec for each.  It *always* asserts
the bit-identity invariant: the deterministic report with the cache is
byte-identical to the cold one, because a forked run's trace digest,
metrics and oracle verdict equal a cold run's.

The speedup claim (>= 2x, acceptance E18) holds when the shared prefix
dominates per-scenario work, which the default geometry (45 fault-free
MTFs of a 48-MTF horizon) guarantees; the assertion is gated behind
``--check`` / the dedicated pytest entry so loaded CI hosts cannot flake
the determinism test.

Runs two ways:

* ``pytest benchmarks/bench_snapshot_fork.py`` — asserts bit-identity
  always and the speedup floor on capable hosts;
* ``python benchmarks/bench_snapshot_fork.py [--scenarios N] [--mtfs N]
  [--prefix-mtfs N] [--json PATH] [--check]`` — standalone
  smoke (used by CI), writing the schema-versioned artifact to
  ``BENCH_snapshot_fork.json`` in the repo root (via ``bench_lib``).
"""

from __future__ import annotations

import json
import time
from typing import Dict

from repro.campaign import chaos_campaign, deterministic_report
from repro.campaign.runner import run_campaign

from bench_lib import emit_bench_json, workload_record

#: Acceptance floor (E18): cached scenarios/sec vs cold, serially.
SPEEDUP_FLOOR = 2.0

#: Default geometry: 16 scenarios sharing one seed, each 48 MTFs long
#: with the first 45 MTFs fault-free — the shared prefix is ~94% of the
#: simulated span, so prefix sharing, not the faulty suffix, dominates.
CAMPAIGN_SCENARIOS = 16
CAMPAIGN_MTFS = 48
CAMPAIGN_PREFIX_MTFS = 45


def _report_bytes(results) -> str:
    return json.dumps(deterministic_report(results), sort_keys=True)


def run_benchmark(*, scenarios: int = CAMPAIGN_SCENARIOS,
                  mtfs: int = CAMPAIGN_MTFS,
                  prefix_mtfs: int = CAMPAIGN_PREFIX_MTFS,
                  seed: int = 7, repeats: int = 3) -> Dict[str, float]:
    """Time cold vs prefix-cached serial execution; assert bit-identity.

    Each mode is timed *repeats* times and the fastest run is kept — the
    standard defense against one-off host noise (GC pauses, frequency
    scaling) flaking the speedup floor.  Results are compared on the
    first run of each mode.
    """
    campaign = chaos_campaign(count=scenarios, mtfs=mtfs, base_seed=seed,
                              shared_seed=True, prefix_mtfs=prefix_mtfs)

    cold_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        cold = run_campaign(campaign, prefix_cache=False)
        cold_s = min(cold_s, time.perf_counter() - start)

    cached_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        cached = run_campaign(campaign, prefix_cache=True)
        cached_s = min(cached_s, time.perf_counter() - start)

    # The bit-identity invariant is not load-dependent: assert it on
    # every benchmark run, CI smoke included.
    assert _report_bytes(cached) == _report_bytes(cold), \
        "prefix-cached deterministic report differs from cold report"
    assert all(result.ok for result in cold), \
        "chaos campaign had failing scenarios"
    forked = sum(1 for result in cached if result.forked_at_tick >= 0)
    assert forked == scenarios, \
        f"only {forked}/{scenarios} scenarios forked from the cache"

    return {
        "scenarios": scenarios,
        "mtfs": mtfs,
        "prefix_mtfs": prefix_mtfs,
        "cold_s": cold_s,
        "cached_s": cached_s,
        "cold_scenarios_per_s": scenarios / cold_s,
        "cached_scenarios_per_s": scenarios / cached_s,
        "ticks_skipped": sum(max(r.forked_at_tick, 0) for r in cached),
        "speedup": cold_s / cached_s,
    }


# ------------------------------------------------------------------ #
# pytest entry points
# ------------------------------------------------------------------ #


def test_cached_report_matches_cold():
    """Bit-identity at benchmark scale, small geometry (any host)."""
    run_benchmark(scenarios=6, mtfs=12, prefix_mtfs=9)


def test_speedup_floor():
    numbers = run_benchmark()
    assert numbers["speedup"] >= SPEEDUP_FLOOR, (
        f"prefix-cache speedup {numbers['speedup']:.2f}x below the "
        f"{SPEEDUP_FLOOR}x floor")


# ------------------------------------------------------------------ #
# standalone entry point
# ------------------------------------------------------------------ #


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", type=int,
                        default=CAMPAIGN_SCENARIOS)
    parser.add_argument("--mtfs", type=int, default=CAMPAIGN_MTFS)
    parser.add_argument("--prefix-mtfs", type=int,
                        default=CAMPAIGN_PREFIX_MTFS)
    parser.add_argument("--json", default=None,
                        help="artifact path (default: "
                             "BENCH_snapshot_fork.json in the repo root)")
    parser.add_argument("--check", action="store_true",
                        help="assert the speedup floor")
    args = parser.parse_args()

    numbers = run_benchmark(scenarios=args.scenarios, mtfs=args.mtfs,
                            prefix_mtfs=args.prefix_mtfs)
    print(f"snapshot fork: {args.scenarios} shared-seed chaos scenarios "
          f"x {args.mtfs} MTFs ({args.prefix_mtfs} MTFs fault-free)")
    print(f"  cold   : {numbers['cold_s']:8.3f}s "
          f"({numbers['cold_scenarios_per_s']:7.1f} scenarios/s)")
    print(f"  cached : {numbers['cached_s']:8.3f}s "
          f"({numbers['cached_scenarios_per_s']:7.1f} scenarios/s, "
          f"{numbers['ticks_skipped']} prefix ticks forked over)")
    print(f"  speedup: {numbers['speedup']:5.2f}x")
    print("  bit-identity: cached deterministic report == cold report")
    workload = (f"chaos-shared-seed-{args.scenarios}x{args.mtfs}"
                f"-prefix{args.prefix_mtfs}")
    path = emit_bench_json("snapshot_fork", [
        workload_record(workload, mode="cold",
                        scenarios_per_s=round(
                            numbers["cold_scenarios_per_s"], 2),
                        digests_asserted=True),
        workload_record(workload, mode="prefix-cached",
                        scenarios_per_s=round(
                            numbers["cached_scenarios_per_s"], 2),
                        speedup=numbers["speedup"],
                        speedup_reference="cold serial",
                        digests_asserted=True,
                        speedup_floor=SPEEDUP_FLOOR,
                        ticks_skipped=numbers["ticks_skipped"]),
    ], path=args.json)
    print(f"  wrote {path}")
    if args.check and numbers["speedup"] < SPEEDUP_FLOOR:
        print(f"  FAIL: speedup below the {SPEEDUP_FLOOR}x floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
