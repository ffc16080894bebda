"""E22 — constellation campaigns: failover drill + cross-node chaos.

Two suites over the multi-node engine (``repro.constellation``):

* **failover-drill** — the silent-leader acceptance drill on a 3-node
  constellation: the leader goes fail-silent mid-run, every standby's
  FDIR watchdog expires one heartbeat-timeout later, and the successor
  promotes at its next MTF boundary.  Reports the measured
  detection-to-promotion latency and *always* asserts it lands inside
  the declared ``failover_deadline`` with the cross-node oracle clean.

* **chaos** — a seeded cross-node chaos barrage (default 50 scenarios:
  partitions, storms, silent/Byzantine nodes, cascading crashes plus
  per-node faults on a lossy duplicating fabric) run serial and pooled,
  asserting the digest matrix — byte-identical deterministic reports
  across workers {1, 2} — and that every scenario finishes
  oracle-clean.  Reports
  scenarios/sec per mode.

Determinism assertions run on every invocation, CI smoke included; only
the throughput numbers are host-relative.

Runs two ways:

* ``pytest benchmarks/bench_constellation.py`` — asserts the failover
  bound and the digest matrix on a smoke-sized barrage;
* ``python benchmarks/bench_constellation.py [--scenarios N] [--nodes N]
  [--mtfs N] [--workers N] [--json PATH]`` — standalone (used by CI),
  writing the schema-versioned artifact to ``BENCH_constellation.json``
  in the repo root (via ``bench_lib``).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

import pytest

from repro.campaign.results import deterministic_report
from repro.campaign.runner import run_campaign, run_scenario
from repro.constellation import constellation_campaign, failover_drill
from repro.constellation.constellation import Constellation

from bench_lib import emit_bench_json, workload_record

#: Default barrage size (the acceptance suite runs 50).
CHAOS_SCENARIOS = 50
CHAOS_MTFS = 8
CHAOS_NODES = 3


def _report_bytes(results) -> str:
    return json.dumps(deterministic_report(results), sort_keys=True)


# ------------------------------------------------------------------ #
# failover drill (the acceptance bound)
# ------------------------------------------------------------------ #


def run_drill(*, nodes: int = 3, mtfs: int = 8,
              seed: int = 0) -> Dict[str, object]:
    """Run the silent-leader drill; measure the failover latency."""
    scenario = failover_drill(nodes=nodes, seed=seed, mtfs=mtfs)
    start = time.perf_counter()
    result = run_scenario(scenario)
    wall_s = time.perf_counter() - start
    assert result.status == "ok", result.error

    # Re-run the constellation directly to read the protocol record
    # (the campaign result intentionally compacts it into the digest).
    constellation = Constellation(scenario.constellation, scenario.seed)
    for tick, fault in scenario.faults:
        constellation.schedule_fault(tick, fault)
    constellation.run(scenario.ticks)
    claimed = next(e for e in constellation.protocol_events
                   if e["event"] == "leader-claimed" and not e.get("boot"))
    silence_tick = scenario.faults[0][0]
    latency = claimed["tick"] - claimed["detected_at"]
    deadline = scenario.constellation.failover_deadline
    assert latency <= deadline, \
        f"failover took {latency} ticks, deadline {deadline}"
    return {
        "nodes": nodes,
        "mtfs": mtfs,
        "silence_tick": silence_tick,
        "detected_tick": claimed["detected_at"],
        "promoted_tick": claimed["tick"],
        "new_leader": claimed["node"],
        "failover_latency_ticks": latency,
        "failover_deadline_ticks": deadline,
        "outage_ticks": claimed["tick"] - silence_tick,
        "ticks_per_s": scenario.ticks / wall_s,
        "wall_s": wall_s,
    }


# ------------------------------------------------------------------ #
# chaos barrage + digest matrix
# ------------------------------------------------------------------ #


def run_chaos(*, scenarios: int = CHAOS_SCENARIOS, nodes: int = CHAOS_NODES,
              mtfs: int = CHAOS_MTFS, workers: int = 2,
              base_seed: int = 0) -> Dict[str, object]:
    """Serial + pooled; assert one digest, all clean."""
    campaign = constellation_campaign(count=scenarios, nodes=nodes,
                                      mtfs=mtfs, base_seed=base_seed)
    timings: Dict[str, float] = {}
    reports: List[str] = []
    digest = None
    for worker_count in (1, workers):
        start = time.perf_counter()
        results = run_campaign(campaign, workers=worker_count)
        timings[f"w{worker_count}_s"] = time.perf_counter() - start
        failed = [(r.scenario_id, r.error) for r in results
                  if r.status != "ok"]
        assert not failed, f"chaos scenarios failed oracle: {failed}"
        report = _report_bytes(results)
        reports.append(report)
        digest = json.loads(report)["aggregate"]["campaign_digest"]
    assert len(set(reports)) == 1, \
        "deterministic report differs across workers"
    serial_s = timings["w1_s"]
    pooled_s = timings[f"w{workers}_s"]
    return {
        "scenarios": scenarios,
        "nodes": nodes,
        "mtfs": mtfs,
        "workers": workers,
        "campaign_digest": digest,
        "serial_scenarios_per_s": scenarios / serial_s,
        "pooled_scenarios_per_s": scenarios / pooled_s,
        "speedup": serial_s / pooled_s,
        **{key: round(value, 3) for key, value in timings.items()},
    }


# ------------------------------------------------------------------ #
# pytest entry points (smoke-sized, asserting the invariants)
# ------------------------------------------------------------------ #


def test_failover_drill_within_deadline():
    report = run_drill(nodes=3, mtfs=8)
    assert report["failover_latency_ticks"] <= \
        report["failover_deadline_ticks"]
    assert report["new_leader"] == 1


def test_chaos_digest_matrix_smoke():
    report = run_chaos(scenarios=6, workers=2)
    assert report["campaign_digest"]


# ------------------------------------------------------------------ #
# standalone artifact mode (CI)
# ------------------------------------------------------------------ #


def main() -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", type=int, default=CHAOS_SCENARIOS)
    parser.add_argument("--nodes", type=int, default=CHAOS_NODES)
    parser.add_argument("--mtfs", type=int, default=CHAOS_MTFS)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None,
                        help="artifact path (default repo root)")
    args = parser.parse_args()

    drill = run_drill(nodes=args.nodes, mtfs=max(args.mtfs, 8),
                      seed=args.seed)
    print(f"failover drill: silenced @{drill['silence_tick']}, detected "
          f"@{drill['detected_tick']}, promoted @{drill['promoted_tick']} "
          f"(node {drill['new_leader']}) — latency "
          f"{drill['failover_latency_ticks']} <= deadline "
          f"{drill['failover_deadline_ticks']} ticks")

    chaos = run_chaos(scenarios=args.scenarios, nodes=args.nodes,
                      mtfs=args.mtfs, workers=args.workers,
                      base_seed=args.seed)
    print(f"chaos: {chaos['scenarios']} scenarios x {chaos['nodes']} "
          f"nodes, digest {chaos['campaign_digest']} identical across "
          f"workers {{1, {chaos['workers']}}}, "
          f"{chaos['serial_scenarios_per_s']:.1f}/s serial, "
          f"{chaos['pooled_scenarios_per_s']:.1f}/s pooled "
          f"({chaos['speedup']:.2f}x)")

    workloads = [
        workload_record(
            "failover-drill",
            ticks_per_s=drill["ticks_per_s"], digests_asserted=True,
            failover_latency_ticks=drill["failover_latency_ticks"],
            failover_deadline_ticks=drill["failover_deadline_ticks"],
            outage_ticks=drill["outage_ticks"],
            new_leader=drill["new_leader"]),
        workload_record(
            "xnode-chaos",
            digests_asserted=True,
            scenarios=chaos["scenarios"], nodes=chaos["nodes"],
            campaign_digest=chaos["campaign_digest"],
            serial_scenarios_per_s=round(
                chaos["serial_scenarios_per_s"], 1),
            pooled_scenarios_per_s=round(
                chaos["pooled_scenarios_per_s"], 1),
            speedup=chaos["speedup"],
            speedup_reference="serial"),
    ]
    path = emit_bench_json("constellation", workloads, path=args.json)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
