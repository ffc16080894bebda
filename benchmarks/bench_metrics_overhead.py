"""E16 — live-metrics instrumentation overhead on the E13 packed workload.

DESIGN.md design-decision 6: the metrics registry folds the trace from a
cursor when it is read, so recording an event is the append alone and an
uninstrumented run pays nothing.  The timed span therefore covers the run
*and* the ``collect()`` that folds it: together they must stay within 10%
of the uninstrumented ticks/sec on the packed four-partition satellite
workload (the E13 configuration: zero idle time, faulty process injected
on P1 so deadline/HM/latency series are all live).

Runs two ways:

* ``pytest benchmarks/bench_metrics_overhead.py`` — asserts the overhead
  ceilings and the registry's run/run_fast byte-identity;
* ``python benchmarks/bench_metrics_overhead.py [--mtfs N] [--repeats N]
  [--json PATH] [--check]`` — standalone smoke (used by CI), writing the
  measured numbers to ``BENCH_metrics_overhead.json``.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import Dict

from repro.apps.prototype import (
    MTF,
    build_prototype,
    inject_faulty_process,
    make_simulator,
)
from repro.obs import instrument

#: Full-measurement span: 100 major time frames of the Fig. 8 schedule.
MEASURE_MTFS = 100

#: Enabled-metrics throughput must stay within 10% of uninstrumented.
ENABLED_FLOOR = 0.90


def _build(metrics: bool):
    simulator = make_simulator(build_prototype())
    live = instrument(simulator) if metrics else None
    inject_faulty_process(simulator)
    return simulator, live


def _time_run_fast(metrics: bool, ticks: int) -> float:
    """Seconds to run *ticks* and, when instrumented, to collect the
    registry (the fold runs there)."""
    simulator, live = _build(metrics)
    gc.collect()
    gc.disable()  # GC pauses scale with the growing trace, not the mode
    try:
        start = time.perf_counter()
        simulator.run_fast(ticks)
        if live is not None:
            live.collect()
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed


def assert_registry_equivalent(mtfs: int = 13) -> str:
    """Registry bytes must be identical under run() and run_fast()."""
    outputs = []
    for mode in ("run", "run_fast"):
        simulator, live = _build(metrics=True)
        getattr(simulator, mode)(MTF * mtfs)
        outputs.append(live.collect().to_json())
    assert outputs[0] == outputs[1]
    return outputs[0]


def measure(*, mtfs: int = MEASURE_MTFS,
            repeats: int = 5) -> Dict[str, float]:
    """*repeats* interleaved pairs: off vs. on, run_fast only.

    Interleaving (off, on, off, on, ...) lets each pair share host
    conditions; the gated ratio is the median pair, so neither one
    lucky pair nor one disturbed pair decides it.
    """
    ticks = MTF * mtfs
    _time_run_fast(True, ticks)  # warm-up: caches, allocator, CPU clocks
    off_times, on_times, pair_ratios = [], [], []
    for _ in range(repeats):
        off = _time_run_fast(False, ticks)
        on = _time_run_fast(True, ticks)
        off_times.append(off)
        on_times.append(on)
        # Adjacent runs share host conditions, so per-pair ratios are
        # robust against load drifting across the whole measurement.
        pair_ratios.append(off / on)
    off_s, on_s = min(off_times), min(on_times)
    return {
        "ticks": ticks,
        "off_s": off_s,
        "on_s": on_s,
        "off_ticks_per_s": ticks / off_s,
        "on_ticks_per_s": ticks / on_s,
        # Median pair, clamped: >1.0 only means the overhead was below
        # the noise floor of the host.
        "enabled_ratio": min(1.0, statistics.median(pair_ratios)),
        "pair_ratios": [round(ratio, 4) for ratio in pair_ratios],
    }


# ------------------------------------------------------------------ #
# pytest entry points
# ------------------------------------------------------------------ #

def test_metrics_overhead(benchmark, table):
    """Enabled metrics within 10% of uninstrumented ticks/sec (E16)."""
    registry_json = assert_registry_equivalent()
    result = measure()
    table("E16 — live metrics overhead, faulty satellite workload",
          ["variant", "ticks/s", "seconds"],
          [("metrics disabled", f"{result['off_ticks_per_s']:,.0f}",
            f"{result['off_s']:.3f}"),
           ("metrics enabled", f"{result['on_ticks_per_s']:,.0f}",
            f"{result['on_s']:.3f}"),
           ("enabled/disabled", f"{result['enabled_ratio']:.2f}", "")])
    benchmark(lambda: None)  # attach the reported numbers to the run
    benchmark.extra_info.update(result, registry_bytes=len(registry_json))
    assert result["enabled_ratio"] >= ENABLED_FLOOR


# ------------------------------------------------------------------ #
# standalone smoke (CI)
# ------------------------------------------------------------------ #

def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mtfs", type=int, default=MEASURE_MTFS,
                        help="major time frames per timed measurement")
    parser.add_argument("--repeats", type=int, default=5,
                        help="interleaved off/on pairs (median pair gated)")
    parser.add_argument("--json", metavar="PATH",
                        help="write results to PATH as JSON")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if the overhead ceiling is hit")
    options = parser.parse_args(argv)
    if options.mtfs < 1:
        parser.error("--mtfs must be >= 1")
    if options.repeats < 1:
        parser.error("--repeats must be >= 1")

    assert_registry_equivalent(mtfs=min(options.mtfs, 13))
    result = measure(mtfs=options.mtfs, repeats=options.repeats)
    result["enabled_floor"] = ENABLED_FLOOR
    print(f"metrics off: {result['off_ticks_per_s']:>12,.0f} ticks/s"
          f"   on: {result['on_ticks_per_s']:>12,.0f} ticks/s"
          f"   ratio {result['enabled_ratio']:.2f} "
          f"(floor {ENABLED_FLOOR:.2f})")

    if options.json:
        with open(options.json, "w", encoding="utf-8") as handle:
            json.dump({"benchmark": "metrics_overhead", "result": result},
                      handle, indent=2)
        print(f"wrote {options.json}")

    if result["enabled_ratio"] < ENABLED_FLOOR and options.check:
        print(f"FAIL: enabled/disabled ratio {result['enabled_ratio']:.2f} "
              f"below floor {ENABLED_FLOOR:.2f}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
