"""E13/E19 — the event-driven execution core on the Sect. 6 workload.

DESIGN.md design-decision 4: `Simulator.run_fast` asks every layer for its
``next_event_tick`` horizon (scheduler preemption points, router deliveries,
POS timers, policy preemption, deadline expiries, remaining ``Compute``
budgets) and batch-executes every provably uniform span, stepping only the
interesting ticks through the full clock ISR.  On the four-partition
prototype (Fig. 8: AOCS, OBDH, TTC, FDIR under the packed chi1 table) the
claim is a >= 10x ticks/sec advantage over the per-tick `run()` loop, with
bit-identical traces (asserted here on a shorter span; exhaustively by
`tests/integration/test_fast_skip.py`).

The faulty-process variant (the E13 "keyboard" injection: `p1-faulty`
overruns its capacity every P1 window) steps more ticks per MTF — deadline
detection, HM handling, error-handler activity — so its ratios sit a
little lower; it is reported and asserted against softer floors.

The execution-mode comparisons on the E13 workloads run with the cycle
cache off (``cycle_cache=False``), so they measure the event core alone.
The **steady-cruise workload** (E23) measures the cycle cache (on by
default, DESIGN decision 13): every process period divides the MTF and every
payload is constant, so after a short warm-up each major frame is a
fingerprint fixed point and ``run_fast`` replays the memoized cycle
template instead of stepping it.  Bit-identity (trace signature and
full-state fingerprint, cache on vs off) is asserted
before any timing; the E13 workloads double as the cache's conservative
regression story — the cheap counter gate keeps them fully live at a
few integer compares per boundary.

Runs two ways:

* ``pytest benchmarks/bench_event_core.py`` — asserts the speedup floors;
* ``python benchmarks/bench_event_core.py [--mtfs N] [--steady-mtfs N]
  [--repeats N] [--quick] [--json PATH] [--check]`` — standalone smoke
  (used by the CI ``perf-smoke`` job), writing the schema-versioned
  artifact to ``BENCH_event_core.json`` in the repo root.
"""

from __future__ import annotations

import gc
import time
from typing import Dict

from repro.apps.prototype import (
    MTF,
    STEADY_MTF,
    build_prototype,
    build_steady_prototype,
    inject_faulty_process,
)
from repro.kernel.cycle_cache import state_fingerprint
from repro.kernel.simulator import Simulator

from bench_lib import emit_bench_json, workload_record

#: Full-measurement span: 100 major time frames of the Fig. 8 schedule.
MEASURE_MTFS = 100

#: Quick (CI smoke) span and repeats.
QUICK_MTFS = 25
QUICK_REPEATS = 2

#: Speedup floors asserted by the pytest entry points and ``--check``:
#: event-driven ``run_fast`` over the per-tick loop.
#: The PR 6 hot-path work (cheaper ``choose_heir``, enum reads, slotted
#: records) sped the per-tick loop up too, compressing this ratio from
#: the original >= 10x to ~9x — the floor tracks the honest margin.
SPEEDUP_FLOOR = 8.0
SPEEDUP_FLOOR_FAULTY = 6.0

#: Steady-cruise (cycle cache) geometry: long horizons so the fixed probe
#: and template-build cost amortizes (the cache's intended regime —
#: multi-orbit steady-state campaigns).  Short horizons measure lower.
STEADY_MEASURE_MTFS = 2000
STEADY_QUICK_MTFS = 600

#: Cycle cache on vs off on the steady-cruise workload, both on
#: ``run_fast``.  Measured ~7.3x at the full geometry, ~6x at the quick
#: geometry — the floor keeps the >= 5x target honest with headroom for
#: loaded CI hosts.
CYCLE_CACHE_SPEEDUP_FLOOR = 5.0

#: Cache armed on the never-steady faulty E13 workload: the counter gate
#: must keep the ratio (off/on) within noise of 1.0 — measured <= 2%
#: overhead; the floor is looser only because single-digit-ms timings on
#: shared CI hosts jitter more than the effect being guarded.
CYCLE_CACHE_FAULTY_FLOOR = 0.90


def _build(faulty: bool):
    simulator = Simulator(build_prototype().config, cycle_cache=False)
    if faulty:
        inject_faulty_process(simulator)
    return simulator


def _time_mode(mode: str, faulty: bool, ticks: int) -> float:
    simulator = _build(faulty)
    runner = getattr(simulator, mode)
    gc.collect()
    gc.disable()  # GC pauses scale with the growing trace, not the mode
    try:
        start = time.perf_counter()
        runner(ticks)
        return time.perf_counter() - start
    finally:
        gc.enable()


def trace_signature(simulator):
    """The full event trace, rendered — bit-identical modes compare equal."""
    return [repr(event) for event in simulator.trace.events]


def assert_equivalent(faulty: bool, mtfs: int = 13) -> int:
    """Run both modes over *mtfs* MTFs; require identical traces and
    counters — the bit-identity gate timing rests on.
    """
    per_tick = _build(faulty)
    fast = _build(faulty)
    per_tick.run(MTF * mtfs)
    fast.run_fast(MTF * mtfs)
    reference = trace_signature(per_tick)
    assert trace_signature(fast) == reference
    assert fast.trace.digest() == per_tick.trace.digest()
    assert fast.pmk.ticks_executed == per_tick.pmk.ticks_executed
    assert fast.pmk.partition_ticks == per_tick.pmk.partition_ticks
    return len(reference)


def measure(faulty: bool, *, mtfs: int = MEASURE_MTFS,
            repeats: int = 5) -> Dict[str, float]:
    """Best-of-*repeats* interleaved timing of the two execution modes.

    Interleaving (run, run_fast, ...) and taking each mode's best makes
    the ratio robust against background load.
    """
    ticks = MTF * mtfs
    run_times, fast_times = [], []
    for _ in range(repeats):
        run_times.append(_time_mode("run", faulty, ticks))
        fast_times.append(_time_mode("run_fast", faulty, ticks))
    run_s = min(run_times)
    fast_s = min(fast_times)
    return {
        "ticks": ticks,
        "run_s": run_s,
        "fast_s": fast_s,
        "run_ticks_per_s": ticks / run_s,
        "fast_ticks_per_s": ticks / fast_s,
        "speedup": run_s / fast_s,
    }


def _time_steady(cycle_cache: bool, ticks: int) -> float:
    simulator = Simulator(build_steady_prototype(), cycle_cache=cycle_cache)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        simulator.run_fast(ticks)
        return time.perf_counter() - start
    finally:
        gc.enable()


def assert_steady_equivalent(mtfs: int = 12) -> None:
    """Cycle cache on vs off over *mtfs* steady MTFs: identical traces,
    identical full-state fingerprints and identical raw snapshots (the
    fingerprint excludes counter values), and the cached run must have
    genuinely replayed frames."""
    reference = Simulator(build_steady_prototype(), cycle_cache=False)
    reference.run_fast(STEADY_MTF * mtfs)
    cached = Simulator(build_steady_prototype(), cycle_cache=True)
    cached.run_fast(STEADY_MTF * mtfs)
    assert trace_signature(cached) == trace_signature(reference)
    assert state_fingerprint(cached) == state_fingerprint(reference)
    assert cached.pmk.snapshot() == reference.pmk.snapshot()
    assert cached.time.snapshot() == reference.time.snapshot()
    assert cached.cycle_cache_stats["hits"] > 0


def measure_steady(*, mtfs: int = STEADY_MEASURE_MTFS,
                   repeats: int = 3) -> Dict[str, float]:
    """Best-of-*repeats* interleaved cache-off vs cache-on timing."""
    ticks = STEADY_MTF * mtfs
    off_times, on_times = [], []
    for _ in range(repeats):
        off_times.append(_time_steady(False, ticks))
        on_times.append(_time_steady(True, ticks))
    off_s = min(off_times)
    on_s = min(on_times)
    return {
        "ticks": ticks,
        "off_s": off_s,
        "on_s": on_s,
        "off_ticks_per_s": ticks / off_s,
        "on_ticks_per_s": ticks / on_s,
        "speedup": off_s / on_s,
    }


def measure_faulty_cache_ratio(*, mtfs: int = MEASURE_MTFS,
                               repeats: int = 5) -> Dict[str, float]:
    """Cache-off over cache-on wall time on the faulty E13 workload —
    ~1.0 when the counter gate is doing its job."""
    ticks = MTF * mtfs
    off_times, on_times = [], []
    for _ in range(repeats):
        off_times.append(_time_mode("run_fast", True, ticks))
        simulator = Simulator(build_prototype().config, cycle_cache=True)
        inject_faulty_process(simulator)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            simulator.run_fast(ticks)
            on_times.append(time.perf_counter() - start)
        finally:
            gc.enable()
    off_s = min(off_times)
    on_s = min(on_times)
    return {"ticks": ticks, "off_s": off_s, "on_s": on_s,
            "ratio": off_s / on_s}


# ------------------------------------------------------------------ #
# pytest entry points
# ------------------------------------------------------------------ #

def _mode_rows(result):
    return [("per-tick run()", f"{result['run_ticks_per_s']:,.0f}",
             f"{result['run_s']:.3f}"),
            ("run_fast()", f"{result['fast_ticks_per_s']:,.0f}",
             f"{result['fast_s']:.3f}"),
            ("event-core speedup", f"{result['speedup']:.1f}x", "")]


def test_event_core_speedup(benchmark, table):
    """Healthy E13 workload: >= 10x ticks/sec, traces bit-identical."""
    events = assert_equivalent(faulty=False)
    result = measure(faulty=False)
    table("E13 — event-driven core, healthy satellite workload",
          ["mode", "ticks/s", "seconds"],
          _mode_rows(result))
    benchmark(lambda: None)  # attach the reported numbers to the run
    benchmark.extra_info.update(result, equivalent_trace_events=events)
    assert result["speedup"] >= SPEEDUP_FLOOR


def test_event_core_speedup_faulty(benchmark, table):
    """E13 with the injected faulty process: more interesting ticks per MTF
    (deadline misses, HM recovery), still a large batched majority."""
    events = assert_equivalent(faulty=True)
    result = measure(faulty=True)
    table("E13 — event-driven core, faulty process injected on P1",
          ["mode", "ticks/s", "seconds"],
          _mode_rows(result))
    benchmark(lambda: None)
    benchmark.extra_info.update(result, equivalent_trace_events=events)
    assert result["speedup"] >= SPEEDUP_FLOOR_FAULTY


def test_cycle_cache_speedup(benchmark, table):
    """E23 steady-cruise workload: the memoized cycle replay must clear
    the >= 5x floor over ``run_fast`` with the cache off."""
    assert_steady_equivalent()
    result = measure_steady()
    table("E23 — steady-cruise workload, cycle cache on vs off",
          ["mode", "ticks/s", "seconds"],
          [("run_fast, cache off", f"{result['off_ticks_per_s']:,.0f}",
            f"{result['off_s']:.3f}"),
           ("run_fast, cache on", f"{result['on_ticks_per_s']:,.0f}",
            f"{result['on_s']:.3f}"),
           ("cycle-cache speedup", f"{result['speedup']:.1f}x", "")])
    benchmark(lambda: None)
    benchmark.extra_info.update(result)
    assert result["speedup"] >= CYCLE_CACHE_SPEEDUP_FLOOR


def test_cycle_cache_faulty_overhead(benchmark, table):
    """Cache armed on the never-steady faulty workload: the counter gate
    keeps every frame live at ~zero cost — no fingerprints, no misses."""
    result = measure_faulty_cache_ratio()
    table("E23 — cycle cache armed on the faulty E13 workload",
          ["metric", "value", ""],
          [("cache off", f"{result['off_s']:.3f}s", ""),
           ("cache on", f"{result['on_s']:.3f}s", ""),
           ("ratio (off/on)", f"{result['ratio']:.3f}", "")])
    benchmark(lambda: None)
    benchmark.extra_info.update(result)
    assert result["ratio"] >= CYCLE_CACHE_FAULTY_FLOOR


# ------------------------------------------------------------------ #
# standalone smoke (CI)
# ------------------------------------------------------------------ #

def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mtfs", type=int, default=MEASURE_MTFS,
                        help="major time frames per timed measurement")
    parser.add_argument("--steady-mtfs", type=int,
                        default=STEADY_MEASURE_MTFS,
                        help="major time frames per steady-cruise "
                             "(cycle cache) measurement — long horizons "
                             "amortize the fixed probe cost")
    parser.add_argument("--repeats", type=int, default=5,
                        help="interleaved repetitions (best-of)")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI smoke geometry ({QUICK_MTFS} MTFs, "
                             f"{STEADY_QUICK_MTFS} steady MTFs, "
                             f"best-of-{QUICK_REPEATS})")
    parser.add_argument("--json", metavar="PATH",
                        help="artifact path (default: BENCH_event_core.json "
                             "in the repo root)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if a speedup floor is missed")
    options = parser.parse_args(argv)
    if options.quick:
        options.mtfs = min(options.mtfs, QUICK_MTFS)
        options.steady_mtfs = min(options.steady_mtfs, STEADY_QUICK_MTFS)
        options.repeats = min(options.repeats, QUICK_REPEATS)
    if options.mtfs < 1:
        parser.error("--mtfs must be >= 1")
    if options.steady_mtfs < 1:
        parser.error("--steady-mtfs must be >= 1")
    if options.repeats < 1:
        parser.error("--repeats must be >= 1")

    workloads = []
    failures = []
    for name, faulty, floor in (("healthy", False, SPEEDUP_FLOOR),
                                ("faulty", True, SPEEDUP_FLOOR_FAULTY)):
        assert_equivalent(faulty, mtfs=min(options.mtfs, 13))
        result = measure(faulty, mtfs=options.mtfs, repeats=options.repeats)
        workload = f"e13-packed-{name}"
        workloads.append(workload_record(
            workload, mode="run",
            ticks_per_s=result["run_ticks_per_s"],
            digests_asserted=True, ticks=result["ticks"]))
        workloads.append(workload_record(
            workload, mode="run_fast",
            ticks_per_s=result["fast_ticks_per_s"],
            speedup=result["speedup"],
            speedup_reference="per-tick run()",
            digests_asserted=True, speedup_floor=floor))
        print(f"{name:>8}: run {result['run_ticks_per_s']:>12,.0f} ticks/s"
              f"   run_fast {result['fast_ticks_per_s']:>12,.0f}"
              f"   ({result['speedup']:.1f}x event core)")
        if result["speedup"] < floor:
            failures.append(f"{name}: event core {result['speedup']:.1f}x "
                            f"< {floor:.0f}x")

    assert_steady_equivalent(mtfs=min(options.steady_mtfs, 12))
    steady = measure_steady(mtfs=options.steady_mtfs,
                            repeats=min(options.repeats, 3))
    workloads.append(workload_record(
        "steady-cruise", mode="run_fast",
        ticks_per_s=steady["off_ticks_per_s"],
        digests_asserted=True, ticks=steady["ticks"]))
    workloads.append(workload_record(
        "steady-cruise", mode="run_fast+cycle-cache",
        ticks_per_s=steady["on_ticks_per_s"],
        speedup=steady["speedup"],
        speedup_reference="run_fast(), cache off",
        digests_asserted=True,
        speedup_floor=CYCLE_CACHE_SPEEDUP_FLOOR))
    print(f"  steady: off {steady['off_ticks_per_s']:>12,.0f} ticks/s"
          f"   cycle cache {steady['on_ticks_per_s']:>12,.0f}"
          f"   ({steady['speedup']:.1f}x)")
    if steady["speedup"] < CYCLE_CACHE_SPEEDUP_FLOOR:
        failures.append(
            f"steady: cycle cache {steady['speedup']:.1f}x "
            f"< {CYCLE_CACHE_SPEEDUP_FLOOR:.0f}x")

    faulty_ratio = measure_faulty_cache_ratio(
        mtfs=options.mtfs, repeats=options.repeats)
    workloads.append(workload_record(
        "e13-packed-faulty", mode="run_fast+cycle-cache",
        speedup=faulty_ratio["ratio"],
        speedup_reference="run_fast(), cache off "
                          "(gate overhead check: ~1.0 expected)",
        digests_asserted=True,
        speedup_floor=CYCLE_CACHE_FAULTY_FLOOR))
    print(f"  faulty cache-on overhead ratio: "
          f"{faulty_ratio['ratio']:.3f} (1.0 = free)")
    if faulty_ratio["ratio"] < CYCLE_CACHE_FAULTY_FLOOR:
        failures.append(f"faulty: cache-on ratio "
                        f"{faulty_ratio['ratio']:.3f} "
                        f"< {CYCLE_CACHE_FAULTY_FLOOR:.2f}")

    meta = {
        "quick": bool(options.quick),
        "cycle_cache_speedup_measured": round(steady["speedup"], 2),
        "cycle_cache_faulty_overhead_ratio": round(faulty_ratio["ratio"], 3),
    }
    path = emit_bench_json("event_core", workloads,
                           path=options.json, meta=meta)
    print(f"wrote {path}")

    if failures and options.check:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
