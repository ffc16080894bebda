"""Measurement loop, output checks and metrics of one benchmark run.

Import this module only after ``src`` is on ``sys.path``
(:func:`run.import_program`).
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import resource
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import calibrate
import spans
import workloads
from workloads import MTF, Outputs, Rep

PINNED = Path(__file__).resolve().parent / "pinned.json"

#: Output names that describe a whole repetition rather than one scenario.
_WHOLE_REP = ("report_digest", "trace_digest", "metrics_digest")


def measure(workload, seconds: float,
            recorder: Optional[spans.SpanRecorder] = None) -> List[Rep]:
    """Repeat the workload's timed work for *seconds* (at least once).

    With a *recorder*, each repetition's timed work is one
    :data:`spans.ROOT` span and its wall time is that span's duration.
    Calibration samples taken during the loop give each repetition its
    :attr:`Rep.scale`; the time the samples took is not counted.
    """
    reps: List[Rep] = []
    windows: List[Tuple[float, float]] = []
    root = recorder.name_id(spans.ROOT) if recorder is not None else -1
    speed = calibrate.HostSpeed()
    speed.take()
    deadline = time.monotonic() + seconds
    with speed.sampling():
        while not reps or time.monotonic() < deadline:
            prepared = workload.prepare()
            gc.collect()
            busy = speed.busy_s
            began = time.monotonic()
            if recorder is None:
                start = time.perf_counter()
                product = workload.execute(prepared)
                wall = time.perf_counter() - start
            else:
                index = recorder.open(root)
                product = workload.execute(prepared)
                recorder.close(index)
                wall = recorder.end[index] - recorder.start[index]
            windows.append((began, time.monotonic()))
            wall -= speed.busy_s - busy
            reps.append(workload.record(prepared, product, wall))
            del prepared, product
    speed.take()
    for rep, (began, ended) in zip(reps, windows):
        rep.scale = speed.scale(began, ended)
    return reps


def scaled_wall(reps: List[Rep]) -> float:
    """Median repetition wall time at the reference host speed."""
    return statistics.median(rep.wall_s * rep.scale for rep in reps)


def failed_operations(rep: Rep, expected: Outputs) -> Set[str]:
    """Ids of the failed operations of one rep.

    An operation is one scenario (a single-simulator rep is one scenario,
    id ``"rep"``); it fails when its outputs differ from *expected*.  A
    scenario's status is one of its outputs, so a scenario the oracle
    flags fails only when the reference run does not flag it too; the
    flagged ones are counted apart (:attr:`Rep.not_ok`).
    """
    bad = set(workloads.mismatches(rep.outputs, expected))
    failed = bad - set(_WHOLE_REP)
    if bad and not failed:
        failed.add("rep")
    return failed


def load_pinned(name: str, seed: int, pinned_seed: int) -> Optional[Outputs]:
    if seed != pinned_seed or not PINNED.is_file():
        return None
    document = json.loads(PINNED.read_text(encoding="utf-8"))
    return document["outputs"].get(name)


def quantile(samples: Sequence[float], q: int) -> float:
    """The *q*-th percentile (q in 1..99) of *samples*."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100)[q - 1]


def end_to_end(reps: List[Rep], setup: List[float],
               peak_rss_mb: float) -> Dict[str, Tuple[float, str]]:
    wall = scaled_wall(reps)
    samples = [s * rep.scale for rep in reps for s in rep.scenario_walls]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "sim_ticks_per_s": (reps[0].ticks / wall, "ticks/s"),
        "scenarios_per_s": (len(reps[0].scenario_walls) / wall, "1/s"),
        "scenario_ms_p50": (statistics.median(samples) * 1e3, "ms"),
        "scenario_ms_p90": (quantile(samples, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(untraced: List[Rep], traced: List[Rep],
              recorder: spans.SpanRecorder, steady: Tuple[int, int],
              failed_share: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, per traced repetition; times at the reference
    host speed."""
    count = len(traced)
    scale = statistics.median(rep.scale for rep in traced)
    totals = recorder.totals()
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in spans.span_names():
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / count, "count")
        metrics[f"{name}.self_s"] = (self_s * scale / count, "s")
    counters = recorder.counters
    stepped = counters.get("ticks_stepped", 0)
    hits = counters.get("cycle_hits", 0)
    props = untraced[-1].properties
    scenario_ticks = props.get("scenario_ticks", 0)
    pumps = totals.get("constellation.pump", (0, 0.0))[0] / count
    roots = recorder.roots()
    metrics.update({
        "kernel.simulator.stepped_share": (_share(
            stepped, stepped + counters.get("ticks_batched", 0)), "ratio"),
        "kernel.trace.events": (props["trace_events"], "count"),
        "kernel.cycle_cache.hit_ratio": (_share(
            hits, hits + counters.get("cycle_misses", 0)), "ratio"),
        "kernel.snapshot.bytes": (
            counters.get("snapshot_bytes", 0) / count, "bytes"),
        "campaign.prefix.fork_share": (_share(
            props.get("forked", 0), len(untraced[-1].scenario_walls)),
            "ratio"),
        "campaign.prefix.inherited_tick_share": (_share(
            props.get("inherited_ticks", 0), scenario_ticks), "ratio"),
        "fault.injector.faults_applied": (
            props.get("faults_applied", 0), "count"),
        "constellation.sync_boundaries_per_mtf": (
            _share(pumps, scenario_ticks / MTF), "count/mtf"),
        "run.steady_mtf_share": (_share(*steady), "ratio"),
        "run.unattributed_share": (_share(
            sum(own for _, own in roots), sum(d for d, _ in roots)),
            "ratio"),
        "run.tracing_overhead": (
            scaled_wall(traced) / scaled_wall(untraced), "ratio"),
        "run.failed_share": (failed_share, "ratio"),
    })
    return metrics


def leftovers() -> List[str]:
    """Child processes and threads this process still has."""
    found = [f"child process {child.pid}"
             for child in multiprocessing.active_children()]
    found += [f"thread {thread.name}" for thread in threading.enumerate()
              if thread is not threading.main_thread()]
    return found


def run_workload(name: str, seed: int, seconds: float, *, traced: bool,
                 setup: Callable[[], List[float]], pinned_seed: int,
                 out_dir: Path) -> int:
    """Run one workload, print its summary and result line; exit code."""
    # Build and step first: that compiles any missing bytecode, so the
    # timed set-up processes all start from the same warm cache.
    workload = workloads.build(name, seed)
    workload.first_tick()
    setup_samples = [] if traced else setup()
    expected = load_pinned(name, seed, pinned_seed)
    steady = (0, 0)
    recorder = None
    if not traced:
        reps = measure(workload, seconds)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        traced_reps: List[Rep] = []
    else:
        reps = measure(workload, seconds / 2)
        recorder = spans.SpanRecorder()
        undo = spans.install(recorder)
        try:
            traced_reps = measure(workload, seconds / 2, recorder)
        finally:
            spans.uninstall(undo)
        props = reps[-1].properties
        steady = (props.get("steady_frames", 0),
                  props.get("compared_frames", 0))

    mismatch = False
    if expected is None or (traced and isinstance(workload,
                                                  workloads.Campaign)):
        frames = [0, 0]

        def on_trace(trace) -> None:
            steady_count, compared = workloads.steady_frames(trace)
            frames[0] += steady_count
            frames[1] += compared

        reference = workload.reference(on_trace=on_trace)
        if isinstance(workload, workloads.Campaign):
            steady = (frames[0], frames[1])
        if expected is None:
            expected = reference
        elif workloads.mismatches(reference, expected):
            mismatch = True
            print("reference run differs from pinned outputs")

    attempted = failed = flagged = 0
    not_ok: Set[str] = set()
    for rep in reps + traced_reps:
        ops = failed_operations(rep, expected)
        attempted += len(rep.scenario_walls)
        failed += len(ops)
        flagged += len(set(rep.not_ok) - ops)
        not_ok |= set(rep.not_ok)
        mismatch |= bool(ops)
    if traced:
        metrics = per_layer(reps, traced_reps, recorder, steady,
                            _share(failed + flagged, attempted))
        out_dir.mkdir(exist_ok=True)
        recorder.dump(out_dir / f"spans-{name}-seed{seed}.json.gz")
    else:
        metrics = end_to_end(reps, setup_samples, peak_rss_mb)

    samples = sum(len(rep.scenario_walls) for rep in reps)
    print(f"{name} seed={seed}: {len(reps)} untraced + {len(traced_reps)} "
          f"traced reps, {samples} scenario samples, raw median wall "
          f"{statistics.median(rep.wall_s for rep in reps):.6f} s with the host "
          f"at x{statistics.median(rep.scale for rep in reps):.3f} of "
          f"reference speed, "
          f"outputs {'DIFFER' if mismatch else 'match'} the "
          f"{'pinned' if seed == pinned_seed else 'reference'} run")
    if not_ok:
        print(f"scenarios not ok in the program's own verdict (the reference "
              f"run agrees unless outputs differ; counted in "
              f"run.failed_share): {', '.join(sorted(not_ok))}")
    stray = leftovers()
    if stray:
        print(f"left running: {', '.join(stray)}")
    correct = not mismatch and not stray
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1
