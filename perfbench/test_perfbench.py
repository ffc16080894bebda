"""The benchmark's own checks (about a second).

Run from the repository root (not part of the tier-1 suite, whose
``testpaths`` is ``tests``)::

    python3 -m pytest perfbench/test_perfbench.py -q

The end-to-end runs of every workload, with their no-leftover checks, are
``perfbench/selfcheck.py``.
"""

from __future__ import annotations

import json
import signal
import threading
import time

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((run.HERE / "predictions.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def test_in_band_sampling_restores_alarm_and_timer():
    import calibrate

    threads = set(threading.enumerate())
    alarm = signal.getsignal(signal.SIGALRM)
    speed = calibrate.HostSpeed()
    with speed.sampling():
        deadline = time.monotonic() + 3 * calibrate.EVERY_S
        while time.monotonic() < deadline:
            pass
    assert len(speed.samples) >= 2
    assert speed.busy_s > 0
    assert signal.getsignal(signal.SIGALRM) is alarm
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert set(threading.enumerate()) <= threads


def test_pinned_workloads_match_benchmark():
    pinned = json.loads((run.HERE / "pinned.json").read_text())
    assert pinned["seed"] == run.PINNED_SEED
    assert sorted(pinned["outputs"]) == sorted(WORKLOADS)


def test_predictions_name_declared_metrics():
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for entry in PREDICTIONS["layers"]:
        assert set(entry["metrics"]) <= per_layer, entry["layer"]
        for move in entry["moves"]:
            assert move["metric"] in end_to_end
            assert move["workload"] in WORKLOADS
        assert set(entry["flat_on"]) <= set(WORKLOADS)


def test_self_time_subtracts_children_and_folds_reentry():
    run.import_program()
    import spans

    recorder = spans.SpanRecorder()
    outer, inner = recorder.name_id("outer"), recorder.name_id("inner")
    top = recorder.open(outer)
    child = recorder.open(inner)
    recorder.close(child)
    recorder.close(top)
    totals = recorder.totals()
    duration = recorder.end[top] - recorder.start[top]
    child_duration = recorder.end[child] - recorder.start[child]
    assert totals["outer"] == (1, pytest.approx(duration - child_duration))
    assert recorder.parent[child] == top

    class Layer:
        def step(self, depth):
            return depth if depth == 0 else Layer.step(self, depth - 1)

    raw = Layer.__dict__["step"]
    wrapped = spans._plain(recorder, inner, raw)
    Layer.step = wrapped
    try:
        assert Layer().step(3) == 0
    finally:
        Layer.step = raw
    assert recorder.totals()["inner"][0] == 2


def test_install_restores_every_original():
    run.import_program()
    import spans

    recorder = spans.SpanRecorder()
    undo = spans.install(recorder)
    assert undo
    originals = [(target, attribute, raw) for target, attribute, raw in undo]
    spans.uninstall(undo)
    for target, attribute, raw in originals:
        assert vars(target)[attribute] is raw
