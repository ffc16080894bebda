"""Span recorder for the benchmark's traced run.

The recorder times the program from outside: :func:`install` swaps the
layer entry points named in :data:`LAYERS` (class methods and module-level
functions) for thin wrappers, and :func:`uninstall` puts the originals
back.  Install before the workload constructs its simulators, because a
simulator binds ``Pmk.clock_tick`` into its interrupt vector at
construction.

Every wrapped call becomes one span: name, start, end, parent span and the
id of the campaign scenario it ran for.  Spans are kept in memory in
columnar arrays and written out at the end (:meth:`SpanRecorder.dump`).
A span's self time is its duration minus the time its child spans cover;
a call that re-enters the span it is already inside (a subclass method
calling its base) is folded into the outer span.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import pkgutil
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layer name -> entry points as ``(module, owner class or None, attribute)``.
#: A class method is wrapped on that class; a module-level function is
#: patched in the module given, which must be the one its callers look
#: it up in.  Owner ``"*"`` wraps the attribute on every class of every
#: module of that package which defines it.  Entry points that do not
#: exist (a method a later change removed) are skipped, and their metrics
#: read zero.
LAYERS: Dict[str, Tuple[Tuple[str, Optional[str], str], ...]] = {
    "kernel.simulator": (
        ("repro.kernel.simulator", "Simulator", "run_fast"),
    ),
    "core.pmk": (
        ("repro.core.pmk", "Pmk", "clock_tick"),
        ("repro.core.pmk", "Pmk", "clock_tick_fast"),
        ("repro.core.pmk", "Pmk", "execute_span"),
        ("repro.core.pmk", "Pmk", "next_event_tick"),
    ),
    "pos": (
        ("repro.pos", "*", "execute_tick"),
        ("repro.pos", "*", "execute_span"),
    ),
    "kernel.trace": (
        ("repro.kernel.trace", "Trace", "record"),
        ("repro.kernel.trace", "Trace", "digest"),
    ),
    "kernel.cycle_cache": (
        ("repro.kernel.cycle_cache", "CycleCache", "on_boundary"),
    ),
    "kernel.snapshot": (
        ("repro.kernel.snapshot", "SimulatorSnapshot", "capture"),
        ("repro.kernel.snapshot", "SimulatorSnapshot", "restore"),
        ("repro.kernel.snapshot", "SimulatorSnapshot", "to_bytes"),
    ),
    "campaign.prefix": (
        ("repro.campaign.prefix", None, "build_divergence_trie"),
        ("repro.campaign.prefix", None, "run_with_prefix_cache"),
    ),
    "campaign.runner": (
        ("repro.campaign.runner", None, "run_scenario"),
    ),
    "campaign.results": (
        ("repro.campaign.runner", None, "compact_metrics"),
        ("repro.constellation.runner", None, "compact_metrics"),
        ("repro.campaign.results", None, "deterministic_report"),
    ),
    "fault.injector": (
        ("repro.fault.injector", "FaultInjector", "run_fast"),
    ),
    "fdir.oracle": (
        ("repro.campaign.runner", None, "check_trace"),
        ("repro.constellation.runner", None, "check_trace"),
    ),
    "constellation": (
        ("repro.constellation.constellation", "Constellation", "run"),
        ("repro.constellation.comm", "InterNodeComm", "send"),
        ("repro.constellation.comm", "InterNodeComm", "receive"),
        ("repro.constellation.comm", "InterNodeComm", "pump"),
        ("repro.constellation.runner", None, "check_constellation"),
        ("repro.constellation.constellation", "Constellation",
         "combined_digest"),
    ),
}

#: Name of the span that covers one repetition of a workload's timed work.
ROOT = "workload"


def span_names() -> List[str]:
    """Every span name :func:`install` can record, in declaration order."""
    names: List[str] = []
    for layer, targets in LAYERS.items():
        for _, _, attribute in targets:
            name = f"{layer}.{attribute}"
            if name not in names:
                names.append(name)
    return names


class SpanRecorder:
    """Spans of one traced run, plus the counters read at span edges."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.scenarios: List[str] = [""]
        self._scenario_ids: Dict[str, int] = {"": 0}
        self.scenario = 0
        self.stack: List[int] = []
        self.name = array("l")
        self.parent = array("l")
        self.owner = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        #: Counts read where the work happens (ticks stepped, bytes).
        self.counters: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        """Intern *name*; span arrays store the integer id."""
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def enter_scenario(self, scenario_id: str) -> int:
        """Tag later spans with *scenario_id*; returns the previous tag."""
        index = self._scenario_ids.get(scenario_id)
        if index is None:
            index = self._scenario_ids[scenario_id] = len(self.scenarios)
            self.scenarios.append(scenario_id)
        previous, self.scenario = self.scenario, index
        return previous

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self.stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.owner.append(self.scenario)
        self.child.append(0.0)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        now = perf_counter()
        self.end[index] = now
        stack = self.stack
        stack.pop()
        if stack:
            self.child[stack[-1]] += now - self.start[index]

    def inside(self, name_id: int) -> bool:
        """True when the innermost open span is *name_id*."""
        stack = self.stack
        return bool(stack) and self.name[stack[-1]] == name_id

    # ------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------ #

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (calls, self seconds), summed over every span."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        start, end, child = self.start, self.end, self.child
        for index, name in enumerate(self.name):
            calls[name] += 1
            self_s[name] += end[index] - start[index] - child[index]
        return {name: (calls[i], self_s[i])
                for i, name in enumerate(self.names)}

    def roots(self) -> List[Tuple[float, float]]:
        """(duration, self seconds) of every :data:`ROOT` span."""
        root = self._name_ids.get(ROOT)
        return [(self.end[i] - self.start[i],
                 self.end[i] - self.start[i] - self.child[i])
                for i, name in enumerate(self.name) if name == root]

    def dump(self, path) -> None:
        """Write every span, columnar, as gzip-compressed JSON."""
        document = {
            "names": self.names,
            "scenarios": self.scenarios,
            "columns": ["name", "parent", "scenario", "start", "end"],
            "spans": [list(self.name), list(self.parent), list(self.owner),
                      list(self.start), list(self.end)],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            json.dump(document, out, separators=(",", ":"))


# ---------------------------------------------------------------- #
# wrappers
# ---------------------------------------------------------------- #


def _plain(recorder: SpanRecorder, name_id: int, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        if recorder.inside(name_id):
            return fn(*args, **kwargs)
        index = recorder.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)
    return wrapper


def _run_fast(recorder: SpanRecorder, name_id: int, fn: Callable) -> Callable:
    """``Simulator.run_fast``: also reads the event-core and cycle-cache
    counters around the call, so shares are measured where work happens."""
    def wrapper(sim, *args, **kwargs):
        core = sim.event_core_stats
        cache = sim.cycle_cache_stats or {}
        index = recorder.open(name_id)
        try:
            return fn(sim, *args, **kwargs)
        finally:
            recorder.close(index)
            after = sim.event_core_stats
            for key in ("ticks_stepped", "ticks_batched"):
                recorder.count(key, after[key] - core[key])
            for key, value in (sim.cycle_cache_stats or {}).items():
                if key in ("hits", "misses"):
                    recorder.count(f"cycle_{key}", value - cache.get(key, 0))
    return wrapper


def _to_bytes(recorder: SpanRecorder, name_id: int, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        index = recorder.open(name_id)
        try:
            payload = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        recorder.count("snapshot_bytes", len(payload))
        return payload
    return wrapper


def _run_scenario(recorder: SpanRecorder, name_id: int,
                  fn: Callable) -> Callable:
    def wrapper(scenario, *args, **kwargs):
        previous = recorder.enter_scenario(scenario.scenario_id)
        index = recorder.open(name_id)
        try:
            return fn(scenario, *args, **kwargs)
        finally:
            recorder.close(index)
            recorder.scenario = previous
    return wrapper


_SPECIAL = {
    "kernel.simulator.run_fast": _run_fast,
    "kernel.snapshot.to_bytes": _to_bytes,
    "campaign.runner.run_scenario": _run_scenario,
}


def _owners(module_name: str, owner: Optional[str],
            attribute: str) -> List[object]:
    """The objects whose *attribute* gets wrapped for one LAYERS entry."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    if owner is None:
        return [module] if attribute in vars(module) else []
    if owner != "*":
        cls = getattr(module, owner, None)
        return [cls] if cls is not None and attribute in vars(cls) else []
    found = []
    for info in pkgutil.iter_modules(module.__path__):
        sub = importlib.import_module(f"{module_name}.{info.name}")
        for _, cls in inspect.getmembers(sub, inspect.isclass):
            if cls.__module__ == sub.__name__ and attribute in vars(cls) \
                    and cls not in found:
                found.append(cls)
    return found


def install(recorder: SpanRecorder) -> List[Tuple[object, str, object]]:
    """Wrap every entry point in :data:`LAYERS`; returns the undo list."""
    undo: List[Tuple[object, str, object]] = []
    for layer, targets in LAYERS.items():
        for module_name, owner, attribute in targets:
            name = f"{layer}.{attribute}"
            name_id = recorder.name_id(name)
            factory = _SPECIAL.get(name, _plain)
            for target in _owners(module_name, owner, attribute):
                raw = vars(target)[attribute]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        factory(recorder, name_id, raw.__func__))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(
                        factory(recorder, name_id, raw.__func__))
                else:
                    wrapped = factory(recorder, name_id, raw)
                undo.append((target, attribute, raw))
                setattr(target, attribute, wrapped)
    return undo


def uninstall(undo: Sequence[Tuple[object, str, object]]) -> None:
    """Put back every original :func:`install` replaced."""
    for target, attribute, raw in reversed(undo):
        setattr(target, attribute, raw)
