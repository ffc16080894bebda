"""The benchmark's four canonical AIR workloads.

Each workload turns the benchmark seed into fixed inputs, then splits its
work into an untimed :meth:`prepare`, the timed :meth:`execute` and an
untimed :meth:`record` that extracts the outputs to check.  The program is
called through its public API with default execution settings only: no
``backend=``, ``cycle_cache=``, ``prefix_cache=`` or ``prefix_depth=``
argument reaches a timed call, so a later change of a default is measured.
:meth:`reference` recomputes the outputs on the slowest, simplest path
(per-tick ``Simulator.run``; campaigns without prefix sharing) and is
never timed.

Modules beyond the simulator core are imported where a workload first
needs them, so ``setup_s`` of a single-simulator workload does not pay
for the campaign and constellation packages.  Import this module only
after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.prototype import (
    MTF,
    build_prototype,
    inject_faulty_process,
    make_simulator,
    make_steady_simulator,
)
from repro.kernel.simulator import Simulator

#: Outputs of one run: a flat mapping from output name to its value.
Outputs = Dict[str, str]


@dataclass
class Rep:
    """What one repetition of a workload's timed work produced."""

    wall_s: float
    #: Simulated ticks completed (summed over scenarios and nodes).
    ticks: int
    #: Host seconds per scenario; a single-simulator rep is one scenario.
    scenario_walls: List[float]
    outputs: Outputs
    #: Ids of scenarios whose status is not ``ok``.
    not_ok: List[str] = field(default_factory=list)
    #: Deterministic properties of the inputs (shares, counts).
    properties: Dict[str, float] = field(default_factory=dict)
    #: Factor to the reference host speed (:mod:`calibrate`).
    scale: float = 1.0


def mismatches(outputs: Outputs, expected: Outputs) -> List[str]:
    """Output names whose value differs from *expected*."""
    keys = sorted(set(outputs) | set(expected))
    return [key for key in keys if outputs.get(key) != expected.get(key)]


def steady_frames(trace, mtf: int = MTF) -> Tuple[int, int]:
    """(steady frames, compared frames) of one trace.

    Frame *k* covers ticks ``[k*mtf, (k+1)*mtf)``; it is steady when its
    event count and kind sequence equal frame *k-1*'s.
    """
    frames: Dict[int, List[str]] = {}
    for event in trace.events:
        frames.setdefault(event.tick // mtf, []).append(event.kind)
    last = max(frames, default=0)
    steady = sum(1 for k in range(1, last + 1)
                 if frames.get(k, []) == frames.get(k - 1, []))
    return steady, last


# ---------------------------------------------------------------- #
# single-simulator workloads
# ---------------------------------------------------------------- #


class SingleSimulator:
    """One simulator driven by ``run_fast`` over many MTFs."""

    name = ""
    mtfs = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ticks = self.mtfs * MTF

    def prepare(self) -> Simulator:
        """A fresh simulator with the workload's inputs (untimed)."""
        raise NotImplementedError

    def first_tick(self) -> None:
        self.prepare().run_fast(1)

    def execute(self, sim: Simulator) -> str:
        sim.run_fast(self.ticks)
        return sim.trace.digest()

    def outputs(self, sim: Simulator) -> Outputs:
        from repro.obs import instrument

        return {"trace_digest": sim.trace.digest(),
                "metrics_digest": instrument(
                    sim, replay=True).collect().digest()}

    def record(self, sim: Simulator, _digest: str, wall_s: float) -> Rep:
        steady, compared = steady_frames(sim.trace)
        return Rep(wall_s=wall_s, ticks=sim.now, scenario_walls=[wall_s],
                   outputs=self.outputs(sim),
                   properties={"steady_frames": steady,
                               "compared_frames": compared,
                               "trace_events": len(sim.trace)})

    def reference(self, on_trace: Optional[Callable] = None) -> Outputs:
        sim = self.prepare()
        sim.run(self.ticks)
        if on_trace is not None:
            on_trace(sim.trace)
        return self.outputs(sim)


class E13Faulty(SingleSimulator):
    """The Sect. 6 demo with the faulty process injected (E13)."""

    name = "e13-faulty"
    mtfs = 100

    def prepare(self) -> Simulator:
        sim = make_simulator(build_prototype(seed=self.seed))
        inject_faulty_process(sim)
        return sim


class SteadyCruise(SingleSimulator):
    """The cruise-mode configuration: every frame repeats."""

    name = "steady-cruise"
    mtfs = 200

    def prepare(self) -> Simulator:
        return make_steady_simulator(seed=self.seed)


# ---------------------------------------------------------------- #
# campaign workloads
# ---------------------------------------------------------------- #


class Campaign:
    """A serial ``run_campaign`` over generated scenarios."""

    name = ""
    #: Simulated nodes per scenario (ticks are summed over nodes).
    nodes = 1

    def __init__(self, seed: int) -> None:
        from repro.campaign import run_campaign

        self.seed = seed
        self.run_campaign = run_campaign
        self.scenarios = self.generate(seed)

    def generate(self, seed: int) -> list:
        raise NotImplementedError

    def first_tick(self) -> None:
        Simulator(self.scenarios[0].build_config()).run_fast(1)

    def prepare(self) -> None:
        return None

    def execute(self, _prepared) -> list:
        return self.run_campaign(self.scenarios)

    @staticmethod
    def outputs(results) -> Outputs:
        from repro.campaign import results as campaign_results

        report = json.dumps(campaign_results.deterministic_report(results),
                            sort_keys=True)
        outputs = {"report_digest":
                   hashlib.sha256(report.encode("utf-8")).hexdigest()[:16]}
        for result in results:
            outputs[result.scenario_id] = \
                f"{result.status}:{result.trace_digest}"
        return outputs

    def record(self, _prepared, results, wall_s: float) -> Rep:
        ticks = sum(result.ticks for result in results)
        inherited = sum(max(result.forked_at_tick, 0) for result in results)
        return Rep(
            wall_s=wall_s, ticks=ticks * self.nodes,
            scenario_walls=[result.wall_time_s for result in results],
            outputs=self.outputs(results),
            not_ok=[result.scenario_id for result in results
                    if not result.ok],
            properties={
                "forked": sum(1 for r in results if r.forked_at_tick >= 0),
                "inherited_ticks": inherited,
                "scenario_ticks": ticks,
                "trace_events": sum(r.trace_events for r in results),
                "faults_applied": sum(r.faults_applied for r in results),
            })

    def reference(self, on_trace: Optional[Callable] = None) -> Outputs:
        """Outputs without prefix sharing; *on_trace* sees every finished
        trace the oracle audits (one per scenario, or per node)."""
        from repro.campaign import runner as campaign_runner
        from repro.constellation import runner as constellation_runner

        undo = []
        if on_trace is not None:
            for module in (campaign_runner, constellation_runner):
                original = module.check_trace

                def audited(trace, *args, _original=original, **kwargs):
                    on_trace(trace)
                    return _original(trace, *args, **kwargs)

                undo.append((module, original))
                module.check_trace = audited
        try:
            results = self.run_campaign(self.scenarios, prefix_cache=False)
        finally:
            for module, original in undo:
                module.check_trace = original
        return self.outputs(results)


class ChaosDeepPrefix(Campaign):
    """FDIR-supervised fault barrages sharing a deep fault prefix."""

    name = "chaos-deep-prefix"

    def generate(self, seed: int) -> list:
        from repro.campaign.scenarios import chaos_campaign

        return chaos_campaign(count=100, mtfs=16, base_seed=seed,
                              shared_seed=True, shared_faults=3)


class XnodeChaos(Campaign):
    """Cross-node chaos barrages against three-node constellations."""

    name = "xnode-chaos"
    nodes = 3

    def generate(self, seed: int) -> list:
        from repro.constellation.scenarios import constellation_campaign

        return constellation_campaign(count=100, nodes=self.nodes, mtfs=8,
                                      base_seed=seed)

    def first_tick(self) -> None:
        from repro.constellation import Constellation

        scenario = self.scenarios[0]
        Constellation(scenario.constellation, scenario.seed).run(1)


WORKLOADS = {workload.name: workload for workload in
             (E13Faulty, SteadyCruise, ChaosDeepPrefix, XnodeChaos)}


def build(name: str, seed: int):
    """The workload called *name*, with inputs generated from *seed*."""
    return WORKLOADS[name](seed)
