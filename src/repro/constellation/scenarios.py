"""Constellation scenario specifications and campaign builders.

A :class:`ConstellationScenario` is the multi-node counterpart of
:class:`~repro.campaign.scenarios.Scenario`: a picklable,
JSON-serializable description of one deterministic constellation run —
the fleet shape (a :class:`~repro.constellation.config.ConstellationConfig`),
a seed, a tick horizon, scheduled *cross-node* faults and scheduled
*per-node* faults (ordinary single-node faults targeted at one node's
injector).  The campaign engine dispatches on the
``is_constellation`` marker: these scenarios run through
:func:`repro.campaign.runner.run_scenario`'s constellation branch and
skip the prefix-sharing trie (each is its own locality group).

Builders:

* :func:`failover_drill` — the acceptance drill: silence the leader,
  watch the FDIR watchdogs detect it and the standby promote within the
  declared deadline;
* :func:`constellation_campaign` — seeded chaos barrages of cross-node
  and per-node faults, every scenario audited by both the per-node TSP
  oracle and the cross-node oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Tuple

from ..apps.fdir import HEARTBEAT_PROCESS
from ..apps.prototype import FAULTY_PROCESS, MTF
from ..exceptions import ConfigurationError
from ..fault.faults import (
    Fault,
    MemoryViolationFault,
    MessageFloodFault,
    PartitionCrashFault,
    ProcessKillFault,
    StartProcessFault,
    fault_from_dict,
    fault_to_dict,
)
from ..kernel.rng import SeededRng
from ..types import Ticks
from .config import ConstellationConfig
from .faults import (
    ByzantineNodeFault,
    ConstellationFault,
    LinkPartitionFault,
    LinkStormFault,
    NodeCrashFault,
    SilentNodeFault,
)

__all__ = [
    "ConstellationScenario",
    "constellation_scenario_to_dict",
    "constellation_scenario_from_dict",
    "failover_drill",
    "constellation_campaign",
]


@dataclass(frozen=True)
class ConstellationScenario:
    """One independent, deterministic constellation run in a campaign."""

    scenario_id: str
    seed: int = 0
    ticks: Ticks = 0
    constellation: ConstellationConfig = field(
        default_factory=ConstellationConfig)
    #: Cross-node faults: (tick, fault) applied at sync boundaries.
    faults: Tuple[Tuple[Ticks, ConstellationFault], ...] = ()
    #: Per-node faults: (node, tick, fault) scheduled on that node's own
    #: injector — ordinary single-node faults, applied at exact ticks.
    node_faults: Tuple[Tuple[int, Ticks, Fault], ...] = ()
    #: Audit with both the per-node TSP oracle and the cross-node oracle.
    oracle: bool = True

    #: Campaign-engine dispatch marker (duck-typed: the runner and the
    #: prefix planner test ``getattr(scenario, "is_constellation", …)``).
    is_constellation = True

    def __post_init__(self) -> None:
        if self.ticks < 0:
            raise ConfigurationError(
                f"{self.scenario_id}: negative tick horizon {self.ticks}")
        for node, _tick, _fault in self.node_faults:
            if not 0 <= node < self.constellation.nodes:
                raise ConfigurationError(
                    f"{self.scenario_id}: node fault targets node {node} "
                    f"of a {self.constellation.nodes}-node constellation")


def constellation_scenario_to_dict(
        scenario: ConstellationScenario) -> Dict[str, Any]:
    """Encode as a campaign-spec entry (the ``nodes`` key marks it)."""
    record: Dict[str, Any] = {
        "id": scenario.scenario_id,
        "seed": scenario.seed,
        "ticks": scenario.ticks,
        "nodes": scenario.constellation.nodes,
        "constellation": scenario.constellation.to_dict(),
    }
    if scenario.faults:
        record["faults"] = [dict(fault_to_dict(fault), tick=tick)
                            for tick, fault in scenario.faults]
    if scenario.node_faults:
        record["node_faults"] = [
            dict(fault_to_dict(fault), tick=tick, node=node)
            for node, tick, fault in scenario.node_faults]
    if not scenario.oracle:
        record["oracle"] = False
    return record


def constellation_scenario_from_dict(
        data: Mapping[str, Any]) -> ConstellationScenario:
    """Rebuild from :func:`constellation_scenario_to_dict` output."""
    config_doc = data.get("constellation", {"nodes": data.get("nodes", 3)})
    faults: List[Tuple[Ticks, ConstellationFault]] = []
    for entry in data.get("faults", ()):
        fields = dict(entry)
        tick = fields.pop("tick")
        fault = fault_from_dict(fields)
        if not isinstance(fault, ConstellationFault):
            raise ConfigurationError(
                f"{data.get('id')}: {type(fault).__name__} is not a "
                f"cross-node fault (put it under 'node_faults')")
        faults.append((tick, fault))
    node_faults: List[Tuple[int, Ticks, Fault]] = []
    for entry in data.get("node_faults", ()):
        fields = dict(entry)
        tick = fields.pop("tick")
        node = fields.pop("node")
        node_faults.append((node, tick, fault_from_dict(fields)))
    return ConstellationScenario(
        scenario_id=data["id"],
        seed=data.get("seed", 0),
        ticks=data["ticks"],
        constellation=ConstellationConfig.from_dict(config_doc),
        faults=tuple(faults),
        node_faults=tuple(node_faults),
        oracle=data.get("oracle", True),
    )


# ------------------------------------------------------------------ #
# campaign builders
# ------------------------------------------------------------------ #


def failover_drill(*, nodes: int = 3, seed: int = 0, mtfs: int = 8,
                   silence_at: Ticks = MTF + MTF // 2,
                   scenario_id: str = "failover-drill"
                   ) -> ConstellationScenario:
    """The silent-leader acceptance drill.

    The leader (node 0) goes fail-silent at *silence_at*; every standby's
    FDIR watchdog must expire one heartbeat-timeout later, the successor
    must promote at its next MTF boundary, and the cross-node oracle
    verifies the whole failover landed inside the declared deadline.
    """
    if mtfs < 5:
        raise ConfigurationError(
            f"failover drill needs mtfs >= 5 (silence + timeout + "
            f"promotion + settle), got {mtfs}")
    return ConstellationScenario(
        scenario_id=scenario_id,
        seed=seed,
        ticks=mtfs * MTF,
        constellation=ConstellationConfig(nodes=nodes),
        faults=((silence_at, SilentNodeFault(node=0)),),
    )


def _storm(rng: SeededRng, n: int) -> LinkStormFault:
    """A storm down a real directed link (the mesh has no self-links)."""
    src = rng.randint(0, n - 1)
    dst = (src + rng.randint(1, n - 1)) % n
    return LinkStormFault(src=src, dst=dst, count=rng.randint(16, 96))


#: Cross-node chaos arsenal: constructors drawing free parameters (nodes,
#: durations, counts) from the scenario's derived rng stream.
_XNODE_ARSENAL: Tuple[Callable[[SeededRng, int], ConstellationFault], ...] = (
    lambda rng, n: SilentNodeFault(
        node=rng.randint(0, n - 1), duration=rng.randint(MTF // 2, 3 * MTF)),
    lambda rng, n: ByzantineNodeFault(
        node=rng.randint(0, n - 1), duration=rng.randint(MTF // 2, 2 * MTF)),
    lambda rng, n: _storm(rng, n),
    lambda rng, n: LinkPartitionFault(
        group_a=(rng.randint(0, n - 1),),
        duration=rng.randint(MTF, 3 * MTF)),
    lambda rng, n: NodeCrashFault(node=rng.randint(1, n - 1)),
    # The canonical drill inside the barrage: a permanently silent leader.
    lambda rng, n: SilentNodeFault(node=0),
)

#: Per-node chaos arsenal (a subset of the single-node campaign's,
#: confined to P1/P2/P4 so P3 stays assertable on every node).
_NODE_ARSENAL: Tuple[Callable[[SeededRng], Fault], ...] = (
    lambda rng: StartProcessFault("P1", FAULTY_PROCESS),
    lambda rng: MemoryViolationFault("P2"),
    lambda rng: MemoryViolationFault("P4"),
    lambda rng: PartitionCrashFault("P2"),
    lambda rng: MessageFloodFault("P4", "alert_out",
                                  count=rng.randint(16, 96)),
    lambda rng: ProcessKillFault("P2", "obdh-storage"),
    lambda rng: ProcessKillFault("P4", HEARTBEAT_PROCESS),
)


def constellation_campaign(*, count: int = 50, nodes: int = 3,
                           mtfs: int = 8, base_seed: int = 0
                           ) -> List[ConstellationScenario]:
    """Seeded chaos barrages against N-node constellations.

    Each scenario derives its own rng stream from *base_seed* and draws
    1–3 cross-node faults (partitions, storms, silent/Byzantine nodes,
    crashes) plus 0–2 per-node faults against FDIR-supervised prototype
    nodes.  Fault ticks land in ``[MTF, (mtfs-3)·MTF]`` so every injected
    failover has a full deadline-plus-settle tail before the horizon.
    Fully deterministic: same *base_seed*, same scenarios, same campaign
    digest at any worker count.
    """
    if count < 1 or mtfs < 6 or nodes < 2:
        raise ConfigurationError(
            f"constellation campaign needs count >= 1, mtfs >= 6 and "
            f"nodes >= 2, got count={count}, mtfs={mtfs}, nodes={nodes}")
    # A genuinely hostile fabric: lossy links force the ARQ wrapper to
    # retransmit (with its forked backoff stream), duplication forces
    # receiver-side dedup — all on top of the injected fault barrage.
    config = ConstellationConfig(
        nodes=nodes, loss_probability=0.05, duplicate_probability=0.02,
        backoff=(1, 20), factory_kwargs={"fdir_supervision": True})
    span_start, span_end = MTF, (mtfs - 3) * MTF
    scenarios: List[ConstellationScenario] = []
    for index in range(count):
        rng = SeededRng(base_seed).fork(f"xnode-chaos-{index}")
        faults: List[Tuple[Ticks, ConstellationFault]] = []
        for _ in range(rng.randint(1, 3)):
            build = rng.choice(_XNODE_ARSENAL)
            tick = rng.randint(span_start, span_end)
            faults.append((tick, build(rng, nodes)))
        faults.sort(key=lambda entry: entry[0])
        node_faults: List[Tuple[int, Ticks, Fault]] = []
        for _ in range(rng.randint(0, 2)):
            build = rng.choice(_NODE_ARSENAL)
            node = rng.randint(0, nodes - 1)
            tick = rng.randint(span_start, span_end)
            node_faults.append((node, tick, build(rng)))
        node_faults.sort(key=lambda entry: (entry[1], entry[0]))
        scenarios.append(ConstellationScenario(
            scenario_id=f"xnode-{base_seed + index:05d}",
            seed=base_seed + index,
            ticks=mtfs * MTF,
            constellation=config,
            faults=tuple(faults),
            node_faults=tuple(node_faults),
        ))
    return scenarios
