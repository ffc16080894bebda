"""Deterministic multi-node constellations of AIR nodes.

N full :class:`~repro.kernel.simulator.Simulator` instances (each with
its own PMK/PST/FDIR stack and fault injector) advance in lockstep,
exchange CRC-framed messages over per-link forked-rng
:class:`~repro.comm.network.NetworkLink` fabric, and run a
leader/standby failover protocol driven by the existing FDIR watchdog
machinery.  Cross-node fault injection (partitions, storms, silent and
Byzantine nodes, cascading crashes) and a cross-node invariant oracle
ride on top; the campaign engine runs :class:`ConstellationScenario`
work through :func:`repro.campaign.runner.run_scenario`, which hands the
per-kind parts to :class:`repro.constellation.runner.ConstellationRun`.
"""

from .comm import NODE_COMM_STAT_KEYS, InterNodeComm, decode_message, \
    encode_message
from .config import DEFAULT_FAILOVER_DEADLINE, ConstellationConfig
from .constellation import ROLE_LEADER, ROLE_STANDBY, Constellation, Node
from .faults import (
    ByzantineNodeFault,
    ConstellationFault,
    LinkPartitionFault,
    LinkStormFault,
    NodeCrashFault,
    SilentNodeFault,
)
from .oracle import check_constellation
from .scenarios import (
    ConstellationScenario,
    constellation_campaign,
    constellation_scenario_from_dict,
    constellation_scenario_to_dict,
    failover_drill,
)

__all__ = [
    "NODE_COMM_STAT_KEYS",
    "InterNodeComm",
    "encode_message",
    "decode_message",
    "DEFAULT_FAILOVER_DEADLINE",
    "ConstellationConfig",
    "ROLE_LEADER",
    "ROLE_STANDBY",
    "Constellation",
    "Node",
    "ConstellationFault",
    "LinkPartitionFault",
    "LinkStormFault",
    "SilentNodeFault",
    "ByzantineNodeFault",
    "NodeCrashFault",
    "check_constellation",
    "ConstellationScenario",
    "constellation_scenario_to_dict",
    "constellation_scenario_from_dict",
    "failover_drill",
    "constellation_campaign",
]
