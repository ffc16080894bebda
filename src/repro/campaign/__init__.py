"""Deterministic multi-scenario campaign engine.

Fans independent, fully deterministic scenarios (fault-injection sweeps,
seed sweeps, config sweeps) out over a ``multiprocessing`` worker pool and
aggregates compact per-scenario summaries — the reproduction's answer to
the repeatable TSP evaluation campaigns of the benchmarking literature.
"""

from .artifacts import ScenarioArtifacts, write_scenario_artifacts
from .prefix import (
    PrefixPlan,
    SnapshotCache,
    build_divergence_trie,
    prefix_key,
    run_with_prefix_cache,
    scenario_fingerprint,
)
from .results import (
    ScenarioResult,
    aggregate,
    canonical_execution_telemetry,
    deterministic_report,
    render_summary,
    report_json,
)
from .runner import (
    autodetect_workers,
    run_campaign,
    run_pool,
    run_scenario,
    run_serial,
)
from .scenarios import (
    FACTORIES,
    Scenario,
    chaos_campaign,
    config_sweep_campaign,
    fault_matrix_campaign,
    load_campaign_spec,
    register_factory,
    scenario_from_dict,
    scenario_to_dict,
    seed_sweep_campaign,
)

__all__ = [
    "ScenarioArtifacts", "write_scenario_artifacts",
    "PrefixPlan", "SnapshotCache", "build_divergence_trie", "prefix_key",
    "run_with_prefix_cache", "scenario_fingerprint",
    "ScenarioResult", "aggregate", "canonical_execution_telemetry",
    "deterministic_report", "render_summary", "report_json",
    "autodetect_workers", "run_campaign", "run_pool", "run_scenario",
    "run_serial",
    "FACTORIES", "Scenario", "chaos_campaign", "config_sweep_campaign",
    "fault_matrix_campaign", "load_campaign_spec", "register_factory",
    "scenario_from_dict", "scenario_to_dict", "seed_sweep_campaign",
]
