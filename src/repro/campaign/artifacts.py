"""Per-scenario campaign artifacts: metrics, timelines, flight records.

PR 3 gave single runs ``--metrics-out`` / ``--timeline-out`` exporters on
the ``run``/``demo`` commands; this module carries the same exporters to
the campaign boundary.  A :class:`ScenarioArtifacts` travels in the pool
payloads (it is a tiny frozen dataclass of directory paths — cheap to
pickle), and each worker writes its own scenarios' files directly:
per-scenario filenames never collide, so no cross-process coordination
is needed.

Determinism: the metrics registry is attached *after* the run via
``instrument(simulator, replay=True)``, which folds the recorded trace
from its first event — byte-identical to instrumenting from tick 0, and
*zero cost when artifacts are off* (nothing rides along with the
simulation).  The emitted metrics and timeline JSON are therefore
byte-identical across worker counts and telemetry settings; only the
flight-recorder bundles (failure-path, cache-dependent existence) are
timing-channel material.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ..obs.telemetry.recorder import FLIGHT_RECORD_LAST_N

__all__ = ["ScenarioArtifacts", "write_scenario_artifacts"]


@dataclass(frozen=True)
class ScenarioArtifacts:
    """Where a campaign drops per-scenario artifacts (None = skip).

    Picklable by construction — it crosses the pool boundary inside
    every work payload.
    """

    metrics_dir: Optional[str] = None
    timeline_dir: Optional[str] = None
    flight_recorder_dir: Optional[str] = None
    flight_record_last_n: int = FLIGHT_RECORD_LAST_N

    @property
    def wants_exports(self) -> bool:
        return self.metrics_dir is not None or \
            self.timeline_dir is not None

    @property
    def enabled(self) -> bool:
        return (self.wants_exports
                or self.flight_recorder_dir is not None)


def write_scenario_artifacts(scenario_id: str, simulator,
                             artifacts: ScenarioArtifacts) -> None:
    """Dump the scenario's metrics/timeline files (post-run, best effort).

    Artifact export must never fail a scenario that simulated correctly,
    so I/O errors are swallowed — the campaign aggregate (and its digest)
    is the authoritative record either way.
    """
    if artifacts.metrics_dir is not None:
        try:
            from ..obs import instrument

            os.makedirs(artifacts.metrics_dir, exist_ok=True)
            metrics = instrument(simulator, replay=True)
            path = os.path.join(artifacts.metrics_dir,
                                f"{scenario_id}.metrics.json")
            with open(path, "w", encoding="utf-8") as stream:
                stream.write(metrics.collect().to_json() + "\n")
        except Exception:  # noqa: BLE001 — artifacts are best effort
            pass
    if artifacts.timeline_dir is not None:
        try:
            from ..obs import save_timeline

            os.makedirs(artifacts.timeline_dir, exist_ok=True)
            save_timeline(simulator.trace,
                          os.path.join(artifacts.timeline_dir,
                                       f"{scenario_id}.timeline.json"))
        except Exception:  # noqa: BLE001
            pass
