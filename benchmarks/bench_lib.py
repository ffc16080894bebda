"""Shared benchmark-artifact emitter: schema-versioned ``BENCH_<name>.json``.

Every standalone benchmark entry point (``bench_event_core``,
``bench_campaign``, ``bench_snapshot_fork``) funnels its measured numbers
through :func:`emit_bench_json`, so each artifact carries the same
provenance envelope:

* ``schema_version`` — bumped whenever the envelope shape changes, so a
  dashboard reading old artifacts can tell them apart;
* ``benchmark`` — artifact name (``BENCH_<benchmark>.json``);
* ``git_rev`` — the commit the numbers were measured at;
* ``host`` — python version and platform (ticks/sec are host-relative);
* ``workloads`` — a list of :func:`workload_record` entries, each naming
  its workload id, throughput, speedup vs its stated reference,
  and whether the deterministic digests were asserted equal before timing.

Timing numbers are honest measurements on whatever host ran the benchmark;
the digest flags are the part that is host-independent and load-proof.
"""

from __future__ import annotations

import json
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["BENCH_SCHEMA_VERSION", "bench_json_path", "emit_bench_json",
           "git_rev", "workload_record"]

BENCH_SCHEMA_VERSION = 1

#: Artifacts land in the repo root (next to EXPERIMENTS.md), where CI
#: uploads them and the docs reference them.
REPO_ROOT = Path(__file__).resolve().parent.parent


def git_rev() -> str:
    """Short commit hash of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def workload_record(workload: str, *,
                    ticks_per_s: Optional[float] = None,
                    speedup: Optional[float] = None,
                    speedup_reference: Optional[str] = None,
                    digests_asserted: bool = False,
                    **extra) -> Dict[str, object]:
    """One workload entry for :func:`emit_bench_json`.

    *speedup* is measured against *speedup_reference* (a human-readable
    description of the baseline mode, e.g. ``"per-tick run()"``), both
    measured in the same process on the same host.
    *digests_asserted* records whether the deterministic digests (trace,
    metrics, oracle verdict) of the timed mode were asserted equal to the
    reference before timing — the bit-identity gate.
    """
    record: Dict[str, object] = {
        "workload": workload,
        "digests_asserted": bool(digests_asserted),
    }
    if ticks_per_s is not None:
        record["ticks_per_s"] = round(float(ticks_per_s), 1)
    if speedup is not None:
        record["speedup"] = round(float(speedup), 3)
        record["speedup_reference"] = speedup_reference or "reference"
    record.update(extra)
    return record


def bench_json_path(benchmark: str) -> Path:
    return REPO_ROOT / f"BENCH_{benchmark}.json"


def emit_bench_json(benchmark: str, workloads: List[Dict[str, object]], *,
                    path: Optional[str] = None,
                    meta: Optional[Dict[str, object]] = None) -> Path:
    """Write the schema-versioned artifact; return the path written."""
    document: Dict[str, object] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": benchmark,
        "git_rev": git_rev(),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": workloads,
    }
    if meta:
        document["meta"] = meta
    target = Path(path) if path else bench_json_path(benchmark)
    with open(target, "w", encoding="utf-8") as stream:
        json.dump(document, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return target
