"""Repository benchmark: canonical AIR workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload e13-faulty --seed 0 --seconds 10 \\
        --trace 0

One closed-loop caller in one process runs the workload's fixed work
again and again for ``--seconds`` (serial campaigns, default execution
settings).  Every repetition's outputs are checked: against
``perfbench/pinned.json`` for the pinned seed, otherwise against a live
reference run made after the timed loop.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``: set-up
(process start to the first simulated tick, median of fresh processes),
wall seconds per repetition (median), simulated ticks/s, scenarios/s,
per-scenario p50/p90 and peak resident memory.  Every time is host time
scaled to a reference host speed by calibration runs around it
(:mod:`calibrate`); the summary line gives the raw median and the
host's speed.
``--trace 1`` instead splits the time between untraced and traced
repetitions (:mod:`spans`) and prints the per-layer metrics: calls and
self time per layer entry point, counts measured at those entry points,
the workload properties, the time no layer covers and the tracing
overhead.  The spans are written to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when an output differs from the reference, or when the program
source is missing.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Seed whose outputs are pinned in ``pinned.json``.
PINNED_SEED = 0

#: Fresh processes timed per run for ``setup_s``.
SETUP_SAMPLES = 5

#: Directory (under the repository root) the traced run writes spans to.
OUT_DIR = ROOT / ".perfbench"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: build the workload, run its first "
                             "tick, print the monotonic clock and the "
                             "host-speed scale")
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``
    from it; raises SystemExit(2) when the source is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro imported from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def setup_times(name: str, seed: int) -> List[float]:
    """Host seconds from spawning a fresh interpreter to the workload's
    first simulated tick (imports, inputs, first simulator), once per
    fresh process, each scaled to the reference host speed by calibration
    samples the fresh process takes after its first tick."""
    times = []
    for _ in range(SETUP_SAMPLES):
        started = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        first_tick, scale = map(float, child.stdout.split()[-2:])
        times.append((first_tick - started) * scale)
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    # Users' interpreters cache bytecode; set-up is measured against warm
    # caches even where the environment turns writing them off.
    sys.dont_write_bytecode = False
    import_program()
    if args.probe_setup:
        import workloads

        workloads.build(args.workload, args.seed).first_tick()
        first_tick = time.monotonic()
        import calibrate

        speed = calibrate.HostSpeed()
        speed.take(5)
        print(first_tick, speed.scale())
        return 0
    from bench import run_workload

    return run_workload(args.workload, args.seed, args.seconds,
                        traced=bool(args.trace),
                        setup=lambda: setup_times(args.workload, args.seed),
                        pinned_seed=PINNED_SEED, out_dir=OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
