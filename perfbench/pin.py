"""Regenerate ``pinned.json``: the pinned seed's reference outputs.

Run from the repository root after a change that is meant to alter the
simulated behaviour (never to make a failing benchmark pass)::

    python3 perfbench/pin.py

Each workload's outputs come from its reference path: per-tick
``Simulator.run`` for single-simulator workloads, ``run_campaign(...,
prefix_cache=False)`` for campaigns.
"""

from __future__ import annotations

import json
import sys

from run import PINNED_SEED, import_program


def main() -> int:
    import_program()
    import workloads
    from bench import PINNED

    outputs = {name: workloads.build(name, PINNED_SEED).reference()
               for name in workloads.WORKLOADS}
    PINNED.write_text(json.dumps({"seed": PINNED_SEED, "outputs": outputs},
                                 indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"pinned {len(outputs)} workloads at seed {PINNED_SEED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
