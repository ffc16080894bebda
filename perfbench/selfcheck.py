"""End-to-end self-check of the benchmark: every workload, traced and not.

Run from the repository root (about a minute on a 2-vCPU host)::

    python3 perfbench/selfcheck.py

Each workload runs once untraced and once traced, in this process, with a
short measuring time.  A run must print a correct result whose metrics are
exactly the ones ``BENCHMARK.json`` declares, with their units, and leave
behind no child process, thread, ``/dev/shm`` segment, ``SIGALRM``
handler or armed interval timer that was not there before it.  Exits
non-zero when any run fails a check.

These are whole benchmark runs, so they live here rather than in
``test_perfbench.py``, whose checks take about a second.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import os
import signal
import sys
import threading
from pathlib import Path
from typing import List

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def _shm_segments() -> set:
    shm = Path("/dev/shm")
    return set(os.listdir(shm)) if shm.is_dir() else set()


def _child_pids() -> set:
    pids = set()
    for task in Path(f"/proc/{os.getpid()}/task").glob("*"):
        children = task / "children"
        if children.is_file():
            pids |= set(children.read_text().split())
    return pids


def check(workload: str, trace: int) -> List[str]:
    """Problems of one in-process run (empty when it passes)."""
    segments, children = _shm_segments(), _child_pids()
    threads = set(threading.enumerate())
    processes = set(multiprocessing.active_children())
    alarm = signal.getsignal(signal.SIGALRM)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed",
                         str(run.PINNED_SEED), "--seconds", "0.1",
                         "--trace", str(trace)])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    problems = []
    if code != 0 or result["correct"] is not True:
        problems.append(f"exit code {code}, correct={result['correct']}")
    if sorted(result["metrics"]) != sorted(m["name"] for m in declared):
        problems.append("printed metrics differ from the declared ones")
    problems += [f"{metric['name']} not in {metric['unit']}"
                 for metric in declared
                 if result["metrics"].get(metric["name"], {}).get("unit")
                 != metric["unit"]]
    if set(multiprocessing.active_children()) - processes:
        problems.append("multiprocessing children left")
    if set(threading.enumerate()) - threads:
        problems.append("threads left")
    if _child_pids() - children:
        problems.append(f"child processes left: {_child_pids() - children}")
    if _shm_segments() - segments:
        problems.append(f"/dev/shm segments left: "
                        f"{_shm_segments() - segments}")
    if signal.getsignal(signal.SIGALRM) is not alarm:
        problems.append("SIGALRM handler not restored")
    if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0):
        problems.append("interval timer left armed")
    return problems


def main() -> int:
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check(workload, trace)
            failures += bool(problems)
            print(f"{workload} trace={trace}: "
                  f"{'; '.join(problems) if problems else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
