"""Run the repro-axc benchmark: one workload, one seed, traced or not.

    python3 perfbench/run.py --workload explore_table3 --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout (the program is imported from ``src/``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it is ``{"meta": ...}``: machine, library
versions, git commit, ``src/`` line count and per-run details.  Workloads,
metrics and the layer table are described in ``perfbench/README.md``.

Seeds: ``--seed 0`` is the default; ``--seed 8191`` is held out for
re-checking a claim on inputs it was not tuned on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

DEFAULT_SEED = 0
HELD_OUT_SEED = 8191


def environment() -> dict:
    """Where and on what the result was measured (metadata, not metrics)."""
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as source:
            src_lines += sum(1 for _ in source)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def declared_metrics(trace: bool) -> list:
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return document["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    import repro  # noqa: F401  (fail fast, before any set-up, without src/)
    from perfbench import workloads

    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace))
    measured, attempted, failed = run.measure()
    metrics = {}
    for declared in declared_metrics(bool(args.trace)):
        value = float(measured[declared["name"]])
        if not math.isfinite(value):
            raise RuntimeError(f"metric {declared['name']} is not finite: {value}")
        metrics[declared["name"]] = {"value": value, "unit": declared["unit"]}
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **environment(), **run.info}
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
