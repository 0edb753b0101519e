"""Run the benchmark over many seeds in interleaved sets, and summarise the spread.

    python3 perfbench/spread.py collect OUT.jsonl [--seeds 0-9] [--sets A B]
        [--workload NAME ...] [--seconds 30]
    python3 perfbench/spread.py summary OUT.jsonl [OUT2.jsonl ...] [--raw]

``collect`` runs ``perfbench/run.py`` untraced once per (seed, set,
workload), interleaving the sets seed by seed so that slow drifts of the
machine hit every set alike, and appends one JSON line per run: set,
workload, seed, wall-clock of the whole run, and the run's ``meta`` and
result lines.  ``summary`` prints, per workload and end-to-end metric, the
median and IQR/median of each set (quartiles as ``statistics.quantiles(n=4)``
gives them) and the change of each set's median from the first set's, next
to the metric's bound in ``BENCHMARK.json``; ``--raw`` summarises the
timings as measured (``meta.raw``) instead of in reference seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def collect(out: Path, seeds: list, sets: list, workloads: list, seconds: float) -> None:
    for seed in seeds:
        for label in sets:
            for workload in workloads:
                command = [sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                t0 = time.perf_counter()
                done = subprocess.run(command, cwd=ROOT, text=True, capture_output=True,
                                      timeout=600)
                wall = time.perf_counter() - t0
                lines = done.stdout.strip().splitlines()
                row = {"set": label, "workload": workload, "seed": seed,
                       "wall_s": wall, "returncode": done.returncode,
                       "meta": json.loads(lines[-2])["meta"] if len(lines) > 1 else None,
                       "result": json.loads(lines[-1]) if lines else None}
                with out.open("a") as sink:
                    sink.write(json.dumps(row, sort_keys=True) + "\n")
                print(f"{label} {workload} seed {seed}: {wall:.1f} s, "
                      f"exit {done.returncode}", flush=True)


def summary(paths: list, raw: bool = False) -> None:
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    values: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    walls: dict = defaultdict(list)
    for path in paths:
        for line in Path(path).read_text().splitlines():
            row = json.loads(line)
            walls[row["workload"]].append(row["wall_s"])
            metrics = {name: metric["value"] for name, metric in row["result"]["metrics"].items()}
            if raw:
                metrics = row["meta"]["raw"]
            for name, value in metrics.items():
                values[row["workload"]][name][row["set"]].append(value)
    for workload, metrics in values.items():
        print(f"{workload}  (run wall-clock: median {statistics.median(walls[workload]):.1f} s,"
              f" max {max(walls[workload]):.1f} s)")
        for name, by_set in metrics.items():
            labels = sorted(by_set)
            medians = {label: statistics.median(by_set[label]) for label in labels}
            cells = []
            for label in labels:
                xs = by_set[label]
                q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
                spread = (q3 - q1) / medians[label] if medians[label] else 0.0
                shift = medians[label] / medians[labels[0]] - 1 if medians[labels[0]] else 0.0
                cells.append(f"{label}: n={len(xs)} median={medians[label]:.5g} "
                             f"iqr/med={spread:.3f} shift={shift:+.3f}")
            print(f"  {name:14s} bound={bounds.get(name, float('nan')):.2f}  " + "  ".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("collect")
    run.add_argument("out", type=Path)
    run.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    run.add_argument("--sets", nargs="+", default=["A", "B"])
    run.add_argument("--workload", nargs="+", default=[
        w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
    run.add_argument("--seconds", type=float, default=30)
    show = commands.add_parser("summary")
    show.add_argument("paths", nargs="+")
    show.add_argument("--raw", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "collect":
        collect(args.out, args.seeds, args.sets, args.workload, args.seconds)
    else:
        summary(args.paths, args.raw)
    return 0


if __name__ == "__main__":
    sys.exit(main())
