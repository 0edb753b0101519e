"""Regenerate the reference digests the benchmark checks every report against.

Each workload's file ``reference/<workload>.json`` maps the fingerprint of
every spec its pool can submit to the SHA-256 of that spec's
``ExperimentReport.canonical_json()``, computed by a plain local
``run_experiment`` (fresh in-memory store, serial executor).

Report bytes are a contract: a change that alters them is a behaviour
change, not an optimisation.  Regenerate only when that is the intent::

    python3 perfbench/make_reference.py [--workload NAME ...] [--jobs 2]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402


def reference_digest(spec: dict):
    from repro.experiments.runner import run_experiment
    from repro.experiments.spec import ExperimentSpec

    report = run_experiment(ExperimentSpec.from_dict(spec))
    if not report.ok:
        raise RuntimeError(f"reference run failed for {spec}: {report.failures}")
    return workloads.fingerprint(spec), workloads.digest(report.canonical_json())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    context = multiprocessing.get_context("spawn")
    for workload in args.workload:
        specs = [spec for group in workloads.pools()[workload].values() for spec in group]
        with ProcessPoolExecutor(max_workers=args.jobs, mp_context=context) as pool:
            digests = dict(pool.map(reference_digest, specs))
        document = {
            "workload": workload,
            "note": "sha256 of ExperimentReport.canonical_json() per spec "
                    "fingerprint; regenerate with perfbench/make_reference.py",
            "digests": dict(sorted(digests.items())),
        }
        path = workloads.REFERENCE_DIR / f"{workload}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"{workload}: {len(digests)} digests -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
