"""One cold set-up in a fresh interpreter: import, compile LUTs, open a store.

The benchmark times this script end to end (interpreter start to exit) to
measure what every new ``repro-axc`` process pays before its first
evaluation::

    python3 perfbench/setup_probe.py [--store PATH.sqlite]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", default=None,
                        help="also create and flush a fresh sqlite store here")
    args = parser.parse_args(argv)

    from perfbench.workloads import warm_process
    from repro.runtime import EvaluationStore

    warm_process()
    if args.store is not None:
        EvaluationStore(args.store).flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
