"""Time a fixed loop in a process that loads nothing of the program.

The speed of a shared machine drifts by tens of per cent within minutes.
The benchmark starts this script once per run and, each time it asks
(one line on standard input), times the loop and answers with one JSON
list of sample seconds.  It asks only between units of measured work,
and keeps an answer only if the program's processes used almost no CPU
while the loop ran (see ``workloads.Calibrator``), so nothing the program
does, in the foreground or the background, can move the result::

    python3 perfbench/calibrate.py          # then one empty line per request
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

#: Loop samples per request.
SAMPLES = 2


def loop() -> float:
    """Seconds for many small NumPy operations driven by the interpreter:
    the shape of the program's per-step hot path."""
    values = np.arange(4.0)
    ones = np.ones(4)
    t0 = time.perf_counter()
    for _ in range(7_000):
        scores = values * ones + 1.0
        best = int(np.argmax(scores))
        values[best % 4] = scores.sum() % 7
    return time.perf_counter() - t0


def main() -> int:
    for _ in sys.stdin:
        print(json.dumps([loop() for _ in range(SAMPLES)]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
