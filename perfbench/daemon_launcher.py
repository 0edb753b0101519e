"""Start ``repro-axc serve`` for the benchmark, optionally traced.

Usage::

    python3 perfbench/daemon_launcher.py --store S.sqlite --socket D.sock [--trace OUT.npz]

Without ``--trace`` this is exactly ``repro-axc serve --store S --socket D``.
With it, the layer wrappers of :mod:`tracing` are installed before the
daemon is built, every span stays in memory while it serves, and the spans
are written to ``OUT.npz`` once the daemon has drained.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--trace", default=None, metavar="OUT.npz")
    args = parser.parse_args(argv)

    from repro import cli
    import repro.service.daemon  # noqa: F401  (bound names must exist before wrapping)

    recorder = uninstall = None
    if args.trace:
        from perfbench import tracing

        recorder = tracing.SpanRecorder()
        uninstall = tracing.install(recorder)
    try:
        code = cli.main(["serve", "--store", args.store, "--socket", args.socket])
    finally:
        if uninstall is not None:
            uninstall()
            recorder.save(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
