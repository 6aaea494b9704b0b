"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/e2e/run.py
--workload NAME --seed N --seconds S --trace 0|1``, from the repo root or
anywhere else. Finds ``src/`` next to ``benchmarks/`` itself."""

import time

_STARTED = time.perf_counter()

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
_SRC = os.path.join(_ROOT, "src")


def _main() -> int:
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        print(f"benchmarks/e2e: the program is not here: no {_SRC}/repro "
              "to measure", file=sys.stderr)
        return 2
    # This directory is not a place to import top-level modules from.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != _HERE]
    sys.path[:0] = [_SRC, _ROOT]
    from benchmarks.e2e.cli import main
    return main(started=_STARTED)


if __name__ == "__main__":
    sys.exit(_main())
