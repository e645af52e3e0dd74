"""Time-to-ready probe, run in a fresh interpreter by run.py.

    python3 setup_probe.py <src dir> [scenario.json ...]

Imports lqdr from <src dir>, loads each scenario file, then prints
CLOCK_MONOTONIC in nanoseconds, which the parent compares with its own
reading taken before it started this interpreter.
"""

import sys
import time


def main(argv):
    sys.path.insert(0, argv[0])
    from lqdr.cli import load_scenario

    for path in argv[1:]:
        load_scenario(path)
    print(time.monotonic_ns())


if __name__ == "__main__":
    main(sys.argv[1:])
