#!/usr/bin/env python3
"""Record the bundled_scenarios reference that the correctness gate compares with.

    python3 perfbench/record_reference.py

Runs the four bundled scenarios once with the program in ``src/`` and writes
``reference/bundled.npz`` (x, u, z and cost_cum of every controller) and
``reference/bundled_summary.json`` (each controller's summary metrics).  The
files in the repository were recorded before any performance change, so a
later change must reproduce them within relative 1e-12.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from instrument import Probe  # noqa: E402
from workloads import BundledScenarios  # noqa: E402


def main():
    workload = BundledScenarios(seed=0, out_dir=HERE / "out" / "reference")
    workload.setup()
    probe = Probe()
    with probe.installed():
        records = workload.run_pass(probe)
    workload.record_reference(records)
    print(f"wrote {workload.reference}")


if __name__ == "__main__":
    main()
