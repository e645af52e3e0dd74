#!/usr/bin/env python3
"""Run the layer benchmarks and write a trimmed ``BENCH_<NUMBER>.json`` at the repository root.

From the root of a checkout:

    python3 benchmarks/record_bench.py NUMBER

runs ``python -m pytest benchmarks/ --benchmark-only`` with
``--benchmark-json`` into a temporary file, and keeps per case its min,
median, IQR and rounds (seconds), the machine info, the commit, and one
reading of ``perfbench.instrument.reference_kernel`` (the median of 50
calls, beside the kernel's reference time), so a reader can tell a code
change from a slow host.  On a tree with uncommitted changes the commit
is the one they sit on, and its ``measured`` field says so.  It then
prints each median against the previous ``BENCH_*.json``, the one with
the largest name number below this one's, when one exists.  BLAS pools
are pinned to one thread, as in perfbench.  Nothing is asserted.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
#: The machine-info keys kept; the CPU's flag list and cache sizes are dropped.
MACHINE_KEYS = ("processor", "machine", "python_implementation", "python_version",
                "release", "system")
CPU_KEYS = ("brand_raw", "count", "arch")
KERNEL_CALLS = 50


def kernel_reading():
    """(median ns of one ``reference_kernel`` call, the kernel's reference ns)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import instrument

    instrument.reference_kernel()
    times = []
    for _ in range(KERNEL_CALLS):
        start = time.perf_counter_ns()
        instrument.reference_kernel()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times), instrument.REFERENCE_NS


def run_benchmarks():
    """The raw pytest-benchmark JSON of one run of ``benchmarks/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "raw.json"
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        str(ROOT / "benchmarks"), "--benchmark-only",
                        f"--benchmark-json={raw}"],
                       cwd=ROOT, env=env, check=True)
        return json.loads(raw.read_text())


def trim(raw, kernel_ns, reference_ns):
    machine = raw["machine_info"]
    commit = {key: raw["commit_info"].get(key) for key in ("id", "dirty", "branch")}
    commit["measured"] = ("uncommitted changes on top of this commit" if commit["dirty"]
                          else "this commit")
    return {
        "commit": commit,
        "machine": {**{key: machine.get(key) for key in MACHINE_KEYS},
                    "cpu": {key: machine.get("cpu", {}).get(key) for key in CPU_KEYS}},
        "reference_kernel": {"median_ns": kernel_ns, "reference_ns": reference_ns,
                             "calls": KERNEL_CALLS},
        "unit": "s",
        "cases": {bench["fullname"]: {"min": bench["stats"]["min"],
                                      "median": bench["stats"]["median"],
                                      "iqr": bench["stats"]["iqr"],
                                      "rounds": bench["stats"]["rounds"]}
                  for bench in raw["benchmarks"]},
    }


def previous_file(number):
    """The ``BENCH_<k>.json`` at the root with the largest k below ``number``, or None."""
    found = {}
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match.group(1)) < number:
            found[int(match.group(1))] = path
    return found[max(found)] if found else None


def compare(cases, previous):
    old = json.loads(previous.read_text())["cases"]
    print(f"median against {previous.name}:")
    for name, stats in cases.items():
        if name in old:
            ratio = stats["median"] / old[name]["median"]
            print(f"  {name}: {old[name]['median'] * 1e6:.1f} -> "
                  f"{stats['median'] * 1e6:.1f} us ({ratio - 1:+.1%})")
        else:
            print(f"  {name}: {stats['median'] * 1e6:.1f} us (new)")


def main(argv):
    if len(argv) != 1 or not argv[0].isdigit():
        sys.exit("usage: record_bench.py NUMBER")
    number = int(argv[0])
    kernel_ns, reference_ns = kernel_reading()
    result = trim(run_benchmarks(), kernel_ns, reference_ns)
    out = ROOT / f"BENCH_{number}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}: {len(result['cases'])} cases; reference kernel "
          f"{kernel_ns / 1e3:.0f} us (reference {reference_ns / 1e3:.0f} us)")
    previous = previous_file(number)
    if previous is not None:
        compare(result["cases"], previous)


if __name__ == "__main__":
    main(sys.argv[1:])
