#!/usr/bin/env python3
"""lqdr benchmark: run one seeded workload, check its outputs, print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload bundled_scenarios --seed 1 --seconds 30 --trace 0

Workloads are ``bundled_scenarios``, ``long_horizon`` and ``oracle_selftest``
(see README.md).  The program is imported from the checkout's ``src/``;
without it the command exits 2 and prints no result.

The run repeats whole passes over the workload's fixed work list, starting
another pass only while it is expected to end within ``--seconds`` (there is
always at least one).  Each pass is checked by the correctness gate after
its clock stops.  ``--trace 0`` reports end-to-end metrics over all passes;
``--trace 1`` alternates untraced and traced passes and reports per-module
metrics of the traced ones, with the tracing overhead.  A table goes to
standard output, then one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 1 when any operation failed.  Full results,
the environment and the spans are written under ``perfbench/out/``.
"""

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: BLAS pools pinned to one thread: the load is one process, one thread.
#: numpy reads these once, when it is first imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import metrics  # noqa: E402
from instrument import HostClock, Probe, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("bundled_scenarios", "long_horizon", "oracle_selftest")
#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 7
#: Failure messages printed per run.
SHOW_FAILURES = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads():
    """Thread count reported by each loaded OpenBLAS, read through ctypes."""
    counts = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(lib).name] = fn()
                break
    return counts


def cpu_model():
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def environment():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
            "cpu_model": cpu_model()}


def setup_times(files, repeats=SETUP_REPEATS):
    """(seconds, speed factor) of each time an interpreter is spawned until
    lqdr and the files are loaded; the host's speed is sampled just before
    and just after each, and the factor is their mean."""
    host = HostClock()
    times = []
    for _ in range(repeats):
        before = host.speed()
        start = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, files)],
            check=True, capture_output=True, text=True, timeout=120)
        seconds = (int(done.stdout.split()[-1]) - start) / 1e9
        times.append((seconds, (before + host.speed()) / 2))
    return times


def measure(workload, seconds, trace):
    """Run passes for about ``seconds``; return (passes, tracer, gate results, host clock)."""
    probe = Probe()
    host = probe.host
    tracer = Tracer(host.raw_ns) if trace else None
    if tracer:
        with tracer.installed(), tracer.span(metrics.SETUP_ROOT):
            workload.setup()
    else:
        workload.setup()

    passes, gate = [], []
    start = time.monotonic()
    durations = []
    while True:
        traced = trace and len(passes) % 2 == 1
        began = time.monotonic()
        probe.reset()
        with probe.installed(), host.sampling():
            if traced:
                with tracer.installed(), tracer.span(metrics.PASS_ROOT):
                    raw0, ref0 = host.read()
                    records = workload.run_pass(probe, tracer)
                    raw1, ref1 = host.read()
            else:
                raw0, ref0 = host.read()
                records = workload.run_pass(probe)
                raw1, ref1 = host.read()
        passes.append({"traced": traced, "wall_ns": raw1 - raw0, "wall_ref_ns": ref1 - ref0,
                       "build_ns": probe.build_ns, "simulate_ns": probe.simulate_ns,
                       "simulate_ref_ns": probe.simulate_ref_ns, "steps": probe.steps,
                       "step_ns": probe.step_ns,
                       "instance_ns": probe.instance_ns})
        gate.append(workload.check(records))
        del records  # free this pass's trajectories before the next pass runs
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if len(passes) >= (2 if trace else 1) and \
                elapsed + statistics.median(durations) > seconds:
            break
    return passes, tracer, gate, host


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lqdr" / "__init__.py").is_file():
        print(f"error: no lqdr sources at {SRC / 'lqdr'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import lqdr

    if Path(lqdr.__file__).resolve().parent != (SRC / "lqdr").resolve():
        print(f"error: lqdr was imported from {lqdr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    workload.prepare()
    setup = [] if args.trace else setup_times(workload.files)
    passes, tracer, gate, host = measure(workload, args.seconds, args.trace)

    results = [failures for checked in gate for failures in checked.values()]
    attempted = len(results)
    failed = sum(1 for failures in results if failures)
    untraced = [p for p in passes if not p["traced"]]
    env = environment()
    if args.trace:
        traced_wall = statistics.median(p["wall_ref_ns"] for p in passes if p["traced"])
        overhead = (traced_wall - statistics.median(p["wall_ref_ns"] for p in untraced)) / 1e9
        values = metrics.per_module(tracer.spans, overhead)
        units = metrics.units("per_layer")
        spans_path = out_dir / f"spans.seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for i, span in enumerate(tracer.spans):
                fh.write(json.dumps(span.as_dict(i)) + "\n")
        reported = values
    else:
        values = metrics.end_to_end(untraced, setup, host.kernel_ns, args.workload,
                                    failed, attempted)
        gated = metrics.units("end_to_end")
        units = {**{name: unit for name, (unit, _) in metrics.UNGATED.items()}, **gated}
        reported = {name: values[name] for name in gated}

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  operations {attempted}  failed {failed}")
    print("# environment " + json.dumps(env, sort_keys=True))
    absent = set(tracer.absent) if tracer else set()
    for name, value in values.items():
        note = "  (absent)" if any(name.startswith(a + ".") for a in absent) else ""
        print(f"{name:<52} {value:>16.6g} {units[name]}{note}")
    shown = [f"{op}: {msg}" for checked in gate for op, failures in checked.items()
             for msg in failures][:SHOW_FAILURES]
    for line in shown:
        print(f"# FAILED {line}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in reported.items()}}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "result": result,
              "all_metrics": values, "setup_times_s": [s for s, _ in setup],
              "setup_factors": [f for _, f in setup],
              "pass_wall_s": [p["wall_ns"] / 1e9 for p in passes],
              "pass_wall_ref_s": [p["wall_ref_ns"] / 1e9 for p in passes],
              "pass_traced": [p["traced"] for p in passes],
              "reference_kernel_ns": list(host.kernel_ns)}
    (out_dir / f"result.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
