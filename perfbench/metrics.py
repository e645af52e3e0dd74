"""End-to-end metrics from timed passes; per-module metrics from spans.

Per-module counts and times are per traced pass, so they do not depend on
how many passes fit in a run.  Metrics of an absent function are 0.
"""

import json
import resource
import statistics
from pathlib import Path

from instrument import REFERENCE_NS, STEP

#: The checkout's BENCHMARK.json: the gated metrics with their units.
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

ALL = ("bundled_scenarios", "long_horizon", "oracle_selftest")
#: End-to-end metrics printed, not gated, by the workloads they apply to:
#: name -> (unit, workloads).
UNGATED = {
    "setup_raw_s": ("s", ALL),
    "wall_s": ("s", ALL),
    "steps_per_s": ("1/s", ALL),
    "step_p50_us": ("us", ALL),
    "step_p99_us": ("us", ALL),
    "host_slowdown": ("ratio", ALL),
    "solve_s": ("s", ("bundled_scenarios", "long_horizon")),
    "instances_per_s": ("1/s", ("oracle_selftest",)),
    "instance_p50_ms": ("ms", ("oracle_selftest",)),
    "instance_p99_ms": ("ms", ("oracle_selftest",)),
    "failed_frac": ("ratio", ALL),
}

#: Spans made while scenario files load; their metrics are per load, not per pass.
SETUP_ROOT = "setup"
PASS_ROOT = "pass"


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup, kernel_ns, workload, failed, attempted):
    """All end-to-end metrics of one run from its untraced passes.

    Times and percentiles are taken per pass and the median over passes is
    reported, so one disturbed pass does not move a run's figure.  The
    ``*_ref`` metrics are read at the host's reference speed (see
    ``instrument.HostClock``), and so is ``setup_s``: ``setup`` holds
    (seconds, speed factor) of each set-up.  ``host_slowdown`` is the
    median time of the reference kernel over ``REFERENCE_NS`` in the passes.
    """
    def per_pass(fn):
        return statistics.median(fn(p) for p in passes)

    values = {
        "setup_s": statistics.median(seconds * factor for seconds, factor in setup),
        "wall_ref_s": per_pass(lambda p: p["wall_ref_ns"]) / 1e9,
        "steps_per_ref_s": per_pass(lambda p: p["steps"] / (p["simulate_ref_ns"] / 1e9)),
        "peak_rss_mb": peak_rss_mb(),
        "setup_raw_s": statistics.median(seconds for seconds, _ in setup),
        "wall_s": per_pass(lambda p: p["wall_ns"]) / 1e9,
        "steps_per_s": per_pass(lambda p: p["steps"] / (p["simulate_ns"] / 1e9)),
        "step_p50_us": per_pass(lambda p: percentile(p["step_ns"], 50)) / 1e3,
        "step_p99_us": per_pass(lambda p: percentile(p["step_ns"], 99)) / 1e3,
        "host_slowdown": statistics.median(kernel_ns) / REFERENCE_NS,
        "solve_s": per_pass(lambda p: p["build_ns"]) / 1e9,
        "failed_frac": failed / attempted,
    }
    if all(p["instance_ns"] for p in passes):
        values["instances_per_s"] = per_pass(
            lambda p: len(p["instance_ns"]) / (p["wall_ns"] / 1e9))
        values["instance_p50_ms"] = per_pass(lambda p: percentile(p["instance_ns"], 50)) / 1e6
        values["instance_p99_ms"] = per_pass(lambda p: percentile(p["instance_ns"], 99)) / 1e6
    applies = set(units("end_to_end")) | {name for name, (_, where) in UNGATED.items()
                                          if workload in where}
    return {name: value for name, value in values.items() if name in applies}


def units(section):
    """{name: unit} of a metric list of BENCHMARK.json, ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[section]}


def _riccati_flops(n, m):
    """Flops of one backward step of solve_finite_horizon, computed from n and m.

    A'PA (4n^3), B'(R+P)B, B'PA and M'K (8mn^2), the m x m solve and the
    second product of B'(R+P)B (4m^2 n), and the eigenvalue check (2m^3).
    """
    return 4 * n ** 3 + 8 * m * n ** 2 + 4 * m ** 2 * n + 2 * m ** 3


class SpanTable:
    """Durations, self times and ancestry of a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        count = len(spans)
        self.dur = [s.end - s.start for s in spans]
        child = [0] * count
        self.root = [0] * count
        self.in_step = [False] * count
        for i, span in enumerate(spans):
            p = span.parent
            if p < 0:
                self.root[i] = i
                continue
            child[p] += self.dur[i]
            self.root[i] = self.root[p]
            self.in_step[i] = self.in_step[p] or spans[p].name == STEP
        self.self_ns = [d - c for d, c in zip(self.dur, child)]
        self._groups = {}
        for i, span in enumerate(spans):
            key = (span.name, spans[self.root[i]].name)
            self._groups.setdefault(key, []).append(i)

    def select(self, name, root):
        """Indices of the spans called ``name`` under roots called ``root``."""
        return self._groups.get((name, root), [])

    def roots(self, name):
        return [i for i, s in enumerate(self.spans) if s.parent < 0 and s.name == name]


def _repeat_frac(table, idx):
    """Share of calls whose input key already occurred earlier in the same pass."""
    seen, repeats, keyed = set(), 0, 0
    for i in idx:
        key = (table.spans[i].attrs or {}).get("key")
        if key is None:
            continue
        keyed += 1
        key = (table.root[i], key)
        repeats += key in seen
        seen.add(key)
    return repeats / keyed if keyed else 0.0


def _attr_sum(table, idx, attr):
    return sum((table.spans[i].attrs or {}).get(attr, 0) for i in idx)


def per_module(spans, overhead_s):
    """Every per-module metric, from spans of one setup root and of pass roots."""
    table = SpanTable(spans)
    passes = max(1, len(table.roots(PASS_ROOT)))

    def idx(name, root=PASS_ROOT):
        return table.select(name, root)

    def ms(name, root=PASS_ROOT):
        per = passes if root == PASS_ROOT else max(1, len(table.roots(root)))
        return sum(table.dur[i] for i in idx(name, root)) / 1e6 / per

    def self_ms(name):
        return sum(table.self_ns[i] for i in idx(name)) / 1e6 / passes

    def calls(name):
        return len(idx(name)) / passes

    steps = idx(STEP)
    step_self = [table.self_ns[i] for i in steps]
    fh = idx("riccati.solve_finite_horizon")
    fh_attrs = [table.spans[i].attrs for i in fh if table.spans[i].attrs]
    fh_steps = sum(a["N"] + 1 for a in fh_attrs)
    fh_flops = sum(_riccati_flops(a["n"], a["m"]) * (a["N"] + 1) for a in fh_attrs)
    fh_self = sum(table.self_ns[i] for i in fh)
    resolves = sum(1 for i in fh if table.in_step[i])
    gare = idx("riccati.solve_gare")
    sims = idx("sim.simulate")
    sim_steps = _attr_sum(table, sims, "steps")
    failures = sum(1 for i, s in enumerate(spans)
                   if s.error and s.name.startswith("riccati.")
                   and spans[table.root[i]].name == PASS_ROOT)

    return {
        "model.discretize_zoh.ms": ms("model.discretize_zoh", SETUP_ROOT),
        "model.disturbance_sequence.ms": ms("model.disturbance_sequence"),
        "cli.load_scenario.ms": ms("cli.load_scenario", SETUP_ROOT),
        "cli.run_scenario.self_ms": self_ms("cli.run_scenario"),
        "cli.trajectory_metrics.ms": ms("cli.trajectory_metrics"),
        "cli.write_csv.ms": ms("cli.write_csv"),
        "cli.write_csv.bytes": _attr_sum(table, idx("cli.write_csv"), "bytes") / passes,
        "cli.write_svg.ms": ms("cli.write_svg"),
        "cli.write_svg.bytes": _attr_sum(table, idx("cli.write_svg"), "bytes") / passes,
        "control.build_controller.self_ms": self_ms("control.build_controller"),
        "control.step.calls": len(steps) / passes,
        "control.step.self_us_p50": percentile(step_self, 50) / 1e3 if steps else 0.0,
        "control.step.self_us_p99": percentile(step_self, 99) / 1e3 if steps else 0.0,
        "control.step.resolves": resolves / passes,
        "control.resolves_per_step": resolves / len(steps) if steps else 0.0,
        "riccati.solve_finite_horizon.calls": len(fh) / passes,
        "riccati.solve_finite_horizon.backward_steps": fh_steps / passes,
        "riccati.solve_finite_horizon.self_ms": fh_self / 1e6 / passes,
        "riccati.solve_finite_horizon.us_per_backward_step":
            fh_self / 1e3 / fh_steps if fh_steps else 0.0,
        "riccati.solve_finite_horizon.gflops_computed":
            fh_flops / fh_self if fh_self else 0.0,
        "riccati.solve_finite_horizon.repeat_frac": _repeat_frac(table, fh),
        "riccati.solve_gare.calls": len(gare) / passes,
        "riccati.solve_gare.iterations": _attr_sum(table, gare, "iterations") / passes,
        "riccati.solve_gare.self_ms": self_ms("riccati.solve_gare"),
        "riccati.solve_gare.repeat_frac": _repeat_frac(table, gare),
        "riccati.failures": failures / passes,
        "feedforward.solve_recursive.calls": calls("feedforward.solve_recursive"),
        "feedforward.solve_recursive.steps":
            _attr_sum(table, idx("feedforward.solve_recursive"), "steps") / passes,
        "feedforward.solve_recursive.self_ms": self_ms("feedforward.solve_recursive"),
        "feedforward.solve_closed_form.self_ms": self_ms("feedforward.solve_closed_form"),
        "feedforward.solve_steady.self_ms": self_ms("feedforward.solve_steady"),
        "sim.simulate.steps": sim_steps / passes,
        "sim.simulate.self_us_per_step":
            sum(table.self_ns[i] for i in sims) / 1e3 / sim_steps if sim_steps else 0.0,
        "sim.brute_force_optimal.self_ms": self_ms("sim.brute_force_optimal"),
        "sim.costate_residuals.self_ms": self_ms("sim.costate_residuals"),
        "sim.predicted_optimal_cost.self_ms": self_ms("sim.predicted_optimal_cost"),
        "sim.evaluate_cost.self_ms": self_ms("sim.evaluate_cost"),
        "trace.spans": sum(1 for i in range(len(spans))
                           if spans[table.root[i]].name == PASS_ROOT) / passes,
        "trace.overhead_s": overhead_s,
    }

