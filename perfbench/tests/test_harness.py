"""Tests of the benchmark's own harness: gate, spans, absent names, host clock, metric names.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
from pathlib import Path

import numpy as np

import lqdr.cli as cli
import lqdr.riccati as riccati
import metrics
import run
import workloads
from instrument import REFERENCE_NS, HostClock, Probe, Tracer, clock
from metrics import PASS_ROOT, SpanTable

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent


def _bundled_d(tmp_path):
    """bundled_scenarios cut down to example_d (50 steps, finite horizon + PID)."""
    workload = workloads.BundledScenarios(0, tmp_path)
    workload.files = [cli.bundled_scenario_path("example_d")]
    workload.prepare()
    workload.setup()
    return workload


def _run(workload, tracer=None):
    probe = Probe()
    with probe.installed():
        if tracer is None:
            return workload.run_pass(probe)
        with tracer.installed(), tracer.span(PASS_ROOT):
            return workload.run_pass(probe, tracer)


def _small_long(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.LongHorizon, "SIZES", ((2, 1, 60), (8, 2, 30)))
    monkeypatch.setattr(workloads.LongHorizon, "SAMPLE_TIMES", (0.02,))
    workload = workloads.LongHorizon(3, tmp_path)
    workload.prepare()
    workload.setup()
    return workload


def _small_oracle(tmp_path, monkeypatch, count=6):
    monkeypatch.setattr(workloads.OracleSelftest, "INSTANCES", count)
    workload = workloads.OracleSelftest(5, tmp_path)
    workload.prepare()
    return workload


def _failures(checked):
    return {op: f for op, f in checked.items() if f}


def test_bundled_gate_passes_at_reference_and_catches_perturbed_u(tmp_path):
    workload = _bundled_d(tmp_path)
    records = _run(workload)
    checked = workload.check(records)
    assert set(checked) == {"example_d.finite_horizon", "example_d.pid"}
    assert _failures(checked) == {}

    scenario, failures, runs = records[0]
    run = runs[0]
    run["traj"] = dataclasses.replace(run["traj"], u=run["traj"].u * (1 + 1e-9))
    bad = _failures(workload.check([(scenario, failures, runs)]))
    assert list(bad) == [f"example_d.{run['config'].label}"]
    assert any(msg.startswith("u differs") for msg in bad[next(iter(bad))])


def test_long_horizon_gate_passes_and_catches_perturbed_cost(tmp_path, monkeypatch):
    workload = _small_long(tmp_path, monkeypatch)
    records = _run(workload)
    checked = workload.check(records)
    assert len(checked) == 2 * 3 and _failures(checked) == {}

    exact = workloads.sim.evaluate_cost
    monkeypatch.setattr(workloads.sim, "evaluate_cost",
                        lambda traj, cost: exact(traj, cost) * (1 + 1e-7))
    bad = _failures(workload.check(records))
    assert sorted(bad) == sorted(op for op in checked if ".finite_horizon" in op)
    assert all("predicted" in msgs[0] for msgs in bad.values())


def test_oracle_gate_uses_selftest_tolerances(tmp_path, monkeypatch):
    workload = _small_oracle(tmp_path, monkeypatch)
    records = _run(workload)
    assert _failures(workload.check(records)) == {}
    records[0]["u"] = records[0]["u"] + 1e-7
    bad = _failures(workload.check(records))
    assert list(bad) == ["instance0"] and bad["instance0"][0].startswith("input")


def _assert_well_formed(spans):
    table = SpanTable(spans)
    for i, span in enumerate(spans):
        assert span.start <= span.end
        assert table.self_ns[i] >= 0
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    for root in (i for i, s in enumerate(spans) if s.parent < 0):
        tree = [i for i in range(len(spans)) if table.root[i] == root]
        assert sum(table.self_ns[i] for i in tree) == table.dur[root]


def test_spans_are_well_formed(tmp_path, monkeypatch):
    tracer = Tracer()
    _run(_small_oracle(tmp_path / "o", monkeypatch), tracer)
    _run(_small_long(tmp_path / "l", monkeypatch), tracer)
    names = {s.name for s in tracer.spans}
    assert {"pass", "instance", "control.step", "sim.simulate",
            "riccati.solve_gare", "cli.run_scenario"} <= names
    _assert_well_formed(tracer.spans)


def test_absent_function_reports_zero_calls(tmp_path, monkeypatch):
    monkeypatch.delattr(riccati, "solve_gare")
    tracer = Tracer()
    _run(_small_oracle(tmp_path, monkeypatch, count=2), tracer)
    assert "riccati.solve_gare" in tracer.absent
    values = metrics.per_module(tracer.spans, 0.0)
    assert values["riccati.solve_gare.calls"] == 0
    assert values["riccati.solve_finite_horizon.calls"] == 2


def test_counts_resolves_and_repeats(tmp_path, monkeypatch):
    """example_b cut to 20 steps: 20 receding-horizon solves, all repeats but one."""
    workload = workloads.BundledScenarios(0, tmp_path)
    scenario = cli.load_scenario(cli.bundled_scenario_path("example_b"))
    scenario.steps = 20
    workload.scenarios = [scenario]
    tracer = Tracer()
    _run(workload, tracer)
    values = metrics.per_module(tracer.spans, 0.0)
    assert values["control.step.calls"] == 40
    assert values["control.step.resolves"] == 20
    assert values["control.resolves_per_step"] == 0.5
    # 20 in steps + 1 from the closed-loop radius, one distinct input
    assert values["riccati.solve_finite_horizon.calls"] == 21
    assert values["riccati.solve_finite_horizon.repeat_frac"] == 20 / 21
    assert values["cli.write_csv.bytes"] > 0 and values["cli.write_svg.bytes"] > 0


def test_host_clock_leaves_out_sampling():
    host = HostClock()
    with host.sampling():
        raw0, ref0 = host.read()
        spent0, t0 = host.state[3], clock()
        while clock() - t0 < 100_000_000:
            sum(range(1000))
        raw1, ref1 = host.read()
        spent1, t1 = host.state[3], clock()
    assert spent1 > spent0  # the timer fired
    assert abs((raw1 - raw0) + (spent1 - spent0) - (t1 - t0)) < 1_000_000
    # the reference clock runs at a factor that some kernel sample gave
    lowest = REFERENCE_NS / max(host.kernel_ns) * (raw1 - raw0)
    highest = REFERENCE_NS / min(host.kernel_ns) * (raw1 - raw0)
    assert lowest <= ref1 - ref0 <= highest


def test_metric_names_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(metrics.per_module([], 0.0))
    assert per_layer == list(json.loads((BENCH / "metric_map.json").read_text()))
    one_pass = {"wall_ns": 1, "wall_ref_ns": 1, "build_ns": 1, "simulate_ns": 1,
                "simulate_ref_ns": 1, "steps": 1, "step_ns": [1], "instance_ns": []}
    values = metrics.end_to_end([one_pass], [(1.0, 1.0)], [1], "long_horizon", 0, 1)
    assert {m["name"] for m in spec["end_to_end"]} <= set(values)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) \
        == list(run.WORKLOAD_NAMES)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(values, 99) == 99
    assert metrics.percentile([7], 99) == 7
    assert np.isclose(metrics.percentile([3, 1, 2], 50), 2)
