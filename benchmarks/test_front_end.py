"""Per-layer timings of the scenario front end and the baseline laws, with pytest-benchmark.

Times ``load_scenario`` on each bundled scenario (``example_d`` includes
its zero-order hold); one step-1 call of ``example_d``'s two built laws,
its finite-horizon ``AffineController`` and its ``PidController``;
``trajectory_metrics``, ``write_csv`` and ``write_svg`` on ``example_c``'s
receding-horizon run; and ``Scenario.to_dict`` with the summary's
``json.dumps`` on ``example_c``.
Run from the repository root:

    python -m pytest benchmarks/ --benchmark-only

This directory is outside the test suite (``testpaths`` is ``tests``), and
nothing here asserts a time: each test checks only the shape of its result.
"""

import json

import numpy as np
import pytest

from lqdr import build_controller, simulate
from lqdr.cli import (bundled_scenario_path, load_scenario, trajectory_metrics, write_csv,
                      write_svg)

BUNDLED = ["example_a", "example_b", "example_c", "example_d"]


@pytest.mark.parametrize("name", BUNDLED)
def test_load_scenario(benchmark, name):
    path = bundled_scenario_path(name)
    scenario = benchmark(load_scenario, path)
    assert scenario.model.A.shape == (scenario.model.n, scenario.model.n)


@pytest.mark.parametrize("kind", ["finite_horizon", "pid"], ids=["affine", "pid"])
def test_controller_call(benchmark, kind):
    scenario = load_scenario(bundled_scenario_path("example_d"))
    config = next(c for c in scenario.controllers if c.kind == kind)
    law = build_controller(config, scenario.model, scenario.cost, scenario.disturbance,
                           scenario.steps)
    u = benchmark(law, 1, scenario.x0, np.ones(scenario.model.m))
    assert u.shape == (scenario.model.m,)


@pytest.fixture(scope="module")
def example_c_run():
    """(scenario, trajectory) of ``example_c``'s receding-horizon law."""
    scenario = load_scenario(bundled_scenario_path("example_c"))
    config = next(c for c in scenario.controllers if c.kind == "receding_horizon")
    law = build_controller(config, scenario.model, scenario.cost, scenario.disturbance,
                           scenario.steps)
    return scenario, simulate(scenario.model, scenario.cost, law, scenario.x0,
                              scenario.steps, scenario.disturbance)


def test_trajectory_metrics(benchmark, example_c_run):
    scenario, traj = example_c_run
    metrics = benchmark(trajectory_metrics, traj, scenario.disturbance.start_step,
                        scenario.settle_band)
    assert set(metrics) == {"J", "steady_state_error", "peak_error", "settling_step"}


def test_write_csv(benchmark, example_c_run, tmp_path):
    _, traj = example_c_run
    path = tmp_path / "run.csv"
    benchmark(write_csv, path, traj)
    assert len(path.read_text().splitlines()) == traj.steps + 1


def test_write_svg(benchmark, example_c_run, tmp_path):
    scenario, traj = example_c_run
    path = tmp_path / "run.svg"
    series = [(f"z{i + 1}", traj.z[:, i]) for i in range(scenario.model.l)]
    benchmark(write_svg, path, scenario.name, series, scenario.disturbance.start_step)
    assert path.read_text().count("<polyline") == len(series)


def test_scenario_to_dict_and_summary_dump(benchmark, example_c_run):
    scenario, _ = example_c_run

    def dump():
        return json.dumps({"scenario": scenario.to_dict()}, indent=2, allow_nan=False)
    text = benchmark(dump)
    assert json.loads(text)["scenario"]["steps"] == scenario.steps
