"""Per-layer timings of ``build_controller`` on the laws the workloads build, with pytest-benchmark.

Times the three configs of a long-horizon run (strict finite horizon,
non-strict finite horizon, stationary) on the first long-horizon plant
(n = 2, Ts = 20 ms, 2,000 steps), built in that order through one ``laws``
dict, so the non-strict config gets the strict config's law back; and
``example_b``'s receding-horizon law (T = 100), one lookahead pass and one
feedforward pass of m + 1 problems.  The plant is the test suite's
(``tests/conftest.py``).  Run from the repository root:

    python -m pytest benchmarks/ --benchmark-only

This directory is outside the test suite (``testpaths`` is ``tests``), and
nothing here asserts a time: each test checks only the shape of its result.
"""

import sys
from pathlib import Path

from lqdr import ControllerConfig, build_controller
from lqdr.cli import bundled_scenario_path, load_scenario

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import long_horizon_cases  # noqa: E402

LONG_HORIZON_CONFIGS = (ControllerConfig(kind="FiniteHorizon", label="finite_horizon"),
                        ControllerConfig(kind="FiniteHorizon", strict=False,
                                         label="finite_horizon_pinv"),
                        ControllerConfig(kind="Stationary"))


def test_long_horizon_configs_through_one_laws_dict(benchmark):
    _, model, cost, steps, ramp = long_horizon_cases()[0]

    def build_all():
        laws = {}
        return [build_controller(config, model, cost, ramp, steps, laws)
                for config in LONG_HORIZON_CONFIGS]
    built = benchmark(build_all)
    assert [law.K.shape for law in built] == [(steps, model.m, model.n)] * 3


def test_example_b_receding_horizon_law(benchmark):
    scenario = load_scenario(bundled_scenario_path("example_b"))
    config = next(c for c in scenario.controllers if c.kind == "receding_horizon")
    law = benchmark(build_controller, config, scenario.model, scenario.cost,
                    scenario.disturbance, scenario.steps)
    m = scenario.model.m
    assert law.K.shape == (scenario.steps, m, scenario.model.n)
    assert law.K_d.shape == (m, m) and law.u_0.shape == (scenario.steps, m)
