"""Per-layer timings of the closed-loop rollout, with pytest-benchmark.

Times ``simulate`` with the built finite-horizon law at selftest's shape
(n = 3, m = 2, N = 10, so 11 steps) and at the long-horizon n = 32 shape
(m = 4, 500 steps), and the first read of ``cost_cum`` and ``z`` on the
latter's trajectory: ``simulate`` forms only the rollout, and a Trajectory
derives both when they are first read.  The plants are ``stable_plant``'s.
Run from the repository root:

    python -m pytest benchmarks/ --benchmark-only

This directory is outside the test suite (``testpaths`` is ``tests``), and
nothing here asserts a time: each test checks only the shape of its result.
"""

import pytest

from lqdr import ControllerConfig, Trajectory, build_controller, simulate
from test_verification_layers import stable_plant

SHAPES = {"n3_m2_N10": (3, 2, 11), "n32_m4_steps500": (32, 4, 500)}


def rollout_inputs(name):
    """(model, cost, law, x0, steps, d) of the strict finite-horizon law at a shape of SHAPES."""
    n, m, steps = SHAPES[name]
    model, cost, rng = stable_plant(n, m, seed=n + m)
    x0, d = rng.standard_normal(n), rng.standard_normal((steps, m))
    law = build_controller(ControllerConfig(kind="FiniteHorizon"), model, cost, d, steps)
    return model, cost, law, x0, steps, d


@pytest.mark.parametrize("name", list(SHAPES))
def test_simulate(benchmark, name):
    model, cost, law, x0, steps, d = rollout_inputs(name)
    traj = benchmark(simulate, model, cost, law, x0, steps, d)
    assert traj.x.shape == (steps + 1, model.n) and traj.u.shape == (steps, model.m)


def test_first_read_of_cost_cum_and_z(benchmark):
    model, cost, law, x0, steps, d = rollout_inputs("n32_m4_steps500")
    done = simulate(model, cost, law, x0, steps, d)

    def fresh():
        return (Trajectory(model, cost, done.x, done.u, done.d),), {}

    def first_read(traj):
        return traj.cost_cum, traj.z

    cost_cum, z = benchmark.pedantic(first_read, setup=fresh, rounds=200)
    assert cost_cum.shape == (steps,) and z.shape == (steps + 1, model.l)
