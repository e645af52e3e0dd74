"""Per-layer timings of the finite-horizon Riccati pass and its feedforward, with pytest-benchmark.

Times ``solve_finite_horizon`` at (n, m, N) = (3, 1, 10), (3, 2, 10) and
(32, 4, 499), and on an n = 2, m = 1 plant over 2,000 steps, which stops
where P first repeats, as the long-horizon plants do.  Times
``solve_recursive``, the feedforward pass, on the passes of those four
shapes, and ``solve_steady``, the stationary feedforward, on the
stationary solutions of the same four plants.  The plants are
``stable_plant``'s.  Run from the repository root:

    python -m pytest benchmarks/ --benchmark-only

This directory is outside the test suite (``testpaths`` is ``tests``), and
nothing here asserts a time: each test checks only the shape of its result.
"""

import pytest

from lqdr import solve_finite_horizon, solve_gare, solve_recursive, solve_steady
from test_verification_layers import stable_plant

SHAPES = pytest.mark.parametrize("n, m, N", [(3, 1, 10), (3, 2, 10), (2, 1, 1999), (32, 4, 499)],
                                 ids=["n3_m1_N10", "n3_m2_N10", "n2_m1_N1999", "n32_m4_N499"])


@SHAPES
def test_solve_finite_horizon(benchmark, n, m, N):
    model, cost, _ = stable_plant(n, m, seed=n + m)
    sol = benchmark(solve_finite_horizon, model, cost, N)
    assert sol.K.shape == (N + 1, m, n)


@SHAPES
def test_solve_recursive(benchmark, n, m, N):
    model, cost, rng = stable_plant(n, m, seed=n + m)
    sol = solve_finite_horizon(model, cost, N)
    ff = benchmark(solve_recursive, sol, model, cost, rng.standard_normal((N + 1, m)))
    assert ff.h.shape == (N + 1, m) and ff.f.shape == (N + 2, n)


@pytest.mark.parametrize("n, m", [(3, 1), (3, 2), (2, 1), (32, 4)],
                         ids=["n3_m1", "n3_m2", "n2_m1", "n32_m4"])
def test_solve_steady(benchmark, n, m):
    model, cost, rng = stable_plant(n, m, seed=n + m)
    gare = solve_gare(model, cost)
    h, f = benchmark(solve_steady, gare, model, cost, rng.standard_normal(m))
    assert h.shape == (m,) and f.shape == (n,)
