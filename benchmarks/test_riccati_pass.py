"""Per-layer timings of the finite-horizon Riccati pass, with pytest-benchmark.

Times ``solve_finite_horizon`` at (n, m, N) = (3, 1, 10), (3, 2, 10) and
(32, 4, 499), and on an n = 2, m = 1 plant over 2,000 steps, which stops
where P first repeats, as the long-horizon plants do.  The plants are
``stable_plant``'s.  Run from the repository root:

    python -m pytest benchmarks/ --benchmark-only

This directory is outside the test suite (``testpaths`` is ``tests``), and
nothing here asserts a time: each test checks only the shape of its result.
"""

import pytest

from lqdr import solve_finite_horizon
from test_verification_layers import stable_plant


@pytest.mark.parametrize("n, m, N", [(3, 1, 10), (3, 2, 10), (2, 1, 1999), (32, 4, 499)],
                         ids=["n3_m1_N10", "n3_m2_N10", "n2_m1_N1999", "n32_m4_N499"])
def test_solve_finite_horizon(benchmark, n, m, N):
    model, cost, _ = stable_plant(n, m, seed=n + m)
    sol = benchmark(solve_finite_horizon, model, cost, N)
    assert sol.K.shape == (N + 1, m, n)
