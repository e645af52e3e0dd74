"""Per-layer timings of the finite-horizon Riccati pass and its feedforward, with pytest-benchmark.

Times ``solve_finite_horizon`` at (n, m, N) = (3, 1, 10), (3, 2, 10) and
(32, 4, 499), and on an n = 2, m = 1 plant over 2,000 steps, which stops
where P first repeats, as the long-horizon plants do.  Times
``solve_recursive``, the feedforward pass, on the passes of those four
shapes, and ``solve_steady``, the stationary feedforward, on the
stationary solutions of the same four plants.  Times ``solve_recursive``
once more on non-strict passes at (3, 2, 10) and (32, 4, 499) whose B
repeats its first column, so that every Upsilon_k drops an eigenvalue and
the feedforward tests each h_k on the dropped eigenvectors.  The plants
are ``stable_plant``'s.  Run from the repository root:

    python -m pytest benchmarks/ --benchmark-only

This directory is outside the test suite (``testpaths`` is ``tests``), and
nothing here asserts a time: each test checks only the shape of its result.
"""

import pytest

import numpy as np

from lqdr import SystemModel, solve_finite_horizon, solve_gare, solve_recursive, solve_steady
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


@pytest.mark.parametrize("n, m, N", [(3, 2, 10), (32, 4, 499)],
                         ids=["n3_m2_N10", "n32_m4_N499"])
def test_solve_recursive_dropping(benchmark, n, m, N):
    model, cost, rng = stable_plant(n, m, seed=n + m)
    B = np.array(model.B)
    B[:, -1] = B[:, 0]
    model = SystemModel(A=model.A, B=B, E=model.E, c_o=model.c_o)
    sol = solve_finite_horizon(model, cost, N, strict=False)
    ff = benchmark(solve_recursive, sol, model, cost, rng.standard_normal((N + 1, m)))
    assert ff.h.shape == (N + 1, m) and sol.Upsilon_dropped.shape == (N + 1, m, m)


@pytest.mark.parametrize("n, m", [(3, 1), (3, 2), (2, 1), (32, 4)],
                         ids=["n3_m1", "n3_m2", "n2_m1", "n32_m4"])
def test_solve_steady(benchmark, n, m):
    model, cost, rng = stable_plant(n, m, seed=n + m)
    gare = solve_gare(model, cost)
    h, f = benchmark(solve_steady, gare, model, cost, rng.standard_normal(m))
    assert h.shape == (m,) and f.shape == (n,)
