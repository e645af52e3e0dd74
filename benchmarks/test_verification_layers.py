"""Per-layer timings of selftest's two oracles, with pytest-benchmark.

Times ``solve_closed_form`` (the unrolled feedforward sums) at N = 10, 100
and 500 and ``brute_force_optimal`` (the lifted quadratic) at N = 10 and 20,
on plants drawn from fixed seeds.  Run from the repository root:

    python -m pytest benchmarks/ --benchmark-only

This directory is outside the test suite (``testpaths`` is ``tests``), and
nothing here asserts a time: each test checks only the shape of its result.
"""

import numpy as np
import pytest

from lqdr import (CostSpec, SystemModel, brute_force_optimal, solve_closed_form,
                  solve_finite_horizon)


def stable_plant(n, m, seed):
    """(model, cost, rng): A at spectral radius 0.9, unit-normal B and E, Q = R = P_T = I."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    A = G * (0.9 / np.max(np.abs(np.linalg.eigvals(G))))
    model = SystemModel(A=A, B=rng.standard_normal((n, m)), E=rng.standard_normal((n, m)),
                        c_o=np.eye(n))
    cost = CostSpec(Q=np.eye(n), R=np.eye(n), P_terminal=np.eye(n), r=rng.standard_normal(n))
    return model, cost, rng


@pytest.mark.parametrize("n", [3, 32])
@pytest.mark.parametrize("N", [10, 100, 500])
def test_solve_closed_form(benchmark, N, n):
    model, cost, rng = stable_plant(n, 1, seed=N + n)
    sol = solve_finite_horizon(model, cost, N)
    d = rng.standard_normal((N + 1, 1))
    ff = benchmark(solve_closed_form, sol, model, cost, d)
    assert ff.f.shape == (N + 2, n)


@pytest.mark.parametrize("N", [10, 20])
def test_brute_force_optimal(benchmark, N):
    model, cost, rng = stable_plant(3, 2, seed=N)
    x0, d = rng.standard_normal(3), rng.standard_normal((N + 1, 2))
    oracle = benchmark(brute_force_optimal, model, cost, x0, d, N)
    assert oracle.u_opt.shape == ((N + 1) * 2,)
