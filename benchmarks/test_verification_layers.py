"""Per-layer timings of selftest's cross-check, with pytest-benchmark.

Times ``solve_closed_form`` (the unrolled feedforward sums) at N = 10, 100
and 500 and ``brute_force_optimal`` (the lifted quadratic) at N = 0 (its
fixed cost), 10 and 20, on plants drawn from fixed seeds; then
``evaluate_cost``, ``predicted_optimal_cost``, ``costate_residuals`` and
one ``finite_horizon_control`` call on a 3-state, 2-input law over N = 10,
and selftest's whole cross-check body (Riccati pass, oracle and
``cli._cross_check``) over 100 fixed ``draw_instance`` draws.  Run from the
repository root:

    python -m pytest benchmarks/ --benchmark-only

This directory is outside the test suite (``testpaths`` is ``tests``), and
nothing here asserts a time: each test checks only the shape of its result.
"""

import numpy as np
import pytest

from lqdr import (CostSpec, SolvabilityError, SystemModel, brute_force_optimal,
                  costate_residuals, draw_instance, evaluate_cost, finite_horizon_control,
                  predicted_optimal_cost, simulate, solve_closed_form, solve_finite_horizon,
                  solve_recursive)
from lqdr.cli import _cross_check


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


@pytest.mark.parametrize("N", [0, 10, 20])
def test_brute_force_optimal(benchmark, N):
    model, cost, rng = stable_plant(3, 2, seed=N)
    x0, d = rng.standard_normal(3), rng.standard_normal((N + 1, 2))
    oracle = benchmark(brute_force_optimal, model, cost, x0, d, N)
    assert oracle.u_opt.shape == ((N + 1) * 2,)


@pytest.fixture(scope="module")
def rollout():
    """(model, cost, x0, d, riccati, ff, traj) of the finite-horizon law, n = 3, m = 2, N = 10."""
    model, cost, rng = stable_plant(3, 2, seed=5)
    x0, d = rng.standard_normal(3), rng.standard_normal((11, 2))
    sol = solve_finite_horizon(model, cost, 10)
    ff = solve_recursive(sol, model, cost, d)
    traj = simulate(model, cost, lambda k, x, dk: finite_horizon_control(k, x, sol, ff),
                    x0, 11, d)
    return model, cost, x0, d, sol, ff, traj


def test_evaluate_cost(benchmark, rollout):
    _, cost, _, _, _, _, traj = rollout
    assert np.shape(benchmark(evaluate_cost, traj, cost)) == ()


def test_predicted_optimal_cost(benchmark, rollout):
    model, cost, x0, d, sol, ff, _ = rollout
    assert np.shape(benchmark(predicted_optimal_cost, sol, ff, x0, model, cost, d)) == ()


def test_costate_residuals(benchmark, rollout):
    model, cost, _, _, sol, ff, traj = rollout
    assert len(benchmark(costate_residuals, traj, sol, ff, model, cost)) == 2


def test_finite_horizon_control(benchmark, rollout):
    _, _, x0, _, sol, ff, _ = rollout
    assert benchmark(finite_horizon_control, 0, x0, sol, ff).shape == (2,)


def selftest_draws(count, seed):
    """``count`` draws that ``lqdr selftest`` keeps: a unique, well-conditioned optimum."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        inst = draw_instance(rng)
        try:
            if brute_force_optimal(inst.model, inst.cost, inst.x0, inst.d,
                                   inst.N).condition <= 1e6:
                draws.append(inst)
        except SolvabilityError:
            pass
    return draws


def test_cross_check(benchmark):
    draws = selftest_draws(100, seed=2101)

    def cross_check_all():
        return [_cross_check(inst, solve_finite_horizon(inst.model, inst.cost, inst.N),
                             brute_force_optimal(inst.model, inst.cost, inst.x0, inst.d, inst.N))
                for inst in draws]

    assert len(benchmark(cross_check_all)) == len(draws)
