import numpy as np
import pytest

import scipy.linalg

import lqdr.riccati
from conftest import (aero_engine_discrete, long_horizon_cases, lqr_textbook_gains,
                      reference_finite_horizon, sampled_stable_plant, tracking_cost,
                      two_state_bench, uncontrollable_3state)
from lqdr import (ConvergenceError, CostSpec, RegularityError,
                  SolvabilityError, StabilizationError, SystemModel,
                  check_regularity, finite_horizon_control, gare_fixed_point,
                  solve_finite_horizon, solve_gare, solve_recursive, solve_steady,
                  spectral_radius, stationary_control)
from lqdr.cli import bundled_scenario_path, load_scenario

GOLDEN = (1 + np.sqrt(5)) / 2


def scalar_model(A=1.0, B=1.0, E=1.0):
    return SystemModel(A=[[A]], B=[[B]], E=[[E]], c_o=[[1.0]])


def scalar_cost(Q=1.0, R=1.0, P_terminal=0.0, r=0.0):
    return CostSpec(Q=[[Q]], R=[[R]], P_terminal=[[P_terminal]], r=[r])


# ---------------------------------------------------------------------------
# finite horizon
# ---------------------------------------------------------------------------

def test_single_step_zero_terminal():
    sol = solve_finite_horizon(scalar_model(), scalar_cost(P_terminal=0.0), N=0)
    assert sol.Upsilon[0] == pytest.approx(1.0)
    assert sol.M[0] == pytest.approx(0.0)
    assert sol.P[0] == pytest.approx(1.0)
    assert sol.K[0] == pytest.approx(0.0)


def test_single_step_hand_values():
    sol = solve_finite_horizon(scalar_model(A=2.0), scalar_cost(R=0.0, P_terminal=1.0), N=0)
    assert sol.Upsilon[0] == pytest.approx(1.0)
    assert sol.M[0] == pytest.approx(2.0)
    assert sol.P[0] == pytest.approx(1.0)
    assert sol.K[0] == pytest.approx(2.0)


def test_bench_horizon_100_is_strictly_solvable():
    model = uncontrollable_3state()
    cost = tracking_cost(model)
    sol = solve_finite_horizon(model, cost, N=100)
    assert sol.strict
    for k in range(101):
        assert np.min(np.linalg.eigvalsh(sol.Upsilon[k])) > 0
        # stored blocks stay mutually consistent
        rebuilt = model.B.T @ (cost.R + sol.P[k + 1]) @ model.B
        assert np.max(np.abs(sol.Upsilon[k] - rebuilt)) <= 1e-12
        assert np.max(np.abs(sol.Upsilon[k] @ sol.K[k] - sol.M[k])) <= 1e-9
        assert np.max(np.abs(sol.P[k] - sol.P[k].T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(sol.P[k])) >= -1e-10


def test_strict_mode_names_failing_step():
    model = scalar_model(B=0.0)
    with pytest.raises(SolvabilityError) as info:
        solve_finite_horizon(model, scalar_cost(), N=5)
    assert info.value.step == 5
    assert "5" in str(info.value)


def test_non_strict_allows_singular_upsilon():
    model = SystemModel(A=np.eye(2), B=[[1.0, 0.0], [0.0, 0.0]],
                        E=np.zeros((2, 2)), c_o=np.eye(2))
    cost = CostSpec(Q=np.eye(2), R=np.eye(2), P_terminal=np.eye(2), r=np.zeros(2))
    with pytest.raises(SolvabilityError):
        solve_finite_horizon(model, cost, N=3, strict=True)
    sol = solve_finite_horizon(model, cost, N=3, strict=False)
    assert not sol.strict
    for k in range(4):
        assert np.max(np.abs(sol.Upsilon[k] @ sol.K[k] - sol.M[k])) <= 1e-9


def test_non_strict_rejects_inconsistent_problem():
    # R = -P_terminal makes Upsilon_N = 0 while M_N != 0; with semidefinite
    # weights this cannot happen, so an indefinite R is used on purpose.
    model = scalar_model()
    cost = scalar_cost(Q=1.0, R=-1.0, P_terminal=1.0)
    with pytest.raises(RegularityError) as info:
        solve_finite_horizon(model, cost, N=0, strict=False)
    assert info.value.step == 0


def full_pass_cases():
    cases = []
    for name in ("example_a", "example_b", "example_c", "example_d"):
        scenario = load_scenario(bundled_scenario_path(name))
        cases.append(pytest.param(scenario.model, scenario.cost, scenario.steps - 1, id=name))
    for case_id, model, cost, steps, _ in long_horizon_cases():
        cases.append(pytest.param(model, cost, steps - 1, id=case_id))
    return cases


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "pinv"])
@pytest.mark.parametrize("model, cost, N", full_pass_cases())
def test_fixed_point_stop_equals_the_full_pass(model, cost, N, strict):
    # once P_k == P_{k+1} bit for bit the earlier steps are copies, so every
    # array must equal the pass that computes each step
    sol = solve_finite_horizon(model, cost, N, strict=strict)
    expected = reference_finite_horizon(model, cost, N, strict=strict)
    for got, want in zip((sol.P, sol.Upsilon, sol.M, sol.Upsilon_inv, sol.K), expected):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "pinv"])
def test_backward_pass_stops_at_its_exact_fixed_point(monkeypatch, strict):
    scenario = load_scenario(bundled_scenario_path("example_b"))
    calls = []
    step = lqdr.riccati._backward_step

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return step(*args, **kwargs)

    monkeypatch.setattr(lqdr.riccati, "_backward_step", counted)
    sol = solve_finite_horizon(scenario.model, scenario.cost, 999, strict=strict)
    # steps 999 down to 747 are computed; P_747 == P_748 bit for bit
    assert calls == list(range(999, 746, -1))
    assert np.array_equal(sol.P[0], sol.P[747]) and np.array_equal(sol.K[0], sol.K[747])


def test_negative_horizon_rejected():
    with pytest.raises(ValueError):
        solve_finite_horizon(scalar_model(), scalar_cost(), N=-1)


def test_value_matrices_monotone_in_horizon():
    rng = np.random.default_rng(42)
    for _ in range(8):
        n = int(rng.integers(1, 4))
        G = rng.standard_normal((n, n))
        A = G * (rng.uniform(0.3, 1.1) / max(np.max(np.abs(np.linalg.eigvals(G))), 1e-9))
        B = rng.standard_normal((n, 1))
        C = rng.standard_normal((n, n))
        D = rng.standard_normal((n, n))
        model = SystemModel(A=A, B=B, E=B, c_o=np.eye(n))
        cost = CostSpec(Q=C.T @ C, R=D.T @ D, P_terminal=np.zeros((n, n)), r=np.zeros(n))
        previous = None
        for N in range(6):
            P0 = solve_finite_horizon(model, cost, N).P[0]
            if previous is not None:
                assert np.min(np.linalg.eigvalsh(P0 - previous)) >= -1e-9
            previous = P0


def test_reduction_to_textbook_lqr_with_zero_R():
    rng = np.random.default_rng(5)
    for _ in range(5):
        n, m = 3, 2
        A = rng.standard_normal((n, n)) * 0.4
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((n + 1, n))
        G = rng.standard_normal((n, n))
        model = SystemModel(A=A, B=B, E=rng.standard_normal((n, m)), c_o=np.eye(n))
        cost = CostSpec(Q=C.T @ C, R=np.zeros((n, n)),
                        P_terminal=G.T @ G + 0.5 * np.eye(n), r=np.zeros(n))
        N = 7
        sol = solve_finite_horizon(model, cost, N)
        gains, S0 = lqr_textbook_gains(A, B, cost.Q, np.zeros((m, m)),
                                       cost.P_terminal, N)
        for k in range(N + 1):
            assert np.max(np.abs(sol.K[k] - gains[k])) <= 1e-10
        assert np.max(np.abs(sol.P[0] - S0)) <= 1e-10


# ---------------------------------------------------------------------------
# stationary equation
# ---------------------------------------------------------------------------

def test_gare_scalar_zero_dynamics():
    g = solve_gare(scalar_model(A=0.0), scalar_cost())
    assert g.P == pytest.approx(1.0)
    assert g.M == pytest.approx(0.0)
    assert g.K == pytest.approx(0.0)
    assert g.closed_loop_radius == pytest.approx(0.0)


def test_gare_scalar_golden_ratio():
    g = solve_gare(scalar_model(), scalar_cost())
    assert abs(g.P[0, 0] - GOLDEN) <= 1e-10
    assert abs(g.K[0, 0] - GOLDEN / (1 + GOLDEN)) <= 1e-10
    assert g.closed_loop_radius == pytest.approx(1 - g.K[0, 0])
    assert g.closed_loop_radius < 1
    assert g.residual <= 1e-11


def test_gare_scalar_free_effort():
    g = solve_gare(scalar_model(), scalar_cost(R=0.0))
    assert g.P == pytest.approx(1.0)
    assert g.K == pytest.approx(1.0)
    assert g.closed_loop_radius == pytest.approx(0.0)


def test_gare_is_fixed_point():
    model = two_state_bench()
    cost = tracking_cost(model)
    g = solve_gare(model, cost)
    Upsilon = model.B.T @ (cost.R + g.P) @ model.B
    M = model.B.T @ g.P @ model.A
    mapped = cost.Q + model.A.T @ g.P @ model.A \
        - M.T @ (np.linalg.pinv(Upsilon, rcond=1e-10) @ M)
    assert np.max(np.abs(mapped - g.P)) <= 10 * 1e-12
    assert np.max(np.abs(g.Upsilon @ g.K - g.M)) <= 1e-9


BUNDLED = ["example_a", "example_b", "example_c", "example_d"]


def bundled_model_and_cost(name):
    scenario = load_scenario(bundled_scenario_path(name))
    return scenario.model, scenario.cost


def zero_terminal_cost(model, Q, R):
    n = model.n
    return CostSpec(Q=Q, R=R, P_terminal=np.zeros((n, n)), r=np.zeros(n))


def free_effort_plant():
    """Sampled plant with R = 0, so B' R B is singular and doubling is not used."""
    model = aero_engine_discrete()
    return model, zero_terminal_cost(model, np.eye(model.n), np.zeros((model.n, model.n)))


@pytest.mark.parametrize("name", BUNDLED)
def test_gare_is_the_finite_horizon_step_from_zero(name):
    # doubling returns P_0 of a pass of g.horizon steps from P = 0, in a
    # different order of operations than the backward recursion
    model, cost = bundled_model_and_cost(name)
    cost = zero_terminal_cost(model, cost.Q, cost.R)
    g = gare_fixed_point(model, cost)
    assert g.horizon == 2 ** g.iterations
    sol = solve_finite_horizon(model, cost, N=g.horizon - 1, strict=False)
    assert np.max(np.abs(sol.P[0] - g.P)) <= 1e-12 * np.max(np.abs(g.P))


def test_gare_value_iteration_is_the_finite_horizon_step_from_zero():
    # with B' R B singular each iterate is one backward step in
    # pseudo-inverse mode, so P is bit-identical to P_0 of a j-step pass
    model, cost = free_effort_plant()
    g = gare_fixed_point(model, cost)
    assert g.horizon == g.iterations > 1
    sol = solve_finite_horizon(model, cost, N=g.horizon - 1, strict=False)
    assert np.array_equal(sol.P[0], g.P)


def dare_cases():
    cases = [pytest.param(*bundled_model_and_cost(name), id=name) for name in BUNDLED]
    for n, m in ((2, 1), (8, 2), (32, 4)):
        for Ts in (0.02, 0.001):
            model = sampled_stable_plant(n, m, Ts, seed=n)
            cases.append(pytest.param(model, zero_terminal_cost(model, np.eye(n), np.eye(n)),
                                      id=f"n{n}_Ts{Ts:g}"))
    return cases


@pytest.mark.parametrize("model, cost", dare_cases())
def test_gare_matches_scipy_dare(model, cost):
    g = solve_gare(model, cost)
    B = model.B
    X = scipy.linalg.solve_discrete_are(model.A, B, cost.Q, B.T @ cost.R @ B)
    assert np.max(np.abs(g.P - X)) <= 1e-10 * np.max(np.abs(X))


def scale_cases():
    sampled = sampled_stable_plant(8, 2, 0.001, seed=8)
    return [
        pytest.param(*bundled_model_and_cost("example_c"), id="example_c"),
        pytest.param(sampled, zero_terminal_cost(sampled, np.eye(8), np.eye(8)), id="n8_Ts0.001"),
        pytest.param(*free_effort_plant(), id="free_effort"),
    ]


@pytest.mark.parametrize("model, cost", scale_cases())
def test_gare_stop_rule_ignores_weight_scale(model, cost):
    base = gare_fixed_point(model, cost)
    for c in (2.0 ** -20, 2.0 ** 20):
        scaled = gare_fixed_point(model, CostSpec(Q=c * cost.Q, R=c * cost.R,
                                                  P_terminal=c * cost.P_terminal, r=cost.r))
        assert (scaled.iterations, scaled.horizon) == (base.iterations, base.horizon)
        assert np.max(np.abs(scaled.P / c - base.P)) <= 1e-12 * np.max(np.abs(base.P))
        assert np.max(np.abs(scaled.K - base.K)) <= 1e-12 * max(1.0, np.max(np.abs(base.K)))


def test_stored_inverses_are_applied_without_pinv(monkeypatch):
    model = two_state_bench()
    cost = tracking_cost(model, r=np.array([0.5, 0.0]))
    riccati = solve_finite_horizon(model, cost, N=30, strict=False)
    gare = solve_gare(model, cost)
    calls = []
    pinv = np.linalg.pinv

    def counted(*args, **kwargs):
        calls.append(args)
        return pinv(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "pinv", counted)

    ff = solve_recursive(riccati, model, cost, np.ones((31, 1)))
    x = np.array([1.0, -0.5])
    riccati.upsilon_solve(3, ff.h[3])
    finite_horizon_control(3, x, riccati, ff)
    h, _ = solve_steady(gare, model, cost, [1.0])
    stationary_control(x, gare, h)
    assert calls == []
    assert np.array_equal(gare.Upsilon_inv, pinv(gare.Upsilon, rcond=1e-10))


def test_gare_reports_non_convergence():
    model = scalar_model(A=2.0, B=0.0)
    with pytest.raises(ConvergenceError) as info:
        solve_gare(model, scalar_cost(), max_iters=50)
    assert info.value.residual is not None and info.value.residual > 0


def test_gare_detects_non_stabilizing_solution():
    # unit-circle mode invisible to the cost: iteration settles at P = 0 but
    # the closed loop is not a contraction
    model = scalar_model(A=1.0)
    cost = scalar_cost(Q=0.0)
    with pytest.warns(UserWarning):
        with pytest.raises(StabilizationError):
            solve_gare(model, cost)


def test_gare_warns_when_not_detectable():
    model = SystemModel(A=np.diag([2.0, 0.5]), B=np.eye(2), E=np.eye(2), c_o=np.eye(2))
    cost = CostSpec(Q=np.diag([0.0, 1.0]), R=np.eye(2),
                    P_terminal=np.zeros((2, 2)), r=np.zeros(2))
    with pytest.warns(UserWarning, match="not detectable"):
        with pytest.raises(StabilizationError):
            solve_gare(model, cost)


def test_gare_rejects_bad_tol():
    with pytest.raises(ValueError):
        solve_gare(scalar_model(), scalar_cost(), tol=0.0)


# ---------------------------------------------------------------------------
# regular condition
# ---------------------------------------------------------------------------

def test_check_regularity_identity():
    rng = np.random.default_rng(0)
    assert check_regularity(np.eye(3), rng.standard_normal((3, 4)), tol=1e-9)


def test_check_regularity_range_test():
    Upsilon = np.diag([1.0, 0.0])
    assert not check_regularity(Upsilon, np.array([[1.0, 0.0], [0.0, 1.0]]), tol=1e-9)
    assert check_regularity(Upsilon, np.array([[1.0, 0.0], [0.0, 0.0]]), tol=1e-9)


def test_check_regularity_needs_positive_tol():
    with pytest.raises(ValueError):
        check_regularity(np.eye(2), np.eye(2), tol=0.0)


def test_spectral_radius():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)
