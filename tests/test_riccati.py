import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import scipy.linalg
from scipy.linalg.lapack import dsyevd

import lqdr.model
import lqdr.riccati
from conftest import (check_regularity, free_effort_plant, gram_blocks, kalman_decomposed_plant,
                      kept_span_problem, long_horizon_cases, lqr_textbook_gains,
                      reference_backward_step, reference_finite_horizon, reference_gram_step,
                      rel_close, repeated_column_problem, sampled_stable_plant,
                      singular_doubling_plant, stationary_control, step_blocks, tracking_cost,
                      two_state_bench, uncontrollable_3state)
from lqdr import (ControllerConfig, ConvergenceError, CostSpec, DisturbanceProfile, LqdrError,
                  RegularityError, SolvabilityError, StabilizationError, SystemModel,
                  build_controller, draw_instance, finite_horizon_control, solve_finite_horizon,
                  solve_gare, solve_recursive, solve_steady, spectral_radius, validate)
from lqdr.cli import bundled_scenario_path, load_scenario

GOLDEN = (1 + np.sqrt(5)) / 2


def scalar_model(A=1.0, B=1.0, E=1.0):
    return SystemModel(A=[[A]], B=[[B]], E=[[E]], c_o=[[1.0]])


def scalar_cost(Q=1.0, R=1.0, P_terminal=0.0, r=0.0):
    return CostSpec(Q=[[Q]], R=[[R]], P_terminal=[[P_terminal]], r=[r])


def jordan_plant(Q):
    """(model, cost): A = blockdiag([[1, 1], [0, 1]], 0.5), B = 0, the given Q, R = I."""
    A = np.zeros((3, 3))
    A[:2, :2] = [[1.0, 1.0], [0.0, 1.0]]
    A[2, 2] = 0.5
    model = SystemModel(A=A, B=np.zeros((3, 1)), E=np.zeros((3, 1)), c_o=np.eye(3))
    return model, CostSpec(Q=Q, R=np.eye(3), P_terminal=np.zeros((3, 3)), r=np.zeros(3))


def carried_mode_plant(R):
    """(model, cost): a unit mode no input reaches, carried only by unweighted states.

    A = [[1, 1, 1], [0, 1, 0], [0, 0, 0]], B = e3, Q = diag(0, 0, 1): the
    unreached e2 moves e1, which is reached, and Q weights neither, so P_0
    of every horizon is diag(0, 0, 1).
    """
    model = SystemModel(A=[[1.0, 1.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
                        B=[[0.0], [0.0], [1.0]], E=np.zeros((3, 1)), c_o=np.eye(3))
    return model, CostSpec(Q=np.diag([0.0, 0.0, 1.0]), R=R, P_terminal=np.zeros((3, 3)),
                           r=np.zeros(3))


def doubling_growth_plant():
    """(model, cost): A = [[1, 0], [1, 2]], B = [[0], [0.5]], Q = diag(0, 1), B'RB = 5/16."""
    model = SystemModel(A=[[1.0, 0.0], [1.0, 2.0]], B=[[0.0], [0.5]],
                        E=np.zeros((2, 1)), c_o=np.eye(2))
    return model, CostSpec(Q=np.diag([0.0, 1.0]), R=[[4.0, -2.0], [-2.0, 1.25]],
                           P_terminal=np.zeros((2, 2)), r=np.zeros(2))


# ---------------------------------------------------------------------------
# finite horizon
# ---------------------------------------------------------------------------

def test_single_step_zero_terminal():
    model, cost = scalar_model(), scalar_cost(P_terminal=0.0)
    sol = solve_finite_horizon(model, cost, N=0)
    Upsilon, M = step_blocks(model, cost, sol.P[1])
    assert Upsilon == pytest.approx(1.0) and sol.Upsilon_inv[0] == pytest.approx(1.0)
    assert M == pytest.approx(0.0)
    assert sol.P[0] == pytest.approx(1.0)
    assert sol.K[0] == pytest.approx(0.0)


def test_single_step_hand_values():
    model, cost = scalar_model(A=2.0), scalar_cost(R=0.0, P_terminal=1.0)
    sol = solve_finite_horizon(model, cost, N=0)
    Upsilon, M = step_blocks(model, cost, sol.P[1])
    assert Upsilon == pytest.approx(1.0) and sol.Upsilon_inv[0] == pytest.approx(1.0)
    assert M == pytest.approx(2.0)
    assert sol.P[0] == pytest.approx(1.0)
    assert sol.K[0] == pytest.approx(2.0)


def test_bench_horizon_100_is_strictly_solvable():
    model = uncontrollable_3state()
    cost = tracking_cost(model)
    sol = solve_finite_horizon(model, cost, N=100)
    for k in range(101):
        # the gain solves Upsilon_k K_k = M_k, both rebuilt from P_{k+1}
        Upsilon = model.B.T @ (cost.R + sol.P[k + 1]) @ model.B
        M = model.B.T @ sol.P[k + 1] @ model.A
        assert np.min(np.linalg.eigvalsh(Upsilon)) > 0 and sol.Upsilon_eig[k, 0] > 0
        assert np.max(np.abs(Upsilon @ sol.K[k] - M)) <= 1e-9
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
    Upsilon, M = step_blocks(model, cost, sol.P[1:])
    for k in range(4):
        assert np.max(np.abs(Upsilon[k] @ sol.K[k] - M[k])) <= 1e-9


def test_non_strict_rejects_inconsistent_problem():
    # R = -P_terminal makes Upsilon_N = 0 while M_N != 0; with semidefinite
    # weights this cannot happen, so an indefinite R is used on purpose.
    model = scalar_model()
    cost = scalar_cost(Q=1.0, R=-1.0, P_terminal=1.0)
    with pytest.raises(RegularityError) as info:
        solve_finite_horizon(model, cost, N=0, strict=False)
    assert info.value.step == 0


def test_non_strict_refuses_an_inconsistency_fifty_steps_from_the_terminal():
    # A cycles the 51 states; B and R act on x_1, P_T = -e_51 e_51'.  The
    # terminal weight walks one state back a step, so M_k = 0 and Upsilon_k = 1
    # until it reaches x_1, 50 steps back: there Upsilon_k = R - 1 = 0 while
    # M_k = -e_51', and u_k, linear in the cost, has no minimum.  A bound
    # compounded over the steps, by ||A||_F^2 = 51 a step, would accept it
    L, N = 51, 60
    model = SystemModel(A=np.roll(np.eye(L), 1, axis=0), B=np.eye(L)[:, :1],
                        E=np.zeros((L, 1)), c_o=np.eye(L)[:1])
    cost = CostSpec(Q=np.zeros((L, L)), R=np.diag(np.eye(L)[0]),
                    P_terminal=-np.diag(np.eye(L)[-1]), r=np.zeros(L))
    with pytest.raises(RegularityError, match="^pseudo-inverse solve inconsistent at "
                                              "step 10 ") as info:
        solve_finite_horizon(model, cost, N, strict=False)
    assert (info.value.step, info.value.residual) == (N + 1 - L, 1.0)
    # one step fewer leaves the weight short of x_1: nothing is dropped
    sol = solve_finite_horizon(model, cost, L - 2, strict=False)
    assert (sol.Upsilon_eig == 1.0).all()


def test_non_strict_refuses_an_indefinite_upsilon():
    # Upsilon_0 = R + P_T = -1: the stage cost 1.25 + u - u^2 is concave in u,
    # so the pseudo-inverse's input maximizes it; both modes refuse step 0
    model = scalar_model(A=0.5, E=0.0)
    cost = scalar_cost(Q=1.0, R=-2.0, P_terminal=1.0)
    for strict, why in ((True, "not positive definite"), (False, "indefinite")):
        with pytest.raises(SolvabilityError, match=f"^Upsilon_0 is {why}") as info:
            solve_finite_horizon(model, cost, 0, strict=strict)
        assert (info.value.step, info.value.min_eigenvalue) == (0, -1.0)
    config = ControllerConfig(kind="finite_horizon", strict=False)
    with pytest.raises(SolvabilityError, match="indefinite"):
        build_controller(config, model, cost, DisturbanceProfile.constant(0.0), 1)
    # value iteration meets Upsilon = R = -2 at once, where it ran 100000 steps
    with pytest.raises(ConvergenceError, match=r"^stationary iteration stopped: the step "
                                               r"from iterate 0 meets an indefinite Upsilon"):
        solve_gare(model, cost)


@pytest.mark.parametrize("r2, refused", [(-1e-12, False), (-1e-9, True), (-2.0, True)])
def test_non_strict_refuses_a_negative_eigenvalue_beyond_the_cutoff(r2, refused):
    # Upsilon = R = diag(1, r2) with P_T = 0: an eigenvalue of modulus at most
    # PINV_RCOND times the largest is dropped as zero, a more negative one refused
    model = SystemModel(A=0.5 * np.eye(2), B=np.eye(2), E=np.zeros((2, 2)), c_o=np.eye(2))
    cost = CostSpec(Q=np.eye(2), R=np.diag([1.0, r2]), P_terminal=np.zeros((2, 2)),
                    r=np.zeros(2))
    if refused:
        with pytest.raises(SolvabilityError, match="^Upsilon_3 is indefinite") as info:
            solve_finite_horizon(model, cost, 3, strict=False)
        assert (info.value.step, info.value.min_eigenvalue) == (3, r2)
        return
    sol = solve_finite_horizon(model, cost, 3, strict=False)
    assert sol.Upsilon_inv[3].tolist() == [[1.0, 0.0], [0.0, 0.0]]


def diverging_pass_cases():
    # P_k[0, 0] = (4^(N + 2 - k) - 1) / 3 on the unreached mode at 2, weighted
    # by Q: it overflows at P_89 from N = 600, and the next step judged NaNs
    unreached = SystemModel(A=np.diag([2.0, 0.5]), B=[[0.0], [1.0]], E=np.zeros((2, 1)),
                            c_o=np.eye(2))
    unreached_cost = CostSpec(Q=np.eye(2), R=np.eye(2), P_terminal=np.eye(2), r=np.zeros(2))
    # P_0 = Q at every horizon, yet rounding grows without bound in pseudo-inverse
    # mode; at N = 599 an eigendecomposition failed to converge after overflows
    c = np.array([[1.0, -0.5]])
    rounding = SystemModel(A=np.diag([0.0, -2.0]), B=[[-2.0, 0.0, 2.0], [0.0, 0.0, 0.0]],
                           E=np.zeros((2, 3)), c_o=np.eye(2))
    rounding_cost = CostSpec(Q=c.T @ c, R=np.zeros((2, 2)), P_terminal=np.zeros((2, 2)),
                             r=np.zeros(2))
    # the last P computed overflows: only the check after the loop sees it
    last = scalar_model(A=2.0, B=0.0)
    return [pytest.param(unreached, unreached_cost, 600, True, 88, id="unreached_strict"),
            pytest.param(unreached, unreached_cost, 600, False, 88, id="unreached_pinv"),
            pytest.param(rounding, rounding_cost, 599, False, None, id="rounding_pinv"),
            pytest.param(last, scalar_cost(), 512, False, 0, id="last_step_pinv")]


@pytest.mark.parametrize("model, cost, N, strict, step", diverging_pass_cases())
def test_a_diverging_pass_is_refused_by_its_mode_at_the_step(model, cost, N, strict, step):
    error = SolvabilityError if strict else RegularityError
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error) as info:
            solve_finite_horizon(model, cost, N, strict=strict)
    found = re.fullmatch(r"the backward pass diverged at step (\d+): P_(\d+) is not finite",
                         str(info.value))
    assert type(info.value) is error and found
    assert info.value.step == int(found[1]) and int(found[2]) - int(found[1]) in (0, 1)
    assert step is None or info.value.step == step


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
    # once P_k repeats a later P_j bit for bit the earlier steps are copies of
    # steps k..j-1, so every array must equal the pass that computes each step
    sol = solve_finite_horizon(model, cost, N, strict=strict)
    expected = reference_finite_horizon(model, cost, N, strict=strict)
    for got, want in zip((sol.Upsilon_eig, sol.Upsilon_inv, sol.K, sol.P, sol.Upsilon_dropped),
                         expected, strict=True):
        assert got.tobytes() == want.tobytes()


def repeat_stop_cases():
    scenario = load_scenario(bundled_scenario_path("example_b"))
    cases = [pytest.param(scenario.model, scenario.cost, 999, id="example_b")]
    for case_id, model, cost, steps, _ in long_horizon_cases():
        if case_id in ("n2_Ts0.02", "n8_Ts0.02"):
            cases.append(pytest.param(model, cost, steps - 1, id=case_id))
    return cases


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "pinv"])
@pytest.mark.parametrize("model, cost, N", repeat_stop_cases())
def test_backward_pass_stops_at_the_first_repeated_p(monkeypatch, model, cost, N, strict):
    # example_b reaches P_k == P_{k+1}; the two sampled plants settle into a
    # rounding cycle instead, and stop where P_k first equals a later P_j
    expected = reference_finite_horizon(model, cost, N, strict=strict)
    P = expected[3]
    later = {}
    first = next(k for k in range(N + 1, -1, -1) if later.setdefault(P[k].tobytes(), k) != k)
    assert first > 0
    calls = []
    step = lqdr.riccati._backward_step

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return step(*args, **kwargs)

    monkeypatch.setattr(lqdr.riccati, "_backward_step", counted)
    sol = solve_finite_horizon(model, cost, N, strict=strict)
    assert calls == list(range(N, first - 1, -1))
    assert np.array_equal(sol.P, P)
    assert sol.Upsilon_dropped.tobytes() == expected[4].tobytes()


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
    model, cost = scalar_model(A=0.0), scalar_cost()
    g = solve_gare(model, cost)
    assert g.P == pytest.approx(1.0)
    assert step_blocks(model, cost, g.P)[1] == pytest.approx(0.0)
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
    assert np.max(np.abs(Upsilon @ g.K - M)) <= 1e-9


BUNDLED = ["example_a", "example_b", "example_c", "example_d"]


def bundled_model_and_cost(name):
    scenario = load_scenario(bundled_scenario_path(name))
    return scenario.model, scenario.cost


def zero_terminal_cost(model, Q, R):
    n = model.n
    return CostSpec(Q=Q, R=R, P_terminal=np.zeros((n, n)), r=np.zeros(n))


@pytest.mark.parametrize("name", BUNDLED)
def test_gare_is_the_finite_horizon_step_from_zero(name):
    # doubling returns P_0 of a pass of g.horizon steps from P = 0, in a
    # different order of operations than the backward recursion
    model, cost = bundled_model_and_cost(name)
    cost = zero_terminal_cost(model, cost.Q, cost.R)
    g = solve_gare(model, cost)
    assert g.horizon == 2 ** g.iterations
    sol = solve_finite_horizon(model, cost, N=g.horizon - 1, strict=False)
    assert np.max(np.abs(sol.P[0] - g.P)) <= 1e-12 * np.max(np.abs(g.P))


def test_gare_value_iteration_is_the_finite_horizon_step_from_zero():
    # with B' R B singular each iterate is one backward step in
    # pseudo-inverse mode, so P is bit-identical to P_0 of a j-step pass
    model, cost = free_effort_plant()
    g = solve_gare(model, cost)
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
    base = solve_gare(model, cost)
    for c in (2.0 ** -20, 2.0 ** 20):
        scaled = solve_gare(model, CostSpec(Q=c * cost.Q, R=c * cost.R,
                                            P_terminal=c * cost.P_terminal, r=cost.r))
        assert (scaled.iterations, scaled.horizon) == (base.iterations, base.horizon)
        assert np.max(np.abs(scaled.P / c - base.P)) <= 1e-12 * np.max(np.abs(base.P))
        assert np.max(np.abs(scaled.K - base.K)) <= 1e-12 * max(1.0, np.max(np.abs(base.K)))


def test_scalar_plant_keeps_the_signed_zeros_of_matmul():
    # Upsilon = R = -2 with M = 0 was inverted as -0.5 in pseudo-inverse mode,
    # where K = -0.5 * 0 needed the +0.0 of the sum behind @; a negative
    # Upsilon has no minimizing input, so the pass now refuses it instead
    model = scalar_model(A=0.5)
    with pytest.raises(SolvabilityError, match=r"^Upsilon_0 is indefinite \(min eigenvalue "
                                               r"-2\.000e\+00") as info:
        solve_finite_horizon(model, scalar_cost(R=-2.0), 0, strict=False)
    assert (info.value.step, info.value.min_eigenvalue) == (0, -2.0)


def rank_one_weight_plant(seed):
    """A = 0.5 I with random 3 x 1 B and E, Q = P_T = v v' for a random v, R = I."""
    rng = np.random.default_rng(seed)
    model = SystemModel(A=0.5 * np.eye(3), B=rng.standard_normal((3, 1)),
                        E=rng.standard_normal((3, 1)), c_o=np.eye(3)[:1])
    v = rng.standard_normal(3)
    Q = np.outer(v, v)
    return model, CostSpec(Q=Q, R=np.eye(3), P_terminal=Q, r=np.zeros(3))


@pytest.mark.parametrize("seed", range(40))
def test_gare_semidefinite_limit_is_accepted_at_every_weight_scale(seed):
    # the limit of a rank-one Q is semidefinite, with a smallest eigenvalue
    # at roundoff level of the largest; an absolute floor refused it at 2^40
    model, cost = rank_one_weight_plant(seed)
    for c in (2.0 ** -40, 1.0, 2.0 ** 40):
        g = solve_gare(model, CostSpec(Q=c * cost.Q, R=c * cost.R,
                                       P_terminal=c * cost.P_terminal, r=cost.r))
        eigs = np.linalg.eigvalsh(g.P)
        assert eigs[0] >= -1e-10 * np.max(np.abs(eigs))


def test_gare_indefinite_limit_is_refused_at_every_weight_scale():
    # the second state is untouched by B, so its P entry is -1 / (1 - 0.25)
    model = SystemModel(A=0.5 * np.eye(2), B=[[1.0], [0.0]], E=[[0.0], [1.0]],
                        c_o=[[1.0, 0.0]])
    for c in (2.0 ** -40, 1.0, 2.0 ** 40):
        cost = CostSpec(Q=c * np.diag([1.0, -1.0]), R=c * np.eye(2),
                        P_terminal=np.zeros((2, 2)), r=np.zeros(2))
        with pytest.raises(ConvergenceError, match="semidefiniteness"):
            solve_gare(model, cost)


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
    finite_horizon_control(3, x, riccati, ff)
    h, _ = solve_steady(gare, model, cost, [1.0])
    stationary_control(x, gare, h)
    assert calls == []
    assert np.array_equal(gare.Upsilon_inv, pinv(step_blocks(model, cost, gare.P)[0],
                                                 rcond=1e-10))


def test_gare_reports_non_convergence():
    model = scalar_model(A=2.0, B=0.0)
    with pytest.raises(ConvergenceError) as info:
        solve_gare(model, scalar_cost(), max_iters=50)
    assert info.value.residual is not None and info.value.residual > 0


@pytest.mark.parametrize("A, B, Q", [
    ([[1.0]], [[0.0]], [[1.0]]),
    ([[-1.0]], [[0.0]], [[1.0]]),
    # the first state is reached, the second (eigenvalue 1) is not and is
    # weighted whatever the first does
    ([[0.5, 1.0], [0.0, 1.0]], [[1.0], [0.0]], [[1.0, 0.0], [0.0, 1.0]]),
], ids=["unit", "minus_unit", "unreached_unit_mode"])
def test_gare_refuses_unbounded_growth_early(A, B, Q):
    # B' R B = 0 keeps value iteration, where P grows by at least Q's share
    # of the unreached mode per step; it used to run all 100000 steps
    n = len(A)
    model = SystemModel(A=A, B=B, E=np.zeros((n, 1)), c_o=np.eye(n)[:1])
    cost = CostSpec(Q=Q, R=np.zeros((n, n)) if n > 1 else [[1.0]],
                    P_terminal=np.zeros((n, n)), r=np.zeros(n))
    with pytest.raises(ConvergenceError, match="grows without bound") as info:
        solve_gare(model, cost)
    assert info.value.iterations <= 1000
    assert info.value.residual > 0


def test_gare_refuses_unbounded_growth_in_doubling_mode():
    # B' R B = 5/16 keeps doubling.  The unreached first state is constant,
    # and keeping it off the weighted second costs input at every step, so P
    # grows like the horizon; it used to run all 100000 doublings
    model, cost = doubling_growth_plant()
    with pytest.raises(ConvergenceError, match=r"grows without bound \(still moving") as info:
        solve_gare(model, cost)
    assert info.value.iterations <= 100
    assert info.value.residual > 0


# kalman_decomposed_plant seeds with an unreached |s| > 1 that the Krylov
# certificate missed: it took rounding-level components as reachable
@pytest.mark.parametrize("seed", [59, 95, 120, 206, 220, 229, 236, 268, 317, 448, 505, 842])
def test_gare_names_the_growth_of_every_unstable_uncontrollable_mode(seed):
    model, cost, s, _ = kalman_decomposed_plant(np.random.default_rng(seed))
    assert np.any(np.abs(s) > 1.0)
    with pytest.raises(ConvergenceError, match="^stationary iteration grows without bound"):
        solve_gare(model, cost)


def test_gare_refuses_a_jordan_block_that_drives_a_weighted_state_at_once():
    # x2 is constant and weighted, so P_0 of an N-step pass is N + 1 in that
    # entry.  The block's one right eigenvector, e1, is not weighted, but its
    # left eigenvector e2 is; it used to run all 100000 steps ("still moving")
    model, cost = jordan_plant(np.diag([0.0, 1.0, 0.0]))
    with pytest.warns(UserWarning, match="not detectable"), \
            pytest.raises(ConvergenceError, match="^stationary iteration grows without bound "
                          r"\(before the first value-iteration step\)") as info:
        solve_gare(model, cost)
    assert info.value.iterations == 0


def test_gare_refuses_the_doubling_limit_of_a_linearly_growing_plant():
    # x1 is constant and unreached, and holding x3 = -2 x1 off the weight
    # (2 x1 + x3)^2 costs input at every step (B'RB is definite), so P_0 of
    # an N-step pass grows like N (12,486 at N = 1000, 37,486 at N = 3000).
    # Doubling stopped at horizon 2^58 and its "limit", P[0, 0] = 8.6e16 with
    # rho(A - B K) = 1, used to be returned
    model = SystemModel(A=[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-1.0, -2.0, 1.0]],
                        B=[[0.0, 0.0], [-2.0, 0.0], [1.0, 1.0]], E=np.zeros((3, 2)),
                        c_o=np.eye(3))
    cost = CostSpec(Q=[[4.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 1.0]],
                    R=[[0.0, 0.0, 0.0], [0.0, 4.0, -4.0], [0.0, -4.0, 5.0]],
                    P_terminal=np.zeros((3, 3)), r=np.zeros(3))
    with pytest.raises(ConvergenceError, match=r"^stationary iteration grows without bound "
                       r"\(the limit's closed loop has rho\(A - B K\) = 1\.000000 >= 1\)"):
        solve_gare(model, cost)


def test_a_jordan_block_is_certified_after_a_change_of_basis():
    # jordan_plant's weighted block mapped by T: the computed pair lands
    # 1.3e-9 to 1.0e-7 from 1, where the rank test at either value may pass,
    # but the pair's mean is accurate to O(eps).  Tested at each computed
    # eigenvalue alone, 87 of these were certified and 228 called detectable
    rng = np.random.default_rng(0)
    base, _ = jordan_plant(np.diag([0.0, 1.0, 0.0]))
    verdicts = set()
    for _ in range(300):
        T = rng.standard_normal((3, 3))
        while np.linalg.cond(T) > 50:
            T = rng.standard_normal((3, 3))
        T_inv = np.linalg.inv(T)
        A, Q = T @ base.A @ T_inv, T_inv.T @ np.diag([0.0, 1.0, 0.0]) @ T_inv
        verdicts.add((lqdr.model.check_detectability(A, Q),
                      lqdr.riccati._grows_without_bound(A, np.zeros((3, 1)), Q,
                                                        np.zeros((1, 1)))))
    assert verdicts == {(False, True)}


@pytest.mark.parametrize("model, cost", [
    jordan_plant(np.diag([0.0, 0.0, 1.0])),
    carried_mode_plant(np.zeros((3, 3))),
    carried_mode_plant(np.eye(3)),
], ids=["jordan_stable_weight", "carried_mode_R0", "carried_mode_RI"])
def test_gare_keeps_a_bounded_limit_with_a_unit_mode(model, cost):
    # a unit-circle mode that no input reaches, but that only unweighted
    # states carry (V*) or that the weight never sees: P_0 stays bounded
    with pytest.warns(UserWarning, match="not detectable"):
        g = solve_gare(model, cost)
    assert g.closed_loop_radius == 1.0
    assert np.isfinite(g.P).all()


# name: ((model, cost), (detectable, grows))
_SCALED_PLANTS = {
    "jordan": (jordan_plant(np.diag([0.0, 1.0, 0.0])), (False, True)),
    "jordan_first_weight": (jordan_plant(np.diag([1.0, 0.0, 0.0])), (True, True)),
    "jordan_stable_weight": (jordan_plant(np.diag([0.0, 0.0, 1.0])), (False, False)),
    "carried_mode_R0": (carried_mode_plant(np.zeros((3, 3))), (False, False)),
    "carried_mode_RI": (carried_mode_plant(np.eye(3)), (False, False)),
    "doubling_growth": (doubling_growth_plant(), (True, True)),
    "singular_doubling": (singular_doubling_plant(), (True, True)),
}


def _verdicts_at_scales(model, cost):
    """(detectable, grows) with Q and R scaled by each 2^k, k in {-60, -40, 0, 40, 60}."""
    verdicts = set()
    for k in (-60, -40, 0, 40, 60):
        Q, R = 2.0 ** k * cost.Q, 2.0 ** k * cost.R
        verdicts.add((lqdr.model.check_detectability(model.A, Q),
                      lqdr.riccati._grows_without_bound(model.A, model.B, Q,
                                                        model.B.T @ R @ model.B)))
    return verdicts


@pytest.mark.parametrize("name", sorted(_SCALED_PLANTS))
def test_growth_and_detectability_verdicts_are_scale_free(name):
    plant, verdicts = _SCALED_PLANTS[name]
    assert _verdicts_at_scales(*plant) == {verdicts}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_growth_and_detectability_verdicts_are_scale_free_on_kalman_plants(seed):
    model, cost, s, _ = kalman_decomposed_plant(np.random.default_rng(seed))
    assert _verdicts_at_scales(model, cost) == {(True, bool(np.any(np.abs(s) > 1.0)))}


@pytest.mark.parametrize("a", [0.1, 0.5, 1.0])
def test_gare_certifies_a_unit_circle_mode_computed_inside_the_circle(a):
    # det A = 1 and |a| < 2: both modes have modulus 1 exactly, and the
    # computed modulus is a rounding below it.  B = 0 leaves them unreached
    A = np.array([[a, 1.0], [-1.0, 0.0]])
    assert np.max(np.abs(np.linalg.eig(A).eigenvalues)) < 1.0
    model = SystemModel(A=A, B=np.zeros((2, 1)), E=np.zeros((2, 1)), c_o=np.eye(2))
    cost = CostSpec(Q=np.eye(2), R=np.eye(2), P_terminal=np.zeros((2, 2)), r=np.zeros(2))
    with pytest.raises(ConvergenceError, match="grows without bound") as info:
        solve_gare(model, cost)
    # value iteration asks the certificate before its first step
    assert info.value.iterations == 0


def test_gare_refuses_a_singular_doubling_step_as_unbounded_growth():
    # I + G_k H_k turns singular at doubling step 8; np.linalg.solve used to
    # raise its LinAlgError out of solve_gare
    model, cost = singular_doubling_plant()
    with pytest.raises(LqdrError) as info:
        solve_gare(model, cost)
    assert type(info.value) is ConvergenceError
    assert str(info.value) == (
        "stationary iteration grows without bound (the solve of doubling step 8 is "
        "singular): a mode no input reaches has |eigenvalue| >= 1 and is weighted by Q")
    assert info.value.iterations == 7 and info.value.residual > 0


def test_gare_refuses_an_overflowing_doubling_without_a_floating_point_warning():
    # the reached mode at 2 costs nothing, so no input damps it and A_k =
    # A^(2^k) overflows at the tenth doubling; numpy's RuntimeWarning used to
    # escape from the solve before its refusal
    model = SystemModel(A=np.diag([2.0, 1.0]), B=[[1.0], [0.0]], E=np.zeros((2, 1)),
                        c_o=[[0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", UserWarning)
        with pytest.raises(ConvergenceError, match=r"^stationary iteration grows without "
                           r"bound \(iterate \d+ is not finite\)"):
            solve_gare(model, tracking_cost(model))


def test_gare_refuses_a_singular_doubling_step_without_a_growth_certificate(monkeypatch):
    monkeypatch.setattr(lqdr.riccati, "_grows_without_bound", lambda *args: False)
    with pytest.raises(ConvergenceError, match="^stationary iteration stopped: the solve "
                       "of doubling step 8 is singular$"):
        solve_gare(*singular_doubling_plant())


def test_gare_growth_check_keeps_a_slow_value_iteration(monkeypatch):
    # an unreached mode at 0.99 is bounded: the check, run once before the
    # first step, finds no certificate and the iteration goes on
    certificate, verdicts = lqdr.riccati._grows_without_bound, []

    def counted(*args):
        verdicts.append(certificate(*args))
        return verdicts[-1]

    monkeypatch.setattr(lqdr.riccati, "_grows_without_bound", counted)
    model = scalar_model(A=0.99, B=0.0)
    g = solve_gare(model, scalar_cost())
    assert verdicts == [False] and g.iterations > 1000
    sol = solve_finite_horizon(model, scalar_cost(), N=g.horizon - 1, strict=False)
    assert np.array_equal(sol.P[0], g.P)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_gare_accepts_exactly_the_plants_whose_uncontrollable_modes_are_stable(seed):
    # the paper's setting: no input moves an uncontrollable mode, and Q = I
    # sees every mode, so a stationary law exists exactly when each |s| < 1
    model, cost, s, cond = kalman_decomposed_plant(np.random.default_rng(seed))
    if np.any(np.abs(s) > 1.0):
        with pytest.raises(LqdrError) as info:
            solve_gare(model, cost)
        # a plant that grows says so, whichever step refused it
        assert "grows without bound" in str(info.value)
        return
    closed = model.A - model.B @ solve_gare(model, cost).K
    # each s is an eigenvalue of the computed A - B K up to a backward error
    # of 4 eps cond(T) ||A - B K||; 20,000 seeded draws reached 1.36.  The
    # distance to the nearest computed eigenvalue is no fit: a closed-loop
    # eigenvalue near s magnifies it (10^4 eps cond(T) in the same draws)
    for mode in s:
        sigma_min = np.linalg.svd(closed - mode * np.eye(model.n), compute_uv=False)[-1]
        assert sigma_min <= 4 * np.finfo(float).eps * cond * np.linalg.norm(closed, 2)


def assert_returned_but_refused_by_the_law(model, cost, radius):
    """``solve_gare`` returns a limit with rho(A - B K) = ``radius`` >= 1, and
    ``solve_steady`` and the stationary law each refuse it."""
    with pytest.warns(UserWarning, match="not detectable"):
        g = solve_gare(model, cost)
    assert g.closed_loop_radius == radius
    with pytest.raises(StabilizationError) as info:
        solve_steady(g, model, cost, np.ones(model.m))
    assert info.value.spectral_radius == radius
    with pytest.warns(UserWarning, match="not detectable"), pytest.raises(StabilizationError):
        build_controller(ControllerConfig(kind="Stationary"), model, cost,
                         DisturbanceProfile.constant(1.0, dim=model.m), 10)


def test_gare_detects_non_stabilizing_solution():
    # unit-circle mode invisible to the cost: iteration settles at P = 0 but
    # the closed loop is not a contraction
    assert_returned_but_refused_by_the_law(scalar_model(A=1.0), scalar_cost(Q=0.0), 1.0)


def test_gare_warns_when_not_detectable():
    model = SystemModel(A=np.diag([2.0, 0.5]), B=np.eye(2), E=np.eye(2), c_o=np.eye(2))
    cost = CostSpec(Q=np.diag([0.0, 1.0]), R=np.eye(2),
                    P_terminal=np.zeros((2, 2)), r=np.zeros(2))
    assert_returned_but_refused_by_the_law(model, cost, 2.0)


def test_gare_detectability_warning_names_the_calling_file():
    with pytest.warns(UserWarning, match="not detectable") as record:
        solve_gare(scalar_model(A=1.0), scalar_cost(Q=0.0))
    assert [Path(w.filename) for w in record] == [Path(__file__)]


def test_gare_rejects_bad_tol():
    with pytest.raises(ValueError):
        solve_gare(scalar_model(), scalar_cost(), tol=0.0)


def _skewed_cost(name, skew, scale):
    """Weights ``scale`` I, with ``skew * scale`` added to entry (0, 1) of weight ``name``."""
    weights = {w: scale * np.eye(2) for w in ("Q", "R", "P_terminal")}
    weights[name] = weights[name] + [[0.0, skew * scale], [0.0, 0.0]]
    return CostSpec(r=np.zeros(2), **weights)


_SKEW_PLANT = SystemModel(A=[[0.9, 0.1], [0.0, 0.8]], B=[[0.0], [1.0]], E=[[1.0], [0.0]],
                          c_o=np.eye(2))


@pytest.mark.parametrize("scale", [2.0 ** -40, 1.0, 2.0 ** 40])
@pytest.mark.parametrize("skew", [1e-11, 5.0])
@pytest.mark.parametrize("name", ["Q", "R", "P_terminal"])
def test_solvers_refuse_an_asymmetric_weight_by_name(name, skew, scale):
    # a solve reads only the symmetric part, which poses another problem
    cost = _skewed_cost(name, skew, scale)
    assert validate(_SKEW_PLANT, cost).psd_flags[name] is False
    with pytest.raises(ValueError, match=f"^{name} is not symmetric to 1e-12 relative$"):
        solve_finite_horizon(_SKEW_PLANT, cost, 5)
    if name == "P_terminal":
        # the stationary solve never reads the terminal weight
        solve_gare(_SKEW_PLANT, cost)
    else:
        with pytest.raises(ValueError, match=f"^{name} is not symmetric"):
            solve_gare(_SKEW_PLANT, cost)


@pytest.mark.parametrize("scale", [2.0 ** -40, 1.0, 2.0 ** 40])
@pytest.mark.parametrize("name", ["Q", "R", "P_terminal"])
def test_solvers_accept_a_weight_symmetric_to_the_tolerance(name, scale):
    cost = _skewed_cost(name, 1e-13, scale)
    assert validate(_SKEW_PLANT, cost).psd_flags[name] is True
    solve_finite_horizon(_SKEW_PLANT, cost, 5)
    solve_gare(_SKEW_PLANT, cost)


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


def test_check_regularity_refuses_a_non_symmetric_upsilon():
    with pytest.raises(ValueError, match="symmetric"):
        check_regularity(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2), tol=1e-9)


_EIGH_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, np.nan, np.inf, -np.inf]),
    st.floats(-1e6, 1e6))


@st.composite
def _symmetric_matrices(draw):
    """m x m symmetric, m = 1..6, entries often 0, +-1, 0.5, 2, NaN or +-inf;
    sometimes a non-contiguous view, as Upsilon is in a backward step."""
    m = draw(st.integers(1, 6))
    upper = np.triu_indices(m)
    values = draw(st.lists(_EIGH_ENTRIES, min_size=len(upper[0]), max_size=len(upper[0])))
    S = np.zeros((m, m))
    S[upper] = values
    S[upper[::-1]] = values
    if draw(st.booleans()):
        H = np.full((m + 2, m + 2), 7.0)
        H[2:, 2:] = S
        S = H[2:, 2:]
    return S


@settings(max_examples=400, deadline=None)
@given(Upsilon=_symmetric_matrices())
def test_eigh_is_the_bytes_of_lapack_dsyevd(Upsilon):
    w_ref, V_ref, info = dsyevd(Upsilon)
    if info:
        # LAPACK did not converge (a NaN reached the iteration): refused
        with pytest.raises(np.linalg.LinAlgError):
            lqdr.riccati._eigh(Upsilon)
        return
    w, V = lqdr.riccati._eigh(Upsilon)
    assert w.dtype == V.dtype == np.float64
    assert w.shape == w_ref.shape and V.shape == V_ref.shape
    assert w.tobytes() == w_ref.tobytes()
    assert V.tobytes() == V_ref.tobytes()


def test_spectral_radius():
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)


# ---------------------------------------------------------------------------
# the backward-step kernel
# ---------------------------------------------------------------------------

def singular_upsilon_problem():
    """The second input channel has B = 0: every Upsilon_k is singular but consistent."""
    model = SystemModel(A=np.eye(2), B=[[1.0, 0.0], [0.0, 0.0]],
                        E=np.zeros((2, 2)), c_o=np.eye(2))
    return model, CostSpec(Q=np.eye(2), R=np.eye(2), P_terminal=np.eye(2), r=np.zeros(2))


def inconsistent_problem():
    """R = -P_terminal: Upsilon_N = 0 while M_N != 0."""
    return scalar_model(), scalar_cost(Q=1.0, R=-1.0, P_terminal=1.0)


def drawn_instances(count, seed=2024):
    rng = np.random.default_rng(seed)
    return [draw_instance(rng) for _ in range(count)]


def outcome(solve):
    """``solve()``, or the (type, step) of the solver error it raises."""
    try:
        return solve()
    except (SolvabilityError, RegularityError) as exc:
        return type(exc), exc.step


def reference_pass_outcome(model, cost, N, strict):
    """The (type, step) of the error the full pass on ``reference_backward_step`` raises, or None."""
    def solve():
        P = lqdr.riccati._sym(cost.P_terminal)
        for k in range(N, -1, -1):
            P = reference_backward_step(P, model.A, model.B, cost.Q, cost.R, strict, k)[4]
    return outcome(solve)


def scaled_cost(cost, c):
    return CostSpec(Q=c * cost.Q, R=c * cost.R, P_terminal=c * cost.P_terminal, r=cost.r)


def weight_scale_cases():
    cases = []
    for name in BUNDLED:
        scenario = load_scenario(bundled_scenario_path(name))
        cases.append(pytest.param(scenario.model, scenario.cost, scenario.steps - 1, id=name))
    for i, inst in enumerate(drawn_instances(5, seed=77)):
        cases.append(pytest.param(inst.model, inst.cost, inst.N, id=f"drawn{i}"))
    cases.append(pytest.param(*singular_upsilon_problem(), 3, id="singular_upsilon"))
    return cases


@pytest.mark.parametrize("c", [2.0 ** -40, 2.0 ** 40], ids=["2^-40", "2^+40"])
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "pinv"])
@pytest.mark.parametrize("model, cost, N", weight_scale_cases())
def test_solvability_verdicts_ignore_weight_scale(model, cost, N, strict, c):
    # scaling Q, R and P_T by c scales P, Upsilon and M by c and leaves K:
    # the strict and the consistency tests are relative, so neither moves
    base = outcome(lambda: solve_finite_horizon(model, cost, N, strict=strict))
    scaled = outcome(lambda: solve_finite_horizon(model, scaled_cost(cost, c), N, strict=strict))
    if isinstance(base, tuple):
        assert scaled == base
        return
    assert not isinstance(scaled, tuple), scaled
    assert rel_close(scaled.K, base.K, 1e-12)
    assert rel_close(scaled.P / c, base.P, 1e-12)


def kernel_reference_cases():
    cases = []
    for name in BUNDLED:
        scenario = load_scenario(bundled_scenario_path(name))
        cases.append(pytest.param([(scenario.model, scenario.cost, scenario.steps - 1)], id=name))
    for case_id, model, cost, steps, _ in long_horizon_cases():
        cases.append(pytest.param([(model, cost, steps - 1)], id=case_id))
    draws = [(inst.model, inst.cost, inst.N) for inst in drawn_instances(300)]
    cases.append(pytest.param(draws, id="draw_instance_300"))
    cases.append(pytest.param([(*singular_upsilon_problem(), 3)], id="singular_upsilon"))
    cases.append(pytest.param([(*inconsistent_problem(), 0)], id="inconsistent"))
    return cases


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "pinv"])
@pytest.mark.parametrize("problems", kernel_reference_cases())
def test_backward_step_matches_the_separate_product_reference(problems, strict):
    # every step's Upsilon_inv, K and P against the eigvalsh + inv (strict)
    # or pinv (pseudo-inverse) step applied to the same P_{k+1}; a
    # rejected problem must be rejected by the reference pass at the same step
    for model, cost, N in problems:
        sol = outcome(lambda: solve_finite_horizon(model, cost, N, strict=strict))
        if isinstance(sol, tuple):
            assert reference_pass_outcome(model, cost, N, strict) == sol
            continue
        seen = set()
        for k in range(N, -1, -1):
            key = sol.P[k + 1].tobytes()
            if key in seen:
                continue  # same input as a step already compared
            seen.add(key)
            want = reference_backward_step(sol.P[k + 1], model.A, model.B, cost.Q, cost.R,
                                           strict, k)[2:]
            got = (sol.Upsilon_inv[k], sol.K[k], sol.P[k])
            for name, g, w in zip(("Upsilon_inv", "K", "P"), got, want, strict=True):
                assert rel_close(g, w, 1e-12), (k, name)


def step_out_cases():
    """(model, cost, strict) on the strict, pseudo-inverse, m = 1 and n = 1 step paths."""
    n2_m1, _, n8_m2 = long_horizon_cases()[:3]
    return [
        pytest.param(*n8_m2[1:3], True, id="strict_n8_m2"),
        pytest.param(*n8_m2[1:3], False, id="pinv_definite_n8_m2"),
        pytest.param(*singular_upsilon_problem(), False, id="pinv_dropped"),
        pytest.param(*n2_m1[1:3], True, id="strict_m1"),
        pytest.param(*n2_m1[1:3], False, id="pinv_m1"),
        pytest.param(scalar_model(A=-0.5), scalar_cost(r=1.0), True, id="strict_n1"),
        pytest.param(*inconsistent_problem(), False, id="pinv_dropped_n1"),
    ]


@pytest.mark.parametrize("model, cost, strict", step_out_cases())
def test_backward_step_fills_its_out_rows_with_the_bytes_it_returns(model, cost, strict):
    # solve_finite_horizon passes the rows of step k in its stacks as out;
    # the step must write exactly what it returns without out, and only
    # there, or refuse an indefinite Upsilon as it does without out and
    # write nothing
    AB, W = lqdr.riccati._step_constants(model.A, model.B, cost.Q, cost.R)
    n, m = model.n, model.m
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, n))
    for P_next in (lqdr.riccati._sym(cost.P_terminal), X @ X.T, np.zeros_like(X)):
        stacks = [np.full((3, *shape), np.nan)
                  for shape in ((m,), (m, m), (m, n), (n, n), (m, m))]
        rows = tuple(stack[1] for stack in stacks)
        if np.linalg.eigvalsh(step_blocks(model, cost, P_next)[0])[0] < 0:
            with pytest.raises(SolvabilityError, match="indefinite") as info:
                lqdr.riccati._backward_step(P_next, AB, W, strict, 4)
            with pytest.raises(SolvabilityError, match=re.escape(str(info.value))):
                lqdr.riccati._backward_step(P_next, AB, W, strict, 4, out=rows)
            assert all(np.isnan(stack).all() for stack in stacks)
            continue
        want = lqdr.riccati._backward_step(P_next, AB, W, strict, 4)
        got = lqdr.riccati._backward_step(P_next, AB, W, strict, 4, out=rows)
        assert len(got) == 6 and all(g is row for g, row in zip(got, rows))
        assert got[5] == want[5]
        for g, w, stack in zip(got, want, stacks):
            assert g.tobytes() == np.asarray(w).tobytes()
            assert np.isnan(stack[[0, 2]]).all()


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "pinv"])
@pytest.mark.parametrize("model, cost, N", full_pass_cases())
def test_every_step_of_a_pass_is_the_bytes_of_the_gram_step(model, cost, N, strict):
    # each stored row, the copied ones included, is what the step with fresh
    # arrays for its sums and products returns on that row's P_{k+1}
    sol = solve_finite_horizon(model, cost, N, strict=strict)
    AB, W = lqdr.riccati._step_constants(model.A, model.B, cost.Q, cost.R)
    stacks = (sol.Upsilon_eig, sol.Upsilon_inv, sol.K, sol.P, sol.Upsilon_dropped)
    for k in range(N, -1, -1):
        want = reference_gram_step(sol.P[k + 1], AB, W, strict, k)
        for arr, w in zip(stacks, want[:5], strict=True):
            assert arr[k].tobytes() == w.tobytes(), k


def random_step_problem(rng):
    """(P_next, AB, W) of a random plant with n <= 5, m <= 3 and PSD weights.

    Half the draws repeat an input column, so Upsilon is singular and the
    pseudo-inverse drops an eigenvalue.
    """
    n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
    if m > 1 and rng.random() < 0.5:
        B[:, -1] = B[:, 0]
    C, D, X = (rng.standard_normal((n, n)) for _ in range(3))
    AB, W = lqdr.riccati._step_constants(A, B, C.T @ C, D.T @ D)
    return X @ X.T, AB, W


@pytest.mark.parametrize("seed", range(4))
def test_backward_step_is_the_bytes_of_the_gram_step_on_random_plants(seed):
    rng = np.random.default_rng(seed)
    shapes, dropped = set(), 0
    for _ in range(100):
        P_next, AB, W = random_step_problem(rng)
        n = P_next.shape[0]
        shapes.add((n == 1, AB.shape[1] - n == 1))
        for strict in (True, False):
            try:
                want = reference_gram_step(P_next, AB, W, strict, 3)
            except SolvabilityError as exc:
                with pytest.raises(SolvabilityError, match=re.escape(str(exc))):
                    lqdr.riccati._backward_step(P_next, AB, W, strict, 3)
                continue
            w = want[0]
            dropped += not w[0] > lqdr.riccati.PINV_RCOND * w[-1]
            got = lqdr.riccati._backward_step(P_next, AB, W, strict, 3)
            rows = tuple(np.full_like(w, np.nan) for w in want[:5])
            into = lqdr.riccati._backward_step(P_next, AB, W, strict, 3, out=rows)
            assert got[5] == into[5] == want[5]
            for g, i, r in zip(got[:5], into[:5], want[:5], strict=True):
                assert g.tobytes() == i.tobytes() == r.tobytes()
    # the strict, dropped-eigenvalue, m = 1 and n = 1 paths are all taken
    assert dropped and shapes == {(False, False), (False, True), (True, False), (True, True)}


#: Upsilon of an m = 1 step, by kind; only the first three are ``_definite``
SCALAR_UPSILON = {"positive": 1.5, "tiny": 1e-300, "subnormal": 5e-324, "zero": 0.0,
                  "negative": -2.0, "nan": np.nan, "inf": np.inf, "-inf": -np.inf}


def recorded(step):
    """(result, (error type, message) or None, warning categories) of ``step()``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return step(), None, [w.category for w in caught]
        except (SolvabilityError, np.linalg.LinAlgError) as exc:
            return None, (type(exc), str(exc)), [w.category for w in caught]


def scalar_upsilon_step(u, rng):
    """(P_next, AB, W) of an m = 1 step, n = 1..4, whose Upsilon has the kind of u.

    Rbar = u - B'PB, with B scaled by 1e-170 when |u| < 1e-200 so that B'PB
    underflows to zero and Upsilon is u exactly.  Columns of A are zero with
    probability 0.3, which makes the same columns of M zero.
    """
    n = int(rng.integers(1, 5))
    A, B, X = rng.standard_normal((n, n)), rng.standard_normal((n, 1)), rng.standard_normal((n, n))
    A[:, rng.random(n) < 0.3] = 0.0
    if abs(u) < 1e-200:
        B *= 1e-170
    P_next, AB, W = X @ X.T, np.hstack([A, B]), np.zeros((n + 1, n + 1))
    W[:n, :n] = np.eye(n)
    W[n, n] = u - gram_blocks(P_next, AB, W)[0][0, 0]
    return P_next, AB, W


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "pinv"])
@pytest.mark.parametrize("u", SCALAR_UPSILON.values(), ids=SCALAR_UPSILON.keys())
def test_scalar_upsilon_step_is_the_bytes_of_the_gram_step(u, strict):
    # at m = 1 a _definite Upsilon takes the scalar case and any other the
    # eigendecomposition: both return the reference's six outputs byte for
    # byte, with or without out, or raise its error, and warn as it does
    rng = np.random.default_rng(25)
    zero_in_M = refused = 0
    for _ in range(40):
        P_next, AB, W = scalar_upsilon_step(u, rng)
        want, want_error, want_warned = recorded(
            lambda: reference_gram_step(P_next, AB, W, strict, 3))
        Upsilon, M, _ = gram_blocks(P_next, AB, W)
        got_u = Upsilon[0, 0]
        assert np.isnan(got_u) if np.isnan(u) else \
            (np.sign(got_u), abs(got_u) < 1e-200) == (np.sign(u), abs(u) < 1e-200)
        scratch = lqdr.riccati._step_scratch(AB)
        rows = [tuple(np.full_like(w, np.nan) for w in want[:5])] if want else []
        for out in [None] + rows:
            got, error, warned = recorded(
                lambda: lqdr.riccati._backward_step(P_next, AB, W, strict, 3, out=out,
                                                    scratch=scratch))
            assert (error, warned) == (want_error, want_warned)
            if want:
                assert got[5] == want[5]
                for g, w in zip(got[:5], want[:5], strict=True):
                    assert g.tobytes() == w.tobytes()
                zero_in_M += not M.all()
        refused += bool(want_error) and "indefinite" in want_error[1]
    # pseudo-inverse mode refuses the negative Upsilon as indefinite, returns
    # on every other kind, and meets zeros in M
    if not strict:
        assert refused == (40 if u == SCALAR_UPSILON["negative"] else 0)
        assert refused or zero_in_M


@settings(max_examples=300, deadline=None)
@given(mat=st.integers(1, 6).flatmap(lambda m: arrays(
    np.float64, (m, m), elements=st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 0.5, np.nan]),
        st.floats(-1e300, 1e300)))))
def test_sym_is_the_bytes_of_the_halved_sum(mat):
    # _sym copies the transpose and multiplies by 0.5; neither may move a bit
    # of (mat + mat') / 2, signed zeros, subnormals and NaN payloads included
    want = (mat + mat.T) / 2
    for sym in (lqdr.model._sym, lqdr.riccati._sym):
        assert sym(mat).tobytes() == want.tobytes()
        out = np.empty_like(mat)
        assert sym(mat, out=out) is out and out.tobytes() == want.tobytes()


#: Ascending eigenvalue rows, each with its verdict: the threshold itself,
#: zeros, signs, NaN and infinities.
DEFINITE_ROWS = [
    ([3.0 * lqdr.riccati.PINV_RCOND, 3.0], False), ([3.1 * lqdr.riccati.PINV_RCOND, 3.0], True),
    ([0.0, 0.0], False), ([-0.0, 1.0], False), ([-1.0, 1.0], False), ([1.0, 2.0], True),
    ([np.nan, 1.0], False), ([1.0, np.nan], False), ([np.nan, np.nan], False),
    ([-np.inf, 1.0], False), ([1.0, np.inf], False), ([np.inf, np.inf], False),
    ([-np.inf, np.inf], False), ([-np.inf, -np.inf], False),
]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_definite_is_the_inline_verdict_on_a_row_and_a_stack(m):
    # rows of width 1 take their one entry as both ends; width 3 adds a middle
    rows = np.array([[w[0]] * (m - 1) + [w[1]] if m > 1 else [w[0]]
                     for w, _ in DEFINITE_ROWS])
    inline = [w[0] > lqdr.riccati.PINV_RCOND * w[-1] for w in rows]
    assert [bool(lqdr.riccati._definite(w)) for w in rows] == inline
    assert lqdr.riccati._definite(rows).tolist() == inline
    if m > 1:
        assert inline == [want for _, want in DEFINITE_ROWS]


def penrose_defects(X, Y):
    """The four Moore-Penrose conditions for Y = X^+, as max-abs defects relative to |X|, |Y|."""
    x, y = np.max(np.abs(X)), np.max(np.abs(Y))
    return (np.max(np.abs(X @ Y @ X - X)) / x, np.max(np.abs(Y @ X @ Y - Y)) / y,
            np.max(np.abs((X @ Y).T - X @ Y)), np.max(np.abs((Y @ X).T - Y @ X)))


def test_pseudo_inverse_meets_the_penrose_conditions():
    model, cost = singular_upsilon_problem()
    sol = solve_finite_horizon(model, cost, 3, strict=False)
    plant = sampled_stable_plant(32, 4, 0.001, seed=32)
    plant_cost = zero_terminal_cost(plant, np.eye(32), np.eye(32))
    gare = solve_gare(plant, plant_cost)
    pairs = [*zip(step_blocks(model, cost, sol.P[1:])[0], sol.Upsilon_inv),
             (step_blocks(plant, plant_cost, gare.P)[0], gare.Upsilon_inv)]
    for X, Y in pairs:
        assert max(penrose_defects(X, Y)) <= 1e-12
        assert rel_close(Y, np.linalg.pinv(X, rcond=1e-10), 1e-12)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "pinv"])
@pytest.mark.parametrize("model, cost, N", full_pass_cases())
def test_upsilon_eig_is_the_stored_ascending_spectrum(model, cost, N, strict):
    sol = solve_finite_horizon(model, cost, N, strict=strict)
    assert sol.Upsilon_eig.shape == (N + 1, model.m)
    assert not sol.Upsilon_eig.flags.writeable
    assert np.all(np.diff(sol.Upsilon_eig, axis=1) >= 0)
    Upsilon = step_blocks(model, cost, sol.P[1:])[0]
    assert rel_close(sol.Upsilon_eig, np.linalg.eigvalsh(Upsilon), 1e-12)
    # copied across the stretch the pass does not compute, like the other
    # arrays, with the dropped eigenvectors of the same steps
    expected = reference_finite_horizon(model, cost, N, strict=strict)
    assert np.array_equal(sol.Upsilon_eig, expected[0])
    assert sol.Upsilon_dropped.tobytes() == expected[4].tobytes()
    # every Upsilon_k here is definite: nothing is dropped, and every entry is +0.0
    assert sol.Upsilon_dropped.shape == (N + 1, model.m, model.m)
    assert not sol.Upsilon_dropped.flags.writeable
    assert sol.Upsilon_dropped.tobytes() == bytes(sol.Upsilon_dropped.nbytes)


def dropping_cases():
    """(model, cost, N, stops) of non-strict passes some of whose Upsilon_k drop an eigenvalue.

    ``stops``: the pass stops where P repeats and copies the earlier rows.
    """
    return [pytest.param(*kept_span_problem()[:2], 2, False, id="kept_span_1e-9"),
            pytest.param(*free_effort_plant(), 50, False, id="free_effort"),
            pytest.param(*repeated_column_problem()[:2], 400, True, id="repeated_column")]


@pytest.mark.parametrize("model, cost, N, stops", dropping_cases())
def test_upsilon_dropped_holds_the_unit_eigenvectors_the_pass_dropped(monkeypatch, model, cost,
                                                                      N, stops):
    # column j of row k is the eigenvector of Upsilon_k's eigenvalue j,
    # formed again from P_{k+1} and decomposed again, when _kept drops it,
    # and +0.0 otherwise; the rows the repeat stop copies are the full pass's
    calls = []
    step = lqdr.riccati._backward_step

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return step(*args, **kwargs)

    monkeypatch.setattr(lqdr.riccati, "_backward_step", counted)
    sol = solve_finite_horizon(model, cost, N, strict=False)
    D, m = sol.Upsilon_dropped, model.m
    assert D.shape == (N + 1, m, m) and not D.flags.writeable
    Upsilon = step_blocks(model, cost, sol.P[1:])[0]
    dropped = 0
    for k in range(N + 1):
        w = sol.Upsilon_eig[k]
        drop = ~lqdr.riccati._kept(w)
        assert D[k].any(axis=0).tolist() == drop.tolist(), k
        assert D[k][:, ~drop].tobytes() == bytes(8 * m * int((~drop).sum())), k
        V = lqdr.riccati._eigh(Upsilon[k])[1]
        assert D[k][:, drop].tobytes() == V[:, drop].tobytes(), k
        for j in np.flatnonzero(drop):
            v = D[k][:, j]
            assert abs(np.linalg.norm(v) - 1.0) <= 4 * np.finfo(float).eps
            assert (np.linalg.norm(Upsilon[k] @ v - w[j] * v)
                    <= 1e-12 * np.linalg.norm(Upsilon[k]))
        dropped += int(drop.sum())
    assert dropped
    assert D.tobytes() == reference_finite_horizon(model, cost, N, strict=False)[4].tobytes()
    # a pass that stops copies rows that hold dropped columns
    assert (len(calls) < N + 1) == stops
    assert D[:N + 1 - len(calls)].any(axis=(1, 2)).all()


@pytest.mark.parametrize("model, cost", dare_cases())
def test_gare_keeps_the_upsilon_spectrum(model, cost):
    g = solve_gare(model, cost)
    assert g.Upsilon_eig.shape == (model.m,) and not g.Upsilon_eig.flags.writeable
    assert rel_close(g.Upsilon_eig, np.linalg.eigvalsh(step_blocks(model, cost, g.P)[0]),
                     1e-12)


def exact_inverse_2x2(U):
    """The inverse of the float matrix U in exact rational arithmetic, rounded once."""
    a, b, c, d = (Fraction(float(v)) for v in U.ravel())
    det = a * d - b * c
    return np.array([[float(d / det), float(-b / det)], [float(-c / det), float(a / det)]])


@pytest.mark.parametrize("spread", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "pinv"])
def test_eigen_inverse_is_as_accurate_as_inv_on_an_ill_conditioned_plant(strict, spread):
    # two nearly parallel input columns: cond(Upsilon_k) reaches 8e4, 8e6, 8e8.
    # Any two backward-stable inverses then differ by about cond * eps, so
    # each is held to that bound against the exact inverse of the same Upsilon
    plant = sampled_stable_plant(4, 2, 0.02, seed=3)
    B = plant.B.copy()
    B[:, 1] = B[:, 0] + spread * B[:, 1]
    model = SystemModel(A=plant.A, B=B, E=plant.E, c_o=plant.c_o)
    cost = CostSpec(Q=np.eye(4), R=np.eye(4), P_terminal=np.eye(4), r=np.zeros(4))
    sol = solve_finite_horizon(model, cost, 200, strict=strict)
    # the bytes of the Upsilon_k and M_k each step inverted, rebuilt from P_{k+1}
    Upsilon, M = step_blocks(model, cost, sol.P[1:])
    for k in range(201):
        exact = exact_inverse_2x2(Upsilon[k])
        bound = np.linalg.cond(Upsilon[k]) * np.finfo(float).eps
        assert rel_close(sol.Upsilon_inv[k], exact, bound)
        assert rel_close(np.linalg.inv(Upsilon[k]), exact, bound)
        assert rel_close(sol.K[k], exact @ M[k], bound)
