import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqdr.feedforward
import lqdr.riccati
from conftest import (_exact, assert_one_decision, exact_bounded_below, exact_lifted_quadratic,
                      exact_minimum, exact_rank, free_effort_plant, kept_span_problem,
                      long_horizon_cases, oracle_cases, reference_closed_form,
                      reference_feedforward, reference_range_defect, rel_close, rel_gap,
                      repeated_column_problem, step_blocks, tracking_cost, two_state_bench,
                      uncontrollable_3state)
from lqdr import (ControllerConfig, CostSpec, DisturbanceProfile, GareSolution,
                  RegularityError, SolvabilityError, StabilizationError, SystemModel,
                  build_controller, disturbance_sequence, draw_instance, evaluate_cost,
                  simulate, solve_closed_form, solve_finite_horizon, solve_gare,
                  solve_recursive, solve_steady)


def scalar_setup(P_terminal=1.0, r=1.0):
    model = SystemModel(A=[[1.0]], B=[[1.0]], E=[[1.0]], c_o=[[1.0]])
    cost = CostSpec(Q=[[1.0]], R=[[1.0]], P_terminal=[[P_terminal]], r=[r])
    return model, cost


def test_zero_signals_give_zero_sequences():
    model = two_state_bench()
    cost = tracking_cost(model)
    sol = solve_finite_horizon(model, cost, N=12)
    for solver in (solve_recursive, solve_closed_form):
        ff = solver(sol, model, cost, np.zeros((13, 1)))
        assert np.all(ff.h == 0) and np.all(ff.f == 0)


def test_scalar_backward_pass_hand_values():
    model, cost = scalar_setup()
    sol = solve_finite_horizon(model, cost, N=0)
    ff = solve_recursive(sol, model, cost, np.zeros((1, 1)))
    assert ff.f[1] == pytest.approx(-1.0)
    assert ff.h[0] == pytest.approx(-1.0)
    Upsilon, M = step_blocks(model, cost, sol.P[1])
    assert Upsilon == pytest.approx(2.0) and sol.Upsilon_inv[0] == pytest.approx(0.5)
    assert M == pytest.approx(1.0)
    assert ff.f[0] == pytest.approx(-1.5)


def test_recursive_satisfies_defining_identity():
    rng = np.random.default_rng(8)
    inst = draw_instance(rng)
    sol = solve_finite_horizon(inst.model, inst.cost, inst.N)
    ff = solve_recursive(sol, inst.model, inst.cost, inst.d)
    B, E, R = inst.model.B, inst.model.E, inst.cost.R
    assert np.max(np.abs(ff.f[-1] + sol.P[-1] @ inst.cost.r)) <= 1e-12
    for k in range(inst.N + 1):
        lhs = ff.h[k]
        rhs = B.T @ (R + sol.P[k + 1]) @ (E @ inst.d[k]) + B.T @ ff.f[k + 1]
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_batched_recursion_matches_step_by_step_loop_on_selftest_instances():
    # the step-independent products are formed for all steps at once, so
    # the rounding differs from the loop's; 1e-12 relative is the bound
    rng = np.random.default_rng(2024)
    for _ in range(300):
        inst = draw_instance(rng)
        sol = solve_finite_horizon(inst.model, inst.cost, inst.N)
        ff = solve_recursive(sol, inst.model, inst.cost, inst.d)
        h, f = reference_feedforward(sol, inst.model, inst.cost, inst.d)
        assert rel_err(ff.h, h) <= 1e-12
        assert rel_err(ff.f, f) <= 1e-12


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "pinv"])
@pytest.mark.parametrize("model, cost, steps, ramp",
                         [pytest.param(*case[1:], id=case[0]) for case in long_horizon_cases()])
def test_batched_recursion_matches_step_by_step_loop_on_long_horizons(model, cost, steps,
                                                                      ramp, strict):
    sol = solve_finite_horizon(model, cost, steps - 1, strict=strict)
    ff = solve_recursive(sol, model, cost, ramp)
    h, f = reference_feedforward(sol, model, cost,
                                 disturbance_sequence(ramp, steps, dim=model.m))
    assert rel_err(ff.h, h) <= 1e-12
    assert rel_err(ff.f, f) <= 1e-12


def test_closed_form_matches_recursion_on_bench():
    model = uncontrollable_3state()
    cost = tracking_cost(model)
    sol = solve_finite_horizon(model, cost, N=100)
    profile = DisturbanceProfile.constant(3.0, start_step=50)
    rec = solve_recursive(sol, model, cost, profile)
    closed = solve_closed_form(sol, model, cost, profile)
    assert np.max(np.abs(rec.h - closed.h)) <= 1e-9
    assert np.max(np.abs(rec.f - closed.f)) <= 1e-9


def test_closed_form_matches_recursion_random():
    rng = np.random.default_rng(21)
    for _ in range(15):
        inst = draw_instance(rng)
        sol = solve_finite_horizon(inst.model, inst.cost, inst.N)
        rec = solve_recursive(sol, inst.model, inst.cost, inst.d)
        closed = solve_closed_form(sol, inst.model, inst.cost, inst.d)
        scale = 1 + max(np.max(np.abs(rec.h)), np.max(np.abs(rec.f)))
        assert np.max(np.abs(rec.h - closed.h)) <= 1e-9 * scale
        assert np.max(np.abs(rec.f - closed.f)) <= 1e-9 * scale


@pytest.mark.parametrize("model, cost, steps, ramp",
                         [pytest.param(*case[1:], id=case[0]) for case in long_horizon_cases()])
def test_closed_form_matches_recursion_on_long_horizons(model, cost, steps, ramp):
    # the doubling rounds cover offsets up to 2000 here
    sol = solve_finite_horizon(model, cost, steps - 1)
    rec = solve_recursive(sol, model, cost, ramp)
    closed = solve_closed_form(sol, model, cost, ramp)
    scale = 1 + max(np.max(np.abs(rec.h)), np.max(np.abs(rec.f)))
    assert np.max(np.abs(rec.h - closed.h)) <= 1e-9 * scale
    assert np.max(np.abs(rec.f - closed.f)) <= 1e-9 * scale
    assert np.array_equal(closed.f[-1], -sol.P[-1] @ cost.r)


def test_single_step_closed_form_identity():
    model, cost = scalar_setup()
    sol = solve_finite_horizon(model, cost, N=0)
    d = np.array([[0.7]])
    rec = solve_recursive(sol, model, cost, d)
    closed = solve_closed_form(sol, model, cost, d)
    _, _, (H, _, F, Rscript) = reference_closed_form(sol, model, cost, d)
    # empty sum in h, empty product (= identity) in f
    assert closed.h[0] == pytest.approx(H[0] @ d[0] - model.B.T @ Rscript[1] @ cost.r)
    assert closed.f[0] == pytest.approx(F[0] @ d[0] - Rscript[0] @ cost.r)
    assert np.allclose(rec.h, closed.h) and np.allclose(rec.f, closed.f)


def assert_closed_form_matches_explicit_sums(sol, model, cost, d_seq):
    # the sums are taken by recursive doubling over all k; 1e-12 relative is the bound
    h, f, (H, Abar, F, Rscript) = reference_closed_form(sol, model, cost, d_seq)
    closed = solve_closed_form(sol, model, cost, d_seq)
    assert rel_close(closed.h, h, 1e-12)
    assert rel_close(closed.f, f, 1e-12)
    # the sum's last term is f_{N+1} = -Rscript_{N+1} r, exactly
    assert np.array_equal(closed.f[-1], -Rscript[-1] @ cost.r)
    # h and f obey the compact recursion on the reference's H, Abar and F
    Abar_f = (np.swapaxes(Abar, 1, 2) @ closed.f[1:, :, None])[:, :, 0]
    assert rel_close(closed.f[:-1], Abar_f + np.einsum("knm,km->kn", F, d_seq)
                     - cost.Q @ cost.r, 1e-12)
    assert rel_close(closed.h, np.einsum("kmn,kn->km", H, d_seq) + closed.f[1:] @ model.B,
                     1e-12)


def test_closed_form_matches_explicit_sums_on_selftest_instances():
    rng = np.random.default_rng(11)
    for _ in range(300):
        inst = draw_instance(rng)
        sol = solve_finite_horizon(inst.model, inst.cost, inst.N)
        assert_closed_form_matches_explicit_sums(sol, inst.model, inst.cost, inst.d)


@pytest.mark.parametrize("model, cost, x0, d_seq, N",
                         [pytest.param(*case[1:], id=case[0]) for case in oracle_cases()])
def test_closed_form_matches_explicit_sums(model, cost, x0, d_seq, N):
    sol = solve_finite_horizon(model, cost, N)
    assert_closed_form_matches_explicit_sums(sol, model, cost, d_seq)


def test_closed_form_never_runs_the_recursion(monkeypatch):
    rng = np.random.default_rng(12)
    inst = draw_instance(rng)
    sol = solve_finite_horizon(inst.model, inst.cost, inst.N)
    expected = solve_recursive(sol, inst.model, inst.cost, inst.d)

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_closed_form must not run the backward pass")

    monkeypatch.setattr("lqdr.feedforward.solve_recursive", forbidden)
    monkeypatch.setattr("lqdr.feedforward.backward_pass", forbidden)
    closed = solve_closed_form(sol, inst.model, inst.cost, inst.d)
    assert np.allclose(closed.h, expected.h) and np.allclose(closed.f, expected.f)


def test_feedforward_linear_in_signals():
    rng = np.random.default_rng(4)
    model = two_state_bench()
    N = 20
    d1 = rng.standard_normal((N + 1, 1))
    d2 = rng.standard_normal((N + 1, 1))
    r1 = rng.standard_normal(2)
    r2 = rng.standard_normal(2)
    R = np.eye(2)
    costs = [CostSpec.from_model(model, R=R, r=r) for r in (r1, r2, r1 + r2)]
    sol = solve_finite_horizon(model, costs[0], N)
    ff1 = solve_recursive(sol, model, costs[0], d1)
    ff2 = solve_recursive(sol, model, costs[1], d2)
    ff12 = solve_recursive(sol, model, costs[2], d1 + d2)
    assert np.max(np.abs(ff12.h - ff1.h - ff2.h)) <= 1e-10
    assert np.max(np.abs(ff12.f - ff1.f - ff2.f)) <= 1e-10


def test_horizon_mismatch_rejected():
    model = two_state_bench()
    cost = tracking_cost(model)
    sol = solve_finite_horizon(model, cost, N=10)
    with pytest.raises(ValueError):
        solve_recursive(sol, model, cost, np.zeros((5, 1)))


# ---------------------------------------------------------------------------
# stationary pair
# ---------------------------------------------------------------------------

def test_steady_zero_signals():
    model = two_state_bench()
    cost = tracking_cost(model)
    g = solve_gare(model, cost)
    h, f = solve_steady(g, model, cost, np.zeros(1))
    assert np.all(h == 0) and np.all(f == 0)


def test_steady_matched_scalar_rejects_completely():
    model = SystemModel(A=[[1.0]], B=[[1.0]], E=[[1.0]], c_o=[[1.0]])
    cost = CostSpec(Q=[[1.0]], R=[[0.0]], P_terminal=[[0.0]], r=[0.0])
    g = solve_gare(model, cost)
    assert g.P == pytest.approx(1.0) and g.K == pytest.approx(1.0)
    h, f = solve_steady(g, model, cost, [1.0])
    assert f == pytest.approx(0.0)
    assert h == pytest.approx(1.0)
    # closed loop: u = -x - 1 drives B u + E d to zero
    x = 0.7
    for _ in range(5):
        u = -g.K[0, 0] * x - h[0]
        assert x + u + 1.0 == pytest.approx(0.0)
        x = x + u + 1.0


def test_steady_is_fixed_point_of_backward_step():
    model = two_state_bench()
    cost = tracking_cost(model, r=[0.3, -0.1])
    g = solve_gare(model, cost)
    d = np.array([3.0])
    h, f = solve_steady(g, model, cost, d)
    A, B, E = model.A, model.B, model.E
    Upsilon, M = step_blocks(model, cost, g.P)
    pinv = np.linalg.pinv(Upsilon, rcond=1e-10)
    h_next = B.T @ (cost.R + g.P) @ (E @ d) + B.T @ f
    f_next = A.T @ g.P @ (E @ d) + A.T @ f - M.T @ (pinv @ h_next) - cost.Q @ cost.r
    assert np.max(np.abs(h_next - h)) <= 1e-10
    assert np.max(np.abs(f_next - f)) <= 1e-10


def test_steady_is_limit_of_long_recursion():
    model = two_state_bench()
    cost = tracking_cost(model)
    g = solve_gare(model, cost)
    h_inf, f_inf = solve_steady(g, model, cost, [3.0])
    N = 2000
    sol = solve_finite_horizon(model, cost, N)
    ff = solve_recursive(sol, model, cost, np.full((N + 1, 1), 3.0))
    assert np.max(np.abs(ff.h[0] - h_inf)) <= 1e-6
    assert np.max(np.abs(ff.f[0] - f_inf)) <= 1e-6


def test_steady_rejects_expanding_loop():
    model = two_state_bench()
    cost = tracking_cost(model)
    g = solve_gare(model, cost)
    broken = GareSolution(P=g.P, Upsilon_eig=g.Upsilon_eig, Upsilon_inv=g.Upsilon_inv,
                          K=g.K, closed_loop_radius=1.2, iterations=g.iterations,
                          residual=g.residual, horizon=g.horizon)
    with pytest.raises(StabilizationError):
        solve_steady(broken, model, cost, [1.0])


def test_compensation_stays_bounded_for_bounded_disturbance():
    model = two_state_bench()
    cost = tracking_cost(model)
    sups = []
    for N in (2500, 5000):
        sol = solve_finite_horizon(model, cost, N)
        ks = np.arange(N + 1)
        d = np.where(ks >= 0, np.sin(ks / 50.0), 0.0).reshape(-1, 1)
        ff = solve_recursive(sol, model, cost, d)
        sups.append(float(np.max(np.abs(ff.h))))
    assert np.isfinite(sups).all()
    # saturation: doubling the horizon no longer grows the peak
    assert sups[1] <= sups[0] * 1.01 + 1e-12


def outside_range_problem():
    """(model, cost, d) of an N = 2 problem whose h_2 lies outside range(Upsilon_2) = {0}."""
    model = SystemModel(A=[[0.0]], B=[[-0.5, 0.0]], E=[[-0.5, 1.0]], c_o=[[1.0]])
    cost = CostSpec(Q=[[0.0]], R=[[1.0]], P_terminal=[[-1.0]], r=[1.0])
    return model, cost, np.zeros((3, 2))


def test_non_strict_refuses_a_feedforward_outside_the_range_of_upsilon():
    # R + P_T = 0 makes Upsilon_2 and M_2 zero, so the Riccati pass accepts
    # it; but f_3 = -P_T r = 1 gives h_2 = [-0.5, 0] outside range(Upsilon_2)
    # = {0}, and the cost falls by t when u_2[0] = t
    model, cost, d = outside_range_problem()
    H, L, b, _ = exact_lifted_quadratic(model, cost, np.zeros(1), d, 2)
    assert not exact_bounded_below(H, L, b)
    riccati = solve_finite_horizon(model, cost, 2, strict=False)
    assert riccati.Upsilon_eig.tolist() == [[0.0, 0.25], [0.0, 0.25], [0.0, 0.0]]
    with pytest.raises(RegularityError, match="^feedforward h_2 is outside the range "
                                              "of Upsilon_2") as info:
        solve_recursive(riccati, model, cost, d)
    assert (info.value.step, info.value.residual) == (2, 0.5)
    # the finite-horizon law, and the receding-horizon law's reference column
    for config in (ControllerConfig(kind="FiniteHorizon", strict=False),
                   ControllerConfig(kind="RecedingHorizon", T=2, strict=False)):
        with pytest.raises(RegularityError, match="^feedforward h_2 ") as info:
            build_controller(config, model, cost, d, 3)
        assert info.value.step == 2


def chain_problem(L):
    """(model, cost) of an L-state shift chain whose terminal weight walks back to x_1.

    B and R act on x_1, Q = 0, P_T = -e_L e_L' and r = e_L.
    """
    model = SystemModel(A=np.eye(L, k=-1), B=np.eye(L)[:, :1], E=np.zeros((L, 1)),
                        c_o=np.eye(L)[:1])
    cost = CostSpec(Q=np.zeros((L, L)), R=np.diag(np.eye(L)[0]),
                    P_terminal=-np.diag(np.eye(L)[-1]), r=np.eye(L)[-1])
    return model, cost


def test_non_strict_refuses_a_receding_horizon_feedforward_thirty_steps_back():
    # A shifts the 31 states down the chain; B and R act on x_1, and
    # P_T = -e_31 e_31' with r = e_31.  Over the lookahead T = 30 the terminal
    # weight walks back to x_1, so Upsilon_0 = R - 1 = 0, while M_0 = 0 (no
    # state feeds x_1) and f_1 = e_1, so the reference column has h_0 = 1:
    # u_0 enters the cost as 2 u_0 - 1.  A bound compounded over the steps,
    # by ||A||_F = 5.5 a step, would accept it
    L = 31
    model, cost = chain_problem(L)
    riccati = solve_finite_horizon(model, cost, L - 1, strict=False)
    assert riccati.Upsilon_eig[0, 0] == 0.0 and (riccati.Upsilon_eig[1:] == 1.0).all()
    config = ControllerConfig(kind="RecedingHorizon", T=L - 1, strict=False)
    with pytest.raises(RegularityError, match="^feedforward h_0 is outside the range "
                                              "of Upsilon_0") as info:
        build_controller(config, model, cost, DisturbanceProfile.constant(0.0), 3)
    assert (info.value.step, info.value.residual) == (0, 1.0)


def test_non_strict_accepts_a_feedforward_whose_kept_eigenvalues_span_1e_9():
    # each Upsilon_k drops the eigenvalue of (1, 1, -1) and keeps two about
    # 1e-9 apart (kept_span_problem).  h_k is in the range; its defect is
    # judged on the eigenvectors the pass dropped, not through Upsilon^+,
    # whose 1e9 would magnify the rounding of any rebuilt Upsilon
    model, cost, x0, d = kept_span_problem()
    riccati = solve_finite_horizon(model, cost, 2, strict=False)
    w = riccati.Upsilon_eig
    assert (np.abs(w[:, 0]) <= 1e-10 * w[:, 2]).all()
    assert (w[:, 1] >= 1e-10 * w[:, 2]).all() and (w[:, 1] <= 1e-8 * w[:, 2]).all()
    law = build_controller(ControllerConfig(kind="FiniteHorizon", strict=False),
                           model, cost, d, 3)
    H, L, b, c = exact_lifted_quadratic(model, cost, x0, d, 2)
    assert exact_bounded_below(H, L, b)
    J = evaluate_cost(simulate(model, cost, law, x0, 3, d), cost)
    assert rel_gap([J], [float(exact_minimum(H, b, c))]) <= 1e-8


#: Non-strict N = 2 problems whose h_1 or M_1 cancels to rounding outside range(Upsilon_1).
CANCELLING = [
    pytest.param("h_1", SystemModel(A=[[-0.5]], B=[[-1.0, 0.5]], E=[[-0.5, 1.0]], c_o=[[1.0]]),
                 CostSpec(Q=[[0.0]], R=[[0.0]], P_terminal=[[0.5]], r=[-1.0]),
                 [0.0], [[-0.5, -0.5], [-1.0, 0.0], [1.0, 1.0]], id="h_1"),
    pytest.param("M_1", SystemModel(A=[[0.5, 0.0], [1.0, 0.5]], B=[[1.0, -0.5], [-1.0, 0.0]],
                                    E=[[-0.5, -1.0], [-1.0, 0.0]], c_o=[[1.0, 0.0]]),
                 CostSpec(Q=np.zeros((2, 2)), R=[[1.0, 0.5], [0.5, 0.25]],
                          P_terminal=[[0.5, -0.5], [-0.5, 0.5]], r=[-1.0, 1.0]),
                 [0.0, -1.0], [[0.5, -0.5], [-1.0, 0.0], [-0.5, 0.5]], id="M_1")]


@pytest.mark.parametrize("term, model, cost, x0, d", CANCELLING)
def test_non_strict_accepts_a_term_that_cancels_to_rounding(term, model, cost, x0, d):
    # Q = 0 with semidefinite R and P_T: P_2 is zero and Upsilon_1 drops an
    # eigenvalue.  h_1 = B' f_2 is computed as about 6e-17 in the first draw,
    # M_1 = B' P_2 A as about 3e-17 in the second, neither in range(Upsilon_1):
    # judged against a bound on the terms that formed it, not against its
    # own norm, that rounding refuses nothing
    d = np.array(d)
    riccati = solve_finite_horizon(model, cost, 2, strict=False)
    assert riccati.Upsilon_eig[1, 0] == 0.0
    ff = solve_recursive(riccati, model, cost, d)
    cancelled = ff.h[1] if term == "h_1" else step_blocks(model, cost, riccati.P[2])[1]
    assert 0 < np.abs(cancelled).max() < 1e-15
    law = build_controller(ControllerConfig(kind="FiniteHorizon", strict=False),
                           model, cost, d, 3)
    H, L, b, c = exact_lifted_quadratic(model, cost, x0, d, 2)
    assert exact_bounded_below(H, L, b)
    J = evaluate_cost(simulate(model, cost, law, x0, 3, d), cost)
    assert rel_gap([J], [float(exact_minimum(H, b, c))]) <= 1e-8


_ENTRIES = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0])


@st.composite
def _small_problems(draw):
    """(model, cost, x0, d, N, semidefinite): n, m, N <= 2, entries in {0, +-0.5, +-1}.

    Q, R and P_T are C'C of such a C; in a third of the draws R or P_T is
    then shifted by -0.5 I or -I, which may leave it indefinite, and
    ``semidefinite`` is False.
    """
    n, m, N = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(0, 2))

    def entries(rows, cols):
        return np.array(draw(st.lists(_ENTRIES, min_size=rows * cols,
                                      max_size=rows * cols))).reshape(rows, cols)
    A, B, E = entries(n, n), entries(n, m), entries(n, m)
    weights = {name: C.T @ C for name, C in zip(("Q", "R", "P_terminal"),
                                                (entries(n, n) for _ in range(3)))}
    shifted = draw(st.sampled_from([None, None, None, None, "R", "P_terminal"]))
    if shifted:
        weights[shifted] = weights[shifted] - draw(st.sampled_from([0.5, 1.0])) * np.eye(n)
    model = SystemModel(A=A, B=B, E=E, c_o=np.eye(n)[:1])
    cost = CostSpec(**weights, r=entries(n, 1)[:, 0])
    return model, cost, entries(n, 1)[:, 0], entries(N + 1, m), N, not shifted


@settings(max_examples=300, deadline=None)
@given(problem=_small_problems())
def test_non_strict_accepts_exactly_the_problems_bounded_below(problem):
    model, cost, x0, d, N, semidefinite = problem
    H, L, b, c = exact_lifted_quadratic(model, cost, x0, d, N)
    bounded = exact_bounded_below(H, L, b)
    try:
        law = build_controller(ControllerConfig(kind="FiniteHorizon", strict=False),
                               model, cost, d, N + 1)
    except (SolvabilityError, RegularityError):
        # the pass judges M_k on every state, so a singular A, which leaves
        # some state unreachable at step k, may refuse a bounded problem;
        # semidefinite weights are never refused
        assert not semidefinite
        assert not bounded or exact_rank(_exact(model.A)) < model.n
        return
    assert bounded
    J = evaluate_cost(simulate(model, cost, law, x0, N + 1, d), cost)
    assert rel_gap([J], [float(exact_minimum(H, b, c))]) <= 1e-8


def range_test_cases():
    """(id, model, cost, d, N) of non-strict passes with steps whose Upsilon_k is not definite."""
    span_model, span_cost, _, span_d = kept_span_problem()
    cases = [("outside_range", *outside_range_problem(), 2),
             ("chain_31", *chain_problem(31), np.zeros((31, 1)), 30),
             ("kept_span_1e-9", span_model, span_cost, span_d, 2),
             ("free_effort", *free_effort_plant(), np.linspace(-1.0, 1.0, 51)[:, None], 50),
             ("repeated_column", *repeated_column_problem(), 400)]
    cases += [(param.id, *param.values[1:3], np.array(param.values[4]), 2)
              for param in CANCELLING]
    return cases


def rank_deficient_draws(count, seed):
    """``count`` (model, cost, non-strict RiccatiSolution), each B of rank below m.

    n 1..4, m 2..4, N <= 29; Q and P_T are C'C, R is 0 or rank 1.  Draws the
    pass refuses are skipped.
    """
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        n, m, N = int(rng.integers(1, 5)), int(rng.integers(2, 5)), int(rng.integers(0, 30))
        G = rng.standard_normal((n, n))
        A = G * (rng.uniform(0.5, 1.1) / max(np.max(np.abs(np.linalg.eigvals(G))), 1e-9))
        rank = int(rng.integers(1, m))
        B = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
        C, C_T = rng.standard_normal((2, n, n))
        v = rng.standard_normal(n)
        model = SystemModel(A=A, B=B, E=rng.standard_normal((n, m)), c_o=np.eye(n)[:1])
        cost = CostSpec(Q=C.T @ C, R=np.outer(v, v) if rng.random() < 0.5 else np.zeros((n, n)),
                        P_terminal=C_T.T @ C_T, r=rng.standard_normal(n))
        try:
            draws.append((model, cost, solve_finite_horizon(model, cost, N, strict=False)))
        except (SolvabilityError, RegularityError):
            continue
    return draws


def recorded_range_defects(monkeypatch, riccati, model, cost, Ed, r_weight):
    """(h, {k: defect}) of ``backward_pass``, its range test recording each defect instead."""
    defects = {}
    with monkeypatch.context() as patch:
        patch.setattr(lqdr.feedforward, "_require_in_range",
                      lambda k, defect, scale, what: defects.setdefault(k, defect))
        h = lqdr.feedforward.backward_pass(riccati, model, cost, Ed, r_weight)[0]
    return h, defects


def assert_range_defects_are_the_reference_bytes(monkeypatch, riccati, model, cost, Ed,
                                                 r_weight):
    """Each undecided step's h_k defect against ``reference_range_defect``, byte for byte.

    Returns the number of steps compared.
    """
    h, defects = recorded_range_defects(monkeypatch, riccati, model, cost, Ed, r_weight)
    undecided = ~lqdr.riccati._definite(riccati.Upsilon_eig)
    assert sorted(defects) == np.flatnonzero(undecided).tolist()
    for k, defect in defects.items():
        want = reference_range_defect(model, cost, riccati.P[k + 1], h[k])
        assert defect.tobytes() == want.tobytes(), k
    return len(defects)


@pytest.mark.parametrize("model, cost, d, N",
                         [pytest.param(*case[1:], id=case[0]) for case in range_test_cases()])
def test_range_defect_is_the_bytes_of_the_upsilon_decomposed_again(monkeypatch, model, cost,
                                                                   d, N):
    # the feedforward reads the eigenvectors the pass dropped; its defect is
    # what forming Upsilon_k again from P_{k+1} and decomposing it again
    # gives, for the one problem solve_recursive runs and for the m + 1
    # problems of the receding-horizon law
    riccati = solve_finite_horizon(model, cost, N, strict=False)
    Ed = disturbance_sequence(d, N + 1, dim=model.m).dot(model.E.T)[:, :, None]
    assert assert_range_defects_are_the_reference_bytes(monkeypatch, riccati, model, cost, Ed,
                                                        np.ones(1))
    columns = np.concatenate([np.broadcast_to(model.E.T, (N + 1, model.m, model.n)),
                              np.zeros((N + 1, 1, model.n))], axis=1)
    assert assert_range_defects_are_the_reference_bytes(
        monkeypatch, riccati, model, cost, np.swapaxes(columns, 1, 2),
        np.append(np.zeros(model.m), 1.0))


def test_range_defect_is_the_bytes_of_the_upsilon_decomposed_again_on_draws(monkeypatch):
    # each accepted pass also records one decision per step, which the
    # feedforward's steps and the M_k defect both read
    rng = np.random.default_rng(32)
    compared = decided = 0
    for model, cost, riccati in rank_deficient_draws(150, seed=32):
        decided += assert_one_decision(model, cost, riccati)
        Ed = rng.standard_normal((riccati.horizon + 1, model.n, 2))
        compared += assert_range_defects_are_the_reference_bytes(
            monkeypatch, riccati, model, cost, Ed, np.array([1.0, rng.standard_normal()]))
    assert compared >= 1000 and decided == compared


@pytest.mark.parametrize("model, cost, d, N",
                         [pytest.param(*case[1:], id=case[0]) for case in range_test_cases()])
def test_the_range_test_decomposes_no_upsilon_again(monkeypatch, model, cost, d, N):
    # after the pass no eigendecomposition runs: solve_recursive gives the
    # same bytes, or the same refusal, with eigh forbidden
    riccati = solve_finite_horizon(model, cost, N, strict=False)
    assert not lqdr.riccati._definite(riccati.Upsilon_eig).all()
    try:
        want = solve_recursive(riccati, model, cost, d)
    except RegularityError as exc:
        want = (exc.step, exc.residual, str(exc))

    def forbidden(*args, **kwargs):
        raise AssertionError("an Upsilon_k was decomposed after the pass")

    monkeypatch.setattr(lqdr.riccati, "_eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    try:
        got = solve_recursive(riccati, model, cost, d)
    except RegularityError as exc:
        assert (exc.step, exc.residual, str(exc)) == want
        return
    assert got.h.tobytes() == want.h.tobytes() and got.f.tobytes() == want.f.tobytes()
