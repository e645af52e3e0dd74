import numpy as np
import pytest

from conftest import (long_horizon_cases, oracle_cases, reference_closed_form,
                      reference_feedforward, rel_close, step_blocks, tracking_cost,
                      two_state_bench, uncontrollable_3state)
from lqdr import (CostSpec, DisturbanceProfile, GareSolution, StabilizationError,
                  SystemModel, disturbance_sequence, draw_instance, solve_closed_form,
                  solve_finite_horizon, solve_gare, solve_recursive, solve_steady)


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
