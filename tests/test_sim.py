import numpy as np
import pytest

from conftest import (long_horizon_cases, reference_simulate, rel_gap, tracking_cost,
                      two_state_bench, uncontrollable_3state)
from lqdr import (ControllerConfig, CostSpec, DisturbanceProfile,
                  SolvabilityError, SystemModel, build_controller,
                  brute_force_optimal, costate_residuals, disturbance_sequence,
                  draw_instance, evaluate_cost, finite_horizon_control,
                  predicted_optimal_cost, simulate, solve_finite_horizon,
                  solve_gare, solve_recursive, solve_steady,
                  stationary_control)
from lqdr.cli import bundled_scenario_path, load_scenario


def scalar_worked_instance():
    model = SystemModel(A=[[1.0]], B=[[1.0]], E=[[1.0]], c_o=[[1.0]])
    cost = CostSpec(Q=[[1.0]], R=[[1.0]], P_terminal=[[1.0]], r=[1.0])
    return model, cost


def optimal_rollout(inst):
    sol = solve_finite_horizon(inst.model, inst.cost, inst.N)
    ff = solve_recursive(sol, inst.model, inst.cost, inst.d)
    traj = simulate(inst.model, inst.cost,
                    lambda k, x, dk: finite_horizon_control(k, x, sol, ff),
                    inst.x0, inst.N + 1, inst.d)
    return sol, ff, traj


# ---------------------------------------------------------------------------
# simulate / evaluate
# ---------------------------------------------------------------------------

def test_identity_dynamics_holds_state():
    model = SystemModel(A=np.eye(3), B=np.zeros((3, 1)) + [[1.0], [0.0], [0.0]],
                        E=[[0.0], [1.0], [0.0]], c_o=[[1.0, 0.0, 0.0]])
    cost = CostSpec.from_model(model, R=np.eye(3))
    traj = simulate(model, cost, lambda k, x, d: np.zeros(1),
                    [1.0, -2.0, 0.5], 20, np.zeros((20, 1)))
    assert np.all(traj.x == traj.x[0])
    assert traj.dynamics_residual() == 0.0


def test_zero_cost_when_on_reference():
    model, cost = scalar_worked_instance()
    cost0 = CostSpec(Q=[[1.0]], R=[[1.0]], P_terminal=[[1.0]], r=[0.0])
    traj = simulate(model, cost0, lambda k, x, d: np.zeros(1),
                    [0.0], 4, np.zeros((4, 1)))
    assert evaluate_cost(traj, cost0) == 0.0
    assert np.all(traj.cost_cum == 0.0)


def test_hand_summed_cost():
    model, _ = scalar_worked_instance()
    cost = CostSpec(Q=[[1.0]], R=[[1.0]], P_terminal=[[1.0]], r=[0.0])
    traj = simulate(model, cost, lambda k, x, d: np.zeros(1),
                    [1.0], 1, np.zeros((1, 1)))
    # stage: x0^2 = 1; channel zero; terminal: x1^2 = 1
    assert evaluate_cost(traj, cost) == pytest.approx(2.0)
    assert traj.cost_cum[0] == pytest.approx(1.0)


def simulate_cases():
    cases = []
    for name in ("example_a", "example_b", "example_c", "example_d"):
        scenario = load_scenario(bundled_scenario_path(name))
        cases.append(pytest.param(scenario.model, scenario.cost, scenario.controllers,
                                  scenario.x0, scenario.steps, scenario.disturbance, id=name))
    _, model, cost, steps, ramp = long_horizon_cases()[2]
    configs = [ControllerConfig(kind="FiniteHorizon"), ControllerConfig(kind="Stationary")]
    cases.append(pytest.param(model, cost, configs, np.ones(model.n), steps, ramp, id="n8_Ts0.02"))
    return cases


@pytest.mark.parametrize("model, cost, configs, x0, steps, d", simulate_cases())
def test_simulate_matches_step_by_step_loop(model, cost, configs, x0, steps, d):
    # the state update keeps the loop's rounding; only the stage costs are
    # summed after it, in another order
    d_seq = disturbance_sequence(d, steps, dim=model.m)
    for config in configs:
        # a PID controller carries state, so each rollout gets its own
        traj = simulate(model, cost, build_controller(config, model, cost, d, steps),
                        x0, steps, d)
        x, u, z, cost_cum = reference_simulate(
            model, cost, build_controller(config, model, cost, d, steps), x0, d_seq)
        assert np.array_equal(traj.x, x)
        assert np.array_equal(traj.u, u)
        assert np.array_equal(traj.z, z)
        assert np.max(np.abs(traj.cost_cum - cost_cum)) <= 1e-12 * np.max(np.abs(cost_cum))


def test_simulate_validates_inputs():
    model = two_state_bench()
    cost = tracking_cost(model)
    with pytest.raises(ValueError):
        simulate(model, cost, lambda k, x, d: np.zeros(1), [0.0, 0.0], 0,
                 np.zeros((1, 1)))
    with pytest.raises(ValueError):
        simulate(model, cost, lambda k, x, d: np.zeros(1), [0.0], 3,
                 np.zeros((3, 1)))
    with pytest.raises(ValueError):
        simulate(model, cost, lambda k, x, d: np.zeros(2), [0.0, 0.0], 3,
                 np.zeros((3, 1)))


def test_controller_failure_reports_step():
    model = two_state_bench()
    cost = tracking_cost(model)

    def flaky(k, x, d):
        if k == 3:
            raise SolvabilityError("inner solve went singular")
        return np.zeros(1)

    with pytest.raises(SolvabilityError, match="step 3"):
        simulate(model, cost, flaky, [1.0, 0.0], 10, np.zeros((10, 1)))


# ---------------------------------------------------------------------------
# optimal-cost identities
# ---------------------------------------------------------------------------

def test_predicted_cost_reduces_to_lqr_value():
    rng = np.random.default_rng(23)
    inst = draw_instance(rng)
    cost0 = CostSpec(Q=inst.cost.Q, R=inst.cost.R,
                     P_terminal=inst.cost.P_terminal, r=np.zeros(inst.model.n))
    sol = solve_finite_horizon(inst.model, cost0, inst.N)
    d0 = np.zeros((inst.N + 1, inst.model.m))
    ff = solve_recursive(sol, inst.model, cost0, d0)
    J = predicted_optimal_cost(sol, ff, inst.x0, inst.model, cost0, d0)
    assert J == pytest.approx(float(inst.x0 @ sol.P[0] @ inst.x0))


def test_scalar_worked_instance_triangle():
    # Direct minimization: J(u) = u^2 + (x1 - 1)^2 with x1 = 1 + u, so
    # J(u) = 2 u^2, u* = 0 and J* = 0.
    model, cost = scalar_worked_instance()
    sol = solve_finite_horizon(model, cost, N=0)
    d0 = np.zeros((1, 1))
    ff = solve_recursive(sol, model, cost, d0)
    traj = simulate(model, cost, lambda k, x, dk: finite_horizon_control(k, x, sol, ff),
                    [1.0], 1, d0)
    oracle = brute_force_optimal(model, cost, [1.0], d0, 0)
    assert oracle.u_opt == pytest.approx(0.0)
    assert oracle.J_opt == pytest.approx(0.0, abs=1e-14)
    assert evaluate_cost(traj, cost) == pytest.approx(0.0, abs=1e-14)
    assert predicted_optimal_cost(sol, ff, [1.0], model, cost, d0) \
        == pytest.approx(0.0, abs=1e-14)


def test_cost_triangle_on_random_instances():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 30:
        inst = draw_instance(rng)
        try:
            oracle = brute_force_optimal(inst.model, inst.cost, inst.x0, inst.d, inst.N)
        except SolvabilityError:
            continue
        if oracle.condition > 1e6:
            continue
        checked += 1
        sol, ff, traj = optimal_rollout(inst)
        J_sim = evaluate_cost(traj, inst.cost)
        J_pred = predicted_optimal_cost(sol, ff, inst.x0, inst.model, inst.cost, inst.d)
        assert rel_gap([J_sim], [J_pred]) <= 1e-8
        assert rel_gap([J_sim], [oracle.J_opt]) <= 1e-8
        assert rel_gap([J_pred], [oracle.J_opt]) <= 1e-8
        assert traj.dynamics_residual() <= 1e-12


def test_any_perturbation_costs_more():
    rng = np.random.default_rng(314)
    inst = draw_instance(rng)
    sol, ff, traj = optimal_rollout(inst)
    J_star = evaluate_cost(traj, inst.cost)
    for _ in range(20):
        delta = rng.standard_normal(traj.u.shape)
        delta *= rng.uniform(1e-6, 1.0) / max(np.max(np.abs(delta)), 1e-12)
        perturbed = traj.u + delta
        traj_p = simulate(inst.model, inst.cost,
                          lambda k, x, dk: perturbed[k], inst.x0, inst.N + 1, inst.d)
        assert evaluate_cost(traj_p, inst.cost) > J_star


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_oracle_zero_cost_means_zero_input():
    rng = np.random.default_rng(6)
    model = SystemModel(A=rng.standard_normal((3, 3)) * 0.3,
                        B=rng.standard_normal((3, 1)),
                        E=rng.standard_normal((3, 1)), c_o=np.eye(3))
    cost = CostSpec(Q=np.zeros((3, 3)), R=np.eye(3),
                    P_terminal=np.zeros((3, 3)), r=np.zeros(3))
    oracle = brute_force_optimal(model, cost, rng.standard_normal(3),
                                 np.zeros((9, 1)), 8)
    assert np.max(np.abs(oracle.u_opt)) <= 1e-12
    assert oracle.J_opt == pytest.approx(0.0, abs=1e-14)


def test_oracle_rejects_degenerate_quadratic():
    model = two_state_bench()
    cost = CostSpec(Q=np.zeros((2, 2)), R=np.zeros((2, 2)),
                    P_terminal=np.zeros((2, 2)), r=np.zeros(2))
    with pytest.raises(SolvabilityError):
        brute_force_optimal(model, cost, [1.0, 0.0], np.zeros((4, 1)), 3)


def test_oracle_guards_problem_size():
    model = two_state_bench()
    cost = tracking_cost(model)
    with pytest.raises(ValueError):
        brute_force_optimal(model, cost, [0.0, 0.0], np.zeros((3000, 1)), 2500)


# ---------------------------------------------------------------------------
# first-order optimality residuals
# ---------------------------------------------------------------------------

def test_costate_residuals_zero_instance():
    model, _ = scalar_worked_instance()
    cost = CostSpec(Q=[[1.0]], R=[[1.0]], P_terminal=[[1.0]], r=[0.0])
    sol = solve_finite_horizon(model, cost, N=6)
    d0 = np.zeros((7, 1))
    ff = solve_recursive(sol, model, cost, d0)
    traj = simulate(model, cost, lambda k, x, dk: finite_horizon_control(k, x, sol, ff),
                    [0.0], 7, d0)
    assert costate_residuals(traj, sol, ff, model, cost) == (0.0, 0.0)


def test_costate_residuals_scalar_worked_instance():
    model, cost = scalar_worked_instance()
    sol = solve_finite_horizon(model, cost, N=0)
    d0 = np.zeros((1, 1))
    ff = solve_recursive(sol, model, cost, d0)
    traj = simulate(model, cost, lambda k, x, dk: finite_horizon_control(k, x, sol, ff),
                    [1.0], 1, d0)
    stat, link = costate_residuals(traj, sol, ff, model, cost)
    assert stat <= 1e-12 and link <= 1e-12


def test_costate_residuals_on_bench_run():
    model = uncontrollable_3state()
    cost = tracking_cost(model)
    N = 649
    profile = DisturbanceProfile.constant(3.0, start_step=500)
    sol = solve_finite_horizon(model, cost, N)
    ff = solve_recursive(sol, model, cost, profile)
    traj = simulate(model, cost, lambda k, x, dk: finite_horizon_control(k, x, sol, ff),
                    [1.0, 1.0, 0.0], N + 1, profile)
    stat, link = costate_residuals(traj, sol, ff, model, cost)
    assert stat <= 1e-8 and link <= 1e-8


# ---------------------------------------------------------------------------
# long-run boundedness under the stationary law
# ---------------------------------------------------------------------------

def test_stationary_loop_settles_on_fixed_point():
    model = two_state_bench()
    cost = tracking_cost(model)
    g = solve_gare(model, cost)
    d = 3.0
    h, _ = solve_steady(g, model, cost, [d])
    profile = DisturbanceProfile.constant(d)
    traj = simulate(model, cost, lambda k, x, dk: stationary_control(x, g, h),
                    [1.0, 0.0], 10_000, profile)
    assert np.all(np.isfinite(traj.x))
    assert np.max(np.linalg.norm(traj.x, axis=1)) < 10.0
    pinv = np.linalg.pinv(g.Upsilon, rcond=1e-10)
    Abar = model.A - model.B @ g.K
    x_star = np.linalg.solve(np.eye(2) - Abar,
                             model.E @ np.array([d]) - model.B @ (pinv @ h))
    tail = traj.x[9000:] - x_star
    assert np.max(np.abs(tail)) <= 1e-6


def test_optimal_beats_compensation_baseline_after_onset():
    # constant disturbance from step 500; the optimal law snaps the
    # regulated state back almost immediately while the compensation
    # baseline rings for hundreds of steps
    model = two_state_bench()
    cost = tracking_cost(model)
    profile = DisturbanceProfile.constant(3.0, start_step=500)
    steps = 1000
    sol = solve_finite_horizon(model, cost, steps - 1)
    ff = solve_recursive(sol, model, cost, profile)
    opt = simulate(model, cost, lambda k, x, dk: finite_horizon_control(k, x, sol, ff),
                   [1.0, 0.0], steps, profile)
    sfc_cfg = ControllerConfig(kind="StateFeedbackCompensation",
                               k_x=[[-20.0, -4.0]], K_d=[[-5.0]])
    base = simulate(model, cost, build_controller(sfc_cfg, model, cost, profile, steps),
                    [1.0, 0.0], steps, profile)
    window = slice(500, 701)
    assert np.max(np.abs(opt.z[window])) < np.max(np.abs(base.z[window]))
    assert np.mean(np.abs(opt.z[window])) < 0.2 * np.mean(np.abs(base.z[window]))


def test_draw_instance_respects_bounds():
    rng = np.random.default_rng(1)
    for _ in range(10):
        inst = draw_instance(rng)
        assert 1 <= inst.model.n <= 4
        assert 1 <= inst.model.m <= 2
        assert 0 <= inst.N <= 20
        sol = solve_finite_horizon(inst.model, inst.cost, inst.N)
        for k in range(inst.N + 1):
            assert np.min(np.linalg.eigvalsh(sol.Upsilon[k])) >= 1e-6
