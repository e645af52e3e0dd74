import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lqdr.control
from conftest import (long_horizon_cases, oracle_cases, reference_brute_force_optimal,
                      reference_costate_residuals, reference_evaluate_cost, reference_kkt_optimal,
                      reference_predicted_optimal_cost,
                      reference_simulate, rel_close, rel_gap, sampled_stable_plant,
                      stationary_control, step_blocks, tracking_cost, two_state_bench,
                      uncontrollable_3state)
from lqdr import (ControllerConfig, CostSpec, DisturbanceProfile,
                  SolvabilityError, SystemModel, build_controller,
                  brute_force_optimal, costate_residuals, disturbance_sequence,
                  draw_instance, evaluate_cost, finite_horizon_control,
                  predicted_optimal_cost, simulate, solve_finite_horizon,
                  solve_gare, solve_recursive, solve_steady)
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
        # z and cost_cum are derived at their first read, not by the rollout
        assert "z" not in vars(traj) and "cost_cum" not in vars(traj)
        assert np.array_equal(traj.x, x)
        assert np.array_equal(traj.u, u)
        assert np.array_equal(traj.z, z)
        assert np.max(np.abs(traj.cost_cum - cost_cum)) <= 1e-12 * np.max(np.abs(cost_cum))
        for name in ("z", "cost_cum"):
            kept = getattr(traj, name)
            assert getattr(traj, name) is kept
            assert not kept.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(traj, name, kept.copy())


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
    # the rollout does not read the weights, so it refuses their dimension at the call
    with pytest.raises(ValueError, match="^cost and model dimensions differ$"):
        simulate(model, tracking_cost(uncontrollable_3state()), lambda k, x, d: np.zeros(1),
                 [0.0, 0.0], 3, np.zeros((3, 1)))


def test_a_later_write_to_the_disturbance_does_not_reach_the_record():
    # cost_cum is formed at its first read, from the record's own d
    model = two_state_bench()
    cost = tracking_cost(model)
    d = np.ones((3, 1))
    traj = simulate(model, cost, lambda k, x, dk: np.ones(1), [1.0, 0.0], 3, d)
    d[:] = 7.0
    want = simulate(model, cost, lambda k, x, dk: np.ones(1), [1.0, 0.0], 3, np.ones((3, 1)))
    assert np.array_equal(traj.d, want.d)
    assert np.array_equal(traj.cost_cum, want.cost_cum)


def test_controller_failure_reports_step():
    model = two_state_bench()
    cost = tracking_cost(model)

    def flaky(k, x, d):
        if k == 3:
            raise SolvabilityError("inner solve went singular", step=7, min_eigenvalue=-2.0)
        return np.zeros(1)

    with pytest.raises(SolvabilityError,
                       match="^controller failed at step 3: inner solve went singular$") as info:
        simulate(model, cost, flaky, [1.0, 0.0], 10, np.zeros((10, 1)))
    # the controller's own error, its fields and its frame kept
    assert (info.value.step, info.value.min_eigenvalue) == (7, -2.0)
    assert info.traceback[-1].name == "flaky"


#: How a generated controller computes or returns its input.
_CONTROLLER_SHAPES = ("time_varying", "time_invariant", "pid", "list", "float",
                      "int_array", "column")


@st.composite
def _closed_loops(draw):
    """(model, cost, make_controller, x0, d) with n <= 6, m <= 3 and up to 20 steps.

    Entries lie in [-2, 2] and include +-0.0 and small integers, so exact
    cancellations, and with them signed zeros, occur.
    """
    shape = draw(st.sampled_from(_CONTROLLER_SHAPES))
    n = draw(st.integers(1, 6))
    m = 1 if shape == "float" else draw(st.integers(1, min(3, n)))
    steps = draw(st.integers(1, 20))
    entries = st.floats(-2.0, 2.0, allow_nan=False)

    def mat(*dims):
        return draw(arrays(np.float64, dims, elements=entries))

    model = SystemModel(A=mat(n, n), B=mat(n, m), E=mat(n, m), c_o=np.eye(n)[:m])
    cost = CostSpec(Q=np.eye(n), R=np.eye(n), P_terminal=np.eye(n), r=mat(n))
    K, K_d, u_0 = mat(steps, m, n), mat(m, m), mat(steps, m)
    G = mat(m, n)
    if shape == "time_varying":
        def make():
            return lqdr.control.AffineController(K=K, K_d=K_d, u_0=u_0, closed_loop_radius=0.0)
    elif shape == "time_invariant":
        def make():
            return lqdr.control.AffineController(
                K=np.broadcast_to(K[0], K.shape), K_d=K_d,
                u_0=np.broadcast_to(u_0[0], u_0.shape), closed_loop_radius=0.0)
    elif shape == "pid":
        config = ControllerConfig(kind="pid", kp=draw(entries), ki=draw(entries),
                                  kd=draw(entries), Ts=draw(st.floats(0.01, 1.0)))

        def make():
            return build_controller(config, model, cost, np.zeros((steps, m)), steps)
    elif shape == "list":
        def make():
            return lambda k, x, d: [float(v) for v in np.tanh(G @ x) + d]
    elif shape == "float":
        def make():
            return lambda k, x, d: float(np.tanh(G @ x)[0] - d[0])
    elif shape == "int_array":
        def make():
            return lambda k, x, d: np.arange(m) - k % 3
    else:
        def make():
            return lambda k, x, d: (np.tanh(G @ x) - d)[:, None]
    return model, cost, make, mat(n), mat(steps, m)


@settings(max_examples=300, deadline=None)
@given(case=_closed_loops())
def test_simulate_is_the_step_by_step_loop_byte_for_byte(case):
    model, cost, make, x0, d = case
    traj = simulate(model, cost, make(), x0, d.shape[0], d)
    x, u, _, _ = reference_simulate(model, cost, make(), x0, d)
    assert traj.x.tobytes() == x.tobytes()
    assert traj.u.tobytes() == u.tobytes()


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 32])
def test_stacked_disturbance_product_is_the_per_step_product_byte_for_byte(n, m):
    # simulate forms every E d_k before its loop as one stacked matmul; each
    # row must be the bytes of E @ d_k, in any memory layout of E and d.  One
    # gemm, d_seq @ E.T, rounds differently at m >= 2 and is no substitute.
    rng = np.random.default_rng(100 * n + m)
    for draw in range(40):
        steps = int(rng.integers(1, 30))
        E = rng.standard_normal((n, m))
        d_seq = rng.standard_normal((steps, m))
        d_seq[rng.random(d_seq.shape) < 0.2] = -0.0
        if draw % 4 == 1:
            E = np.asfortranarray(E)
        elif draw % 4 == 2:
            d_seq = np.repeat(d_seq, 2, axis=1)[:, ::2]
        elif draw % 4 == 3:
            d_seq = np.asfortranarray(d_seq)
        stacked = np.matmul(E, d_seq[:, :, None])[:, :, 0]
        for row, d_k in zip(stacked, d_seq, strict=True):
            assert row.tobytes() == (E @ d_k).tobytes()


@pytest.mark.parametrize("output", [[0.0], np.zeros(3), np.zeros((3, 1)), 1.0],
                         ids=["list", "array", "column", "float"])
def test_wrong_length_input_names_its_step(output):
    model = SystemModel(A=np.eye(2), B=np.eye(2), E=np.eye(2), c_o=np.eye(2))
    cost = tracking_cost(model)

    def late(k, x, d):
        return output if k == 2 else np.zeros(2)

    with pytest.raises(ValueError, match=r"length \d, expected 2 \(step 2\)"):
        simulate(model, cost, late, np.zeros(2), 5, np.zeros((5, 2)))


@pytest.mark.parametrize("d", [0.5, np.array(0.5), np.zeros((5, 1, 1))],
                         ids=["float", "0d", "3d"])
def test_disturbance_of_wrong_dimension_is_refused(d):
    model = two_state_bench()
    cost = tracking_cost(model)
    with pytest.raises(ValueError, match="1-d or 2-d"):
        simulate(model, cost, lambda k, x, dk: np.zeros(1), [1.0, 0.0], 3, d)
    riccati = solve_finite_horizon(model, cost, 2)
    with pytest.raises(ValueError, match="1-d or 2-d"):
        solve_recursive(riccati, model, cost, d)


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


def test_oracle_refuses_overflowing_powers_without_a_warning():
    # A^2 overflows, so the lifted states and the normal matrix are not finite
    model = SystemModel(A=[[1e200, 0.0], [0.0, 0.5]], B=[[1.0], [1.0]],
                        E=[[1.0], [1.0]], c_o=np.eye(2))
    cost = CostSpec(Q=np.eye(2), R=np.eye(2), P_terminal=np.eye(2), r=np.zeros(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolvabilityError, match="not finite"):
            brute_force_optimal(model, cost, [1.0, 1.0], np.zeros((4, 1)), 3)


def test_oracle_guards_problem_size():
    model = two_state_bench()
    cost = tracking_cost(model)
    with pytest.raises(ValueError):
        brute_force_optimal(model, cost, [0.0, 0.0], np.zeros((3000, 1)), 2500)


def test_oracle_refuses_a_large_lifted_matrix_before_allocating():
    # N * m = 2000 passes the H guard, but the lifted matrix would hold
    # 502 * 32 * 501 * 4 ~ 32M doubles, and WX as many again
    model = sampled_stable_plant(32, 4, 0.02)
    cost = tracking_cost(model)
    x0, d = np.zeros(32), np.zeros((501, 4))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="lifted matrix"):
            brute_force_optimal(model, cost, x0, d, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# first-order optimality residuals
# ---------------------------------------------------------------------------

def assert_oracles_match_step_by_step_loops(model, cost, x0, d_seq, N):
    u_ref, J_ref, cond_ref = reference_brute_force_optimal(model, cost, x0, d_seq, N)
    oracle = brute_force_optimal(model, cost, x0, d_seq, N)
    assert rel_close(oracle.u_opt, u_ref, 1e-9)
    assert abs(oracle.condition - cond_ref) <= 1e-9 * cond_ref
    assert abs(oracle.J_opt - J_ref) <= 1e-9 * max(1.0, abs(J_ref))

    sol = solve_finite_horizon(model, cost, N)
    ff = solve_recursive(sol, model, cost, d_seq)
    traj = simulate(model, cost, lambda k, x, dk: finite_horizon_control(k, x, sol, ff),
                    x0, N + 1, d_seq)
    J_pred = predicted_optimal_cost(sol, ff, x0, model, cost, d_seq)
    J_pred_ref = reference_predicted_optimal_cost(sol, ff, x0, model, cost, d_seq)
    assert abs(J_pred - J_pred_ref) <= 1e-9 * max(1.0, abs(J_pred_ref))
    stat, link = costate_residuals(traj, sol, ff, model, cost)
    stat_ref, link_ref = reference_costate_residuals(traj, sol, ff, model, cost)
    assert abs(stat - stat_ref) <= 1e-12 and abs(link - link_ref) <= 1e-12
    # measured: 6.7e-16 relative at most on these draws, 3.9e-15 on 1,500 of seeds 0-4
    J_ref = reference_evaluate_cost(traj, cost)
    assert abs(evaluate_cost(traj, cost) - J_ref) <= 1e-14 * abs(J_ref)


def test_oracles_match_step_by_step_loops_on_selftest_instances():
    rng = np.random.default_rng(11)
    for _ in range(300):
        inst = draw_instance(rng)
        assert_oracles_match_step_by_step_loops(inst.model, inst.cost, inst.x0, inst.d, inst.N)


@pytest.mark.parametrize("model, cost, x0, d_seq, N",
                         [pytest.param(*case[1:], id=case[0]) for case in oracle_cases()])
def test_oracles_match_step_by_step_loops(model, cost, x0, d_seq, N):
    assert_oracles_match_step_by_step_loops(model, cost, x0, d_seq, N)


@pytest.mark.parametrize("model, cost, x0, d_seq, N",
                         [pytest.param(*case[1:], id=case[0]) for case in oracle_cases()])
def test_kkt_reference_agrees_with_the_brute_force_oracle(model, cost, x0, d_seq, N):
    # two oracles that share no formula: measured 2.5e-14 and 1.6e-13 in u,
    # 3.9e-16 and 1.3e-16 in J
    oracle = brute_force_optimal(model, cost, x0, d_seq, N)
    u, _, J = reference_kkt_optimal(model, cost, x0, d_seq, N)
    assert rel_close(u, oracle.u_opt.reshape(N + 1, model.m), 1e-12)
    assert abs(J - oracle.J_opt) <= 1e-14 * abs(oracle.J_opt)


def long_horizon_law_cases():
    cases = [pytest.param(model, cost, np.random.default_rng(len(name)).standard_normal(model.n),
                          steps, ramp, id=name)
             for name, model, cost, steps, ramp in long_horizon_cases()]
    model = uncontrollable_3state()
    cases.append(pytest.param(model, tracking_cost(model, r=[0.0, 0.5, 0.0]),
                              np.array([1.0, 0.5, -0.2]), 1001,
                              DisturbanceProfile.constant(3.0, start_step=50),
                              id="uncontrollable_3state_N1000"))
    return cases


@pytest.mark.parametrize("model, cost, x0, steps, d", long_horizon_law_cases())
def test_long_horizon_law_is_the_sparse_kkt_optimum(model, cost, x0, steps, d):
    # the strict finite-horizon law, rolled out, against the forward-backward
    # equations at N up to 1999, beyond the brute-force oracle's reach;
    # measured: u within 1.4e-15 to 3.2e-13 relative (largest at Ts = 1 ms),
    # J within 1.8e-16 to 2.3e-14
    law = build_controller(ControllerConfig(kind="FiniteHorizon"), model, cost, d, steps)
    traj = simulate(model, cost, law, x0, steps, d)
    u, x, J = reference_kkt_optimal(model, cost, x0, disturbance_sequence(d, steps, dim=model.m),
                                    steps - 1)
    assert rel_close(traj.u, u, 1e-12)
    assert rel_close(traj.x, x, 1e-12)
    assert abs(evaluate_cost(traj, cost) - J) <= 1e-13 * abs(J)


def test_brute_force_reads_no_riccati_quantity(monkeypatch):
    rng = np.random.default_rng(12)
    inst = draw_instance(rng)
    expected = brute_force_optimal(inst.model, inst.cost, inst.x0, inst.d, inst.N)

    def forbidden(*args, **kwargs):
        raise AssertionError("the brute-force oracle must not run a Riccati step")

    monkeypatch.setattr("lqdr.sim.solve_finite_horizon", forbidden)
    monkeypatch.setattr("lqdr.riccati._backward_step", forbidden)
    oracle = brute_force_optimal(inst.model, inst.cost, inst.x0, inst.d, inst.N)
    assert np.array_equal(oracle.u_opt, expected.u_opt)


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
    pinv = np.linalg.pinv(step_blocks(model, cost, g.P)[0], rcond=1e-10)
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
        Upsilon = step_blocks(inst.model, inst.cost, sol.P[1:])[0]
        for k in range(inst.N + 1):
            assert np.min(np.linalg.eigvalsh(Upsilon[k])) >= 1e-6
