import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqdr.cli
import lqdr.control

from conftest import (aero_engine_discrete, long_horizon_cases, lqr_textbook_gains,
                      receding_horizon_control, rel_close, rel_gap, sampled_stable_plant,
                      stationary_control, step_blocks, tracking_cost, two_state_bench,
                      uncontrollable_3state)
from lqdr import (ControllerConfig, ConvergenceError, CostSpec, DisturbanceProfile, LqdrError,
                  SolvabilityError, SystemModel, build_controller, brute_force_optimal,
                  draw_instance, finite_horizon_control, simulate, solve_finite_horizon,
                  solve_gare, solve_recursive, solve_steady, spectral_radius)
from lqdr.cli import bundled_scenario_path, load_scenario, main, run_scenario

GOLDEN = (1 + np.sqrt(5)) / 2


def test_finite_horizon_zero_everything():
    model = two_state_bench()
    cost = tracking_cost(model)
    sol = solve_finite_horizon(model, cost, N=5)
    ff = solve_recursive(sol, model, cost, np.zeros((6, 1)))
    u = finite_horizon_control(2, np.zeros(2), sol, ff)
    assert np.all(u == 0)


def test_finite_horizon_scalar_chain():
    model = SystemModel(A=[[1.0]], B=[[1.0]], E=[[1.0]], c_o=[[1.0]])
    cost = CostSpec(Q=[[1.0]], R=[[1.0]], P_terminal=[[1.0]], r=[1.0])
    sol = solve_finite_horizon(model, cost, N=0)
    ff = solve_recursive(sol, model, cost, np.zeros((1, 1)))
    assert sol.K[0] == pytest.approx(0.5)
    assert ff.h[0] == pytest.approx(-1.0)
    u = finite_horizon_control(0, np.array([1.0]), sol, ff)
    assert u == pytest.approx(0.0)


def test_finite_horizon_range_check():
    model = two_state_bench()
    cost = tracking_cost(model)
    sol = solve_finite_horizon(model, cost, N=3)
    ff = solve_recursive(sol, model, cost, np.zeros((4, 1)))
    with pytest.raises(IndexError):
        finite_horizon_control(4, np.zeros(2), sol, ff)
    with pytest.raises(IndexError):
        finite_horizon_control(-1, np.zeros(2), sol, ff)


def test_reduces_to_lqr_without_signals():
    rng = np.random.default_rng(17)
    inst = draw_instance(rng)
    cost0 = CostSpec(Q=inst.cost.Q, R=inst.cost.R,
                     P_terminal=inst.cost.P_terminal, r=np.zeros(inst.model.n))
    sol = solve_finite_horizon(inst.model, cost0, inst.N)
    ff = solve_recursive(sol, inst.model, cost0, np.zeros((inst.N + 1, inst.model.m)))
    R_u = inst.model.B.T @ inst.cost.R @ inst.model.B
    gains, _ = lqr_textbook_gains(inst.model.A, inst.model.B, inst.cost.Q, R_u,
                                  inst.cost.P_terminal, inst.N)
    for k in range(inst.N + 1):
        assert np.max(np.abs(sol.K[k] - gains[k])) <= 1e-10
        x = rng.standard_normal(inst.model.n)
        assert np.max(np.abs(finite_horizon_control(k, x, sol, ff) + gains[k] @ x)) <= 1e-10


def test_rollout_attains_brute_force_minimum():
    rng = np.random.default_rng(12345)
    model = SystemModel(A=rng.standard_normal((3, 3)) * 0.4,
                        B=rng.standard_normal((3, 1)),
                        E=rng.standard_normal((3, 1)), c_o=np.eye(3))
    C = rng.standard_normal((3, 3))
    D = rng.standard_normal((3, 3))
    cost = CostSpec(Q=C.T @ C, R=D.T @ D, P_terminal=np.zeros((3, 3)),
                    r=rng.standard_normal(3))
    N = 12
    d = rng.standard_normal((N + 1, 1))
    x0 = rng.standard_normal(3)
    sol = solve_finite_horizon(model, cost, N)
    ff = solve_recursive(sol, model, cost, d)
    traj = simulate(model, cost, lambda k, x, dk: finite_horizon_control(k, x, sol, ff),
                    x0, N + 1, d)
    oracle = brute_force_optimal(model, cost, x0, d, N)
    assert rel_gap(traj.u.reshape(-1), oracle.u_opt) <= 1e-8


def test_stationary_golden_ratio_gain():
    model = SystemModel(A=[[1.0]], B=[[1.0]], E=[[1.0]], c_o=[[1.0]])
    cost = CostSpec(Q=[[1.0]], R=[[1.0]], P_terminal=[[0.0]], r=[0.0])
    g = solve_gare(model, cost)
    assert g.K[0, 0] == pytest.approx(GOLDEN / (1 + GOLDEN), abs=1e-10)
    x = np.array([2.0])
    assert stationary_control(x, g, np.zeros(1)) == pytest.approx(-g.K[0, 0] * 2.0)
    assert stationary_control(np.zeros(1), g, np.zeros(1)) == pytest.approx(0.0)


def test_stationary_matched_loop_cancels_channel():
    model = SystemModel(A=[[1.0]], B=[[1.0]], E=[[1.0]], c_o=[[1.0]])
    cost = CostSpec(Q=[[1.0]], R=[[0.0]], P_terminal=[[0.0]], r=[0.0])
    g = solve_gare(model, cost)
    h, _ = solve_steady(g, model, cost, [1.0])
    traj = simulate(model, cost, lambda k, x, dk: stationary_control(x, g, h),
                    [0.7], 50, np.ones((50, 1)))
    channel = traj.u @ model.B.T + traj.d @ model.E.T
    assert abs(traj.x[-1, 0]) <= 1e-12
    assert np.max(np.abs(channel[-10:])) <= 1e-12


def test_receding_without_signals_is_lqr():
    model = two_state_bench()
    cost = tracking_cost(model)
    T = 30
    sol = solve_finite_horizon(model, cost, T)
    rng = np.random.default_rng(9)
    for _ in range(3):
        x = rng.standard_normal(2)
        u = receding_horizon_control(x, np.zeros(1), model, cost, T)
        assert np.max(np.abs(u + sol.K[0] @ x)) <= 1e-12


def test_receding_approaches_stationary_law_for_constant_disturbance():
    model = two_state_bench()
    cost = tracking_cost(model)
    g = solve_gare(model, cost)
    h, _ = solve_steady(g, model, cost, [3.0])
    d = DisturbanceProfile.constant(3.0)
    traj = simulate(model, cost,
                    lambda k, x, dk: receding_horizon_control(x, dk, model, cost, 200),
                    [1.0, 0.0], 15, d)
    for k in range(15):
        u_ss = stationary_control(traj.x[k], g, h)
        assert np.max(np.abs(traj.u[k] - u_ss)) <= 1e-6


def test_receding_refuses_an_asymmetric_terminal_weight():
    # the lookahead pass reads only its symmetric part, [[1, 2.5], [2.5, 1]]
    model = load_scenario(bundled_scenario_path("example_b")).model
    config = ControllerConfig(kind="RecedingHorizon", T=20, P_terminal=[[1.0, 5.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="^P_terminal is not symmetric"):
        build_controller(config, model, tracking_cost(model), 0.0, 30)


def test_receding_validates_lookahead():
    model = two_state_bench()
    cost = tracking_cost(model)
    with pytest.raises(ValueError):
        receding_horizon_control(np.zeros(2), np.zeros(1), model, cost, T=0)


def test_sfc_gains():
    model = two_state_bench()
    config = ControllerConfig(kind="sfc", k_x=[[-20.0, -4.0]], K_d=[[-5.0]])
    sfc = build_controller(config, model, tracking_cost(model),
                           DisturbanceProfile.constant(0.0), 10)
    assert sfc(0, np.zeros(2), np.zeros(1)) == pytest.approx(0.0)
    assert sfc(0, np.array([1.0, 0.0]), np.zeros(1)) == pytest.approx(-20.0)
    assert sfc(0, np.zeros(2), np.array([3.0])) == pytest.approx(-15.0)


def _built_pid():
    """The bundled PID gains on a scalar plant whose regulated error is -x."""
    model = SystemModel(A=[[1.0]], B=[[1.0]], E=[[1.0]], c_o=[[1.0]])
    cost = CostSpec(Q=[[1.0]], R=[[1.0]], P_terminal=[[0.0]], r=[0.0])
    config = ControllerConfig(kind="pid", kp=20.0, ki=600.0, kd=0.1, Ts=0.02)
    return build_controller(config, model, cost, DisturbanceProfile.constant(0.0), 10)


def test_pid_zero_error():
    pid = _built_pid()
    for k in range(5):
        assert pid(k, np.zeros(1), np.zeros(1)) == pytest.approx(0.0)


def test_pid_first_step_hand_value():
    u = _built_pid()(0, np.array([-1.0]), np.zeros(1))
    assert u == pytest.approx(37.0)  # 20 + 600*0.02 + 0.1/0.02


def test_pid_constant_error_integrates():
    c = 0.5
    pid = _built_pid()
    u_prev = pid(0, np.array([-c]), np.zeros(1))
    for k in range(1, 5):
        u = pid(k, np.array([-c]), np.zeros(1))
        assert u - u_prev == pytest.approx(12.0 * c - 0.1 * c / 0.02 if k == 1
                                           else 12.0 * c)
        u_prev = u


def test_pid_is_deterministic():
    errors = np.random.default_rng(2).standard_normal((20, 1))
    outs = []
    for _ in range(2):
        pid = _built_pid()
        outs.append([pid(k, -e, np.zeros(1))[0] for k, e in enumerate(errors)])
    assert outs[0] == outs[1]


def test_built_pid_law_runs_the_same_in_every_rollout():
    # the law clears its integral and last error at k = 0, so a second
    # rollout of one built law repeats the first byte for byte
    scenario = load_scenario(bundled_scenario_path("example_d"))
    config = next(c for c in scenario.controllers if c.kind == "pid")
    law = build_controller(config, scenario.model, scenario.cost, scenario.disturbance,
                           scenario.steps)
    first, second = (simulate(scenario.model, scenario.cost, law, scenario.x0, scenario.steps,
                              scenario.disturbance) for _ in range(2))
    assert first.u.tobytes() == second.u.tobytes()
    assert first.x.tobytes() == second.x.tobytes()


def test_pid_rejects_bad_sample_time():
    with pytest.raises(ValueError, match="sample time"):
        ControllerConfig(kind="pid", Ts=0.0)


@pytest.mark.parametrize("make_model", [uncontrollable_3state, two_state_bench,
                                         aero_engine_discrete])
def test_stationary_loop_contracts_toward_fixed_point(make_model):
    model = make_model()
    cost = tracking_cost(model)
    g = solve_gare(model, cost)
    d = np.full(model.m, 0.05)
    h, _ = solve_steady(g, model, cost, d)
    steps = 400
    x0 = np.full(model.n, 0.5)
    traj = simulate(model, cost, lambda k, x, dk: stationary_control(x, g, h),
                    x0, steps, np.tile(d, (steps, 1)))
    pinv = np.linalg.pinv(step_blocks(model, cost, g.P)[0], rcond=1e-10)
    Abar = model.A - model.B @ g.K
    x_star = np.linalg.solve(np.eye(model.n) - Abar, model.E @ d - model.B @ (pinv @ h))
    gaps = np.linalg.norm(traj.x - x_star, axis=1)
    rho_hat = (1 + g.closed_loop_radius) / 2
    # eventual decay at a rate below 1: after the non-normal transient the
    # gap must stay under an exponential envelope C * rho_hat^k (checked
    # against the envelope rather than step ratios because complex modes
    # make the Euclidean gap oscillate within the envelope)
    k0 = 150
    anchor = max(gaps[k] / rho_hat ** k for k in range(k0, k0 + 30))
    checked = 0
    for k in range(k0, len(gaps)):
        if gaps[k] > 1e-9:
            assert gaps[k] <= anchor * rho_hat ** k * (1 + 1e-9)
            checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# controller factory
# ---------------------------------------------------------------------------

def test_build_controller_kinds():
    model = two_state_bench()
    cost = tracking_cost(model)
    profile = DisturbanceProfile.constant(3.0, start_step=5)
    for config in (ControllerConfig(kind="FiniteHorizon"),
                   ControllerConfig(kind="Stationary"),
                   ControllerConfig(kind="RecedingHorizon", T=20),
                   ControllerConfig(kind="StateFeedbackCompensation",
                                    k_x=[[-20.0, -4.0]], K_d=[[-5.0]])):
        step = build_controller(config, model, cost, profile, steps=30)
        u = step(0, np.array([1.0, 0.0]), np.zeros(1))
        assert np.asarray(u).shape == (1,)


def test_build_controller_rejects_bad_configs():
    model = two_state_bench()
    cost = tracking_cost(model)
    profile = DisturbanceProfile.constant(1.0)
    with pytest.raises(ValueError):
        ControllerConfig(kind="unheard_of")
    with pytest.raises(ValueError):
        build_controller(ControllerConfig(kind="RecedingHorizon"), model, cost, profile, 10)
    with pytest.raises(ValueError):
        build_controller(ControllerConfig(kind="pid", kp=1.0), model, cost, profile, 10)
    sinus = DisturbanceProfile.sinusoid(1.0, 0.2)
    with pytest.raises(ValueError):
        build_controller(ControllerConfig(kind="Stationary"), model, cost, sinus, 10)


def test_build_receding_raises_before_any_step():
    model = two_state_bench()
    cost = CostSpec(Q=model.c_o.T @ model.c_o, R=np.zeros((2, 2)),
                    P_terminal=np.zeros((2, 2)), r=np.zeros(2))
    profile = DisturbanceProfile.constant(1.0)
    # R = 0 and P_T = 0 leave Upsilon_T = 0: no unique optimal input
    with pytest.raises(SolvabilityError):
        build_controller(ControllerConfig(kind="RecedingHorizon", T=10),
                         model, cost, profile, 20)
    with pytest.raises(ValueError, match="lookahead"):
        build_controller(ControllerConfig(kind="RecedingHorizon", T=0),
                         model, tracking_cost(model), profile, 20)
    # the pseudo-inverse lookahead is consistent there and builds
    build_controller(ControllerConfig(kind="RecedingHorizon", T=10, strict=False),
                     model, cost, profile, 20)


def test_build_pid_tracks_regulated_error():
    model = SystemModel(A=[[0.5]], B=[[1.0]], E=[[1.0]], c_o=[[2.0]])
    cost = CostSpec(Q=[[4.0]], R=[[1.0]], P_terminal=[[0.0]], r=[0.5])
    config = ControllerConfig(kind="PID", kp=1.0, ki=0.0, kd=0.0, Ts=1.0)
    step = build_controller(config, model, cost, DisturbanceProfile.constant(0.0), 10)
    # error = c_o r - c_o x = 1 - 2 x
    assert step(0, np.array([0.0]), np.zeros(1)) == pytest.approx(1.0)
    assert step(1, np.array([1.0]), np.zeros(1)) == pytest.approx(-1.0)


@pytest.mark.parametrize("fields, message", [
    ({"kind": "Fuzzy"}, "unknown controller kind"),
    ({"kind": "Stationary", "label": 5}, "label"),
    ({"kind": "FiniteHorizon", "strict": "yes"}, "strict"),
    ({"kind": "RecedingHorizon"}, "T"),
    ({"kind": "RecedingHorizon", "T": 0}, "lookahead"),
    ({"kind": "sfc", "K_d": [[-5.0]]}, "k_x"),
    ({"kind": "StateFeedbackCompensation", "k_x": [[-20.0, -4.0]]}, "K_d"),
    ({"kind": "PID", "kp": 1.0}, "Ts"),
    ({"kind": "PID", "kp": 1.0, "Ts": 0.0}, "sample time"),
    ({"kind": "PID", "kp": 1.0, "Ts": -0.02}, "sample time"),
    ({"kind": "FiniteHorizon", "P_terminal": [[1e3, 0.0], [0.0, 1e3]]},
     "finite_horizon does not read P_terminal"),
    ({"kind": "FiniteHorizon", "T": 7}, "does not read T;"),
    ({"kind": "Stationary", "k_x": [[-20.0, -4.0]]}, "does not read k_x"),
    ({"kind": "RecedingHorizon", "T": 5, "K_d": [[-5.0]]}, "does not read K_d"),
    ({"kind": "sfc", "k_x": [[-20.0, -4.0]], "K_d": [[-5.0]], "Ts": 0.02},
     "does not read Ts"),
    ({"kind": "FiniteHorizon", "kp": 1.0, "kd": 0.5}, "does not read kp, kd;"),
    ({"kind": "RecedingHorizon", "T": 5, "ki": -1.0}, "does not read ki"),
    ({"kind": "Stationary", "strict": False}, "stationary does not read strict"),
    ({"kind": "PID", "kp": 1.0, "Ts": 0.02, "strict": False}, "pid does not read strict"),
], ids=["unknown_kind", "label_not_string", "strict_not_bool", "lookahead_missing",
        "lookahead_zero", "sfc_without_k_x", "sfc_without_K_d", "pid_without_Ts",
        "pid_Ts_zero", "pid_Ts_negative", "finite_with_P_terminal", "finite_with_T",
        "stationary_with_k_x", "receding_with_K_d", "sfc_with_Ts", "finite_with_gains",
        "receding_with_ki", "stationary_not_strict", "pid_not_strict"])
def test_invalid_config_is_refused_in_python_and_in_json(fields, message, tmp_path, capsys):
    with pytest.raises(ValueError, match=message):
        ControllerConfig(**fields)
    doc = json.loads(bundled_scenario_path("example_b").read_text())
    doc["controllers"] = [fields]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "scenario error" in err and message in err


def test_config_accepts_unread_fields_at_their_defaults():
    # a zero PID gain, T=None and strict=True are the defaults: nothing is ignored
    ControllerConfig(kind="FiniteHorizon", kp=0.0, ki=0, strict=True)
    ControllerConfig(kind="Stationary", kd=0.0, T=None, strict=True)
    ControllerConfig(kind="sfc", k_x=[[-20.0, -4.0]], K_d=[[-5.0]], strict=True)


# ---------------------------------------------------------------------------
# built receding-horizon law against the per-step reference
# ---------------------------------------------------------------------------

def _random_plant_with_reference(seed, n=4, m=2):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    model = SystemModel(A=G * (0.9 / np.max(np.abs(np.linalg.eigvals(G)))),
                        B=rng.standard_normal((n, m)),
                        E=rng.standard_normal((n, m)), c_o=np.eye(n)[:m])
    C = rng.standard_normal((n, n))
    D = rng.standard_normal((n, n))
    cost = CostSpec(Q=C.T @ C, R=D.T @ D, P_terminal=np.zeros((n, n)),
                    r=rng.standard_normal(n))
    Gt = rng.standard_normal((n, n))
    return model, cost, Gt.T @ Gt, rng


@pytest.mark.parametrize("name", ["example_a", "example_b", "example_c"])
def test_built_receding_law_matches_reference_on_bundled_states(name):
    scenario = load_scenario(bundled_scenario_path(name))
    config = next(c for c in scenario.controllers if c.kind == "receding_horizon")
    controller = build_controller(config, scenario.model, scenario.cost,
                                  scenario.disturbance, scenario.steps)
    traj = simulate(scenario.model, scenario.cost, controller, scenario.x0,
                    scenario.steps, scenario.disturbance)
    # every 20th step, plus the steps around the disturbance onset
    onset = scenario.disturbance.start_step
    checked = sorted(set(range(0, scenario.steps, 20)) | {onset - 1, onset, onset + 1})
    for k in checked:
        u_ref = receding_horizon_control(traj.x[k], traj.d[k], scenario.model,
                                         scenario.cost, config.T,
                                         P_terminal=config.P_terminal,
                                         strict=config.strict)
        assert rel_gap(traj.u[k], u_ref) <= 1e-12
        assert rel_gap(controller(k, traj.x[k], traj.d[k]), u_ref) <= 1e-12


def _one_state_plant_with_reference():
    """A one-state plant, so the backward pass runs its n = 1 products."""
    model = SystemModel(A=[[0.95]], B=[[0.4]], E=[[-0.7]], c_o=[[1.0]])
    cost = CostSpec(Q=[[2.0]], R=[[0.5]], P_terminal=[[0.0]], r=[0.8])
    return model, cost, np.array([[3.0]]), np.random.default_rng(32)


@pytest.mark.parametrize("strict, n", [pytest.param(True, 4, id="True"),
                                       pytest.param(False, 4, id="False"),
                                       pytest.param(True, 1, id="one_state-True"),
                                       pytest.param(False, 1, id="one_state-False")])
def test_built_receding_law_matches_reference_with_reference_and_terminal_weight(strict, n):
    model, cost, P_T, rng = (_random_plant_with_reference(31) if n > 1
                             else _one_state_plant_with_reference())
    T = 25
    config = ControllerConfig(kind="RecedingHorizon", T=T, P_terminal=P_T, strict=strict)
    controller = build_controller(config, model, cost,
                                  DisturbanceProfile.constant(0.0, dim=model.m), steps=50)
    for _ in range(8):
        x = rng.standard_normal(model.n)
        # the one-state law sees a non-zero constant d, the other a fresh d per call
        d_now = rng.standard_normal(model.m) if n > 1 else np.array([1.5])
        u_ref = receding_horizon_control(x, d_now, model, cost, T,
                                         P_terminal=P_T, strict=strict)
        assert rel_gap(controller(0, x, d_now), u_ref) <= 1e-12
    riccati = solve_finite_horizon(
        model, CostSpec(Q=cost.Q, R=cost.R, P_terminal=P_T, r=cost.r), T, strict=strict)
    assert controller.closed_loop_radius == spectral_radius(model.A - model.B @ riccati.K[0])


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_receding_law_solves_once_at_build(monkeypatch):
    model = two_state_bench()
    cost = tracking_cost(model)
    calls = []
    _count_calls(monkeypatch, lqdr.control, "solve_finite_horizon", calls)
    controller = build_controller(ControllerConfig(kind="RecedingHorizon", T=40),
                                  model, cost, DisturbanceProfile.constant(3.0), 100)
    assert calls == ["solve_finite_horizon"]
    calls.clear()
    simulate(model, cost, controller, [1.0, 0.0], 100, DisturbanceProfile.constant(3.0))
    assert calls == []


def test_run_scenario_solves_nothing_after_simulate(monkeypatch, tmp_path):
    calls = []
    solvers = ("solve_finite_horizon", "solve_gare", "solve_recursive", "solve_steady",
               "solve_closed_form")
    for module in (lqdr.control, lqdr.cli):
        for name in solvers:
            if hasattr(module, name):
                _count_calls(monkeypatch, module, name, calls)
    _count_calls(monkeypatch, lqdr.cli, "build_controller", calls)
    _count_calls(monkeypatch, lqdr.cli, "simulate", calls)

    for name in ("example_b", "example_d"):
        scenario = load_scenario(bundled_scenario_path(name))
        scenario.outputs = ["summary"]
        calls.clear()
        _, failures = run_scenario(scenario, tmp_path)
        assert failures == {}
        assert calls.count("build_controller") == len(scenario.controllers)
        # build, its solves, simulate; a simulation is followed only by
        # the next build
        for i, call in enumerate(calls):
            if call == "simulate":
                assert calls[i + 1:i + 2] in ([], ["build_controller"])
        assert calls[-1] == "simulate"


# ---------------------------------------------------------------------------
# built laws are data and reproduce their per-step references bit for bit
# ---------------------------------------------------------------------------

_AFFINE_CONFIGS = (
    ControllerConfig(kind="FiniteHorizon"),
    ControllerConfig(kind="FiniteHorizon", strict=False),
    ControllerConfig(kind="Stationary"),
    ControllerConfig(kind="RecedingHorizon", T=20),
    ControllerConfig(kind="sfc", k_x=[[-20.0, -4.0]], K_d=[[-5.0]]),
)


def _finite_horizon_run(name):
    """(model, cost, x0, steps, d) of example_d or of one long-horizon plant."""
    if name == "example_d":
        scenario = load_scenario(bundled_scenario_path(name))
        return (scenario.model, scenario.cost, scenario.x0, scenario.steps,
                scenario.disturbance)
    _, model, cost, steps, ramp = next(c for c in long_horizon_cases() if c[0] == name)
    return model, cost, np.random.default_rng(model.n).standard_normal(model.n), steps, ramp


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "pinv"])
@pytest.mark.parametrize("name", ["example_d"] + [c[0] for c in long_horizon_cases()])
def test_built_finite_horizon_law_is_the_per_step_law_bit_for_bit(name, strict):
    model, cost, x0, steps, d = _finite_horizon_run(name)
    law = build_controller(ControllerConfig(kind="FiniteHorizon", strict=strict),
                           model, cost, d, steps)
    riccati = solve_finite_horizon(model, cost, steps - 1, strict=strict)
    ff = solve_recursive(riccati, model, cost, d)
    built = simulate(model, cost, law, x0, steps, d)
    ref = simulate(model, cost, lambda k, x, dk: finite_horizon_control(k, x, riccati, ff),
                   x0, steps, d)
    assert built.u.tobytes() == ref.u.tobytes()
    assert built.x.tobytes() == ref.x.tobytes()
    assert law.closed_loop_radius == spectral_radius(model.A - model.B @ riccati.K[0])


@pytest.mark.parametrize("make_model", [uncontrollable_3state, two_state_bench,
                                         aero_engine_discrete])
@pytest.mark.parametrize("profile", [DisturbanceProfile.constant(0.05, start_step=10),
                                     np.linspace(0.0, -0.2, 60)[:, None]],
                         ids=["constant", "samples"])
def test_built_stationary_law_is_the_per_step_law_bit_for_bit(make_model, profile):
    model = make_model()
    cost = tracking_cost(model, r=np.full(model.n, 0.1))
    steps = 60
    law = build_controller(ControllerConfig(kind="Stationary"), model, cost, profile, steps)
    gare = solve_gare(model, cost)
    d_limit = profile.limit_value() if isinstance(profile, DisturbanceProfile) \
        else profile[-1]
    h, _ = solve_steady(gare, model, cost, d_limit)
    x0 = np.full(model.n, 0.5)
    built = simulate(model, cost, law, x0, steps, profile)
    ref = simulate(model, cost, lambda k, x, dk: stationary_control(x, gare, h),
                   x0, steps, profile)
    assert built.u.tobytes() == ref.u.tobytes()
    assert built.x.tobytes() == ref.x.tobytes()
    assert law.closed_loop_radius == gare.closed_loop_radius


@pytest.mark.parametrize("make_model", [uncontrollable_3state, two_state_bench,
                                         aero_engine_discrete])
def test_stationary_law_takes_the_radius_of_its_solve(make_model, monkeypatch):
    # the stationary solve has rho(A - B K) of its gain already: the build
    # passes it on and computes no spectral radius of its own
    model = make_model()
    cost = tracking_cost(model, r=np.full(model.n, 0.1))
    gare = solve_gare(model, cost)
    assert gare.closed_loop_radius == spectral_radius(model.A - model.B @ gare.K)

    def forbidden(mat):
        raise AssertionError("the stationary build computed a spectral radius")

    monkeypatch.setattr(lqdr.control, "spectral_radius", forbidden)
    law = build_controller(ControllerConfig(kind="Stationary"), model, cost,
                           DisturbanceProfile.constant(0.05), 20)
    assert law.closed_loop_radius == gare.closed_loop_radius


def test_built_sfc_law_is_the_baseline_bit_for_bit():
    model = two_state_bench()
    cost = tracking_cost(model)
    k_x, K_d = np.array([[-20.0, -4.0]]), np.array([[-5.0]])
    d = DisturbanceProfile.sinusoid(1.0, 0.2, start_step=5)
    law = build_controller(ControllerConfig(kind="sfc", k_x=k_x, K_d=K_d), model, cost, d, 80)
    built = simulate(model, cost, law, [1.0, -0.5], 80, d)
    ref = simulate(model, cost, lambda k, x, dk: k_x @ x + K_d @ dk, [1.0, -0.5], 80, d)
    assert built.u.tobytes() == ref.u.tobytes()
    assert built.x.tobytes() == ref.x.tobytes()
    assert law.closed_loop_radius == spectral_radius(model.A + model.B @ k_x)


@pytest.mark.parametrize("config", _AFFINE_CONFIGS, ids=lambda c: f"{c.kind}-{c.strict}")
def test_built_law_is_read_only_data_over_its_steps(config):
    model = two_state_bench()
    steps = 30
    law = build_controller(config, model, tracking_cost(model),
                           DisturbanceProfile.constant(3.0, start_step=5), steps)
    assert type(law) is lqdr.control.AffineController
    assert law.K.shape == (steps, model.m, model.n)
    assert law.K_d.shape == (model.m, model.m)
    assert law.u_0.shape == (steps, model.m)
    for arr in (law.K, law.K_d, law.u_0):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0
    x, d = np.array([1.0, 0.0]), np.array([2.0])
    law(0, x, d)
    law(steps - 1, x, d)
    for k in (-1, steps):
        with pytest.raises(IndexError):
            law(k, x, d)


def _affine(K, K_d, u_0, steps=None):
    """An AffineController of per-step arrays, or of one gain and offset broadcast over ``steps``."""
    K, u_0 = np.asarray(K, dtype=float), np.asarray(u_0, dtype=float)
    if steps is not None:
        K = np.broadcast_to(K, (steps,) + K.shape)
        u_0 = np.broadcast_to(u_0, (steps,) + u_0.shape)
    return lqdr.control.AffineController(K=K, K_d=K_d, u_0=u_0, closed_loop_radius=0.0)


@pytest.mark.parametrize("steps", [None, 4], ids=["time_varying", "time_invariant"])
def test_law_returns_positive_zero_on_an_exact_cancellation(steps):
    # -K x = -1 + 1 is +0.0; negating K x + K_d d + u_0 as a whole gives -0.0
    K, u_0 = ([[1.0, 1.0]], [0.0]) if steps else ([[[1.0, 1.0]]] * 4, [[0.0]] * 4)
    law = _affine(K, [[0.0]], u_0, steps)
    for k in range(4):
        u = law(k, np.array([1.0, -1.0]), np.zeros(1))
        assert u.tobytes() == np.zeros(1).tobytes()
        assert not np.signbit(u[0])


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_law_call_is_the_negated_product_byte_for_byte(n, m):
    rng = np.random.default_rng(10 * n + m)
    steps = 3
    # draws from {-1, -0, 0, 1} make exact zeros of either sign common;
    # normal draws cover general rounding
    for draw in [lambda *shape: rng.choice([-1.0, -0.0, 0.0, 1.0], shape)] * 12 \
            + [lambda *shape: rng.standard_normal(shape)] * 2:
        K, u_0 = draw(steps, m, n), draw(steps, m)
        laws = []
        # a drawn K_d, and a zero one of either sign, which the law skips
        for K_d in (draw(m, m), rng.choice([-0.0, 0.0], (m, m))):
            laws += [(_affine(K, K_d, u_0), K, K_d, u_0),
                     (_affine(K[0], K_d, u_0[0], steps), np.broadcast_to(K[0], K.shape), K_d,
                      np.broadcast_to(u_0[0], u_0.shape))]
        # the per-step law reads K, Upsilon_inv and h only
        riccati = SimpleNamespace(horizon=steps - 1, K=K, Upsilon_inv=draw(steps, m, m))
        ff = SimpleNamespace(h=draw(steps, m))
        for k in range(steps):
            for _ in range(4):
                x, d = draw(n), draw(m)
                for law, K_k, K_d, u_0_k in laws:
                    want = -K_k[k] @ x - K_d @ d - u_0_k[k]
                    assert law(k, x, d).tobytes() == want.tobytes()
                want = -K[k] @ x - riccati.Upsilon_inv[k] @ ff.h[k]
                assert finite_horizon_control(k, x, riccati, ff).tobytes() == want.tobytes()


def test_zero_K_d_law_does_not_read_the_disturbance():
    # 0 * nan is nan: only a law with a non-zero K_d passes a NaN d_k on to u
    K, u_0, x, d = np.ones((2, 1, 2)), np.zeros((2, 1)), np.ones(2), np.array([np.nan])
    assert np.array_equal(_affine(K, [[-0.0]], u_0)(1, x, d), [-2.0])
    assert np.isnan(_affine(K, [[1e-300]], u_0)(1, x, d)).all()


@pytest.mark.parametrize("K, K_d, u_0, message", [
    (np.ones((1, 2)), np.zeros((1, 1)), np.zeros((1, 1)), "K must have shape"),
    (np.ones((3, 1, 2)), np.zeros((1, 1)), np.zeros((2, 1)), r"u_0 must have shape \(3, 1\)"),
    (np.ones((3, 1, 2)), np.zeros((1, 1)), np.zeros((3, 2)), r"u_0 must have shape \(3, 1\)"),
    (np.ones((3, 1, 2)), np.zeros(1), np.zeros((3, 1)), r"K_d must have shape \(1, 1\)"),
    (np.ones((3, 1, 2)), np.eye(2), np.zeros((3, 1)), r"K_d must have shape \(1, 1\)"),
    (np.ones((3, 2, 2)), np.zeros((2, 2)), np.zeros(3), r"u_0 must have shape \(3, 2\)"),
], ids=["K_not_stacked", "u_0_short", "u_0_wide", "K_d_flat", "K_d_too_large", "u_0_flat"])
def test_law_refuses_inconsistent_shapes(K, K_d, u_0, message):
    with pytest.raises(ValueError, match=message):
        lqdr.control.AffineController(K=K, K_d=K_d, u_0=u_0, closed_loop_radius=0.0)


def test_time_invariant_law_negates_one_gain():
    steps, K = 1_000_000, np.arange(6.0).reshape(2, 3)
    law = _affine(K, np.eye(2), np.zeros(2), steps)
    rows = law._neg_K_rows
    # one m x n view of one negated gain, at every step: no (steps, m, n) array
    assert len(rows) == steps and rows[steps - 1] is rows[0]
    assert law._u_0_rows[steps - 1] is law._u_0_rows[0]
    assert rows[0].shape == (2, 3) and rows[0].base.size == K.size
    assert np.array_equal(rows[steps - 1], -K)
    varying = _affine(np.stack([K, 2 * K]), np.eye(2), np.zeros((2, 2)))
    assert np.array_equal(varying._neg_K_rows[1], -2 * K)
    for arr in (rows[0], varying._neg_K_rows[1]):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0


# ---------------------------------------------------------------------------
# one law per finite-horizon or receding-horizon problem in a scenario
# ---------------------------------------------------------------------------

def _scenario(model, cost, controllers, steps=30, outputs=("csv", "summary")):
    return lqdr.cli.Scenario(
        name="shared", model=model, cost=cost, x0=np.linspace(1.0, -0.5, model.n), steps=steps,
        disturbance=DisturbanceProfile.constant(0.5, start_step=steps // 3, dim=model.m),
        controllers=list(controllers), outputs=list(outputs), settle_band=1e-3, display={})


def _artifacts(scenario, out_dir):
    """(CSV bytes by file name, summary entry by label, scenario echo) of one run."""
    run_scenario(scenario, out_dir)
    summary = json.loads((out_dir / f"{scenario.name}.summary.json").read_text())
    csvs = {path.name: path.read_bytes() for path in out_dir.glob("*.csv")}
    return csvs, summary["controllers"], summary["scenario"]


def _small_matrix(draw, shape):
    # halves in -1.5..1.5: many exact zeros, so singular Upsilons are common
    return np.array(draw(st.lists(st.integers(-3, 3), min_size=shape[0] * shape[1],
                                  max_size=shape[0] * shape[1])), dtype=float).reshape(shape) / 2


@st.composite
def _shared_problems(draw):
    """A plant (n <= 4, m <= 2) and its finite-horizon and receding-horizon configs, shuffled."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    model = SystemModel(A=_small_matrix(draw, (n, n)), B=_small_matrix(draw, (n, m)),
                        E=_small_matrix(draw, (n, m)), c_o=np.eye(n)[:1])
    C, D, F = (_small_matrix(draw, (n, n)) for _ in range(3))
    cost = CostSpec(Q=C.T @ C, R=D.T @ D, P_terminal=np.zeros((n, n)),
                    r=_small_matrix(draw, (n, 1))[:, 0])
    configs = [ControllerConfig(kind="FiniteHorizon", strict=strict, label=f"fh_{strict}")
               for strict in (True, False)]
    for i, T in enumerate(draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))):
        P_T = draw(st.sampled_from([None, F.T @ F]))
        configs += [ControllerConfig(kind="RecedingHorizon", T=T, P_terminal=P_T,
                                     strict=strict, label=f"rh{i}_{strict}")
                    for strict in (True, False)]
    return model, cost, draw(st.permutations(configs))


@settings(max_examples=60, deadline=None)
@given(problem=_shared_problems())
def test_shared_laws_write_the_bytes_of_one_scenario_per_controller(problem, tmp_path_factory):
    model, cost, configs = problem
    out = tmp_path_factory.mktemp("shared")
    csvs, entries, echo = _artifacts(_scenario(model, cost, configs), out / "together")
    for config in configs:
        alone_csvs, alone, alone_echo = _artifacts(_scenario(model, cost, [config]),
                                                   out / config.label)
        # the echo lists the scenario's controllers, which differ by design
        assert {**alone_echo, "controllers": None} == {**echo, "controllers": None}
        assert json.dumps(entries[config.label]) == json.dumps(alone[config.label])
        name = f"shared.{config.label}.csv"
        assert csvs.get(name) == alone_csvs.get(name)


def test_long_horizon_plant_solves_each_problem_once(monkeypatch, tmp_path):
    _, model, cost, steps, ramp = long_horizon_cases()[0]
    configs = [ControllerConfig(kind="FiniteHorizon", label="finite_horizon"),
               ControllerConfig(kind="FiniteHorizon", strict=False, label="finite_horizon_pinv"),
               ControllerConfig(kind="Stationary")]
    scenario = _scenario(model, cost, configs, steps=steps, outputs=["summary"])
    scenario.disturbance = ramp
    calls = []
    for name in ("solve_finite_horizon", "solve_recursive"):
        _count_calls(monkeypatch, lqdr.control, name, calls)
    _, failures = run_scenario(scenario, tmp_path)
    assert failures == {}
    assert sorted(calls) == ["solve_finite_horizon", "solve_recursive"]


def _singular_upsilon_plant():
    """two_state_bench with R = 0 and P_T = 0: Upsilon_N = 0, consistent in pseudo-inverse mode."""
    model = two_state_bench()
    return model, CostSpec(Q=model.c_o.T @ model.c_o, R=np.zeros((2, 2)),
                           P_terminal=np.zeros((2, 2)), r=np.zeros(2))


@pytest.mark.parametrize("kind, fields", [("FiniteHorizon", {}), ("RecedingHorizon", {"T": 10})],
                         ids=["finite_horizon", "receding_horizon"])
@pytest.mark.parametrize("strict_first", [False, True], ids=["pinv_first", "strict_first"])
def test_strict_build_refuses_a_shared_singular_problem_as_alone(kind, fields, strict_first):
    model, cost = _singular_upsilon_plant()
    profile = DisturbanceProfile.constant(1.0)
    strict = ControllerConfig(kind=kind, label="strict", **fields)
    pinv = ControllerConfig(kind=kind, strict=False, label="pinv", **fields)
    with pytest.raises(SolvabilityError) as alone:
        build_controller(strict, model, cost, profile, 20)

    laws = {}
    for config in ([strict, pinv] if strict_first else [pinv, strict]):
        if config is pinv:
            law = build_controller(pinv, model, cost, profile, 20, laws)
            continue
        with pytest.raises(SolvabilityError) as shared:
            build_controller(strict, model, cost, profile, 20, laws)
        assert (shared.value.step, shared.value.min_eigenvalue) == \
            (alone.value.step, alone.value.min_eigenvalue)
    again = build_controller(pinv, model, cost, profile, 20, laws)
    if kind == "FiniteHorizon":
        # only the pseudo-inverse law is stored, and it serves the next
        # non-strict request
        assert laws == {"finite_horizon": law} and again is law
    else:
        # a receding-horizon law is never stored: each request solves again
        assert laws == {} and again is not law
        for name in ("K", "K_d", "u_0"):
            assert getattr(again, name).tobytes() == getattr(law, name).tobytes()


def test_run_scenario_builds_then_simulates_each_controller_in_order(monkeypatch, tmp_path):
    model, cost = _singular_upsilon_plant()
    configs = [ControllerConfig(kind="FiniteHorizon", strict=False, label="fh_pinv"),
               ControllerConfig(kind="FiniteHorizon", label="fh_strict"),
               ControllerConfig(kind="FiniteHorizon", strict=False, label="fh_again"),
               ControllerConfig(kind="RecedingHorizon", T=10, strict=False, label="rh_pinv"),
               ControllerConfig(kind="RecedingHorizon", T=10, strict=False, label="rh_again"),
               ControllerConfig(kind="Stationary"),
               ControllerConfig(kind="sfc", k_x=[[-20.0, -4.0]], K_d=[[-5.0]])]
    events, laws = [], {}
    build, sim = lqdr.cli.build_controller, lqdr.cli.simulate

    def spy_build(config, *args, **kwargs):
        events.append(("build", config.label))
        laws[config.label] = build(config, *args, **kwargs)
        return laws[config.label]

    def spy_simulate(model, cost, controller, *args, **kwargs):
        events.append(("simulate", id(controller)))
        return sim(model, cost, controller, *args, **kwargs)
    monkeypatch.setattr(lqdr.cli, "build_controller", spy_build)
    monkeypatch.setattr(lqdr.cli, "simulate", spy_simulate)

    _, failures = run_scenario(_scenario(model, cost, configs, outputs=["summary"]), tmp_path)
    assert list(failures) == ["fh_strict"]
    # each build is followed by the simulation of the law it returned, a
    # shared law included; the failed build by the next build
    expected = []
    for config in configs:
        expected.append(("build", config.label))
        if config.label in laws:
            expected.append(("simulate", id(laws[config.label])))
    assert events == expected
    # the first finite-horizon law serves the later non-strict one; each
    # receding-horizon config solves its own problem
    assert laws["fh_pinv"] is laws["fh_again"]
    assert laws["rh_pinv"] is not laws["rh_again"]


def coordinate_change_cases():
    """(model, cost, refusals) of the plants the coordinate-change test maps, m = 1, 2, 3.

    The paper's uncontrollable bench with a reference; two sampled plants
    with dense weights; and the bench with its unreached mode moved to
    1.04 and weighted, where the stationary solve grows without bound.
    ``refusals`` maps each law kind that is refused to its error type.
    """
    bench = uncontrollable_3state()
    cases = [pytest.param(bench, tracking_cost(bench, r=[0.0, 0.5, 0.0]), {},
                          id="uncontrollable_3state")]
    for n, m, seed in ((4, 2, 1), (6, 3, 2)):
        model = sampled_stable_plant(n, m, 0.05, seed=seed)
        rng = np.random.default_rng(seed)
        C = rng.standard_normal((n, n))
        cases.append(pytest.param(model, CostSpec(Q=C.T @ C + np.eye(n), R=np.eye(n),
                                                  P_terminal=np.eye(n), r=rng.standard_normal(n)),
                                  {}, id=f"n{n}_m{m}"))
    A = bench.A.copy()
    A[0, 0] = 1.04
    growing = SystemModel(A=A, B=bench.B, E=bench.E, c_o=bench.c_o)
    cases.append(pytest.param(growing, CostSpec(Q=np.eye(3), R=np.eye(3),
                                                P_terminal=np.zeros((3, 3)), r=np.zeros(3)),
                              {"stationary": ConvergenceError}, id="growing_unreached_mode"))
    return cases


def in_coordinates(model, cost, T):
    """The problem in the state x' = T x: every map and weight carried along."""
    T_inv = np.linalg.inv(T)
    return (SystemModel(A=T @ model.A @ T_inv, B=T @ model.B, E=T @ model.E,
                        c_o=model.c_o @ T_inv),
            CostSpec(Q=T_inv.T @ cost.Q @ T_inv, R=T_inv.T @ cost.R @ T_inv,
                     P_terminal=T_inv.T @ cost.P_terminal @ T_inv, r=T @ cost.r))


#: The largest deviation of u and z accepted under a change of coordinates T,
#: relative and in units of eps cond(T).  The test's 16 draws per plant reach
#: 2.6e3 and the first 150 draws 1.4e4, both on the growing plant's
#: finite-horizon law
COORDINATE_CHANGE_MULTIPLE = 5e4


@pytest.mark.parametrize("model, cost, refusals", coordinate_change_cases())
def test_laws_are_invariant_under_a_change_of_state_coordinates(model, cost, refusals):
    # u = -K x - ... and z = c_o x do not depend on the state's coordinates:
    # the feedback K' = K T^-1 and the feedforward, coupled to the pass by
    # K', carry over, so each law's verdict holds and u and z move only by
    # rounding, which grows with cond(T)
    configs = [ControllerConfig(kind="finite_horizon"),
               ControllerConfig(kind="receding_horizon", T=20),
               ControllerConfig(kind="stationary")]
    profile = DisturbanceProfile.constant(0.7, start_step=10, dim=model.m)
    steps, eps = 60, np.finfo(float).eps

    def run(model, cost, x0, config):
        try:
            law = build_controller(config, model, cost, profile, steps)
        except LqdrError as exc:
            return type(exc)
        return simulate(model, cost, law, x0, steps, profile)

    for seed in range(16):
        rng = np.random.default_rng(seed)
        T = rng.standard_normal((model.n, model.n))
        while np.linalg.cond(T) > 50:
            T = rng.standard_normal((model.n, model.n))
        x0 = rng.standard_normal(model.n)
        mapped = in_coordinates(model, cost, T)
        bound = COORDINATE_CHANGE_MULTIPLE * eps * np.linalg.cond(T)
        with warnings.catch_warnings():
            # the growing plant is not detectable in either coordinates
            warnings.simplefilter("ignore", UserWarning)
            for config in configs:
                base, moved = run(model, cost, x0, config), run(*mapped, T @ x0, config)
                if config.kind in refusals:
                    assert base is moved is refusals[config.kind], (seed, config.kind)
                    continue
                assert rel_close(moved.u, base.u, bound), (seed, config.kind)
                assert rel_close(moved.z, base.z, bound), (seed, config.kind)
