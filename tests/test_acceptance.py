"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-4 verify the optimal controller against independent oracles on a
shared corpus of 100 random strictly-solvable instances.  Criteria 5-6 check
the stationary solve.  Criteria 7-10 reproduce the four bundled benchmark
scenarios at their pinned parameters.  Criterion 11 checks long-run
boundedness under the stationary law.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they print.
"""

import numpy as np
import pytest

from conftest import (lqr_textbook_gains, rel_gap, stationary_control, step_blocks,
                      tracking_cost, two_state_bench)
from lqdr import (CostSpec, SolvabilityError, SystemModel,
                  MATCHED, brute_force_optimal, build_controller,
                  classify_disturbance, costate_residuals, draw_instance,
                  evaluate_cost, finite_horizon_control,
                  predicted_optimal_cost, simulate, solve_closed_form,
                  solve_finite_horizon, solve_gare, solve_recursive,
                  solve_steady)
from lqdr.cli import bundled_scenario_path, load_scenario, trajectory_metrics

GOLDEN = (1 + np.sqrt(5)) / 2
CORPUS_SIZE = 100


def _report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def corpus():
    """100 random strict instances with all controller/oracle artifacts.

    Draws are rejected when any Upsilon_k has an eigenvalue below 1e-6 (done
    inside draw_instance) or when the oracle's normal equations are too ill
    conditioned for 1e-8 agreement to be a meaningful float64 statement.
    """
    rng = np.random.default_rng(20240)
    entries = []
    while len(entries) < CORPUS_SIZE:
        inst = draw_instance(rng)
        try:
            oracle = brute_force_optimal(inst.model, inst.cost, inst.x0,
                                         inst.d, inst.N)
        except SolvabilityError:
            continue
        if oracle.condition > 1e6:
            continue
        riccati = solve_finite_horizon(inst.model, inst.cost, inst.N, strict=True)
        ff = solve_recursive(riccati, inst.model, inst.cost, inst.d)
        traj = simulate(inst.model, inst.cost,
                        lambda k, x, dk, r=riccati, f=ff: finite_horizon_control(k, x, r, f),
                        inst.x0, inst.N + 1, inst.d)
        entries.append({"inst": inst, "riccati": riccati, "ff": ff,
                        "traj": traj, "oracle": oracle})
    return entries


@pytest.fixture(scope="module")
def bench_runs():
    """Closed-loop runs of every controller in the four bundled scenarios."""
    runs = {}
    for name in ("example_a", "example_b", "example_c", "example_d"):
        scenario = load_scenario(bundled_scenario_path(name))
        runs[name] = {"scenario": scenario, "traj": {}}
        for config in scenario.controllers:
            controller = build_controller(config, scenario.model, scenario.cost,
                                          scenario.disturbance, scenario.steps)
            runs[name]["traj"][config.label] = simulate(
                scenario.model, scenario.cost, controller, scenario.x0,
                scenario.steps, scenario.disturbance)
    return runs


def test_criterion_1_oracle_equivalence(corpus):
    worst_u = 0.0
    worst_cost = 0.0
    for entry in corpus:
        inst, oracle, traj = entry["inst"], entry["oracle"], entry["traj"]
        u_gap = rel_gap(traj.u.reshape(-1), oracle.u_opt)
        J_sim = evaluate_cost(traj, inst.cost)
        J_pred = predicted_optimal_cost(entry["riccati"], entry["ff"], inst.x0,
                                        inst.model, inst.cost, inst.d)
        cost_gap = max(rel_gap([J_sim], [J_pred]),
                       rel_gap([J_sim], [oracle.J_opt]),
                       rel_gap([J_pred], [oracle.J_opt]))
        worst_u = max(worst_u, u_gap)
        worst_cost = max(worst_cost, cost_gap)
    ok = worst_u <= 1e-8 and worst_cost <= 1e-8
    _report(1, ok, f"{len(corpus)} instances; input gap {worst_u:.2e}, "
                   f"cost triangle gap {worst_cost:.2e} (tol 1e-8)")
    assert worst_u <= 1e-8
    assert worst_cost <= 1e-8


def test_criterion_2_first_order_conditions(corpus):
    worst_stat = 0.0
    worst_link = 0.0
    for entry in corpus:
        stat, link = costate_residuals(entry["traj"], entry["riccati"],
                                       entry["ff"], entry["inst"].model,
                                       entry["inst"].cost)
        worst_stat = max(worst_stat, stat)
        worst_link = max(worst_link, link)
    ok = worst_stat <= 1e-8 and worst_link <= 1e-8
    _report(2, ok, f"stationarity {worst_stat:.2e}, costate link {worst_link:.2e} "
                   f"(tol 1e-8)")
    assert worst_stat <= 1e-8
    assert worst_link <= 1e-8


def test_criterion_3_closed_form_equivalence(corpus):
    worst = 0.0
    for entry in corpus:
        inst = entry["inst"]
        closed = solve_closed_form(entry["riccati"], inst.model, inst.cost, inst.d)
        gap = max(float(np.max(np.abs(closed.h - entry["ff"].h))),
                  float(np.max(np.abs(closed.f - entry["ff"].f))))
        worst = max(worst, gap)
    ok = worst <= 1e-9
    _report(3, ok, f"explicit sums vs backward recursion: gap {worst:.2e} (tol 1e-9)")
    assert worst <= 1e-9


def test_criterion_4_lqr_reduction(corpus):
    worst = 0.0
    for entry in corpus:
        inst = entry["inst"]
        R_u = inst.model.B.T @ inst.cost.R @ inst.model.B
        gains, _ = lqr_textbook_gains(inst.model.A, inst.model.B, inst.cost.Q,
                                      R_u, inst.cost.P_terminal, inst.N)
        for k in range(inst.N + 1):
            worst = max(worst, float(np.max(np.abs(entry["riccati"].K[k] - gains[k]))))
    ok = worst <= 1e-10
    _report(4, ok, f"gains vs independent textbook recursion: gap {worst:.2e} "
                   f"(tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_5_stationary_equation():
    model = two_state_bench()
    cost = tracking_cost(model)
    gare = solve_gare(model, cost, tol=1e-12)
    scalar = solve_gare(SystemModel(A=[[1.0]], B=[[1.0]], E=[[1.0]], c_o=[[1.0]]),
                        CostSpec(Q=[[1.0]], R=[[1.0]], P_terminal=[[0.0]], r=[0.0]))
    golden_gap = abs(scalar.P[0, 0] - GOLDEN)
    ok = (gare.residual <= 1e-10 and gare.closed_loop_radius < 1
          and golden_gap <= 1e-10)
    _report(5, ok, f"bench residual {gare.residual:.2e}, radius "
                   f"{gare.closed_loop_radius:.4f}; golden-ratio gap {golden_gap:.2e}")
    assert gare.residual <= 1e-10
    assert gare.closed_loop_radius < 1
    assert golden_gap <= 1e-10


def test_criterion_6_matched_disturbance_cancellation():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(5):
        n, m = 3, 2
        G = rng.standard_normal((n, n))
        A = G * (0.85 / max(np.max(np.abs(np.linalg.eigvals(G))), 1e-9))
        B = rng.standard_normal((n, m))
        E = B @ rng.standard_normal((m, m))
        model = SystemModel(A=A, B=B, E=E, c_o=np.eye(n))
        assert classify_disturbance(B, E) == MATCHED
        cost = CostSpec(Q=np.eye(n), R=np.eye(n), P_terminal=np.zeros((n, n)),
                        r=np.zeros(n))
        gare = solve_gare(model, cost)
        d = rng.standard_normal(m)
        h, _ = solve_steady(gare, model, cost, d)
        steps = 3000
        traj = simulate(model, cost,
                        lambda k, x, dk: stationary_control(x, gare, h),
                        rng.standard_normal(n), steps, np.tile(d, (steps, 1)))
        channel = traj.u @ B.T + traj.d @ E.T
        worst = max(worst, float(np.max(np.linalg.norm(channel[-100:], axis=1))))
    ok = worst <= 1e-6
    _report(6, ok, f"steady ||B u + E d|| {worst:.2e} over matched draws (tol 1e-6)")
    assert worst <= 1e-6


def test_criterion_7_uncontrollable_bench_rejection(bench_runs):
    traj = bench_runs["example_a"]["traj"]["receding_horizon"]
    x2_tail = float(np.max(np.abs(traj.x[900:, 1])))
    bound = 0.96 ** np.arange(traj.steps + 1) * abs(traj.x[0, 0]) + 1e-9
    x1_ok = bool(np.all(np.abs(traj.x[:, 0]) <= bound))
    ok = x2_tail <= 1e-3 and x1_ok
    _report(7, ok, f"regulated tail max {x2_tail:.2e} (tol 1e-3); "
                   f"uncontrolled state geometric: {x1_ok}")
    assert x2_tail <= 1e-3
    assert x1_ok


def test_criterion_8_constant_disturbance_comparison(bench_runs):
    scenario = bench_runs["example_b"]["scenario"]
    trajs = bench_runs["example_b"]["traj"]
    prop = float(np.mean(np.abs(trajs["receding_horizon"].x[900:1001, 0])))
    base = float(np.mean(np.abs(trajs["sfc"].x[900:1001, 0])))
    prop_m, base_m = (trajectory_metrics(trajs[label], onset=scenario.disturbance.start_step,
                                         settle_band=scenario.settle_band)
                      for label in ("receding_horizon", "sfc"))
    ok_level = prop <= 1e-3
    ok_cost = prop_m["J"] < base_m["J"]
    prop_settle, base_settle = prop_m["settling_step"], base_m["settling_step"]
    ok_settle = (prop_settle is not None and base_settle is not None
                 and prop_settle <= base_settle)
    _report(8, ok_level and ok_cost and ok_settle,
            f"steady mean |x1|: proposed {prop:.2e} (tol 1e-3), baseline {base:.2e}; "
            f"J {prop_m['J']:.2f} vs {base_m['J']:.2f}; settling after onset "
            f"{prop_settle} vs {base_settle} (band +/-{scenario.settle_band:g})")
    assert ok_level, f"proposed steady error {prop:.3e} exceeds 1e-3"
    # The two laws are ranked on what the optimal law promises, not on the
    # far tail.  The compensation gain K_d = -5 satisfies
    # c_o (A + B k_x - I)^{-1} (E + B K_d) = 0, so the baseline's equilibrium
    # regulated error is zero; the ~1e-5 left in steps 900-1000 is the tail of
    # its ring-down, which decays with spectral radius 0.976.  The optimal
    # law's index prices the channel effort B u + E d as well as the tracking
    # error, so its equilibrium trades one against the other and holds x1
    # near 2e-4 * d (6.0e-4 stationary, 6.7e-4 at T = 100 with R = I).  The
    # far-tail |x1| therefore cannot rank the two laws; the index J and the
    # settling step after onset can.
    assert ok_cost, (f"proposed cost {prop_m['J']:.4g} is not below the "
                     f"baseline's {base_m['J']:.4g}")
    assert ok_settle, (f"proposed settling step {prop_settle} is later than "
                       f"the baseline's {base_settle}")


def test_criterion_9_sinusoid_disturbance_comparison(bench_runs):
    trajs = bench_runs["example_c"]["traj"]
    window = slice(1500, 2001)
    rms = lambda z: float(np.sqrt(np.mean(z ** 2)))
    prop = rms(trajs["receding_horizon"].z[window, 0])
    base = rms(trajs["sfc"].z[window, 0])
    ok = prop <= 0.25 * base
    _report(9, ok, f"RMS regulated output: proposed {prop:.2e} vs baseline "
                   f"{base:.2e} (need ratio <= 0.25, got {prop / base:.3f})")
    assert ok


def test_criterion_10_sampled_plant_vs_pid(bench_runs):
    scenario = bench_runs["example_d"]["scenario"]
    trajs = bench_runs["example_d"]["traj"]
    ramp_end = 26  # nozzle area still moving through step 25
    peak = {label: float(np.max(np.abs(t.z[:ramp_end, 0])))
            for label, t in trajs.items()}
    settle = {label: trajectory_metrics(t, onset=0, settle_band=scenario.settle_band)
              ["settling_step"]
              for label, t in trajs.items()}
    ok_peak = peak["finite_horizon"] < peak["pid"]
    ok_settle = (settle["finite_horizon"] is not None and settle["pid"] is not None
                 and settle["finite_horizon"] <= settle["pid"])
    _report(10, ok_peak and ok_settle,
            f"ramp peak: optimal {peak['finite_horizon']:.2e} vs PID "
            f"{peak['pid']:.2e}; settling {settle['finite_horizon']} vs "
            f"{settle['pid']} (band +/-0.001)")
    assert ok_peak
    assert ok_settle


def test_criterion_11_bounded_operation():
    model = two_state_bench()
    cost = tracking_cost(model)
    gare = solve_gare(model, cost)
    steps = 10_000
    margin = 1000  # keeps the backward pass's terminal layer out of the window
    ks = np.arange(steps + margin)
    d = np.sin(ks / 50.0).reshape(-1, 1)

    # infinite-horizon feedforward: backward pass with the stationary value
    # matrices, which is the limit the finite-horizon tail approaches
    A, B, E = model.A, model.B, model.E
    Upsilon, M = step_blocks(model, cost, gare.P)
    pinv = np.linalg.pinv(Upsilon, rcond=1e-10)
    h_seq = np.zeros((steps + margin, 1))
    f = np.zeros(2)
    for k in range(steps + margin - 1, -1, -1):
        Ed = E @ d[k]
        h_seq[k] = B.T @ (cost.R + gare.P) @ Ed + B.T @ f
        f = A.T @ gare.P @ Ed + A.T @ f - M.T @ (pinv @ h_seq[k])
    h_seq = h_seq[:steps]

    traj = simulate(model, cost,
                    lambda k, x, dk: stationary_control(x, gare, h_seq[k]),
                    [1.0, 0.0], steps, d[:steps])
    norms_x = np.linalg.norm(traj.x, axis=1)
    norms_h = np.abs(h_seq[:, 0])
    finite = bool(np.all(np.isfinite(norms_x)) and np.all(np.isfinite(norms_h)))

    post = slice(2000, None)  # transient discarded
    xs, hs = norms_x[post], norms_h[post]
    decile_x = (float(np.max(xs[: xs.size // 10])), float(np.max(xs[-xs.size // 10:])))
    decile_h = (float(np.max(hs[: hs.size // 10])), float(np.max(hs[-hs.size // 10:])))
    ok = (finite and decile_x[1] <= decile_x[0] * 1.01
          and decile_h[1] <= decile_h[0] * 1.01)
    _report(11, ok, f"sup||x|| {np.max(norms_x):.3f}, sup||h|| {np.max(norms_h):.3f}; "
                    f"decile drift x {decile_x[1] / decile_x[0]:.4f}, "
                    f"h {decile_h[1] / decile_h[0]:.4f} (<= 1.01)")
    assert finite
    assert decile_x[1] <= decile_x[0] * 1.01
    assert decile_h[1] <= decile_h[0] * 1.01
