"""Shared builders for the benchmark systems used across the test modules."""

import numpy as np

from lqdr import CostSpec, DisturbanceProfile, SystemModel, discretize_zoh
from lqdr.riccati import REGULARITY_TOL, _backward_step, _regularity_defect, _sym


def uncontrollable_3state():
    """Stable-but-uncontrollable plant: first state untouched by B and E."""
    return SystemModel(
        A=[[0.96, 0.0, 0.0], [0.0, 1.0, 0.01], [0.0, -0.02, 0.99]],
        B=[[0.0], [0.0], [0.01]],
        E=[[0.0], [0.01], [0.0]],
        c_o=[[0.0, 1.0, 0.0]],
    )


def two_state_bench(c_scale=1.0):
    """Controllable two-state plant with the disturbance on the other channel."""
    return SystemModel(
        A=[[1.0, 0.01], [-0.02, 0.99]],
        B=[[0.0], [0.01]],
        E=[[0.01], [0.0]],
        c_o=[[c_scale, 0.0]],
    )


def aero_engine_continuous():
    """Continuous-time twin-rotor deviation model and its selector."""
    A_c = np.array([[-1.76, -1.34], [2.70, -7.21]])
    B_c = np.array([[0.57], [0.82]])
    E_c = np.array([[0.98], [2.26]])
    c_o = np.array([[0.0, 1.0]])
    return A_c, B_c, E_c, c_o


def aero_engine_discrete(Ts=0.02):
    A_c, B_c, E_c, c_o = aero_engine_continuous()
    return discretize_zoh(A_c, B_c, E_c, Ts, c_o=c_o)


def sampled_stable_plant(n, m, Ts, seed=0):
    """ZOH-sampled dense plant whose continuous A has symmetric part below -2 I."""
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((n, n))
    K = rng.standard_normal((n, n))
    A_c = -(S @ S.T / n + 2.0 * np.eye(n)) + 0.5 * (K - K.T)
    return discretize_zoh(A_c, rng.standard_normal((n, m)), rng.standard_normal((n, m)),
                          Ts, c_o=np.eye(n)[:m])


#: (n, m, steps) and sample times of the benchmark's long-horizon plants.
LONG_HORIZON_SIZES = ((2, 1, 2000), (8, 2, 1000), (32, 4, 500))
LONG_HORIZON_TS = (0.02, 0.001)


def long_horizon_cases():
    """(id, model, cost, steps, ramp) for plants shaped like the long-horizon runs.

    Seed 1000 + n draws the benchmark's base plant of that size; Q = R = I
    and P_T = 0 as there, with a non-zero reference so the feedforward's
    Q r term is exercised.
    """
    cases = []
    for n, m, steps in LONG_HORIZON_SIZES:
        for Ts in LONG_HORIZON_TS:
            model = sampled_stable_plant(n, m, Ts, seed=1000 + n)
            r = np.random.default_rng(n).standard_normal(n)
            cost = CostSpec(Q=np.eye(n), R=np.eye(n), P_terminal=np.zeros((n, n)), r=r)
            ramp = DisturbanceProfile.ramp(0.002, 0.5, start_step=steps // 20, dim=m)
            cases.append((f"n{n}_Ts{Ts:g}", model, cost, steps, ramp))
    return cases


def tracking_cost(model, r=None):
    """Q = c_o' c_o, R = I, zero terminal weight."""
    return CostSpec.from_model(model, R=np.eye(model.n), r=r)


def lqr_textbook_gains(A, B, Q, R_u, P_terminal, N):
    """Independent standard LQR recursion with an explicit input weight.

    Deliberately coded from the textbook form (not shared with the package)
    so gain comparisons against it are meaningful.
    """
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    S = np.asarray(P_terminal, float)
    gains = [None] * (N + 1)
    for k in range(N, -1, -1):
        G = R_u + B.T @ S @ B
        K = np.linalg.solve(G, B.T @ S @ A)
        S = Q + A.T @ S @ A - A.T @ S @ B @ K
        S = (S + S.T) / 2
        gains[k] = K
    return gains, S


def rel_gap(a, b):
    """Scale-aware gap used for cost and input comparisons."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    return float(np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(a)), np.max(np.abs(b))))


# ---------------------------------------------------------------------------
# step-by-step reference loops: each computes every product inside its loop,
# in the order the batched code in the package must reproduce
# ---------------------------------------------------------------------------

def reference_finite_horizon(model, cost, N, strict=True):
    """The backward Riccati pass run for every step, with no early stop."""
    n, m = model.n, model.m
    P = np.zeros((N + 2, n, n))
    Upsilon = np.zeros((N + 1, m, m))
    M = np.zeros((N + 1, m, n))
    Upsilon_inv = np.zeros((N + 1, m, m))
    K = np.zeros((N + 1, m, n))
    P[N + 1] = _sym(cost.P_terminal)
    for k in range(N, -1, -1):
        Upsilon[k], M[k], Upsilon_inv[k], K[k], P[k] = _backward_step(
            P[k + 1], model.A, model.B, cost.Q, cost.R, strict, k)
        if not strict:
            assert _regularity_defect(Upsilon[k], Upsilon_inv[k], M[k], REGULARITY_TOL)[1]
    return P, Upsilon, M, Upsilon_inv, K


def reference_feedforward(riccati, model, cost, d_seq):
    """(h, f) with every product of both backward equations formed per step."""
    A, B, E = model.A, model.B, model.E
    Q, R, r = cost.Q, cost.R, cost.r
    N = riccati.horizon
    h = np.zeros((N + 1, model.m))
    f = np.zeros((N + 2, model.n))
    f[N + 1] = -riccati.P[N + 1] @ r
    for k in range(N, -1, -1):
        h[k] = B.T @ (R + riccati.P[k + 1]) @ (E @ d_seq[k]) + B.T @ f[k + 1]
        f[k] = (A.T @ (riccati.P[k + 1] @ (E @ d_seq[k])) + A.T @ f[k + 1]
                - riccati.M[k].T @ riccati.upsilon_solve(k, h[k]) - Q @ r)
    return h, f


def reference_simulate(model, cost, controller, x0, d_seq):
    """(x, u, z, cost_cum) with the stage cost summed inside the loop."""
    steps = d_seq.shape[0]
    x = np.zeros((steps + 1, model.n))
    u = np.zeros((steps, model.m))
    cost_cum = np.zeros(steps)
    x[0] = x0
    running = 0.0
    for k in range(steps):
        u[k] = np.asarray(controller(k, x[k], d_seq[k]), dtype=float).reshape(-1)
        w = model.B @ u[k] + model.E @ d_seq[k]
        err = x[k] - cost.r
        running += float(err @ cost.Q @ err + w @ cost.R @ w)
        cost_cum[k] = running
        x[k + 1] = model.A @ x[k] + w
    return x, u, x @ model.c_o.T, cost_cum
