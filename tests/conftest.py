"""Shared builders for the benchmark systems used across the test modules."""

import numpy as np

from lqdr import CostSpec, SystemModel, discretize_zoh


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
