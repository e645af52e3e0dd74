"""Shared builders for the benchmark systems used across the test modules."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import settings

from lqdr import (CostSpec, DisturbanceProfile, RegularityError, SolvabilityError,
                  SystemModel, discretize_zoh, disturbance_sequence,
                  finite_horizon_control, solve_finite_horizon, solve_recursive)
from lqdr.cli import _PALETTE
from lqdr.riccati import (PINV_RCOND, REGULARITY_TOL, _backward_step, _eig_inverse, _eigh,
                          _kept, _step_constants, _sym)

# every run of one commit draws the same examples and replays no stored
# failure, so it gives one verdict; ``--hypothesis-profile=default`` (with
# ``--hypothesis-seed``) explores new ones
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


def uncontrollable_3state():
    """Stable-but-uncontrollable plant: first state untouched by B and E."""
    return SystemModel(
        A=[[0.96, 0.0, 0.0], [0.0, 1.0, 0.01], [0.0, -0.02, 0.99]],
        B=[[0.0], [0.0], [0.01]],
        E=[[0.0], [0.01], [0.0]],
        c_o=[[0.0, 1.0, 0.0]],
    )


def singular_doubling_plant():
    """(model, cost) whose doubling step meets a singular I + G_k H_k, Q = R = I.

    Its mode at 1.3046 is reached by no input and weighted by Q, so the
    stationary P grows without bound.
    """
    model = SystemModel(
        A=[[-2.2543129687547703, -0.16872094474238428, 3.8187934677611115],
           [-0.3802834258071921, -1.369457236475394, 1.1423932343928556],
           [-1.3177605827394792, -0.49062978524448553, 2.8369618207809775]],
        B=[[2.880494729887745], [-2.0121949570396005], [0.6925761510836785]],
        E=[[1.0], [0.0], [0.0]],
        c_o=np.eye(3),
    )
    return model, CostSpec.from_model(model, R=np.eye(3))


def kalman_decomposed_plant(rng):
    """(model, cost, s, cond(T)): a plant in Kalman form mapped by T, Q = R = I.

    A controllable companion block (n_c <= 3, m = 1) is coupled to n_u <= 2
    uncontrollable modes s ~ U(-1.4, 1.4), each at least 0.05 from the unit
    circle, and the whole plant is mapped by a random T with cond(T) <= 50.
    """
    n_c, n_u = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    n = n_c + n_u
    s = rng.uniform(-1.4, 1.4, n_u)
    while np.any(np.abs(np.abs(s) - 1.0) < 0.05):
        s = rng.uniform(-1.4, 1.4, n_u)
    A = np.zeros((n, n))
    A[:n_c, :n_c] = np.diag(np.ones(n_c - 1), 1)
    A[n_c - 1, :n_c] = rng.uniform(-1.5, 1.5, n_c)
    A[:n_c, n_c:] = rng.standard_normal((n_c, n_u))
    A[n_c:, n_c:] = np.diag(s)
    B = np.eye(n)[:, n_c - 1:n_c]
    T = rng.standard_normal((n, n))
    while np.linalg.cond(T) > 50:
        T = rng.standard_normal((n, n))
    model = SystemModel(A=T @ A @ np.linalg.inv(T), B=T @ B,
                        E=T @ rng.standard_normal((n, 1)), c_o=np.eye(n))
    cost = CostSpec(Q=np.eye(n), R=np.eye(n), P_terminal=np.zeros((n, n)), r=np.zeros(n))
    return model, cost, s, np.linalg.cond(T)


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


def free_effort_plant():
    """``aero_engine_discrete()`` with Q = I and R = 0, P_T = 0, r = 0.

    B' R B is singular, so the stationary solve takes value iteration, not
    doubling.
    """
    model = aero_engine_discrete()
    n = model.n
    return model, CostSpec(Q=np.eye(n), R=np.zeros((n, n)), P_terminal=np.zeros((n, n)),
                           r=np.zeros(n))


def kept_span_problem():
    """(model, cost, x0, d) of a non-strict N = 2 problem whose kept eigenvalues span 1e-9.

    B = [b, b + 2^-15 e, 2 b + 2^-15 e], exactly, with e = (0, 1, -1) and
    semidefinite weights: each Upsilon_k drops the eigenvalue of (1, 1, -1)
    and keeps two about 1e-9 apart, in directions no axis holds.
    """
    b, e = np.array([1.0, 0.5, 0.25]), 2.0 ** -15 * np.array([0.0, 1.0, -1.0])
    B = np.column_stack([b, b + e, 2 * b + e])
    model = SystemModel(A=[[0.5, 0.25, 0.0], [-0.5, 0.0, 1.0], [0.0, 0.5, -0.25]], B=B,
                        E=[[1.0, 0.0, -0.5], [0.5, 1.0, 0.0], [0.0, -1.0, 1.0]], c_o=np.eye(3)[:1])
    cost = CostSpec(Q=np.eye(3), R=np.zeros((3, 3)), P_terminal=np.eye(3), r=[1.0, -0.5, 0.5])
    x0, d = np.array([0.5, -1.0, 0.0]), np.array([[1.0, 0.5, -1.0], [0.0, 1.0, 0.5],
                                                 [-0.5, 0.0, 1.0]])
    return model, cost, x0, d


def repeated_column_problem():
    """(model, cost, d) of an n = 3 plant whose B repeats its first column, over N = 400.

    Q = R = P_T = I.  Every Upsilon_k has rank 1, so a non-strict pass drops
    one eigenvalue at every step; the pass stops where P first repeats,
    before step 0.
    """
    base = sampled_stable_plant(3, 2, 0.02, seed=7)
    B = np.array(base.B)
    B[:, 1] = B[:, 0]
    model = SystemModel(A=base.A, B=B, E=base.E, c_o=base.c_o)
    cost = CostSpec(Q=np.eye(3), R=np.eye(3), P_terminal=np.eye(3), r=[1.0, -0.5, 0.25])
    return model, cost, np.random.default_rng(7).standard_normal((401, 2))


def stable_dense_A_c(n, rng):
    """Dense continuous-time A whose symmetric part is below -2 I."""
    S = rng.standard_normal((n, n))
    K = rng.standard_normal((n, n))
    return -(S @ S.T / n + 2.0 * np.eye(n)) + 0.5 * (K - K.T)


def sampled_stable_plant(n, m, Ts, seed=0):
    """ZOH-sampled dense plant with a ``stable_dense_A_c``."""
    rng = np.random.default_rng(seed)
    A_c = stable_dense_A_c(n, rng)
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


def oracle_cases():
    """(id, model, cost, x0, d_seq, N) for comparing the verification layers.

    The uncontrollable bench at N = 100 with a reference and a late step,
    and the n = 8, Ts = 20 ms long-horizon plant cut to N = 200: the
    brute-force oracle's lifted matrix grows as N^2.
    """
    model = uncontrollable_3state()
    cost = tracking_cost(model, r=[0.0, 0.5, 0.0])
    cases = [("uncontrollable_3state", model, cost, np.array([1.0, 0.5, -0.2]),
              disturbance_sequence(DisturbanceProfile.constant(3.0, start_step=50), 101),
              100)]
    for name, model, cost, _, ramp in long_horizon_cases():
        if name == "n8_Ts0.02":
            x0 = np.random.default_rng(8).standard_normal(model.n)
            cases.append((name, model, cost, x0,
                          disturbance_sequence(ramp, 201, dim=model.m), 200))
    return cases


def rel_close(got, want, bound):
    """max|got - want| <= bound * max|want|, or <= bound where want is all zero."""
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) <= bound * (scale if scale > 0 else 1.0)


def tracking_cost(model, r=None):
    """Q = c_o' c_o, R = I, zero terminal weight."""
    return CostSpec.from_model(model, R=np.eye(model.n), r=r)


def scaled_weight_probes(scale):
    """(indefinite, skewed) 2 x 2 weights, each times ``scale``.

    ``indefinite`` is diag(1, -1e-3).  ``skewed`` is a positive definite
    weight with entries near 1e6 whose off-diagonal pair differs by 50 ulp.
    """
    skewed = np.array([[2e6, 1e6], [1e6, 2e6]])
    skewed[0, 1] += 50 * np.spacing(1e6)
    return np.diag([1.0, -1e-3]) * scale, skewed * scale


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
# per-step definitions that the package computes another way
# ---------------------------------------------------------------------------

def sample_disturbance(profile, k):
    """A disturbance profile at step ``k`` (an m-vector), by its definition."""
    if k < 0:
        raise ValueError("step index must be >= 0")
    if k < profile.start_step:
        return np.zeros(profile.dim)
    t = k - profile.start_step
    if profile.kind == "constant":
        return np.full(profile.dim, profile.amplitude)
    if profile.kind == "sinusoid":
        return np.full(profile.dim, profile.amplitude * math.sin(profile.rate * t))
    if profile.kind == "ramp":
        value = profile.rate * t
        if profile.rate >= 0:
            value = min(value, profile.limit)
        else:
            value = max(value, profile.limit)
        return np.full(profile.dim, value)
    return profile.values[min(t, profile.values.shape[0] - 1)].copy()


def check_regularity(Upsilon, M, tol):
    """True iff ||Upsilon Upsilon^+ M - M|| <= tol * ||M|| (Frobenius).

    The backward step's consistency test as a function of one pair: the
    test is relative, with no floor, so scaling M changes no verdict.
    ``Upsilon`` must be exactly symmetric, as every Upsilon_k is.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    Upsilon = np.atleast_2d(np.asarray(Upsilon, dtype=float))
    if not np.array_equal(Upsilon, Upsilon.T):
        raise ValueError("Upsilon must be symmetric")
    M = np.atleast_2d(np.asarray(M, dtype=float))
    w, V = _eigh(Upsilon)
    return bool(_eig_inverse(w, V, M, w[0] > PINV_RCOND * w[-1])[1] <= tol * np.linalg.norm(M))


# ---------------------------------------------------------------------------
# step-by-step reference loops: each computes every product inside its loop,
# in the order the batched code in the package must reproduce
# ---------------------------------------------------------------------------

def gram_blocks(P_next, AB, W):
    """(Upsilon, M, H) of the step from P_{k+1} = ``P_next``, each product a fresh array.

    H = W + G with the Gram product G = sym(AB' P_next AB); Upsilon =
    B' (R + P_{k+1}) B is H's lower-right block, and M = B' P_{k+1} A is
    G's lower-left one, read before W is added.  These are the bytes of the
    Upsilon and M the backward step forms in its scratch.
    """
    n = P_next.shape[0]
    dot = np.ndarray.dot if n > 1 else np.matmul
    G = _sym(dot(AB.T, dot(P_next, AB)))
    H = W + G
    return H[n:, n:], G[n:, :n], H


def step_blocks(model, cost, P_next):
    """(Upsilon, M) of the steps from ``P_next``, one P_{k+1} or a stack, rebuilt per step.

    Upsilon_k = B' (R + P_{k+1}) B and M_k = B' P_{k+1} A, as ``gram_blocks``
    forms them: a solution keeps neither, so a test rebuilds them from P.
    """
    AB, W = _step_constants(model.A, model.B, cost.Q, cost.R)
    if np.ndim(P_next) == 2:
        return gram_blocks(P_next, AB, W)[:2]
    Upsilon, M = zip(*(gram_blocks(P, AB, W)[:2] for P in P_next))
    return np.array(Upsilon), np.array(M)


def reference_finite_horizon(model, cost, N, strict=True):
    """The backward Riccati pass run for every step, with no early stop.

    Returns (Upsilon_eig, Upsilon_inv, K, P, Upsilon_dropped), the order of
    the step's outputs.
    """
    n, m = model.n, model.m
    AB, W = _step_constants(model.A, model.B, cost.Q, cost.R)
    P = np.zeros((N + 2, n, n))
    Upsilon_eig = np.zeros((N + 1, m))
    Upsilon_inv = np.zeros((N + 1, m, m))
    K = np.zeros((N + 1, m, n))
    Upsilon_dropped = np.zeros((N + 1, m, m))
    P[N + 1] = _sym(cost.P_terminal)
    for k in range(N, -1, -1):
        Upsilon_eig[k], Upsilon_inv[k], K[k], P[k], Upsilon_dropped[k], defect = \
            _backward_step(P[k + 1], AB, W, strict, k)
        assert defect <= REGULARITY_TOL * np.linalg.norm(gram_blocks(P[k + 1], AB, W)[1])
    return Upsilon_eig, Upsilon_inv, K, P, Upsilon_dropped


def reference_gram_step(P_next, AB, W, strict, k=None):
    """``_backward_step`` with a fresh array per sum and product, M a view of G.

    Returns (Upsilon_eig, Upsilon_inv, K, P, Upsilon_dropped, defect): the
    bytes the kernel, which writes into its output rows and adds W into G in
    place, must reproduce, or its ``SolvabilityError``.  Upsilon_dropped is
    zero but for the columns of V whose eigenvalue's modulus is not above
    ``PINV_RCOND`` times the largest (NaN included), on a step that is not
    definite.
    """
    Upsilon, M, H = gram_blocks(P_next, AB, W)
    n = P_next.shape[0]
    dot = np.ndarray.dot if n > 1 else np.matmul
    w, V = _eigh(Upsilon)
    definite = w[0] > PINV_RCOND * w[-1]
    if strict and not definite:
        raise SolvabilityError(
            f"Upsilon_{k} is not positive definite (min eigenvalue {w[0]:.3e}, "
            f"max {w[-1]:.3e}); no unique optimal input",
            step=k, min_eigenvalue=float(w[0]))
    if not definite and w[0] < -PINV_RCOND * max(-w[0], w[-1]):
        raise SolvabilityError(
            f"Upsilon_{k} is indefinite (min eigenvalue {w[0]:.3e}, "
            f"max {w[-1]:.3e}); the stage cost has no minimum in u",
            step=k, min_eigenvalue=float(w[0]))
    Upsilon_inv, defect = _eig_inverse(w, V, M, definite)
    K = dot(Upsilon_inv, M)
    dropped = np.zeros_like(Upsilon_inv)
    if not definite:
        drop = ~(np.abs(w) > PINV_RCOND * np.max(np.abs(w)))
        dropped[:, drop] = V[:, drop]
    return w, Upsilon_inv, K, _sym(H[:n, :n] - dot(M.T, K)), dropped, defect


def reference_range_defect(model, cost, P_next, h):
    """||V_dropped' h||, one per column of h, from Upsilon_k formed again and decomposed again.

    Upsilon_k is ``step_blocks``' from P_{k+1} = ``P_next``, the bytes the
    pass decomposed, and V_dropped the eigenvectors of ``_eigh``'s
    decomposition of it that ``_kept`` drops: the feedforward's range test
    as it was before the pass kept its dropped eigenvectors.
    """
    w, V = _eigh(step_blocks(model, cost, P_next)[0])
    return np.linalg.norm(V[:, ~_kept(w)].T.dot(h), axis=0)


def reference_backward_step(P_next, A, B, Q, R, strict, k=None):
    """One backward step as separate products: (Upsilon, M, Upsilon_inv, K, P).

    Strict mode tests the smallest eigenvalue of Upsilon against an absolute
    1e-10 and inverts it with ``np.linalg.inv``; otherwise an Upsilon whose
    smallest eigenvalue is below -1e-10 times the larger of its modulus and
    the largest is refused as indefinite, Upsilon_inv is ``np.linalg.pinv``
    and the consistency defect is formed explicitly as
    ||Upsilon Upsilon^+ M - M||, accepted up to ``REGULARITY_TOL`` (1 + ||M||).
    """
    Upsilon = _sym(B.T @ (R + P_next) @ B)
    M = B.T @ P_next @ A
    eigs = np.linalg.eigvalsh(Upsilon)
    if strict:
        if eigs[0] <= 1e-10:
            raise SolvabilityError("not positive definite", step=k,
                                   min_eigenvalue=float(eigs[0]))
        Upsilon_inv = np.linalg.inv(Upsilon)
    else:
        if eigs[0] < -1e-10 * max(-eigs[0], eigs[-1]):
            raise SolvabilityError("indefinite", step=k, min_eigenvalue=float(eigs[0]))
        Upsilon_inv = np.linalg.pinv(Upsilon, rcond=PINV_RCOND)
        defect = float(np.linalg.norm(Upsilon @ Upsilon_inv @ M - M))
        if defect > REGULARITY_TOL * (1 + np.linalg.norm(M)):
            raise RegularityError("inconsistent", step=k, residual=defect)
    K = Upsilon_inv @ M
    return Upsilon, M, Upsilon_inv, K, _sym(Q + A.T @ P_next @ A - M.T @ K)


def reference_feedforward(riccati, model, cost, d_seq):
    """(h, f) with every product of both backward equations formed per step."""
    A, B, E = model.A, model.B, model.E
    Q, R, r = cost.Q, cost.R, cost.r
    N = riccati.horizon
    h = np.zeros((N + 1, model.m))
    f = np.zeros((N + 2, model.n))
    f[N + 1] = -riccati.P[N + 1] @ r
    for k in range(N, -1, -1):
        M = B.T @ riccati.P[k + 1] @ A
        h[k] = B.T @ (R + riccati.P[k + 1]) @ (E @ d_seq[k]) + B.T @ f[k + 1]
        f[k] = (A.T @ (riccati.P[k + 1] @ (E @ d_seq[k])) + A.T @ f[k + 1]
                - M.T @ (riccati.Upsilon_inv[k] @ h[k]) - Q @ r)
    return h, f


def stationary_control(x, gare, h):
    """Stabilizing input u = -K x - Upsilon^+ h (pure regulation when h = 0)."""
    return -gare.K @ x - gare.Upsilon_inv @ np.asarray(h, dtype=float).reshape(-1)


def receding_horizon_control(x, d_now, model, cost, T, P_terminal=None, strict=True):
    """First input of a T-step lookahead with the disturbance frozen at d_now.

    Solves the backward equations over the lookahead window with d held at
    its current value and terminal weight ``P_terminal`` (the cost's
    terminal weight when omitted), then applies only the first input.  The
    full backward pass is recomputed on every call; the law that
    ``build_controller`` builds solves once and applies
    u = -K_0 x - K_d d_now - u_0.
    """
    if T < 1:
        raise ValueError("lookahead T must be >= 1")
    if P_terminal is not None:
        cost = CostSpec(Q=cost.Q, R=cost.R, P_terminal=P_terminal, r=cost.r)
    riccati = solve_finite_horizon(model, cost, T, strict=strict)
    d_now = np.asarray(d_now, dtype=float).reshape(-1)
    ff = solve_recursive(riccati, model, cost, np.tile(d_now, (T + 1, 1)))
    return finite_horizon_control(0, x, riccati, ff)


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


def reference_evaluate_cost(traj, cost):
    """evaluate_cost as a step-by-step sum of stage costs, plus the terminal term."""
    model, r = traj.model, cost.r
    total = 0.0
    for k in range(traj.steps):
        err = traj.x[k] - r
        w = model.B @ traj.u[k] + model.E @ traj.d[k]
        total += float(err @ cost.Q @ err + w @ cost.R @ w)
    tail = traj.x[-1] - r
    return total + float(tail @ cost.P_terminal @ tail)


def reference_brute_force_optimal(model, cost, x0, d_seq, N):
    """(u_opt, J_opt, condition) from the lifted matrix built step by step.

    Each X_mat[k + 1] is A X_mat[k] with B added in block k, and H, b and
    the constant are summed one stage at a time.
    """
    A, B, E = model.A, model.B, model.E
    Q, R, P_T, r = cost.Q, cost.R, cost.P_terminal, cost.r
    n, m = model.n, model.m
    dim = (N + 1) * m
    X_mat = np.zeros((N + 2, n, dim))
    x_off = np.zeros((N + 2, n))
    x_off[0] = x0
    for k in range(N + 1):
        X_mat[k + 1] = A @ X_mat[k]
        X_mat[k + 1][:, k * m:(k + 1) * m] += B
        x_off[k + 1] = A @ x_off[k] + E @ d_seq[k]
    H = np.zeros((dim, dim))
    b = np.zeros(dim)
    const = 0.0
    for k in range(N + 1):
        G, g = X_mat[k], x_off[k] - r
        H += G.T @ Q @ G
        b += G.T @ (Q @ g)
        const += float(g @ Q @ g)
        V = np.zeros((n, dim))
        V[:, k * m:(k + 1) * m] = B
        v = E @ d_seq[k]
        H += V.T @ R @ V
        b += V.T @ (R @ v)
        const += float(v @ R @ v)
    G, g = X_mat[N + 1], x_off[N + 1] - r
    H += G.T @ P_T @ G
    b += G.T @ (P_T @ g)
    const += float(g @ P_T @ g)
    H = (H + H.T) / 2
    u_opt = np.linalg.solve(H, -b)
    return u_opt, float(u_opt @ H @ u_opt + 2 * b @ u_opt + const), float(np.linalg.cond(H))


def _coo_blocks(row0, col0, blocks):
    """(rows, cols, values) of the (p, q) ``blocks`` placed at offsets (row0[i], col0[i])."""
    i, j = np.indices(blocks.shape[1:])
    rows = np.asarray(row0)[:, None, None] + i
    cols = np.asarray(col0)[:, None, None] + j
    return rows.ravel(), cols.ravel(), blocks.ravel()


def reference_kkt_optimal(model, cost, x0, d_seq, N):
    """(u, x, J) of the finite-horizon problem from one sparse KKT solve.

    The forward-backward equations, with no Riccati quantity.  The unknowns
    are (u_0, x_1, u_1, x_2, ..., u_N, x_{N+1}) and one multiplier per
    dynamics row.  The Hessian H is block-diagonal: 2 B'RB for each u_k,
    2 Q for each x_k and 2 P_T for x_{N+1}.  The constraints C are
    B u_0 - x_1 = -A x0 - E d_0 and A x_k + B u_k - x_{k+1} = -E d_k for
    k >= 1.  [[H, C'], [C, 0]] is assembled from its blocks as one COO
    matrix and solved once by ``scipy.sparse.linalg.spsolve``.  x has N + 2
    rows, x0 included; J is the cost evaluated on (x, u).
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import spsolve

    A, B, E = model.A, model.B, model.E
    Q, R, P_T, r = cost.Q, cost.R, cost.P_terminal, cost.r
    n, m = model.n, model.m
    s = m + n  # the unknowns (u_k, x_{k+1}) of stage k
    dim, rows_c = (N + 1) * s, (N + 1) * n
    Ed = d_seq[:N + 1] @ E.T
    stage = np.arange(N + 1) * s
    W = np.repeat(Q[None], N + 1, axis=0)
    W[N] = P_T
    BC = np.repeat(np.hstack([B, -np.eye(n)])[None], N + 1, axis=0)
    AC = np.repeat(A[None], N, axis=0)
    row_c = dim + np.arange(N + 1) * n
    parts = [
        _coo_blocks(stage, stage, np.repeat((2 * B.T @ R @ B)[None], N + 1, axis=0)),
        _coo_blocks(stage + m, stage + m, 2 * W),
        _coo_blocks(row_c, stage, BC),
        _coo_blocks(stage, row_c, BC.transpose(0, 2, 1)),
        _coo_blocks(row_c[1:], stage[:-1] + m, AC),
        _coo_blocks(stage[:-1] + m, row_c[1:], AC.transpose(0, 2, 1)),
    ]
    rows, cols, values = (np.concatenate(part) for part in zip(*parts))
    kkt = coo_matrix((values, (rows, cols)), shape=(dim + rows_c,) * 2).tocsc()
    grad = np.empty((N + 1, s))
    grad[:, :m] = 2 * Ed @ R @ B
    grad[:, m:] = -2 * (W @ r)
    rhs = np.concatenate([-grad.ravel(), -Ed.ravel()])
    rhs[dim:dim + n] -= A @ x0
    sol = spsolve(kkt, rhs)[:dim].reshape(N + 1, s)
    u = sol[:, :m]
    x = np.vstack([x0, sol[:, m:]])
    err = x[:-1] - r
    w = u @ B.T + Ed
    tail = x[-1] - r
    J = float(np.sum((err @ Q) * err) + np.sum((w @ R) * w) + tail @ P_T @ tail)
    return u, x, J


def _exact(values):
    """``values`` as an object array of ``fractions.Fraction``, each float exactly."""
    return np.vectorize(Fraction, otypes=[object])(np.asarray(values, dtype=float))


def exact_lifted_quadratic(model, cost, x0, d_seq, N):
    """(H, L, b, c) of the lifted cost J(u) = u'Hu + 2 b'u + c at x0, in exact rationals.

    The lift of ``reference_brute_force_optimal``, summed one stage at a
    time in ``fractions.Fraction``: x_k = X_k u + Y_k x0 + (the response to
    d), and L = sum_k X_k' W_k Y_k is b's derivative in x0.
    """
    A, B, E, Q, R, P_T, r = map(_exact, (model.A, model.B, model.E, cost.Q, cost.R,
                                         cost.P_terminal, cost.r))
    n, m = model.n, model.m
    dim = (N + 1) * m
    X, Y, x = _exact(np.zeros((n, dim))), _exact(np.eye(n)), _exact(x0)
    H, L, b, c = _exact(np.zeros((dim, dim))), _exact(np.zeros((dim, n))), _exact(np.zeros(dim)), 0
    for k in range(N + 2):
        W, g = (Q if k <= N else P_T), x - r
        H, L, b, c = H + X.T @ W @ X, L + X.T @ W @ Y, b + X.T @ (W @ g), c + g @ W @ g
        if k <= N:
            V = _exact(np.zeros((n, dim)))
            V[:, k * m:(k + 1) * m] = B
            v = E @ _exact(d_seq[k])
            H, b, c = H + V.T @ R @ V, b + V.T @ (R @ v), c + v @ R @ v
            X, Y, x = A @ X + V, A @ Y, A @ x + v
    return H, L, b, c


def _exact_row_reduce(M):
    """(reduced row echelon form of the rational matrix M, its pivot columns)."""
    M = M.copy()
    pivots = []
    for col in range(M.shape[1]):
        row = len(pivots)
        nonzero = [i for i in range(row, M.shape[0]) if M[i, col] != 0]
        if not nonzero:
            continue
        M[[row, nonzero[0]]] = M[[nonzero[0], row]]
        M[row] = M[row] / M[row, col]
        for i in range(M.shape[0]):
            if i != row:
                M[i] = M[i] - M[i, col] * M[row]
        pivots.append(col)
    return M, pivots


def exact_rank(M):
    """The rank of a rational matrix, exactly."""
    return len(_exact_row_reduce(M)[1])


def exact_bounded_below(H, L, b):
    """Whether u'Hu + 2 (b + L y)'u is bounded below in u for every y: H PSD, [L b] in range(H).

    H is positive semidefinite iff symmetric elimination meets no negative
    pivot, and no zero pivot with a non-zero entry left in its row.
    """
    S = H.copy()
    for i in range(len(S)):
        rest = S[i, i + 1:]
        if S[i, i] < 0 or (S[i, i] == 0 and any(rest != 0)):
            return False
        if S[i, i] > 0:
            S[i + 1:, i + 1:] = S[i + 1:, i + 1:] - np.outer(rest, rest) / S[i, i]
    return exact_rank(H) == exact_rank(np.hstack([H, L, b[:, None]]))


def exact_minimum(H, b, c):
    """min over u of u'Hu + 2 b'u + c, bounded below: c + b'u at a solution of H u = -b."""
    M, pivots = _exact_row_reduce(np.hstack([H, -b[:, None]]))
    u = _exact(np.zeros(len(b)))
    for row, col in enumerate(pivots):
        u[col] = M[row, -1]
    return c + b @ u


def reference_closed_form(riccati, model, cost, d_seq):
    """(h, f, (H, Abar, F, Rscript)) with every explicit-sum term formed per pair of steps."""
    A, B, E = model.A, model.B, model.E
    Q, R, r = cost.Q, cost.R, cost.r
    N = riccati.horizon
    n, m = model.n, model.m
    H = np.zeros((N + 1, m, m))
    Abar = np.zeros((N + 1, n, n))
    F = np.zeros((N + 1, n, m))
    Rscript = np.zeros((N + 2, n, n))
    Rscript[N + 1] = riccati.P[N + 1]
    BtRE = B.T @ R @ E
    for k in range(N, -1, -1):
        H[k] = B.T @ (R + riccati.P[k + 1]) @ E
        Abar[k] = A - B @ riccati.K[k]
        M = B.T @ riccati.P[k + 1] @ A
        F[k] = Abar[k].T @ riccati.P[k + 1] @ E - M.T @ (riccati.Upsilon_inv[k] @ BtRE)
        Rscript[k] = Abar[k].T @ Rscript[k + 1] + Q
    f = np.zeros((N + 2, n))
    f[N + 1] = -riccati.P[N + 1] @ r
    Fd = np.einsum("knm,km->kn", F, d_seq)
    for k in range(N + 1):
        acc = -Rscript[k] @ r
        prod = np.eye(n)
        for s in range(k, N + 1):
            acc = acc + prod @ Fd[s]
            prod = prod @ Abar[s].T
        f[k] = acc
    h = np.zeros((N + 1, m))
    for k in range(N + 1):
        h[k] = H[k] @ d_seq[k] + B.T @ f[k + 1]
    return h, f, (H, Abar, F, Rscript)


def reference_costate_residuals(traj, riccati, ff, model, cost):
    """(stationarity, link) with the adjoint and both defects formed per step."""
    N = riccati.horizon
    A, B, E = model.A, model.B, model.E
    Q, R, r = cost.Q, cost.R, cost.r
    lam = np.zeros((N + 1, model.n))
    lam[N] = riccati.P[N + 1] @ (traj.x[N + 1] - r)
    for k in range(N, 0, -1):
        lam[k - 1] = Q @ (traj.x[k] - r) + A.T @ lam[k]
    stationarity = 0.0
    for k in range(N + 1):
        resid = B.T @ R @ (B @ traj.u[k]) + B.T @ lam[k] + B.T @ R @ (E @ traj.d[k])
        stationarity = max(stationarity, float(np.linalg.norm(resid)))
    link = 0.0
    for k in range(1, N + 2):
        resid = lam[k - 1] - riccati.P[k] @ traj.x[k] - ff.f[k]
        link = max(link, float(np.linalg.norm(resid)))
    return stationarity, link


def reference_predicted_optimal_cost(riccati, ff, x0, model, cost, d_seq):
    """The analytic optimal value summed one step at a time."""
    N = riccati.horizon
    r, E, R = cost.r, model.E, cost.R
    total = float(x0 @ riccati.P[0] @ x0 + 2 * x0 @ ff.f[0] + r @ riccati.P[N + 1] @ r)
    for k in range(N + 1):
        Ed = E @ d_seq[k]
        total += float(r @ cost.Q @ r)
        total += float(Ed @ (R + riccati.P[k + 1]) @ Ed)
        total += 2 * float(Ed @ ff.f[k + 1])
        total -= float(ff.h[k] @ (riccati.Upsilon_inv[k] @ ff.h[k]))
    return total


def reference_settling_step(post, onset, settle_band):
    """The settling step found by walking the in-band mask back from the end."""
    settled = None
    below = post <= settle_band
    for j in range(below.shape[0] - 1, -1, -1):
        if not below[j]:
            break
        settled = onset + j
    return settled


def _fmt(value):
    return f"{value:.17g}"


def reference_write_csv(path, traj):
    """write_csv with every value formatted by its own ``_fmt`` call."""
    n, m, l = traj.model.n, traj.model.m, traj.model.l
    header = (["k"] + [f"x{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)]
              + [f"d{i+1}" for i in range(m)] + [f"z{i+1}" for i in range(l)]
              + ["cost_cum"])
    lines = [",".join(header)]
    for k in range(traj.steps):
        row = [str(k)]
        row += [_fmt(v) for v in traj.x[k]]
        row += [_fmt(v) for v in traj.u[k]]
        row += [_fmt(v) for v in traj.d[k]]
        row += [_fmt(v) for v in traj.z[k]]
        row.append(_fmt(traj.cost_cum[k]))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def reference_write_svg(path, title, series, onset=None):
    """write_svg with every polyline point formatted through ``sx`` and ``sy``."""
    width, height = 860, 480
    ml, mr, mt, mb = 70, 160, 40, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb
    n_steps = max(len(values) for _, values in series)
    lo = min(float(np.min(values)) for _, values in series)
    hi = max(float(np.max(values)) for _, values in series)
    if hi - lo < 1e-12:
        hi, lo = hi + 1.0, lo - 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def sx(k):
        return ml + plot_w * k / max(n_steps - 1, 1)

    def sy(v):
        return mt + plot_h * (hi - v) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="24" font-family="sans-serif" font-size="16">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#888"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        y = sy(v)
        parts.append(f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + plot_w}" y2="{y:.2f}" '
                     f'stroke="#ddd"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{v:.3g}</text>')
        k = int(frac * (n_steps - 1))
        x = sx(k)
        parts.append(f'<text x="{x:.2f}" y="{mt + plot_h + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{k}</text>')
    parts.append(f'<text x="{ml + plot_w / 2}" y="{height - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">step k</text>')
    if onset is not None and 0 <= onset < n_steps:
        x = sx(onset)
        parts.append(f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" y2="{mt + plot_h}" '
                     f'stroke="#999" stroke-dasharray="5,4"/>')
        parts.append(f'<text x="{x + 4:.2f}" y="{mt + 14}" font-family="sans-serif" '
                     f'font-size="11" fill="#666">onset</text>')
    for i, (label, values) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(k):.2f},{sy(float(v)):.2f}" for k, v in enumerate(values))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = mt + 16 + 18 * i
        lx = ml + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
