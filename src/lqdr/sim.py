"""Closed-loop rollout, cost bookkeeping, and independent optimality checks.

Two oracles guard the optimal controller.  ``brute_force_optimal`` never
looks at a Riccati quantity: it stacks the states as an affine function of
the whole input sequence, forms the cost as an explicit quadratic, and
solves the normal equations.  ``costate_residuals`` checks the first-order
optimality system along a trajectory: the input-channel stationarity
condition and the affine relation between the adjoint sequence and the
state.  ``predicted_optimal_cost`` evaluates the analytic optimal value, so
simulated cost, predicted cost, and brute-force minimum can be compared
pairwise.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import LqdrError, SolvabilityError
from .model import CostSpec, SystemModel, disturbance_sequence, freeze_fields
from .riccati import solve_finite_horizon

#: Normal-equation condition number beyond which the oracle refuses to answer.
ORACLE_COND_LIMIT = 1e14


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop record: states, inputs, disturbances, regulated outputs.

    ``x`` and ``z`` have ``steps + 1`` rows (they include the final state);
    ``u``, ``d``, and the running stage-cost sums have ``steps`` rows.  The
    running cost excludes the terminal weighting, which ``evaluate_cost``
    adds.
    """

    model: SystemModel
    steps: int
    x: np.ndarray
    u: np.ndarray
    d: np.ndarray
    z: np.ndarray
    cost_cum: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "x", "u", "d", "z", "cost_cum")

    def dynamics_residual(self):
        """Max reconstruction defect of x[k+1] = A x[k] + B u[k] + E d[k]."""
        pred = (self.x[:-1] @ self.model.A.T + self.u @ self.model.B.T
                + self.d @ self.model.E.T)
        return float(np.max(np.abs(self.x[1:] - pred)))


@dataclass(frozen=True)
class OracleResult:
    """Unconstrained minimizer of the stacked finite-horizon quadratic."""

    u_opt: np.ndarray
    J_opt: float
    condition: float

    def __post_init__(self):
        freeze_fields(self, "u_opt")


def simulate(model, cost, controller, x0, steps, d):
    """Roll the closed loop forward for ``steps`` steps.

    Args:
        model: SystemModel.
        cost: CostSpec; its Q, R, r define the running stage cost.
        controller: stepping function ``(k, x_k, d_k) -> u_k``; see
            ``control.build_controller``.
        x0: initial state.
        steps: number of inputs to apply (>= 1).
        d: DisturbanceProfile or array of at least ``steps`` samples.

    The loop applies the controller and the state update
    x_{k+1} = A x_k + (B u_k + E d_k); the stage costs are evaluated for all
    steps after it, so ``cost_cum`` is a cumulative sum of that array.
    Solver errors raised by the controller are re-raised with the failing
    step index prepended.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != model.n:
        raise ValueError(f"x0 must have length {model.n}")
    d_seq = disturbance_sequence(d, steps, dim=model.m)

    n, m = model.n, model.m
    A, B, E = model.A, model.B, model.E
    x = np.zeros((steps + 1, n))
    u = np.zeros((steps, m))
    x[0] = x0
    for k in range(steps):
        try:
            u_k = np.asarray(controller(k, x[k], d_seq[k]), dtype=float).reshape(-1)
        except LqdrError as exc:
            raise type(exc)(f"controller failed at step {k}: {exc}") from exc
        if u_k.shape[0] != m:
            raise ValueError(f"controller returned an input of length {u_k.shape[0]}, "
                             f"expected {m} (step {k})")
        u[k] = u_k
        x[k + 1] = A @ x[k] + (B @ u_k + E @ d_seq[k])

    err = x[:-1] - cost.r
    w = u @ B.T + d_seq @ E.T
    stage = np.einsum("ki,ij,kj->k", err, cost.Q, err) \
        + np.einsum("ki,ij,kj->k", w, cost.R, w)
    z = x @ model.c_o.T
    return Trajectory(model=model, steps=steps, x=x, u=u, d=d_seq, z=z,
                      cost_cum=np.cumsum(stage))


def evaluate_cost(traj, cost):
    """Exact finite-horizon cost of a trajectory, terminal term included."""
    err = traj.x[:-1] - cost.r
    w = traj.u @ traj.model.B.T + traj.d @ traj.model.E.T
    stage = np.einsum("ki,ij,kj->", err, cost.Q, err) \
        + np.einsum("ki,ij,kj->", w, cost.R, w)
    tail = traj.x[-1] - cost.r
    return float(stage + tail @ cost.P_terminal @ tail)


def predicted_optimal_cost(riccati, ff, x0, model, cost, d):
    """Analytic optimal value, evaluated without simulating.

    J* = x0' P_0 x0 + 2 x0' f_0 + r' P_{N+1} r
         + sum_k [ r' Q r + d_k' E'(R + P_{k+1}) E d_k
                   + 2 d_k' E' f_{k+1} - h_k' Upsilon_k^{-1} h_k ].
    """
    N = riccati.horizon
    d_seq = disturbance_sequence(d, N + 1, dim=model.m)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    r = cost.r
    E, R = model.E, cost.R

    total = float(x0 @ riccati.P[0] @ x0 + 2 * x0 @ ff.f[0]
                  + r @ riccati.P[N + 1] @ r)
    rQr = float(r @ cost.Q @ r)
    for k in range(N + 1):
        Ed = E @ d_seq[k]
        total += rQr
        total += float(Ed @ (R + riccati.P[k + 1]) @ Ed)
        total += 2 * float(Ed @ ff.f[k + 1])
        total -= float(ff.h[k] @ riccati.upsilon_solve(k, ff.h[k]))
    return total


def brute_force_optimal(model, cost, x0, d, N):
    """Minimize the stacked finite-horizon quadratic directly.

    Builds x_k as an affine function of the full input vector
    (u_0, ..., u_N), forms the cost exactly, and solves the normal
    equations.  Completely independent of the Riccati machinery.

    Raises:
        SolvabilityError: the normal matrix is singular or hopelessly
            ill-conditioned, i.e. the minimizer is not unique.
    """
    if N < 0:
        raise ValueError("horizon N must be >= 0")
    if N * model.m > 2000:
        raise ValueError("dense oracle limited to N * m <= 2000")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    d_seq = disturbance_sequence(d, N + 1, dim=model.m)
    A, B, E = model.A, model.B, model.E
    Q, R, P_T, r = cost.Q, cost.R, cost.P_terminal, cost.r
    n, m = model.n, model.m
    dim = (N + 1) * m

    # x_k = X_mat[k] @ u_stacked + x_off[k]
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
    condition = float(np.linalg.cond(H))
    if not np.isfinite(condition) or condition > ORACLE_COND_LIMIT:
        raise SolvabilityError(
            f"normal equations have condition {condition:.3e}; "
            "the minimizer is not unique at working precision")
    u_opt = np.linalg.solve(H, -b)
    J_opt = float(u_opt @ H @ u_opt + 2 * b @ u_opt + const)
    return OracleResult(u_opt=u_opt, J_opt=J_opt, condition=condition)


def costate_residuals(traj, riccati, ff, model, cost):
    """First-order optimality defects along a trajectory.

    The adjoint sequence is rebuilt backward from the terminal condition
    lambda_N = P_{N+1} (x_{N+1} - r) via
    lambda_{k-1} = Q (x_k - r) + A' lambda_k.  Returns the largest
    stationarity defect ||B'R B u_k + B' lambda_k + B'R E d_k|| and the
    largest defect of the affine link lambda_{k-1} = P_k x_k + f_k.
    """
    N = riccati.horizon
    if traj.steps != N + 1:
        raise ValueError(f"trajectory has {traj.steps} steps, horizon wants {N + 1}")
    A, B, E = model.A, model.B, model.E
    Q, r = cost.Q, cost.r
    lam = np.zeros((N + 1, model.n))
    lam[N] = riccati.P[N + 1] @ (traj.x[N + 1] - r)
    for k in range(N, 0, -1):
        lam[k - 1] = Q @ (traj.x[k] - r) + A.T @ lam[k]

    stationarity = 0.0
    for k in range(N + 1):
        resid = B.T @ cost.R @ (B @ traj.u[k]) + B.T @ lam[k] \
            + B.T @ cost.R @ (E @ traj.d[k])
        stationarity = max(stationarity, float(np.linalg.norm(resid)))

    link = 0.0
    for k in range(1, N + 2):
        resid = lam[k - 1] - riccati.P[k] @ traj.x[k] - ff.f[k]
        link = max(link, float(np.linalg.norm(resid)))
    return stationarity, link


@dataclass(frozen=True)
class RandomInstance:
    """One randomly drawn solvable problem for the verification suite."""

    model: SystemModel
    cost: CostSpec
    x0: np.ndarray
    d: np.ndarray
    N: int


def draw_instance(rng, n_max=4, m_max=2, N_max=20, max_tries=200):
    """Draw a random instance inside the strict (unique-optimum) regime.

    A is scaled to a spectral radius in [0.3, 1.2]; B and E have unit-normal
    entries; Q = C'C, R = D'D, and the terminal weight G'G are random PSD.
    Draws are rejected until every Upsilon_k along the horizon has smallest
    eigenvalue at least 1e-6, which keeps both the recursion and the
    brute-force oracle well posed.
    """
    for _ in range(max_tries):
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, min(m_max, n) + 1))
        N = int(rng.integers(0, N_max + 1))
        G = rng.standard_normal((n, n))
        radius = max(np.max(np.abs(np.linalg.eigvals(G))), 1e-9)
        A = G * (rng.uniform(0.3, 1.2) / radius)
        B = rng.standard_normal((n, m))
        E = rng.standard_normal((n, m))
        C = rng.standard_normal((n, n))
        D = rng.standard_normal((n, n))
        Gt = rng.standard_normal((n, n))
        model = SystemModel(A=A, B=B, E=E, c_o=np.eye(n))
        cost = CostSpec(Q=C.T @ C, R=D.T @ D, P_terminal=Gt.T @ Gt,
                        r=rng.standard_normal(n))
        try:
            riccati = solve_finite_horizon(model, cost, N, strict=True)
        except LqdrError:
            continue
        min_eig = min(float(np.min(np.linalg.eigvalsh(riccati.Upsilon[k])))
                      for k in range(N + 1))
        if min_eig < 1e-6:
            continue
        return RandomInstance(model=model, cost=cost,
                              x0=rng.standard_normal(n),
                              d=rng.standard_normal((N + 1, m)), N=N)
    raise RuntimeError("could not draw a well-posed instance; loosen the bounds")
