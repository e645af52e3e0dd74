"""Closed-loop rollout, cost bookkeeping, and independent optimality checks.

Two oracles guard the optimal controller.  ``brute_force_optimal`` never
looks at a Riccati quantity: it stacks the states as an affine function of
the whole input sequence, forms the cost as an explicit quadratic, and
solves the normal equations.  ``costate_residuals`` checks the first-order
optimality system along a trajectory: the input-channel stationarity
condition and the affine relation between the adjoint sequence and the
state.  ``predicted_optimal_cost`` evaluates the analytic optimal value, so
simulated cost, predicted cost, and brute-force minimum can be compared
pairwise.  Every loop and every 2-d product here takes its product from
``model._dot_for`` or is ``ndarray.dot``, and the oracle's normal matrix
is symmetrized by ``model._sym``.  ``simulate`` keeps the bytes of ``@``
and forms only the rollout; its ``Trajectory`` derives the regulated
outputs and the running stage costs, with the same bytes, when they are
first read.  The other functions here are judged by tolerance.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import LqdrError, SolvabilityError
from .model import (_FLOAT64, CostSpec, DisturbanceProfile, SystemModel, _dot_for, _sym,
                    disturbance_sequence, freeze_fields)
from .riccati import solve_finite_horizon

#: Normal-equation condition number beyond which the oracle refuses to answer.
ORACLE_COND_LIMIT = 1e14
#: ``draw_instance``'s bounds on n, m (also at most n) and N, and on its draws.
_N_STATES, _M_INPUTS, _HORIZON, _TRIES = 4, 2, 20, 200


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop record: the rollout's states, inputs and disturbances.

    ``x`` has ``steps + 1`` rows (it includes the final state); ``u`` and
    ``d`` have ``steps`` rows.  ``cost`` is the CostSpec the rollout was
    run under.  The regulated outputs ``z`` (``steps + 1`` rows) and the
    running stage-cost sums ``cost_cum`` (``steps`` rows) are derived from
    the record when first read, and kept: reading them again returns the
    same read-only array.  The running cost excludes the terminal
    weighting, which ``evaluate_cost`` adds.
    """

    model: SystemModel
    cost: CostSpec
    x: np.ndarray
    u: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "x", "u", "d")

    @property
    def steps(self):
        return len(self.u)

    @cached_property
    def z(self):
        """Regulated outputs c_o x_k, k = 0..steps."""
        z = _dot_for(self.model.c_o.size)(self.x, self.model.c_o.T)
        z.setflags(write=False)
        return z

    @cached_property
    def cost_cum(self):
        """Running sums of the stage costs, terminal weighting excluded.

        The stage costs of all steps are one product per weight and a
        row-wise sum, then ``np.cumsum``; (B u_k + E d_k) is formed as
        u B' + d E', which rounds unlike the loop's B u_k + E d_k at m >= 2.
        """
        model, cost, x, u = self.model, self.cost, self.x, self.u
        err = x[:-1] - cost.r
        dot_u = _dot_for(u.size, model.B.size)
        w = dot_u(u, model.B.T) + dot_u(self.d, model.E.T)
        dot = _dot_for(model.n)
        # one BLAS product per weight, then a row-wise sum: a three-operand
        # einsum takes its unoptimized path, about 20 times slower at n = 32
        stage = (np.einsum("ki,ki->k", dot(err, cost.Q), err)
                 + np.einsum("ki,ki->k", dot(w, cost.R), w))
        cost_cum = np.cumsum(stage)
        cost_cum.setflags(write=False)
        return cost_cum

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
        cost: CostSpec of the model's dimension; the returned Trajectory
            forms its running stage cost from it when ``cost_cum`` is read.
        controller: stepping function ``(k, x_k, d_k) -> u_k``; see
            ``control.build_controller``.
        x0: initial state.
        steps: number of inputs to apply (>= 1).
        d: DisturbanceProfile or array of at least ``steps`` samples.

    E d_k is formed for all steps before the loop as one stacked product,
    ``np.matmul(E, d_seq[:, :, None])``, whose rows equal each per-step
    E d_k byte for byte; d_seq E', one gemm, rounds differently at m >= 2
    and is kept for the stage costs only.  The 2-d products take
    ``model._dot_for`` of the sizes of the operands that can be one
    element, so they are the bytes of ``@``.  The loop applies the
    controller, writes u_k into its row of ``u`` and x_{k+1} into its row of
    ``x`` in place, as A x_k + (B u_k + E d_k); the rollout ends there, and
    ``z`` and ``cost_cum`` are formed at their first read.  A disturbance
    array is copied, so a later write to the caller's array cannot reach
    the record.  A controller output that is already a float64 array of
    shape (m,) is used as it is; any other is converted and its length
    checked.  A solver error raised by the controller is re-raised itself,
    with the failing step index prepended to its message, so its type,
    fields and traceback survive.

    Raises:
        ValueError: ``steps`` < 1, the cost and model dimensions differ,
            x0 or the disturbance has the wrong shape, or the controller
            returns an input of the wrong length.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if cost.n != model.n:
        raise ValueError("cost and model dimensions differ")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != model.n:
        raise ValueError(f"x0 must have length {model.n}")
    d_seq = disturbance_sequence(d, steps, dim=model.m)
    if not isinstance(d, DisturbanceProfile):
        d_seq = d_seq.copy()

    n, m = model.n, model.m
    A, B, E = model.A, model.B, model.E
    x = np.zeros((steps + 1, n))
    u = np.zeros((steps, m))
    dot = _dot_for(n)
    Ed = np.matmul(E, d_seq[:, :, None])[:, :, 0]
    x_k = x[0]
    x_k[:] = x0
    # one flat zip: enumerate over a zip of pairs would build a tuple per step
    for k, d_k, Ed_k, u_row, x_next in zip(range(steps), d_seq, Ed, u, x[1:]):
        try:
            u_k = controller(k, x_k, d_k)
        except LqdrError as exc:
            exc.args = (f"controller failed at step {k}: {exc}", *exc.args[1:])
            raise
        if not (type(u_k) is np.ndarray and u_k.dtype is _FLOAT64 and u_k.shape == (m,)):
            u_k = np.asarray(u_k, dtype=float).reshape(-1)
            if u_k.shape[0] != m:
                raise ValueError(f"controller returned an input of length {u_k.shape[0]}, "
                                 f"expected {m} (step {k})")
        u_row[...] = u_k
        np.add(dot(A, x_k), dot(B, u_k) + Ed_k, out=x_next)
        x_k = x_next
    return Trajectory(model=model, cost=cost, x=x, u=u, d=d_seq)


def evaluate_cost(traj, cost):
    """J of the trajectory under ``cost``, exact, terminal term included."""
    model = traj.model
    err = traj.x[:-1] - cost.r
    w = traj.u.dot(model.B.T) + traj.d.dot(model.E.T)
    tail = traj.x[-1] - cost.r
    # one product per weight, then a full contraction
    return float(np.vdot(err.dot(cost.Q), err) + np.vdot(w.dot(cost.R), w)
                 + tail.dot(cost.P_terminal).dot(tail))


def predicted_optimal_cost(riccati, ff, x0, model, cost, d):
    """Analytic optimal value, evaluated without simulating.

    J* = x0' P_0 x0 + 2 x0' f_0 + r' P_{N+1} r
         + sum_k [ r' Q r + d_k' E'(R + P_{k+1}) E d_k
                   + 2 d_k' E' f_{k+1} - h_k' Upsilon_k^{-1} h_k ].

    The sum is one stacked product per weight followed by full
    contractions (``np.vdot``) over all k; the R and P_{k+1} parts are
    contracted separately, and P_{k+1} and Upsilon_k^{-1} act on stacked
    vectors, so no (N+1) x n x n array is allocated.
    """
    N = riccati.horizon
    d_seq = disturbance_sequence(d, N + 1, dim=model.m)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    r = cost.r
    P, f, h = riccati.P, ff.f, ff.h
    Ed = d_seq.dot(model.E.T)
    PEd = (P[1:] @ Ed[:, :, None])[:, :, 0]
    Uh = (riccati.Upsilon_inv @ h[:, :, None])[:, :, 0]
    total = (x0.dot(P[0]).dot(x0) + 2 * x0.dot(f[0]) + r.dot(P[N + 1]).dot(r)
             + (N + 1) * r.dot(cost.Q).dot(r))
    total += (np.vdot(Ed.dot(cost.R), Ed) + np.vdot(PEd, Ed) + 2 * np.vdot(Ed, f[1:])
              - np.vdot(Uh, h))
    return float(total)


def brute_force_optimal(model, cost, x0, d, N):
    """Minimize the stacked finite-horizon quadratic directly.

    Builds x_k as an affine function of the full input vector
    (u_0, ..., u_N), forms the cost exactly, and solves the normal
    equations.  Completely independent of the Riccati machinery.

    The lifted matrix X, x_k = X[k] u + x_off[k], holds A^(k-1-j) B in
    block (k, j) for j < k and zeros elsewhere.  One loop of products by A
    builds the table T[p] = [A^p B | x_off[p]], p = 0..N+1, where x_off is
    the free response x_off[p] = A x_off[p-1] + E d_{p-1} from x0.  T
    sits below N + 1 zero blocks, so block (k, j) of X is row N + k - j of
    that padded table: X is one copy of a strided Toeplitz view, with a
    negative stride over j.  With W_k = Q for
    k <= N and W_{N+1} = P_terminal, H = sum_k X_k' W_k X_k and
    b = sum_k X_k' W_k (x_off[k] - r) are each one matrix product over the
    stacked (k, state) rows; the input part of the stage cost adds B'R B to
    the diagonal blocks of H.  The condition number is the 2-norm one,
    max|w| / min|w| over the eigenvalues w of the symmetrized H, whose
    singular values they are in magnitude; inf when min|w| = 0.

    Raises:
        SolvabilityError: the normal matrix is singular or hopelessly
            ill-conditioned, i.e. the minimizer is not unique; or the powers
            of A overflow, so the normal equations are not finite.  The lift
            is built with floating-point warnings silenced and refused
            before the eigen-solve.
    """
    if N < 0:
        raise ValueError("horizon N must be >= 0")
    if N * model.m > 2000:
        raise ValueError("dense oracle limited to N * m <= 2000")
    lifted_size = (N + 2) * model.n * (N + 1) * model.m
    if lifted_size > 2000 ** 2:
        raise ValueError(f"dense oracle limited to a lifted matrix of 2000^2 elements; "
                         f"N = {N}, n = {model.n}, m = {model.m} needs {lifted_size}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    d_seq = disturbance_sequence(d, N + 1, dim=model.m)
    A, B, E = model.A, model.B, model.E
    Q, R, P_T, r = cost.Q, cost.R, cost.P_terminal, cost.r
    n, m = model.n, model.m
    dim = (N + 1) * m

    dot = _dot_for(n)
    Ed = d_seq.dot(E.T)
    # T[p] = [A^p B | x_off[p]], below N + 1 zero blocks in ``table``, which
    # the lift reads for its zero blocks; powers that overflow are refused
    # below, by the non-finite normal equations they leave
    table = np.zeros((2 * N + 3, n, m + 1))
    T = table[N + 1:]
    T[0, :, :m] = B
    T[0, :, m] = x0
    with np.errstate(all="ignore"):
        for p in range(1, N + 2):
            dot(A, T[p - 1], out=T[p])
            T[p, :, m] += Ed[p - 1]
        # x_k = X[k] @ u_stacked + x_off[k]: block (k, j) of X is
        # table[N + k - j, :, :m], a Toeplitz view with a negative stride
        # over j, which the constructor checks against the table's bounds
        s0, s1, s2 = table.strides
        X = np.ndarray((N + 2, n, N + 1, m), buffer=table, offset=N * s0,
                       strides=(s0, s1, -s0, s2)).copy().reshape(N + 2, n, dim)

        g = T[:, :, m] - r
        WX = np.empty_like(X)
        np.matmul(Q, X[:N + 1], out=WX[:N + 1])
        P_T.dot(X[N + 1], out=WX[N + 1])
        Wg = np.empty_like(g)
        g[:N + 1].dot(Q.T, out=Wg[:N + 1])
        P_T.dot(g[N + 1], out=Wg[N + 1])
        X2 = X.reshape(-1, dim)
        H = X2.T.dot(WX.reshape(-1, dim))
        b = X2.T.dot(Wg.reshape(-1))
        const = float(np.vdot(g, Wg) + np.vdot(Ed.dot(R), Ed))
        # the input channel: B u_k enters the R term of step k only, so B'R B
        # adds to the diagonal blocks of H, a strided view of its rows
        BtR = B.T.dot(R)
        h0, h1 = H.strides
        np.ndarray((N + 1, m, m), buffer=H, strides=(m * (h0 + h1), h0, h1))[...] += BtR.dot(B)
        b += Ed.dot(BtR.T).reshape(-1)
        _sym(H, out=H)
    if not (np.isfinite(H).all() and np.isfinite(b).all() and np.isfinite(const)):
        raise SolvabilityError("normal equations are not finite: the lifted states "
                               "overflow, or an input is not finite")
    # a symmetric matrix's singular values are its eigenvalues' magnitudes
    w = np.abs(np.linalg.eigvalsh(H))
    # Python floats: a quotient past the float range is inf, with no warning
    condition = float(w.max()) / float(w.min()) if w.min() > 0 else np.inf
    if condition > ORACLE_COND_LIMIT:
        raise SolvabilityError(
            f"normal equations have condition {condition:.3e}; "
            "the minimizer is not unique at working precision")
    u_opt = np.linalg.solve(H, -b)
    J_opt = float(u_opt.dot(H).dot(u_opt) + 2 * b.dot(u_opt) + const)
    return OracleResult(u_opt=u_opt, J_opt=J_opt, condition=condition)


def costate_residuals(traj, riccati, ff, model, cost):
    """First-order optimality defects along a trajectory.

    The adjoint sequence is rebuilt backward from the terminal condition
    lambda_N = P_{N+1} (x_{N+1} - r) via
    lambda_{k-1} = Q (x_k - r) + A' lambda_k.  Returns the largest
    stationarity defect ||B'R B u_k + B' lambda_k + B'R E d_k|| and the
    largest defect of the affine link lambda_{k-1} = P_k x_k + f_k.
    Only the adjoint recursion loops; each defect is the root of the
    largest row sum of squares of a stacked array.
    """
    N = riccati.horizon
    if traj.steps != N + 1:
        raise ValueError(f"trajectory has {traj.steps} steps, horizon wants {N + 1}")
    A, B, E = model.A, model.B, model.E
    r = cost.r
    x = traj.x
    Qe = (x[1:N + 1] - r).dot(cost.Q.T)
    lam = np.empty((N + 1, model.n))
    riccati.P[N + 1].dot(x[N + 1] - r, out=lam[N])
    dot = _dot_for(model.n)
    At = A.T
    for k in range(N, 0, -1):
        np.add(Qe[k - 1], dot(At, lam[k]), out=lam[k - 1])

    BtR = B.T.dot(cost.R)
    stat = (traj.u.dot(B.T) + traj.d.dot(E.T)).dot(BtR.T) + lam.dot(B)
    link = lam - (riccati.P[1:] @ x[1:, :, None])[:, :, 0] - ff.f[1:]
    # the largest row norm is the root of the largest row sum of squares
    return (math.sqrt(np.max(np.einsum("ki,ki->k", stat, stat))),
            math.sqrt(np.max(np.einsum("ki,ki->k", link, link))))


@dataclass(frozen=True)
class RandomInstance:
    """One randomly drawn solvable problem for the verification suite; N = len(d) - 1."""

    model: SystemModel
    cost: CostSpec
    x0: np.ndarray
    d: np.ndarray

    @property
    def N(self):
        return len(self.d) - 1


def draw_instance(rng):
    """Draw a random instance inside the strict (unique-optimum) regime.

    A is scaled to a spectral radius in [0.3, 1.2]; B and E have unit-normal
    entries; Q = C'C, R = D'D, and the terminal weight G'G are random PSD.
    Draws are rejected until every Upsilon_k along the horizon has smallest
    eigenvalue at least 1e-6, which keeps both the recursion and the
    brute-force oracle well posed.
    """
    return _draw_solved_instance(rng)[0]


def _draw_solved_instance(rng):
    """``draw_instance``'s (instance, strict RiccatiSolution it was accepted on)."""
    for _ in range(_TRIES):
        n = int(rng.integers(1, _N_STATES + 1))
        m = int(rng.integers(1, min(_M_INPUTS, n) + 1))
        N = int(rng.integers(0, _HORIZON + 1))
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
        if float(np.min(riccati.Upsilon_eig[:, 0])) < 1e-6:
            continue
        return RandomInstance(model=model, cost=cost, x0=rng.standard_normal(n),
                              d=rng.standard_normal((N + 1, m))), riccati
    raise RuntimeError(f"no well-posed instance in {_TRIES} draws")
