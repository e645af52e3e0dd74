"""Backward Riccati recursions for the disturbance-rejection tracking problem.

The finite-horizon solve iterates, from the terminal weight down to k = 0,

    Upsilon_k = B' (R + P_{k+1}) B
    M_k       = B' P_{k+1} A
    P_k       = Q + A' P_{k+1} A - M_k' Upsilon_k^{-1} M_k

and stores the feedback gains K_k = Upsilon_k^{-1} M_k.  In strict mode each
Upsilon_k must be positive definite (the solvability condition for a unique
optimal controller).  In non-strict mode a Moore-Penrose pseudo-inverse is
used instead, which is legitimate exactly when the consistency condition
Upsilon_k Upsilon_k^+ M_k = M_k holds at every step.  Each solution stores
the inverse its recursion used as ``Upsilon_inv``.

The stationary equation

    P = Q + A' P A - M' Upsilon^+ M

is solved as the limit of the finite-horizon P_0 from P = 0, which is how the
infinite-horizon solution arises.  When Rbar = B' R B is positive definite
the limit is reached by doubling (Anderson & Moore, *Optimal Filtering*;
Chu, Fan, Lin & Wang 2004): from A_0 = A, G_0 = B Rbar^{-1} B', H_0 = Q,

    W       = I + G_k H_k
    A_{k+1} = A_k W^{-1} A_k
    G_{k+1} = G_k + A_k W^{-1} G_k A_k'
    H_{k+1} = H_k + A_k' H_k W^{-1} A_k

and H_k is P_0 of a 2^k-step pass, so each iterate doubles the horizon.
When Rbar is singular (free effort, or B = 0) the backward step itself is
repeated in pseudo-inverse mode, one horizon step per iterate.  Either way
the iteration stops on a change relative to the iterate's own size, so
rescaling Q and R together changes neither the path nor the count.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, RegularityError, SolvabilityError, StabilizationError
from .model import check_detectability, freeze_fields

#: Relative singular-value cutoff for all pseudo-inverses in this module.
PINV_RCOND = 1e-10
#: Smallest eigenvalue of Upsilon_k accepted as positive definite.
PD_MIN_EIG = 1e-10
#: Tolerance for the pseudo-inverse consistency check inside solves.
REGULARITY_TOL = 1e-9


def _sym(mat):
    return (mat + mat.T) / 2


def spectral_radius(mat):
    """Largest eigenvalue modulus."""
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def _regularity_defect(Upsilon, Upsilon_inv, M, tol):
    """(||Upsilon Upsilon^+ M - M||, whether it is <= tol * (1 + ||M||)), Frobenius."""
    defect = float(np.linalg.norm(Upsilon @ Upsilon_inv @ M - M))
    return defect, bool(defect <= tol * (1 + np.linalg.norm(M)))


def check_regularity(Upsilon, M, tol):
    """True iff ||Upsilon Upsilon^+ M - M|| <= tol * (1 + ||M||) (Frobenius)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    Upsilon = np.atleast_2d(np.asarray(Upsilon, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return _regularity_defect(Upsilon, np.linalg.pinv(Upsilon, rcond=PINV_RCOND), M, tol)[1]


def _backward_step(P_next, A, B, Q, R, strict, k=None):
    """One step back from P_{k+1}: (Upsilon, M, Upsilon_inv, K, P).

    Strict mode checks that Upsilon is positive definite, naming step ``k``
    if not, and inverts it; otherwise Upsilon_inv is the pseudo-inverse.
    """
    Upsilon = _sym(B.T @ (R + P_next) @ B)
    M = B.T @ P_next @ A
    if strict:
        min_eig = float(np.min(np.linalg.eigvalsh(Upsilon)))
        if min_eig <= PD_MIN_EIG:
            raise SolvabilityError(
                f"Upsilon_{k} is not positive definite "
                f"(min eigenvalue {min_eig:.3e}); no unique optimal input",
                step=k, min_eigenvalue=min_eig)
        Upsilon_inv = np.linalg.inv(Upsilon)
    else:
        Upsilon_inv = np.linalg.pinv(Upsilon, rcond=PINV_RCOND)
    K = Upsilon_inv @ M
    return Upsilon, M, Upsilon_inv, K, _sym(Q + A.T @ P_next @ A - M.T @ K)


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward-recursion output over a horizon of N + 1 control steps.

    Attributes:
        horizon: N; controls exist for k = 0..N.
        P: (N+2, n, n) value matrices, P[N+1] is the terminal weight.
        Upsilon: (N+1, m, m) input-channel Gram matrices.
        M: (N+1, m, n) cross terms.
        Upsilon_inv: (N+1, m, m) Upsilon_k^{-1} (Upsilon_k^+ in non-strict mode).
        K: (N+1, m, n) feedback gains, K_k = Upsilon_inv_k M_k.
        strict: whether gains were computed with true inverses.
    """

    horizon: int
    P: np.ndarray
    Upsilon: np.ndarray
    M: np.ndarray
    Upsilon_inv: np.ndarray
    K: np.ndarray
    strict: bool

    def __post_init__(self):
        freeze_fields(self, "P", "Upsilon", "M", "Upsilon_inv", "K")

    def upsilon_solve(self, k, rhs):
        """Apply Upsilon_k^{-1} (or its pseudo-inverse in non-strict mode)."""
        return self.Upsilon_inv[k] @ rhs


@dataclass(frozen=True)
class GareSolution:
    """Stationary solution with its feedback gain and convergence evidence.

    ``Upsilon_inv`` is the pseudo-inverse of ``Upsilon``, K = Upsilon_inv M;
    ``residual`` is the elementwise-max defect of P under one more iteration
    map application; ``closed_loop_radius`` is the spectral radius of A - B K.
    ``iterations`` counts doublings or backward steps, and ``horizon`` is
    the finite horizon whose P_0 (from P = 0) was returned: 2^iterations
    after doubling, ``iterations`` after value iteration (None when the
    solution was not produced by ``gare_fixed_point``).
    """

    P: np.ndarray
    Upsilon: np.ndarray
    M: np.ndarray
    Upsilon_inv: np.ndarray
    K: np.ndarray
    closed_loop_radius: float
    iterations: int
    residual: float
    horizon: int = None

    def __post_init__(self):
        freeze_fields(self, "P", "Upsilon", "M", "Upsilon_inv", "K")


def solve_finite_horizon(model, cost, N, strict=True):
    """Run the backward recursion from the terminal weight down to step 0.

    Args:
        model: SystemModel.
        cost: CostSpec whose P_terminal seeds the recursion.
        N: final control index; N + 1 gains are produced.
        strict: require every Upsilon_k positive definite.  When False the
            pseudo-inverse is used and the per-step consistency condition is
            verified instead.

    Raises:
        SolvabilityError: strict mode and some Upsilon_k is not positive
            definite (the failing step is reported).
        RegularityError: non-strict mode and the pseudo-inverse solve is
            inconsistent at some step.
    """
    if N < 0:
        raise ValueError("horizon N must be >= 0")
    if cost.n != model.n:
        raise ValueError("cost and model dimensions differ")
    A, B = model.A, model.B
    Q, R = cost.Q, cost.R
    n, m = model.n, model.m

    P = np.zeros((N + 2, n, n))
    Upsilon = np.zeros((N + 1, m, m))
    M = np.zeros((N + 1, m, n))
    Upsilon_inv = np.zeros((N + 1, m, m))
    K = np.zeros((N + 1, m, n))
    P[N + 1] = _sym(cost.P_terminal)

    for k in range(N, -1, -1):
        Upsilon[k], M[k], Upsilon_inv[k], K[k], P[k] = _backward_step(
            P[k + 1], A, B, Q, R, strict, k)
        if not strict:
            defect, ok = _regularity_defect(Upsilon[k], Upsilon_inv[k], M[k], REGULARITY_TOL)
            if not ok:
                raise RegularityError(
                    f"pseudo-inverse solve inconsistent at step {k} "
                    f"(defect {defect:.3e}); the problem is unsolvable",
                    step=k, residual=defect)

    return RiccatiSolution(horizon=N, P=P, Upsilon=Upsilon, M=M,
                           Upsilon_inv=Upsilon_inv, K=K, strict=strict)


def _doubling_step(A_k, G_k, H_k):
    """(A_{k+1}, G_{k+1}, H_{k+1}): the horizon of H doubles."""
    n = A_k.shape[0]
    WinvA, WinvG = np.hsplit(np.linalg.solve(np.eye(n) + G_k @ H_k, np.hstack([A_k, G_k])), 2)
    return A_k @ WinvA, _sym(G_k + A_k @ WinvG @ A_k.T), _sym(H_k + A_k.T @ H_k @ WinvA)


def gare_fixed_point(model, cost, tol=1e-12, max_iters=100000):
    """Limit of the finite-horizon P_0 from P = 0, by doubling when it can.

    With Rbar = B' R B positive definite (min eigenvalue above
    ``PINV_RCOND`` times the largest) iterate k is the P_0 of a 2^k-step pass
    from P = 0; otherwise iterate k is the backward step in pseudo-inverse
    mode applied k times, the P_0 of a k-step pass.  Both stop once
    max|P_next - P| <= tol * max|P_next|.  Warns when (A, Q^(1/2)) is not
    detectable, since convergence is then not guaranteed.  The returned
    solution is NOT checked for a contracting closed loop; use
    ``solve_gare`` for the certified variant.

    Raises:
        ConvergenceError: the update never fell below ``tol`` (the last
            increment is attached), the iterates stopped being finite, or
            the limit lost semidefiniteness.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if cost.n != model.n:
        raise ValueError("cost and model dimensions differ")
    if not check_detectability(model.A, cost.Q):
        warnings.warn("(A, Q^(1/2)) is not detectable; the stationary solve "
                      "may diverge or fail to stabilize", stacklevel=2)
    A, B = model.A, model.B
    Q, R = cost.Q, cost.R

    Rbar = _sym(B.T @ R @ B)
    eigs = np.linalg.eigvalsh(Rbar)
    doubling = eigs[0] > PINV_RCOND * eigs[-1]
    if doubling:
        A_k, G_k, P = A, _sym(B @ np.linalg.solve(Rbar, B.T)), _sym(Q)
    else:
        P = np.zeros((model.n, model.n))
    iterations = 0
    delta = np.inf
    while iterations < max_iters:
        if doubling:
            A_k, G_k, P_next = _doubling_step(A_k, G_k, P)
        else:
            P_next = _backward_step(P, A, B, Q, R, strict=False)[4]
        delta = float(np.max(np.abs(P_next - P)))
        P = P_next
        iterations += 1
        if not np.isfinite(P).all():
            raise ConvergenceError(
                f"stationary iteration diverged after {iterations} iterations",
                residual=delta, iterations=iterations)
        if delta <= tol * float(np.max(np.abs(P))):
            break
    else:
        raise ConvergenceError(
            f"stationary iteration still moving by {delta:.3e} after "
            f"{max_iters} iterations (tol {tol:g}, relative)",
            residual=delta, iterations=max_iters)

    Upsilon, M, Upsilon_inv, K, P_check = _backward_step(P, A, B, Q, R, strict=False)
    residual = float(np.max(np.abs(P_check - P)))
    min_eig = float(np.min(np.linalg.eigvalsh(P)))
    if min_eig < -1e-8:
        raise ConvergenceError(
            f"stationary iterate lost semidefiniteness (min eigenvalue {min_eig:.3e})",
            residual=residual, iterations=iterations)
    radius = spectral_radius(A - B @ K)
    return GareSolution(P=P, Upsilon=Upsilon, M=M, Upsilon_inv=Upsilon_inv, K=K,
                        closed_loop_radius=radius, iterations=iterations,
                        residual=residual,
                        horizon=2 ** iterations if doubling else iterations)


def solve_gare(model, cost, tol=1e-12, max_iters=100000):
    """Certified stationary solve: fixed point plus a contraction check.

    Raises:
        ConvergenceError: as in ``gare_fixed_point``.
        StabilizationError: the iteration converged but rho(A - B K) >= 1,
            so the stationary law does not stabilize the plant.
    """
    solution = gare_fixed_point(model, cost, tol=tol, max_iters=max_iters)
    if solution.closed_loop_radius >= 1.0:
        raise StabilizationError(
            f"stationary solution exists but rho(A - B K) = "
            f"{solution.closed_loop_radius:.6f} >= 1",
            spectral_radius=solution.closed_loop_radius)
    return solution
