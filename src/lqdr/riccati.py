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

is solved by running the same backward step, in pseudo-inverse mode, from
P = 0 until the iterates stop moving, which mirrors how the infinite-horizon
solution arises as the limit of finite-horizon ones.
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
    """

    P: np.ndarray
    Upsilon: np.ndarray
    M: np.ndarray
    Upsilon_inv: np.ndarray
    K: np.ndarray
    closed_loop_radius: float
    iterations: int
    residual: float

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


def gare_fixed_point(model, cost, tol=1e-12, max_iters=100000):
    """Iterate the stationary equation from P = 0 until the update stalls.

    Each iterate is the finite-horizon step in pseudo-inverse mode, so the
    j-th one is ``solve_finite_horizon``'s P_0 over j steps from P = 0.
    Warns when (A, Q^(1/2)) is not detectable, since convergence is then not
    guaranteed.  The returned solution is NOT checked for a contracting
    closed loop; use ``solve_gare`` for the certified variant.

    Raises:
        ConvergenceError: the update never fell below ``tol`` (the last
            increment is attached), or the limit lost semidefiniteness.
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

    P = np.zeros((model.n, model.n))
    iterations = 0
    delta = np.inf
    while iterations < max_iters:
        P_next = _backward_step(P, A, B, Q, R, strict=False)[4]
        delta = float(np.max(np.abs(P_next - P)))
        P = P_next
        iterations += 1
        if not np.isfinite(P).all():
            raise ConvergenceError(
                f"stationary iteration diverged after {iterations} iterations",
                residual=delta, iterations=iterations)
        if delta <= tol:
            break
    else:
        raise ConvergenceError(
            f"stationary iteration still moving by {delta:.3e} after "
            f"{max_iters} iterations (tol {tol:g})",
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
                        closed_loop_radius=radius,
                        iterations=iterations, residual=residual)


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
