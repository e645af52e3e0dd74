"""Disturbance and reference compensation sequences.

The optimal input at step k is u_k = -K_k x_k - Upsilon_k^{-1} h_k, where the
feedforward pair (h, f) is generated backward from the terminal condition
f_{N+1} = -P_{N+1} r by

    h_k = B' (R + P_{k+1}) E d_k + B' f_{k+1}
    f_k = A' P_{k+1} E d_k + A' f_{k+1} - M_k' Upsilon_k^{-1} h_k - Q r.

``solve_recursive`` forms the products that do not involve f for all steps
at once, a_k = B' (R + P_{k+1}) E d_k, b_k = A' P_{k+1} E d_k - Q r and
C_k = M_k' Upsilon_k^{-1}, and its loop runs the two equations as
h_k = a_k + B' f_{k+1} and f_k = b_k + A' f_{k+1} - C_k h_k.

Eliminating h from the f-equation turns it into the compact recursion

    f_k = Abar_k' f_{k+1} + F_k d_k - Q r,       Abar_k = A - B K_k,

whose unrolled form is a weighted sum of future disturbance samples; that
explicit sum is what ``solve_closed_form`` evaluates, and its stationary
fixed point under constant signals is what ``solve_steady`` returns for the
infinite-horizon controller.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import StabilizationError
from .model import disturbance_sequence, freeze_fields


@dataclass(frozen=True)
class FeedforwardSolution:
    """Compensation sequences aligned with a RiccatiSolution.

    h has one m-vector per control step (k = 0..N); f has N + 2 n-vectors
    ending at the terminal value f_{N+1} = -P_{N+1} r.
    """

    h: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "h", "f")


@dataclass(frozen=True)
class ClosedFormTerms:
    """Per-step matrices of the unrolled feedforward expression.

    H[k] = B' (R + P_{k+1}) E maps the current disturbance into h_k.
    Abar[k] is the closed-loop matrix A - B K_k.
    F[k] = (Abar_k' P_{k+1} - M_k' Upsilon_k^{-1} B' R) E drives the
    f-recursion, and Rscript accumulates the reference weighting backward:
    Rscript[k] = Abar_k' Rscript[k+1] + Q with Rscript[N+1] = P_{N+1}.
    """

    H: np.ndarray
    Abar: np.ndarray
    F: np.ndarray
    Rscript: np.ndarray


def closed_form_terms(riccati, model, cost):
    """Assemble the per-step matrices used by the explicit-sum evaluation."""
    A, B, E = model.A, model.B, model.E
    Q, R = cost.Q, cost.R
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
        F[k] = Abar[k].T @ riccati.P[k + 1] @ E - riccati.M[k].T @ riccati.upsilon_solve(k, BtRE)
        Rscript[k] = Abar[k].T @ Rscript[k + 1] + Q
    return ClosedFormTerms(H=H, Abar=Abar, F=F, Rscript=Rscript)


def solve_recursive(riccati, model, cost, d):
    """Backward pass for (h, f) over the horizon of ``riccati``.

    ``d`` may be a DisturbanceProfile or an array of at least N + 1 samples.
    Only the terms in f_{k+1} are formed inside the loop; the others are
    stacked arrays computed before it, so the rounding differs from a
    per-step evaluation by about 1e-13 relative.
    """
    A, B, E = model.A, model.B, model.E
    Q, R = cost.Q, cost.R
    r = cost.r
    N = riccati.horizon
    d_seq = disturbance_sequence(d, N + 1, dim=model.m)

    # row k is step k; R + P_{k+1} is split so that no (N+1) x n x n array
    # is allocated
    Ed = d_seq @ E.T
    PEd = (riccati.P[1:] @ Ed[:, :, None])[:, :, 0]
    a = Ed @ (B.T @ R).T + PEd @ B
    b = PEd @ A - Q @ r
    C = np.swapaxes(riccati.M, 1, 2) @ riccati.Upsilon_inv

    h = np.zeros((N + 1, model.m))
    f = np.zeros((N + 2, model.n))
    f[N + 1] = -riccati.P[N + 1] @ r
    for k in range(N, -1, -1):
        h[k] = a[k] + B.T @ f[k + 1]
        f[k] = b[k] + A.T @ f[k + 1] - C[k] @ h[k]
    return FeedforwardSolution(h=h, f=f)


def solve_closed_form(riccati, model, cost, d):
    """Evaluate the unrolled feedforward sums instead of recursing.

    For each k,

        f_k = sum_{s=k}^{N} (Abar_k' ... Abar_{s-1}') F_s d_s - Rscript_k r

    with the empty matrix product read as the identity, and
    h_k = H_k d_k + B' f_{k+1}.  Agrees with ``solve_recursive`` up to
    roundoff; the recursion is the arbiter wherever they could differ.
    """
    N = riccati.horizon
    d_seq = disturbance_sequence(d, N + 1, dim=model.m)
    terms = closed_form_terms(riccati, model, cost)
    r = cost.r
    n = model.n

    f = np.zeros((N + 2, n))
    f[N + 1] = -riccati.P[N + 1] @ r
    Fd = np.einsum("knm,km->kn", terms.F, d_seq)
    for k in range(N + 1):
        acc = -terms.Rscript[k] @ r
        prod = np.eye(n)
        for s in range(k, N + 1):
            acc = acc + prod @ Fd[s]
            prod = prod @ terms.Abar[s].T
        f[k] = acc

    h = np.zeros((N + 1, model.m))
    for k in range(N + 1):
        h[k] = terms.H[k] @ d_seq[k] + model.B.T @ f[k + 1]
    return FeedforwardSolution(h=h, f=f)


def solve_steady(gare, model, cost, d_limit, r=None):
    """Stationary (h, f) for a disturbance that settles at ``d_limit``.

    Substituting the h-equation into the f-equation under constant signals
    gives one linear system (I - Abar') f = F d - Q r, which is solvable
    because the stationary closed loop is a contraction.  The returned pair
    is the fixed point of the backward equations, i.e. the limit the
    finite-horizon sequences approach far from the terminal time.

    Raises:
        StabilizationError: the stationary closed loop is not a contraction,
            so the fixed point may not exist.
    """
    if gare.closed_loop_radius >= 1.0:
        raise StabilizationError(
            f"rho(A - B K) = {gare.closed_loop_radius:.6f} >= 1; "
            "no stationary feedforward", spectral_radius=gare.closed_loop_radius)
    A, B, E = model.A, model.B, model.E
    Q, R = cost.Q, cost.R
    if r is None:
        r = cost.r
    r = np.asarray(r, dtype=float).reshape(-1)
    d_limit = np.asarray(d_limit, dtype=float).reshape(-1)
    if d_limit.shape[0] != model.m:
        raise ValueError(f"d_limit must have length {model.m}")

    Abar = A - B @ gare.K
    F = (Abar.T @ gare.P - gare.M.T @ gare.Upsilon_inv @ B.T @ R) @ E
    f = np.linalg.solve(np.eye(model.n) - Abar.T, F @ d_limit - Q @ r)
    h = B.T @ (R + gare.P) @ (E @ d_limit) + B.T @ f
    return h, f
