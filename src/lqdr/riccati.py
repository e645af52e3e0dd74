"""Backward Riccati recursions for the disturbance-rejection tracking problem.

The finite-horizon solve iterates, from the terminal weight down to k = 0,

    Upsilon_k = B' (R + P_{k+1}) B
    M_k       = B' P_{k+1} A
    P_k       = Q + A' P_{k+1} A - M_k' Upsilon_k^{-1} M_k

and stores the feedback gains K_k = Upsilon_k^{-1} M_k.  One step is one
Gram product [A B]' P_{k+1} [A B], whose blocks are A'PA, M_k and B'PB, and
one symmetric eigendecomposition Upsilon_k = V diag(w) V' (Golub & Van Loan,
*Matrix Computations*, section 8.1), which gives the solvability test, the
inverse V diag(1/w) V' and the consistency defect at once.  The
decomposition is LAPACK's ``dsyevd`` on the upper triangle, through
``np.linalg.eigh``; at m = 1 it is w = Upsilon, V = 1, formed directly.
In strict mode each Upsilon_k must be positive definite, the solvability
condition for a unique optimal controller, as ``_definite`` judges it:
smallest eigenvalue above ``PINV_RCOND`` times the largest.  In non-strict
mode eigenvalues whose modulus is at most that bound are dropped, which is the
Moore-Penrose pseudo-inverse with the cutoff ``np.linalg.pinv`` uses
(section 5.5.4).  It is legitimate exactly when the consistency condition
Upsilon_k Upsilon_k^+ M_k = M_k holds at every step; its defect is
||V_dropped' M_k||, accepted up to ``REGULARITY_TOL`` times ||M_k||.  Both
tests are relative, so rescaling Q, R and P_T together changes no verdict.
Every step symmetrizes by ``model._sym`` and multiplies by ``model._dot_for``.
In floating point the pass reaches its infinite-horizon limit exactly (P
repeats bit for bit), and it stops there (``solve_finite_horizon``).

The stationary equation

    P = Q + A' P A - M' Upsilon^+ M

is solved as the limit of the finite-horizon P_0 from P = 0, which is how the
infinite-horizon solution arises.  When Rbar = B' R B is ``_definite`` the
limit is reached by doubling (Anderson & Moore, *Optimal Filtering*; Chu,
Fan, Lin & Wang 2004): from A_0 = A, G_0 = B Rbar^{-1} B', H_0 = Q,

    W       = I + G_k H_k
    A_{k+1} = A_k W^{-1} A_k
    G_{k+1} = G_k + A_k W^{-1} G_k A_k'
    H_{k+1} = H_k + A_k' H_k W^{-1} A_k

and H_k is P_0 of a 2^k-step pass, so each iterate doubles the horizon.
When Rbar is singular (free effort, or B = 0) the backward step itself is
repeated in pseudo-inverse mode, one horizon step per iterate.  Either way
the iteration stops on a change relative to the iterate's own size, so
rescaling Q and R together changes neither the path nor the count.
``gare_fixed_point`` lists the refusals, among them a P certified to grow
without bound (``_grows_without_bound``).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, RegularityError, SolvabilityError, StabilizationError
from .model import (PSD_EIG_FLOOR, RANK_REL_TOL, _dot_for, _require_symmetric, _sym,
                    check_detectability, freeze_fields)

#: Relative eigenvalue cutoff of ``_definite`` and of the pseudo-inverse.
PINV_RCOND = 1e-10
#: Largest accepted consistency defect, relative to ||M|| (Frobenius).
REGULARITY_TOL = 1e-9
#: Value-iteration steps after which a still-moving P is tested for unbounded growth.
GROWTH_CHECK_ITERS = 256
#: Doublings after which a still-moving P is refused: its horizon, 2^64
#: steps, is beyond any finite-horizon problem.
MAX_DOUBLINGS = 64
#: Why P grows without bound when ``_grows_without_bound`` certifies it.
_GROWTH = "a mode no input reaches has |eigenvalue| >= 1 and is weighted by Q"


def _definite(w):
    """The solvability verdict on ascending eigenvalues w: w[0] > ``PINV_RCOND`` w[-1].

    ``w`` is one row, or a stack of rows with one verdict each; NaN fails.
    """
    return w.T[0] > PINV_RCOND * w.T[-1]


def spectral_radius(mat):
    """Largest eigenvalue modulus."""
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


#: The eigenvector matrix of every 1 x 1 matrix, shared read-only.
_ONE = np.ones((1, 1))
_ONE.setflags(write=False)


def _eigh(Upsilon):
    """(w, V) with Upsilon = V diag(w) V', w ascending, for symmetric Upsilon.

    LAPACK's ``dsyevd`` through ``np.linalg.eigh``, reading the upper
    triangle (``UPLO="U"``, the triangle ``scipy.linalg.lapack.dsyevd``
    reads by default; the lower one rounds differently).  At m = 1 the
    result is formed directly, as ``dsyevd`` forms it: w = Upsilon[0, 0]
    and V = 1, without the wrapper's cost.  NaN and inf entries give what
    ``dsyevd`` gives, or ``np.linalg.LinAlgError`` where it does not
    converge.
    """
    if Upsilon.shape[0] == 1:
        return Upsilon[0].copy(), _ONE
    return np.linalg.eigh(Upsilon, UPLO="U")


def _eig_inverse(w, V, M, definite, out=None):
    """(Upsilon^+, ||Upsilon Upsilon^+ M - M||) from Upsilon = V diag(w) V', w ascending.

    ``definite`` is ``_definite(w)``: then Upsilon is inverted whole and the
    defect is 0.0.  Otherwise eigenvalues of modulus at most ``PINV_RCOND``
    times the largest are dropped, the cutoff of ``np.linalg.pinv``, and the
    defect is ||V_dropped' M|| (Frobenius), 0.0 when none is.  The inverse is
    written into ``out`` when given.
    """
    # ndarray.dot even at m = 1, where (v / w) v is not zero: no sign to keep
    if definite:
        # nothing is dropped: the result below, without its indexing and norm
        return (V / w).dot(V.T, out=out), 0.0
    keep = np.abs(w) > PINV_RCOND * np.max(np.abs(w))
    V_keep = V[:, keep]
    return ((V_keep / w[keep]).dot(V_keep.T, out=out),
            float(np.linalg.norm(V[:, ~keep].T.dot(M))))


def _step_constants(A, B, Q, R):
    """The backward step's step-independent products: [A B] and diag(sym(Q), sym(B'RB))."""
    n, m = B.shape
    W = np.zeros((n + m, n + m))
    W[:n, :n] = _sym(Q)
    W[n:, n:] = _sym(B.T @ R @ B)
    return np.hstack([A, B]), W


def _backward_step(P_next, AB, W, strict, k=None, out=None):
    """One step back from P_{k+1}: (Upsilon, M, Upsilon_eig, Upsilon_inv, K, P, defect).

    ``AB`` and ``W`` come from ``_step_constants``.  The Gram product
    G = AB' P_{k+1} AB is symmetrized in place; its blocks are A'PA, M = B'PA
    and B'PB.  W is then added into G, which holds Q + A'PA and
    Upsilon = Rbar + B'PB.  Upsilon_eig holds the ascending eigenvalues of
    Upsilon.  The verdict ``_definite`` is decided once: strict mode raises
    ``SolvabilityError``, naming step ``k``, without it; otherwise
    Upsilon_inv is the pseudo-inverse and ``defect`` the consistency defect
    ||Upsilon Upsilon_inv M - M||, 0.0 when Upsilon is inverted whole.  P
    is (Q + A'PA) - M'K symmetrized.

    ``out``, when given, is six arrays of the result's shapes, the rows of
    step k in a pass's stacks, in the order above: the step fills them in
    place and returns them with the defect.  Without ``out`` it allocates
    the six arrays it returns.  Beyond those it allocates only the products
    P_{k+1} AB, G and M'K, the transpose copies that symmetrize, and the
    eigendecomposition.
    """
    n = P_next.shape[0]
    dot = _dot_for(n)
    if out is None:
        m = AB.shape[1] - n
        out = (np.empty((m, m)), np.empty((m, n)), np.empty(m), np.empty((m, m)),
               np.empty((m, n)), np.empty((n, n)))
    Upsilon, M, Upsilon_eig, Upsilon_inv, K, P = out
    G = dot(AB.T, dot(P_next, AB))
    _sym(G, out=G)
    M[...] = G[n:, :n]
    # G becomes W + G, whose blocks hold Q + A'PA and Upsilon; M is read first,
    # since adding W's zero block would turn a -0.0 in it into +0.0
    np.add(W, G, out=G)
    Upsilon[...] = G[n:, n:]
    w, V = _eigh(Upsilon)
    definite = _definite(w)
    if strict and not definite:
        raise SolvabilityError(
            f"Upsilon_{k} is not positive definite (min eigenvalue {w[0]:.3e}, "
            f"max {w[-1]:.3e}); no unique optimal input",
            step=k, min_eigenvalue=float(w[0]))
    Upsilon_eig[...] = w
    defect = _eig_inverse(w, V, M, definite, out=Upsilon_inv)[1]
    dot(Upsilon_inv, M, out=K)
    np.subtract(G[:n, :n], dot(M.T, K), out=P)
    _sym(P, out=P)
    return (*out, defect)


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward-recursion output over a horizon of N + 1 control steps.

    Attributes:
        horizon: N; controls exist for k = 0..N.
        P: (N+2, n, n) value matrices, P[N+1] is the terminal weight.
        Upsilon: (N+1, m, m) input-channel Gram matrices.
        M: (N+1, m, n) cross terms.
        Upsilon_eig: (N+1, m) ascending eigenvalues of each Upsilon_k; column 0
            is the solvability margin.
        Upsilon_inv: (N+1, m, m) Upsilon_k^{-1} (Upsilon_k^+ in non-strict mode).
        K: (N+1, m, n) feedback gains, K_k = Upsilon_inv_k M_k.
    """

    horizon: int
    P: np.ndarray
    Upsilon: np.ndarray
    M: np.ndarray
    Upsilon_eig: np.ndarray
    Upsilon_inv: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "P", "Upsilon", "M", "Upsilon_eig", "Upsilon_inv", "K")


@dataclass(frozen=True)
class GareSolution:
    """Stationary solution with its feedback gain and convergence evidence.

    ``Upsilon_inv`` is the pseudo-inverse of ``Upsilon``, K = Upsilon_inv M;
    ``residual`` is the elementwise-max defect of P under one more iteration
    map application; ``closed_loop_radius`` is the spectral radius of A - B K.
    ``iterations`` counts doublings or backward steps, and ``horizon`` is
    the finite horizon whose P_0 (from P = 0) was returned: 2^iterations
    after doubling, ``iterations`` after value iteration.  ``Upsilon_eig``
    holds the ascending eigenvalues of ``Upsilon``.
    """

    P: np.ndarray
    Upsilon: np.ndarray
    M: np.ndarray
    Upsilon_eig: np.ndarray
    Upsilon_inv: np.ndarray
    K: np.ndarray
    closed_loop_radius: float
    iterations: int
    residual: float
    horizon: int

    def __post_init__(self):
        freeze_fields(self, "P", "Upsilon", "M", "Upsilon_eig", "Upsilon_inv", "K")


def solve_finite_horizon(model, cost, N, strict=True):
    """Run the backward recursion from the terminal weight down to step 0.

    Args:
        model: SystemModel.
        cost: CostSpec whose P_terminal seeds the recursion.
        N: final control index; N + 1 gains are produced.
        strict: require every Upsilon_k positive definite.  When False the
            pseudo-inverse is used and the per-step consistency condition is
            verified instead.

    Each step writes its rows of the six stacks in place (the ``out`` of
    ``_backward_step``).  The step of every P computed is kept by the hash
    of its bytes, P_{N+1} included.  The pass stops at the first k whose
    P_k equals a stored P_j bit for bit (a hash hit is confirmed on the
    bytes) and fills each step i < k with step k + ((i - k) mod (j - k)) of
    the cycle k..j-1, which is exactly what the remaining steps would
    compute; their checks would pass as those steps' did.  j = k + 1 is an
    exact fixed point.

    Raises:
        ValueError: N < 0, the cost and model dimensions differ, or Q, R or
            P_terminal is not symmetric to ``model.SYMMETRY_TOL`` relative.
        SolvabilityError: strict mode and some Upsilon_k is not positive
            definite (the failing step is reported).
        RegularityError: non-strict mode and the pseudo-inverse solve is
            inconsistent at some step.
    """
    if N < 0:
        raise ValueError("horizon N must be >= 0")
    if cost.n != model.n:
        raise ValueError("cost and model dimensions differ")
    _require_symmetric(cost, ("Q", "R", "P_terminal"))
    AB, W = _step_constants(model.A, model.B, cost.Q, cost.R)
    n, m = model.n, model.m

    P = np.zeros((N + 2, n, n))
    Upsilon = np.zeros((N + 1, m, m))
    M = np.zeros((N + 1, m, n))
    Upsilon_eig = np.zeros((N + 1, m))
    Upsilon_inv = np.zeros((N + 1, m, m))
    K = np.zeros((N + 1, m, n))
    P[N + 1] = _sym(cost.P_terminal)

    stacks = (Upsilon, M, Upsilon_eig, Upsilon_inv, K, P)
    P_next = P[N + 1]
    # the step of every P computed so far, by the hash of its bytes
    seen = {hash(P_next.tobytes()): N + 1}
    # the rows of step k in every stack, N down to 0
    for k, rows in zip(range(N, -1, -1), zip(*(arr[N::-1] for arr in stacks))):
        defect = _backward_step(P_next, AB, W, strict, k, out=rows)[6]
        # the defect is exactly 0.0 unless an eigenvalue was dropped
        if defect and not defect <= REGULARITY_TOL * np.linalg.norm(rows[1]):
            raise RegularityError(
                f"pseudo-inverse solve inconsistent at step {k} "
                f"(defect {defect:.3e}); the problem is unsolvable",
                step=k, residual=defect)
        P_next = rows[5]
        P_bytes = P_next.tobytes()
        # a hash shared by two different P keeps the first: the stop comes later
        j = seen.setdefault(hash(P_bytes), k)
        if j != k and P_bytes == P[j].tobytes():
            # P_k == P_j: every earlier step repeats one of steps k..j-1 on
            # the same input, so it would return the same arrays and verdict
            for arr in stacks:
                arr[:k] = arr[k + np.arange(-k, 0) % (j - k)]
            break

    return RiccatiSolution(horizon=N, P=P, Upsilon=Upsilon, M=M, Upsilon_eig=Upsilon_eig,
                           Upsilon_inv=Upsilon_inv, K=K)


def _svd_rank(s, shape):
    """Singular values above eps max(shape) s_max: ``scipy.linalg.orth``'s cutoff."""
    return int(np.sum(s > np.finfo(float).eps * max(shape) * np.max(s, initial=0.0)))


def _orth(M):
    """Orthonormal basis of the range of M, the leading left singular vectors."""
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    return u[:, :_svd_rank(s, M.shape)]


def _null_space(M):
    """Orthonormal basis of the null space of M, the trailing right singular vectors."""
    _, s, vh = np.linalg.svd(M)
    return vh[_svd_rank(s, M.shape):].T


def _grows_without_bound(A, B, Q, Rbar):
    """Whether the k-step P_0 from P = 0 provably grows without bound in k.

    With U an orthonormal basis of the reachable subspace, the span of B,
    AB, ..., A^(n-1) B (``_orth``, whose rank cutoff errs towards
    reachable), and L one of its orthogonal complement, y = L' x
    obeys y_{k+1} = S y_k with S = L' A L whatever the input.  Choosing the
    reachable part of each state freely, an input can at best bring the
    step cost down to y' Q_s y, Q_s the Schur complement of Q over U.  An
    eigenvector v of S with |lambda| >= 1 and v* Q_s v above ``RANK_REL_TOL``
    times max|Q| then makes the k-step cost from x = L v (its real or
    imaginary part) grow at least like k.  A computed |lambda| counts as
    >= 1 down to 1 - dim(S) eps ||S||_F, the rounding error of a backward
    stable eigensolver, so a unit-circle mode computed just inside the
    circle is certified too.  The bound needs Q and Rbar positive
    semidefinite (down to ``model.PSD_EIG_FLOOR`` times their largest
    eigenvalue modulus); otherwise there is no certificate.
    """
    if not all(eigs[0] >= PSD_EIG_FLOOR * np.max(np.abs(eigs))
               for eigs in map(np.linalg.eigvalsh, (Q, Rbar))):
        return False
    U = _orth(B)
    while U.shape[1] < A.shape[0]:
        wider = _orth(np.hstack([U, A @ U]))
        if wider.shape[1] == U.shape[1]:
            break
        U = wider
    L = _null_space(U.T)
    if not L.size:
        return False
    LQU = L.T @ Q @ U
    Q_s = L.T @ Q @ L - LQU @ np.linalg.pinv(U.T @ Q @ U) @ LQU.T
    floor = RANK_REL_TOL * float(np.max(np.abs(Q)))
    S = L.T @ A @ L
    unit = 1.0 - S.shape[0] * np.finfo(float).eps * float(np.linalg.norm(S))
    w, V = np.linalg.eig(S)
    return any(abs(lam) >= unit and np.real(v.conj() @ Q_s @ v) > floor
               for lam, v in zip(w, V.T))


def _doubling_step(A_k, G_k, H_k):
    """(A_{k+1}, G_{k+1}, H_{k+1}): the horizon of H doubles."""
    n = A_k.shape[0]
    WinvA, WinvG = np.hsplit(np.linalg.solve(np.eye(n) + G_k @ H_k, np.hstack([A_k, G_k])), 2)
    return A_k @ WinvA, _sym(G_k + A_k @ WinvG @ A_k.T), _sym(H_k + A_k.T @ H_k @ WinvA)


def gare_fixed_point(model, cost, tol=1e-12, max_iters=100000):
    """Limit of the finite-horizon P_0 from P = 0, by doubling when it can.

    With Rbar = B' R B ``_definite`` iterate k is the P_0 of a 2^k-step pass
    from P = 0; otherwise iterate k is the backward step in pseudo-inverse
    mode applied k times, the P_0 of a k-step pass.  Both stop once
    max|P_next - P| <= tol * max|P_next|, doubling after ``MAX_DOUBLINGS``
    iterates at the latest.  Warns when (A, Q^(1/2)) is not
    detectable, since convergence is then not guaranteed.  The returned
    solution is NOT checked for a contracting closed loop; use
    ``solve_gare`` for the certified variant.

    Raises:
        ValueError: ``tol`` is not positive, the cost and model dimensions
            differ, or Q or R (the weights it reads) is not symmetric to
            ``model.SYMMETRY_TOL`` relative.
        ConvergenceError: the update never fell below ``tol`` within
            ``max_iters`` iterates, or ``MAX_DOUBLINGS`` doublings (the last
            increment is attached), value iteration is still moving after
            ``GROWTH_CHECK_ITERS`` steps on a plant whose P provably grows
            without bound, a doubling step's I + G_k H_k is singular, the
            iterates stopped being finite, or the limit lost semidefiniteness
            (smallest eigenvalue below ``model.PSD_EIG_FLOOR`` times the
            largest modulus, a test no rescaling of the weights changes).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if cost.n != model.n:
        raise ValueError("cost and model dimensions differ")
    _require_symmetric(cost, ("Q", "R"))
    if not check_detectability(model.A, cost.Q):
        warnings.warn("(A, Q^(1/2)) is not detectable; the stationary solve "
                      "may diverge or fail to stabilize", stacklevel=2)
    A, B = model.A, model.B
    n = model.n
    AB, W = _step_constants(A, B, cost.Q, cost.R)
    Q, Rbar = W[:n, :n], W[n:, n:]

    doubling = _definite(np.linalg.eigvalsh(Rbar))
    if doubling:
        A_k, G_k, P = A, _sym(B @ np.linalg.solve(Rbar, B.T)), Q
    else:
        P = np.zeros((n, n))
    limit = min(max_iters, MAX_DOUBLINGS) if doubling else max_iters
    iterations = 0
    delta = np.inf
    while iterations < limit:
        if doubling:
            try:
                A_k, G_k, P_next = _doubling_step(A_k, G_k, P)
            except np.linalg.LinAlgError:
                where = f"the solve of doubling step {iterations + 1} is singular"
                raise ConvergenceError(
                    f"stationary iteration grows without bound ({where}): {_GROWTH}"
                    if _grows_without_bound(A, B, Q, Rbar)
                    else f"stationary iteration stopped: {where}",
                    residual=delta, iterations=iterations) from None
        else:
            P_next = _backward_step(P, AB, W, strict=False)[5]
        delta = float(np.max(np.abs(P_next - P)))
        P = P_next
        iterations += 1
        if not np.isfinite(P).all():
            raise ConvergenceError(
                f"stationary iteration diverged after {iterations} iterations",
                residual=delta, iterations=iterations)
        if delta <= tol * float(np.max(np.abs(P))):
            break
        if iterations == GROWTH_CHECK_ITERS and not doubling \
                and _grows_without_bound(A, B, Q, Rbar):
            raise ConvergenceError(
                f"stationary iteration grows without bound (still moving by "
                f"{delta:.3e} after {iterations} iterations): {_GROWTH}",
                residual=delta, iterations=iterations)
    else:
        raise ConvergenceError(
            f"stationary iteration still moving by {delta:.3e} after "
            f"{limit} {'doublings' if doubling else 'iterations'} (tol {tol:g}, relative)",
            residual=delta, iterations=limit)

    Upsilon, M, Upsilon_eig, Upsilon_inv, K, P_check, _ = \
        _backward_step(P, AB, W, strict=False)
    residual = float(np.max(np.abs(P_check - P)))
    eigs = np.linalg.eigvalsh(P)
    min_eig = float(eigs[0])
    if min_eig < PSD_EIG_FLOOR * float(np.max(np.abs(eigs))):
        raise ConvergenceError(
            f"stationary iterate lost semidefiniteness (min eigenvalue {min_eig:.3e}, "
            f"below {PSD_EIG_FLOOR:g} times the largest modulus)",
            residual=residual, iterations=iterations)
    radius = spectral_radius(A - B @ K)
    return GareSolution(P=P, Upsilon=Upsilon, M=M, Upsilon_eig=Upsilon_eig,
                        Upsilon_inv=Upsilon_inv, K=K,
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
