"""Backward Riccati recursions for the disturbance-rejection tracking problem.

The finite-horizon solve iterates, from the terminal weight down to k = 0,

    Upsilon_k = B' (R + P_{k+1}) B
    M_k       = B' P_{k+1} A
    P_k       = Q + A' P_{k+1} A - M_k' Upsilon_k^{-1} M_k

and stores the feedback gains K_k = Upsilon_k^{-1} M_k; Upsilon_k and M_k
are step scratch, read downstream only as K_k' = M_k' Upsilon_k^{-1}.  One
step (``_backward_step``) is one Gram product [A B]' P_{k+1} [A B], whose
blocks are A'PA, M_k and B'PB, and one symmetric eigendecomposition
Upsilon_k = V diag(w) V' (``_eigh``; Golub & Van Loan, *Matrix
Computations*, section 8.1), which gives the solvability test, the inverse
V diag(1/w) V', the consistency defect and the dropped eigenvectors at
once.  The step decides once which eigenvalues are dropped and records the
decision in ``RiccatiSolution.Upsilon_dropped``; no other code decomposes
an Upsilon_k or decides again.
In strict mode each Upsilon_k must be positive definite, the solvability
condition for a unique optimal controller, as ``_definite`` judges it:
smallest eigenvalue above ``PINV_RCOND`` times the largest.  In non-strict
mode an indefinite Upsilon_k (smallest eigenvalue below -``PINV_RCOND``
times the larger of its modulus and the largest), whose stage cost has no
minimum in u, is refused as well; otherwise eigenvalues whose modulus is at
most that bound are dropped, which is the Moore-Penrose pseudo-inverse with
the cutoff ``np.linalg.pinv`` uses (section 5.5.4).  It is legitimate when
the consistency condition Upsilon_k Upsilon_k^+ M_k = M_k holds at every
step; its defect is ||V_dropped' M_k||, accepted up to ``REGULARITY_TOL``
times ||B|| ||A|| Pi_{k+1} (``_require_in_range``).  Pi_{k+1} is the
largest pi_j, j > k, and pi_j bounds the terms that formed P_j, in
Frobenius norm: pi_{N+1} = ||P_{N+1}|| and, bounding ||M_j|| by
||B|| ||A|| ||P_{j+1}||, pi_j = ||Q|| + (||A||^2 + ||B|| ||A|| ||K_j||) ||P_{j+1}||.
||M_k|| is no scale: P_{k+1}, and with it M_k, may cancel to rounding, and
so may the P after it, whose rounding then stems from the size of the P
before.  Nor is a bound compounded over the steps, which grows by at
least ||A||^2 a step and, some steps back, accepts every defect.  The
feedforward's h_k must lie in the same range, tested on the same dropped
eigenvectors (``feedforward.backward_pass``).  Both tests are relative, so
rescaling Q, R and P_T together changes no verdict.
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
``solve_gare`` refuses by one rule, which names unbounded growth
whenever ``_grows_without_bound`` certifies it.  It returns any other limit,
with rho(A - B K) as ``closed_loop_radius``; a loop that does not contract
is refused where the stationary law is built, by ``feedforward.solve_steady``.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, RegularityError, SolvabilityError
from .model import (PSD_EIG_FLOOR, _dot_for, _pbh_defect, _require_symmetric, _scaled,
                    _split, _sym, check_detectability, freeze_fields)

#: Relative eigenvalue cutoff of ``_definite`` and of the pseudo-inverse.
PINV_RCOND = 1e-10
#: Largest accepted consistency defect, relative to a bound on the terms that
#: form the vector it tests (``_require_in_range``; Frobenius).
REGULARITY_TOL = 1e-9
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


def _eigh(Upsilon):
    """(w, V) with Upsilon = V diag(w) V', w ascending, for symmetric Upsilon.

    LAPACK's ``dsyevd`` through ``np.linalg.eigh``, reading the upper
    triangle (``UPLO="U"``, the triangle ``scipy.linalg.lapack.dsyevd``
    reads by default; the lower one rounds differently).  At m = 1 it is
    w = Upsilon[0], V = 1.  NaN and inf entries give what ``dsyevd`` gives,
    or ``np.linalg.LinAlgError`` where it does not converge.
    """
    return np.linalg.eigh(Upsilon, UPLO="U")


def _kept(w):
    """The eigenvalues the pseudo-inverse keeps: modulus above ``PINV_RCOND`` times the largest."""
    return np.abs(w) > PINV_RCOND * np.max(np.abs(w))


def _require_in_range(k, defect, scale, what):
    """Refuse step k when some ``defect`` exceeds ``REGULARITY_TOL`` times its ``scale``.

    ``defect`` is ||V_dropped' v|| of a v that must lie in range(Upsilon_k),
    one value or one per problem, and ``scale`` bounds the terms that form
    v; the ``RegularityError`` names the step and the worst defect after
    ``what``.  NaN fails, and an infinite scale accepts.
    """
    over = ~(np.asarray(defect) <= REGULARITY_TOL * scale)
    if over.any():
        worst = float(np.max(np.where(over, defect, -np.inf)))
        raise RegularityError(f"{what} (defect {worst:.3e}); the problem is unsolvable",
                              step=k, residual=worst)


def _value_bound(Q_n, A_n, B_n, P_next_n, K_n):
    """pi_k from ||Q||, ||A||, ||B||, ||P_{k+1}|| and ||K_k||, elementwise on stacks of norms.

    ||Q|| + (||A||^2 + ||B|| ||A|| ||K_k||) ||P_{k+1}|| bounds the terms that
    form P_k = Q + A'P_{k+1}A - M_k'K_k, with ||M_k|| <= ||B|| ||A|| ||P_{k+1}||.
    """
    return Q_n + (A_n * A_n + B_n * A_n * K_n) * P_next_n


def _step_constants(A, B, Q, R):
    """The backward step's step-independent products: [A B] and diag(sym(Q), sym(B'RB))."""
    n, m = B.shape
    dot = _dot_for(n)
    W = np.zeros((n + m, n + m))
    W[:n, :n] = _sym(Q)
    W[n:, n:] = _sym(dot(dot(B.T, R), B))
    return np.concatenate((A, B), axis=1), W


def _step_scratch(AB):
    """What every step with the constants ``AB`` reuses, formed once.

    In order: AB', the product ``model._dot_for(n)``, a buffer for
    P_{k+1} AB, one for the Gram matrix G, G's views on its blocks A'PA
    (later Q + A'PA), B'PA and B'PB (later Upsilon), a buffer for
    M = B'PA and one for M'K.
    """
    n, nm = AB.shape
    G = np.empty((nm, nm))
    return (AB.T, _dot_for(n), np.empty((n, nm)), G, G[:n, :n], G[n:, :n], G[n:, n:],
            np.empty((nm - n, n)), np.empty((n, n)))


def _backward_step(P_next, AB, W, strict, k=None, out=None, *, scratch):
    """One step back from P_{k+1}: (Upsilon_eig, Upsilon_inv, K, P, Upsilon_dropped, defect).

    ``AB`` and ``W`` come from ``_step_constants`` and ``scratch`` from
    ``_step_scratch(AB)``: a pass forms both once for all its steps.  The
    Gram product G = AB' P_{k+1} AB is symmetrized in place; its blocks are
    A'PA, M = B'PA and B'PB.  W is then added into G, which holds Q + A'PA
    and Upsilon = Rbar + B'PB; M and Upsilon are scratch.  Upsilon_eig
    holds the ascending eigenvalues of Upsilon.  A ``_definite`` Upsilon is
    inverted whole, with a zero Upsilon_dropped and a defect of 0.0.
    Otherwise strict mode raises ``SolvabilityError`` naming step ``k``, and
    so does non-strict mode when Upsilon is indefinite: its smallest
    eigenvalue is below -``PINV_RCOND`` times the larger of its modulus and
    the largest eigenvalue, where the stage cost has no minimum in u.  Else
    one ``_kept`` mask gives the pseudo-inverse Upsilon_inv, Upsilon_dropped
    (column j is eigenvector j if it was dropped, else +0.0) and the
    consistency defect ||V_dropped' M|| = ||Upsilon Upsilon_inv M - M||.
    K = Upsilon_inv M, and P is (Q + A'PA) - M'K symmetrized.  At m = 1
    Upsilon is the scalar u = G[n, n], whose eigenpair is (u, 1): when u is
    ``_definite`` the step writes u as Upsilon_eig and 1 / u as
    Upsilon_inv, the bytes of the eigendecomposition path, which every
    other step takes.

    ``out``, when given, is five arrays of the result's shapes, the rows of
    step k in a pass's stacks, in the order above: the step fills them in
    place and returns them with the defect.  Without ``out`` it allocates
    the five arrays it returns.  Beyond those and ``scratch`` it allocates
    only the transpose copies that symmetrize and, where it is taken, the
    eigendecomposition.  A refused step writes none of its rows.
    """
    ABT, dot, PAB, G, G_QA, G_M, Upsilon, M, MtK = scratch
    m, n = M.shape
    if out is None:
        out = tuple(map(np.empty, ((m,), (m, m), (m, n), (n, n), (m, m))))
    Upsilon_eig, Upsilon_inv, K, P, Upsilon_dropped = out
    dot(ABT, dot(P_next, AB, out=PAB), out=G)
    _sym(G, out=G)
    M[...] = G_M
    # G becomes W + G, whose blocks hold Q + A'PA and Upsilon; M is read first,
    # since adding W's zero block would turn a -0.0 in it into +0.0
    np.add(W, G, out=G)
    defect = 0.0
    if m == 1 and (u := G[n, n]) > PINV_RCOND * u:
        # _definite on the one eigenvalue; (V / w) V' is 1 / u
        Upsilon_eig[0] = u
        Upsilon_inv[0, 0] = 1.0 / u
        Upsilon_dropped[0, 0] = 0.0
    else:
        w, V = _eigh(Upsilon)
        definite = _definite(w)
        if not definite and (strict or w[0] < -PINV_RCOND * max(-w[0], w[-1])):
            what, why = (("not positive definite", "no unique optimal input") if strict
                         else ("indefinite", "the stage cost has no minimum in u"))
            raise SolvabilityError(f"Upsilon_{k} is {what} (min eigenvalue {w[0]:.3e}, "
                                   f"max {w[-1]:.3e}); {why}", step=k, min_eigenvalue=float(w[0]))
        Upsilon_eig[...] = w
        # ndarray.dot even at m = 1, where (v / w) v is not zero: no sign to keep
        if definite:
            # nothing is dropped: the products below without their indexing
            (V / w).dot(V.T, out=Upsilon_inv)
            Upsilon_dropped[...] = 0.0
        else:
            keep = _kept(w)
            V_keep = V[:, keep]
            (V_keep / w[keep]).dot(V_keep.T, out=Upsilon_inv)
            Upsilon_dropped[...] = np.where(keep, 0.0, V)
            defect = float(np.linalg.norm(V[:, ~keep].T.dot(M)))
    # K is a BLAS product on both paths: a multiply by Upsilon_inv differs in
    # the sign of zeros ([[-2.]].dot([[0., 3., -0.]]) is [0, -6, 0], the
    # multiply [-0, -6, 0])
    dot(Upsilon_inv, M, out=K)
    np.subtract(G_QA, dot(M.T, K, out=MtK), out=P)
    _sym(P, out=P)
    return (*out, defect)


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward-recursion output over control steps k = 0..N; ``horizon`` is N = len(K) - 1.

    Attributes:
        P: (N+2, n, n) value matrices, P[N+1] is the terminal weight.
        Upsilon_eig: (N+1, m) ascending eigenvalues of each
            Upsilon_k = B' (R + P_{k+1}) B; column 0 is the solvability margin.
        Upsilon_inv: (N+1, m, m) Upsilon_k^{-1} (Upsilon_k^+ in non-strict mode).
        K: (N+1, m, n) feedback gains, K_k = Upsilon_inv_k M_k with
            M_k = B' P_{k+1} A; K_k' = M_k' Upsilon_k^{-1} couples the
            feedforward to the pass.
        Upsilon_dropped: (N+1, m, m); column j of row k is the unit eigenvector
            of ``Upsilon_eig[k, j]`` if the pseudo-inverse dropped it, else +0.0.
            Row k is non-zero exactly where step k dropped one.
    """

    P: np.ndarray
    Upsilon_eig: np.ndarray
    Upsilon_inv: np.ndarray
    K: np.ndarray
    Upsilon_dropped: np.ndarray

    def __post_init__(self):
        freeze_fields(self, "P", "Upsilon_eig", "Upsilon_inv", "K", "Upsilon_dropped")

    @property
    def horizon(self):
        return len(self.K) - 1


@dataclass(frozen=True)
class GareSolution:
    """Stationary solution with its feedback gain and convergence evidence.

    ``Upsilon_inv`` is the pseudo-inverse of Upsilon = B' (R + P) B, and
    K = Upsilon_inv M with M = B' P A; neither Upsilon nor M is kept.
    ``residual`` is the elementwise-max defect of P under one more iteration
    map application; ``closed_loop_radius`` is the spectral radius of A - B K,
    which may be >= 1: ``feedforward.solve_steady`` refuses such a solution.
    ``iterations`` counts doublings or backward steps, and ``horizon`` is
    the finite horizon whose P_0 (from P = 0) was returned: 2^iterations
    after doubling, ``iterations`` after value iteration.  ``Upsilon_eig``
    holds the ascending eigenvalues of Upsilon.
    """

    P: np.ndarray
    Upsilon_eig: np.ndarray
    Upsilon_inv: np.ndarray
    K: np.ndarray
    closed_loop_radius: float
    iterations: int
    residual: float
    horizon: int

    def __post_init__(self):
        freeze_fields(self, "P", "Upsilon_eig", "Upsilon_inv", "K")


def solve_finite_horizon(model, cost, N, strict=True):
    """Run the backward recursion from the terminal weight down to step 0.

    Args:
        model: SystemModel.
        cost: CostSpec whose P_terminal seeds the recursion.
        N: final control index; N + 1 gains are produced.
        strict: require every Upsilon_k positive definite.  When False the
            pseudo-inverse is used and the per-step consistency condition is
            verified instead.

    Each step writes its rows of the five stacks in place (the ``out`` of
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
            definite, or either mode and some Upsilon_k is indefinite (the
            failing step is reported).
        RegularityError: non-strict mode and the pseudo-inverse solve is
            inconsistent at some step.
        Either, by mode, also when the pass diverges: some P_k is not finite,
        or an eigendecomposition does not converge.  The pass runs with
        overflow and invalid-value warnings silenced, and names the step.
    """
    if N < 0:
        raise ValueError("horizon N must be >= 0")
    if cost.n != model.n:
        raise ValueError("cost and model dimensions differ")
    _require_symmetric(cost, ("Q", "R", "P_terminal"))
    AB, W = _step_constants(model.A, model.B, cost.Q, cost.R)
    scratch = _step_scratch(AB)
    n, m = model.n, model.m
    norm = np.linalg.norm
    Q_n, A_n, B_n = norm(cost.Q), norm(model.A), norm(model.B)

    P = np.zeros((N + 2, n, n))
    Upsilon_eig = np.zeros((N + 1, m))
    Upsilon_inv = np.zeros((N + 1, m, m))
    K = np.zeros((N + 1, m, n))
    Upsilon_dropped = np.zeros((N + 1, m, m))
    _sym(cost.P_terminal, out=P[N + 1])

    stacks = (Upsilon_eig, Upsilon_inv, K, P, Upsilon_dropped)
    P_next = P[N + 1]
    # Pi_{k+1}, which scales M_k's defect
    Pi_next = norm(P_next)
    # the step of every P computed so far, by the hash of its bytes
    seen = {hash(P_next.tobytes()): N + 1}
    # a pass that diverges overflows quietly: its P that is not finite is
    # refused where a step fails on it, or after the loop
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            # the rows of step k in every stack, N down to 0
            for k, rows in zip(range(N, -1, -1), zip(*(arr[N::-1] for arr in stacks))):
                defect = _backward_step(P_next, AB, W, strict, k, out=rows,
                                        scratch=scratch)[5]
                # the defect is exactly 0.0 unless an eigenvalue was dropped,
                # which a strict step refuses
                if not strict:
                    if defect:
                        _require_in_range(k, defect, B_n * A_n * Pi_next,
                                          f"pseudo-inverse solve inconsistent at step {k}")
                    Pi_next = max(Pi_next,
                                  _value_bound(Q_n, A_n, B_n, norm(P_next), norm(rows[2])))
                P_next = rows[3]
                P_bytes = P_next.tobytes()
                # a hash shared by two different P keeps the first: the stop comes later
                j = seen.setdefault(hash(P_bytes), k)
                if j != k and P_bytes == P[j].tobytes():
                    # P_k == P_j: every earlier step repeats one of steps k..j-1 on
                    # the same input, so it would return the same arrays and verdict
                    for arr in stacks:
                        arr[:k] = arr[k + np.arange(-k, 0) % (j - k)]
                    break
        except (np.linalg.LinAlgError, SolvabilityError, RegularityError) as exc:
            finite = bool(np.isfinite(P_next).all())
            if finite and not isinstance(exc, np.linalg.LinAlgError):
                raise
            raise _diverged(strict, k, f"P_{k + 1} is not finite" if not finite else
                            f"the eigendecomposition of Upsilon_{k} did not converge") from exc
    if not np.isfinite(P).all():
        k = int(np.flatnonzero(~np.isfinite(P).all(axis=(1, 2)))[-1])
        raise _diverged(strict, k, f"P_{k} is not finite")

    return RiccatiSolution(P=P, Upsilon_eig=Upsilon_eig, Upsilon_inv=Upsilon_inv, K=K,
                           Upsilon_dropped=Upsilon_dropped)


def _diverged(strict, k, why):
    """The refusal of a pass that diverged at step k, by mode.

    ``SolvabilityError`` in strict mode, else ``RegularityError``.
    """
    error = SolvabilityError if strict else RegularityError
    return error(f"the backward pass diverged at step {k}: {why}", step=k)


def _grows_without_bound(A, B, Q, Rbar):
    """Whether the k-step P_0 from P = 0 grows without bound in k.

    V* is the weakly unobservable subspace: the largest subspace in ker Q
    with A V* in V* + B ker(Rbar), kept in ker Q by inputs of zero cost.
    The Basile-Marro recursion V_(i+1) = ker Q meet A^-1 (V_i + B ker Rbar)
    from V_1 = ker Q reaches it within n passes.  Growth is certified iff
    ``model._pbh_defect(A, [B / max|B|, V*])``: some |lambda| >= 1 has a left
    eigenvector w with w* B = 0 and w* V* = 0 (Geerts & Hautus 1990).

    Why.  With R the reachable and X_s the stable modal subspace of A, such
    a w is orthogonal to R (w* A^j B = 0), X_s and V*; S = R + X_s + V* is
    A-invariant, so when S is not R^n its complement holds such a w.
    - S = R^n bounds P_k, by superposition: from x = r + s + v, steer r to
      0 in n steps, let s decay and keep v in V* at zero cost; the sum
      costs at most twice the first two, whatever k.
    - S short of R^n makes P_k unbounded: a bounded P_k rises to a P with
      x'Px = min over u of stage cost + (Ax + Bu)'P(Ax + Bu), at some
      u = -K x.  Costs along F = A - B K then sum to at most x_0' P x_0, so
      F is stable modulo the unobservable subspace N of (F, [Q; Rbar K]),
      which is output-nulling, so inside V*.  But w* F = w* A = lambda w*
      and w is orthogonal to N: F has |lambda| >= 1 on R^n / N.
    The verdict is exact up to ``_split``'s rank rule and ``_pbh_defect``'s
    unit-circle margin (which may miss a defective mode of a Jordan block of
    size 3 or more).  B, Q and A enter at scale 1, so scaling Q and Rbar
    changes no verdict.  Q and Rbar must be semidefinite (down to
    ``model.PSD_EIG_FLOOR`` times their largest eigenvalue modulus);
    otherwise there is no certificate.
    """
    if not all(eigs[0] >= PSD_EIG_FLOOR * np.max(np.abs(eigs))
               for eigs in map(np.linalg.eigvalsh, (Q, Rbar))):
        return False
    B, Q, A_1 = _scaled(B), _scaled(Q), _scaled(A)
    free = B @ _split(Rbar)[1]
    V = _split(Q)[1]
    while V.size:
        # L spans the complement of V + B ker Rbar: the next V is ker [Q; L'A]
        L = _split(np.hstack([V, free]).T)[1]
        narrower = _split(np.vstack([Q, L.T @ A_1]))[1]
        if narrower.shape[1] >= V.shape[1]:
            break
        V = narrower
    return _pbh_defect(A, np.hstack([B, V]))


def _doubling_step(A_k, G_k, H_k):
    """(A_{k+1}, G_{k+1}, H_{k+1}): the horizon of H doubles."""
    n = A_k.shape[0]
    WinvA, WinvG = np.hsplit(np.linalg.solve(np.eye(n) + G_k @ H_k, np.hstack([A_k, G_k])), 2)
    return A_k @ WinvA, _sym(G_k + A_k @ WinvG @ A_k.T), _sym(H_k + A_k.T @ H_k @ WinvA)


def solve_gare(model, cost, tol=1e-12, max_iters=100000):
    """Limit of the finite-horizon P_0 from P = 0, by doubling when it can.

    With Rbar = B' R B ``_definite`` iterate k is the P_0 of a 2^k-step pass
    from P = 0; otherwise iterate k is the backward step in pseudo-inverse
    mode applied k times, the P_0 of a k-step pass.  Both stop once
    max|P_next - P| <= tol * max|P_next|, doubling after ``MAX_DOUBLINGS``
    iterates at the latest.  Warns, from the caller's line, when
    ``model.check_detectability`` finds a mode with |lambda| >= 1 that Q does
    not see, since a limit need not stabilize then.  A limit with
    rho(A - B K) >= 1 is returned, flagged by its ``closed_loop_radius``,
    unless ``_grows_without_bound`` holds; ``feedforward.solve_steady``, and
    with it the stationary law, refuses it.

    Raises:
        ValueError: ``tol`` is not positive, the cost and model dimensions
            differ, or Q or R (the weights it reads) is not symmetric to
            ``model.SYMMETRY_TOL`` relative.
        ConvergenceError: by one rule, "grows without bound (why): <cause>"
            when ``_grows_without_bound`` holds, else "stopped: why".  The
            certificate is asked at most once: by value iteration before its
            first step, by doubling only where it refuses.  Why: a doubling
            step's I + G_k H_k is singular, an iterate is not finite, a
            backward step from an iterate meets an indefinite Upsilon, the
            update never fell below ``tol`` within ``max_iters`` iterates or
            ``MAX_DOUBLINGS`` doublings, the limit lost semidefiniteness
            (smallest eigenvalue below ``model.PSD_EIG_FLOOR`` times the
            largest modulus, a test no rescaling of the weights changes), or
            rho(A - B K) >= 1 on a certified plant.  ``residual`` is the last
            update (inf before the first step), or the limit's defect under
            one more backward step.
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
    scratch = _step_scratch(AB)
    Q, Rbar = W[:n, :n], W[n:, n:]
    # the certificate is asked at most once, and only where the solve may refuse
    grows = functools.cache(lambda: _grows_without_bound(A, B, Q, Rbar))
    iterations, residual = 0, np.inf

    def refusal(why):
        """The solve's one refusal, with the ``iterations`` and ``residual`` reached."""
        return ConvergenceError(
            f"stationary iteration grows without bound ({why}): {_GROWTH}" if grows()
            else f"stationary iteration stopped: {why}",
            residual=residual, iterations=iterations)

    def step(P):
        """The backward step from P in pseudo-inverse mode, refused by ``refusal``."""
        try:
            return _backward_step(P, AB, W, strict=False, scratch=scratch)
        except SolvabilityError as exc:
            raise refusal(f"the step from iterate {iterations} meets an indefinite "
                          f"Upsilon (min eigenvalue {exc.min_eigenvalue:.3e})") from None

    doubling = _definite(np.linalg.eigvalsh(Rbar))
    if doubling:
        A_k, G_k, P = A, _sym(B @ np.linalg.solve(Rbar, B.T)), Q
    elif grows():
        raise refusal("before the first value-iteration step")
    else:
        P = np.zeros((n, n))
    limit = min(max_iters, MAX_DOUBLINGS) if doubling else max_iters
    while iterations < limit:
        if doubling:
            try:
                # an overflow leaves an iterate that is not finite, refused below
                with np.errstate(over="ignore", invalid="ignore"):
                    A_k, G_k, P_next = _doubling_step(A_k, G_k, P)
            except np.linalg.LinAlgError:
                raise refusal(f"the solve of doubling step {iterations + 1} "
                              f"is singular") from None
        else:
            P_next = step(P)[3]
        residual = float(np.max(np.abs(P_next - P)))
        P = P_next
        iterations += 1
        if not np.isfinite(P).all():
            raise refusal(f"iterate {iterations} is not finite")
        if residual <= tol * float(np.max(np.abs(P))):
            break
    else:
        raise refusal(f"still moving by {residual:.3e} after {limit} "
                      f"{'doublings' if doubling else 'iterations'} (tol {tol:g}, relative)")

    Upsilon_eig, Upsilon_inv, K, P_check, _, _ = step(P)
    residual = float(np.max(np.abs(P_check - P)))
    eigs = np.linalg.eigvalsh(P)
    min_eig = float(eigs[0])
    if min_eig < PSD_EIG_FLOOR * float(np.max(np.abs(eigs))):
        raise refusal(f"the limit lost semidefiniteness (min eigenvalue {min_eig:.3e}, "
                      f"below {PSD_EIG_FLOOR:g} times the largest modulus)")
    radius = spectral_radius(A - B @ K)
    if radius >= 1.0 and grows():
        raise refusal(f"the limit's closed loop has rho(A - B K) = {radius:.6f} >= 1")
    return GareSolution(P=P, Upsilon_eig=Upsilon_eig, Upsilon_inv=Upsilon_inv, K=K,
                        closed_loop_radius=radius, iterations=iterations,
                        residual=residual,
                        horizon=2 ** iterations if doubling else iterations)
