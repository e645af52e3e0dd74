"""Disturbance and reference compensation sequences.

The optimal input at step k is u_k = -K_k x_k - Upsilon_k^{-1} h_k, where the
feedforward pair (h, f) is generated backward from the terminal condition
f_{N+1} = -P_{N+1} r by

    h_k = B' (R + P_{k+1}) E d_k + B' f_{k+1}
    f_k = A' P_{k+1} E d_k + A' f_{k+1} - K_k' h_k - Q r,

where K_k' = M_k' Upsilon_k^{-1} (Upsilon_k^{-1} is symmetric) is the
transposed gain the law applies, the one coupling to the Riccati pass.

(h, f) is linear in E d and r, so ``backward_pass``, the one backward loop
here, solves p problems at once, one per column: each has its own channel
E d_k and its own multiple of r.  It forms the products that do not involve f
for all steps at once, a_k = B' (R + P_{k+1}) E d_k,
b_k = A' P_{k+1} E d_k - Q r, and its loop runs the two equations as
h_k = a_k + B' f_{k+1} and f_k = b_k + A' f_{k+1} - K_k' h_k.
``solve_recursive`` is the pass with p = 1; the receding-horizon law of
``control`` is one pass over its lookahead with p = m + 1.  A pseudo-inverse
input is a minimizer only when h_k lies in range(Upsilon_k), as M_k must
(``riccati``): at each step of a non-strict pass whose Upsilon_k is not
definite, ``backward_pass`` refuses every problem whose h_k does not, on the
eigenvectors the pass dropped (``RiccatiSolution.Upsilon_dropped``).

Eliminating h from the f-equation turns it into the compact recursion

    f_k = Abar_k' f_{k+1} + G_k,   Abar_k = A - B K_k,   G_k = F_k d_k - Q r,

whose unrolled form is a weighted sum of the drivers G_s and of the terminal
term f_{N+1}; that explicit sum is what ``solve_closed_form`` evaluates,
with no loop of the recursion's: by recursive doubling, in
ceil(log2(N + 2)) rounds of stacked products, O(N log N n^3) work.  Its
stationary fixed point under constant signals is what ``solve_steady``
returns for the infinite-horizon controller.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import StabilizationError
from .model import _dot_for, disturbance_sequence, freeze_fields
from .riccati import _definite, _require_in_range, _value_bound


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


def backward_pass(riccati, model, cost, Ed, r_weight):
    """(h, f) of p problems over the horizon of ``riccati``, shapes (N+1, m, p), (N+2, n, p).

    Problem j has the channel E d_k = ``Ed[k, :, j]`` (Ed is (N+1, n, p)) and
    the reference ``r_weight[j] * cost.r``.  a and b are formed with one row
    per problem and step, so at p = 1 every product is a single problem's.
    The loop walks the rows of step k from N down to 0 and writes h_k and f_k
    into their rows of the stacks in place, as a_k + B' f_{k+1} and
    (b_k + A' f_{k+1}) - K_k' h_k.  Then ``_require_consistent`` judges the
    steps whose ``Upsilon_eig`` row fails ``riccati._definite``, if any.

    Raises:
        RegularityError: some problem's h_k lies outside range(Upsilon_k).
    """
    A, B = model.A, model.B
    Q, R, r = cost.Q, cost.R, cost.r
    N, n, p = riccati.horizon, model.n, len(r_weight)

    dot = _dot_for(n)
    # R + P_{k+1} is split so that no (N+1) x n x n array is allocated
    PEd = riccati.P[1:] @ Ed
    Ed_rows = np.swapaxes(Ed, 1, 2).reshape(-1, n)
    PEd_rows = np.swapaxes(PEd, 1, 2).reshape(-1, n)
    a = (dot(Ed_rows, dot(B.T, R).T) + dot(PEd_rows, B)).reshape(N + 1, p, model.m)
    b = dot(PEd_rows, A).reshape(N + 1, p, n) - r_weight[:, None] * dot(Q, r)
    a, b = np.swapaxes(a, 1, 2), np.swapaxes(b, 1, 2)

    h = np.zeros((N + 1, model.m, p))
    f = np.zeros((N + 2, n, p))
    f[N + 1] = -(dot(riccati.P[N + 1], r)[:, None] * r_weight)
    At, Bt = A.T, B.T
    f_next = f[N + 1]
    KT = np.swapaxes(riccati.K, 1, 2)
    for a_k, b_k, KT_k, h_k, f_k in zip(a[::-1], b[::-1], KT[::-1], h[::-1], f[N::-1]):
        np.add(a_k, dot(Bt, f_next), out=h_k)
        np.subtract(b_k + dot(At, f_next), dot(KT_k, h_k), out=f_k)
        f_next = f_k
    undecided = ~_definite(riccati.Upsilon_eig)
    if undecided.any():
        _require_consistent(riccati, model, cost, Ed, r_weight, h, f, undecided)
    return h, f


def _require_consistent(riccati, model, cost, Ed, r_weight, h, f, undecided):
    """Refuse an h_k outside range(Upsilon_k) at the steps k with ``undecided[k]``.

    These are the steps of a non-strict pass whose Upsilon_k is not
    ``riccati._definite``.  There V_dropped is the non-zero columns of
    ``riccati.Upsilon_dropped[k]``, the eigenvectors the pass dropped, and the
    defect ||V_dropped' h_k|| of each problem is judged by
    ``riccati._require_in_range`` against the largest s_j, j >= k, where
    s_j = ||B|| ((||R|| + Pi_{j+1}) ||E d_j|| + phi_{j+1}) bounds the terms
    that form h_j, in Frobenius norm.  Pi is the ``riccati`` bound on P,
    and phi bounds the terms that form f: phi_{N+1} = Pi_{N+1} ||r_weight r||
    and phi_j = ||A|| (Pi_{j+1} ||E d_j|| + ||f_{j+1}||) + ||Q|| ||r_weight r||
    + ||K_j|| ||h_j||.  As for M_k, h_k is no scale, since h_k and the f
    before it may cancel to rounding, and neither is a bound compounded over
    the steps.

    Raises:
        RegularityError: some problem's defect exceeds that bound; the
            stage cost is linear along an input Upsilon_k does not weight,
            so it has no minimum.
    """
    norm = np.linalg.norm
    A_n, B_n, Q_n = norm(model.A), norm(model.B), norm(cost.Q)
    P_n, K_n = norm(riccati.P, axis=(1, 2)), norm(riccati.K, axis=(1, 2))
    Ed_n = norm(Ed, axis=1)
    r_n = norm(cost.r) * np.abs(r_weight)
    # a bound that overflows accepts: it can only grow past rounding
    with np.errstate(over="ignore", invalid="ignore"):
        pi = np.append(_value_bound(Q_n, A_n, B_n, P_n[1:], K_n), P_n[-1])
        Pi = np.maximum.accumulate(pi[::-1])[::-1, None]
        phi = np.append(A_n * (Pi[1:] * Ed_n + norm(f[1:], axis=1)) + Q_n * r_n
                        + K_n[:, None] * norm(h, axis=1), Pi[-1:] * r_n, axis=0)
        scale = np.maximum.accumulate(B_n * ((norm(cost.R) + Pi[1:]) * Ed_n + phi[1:])[::-1])[::-1]
    for k in np.flatnonzero(undecided)[::-1].tolist():
        # the dropped columns alone: a product with the zero ones rounds differently
        D = riccati.Upsilon_dropped[k]
        _require_in_range(k, norm(D[:, D.any(axis=0)].T.dot(h[k]), axis=0), scale[k],
                          f"feedforward h_{k} is outside the range of Upsilon_{k}")


def solve_recursive(riccati, model, cost, d):
    """Backward pass for (h, f) over the horizon of ``riccati``.

    ``d`` may be a DisturbanceProfile or an array of at least N + 1 samples.
    This is ``backward_pass`` for one problem, so the stacked products round
    differently from a per-step evaluation, by about 1e-13 relative.
    """
    d_seq = disturbance_sequence(d, riccati.horizon + 1, dim=model.m)
    Ed = _dot_for(d_seq.size, model.E.size)(d_seq, model.E.T)
    h, f = backward_pass(riccati, model, cost, Ed[:, :, None], np.ones(1))
    return FeedforwardSolution(h=h[:, :, 0], f=f[:, :, 0])


def solve_closed_form(riccati, model, cost, d):
    """Evaluate the unrolled feedforward sums instead of recursing.

    For each k, f_k = sum_{s=k}^{N+1} (Abar_k' ... Abar_{s-1}') G_s, with the
    empty product read as the identity, the drivers
    G_s = Abar_s' P_{s+1} E d_s - K_s' B' R E d_s - Q r for
    s <= N and the terminal term G_{N+1} = f_{N+1} = -P_{N+1} r; then
    h_k = B' ((R + P_{k+1}) E d_k + f_{k+1}).  The drivers are stacked
    products with the vectors E d_s, and every 2-D product is
    ``ndarray.dot``.  The sums of all k are taken at once by
    recursive doubling: the round with offset L = 1, 2, 4, ... adds to each
    partial sum S_k, which holds the terms j = s - k < L, the product
    Abar_k' ... Abar_{k+L-1}' times S_{k+L}, so S_k then holds the terms
    j < 2L; the products are squared the same way, prod_k <- prod_k
    prod_{k+L}.  That is ceil(log2(N + 2)) rounds of two stacked products,
    O(N log N n^3) work, and no term depends on f.  Row N + 1 is never
    added to, so f_{N+1} is exact.  Agrees with ``solve_recursive`` up to
    roundoff; the recursion is the arbiter.
    """
    B, R, r = model.B, cost.R, cost.r
    N, P = riccati.horizon, riccati.P
    d_seq = disturbance_sequence(d, N + 1, dim=model.m)
    Ed = d_seq.dot(model.E.T)
    PEd = P[1:] @ Ed[:, :, None]
    AbarT = np.swapaxes(model.A - B @ riccati.K, 1, 2)
    # f starts as the drivers G; after the round with offset L, f[k] holds
    # the terms j < 2L of its sum and prod[k] = Abar_k' ... Abar_{k+2L-1}'
    f = np.empty((N + 2, model.n, 1))
    BREd = Ed.dot(B.T.dot(R).T)[:, :, None]
    np.subtract(AbarT @ PEd, np.swapaxes(riccati.K, 1, 2) @ BREd, out=f[:N + 1])
    f[:N + 1, :, 0] -= cost.Q.dot(r)
    f[N + 1, :, 0] = -P[N + 1].dot(r)
    prod = AbarT
    L = 1
    while L < N + 2:
        f[:N + 2 - L] += prod @ f[L:]
        if 2 * L < N + 2:
            prod = prod[:-L] @ prod[L:]
        L *= 2
    f = f[:, :, 0]
    return FeedforwardSolution(h=(Ed.dot(R.T) + PEd[:, :, 0] + f[1:]).dot(B), f=f)


def solve_steady(gare, model, cost, d_limit):
    """Stationary (h, f) for a disturbance that settles at ``d_limit``.

    Substituting the h-equation into the f-equation under constant signals
    gives one linear system (I - Abar') f = F d - Q r, with r = ``cost.r``,
    which is solvable because the stationary closed loop is a contraction.
    The returned pair is the fixed point of the backward equations, i.e. the
    limit the finite-horizon sequences approach far from the terminal time.
    This is the one place a stationary loop that does not contract is
    refused: ``riccati.solve_gare`` returns such a limit, flagged by its
    ``closed_loop_radius``, and every stationary law is built through here.

    Raises:
        StabilizationError: the stationary closed loop is not a contraction
            (rho(A - B K) >= 1), so the fixed point may not exist.
    """
    if gare.closed_loop_radius >= 1.0:
        raise StabilizationError(
            f"rho(A - B K) = {gare.closed_loop_radius:.6f} >= 1; "
            "no stationary feedforward", spectral_radius=gare.closed_loop_radius)
    A, B, E = model.A, model.B, model.E
    Q, R, r = cost.Q, cost.R, cost.r
    d_limit = np.asarray(d_limit, dtype=float).reshape(-1)
    if d_limit.shape[0] != model.m:
        raise ValueError(f"d_limit must have length {model.m}")

    Abar = A - B @ gare.K
    F = (Abar.T @ gare.P - gare.K.T @ B.T @ R) @ E
    f = np.linalg.solve(np.eye(model.n) - Abar.T, F @ d_limit - Q @ r)
    h = B.T @ (R + gare.P) @ (E @ d_limit) + B.T @ f
    return h, f
