"""Plant, cost, and disturbance-signal definitions plus problem diagnostics.

The plant is the linear difference equation

    x[k+1] = A x[k] + B u[k] + E d[k],      z[k] = c_o x[k],

where z is the regulated output that should follow the reference c_o r.
Performance is measured by a quadratic form in the tracking error x - r and
in the combined channel B u + E d, so the weight R acts on state-space
vectors: it is n by n, not m by m.

A disturbance is *matched* when its channel lies inside the input channel,
i.e. E = B G for some G; then its effect on the state can be cancelled
exactly through the input.  Everything else is mismatched and can at best be
removed from the regulated output.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

#: Largest asymmetry max|W - W'| of an accepted weight W, relative to max|W|.
SYMMETRY_TOL = 1e-12
#: Eigenvalue floor below which a symmetric weight W is flagged as
#: indefinite, relative to max|W|.
PSD_EIG_FLOOR = -1e-10
#: Singular values below this fraction of the largest one count as zero.
RANK_REL_TOL = 1e-9

#: The native float64 dtype, which numpy keeps as one object, so a dtype can
#: be tested by identity against it.
_FLOAT64 = np.dtype(np.float64)

MATCHED = "Matched"
MISMATCHED = "Mismatched"


def _dot_for(*sizes):
    """The product rule: ``ndarray.dot`` when every size given is above 1, else ``np.matmul``.

    ``ndarray.dot``, ``@``'s BLAS call without its ufunc dispatch, gives its
    bytes but for one-element operands: it keeps the sign of a zero product,
    where ``@`` sums from +0.0 and returns +0.0.  A per-call product passes
    the sizes of its operands that can be one element.  A per-step loop
    passes n: for n > 1 a product with a state is never -0.0, so it absorbs
    the sign of a zero term added to it.
    """
    return np.ndarray.dot if min(sizes) > 1 else np.matmul


def _sym(mat, out=None):
    """(mat + mat') / 2 to the byte, into ``out`` when given, which may be ``mat``.

    The transpose is copied before the sum, which costs less than adding a
    transposed view and makes the sum safe in place, and the halving is a
    product by 0.5, which rounds as the division by 2 does and costs less.
    """
    half = np.add(mat, mat.T.copy(), out=out)
    half *= 0.5
    return half


def _freeze(arr):
    arr = np.array(arr, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


def freeze_fields(obj, *names):
    """Store the named fields of a frozen dataclass as read-only float arrays.

    A field that is already a float64 ndarray is only made read-only.
    """
    for name in names:
        arr = getattr(obj, name)
        if not (type(arr) is np.ndarray and arr.dtype is _FLOAT64):
            arr = np.asarray(arr, dtype=float)
            object.__setattr__(obj, name, arr)
        arr.setflags(write=False)


def _as_matrix(value, name):
    arr = np.atleast_2d(np.asarray(value, dtype=float))
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got ndim={arr.ndim}")
    return arr


def _as_column_matrix(value, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return _as_matrix(arr, name)


def _as_vector(value, name, length=None):
    arr = np.asarray(value, dtype=float).reshape(-1)
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {arr.shape[0]}")
    return arr


@dataclass(frozen=True)
class SystemModel:
    """Discrete-time plant with separate input and disturbance channels.

    Attributes:
        A: state transition matrix, n x n.
        B: input map, n x m.
        E: disturbance map, n x m (the disturbance has the same dimension
           as the input).
        c_o: regulated-output selector, l x n.
    """

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray
    c_o: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_column_matrix(self.B, "B")
        E = _as_column_matrix(self.E, "E")
        c_o = _as_matrix(self.c_o, "c_o")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {B.shape}")
        if E.shape != B.shape:
            raise ValueError(f"E must have the same shape as B {B.shape}, got {E.shape}")
        if c_o.shape[1] != n:
            raise ValueError(f"c_o must have {n} columns, got {c_o.shape}")
        if min(n, B.shape[1], c_o.shape[0]) < 1:
            raise ValueError("all dimensions must be at least 1")
        for name, arr in (("A", A), ("B", B), ("E", E), ("c_o", c_o)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "A", _freeze(A))
        object.__setattr__(self, "B", _freeze(B))
        object.__setattr__(self, "E", _freeze(E))
        object.__setattr__(self, "c_o", _freeze(c_o))

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def l(self):
        return self.c_o.shape[0]


@dataclass(frozen=True)
class CostSpec:
    """Quadratic weights and reference for the tracking problem.

    J = sum_k [(x_k - r)' Q (x_k - r) + (B u_k + E d_k)' R (B u_k + E d_k)]
        + (x_{N+1} - r)' P_terminal (x_{N+1} - r)

    All three weights are n x n and expected symmetric positive
    semidefinite; ``validate`` flags violations instead of raising so that
    diagnostics can describe bad problem data.
    """

    Q: np.ndarray
    R: np.ndarray
    P_terminal: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        Q = _as_matrix(self.Q, "Q")
        n = Q.shape[0]
        if Q.shape != (n, n):
            raise ValueError(f"Q must be square, got {Q.shape}")
        R = _as_matrix(self.R, "R")
        P_terminal = _as_matrix(self.P_terminal, "P_terminal")
        if R.shape != (n, n):
            raise ValueError(f"R must be {n}x{n} (it weights B u + E d), got {R.shape}")
        if P_terminal.shape != (n, n):
            raise ValueError(f"P_terminal must be {n}x{n}, got {P_terminal.shape}")
        r = _as_vector(self.r, "r", length=n)
        for name, arr in (("Q", Q), ("R", R), ("P_terminal", P_terminal), ("r", r)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "Q", _freeze(Q))
        object.__setattr__(self, "R", _freeze(R))
        object.__setattr__(self, "P_terminal", _freeze(P_terminal))
        object.__setattr__(self, "r", _freeze(r))

    @property
    def n(self):
        return self.Q.shape[0]

    @cached_property
    def _asymmetric(self):
        """Names of the weights that are not ``_symmetric``, judged once per cost."""
        return tuple(name for name in _WEIGHTS if not _symmetric(getattr(self, name)))

    @classmethod
    def from_model(cls, model, R, P_terminal=None, r=None):
        """Build the tracking cost with Q = c_o' c_o taken from the model."""
        Q = model.c_o.T @ model.c_o
        if P_terminal is None:
            P_terminal = np.zeros((model.n, model.n))
        if r is None:
            r = np.zeros(model.n)
        return cls(Q=Q, R=R, P_terminal=P_terminal, r=r)


@dataclass(frozen=True)
class DisturbanceProfile:
    """Deterministic disturbance signal, zero before ``start_step``.

    Kinds:
        constant: d_k = amplitude for k >= start_step.
        sinusoid: d_k = amplitude * sin(rate * (k - start_step)).
        ramp:     d_k = rate * (k - start_step), clipped at ``limit``.
        table:    d_k = values[k - start_step], holding the last row once
                  the table is exhausted.

    Scalar kinds replicate their value across ``dim`` components.
    """

    kind: str
    amplitude: float = 0.0
    rate: float = 0.0
    limit: float = 0.0
    start_step: int = 0
    dim: int = 1
    values: np.ndarray = None

    #: The fields each kind reads besides ``kind``, ``start_step`` and ``dim``.
    FIELDS = {"constant": ("amplitude",), "sinusoid": ("amplitude", "rate"),
              "ramp": ("rate", "limit"), "table": ("values",)}

    def __post_init__(self):
        if self.kind not in self.FIELDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.start_step < 0:
            raise ValueError("start_step must be >= 0")
        if self.kind == "table":
            if self.values is None:
                raise ValueError("table profile needs a values array")
            vals = np.asarray(self.values, dtype=float)
            if vals.ndim == 1:
                vals = vals.reshape(-1, 1)
            if vals.ndim != 2 or vals.shape[0] < 1:
                raise ValueError("table values must be a non-empty (steps, m) array")
            object.__setattr__(self, "values", _freeze(vals))
            object.__setattr__(self, "dim", vals.shape[1])
        elif self.dim < 1:
            raise ValueError("dim must be >= 1")

    @classmethod
    def constant(cls, amplitude, start_step=0, dim=1):
        return cls(kind="constant", amplitude=float(amplitude),
                   start_step=start_step, dim=dim)

    @classmethod
    def sinusoid(cls, amplitude, rate, start_step=0, dim=1):
        return cls(kind="sinusoid", amplitude=float(amplitude), rate=float(rate),
                   start_step=start_step, dim=dim)

    @classmethod
    def ramp(cls, rate, limit, start_step=0, dim=1):
        return cls(kind="ramp", rate=float(rate), limit=float(limit),
                   start_step=start_step, dim=dim)

    @classmethod
    def table(cls, values, start_step=0):
        return cls(kind="table", values=values, start_step=start_step)

    def limit_value(self):
        """Asymptotic value of the signal, for stationary controller design."""
        if self.kind == "constant":
            return np.full(self.dim, self.amplitude)
        if self.kind == "ramp":
            return np.full(self.dim, self.limit)
        if self.kind == "table":
            return self.values[-1].copy()
        if self.amplitude == 0.0:
            return np.zeros(self.dim)
        raise ValueError("a sinusoid has no limit value")


def _profile_samples(profile, steps):
    """Steps 0..steps-1 of a profile, each bit for bit its definition at that step."""
    seq = np.zeros((steps, profile.dim))
    start = min(profile.start_step, steps)
    t = np.arange(steps - start)
    if profile.kind == "table":
        seq[start:] = profile.values[np.minimum(t, profile.values.shape[0] - 1)]
        return seq
    if profile.kind == "constant":
        value = profile.amplitude
    elif profile.kind == "sinusoid":
        # math.sin per sample: np.sin need not round the same on every host
        value = np.array([profile.amplitude * math.sin(profile.rate * j) for j in t.tolist()])
    else:
        value = profile.rate * t
        # min(value, limit) or max(value, limit), ties resolved as Python does
        beyond = profile.limit < value if profile.rate >= 0 else profile.limit > value
        value = np.where(beyond, profile.limit, value)
    seq[start:] = np.reshape(value, (-1, 1))
    return seq


def disturbance_sequence(d, steps, dim=None):
    """Materialize ``steps`` samples of a profile (or validate a raw array).

    Accepts either a DisturbanceProfile or an array-like of shape (steps, m)
    or (steps,), so solvers and the brute-force oracle can share a
    bit-identical disturbance sequence.  A profile's samples are computed
    as arrays, each bit-identical to the profile's definition at its step.
    An array of any other dimension, a scalar included, raises ValueError.
    """
    if isinstance(d, DisturbanceProfile):
        seq = _profile_samples(d, steps)
    else:
        seq = np.asarray(d, dtype=float)
        if seq.ndim not in (1, 2):
            raise ValueError(f"disturbance sequence must be 1-d or 2-d, got ndim={seq.ndim}")
        if seq.ndim == 1:
            seq = seq.reshape(-1, 1)
        if seq.shape[0] < steps:
            raise ValueError(f"disturbance sequence has {seq.shape[0]} rows, needs {steps}")
        seq = seq[:steps]
    if dim is not None and seq.shape[1] != dim:
        raise ValueError(f"disturbance dimension {seq.shape[1]} does not match m={dim}")
    return seq


@dataclass(frozen=True)
class ValidationReport:
    """Diagnostic summary of a (model, cost) pair.  Never raises; only flags."""

    dimension_ok: bool
    psd_flags: dict
    detectable: bool
    disturbance_class: str
    messages: tuple

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))


def _split(mat):
    """(range, null): orthonormal bases of the range and null space of ``mat``.

    One SVD, split at the singular values above RANK_REL_TOL times the largest.
    """
    u, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s > RANK_REL_TOL * np.max(s, initial=0.0)))
    return u[:, :rank], vh[rank:].conj().T


def _pbh_defect(A, X):
    """Whether rank [A - lambda I, X] < n at an eigenvalue lambda of A with |lambda| >= 1.

    The PBH rank test (Hautus 1969) with ``_split``'s rank, at each computed
    eigenvalue and at the mean of each cluster of them.  A computed |lambda|
    counts as >= 1 down to 1 - margin, margin = n eps ||A||_F, a backward
    stable eigensolver's rounding.  A defective eigenvalue of a Jordan block
    of size 2 is computed only to about sqrt(eps) ||A||, where the rank test
    may no longer see it, but the mean of its pair is accurate to O(eps).
    Clusters are single-linkage at distance 3 sqrt(eps) max(||A||_F, 1),
    among the eigenvalues of modulus at least 1 - n margin - that distance;
    a cluster of k >= 2 is tested at its mean when the mean's modulus is at
    least 1 - k margin.  Only a tested value costs an SVD.  It may still
    miss a defective eigenvalue of a block of size k >= 3, computed only to
    about eps^(1/k), which is beyond the cluster distance.
    """
    n = len(A)
    eps = np.finfo(float).eps
    norm = np.linalg.norm(A)
    margin = n * eps * norm
    radius = 3.0 * np.sqrt(eps) * max(norm, 1.0)
    lams = np.linalg.eigvals(A)
    moduli = np.abs(lams)
    tested = list(lams[moduli >= 1.0 - margin])
    near = lams[moduli >= 1.0 - n * margin - radius]
    if len(near) > 1:
        # single linkage: the closure of the pairwise-distance mask, whose row
        # i is the cluster of near[i]; each cluster is read at its first member
        linked = np.abs(near[:, None] - near) <= radius
        for _ in range(len(near).bit_length()):
            linked = linked @ linked
        for cluster in linked[linked.argmax(axis=1) == np.arange(len(near))]:
            k = np.count_nonzero(cluster)
            if k > 1 and abs(mean := near[cluster].mean()) >= 1.0 - k * margin:
                tested.append(mean)
    return any(_split(np.hstack([A - lam * np.eye(n), X]))[0].shape[1] < n for lam in tested)


def _scaled(mat):
    """``mat`` / max|mat|, or ``mat`` when it is all zero: a rank test's input at scale 1."""
    return mat / (np.max(np.abs(mat)) or 1.0)


def classify_disturbance(B, E):
    """MATCHED iff the columns of E lie in the column span of B."""
    B = _as_column_matrix(B, "B")
    E = _as_column_matrix(E, "E")
    if _split(np.hstack([B, E]))[0].shape[1] == _split(B)[0].shape[1]:
        return MATCHED
    return MISMATCHED


def _symmetric(mat):
    """Whether max|mat - mat'| is at most SYMMETRY_TOL times max|mat|; NaN is not."""
    diff = mat - mat.T
    # an all-zero difference (exact symmetry, the common case) needs no scale;
    # a non-finite entry leaves a NaN in it and goes on to the relative test
    return not diff.any() \
        or bool(np.max(np.abs(diff)) <= SYMMETRY_TOL * float(np.max(np.abs(mat))))


def _require_symmetric(cost, names):
    """Raise ValueError naming a weight in ``names`` that is not ``_symmetric``.

    A solver reads the symmetric part of each weight, so an asymmetric one
    would be solved as a different problem than the one given.
    """
    for name in cost._asymmetric:
        if name in names:
            raise ValueError(f"{name} is not symmetric to {SYMMETRY_TOL:g} relative")


def _psd_check(name, mat, messages):
    """Symmetric-PSD verdict relative to max|mat|: rescaling changes none, and 0 passes."""
    if not _symmetric(mat):
        messages.append(f"{name} is not symmetric to {SYMMETRY_TOL:g} relative")
        return False
    scale = float(np.max(np.abs(mat)))
    min_eig = float(np.min(np.linalg.eigvalsh(_sym(mat))))
    if min_eig < PSD_EIG_FLOOR * scale:
        messages.append(f"{name} has eigenvalue {min_eig:.3e} below the PSD floor "
                        f"({PSD_EIG_FLOOR:g} times its largest entry)")
        return False
    return True


_WEIGHTS = ("Q", "R", "P_terminal")


def check_weights(cost, messages):
    """Symmetric-PSD flag of each cost weight; each failure appends a message."""
    return {name: _psd_check(name, getattr(cost, name), messages) for name in _WEIGHTS}


def check_detectability(A, Q):
    """PBH test: every mode of A with |eig| >= 1 must be seen by the weight Q.

    True iff rank([A - lambda I; Q]) = n at every eigenvalue lambda of A on
    or outside the unit circle (``_pbh_defect`` on A' and Q / max|Q|, so any
    positive multiple of Q gets the same verdict).  For a semidefinite Q
    that is the rank with Q^(1/2), which has the same null space.
    """
    A = _as_matrix(A, "A")
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"A must be square, got {A.shape}")
    Q = _as_matrix(Q, "Q")
    if Q.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}, got {Q.shape}")
    return not _pbh_defect(A.T, _scaled(Q))


def validate(model, cost):
    """Collect diagnostics for a problem instance without raising.

    Checks cross-consistency of dimensions, semidefiniteness of the weights,
    detectability of the unregulated dynamics, and whether the disturbance
    channel is matched to the input channel.
    """
    messages = []
    dimension_ok = cost.n == model.n
    if not dimension_ok:
        messages.append(f"cost matrices are {cost.n}x{cost.n} "
                        f"but the state dimension is {model.n}")

    psd_flags = check_weights(cost, messages) if dimension_ok \
        else dict.fromkeys(_WEIGHTS, False)

    detectable = False
    if dimension_ok and psd_flags["Q"]:
        detectable = check_detectability(model.A, cost.Q)
        if not detectable:
            messages.append("(A, Q^(1/2)) is not detectable; stationary design is not certified")

    disturbance_class = classify_disturbance(model.B, model.E)
    if disturbance_class == MATCHED:
        messages.append("disturbance is matched: it can be cancelled through the input channel")

    return ValidationReport(
        dimension_ok=dimension_ok,
        psd_flags=psd_flags,
        detectable=detectable,
        disturbance_class=disturbance_class,
        messages=messages,
    )


#: (degree m, theta_m): the [m/m] Padé approximant of exp(X) is accurate to
#: double precision for ||X||_1 <= theta_m (Higham 2005).
_PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
               (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
               (13, 5.371920351148152e0))


def _expm(X):
    """exp(X) by scaling and squaring a Padé approximant.

    The algorithm of Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005: the
    lowest degree m whose theta_m bounds ||X||_1, else degree 13 applied to
    X / 2^s with ||X / 2^s||_1 <= theta_13, squared s times.  The
    approximant is q(X)^-1 p(X), with p(X) = V + U and q(X) = V - U the
    even (V) and odd (U) terms of sum_j b_j X^j, b_j = (2m - j)! / (j! (m - j)!).
    X must be finite; ValueError if ||X||_1 overflows.
    """
    norm = np.linalg.norm(X, 1)
    if norm == np.inf:
        raise ValueError("the 1-norm of the matrix to exponentiate overflows")
    squarings = 0
    for m, theta in _PADE_THETA:
        if norm <= theta:
            break
    else:
        squarings = math.ceil(math.log2(norm / theta))
        X = X / 2.0 ** squarings
    b = [float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)))
         for j in range(m + 1)]
    X2 = X @ X
    even_powers = [np.eye(X.shape[0]), X2]
    while len(even_powers) <= m // 2:
        even_powers.append(even_powers[-1] @ X2)
    U = X @ sum(b[2 * j + 1] * P for j, P in enumerate(even_powers))
    V = sum(b[2 * j] * P for j, P in enumerate(even_powers))
    result = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        result = result @ result
    return result


def discretize_zoh(A_c, B_c, E_c, Ts, c_o=None):
    """Exact sampled-data model assuming inputs held constant over each interval.

    Computes A_d = exp(A_c Ts) and B_d = (int_0^Ts exp(A_c s) ds) B_c through
    the exponential of the augmented block matrix [[A_c, I], [0, 0]] * Ts;
    the same integral is applied to the disturbance map.  The exponential
    is ``_expm``'s, numpy alone.

    Args:
        A_c, B_c, E_c: continuous-time matrices (n x n, n x m, n x m).
        Ts: sample interval in seconds, > 0.
        c_o: regulated-output selector carried over unchanged; identity
            when omitted.

    Raises ValueError, without a floating-point warning, when A_c Ts or its
    1-norm is not finite, or when its exponential overflows.
    """
    if Ts <= 0:
        raise ValueError(f"sample interval must be positive, got {Ts}")
    A_c = _as_matrix(A_c, "A_c")
    B_c = _as_column_matrix(B_c, "B_c")
    E_c = _as_column_matrix(E_c, "E_c")
    n = A_c.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = A_c
    block[:n, n:] = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        block = block * Ts
        if not np.all(np.isfinite(block)):
            raise ValueError(f"A_c * Ts is not finite (Ts = {Ts})")
        exp_block = _expm(block)
        if not np.all(np.isfinite(exp_block)):
            raise ValueError(f"exp(A_c * Ts) overflows (Ts = {Ts})")
        integral = exp_block[:n, n:]
        B_d, E_d = integral @ B_c, integral @ E_c
    if c_o is None:
        c_o = np.eye(n)
    return SystemModel(A=exp_block[:n, :n], B=B_d, E=E_d, c_o=c_o)
