"""Control laws: optimal, stationary, receding-horizon, and two baselines.

The optimal laws all have the shape u = -(gain) x - (inverse) h, differing
only in where the gain and feedforward come from.  The two baselines exist
for benchmark comparisons: a state-feedback law with a static disturbance
compensation gain, and a positional PID acting on the regulated-output
error.

``build_controller`` turns a declarative ControllerConfig into a built
controller, called as ``(k, x, d_k) -> u``.  Every solve happens once, at
build time, and every kind but PID is data: an AffineController holding
u_k = -K[k] x - K_d d_k - u_0[k] and the spectral radius of its
state-feedback loop.  The finite-horizon law is K[k] = K_k, K_d = 0 and
u_0[k] = Upsilon_k^{-1} h_k; the stationary law is its infinite-horizon
limit.  The receding-horizon law holds one gain too: its lookahead Riccati
pass never changes between steps and its feedforward is linear in the
frozen disturbance and the reference.

A law is immutable, so ``build_controller`` can hand a scenario's
finite-horizon law to each of its later non-strict finite-horizon configs.
"""

from dataclasses import dataclass, fields

import numpy as np

from .feedforward import backward_pass, solve_recursive, solve_steady
from .model import CostSpec, DisturbanceProfile, _dot_for, freeze_fields
from .riccati import solve_finite_horizon, solve_gare, spectral_radius

#: The fields each controller kind reads besides ``kind`` and ``label``, in
#: field order; a config of a kind leaves every other field at its default.
_READS = {"finite_horizon": ("strict",),
          "stationary": (),
          "receding_horizon": ("T", "P_terminal", "strict"),
          "state_feedback_compensation": ("k_x", "K_d"),
          "pid": ("kp", "ki", "kd", "Ts")}

#: The fields a kind cannot be built without.
_REQUIRED = {"receding_horizon": ("T",),
             "state_feedback_compensation": ("k_x", "K_d"),
             "pid": ("Ts",)}

#: Each kind by its name lower-cased without "_" or "-", plus the alias "sfc".
_KIND_NAMES = {**{kind.replace("_", ""): kind for kind in _READS},
               "sfc": "state_feedback_compensation"}


@dataclass(frozen=True)
class ControllerConfig:
    """Declarative description of one controller in a scenario.

    Fields are kind-specific: ``T``/``P_terminal``/``strict`` for the
    optimal laws, ``k_x``/``K_d`` for state-feedback compensation, and the
    three gains plus ``Ts`` for PID.  Construction is the one place a config
    is judged on its own: it maps CamelCase, snake_case and ``sfc`` onto the
    canonical kind and raises ValueError for an unknown kind, a label that
    is not a string, a ``strict`` that is not a boolean, a missing field of
    the kind, a field the kind does not read (set, or for ``kp``/``ki``/``kd``
    non-zero, or ``strict=False``), a lookahead ``T`` below 1 or a sample
    time ``Ts`` that is not positive.  ``_require_fits`` judges it against
    a plant and a disturbance.
    """

    kind: str
    label: str = None
    T: int = None
    P_terminal: np.ndarray = None
    strict: bool = True
    k_x: np.ndarray = None
    K_d: np.ndarray = None
    kp: float = 0.0
    ki: float = 0.0
    kd: float = 0.0
    Ts: float = None

    def __post_init__(self):
        kind = _KIND_NAMES.get(str(self.kind).replace("_", "").replace("-", "").lower())
        if kind is None:
            raise ValueError(f"unknown controller kind {self.kind!r}")
        object.__setattr__(self, "kind", kind)
        if self.label is None:
            object.__setattr__(self, "label", kind)
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        if not isinstance(self.strict, bool):
            raise ValueError(f"strict must be true or false, got {self.strict!r}")
        missing = [name for name in _REQUIRED.get(kind, ()) if getattr(self, name) is None]
        if missing:
            raise ValueError(f"{kind} needs field(s) {missing}")
        unread = [field.name for field in fields(self)
                  if field.name not in ("kind", "label", *_READS[kind])
                  and not _is_default(getattr(self, field.name), field.default)]
        if unread:
            raise ValueError(f"{kind} does not read {', '.join(unread)}; leave it unset")
        if self.T is not None and self.T < 1:
            raise ValueError(f"lookahead T must be >= 1, got {self.T}")
        if self.Ts is not None and not self.Ts > 0:
            raise ValueError(f"sample time Ts must be positive, got {self.Ts}")


def _is_default(value, default):
    """Whether ``value`` is the field default: None, or the scalar 0.0 or True."""
    return value is None if default is None else bool(np.ndim(value) == 0 and value == default)


def _require_fits(config, model, profile):
    """Refuse with ValueError a config whose law the plant or the disturbance cannot serve.

    PID pairs each regulated output with one input, and a stationary law
    needs the limit value of a DisturbanceProfile (an array has a last row).
    """
    if config.kind == "pid" and model.l != model.m:
        raise ValueError(f"pid needs l = m, got l={model.l}, m={model.m}")
    if config.kind == "stationary" and isinstance(profile, DisturbanceProfile):
        profile.limit_value()


def finite_horizon_control(k, x, riccati, ff):
    """Optimal input at step k: u = -K_k x - Upsilon_k^{-1} h_k.

    The pass's -K, read-only, its row count and its product
    ``model._dot_for(n)`` are formed at its first call and kept in its
    ``__dict__``, where ``functools.cached_property`` would keep them, so a
    frozen RiccatiSolution holds them too.  The negation is exact: a call
    gives the bytes of -K[k] @ x - Upsilon_inv[k] @ h[k].
    """
    feedback = vars(riccati).get("_feedback")
    if feedback is None:
        neg_K = -riccati.K
        neg_K.setflags(write=False)
        feedback = vars(riccati)["_feedback"] = (neg_K, len(neg_K), _dot_for(neg_K.shape[2]))
    neg_K, steps, dot = feedback
    if not 0 <= k < steps:
        raise IndexError(f"step {k} outside horizon 0..{steps - 1}")
    return dot(neg_K[k], x) - dot(riccati.Upsilon_inv[k], ff.h[k])


@dataclass(frozen=True)
class AffineController:
    """The law u_k = -K[k] x - K_d d_k - u_0[k] over steps k = 0..len(K) - 1.

    K has shape (steps, m, n), K_d (m, m) and u_0 (steps, m), all read-only;
    construction raises ValueError for any other shapes.  A time-invariant
    law holds broadcast views of one gain and one offset.
    ``closed_loop_radius`` is rho(A - B K[0]).  The gain is negated once,
    at construction (a broadcast gain before it is broadcast), and the rows
    -K[k] and u_0[k] are read from two lists made then (one view, repeated,
    for a broadcast row).  A call forms its products with ``model._dot_for``:
    the operations and bytes of -K[k] @ x - K_d @ d_k - u_0[k], signed zeros
    included.  The gain product absorbs the sign of a zero K_d d_k, so a law
    whose K_d has no non-zero entry (the finite-horizon and stationary laws)
    skips that product and returns the same bytes for every finite d_k.
    """

    K: np.ndarray
    K_d: np.ndarray
    u_0: np.ndarray
    closed_loop_radius: float

    def __post_init__(self):
        freeze_fields(self, "K", "K_d", "u_0")
        K, K_d, u_0 = self.K, self.K_d, self.u_0
        if K.ndim != 3:
            raise ValueError(f"K must have shape (steps, m, n), got {K.shape}")
        steps, m, n = K.shape
        if K_d.shape != (m, m):
            raise ValueError(f"K_d must have shape {(m, m)}, got {K_d.shape}")
        if u_0.shape != (steps, m):
            raise ValueError(f"u_0 must have shape {(steps, m)}, got {u_0.shape}")
        neg_K = np.broadcast_to(-K[:1], K.shape) if K.strides[0] == 0 else -K
        neg_K.setflags(write=False)
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(self, "_neg_K_rows", _rows(neg_K))
        object.__setattr__(self, "_u_0_rows", _rows(u_0))
        object.__setattr__(self, "_feeds_d", bool(K_d.any()))
        object.__setattr__(self, "_dot", _dot_for(n))

    def __call__(self, k, x, d_now):
        if not 0 <= k < self._steps:
            raise IndexError(f"step {k} outside the law's steps 0..{self._steps - 1}")
        dot = self._dot
        if self._feeds_d:
            return dot(self._neg_K_rows[k], x) - dot(self.K_d, d_now) - self._u_0_rows[k]
        return dot(self._neg_K_rows[k], x) - self._u_0_rows[k]


def _rows(arr):
    """The rows of ``arr`` as a list; one view, repeated, for a broadcast row."""
    return [arr[0]] * len(arr) if len(arr) and arr.strides[0] == 0 else list(arr)


@dataclass
class PidController:
    """Positional discrete PID on the regulated-output error.

    u = kp * e + ki * (accumulated e * Ts) + kd * (e - e_prev) / Ts, with the
    integral including the current sample.  The controller owns its memory,
    ``integral`` and ``prev_error``, updates it on every call and clears it
    at k = 0, so every rollout of one built law starts from the same state.
    """

    c_o: np.ndarray
    target: np.ndarray
    Ts: float
    kp: float
    ki: float
    kd: float
    integral: np.ndarray
    prev_error: np.ndarray
    closed_loop_radius: float = None

    def __call__(self, k, x, d_now):
        if k == 0:
            self.integral = np.zeros_like(self.integral)
            self.prev_error = np.zeros_like(self.prev_error)
        error = self.target - self.c_o @ x
        self.integral = self.integral + error * self.Ts
        u = (self.kp * error + self.ki * self.integral
             + self.kd * (error - self.prev_error) / self.Ts)
        self.prev_error = error
        return u


def _affine_law(model, steps, K, K_d, u_0, closed_loop_radius=None):
    """The AffineController of (K, K_d, u_0) over ``steps`` steps.

    A single gain K (m x n) or offset u_0 (m) is held over every step.
    ``closed_loop_radius``, rho(A - B K_0), is computed unless the solve
    that produced K has it.
    """
    K_0 = K if K.ndim == 2 else K[0]
    if closed_loop_radius is None:
        closed_loop_radius = spectral_radius(model.A - model.B @ K_0)
    return AffineController(
        K=np.broadcast_to(K, (steps,) + K_0.shape), K_d=K_d,
        u_0=np.broadcast_to(u_0, (steps, model.m)),
        closed_loop_radius=closed_loop_radius)


def _solved_law(model, riccati, h):
    """The finite-horizon law of a solved pass and its feedforward h, over N + 1 steps."""
    return _affine_law(model, riccati.horizon + 1, riccati.K, np.zeros((model.m, model.m)),
                       (riccati.Upsilon_inv @ h[:, :, None])[:, :, 0])


def _receding_horizon_law(config, model, cost, steps):
    """The receding-horizon law with lookahead ``config.T``."""
    inner_cost = cost if config.P_terminal is None else CostSpec(
        Q=cost.Q, R=cost.R, P_terminal=config.P_terminal, r=cost.r)
    riccati = solve_finite_horizon(model, inner_cost, config.T, strict=config.strict)
    # with d frozen, h_0 is linear in d and r: one pass solves for the
    # columns of E as disturbance channels and for the reference alone
    n, m = model.n, model.m
    Ed = np.broadcast_to(np.hstack([model.E, np.zeros((n, 1))]), (config.T + 1, n, m + 1))
    h, _ = backward_pass(riccati, model, inner_cost, Ed, np.eye(m + 1)[m])
    gains = riccati.Upsilon_inv[0] @ h[0]
    return _affine_law(model, steps, riccati.K[0], gains[:, :m], gains[:, m])


def build_controller(config, model, cost, profile, steps, laws=None):
    """Build the controller of one configuration, callable as ``(k, x, d_k) -> u``.

    All solver work (Riccati, stationary equation, feedforward) happens
    here, after ``_require_fits``, so errors surface before the simulation
    starts.  Every kind but PID is an AffineController over ``steps`` steps.

    ``laws``, when given, is a dict owned by the caller that must see only
    calls with this ``model``, ``cost``, ``profile`` and ``steps``.  The
    first finite-horizon law built is stored there, and a later non-strict
    finite-horizon config gets it back: a strict pass that succeeds drops
    no eigenvalue, so it runs the non-strict pass's arithmetic.  Every
    other config solves its own problem, so a strict one raises as it
    would alone.
    """
    _require_fits(config, model, profile)
    kind = config.kind
    if kind == "finite_horizon":
        law = None if laws is None or config.strict else laws.get(kind)
        if law is None:
            riccati = solve_finite_horizon(model, cost, steps - 1, strict=config.strict)
            law = _solved_law(model, riccati, solve_recursive(riccati, model, cost, profile).h)
            if laws is not None:
                laws.setdefault(kind, law)
        return law

    if kind == "receding_horizon":
        return _receding_horizon_law(config, model, cost, steps)

    if kind == "stationary":
        gare = solve_gare(model, cost)
        d_limit = profile.limit_value() if isinstance(profile, DisturbanceProfile) \
            else np.asarray(profile, dtype=float)[-1]
        h, _ = solve_steady(gare, model, cost, d_limit)
        return _affine_law(model, steps, gare.K, np.zeros((model.m, model.m)),
                           gare.Upsilon_inv @ h, gare.closed_loop_radius)

    if kind == "state_feedback_compensation":
        # u = k_x x + K_d d in the affine form, so K = -k_x and K_d = -K_d;
        # the compensating gain is fed the true disturbance (rather than an
        # observer estimate), which can only flatter this baseline
        return _affine_law(model, steps, -np.atleast_2d(np.asarray(config.k_x, dtype=float)),
                           -np.atleast_2d(np.asarray(config.K_d, dtype=float)),
                           np.zeros(model.m))

    # pid
    return PidController(c_o=model.c_o, target=model.c_o @ cost.r, Ts=config.Ts,
                         kp=config.kp, ki=config.ki, kd=config.kd,
                         integral=np.zeros(model.l), prev_error=np.zeros(model.l))
