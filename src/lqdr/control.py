"""Control laws: optimal, stationary, receding-horizon, and two baselines.

The optimal laws all have the shape u = -(gain) x - (inverse) h, differing
only in where the gain and feedforward come from.  The two baselines exist
for benchmark comparisons: a state-feedback law with a static disturbance
compensation gain, and a positional PID acting on the regulated-output
error.

``build_controller`` turns a declarative ControllerConfig into a built
controller: a small object that holds its gains and the spectral radius of
its state-feedback loop, and is called as ``(k, x, d_k) -> u``.  Every
solve happens once, at build time.  That includes the receding-horizon
law: its lookahead Riccati pass never changes between steps and its
feedforward is linear in the frozen disturbance and the reference, so it
reduces to the affine law u = -K_0 x - K_d d_k - u_r.
"""

from dataclasses import dataclass

import numpy as np

from .feedforward import FeedforwardSolution, closed_form_terms, solve_recursive, solve_steady
from .model import CostSpec, DisturbanceProfile, freeze_fields
from .riccati import RiccatiSolution, solve_finite_horizon, solve_gare, spectral_radius

KINDS = ("finite_horizon", "stationary", "receding_horizon",
         "state_feedback_compensation", "pid")

#: Each kind by its name lower-cased without "_" or "-", plus the alias "sfc".
_KIND_NAMES = {**{kind.replace("_", ""): kind for kind in KINDS},
               "sfc": "state_feedback_compensation"}

#: Fields a controller kind cannot be built without.
_REQUIRED_FIELDS = {"receding_horizon": ("T",),
                    "state_feedback_compensation": ("k_x", "K_d"),
                    "pid": ("Ts",)}


@dataclass(frozen=True)
class ControllerConfig:
    """Declarative description of one controller in a scenario.

    Fields are kind-specific: ``T``/``P_terminal``/``strict`` for the
    optimal laws, ``k_x``/``K_d`` for state-feedback compensation, and the
    three gains plus ``Ts`` for PID.  Construction is the one place a
    config is judged: it maps CamelCase, snake_case and ``sfc`` onto the
    canonical kind and raises ValueError for an unknown kind, a label that
    is not a string, a ``strict`` that is not a boolean, a missing field of
    the kind, a lookahead ``T`` below 1 or a sample time ``Ts`` that is not
    positive.
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
        missing = [name for name in _REQUIRED_FIELDS.get(kind, ())
                   if getattr(self, name) is None]
        if missing:
            raise ValueError(f"{kind} needs field(s) {missing}")
        if self.T is not None and self.T < 1:
            raise ValueError(f"lookahead T must be >= 1, got {self.T}")
        if self.Ts is not None and not self.Ts > 0:
            raise ValueError(f"sample time Ts must be positive, got {self.Ts}")


def finite_horizon_control(k, x, riccati, ff):
    """Optimal input at step k: u = -K_k x - Upsilon_k^{-1} h_k."""
    if not 0 <= k <= riccati.horizon:
        raise IndexError(f"step {k} outside horizon 0..{riccati.horizon}")
    return -riccati.K[k] @ x - riccati.upsilon_solve(k, ff.h[k])


def stationary_control(x, gare, h):
    """Stabilizing input u = -K x - Upsilon^+ h (pure regulation when h = 0)."""
    return -gare.K @ x - gare.Upsilon_inv @ np.asarray(h, dtype=float).reshape(-1)


def _lookahead(model, cost, T, P_terminal, strict):
    """Riccati pass of a T-step lookahead and the cost it was solved for."""
    if T < 1:
        raise ValueError("lookahead T must be >= 1")
    if P_terminal is None:
        inner_cost = cost
    else:
        inner_cost = CostSpec(Q=cost.Q, R=cost.R, P_terminal=P_terminal, r=cost.r)
    return solve_finite_horizon(model, inner_cost, T, strict=strict), inner_cost


def receding_horizon_control(x, d_now, model, cost, T, P_terminal=None, strict=True):
    """First input of a T-step lookahead with the disturbance frozen at d_now.

    Solves the backward equations over the lookahead window with d held at
    its current value and terminal weight ``P_terminal`` (the cost's
    terminal weight when omitted), then applies only the first input.  The
    full backward pass is recomputed on every call.  This is the reference
    the built law of ``build_controller`` is tested against; that law solves
    once and applies u = -K_0 x - K_d d_now - u_r.
    """
    riccati, inner_cost = _lookahead(model, cost, T, P_terminal, strict)
    d_now = np.asarray(d_now, dtype=float).reshape(-1)
    frozen = np.tile(d_now, (T + 1, 1))
    ff = solve_recursive(riccati, model, inner_cost, frozen)
    return finite_horizon_control(0, x, riccati, ff)


@dataclass(frozen=True)
class AffineController:
    """Time-invariant law u = -K x - K_d d_k - u_0, with every gain computed once.

    The stationary, receding-horizon and state-feedback-compensation
    controllers all take this form; ``closed_loop_radius`` is rho(A - B K).
    """

    K: np.ndarray
    K_d: np.ndarray
    u_0: np.ndarray
    closed_loop_radius: float

    def __post_init__(self):
        freeze_fields(self, "K", "K_d", "u_0")

    def __call__(self, k, x, d_now):
        return -self.K @ x - self.K_d @ d_now - self.u_0


@dataclass(frozen=True)
class FiniteHorizonController:
    """Optimal law over the whole run; ``closed_loop_radius`` is rho(A - B K_0)."""

    riccati: RiccatiSolution
    ff: FeedforwardSolution
    closed_loop_radius: float

    def __call__(self, k, x, d_now):
        return finite_horizon_control(k, x, self.riccati, self.ff)


@dataclass
class PidController:
    """Positional discrete PID on the regulated-output error.

    u = kp * e + ki * (accumulated e * Ts) + kd * (e - e_prev) / Ts, with the
    integral including the current sample.  The controller owns its memory,
    ``integral`` and ``prev_error``, and updates it on every call.
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
        error = self.target - self.c_o @ x
        self.integral = self.integral + error * self.Ts
        u = (self.kp * error + self.ki * self.integral
             + self.kd * (error - self.prev_error) / self.Ts)
        self.prev_error = error
        return u


def build_controller(config, model, cost, profile, steps):
    """Build the controller of one configuration, callable as ``(k, x, d_k) -> u``.

    All solver work (Riccati, stationary equation, feedforward) happens
    here, so errors surface before the simulation starts.
    """
    kind = config.kind
    A, B = model.A, model.B
    if kind == "finite_horizon":
        riccati = solve_finite_horizon(model, cost, steps - 1, strict=config.strict)
        ff = solve_recursive(riccati, model, cost, profile)
        return FiniteHorizonController(
            riccati=riccati, ff=ff,
            closed_loop_radius=spectral_radius(A - B @ riccati.K[0]))

    if kind == "stationary":
        gare = solve_gare(model, cost)
        d_limit = profile.limit_value() if isinstance(profile, DisturbanceProfile) \
            else np.asarray(profile, dtype=float)[-1]
        h, _ = solve_steady(gare, model, cost, d_limit, cost.r)
        return AffineController(
            K=gare.K, K_d=np.zeros((model.m, model.m)),
            u_0=gare.Upsilon_inv @ h,
            closed_loop_radius=gare.closed_loop_radius)

    if kind == "receding_horizon":
        riccati, inner_cost = _lookahead(model, cost, config.T, config.P_terminal, config.strict)
        # with d frozen, f_k = Phi_k d - Rscript_k r, where
        # Phi_k = Abar_k' Phi_{k+1} + F_k and Phi_{T+1} = 0; then
        # h_0 = (H_0 + B' Phi_1) d - B' Rscript_1 r
        terms = closed_form_terms(riccati, model, inner_cost)
        Phi = np.zeros((model.n, model.m))
        for k in range(config.T, 0, -1):
            Phi = terms.Abar[k].T @ Phi + terms.F[k]
        return AffineController(
            K=riccati.K[0], K_d=riccati.upsilon_solve(0, terms.H[0] + B.T @ Phi),
            u_0=-riccati.upsilon_solve(0, B.T @ terms.Rscript[1] @ inner_cost.r),
            closed_loop_radius=spectral_radius(A - B @ riccati.K[0]))

    if kind == "state_feedback_compensation":
        # u = k_x x + K_d d in the affine form, so K = -k_x and K_d = -K_d;
        # the compensating gain is fed the true disturbance (rather than an
        # observer estimate), which can only flatter this baseline
        K = -np.atleast_2d(np.asarray(config.k_x, dtype=float))
        return AffineController(
            K=K, K_d=-np.atleast_2d(np.asarray(config.K_d, dtype=float)),
            u_0=np.zeros(model.m), closed_loop_radius=spectral_radius(A - B @ K))

    # pid
    if model.l != model.m:
        raise ValueError("pid pairs each regulated output with one input; "
                         f"got l={model.l}, m={model.m}")
    return PidController(c_o=model.c_o, target=model.c_o @ cost.r, Ts=config.Ts,
                         kp=config.kp, ki=config.ki, kd=config.kd,
                         integral=np.zeros(model.l), prev_error=np.zeros(model.l))
