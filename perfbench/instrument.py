"""Timers and spans around calls into lqdr, installed from outside the package.

lqdr's modules import each other's functions by name (``from .riccati import
solve_finite_horizon``), so one function is reachable through several module
attributes.  ``Patch`` swaps every ``lqdr.*`` attribute bound to the same
function object and puts the originals back on ``restore``.  Nothing under
``src/`` is edited.

Two instruments use it:

* ``Probe`` is always installed.  It times ``build_controller``,
  ``simulate`` and each call of the controller that ``simulate`` receives
  (two clock reads), and keeps what the correctness gate needs: each
  controller's config, the stationary solution ``solve_gare`` returned
  while it was built, and the trajectory it produced.  Its times leave
  out the time ``HostClock`` spends sampling the host's speed.
* ``Tracer`` is installed on top of it for traced passes only.  It records a
  span (name, start, end, parent, operation id) around each public function
  in ``TRACED`` and around each controller call.
"""

import functools
import hashlib
import inspect
import signal
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

clock = time.perf_counter_ns

#: Public functions wrapped in traced passes: (home module, name).
TRACED = (
    ("lqdr.model", "discretize_zoh"),
    ("lqdr.model", "disturbance_sequence"),
    ("lqdr.cli", "load_scenario"),
    ("lqdr.cli", "run_scenario"),
    ("lqdr.cli", "trajectory_metrics"),
    ("lqdr.cli", "write_csv"),
    ("lqdr.cli", "write_svg"),
    ("lqdr.control", "build_controller"),
    ("lqdr.riccati", "solve_finite_horizon"),
    ("lqdr.riccati", "solve_gare"),
    ("lqdr.feedforward", "solve_recursive"),
    ("lqdr.feedforward", "solve_closed_form"),
    ("lqdr.feedforward", "solve_steady"),
    ("lqdr.sim", "simulate"),
    ("lqdr.sim", "brute_force_optimal"),
    ("lqdr.sim", "costate_residuals"),
    ("lqdr.sim", "predicted_optimal_cost"),
    ("lqdr.sim", "evaluate_cost"),
)

#: Span name of one controller call inside ``simulate``.
STEP = "control.step"


def span_name(module, func):
    return f"{module.rsplit('.', 1)[-1]}.{func}"


def _lqdr_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "lqdr" or name.startswith("lqdr."))]


#: Fixed inputs of ``reference_kernel``.
_KERNEL_A = np.random.default_rng(0).standard_normal((6, 6)) / 6.0
_KERNEL_I = np.eye(6)
#: ``reference_kernel``'s time at the reference speed: about its fastest
#: on a 2.1 GHz Xeon with one BLAS thread.
REFERENCE_NS = 120_000


def reference_kernel():
    """Fixed work in the mix lqdr runs: small numpy products and solves."""
    M = _KERNEL_I
    for _ in range(12):
        M = _KERNEL_A @ M @ _KERNEL_A.T + _KERNEL_I
        M = np.linalg.solve(M + 6.0 * _KERNEL_I, M)
    return M


class HostClock:
    """Two clocks that leave out sampling: raw, and at the reference speed.

    A shared host's speed can change by 1.7x for seconds at a time, which
    moves every timing by as much.  Inside ``sampling()``, a timer signal
    times ``reference_kernel`` every ``INTERVAL_S`` of real time, whatever
    lqdr is doing.  The speed factor is ``REFERENCE_NS`` over the median of
    the last ``SMOOTH`` kernel times.  ``read`` returns the raw nanoseconds
    elapsed and the reference nanoseconds, which advance by the factor per
    raw nanosecond: the time the same work takes on the host at its
    reference speed.  The kernel's own time is left out of both.

    ``state`` is replaced, never changed, at each sample, so code that the
    signal interrupts sees either the old state or the new one.
    """

    INTERVAL_S = 0.01
    SMOOTH = 9

    def __init__(self):
        self.kernel_ns = array("q")
        self._origin = clock()
        #: (raw ns, reference ns, factor, ns spent sampling), as at the last sample.
        self.state = (0, 0.0, 1.0, 0)
        self.speed()

    @contextmanager
    def sampling(self):
        """Sample the host's speed every ``INTERVAL_S`` while the block runs."""
        self.speed()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def raw_ns(self):
        """Raw ns since this clock was made, sampling left out."""
        return self.read()[0]

    def read(self):
        """(raw ns, reference ns) since this clock was made."""
        while True:
            state = self.state
            now = clock()
            if state is self.state:
                break
        raw_at, ref_at, factor, spent = state
        raw = now - self._origin - spent
        return raw, ref_at + (raw - raw_at) * factor

    def sample(self):
        raw, ref = self.read()
        t0 = clock()
        reference_kernel()
        t1 = clock()
        self.kernel_ns.append(t1 - t0)
        recent = sorted(self.kernel_ns[-self.SMOOTH:])
        factor = REFERENCE_NS / recent[len(recent) // 2]
        spent = self.state[3] + clock() - t0
        self.state = (raw, ref, factor, spent)

    def speed(self):
        """Sample ``SMOOTH`` times in a row; return the speed factor now."""
        for _ in range(self.SMOOTH):
            self.sample()
        return self.state[2]

    def _on_alarm(self, signum, frame):
        self.sample()


class Patch:
    """Replaces a function at every lqdr module attribute that refers to it."""

    def __init__(self):
        self._undo = []

    def wrap(self, module, func, make_wrapper):
        """Wrap ``module.func`` wherever it is bound; False when it is absent."""
        target = getattr(sys.modules.get(module), func, None)
        if not callable(target):
            return False
        wrapper = make_wrapper(target)
        for mod in _lqdr_modules():
            for attr, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, target))
        return True

    def restore(self):
        for mod, attr, target in reversed(self._undo):
            setattr(mod, attr, target)
        self._undo.clear()


def _binder(fn):
    """``(args, kwargs) -> {parameter: value}``, or None if fn has no signature."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return None

    def bind(args, kwargs):
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            return None
        bound.apply_defaults()
        return bound
    return bind


def _with_controller(bind, args, kwargs, wrap_controller):
    """(args, kwargs) of a ``simulate`` call with its controller wrapped."""
    bound = bind(args, kwargs) if bind else None
    if bound is None or "controller" not in bound.arguments:
        return args, kwargs
    bound.arguments["controller"] = wrap_controller(bound.arguments["controller"])
    return bound.args, bound.kwargs


class Probe:
    """End-to-end timers and the gate's captures; reset at each pass.

    Times in ``*_ref_ns`` are read from ``host`` at the reference speed.
    """

    def __init__(self):
        self.host = HostClock()
        self._patch = Patch()
        self.reset()

    def reset(self):
        self.build_ns = 0
        self.simulate_ns = 0
        self.simulate_ref_ns = 0.0
        self.steps = 0
        self.step_ns = array("q")
        #: Latency of each oracle instance, timed by the workload.
        self.instance_ns = array("q")
        #: One dict per build_controller call: config, stationary solution, traj.
        self.runs = []
        self._building = None

    @contextmanager
    def installed(self):
        self._patch.wrap("lqdr.control", "build_controller", self._build)
        self._patch.wrap("lqdr.sim", "simulate", self._simulate)
        self._patch.wrap("lqdr.riccati", "solve_gare", self._gare)
        try:
            yield self
        finally:
            self._patch.restore()

    def _build(self, fn):
        @functools.wraps(fn)
        def build_controller(config, *args, **kwargs):
            run = {"config": config}
            self.runs.append(run)
            self._building = run
            t0, _ = self.host.read()
            try:
                return fn(config, *args, **kwargs)
            finally:
                self.build_ns += self.host.read()[0] - t0
                self._building = None
        return build_controller

    def _gare(self, fn):
        @functools.wraps(fn)
        def solve_gare(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._building is not None:
                self._building.setdefault("gare", result)
            return result
        return solve_gare

    def _timed_controller(self, controller):
        step_ns, host = self.step_ns, self.host

        @functools.wraps(controller)
        def timed(*args, **kwargs):
            t0 = clock()
            before = host.state[3]
            u = controller(*args, **kwargs)
            after = host.state[3]
            t1 = clock()
            step_ns.append(t1 - t0 - (after - before))
            return u
        return timed

    def _simulate(self, fn):
        bind = _binder(fn)

        @functools.wraps(fn)
        def simulate(*args, **kwargs):
            args, kwargs = _with_controller(bind, args, kwargs, self._timed_controller)
            raw0, ref0 = self.host.read()
            traj = fn(*args, **kwargs)
            raw1, ref1 = self.host.read()
            self.simulate_ns += raw1 - raw0
            self.simulate_ref_ns += ref1 - ref0
            self.steps += traj.steps
            if self.runs and "traj" not in self.runs[-1]:
                self.runs[-1]["traj"] = traj
            return traj
        return simulate


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.error = False
        self.attrs = None

    def as_dict(self, index):
        return {"id": index, "name": self.name, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent, "op": self.op,
                "error": self.error, "attrs": self.attrs}


def _digest(*parts):
    h = hashlib.sha1()
    for part in parts:
        h.update(repr(getattr(part, "shape", None)).encode())
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return h.hexdigest()


def _riccati_attrs(bound, result):
    model, cost = bound["model"], bound["cost"]
    N, strict = int(bound["N"]), bool(bound["strict"])
    return {"n": model.n, "m": model.m, "N": N,
            "key": _digest(model.A, model.B, cost.Q, cost.R, cost.P_terminal,
                           N, strict)}


def _gare_attrs(bound, result):
    model, cost = bound["model"], bound["cost"]
    return {"iterations": int(result.iterations),
            "key": _digest(model.A, model.B, cost.Q, cost.R,
                           bound["tol"], bound["max_iters"])}


def _file_bytes(bound, result):
    return {"bytes": Path(bound["path"]).stat().st_size}


#: Per-function span attributes, read from the bound arguments and result.
ANNOTATE = {
    "riccati.solve_finite_horizon": _riccati_attrs,
    "riccati.solve_gare": _gare_attrs,
    "feedforward.solve_recursive":
        lambda bound, result: {"steps": bound["riccati"].horizon + 1},
    "sim.simulate": lambda bound, result: {"steps": int(bound["steps"])},
    "cli.write_csv": _file_bytes,
    "cli.write_svg": _file_bytes,
}


class Tracer:
    """Spans kept in memory, one per call of a wrapped function.

    An operation id is assigned at each span the benchmark opens (a pass or
    an oracle instance) and at each ``build_controller`` call (a controller
    run); every span inherits the id current when it opens.  Spans are
    timed by ``now``, which ``run.py`` sets to ``HostClock.raw_ns`` so that
    no span holds the host's speed sampling.
    """

    def __init__(self, now=clock):
        self._now = now
        self.spans = []
        self.absent = []
        self.op = 0
        self._stack = []
        self._patch = Patch()

    @contextmanager
    def installed(self):
        self.absent = [span_name(mod, func) for mod, func in TRACED
                       if not self._patch.wrap(mod, func, self._wrapper(mod, func))]
        try:
            yield self
        finally:
            self._patch.restore()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, starting a new operation."""
        self.op += 1
        span = self._open(name)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            self._close(span)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self._now(), parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span.end = self._now()
        self._stack.pop()

    def traced(self, name, fn, annotate=None, new_op=False):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            if new_op:
                self.op += 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                self._close(span)
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result
        return call

    def _wrapper(self, module, func):
        name = span_name(module, func)
        attrs = ANNOTATE.get(name)

        def make(fn):
            bind = _binder(fn)

            def annotate(args, kwargs, result):
                bound = bind(args, kwargs) if bind else None
                if bound is None:
                    return None
                try:
                    return attrs(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError, OSError):
                    return None
            traced = self.traced(name, fn, annotate if attrs else None,
                                 new_op=name == "control.build_controller")
            if name != "sim.simulate":
                return traced

            @functools.wraps(fn)
            def simulate(*args, **kwargs):
                args, kwargs = _with_controller(
                    bind, args, kwargs, lambda c: self.traced(STEP, c))
                return traced(*args, **kwargs)
            return simulate
        return make
