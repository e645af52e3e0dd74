"""The benchmark's workloads: inputs made from the seed, set-up, one pass, gate.

Each workload has a fixed work list.  ``prepare`` makes its inputs (untimed),
``setup`` loads them in this process, ``run_pass`` runs the whole list once
through lqdr's public functions, and ``check`` judges that pass's outputs
after the clock has stopped.  One operation is one controller run (scenario
workloads) or one cross-checked instance (``oracle_selftest``); ``check``
returns the failures of each operation.

lqdr functions are always looked up through their module at call time, so
the wrappers that ``instrument`` installs see every call.
"""

import json
from pathlib import Path

import numpy as np
import scipy.linalg

import lqdr.cli as cli
import lqdr.control as control
import lqdr.exceptions as exceptions
import lqdr.feedforward as feedforward
import lqdr.riccati as riccati
import lqdr.sim as sim

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

#: ROADMAP aim 2's bound on reproducing the seed's trajectories.
TRAJECTORY_RTOL = 1e-12
#: Finite-horizon cost identity and stationary P against scipy's DARE.
SOLVER_RTOL = 1e-8
#: Largest dynamics_residual accepted, relative to max(1, max |x|).
ROUNDOFF_RTOL = 1e-12
#: Tolerances of ``lqdr selftest``: (check, tolerance).
SELFTEST_TOLS = (("input", 1e-8), ("cost", 1e-8), ("stationarity", 1e-8),
                 ("link", 1e-8), ("closed_form", 1e-9))


def rel_err(actual, expected):
    """max |actual - expected| / max |expected| (0 when both are all zero)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return float("inf")
    diff = float(np.max(np.abs(actual - expected), initial=0.0))
    scale = float(np.max(np.abs(expected), initial=0.0))
    if diff == 0.0:
        return 0.0
    return diff / scale if scale > 0 else float("inf")


def _roundoff_failure(traj):
    scale = max(1.0, float(np.max(np.abs(traj.x))))
    residual = traj.dynamics_residual()
    if not residual <= ROUNDOFF_RTOL * scale:
        return f"dynamics_residual {residual:.3e} exceeds {ROUNDOFF_RTOL:g} * {scale:.3g}"
    return None


class ScenarioWorkload:
    """Runs ``cli.run_scenario`` on loaded scenarios; an operation is a controller."""

    name = None

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.files = []
        self.scenarios = []

    def setup(self):
        self.scenarios = [cli.load_scenario(path) for path in self.files]

    def run_pass(self, probe, tracer=None):
        records = []
        for scenario in self.scenarios:
            mark = len(probe.runs)
            _, failures = cli.run_scenario(scenario, self.out_dir)
            records.append((scenario, failures, probe.runs[mark:]))
        return records

    def check(self, records):
        """{operation: [failure, ...]} for every controller of every scenario."""
        result = {}
        for scenario, failures, runs in records:
            by_label = {run["config"].label: run for run in runs}
            for config in scenario.controllers:
                op = f"{scenario.name}.{config.label}"
                run = by_label.get(config.label, {})
                if config.label in failures:
                    result[op] = [f"solver error: {failures[config.label]}"]
                elif "traj" not in run:
                    result[op] = ["no trajectory was simulated"]
                else:
                    result[op] = self.check_run(scenario, config, run)
        return result

    def check_run(self, scenario, config, run):
        raise NotImplementedError


class BundledScenarios(ScenarioWorkload):
    """example_a..example_d exactly as shipped; the seed is unused."""

    name = "bundled_scenarios"
    SCENARIOS = ("example_a", "example_b", "example_c", "example_d")
    FIELDS = ("x", "u", "z", "cost_cum")
    METRICS = ("J", "steady_state_error", "peak_error", "settling_step",
               "closed_loop_radius")

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.files = [cli.bundled_scenario_path(name) for name in self.SCENARIOS]
        self.reference = REFERENCE
        self._trajectories = None
        self._summaries = None

    def prepare(self):
        """Read the reference outputs; the inputs are the shipped files."""
        with np.load(self.reference / "bundled.npz") as data:
            self._trajectories = {key: data[key] for key in data.files}
        self._summaries = json.loads((self.reference / "bundled_summary.json").read_text())

    def check_run(self, scenario, config, run):
        failures = []
        traj = run["traj"]
        for field in self.FIELDS:
            key = f"{scenario.name}.{config.label}.{field}"
            expected = self._trajectories.get(key)
            if expected is None:
                failures.append(f"no reference for {key}")
                continue
            err = rel_err(getattr(traj, field), expected)
            if not err <= TRAJECTORY_RTOL:
                failures.append(f"{field} differs from the reference by {err:.3e} "
                                f"(tol {TRAJECTORY_RTOL:g})")
        summary_path = self.out_dir / f"{scenario.name}.summary.json"
        try:
            entry = json.loads(summary_path.read_text())["controllers"][config.label]
        except (OSError, ValueError, KeyError) as exc:
            return failures + [f"summary unreadable: {exc!r}"]
        expected = self._summaries[scenario.name][config.label]
        for metric in self.METRICS:
            got, want = entry.get(metric), expected[metric]
            if (got is None) != (want is None) or (
                    want is not None and not rel_err(got, want) <= TRAJECTORY_RTOL):
                failures.append(f"summary {metric} is {got!r}, reference {want!r}")
        return failures

    def record_reference(self, records):
        """Write the reference files from one pass's outputs."""
        arrays, summaries = {}, {}
        for scenario, failures, runs in records:
            if failures:
                raise RuntimeError(f"{scenario.name}: {failures}")
            summary = json.loads(
                (self.out_dir / f"{scenario.name}.summary.json").read_text())
            summaries[scenario.name] = {}
            for run in runs:
                label = run["config"].label
                for field in self.FIELDS:
                    arrays[f"{scenario.name}.{label}.{field}"] = getattr(run["traj"], field)
                entry = summary["controllers"][label]
                summaries[scenario.name][label] = {m: entry[m] for m in self.METRICS}
        self.reference.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(self.reference / "bundled.npz", **arrays)
        (self.reference / "bundled_summary.json").write_text(
            json.dumps(summaries, indent=1, sort_keys=True) + "\n")


def _orthogonal(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


class LongHorizon(ScenarioWorkload):
    """Generated continuous-time plants, ZOH-discretized at load, long horizons.

    Each size has one fixed base plant (A0, B0, E0).  The seed draws an
    orthogonal change of state basis U and of input basis W and uses
    (U A0 U', U B0 W, U E0 W) with Q = R = I, which are invariant under U.
    Every seed therefore has the same Riccati spectra and iteration counts,
    so wall time compares across seeds, while every matrix entry, x0 and the
    ramp change with the seed.
    """

    name = "long_horizon"
    #: (n, m, steps): the horizon shrinks as the state grows.
    SIZES = ((2, 1, 2000), (8, 2, 1000), (32, 4, 500))
    SAMPLE_TIMES = (0.02, 0.001)
    CONTROLLERS = (
        {"kind": "FiniteHorizon", "label": "finite_horizon"},
        {"kind": "FiniteHorizon", "strict": False, "label": "finite_horizon_pinv"},
        {"kind": "Stationary", "label": "stationary"},
    )

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self._predicted = {}

    @staticmethod
    def base_plant(n, m):
        """Stable A0 (symmetric part below -2 I) and dense B0, E0; fixed per size."""
        rng = np.random.default_rng(1000 + n)
        S = rng.standard_normal((n, n))
        K = rng.standard_normal((n, n))
        A0 = -(S @ S.T / n + 2.0 * np.eye(n)) + 0.5 * (K - K.T)
        return A0, rng.standard_normal((n, m)), rng.standard_normal((n, m))

    def scenario_docs(self):
        rng = np.random.default_rng(self.seed)
        docs = []
        for n, m, steps in self.SIZES:
            A0, B0, E0 = self.base_plant(n, m)
            for Ts in self.SAMPLE_TIMES:
                U, W = _orthogonal(rng, n), _orthogonal(rng, m)
                docs.append({
                    "name": f"long_n{n}_Ts{Ts:g}",
                    "system": {"continuous": {"A": (U @ A0 @ U.T).tolist(),
                                              "B": (U @ B0 @ W).tolist(),
                                              "E": (U @ E0 @ W).tolist()},
                               "Ts": Ts, "c_o": U[:, :m].T.tolist()},
                    "cost": {"Q": np.eye(n).tolist(), "R": np.eye(n).tolist()},
                    "x0": rng.standard_normal(n).tolist(),
                    "steps": steps,
                    "disturbance": {"kind": "ramp",
                                    "rate": float(rng.uniform(0.001, 0.004)),
                                    "limit": float(rng.uniform(0.2, 0.8)),
                                    "start_step": int(rng.integers(0, steps // 10))},
                    "controllers": [dict(c) for c in self.CONTROLLERS],
                    "outputs": ["summary"],
                })
        return docs

    def prepare(self):
        inputs = self.out_dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.files = []
        for doc in self.scenario_docs():
            path = inputs / f"{doc['name']}.json"
            path.write_text(json.dumps(doc))
            self.files.append(path)

    def predicted_cost(self, scenario, config):
        """Optimal cost of a FiniteHorizon run, from a solve made for the gate.

        It is solved once per run, outside the timed region, so the gate does
        not depend on how ``build_controller`` reaches its gains.
        """
        key = (scenario.name, config.label)
        if key not in self._predicted:
            model, cost = scenario.model, scenario.cost
            ric = riccati.solve_finite_horizon(model, cost, scenario.steps - 1,
                                               strict=config.strict)
            ff = feedforward.solve_recursive(ric, model, cost, scenario.disturbance)
            self._predicted[key] = sim.predicted_optimal_cost(
                ric, ff, scenario.x0, model, cost, scenario.disturbance)
        return self._predicted[key]

    def check_run(self, scenario, config, run):
        model, cost, traj = scenario.model, scenario.cost, run["traj"]
        roundoff = _roundoff_failure(traj)
        failures = [roundoff] if roundoff else []
        if config.kind == "finite_horizon":
            J_sim = sim.evaluate_cost(traj, cost)
            J_pred = self.predicted_cost(scenario, config)
            err = abs(J_sim - J_pred) / max(abs(J_pred), 1e-300)
            if not err <= SOLVER_RTOL:
                failures.append(f"cost {J_sim!r} vs predicted {J_pred!r}: {err:.3e}")
        elif config.kind == "stationary":
            if "gare" not in run:
                return failures + ["solve_gare was not called to build the controller"]
            B = model.B
            P_dare = scipy.linalg.solve_discrete_are(model.A, B, cost.Q, B.T @ cost.R @ B)
            err = rel_err(run["gare"].P, P_dare)
            if not err <= SOLVER_RTOL:
                failures.append(f"stationary P vs scipy DARE: {err:.3e}")
        return failures


class OracleSelftest:
    """``lqdr selftest``'s cross-check on instances drawn before timing."""

    name = "oracle_selftest"
    INSTANCES = 1000

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.files = []
        self.instances = []

    def prepare(self):
        """Draw and filter instances as ``selftest`` does."""
        rng = np.random.default_rng(self.seed)
        while len(self.instances) < self.INSTANCES:
            inst = sim.draw_instance(rng)
            try:
                oracle = sim.brute_force_optimal(inst.model, inst.cost, inst.x0,
                                                 inst.d, inst.N)
            except exceptions.SolvabilityError:
                continue
            if oracle.condition > 1e6:
                continue
            self.instances.append(inst)

    def setup(self):
        pass

    @staticmethod
    def cross_check(inst):
        """The per-instance body of ``cli.selftest``; returns what its checks read."""
        model, cost = inst.model, inst.cost
        ric = riccati.solve_finite_horizon(model, cost, inst.N)
        ff = feedforward.solve_recursive(ric, model, cost, inst.d)
        oracle = sim.brute_force_optimal(model, cost, inst.x0, inst.d, inst.N)

        def step(k, x, d_now):
            return control.finite_horizon_control(k, x, ric, ff)

        traj = sim.simulate(model, cost, step, inst.x0, inst.N + 1, inst.d)
        J_sim = sim.evaluate_cost(traj, cost)
        J_pred = sim.predicted_optimal_cost(ric, ff, inst.x0, model, cost, inst.d)
        stat, link = sim.costate_residuals(traj, ric, ff, model, cost)
        cf = feedforward.solve_closed_form(ric, model, cost, inst.d)
        return {"u": traj.u.reshape(-1), "u_opt": oracle.u_opt, "J_sim": J_sim,
                "J_pred": J_pred, "J_opt": oracle.J_opt, "stationarity": stat,
                "link": link, "closed_form": (cf.h, ff.h, cf.f, ff.f)}

    def run_pass(self, probe, tracer=None):
        records = []
        for inst in self.instances:
            t0, _ = probe.host.read()
            try:
                if tracer is None:
                    out = self.cross_check(inst)
                else:
                    with tracer.span("instance"):
                        out = self.cross_check(inst)
            except (exceptions.LqdrError, ValueError) as exc:
                out = exc
            probe.instance_ns.append(probe.host.read()[0] - t0)
            records.append(out)
        return records

    @staticmethod
    def measures(out):
        """selftest's five worst-case measures for one instance."""
        scale = max(1.0, float(np.max(np.abs(out["u_opt"]))))
        J_sim, J_pred, J_opt = out["J_sim"], out["J_pred"], out["J_opt"]
        J_scale = max(1.0, abs(J_sim), abs(J_opt))
        cf_h, ff_h, cf_f, ff_f = out["closed_form"]
        return {
            "input": float(np.max(np.abs(out["u"] - out["u_opt"]))) / scale,
            "cost": max(abs(J_sim - J_pred), abs(J_sim - J_opt),
                        abs(J_pred - J_opt)) / J_scale,
            "stationarity": out["stationarity"],
            "link": out["link"],
            "closed_form": max(float(np.max(np.abs(cf_h - ff_h))),
                               float(np.max(np.abs(cf_f - ff_f)))),
        }

    def check(self, records):
        result = {}
        for i, out in enumerate(records):
            if isinstance(out, Exception):
                result[f"instance{i}"] = [f"solver error: {out}"]
                continue
            values = self.measures(out)
            result[f"instance{i}"] = [f"{name} {values[name]:.3e} exceeds {tol:g}"
                                      for name, tol in SELFTEST_TOLS
                                      if not values[name] <= tol]
        return result


WORKLOADS = {cls.name: cls for cls in (BundledScenarios, LongHorizon, OracleSelftest)}
