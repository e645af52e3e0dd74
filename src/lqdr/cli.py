"""Scenario-driven front end.

A scenario is one JSON document describing the plant (directly or as a
continuous-time triplet plus a sample interval), the cost, the disturbance,
a list of controllers to run side by side, and the requested artifacts.
``run`` writes, per controller, ``<name>.<controller>.csv`` (header
``k,x1..xn,u1..um,d1..dm,z1..zl,cost_cum``, one row per step, 17 significant
digits so values round-trip losslessly), plus a combined ``<name>.svg``
overlay of the regulated outputs and a ``<name>.summary.json`` with the
comparison metrics.

Exit codes: 0 success, 1 scenario/validation problem, 2 solver failure.
The output directory is ``--out`` when given, else ``$LQDR_OUT``, else the
working directory.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .control import (ControllerConfig, build_controller, canonical_kind,
                      finite_horizon_control)
from .exceptions import LqdrError, ScenarioError, SolvabilityError
from .feedforward import solve_closed_form, solve_recursive
from .model import (CostSpec, DisturbanceProfile, SystemModel,
                    classify_disturbance, discretize_zoh, validate)
from .riccati import gare_fixed_point, solve_finite_horizon
from .sim import (brute_force_optimal, costate_residuals, draw_instance,
                  evaluate_cost, predicted_optimal_cost, simulate)

_TOP_KEYS = {"name", "system", "cost", "x0", "steps", "disturbance",
             "reference", "controllers", "outputs", "settle_band", "display"}
_SYSTEM_KEYS = {"A", "B", "E", "c_o", "continuous", "Ts"}
_COST_KEYS = {"R", "Q", "P_terminal"}
_DISTURBANCE_KEYS = {"kind", "amplitude", "rate", "limit", "start_step", "values"}
_CONTROLLER_KEYS = {"kind", "label", "T", "P_terminal", "strict", "k_x", "K_d",
                    "kp", "ki", "kd", "Ts"}
#: Fields a controller kind cannot be built without.
_REQUIRED_CONTROLLER_KEYS = {"receding_horizon": ("T",),
                             "state_feedback_compensation": ("k_x", "K_d"),
                             "pid": ("Ts",)}
_OUTPUT_KINDS = ("csv", "svg", "summary")
#: What numpy and the model types raise on values that are not numbers.
_BAD_VALUE = (TypeError, ValueError, OverflowError)


def _fields(spec, allowed, where):
    """``spec`` itself, if it is an object with no field outside ``allowed``."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where} must be an object")
    unknown = set(spec) - allowed
    if unknown:
        raise ScenarioError(f"unknown field(s) {sorted(unknown)} in {where}")
    return spec


def _number(value, where, integer=False):
    """A finite JSON number (an integral one when ``integer``)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) < 1e300 and (not integer or value == int(value))):
        kind = "an integer" if integer else "a finite number"
        raise ScenarioError(f"{where} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _array(value, where, shape=None):
    """A finite float array; a vector or matrix of ``shape`` when given."""
    try:
        arr = np.asarray(value, dtype=float)
    except _BAD_VALUE as exc:
        raise ScenarioError(f"{where} must hold numbers: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{where} must hold finite numbers")
    if shape is not None:
        arr = arr.reshape(-1) if len(shape) == 1 else np.atleast_2d(arr)
        if arr.shape != shape:
            raise ScenarioError(f"{where} must have shape {shape}, got {arr.shape}")
    return arr


class Scenario:
    """Fully resolved simulation setup parsed from one JSON document."""

    def __init__(self, name, model, cost, x0, steps, disturbance, controllers,
                 outputs, settle_band, display, raw):
        self.name = name
        self.model = model
        self.cost = cost
        self.x0 = x0
        self.steps = steps
        self.disturbance = disturbance
        self.controllers = controllers
        self.outputs = outputs
        self.settle_band = settle_band
        self.display = display
        self.raw = raw


def _parse_system(spec):
    _fields(spec, _SYSTEM_KEYS, "system")
    try:
        if "continuous" in spec:
            cont = _fields(spec["continuous"], {"A", "B", "E"}, "system.continuous")
            return discretize_zoh(cont["A"], cont["B"], cont["E"],
                                  _number(spec["Ts"], "system.Ts"), c_o=spec.get("c_o"))
        return SystemModel(A=spec["A"], B=spec["B"], E=spec["E"], c_o=spec["c_o"])
    except KeyError as exc:
        raise ScenarioError(f"system is missing field {exc}") from exc
    except _BAD_VALUE as exc:
        raise ScenarioError(f"bad system matrices: {exc}") from exc


def _parse_reference(ref, model):
    if ref is None:
        return np.zeros(model.n)
    if isinstance(ref, dict):
        _fields(ref, {"regulated"}, "reference")
        target = _array(ref.get("regulated"), "reference.regulated", (model.l,))
        # minimum-norm state reference consistent with c_o r = target
        return np.linalg.pinv(model.c_o) @ target
    return _array(ref, "reference", (model.n,))


def _parse_cost(spec, model, reference):
    _fields(spec, _COST_KEYS, "cost")
    if "R" not in spec:
        raise ScenarioError("cost needs the weight R")
    try:
        return CostSpec(Q=spec.get("Q", model.c_o.T @ model.c_o), R=spec["R"],
                        P_terminal=spec.get("P_terminal", np.zeros((model.n, model.n))),
                        r=reference)
    except _BAD_VALUE as exc:
        raise ScenarioError(f"bad cost: {exc}") from exc


def _parse_disturbance(spec, model):
    _fields(spec, _DISTURBANCE_KEYS, "disturbance")
    kind = spec.get("kind")
    start = _number(spec.get("start_step", 0), "disturbance.start_step", integer=True)
    num = {key: _number(spec[key], f"disturbance.{key}")
           for key in ("amplitude", "rate", "limit") if key in spec}
    try:
        if kind == "constant":
            return DisturbanceProfile.constant(num["amplitude"], start_step=start,
                                               dim=model.m)
        if kind == "sinusoid":
            return DisturbanceProfile.sinusoid(num["amplitude"], num["rate"],
                                               start_step=start, dim=model.m)
        if kind == "ramp":
            return DisturbanceProfile.ramp(num["rate"], num["limit"],
                                           start_step=start, dim=model.m)
        if kind == "table":
            profile = DisturbanceProfile.table(_array(spec["values"], "disturbance.values"),
                                               start_step=start)
            if profile.dim != model.m:
                raise ScenarioError(f"disturbance.values must have {model.m} column(s), "
                                    f"got {profile.dim}")
            return profile
    except (KeyError, ValueError) as exc:
        raise ScenarioError(f"bad disturbance: {exc}") from exc
    raise ScenarioError(f"unknown disturbance kind {kind!r}")


def _parse_controllers(specs, model):
    if not isinstance(specs, list) or not specs:
        raise ScenarioError("'controllers' must be a non-empty list")
    n, m = model.n, model.m
    configs = []
    labels = set()
    for i, spec in enumerate(specs):
        where = f"controllers[{i}]"
        _fields(spec, _CONTROLLER_KEYS, where)
        if "kind" not in spec:
            raise ScenarioError(f"{where} is missing 'kind'")
        try:
            kind = canonical_kind(spec["kind"])
        except ValueError as exc:
            raise ScenarioError(f"bad {where}: {exc}") from exc
        missing = [key for key in _REQUIRED_CONTROLLER_KEYS.get(kind, ()) if key not in spec]
        if missing:
            raise ScenarioError(f"{where}: {kind} needs field(s) {missing}")
        fields = {key: _number(spec[key], f"{where}.{key}")
                  for key in ("kp", "ki", "kd", "Ts") if key in spec}
        if "Ts" in fields and fields["Ts"] <= 0:
            raise ScenarioError(f"{where}.Ts must be positive, got {fields['Ts']}")
        fields.update({key: _array(spec[key], f"{where}.{key}", shape)
                       for key, shape in (("P_terminal", (n, n)), ("k_x", (m, n)),
                                          ("K_d", (m, m))) if key in spec})
        if "T" in spec:
            fields["T"] = _number(spec["T"], f"{where}.T", integer=True)
            if fields["T"] < 1:
                raise ScenarioError(f"{where}: lookahead T must be >= 1, got {fields['T']}")
        if not isinstance(spec.get("strict", True), bool):
            raise ScenarioError(f"{where}.strict must be true or false")
        if not isinstance(spec.get("label", ""), str):
            raise ScenarioError(f"{where}.label must be a string")
        config = ControllerConfig(kind=kind, label=spec.get("label"),
                                  strict=spec.get("strict", True), **fields)
        if config.label in labels:
            raise ScenarioError(f"duplicate controller label {config.label!r}")
        labels.add(config.label)
        configs.append(config)
    return configs


def load_scenario(path):
    """Parse and resolve a scenario file; raises ScenarioError on any defect."""
    path = Path(path)

    def reject_constant(token):
        # NaN, Infinity and -Infinity are Python's extension, not JSON
        raise ScenarioError(f"{path}: {token} is not a JSON number; values must be finite")

    try:
        raw = json.loads(path.read_text(), parse_constant=reject_constant)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _fields(raw, _TOP_KEYS, f"{path}: top level")
    for key in ("name", "system", "cost", "x0", "steps", "disturbance", "controllers"):
        if key not in raw:
            raise ScenarioError(f"{path}: missing required field '{key}'")

    model = _parse_system(raw["system"])
    reference = _parse_reference(raw.get("reference"), model)
    cost = _parse_cost(raw["cost"], model, reference)
    report = validate(model, cost)
    bad = [name for name, ok in report.psd_flags.items() if not ok]
    if bad:
        raise ScenarioError("cost weights must be symmetric positive semidefinite: "
                            + "; ".join(msg for msg in report.messages
                                        if msg.split()[0] in bad))
    disturbance = _parse_disturbance(raw["disturbance"], model)
    controllers = _parse_controllers(raw["controllers"], model)

    steps = _number(raw["steps"], "steps", integer=True)
    if steps < 1:
        raise ScenarioError(f"steps must be >= 1, got {steps}")
    x0 = _array(raw["x0"], "x0", (model.n,))
    outputs = raw.get("outputs", list(_OUTPUT_KINDS))
    if not isinstance(outputs, list) or not all(o in _OUTPUT_KINDS for o in outputs):
        raise ScenarioError(f"outputs must be a subset of {_OUTPUT_KINDS}")
    settle_band = _number(raw.get("settle_band", 1e-3), "settle_band")

    return Scenario(name=raw["name"], model=model, cost=cost, x0=x0, steps=steps,
                    disturbance=disturbance, controllers=controllers,
                    outputs=outputs, settle_band=settle_band,
                    display=raw.get("display", {}), raw=raw)


def bundled_scenario_path(name):
    """Path of one of the shipped scenario files (example_a .. example_d)."""
    from importlib.resources import files

    resource = files("lqdr.scenarios").joinpath(f"{name}.json")
    if not resource.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return Path(str(resource))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def trajectory_metrics(traj, cost, model, onset, settle_band):
    """Deterministic comparison metrics for one closed-loop run."""
    target = model.c_o @ cost.r
    err = np.max(np.abs(traj.z - target), axis=1)
    steps = traj.steps
    onset = min(onset, steps)
    tail_start = int(0.9 * steps)
    post = err[onset:]
    settled = None
    below = post <= settle_band
    for j in range(below.shape[0] - 1, -1, -1):
        if not below[j]:
            break
        settled = onset + j
    return {
        "J": evaluate_cost(traj, cost),
        "steady_state_error": float(np.mean(err[tail_start:])),
        "peak_error": float(np.max(post)),
        "settling_step": settled,
    }


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _fmt(value):
    return f"{value:.17g}"


def write_csv(path, traj):
    """One row per applied input; the final state does not get a row."""
    n, m, l = traj.model.n, traj.model.m, traj.model.l
    header = (["k"] + [f"x{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)]
              + [f"d{i+1}" for i in range(m)] + [f"z{i+1}" for i in range(l)]
              + ["cost_cum"])
    lines = [",".join(header)]
    for k in range(traj.steps):
        row = [str(k)]
        row += [_fmt(v) for v in traj.x[k]]
        row += [_fmt(v) for v in traj.u[k]]
        row += [_fmt(v) for v in traj.d[k]]
        row += [_fmt(v) for v in traj.z[k]]
        row.append(_fmt(traj.cost_cum[k]))
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_svg(path, title, series, onset=None):
    """Self-contained overlay line chart of regulated outputs vs step.

    ``series`` is a list of (label, values) pairs sharing the step axis; an
    optional vertical dashed marker shows the disturbance onset.
    """
    width, height = 860, 480
    ml, mr, mt, mb = 70, 160, 40, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb
    n_steps = max(len(values) for _, values in series)
    lo = min(float(np.min(values)) for _, values in series)
    hi = max(float(np.max(values)) for _, values in series)
    if hi - lo < 1e-12:
        hi, lo = hi + 1.0, lo - 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def sx(k):
        return ml + plot_w * k / max(n_steps - 1, 1)

    def sy(v):
        return mt + plot_h * (hi - v) / (hi - lo)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="24" font-family="sans-serif" font-size="16">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#888"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        y = sy(v)
        parts.append(f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + plot_w}" y2="{y:.2f}" '
                     f'stroke="#ddd"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{v:.3g}</text>')
        k = int(frac * (n_steps - 1))
        x = sx(k)
        parts.append(f'<text x="{x:.2f}" y="{mt + plot_h + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{k}</text>')
    parts.append(f'<text x="{ml + plot_w / 2}" y="{height - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">step k</text>')
    if onset is not None and 0 <= onset < n_steps:
        x = sx(onset)
        parts.append(f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" y2="{mt + plot_h}" '
                     f'stroke="#999" stroke-dasharray="5,4"/>')
        parts.append(f'<text x="{x + 4:.2f}" y="{mt + 14}" font-family="sans-serif" '
                     f'font-size="11" fill="#666">onset</text>')
    for i, (label, values) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(k):.2f},{sy(float(v)):.2f}" for k, v in enumerate(values))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = mt + 16 + 18 * i
        lx = ml + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _scenario_echo(scenario):
    model, cost = scenario.model, scenario.cost
    dist = scenario.disturbance
    echo = {
        "name": scenario.name,
        "steps": scenario.steps,
        "settle_band": scenario.settle_band,
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "E": model.E.tolist(),
        "c_o": model.c_o.tolist(),
        "Q": cost.Q.tolist(),
        "R": cost.R.tolist(),
        "P_terminal": cost.P_terminal.tolist(),
        "r": cost.r.tolist(),
        "reference_regulated": (model.c_o @ cost.r).tolist(),
        "x0": scenario.x0.tolist(),
        "disturbance": {
            "kind": dist.kind,
            "amplitude": dist.amplitude,
            "rate": dist.rate,
            "limit": dist.limit,
            "start_step": dist.start_step,
        },
        "disturbance_class": classify_disturbance(model.B, model.E),
    }
    if scenario.display:
        echo["display"] = scenario.display
    return echo


def _finite(traj, metrics):
    """Whether every trajectory array and every float metric is finite."""
    values = [metrics[key] for key in ("J", "steady_state_error", "peak_error")]
    return all(np.isfinite(arr).all()
                for arr in (traj.x, traj.u, traj.z, traj.cost_cum, values))


def run_scenario(scenario, out_dir="."):
    """Simulate every configured controller and write the requested artifacts.

    A controller whose solve fails, or whose run leaves the finite floats,
    is recorded in the summary and skipped; the remaining controllers still
    run.  Returns (outputs, failures) where
    ``outputs`` maps artifact names to paths.
    """
    if isinstance(scenario, (str, Path)):
        scenario = load_scenario(scenario)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs = {}
    failures = {}
    summary = {"scenario": _scenario_echo(scenario), "controllers": {}}
    series = []
    onset = scenario.disturbance.start_step

    for config in scenario.controllers:
        entry = {"kind": config.kind, "error": None}
        try:
            controller = build_controller(config, scenario.model, scenario.cost,
                                          scenario.disturbance, scenario.steps)
            traj = simulate(scenario.model, scenario.cost, controller,
                            scenario.x0, scenario.steps, scenario.disturbance)
            metrics = trajectory_metrics(traj, scenario.cost, scenario.model,
                                         onset, scenario.settle_band)
            if not _finite(traj, metrics):
                raise LqdrError("closed loop diverged: the trajectory or its "
                                "metrics are not finite")
        except (LqdrError, ValueError) as exc:
            entry["error"] = str(exc)
            failures[config.label] = exc
            summary["controllers"][config.label] = entry
            continue
        entry.update(metrics)
        entry["closed_loop_radius"] = controller.closed_loop_radius
        if "csv" in scenario.outputs:
            csv_path = out_dir / f"{scenario.name}.{config.label}.csv"
            write_csv(csv_path, traj)
            outputs[f"csv:{config.label}"] = csv_path
            entry["csv"] = csv_path.name
        for i in range(scenario.model.l):
            label = config.label if scenario.model.l == 1 else f"{config.label} z{i+1}"
            series.append((label, traj.z[:, i]))
        summary["controllers"][config.label] = entry

    if "svg" in scenario.outputs and series:
        svg_path = out_dir / f"{scenario.name}.svg"
        write_svg(svg_path, f"{scenario.name}: regulated output", series, onset=onset)
        outputs["svg"] = svg_path
    if "summary" in scenario.outputs:
        summary_path = out_dir / f"{scenario.name}.summary.json"
        summary_path.write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")
        outputs["summary"] = summary_path
    return outputs, failures


# ---------------------------------------------------------------------------
# compare / gare / selftest
# ---------------------------------------------------------------------------

_COMPARE_COLUMNS = ("controller", "J", "steady_state_error", "peak_error",
                    "settling_step")


def compare_summaries(paths, out_dir=None):
    """Merge summaries of one scenario into a comparison table.

    Returns (text, csv_path); refuses to mix scenarios.
    """
    rows = []
    name = None
    for path in paths:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot read summary {path}: {exc}") from exc
        this = data.get("scenario", {}).get("name")
        if name is None:
            name = this
        elif this != name:
            raise ScenarioError(
                f"summaries mix scenarios {name!r} and {this!r}; refusing to compare")
        for label, entry in data.get("controllers", {}).items():
            if entry.get("error"):
                rows.append((label, "failed: " + entry["error"], "", "", ""))
                continue
            rows.append((label,
                         f"{entry['J']:.6e}",
                         f"{entry['steady_state_error']:.6e}",
                         f"{entry['peak_error']:.6e}",
                         "-" if entry.get("settling_step") is None
                         else str(entry["settling_step"])))
    if not rows:
        raise ScenarioError("no controller entries found in the given summaries")

    table = [list(_COMPARE_COLUMNS)] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(_COMPARE_COLUMNS))]
    lines = [f"scenario: {name}"]
    for j, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    text = "\n".join(lines)

    csv_path = None
    if out_dir is not None:
        csv_path = Path(out_dir) / f"{name}.comparison.csv"
        csv_lines = [",".join(_COMPARE_COLUMNS)]
        csv_lines += [",".join(map(str, row)) for row in rows]
        csv_path.write_text("\n".join(csv_lines) + "\n")
    return text, csv_path


def gare_report(scenario):
    """Text report of the stationary solution for a scenario's plant.

    A non-contracting closed loop is reported and flagged rather than
    raised, so undetectable setups still get their diagnostic; a
    non-converging iteration does raise (with its last residual).
    """
    if isinstance(scenario, (str, Path)):
        scenario = load_scenario(scenario)
    report = validate(scenario.model, scenario.cost)
    lines = [f"scenario: {scenario.name}",
             f"disturbance class: {report.disturbance_class}",
             f"detectable: {report.detectable}"]
    if not report.detectable:
        lines.append("warning: (A, Q^(1/2)) not detectable; result not certified")
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        gare = gare_fixed_point(scenario.model, scenario.cost)
    with np.printoptions(precision=8, suppress=False):
        lines.append(f"iterations: {gare.iterations}")
        lines.append(f"horizon: {gare.horizon}")
        lines.append(f"residual: {gare.residual:.3e}")
        lines.append(f"closed-loop spectral radius: {gare.closed_loop_radius:.8f}")
        if gare.closed_loop_radius >= 1.0:
            lines.append("NOT CERTIFIED: the stationary law does not stabilize "
                         "the plant (spectral radius >= 1)")
        lines.append("P =")
        lines.append(str(gare.P))
        lines.append("K =")
        lines.append(str(gare.K))
    return "\n".join(lines)


def selftest(instances=40, seed=2024, verbose=True):
    """Cross-check the three cost oracles and the optimality system.

    Draws random strict instances and verifies, per instance, that the
    rolled-out optimal inputs match the brute-force minimizer, that the
    three cost values agree pairwise, that the optimality residuals vanish,
    and that both feedforward evaluations coincide.
    """
    rng = np.random.default_rng(seed)
    worst = {"input": 0.0, "cost": 0.0, "stationarity": 0.0, "link": 0.0,
             "closed_form": 0.0}
    used = 0
    while used < instances:
        inst = draw_instance(rng)
        riccati = solve_finite_horizon(inst.model, inst.cost, inst.N)
        ff = solve_recursive(riccati, inst.model, inst.cost, inst.d)
        try:
            oracle = brute_force_optimal(inst.model, inst.cost, inst.x0, inst.d, inst.N)
        except SolvabilityError:
            continue
        if oracle.condition > 1e6:
            continue
        used += 1

        def step(k, x, d_now, riccati=riccati, ff=ff):
            return finite_horizon_control(k, x, riccati, ff)

        traj = simulate(inst.model, inst.cost, step, inst.x0, inst.N + 1, inst.d)
        u_flat = traj.u.reshape(-1)
        scale = max(1.0, float(np.max(np.abs(oracle.u_opt))))
        worst["input"] = max(worst["input"],
                             float(np.max(np.abs(u_flat - oracle.u_opt))) / scale)
        J_sim = evaluate_cost(traj, inst.cost)
        J_pred = predicted_optimal_cost(riccati, ff, inst.x0, inst.model,
                                        inst.cost, inst.d)
        J_scale = max(1.0, abs(J_sim), abs(oracle.J_opt))
        worst["cost"] = max(worst["cost"],
                            abs(J_sim - J_pred) / J_scale,
                            abs(J_sim - oracle.J_opt) / J_scale,
                            abs(J_pred - oracle.J_opt) / J_scale)
        stat, link = costate_residuals(traj, riccati, ff, inst.model, inst.cost)
        worst["stationarity"] = max(worst["stationarity"], stat)
        worst["link"] = max(worst["link"], link)
        cf = solve_closed_form(riccati, inst.model, inst.cost, inst.d)
        worst["closed_form"] = max(
            worst["closed_form"],
            float(np.max(np.abs(cf.h - ff.h))), float(np.max(np.abs(cf.f - ff.f))))

    checks = [
        ("input sequence vs brute force", worst["input"], 1e-8),
        ("cost triangle (simulated/predicted/oracle)", worst["cost"], 1e-8),
        ("stationarity residual", worst["stationarity"], 1e-8),
        ("costate link residual", worst["link"], 1e-8),
        ("closed form vs recursion", worst["closed_form"], 1e-9),
    ]
    ok = True
    for label, value, tol in checks:
        passed = value <= tol
        ok = ok and passed
        if verbose:
            print(f"{'PASS' if passed else 'FAIL'}  {label}: max {value:.3e} "
                  f"(tol {tol:g}, {instances} instances)")
    return ok


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _resolve_out(arg):
    if arg:
        return arg
    return os.environ.get("LQDR_OUT", ".")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lqdr",
        description="Optimal rejection of mismatched disturbances via "
                    "linear quadratic tracking.")
    parser.add_argument("--version", action="version", version=f"lqdr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output directory "
                       "(default: $LQDR_OUT or the working directory)")

    p_cmp = sub.add_parser("compare", help="tabulate summary files of one scenario")
    p_cmp.add_argument("summaries", nargs="+")
    p_cmp.add_argument("--out", default=None)

    p_gare = sub.add_parser("gare", help="report the stationary solution")
    p_gare.add_argument("scenario")

    p_self = sub.add_parser("selftest", help="run the oracle cross-check suite")
    p_self.add_argument("--instances", type=int, default=40)
    p_self.add_argument("--seed", type=int, default=2024)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            outputs, failures = run_scenario(args.scenario, _resolve_out(args.out))
            for key in sorted(outputs):
                print(f"wrote {outputs[key]}")
            for label, exc in failures.items():
                print(f"controller {label!r} failed: {exc}", file=sys.stderr)
            return 2 if failures else 0
        if args.command == "compare":
            text, csv_path = compare_summaries(args.summaries, _resolve_out(args.out))
            print(text)
            if csv_path:
                print(f"wrote {csv_path}")
            return 0
        if args.command == "gare":
            print(gare_report(args.scenario))
            return 0
        return 0 if selftest(instances=args.instances, seed=args.seed) else 2
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except LqdrError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
