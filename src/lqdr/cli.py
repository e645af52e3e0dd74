"""Scenario-driven front end.

A scenario is one JSON document describing the plant (directly or as a
continuous-time triplet plus a sample interval), the cost, the disturbance,
a list of controllers to run side by side, and the requested artifacts.
``run`` writes, per controller, ``<name>.<controller>.csv`` (header
``k,x1..xn,u1..um,d1..dm,z1..zl,cost_cum``, one row per step, 17 significant
digits so values round-trip losslessly), plus a combined ``<name>.svg``
overlay of the regulated outputs and a ``<name>.summary.json`` with the
comparison metrics and, as ``scenario``, the document it ran
(``Scenario.to_dict``), which runs again to the same files.

Exit codes: 0 success, 1 scenario/validation problem or an output that
cannot be written, 2 solver failure.  The output directory is ``--out`` when
given, else ``$LQDR_OUT``, else the working directory.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .control import _READS, ControllerConfig, _require_fits, _solved_law, build_controller
from .exceptions import LqdrError, ScenarioError, SolvabilityError
from .feedforward import solve_closed_form, solve_recursive
from .model import (CostSpec, DisturbanceProfile, SystemModel, _psd_check,
                    check_weights, classify_disturbance, discretize_zoh, validate)
from .riccati import solve_gare
from .sim import (_draw_solved_instance, brute_force_optimal, costate_residuals,
                  evaluate_cost, predicted_optimal_cost, simulate)

_TOP_KEYS = {"name", "system", "cost", "x0", "steps", "disturbance",
             "reference", "controllers", "outputs", "settle_band", "display"}
_DISCRETE_KEYS = ("A", "B", "E", "c_o")
_CONTINUOUS_KEYS = ("continuous", "Ts", "c_o")
_COST_KEYS = ("Q", "R", "P_terminal")
#: Each ControllerConfig field by its declared type, which says how it is parsed.
_CONTROLLER_TYPES = {field.name: field.type for field in fields(ControllerConfig)}
_OUTPUT_KINDS = ("csv", "svg", "summary")
#: What numpy and the model types raise on values that are not numbers.
_BAD_VALUE = (TypeError, ValueError, OverflowError)


def _fields(spec, allowed, where):
    """``spec`` itself, if it is an object with no field outside ``allowed``."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where} must be an object")
    unknown = set(spec).difference(allowed)
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


def _file_stem(value, where):
    """``value``, if it is a non-empty string fit to name a file in the output directory.

    Path separators are refused, and so is every character XML 1.0 forbids
    in the SVG even when escaped: control characters below U+0020 (tab,
    newline and carriage return, which XML allows, do not belong in a file
    name either), U+FFFE, U+FFFF and the surrogates U+D800-U+DFFF, which
    have no UTF-8 encoding.
    """
    if (not isinstance(value, str) or not value
            or any(c in "/\\\ufffe\uffff" or c < " " or "\ud800" <= c <= "\udfff"
                   for c in value)):
        raise ScenarioError(f"{where} must be a non-empty string without '/', '\\', "
                            f"control characters below U+0020, U+FFFE, U+FFFF or "
                            f"surrogates, got {value!r}")
    return value


@dataclass
class Scenario:
    """Fully resolved simulation setup parsed from one JSON document."""

    name: str
    model: SystemModel
    cost: CostSpec
    x0: np.ndarray
    steps: int
    disturbance: DisturbanceProfile
    controllers: list
    outputs: list
    settle_band: float
    display: dict

    def to_dict(self):
        """The scenario document that ``load_scenario`` reads back to this scenario.

        The plant is written in discrete time (a continuous-time plant after
        its zero-order hold), the weights Q and P_terminal and the state
        reference r in full, and the disturbance and each controller with the
        fields of their kind alone.  Keys come in a fixed order, so the same
        scenario gives the same bytes.
        """
        fields_of_kind = DisturbanceProfile.FIELDS[self.disturbance.kind]
        return {
            "name": self.name,
            "system": _plain(self.model, _DISCRETE_KEYS),
            "cost": _plain(self.cost, _COST_KEYS),
            "reference": self.cost.r.tolist(),
            "x0": self.x0.tolist(),
            "steps": self.steps,
            "disturbance": _plain(self.disturbance, ("kind", *fields_of_kind, "start_step")),
            "controllers": [_plain(config, ("kind", "label", *_READS[config.kind]))
                            for config in self.controllers],
            "outputs": list(self.outputs),
            "settle_band": self.settle_band,
            "display": self.display,
        }


def _plain(obj, names):
    """The named attributes of ``obj`` that are set, as JSON values, in that order."""
    return {name: np.asarray(getattr(obj, name)).tolist() for name in names
            if getattr(obj, name) is not None}


def _parse_system(spec):
    continuous = "continuous" in _fields(spec, _DISCRETE_KEYS + _CONTINUOUS_KEYS, "system")
    _fields(spec, _CONTINUOUS_KEYS if continuous else _DISCRETE_KEYS,
            f"system {'with' if continuous else 'without'} 'continuous'")
    try:
        if continuous:
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
    if not isinstance(spec, dict):
        raise ScenarioError("disturbance must be an object")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in DisturbanceProfile.FIELDS:
        raise ScenarioError(f"unknown disturbance kind {kind!r}")
    names = DisturbanceProfile.FIELDS[kind]
    _fields(spec, {"kind", "start_step", *names}, f"disturbance of kind {kind!r}")
    missing = [name for name in names if name not in spec]
    if missing:
        raise ScenarioError(f"disturbance of kind {kind!r} needs field(s) {missing}")
    read = {name: (_array if name == "values" else _number)(spec[name], f"disturbance.{name}")
            for name in names}
    start = _number(spec.get("start_step", 0), "disturbance.start_step", integer=True)
    try:
        profile = DisturbanceProfile(kind=kind, start_step=start, dim=model.m, **read)
    except ValueError as exc:
        raise ScenarioError(f"bad disturbance: {exc}") from exc
    if profile.dim != model.m:
        raise ScenarioError(f"disturbance.values must have {model.m} column(s), "
                            f"got {profile.dim}")
    return profile


def _parse_controllers(specs, model, disturbance):
    if not isinstance(specs, list) or not specs:
        raise ScenarioError("'controllers' must be a non-empty list")
    n, m = model.n, model.m
    shapes = {"P_terminal": (n, n), "k_x": (m, n), "K_d": (m, m)}
    configs = []
    labels = set()
    for i, spec in enumerate(specs):
        where = f"controllers[{i}]"
        read = dict(_fields(spec, _CONTROLLER_TYPES, where))
        if "kind" not in read:
            raise ScenarioError(f"{where} is missing 'kind'")
        for key, value in read.items():
            typ = _CONTROLLER_TYPES[key]
            if typ in (int, float):
                read[key] = _number(value, f"{where}.{key}", integer=typ is int)
            elif key in shapes:
                read[key] = _array(value, f"{where}.{key}", shapes[key])
        messages = []
        if "P_terminal" in read and not _psd_check(f"{where}.P_terminal",
                                                   read["P_terminal"], messages):
            raise ScenarioError("terminal weights must be symmetric positive semidefinite: "
                                + messages[0])
        try:
            config = ControllerConfig(**read)
            _require_fits(config, model, disturbance)
        except ValueError as exc:
            raise ScenarioError(f"bad {where}: {exc}") from exc
        _file_stem(config.label, f"{where}.label")
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
        raw = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject_constant)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _fields(raw, _TOP_KEYS, f"{path}: top level")
    for key in ("name", "system", "cost", "x0", "steps", "disturbance", "controllers"):
        if key not in raw:
            raise ScenarioError(f"{path}: missing required field '{key}'")
    name = _file_stem(raw["name"], "name")

    model = _parse_system(raw["system"])
    reference = _parse_reference(raw.get("reference"), model)
    cost = _parse_cost(raw["cost"], model, reference)
    messages = []
    if not all(check_weights(cost, messages).values()):
        raise ScenarioError("cost weights must be symmetric positive semidefinite: "
                            + "; ".join(messages))
    disturbance = _parse_disturbance(raw["disturbance"], model)
    controllers = _parse_controllers(raw["controllers"], model, disturbance)

    steps = _number(raw["steps"], "steps", integer=True)
    if steps < 1:
        raise ScenarioError(f"steps must be >= 1, got {steps}")
    # numpy forms no array of more than intp-max bytes, and every array a run
    # forms over c steps has at most c + 2 rows of (n + m + l + 1)^2 floats
    most_bytes = np.iinfo(np.intp).max
    longest = most_bytes // (8 * (model.n + model.m + model.l + 1) ** 2) - 2
    for what, count in [("steps", steps)] + [(f"controllers[{i}].T", config.T)
                                             for i, config in enumerate(controllers)
                                             if config.T is not None]:
        if count > longest:
            raise ScenarioError(f"{path} is too large to run: {what} = {count} needs an "
                                f"array of more than {most_bytes} bytes, which numpy "
                                f"cannot form")
    x0 = _array(raw["x0"], "x0", (model.n,))
    # a reference far from x0 (a tiny c_o maps a regulated one far out)
    # would overflow the cost of every run
    with np.errstate(all="ignore"):
        offset = x0 - cost.r
        overflows = [name for name in ("Q", "P_terminal")
                     if not np.isfinite(offset @ getattr(cost, name) @ offset)]
    if overflows:
        raise ScenarioError(f"the cost of x0 against the reference is not finite: "
                            f"(x0 - r)' {overflows[0]} (x0 - r) overflows")
    outputs = raw.get("outputs", list(_OUTPUT_KINDS))
    if not isinstance(outputs, list) or not all(o in _OUTPUT_KINDS for o in outputs):
        raise ScenarioError(f"outputs must be a subset of {_OUTPUT_KINDS}")
    settle_band = _number(raw.get("settle_band", 1e-3), "settle_band")
    if settle_band <= 0:
        raise ScenarioError(f"settle_band must be positive, got {settle_band}")
    display = raw.get("display", {})
    if not isinstance(display, dict):
        raise ScenarioError(f"display must be an object, got {display!r}")

    return Scenario(name=name, model=model, cost=cost, x0=x0, steps=steps,
                    disturbance=disturbance, controllers=controllers,
                    outputs=outputs, settle_band=settle_band,
                    display=display)


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

def _settling_step(post, onset, settle_band):
    """onset + the start of the final run of ``post`` inside the band, or None.

    None when the window is empty or its last error is outside the band
    (a NaN error counts as outside).
    """
    outside = np.flatnonzero(~(post <= settle_band))
    start = int(outside[-1]) + 1 if outside.size else 0
    return onset + start if start < post.shape[0] else None


def trajectory_metrics(traj, onset, settle_band):
    """Deterministic comparison metrics for one closed-loop run, under its ``traj.cost``.

    J is the run's last running cost plus the terminal term, the value
    ``sim.evaluate_cost(traj, traj.cost)`` recomputes up to rounding.
    """
    model, cost = traj.model, traj.cost
    target = model.c_o @ cost.r
    err = np.max(np.abs(traj.z - target), axis=1)
    steps = traj.steps
    onset = min(onset, steps)
    tail_start = int(0.9 * steps)
    post = err[onset:]
    tail = traj.x[-1] - cost.r
    return {
        "J": float(traj.cost_cum[-1] + tail @ cost.P_terminal @ tail),
        "steady_state_error": float(np.mean(err[tail_start:])),
        "peak_error": float(np.max(post)),
        "settling_step": _settling_step(post, onset, settle_band),
    }


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def write_csv(path, traj):
    """One row per applied input; the final state does not get a row.

    Every value is written as ``%.17g``, one format operation per row.
    """
    n, m, l = traj.model.n, traj.model.m, traj.model.l
    steps = traj.steps
    header = (["k"] + [f"x{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)]
              + [f"d{i+1}" for i in range(m)] + [f"z{i+1}" for i in range(l)]
              + ["cost_cum"])
    rows = np.hstack([traj.x[:steps], traj.u, traj.d, traj.z[:steps],
                      traj.cost_cum[:, None]]).tolist()
    fmt = ",".join(["%.17g"] * (len(header) - 1))
    lines = [",".join(header)]
    lines += [f"{k}," + fmt % tuple(row) for k, row in enumerate(rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def _xml_text(text):
    """``text`` with ``&``, ``<`` and ``>`` escaped, for an XML text node."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_svg(path, title, series, onset=None):
    """Self-contained overlay line chart of regulated outputs vs step.

    ``series`` is a list of (label, values) pairs sharing the step axis; an
    optional vertical dashed marker shows the disturbance onset.  The title
    and the labels are written as XML text, with ``&``, ``<`` and ``>``
    escaped.
    """
    width, height = 860, 480
    ml, mr, mt, mb = 70, 160, 40, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb
    n_steps = max(len(values) for _, values in series)
    lo = min(float(np.min(values)) for _, values in series)
    hi = max(float(np.max(values)) for _, values in series)
    if hi - lo < 1e-12:
        # widen a flat range by 1.0, or relative to its size where 1.0 is
        # below the rounding step of its values (|v| about 1e16 and up)
        widen = 1.0 if hi + 1.0 != lo - 1.0 else 1e-12 * abs(hi)
        hi, lo = hi + widen, lo - widen
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
        f'<text x="{ml}" y="24" font-family="sans-serif" font-size="16">{_xml_text(title)}</text>',
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
        values = np.asarray(values, dtype=float)
        xs = ml + plot_w * np.arange(len(values)) / max(n_steps - 1, 1)
        # sy's operations in sy's order; overflow and inf - inf give inf and
        # nan silently, as they do in Python float arithmetic
        with np.errstate(over="ignore", invalid="ignore"):
            ys = mt + plot_h * (hi - values) / (hi - lo)
        pts = (" ".join(["%.2f,%.2f"] * len(values))
               % tuple(np.column_stack([xs, ys]).ravel().tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        ly = mt + 16 + 18 * i
        lx = ml + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{_xml_text(label)}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def _finite(traj, metrics):
    """Whether every trajectory array and every float metric is finite."""
    values = [metrics[key] for key in ("J", "steady_state_error", "peak_error")]
    return all(np.isfinite(arr).all()
                for arr in (traj.x, traj.u, traj.z, traj.cost_cum, values))


def run_scenario(scenario, out_dir="."):
    """Simulate every configured controller and write the requested artifacts.

    A controller whose solve fails, or whose run leaves the finite floats,
    is recorded in the summary and skipped; the remaining controllers still
    run.  Returns (outputs, failures) where ``outputs`` maps artifact names
    to paths.  ``out_dir`` is made with the first artifact, so a run that
    writes none leaves no directory behind.
    """
    if isinstance(scenario, (str, Path)):
        scenario = load_scenario(scenario)

    def artifact(filename):
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        return Path(out_dir) / filename

    outputs = {}
    failures = {}
    summary = {"scenario": scenario.to_dict(),
               "disturbance_class": classify_disturbance(scenario.model.B, scenario.model.E),
               "reference_regulated": (scenario.model.c_o @ scenario.cost.r).tolist(),
               "controllers": {}}
    series = []
    # (label, file name, trajectory) of each CSV, written once every
    # controller has run: a run refused partway writes none
    csvs = []
    onset = scenario.disturbance.start_step

    # the scenario's first finite-horizon law serves its later non-strict
    # finite-horizon configs
    laws = {}
    for config in scenario.controllers:
        entry = {"kind": config.kind, "error": None}
        try:
            controller = build_controller(config, scenario.model, scenario.cost,
                                          scenario.disturbance, scenario.steps, laws)
            traj = simulate(scenario.model, scenario.cost, controller,
                            scenario.x0, scenario.steps, scenario.disturbance)
            metrics = trajectory_metrics(traj, onset, scenario.settle_band)
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
            entry["csv"] = f"{scenario.name}.{config.label}.csv"
            csvs.append((config.label, entry["csv"], traj))
        for i in range(scenario.model.l):
            label = config.label if scenario.model.l == 1 else f"{config.label} z{i+1}"
            series.append((label, traj.z[:, i]))
        summary["controllers"][config.label] = entry

    for label, filename, traj in csvs:
        outputs[f"csv:{label}"] = artifact(filename)
        write_csv(outputs[f"csv:{label}"], traj)
    if "svg" in scenario.outputs and series:
        svg_path = artifact(f"{scenario.name}.svg")
        write_svg(svg_path, f"{scenario.name}: regulated output", series, onset=onset)
        outputs["svg"] = svg_path
    if "summary" in scenario.outputs:
        summary_path = artifact(f"{scenario.name}.summary.json")
        summary_path.write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")
        outputs["summary"] = summary_path
    return outputs, failures


# ---------------------------------------------------------------------------
# compare / gare / selftest
# ---------------------------------------------------------------------------

_COMPARE_COLUMNS = ("controller", "J", "steady_state_error", "peak_error",
                    "settling_step")


def _summary_object(value, path, where):
    """``value``, which must be a JSON object; ``where`` names it in the error."""
    if not isinstance(value, dict):
        raise ScenarioError(f"summary {path}: {where} must be an object, "
                            f"got {type(value).__name__}")
    return value


def _summary_cell(entry, key, path, label):
    """The table cell of ``entry[key]``; a missing or non-numeric metric is refused."""
    value = entry.get(key)
    if key == "settling_step":
        if value is None:
            return "-"
        if type(value) is int:
            return str(value)
    elif type(value) in (int, float):
        return f"{value:.6e}"
    elif key not in entry:
        raise ScenarioError(f"summary {path}: controller {label!r} has no {key!r}")
    raise ScenarioError(f"summary {path}: controller {label!r} {key} is {value!r}, "
                        "not a number")


def compare_summaries(paths, out_dir=None):
    """Merge summaries of one scenario into a comparison table.

    Returns (text, csv_path); refuses to mix scenarios.  A summary that is
    not an object of controller objects, each with numeric J,
    steady_state_error and peak_error and an integer or null
    settling_step, raises ``ScenarioError`` naming the file and the entry.
    """
    rows = []
    name = None
    for path in paths:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            # ValueError: malformed JSON or text that is not UTF-8
            raise ScenarioError(f"cannot read summary {path}: {exc}") from exc
        _summary_object(data, path, "the top level")
        this = _summary_object(data.get("scenario", {}), path, "'scenario'").get("name")
        if name is None:
            name = this
        elif this != name:
            raise ScenarioError(
                f"summaries mix scenarios {name!r} and {this!r}; refusing to compare")
        controllers = _summary_object(data.get("controllers", {}), path, "'controllers'")
        for label, entry in controllers.items():
            _summary_object(entry, path, f"controller {label!r}")
            if entry.get("error"):
                rows.append((label, "failed: " + str(entry["error"]), "", "", ""))
                continue
            rows.append((label, *(_summary_cell(entry, key, path, label)
                                  for key in _COMPARE_COLUMNS[1:])))
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
        stem = _file_stem(name, "summary scenario name")
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        csv_path = Path(out_dir) / f"{stem}.comparison.csv"
        csv_lines = [",".join(_COMPARE_COLUMNS)]
        csv_lines += [",".join(map(str, row)) for row in rows]
        csv_path.write_text("\n".join(csv_lines) + "\n")
    return text, csv_path


def gare_report(scenario):
    """Text report of the stationary solution for a scenario's plant.

    ``solve_gare`` returns a limit whose closed loop does not contract, so
    such a loop is reported and flagged NOT CERTIFIED rather than raised,
    and undetectable setups still get their diagnostic; every refusal of
    ``solve_gare`` does raise, a plant certified to grow without bound
    among them.
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
        gare = solve_gare(scenario.model, scenario.cost)
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


def _cross_check(inst, riccati, oracle):
    """selftest's five measures on one instance, solved by ``riccati`` and ``oracle``.

    The finite-horizon law is built from the Riccati pass and rolled out;
    the measures are the input error against the brute-force minimizer
    (relative to max(1, max|u_opt|)), the largest pairwise gap of the
    simulated, predicted and oracle costs (relative to max(1, |J_sim|,
    |J_opt|)), the two optimality residuals, and the largest gap between
    the closed-form and recursive feedforward.
    """
    ff = solve_recursive(riccati, inst.model, inst.cost, inst.d)
    law = _solved_law(inst.model, riccati, ff.h)
    traj = simulate(inst.model, inst.cost, law, inst.x0, inst.N + 1, inst.d)
    scale = max(1.0, float(np.max(np.abs(oracle.u_opt))))
    J_sim = evaluate_cost(traj, inst.cost)
    J_pred = predicted_optimal_cost(riccati, ff, inst.x0, inst.model, inst.cost, inst.d)
    J_scale = max(1.0, abs(J_sim), abs(oracle.J_opt))
    stat, link = costate_residuals(traj, riccati, ff, inst.model, inst.cost)
    cf = solve_closed_form(riccati, inst.model, inst.cost, inst.d)
    return {"input": float(np.max(np.abs(traj.u.reshape(-1) - oracle.u_opt))) / scale,
            "cost": max(abs(J_sim - J_pred), abs(J_sim - oracle.J_opt),
                        abs(J_pred - oracle.J_opt)) / J_scale,
            "stationarity": stat, "link": link,
            "closed_form": max(float(np.max(np.abs(cf.h - ff.h))),
                               float(np.max(np.abs(cf.f - ff.f))))}


def selftest(instances=40, seed=2024):
    """Cross-check the three cost oracles and the optimality system.

    Draws random strict instances and verifies, per instance, that the
    rolled-out optimal inputs match the brute-force minimizer, that the
    three cost values agree pairwise, that the optimality residuals vanish,
    and that both feedforward evaluations coincide (``_cross_check``).  Each
    instance is solved once: the finite-horizon law is built from the
    Riccati pass its draw was accepted on.
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    rng = np.random.default_rng(seed)
    worst = {"input": 0.0, "cost": 0.0, "stationarity": 0.0, "link": 0.0,
             "closed_form": 0.0}
    used = 0
    while used < instances:
        inst, riccati = _draw_solved_instance(rng)
        try:
            oracle = brute_force_optimal(inst.model, inst.cost, inst.x0, inst.d, inst.N)
        except SolvabilityError:
            continue
        if oracle.condition > 1e6:
            continue
        used += 1
        for key, value in _cross_check(inst, riccati, oracle).items():
            worst[key] = max(worst[key], value)

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
        print(f"{'PASS' if passed else 'FAIL'}  {label}: max {value:.3e} "
              f"(tol {tol:g}, {instances} instances)")
    return ok


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _int_from(low):
    """argparse type of an integer that must be at least ``low``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _resolve_out(arg):
    return arg or os.environ.get("LQDR_OUT", ".")


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
    p_self.add_argument("--instances", type=_int_from(1), default=40)
    p_self.add_argument("--seed", type=_int_from(0), default=2024)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            try:
                outputs, failures = run_scenario(args.scenario, _resolve_out(args.out))
            except MemoryError as exc:
                # a horizon or step count too large to allocate
                detail = f": {exc}" if str(exc) else ""
                raise ScenarioError(f"{args.scenario} is too large to run{detail}") from None
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
    except OSError as exc:
        # an output that cannot be written: inputs are read with their own errors
        print(f"output error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
