import codecs
import json
import re
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lqdr.cli as cli
from conftest import (kalman_decomposed_plant, reference_settling_step, reference_write_csv,
                      reference_write_svg, scaled_weight_probes, singular_doubling_plant,
                      tracking_cost)
from lqdr import (ControllerConfig, ScenarioError, SolvabilityError, SystemModel, Trajectory,
                  brute_force_optimal, build_controller, evaluate_cost, simulate,
                  solve_finite_horizon, solve_recursive)
from lqdr.cli import (_settling_step, bundled_scenario_path, compare_summaries, gare_report,
                      load_scenario, main, run_scenario, selftest, trajectory_metrics,
                      write_csv, write_svg)
from lqdr.control import _solved_law

MINI = {
    "name": "mini",
    "system": {
        "A": [[1.0, 0.01], [-0.02, 0.99]],
        "B": [[0.0], [0.01]],
        "E": [[0.01], [0.0]],
        "c_o": [[1.0, 0.0]],
    },
    "cost": {"R": [[1.0, 0.0], [0.0, 1.0]]},
    "x0": [1.0, 0.0],
    "steps": 80,
    "disturbance": {"kind": "constant", "amplitude": 3.0, "start_step": 20},
    "controllers": [
        {"kind": "Stationary", "label": "stationary"},
        {"kind": "StateFeedbackCompensation", "k_x": [[-20.0, -4.0]],
         "K_d": [[-5.0]], "label": "sfc"},
    ],
}


def continuous_mini(A, Ts):
    """MINI's system block as a continuous-time plant with the given A and Ts."""
    return {"continuous": {"A": A, "B": [[0.0], [0.01]], "E": [[0.01], [0.0]]},
            "Ts": Ts, "c_o": [[1.0, 0.0]]}


def write_mini(tmp_path, mutate=None, name="mini.json"):
    """MINI as a file; ``mutate`` edits the document, or returns the bytes to write instead."""
    doc = json.loads(json.dumps(MINI))
    raw = mutate(doc) if mutate else None
    path = tmp_path / name
    if isinstance(raw, bytes):
        path.write_bytes(raw)
    else:
        path.write_text(json.dumps(doc))
    return path


def utf16(doc):
    """The document in UTF-16 with its byte-order mark: the file starts with FF FE."""
    return codecs.BOM_UTF16_LE + json.dumps(doc).encode("utf-16-le")


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

def test_load_scenario_resolves(tmp_path):
    scenario = load_scenario(write_mini(tmp_path))
    assert scenario.name == "mini"
    assert scenario.model.n == 2 and scenario.steps == 80
    assert np.allclose(scenario.cost.Q, [[1.0, 0.0], [0.0, 0.0]])
    assert scenario.settle_band == 1e-3
    assert [c.kind for c in scenario.controllers] \
        == ["stationary", "state_feedback_compensation"]


def test_load_scenario_rejects_zero_steps(tmp_path):
    def mutate(doc):
        doc["steps"] = 0
    with pytest.raises(ScenarioError, match="steps"):
        load_scenario(write_mini(tmp_path, mutate))


def test_load_scenario_rejects_unknown_fields(tmp_path):
    with pytest.raises(ScenarioError, match="typo_field"):
        load_scenario(write_mini(tmp_path, lambda d: d.update(typo_field=1)))
    with pytest.raises(ScenarioError, match="controllers"):
        load_scenario(write_mini(
            tmp_path, lambda d: d["controllers"][0].update(gain=2.0)))
    with pytest.raises(ScenarioError):
        load_scenario(write_mini(
            tmp_path, lambda d: d["controllers"][0].update(kind="Fuzzy")))


def test_load_scenario_reports_parse_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "steps": }')
    with pytest.raises(ScenarioError, match="line 2"):
        load_scenario(path)


def test_regulated_reference_resolution(tmp_path):
    def mutate(doc):
        doc["reference"] = {"regulated": [2.0]}
    scenario = load_scenario(write_mini(tmp_path, mutate))
    assert np.allclose(scenario.model.c_o @ scenario.cost.r, [2.0])


def test_bundled_scenarios_resolve():
    for name in ("example_a", "example_b", "example_c", "example_d"):
        scenario = load_scenario(bundled_scenario_path(name))
        assert scenario.name == name
        assert scenario.controllers
    with pytest.raises(ScenarioError):
        bundled_scenario_path("example_z")


def test_bundled_scenarios_pin_published_parameters():
    a = load_scenario(bundled_scenario_path("example_a"))
    assert np.allclose(a.model.A, [[0.96, 0, 0], [0, 1, 0.01], [0, -0.02, 0.99]])
    assert np.allclose(a.model.B.ravel(), [0, 0, 0.01])
    assert np.allclose(a.model.E.ravel(), [0, 0.01, 0])
    assert np.allclose(a.x0, [1, 1, 0])
    assert np.allclose(a.cost.R, np.eye(3))
    assert a.disturbance.kind == "constant"
    assert (a.disturbance.amplitude, a.disturbance.start_step) == (3.0, 500)
    assert a.controllers[0].kind == "receding_horizon" and a.controllers[0].T == 100

    b = load_scenario(bundled_scenario_path("example_b"))
    assert np.allclose(b.model.A, [[1, 0.01], [-0.02, 0.99]])
    assert np.allclose(b.model.B.ravel(), [0, 0.01])
    assert np.allclose(b.model.E.ravel(), [0.01, 0])
    assert np.allclose(b.model.c_o, [[1, 0]])
    sfc = next(c for c in b.controllers if c.kind == "state_feedback_compensation")
    assert np.allclose(sfc.k_x, [[-20, -4]]) and np.allclose(sfc.K_d, [[-5]])

    c = load_scenario(bundled_scenario_path("example_c"))
    assert np.allclose(c.model.c_o, [[10, 0]])
    assert c.disturbance.kind == "sinusoid" and c.disturbance.start_step == 500
    assert c.steps == 2000

    d = load_scenario(bundled_scenario_path("example_d"))
    system = json.loads(bundled_scenario_path("example_d").read_text())["system"]
    assert np.allclose(system["continuous"]["A"], [[-1.76, -1.34], [2.7, -7.21]])
    assert np.allclose(system["continuous"]["B"], [[0.57], [0.82]])
    assert np.allclose(system["continuous"]["E"], [[0.98], [2.26]])
    assert system["Ts"] == 0.02
    assert d.steps == 50
    pid = next(c for c in d.controllers if c.kind == "pid")
    assert (pid.kp, pid.ki, pid.kd, pid.Ts) == (20.0, 600.0, 0.1, 0.02)


def test_run_bundled_sampled_plant(tmp_path):
    outputs, failures = run_scenario(bundled_scenario_path("example_d"), tmp_path)
    assert not failures
    assert (tmp_path / "example_d.finite_horizon.csv").exists()
    assert (tmp_path / "example_d.pid.csv").exists()
    summary = json.loads((tmp_path / "example_d.summary.json").read_text())
    assert summary["scenario"]["display"]["operating_point"]["n_h_percent"] == 77.0
    assert summary["controllers"]["finite_horizon"]["peak_error"] \
        < summary["controllers"]["pid"]["peak_error"]


# ---------------------------------------------------------------------------
# run artifacts
# ---------------------------------------------------------------------------

def test_run_writes_all_artifacts(tmp_path):
    outputs, failures = run_scenario(write_mini(tmp_path), tmp_path / "out")
    assert not failures
    csv_path = tmp_path / "out" / "mini.stationary.csv"
    svg_path = tmp_path / "out" / "mini.svg"
    summary_path = tmp_path / "out" / "mini.summary.json"
    assert csv_path.exists() and svg_path.exists() and summary_path.exists()
    assert (tmp_path / "out" / "mini.sfc.csv").exists()

    header = csv_path.read_text().splitlines()[0]
    assert header == "k,x1,x2,u1,d1,z1,cost_cum"
    assert svg_path.read_text().startswith("<svg")

    summary = json.loads(summary_path.read_text())
    assert set(summary["controllers"]) == {"stationary", "sfc"}
    for entry in summary["controllers"].values():
        assert entry["error"] is None
        assert np.isfinite(entry["J"])
        assert entry["closed_loop_radius"] < 1


def test_run_is_deterministic(tmp_path):
    path = write_mini(tmp_path)
    run_scenario(path, tmp_path / "a")
    run_scenario(path, tmp_path / "b")
    for name in ("mini.stationary.csv", "mini.sfc.csv", "mini.summary.json", "mini.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_csv_values_roundtrip_exactly(tmp_path):
    from lqdr import (CostSpec, SystemModel, simulate)
    from lqdr.cli import write_csv
    rng = np.random.default_rng(5)
    model = SystemModel(A=rng.standard_normal((2, 2)) * 0.3,
                        B=rng.standard_normal((2, 1)),
                        E=rng.standard_normal((2, 1)), c_o=[[1.0, 0.0]])
    cost = CostSpec.from_model(model, R=np.eye(2))
    traj = simulate(model, cost, lambda k, x, d: rng.standard_normal(1),
                    rng.standard_normal(2), 7, rng.standard_normal((7, 1)))
    path = tmp_path / "t.csv"
    write_csv(path, traj)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        row = dict(zip(header, cells))
        assert int(row["k"]) == k
        assert float(row["x1"]) == traj.x[k, 0]
        assert float(row["x2"]) == traj.x[k, 1]
        assert float(row["u1"]) == traj.u[k, 0]
        assert float(row["d1"]) == traj.d[k, 0]
        assert float(row["z1"]) == traj.z[k, 0]
        assert float(row["cost_cum"]) == traj.cost_cum[k]


def test_summary_echo_roundtrips_matrices(tmp_path):
    path = write_mini(tmp_path)
    run_scenario(path, tmp_path)
    summary = json.loads((tmp_path / "mini.summary.json").read_text())
    echo = summary["scenario"]
    assert echo["system"]["A"] == MINI["system"]["A"]
    assert echo["system"]["B"] == MINI["system"]["B"]
    assert echo["system"]["E"] == MINI["system"]["E"]
    assert echo["cost"]["R"] == MINI["cost"]["R"]
    assert echo["x0"] == MINI["x0"]
    assert summary["disturbance_class"] == "Mismatched"


def test_summary_echo_keeps_table_values(tmp_path):
    rows = [[0.5], [1.25]]
    path = write_mini(tmp_path, lambda d: d.update(
        disturbance={"kind": "table", "values": rows, "start_step": 3}))
    run_scenario(path, tmp_path)
    summary = json.loads((tmp_path / "mini.summary.json").read_text())
    echo = summary["scenario"]["disturbance"]
    assert echo["kind"] == "table"
    assert echo["values"] == rows
    assert echo["start_step"] == 3


_ENTRIES = st.floats(-1.5, 1.5)
_NUMBERS = st.floats(-2.0, 2.0)


@st.composite
def _scenario_documents(draw, entries=_ENTRIES, number=_NUMBERS):
    """A scenario: a discrete or ZOH plant (n <= 3, m = l <= 2), any disturbance kind,
    each controller kind at most once, optional fields present or absent.

    Matrix entries (plant, x0, reference, table values, gains) are drawn from
    ``entries``, the disturbance parameters and PID gains from ``number``.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, min(n, 2)))

    def matrix(shape):
        return draw(arrays(np.float64, shape, elements=entries))

    def halves(shape):
        return draw(arrays(np.float64, shape, elements=st.integers(-3, 3))) / 2

    def weight():
        # C' C of halves is exactly symmetric
        C = halves((n, n))
        return (C.T @ C).tolist()

    # a full-rank B, so every Upsilon is definite and no stationary solve iterates long
    plant = {"A": matrix((n, n)).tolist(), "B": (matrix((n, m)) + 4 * np.eye(n, m)).tolist(),
             "E": matrix((n, m)).tolist()}
    # halves: a regulated reference maps through pinv(c_o), which a tiny c_o
    # would blow up to a state whose cost overflows
    c_o = halves((m, n)).tolist()
    if draw(st.booleans()):
        system = {"continuous": plant, "Ts": draw(st.sampled_from([0.02, 0.5])), "c_o": c_o}
    else:
        system = {**plant, "c_o": c_o}
    cost = {"R": (np.array(weight()) + np.eye(n)).tolist()}
    cost.update({key: weight() for key in ("Q", "P_terminal") if draw(st.booleans())})
    kind = draw(st.sampled_from(["constant", "sinusoid", "ramp", "table"]))
    disturbance = {"kind": kind, **{
        "constant": lambda: {"amplitude": draw(number)},
        "sinusoid": lambda: {"amplitude": draw(number), "rate": draw(number)},
        "ramp": lambda: {"rate": draw(number), "limit": draw(number)},
        "table": lambda: {"values": matrix((draw(st.integers(1, 4)), m)).tolist()},
    }[kind]()}
    if draw(st.booleans()):
        disturbance["start_step"] = draw(st.integers(0, 5))
    receding = {"T": draw(st.integers(1, 5)), "strict": draw(st.booleans())}
    if draw(st.booleans()):
        receding["P_terminal"] = weight()
    controllers = {
        "FiniteHorizon": {"strict": draw(st.booleans())},
        "Stationary": {},
        "RecedingHorizon": receding,
        "sfc": {"k_x": matrix((m, n)).tolist(), "K_d": matrix((m, m)).tolist()},
        "PID": {"kp": draw(number), "ki": draw(number), "kd": draw(number),
                "Ts": draw(st.floats(0.05, 1.0))},
    }
    kinds = sorted(controllers)
    if kind == "sinusoid" and disturbance["amplitude"] != 0:
        # a stationary law needs the disturbance's limit, which this one lacks
        kinds.remove("Stationary")
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, unique=True))
    doc = {"name": "trip", "system": system, "cost": cost,
           "x0": matrix((n,)).tolist(), "steps": draw(st.integers(1, 12)),
           "disturbance": disturbance,
           "controllers": [{"kind": kind, "label": f"c{i}", **controllers[kind]}
                           for i, kind in enumerate(kinds)]}
    reference = draw(st.sampled_from(["absent", "state", "regulated"]))
    if reference != "absent":
        doc["reference"] = (matrix((n,)).tolist() if reference == "state"
                            else {"regulated": matrix((m,)).tolist()})
    if draw(st.booleans()):
        doc["display"] = {"unit": "m", "scale": [1, 2.5]}
    if draw(st.booleans()):
        doc["settle_band"] = draw(st.floats(1e-6, 1.0))
    return doc


# a Stationary controller on a plant whose Q leaves a mode unseen warns, as it should
@pytest.mark.filterwarnings("ignore:.*is not detectable:UserWarning")
@settings(max_examples=40, deadline=None)
@given(doc=_scenario_documents())
def test_summary_scenario_runs_again_to_the_same_files(doc, tmp_path_factory):
    # the summary's scenario block is a scenario document: run as one, it
    # writes the same bytes, its summary included, and reloads to itself
    tmp = tmp_path_factory.mktemp("trip")
    first, second = tmp / "first.json", tmp / "second.json"
    first.write_text(json.dumps(doc))
    _, failures = run_scenario(first, tmp / "first")
    summary = json.loads((tmp / "first" / "trip.summary.json").read_text())
    second.write_text(json.dumps(summary["scenario"]))
    _, again = run_scenario(second, tmp / "second")
    assert {label: str(exc) for label, exc in again.items()} \
        == {label: str(exc) for label, exc in failures.items()}
    written = sorted(path.name for path in (tmp / "first").iterdir())
    assert written == sorted(path.name for path in (tmp / "second").iterdir())
    for name in written:
        assert (tmp / "first" / name).read_bytes() == (tmp / "second" / name).read_bytes()
    assert load_scenario(second).to_dict() == load_scenario(first).to_dict() \
        == summary["scenario"]


def test_load_scenario_checks_only_the_weights(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("lqdr.model.check_detectability",
                        lambda *args: calls.append(args) or True)
    load_scenario(write_mini(tmp_path))
    load_scenario(bundled_scenario_path("example_d"))
    assert calls == []


@pytest.mark.parametrize("scale", [2.0 ** -40, 2.0 ** 40], ids=["2^-40", "2^40"])
def test_load_scenario_weight_verdicts_do_not_depend_on_scale(tmp_path, scale):
    indefinite, skewed = scaled_weight_probes(scale)

    def with_Q(Q):
        return write_mini(tmp_path, lambda doc: doc["cost"].update(Q=Q.tolist()))
    assert np.array_equal(load_scenario(with_Q(skewed)).cost.Q, skewed)
    with pytest.raises(ScenarioError, match="Q has eigenvalue"):
        load_scenario(with_Q(indefinite))


def test_run_records_solver_failure_and_continues(tmp_path):
    def mutate(doc):
        # B = 0 makes the optimal solve singular; the baseline still runs
        doc["system"]["B"] = [[0.0], [0.0]]
        doc["controllers"][0] = {"kind": "FiniteHorizon", "label": "optimal"}
    path = write_mini(tmp_path, mutate)
    outputs, failures = run_scenario(path, tmp_path)
    assert set(failures) == {"optimal"}
    summary = json.loads((tmp_path / "mini.summary.json").read_text())
    assert "not positive definite" in summary["controllers"]["optimal"]["error"]
    assert summary["controllers"]["sfc"]["error"] is None
    assert (tmp_path / "mini.sfc.csv").exists()


def _unsolvable_lookaheads(doc):
    # R = 0 and P_T = 0: the strict lookahead has Upsilon_T = 0
    doc["cost"]["R"] = [[0.0, 0.0], [0.0, 0.0]]
    doc["controllers"] = [
        {"kind": "RecedingHorizon", "T": 10, "label": "strict_lookahead"},
        {"kind": "RecedingHorizon", "T": 10, "strict": False, "label": "pinv_lookahead"},
        {"kind": "StateFeedbackCompensation", "k_x": [[-20.0, -4.0]],
         "K_d": [[-5.0]], "label": "sfc"},
    ]


def test_run_records_receding_build_failures_and_continues(tmp_path):
    path = write_mini(tmp_path, _unsolvable_lookaheads)
    _, failures = run_scenario(path, tmp_path)
    assert set(failures) == {"strict_lookahead"}
    summary = json.loads((tmp_path / "mini.summary.json").read_text())["controllers"]
    assert "not positive definite" in summary["strict_lookahead"]["error"]
    for label in ("pinv_lookahead", "sfc"):
        assert summary[label]["error"] is None
        assert (tmp_path / f"mini.{label}.csv").exists()
    assert main(["run", str(path), "--out", str(tmp_path / "cli")]) == 2


# ---------------------------------------------------------------------------
# bulk writers and settling search against their per-value references
# ---------------------------------------------------------------------------

BUNDLED = ("example_a", "example_b", "example_c", "example_d")


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_run_writes_the_reference_bytes(name, tmp_path, monkeypatch):
    ref_dir = tmp_path / "ref"
    ref_dir.mkdir()
    written = []

    def csv_both(path, traj):
        write_csv(path, traj)
        reference_write_csv(ref_dir / path.name, traj)
        written.append(path.name)

    def svg_both(path, title, series, onset=None):
        write_svg(path, title, series, onset=onset)
        reference_write_svg(ref_dir / path.name, title, series, onset=onset)
        written.append(path.name)

    monkeypatch.setattr(cli, "write_csv", csv_both)
    monkeypatch.setattr(cli, "write_svg", svg_both)
    scenario = load_scenario(bundled_scenario_path(name))
    _, failures = run_scenario(scenario, tmp_path / "out")
    assert not failures
    assert sorted(written) == sorted([f"{name}.{c.label}.csv" for c in scenario.controllers]
                                     + [f"{name}.svg"])
    for file_name in written:
        assert (tmp_path / "out" / file_name).read_bytes() == \
            (ref_dir / file_name).read_bytes(), file_name


#: The benchmark's recorded trajectories and summary metrics of the bundled scenarios.
BENCHMARK_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench/reference/bundled.npz"
BENCHMARK_SUMMARY = BENCHMARK_REFERENCE.with_name("bundled_summary.json")
#: The summary metrics the benchmark gates.
SUMMARY_METRICS = ("J", "steady_state_error", "peak_error", "settling_step",
                   "closed_loop_radius")


@pytest.fixture(scope="module")
def benchmark_reference():
    with np.load(BENCHMARK_REFERENCE) as data:
        return {key: data[key] for key in data.files}


@pytest.fixture(scope="module")
def benchmark_summary():
    return json.loads(BENCHMARK_SUMMARY.read_text())


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_run_reproduces_the_benchmark_reference(name, benchmark_reference,
                                                        benchmark_summary, tmp_path,
                                                        monkeypatch):
    # the benchmark gates these trajectories and the summary metrics at 1e-12
    # relative, a null settling step staying null; hold Tier-1 to it too
    trajectories = []

    def record(*args, **kwargs):
        trajectories.append(simulate(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(cli, "simulate", record)
    scenario = load_scenario(bundled_scenario_path(name))
    _, failures = run_scenario(scenario, tmp_path)
    assert not failures
    labels = [config.label for config in scenario.controllers]
    assert {key.split(".")[1] for key in benchmark_reference
            if key.startswith(f"{name}.")} == set(labels)
    for label, traj in zip(labels, trajectories, strict=True):
        for field in ("x", "u", "z", "cost_cum"):
            want = benchmark_reference[f"{name}.{label}.{field}"]
            got = getattr(traj, field)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (label, field)
    summary = json.loads((tmp_path / f"{scenario.name}.summary.json").read_text())
    assert set(benchmark_summary[name]) == set(labels)
    for label in labels:
        entry, want = summary["controllers"][label], benchmark_summary[name][label]
        for metric in SUMMARY_METRICS:
            got = entry[metric]
            if want[metric] is None:
                assert got is None, (label, metric)
            else:
                assert abs(got - want[metric]) <= 1e-12 * abs(want[metric]), (label, metric)


def _csv_columns(path):
    """A written CSV as {column name: the column's printed values}."""
    header, *rows = path.read_text().splitlines()
    return dict(zip(header.split(","), zip(*(row.split(",") for row in rows))))


def _numbers(columns, prefix):
    """The columns named ``prefix`` and a number, as one float array."""
    return np.array([columns[key] for key in columns if re.fullmatch(prefix + r"\d+", key)],
                    dtype=float)


def _run_document(doc, out):
    """``doc`` run into ``out``: (summary controller entries, {label: CSV columns}, failures)."""
    path = out.with_suffix(".json")
    path.write_text(json.dumps(doc))
    outputs, failures = run_scenario(path, out)
    summary = json.loads(outputs["summary"].read_text())
    return (summary["controllers"],
            {key.removeprefix("csv:"): _csv_columns(csv) for key, csv in outputs.items()
             if key.startswith("csv:")},
            failures)


def _weights_scaled(path, e):
    """The document at ``path`` with Q (written out), R and every P_terminal times 2^e."""
    doc, cost = json.loads(path.read_text()), load_scenario(path).cost
    doc["cost"] = {key: np.ldexp(getattr(cost, key), e).tolist()
                   for key in ("Q", "R", "P_terminal")}
    for spec in doc["controllers"]:
        if "P_terminal" in spec:
            spec["P_terminal"] = np.ldexp(spec["P_terminal"], e).tolist()
    return doc


@pytest.fixture(scope="module")
def bundled_runs(tmp_path_factory):
    """Each bundled scenario's run, by name, as ``_run_document`` returns it."""
    out = tmp_path_factory.mktemp("bundled")
    return {name: _run_document(json.loads(bundled_scenario_path(name).read_text()), out / name)
            for name in BUNDLED}


@pytest.mark.parametrize("e", [-40, 40])
@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_run_with_weights_scaled_by_a_power_of_two(name, e, bundled_runs, tmp_path):
    # every Riccati quantity scales by 2^e exactly: x, u, d and z keep their
    # bytes, cost_cum and J are 2^e times the unscaled, the other metrics equal
    base, base_csvs, _ = bundled_runs[name]
    scaled, csvs, failures = _run_document(
        _weights_scaled(bundled_scenario_path(name), e), tmp_path / "scaled")
    assert not failures and scaled.keys() == base.keys()
    for label, entry in base.items():
        assert scaled[label] == {**entry, "J": np.ldexp(entry["J"], e)}
        columns = dict(base_csvs[label])
        cost_cum = np.array(columns.pop("cost_cum"), dtype=float)
        assert np.array_equal(np.array(csvs[label].pop("cost_cum"), dtype=float),
                              np.ldexp(cost_cum, e))
        assert csvs[label] == columns


#: Smallest non-zero magnitude of a float in the scaled-weights property.
_FLOOR = 2.0 ** -20


def _floored(bound):
    """Floats in [-bound, bound] that are 0 or at least ``_FLOOR`` in magnitude."""
    return st.one_of(st.sampled_from([0.0, -0.0]), st.floats(_FLOOR, bound),
                     st.floats(-bound, -_FLOOR))


# a Stationary controller on a plant whose Q leaves a mode unseen warns, as it should
@pytest.mark.filterwarnings("ignore:.*is not detectable:UserWarning")
@settings(max_examples=15, deadline=None)
@given(doc=_scenario_documents(_floored(1.5), _floored(2.0)), e=st.sampled_from([-40, 40]))
def test_weights_scaled_by_a_power_of_two_keep_verdicts_and_u(doc, e, tmp_path_factory):
    # 300 such draws (709 controller runs) kept every u byte for byte.  The
    # scaling is exact only while every product a run forms stays a normal
    # float at both scales, so every float of the document is 0 or at least
    # 2^-20 in magnitude: a product of a dozen such factors with a weight
    # scaled by 2^-40 is still above 2^-300, far from the smallest normal
    # 2^-1022.  A subnormal entry is outside that range and outside what
    # the property claims: E = [[2.2e-313]], B = [[4]], Q = R = 1 and d = 1
    # give u_0 = -5.6e-314 unscaled, where R E d underflows to 0 at 2^-40
    tmp = tmp_path_factory.mktemp("scaled")
    base, base_csvs, base_failures = _run_document(doc, tmp / "base")
    _, csvs, failures = _run_document(_weights_scaled(tmp / "base.json", e), tmp / "scaled")
    assert {label: type(exc) for label, exc in failures.items()} \
        == {label: type(exc) for label, exc in base_failures.items()}
    assert csvs.keys() == base_csvs.keys()
    for label, columns in base_csvs.items():
        u = _numbers(columns, "u")
        assert np.max(np.abs(_numbers(csvs[label], "u") - u)) <= 1e-12 * np.max(np.abs(u))


@pytest.mark.parametrize("mode", [0.5, -0.9])
@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_run_ignores_a_mode_nothing_touches(name, mode, bundled_runs, tmp_path):
    # one more state, started at 0, that no input or disturbance drives, no
    # output reads and no weight sees: the finite-horizon and receding-horizon
    # laws keep u and z.  Measured: example_b..d byte-identical, example_a
    # within 1.75 eps of max|u| in u and 0.73 eps of max|z| in z
    doc = load_scenario(bundled_scenario_path(name)).to_dict()
    system = doc["system"]
    for key, (rows, cols) in {"A": (1, 1), "B": (1, 0), "E": (1, 0), "c_o": (0, 1)}.items():
        system[key] = np.pad(system[key], ((0, rows), (0, cols))).tolist()
    system["A"][-1][-1] = mode
    doc["controllers"] = [spec for spec in doc["controllers"]
                          if spec["kind"] in ("finite_horizon", "receding_horizon")]
    for weights in (doc["cost"], *doc["controllers"]):
        for key in set(weights) & {"Q", "R", "P_terminal"}:
            weights[key] = np.pad(weights[key], (0, 1)).tolist()
    doc["reference"].append(0.0)
    doc["x0"].append(0.0)
    _, csvs, failures = _run_document(doc, tmp_path / "appended")
    assert not failures and csvs
    for label, columns in csvs.items():
        for prefix in ("u", "z"):
            want = _numbers(bundled_runs[name][1][label], prefix)
            assert np.max(np.abs(_numbers(columns, prefix) - want)) \
                <= 4 * np.finfo(float).eps * np.max(np.abs(want))


_SPECIAL = (-0.0, 5e-324, 2.5e-310, 1e308, -1e308, np.nan, np.inf, -np.inf)
_VALUES = st.one_of(st.sampled_from(_SPECIAL), st.floats(width=64))


def _array(draw, shape):
    return draw(arrays(np.float64, shape, elements=_VALUES))


@st.composite
def _trajectories(draw):
    n, m, l = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    steps = draw(st.integers(0, 6))
    model = SystemModel(A=np.eye(n), B=np.ones((n, m)), E=np.ones((n, m)),
                        c_o=np.ones((l, n)))
    traj = Trajectory(model, tracking_cost(model), _array(draw, (steps + 1, n)),
                      _array(draw, (steps, m)), _array(draw, (steps, m)))
    # drawn z and cost_cum, kept where cached_property keeps what it derives,
    # so every special value reaches the writer
    vars(traj).update(z=_array(draw, (steps + 1, l)), cost_cum=_array(draw, steps))
    return traj


@st.composite
def _svg_series(draw):
    series = []
    for i in range(draw(st.integers(1, 3))):
        length = draw(st.integers(1, 12))
        kind = draw(st.sampled_from(("array", "list", "constant")))
        if kind == "constant":
            values = np.full(length, draw(_VALUES))
        else:
            values = _array(draw, length)
        series.append((f"c{i}", values.tolist() if kind == "list" else values))
    return series, draw(st.none() | st.integers(-2, 14))


@settings(max_examples=200, deadline=None)
@given(traj=_trajectories())
def test_write_csv_matches_the_per_value_reference(traj, tmp_path_factory):
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "got.csv", traj)
    reference_write_csv(out / "want.csv", traj)
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(case=_svg_series())
@example(case=([("flat", np.full(5, 0.25))], 2))
@example(case=([("one", [0.5]), ("two", np.array([-0.0, 1.0]))], 0))
@example(case=([("huge", np.full(5, 1e17))], 2))
def test_write_svg_matches_the_per_value_reference(case, tmp_path_factory):
    series, onset = case
    out = tmp_path_factory.mktemp("svg")
    try:
        reference_write_svg(out / "want.svg", "t", series, onset=onset)
    except ZeroDivisionError:
        # a constant series too large to widen by 1: the reference's tick loop
        # divides by zero, the writer widens relative to the value
        write_svg(out / "got.svg", "t", series, onset=onset)
        minidom.parse(str(out / "got.svg"))
        return
    write_svg(out / "got.svg", "t", series, onset=onset)
    assert (out / "got.svg").read_bytes() == (out / "want.svg").read_bytes()


def test_write_svg_escapes_title_and_labels(tmp_path):
    def mutate(doc):
        doc["name"] = "a&b<c"
        doc["controllers"][1]["label"] = "s&t"
    path = write_mini(tmp_path, mutate)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    texts = [node.firstChild.data for node in
             minidom.parse(str(tmp_path / "out" / "a&b<c.svg")).getElementsByTagName("text")]
    assert "a&b<c: regulated output" in texts and "s&t" in texts


def test_run_plots_a_constant_output_too_large_to_widen_by_one(tmp_path):
    def mutate(doc):
        # z stays at 1e17, where 1e17 + 1.0 == 1e17
        doc["system"]["A"] = [[1.0, 0.0], [0.0, 1.0]]
        doc["x0"] = [1e17, 0.0]
        doc["disturbance"] = {"kind": "constant", "amplitude": 0.0}
        doc["controllers"] = [{"kind": "sfc", "k_x": [[0.0, 0.0]], "K_d": [[0.0]]}]
    path = write_mini(tmp_path, mutate)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    minidom.parse(str(tmp_path / "out" / "mini.svg"))


@pytest.mark.parametrize("post, onset", [
    (np.array([]), 4),
    (np.zeros(6), 2),
    (np.ones(6), 2),
    (np.array([1.0, 0.0, 1.0, 0.0, 0.0]), 0),
    (np.array([0.0, np.nan, 0.0, 0.0]), 3),
    (np.array([0.0, 0.0, np.nan]), 3),
], ids=["empty", "all_inside", "none_inside", "re_entry", "nan_inside", "nan_last"])
def test_settling_step_matches_the_loop(post, onset):
    got = _settling_step(post, onset, 0.5)
    assert got == reference_settling_step(post, onset, 0.5)
    assert got is None or type(got) is int


@pytest.mark.parametrize("name", BUNDLED)
def test_metric_J_is_the_independently_summed_cost(name):
    # J is read off the running cost; evaluate_cost sums the whole run again
    scenario = load_scenario(bundled_scenario_path(name))
    model, cost, steps = scenario.model, scenario.cost, scenario.steps
    for config in scenario.controllers:
        controller = build_controller(config, model, cost, scenario.disturbance, steps)
        traj = simulate(model, cost, controller, scenario.x0, steps, scenario.disturbance)
        J = trajectory_metrics(traj, 0, scenario.settle_band)["J"]
        assert type(J) is float
        assert J == pytest.approx(evaluate_cost(traj, cost), rel=1e-12, abs=0)


@pytest.mark.parametrize("name", BUNDLED)
def test_settling_step_matches_the_loop_on_bundled_runs(name):
    scenario = load_scenario(bundled_scenario_path(name))
    model, cost, steps = scenario.model, scenario.cost, scenario.steps
    for config in scenario.controllers:
        controller = build_controller(config, model, cost, scenario.disturbance, steps)
        traj = simulate(model, cost, controller, scenario.x0, steps, scenario.disturbance)
        err = np.max(np.abs(traj.z - model.c_o @ cost.r), axis=1)
        # the scenario's onset, then onsets at and past the end of the run
        for onset in (scenario.disturbance.start_step, steps, steps + 3):
            got = trajectory_metrics(traj, onset, scenario.settle_band)["settling_step"]
            start = min(onset, steps)
            assert got == reference_settling_step(err[start:], start, scenario.settle_band)


# ---------------------------------------------------------------------------
# compare / gare / selftest
# ---------------------------------------------------------------------------

def test_compare_single_summary(tmp_path):
    run_scenario(write_mini(tmp_path), tmp_path)
    text, csv_path = compare_summaries([tmp_path / "mini.summary.json"], tmp_path)
    assert "scenario: mini" in text
    assert "stationary" in text and "sfc" in text
    rows = csv_path.read_text().splitlines()
    assert rows[0].startswith("controller,")
    assert len(rows) == 3


def test_compare_refuses_mixed_scenarios(tmp_path):
    run_scenario(write_mini(tmp_path), tmp_path / "x")
    other = write_mini(tmp_path, lambda d: d.update(name="other"), name="other.json")
    run_scenario(other, tmp_path / "y")
    with pytest.raises(ScenarioError, match="mix"):
        compare_summaries([tmp_path / "x" / "mini.summary.json",
                           tmp_path / "y" / "other.summary.json"])


def test_compare_refuses_a_scenario_name_outside_the_output_directory(tmp_path):
    summary = {"scenario": {"name": "../escaped"},
               "controllers": {"a": {"error": "no run"}}}
    path = tmp_path / "s.summary.json"
    path.write_text(json.dumps(summary))
    (tmp_path / "out").mkdir()
    with pytest.raises(ScenarioError, match="scenario name"):
        compare_summaries([path], tmp_path / "out")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out", "s.summary.json"]


_METRICS = {"error": None, "J": 1.5, "steady_state_error": 0.1, "peak_error": 0.2,
            "settling_step": 3}


@pytest.mark.parametrize("content, names", [
    (json.dumps([{"scenario": {"name": "mini"}}]).encode(), "the top level"),
    (json.dumps({"scenario": {"name": "mini"},
                 "controllers": {"opt": {k: v for k, v in _METRICS.items() if k != "J"}}}
                ).encode(), "controller 'opt' has no 'J'"),
    (json.dumps({"scenario": {"name": "mini"},
                 "controllers": {"opt": {**_METRICS, "J": "1.5"}}}).encode(),
     "controller 'opt' J is '1.5'"),
    (b'\xff\xfe{"scenario": {}}', "'utf-8' codec can't decode"),
], ids=["top_level_list", "entry_without_J", "non_numeric_J", "not_utf8"])
def test_main_compare_refuses_a_malformed_summary(tmp_path, capsys, content, names):
    path = tmp_path / "s.summary.json"
    path.write_bytes(content)
    with pytest.raises(ScenarioError, match=re.escape(f"{path}: {names}")):
        compare_summaries([path])
    assert main(["compare", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("scenario error: ") and names in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.summary.json"]


def test_gare_report_mini(tmp_path):
    text = gare_report(write_mini(tmp_path))
    assert "detectable: True" in text
    assert "disturbance class: Mismatched" in text
    assert "P =" in text and "K =" in text
    radius = float(text.split("closed-loop spectral radius: ")[1].splitlines()[0])
    assert radius < 1


def test_gare_report_scalar_static_plant(tmp_path):
    doc = {
        "name": "static", "system": {"A": [[0.0]], "B": [[1.0]], "E": [[1.0]],
                                     "c_o": [[1.0]]},
        "cost": {"R": [[1.0]]}, "x0": [0.0], "steps": 5,
        "disturbance": {"kind": "constant", "amplitude": 0.0},
        "controllers": [{"kind": "Stationary"}],
    }
    path = tmp_path / "static.json"
    path.write_text(json.dumps(doc))
    text = gare_report(path)
    # A = 0 leaves P equal to the state weight
    assert "[[1.]]" in text.replace("P =\n", "P=")


def test_gare_report_flags_undetectable(tmp_path):
    doc = {
        "name": "undet",
        "system": {"A": [[2.0, 0.0], [0.0, 0.5]], "B": [[1.0, 0.0], [0.0, 1.0]],
                   "E": [[1.0, 0.0], [0.0, 1.0]], "c_o": [[0.0, 1.0]]},
        "cost": {"R": [[1.0, 0.0], [0.0, 1.0]]},
        "x0": [0.0, 0.0], "steps": 5,
        "disturbance": {"kind": "constant", "amplitude": 0.0},
        "controllers": [{"kind": "Stationary"}],
    }
    path = tmp_path / "undet.json"
    path.write_text(json.dumps(doc))
    text = gare_report(path)
    assert "detectable: False" in text
    assert "not certified" in text.lower()


def test_selftest_small():
    assert selftest(instances=5, seed=7)


@pytest.mark.parametrize("instances", [0, -1])
def test_selftest_refuses_fewer_than_one_instance(instances):
    # with no instance every check would pass vacuously
    with pytest.raises(ValueError, match="instances must be >= 1"):
        selftest(instances=instances)


def test_selftest_solves_each_instance_once(monkeypatch):
    # the one Riccati pass of an instance is the one its draw was accepted
    # on; the feedforward and the law follow only for draws the oracle keeps
    oracle_calls, solved, fed, laws = [], [], [], []

    def reject_every_other_draw(model, *args):
        oracle_calls.append(model)
        if len(oracle_calls) % 2:
            raise SolvabilityError("rejected")
        return brute_force_optimal(model, *args)

    def record_solve(model, *args, **kwargs):
        solved.append((model, solve_finite_horizon(model, *args, **kwargs)))
        return solved[-1][1]

    def record_feedforward(riccati, model, *args):
        fed.append(model)
        return solve_recursive(riccati, model, *args)

    def record_law(model, riccati, h):
        laws.append((model, riccati))
        return _solved_law(model, riccati, h)

    monkeypatch.setattr("lqdr.cli.brute_force_optimal", reject_every_other_draw)
    monkeypatch.setattr("lqdr.sim.solve_finite_horizon", record_solve)
    monkeypatch.setattr("lqdr.cli.solve_recursive", record_feedforward)
    monkeypatch.setattr("lqdr.cli._solved_law", record_law)
    assert selftest(instances=4, seed=7)
    accepted = oracle_calls[1::2]
    assert len(oracle_calls) == 8 and len(accepted) == 4
    assert all(a is b for a, b in zip(fed, accepted, strict=True))
    for model, (law_model, law_riccati) in zip(accepted, laws, strict=True):
        passes = [riccati for solved_model, riccati in solved if solved_model is model]
        assert law_model is model and len(passes) == 1 and passes[0] is law_riccati


# ---------------------------------------------------------------------------
# entry point and exit codes
# ---------------------------------------------------------------------------

def test_main_run_ok(tmp_path, capsys):
    path = write_mini(tmp_path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "mini.summary.json" in capsys.readouterr().out


def test_main_run_scenario_error(tmp_path, capsys):
    path = write_mini(tmp_path, lambda d: d.update(steps=0))
    assert main(["run", str(path)]) == 1
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(controllers=[5]),
    lambda d: d.update(steps="ten"),
    lambda d: d.update(settle_band="x"),
    lambda d: d.update(x0=["a", 0]),
    lambda d: d.update(x0=[float("nan"), 0]),
    lambda d: d.update(disturbance={"kind": "table", "values": [[1.0, 2.0], [3.0, 4.0]]}),
    lambda d: d["controllers"][0].update(kind="RecedingHorizon", T=0),
    lambda d: d["controllers"][0].update(kind="RecedingHorizon"),
    lambda d: d["controllers"][1].pop("k_x"),
    lambda d: d["controllers"][1].pop("K_d"),
    lambda d: d["controllers"][0].update(kind="PID", kp=1.0),
    lambda d: d["controllers"][0].update(kind="PID", kp=1.0, Ts=0),
    lambda d: d["cost"].update(R=[[-1.0, 0.0], [0.0, -1.0]]),
    lambda d: d.update(name="a/b"),
    lambda d: d.update(name="../escaped"),
    lambda d: d.update(name="a\\b"),
    lambda d: d.update(name=["x"]),
    lambda d: d.update(name=""),
    lambda d: d["controllers"][1].update(label="s/t"),
    lambda d: d["controllers"][1].update(label="s\0t"),
    lambda d: d["controllers"][1].update(label=""),
    lambda d: d.update(system=continuous_mini([[1000.0, 0.0], [0.0, -1.0]], 1.0)),
    lambda d: d.update(system=continuous_mini([[1e200, 0.0], [0.0, -1.0]], 1e200)),
    lambda d: d["controllers"][0].update(kind="RecedingHorizon", T=20,
                                         P_terminal=[[-1e6, 0.0], [0.0, -1e6]]),
    lambda d: d["controllers"][0].update(kind="RecedingHorizon", T=20,
                                         P_terminal=[[1.0, 5.0], [0.0, 1.0]]),
    lambda d: d.update(settle_band=-1.0),
    lambda d: d.update(settle_band=0),
    utf16,
    lambda d: d.update(display=[1, 2]),
    lambda d: d.update(system={**continuous_mini([[-1.0, 0.0], [0.0, -1.0]], 0.02),
                               "A": d["system"]["A"]}),
    lambda d: d["system"].update(Ts=0.02),
    lambda d: d["disturbance"].update(rate=0.5),
    lambda d: d.update(system={**d["system"], "c_o": [[4.69e-303, 0.0]]},
                       reference={"regulated": [1.0]},
                       cost={**d["cost"], "P_terminal": [[0.25, 0.0], [0.0, 0.25]]}),
    lambda d: (d["system"].update(c_o=[[1.0, 0.0], [0.0, 1.0]]),
               d["controllers"][0].update(kind="PID", kp=1.0, Ts=0.1)),
    lambda d: d.update(disturbance={"kind": "sinusoid", "amplitude": 1.0, "rate": 0.5}),
    # json reads the token 1e999 as inf, which json.dumps cannot write
    lambda d: json.dumps(d).replace('"x0": [1.0, 0.0]', '"x0": [1e999, 0.0]').encode(),
    lambda d: d.update(x0=[1.0]),
    lambda d: d["system"].pop("E"),
    lambda d: d["cost"].pop("R"),
    lambda d: d["cost"].update(Q=np.eye(3).tolist()),
    lambda d: d.update(disturbance=[3.0]),
    lambda d: d["disturbance"].update(kind="step"),
    lambda d: d["disturbance"].pop("amplitude"),
    lambda d: d["disturbance"].update(start_step=-1),
    lambda d: d.update(controllers=[]),
    lambda d: d["controllers"][0].pop("kind"),
    lambda d: d["controllers"][1].update(label="stationary"),
    lambda d: d.pop("steps"),
    lambda d: d.update(outputs=["pdf"]),
], ids=["controller_not_object", "steps_text", "settle_band_text", "x0_text",
        "x0_nan", "table_width", "lookahead_zero", "lookahead_missing",
        "sfc_without_k_x", "sfc_without_K_d", "pid_without_Ts", "pid_Ts_zero",
        "R_negative_definite", "name_slash", "name_parent_dir", "name_backslash",
        "name_not_string", "name_empty", "label_slash", "label_nul", "label_empty",
        "zoh_exp_overflows", "zoh_A_Ts_overflows", "controller_P_terminal_negative_definite",
        "controller_P_terminal_asymmetric", "settle_band_negative", "settle_band_zero",
        "not_utf8", "display_not_object", "continuous_with_discrete_A", "discrete_with_Ts",
        "constant_with_rate", "reference_cost_overflows", "pid_outputs_unpaired",
        "stationary_without_limit", "x0_overflows", "x0_length", "system_without_E",
        "cost_without_R", "cost_Q_3x3", "disturbance_not_object", "disturbance_kind_unknown",
        "constant_without_amplitude", "start_step_negative", "controllers_empty",
        "controller_without_kind", "label_duplicate", "steps_missing", "outputs_pdf"])
def test_main_run_rejects_bad_input_as_scenario_error(tmp_path, capsys, mutate):
    path = write_mini(tmp_path, mutate)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["mini.json"]


def test_main_run_refuses_a_missing_scenario_file(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: cannot read {path}: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("mutate, spec", [
    (lambda d: d["system"].update(c_o=[[1.0, 0.0], [0.0, 1.0]]),
     {"kind": "PID", "kp": 1.0, "Ts": 0.1}),
    (lambda d: d.update(disturbance={"kind": "sinusoid", "amplitude": 1.0, "rate": 0.5}),
     {"kind": "Stationary"}),
], ids=["pid_outputs_unpaired", "stationary_without_limit"])
def test_load_scenario_refuses_a_config_as_build_controller_does(tmp_path, mutate, spec):
    # each rule that needs the plant or the disturbance has one statement:
    # the loader's refusal is the library's message, naming the controller
    def without(d):
        mutate(d)
        d["controllers"] = d["controllers"][1:]

    def with_spec(d):
        mutate(d)
        d["controllers"][0] = spec

    scenario = load_scenario(write_mini(tmp_path, without))
    with pytest.raises(ValueError) as library:
        build_controller(ControllerConfig(**spec), scenario.model, scenario.cost,
                         scenario.disturbance, scenario.steps)
    with pytest.raises(ScenarioError) as loader:
        load_scenario(write_mini(tmp_path, with_spec, name="refused.json"))
    assert str(loader.value) == f"bad controllers[0]: {library.value}"


def test_main_gare_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = write_mini(tmp_path, utf16)
    assert main(["gare", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {path} is not UTF-8 text") and err.count("\n") == 1


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(steps=10 ** 15),
    lambda d: d["controllers"][0].update(T=10 ** 15),
    # the refusal comes after another controller has run: its CSV is not written
    lambda d: d.update(controllers=[d["controllers"][1], {**d["controllers"][0], "T": 10 ** 15}]),
], ids=["steps", "lookahead", "lookahead_after_a_run"])
def test_main_run_reports_a_horizon_too_large_to_allocate(tmp_path, capsys, mutate):
    # 10^15 rows exceed a 47-bit address space, so the allocation fails at
    # once on any host; never test a size that could be allocated
    doc = json.loads(bundled_scenario_path("example_b").read_text())
    mutate(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {path} is too large to run")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, what", [
    ("steps", 10 ** 20, "steps"),
    ("steps", 2 ** 63 - 2, "steps"),
    ("T", 10 ** 20, "controllers[0].T"),
], ids=["steps_1e20", "steps_2^63-2", "lookahead_1e20"])
def test_a_horizon_numpy_cannot_form_is_refused_at_load(tmp_path, capsys, key, value, what):
    # these counts once ended as per-controller solver failures ("Maximum
    # allowed dimension exceeded", "iterator is too large") with exit 2 and a
    # summary written; they are refused as a horizon too large to allocate is
    doc = json.loads(bundled_scenario_path("example_b").read_text())
    (doc if key == "steps" else doc["controllers"][0])[key] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=re.escape(
            f"{path} is too large to run: {what} = {value} needs an array of more than "
            f"{np.iinfo(np.intp).max} bytes")):
        load_scenario(path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {path} is too large to run")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["run_out_is_a_file", "compare_out_is_a_file",
                                  "run_file_is_a_directory"])
def test_main_reports_an_output_that_cannot_be_written(tmp_path, capsys, case):
    # one line naming the path and exit 1, where a traceback used to end the run
    path = write_mini(tmp_path)
    out = tmp_path / "out"
    if case == "compare_out_is_a_file":
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0
        path = tmp_path / "mini.summary.json"
    if case == "run_file_is_a_directory":
        blocked = out / "mini.summary.json"
        blocked.mkdir(parents=True)
    else:
        out.write_text("a file")
        blocked = out
    capsys.readouterr()
    assert main([case.split("_")[0], str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and str(blocked) in err
    assert err.count("\n") == 1
    assert out.is_dir() if case == "run_file_is_a_directory" else out.read_text() == "a file"


def test_main_compare_writes_an_integer_settling_step(tmp_path, capsys):
    path = tmp_path / "s.summary.json"
    path.write_text(json.dumps({"scenario": {"name": "mini"}, "controllers": {"opt": _METRICS}}))
    assert main(["compare", str(path), "--out", str(tmp_path)]) == 0
    row = "opt,1.500000e+00,1.000000e-01,2.000000e-01,3"
    assert (tmp_path / "mini.comparison.csv").read_text().splitlines()[1] == row
    assert capsys.readouterr().out.splitlines()[3].split() == row.split(",")


def test_main_compare_makes_its_output_directory(tmp_path):
    path = write_mini(tmp_path)
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    out = tmp_path / "new" / "dir"
    assert main(["compare", str(tmp_path / "mini.summary.json"), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["mini.comparison.csv"]


def test_main_gare_reports_a_singular_doubling_step(tmp_path, capsys):
    model, cost = singular_doubling_plant()
    doc = {"name": "singular",
           "system": {key: getattr(model, key).tolist() for key in ("A", "B", "E", "c_o")},
           "cost": {"R": cost.R.tolist()}, "x0": [0.0, 0.0, 0.0], "steps": 10,
           "disturbance": {"kind": "constant", "amplitude": 1.0},
           "controllers": [{"kind": "Stationary"}]}
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    assert main(["gare", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("solver error: stationary iteration grows without bound")
    assert err.count("\n") == 1
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("controller 'stationary' failed: stationary iteration grows")
    assert err.count("\n") == 1


def test_main_gare_refuses_a_certified_plant_whose_limit_does_not_contract(tmp_path, capsys):
    # doubling settles after 9 steps on a limit with rho(A - B K) = 1.5046;
    # the unreached mode at |s| > 1 is weighted by Q, so P has no limit and
    # the refusal names growth, where a P flagged "NOT CERTIFIED" was printed
    model, _, s, _ = kalman_decomposed_plant(np.random.default_rng(1))
    assert np.max(np.abs(s)) > 1.0
    doc = {"name": "unreached",
           "system": {key: getattr(model, key).tolist() for key in ("A", "B", "E", "c_o")},
           "cost": {"R": np.eye(model.n).tolist()}, "x0": [0.0] * model.n, "steps": 10,
           "disturbance": {"kind": "constant", "amplitude": 1.0},
           "controllers": [{"kind": "Stationary"}]}
    path = tmp_path / "unreached.json"
    path.write_text(json.dumps(doc))
    assert main(["gare", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"solver error: stationary iteration grows without bound "
                        r"\(the limit's closed loop has rho\(A - B K\) = 1\.50\d+ >= 1\): "
                        r"a mode no input reaches .*\n", captured.err)


FORBIDDEN_CHARACTERS = pytest.mark.parametrize(
    "char", ["\x01", "\x1f", "\t", "\n", "\ufffe", "\uffff", "\ud800", "\udfff"],
    ids=["x01", "x1f", "tab", "newline", "ufffe", "uffff", "ud800", "udfff"])


@FORBIDDEN_CHARACTERS
@pytest.mark.parametrize("field", ["name", "label"])
def test_main_run_rejects_control_characters_in_names(tmp_path, capsys, field, char):
    # the name or label would name files and appear in the SVG: nothing is written
    def mutate(doc):
        if field == "name":
            doc["name"] = f"ctl{char}x"
        else:
            doc["controllers"][1]["label"] = f"s{char}t"
    path = write_mini(tmp_path, mutate)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "control characters" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["mini.json"]


@FORBIDDEN_CHARACTERS
def test_main_compare_rejects_control_characters_in_the_scenario_name(tmp_path, capsys, char):
    summary = {"scenario": {"name": f"ctl{char}x"},
               "controllers": {"a": {"error": "no run"}}}
    path = tmp_path / "s.summary.json"
    path.write_text(json.dumps(summary))
    (tmp_path / "out").mkdir()
    assert main(["compare", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "control characters" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out", "s.summary.json"]


def test_main_run_and_compare_accept_markup_characters_in_the_name(tmp_path):
    path = write_mini(tmp_path, lambda d: d.update(name="a&b<c"))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    minidom.parse(str(out / "a&b<c.svg"))
    assert main(["compare", str(out / "a&b<c.summary.json"), "--out", str(out)]) == 0
    assert (out / "a&b<c.comparison.csv").exists()


@pytest.mark.parametrize("token, value", [
    ("NaN", float("nan")), ("Infinity", float("inf")), ("-Infinity", float("-inf")),
], ids=["NaN", "Infinity", "-Infinity"])
def test_main_run_rejects_non_json_number_tokens(tmp_path, capsys, token, value):
    # json.dumps writes float("nan") and the infinities as these bare tokens
    path = write_mini(tmp_path, lambda d: d.update(display={"x": value}))
    assert f'"display": {{"x": {token}}}' in path.read_text()
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert token in capsys.readouterr().err
    assert not (tmp_path / "out" / "mini.summary.json").exists()


def test_main_run_reports_diverging_controller_in_strict_json(tmp_path, capsys):
    def mutate(doc):
        # rho(A + B k_x) = 1.44: the baseline's state overflows to inf, then nan
        doc["steps"] = 3000
        doc["controllers"][1]["k_x"] = [[200.0, 40.0]]
    path = write_mini(tmp_path, mutate)
    with pytest.warns(RuntimeWarning):
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "'sfc' failed: closed loop diverged" in capsys.readouterr().err

    def reject(token):
        raise AssertionError(f"summary holds the non-JSON token {token}")

    text = (tmp_path / "out" / "mini.summary.json").read_text()
    controllers = json.loads(text, parse_constant=reject)["controllers"]
    assert "diverged" in controllers["sfc"]["error"]
    assert "J" not in controllers["sfc"]
    assert controllers["stationary"]["error"] is None
    assert not (tmp_path / "out" / "mini.sfc.csv").exists()


def test_main_run_solver_failure_exit_code(tmp_path):
    def mutate(doc):
        doc["system"]["B"] = [[0.0], [0.0]]
        doc["controllers"] = [{"kind": "FiniteHorizon", "label": "optimal"}]
    path = write_mini(tmp_path, mutate)
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2


def test_main_gare_convergence_failure_exit_code(tmp_path, capsys):
    doc = {
        "name": "diverge", "system": {"A": [[2.0]], "B": [[0.0]], "E": [[1.0]],
                                      "c_o": [[1.0]]},
        "cost": {"R": [[1.0]]}, "x0": [0.0], "steps": 5,
        "disturbance": {"kind": "constant", "amplitude": 0.0},
        "controllers": [{"kind": "Stationary"}],
    }
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(doc))
    assert main(["gare", str(path)]) == 2
    assert "solver error" in capsys.readouterr().err


def test_main_env_var_out_dir(tmp_path, monkeypatch):
    path = write_mini(tmp_path)
    monkeypatch.setenv("LQDR_OUT", str(tmp_path / "envout"))
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "envout" / "mini.summary.json").exists()


def test_main_selftest_exit_code(capsys):
    assert main(["selftest", "--instances", "3", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("seed", ["-1", "seven"])
def test_main_selftest_refuses_a_negative_seed_as_a_usage_error(capsys, seed):
    # numpy would refuse a negative seed with a traceback; argparse refuses it first
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and "--seed" in captured.err
    assert "PASS" not in captured.out
    assert main(["selftest", "--instances", "1", "--seed", "0"]) == 0


@pytest.mark.parametrize("count", ["0", "-2", "two"])
def test_main_selftest_refuses_a_count_below_one_as_a_usage_error(capsys, count):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--instances", count])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and "--instances" in captured.err
    assert "PASS" not in captured.out


def test_main_compare_roundtrip(tmp_path, capsys):
    path = write_mini(tmp_path)
    main(["run", str(path), "--out", str(tmp_path)])
    code = main(["compare", str(tmp_path / "mini.summary.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "controller" in out and "settling_step" in out
    assert (tmp_path / "mini.comparison.csv").exists()
