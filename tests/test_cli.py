import json

import numpy as np
import pytest

from lqdr import ScenarioError
from lqdr.cli import (bundled_scenario_path, compare_summaries, gare_report,
                      load_scenario, main, run_scenario, selftest)

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


def write_mini(tmp_path, mutate=None, name="mini.json"):
    doc = json.loads(json.dumps(MINI))
    if mutate:
        mutate(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


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
    assert np.allclose(d.raw["system"]["continuous"]["A"], [[-1.76, -1.34], [2.7, -7.21]])
    assert np.allclose(d.raw["system"]["continuous"]["B"], [[0.57], [0.82]])
    assert np.allclose(d.raw["system"]["continuous"]["E"], [[0.98], [2.26]])
    assert d.raw["system"]["Ts"] == 0.02
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
    assert echo["A"] == MINI["system"]["A"]
    assert echo["B"] == MINI["system"]["B"]
    assert echo["E"] == MINI["system"]["E"]
    assert echo["R"] == MINI["cost"]["R"]
    assert echo["x0"] == MINI["x0"]
    assert echo["disturbance_class"] == "Mismatched"


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
    assert selftest(instances=5, seed=7, verbose=False)


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
], ids=["controller_not_object", "steps_text", "settle_band_text", "x0_text",
        "x0_nan", "table_width", "lookahead_zero", "lookahead_missing",
        "sfc_without_k_x", "sfc_without_K_d", "pid_without_Ts", "pid_Ts_zero",
        "R_negative_definite"])
def test_main_run_rejects_bad_input_as_scenario_error(tmp_path, capsys, mutate):
    path = write_mini(tmp_path, mutate)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "scenario error" in capsys.readouterr().err


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


def test_main_compare_roundtrip(tmp_path, capsys):
    path = write_mini(tmp_path)
    main(["run", str(path), "--out", str(tmp_path)])
    code = main(["compare", str(tmp_path / "mini.summary.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "controller" in out and "settling_step" in out
    assert (tmp_path / "mini.comparison.csv").exists()
