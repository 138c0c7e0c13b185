import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import warpfill
from warpfill import circle, save_space
from warpfill.cli import main


@pytest.fixture
def circle_path(tmp_path):
    path = tmp_path / "circle.json"
    save_space(circle(32, 2 * math.pi), str(path))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys, circle_path):
    code, out, _ = run(capsys, ["validate", "--space", circle_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["valid"] and doc["result"]["n"] == 32
    assert doc["tool"] == "warpfill" and doc["version"]


def test_validate_triangle_violation_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
                                "measure": [1, 1, 1]}))
    code, _, err = run(capsys, ["validate", "--space", str(path)])
    assert code == 2
    assert "validation failure" in err
    assert "(0, 2" in err  # names the offending indices


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["validate", "--space", "/nonexistent/y.json"])
    assert code == 2
    assert err.startswith("error: file not found")


def test_schema_mismatch_exit_2(capsys, tmp_path):
    path = tmp_path / "notjson.json"
    path.write_text("hello")
    code, _, err = run(capsys, ["validate", "--space", str(path)])
    assert code == 2
    assert err.startswith("error: schema mismatch")


@pytest.mark.parametrize("doc, field", [
    ({"n": "abc", "dist": [[0, 1], [1, 0]]}, "'n'"),
    ({"dist": [[0, 1], [1]]}, "'dist'"),
    ({"dist": [[0, 1], [1, 0]], "measure": ["a", 1]}, "'measure'"),
])
def test_malformed_space_fields_exit_2(capsys, tmp_path, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["validate", "--space", str(path)])
    assert code == 2
    assert err.startswith("error: schema mismatch") and field in err


def test_dist_json(capsys, circle_path):
    code, out, _ = run(capsys, ["dist", "--space", circle_path, "--profile", "exp:1",
                                "--from", "5,0", "--to", "5,1"])
    assert code == 0
    doc = json.loads(out)
    res = doc["result"]
    assert "distance" in res and "tau" in res and "gromov_product_from_apex" in res
    d_y = 2 * math.pi / 32
    assert res["tau"] == pytest.approx(min(math.log(2 / d_y), 5.0))


def test_dist_interval_other_norm(capsys, circle_path):
    code, out, _ = run(capsys, ["dist", "--space", circle_path, "--profile", "exp:1",
                                "--from", "5,0", "--to", "5,1", "--norm", "l2"])
    doc = json.loads(out)
    lo, hi = doc["result"]["interval"]
    assert code == 0 and lo == pytest.approx(hi / 2)


def test_dist_bad_point_syntax(capsys, circle_path):
    code, _, err = run(capsys, ["dist", "--space", circle_path, "--profile", "exp:1",
                                "--from", "nope", "--to", "1,2"])
    assert code == 2 and "schema mismatch" in err


def test_bad_numbers_exit_2(capsys, circle_path):
    code, _, err = run(capsys, ["dist", "--space", circle_path, "--profile", "exp:abc",
                                "--from", "5,0", "--to", "5,1"])
    assert code == 2 and "schema mismatch" in err and "'abc'" in err
    code, _, err = run(capsys, ["counterexample", "--space", circle_path,
                                "--schedule", "1,x", "--dt", "0.05"])
    assert code == 2 and "schema mismatch" in err and "1,x" in err


def test_delta_seeded_and_deterministic(capsys, circle_path):
    argv = ["delta", "--space", circle_path, "--profile", "sinh:1", "--tmax", "6",
            "--count", "2000", "--seed", "42"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    code, out2, _ = run(capsys, argv)
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["seed"] == 42
    doc1.pop("timestamp")
    doc2.pop("timestamp")
    assert doc1 == doc2  # byte-identical apart from the timestamp
    assert doc1["result"]["delta_basepoint"] <= 2.0 + 1e-9


def test_boundary_auto_eps_and_csv(capsys, tmp_path, circle_path):
    prefix = str(tmp_path / "bd")
    code, out, _ = run(capsys, ["boundary", "--space", circle_path, "--profile", "exp:1",
                                "--eps", "auto", "--out-prefix", prefix, "--plot-data"])
    assert code == 0
    doc = json.loads(out)
    res = doc["result"]
    delta = 2.0 + 3.0 * math.pi
    assert res["eps"] == pytest.approx(0.9 * min(1.0, 1.0 / (5.0 * delta)))
    assert res["comparison"]["half_premetric_le_chained"]
    assert res["comparison"]["chained_le_premetric"]
    pre = np.loadtxt(res["premetric_csv"], delimiter=",")
    chained = np.loadtxt(res["chained_csv"], delimiter=",")
    assert pre.shape == (32, 32) and chained.shape == (32, 32)
    plot = np.loadtxt(res["plot_data"])
    assert plot.shape[1] == 2


def test_poincare_halfline(capsys):
    code, out, _ = run(capsys, ["poincare", "--beta", "1", "--p", "1",
                                "--tmax", "30", "--dt", "0.01"])
    assert code == 0
    doc = json.loads(out)
    reports = doc["result"]["reports"]
    assert len(reports) == 12
    assert all(r["passed"] for r in reports)
    by_name = {r["name"]: r for r in reports}
    assert abs(by_name["exp_decay_2"]["ratio"] - 0.5) < 5e-3


def test_poincare_filling_and_config_file(capsys, tmp_path, circle_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1.0, "beta": 2.0, "p": 1.0,
                               "tmax": 12.0, "dt": 0.1}))
    code, out, _ = run(capsys, ["poincare", "--space", circle_path,
                                "--config", str(cfg), "--p", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["p"] == 2.0  # flag wins over config file
    assert doc["config"]["beta"] == 2.0  # config fills the rest
    assert all(r["passed"] for r in doc["result"]["reports"])


def test_poincare_family_file(capsys, tmp_path):
    fam = tmp_path / "family.json"
    ts = np.linspace(0, 30, 2000)
    fam.write_text(json.dumps(
        {"family": [{"name": "custom_decay", "t": ts.tolist(),
                     "values": np.exp(-2 * ts).tolist()}]}))
    code, out, _ = run(capsys, ["poincare", "--beta", "1", "--p", "1", "--tmax", "30",
                                "--dt", "0.01", "--family", str(fam)])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["reports"][0]["name"] == "custom_decay"
    assert abs(doc["result"]["reports"][0]["ratio"] - 0.5) < 0.02


def test_overflowing_weight_exit_2(capsys):
    # e^{2t} cell masses overflow double precision before t = 400
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, ["poincare", "--beta", "2", "--p", "1.5",
                                    "--tmax", "400", "--dt", "0.5"])
    assert code == 2
    assert err.startswith("error: invalid input") and "overflows" in err


def test_counterexample_cli(capsys, tmp_path, circle_path):
    prefix = str(tmp_path / "ce")
    code, out, _ = run(capsys, ["counterexample", "--space", circle_path,
                                "--alpha", "1", "--beta", "1", "--p", "2", "--r", "1",
                                "--schedule", "6,9", "--dt", "0.05",
                                "--out-prefix", prefix])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "failure demonstrated"
    rows = np.loadtxt(f"{prefix}_counterexample.csv", delimiter=",")
    assert rows.shape == (2, 3)


def test_resource_cap_exit_2(capsys, circle_path, monkeypatch):
    monkeypatch.setenv("WARPFILL_MAX_NODES", "100")
    code, _, err = run(capsys, ["poincare", "--space", circle_path, "--beta", "1",
                                "--p", "1", "--tmax", "10", "--dt", "0.01"])
    assert code == 2
    assert err.startswith("error: resource cap")


def test_out_file(capsys, tmp_path, circle_path):
    out_path = tmp_path / "doc.json"
    code, out, _ = run(capsys, ["validate", "--space", circle_path,
                                "--out", str(out_path)])
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["result"]["valid"]


def test_roundtrip_export_import(tmp_path, capsys):
    # a space written by the library reloads identically through the CLI
    from warpfill import load_space
    s = circle(17, 3.5)
    path = tmp_path / "c17.json"
    save_space(s, str(path))
    s2 = load_space(str(path))
    assert np.array_equal(s.dist, s2.dist) and np.array_equal(s.measure, s2.measure)
    code, _, _ = run(capsys, ["validate", "--space", str(path)])
    assert code == 0


@pytest.mark.parametrize("doc, names", [
    ({"family": [{"name": "a", "t": ["x"], "values": [1]}]}, ["entry 0", "'t'"]),
    ({"family": [{"name": "a", "t": [0, 1], "values": [[1], 2]}]}, ["entry 0", "'values'"]),
    ({"family": [3]}, ["entry 0", "'name'"]),
    ({"family": [{"name": "a", "t": [], "values": []}]}, ["'a'", "empty"]),
    ({"family": 3}, ["'family'", "list"]),
    ({"family": [{"name": "a", "t": [3, 2, 1], "values": [1, 2, 3]}]}, ["entry 0", "'t'", "increase"]),
    ({"family": [{"name": "a", "t": [0, 0, 1], "values": [1, 2, 3]}]}, ["entry 0", "'t'", "increase"]),
    ({"family": [{"name": "a", "t": [0, math.nan], "values": [1, 2]}]}, ["entry 0", "'t'", "finite"]),
    ({"family": [{"name": "a", "t": [0, 1], "values": [1, math.inf]}]}, ["entry 0", "'values'", "finite"]),
])
def test_malformed_family_exit_2(capsys, tmp_path, doc, names):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["poincare", "--tmax", "5", "--dt", "0.5", "--family", str(fam)])
    assert code == 2
    assert err.startswith("error: schema mismatch") and err.count("\n") == 1
    assert all(name in err for name in names)


def test_halfline_family_file_builds_one_graph(capsys, tmp_path, monkeypatch):
    from warpfill import poincare
    calls = []
    build = poincare.build_filling_graph

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(poincare, "build_filling_graph", counting)
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"family": [{"name": "a", "t": [0, 5], "values": [1, 0]}]}))
    code, out, _ = run(capsys, ["poincare", "--tmax", "5", "--dt", "0.5", "--family", str(fam)])
    assert code == 0 and json.loads(out)["result"]["reports"][0]["name"] == "a"
    assert len(calls) == 1


@pytest.mark.parametrize("norm, table", [
    ("table:{}", [1, "a"]),
    ("table:{}", {"values": [1, 1], "theta": [0, "x"]}),
    ("lp:abc", None),
])
def test_malformed_norm_exit_2(capsys, tmp_path, circle_path, norm, table):
    path = tmp_path / "norm.json"
    path.write_text(json.dumps(table))
    code, _, err = run(capsys, ["dist", "--space", circle_path, "--profile", "exp:1",
                                "--from", "5,0", "--to", "5,1", "--norm", norm.format(path)])
    assert code == 2
    assert err.startswith("error: schema mismatch") and err.count("\n") == 1


@pytest.mark.parametrize("argv, cfg, key", [
    (["poincare"], {"p": "abc"}, "'p'"),
    (["poincare"], {"dt": [0.1]}, "'dt'"),
    (["poincare"], {"model": "cosh"}, "'model'"),
    (["delta", "--profile", "exp:1"], {"count": 1.5}, "'count'"),
    (["boundary", "--profile", "exp:1"], {"plot_data": "no"}, "'plot_data'"),
    (["counterexample"], {"schedule": [10, 20]}, "--schedule"),
])
def test_wrong_typed_config_exit_2(capsys, tmp_path, circle_path, argv, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, argv + ["--space", circle_path, "--config", str(path)])
    assert code == 2
    assert err.startswith("error: schema mismatch") and err.count("\n") == 1
    assert key in err


def test_config_values_read_as_flags(capsys, tmp_path, circle_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"count": 50, "seed": "3", "tmax": 4}))
    code, out, _ = run(capsys, ["delta", "--space", circle_path, "--profile", "exp:1",
                                "--config", str(path)])
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["count"], config["seed"], config["tmax"]) == (50, 3, 4.0)


def test_halfline_far_tail_has_no_overflow_warning():
    # smooth_step_down at t up to 354, where e^{4(t-3)} overflows double precision
    src = os.path.dirname(os.path.dirname(warpfill.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "warpfill.cli", "poincare", "--beta", "2", "--p", "1.5",
         "--tmax", "354", "--dt", "0.5"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    reports = json.loads(proc.stdout)["result"]["reports"]
    assert len(reports) == 12 and all(r["passed"] for r in reports)
