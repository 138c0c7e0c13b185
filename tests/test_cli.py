import contextlib
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import warpfill
import warpfill.cli as cli
from warpfill import WarpProfile, boundary_metric, circle, load_space, save_space
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


def test_validate_reports_how_triangles_were_checked(capsys, tmp_path, circle_path):
    code, out, _ = run(capsys, ["validate", "--space", circle_path])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["triangle_check"] == "edge certificate" and result["edge_count"] == 32
    doc = circle(32, 2 * math.pi).to_dict()
    del doc["edges"]
    path = tmp_path / "no_edges.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["validate", "--space", str(path)])
    result = json.loads(out)["result"]
    assert code == 0 and result["triangle_check"] == "sweep" and result["edge_count"] == 0


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


def test_directory_as_file_exit_2(capsys, tmp_path, circle_path):
    for argv in (["validate", "--space", str(tmp_path)],
                 ["validate", "--space", circle_path, "--out", str(tmp_path)]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot open file") and str(tmp_path) in err


def test_schema_mismatch_exit_2(capsys, tmp_path):
    path = tmp_path / "notjson.json"
    path.write_text("hello")
    code, _, err = run(capsys, ["validate", "--space", str(path)])
    assert code == 2
    assert err.startswith("error: schema mismatch")
    # a CSV file with no rows is refused without numpy's "no data" warning
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, ["validate", "--space", str(path)])
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: schema mismatch") and "(got 0x1)" in err


@pytest.mark.parametrize("doc, field", [
    ({"n": "abc", "dist": [[0, 1], [1, 0]]}, "'n'"),
    ({"dist": [[0, 1], [1]]}, "'dist'"),
    ({"dist": [[0, 1], [1, 0]], "measure": ["a", 1]}, "'measure'"),
    ({"dist": [[0, 1], [1, 0]], "labels": 5}, "'labels'"),
    ({"dist": [[0, 1], [1, 0]], "labels": ["a"]}, "'labels'"),
    ({"dist": [[0, 1], [1, 0]], "edges": [[0, 1.5]]}, "'edges'"),
    ({"dist": [[0, 1], [1, 0]], "edges": [[0, "1"]]}, "'edges'"),
    ({"dist": [[0, 1], [1, 0]], "edges": [[0, 2]]}, "'edges'"),
    ({"dist": [[0, 1], [1, 0]], "edges": [[-1, 0]]}, "'edges'"),
    ({"dist": [[0, 1], [1, 0]], "edges": [[1, 1]]}, "'edges'"),
    ({"dist": [[0, 1], [1, 0]], "edges": [[0, 1, 1]]}, "'edges'"),
    ({"dist": [[0, 1], [1, 0]], "edges": [0, 1]}, "'edges'"),
    ({"dist": [[0, 1], [1, 0]], "edges": [[0, 1], [1]]}, "'edges'"),
])
def test_malformed_space_fields_exit_2(capsys, tmp_path, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["validate", "--space", str(path)])
    assert code == 2
    assert err.startswith("error: schema mismatch") and field in err


@pytest.mark.parametrize("raw", [
    b'{"dist": [[0, 1], [1, 0]], "labels": ["\xff"]}',
    b'{"dist": [[0, NaN], [NaN, 0]]}',
    b'{"dist": [[0, Infinity], [Infinity, 0]]}',
    b'{"dist": [[0, 1e400], [1e400, 0]]}',
], ids=["not-utf8", "nan", "infinity", "1e400"])
def test_space_file_must_be_strict_json(capsys, tmp_path, raw):
    # non-finite numbers are refused by the parser, before any 'finite' check
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    code, _, err = run(capsys, ["validate", "--space", str(path)])
    assert code == 2
    assert err.startswith("error: schema mismatch") and "not valid JSON" in err


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


def test_dist_norm_contract(capsys, tmp_path, circle_path):
    argv = ["dist", "--space", circle_path, "--profile", "sinh:1.5", "--from", "3,0",
            "--to", "4,20", "--norm"]
    code, out, _ = run(capsys, argv + ["l1"])
    d = json.loads(out)["result"]["distance"]
    assert code == 0 and d > 0.0
    for norm in ("l2", "linf", "lp:3", "lp:2.5", " lp:2 "):
        code, out, _ = run(capsys, argv + [norm])
        assert code == 0 and json.loads(out)["result"]["interval"] == [d / 2, d]
    for norm in ("lp:1", "lp:inf", "lp:nan"):
        code, _, err = run(capsys, argv + [norm])
        assert code == 2 and err.startswith("error: invalid input") and err.count("\n") == 1
    table = tmp_path / "t.json"
    table.write_text(json.dumps({"values": [1, 1, 1]}))
    for norm in (f"table:{table}", "weird"):
        code, _, err = run(capsys, argv + [norm])
        assert code == 2 and err.startswith("error: schema mismatch: unknown norm selection")


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
    code, _, err = run(capsys, ["boundary", "--space", circle_path, "--profile", "exp:1",
                                "--eps", "abc"])
    assert code == 2 and "schema mismatch" in err and "--eps" in err and "'abc'" in err


def test_delta_reads_a_tmax_of_negative_zero_as_zero(capsys, circle_path):
    # numpy's uniform refused high - low = -0.0: exit 1, "internal error"
    results = []
    for tmax in ("-0.0", "0"):
        code, out, err = run(capsys, ["delta", "--space", circle_path, "--profile", "exp:1",
                                      "--tmax", tmax, "--count", "50", "--seed", "3"])
        assert code == 0 and err == "", err
        results.append(json.dumps(json.loads(out)["result"]))
    assert results[0] == results[1]


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
    pre = np.loadtxt(res["premetric_csv"], delimiter=",")
    chained = np.loadtxt(res["chained_csv"], delimiter=",")
    assert pre.shape == (32, 32) and chained.shape == (32, 32)
    plot = np.loadtxt(res["plot_data"])
    assert plot.shape == (res["snowflake"]["pairs"], 2) == (32 * 31 // 2, 2)


_SPECIAL = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, -1e308, 1.0 / 3.0,
            -2.5e-310, 123456789.0, -7e-5]


@pytest.mark.parametrize("M", [
    np.array([[math.pi]]),
    np.array(_SPECIAL[:11])[:, None],                       # k x 1
    np.array(_SPECIAL).reshape(6, 2),
    np.array(_SPECIAL[:7]),                                 # 1-D: written as one column
    np.random.default_rng(3).standard_normal((9, 5)) * 10.0 ** np.arange(-200, 250, 90),
    # an exact tie at 19 digits (...015625) and non-finite cells in one row
    np.array([[21089332485663.016, math.inf, 0.1], [math.nan, -21089332485663.016, -math.inf]]),
    np.random.default_rng(4).standard_normal((1, 1000)) * 10.0 ** np.arange(-300, 300, 0.6),
    np.random.default_rng(5).standard_normal((500, 2)),
], ids=["1x1", "kx1", "kx2", "1d", "9x5", "tie", "1x1000", "500x2"])
@pytest.mark.parametrize("tile", [1, 3, 4, 1 << 14])
@pytest.mark.parametrize("delimiter, header", [
    (",", None), (" ", None), (",", "t_max,g_norm,u_deviation"), (" ", "two\nlines")])
def test_write_table_matches_savetxt(tmp_path, M, tile, delimiter, header):
    # M stacked by rows until the table holds at least `tile` cells; savetxt's
    # %.18e text reads back bit for bit, so both files hold the same lines,
    # fields and values
    M = np.concatenate([M] * -(-tile // M.size))
    ours, ref = tmp_path / "ours.txt", tmp_path / "ref.txt"
    cli._write_table(str(ours), M, delimiter, header=header)
    np.savetxt(str(ref), M, fmt="%.18e", delimiter=delimiter, header=header or "")
    text = ours.read_text()
    assert "null" not in text and text.endswith("\n")
    lines, ref_lines = text.splitlines(), ref.read_text().splitlines()
    n_header = 0 if header is None else header.count("\n") + 1
    assert lines[:n_header] == ref_lines[:n_header]
    assert all(line.startswith("# ") for line in lines[:n_header])
    assert ([line.count(delimiter) for line in lines[n_header:]]
            == [line.count(delimiter) for line in ref_lines[n_header:]])
    back = np.loadtxt(str(ours), delimiter=delimiter, ndmin=2)
    want = np.loadtxt(str(ref), delimiter=delimiter, ndmin=2)
    assert back.shape == want.shape == (len(M), M.size // len(M))
    assert np.array_equal(np.isnan(back), np.isnan(want))
    assert np.array_equal(back[~np.isnan(back)].view(np.int64),
                          want[~np.isnan(want)].view(np.int64))


def test_boundary_chained_file_copy_rule(capsys, tmp_path, circle_path, monkeypatch):
    calls = []
    write_table = cli._write_table

    def recording_write_table(path, *args, **kwargs):
        calls.append(path)
        write_table(path, *args, **kwargs)

    monkeypatch.setattr(cli, "_write_table", recording_write_table)
    prefix = str(tmp_path / "auto")
    code, out, _ = run(capsys, ["boundary", "--space", circle_path, "--profile", "exp:1",
                                "--out-prefix", prefix])
    res = json.loads(out)["result"]
    # the closure is certified at auto eps: the chained file is a copy
    assert code == 0 and res["closure_check"] == "certificate"
    assert res["closure_lowered"] == 0
    assert calls == [res["premetric_csv"]]
    with open(res["chained_csv"], "rb") as fh, open(res["premetric_csv"], "rb") as fp:
        assert fh.read() == fp.read()

    calls.clear()
    prefix = str(tmp_path / "wide")
    code, out, _ = run(capsys, ["boundary", "--space", circle_path, "--profile", "exp:1",
                                "--eps", "3", "--out-prefix", prefix])
    res = json.loads(out)["result"]
    bm = boundary_metric(WarpProfile.parse("exp:1"), load_space(circle_path), 3.0)
    lowered = int(np.count_nonzero(bm.chained < bm.premetric))
    assert code == 0 and res["closure_check"] == "floyd-warshall"
    assert res["closure_lowered"] == lowered > 0
    assert calls == [res["premetric_csv"], res["chained_csv"]]
    chained = np.loadtxt(res["chained_csv"], delimiter=",")
    pre = np.loadtxt(res["premetric_csv"], delimiter=",")
    assert np.array_equal(chained.view(np.int64), bm.chained.view(np.int64))
    assert np.array_equal(pre.view(np.int64), bm.premetric.view(np.int64))
    assert not np.array_equal(chained, pre)


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


@pytest.mark.parametrize("argv, message", [
    (["poincare", "--tmax", "inf"], "t_max must be finite"),
    (["poincare", "--space", "{circle}", "--tmax", "inf"], "t_max must be finite"),
    (["counterexample", "--space", "{circle}", "--schedule", "10,inf"], "t_max must be finite"),
    (["counterexample", "--space", "{circle}", "--schedule", "0.01,10", "--dt", "0.02"],
     "t_max >= dt"),
    (["delta", "--space", "{circle}", "--profile", "exp:1", "--tmax", "inf", "--count", "10"],
     "t_max must be finite"),
    (["boundary", "--space", "{circle}", "--profile", "exp:1", "--eps", "inf"],
     "eps must be positive and finite"),
    (["validate", "--space", "{circle}", "--eps", "inf"], "requires a finite eps > 0"),
    (["poincare", "--slack", "nan", "--tmax", "5", "--dt", "0.1"], "slack must be finite"),
    (["poincare", "--space", "{circle}", "--slack", "-0.5", "--tmax", "5", "--dt", "0.1"],
     "slack must be finite and >= 0"),
    (["poincare", "--p", "inf", "--tmax", "5", "--dt", "0.1"], "p must be finite and >= 1"),
    (["poincare", "--space", "{circle}", "--p", "nan", "--tmax", "5", "--dt", "0.1"],
     "p must be finite and >= 1"),
    (["counterexample", "--space", "{circle}", "--p", "inf", "--schedule", "5,10", "--dt", "0.05"],
     "p must be finite and >= 1"),
    (["counterexample", "--space", "{circle}", "--p", "nan"], "p must be finite and >= 1"),
    (["delta", "--space", "{circle}", "--profile", "exp:1", "--seed", "-1", "--count", "10"],
     "seed must be an integer >= 0"),
    (["poincare", "--space", "{circle}", "--model", "exp", "--alpha", "2", "--beta", "0.1",
      "--tmax", "400", "--dt", "10", "--p", "1.5"], "psi overflows at level 36 (t = 360)"),
    (["poincare", "--space", "{circle}", "--model", "sinh", "--alpha", "2", "--beta", "0.1",
      "--tmax", "400", "--dt", "10", "--p", "1.5"], "psi overflows at level 36 (t = 360)"),
])
def test_bad_truncation_exit_2(capsys, circle_path, argv, message):
    code, out, err = run(capsys, [a.format(circle=circle_path) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: invalid input") and message in err


@pytest.mark.parametrize("argv, code, message", [
    (["poincare", "--tmax", "1e300", "--dt", "1e-10"], 2, "error: resource cap: filling graph "
     "would have more than the cap 2000000 nodes: its level count t_max/dt = 1e+300/1e-10 "
     "overflows double precision"),
    (["poincare", "--tmax", "2", "--dt", "1e-300"], 2, "error: resource cap: filling graph "
     "would have 1999999999999999"),
    (["counterexample", "--space", "{circle}", "--schedule", "0.5,1e300", "--dt", "1e-300"], 2,
     "error: resource cap: filling graph would have more than the cap"),
    (["poincare", "--model", "sinh", "--tmax", "1e300", "--dt", "1e299"], 2,
     "error: invalid input: sinh weight with beta=1.0 overflows double precision"),
    (["counterexample", "--space", "{circle}", "--beta", "1e300"], 2,
     "error: invalid input: sinh weight with beta=1e+300 overflows double precision"),
    (["poincare", "--p", "200"], 0, ""),
    (["poincare", "--p", "1e300"], 2,
     "error: invalid input: the L^1e+300 objective's slope underflows"),
    (["poincare", "--p", "400"], 2, "error: invalid input: the L^400.0 norm underflows"),
])
def test_extreme_grids_and_exponents_exit_cleanly(capsys, circle_path, argv, code, message):
    # each of these exited 1 on an OverflowError or ValueError: a level count,
    # a first sinh cell or a reference constant past double range, or a level
    # array allocated before the node cap was checked. Now bad input exits 2
    # with one line on stderr and no warning, and p = 200 runs. At p = 400 a
    # deviation norm underflows to 0, and at p = 1e300 the solver's slope at an
    # end of its bracket; both passed as a ratio of 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, [a.format(circle=circle_path) for a in argv])
    assert got == code and err.startswith(message) and err.count("\n") == (code != 0)
    if code == 0:
        assert all(r["ratio"] >= 0.0 for r in json.loads(out)["result"]["reports"])


@pytest.mark.parametrize("beta, code, message", [
    ("1000", 0, ""),  # cells 3.8157e-287 and 9.857e66, both within 1e-10
    ("2000", 2, "error: validation failure: graph has a nonpositive node measure"),
])
def test_steep_sinh_cells_exit_code(capsys, beta, code, message):
    # a cell is refused only where its integral leaves double range (the
    # first cell is about 1e-567 at beta 2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _, err = run(capsys, ["poincare", "--model", "sinh", "--beta", beta,
                                   "--tmax", "1", "--dt", "0.5"])
    assert got == code and err.startswith(message) and err.count("\n") == (code != 0)


@pytest.mark.parametrize("beta, code, message", [
    ("0.5", 0, ""),  # sinh t overflows past t of about 710.5, the cells do not
    ("1", 2, "error: invalid input: sinh weight with beta=1.0 overflows double precision"),
])
def test_sinh_cells_past_the_overflow_of_sinh_exit_code(capsys, circle_path, beta, code,
                                                        message):
    got, _, err = run(capsys, ["poincare", "--space", circle_path, "--model", "sinh",
                               "--alpha", "0.5", "--beta", beta, "--tmax", "800",
                               "--dt", "0.5"])
    assert got == code and err.startswith(message) and err.count("\n") == (code != 0)


def test_boundary_refuses_a_subnormal_carrier_exit_2(capsys, tmp_path):
    # 2/d overflows for d = 8e-320 / 8, so the supremum lies past the
    # overflow of psi: refused, where NaN premetric entries were written
    path = tmp_path / "tiny.json"
    save_space(circle(8, 8e-320), str(path))
    code, out, err = run(capsys, ["boundary", "--space", str(path), "--profile", "exp:1",
                                  "--out-prefix", str(tmp_path / "b")])
    assert code == 2 and out == ""
    assert err.startswith("error: invalid input") and "overflows psi" in err
    assert not list(tmp_path.glob("b_*"))


def test_boundary_refuses_an_equidistant_carrier_exit_2(capsys, tmp_path):
    # every distance of K6 is 1, so ln(d) is constant and the snowflake fit
    # was an internal LinAlgError, after LAPACK and numpy complained
    path = tmp_path / "k6.json"
    save_space(warpfill.from_graph([(i, j, 1.0) for i in range(6) for j in range(i + 1, 6)],
                                   n=6), str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["boundary", "--space", str(path), "--profile", "exp:1",
                                      "--out-prefix", str(tmp_path / "b")])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: invalid input: every carrier distance is 1.0")
    assert not list(tmp_path.glob("b_*"))


def test_boundary_refuses_an_infinite_delta_bound_exit_2(capsys, tmp_path):
    # the exp bound 2 + 3 diam(Y) overflows; the auto eps was 0 and the check "passed"
    path = tmp_path / "h3.json"
    path.write_text(json.dumps({"dist": [[0, 1e308, 5e307], [1e308, 0, 6e307],
                                         [5e307, 6e307, 0]]}))
    code, out, err = run(capsys, ["boundary", "--space", str(path), "--profile", "exp:1",
                                  "--out-prefix", str(tmp_path / "b")])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: invalid input: the hyperbolicity bound inf is not finite")
    assert not list(tmp_path.glob("b_*"))


@pytest.fixture
def h3_path(tmp_path):
    # three points whose distances, times pi or summed in pairs, overflow
    path = tmp_path / "h3.json"
    path.write_text(json.dumps({"dist": [[0, 1e308, 5e307], [1e308, 0, 6e307],
                                         [5e307, 6e307, 0]]}))
    return str(path)


def test_poincare_on_a_carrier_near_double_range(capsys, h3_path):
    # pi * d0 overflowed in the harmonic fiber factor, whose norms came out null
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["poincare", "--space", h3_path, "--tmax", "1",
                                      "--dt", "0.5"])
    assert code == 0 and err == ""
    reports = {r["name"]: r for r in json.loads(out)["result"]["reports"]}
    harmonic = reports["oscillatory_harmonic"]
    assert harmonic["lp_g"] > 0.0 and harmonic["lp_u_minus_c"] is not None
    assert all(r["passed"] for r in reports.values())


def test_sinh_delta_on_a_carrier_near_double_range(capsys, h3_path):
    # psi(0) * (d0[y1] + d0[y2]) was 0 * inf, and the defect max(0, nan) = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["delta", "--space", h3_path, "--profile", "sinh:1",
                                      "--count", "100"])
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert 0.0 <= result["delta_basepoint"] <= result["delta_bound_paper"]


@pytest.fixture
def far_circle_path(tmp_path):
    # circle(12)'s distances times 1e307: the largest is 9.4e307, adjacent
    # points lie 5.2e306 apart
    Y = circle(12, 2 * math.pi)
    path = tmp_path / "c12.json"
    save_space(warpfill.CarrierSpace(Y.dist * 1e307, Y.measure), str(path))
    return str(path)


@pytest.mark.parametrize("argv, message", [
    # e^4 * 5.2e306 overflows: the affected quotients were silently 0
    (["poincare", "--tmax", "10", "--dt", "0.5"],
     "horizontal edge lengths psi(t) * d_Y overflow at level 8 (t = 4)"),
    # 0.9 / (5 * 9.4e307) is 0, and exp(-0 * inf) put nan on the diagonal
    (["boundary", "--profile", "exp:1"], "the default eps 0.9/(5*delta) is 0: 5*delta overflows"),
])
def test_far_carrier_refusals_exit_2(capsys, far_circle_path, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, [argv[0], "--space", far_circle_path] + argv[1:])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: invalid input: " + message)


def test_far_carrier_below_the_overflow_exit_0(capsys, tmp_path, far_circle_path):
    # the last level of --tmax 4 is t = 3.5, where every length is finite; an
    # explicit eps is not refused. The side files go under tmp_path, and the
    # working directory is left as it was
    before = sorted(os.listdir())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["poincare", "--tmax", "4", "--dt", "0.5"],
                     ["boundary", "--profile", "exp:1", "--eps", "0.5",
                      "--out-prefix", str(tmp_path / "far")]):
            code, out, err = run(capsys, [argv[0], "--space", far_circle_path] + argv[1:])
            assert code == 0 and err == "", argv
    assert (tmp_path / "far_premetric.csv").is_file() and (tmp_path / "far_chained.csv").is_file()
    assert sorted(os.listdir()) == before


@pytest.mark.parametrize("scale, p", [(1e306, "2"), (1e306, "1.5"), (1e200, "2"), (1e120, "3")])
def test_a_far_separable_bump_is_judged(capsys, tmp_path, scale, p):
    # separable_bump is in carrier-distance units: its norms overflowed in
    # sum |v|^p w, and its report was divergent (ratio null); at 1e306 and
    # p = 2 the mean overflowed too, c_star was null, and numpy warned
    Y = circle(12, 2 * math.pi)
    path = tmp_path / "far.json"
    save_space(warpfill.CarrierSpace(Y.dist * scale, Y.measure), str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["poincare", "--space", str(path), "--model", "exp",
                                      "--beta", "2", "--tmax", "4", "--dt", "0.1", "--p", p])
    assert code == 0 and err == ""
    bump = {r["name"]: r for r in json.loads(out)["result"]["reports"]}["separable_bump"]
    assert not bump["divergent"] and bump["passed"]
    assert 0.0 < bump["c_star"] < math.inf and 0.0 < bump["ratio"] < 1.0


@pytest.mark.parametrize("argv, cfg, message", [
    (["poincare"], {"slack": "nan"}, "slack must be finite"),
    (["poincare", "--space", "{circle}"], {"p": "inf"}, "p must be finite"),
    (["poincare", "--space", "{circle}"], {"p": 0.5}, "p must be finite and >= 1"),
])
def test_bad_poincare_exponents_exit_2_before_any_graph(capsys, tmp_path, circle_path,
                                                        monkeypatch, argv, cfg, message):
    from warpfill import poincare
    calls = []
    monkeypatch.setattr(poincare, "build_filling_graph", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli, "build_filling_graph", lambda *a, **k: calls.append(a))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [a.format(circle=circle_path) for a in argv]
    code, out, err = run(capsys, argv + ["--tmax", "5", "--dt", "0.1", "--config", str(path)])
    assert code == 2 and out == "" and calls == []
    assert err.startswith("error: invalid input") and message in err


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


@pytest.mark.parametrize("value", ["1e6", "abc"])
def test_resource_cap_must_be_an_integer_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("WARPFILL_MAX_NODES", value)
    code, out, err = run(capsys, ["poincare", "--tmax", "2", "--dt", "0.5"])
    assert code == 2 and out == ""
    assert err == f"error: invalid input: WARPFILL_MAX_NODES must be an integer, got {value!r}\n"
    monkeypatch.setenv("WARPFILL_MAX_NODES", "")  # empty means the default cap
    assert run(capsys, ["poincare", "--tmax", "2", "--dt", "0.5"])[0] == 0


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
    # strict JSON, as for space files: the parser refuses NaN and Infinity
    ({"family": [{"name": "a", "t": [0, math.nan], "values": [1, 2]}]}, ["not valid JSON"]),
    ({"family": [{"name": "a", "t": [0, 1], "values": [1, math.inf]}]}, ["not valid JSON"]),
    # a name that is not a string was written into the report as it stood
    ({"family": [{"name": ["x"], "t": [0, 1], "values": [1, 0]}]}, ["entry 0", "'name'", "string"]),
    ({"family": [{"name": "a", "t": [0, 1], "values": [1, 0]},
                 {"name": 3, "t": [0, 1], "values": [1, 0]}]}, ["entry 1", "'name'", "string"]),
    ({"family": [{"name": {"a": 1}, "t": [0, 1], "values": [1, 0]}]}, ["entry 0", "'name'", "string"]),
])
def test_malformed_family_exit_2(capsys, tmp_path, doc, names):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["poincare", "--tmax", "5", "--dt", "0.5", "--family", str(fam)])
    assert code == 2
    assert err.startswith("error: schema mismatch") and err.count("\n") == 1
    assert all(name in err for name in names)


@pytest.mark.parametrize("flag", ["--family", "--config"])
def test_non_utf8_family_or_config_exit_2(capsys, tmp_path, flag):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"name": "\xff"}')
    code, _, err = run(capsys, ["poincare", "--tmax", "5", "--dt", "0.5", flag, str(path)])
    assert code == 2
    assert err.startswith("error: schema mismatch") and "not valid JSON" in err


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
    (["boundary", "--profile", "exp:1"], {"eps": "abc"}, "--eps"),
    (["poincare", "--p", "2"], {"p": "abc"}, "'p'"),  # checked even when a flag wins
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


# every option but --help, --config and --out, in parser order, at its builtin
# default unless the argv sets it; "{circle}" stands for the space file
@pytest.mark.parametrize("argv, expected", [
    (["validate", "--space", "{circle}"], [("space", "{circle}"), ("eps", None)]),
    (["dist", "--space", "{circle}", "--profile", "exp:1", "--from", "5,0", "--to", "5,1"],
     [("space", "{circle}"), ("profile", "exp:1"), ("from", "5,0"), ("to", "5,1"),
      ("norm", "l1"), ("basepoint_y", 0)]),
    (["delta", "--space", "{circle}", "--profile", "exp:1"],
     [("space", "{circle}"), ("profile", "exp:1"), ("tmax", 10.0), ("count", 100000),
      ("seed", 0), ("basepoint_y", 0)]),
    (["boundary", "--space", "{circle}", "--profile", "exp:1"],
     [("space", "{circle}"), ("profile", "exp:1"), ("eps", "auto"), ("basepoint_y", 0),
      ("out_prefix", "warpfill"), ("plot_data", False)]),
    (["poincare"],
     [("space", None), ("alpha", 1.0), ("beta", 1.0), ("p", 1.0), ("tmax", 10.0),
      ("dt", 0.01), ("family", "builtin"), ("model", "exp"), ("slack", 0.05)]),
    (["poincare", "--space", "{circle}", "--tmax", "2", "--dt", "0.5"],
     [("space", "{circle}"), ("alpha", 1.0), ("beta", 1.0), ("p", 1.0), ("tmax", 2.0),
      ("dt", 0.5), ("family", "builtin"), ("model", "exp"), ("slack", 0.1)]),
    (["counterexample", "--space", "{circle}"],
     [("space", "{circle}"), ("alpha", 1.0), ("beta", 1.0), ("p", 2.0), ("r", 1.0),
      ("y0", 0), ("schedule", "10,20,40"), ("dt", 0.01), ("out_prefix", None)]),
])
def test_config_block_echoes_every_option(capsys, tmp_path, monkeypatch, circle_path,
                                          argv, expected):
    monkeypatch.chdir(tmp_path)  # boundary writes side files under the default prefix
    code, out, _ = run(capsys, [a.format(circle=circle_path) for a in argv])
    assert code == 0
    expected = [(k, v.format(circle=circle_path) if isinstance(v, str) else v)
                for k, v in expected]
    got = list(json.loads(out)["config"].items())
    assert [(k, type(v), v) for k, v in got] == [(k, type(v), v) for k, v in expected]


def test_config_file_supplies_space_and_profile(capsys, tmp_path, circle_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"space": circle_path, "profile": "exp:1", "count": 10}))
    code, out, err = run(capsys, ["delta", "--config", str(path)])
    assert code == 0 and err == ""
    config = json.loads(out)["config"]
    assert (config["space"], config["profile"], config["count"]) == (circle_path, "exp:1", 10)


def test_config_file_supplies_validate_space_and_dist_points(capsys, tmp_path, circle_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"space": circle_path}))
    code, out, err = run(capsys, ["validate", "--config", str(path)])
    assert code == 0 and err == ""
    assert json.loads(out)["config"]["space"] == circle_path
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"space": circle_path, "profile": "exp:1",
                                "from": "5,0", "to": "5,1"}))
    code, out, err = run(capsys, ["dist", "--config", str(path)])
    assert code == 0 and err == ""
    config = json.loads(out)["config"]
    assert (config["from"], config["to"]) == ("5,0", "5,1")
    flags = ["dist", "--space", circle_path, "--profile", "exp:1", "--from", "5,0", "--to", "5,1"]
    assert json.loads(out)["result"] == json.loads(run(capsys, flags)[1])["result"]


@pytest.mark.parametrize("argv, cfg, message", [
    (["validate"], {}, "validate requires --space"),
    (["validate"], {"eps": 0.1}, "validate requires --space"),
    (["dist", "--space", "{circle}", "--profile", "exp:1"], {}, "dist requires --from and --to"),
    (["dist", "--space", "{circle}", "--profile", "exp:1", "--from", "5,0"], {},
     "dist requires --from and --to"),
    (["dist", "--space", "{circle}", "--profile", "exp:1"], {"to": "5,1"},
     "dist requires --from and --to"),
])
def test_missing_required_option_exit_2(capsys, tmp_path, circle_path, argv, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, [a.format(circle=circle_path) for a in argv]
                         + ["--config", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: schema mismatch") and message in err


def test_config_null_value_is_ignored(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p": None, "beta": 2}))
    code, out, _ = run(capsys, ["poincare", "--tmax", "2", "--dt", "0.5",
                                "--config", str(path)])
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["p"], config["beta"]) == (1.0, 2.0)


def test_config_does_not_leak_into_the_next_call(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p": 2, "model": "sinh", "slack": 0.3}))
    argv = ["poincare", "--tmax", "2", "--dt", "0.5"]
    code, out, _ = run(capsys, argv + ["--config", str(path)])
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["p"], config["model"], config["slack"]) == (2.0, "sinh", 0.3)
    code, out, _ = run(capsys, argv)
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["p"], config["model"], config["slack"]) == (1.0, "exp", 0.05)


def test_the_parser_is_built_once_per_process(capsys, tmp_path, circle_path, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    for _ in range(2):
        assert run(capsys, ["validate", "--space", circle_path])[0] == 0
    assert len(built) == 1
    # a --config run sets its defaults on a parser of its own
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eps": 0.5}))
    code, out, _ = run(capsys, ["validate", "--space", circle_path, "--config", str(path)])
    assert code == 0 and json.loads(out)["config"]["eps"] == 0.5
    code, out, _ = run(capsys, ["validate", "--space", circle_path])
    doc = json.loads(out)
    assert code == 0 and doc["config"]["eps"] is None and "length_check" not in doc["result"]
    assert len(built) == 2


@pytest.mark.parametrize("doc, violations", [
    ({"dist": [[0, -1.7e308], [1.7e308, 0]]}, ["('negative', (0, 1), -1.7e+308)",
                                                "('asymmetry', (0, 1), -1.7e+308, 1.7e+308)"]),
    ({"dist": [[0, 1], [1, 0]], "measure": [1e308, 1e308]},
     ["('measure_total', None, 'overflows double precision')"]),
])
def test_carriers_past_double_range_are_refused_without_a_warning(capsys, tmp_path, doc,
                                                                   violations):
    path = tmp_path / "top.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, ["validate", "--space", str(path)])
    assert code == 2
    assert err.splitlines()[1:] == [f"  violated: {v}" for v in violations]


def test_non_finite_measure_exit_2(capsys, tmp_path):
    # a CSV carrier's measure column reads nan as a number; it is bad input
    path = tmp_path / "nan.csv"
    path.write_text("0,1,1\n1,0,nan\n")
    code, _, err = run(capsys, ["validate", "--space", str(path)])
    assert code == 2
    assert err.splitlines()[1:] == ["  violated: ('measure_finite', 1, None)"]


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


_IMPORT_SET_SCRIPT = """
import math, sys
import warpfill.cli as cli
from warpfill import circle, save_space

save_space(circle(32, 2 * math.pi), "c32.json")
for argv in (["validate"], ["dist", "--profile", "exp:1", "--from", "3,0", "--to", "4,2"],
             ["delta", "--profile", "exp:1", "--count", "100"],
             ["boundary", "--profile", "exp:1"],
             ["poincare", "--p", "1.5", "--tmax", "4", "--dt", "0.5"],
             ["poincare", "--p", "3", "--tmax", "4", "--dt", "0.5"],
             ["counterexample", "--p", "3", "--r", "1", "--schedule", "3,4", "--dt", "0.1"]):
    assert cli.main(argv + ["--space", "c32.json"]) == 0, argv
assert cli.main(["poincare", "--tmax", "2", "--dt", "0.5"]) == 0  # the half-line
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
"""


def test_cli_loads_no_scipy_root_finder_or_quadrature(tmp_path):
    # a fresh interpreter: this one has imported every module already. The
    # subtracted-constant solver (p neither 1 nor 2) and the counterexample's
    # tail quadrature run without scipy.optimize and scipy.integrate, and the
    # half-line family's smooth step without scipy.special
    src = os.path.dirname(os.path.dirname(warpfill.__file__))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SET_SCRIPT], cwd=tmp_path,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_the_solver_rescales_far_carriers_at_every_exponent(capsys, tmp_path):
    # circle(12) with distances times 10^k: the slope sum w |c - v|^(p-1) of
    # separable_bump (in carrier-distance units) overflowed at an end of the
    # bracket from k = 152 at p = 3, and the run exited 2, though the optimum
    # and both norms are in range
    Y = circle(12, 2 * math.pi)
    for k in (152, 153, 154, 180, 203, 204, 250, 300, 305, 306):
        path = os.path.join(tmp_path, "far.json")
        save_space(warpfill.CarrierSpace(Y.dist * 10.0 ** k, Y.measure), path)
        for p in ("1.5", "3", "4"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, ["poincare", "--space", path, "--model", "exp",
                                              "--beta", "2", "--tmax", "4", "--dt", "0.1",
                                              "--p", p])
            assert code == 0 and err == "", (k, p, err)
            reports = json.loads(out)["result"]["reports"]
            assert not any(r["divergent"] for r in reports), (k, p)


def test_a_delta_count_past_memory_exits_2(capsys, circle_path):
    # numpy's ValueError for draws past the address space exited 1 as an
    # internal error; test_hyperbolicity covers the MemoryError past memory
    argv = ["delta", "--space", circle_path, "--profile", "exp:1", "--count", str(2 ** 62)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: resource cap: 4611686018427387904 triples need "
                          "221360928884514619392 bytes of draws, 48 per triple")


def test_a_seed_past_64_bits_exits_2(capsys, tmp_path, circle_path):
    # numpy took the seed, and orjson could not write it: exit 1, "internal
    # error: TypeError: Integer exceeds 64-bit range"
    with pytest.raises(warpfill.DomainError, match=r"^seed must be an integer >= 0 and "
                                                   r"below 2\^64, got 18446744073709551616$"):
        warpfill.estimate_delta(WarpProfile.exp(1.0), circle(8, 2 * math.pi), 5.0, 10, 2 ** 64)
    cfg = tmp_path / "seed.json"
    cfg.write_text('{"seed": 1180591620717411303424}')
    argv = ["delta", "--space", circle_path, "--profile", "exp:1", "--count", "10"]
    for extra in (["--seed", "1180591620717411303424"], ["--config", str(cfg)]):
        code, out, err = run(capsys, argv + extra)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: invalid input: seed must be an integer >= 0 and below 2^64")
    code, out, _ = run(capsys, argv + ["--seed", str(2 ** 64 - 1)])
    assert code == 0 and json.loads(out)["seed"] == 2 ** 64 - 1


@pytest.mark.parametrize("norm", [[], ["--norm", "l2"]])
def test_a_distance_past_double_range_exits_2(capsys, circle_path, norm):
    # t1 + t2 overflowed with numpy's "overflow encountered in add", and the
    # document held a null distance with exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["dist", "--space", circle_path, "--profile", "exp:1",
                                      "--from", "1e308,0", "--to", "1e308,1"] + norm)
    assert code == 2 and out == "" and err == (
        "error: invalid input: the warped distance from (1e+308, 0) to (1e+308, 1) is not "
        "finite in double precision\n")


@pytest.mark.parametrize("space", [False, True])
def test_a_family_member_that_is_not_finite_exits_2_before_its_gradient(capsys, tmp_path,
                                                                         circle_path, space):
    # np.interp's slope overflows, and the gradient's np.diff printed
    # "invalid value encountered in subtract" before the refusal
    path = tmp_path / "f.json"
    path.write_text('{"family": [{"name": "a", "t": [0, 1e308], "values": [1e308, -1e308]}]}')
    argv = ["poincare", "--tmax", "2", "--dt", "0.5", "--family", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv + (["--space", circle_path] if space else []))
    assert code == 2 and out == ""
    assert err == "error: invalid input: function 'a' is not finite on the level grid\n"


def _scaled_path(tmp_path, Y, k):
    """Y with distances and measures times 10^k, saved under tmp_path."""
    path = os.path.join(tmp_path, "far.json")
    save_space(warpfill.CarrierSpace(Y.dist * 10.0 ** k, Y.measure * 10.0 ** k), path)
    return path


@functools.cache
def _gate_carrier(name: str):
    """circle(12), a 12-point random geometric graph with a spanning tree,
    or a 3-point carrier."""
    if name == "circle":
        return circle(12, 2 * math.pi)
    if name == "three":
        return warpfill.CarrierSpace(np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.6],
                                               [0.5, 0.6, 0.0]]), np.ones(3))
    from scipy.sparse.csgraph import minimum_spanning_tree
    pts = np.random.default_rng(1).uniform(0.0, 1.0, size=(12, 2))
    d = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
    tree = minimum_spanning_tree(d).toarray() > 0.0
    i, j = np.nonzero(np.triu((d < 0.4) | tree | tree.T, 1))
    return warpfill.from_graph(zip(i.tolist(), j.tolist(), d[i, j].tolist()), n=12)


_GATE_POINCARE = ["--model", "exp", "--beta", "2", "--tmax", "4", "--dt", "0.1"]


def _gate_runs(path: str, prefix: str) -> list:
    runs = [["validate", "--eps", "0.05"],
            ["dist", "--profile", "exp:1", "--from", "3,0", "--to", "4,1"],
            ["delta", "--profile", "exp:1", "--count", "2000"],
            ["boundary", "--profile", "exp:1", "--out-prefix", prefix]]
    runs += [["poincare"] + _GATE_POINCARE + ["--p", p] for p in ("1", "1.5", "2", "3")]
    runs.append(["counterexample", "--schedule", "3,4"])
    return [argv[:1] + ["--space", path] + argv[1:] for argv in runs]


def _in_process(argv) -> tuple:
    """(exit code, stdout, stderr) of one CLI run, warnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@functools.cache
def _gate_baseline(name: str) -> list:
    """The unscaled runs' (exit code, result) for one carrier."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = _gate_runs(_scaled_path(tmp, _gate_carrier(name), 0), os.path.join(tmp, "b"))
        return [(code, json.loads(out)["result"] if code == 0 else None)
                for code, out, _ in map(_in_process, runs)]


def _nulls(ref, got, where=()):
    """The paths of the numbers of ref that are null in got."""
    if isinstance(ref, dict) and isinstance(got, dict):
        for key in ref.keys() & got.keys():
            yield from _nulls(ref[key], got[key], where + (key,))
    elif isinstance(ref, list) and isinstance(got, list):
        for i, (a, b) in enumerate(zip(ref, got)):
            yield from _nulls(a, b, where + (i,))
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool) and got is None:
        yield where


def _log_norms(path: str, p: float, reports: list) -> dict:
    """For each report of a filling run, the natural logs of its gradient
    norm and of ||u - c_star||_p, summed in log space from the same graph."""
    from warpfill.poincare import discrete_upper_gradient

    def log_norm(v, w):
        keep = (v != 0.0) & (w > 0.0)
        return float(np.logaddexp.reduce(p * np.log(np.abs(v[keep])) + np.log(w[keep]))) / p

    G = warpfill.build_filling_graph(load_space(path), WarpProfile.exp(1.0), "exp", 2.0,
                                     4.0, 0.1)
    logs = {}
    for (name, fn), r in zip(warpfill.builtin_filling_family(G), reports):
        u = G.sample(fn)
        w = G.weights(u.shape[1])
        logs[name] = (log_norm(discrete_upper_gradient(G, u), w), log_norm(u - r["c_star"], w))
    return logs


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["circle", "graph", "three"]), st.integers(0, 306))
@example("circle", 306)
@example("graph", 153)
@example("three", 306)
def test_every_subcommand_holds_its_contract_up_to_the_top_of_double_range(name, k):
    # distances and measures times 10^k: every run exits 0 or 2, one line on
    # stderr when 2; on exit 0 a number is null only where the unscaled
    # run's is, or where it is a Poincare norm (or a ratio of one) whose
    # value, summed in log space, leaves double range
    top = math.log(sys.float_info.max) - 1e-9
    with tempfile.TemporaryDirectory() as tmp:
        path = _scaled_path(tmp, _gate_carrier(name), k)
        for argv, (ref_code, ref) in zip(_gate_runs(path, os.path.join(tmp, "b")),
                                         _gate_baseline(name)):
            code, out, err = _in_process(argv)
            assert code in (0, 2), (argv, err)
            if code == 2:
                assert err.count("\n") == 1, (argv, err)
                continue
            assert err == "", (argv, err)
            got = json.loads(out)["result"]
            nulls = list(_nulls(ref, got)) if ref_code == 0 else []
            if nulls and argv[0] == "poincare":
                logs = _log_norms(path, float(argv[-1]), got["reports"])
                names = [r["name"] for r in got["reports"]]
                fields = {"lp_g": (0,), "lp_u_minus_c": (1,), "ratio": (0, 1)}
                nulls = [n for n in nulls if not (
                    n[0] == "reports" and n[2] in fields
                    and max(logs[names[n[1]]][i] for i in fields[n[2]]) > top)]
            assert not nulls, (argv, nulls)
