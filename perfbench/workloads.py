"""The three closed-loop workloads: inputs, fixed job lists and output checks.

Every input derives from the workload seed. The program sees only the
generated carriers, files and arguments. A job is one call a user of the
library or the `warpfill` CLI would wait for; its check reads the outputs
back after the timed call and returns a list of problems (empty = correct).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import distance_matrix

from warpfill import cli, hyperbolicity, profiles, spaces


# Full-size and smoke-size parameters. n is the carrier size; the delta
# counts are triples per job for each kernel branch.
SIZES = {
    "full": {"n": 256, "count_fast": 100_000, "count_shallow": 5_000, "count_custom": 1_000,
             "fill_tmax": "20", "fill_dt": "0.1", "half_tmax": "40", "half_dt": "0.002",
             "ce_dt": "0.02"},
    "smoke": {"n": 64, "count_fast": 2_000, "count_shallow": 200, "count_custom": 50,
              "fill_tmax": "4", "fill_dt": "0.1", "half_tmax": "10", "half_dt": "0.01",
              "ce_dt": "0.05"},
}


@dataclass
class Job:
    cls: str                 # end-to-end class, e.g. "delta_s.exp"
    name: str                # unique within the workload
    params: dict
    run: Callable            # the timed call
    check: Callable          # output -> list of problems, untimed
    side_files: list = field(default_factory=list)


def random_geometric_carrier(n: int, rng: np.random.Generator) -> spaces.CarrierSpace:
    """Shortest-path carrier of a random geometric graph on the unit square:
    Euclidean edges shorter than sqrt(8/(pi n)) plus a minimum spanning
    tree, so the graph is connected for every seed."""
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    euclid = distance_matrix(pts, pts)
    near = np.triu(euclid < math.sqrt(8.0 / (math.pi * n)), 1)
    tree = minimum_spanning_tree(euclid).toarray() > 0.0
    ii, jj = np.nonzero(near | np.triu(tree | tree.T, 1))
    return spaces.from_graph(zip(ii.tolist(), jj.tolist(), euclid[ii, jj].tolist()), n=n)


def custom_profile() -> profiles.WarpProfile:
    """psi = sinh t + (cosh t - 1)/2 with alpha 1 (psi <= psi' holds)."""
    return profiles.WarpProfile.custom(lambda t: np.sinh(t) + 0.5 * (np.cosh(t) - 1.0),
                                       lambda t: np.cosh(t) + 0.5 * np.sinh(t), 1.0)


def delta_profiles(size: dict) -> list:
    """(class, label, profile, triples) for each kernel branch."""
    sinh = profiles.WarpProfile.sinh_pow
    fast = size["count_fast"]
    return [
        ("delta_s.exp", "exp:1", profiles.WarpProfile.exp(1.0), fast),
        ("delta_s.sinh_closed", "sinh:1", sinh(1.0), fast),
        ("delta_s.sinh_closed", "sinh:2", sinh(2.0), fast),
        ("delta_s.sinh_bisect", "sinh:1.5", sinh(1.5), fast),
        ("delta_s.sinh_shallow", "sinh:0.7", sinh(0.7), size["count_shallow"]),
        ("delta_s.custom", "custom:sinh+(cosh-1)/2", custom_profile(), size["count_custom"]),
    ]


def delta_kernel(size: dict, seed: int, workdir: str) -> list:
    space = spaces.circle(size["n"], 2.0 * math.pi)
    seeds = np.random.SeedSequence(seed).generate_state(6)
    jobs = []
    for (cls, label, prof, count), job_seed in zip(delta_profiles(size), seeds):
        params = {"profile": label, "carrier": f"circle({size['n']})", "t_max": 10.0,
                  "count": count, "seed": int(job_seed)}

        def run(prof=prof, count=count, job_seed=int(job_seed)):
            return hyperbolicity.estimate_delta(prof, space, 10.0, count, job_seed)

        def check(report, count=count):
            problems = []
            if report.samples != count:
                problems.append(f"{report.samples} samples, expected {count}")
            if not report.delta_basepoint <= report.delta_bound_paper + 1e-6:
                problems.append(f"defect {report.delta_basepoint} above bound "
                                f"{report.delta_bound_paper}")
            return problems

        jobs.append(Job(cls, label, params, run, check))
    return jobs


def kernel_spot_checks(size: dict, seed: int) -> dict:
    """minimize_F_batch against scalar minimize_F per profile on a seeded
    sample of (d, tmax); criterion 7's |dF| <= 1e-8. Returns label -> problems."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    d = 10.0 ** rng.uniform(-6.0, 1.0, 64)
    tmax = rng.uniform(0.0, 10.0, 64)
    out = {}
    for _, label, prof, _ in delta_profiles(size):
        _, fmin = profiles.minimize_F_batch(prof, d, tmax)
        scalar = np.array([profiles.minimize_F(prof, float(a), float(b)).fmin
                           for a, b in zip(d, tmax)])
        worst = float(np.max(np.abs(fmin - scalar)))
        out[f"spot:{label}"] = [] if worst <= 1e-8 else [f"|dF| = {worst:.3e} > 1e-8"]
    return out


def _write_carriers(size: dict, seed: int, workdir: str) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    paths = {"circle": os.path.join(workdir, "circle.json"),
             "graph": os.path.join(workdir, "graph.json")}
    spaces.save_space(spaces.circle(size["n"], 2.0 * math.pi), paths["circle"])
    spaces.save_space(random_geometric_carrier(size["n"], rng), paths["graph"])
    return paths


def _cli_job(cls: str, name: str, argv: list, workdir: str, check, side=()) -> Job:
    out = os.path.join(workdir, f"{name}.out.json")
    argv = argv + ["--out", out]

    def run():
        return cli.main(argv)

    def checked(rc):
        if rc != 0:
            return [f"exit code {rc}"]
        with open(out) as fh:
            return check(json.load(fh)["result"])

    return Job(cls, name, {"argv": argv[:-2]}, run, checked, list(side))


def boundary_carrier(size: dict, seed: int, workdir: str) -> list:
    paths = _write_carriers(size, seed, workdir)
    jobs = []
    for carrier in ("circle", "graph"):
        jobs.append(_cli_job(
            "validate_s", f"validate-{carrier}",
            ["validate", "--space", paths[carrier], "--eps", "0.05"], workdir,
            lambda r: [] if r.get("valid") is True else ["validate did not report valid"]))
    runs = [("boundary_s.auto_eps", c, p, "auto") for c in ("circle", "graph")
            for p in ("exp:1", "sinh:1")]
    runs.append(("boundary_s.wide_eps", "graph", "exp:1", "1"))
    for cls, carrier, prof, eps in runs:
        name = f"boundary-{carrier}-{prof.replace(':', '')}-eps{eps}"
        prefix = os.path.join(workdir, name)
        snowflake = carrier == "circle" and prof == "exp:1"
        jobs.append(_cli_job(
            cls, name,
            ["boundary", "--space", paths[carrier], "--profile", prof, "--eps", eps,
             "--plot-data", "--out-prefix", prefix], workdir,
            lambda r, snowflake=snowflake: _check_boundary(r, snowflake),
            side=[f"{prefix}_premetric.csv", f"{prefix}_chained.csv",
                  f"{prefix}_snowflake.dat"]))
    return jobs


def _check_boundary(result: dict, snowflake: bool) -> list:
    """chained <= premetric entrywise, read back from the CSV side files;
    chained >= premetric/2 when eps is in the guaranteed range; and the
    snowflake fit for exp:1 on the circle. The fit is checked only there:
    on circles of 48 or more nodes its exponent is within the 2% tolerance
    of eps/alpha, while on some random graphs it is 3-5% off."""
    pre = np.loadtxt(result["premetric_csv"], delimiter=",")
    chained = np.loadtxt(result["chained_csv"], delimiter=",")
    problems = []
    if not np.all(chained <= pre):
        problems.append("chained > premetric in the CSVs")
    if not result["eps_warning"]:
        if not np.all(chained >= 0.5 * pre):
            problems.append("chained < premetric/2 in the CSVs")
        if snowflake and not result["snowflake"]["passed"]:
            problems.append("snowflake check did not pass")
    return problems


def poincare_filling(size: dict, seed: int, workdir: str) -> list:
    paths = _write_carriers(size, seed, workdir)
    fill = ["--beta", "2", "--p", "1.5", "--tmax", size["fill_tmax"], "--dt", size["fill_dt"]]

    def all_passed(r):
        bad = [x["name"] for x in r["reports"] if x["passed"] is not True]
        return [f"reports not passed: {bad}"] if bad else []

    def demonstrated(r):
        return [] if r["verdict"] == "failure demonstrated" else [f"verdict {r['verdict']!r}"]

    jobs = [
        _cli_job("poincare_s.filling", "filling-circle-exp",
                 ["poincare", "--space", paths["circle"], "--model", "exp"] + fill,
                 workdir, all_passed),
        _cli_job("poincare_s.filling", "filling-graph-sinh",
                 ["poincare", "--space", paths["graph"], "--model", "sinh"] + fill,
                 workdir, all_passed),
        _cli_job("poincare_s.halfline", "halfline",
                 ["poincare", "--beta", "1", "--p", "1.5", "--tmax", size["half_tmax"],
                  "--dt", size["half_dt"]], workdir, all_passed),
    ]
    for p in ("2", "1.5"):
        jobs.append(_cli_job(
            "counterexample_s", f"counterexample-p{p}",
            ["counterexample", "--space", paths["circle"], "--schedule", "10,20,40",
             "--dt", size["ce_dt"], "--p", p], workdir, demonstrated))
    return jobs


# name -> (function making the job list, once-per-run checks or None)
WORKLOADS = {
    "delta-kernel": (delta_kernel, kernel_spot_checks),
    "boundary-carrier": (boundary_carrier, None),
    "poincare-filling": (poincare_filling, None),
}
