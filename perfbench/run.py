"""warpfill benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root; the program is imported from ./src. After a
repeated set-up (inputs, files, warm-up), the workload's fixed job list is
run in a loop, one job at a time, until --seconds have passed. Every job's
output is checked outside the timed region. The last stdout line is one
JSON object {correct, attempted, failed, metrics}: end-to-end metrics with
--trace 0, per-layer metrics from span tracing with --trace 1 (which
alternates untraced and traced passes to measure the tracing overhead). The
line before it holds the details: environment, job parameters, per-job
medians and sample counts, and any failures.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench_out"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    return parser.parse_args(argv)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


class Run:
    """Executes jobs, times them and tallies attempts and failures."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.untraced = defaultdict(list)    # job name -> seconds
        self.traced = defaultdict(list)      # job name -> (seconds, layer totals)
        self.side_bytes = {}
        self._job_id = 0

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"job": label, "problems": problems[:3]})

    def execute(self, job, traced: bool = False) -> None:
        gc.collect()
        self._job_id += 1
        problems, totals = [], None
        start = perf_counter()
        try:
            if traced:
                out, seconds, totals = self.tracer.run_job(self._job_id, job.run)
            else:
                out = job.run()
                seconds = perf_counter() - start
        except (Exception, SystemExit) as exc:
            seconds = perf_counter() - start
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            try:
                problems = job.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            self.side_bytes[job.name] = sum(os.path.getsize(p) for p in job.side_files
                                            if os.path.exists(p))
        self.record(job.name, problems)
        if totals is None:
            self.untraced[job.name].append(seconds)
        else:
            self.traced[job.name].append((seconds, totals))

    def loop(self, jobs: list, seconds: float, trace: bool) -> None:
        """Closed loop over the job list until `seconds` have passed. Traced
        runs alternate untraced and traced passes and make at least two."""
        min_passes = 2 if trace else 1
        start = perf_counter()
        k = 0
        while True:
            for job in jobs:
                if k >= min_passes and perf_counter() - start >= seconds:
                    return
                self.execute(job, traced=trace and k % 2 == 1)
            k += 1


def end_to_end(run: Run, jobs: list, setup_s: float) -> tuple:
    """End-to-end metrics from the untraced executions, and per-class times."""
    medians = {j.name: statistics.median(run.untraced[j.name]) for j in jobs}
    by_class = defaultdict(list)
    for j in jobs:
        by_class[j.cls].append(medians[j.name])
    class_s = {c: statistics.fmean(v) for c, v in by_class.items()}
    geomean = math.exp(statistics.fmean(math.log(v) for v in class_s.values()))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(medians.values()), "s"),
        "job_geomean_s": (geomean, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, class_s


def per_layer(run: Run, jobs: list) -> dict:
    """Sum over the job list of each job's median traced execution (the
    one whose time is the median, so its layer figures add up)."""
    from tracing import KERNEL_KINDS

    totals = Counter()
    trace_wall = 0.0
    for j in jobs:
        samples = sorted(run.traced[j.name], key=lambda s: s[0])
        seconds, job_totals = samples[(len(samples) - 1) // 2]
        trace_wall += seconds
        totals.update(job_totals)
    untraced_wall = sum(statistics.median(run.untraced[j.name]) for j in jobs)
    self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    run.record("trace:self-times-add-up",
               [] if abs(self_sum - trace_wall) <= 1e-9 * max(1.0, trace_wall)
               else [f"self times {self_sum} != traced wall {trace_wall}"])

    def t(key):
        return float(totals.get(key, 0.0))

    m = {}
    for kind in KERNEL_KINDS:
        busy = t(f"profiles.minimize_F_batch.{kind}.busy_s")
        evals = t(f"evals.{kind}")
        m[f"profiles.minimize_F_batch.busy_s.{kind}"] = (busy, "s")
        m[f"profiles.minimize_F_batch.evals.{kind}"] = (evals, "count")
        m[f"profiles.minimize_F_batch.evals_per_s.{kind}"] = (evals / busy if busy else 0.0,
                                                             "1/s")
    entries = t("closure.entries")
    for key, unit in [
        ("profiles.sup_G_batch.busy_s", "s"),
        ("profiles.sup_G_batch.self_s", "s"),
        ("warped.gromov_product_batch.self_s", "s"),
        ("hyperbolicity.estimate_delta.self_s", "s"),
        ("hyperbolicity.boundary_metric.self_s", "s"),
        ("hyperbolicity.snowflake_check.busy_s", "s"),
        ("spaces.load_space.self_s", "s"),
        ("spaces.validate_matrix.busy_s", "s"),
        ("spaces.approx_length_check.busy_s", "s"),
        ("spaces.adjacency.busy_s", "s"),
        ("poincare.build_filling_graph.busy_s", "s"),
        ("poincare.FillingGraph.edges.self_s", "s"),
        ("poincare.discrete_upper_gradient.self_s", "s"),
        ("poincare.optimal_subtracted_constant.busy_s", "s"),
        ("poincare.optimal_subtracted_constant.calls", "count"),
        ("poincare.builtin_filling_family.self_s", "s"),
        ("poincare.filling_verifier.self_s", "s"),
        ("poincare.halfline_verifier.self_s", "s"),
        ("poincare.counterexample_suite.self_s", "s"),
        ("cli.main.self_s", "s"),
        ("bench.job.self_s", "s"),
    ]:
        m[key] = (t(key), unit)
    m["hyperbolicity.closure.changed_frac"] = (
        t("closure.lowered") / entries if entries else 0.0, "ratio")
    m["spaces.adjacency.computes"] = (t("adjacency.computes"), "count")
    m["spaces.adjacency.edges"] = (t("adjacency.edges"), "count")
    m["poincare.nodes"] = (t("poincare.nodes"), "count")
    m["poincare.edges"] = (t("poincare.edges"), "count")
    m["cli.side_file_bytes"] = (float(sum(run.side_bytes.get(j.name, 0) for j in jobs)), "B")
    m["trace.wall_s"] = (trace_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (trace_wall - untraced_wall, "s")
    m["trace.spans"] = (t("trace.spans"), "count")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    src = ROOT / "src"
    if not (src / "warpfill" / "__init__.py").is_file():
        print(f"error: no warpfill sources under {src}", file=sys.stderr)
        return 2

    start = perf_counter()
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import warpfill
    import warpfill.cli  # noqa: F401  (the CLI is not imported by the package)
    if Path(warpfill.__file__).resolve().parent != src / "warpfill":
        print(f"error: imported warpfill from {warpfill.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer
    import_s = perf_counter() - start

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build, final_checks = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES["smoke" if args.smoke else "full"]
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer()
    run = Run(tracer)
    try:
        setup_reps = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            shutil.rmtree(workdir, ignore_errors=True)
            (workdir / "warmup").mkdir(parents=True)
            jobs = build(size, args.seed, str(workdir))
            for job in build(workloads.SIZES["smoke"], args.seed, str(workdir / "warmup")):
                run.execute(job)
            setup_reps.append(perf_counter() - t0)
        run.untraced.clear()
        setup_s = import_s + statistics.median(setup_reps)

        run.loop(jobs, args.seconds, bool(args.trace))
        if final_checks is not None:
            for label, problems in final_checks(size, args.seed).items():
                run.record(label, problems)

        metrics, class_s = end_to_end(run, jobs, setup_s)
        if args.trace:
            metrics = per_layer(run, jobs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    trace_file = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.dump()))
    why = {w["name"]: w["why"]
           for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    detail = {
        "workload": args.workload, "why": why.get(args.workload),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "closed_loop": "one process, one client, one job at a time",
        "env": {"git_sha": git_sha(), "nproc": nproc, "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "warpfill": warpfill.__version__,
                "threads": {v: os.environ[v] for v in THREAD_VARS}},
        "import_s": import_s, "setup_reps_s": setup_reps,
        "jobs": [{"name": j.name, "class": j.cls, "params": j.params,
                  "untraced_samples": len(run.untraced[j.name]),
                  "traced_samples": len(run.traced[j.name]),
                  "median_s": statistics.median(run.untraced[j.name])} for j in jobs],
        "class_s": class_s,
        "failures": run.failures[:20],
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    print(json.dumps({"detail": detail}))
    failed = len(run.failures)
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
