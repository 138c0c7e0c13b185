"""Self-test of the benchmark: a smoke-size run of every workload, untraced
and traced, must finish with no failed check and print every metric named
in BENCHMARK.json with its unit; and without the program's sources the
benchmark must exit nonzero without a result.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            before = len(errors)
            proc = run(ROOT, workload, trace)
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
                errors.append(f"{label}: failed {result['failed']}/{result['attempted']}: "
                              f"{detail['failures'][:3]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                              f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            print(("ok  " if len(errors) == before else "BAD ") + label, flush=True)

    bare = ROOT / "perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("without src/ the benchmark did not fail")
        else:
            print("ok  fails without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("error:", e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
