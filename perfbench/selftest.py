#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Usage (from the repository root):
    python3 perfbench/selftest.py

For each workload it runs a tiny job list once untraced and twice traced
with the same seed, and asserts that every metric named in BENCHMARK.json is
reported with its unit, that no job failed, and that the work counts repeat
exactly between the two traced runs.  It also checks that the benchmark
refuses to run, printing no result, where the package sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

EXACT_COUNTS = ("entropy.rho_iterations", "linalg.rank_nnz", "entropy.oracle_grid_points",
                "diagonal.search_points", "barriers.theta_rho_calls")


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(workload: str, trace: int) -> dict:
    rc, lines = run(workload, trace)
    assert rc == 0 and lines, f"{workload} trace={trace}: exit {rc}"
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = [result(wl, trace) for _ in range(1 + trace)]
            for res in runs:
                assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
                assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
                names = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                assert got == names, f"{wl}: metrics {sorted(set(got) ^ set(names))} differ"
            if trace:
                a, b = (r["metrics"] for r in runs)
                for name in EXACT_COUNTS:
                    assert a[name]["value"] == b[name]["value"], f"{wl}: {name} does not repeat"
        print(f"ok {wl}")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, lines = run(spec["workloads"][0]["name"], 0, cwd=bare)
        assert rc != 0 and not any(line.startswith("{") for line in lines), "ran without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without the package sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
