#!/usr/bin/env python3
"""Benchmark of the irrev package: real CLI jobs, timed end to end and by layer.

Usage (from the repository root):
    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads are certify, structured, diag and oracle (see README.md).  The
inputs are generated from --seed and written as tensor files; setup_s is
measured on fresh interpreters; the job list then runs a number of passes
that takes about --seconds seconds on the reference machine, each pass in a
fresh worker process with one BLAS/OpenMP thread; every answer is checked
by code independent of the package.  Times are CPU seconds scaled to a
reference host speed (clock.py).  With --trace 0 the last line of output is
a JSON object with the end-to-end metrics, with --trace 1 the per-layer
metrics of a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import jobs as workloads
from clock import calibrate, scale
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

SETUP_REPEATS = 7
# Passes of each job list that take about 20 s on the reference machine
# (2-core x86_64, Python 3.11, numpy 2.4).  A run makes this many passes
# scaled to --seconds, at least two: a fixed amount of work rather than a
# fixed time, so that the percentiles are taken over the same number of
# samples on every commit.
PASSES_PER_20S = {"certify": 3, "structured": 3, "diag": 4, "oracle": 3}
# A run ends within this many wall seconds or fails.
RUN_TIMEOUT_S = 165
# A later pass that takes less than this share of the first pass's time
# (first passes of at least REUSE_MIN_S) reuses work across processes, say
# through a cache on disk, and fails the run: a CLI user would not get that
# speed, and the per-job medians would hide it.
REUSE_RATIO = 0.5
REUSE_MIN_S = 1.0

END_TO_END_UNITS = {"jobs_per_s": "jobs/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed with every untraced run but not in the result line: across ten
# seeds their spread on the reference machine reached more than a third of
# the largest allowed bound on some workloads (README).
LATENCY_UNITS = {"job_p50_s": "s", "job_tail_s": "s"}

SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import irrev, irrev.cli; "
    "[irrev.read_tensor(p) for p in sys.argv[1:]]"
)


def bench_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(files: list[str], env: dict, deadline: float) -> tuple[list[float], list[float]]:
    """Cold start as a CLI user pays it: fresh interpreter, import, parse
    inputs.  CPU seconds (user + system) of the child, like every other time;
    returns them raw and scaled to the reference speed by the calibrations
    made here before and after each start."""
    raw, scaled = [], []
    cal = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = _children_cpu()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *files], cwd=ROOT, env=env,
                       check=True, timeout=max(1.0, deadline - time.monotonic()))
        raw.append(_children_cpu() - t0)
        after = calibrate()
        scaled.append(raw[-1] * scale(cal, after))
        cal = after
    return raw, scaled


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it,
    and that percentile."""
    xs = sorted(latencies)
    n = len(xs)
    idx = n - 11 if n >= 11 else n - 1
    return xs[idx], 100.0 * (idx + 1) / n


def run_pass(workdir: Path, env: dict, job_list, warmup, traced: bool, spans: Path,
             deadline: float) -> dict:
    """One pass of the job list in a fresh worker process."""
    spec_path, out_path = workdir / "spec.json", workdir / "out.json"
    spec = {"jobs": job_list, "warmup": warmup, "trace": traced, "spans_path": str(spans)}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out_path.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(out_path)],
                   cwd=ROOT, env=env, check=True, timeout=max(1.0, deadline - time.monotonic()))
    res = json.loads(out_path.read_text(encoding="utf-8"))
    cal = res["calibrations"]
    res["scaled"] = [t * scale(cal[j], cal[j + 1]) for j, t in enumerate(res["latencies"])]
    res["seconds"] = sum(res["scaled"])
    return res


def per_job(passes: list[dict]) -> list[float]:
    """Each job's median scaled latency over the passes."""
    return [statistics.median(col) for col in zip(*(p["scaled"] for p in passes))]


def reuse_check(passes: list[dict]) -> list[str]:
    first = passes[0]["seconds"]
    if first < REUSE_MIN_S:
        return []
    return [f"pass {k} took {p['seconds']:.3g} scaled CPU s against {first:.3g} for the first: "
            f"work reused across processes" for k, p in enumerate(passes[1:], 2)
            if p["seconds"] < REUSE_RATIO * first]


def merge_layers(per_pass: list[dict]) -> dict:
    """Per-layer metrics per pass: the mean over the traced passes (their
    counts are equal), the largest residual of any."""
    out = {k: statistics.fmean(d[k] for d in per_pass) for k in per_pass[0]}
    out["entropy.rho_max_residual"] = max(d["entropy.rho_max_residual"] for d in per_pass)
    return out


def check_outputs(job_list, tensors, outputs) -> tuple[int, int, list[str]]:
    """outputs[j] maps each distinct (exit code, stdout) of job j to its count."""
    attempted = failed = 0
    reasons = []
    for job, seen in zip(job_list, outputs):
        for (rc, stdout), count in seen.items():
            attempted += count
            why = checks.check(job, tensors.get(job.get("tensor")), rc, stdout)
            if why:
                failed += count
                reasons.append(f"{job['id']}: {why}")
    return attempted, failed, reasons


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="short job lists, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "irrev" / "__init__.py").is_file():
        print(f"error: no irrev sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir = WORK / run_id
    deadline = time.monotonic() + RUN_TIMEOUT_S
    n_passes = max(2, round(PASSES_PER_20S[args.workload] * args.seconds / 20))
    try:
        job_list, tensors, warmup = workloads.build(args.workload, args.seed, workdir, ROOT, args.tiny)
        env = bench_env()
        setup_raw, setup = ([], []) if args.trace else measure_setup(
            sorted({str((workdir / f"{name}.json").relative_to(ROOT)) for name in tensors}), env,
            deadline)
        passes = []
        for n in range(n_passes):
            traced = bool(args.trace) and n % 2 == 1
            spans = WORK / f"spans-{args.workload}-seed{args.seed}-pass{n}.json"
            passes.append(run_pass(workdir, env, job_list, warmup, traced, spans, deadline))
    except (OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outputs = [{} for _ in job_list]
    for p in passes:
        for seen, (rc, text) in zip(outputs, p["outputs"]):
            seen[(rc, text)] = seen.get((rc, text), 0) + 1
    attempted, failed, reasons = check_outputs(job_list, tensors, outputs)
    timed = [p for p in passes if not p["traced"]]
    reasons += reuse_check(timed)
    for why in reasons:
        print(f"FAILED {why}")
    n = len(job_list)
    job_s = per_job(timed)
    print(f"workload {args.workload}  seed {args.seed}  jobs per pass {n}  "
          f"passes {len(timed)} untraced, {len(passes) - len(timed)} traced, one process each")
    raw = " ".join(f"{sum(p['latencies']):.2f}" for p in passes)
    scaled = " ".join(f"{p['seconds']:.2f}" for p in passes)
    print(f"CPU s per pass {raw}, scaled {scaled}; "
          f"wall {sum(p['wall_seconds'] for p in passes):.1f} s")
    print(f"machine  nproc {os.cpu_count()}  python {passes[0]['python']}  "
          f"numpy {passes[0]['numpy']}  {platform.machine()}")
    print(f"fail_frac {failed / attempted:.6g} ratio  ({failed} of {attempted} jobs)")

    if args.trace:
        layers = merge_layers([p["layers"] for p in passes if p["traced"]])
        layers["trace.jobs_per_s"] = n / sum(per_job([p for p in passes if p["traced"]]))
        layers["trace.overhead_frac"] = (n / sum(job_s)) / layers["trace.jobs_per_s"] - 1.0
        metrics = {name: metric(layers[name], unit) for name, unit in PER_LAYER.items()}
    else:
        lat = [x for p in timed for x in p["scaled"]]
        tail_s, pct = tail(lat)
        values = {
            "jobs_per_s": n / sum(job_s),
            "job_p50_s": statistics.median(job_s),
            "job_tail_s": tail_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in timed),
        }
        notes = {
            "jobs_per_s": f"{n} jobs over the sum of each job's median of {len(timed)} passes",
            "job_p50_s": f"{n} jobs, each the median of {len(timed)} passes",
            "job_tail_s": f"p{pct:.1f} of {len(lat)} samples",
            "setup_s": f"median of {len(setup)} cold starts, "
                       f"{statistics.median(setup_raw):.4g} s unscaled",
            "peak_rss_mb": "ru_maxrss, largest of the worker processes",
        }
        for name, unit in LATENCY_UNITS.items():
            print(f"{name} {values[name]:.6g} {unit}  ({notes[name]})")
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        note = "" if args.trace else f"  ({notes[name]})"
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    ok = failed == 0 and not reasons and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
