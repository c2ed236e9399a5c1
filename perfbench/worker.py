"""One timed pass of a benchmark workload's job list, in a process of its own.

Usage: python3 perfbench/worker.py SPEC.json OUT.json

run.py writes SPEC (job list, warm-up commands, trace flag) and starts this
script once per pass, with one BLAS/OpenMP thread; the result goes to OUT.
A fresh process per pass means nothing the program keeps in memory carries
over from one pass to the next, as for a user who starts the CLI for every
call.  One client runs the job list in a closed loop, each job only after
the previous one returned.  A traced pass wraps the layers (tracing.py).

Times are CPU seconds (user + system) of this process and of any child
process it waited for (clock.py).  The program is compute-bound, so on an
idle machine they equal wall seconds; they leave out time spent waiting for
a CPU that another process holds.  A calibration runs before the first job
and after every job, outside the job's time, so that run.py can scale each
job's time to the reference host speed.  Wall seconds of the pass are
recorded beside them.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

import tracing
from clock import calibrate, cpu_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_job(irrev, job) -> tuple[object, str]:
    """Run one job in-process; returns (exit code or error text, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if job["kind"] == "rect":
                t = irrev.tensor.read_tensor(job["path"])
                print(repr(irrev.barriers.barrier_rect(t, *job["rect"])))
                rc = 0
            else:
                rc = irrev.cli.main(job["argv"])
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback is a failed job, not a failed run
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    import irrev
    import irrev.cli

    for argv in spec["warmup"]:
        run_job(irrev, {"kind": "cli", "argv": argv})
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()

    outputs: list[list] = []
    latencies: list[float] = []
    calibrations = [calibrate()]
    wall = time.perf_counter()
    for job in spec["jobs"]:
        t0 = cpu_seconds()
        if tracer:
            tracer.job = job["id"]
            rc, text = tracer.call("job", run_job, (irrev, job))
        else:
            rc, text = run_job(irrev, job)
        latencies.append(cpu_seconds() - t0)
        outputs.append([rc, text])
        calibrations.append(calibrate())
    wall = time.perf_counter() - wall

    result = {
        "wall_seconds": wall,
        "traced": bool(tracer),
        "latencies": latencies,
        "calibrations": calibrations,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer.spans)
        Path(spec["spans_path"]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
