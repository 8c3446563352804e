"""nnlab benchmark: one workload per run, every output checked.

    python3 benchmarks/run.py --workload census|artifacts|regions \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports nnlab from ./src.  Every
interpreter it starts is single-threaded (NN_LAB_THREADS and the BLAS/OpenMP
thread counts are 1).  Set-up is measured in several fresh interpreters and
reported as their median; the timed operations run in one more.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1.  Run files and traces go to ./.bench/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "artifacts", "regions")
SETUP_SAMPLES = 3  # set-up is timed in this many interpreters, the last one runs the workload
DEADLINE_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "sites_per_s": "1/s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("NN_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, rundir: Path, timeout: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rundir", str(rundir)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker for {args.workload} did not finish within {DEADLINE_S:.0f} s")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker for {args.workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    if not (ROOT / "src" / "nnlab" / "__init__.py").is_file():
        print(f"no nnlab sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    bench = ROOT / ".bench"
    bench.mkdir(exist_ok=True)
    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(args, bench / f"{args.workload}-{os.getpid()}-setup{i}",
                                     DEADLINE_S - (time.monotonic() - start), True)["setup_s"])
    res = run_worker(args, bench / f"{args.workload}-{os.getpid()}",
                     DEADLINE_S - (time.monotonic() - start), False)

    (bench / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(res, indent=1) + "\n")
    metrics = res["metrics"]
    units = END_TO_END_UNITS
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import metric_names

        units = dict(metric_names())
        units["trace.overhead_s"] = "s"
        for name in res.get("absent", []):
            print(f"absent from the program (reported as 0): {name}")
    else:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
    for line in res["failures"]:
        print(f"failed: {line}")
    for line in res["problems"]:
        print(f"incorrect: {line}")
    print(f"{args.workload} seed {args.seed}: {res['attempted']} operations, "
          f"{res['failed']} failed, {res['timed_s']:.2f} s timed")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
