"""One workload run in a fresh interpreter; started by run.py, not by hand.

Set-up (imports, spec files, one warm-up operation) is timed from the moment
the parent started this interpreter.  Then whole rounds of operations run
until the run's seconds are used, each operation timed on its own with
garbage collected before it; a round that starts is finished.  Peak RSS is
read when the first round ends, before any check runs.  The last line of
standard output is one JSON object.

With --trace 1 the worker runs a fixed number of rounds three times with the
same seeds: untraced, traced, untraced.  Call and byte counts of the traced
pass repeat exactly, and its wall time minus the mean of the untraced passes
is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

TRACE_ROUNDS = 1


def run_rounds(wl, rounds, outdir: Path, seconds: float = 0.0, on_first_round=None) -> list:
    """Run rounds 0, 1, ... (a fixed count, or until `seconds` of timed work)
    and return, per round, (op, kept result, seconds) per operation."""
    done = []
    timed = 0.0
    while (len(done) < rounds) if rounds else (not done or timed < seconds):
        r = len(done)
        ops = []
        for op in wl.round_ops(r, outdir / f"r{r}"):
            gc.collect()
            t0 = time.perf_counter()
            result = op.run()
            dt = time.perf_counter() - t0
            timed += dt
            ops.append((op, op.keep(result), dt))
            del result
        done.append(ops)
        if on_first_round is not None and len(done) == 1:
            on_first_round()
    gc.collect()
    return done


def sites_per_s(rounds: list) -> float:
    """Lattice sites taken through all timed operations over their total time."""
    return sum(op.sites for ops in rounds for op, *_ in ops) / wall(rounds)


def wall(rounds: list) -> float:
    return sum(dt for ops in rounds for *_, dt in ops)


def check_all(wl, done) -> tuple:
    failed = []
    for op, kept, _ in (item for ops in done for item in ops):
        probs = op.check(kept)
        if probs:
            failed.append(f"{op.label}: {'; '.join(probs)}")
    return failed, wl.final_problems()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--rundir", required=True)
    args = ap.parse_args(argv)

    import nnlab
    from workloads import WORKLOADS

    src = Path(__file__).resolve().parent.parent / "src" / "nnlab"
    if Path(nnlab.__file__).resolve().parent != src:
        print(f"nnlab was imported from {nnlab.__file__}, not from {src}", file=sys.stderr)
        return 2

    rundir = Path(args.rundir)
    wl = WORKLOADS[args.workload](rundir / "work", args.seed)
    wl.setup()
    wl.warmup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result: dict = {}
    if args.trace:
        from tracer import Tracer

        before = run_rounds(wl, TRACE_ROUNDS, rundir / "before")
        tracer = Tracer().install()
        try:
            traced = run_rounds(wl, TRACE_ROUNDS, rundir / "traced")
        finally:
            tracer.remove()
        after = run_rounds(wl, TRACE_ROUNDS, rundir / "after")
        done = before + traced + after
        metrics = tracer.metrics()
        # untraced passes on both sides, so a pass that warms the allocator
        # or the page cache for the next one does not bias the difference
        metrics["trace.overhead_s"] = wall(traced) - (wall(before) + wall(after)) / 2
        tracer.dump(rundir.parent / f"trace-{args.workload}-seed{args.seed}.json")
        result["absent"] = tracer.absent
    else:
        # peak RSS through the first round: the same work in every run,
        # however many rounds the run's seconds allow
        peak_kb = []
        done = run_rounds(wl, 0, rundir / "timed", seconds=args.seconds, on_first_round=lambda:
                          peak_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
        metrics = {
            "setup_s": setup_s,
            "sites_per_s": sites_per_s(done),
            "peak_rss_mb": peak_kb[0] / 1024.0,
        }
    failed, run_problems = check_all(wl, done)
    result.update({
        "metrics": metrics,
        "attempted": sum(len(ops) for ops in done),
        "failed": len(failed),
        "failures": failed,
        "problems": run_problems,
        "timed_s": wall(done),
        "ops": [[op.label, dt] for ops in done for op, _, dt in ops],
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
