"""Alternating base/head pairs of the nnlab benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --base REV --head REV --seed N --label NAME

Run it from inside the git repository.  Each revision is extracted with
``git archive`` into a fresh temporary directory, and ``benchmarks/run.py``
runs from there, so both sides run their committed files and nothing else.
Every workload of the head's ``BENCHMARK.json`` gets 10 pairs of runs of its
``run_seconds`` each; pair k runs the base first when k is even and the head
first when it is odd.
The file ``BENCH_<yyyymmdd>_<label>.json`` in the current directory records
both shas, the Python/numpy/scipy versions, ``os.cpu_count()``, every run's
end-to-end metrics, and per metric each side's median and quartiles
(``statistics.quantiles``, inclusive method), the ratio of the medians and
the number of pairs the head won.  Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

PAIRS = 10
SIDES = ("base", "head")


def git(*args) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def extract(sha: str, into: Path) -> Path:
    """The committed tree of sha, as files under into."""
    blob = subprocess.run(["git", "archive", "--format=tar", sha], check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return into


def versions() -> dict:
    probe = "import json, numpy, scipy; print(json.dumps([numpy.__version__, scipy.__version__]))"
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True, text=True)
    numpy_v, scipy_v = json.loads(out.stdout)
    return {"python": platform.python_version(), "numpy": numpy_v, "scipy": scipy_v,
            "cpu_count": os.cpu_count(), "machine": platform.machine()}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["metrics"] = {k: v["value"] for k, v in res["metrics"].items()}
    return res


def summary(pairs: list, better: dict) -> dict:
    out = {}
    for name in pairs[0]["base"]["metrics"]:
        row = {"better": better.get(name)}
        for side in SIDES:
            vals = [p[side]["metrics"][name] for p in pairs]
            q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            row[side] = {"median": med, "q1": q1, "q3": q3}
        row["ratio"] = row["head"]["median"] / row["base"]["median"]
        sign = {"higher": 1, "lower": -1}.get(row["better"], 0)
        row["head_better_pairs"] = sum(
            sign * (p["head"]["metrics"][name] - p["base"]["metrics"][name]) > 0 for p in pairs)
        row["pairs"] = len(pairs)
        out[name] = row
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision measured as the parent")
    ap.add_argument("--head", required=True, help="git revision measured as the change")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--label", required=True, help="file-name label, e.g. the change's topic")
    args = ap.parse_args(argv)

    shas = {side: git("rev-parse", "--verify", f"{getattr(args, side)}^{{commit}}") for side in SIDES}
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        trees = {side: extract(sha, tmp / side) for side, sha in shas.items()}
        spec = json.loads((trees["head"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        seconds = spec["run_seconds"]
        doc = {
            "label": args.label,
            "date": datetime.date.today().isoformat(),
            "command": f"python3 benchmarks/run.py --workload W --seed {args.seed} --seconds {seconds}",
            "shas": shas,
            "host": versions(),
            "workloads": {},
        }
        for wl in (w["name"] for w in spec["workloads"]):
            pairs = []
            for k in range(PAIRS):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], wl, args.seed, seconds)
                pairs.append(pair)
                print(f"{wl} pair {k + 1}/{PAIRS}: " + ", ".join(
                    f"{side} sites_per_s {pair[side]['metrics']['sites_per_s']:.4g}"
                    for side in SIDES), flush=True)
            doc["workloads"][wl] = {"pairs": pairs, "summary": summary(pairs, better)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    path = Path(f"BENCH_{datetime.date.today():%Y%m%d}_{args.label}.json")
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for wl, body in doc["workloads"].items():
        for name, row in body["summary"].items():
            b, h = row["base"], row["head"]
            print(f"{wl} {name}: base {b['median']:.4g} ({b['q1']:.4g}-{b['q3']:.4g}), "
                  f"head {h['median']:.4g} ({h['q1']:.4g}-{h['q3']:.4g}), "
                  f"x{row['ratio']:.3f}, head better in {row['head_better_pairs']}/{row['pairs']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
