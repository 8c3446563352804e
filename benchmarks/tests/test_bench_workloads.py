"""A small-size round of every workload runs to its end, passes its checks
(the known verify fault aside), and shows the predicted per-layer split; and
the benchmark refuses to run where there are no sources."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tracer import Tracer  # noqa: E402
from worker import check_all, run_rounds, sites_per_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# calls that must not happen on a workload: the layer is bypassed there
BYPASSED = {
    "census": ("topology.", "serialize.read", "serialize.write_outmap", "serialize.write_weights",
               "svgexport.", "cli.generate", "cli.verify", "cli.export"),
    "artifacts": ("topology.", "stats.", "cli.census"),
    "regions": ("serialize.", "svgexport.", "cli.", "stats."),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_round_completes(name, tmp_path):
    wl = WORKLOADS[name](tmp_path / "work", seed=4, small=True)
    wl.setup()
    wl.warmup()
    tr = Tracer().install()
    try:
        done = run_rounds(wl, 1, tmp_path / "out")
    finally:
        tr.remove()
    failed, _ = check_all(wl, done)
    expected = [op.label for op, *_ in done[0] if op.label.startswith("verify zm")]
    assert [f.split(":")[0] for f in failed] == expected
    assert sites_per_s(done) > 0
    calls = {k: v for k, v in tr.metrics().items() if k.endswith(".calls")}
    used = [k for k, v in calls.items() if v and k.startswith(BYPASSED[name])]
    assert used == []
    assert tr.absent == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "census",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_what_the_runs_print():
    import json

    import run
    from tracer import metric_names

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        metric_names() + [("trace.overhead_s", "s")]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS) == sorted(run.WORKLOADS)
