"""On-disk formats, reproducibility, SVG export, and the CLI contract."""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from nnlab.cli import main
from nnlab.lattice import Box, Torus
from nnlab.nngraph import OutMap, build_nn_directed, undirected_components
from nnlab.rng import SeededRng
from nnlab.generators import GeneratorSpec, gen_zerner_merkl
from nnlab.serialize import (
    file_sha256,
    read_outmap_jsonl,
    read_weights_csv,
    write_outmap_jsonl,
    write_weights_csv,
)
from nnlab.svgexport import render_outmap_svg, render_regions_svg
from nnlab.weights import sample_iid_uniform

from conftest import vertex_priority_digraph


def test_outmap_jsonl_roundtrip(tmp_path):
    g = vertex_priority_digraph(Torus((5, 4)), 3)
    path = tmp_path / "g.jsonl"
    write_outmap_jsonl(g, path)
    assert read_outmap_jsonl(path) == g


def test_weights_csv_bit_exact(tmp_path):
    dom = Torus((6, 5))
    w = sample_iid_uniform(dom, SeededRng(11))
    path = tmp_path / "w.csv"
    write_weights_csv(w, path)
    w2 = read_weights_csv(path)
    assert w2 == w  # hex floats reload exactly


def test_svg_deterministic():
    g = gen_zerner_merkl(8, SeededRng(2))
    assert render_outmap_svg(g) == render_outmap_svg(g)
    assert render_outmap_svg(g).startswith("<svg")


def test_svg_regions():
    from nnlab.topology import classify_regions

    g = gen_zerner_merkl(8, SeededRng(2))
    rc = classify_regions(undirected_components(g), g.dom)
    svg = render_regions_svg(rc)
    assert "hatch" in svg and svg.startswith("<svg")


def test_cli_generate_and_determinism(tmp_path):
    runner = CliRunner()
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        res = runner.invoke(
            main, ["generate", "--model", "zerner_merkl", "--torus", "16x16",
                   "--seed", "7", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
    assert file_sha256(out1 / "graph.jsonl") == file_sha256(out2 / "graph.jsonl")
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 7
    assert "spec_hash" in manifest


def test_cli_generate_iid_with_weights(tmp_path):
    runner = CliRunner()
    out = tmp_path / "iid"
    res = runner.invoke(
        main, ["generate", "--model", "iid", "--torus", "12x12", "--seed", "1",
               "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    assert (out / "weights.csv").exists()
    w = read_weights_csv(out / "weights.csv")
    g = read_outmap_jsonl(out / "graph.jsonl")
    assert build_nn_directed(w) == g


def test_cli_verify_pass_and_corruption(tmp_path):
    runner = CliRunner()
    out = tmp_path / "run"
    res = runner.invoke(
        main, ["generate", "--model", "iid", "--torus", "10x10", "--seed", "3",
               "--out", str(out)]
    )
    assert res.exit_code == 0
    res = runner.invoke(main, ["verify", "--in", str(out)])
    assert res.exit_code == 0, res.output

    # corrupt: rewire four vertices into a directed unit square (length-4 cycle)
    g = read_outmap_jsonl(out / "graph.jsonl")
    g.set_out((0, 0), (1, 0))
    g.set_out((1, 0), (1, 1))
    g.set_out((1, 1), (0, 1))
    g.set_out((0, 1), (0, 0))
    write_outmap_jsonl(g, out / "graph.jsonl")
    (out / "weights.csv").unlink()
    res = runner.invoke(main, ["verify", "--in", str(out)])
    assert res.exit_code == 1
    assert "long_cycles" in res.output
    report, _ = json.JSONDecoder().raw_decode(res.output[res.output.index("{"):])
    assert report["suites"]["preconditions"]["long_cycles"]


def test_cli_verify_zerner_merkl_torus(tmp_path):
    out = tmp_path / "zm"
    res = CliRunner().invoke(main, ["generate", "--model", "zerner_merkl", "--torus", "16x16",
                                    "--seed", "7", "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = CliRunner().invoke(main, ["verify", "--in", str(out)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["suites"]["preconditions"]["wrapping_cycles"] == 2


@pytest.mark.parametrize("flags", [["--model", "zerner_merkl", "--torus", "16x16", "--seed", "7"],
                                   ["--model", "iid", "--torus", "12x12", "--seed", "1"]])
def test_cli_verify_labels_the_graph_once(monkeypatch, flags):
    import nnlab

    calls = {"undirected_components": 0, "torus_winding": 0}
    for name in calls:
        fn = getattr(nnlab.nngraph, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod in (nnlab.nngraph, nnlab.cli, nnlab.weights, nnlab.stats, nnlab.topology):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counted)
    res = CliRunner().invoke(main, ["verify", *flags])
    assert res.exit_code == 0, res.output
    assert calls == {"undirected_components": 1, "torus_winding": 1}


def test_cli_roundtrip_generators():
    runner = CliRunner()
    res = runner.invoke(main, ["roundtrip", "--model", "dyadic", "--box", "10x10", "--seed", "5"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["ok"] is True


def _census_no_seeds(tmp_path, seeds):
    out = tmp_path / "c"
    res = CliRunner().invoke(
        main, ["census", "--model", "zerner_merkl", "--torus", "8x8",
               "--seeds", seeds, "--out", str(out)]
    )
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: ") and "no seeds" in res.stderr
    assert not out.exists()


def test_cli_census_empty_seed_list(tmp_path):
    _census_no_seeds(tmp_path, "")
    _census_no_seeds(tmp_path, ",")


def test_cli_census_descending_seed_range(tmp_path):
    _census_no_seeds(tmp_path, "3..1")


@pytest.mark.parametrize("seeds", ["1..2..3", "a..3", "1,x"])
def test_cli_census_malformed_seeds(tmp_path, seeds):
    out = tmp_path / "c"
    res = CliRunner().invoke(main, ["census", "--model", "zerner_merkl", "--torus", "8x8",
                                    "--seeds", seeds, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: --seeds ") and res.stderr.count("\n") == 1, res.stderr
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--torus", "8xq"), ("--torus", "8x8x"), ("--torus", "x"),
    ("--box", "0,0:3,3:5"), ("--box", "4x"), ("--box", "0,0:"), ("--box", "1.5x3"),
])
def test_cli_generate_malformed_domain(tmp_path, flag, value):
    out = tmp_path / "o"
    res = CliRunner().invoke(main, ["generate", "--model", "iid", flag, value,
                                    "--seed", "1", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith(f"error: {flag} ") and res.stderr.count("\n") == 1, res.stderr
    assert not out.exists()


def test_cli_generate_level_beyond_int64(tmp_path):
    res = CliRunner().invoke(main, ["generate", "--model", "dyadic", "--box", "8x8",
                                    "--level", "70", "--seed", "1", "--out", str(tmp_path / "r")])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: ") and "63" in res.stderr
    assert "int64" not in res.stderr


@pytest.mark.parametrize("verb", ["verify", "census", "roundtrip"])
def test_cli_level_on_every_verb(tmp_path, verb):
    """Every verb that builds a realization takes the model flags, --level
    among them, and hands them to the spec: level 3 builds, level 70 is
    refused by the dyadic spec itself."""
    run = ["--seeds", "1..1", "--out", str(tmp_path / "c")] if verb == "census" else ["--seed", "1"]
    for level, code in (("3", 0), ("70", 2)):
        res = CliRunner().invoke(main, [verb, "--model", "dyadic", "--box", "8x8",
                                        "--level", level, *run])
        assert res.exit_code == code, res.output + res.stderr
    assert "63" in res.stderr and res.stderr.count("\n") == 1, res.stderr


@pytest.mark.parametrize("verb", ["generate", "verify", "census", "roundtrip"])
def test_cli_refuses_flags_the_model_does_not_read(tmp_path, verb):
    """A model flag that the chosen variant does not read exits 2 with one
    line naming it, rather than being ignored (or written into a manifest)."""
    out = tmp_path / "o"
    run = {"generate": ["--seed", "3", "--out", str(out)],
           "census": ["--seeds", "1..1", "--out", str(out)]}.get(verb, ["--seed", "3"])
    for flags, named in ((["--model", "iid", "--torus", "12x12", "--level", "5"], "--level"),
                         (["--model", "iid", "--torus", "12x12", "--k", "9"], "--k"),
                         (["--model", "zerner_merkl", "--torus", "16x16", "--layers", "4"],
                          "--layers"),
                         (["--model", "layered", "--box", "8x8"], "--box"),
                         (["--model", "type_c", "--torus", "16x16"], "--torus"),
                         (["--model", "dyadic", "--box", "8x8", "--layers", "2"], "--layers")):
        res = CliRunner().invoke(main, [verb, *flags, *run])
        assert res.exit_code == 2, res.output + res.stderr
        assert res.stderr.startswith(f"error: {named} ") and res.stderr.count("\n") == 1, res.stderr
        assert not out.exists()


@pytest.mark.parametrize("flags", [["--model", "zerner_merkl"], ["--torus", "12x12"],
                                   ["--level", "3"], ["--seed", "3"]])
def test_cli_verify_in_takes_no_model_flags(tmp_path, flags):
    """verify --in reads the persisted run; a model flag or --seed beside it
    would be ignored, so it is refused."""
    out = tmp_path / "r"
    res = CliRunner().invoke(main, ["generate", "--model", "zerner_merkl", "--torus", "12x12",
                                    "--seed", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = CliRunner().invoke(main, ["verify", "--in", str(out), *flags])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr


def test_cli_census_modal(tmp_path):
    runner = CliRunner()
    out = tmp_path / "c"
    res = runner.invoke(
        main, ["census", "--model", "zerner_merkl", "--torus", "16x16",
               "--seeds", "0..4", "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["modal_count"] == 2 and agg["seeds"] == 5
    lines = (out / "census.jsonl").read_text().strip().splitlines()
    assert len(lines) == 5
    rec = json.loads(lines[0])
    assert rec["seed"] == 0 and "runtime_s" in rec


def test_cli_exit_codes():
    runner = CliRunner()
    res = runner.invoke(main, ["generate", "--model", "nosuch", "--torus", "8x8",
                               "--seed", "1", "--out", "/tmp/x"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["generate", "--model", "zerner_merkl", "--torus", "15x15",
                               "--seed", "1", "--out", "/tmp/x"])
    assert res.exit_code == 2  # odd side
    for torus in ("16", "16x16x16"):
        res = runner.invoke(main, ["generate", "--model", "zerner_merkl", "--torus", torus,
                                   "--seed", "1", "--out", "/tmp/x"])
        assert res.exit_code == 2 and "square torus" in res.stderr, res.output


def test_cli_spec_file_with_flag_override(tmp_path):
    spec = GeneratorSpec("zerner_merkl", L=16)
    f = tmp_path / "zm.json"
    f.write_text(spec.to_json())
    runner = CliRunner()
    out = tmp_path / "r"
    res = runner.invoke(
        main, ["generate", "--spec", str(f), "--torus", "32x32", "--seed", "2",
               "--out", str(out)]
    )
    assert res.exit_code == 0, res.output
    g = read_outmap_jsonl(out / "graph.jsonl")
    assert g.dom == Torus((32, 32))  # flag overrode the file's L=16


def test_cli_export_svg(tmp_path):
    runner = CliRunner()
    out = tmp_path / "run"
    runner.invoke(main, ["generate", "--model", "zerner_merkl", "--torus", "12x12",
                         "--seed", "2", "--out", str(out)])
    res = runner.invoke(main, ["export", "--in", str(out), "--out", str(tmp_path / "g.svg")])
    assert res.exit_code == 0, res.output
    text = (tmp_path / "g.svg").read_text()
    assert text.startswith("<svg")
    res = runner.invoke(main, ["export", "--in", str(out), "--out",
                               str(tmp_path / "r.svg"), "--classify"])
    assert res.exit_code == 0, res.output


def test_cli_export_dyadic_window(tmp_path):
    runner = CliRunner()
    out = tmp_path / "dy"
    spec = GeneratorSpec("dyadic", window=Box((0, 0), (7, 7)), n=3, Z=[1, 1])
    (tmp_path / "dy.json").write_text(spec.to_json())
    res = runner.invoke(main, ["generate", "--spec", str(tmp_path / "dy.json"),
                               "--seed", "1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["export", "--in", str(out), "--out", str(tmp_path / "d.svg")])
    assert res.exit_code == 0
    svg = (tmp_path / "d.svg").read_text()
    assert svg.count("<line") == read_outmap_jsonl(out / "graph.jsonl").n_edges
    res = runner.invoke(main, ["export", "--in", str(out), "--format", "csv",
                               "--out", str(tmp_path / "d.csv")])
    assert res.exit_code == 0
    assert (tmp_path / "d.csv").read_text().startswith("from,to")


def test_cli_census_threads_env(tmp_path, monkeypatch):
    # the records, in seed order, do not depend on the worker count
    stable = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("NN_LAB_THREADS", threads)
        out = tmp_path / threads
        res = CliRunner().invoke(
            main, ["census", "--model", "zerner_merkl", "--torus", "12x12",
                   "--seeds", "0..3", "--verify-structure", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        recs = [json.loads(line) for line in (out / "census.jsonl").read_text().splitlines()]
        for r in recs:
            del r["runtime_s"]
        assert [r["seed"] for r in recs] == [0, 1, 2, 3]
        stable[threads] = [json.dumps(r, sort_keys=True) for r in recs]
    assert stable["1"] == stable["2"]


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_cli_census_bad_threads_env(tmp_path, monkeypatch, value):
    monkeypatch.setenv("NN_LAB_THREADS", value)
    res = CliRunner().invoke(
        main, ["census", "--model", "zerner_merkl", "--torus", "12x12",
               "--seeds", "0..1", "--out", str(tmp_path / "c")]
    )
    assert res.exit_code == 2
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "NN_LAB_THREADS" in lines[0]
    assert "Traceback" not in res.output


def test_cli_census_pool_no_larger_than_seed_list(tmp_path, monkeypatch):
    # a fake executor records the pool size and runs the work in-process, so
    # no worker process is started whatever NN_LAB_THREADS says
    import concurrent.futures

    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setenv("NN_LAB_THREADS", "64")
    res = CliRunner().invoke(
        main, ["census", "--model", "zerner_merkl", "--torus", "12x12",
               "--seeds", "0..2", "--out", str(tmp_path / "c")]
    )
    assert res.exit_code == 0, res.output
    assert sizes == [3]



# ---- CLI flag fuzz ----------------------------------------------------------------

_SIDES = st.sampled_from(["1", "2", "3", "6", "16", "17", "0", "-1", "", "x", "a"])
_DOMAIN_FLAGS = st.one_of(
    st.lists(_SIDES, min_size=1, max_size=3).map(lambda s: ["--torus", "x".join(s)]),
    st.lists(_SIDES, min_size=1, max_size=3).map(lambda s: ["--box", "x".join(s)]),
    st.tuples(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
              st.lists(st.integers(-3, 17), min_size=1, max_size=3)).map(
        lambda lh: ["--box", ",".join(map(str, lh[0])) + ":" + ",".join(map(str, lh[1]))]),
    st.just([]),
)
_SEEDS = st.sampled_from(["0", "0..1", "1,2", "2..1", "", ",", "a", "0..", "-1..0", "1..1,2"])
_SMALL_INTS = st.one_of(st.none(), st.integers(-2, 5), st.sampled_from([30, 63, 64, 100]))


@settings(max_examples=60, deadline=None)
@given(
    verb=st.sampled_from(["generate", "census"]),
    model=st.sampled_from(["iid", "dyadic", "finite_k", "zerner_merkl", "layered", "type_c"]),
    domain=_DOMAIN_FLAGS,
    seeds=_SEEDS,
    level=_SMALL_INTS,
    k=_SMALL_INTS,
)
def test_fuzzed_flags_never_traceback(verb, model, domain, seeds, level, k):
    # Small values only: the largest domain drawn is 17^3 sites.
    args = [verb, "--model", model, *domain]
    if k is not None:
        args += ["--k", str(k)]
    if verb == "generate":
        args += ["--seed", "1"] + (["--level", str(level)] if level is not None else [])
    else:
        args += ["--seeds", seeds]
    with tempfile.TemporaryDirectory() as tmp:
        res = CliRunner().invoke(main, [*args, "--out", str(Path(tmp) / "out")])
    assert res.exception is None or isinstance(res.exception, SystemExit), (args, res.exception)
    assert res.exit_code in (0, 2, 3), (args, res.output)
    assert "Traceback" not in res.output
