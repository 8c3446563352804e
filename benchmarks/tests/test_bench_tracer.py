"""The tracer wraps only public names, everywhere they were imported, puts
the originals back, and survives names that a later change removes."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracer  # noqa: E402
from tracer import ORACLES, TARGETS, Tracer  # noqa: E402

import nnlab.cli  # noqa: E402
import nnlab.nngraph  # noqa: E402
import nnlab.weights  # noqa: E402
from nnlab.lattice import Box, Torus  # noqa: E402
from nnlab.rng import SeededRng  # noqa: E402


def test_wraps_every_importer_and_restores():
    orig = nnlab.nngraph.build_nn_directed
    assert nnlab.cli.build_nn_directed is orig
    tr = Tracer().install()
    try:
        assert nnlab.nngraph.build_nn_directed is not orig
        assert nnlab.cli.build_nn_directed is nnlab.nngraph.build_nn_directed
        assert "index_coords" in vars(Box)
        w = nnlab.weights.sample_iid_uniform(Torus((6, 6)), SeededRng(0))
        nnlab.cli.build_nn_directed(w)
        Box((0, 0), (3, 3)).index_coords()
    finally:
        tr.remove()
    assert nnlab.nngraph.build_nn_directed is orig and nnlab.cli.build_nn_directed is orig
    assert "index_coords" not in vars(Box)
    m = tr.metrics()
    assert m["nngraph.build_nn_directed.calls"] == 1
    assert m["weights.sample_iid_uniform.calls"] == 1
    assert m["nngraph.outmap_init.calls"] == 1
    assert m["lattice.index_coords.calls"] == 1
    assert m["lattice.site_index.calls"] == 0
    assert tr.absent == []


def test_self_time_excludes_children():
    tr = Tracer()
    tr.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["leaf", 2.0, 3.0, 1],
                ["inner", 5.0, 6.0, 0]]
    assert tr.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_removed_name_is_reported_absent():
    targets = [("nngraph.gone", "nnlab.nngraph", ["no_such_function"], "span"),
               ("gone.module", "nnlab.no_such_module", ["f"], "span"),
               ("lattice.gone", "nnlab.lattice", ["Box.no_such_method"], "count")]
    tr = Tracer(targets).install()
    tr.remove()
    assert tr.absent == ["nnlab.nngraph.no_such_function", "nnlab.no_such_module.f",
                         "nnlab.lattice.Box.no_such_method"]
    assert tr.metrics() == {"nngraph.gone.self_s": 0.0, "nngraph.gone.calls": 0,
                            "gone.module.self_s": 0.0, "gone.module.calls": 0,
                            "lattice.gone.calls": 0}


@pytest.mark.parametrize("path", ["closure_reference", "_relabel_dense", "OutMap._check_targets"])
def test_refuses_oracles_and_private_names(path):
    with pytest.raises(ValueError):
        Tracer([("x", "nnlab.nngraph", [path], "span")]).install()


def test_targets_are_public_and_not_oracles():
    for _, _, paths, _ in TARGETS:
        for path in paths:
            assert tracer._is_public(path)
            assert path.split(".")[-1] not in ORACLES


def test_benchmark_never_calls_an_oracle():
    for src in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(src.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            assert name not in ORACLES, f"{src.name} uses {name}"
