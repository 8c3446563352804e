"""Bad graph.jsonl / weights.csv content, and domains past MAX_SITES from any
input surface: exit 2 with a one-line error, never a traceback and never exit 1
("property failed")."""

from __future__ import annotations

import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nnlab.cli import main
from nnlab.serialize import read_outmap_jsonl


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("run") / "iid"
    res = CliRunner().invoke(main, ["generate", "--model", "iid", "--torus", "6x6",
                                    "--seed", "1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    return out


def _copy_with(src: Path, dst: Path, fname: str, text: str) -> Path:
    dst.mkdir()
    for f in ("graph.jsonl", "weights.csv"):
        (dst / f).write_text(text if f == fname else (src / f).read_text())
    return dst


def _edit(text: str, first=None, drop=False, dup=False, header=None) -> str:
    """Replace, drop or duplicate the first body line, or replace the header."""
    lines = text.splitlines(keepends=True)
    if header is not None:
        lines[0] = header + "\n"
    if first is not None:
        lines[1] = first + "\n"
    if drop:
        del lines[1]
    if dup:
        lines.insert(1, lines[1])
    return "".join(lines)


GRAPH_CASES = {
    "scalar line": dict(first="5"),
    "not json": dict(first="[[0,0],[1,0]"),
    "three sites": dict(first="[[0,0],[1,0],[2,0]]"),
    "one site": dict(first="[[0,0]]"),
    "three coordinates": dict(first="[[0,0,0],[1,0,0]]"),
    "float coordinate": dict(first="[[0.0,0],[1,0]]"),
    "string coordinate": dict(first='[[0,"0"],[1,0]]'),
    "bool coordinate": dict(first="[[true,0],[1,0]]"),
    "split number": dict(first="[[0,0],[1 0,0]]"),
    "huge coordinate": dict(first="[[0,0],[123456789012345678901234,0]]"),
    "outside domain": dict(first="[[0,0],[0,6]]"),
    "negative site": dict(first="[[-1,0],[0,0]]"),
    "not adjacent": dict(first="[[0,0],[2,0]]"),
    "self loop": dict(first="[[0,0],[0,0]]"),
    "duplicate source": dict(dup=True),
    "scalar header": dict(header="5"),
    "header without domain": dict(header='{"active_margin":0}'),
    "bool torus side": dict(header='{"active_margin":0,"domain":{"kind":"torus","sides":[6,true]}}'),
    "float torus side": dict(header='{"active_margin":0,"domain":{"kind":"torus","sides":[6,6.5]}}'),
    "bad margin": dict(header='{"active_margin":-1,"domain":{"kind":"torus","sides":[6,6]}}'),
}

WEIGHT_CASES = {
    "duplicate edge": dict(dup=True),
    "missing edge": dict(drop=True),
    "infinite weight": dict(first="0,0,0,1,inf"),
    "nan weight": dict(first="0,0,0,1,nan"),
    "bad hex": dict(first="0,0,0,1,0xzz"),
    "too few cells": dict(first="0,0,0,0x1p-1"),
    "too many cells": dict(first="0,0,0,1,0,0x1p-1"),
    "float coordinate": dict(first="0.5,0,0,1,0x1p-1"),
    "not an edge": dict(first="0,0,2,0,0x1p-1"),
    "outside domain": dict(first="0,0,0,9,0x1p-1"),
    "scalar header": dict(header="5"),
}


def _assert_bad_input(res):
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    errors = res.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: "), res.stderr


@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_bad_graph_jsonl_exits_2(run_dir, tmp_path, case):
    text = _edit((run_dir / "graph.jsonl").read_text(), **GRAPH_CASES[case])
    bad = _copy_with(run_dir, tmp_path / "bad", "graph.jsonl", text)
    _assert_bad_input(CliRunner().invoke(main, ["verify", "--in", str(bad)]))
    _assert_bad_input(CliRunner().invoke(main, ["export", "--in", str(bad),
                                                "--out", str(tmp_path / "g.svg")]))


@pytest.mark.parametrize("case", sorted(WEIGHT_CASES))
def test_bad_weights_csv_exits_2(run_dir, tmp_path, case):
    text = _edit((run_dir / "weights.csv").read_text(), **WEIGHT_CASES[case])
    bad = _copy_with(run_dir, tmp_path / "bad", "weights.csv", text)
    _assert_bad_input(CliRunner().invoke(main, ["verify", "--in", str(bad)]))


def test_bad_line_is_named(run_dir, tmp_path):
    text = _edit((run_dir / "graph.jsonl").read_text(), first="5")
    bad = _copy_with(run_dir, tmp_path / "bad", "graph.jsonl", text)
    res = CliRunner().invoke(main, ["verify", "--in", str(bad)])
    assert "line 2" in res.stderr


def test_json_whitespace_and_blank_lines_accepted(run_dir, tmp_path):
    lines = (run_dir / "graph.jsonl").read_text().splitlines()
    spaced = [lines[0]] + [json.dumps(json.loads(ln)) for ln in lines[1:]]
    spaced[1] = "\t" + spaced[1].replace(",", " ,\t") + " \r"
    spaced.insert(2, "  ")
    ok = _copy_with(run_dir, tmp_path / "ok", "graph.jsonl", "\n".join(spaced))
    assert read_outmap_jsonl(ok / "graph.jsonl") == read_outmap_jsonl(run_dir / "graph.jsonl")
    res = CliRunner().invoke(main, ["verify", "--in", str(ok)])
    assert res.exit_code == 0, res.output


_NOISE = st.text(alphabet='[],-0123456789 .\n\t"xpaeinft', max_size=8)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), fname=st.sampled_from(["graph.jsonl", "weights.csv"]),
       op=st.sampled_from(["truncate", "delete", "insert", "replace"]))
def test_fuzzed_body_never_tracebacks(run_dir, data, fname, op):
    # Only the body is mutated: a mutated header could name a domain of up to
    # MAX_SITES sites, which the reader would then allocate.
    text = (run_dir / fname).read_text()
    body_start = text.index("\n") + 1
    pos = data.draw(st.integers(body_start, len(text)), label="pos")
    if op == "truncate":
        text = text[:pos]
    else:
        cut = data.draw(st.integers(0, 12), label="cut") if op != "insert" else 0
        noise = data.draw(_NOISE, label="noise") if op != "delete" else ""
        text = text[:pos] + noise + text[pos + cut:]
    with tempfile.TemporaryDirectory() as tmp:
        d = _copy_with(run_dir, Path(tmp) / "run", fname, text)
        for args in (["verify", "--in", str(d)],
                     ["export", "--in", str(d), "--out", str(Path(tmp) / "g.svg")]):
            res = CliRunner().invoke(main, args)
            assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
            assert res.exit_code in (0, 1, 2, 3)


# ---- domains past MAX_SITES -----------------------------------------------------------

_HUGE_TORUS = {"kind": "torus", "sides": [10**6, 10**6]}
_HUGE_BOX = {"kind": "box", "lo": [0, 0], "hi": [10**6 - 1, 10**6 - 1]}
_DYADIC_8 = {"variant": "dyadic", "n": 30, "window": {"kind": "box", "lo": [0, 0], "hi": [7, 7]}}

HUGE_HEADERS = {
    "graph.jsonl": json.dumps({"active_margin": 0, "domain": _HUGE_TORUS}),
    "weights.csv": json.dumps({"domain": _HUGE_BOX}),
}

HUGE_SPECS = {
    "iid torus": {"variant": "iid", "domain": _HUGE_TORUS},
    "dyadic window": {"variant": "dyadic", "n": 30, "window": _HUGE_BOX},
    "zerner_merkl side": {"variant": "zerner_merkl", "L": 10**6},
    "layer count": {"variant": "layered", "layers": 10**12, "base": _DYADIC_8},
}


def _invoke_without_allocating(args):
    """Run the CLI and check that it never held more than 16 MB, far below one
    byte per declared site."""
    tracemalloc.start()
    try:
        res = CliRunner().invoke(main, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24, peak
    return res


@pytest.mark.parametrize("fname", sorted(HUGE_HEADERS))
def test_huge_header_exits_2(run_dir, tmp_path, fname):
    text = _edit((run_dir / fname).read_text(), header=HUGE_HEADERS[fname])
    bad = _copy_with(run_dir, tmp_path / "bad", fname, text)
    res = _invoke_without_allocating(["verify", "--in", str(bad)])
    _assert_bad_input(res)
    assert "MAX_SITES" in res.stderr


@pytest.mark.parametrize("flag", [["--torus", "1000000x1000000"], ["--box", "1000000x1000000"],
                                  ["--box", "0,0,0:9999,9999,9999"]])
def test_huge_domain_flag_exits_2(tmp_path, flag):
    res = _invoke_without_allocating(["generate", "--model", "iid", *flag, "--seed", "1",
                                      "--out", str(tmp_path / "out")])
    _assert_bad_input(res)
    assert "MAX_SITES" in res.stderr


@pytest.mark.parametrize("seeds", ["0..100000000000", "5..100005"])
def test_huge_seed_range_exits_2(tmp_path, seeds):
    res = _invoke_without_allocating(["census", "--model", "iid", "--torus", "8x8",
                                      "--seeds", seeds, "--out", str(tmp_path / "c")])
    _assert_bad_input(res)
    assert "MAX_SEEDS" in res.stderr


@pytest.mark.parametrize("case", sorted(HUGE_SPECS))
def test_huge_spec_domain_exits_2(tmp_path, case):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(HUGE_SPECS[case]))
    res = _invoke_without_allocating(["generate", "--spec", str(spec), "--seed", "1",
                                      "--out", str(tmp_path / "out")])
    _assert_bad_input(res)
    assert "MAX_SITES" in res.stderr
