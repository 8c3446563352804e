"""Byte-identity gate for the persisted artifacts.

The digests below were recorded from the per-edge reference implementation of
the readers, writers and SVG export.  Any change to the on-disk formats shows up
here as a digest mismatch; every reader must also return an object equal to the
one that was written.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from nnlab.cli import main
from nnlab.generators import GeneratorSpec
from nnlab.lattice import Box, Torus
from nnlab.nngraph import OutMap, build_nn_directed
from nnlab.rng import SeededRng
from nnlab.serialize import (
    file_sha256,
    read_outmap_jsonl,
    read_weights_csv,
    write_outmap_jsonl,
    write_weights_csv,
)
from nnlab.weights import construct_weights, sample_iid_uniform

# name -> (generate flags, seed).  The 80x80 torus spans several reader chunks.
CLI_RUNS = {
    "iid12": (["--model", "iid", "--torus", "12x12"], 1),
    "dyadic16": (["--model", "dyadic", "--box", "16x16", "--construct-weights"], 5),
    "zm16": (["--model", "zerner_merkl", "--torus", "16x16"], 7),
    "iid80": (["--model", "iid", "--torus", "80x80"], 3),
}

PINNED = {
    "box3/graph.jsonl": "50fecde691b1e5a709d88a7c33f87bdf464d336bb2f20500cbbaf1f50bb438dd",
    "box3/weights.csv": "b56994fe329e23a0dd17ae05cc71e81088a83ea2f890844773c5182372313ef6",
    "dyadic16/graph.jsonl": "71b90dd4824b88e68b2d71fc615b5f1e7bb8941c845a87fe02d196b4ecadbddc",
    "dyadic16/graph.svg": "71480231d6004c40863e94306931e275b4027e7107d6b7965e412653837882ab",
    "dyadic16/weights.csv": "8d2d0c768eba1ea442a7807dde5775b87fff2c387084abebfa654a049e4961be",
    "iid12/graph.csv": "5a2a88f2919a7cb32a668c299074e990d3ca9c8a68f00b93e9d511950893ee2f",
    "iid12/graph.jsonl": "8be93367dad7002916f56f61e091afe26172a5ed35bd5f2ee15689f0db7d2dc2",
    "iid12/graph.svg": "3b447b5c020d0f643d02551812ddbae3bf4a803de326be7e4ef510237bd77b26",
    "iid12/weights.csv": "75769ba27d435e94414ea4ade5bba57e0eded75baa665bfea0748aab3a60770c",
    "iid80/graph.jsonl": "c89d2bcc8abae76633bdff3497ff21c7cbfeb10c302aa12c1c7876c170706ff1",
    "iid80/graph.svg": "e90c6161111fb238fb88274bb6c1a598f077dea57440de8e2d1bed0f641e7b8b",
    "iid80/weights.csv": "74674666da9589599e597e166d4f447748f976eed9215ff4ff12e638475efc74",
    "zm16/graph.jsonl": "d50be081a1a5b24b110d21ac918b4d1c8f52da48165b4f894a882fd1c0867207",
    "zm16/graph.svg": "a2a0d84252776ec7f5667f95d8219e7209334a8b787cf85b158eae296fb2f93f",
}


def _generate(root: Path, name: str) -> Path:
    flags, seed = CLI_RUNS[name]
    out = root / name
    res = CliRunner().invoke(main, ["generate", *flags, "--seed", str(seed), "--out", str(out)])
    assert res.exit_code == 0, res.output
    res = CliRunner().invoke(main, ["export", "--in", str(out), "--out", str(out / "graph.svg")])
    assert res.exit_code == 0, res.output
    return out


def _api_box3(root: Path) -> tuple:
    dom = Box((-2, -1, -3), (2, 3, 1))
    w = sample_iid_uniform(dom, SeededRng(4))
    g = OutMap(dom, build_nn_directed(w).out_index, active_margin=1)
    out = root / "box3"
    out.mkdir()
    write_outmap_jsonl(g, out / "graph.jsonl")
    write_weights_csv(w, out / "weights.csv")
    return out, g, w


def artifact_digests(root: Path) -> dict:
    """sha256 of every pinned artifact, built under ``root``."""
    digests = {}
    for name in CLI_RUNS:
        out = _generate(root, name)
        for fname in ("graph.jsonl", "weights.csv", "graph.svg"):
            if (out / fname).exists():
                digests[f"{name}/{fname}"] = file_sha256(out / fname)
    csv_path = root / "iid12" / "graph.csv"
    res = CliRunner().invoke(main, ["export", "--in", str(root / "iid12"), "--format", "csv",
                                    "--out", str(csv_path)])
    assert res.exit_code == 0, res.output
    digests["iid12/graph.csv"] = file_sha256(csv_path)
    out, _, _ = _api_box3(root)
    for fname in ("graph.jsonl", "weights.csv"):
        digests[f"box3/{fname}"] = file_sha256(out / fname)
    return digests


def test_artifact_digests_pinned(tmp_path):
    assert artifact_digests(tmp_path) == PINNED


# ---- nnlab verify reports ----------------------------------------------------------

# sha256 of the JSON report that `nnlab verify --report` writes for each input,
# recorded while long cycles were still found by a per-site walk
VERIFY_PINNED = {
    "box_squares": "289b40c3e1e0e45ff5d4eae9dcd756e4a1a5ddfa82aa89d93fde84e01afa3d8f",
    "unit_square_torus": "f3b4c4be93d2f7bebde402538c7e39bb052ce72d0c0fcbe7641a7136bdcc2375",
    "zm32": "75043794be067f8257b50e3bf512b82d628cb184af6412536f0374e9b6bc1eb9",
}


def _box_squares() -> OutMap:
    """Two directed squares in a box, each fed by a tree whose least site lies
    off the cycle and enters it away from the cycle's least site, so the
    reported cycles show where each one starts."""
    edges = {
        # square A, counter-clockwise, entered at (2, 3)
        (2, 2): (3, 2), (3, 2): (3, 3), (3, 3): (2, 3), (2, 3): (2, 2),
        (0, 3): (1, 3), (1, 3): (2, 3), (4, 2): (3, 2),
        # square B, clockwise, entered at (6, 7)
        (6, 6): (6, 7), (6, 7): (7, 7), (7, 7): (7, 6), (7, 6): (6, 6),
        (5, 8): (5, 7), (5, 7): (6, 7), (7, 5): (7, 6),
    }
    return OutMap(Box((0, 0), (9, 9)), edges)


def _unit_square_torus() -> OutMap:
    """An iid graph on a 6x6 torus with a directed unit square forced in: a
    long cycle that does not wind."""
    dom = Torus((6, 6))
    g = build_nn_directed(sample_iid_uniform(dom, SeededRng(5)))
    for x, y in (((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (0, 0))):
        g.set_out(x, y)
    return g


def verify_report_digests(root: Path) -> dict:
    """sha256 of each pinned `nnlab verify` report, built under ``root``."""
    runs = {
        "box_squares": (["--in", str(root / "box_squares")], 1),
        "unit_square_torus": (["--in", str(root / "unit_square_torus")], 1),
        "zm32": (["--model", "zerner_merkl", "--torus", "32x32", "--seed", "3"], 0),
    }
    for name, g in (("box_squares", _box_squares()), ("unit_square_torus", _unit_square_torus())):
        (root / name).mkdir()
        write_outmap_jsonl(g, root / name / "graph.jsonl")
    digests = {}
    for name, (flags, code) in runs.items():
        report = root / f"{name}.json"
        res = CliRunner().invoke(main, ["verify", *flags, "--report", str(report)])
        assert res.exit_code == code, res.output
        digests[name] = file_sha256(report)
    return digests


def test_verify_report_digests_pinned(tmp_path):
    assert verify_report_digests(tmp_path) == VERIFY_PINNED


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_readers_return_what_was_written(tmp_path, name):
    out = _generate(tmp_path, name)
    config = json.loads((out / "manifest.json").read_text())["config"]
    real = GeneratorSpec.from_dict(config["spec"]).build(config["seed"])
    assert read_outmap_jsonl(out / "graph.jsonl") == real.graph
    if (out / "weights.csv").exists():
        w = real.weights
        if w is None:
            w = construct_weights(real.graph, rng=SeededRng(config["seed"]).child("realize"))
        assert read_weights_csv(out / "weights.csv") == w


def test_readers_return_what_was_written_box3(tmp_path):
    out, g, w = _api_box3(tmp_path)
    g2 = read_outmap_jsonl(out / "graph.jsonl")
    assert g2 == g and g2.active_margin == 1
    assert read_weights_csv(out / "weights.csv") == w


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in sorted(artifact_digests(Path(tmp)).items()):
            print(f'    "{key}": "{digest}",')
    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in sorted(verify_report_digests(Path(tmp)).items()):
            print(f'    "{key}": "{digest}",')
