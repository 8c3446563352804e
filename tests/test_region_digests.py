"""Byte-identity gate for region classification and the planar lemma checks.

The digests below were recorded from the per-site implementation of
``classify_regions`` (one ``closure`` per type-(a) component, a
``star_neighbors`` loop for star touches) and of the lemma checks, before
they moved to flat indices and boolean masks.  For each model and seeds 0..2
they pin, as sha256 digests:

- ``csv``: ``RegionClassification.to_csv()``;
- ``regions``: a canonical JSON dump of ``(kind, rid, sites, component_id,
  star_touches)`` per region;
- ``lemmas``: ``(check_degree_two, check_closure_idempotent,
  check_neighbor_hole)`` of every component;
- ``export.svg`` / ``export.csv``: the bytes of ``nnlab export --classify``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from nnlab.cli import main
from nnlab.generators import GeneratorSpec
from nnlab.lattice import Box
from nnlab.nngraph import undirected_components
from nnlab.topology import (
    check_closure_idempotent,
    check_degree_two,
    check_neighbor_hole,
    classify_regions,
)

SEEDS = (0, 1, 2)

_ZM = GeneratorSpec("zerner_merkl", L=32)
MODELS = {
    "iid": GeneratorSpec("iid", domain=Box((0, 0), (31, 31))),
    "dyadic": GeneratorSpec("dyadic", window=Box((0, 0), (31, 31)), n=30),
    "zm": _ZM,
    "typec": GeneratorSpec("type_c", base=_ZM),
}
PARTS = ("csv", "regions", "lemmas", "export.svg", "export.csv")

PINNED = {
    "dyadic/csv": "db7f14414b493838c193a692d77dacc1b344179fe5238cc690e6a91aeefeb46d",
    "dyadic/regions": "95be6c25113ea2968cc5e5dde7be1c475dd72e55fe65091d33d9e11f60b5173f",
    "dyadic/lemmas": "03a8de5c4877200e4aa4cbac93e7ba4557dd80da38e6fed1db16263fb2ee48fe",
    "dyadic/export.svg": "4e8d3ef575b2d41c03e1446fea4fcec346799a2db622e699fa8fba74a24d4a5f",
    "dyadic/export.csv": "db7f14414b493838c193a692d77dacc1b344179fe5238cc690e6a91aeefeb46d",
    "iid/csv": "5ddf0f8938815d75aaa252185f81d09b9a4086a123ffe0d1a09058972ed86fad",
    "iid/regions": "c16537f4368fc943195f7f7e2e5af875b555f2974e3de3c9367eb63145a60e17",
    "iid/lemmas": "fc3d15054a2b8c2c802cbbaabed6366f0ab78b471a08e922b77b12ac4d0e4955",
    "iid/export.svg": "84aa6a9d728f34e753d64d93b31cf91072b0d2e8480f57da2e26778264517a03",
    "iid/export.csv": "5ddf0f8938815d75aaa252185f81d09b9a4086a123ffe0d1a09058972ed86fad",
    "typec/csv": "4cab7326fdd5a2221c2c1e57233e4d400a07d98a138648143cbf744a78cbe6c7",
    "typec/regions": "e3e750634880c227f7af09b2e0ed5d2b04ff3c194403155264382deaaef7baa1",
    "typec/lemmas": "99ebb1dfcd08f37ccba5c90e59b8a427d466924b99764c614581971ecc692629",
    "typec/export.svg": "adc376aa15d13dd617644f60739adf884f7be2e98f6b439c754f1d08cf3ecd19",
    "typec/export.csv": "4cab7326fdd5a2221c2c1e57233e4d400a07d98a138648143cbf744a78cbe6c7",
    "zm/csv": "d5660f0959729d8a5972767f738ae6e61ad60c79439cdb561f493e4b662ff6a1",
    "zm/regions": "19887f306d79dcac052711466adf952b349e8e1a92064a4294866d37eccffdca",
    "zm/lemmas": "62aa4b799a6af748200e6dcf24d36542a1bcd5a57c34392a47a93439e7fbc349",
    "zm/export.svg": "ca298c6a818d442692727d685194a5e6dda11f6f77f5f4a869da30a13e54a12b",
    "zm/export.csv": "d5660f0959729d8a5972767f738ae6e61ad60c79439cdb561f493e4b662ff6a1",
}


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else c.encode())
        h.update(b"\n")
    return h.hexdigest()


def _in_process(spec: GeneratorSpec, seed: int) -> dict:
    lab = undirected_components(spec.build(seed).graph)
    window = lab.dom
    rc = classify_regions(lab, window)
    regions = json.dumps(
        [[r.kind, r.rid, [list(x) for x in r.sites], r.component_id, r.star_touches]
         for r in rc.regions],
        separators=(",", ":"),
    )
    lemmas = []
    for cid in range(lab.n_components):
        sites = lab.vertices_of(cid)
        lemmas.append([check_degree_two(sites, window),
                       check_closure_idempotent(sites, window),
                       check_neighbor_hole(sites, window)])
    return {"csv": rc.to_csv(), "regions": regions, "lemmas": json.dumps(lemmas)}


def _exported(spec: GeneratorSpec, seed: int, root: Path) -> dict:
    spec_file = root / "spec.json"
    spec_file.write_text(spec.to_json())
    run = root / f"run{seed}"
    runner = CliRunner()
    res = runner.invoke(main, ["generate", "--spec", str(spec_file), "--seed", str(seed),
                               "--out", str(run)])
    assert res.exit_code == 0, res.output
    out = {}
    for fmt in ("svg", "csv"):
        path = root / f"regions{seed}.{fmt}"
        res = runner.invoke(main, ["export", "--in", str(run), "--out", str(path),
                                   "--classify", "--format", fmt])
        assert res.exit_code == 0, res.output
        out[f"export.{fmt}"] = path.read_bytes()
    return out


def region_digests(name: str, root: Path) -> dict:
    per_seed = []
    for seed in SEEDS:
        parts = _in_process(MODELS[name], seed)
        parts.update(_exported(MODELS[name], seed, root))
        per_seed.append(parts)
    return {part: _sha(p[part] for p in per_seed) for part in PARTS}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_region_digests_pinned(name, tmp_path):
    got = region_digests(name, tmp_path)
    assert got == {part: PINNED[f"{name}/{part}"] for part in PARTS}


if __name__ == "__main__":
    import tempfile

    for key in sorted(MODELS):
        with tempfile.TemporaryDirectory() as tmp:
            for part, digest in region_digests(key, Path(tmp)).items():
                print(f'    "{key}/{part}": "{digest}",')
