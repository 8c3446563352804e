"""Byte-identity gate for the planar dual-boundary functions.

The digests below were recorded from the float-tuple implementation of the
dual boundary (dual vertices as pairs of half-integers, the walk over tuple
dicts and sets, ``primal_of`` once per edge in ``star_boundary_path``),
before it moved to integer dual-vertex ids.  For every component of each
model below and seeds 0..2 they pin, as sha256 digests:

- ``boundary_edges``: the sorted dual edges;
- ``dual_boundary``: the edges, ``closed`` and ``vertices()`` of every path;
- ``star_boundary_path``: the site path, or the text of its StructureError;
- ``interior_dual_degrees``: the degree of each interior dual vertex;
- ``check_no_interior_circuits``: its verdict.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from nnlab.errors import StructureError
from nnlab.lattice import Torus
from nnlab.generators import GeneratorSpec
from nnlab.nngraph import undirected_components
from nnlab.topology import (
    boundary_edges,
    check_no_interior_circuits,
    dual_boundary,
    interior_dual_degrees,
    star_boundary_path,
)

from test_region_digests import MODELS as REGION_MODELS

SEEDS = (0, 1, 2)
MODELS = {**REGION_MODELS, "iid_torus": GeneratorSpec("iid", domain=Torus((20, 24)))}
PARTS = ("boundary_edges", "dual_boundary", "star_boundary_path", "interior_dual_degrees",
         "check_no_interior_circuits")

PINNED = {
    "dyadic/boundary_edges": "707b599d8c8be7e5ddf880804d7eecd5f0717dc5e6c7807c5ba340e5c650fdbe",
    "dyadic/dual_boundary": "6481b2387abacaea8cef2e98b10632134e51a8e3b78f85e3d4295c6d4c67aac3",
    "dyadic/star_boundary_path": "cb562e49d7de29889e5f79e86bc5dabe807a400990c8e204b3f6ae1057138bad",
    "dyadic/interior_dual_degrees": "911b123814d2b0fc51a9c4addfae4f51940c7eb1d79de2a30009698fe8913870",
    "dyadic/check_no_interior_circuits": "bc5e34135e73538954bf594300c64f6439d4f2a50181266896f4707c0e5e3c56",
    "iid/boundary_edges": "258e70cc7ad2b0b46e9b5c4b7b8507b99a924edd15dfe785c617274566fbb071",
    "iid/dual_boundary": "111b268560e0154404b6144d3a498cab66ab81ab02d28fb980f573c91f077f30",
    "iid/star_boundary_path": "560c101768ad04510a3aa24f249331fe587e57270f2acec51d94fb2999fd1da3",
    "iid/interior_dual_degrees": "8c2d88df75af2866413b3d6b0e6f11254dabcd9d33ae5c4ab8a36b87dccfcd0c",
    "iid/check_no_interior_circuits": "b12ce1c2ecc717f7b40766d6ea896d8ca0920e28c9adc5ae5a4856d78e62fa27",
    "iid_torus/boundary_edges": "516340a1b15b6a97398f507b737b00a581adc8bda54bd45efef34e1580c30cfb",
    "iid_torus/dual_boundary": "d686af53351cf1ab7b1f221230cae774b0ea51ca40c12085f96b4f42b5a7326e",
    "iid_torus/star_boundary_path": "8b3e752cc6a6f59167bdef1bdfe86a8e7b138b063d56e45100c13f54b2be04d6",
    "iid_torus/interior_dual_degrees": "8dc4aae11cc9101d8fc6d85ae97b0b3478ec42794af2fbd4723a830397280359",
    "iid_torus/check_no_interior_circuits": "dd6e0e47d3fe097904a06989155cedadfed914aa47d394773944da744e924a8b",
    "typec/boundary_edges": "1ac885d44c232ab3b40b8e0b30e8aaf61b6749d49dbb3004078dd18d9bdade31",
    "typec/dual_boundary": "f7562a0ae9f50b5f7a09fceb2fc5aba629ebc31ceee36a43b77e2aa48f83687e",
    "typec/star_boundary_path": "eb0dda7b80a91fff188b80512fcfbf3f2f37818cd01b71fec65f33ee112f9948",
    "typec/interior_dual_degrees": "da8785569f5aa65ace341526c9d5044fcdb04d83e970a512edc96b670e5d9af3",
    "typec/check_no_interior_circuits": "9e05180b3e09b504b5513ee70f13169940d9909bf8f6f795e1823bc84c90e092",
    "zm/boundary_edges": "9f56aa8ef58891cfeb34ead7461e3d48580aaccef8b589bcc2c5ffdc7ba46196",
    "zm/dual_boundary": "6ef4d115d867118c60388043d6f93445766bf47fff3e79d22718ddfadc276746",
    "zm/star_boundary_path": "84af614a7a531de8e65a699d1bf51de6c052245d1f36a9c057f3d18687caeb59",
    "zm/interior_dual_degrees": "698889e7f633aaf1779a70eb3c223552e25681484dcaf47fa4194950ea9b5830",
    "zm/check_no_interior_circuits": "e889965bc2db79b71243d1281f0c86524d09f9bfe005f5f69c490b6a71659ada",
}


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c.encode())
        h.update(b"\n")
    return h.hexdigest()


def _star_path(sites, window):
    try:
        return star_boundary_path(sites, window)
    except StructureError as err:
        return f"StructureError: {err}"


def _component_parts(sites, window) -> dict:
    paths = [[p.edges, p.closed, p.vertices()] for p in dual_boundary(sites, window)]
    parts = {
        "boundary_edges": boundary_edges(sites, window),
        "dual_boundary": paths,
        "star_boundary_path": _star_path(sites, window),
        "interior_dual_degrees": sorted(interior_dual_degrees(sites, window).items()),
        "check_no_interior_circuits": check_no_interior_circuits(sites, window),
    }
    return {k: json.dumps(v, separators=(",", ":")) for k, v in parts.items()}


def dual_digests(name: str) -> dict:
    rows = {part: [] for part in PARTS}
    for seed in SEEDS:
        lab = undirected_components(MODELS[name].build(seed).graph)
        for cid in range(lab.n_components):
            for part, text in _component_parts(lab.vertices_of(cid), lab.dom).items():
                rows[part].append(text)
    return {part: _sha(rows[part]) for part in PARTS}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_dual_digests_pinned(name):
    got = dual_digests(name)
    assert got == {part: PINNED[f"{name}/{part}"] for part in PARTS}


if __name__ == "__main__":
    for key in sorted(MODELS):
        for part, digest in dual_digests(key).items():
            print(f'    "{key}/{part}": "{digest}",')
