"""Byte-identity gate for census records.

The digests below were recorded from the census before the functional-graph
kernels (component labeling, torus winding, pointer jumping, backward sizes)
were merged into one implementation each.  Each one is the sha256 of the
``stable_json`` lines of ``census_once(..., verify_structure=True)`` for seeds
0..2 of one criterion-6 model at a small size, so any change to a census
field (counts, histograms, backward sizes, structure pass rates) shows up here
as a digest mismatch.
"""

from __future__ import annotations

import hashlib

import pytest

from nnlab.generators import GeneratorSpec
from nnlab.lattice import Box, Torus
from nnlab.stats import census_once

SEEDS = (0, 1, 2)

_ZM = GeneratorSpec("zerner_merkl", L=32)
MODELS = {
    "zm": _ZM,
    "typec": GeneratorSpec("type_c", base=_ZM),
    "dyadic2": GeneratorSpec("dyadic", window=Box((0, 0), (31, 31)), n=30),
    "dyadic3": GeneratorSpec("dyadic", window=Box((0, 0, 0), (15, 15, 15)), n=30),
    "fk2": GeneratorSpec("finite_k", k=2, n=30, window=Box((0, 0, 0), (39,) * 3)),
    "fk3": GeneratorSpec("finite_k", k=3, n=30, window=Box((0, 0, 0), (47,) * 3)),
    "layered": GeneratorSpec(
        "layered", base=GeneratorSpec("dyadic", window=Box((0, 0), (23, 23)), n=30), layers=3
    ),
    "iid2": GeneratorSpec("iid", domain=Torus((32, 32))),
}

PINNED = {
    "dyadic2": "ac6a756ef2a3fe2b9d0b546d3f1ad0725428b96ddf50380062f76778fc01dbd1",
    "dyadic3": "ea8e312cc5e69bfd3c91729b4abf2bef21d9c612deec3cf8711af5334b903806",
    "fk2": "9924441816f23af52c24125fcf657b45b450ea0dcd13d22b2c9931074fb73857",
    "fk3": "7864e9323704720b191c1776c648a99eccc67029dd1962fe804f615589e6a1dd",
    "iid2": "5a6ec67a128b79d862c5ade99b46fffdc0421bd3fae368ad4c6408aa5eeff5c2",
    "layered": "1bc7c75862471c48f1fdd5395e714f7a4eb6daea9957164e8230cd0b9209fa7a",
    "typec": "2e1d3694cfb53412b63aec3001f79461661d153e844279544a779d6719b976b5",
    "zm": "bbd69196a2eef9879858bdb77e9e5a99cde4c4a81807aee390a81fa36e046935",
}


def census_digest(name: str) -> str:
    lines = [census_once(MODELS[name], s, verify_structure=True).stable_json() for s in SEEDS]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_census_digest_pinned(name):
    assert census_digest(name) == PINNED[name]


if __name__ == "__main__":
    for key in sorted(MODELS):
        print(f'    "{key}": "{census_digest(key)}",')
