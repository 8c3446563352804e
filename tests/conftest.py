"""Shared fixtures and independent oracles used across the test modules."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from nnlab.lattice import Box, Torus
from nnlab.nngraph import OutMap
from nnlab.rng import SeededRng


@st.composite
def small_domains(draw):
    """A Box or Torus of dimension 1-3: box axes of side 1-4 from a lo in
    [-3, 3], torus sides 3 or 4."""
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return Torus(draw(st.lists(st.integers(3, 4), min_size=d, max_size=d)))
    lo = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    sides = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
    return Box(tuple(lo), tuple(c + s - 1 for c, s in zip(lo, sides)))


def vertex_priority_digraph(dom, seed: int) -> OutMap:
    """Random admissible digraph: each vertex points at its highest-priority
    neighbor under a random vertex permutation.

    Around any directed cycle the priority of every second vertex would have
    to strictly decrease forever, so these maps never contain cycles of
    length three or more, on boxes or tori alike.
    """
    pri = SeededRng(seed).child("priority").shuffled(dom.n_sites)
    out = {}
    for i in range(dom.n_sites):
        x = dom.index_site(i)
        nbrs = dom.neighbors(x)
        if nbrs:
            out[x] = min(nbrs, key=lambda y: pri[dom.site_index(y)])
    return OutMap(dom, out)


def random_outmap(dom, seed: int) -> OutMap:
    """Arbitrary out-map: each site points at a random neighbor, with a random
    bias among the 2d directions (strong biases make orbits wind around a
    torus) and a random share of sites left without an out-edge.  Long
    directed cycles, winding or not, are allowed."""
    rng = np.random.default_rng(seed)
    n = dom.n_sites
    bias = rng.random(2 * dom.d) ** 3 if rng.random() < 0.5 else np.ones(2 * dom.d)
    choice = rng.choice(2 * dom.d, n, p=bias / bias.sum())
    targets = np.stack([dom.neighbor_index(a, s) for a in range(dom.d) for s in (1, -1)])
    out = targets[choice, np.arange(n)]
    out[rng.random(n) < rng.choice([0.0, 0.05, 0.2])] = -1
    return OutMap(dom, out)


def brute_force_nn(w) -> dict:
    """Per-vertex argmin over incident edges, the slow way."""
    dom = w.dom
    out = {}
    for x in dom.sites():
        best = None
        best_w = None
        for y in dom.neighbors(x):
            e = (x, y) if x <= y else (y, x)
            wt = w.weight(e)
            if best_w is None or wt < best_w:
                best_w, best = wt, y
        if best is not None:
            out[x] = best
    return out


def brute_force_components(g: OutMap) -> list:
    """Undirected components by plain BFS over the edge list."""
    adj = {}
    for x, y in g.items():
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)
    seen = set()
    comps = []
    for i in range(g.dom.n_sites):
        x = g.dom.index_site(i)
        if x in seen:
            continue
        comp = {x}
        stack = [x]
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(sorted(comp))
    return sorted(comps)


@pytest.fixture
def small_torus():
    return Torus((6, 6))


@pytest.fixture
def path_graph_1d():
    """The worked 1D example: v0-v1-v2-v3 with weights 0.3, 0.1, 0.4."""
    from nnlab.weights import WeightField

    dom = Box((0,), (3,))
    vals = np.full((1, 4), np.nan)
    vals[0, 0] = 0.3
    vals[0, 1] = 0.1
    vals[0, 2] = 0.4
    return dom, WeightField(dom, vals)
