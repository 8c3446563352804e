"""Domains, adjacency, canonical edges, and the planar dual bijection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnlab.errors import DomainError, SpecError, UnsupportedDimensionError
from nnlab.lattice import (
    Box,
    SiteSet,
    Torus,
    canonical_edge,
    neighbors,
    star_neighbors,
)

from conftest import small_domains
from oracles import dual_of, face_depth, primal_of, star_neighbors_reference, translate_reference


def test_box_1d_boundary_truncation():
    dom = Box((0,), (2,))
    assert neighbors((0,), dom) == [(1,)]
    assert neighbors((1,), dom) == [(2,), (0,)]


def test_torus_wraparound():
    dom = Torus((4, 4))
    assert set(neighbors((0, 0), dom)) == {(1, 0), (3, 0), (0, 1), (0, 3)}


def test_box_3d_interior_degree():
    dom = Box((0, 0, 0), (4, 4, 4))
    assert len(neighbors((2, 2, 2), dom)) == 6


def test_star_neighbors_interior():
    dom = Box((0, 0), (9, 9))
    assert len(star_neighbors((5, 5), dom)) == 8


def test_star_neighbors_corner():
    dom = Box((0, 0), (9, 9))
    assert set(star_neighbors((0, 0), dom)) == {(1, 0), (0, 1), (1, 1)}


def test_star_neighbors_1d_equals_neighbors():
    dom = Box((0,), (9,))
    assert set(star_neighbors((3,), dom)) == set(neighbors((3,), dom)) == {(2,), (4,)}


def test_outside_site_rejected():
    dom = Box((0, 0), (3, 3))
    with pytest.raises(DomainError):
        neighbors((5, 5), dom)
    with pytest.raises(DomainError):
        star_neighbors((-1, 0), dom)


def test_torus_min_side():
    with pytest.raises(SpecError):
        Torus((2, 4))
    with pytest.raises(SpecError):
        Torus((1,))
    Torus((3, 3))


def test_box_corner_order():
    with pytest.raises(SpecError):
        Box((2, 0), (1, 5))


def test_edge_canonicalization():
    assert canonical_edge((1, 0), (0, 0)) == canonical_edge((0, 0), (1, 0))
    dom = Torus((4, 4))
    assert dom.edge((0, 0), (3, 0)) == dom.edge((3, 0), (0, 0))


def test_edge_counts():
    assert Torus((4, 4)).n_edges == 2 * 16
    assert Box((0, 0), (3, 3)).n_edges == 2 * 4 * 3  # 2 axes x 4 rows x 3 steps
    assert Box((0,), (9,)).n_edges == 9


def test_dual_of_paper_example():
    # vertical unit edge at the origin
    assert dual_of(((0, 0), (0, 1))) == ((-0.5, 0.5), (0.5, 0.5))


def test_dual_of_rotated_example():
    f = dual_of(((0, 0), (1, 0)))
    assert f == ((0.5, -0.5), (0.5, 0.5))
    assert primal_of(f) == ((0, 0), (1, 0))


def test_dual_bijection_box():
    dom = Box((0, 0), (9, 9))
    seen = set()
    for e in dom.edges():
        f = dual_of(e)
        assert primal_of(f) == e
        assert f not in seen
        seen.add(f)
    assert len(seen) == dom.n_edges


def test_dual_bijection_torus():
    dom = Torus((5, 4))
    seen = set()
    for e in dom.edges():
        f = dual_of(e, dom)
        assert primal_of(f, dom) == e
        seen.add(f)
    assert len(seen) == dom.n_edges


def test_dual_requires_d2():
    with pytest.raises(UnsupportedDimensionError):
        dual_of(((0, 0, 0), (0, 0, 1)))


@settings(max_examples=60, deadline=None)
@given(
    sides=st.lists(st.integers(3, 6), min_size=1, max_size=3),
    coord_seed=st.integers(0, 10**6),
)
def test_torus_degree_and_star_superset(sides, coord_seed):
    dom = Torus(tuple(sides))
    i = coord_seed % dom.n_sites
    x = dom.index_site(i)
    nb = neighbors(x, dom)
    assert len(nb) == 2 * dom.d or any(s == 3 for s in sides)
    assert set(nb) <= set(star_neighbors(x, dom)) | set(nb)
    # star-neighborhood always contains the lattice neighborhood
    assert set(nb) <= set(star_neighbors(x, dom))


@settings(max_examples=60, deadline=None)
@given(
    lo=st.lists(st.integers(-5, 5), min_size=1, max_size=3),
    extent=st.lists(st.integers(0, 4), min_size=1, max_size=3),
    coord_seed=st.integers(0, 10**6),
)
def test_box_interior_degree(lo, extent, coord_seed):
    d = min(len(lo), len(extent))
    lo = tuple(lo[:d])
    hi = tuple(l + e for l, e in zip(lo, extent[:d]))
    dom = Box(lo, hi)
    i = coord_seed % dom.n_sites
    x = dom.index_site(i)
    nb = neighbors(x, dom)
    depth = dom.face_depths()[i]
    assert depth == face_depth(x, dom)
    assert (len(nb) == 2 * d) == (depth >= 2)
    assert set(nb) <= set(star_neighbors(x, dom))


def test_site_index_roundtrip():
    dom = Box((-2, 3), (4, 7))
    for i in range(dom.n_sites):
        assert dom.site_index(dom.index_site(i)) == i


@pytest.mark.parametrize("dom", [Box((-2, -1, -3), (2, 3, 1)), Torus((3, 5))])
def test_coords_index_and_edge_slots_match_per_site_versions(dom):
    coords = dom.index_coords()
    assert np.array_equal(dom.coords_index(coords), np.arange(dom.n_sites))
    edges = list(dom.edges())
    a = dom.coords_index([x for x, _ in edges])
    b = dom.coords_index([y for _, y in edges])
    for base, axis in (dom.edge_slots(a, b), dom.edge_slots(b, a)):
        assert list(zip(base.tolist(), axis.tolist())) == [dom.edge_slot(e) for e in edges]


def test_coords_index_is_strict():
    dom = Box((-2, -1), (2, 3))
    assert dom.coords_index([]).shape == (0,)
    for bad in ([(3, 0)], [(0, 4)], [(0, 0, 0)], [(0.0, 1.0)], [(0, 0), (1,)]):
        with pytest.raises(DomainError):
            dom.coords_index(bad)
    with pytest.raises(DomainError):
        dom.edge_slots([dom.site_index((0, 0))], [dom.site_index((2, 2))])


@settings(max_examples=150, deadline=None)
@given(dom=small_domains(), seed=st.integers(0, 2**32 - 1))
@example(dom=Box((-2, 0, -1), (-2, 1, 2)), seed=0)
@example(dom=Torus((3, 4, 3)), seed=0)
def test_step_codes_match_neighbor_tables(dom, seed):
    """Every neighbor pair in both orders, every self pair and random pairs
    decode to the (axis, sign) whose neighbor table holds them, or to 0; a
    step wraps a seam exactly when it leaves the face it steps across."""
    n = dom.n_sites
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    pairs = [(i, i), (rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n))]
    for a in range(dom.d):
        j = dom.neighbor_index(a, +1)
        pairs += [(i[j >= 0], j[j >= 0]), (j[j >= 0], i[j >= 0])]
    src, dst = map(np.concatenate, zip(*pairs))
    expect = np.zeros(len(src), dtype=np.int64)
    face = np.zeros(len(src), dtype=bool)
    c = np.indices(dom.shape).reshape(dom.d, -1).T  # coordinates relative to the least corner
    for a in range(dom.d):
        for sign in (+1, -1):
            hit = dom.neighbor_index(a, sign)[src] == dst
            expect[hit] = sign * (a + 1)
            face[hit] = c[src[hit], a] == (dom.shape[a] - 1 if sign > 0 else 0)
    code = dom.step_codes(src, dst)
    assert code.dtype == np.int8
    assert np.array_equal(code, expect)
    wraps = (code != 0) & ((code > 0) != (dst > src))
    assert np.array_equal(wraps, face & (code != 0))
    assert np.array_equal(dom.seam_codes(src, dst), np.where(wraps, code, 0))
    assert wraps.any() == dom.wraps


@pytest.mark.parametrize("dom", [Box((-2, 1), (3, 4)), Torus((5, 4))], ids=repr)
def test_site_set_reads_as_its_tuple_list(dom):
    """A SiteSet of flat indices reads as the list of their sites: equality
    both ways, indexing, slicing, the coordinate array, sets and sorting.
    Its indices are read-only, and an index outside the domain is a
    DomainError."""
    idx = np.array([7, 0, 13, 19])
    tuples = dom.index_sites(idx)
    S = SiteSet(dom, idx)
    assert S == tuples and tuples == S and S == tuple(tuples)
    assert S != tuples[:-1] and S != tuples[::-1] and S != set(tuples)
    assert len(S) == 4 and S[0] == tuples[0] and S[-1] == tuples[-1] and list(S) == tuples
    assert isinstance(S[1:3], SiteSet) and S[1:3] == tuples[1:3] == SiteSet(dom, idx[1:3])
    arr = np.asarray(S, dtype=np.int64)
    assert arr.shape == (4, 2) and arr.dtype == np.int64 and arr.tolist() == [list(x) for x in tuples]
    assert np.asarray(S).dtype == np.int64 and np.asarray(S[:0]).shape == (0, 2)
    assert dom.coords_index(S).tolist() == idx.tolist()
    assert frozenset(S) == frozenset(tuples) and sorted(S) == sorted(tuples)
    idx[0] = 1  # the set holds its own copy
    assert S == tuples
    with pytest.raises(ValueError):
        S.idx[0] = 1
    assert S.closure is None and S[1:3].closure is None
    for bad in ([-1], [0, dom.n_sites]):
        with pytest.raises(DomainError):
            SiteSet(dom, bad)


@settings(max_examples=100, deadline=None)
@given(dom=small_domains(), dv=st.lists(st.integers(-5, 5), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
@example(dom=Box((-2, 0, -1), (-2, 1, 2)), dv=[0, 1, -3], seed=0)
@example(dom=Torus((3, 4, 3)), dv=[-1, 4, 5], seed=0)
def test_per_site_methods_match_neighbor_tables(dom, dv, seed):
    """At every site, axis_neighbor, neighbors and contains agree with the
    neighbor tables; translate and star_neighbors agree with coordinate
    arithmetic; index_coords(idx) reads rows of index_coords()."""
    coords = dom.index_coords()
    sites = [tuple(c) for c in coords.tolist()]
    dv = tuple(dv[:dom.d])
    for i, x in enumerate(sites):
        assert dom.contains(x) and not dom.contains(x + (0,)) and not dom.contains(x[1:])
        expect = []
        for a in range(dom.d):
            for sign in (1, -1):
                j = int(dom.neighbor_index(a, sign)[i])
                y = sites[j] if j >= 0 else None
                assert dom.axis_neighbor(x, a, sign) == y
                step = tuple(c + sign * (b == a) for b, c in enumerate(x))
                assert dom.contains(step) == (y == step)
                if y is not None:
                    expect.append(y)
        assert dom.neighbors(x) == expect
        assert dom.star_neighbors(x) == star_neighbors_reference(x, dom)
        assert dom.translate(x, dv) == translate_reference(x, dv, dom)
    idx = np.random.default_rng(seed).integers(0, dom.n_sites, 2 * dom.n_sites)
    for part in (idx, idx[:0], np.arange(dom.n_sites)):
        got = dom.index_coords(part)
        assert got.dtype == np.int64 and got.shape == (len(part), dom.d)
        assert np.array_equal(got, coords[part])


@settings(max_examples=100, deadline=None)
@given(a=small_domains(), b=small_domains())
@example(a=Box((0, 0), (2, 2)), b=Torus((3, 3)))
@example(a=Box((0, 0, 0), (3, 2, 3)), b=Box((1, 0, 0), (4, 2, 3)))
def test_domain_equality_is_by_kind_and_corners(a, b):
    """Two domains are equal exactly when their reprs are: a Box never equals
    a Torus of the same shape, nor a Box of the same shape elsewhere.  Equal
    domains hash equal."""
    assert (a == b) == (b == a) == (repr(a) == repr(b))
    for dom in (a, b):
        copy = eval(repr(dom), {"Box": Box, "Torus": Torus})
        assert copy == dom and hash(copy) == hash(dom) and copy is not dom
