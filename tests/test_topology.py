"""Planar machinery: closures, dual boundaries, star paths, regions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnlab.errors import DomainError, StructureError, UnsupportedDimensionError
from nnlab.lattice import Box, Torus
from nnlab.nngraph import OutMap, build_nn_directed, undirected_components
from nnlab.rng import SeededRng
from nnlab import topology
from nnlab.generators import gen_dyadic_window, gen_zerner_merkl, modify_type_c
from nnlab.topology import (
    boundary_edges,
    check_closure_idempotent,
    check_complement_unbounded,
    check_degree_two,
    check_neighbor_hole,
    check_no_interior_circuits,
    _closure_mask,
    _plaquette_degrees,
    classify_regions,
    closure,
    dual_boundary,
    interior_dual_degrees,
    star_boundary_path,
)
from nnlab.weights import sample_iid_uniform

from conftest import random_outmap
from oracles import (
    boundary_edges_reference,
    check_closure_idempotent_reference,
    check_complement_unbounded_reference,
    check_degree_two_reference,
    check_neighbor_hole_reference,
    check_no_interior_circuits_reference,
    classify_regions_reference,
    closure_on_left_reference,
    closure_reference,
    dual_boundary_reference,
    flood_fill_components,
    free_pieces_reference,
    interior_dual_degrees_reference,
    plaquette_degrees_reference,
    site_components,
    star_boundary_path_reference,
)


WIN = Box((-6, -6), (9, 9))


def test_site_components_diagonal_not_adjacent():
    assert len(site_components({(0, 0), (1, 1)}, WIN)) == 2


def test_site_components_l_shape():
    assert len(site_components({(0, 0), (1, 0), (1, 1)}, WIN)) == 1


@settings(max_examples=50, deadline=None)
@given(bits=st.integers(0, 2**25 - 1))
def test_site_components_match_flood_fill(bits):
    sites = {(i % 5, i // 5) for i in range(25) if (bits >> i) & 1}
    if not sites:
        return
    got = [sorted(c) for c in site_components(sites, WIN)]
    assert sorted(got) == flood_fill_components(sites, WIN)


def test_closure_fills_annulus():
    ann = [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
    assert closure(ann, WIN) == set(ann) | {(1, 1)}


def test_closure_no_holes_identity():
    v = {(0, 0), (1, 0), (2, 0)}
    assert closure(v, WIN) == v


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(0, 2**25 - 1))
def test_closure_idempotent_and_complement_unbounded(bits):
    sites = {(i % 5, i // 5) for i in range(25) if (bits >> i) & 1}
    assert check_closure_idempotent(sites, WIN)
    assert check_complement_unbounded(sites, WIN)
    assert check_neighbor_hole(sites, WIN)



def test_neighbor_hole_check_sees_a_partly_filled_hole(monkeypatch):
    # V rings the hole {(2, 2), (3, 2)}; the patched closure fills only
    # (3, 2), leaving (2, 2) open on its -1 side along axis 0
    hole = [(2, 2), (3, 2)]
    V = [(x, y) for x in range(1, 5) for y in range(1, 4) if (x, y) not in hole]
    assert check_neighbor_hole(V, WIN)
    real = topology._closure_mask

    def partial(mask, window):
        out = real(mask, window)
        out[window.site_index(hole[0])] = False
        return out

    monkeypatch.setattr(topology, "_closure_mask", partial)
    assert not check_neighbor_hole(V, WIN)

@settings(max_examples=40, deadline=None)
@given(bits=st.integers(0, 2**25 - 1))
def test_closure_fast_matches_reference_box(bits):
    win = Box((0, 0), (4, 4))
    sites = {(i % 5, i // 5) for i in range(25) if (bits >> i) & 1}
    assert closure(sites, win) == closure_reference(sites, win)


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(0, 2**36 - 1))
def test_closure_fast_matches_reference_torus(bits):
    t = Torus((6, 6))
    sites = {(i % 6, i // 6) for i in range(36) if (bits >> i) & 1}
    assert closure(sites, t) == closure_reference(sites, t)


@st.composite
def free_grids(draw):
    """A grid of 1-8 x 1-8 sites, True where free."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    density = draw(st.sampled_from([0.0, 0.3, 0.6, 0.85, 1.0]))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(shape) < density


def _grid(rows: str) -> np.ndarray:
    return np.array([[c == "." for c in row] for row in rows.split()])


@settings(max_examples=200, deadline=None)
@given(free=free_grids())
@example(free=_grid(".#.. .... #..#"))  # runs overlapping in more than one site
@example(free=_grid("#.#. .... #.##"))  # a fully free row
@example(free=_grid("#.# ... #.# ..#"))  # a fully free column
@example(free=_grid(".##. ##.. #..# ..##"))  # a staircase winding +e_0 - e_1
@example(free=_grid("..#.."))  # 1 x n
@example(free=_grid(". . # . ."))  # n x 1
@example(free=_grid("... ... ..."))  # all free
@example(free=_grid("### ###"))  # all blocked
def test_free_pieces_match_bfs_oracle(free):
    """Under each of the four wraps pairs, the run labeling of a grid gives
    the labels and unbounded flags of a site-by-site search with a lift per
    wrapping axis."""
    for wraps in [(False, False), (False, True), (True, False), (True, True)]:
        labels, unbounded = topology._free_pieces(free, wraps)
        want_labels, want_unbounded = free_pieces_reference(free, wraps)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, want_labels)
        assert np.array_equal(unbounded, want_unbounded)


@st.composite
def sets_in_sub_rectangles(draw):
    """A box of up to 12 x 12 sites (lo may be negative) or a torus of up to
    10 x 10, and a random site set inside a random sub-rectangle of it, which
    on a torus may straddle a seam."""
    if draw(st.booleans()):
        x0, y0 = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
        h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        window = Box((x0, y0), (x0 + h - 1, y0 + w - 1))
    else:
        window = Torus((draw(st.integers(3, 10)), draw(st.integers(3, 10))))
    shape = np.array(window.shape)
    start = np.array([draw(st.integers(0, s - 1)) for s in shape])
    size = np.array([draw(st.integers(1, s)) for s in shape])
    if isinstance(window, Box):
        size = np.minimum(size, shape - start)
    density = draw(st.sampled_from([0.3, 0.6, 0.85, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rel = np.indices(size).reshape(2, -1).T
    rel = rel[rng.random(len(rel)) < density]
    return window, window.index_sites((rel + start) % shape @ [shape[1], 1])


_RING = [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]


def _shifted(sites, dx, dy, window=None):
    out = [(x + dx, y + dy) for x, y in sites]
    return [window.wrap(s) for s in out] if isinstance(window, Torus) else out


@settings(max_examples=150, deadline=None)
@given(case=sets_in_sub_rectangles())
@example(case=(Box((-5, -4), (6, 7)), []))
@example(case=(Torus((7, 5)), []))
@example(case=(Box((-5, -4), (6, 7)), [(0, 0)]))
@example(case=(Torus((4, 6)), [(3, 5)]))
@example(case=(Box((-5, -4), (6, 7)), _shifted(_RING, -5, 1)))  # on a face
@example(case=(Box((-5, -4), (6, 7)), _shifted(_RING, 4, 5)))  # in a corner
@example(case=(Torus((6, 6)), _shifted(_RING, 5, 5, Torus((6, 6)))))  # across both seams
@example(case=(Torus((6, 5)), [(x, y) for x in range(1, 6) for y in range(4)
                               if not (2 <= x <= 4 and 1 <= y <= 2)]))  # one free residue per axis
@example(case=(Torus((6, 7)), [(2, y) for y in range(7)] + _shifted(_RING, 3, 2)))  # a whole row
# V covers axis 0 only: B wraps on axis 0 and has faces on axis 1
@example(case=(Torus((7, 6)), [(x, 0) for x in range(7)] + _shifted(_RING, 2, 2)))
# V covers both axes and winds, with a hole that does not wind
@example(case=(Torus((6, 6)), [(0, y) for y in range(6)] + [(1, 0), (5, 0)] + _shifted(_RING, 2, 2)))
# V covers both axes as a staircase that does not wind
@example(case=(Torus((5, 5)), [(i, i) for i in range(5)] + [(i + 1, i) for i in range(4)]))
def test_local_closure_matches_whole_window_oracles(case):
    window, V = case
    clo = closure(V, window)
    assert clo == closure_reference(V, window)
    assert check_closure_idempotent(V, window) == check_closure_idempotent_reference(V, window)
    assert check_complement_unbounded(V, window) == check_complement_unbounded_reference(V, window)
    assert check_neighbor_hole(V, window) == check_neighbor_hole_reference(V, window)
    for margin in (0, 2):
        assert check_degree_two(V, window, margin) == check_degree_two_reference(V, window, margin)
    assert interior_dual_degrees(V, window) == interior_dual_degrees_reference(V, window)
    # the plaquettes read are those with a corner in the closure, in flat
    # order; every plaquette left out has degree 0
    mask = np.zeros(window.n_sites, dtype=bool)
    mask[window.coords_index(sorted(clo))] = True
    points, deg = _plaquette_degrees(mask, window)
    got = dict(zip(map(tuple, points.tolist()), deg.tolist()))
    points, deg = plaquette_degrees_reference(mask, window)
    want = dict(zip(map(tuple, points.tolist()), deg.tolist()))
    assert list(got.items()) == [(p, k) for p, k in want.items() if p in got]
    assert not any(k for p, k in want.items() if p not in got)


def test_closure_labels_once_on_its_cut_grid(monkeypatch):
    """A closure labels its cropped grid once: on a box, for a local V,
    without building the window's neighbor tables; on a torus, once for a V
    whose projection covers both axes."""
    import nnlab

    calls = {"label_components": 0}
    fn = nnlab.nngraph.label_components

    def counted(*args, **kwargs):
        calls["label_components"] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(nnlab.nngraph, "label_components", counted)
    box = Box((0, 0), (127, 127))
    mask = np.zeros(box.n_sites, dtype=bool)
    mask[box.coords_index(_shifted(_RING, 60, 70))] = True
    cache = dict(box._nbr_cache)
    clo = _closure_mask(mask, box)
    assert calls["label_components"] == 1
    assert box._nbr_cache == cache
    assert clo.sum() == 9

    calls["label_components"] = 0
    t = Torus((6, 6))
    V = [(0, y) for y in range(6)] + [(1, 0), (5, 0)] + _shifted(_RING, 2, 2)
    assert closure(V, t) == set(V) | {(3, 3)}
    assert calls["label_components"] == 1


def test_lemma_checks_of_one_site_set_share_its_closure(monkeypatch):
    """The three lemma checks of one vertices_of(cid) compute 2 closures: the
    set's own, kept read-only on it, and the second one of the idempotence
    check.  The same sites as a tuple list cost 4, one per closure read."""
    window = Box((0, 0), (15, 15))
    lab = undirected_components(build_nn_directed(sample_iid_uniform(window, SeededRng(2))))
    calls = []
    real = topology._closure_mask

    def counted(mask, window):
        calls.append(1)
        return real(mask, window)

    monkeypatch.setattr(topology, "_closure_mask", counted)

    def checks(V):
        calls.clear()
        got = (check_degree_two(V, window), check_closure_idempotent(V, window),
               check_neighbor_hole(V, window))
        return got, len(calls)

    V = lab.vertices_of(int(np.argmax(lab.sizes)))
    got, n_calls = checks(V)
    assert n_calls == 2
    assert checks(list(V)) == (got, 4)
    clo = topology._closure_of(V, window)
    assert clo is V.closure and len(calls) == 4  # read from the set, not computed again
    with pytest.raises(ValueError):
        clo[0] = not clo[0]


def test_region_tags_read_as_the_tag_dict():
    """RegionClassification.tags is a read-only view over the flat region-id
    array that equals the site -> (kind, rid) dict of its regions."""
    window = Torus((6, 7))
    rc = classify_regions(undirected_components(random_outmap(window, 4)), window)
    tags = {x: (r.kind, r.rid) for r in rc.regions for x in r.sites}
    assert rc.tags == tags and tags == rc.tags and len(rc.tags) == window.n_sites
    assert list(rc.tags) == sorted(tags) and rc.tags[(5, 6)] == tags[(5, 6)]
    assert (6, 0) not in rc.tags and rc.tags.get((1.5, 0)) is None
    assert rc.tags[(1.0, 2)] == tags[(1, 2)] and rc.tags is rc.tags
    with pytest.raises(TypeError):
        rc.tags[(0, 0)] = ("c", 0)
    with pytest.raises(ValueError):
        rc.region_id[0] = 0
    assert rc == classify_regions(undirected_components(random_outmap(window, 4)), window)


def test_dual_boundary_single_site():
    paths = dual_boundary({(0, 0)}, WIN)
    assert len(paths) == 1
    assert len(paths[0].edges) == 4
    assert paths[0].closed


def test_dual_boundary_domino_six_edges():
    # by hand: the 2x1 block has 6 boundary edges
    edges = boundary_edges({(0, 0), (1, 0)}, WIN)
    assert len(edges) == 6
    paths = dual_boundary({(0, 0), (1, 0)}, WIN)
    assert len(paths) == 1 and len(paths[0].edges) == 6 and paths[0].closed


def test_dual_boundary_orientation_deterministic():
    p1 = dual_boundary({(0, 0), (1, 0)}, WIN)[0]
    p2 = dual_boundary({(0, 0), (1, 0)}, WIN)[0]
    assert p1.edges == p2.edges
    verts = p1.vertices()
    assert verts[0] == min(verts[:-1])


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(0, 2**16 - 1))
def test_degree_two_on_connected_sets(bits):
    sites = {(i % 4, i // 4) for i in range(16) if (bits >> i) & 1}
    comps = site_components(sites, WIN)
    if not comps:
        return
    v = comps[0]
    degs = interior_dual_degrees(v, WIN)
    assert all(k == 2 for k in degs.values())


def test_degree_two_with_margin_on_iid():
    dom = Box((0, 0), (23, 23))
    w = sample_iid_uniform(dom, SeededRng(9))
    g = build_nn_directed(w)
    lab = undirected_components(g)
    for cid in range(lab.n_components):
        sites = lab.vertices_of(cid)
        assert check_degree_two(sites, dom)


def test_star_boundary_insertion_paper_case():
    # notched half-plane: traversal passes (0,0) then (1,1); the unique common
    # outside neighbor (1,0) is inserted between them
    win = Box((-3, -2), (4, 3))
    v = [(x, y) for x in range(-3, 5) for y in range(1, 4) if (x, y) != (1, 1)]
    p = star_boundary_path(v, win)
    triples = [(p[i], p[i + 1], p[i + 2]) for i in range(len(p) - 2)]
    assert any(
        t in (((0, 0), (1, 0), (1, 1)), ((1, 1), (1, 0), (0, 0))) for t in triples
    )
    assert all(abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1 for a, b in zip(p, p[1:]))


def test_star_boundary_straight_no_insertions():
    win = Box((-3, -2), (4, 3))
    v = [(x, y) for x in range(-3, 5) for y in range(1, 4)]
    p = star_boundary_path(v, win)
    assert all(y == 0 for _, y in p)
    assert len(p) == 8


def test_star_boundary_raises_on_split_boundary():
    win = Box((-3, -3), (3, 3))
    with pytest.raises(StructureError):
        # two separate blobs: two boundary circuits
        star_boundary_path({(0, 0)}, win) and None
        star_boundary_path({(0, 0), (2, 2)}, win)


def test_torus_classification_zm():
    t = Torus((16, 16))
    g = gen_zerner_merkl(16, SeededRng(3))
    rc = classify_regions(undirected_components(g), t)
    assert rc.counts() == {"a": 2, "b": 0, "c": 0}
    assert rc.partition_complete()


def test_torus_classification_type_c():
    for seed in (3, 5):
        g = modify_type_c(gen_zerner_merkl(16, SeededRng(seed)))
        rc = classify_regions(undirected_components(g), g.dom)
        counts = rc.counts()
        assert counts["a"] == 2
        assert counts["c"] >= 1
        assert rc.partition_complete()
        for r in rc.regions:
            if r.kind == "c":
                assert len(r.star_touches) <= 2


def test_box_classification_partition_iid():
    dom = Box((0, 0), (15, 15))
    w = sample_iid_uniform(dom, SeededRng(2))
    g = build_nn_directed(w)
    rc = classify_regions(undirected_components(g), dom)
    assert rc.partition_complete()


def test_partition_check_reads_the_regions():
    """partition_complete fails when a region misses a site and holds
    another twice, when it holds a site outside the window, and when
    region_id disagrees with the regions."""
    dom = Box((0, 0), (7, 7))
    rc = classify_regions(undirected_components(random_outmap(dom, 3)), dom)
    assert rc.partition_complete()
    big = max(rc.regions, key=lambda r: len(r.sites))
    sites = big.sites
    big.sites = [sites[0], *sites[:-1]]
    assert not rc.partition_complete()
    big.sites = [*sites[:-1], (8, 0)]
    assert not rc.partition_complete()
    big.sites = sites
    assert rc.partition_complete()
    rid = rc.region_id.copy()
    rid[big.sites.idx[0]] = (big.rid + 1) % len(rc.regions)
    rc.region_id = rid
    assert not rc.partition_complete()


def test_classification_requires_d2():
    dom = Box((0, 0, 0), (3, 3, 3))
    with pytest.raises(UnsupportedDimensionError):
        closure({(0, 0, 0)}, dom)


def test_no_interior_circuits_for_spanning_dyadic():
    win = Box((0, 0), (31, 31))
    g = gen_dyadic_window(20, (33, 65), win)
    lab = undirected_components(g)
    for cid in np.where(lab.spanning)[0]:
        sites = lab.vertices_of(int(cid))
        assert check_no_interior_circuits(sites, win)


def test_zm_boundary_degree_two_on_torus():
    t = Torus((12, 12))
    g = gen_zerner_merkl(12, SeededRng(1))
    lab = undirected_components(g)
    for cid in np.where(lab.wrapping)[0]:
        sites = lab.vertices_of(int(cid))
        degs = interior_dual_degrees(sites, t)
        assert all(k == 2 for k in degs.values())
        assert check_no_interior_circuits(sites, t)


def _regions(rc):
    return [(r.kind, r.rid, r.sites, r.component_id, r.star_touches) for r in rc.regions]


@st.composite
def planar_windows(draw):
    if draw(st.booleans()):
        return Torus((draw(st.integers(3, 7)), draw(st.integers(3, 7))))
    lo = (draw(st.integers(-4, 2)), draw(st.integers(-4, 2)))
    return Box(lo, (lo[0] + draw(st.integers(1, 6)), lo[1] + draw(st.integers(1, 6))))


@settings(max_examples=60, deadline=None)
@given(window=planar_windows(), seed=st.integers(0, 2**32 - 1))
def test_array_topology_matches_per_site_oracles(window, seed):
    """Region classification (star touches included), closure, boundary edges,
    the lemma checks and the side of the closure along each dual path against
    their per-site twins, on the components of a random out-map and on a
    random site set."""
    lab = undirected_components(random_outmap(window, seed))
    rc = classify_regions(lab, window)
    ref = classify_regions_reference(lab, window)
    assert _regions(rc) == _regions(ref)
    assert rc.tags == ref.tags
    assert rc.to_csv() == ref.to_csv()
    rng = np.random.default_rng(seed)
    sites = list(window.sites())
    subsets = [lab.vertices_of(c) for c in range(lab.n_components)]
    subsets.append([x for x in sites if rng.random() < 0.5])
    for V in subsets:
        assert closure(V, window) == closure_reference(V, window)
        assert boundary_edges(V, window) == boundary_edges_reference(V, window)
        assert interior_dual_degrees(V, window) == interior_dual_degrees_reference(V, window)
        for margin in (0, 2):
            expected = check_degree_two_reference(V, window, margin)
            assert check_degree_two(V, window, margin) == expected
        assert check_closure_idempotent(V, window) == check_closure_idempotent_reference(V, window)
        assert check_neighbor_hole(V, window) == check_neighbor_hole_reference(V, window)
        # the closure starts on the left of each path unless it starts on the
        # right both ways round (as a degree-four pinch can make it)
        clo = closure_reference(V, window)
        for p in dual_boundary(V, window):
            v = p.vertices()
            assert (len(v) < 2 or closure_on_left_reference(v[0], v[1], clo, window)
                    or not closure_on_left_reference(v[-1], v[-2], clo, window))


@st.composite
def dual_windows(draw):
    if draw(st.booleans()):
        return Torus((draw(st.integers(3, 8)), draw(st.integers(3, 8))))
    lo = (draw(st.integers(-5, 0)), draw(st.integers(-5, 0)))
    return Box(lo, (lo[0] + draw(st.integers(1, 7)), lo[1] + draw(st.integers(1, 7))))


def _dual_outputs(V, window, boundary, star_path, no_circuits) -> tuple:
    try:
        star = star_path(V, window)
    except StructureError as err:
        star = f"StructureError: {err}"
    paths = [(p.edges, p.closed, p.vertices()) for p in boundary(V, window)]
    return paths, star, no_circuits(V, window)


@settings(max_examples=80, deadline=None)
@given(window=dual_windows(), seed=st.integers(0, 2**32 - 1))
# tori on which a walk keeps the closure on its right after a degree-four
# pinch, so an outside site taken from the side of the step would be wrong
@example(window=Torus((5, 3)), seed=0)
@example(window=Torus((4, 4)), seed=14)
@example(window=Torus((5, 8)), seed=2)
@example(window=Torus((8, 7)), seed=13)
def test_dual_walk_matches_tuple_reference(window, seed):
    """The integer dual walk against the float-tuple walk over dual_of and
    primal_of: paths, star boundary paths (StructureError texts included),
    the circuit check, boundary edges and interior degrees, on the components
    of a random out-map and on a random site set."""
    lab = undirected_components(random_outmap(window, seed))
    rng = np.random.default_rng(seed)
    subsets = [lab.vertices_of(c) for c in range(lab.n_components)]
    subsets.append([x for x in window.sites() if rng.random() < 0.5])
    for V in subsets:
        got = _dual_outputs(V, window, dual_boundary, star_boundary_path,
                            check_no_interior_circuits)
        ref = _dual_outputs(V, window, dual_boundary_reference, star_boundary_path_reference,
                            check_no_interior_circuits_reference)
        assert got == ref
        assert boundary_edges(V, window) == boundary_edges_reference(V, window)
        assert interior_dual_degrees(V, window) == interior_dual_degrees_reference(V, window)


def test_classification_counts_every_kind():
    """The oracle comparison above meets type (a), (b) and (c) regions, a
    star touch and a failing degree-two check."""
    kinds, touches, degree_fails = set(), 0, 0
    for seed in range(40):
        window = Torus((5, 6)) if seed % 2 else Box((-2, -3), (3, 2))
        lab = undirected_components(random_outmap(window, seed))
        rc = classify_regions(lab, window)
        kinds |= {r.kind for r in rc.regions}
        touches += sum(len(r.star_touches) for r in rc.regions)
        degree_fails += not check_degree_two([(0, 0), (1, 1)], window, 0)
    assert kinds == {"a", "b", "c"} and touches and degree_fails


NOT_SITES = [[(1.5, 1)], [(1, 1), (2.0, 2)], [(1, "1")], [(1, 1, 1)], [(5, 1)], [(-1, 0)]]
PLANAR_CALLS = [closure, boundary_edges, dual_boundary, interior_dual_degrees, star_boundary_path,
                check_closure_idempotent, check_neighbor_hole, check_degree_two,
                check_complement_unbounded, check_no_interior_circuits]


@pytest.mark.parametrize("fn", PLANAR_CALLS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("V", NOT_SITES, ids=repr)
def test_non_sites_raise_domain_error(fn, V):
    with pytest.raises(DomainError):
        fn(V, Box((0, 0), (4, 4)))


def test_wrapping_leftover_with_one_infinite_neighbor_is_type_b():
    """A band around the torus next to a single winding component stays a
    (b) leftover: it borders only that component, but it is not finite."""
    t = Torus((6, 6))
    out = np.full(t.n_sites, -1, dtype=np.int64)
    row = np.flatnonzero(t.index_coords()[:, 1] == 0)
    out[row] = t.neighbor_index(0, +1)[row]
    lab = undirected_components(OutMap(t, out))
    rc = classify_regions(lab, t)
    assert rc.counts() == {"a": 1, "b": 1, "c": 0}
    assert _regions(rc) == _regions(classify_regions_reference(lab, t))
