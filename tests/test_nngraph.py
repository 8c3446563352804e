"""Nearest-neighbor digraph construction and the path/structure analyses."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nnlab.errors import DomainError, SpecError, StructureError
from nnlab.lattice import MAX_SITES, Box, Torus
from nnlab.nngraph import (
    ExitedDomain,
    OutMap,
    TwoCycle,
    backward_sizes,
    build_nn_directed,
    forward_path,
    label_components,
    torus_winding,
    two_cycle_mask,
    undirected_components,
    verify_all_components,
)
from nnlab.rng import SeededRng
from nnlab.generators import gen_zerner_merkl
from nnlab.weights import sample_iid_uniform, verify_theorem3_preconditions

from conftest import brute_force_components, brute_force_nn, random_outmap, small_domains, vertex_priority_digraph
from oracles import (
    UnionFind,
    backward_set,
    check_monotone_decreasing,
    check_targets_reference,
    component_wraps,
    directed_cycles_reference,
    displacement,
    infimum_supremum_along,
    lift_winds,
    outmap_wrapping_components,
    r_descendant,
    verify_component_structure,
)


def test_1d_example_out_map(path_graph_1d):
    dom, w = path_graph_1d
    g = build_nn_directed(w)
    assert g.out((0,)) == (1,)
    assert g.out((1,)) == (2,)
    assert g.out((2,)) == (1,)
    assert g.out((3,)) == (2,)
    assert two_cycle_mask(g).sum() == 2


def test_single_edge_forced_miniloop():
    dom = Box((0,), (1,))
    from nnlab.weights import WeightField

    vals = np.array([[0.7, np.nan]])
    g = build_nn_directed(WeightField(dom, vals))
    assert g.out((0,)) == (1,) and g.out((1,)) == (0,)


def test_1d_example_components(path_graph_1d):
    dom, w = path_graph_1d
    g = build_nn_directed(w)
    lab = undirected_components(g)
    assert lab.n_components == 1
    assert lab.sizes[0] == 4


def test_empty_outmap_singletons():
    dom = Box((0, 0), (2, 2))
    g = OutMap(dom)
    lab = undirected_components(g)
    assert lab.n_components == dom.n_sites
    assert set(lab.sizes.tolist()) == {1}
    assert g.meta == {}


@settings(max_examples=100, deadline=None)
@given(case=st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))))
def test_label_components_matches_union_find(case):
    """label_components builds int32 CSR arrays, which hold every domain's
    indices only while MAX_SITES < 2^31; its labels stay int64 and number
    the union-find groups by least vertex."""
    assert MAX_SITES < 2**31
    n, pairs = case
    src, dst = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    labels = label_components(n, src, dst)
    uf = UnionFind(range(n))
    for a, b in pairs:
        uf.union(a, b)
    want = np.empty(n, dtype=np.int64)
    for c, group in enumerate(uf.groups()):  # sorted by least vertex
        want[group] = c
    assert labels.dtype == np.int64
    assert np.array_equal(labels, want)


def test_components_match_brute_force():
    dom = Torus((5, 6))
    w = sample_iid_uniform(dom, SeededRng(21))
    g = build_nn_directed(w)
    lab = undirected_components(g)
    ours = sorted(sorted(lab.vertices_of(c)) for c in range(lab.n_components))
    assert ours == brute_force_components(g)


@settings(max_examples=60, deadline=None)
@given(dom=small_domains(), seed=st.integers(0, 2**16))
@example(dom=Torus((4, 5)), seed=31)
def test_argmin_matches_brute_force(dom, seed):
    # box sites without a neighbor along some axis, or with none at all
    w = sample_iid_uniform(dom, SeededRng(seed))
    g = build_nn_directed(w)
    assert dict(g.items()) == brute_force_nn(w)


def test_forward_path_1d_example(path_graph_1d):
    dom, w = path_graph_1d
    g = build_nn_directed(w)
    tr = forward_path((3,), g)
    assert tr.vertices == [(3,), (2,), (1,), (2,)]
    assert tr.terminal == TwoCycle((2,), (1,))


def test_forward_path_no_out_edge():
    dom = Box((0, 0), (2, 2))
    g = OutMap(dom, {(0, 0): (1, 0)})
    tr = forward_path((1, 0), g)
    assert tr.vertices == [(1, 0)]
    assert isinstance(tr.terminal, ExitedDomain)


def test_forward_path_detects_long_cycle():
    dom = Box((0, 0), (1, 1))
    g = OutMap(dom, {(0, 0): (1, 0), (1, 0): (1, 1), (1, 1): (0, 1), (0, 1): (0, 0)})
    with pytest.raises(StructureError) as err:
        forward_path((0, 0), g)
    assert len(err.value.witness) == 4


def test_backward_set_examples(path_graph_1d):
    dom, w = path_graph_1d
    g = build_nn_directed(w)
    assert backward_set((3,), g) == {(3,)}
    assert backward_set((1,), g) == {(0,), (1,), (2,), (3,)}
    # miniloop endpoints share their backward set
    assert backward_set((1,), g) == backward_set((2,), g)


def test_backward_sizes_match_bfs():
    # long and winding cycles included: their sites share the cycle's basin
    for g in (
        vertex_priority_digraph(Torus((5, 5)), 77),
        random_outmap(Torus((6, 5)), 9),  # one long cycle, one winding cycle
        random_outmap(Box((0, 0), (5, 6)), 24),  # two long cycles
        gen_zerner_merkl(16, SeededRng(7)),
    ):
        sizes = backward_sizes(g)
        for i in range(g.dom.n_sites):
            assert sizes[i] == len(backward_set(g.dom.index_site(i), g))


def _cycle_winds(sites: list, dom) -> bool:
    if not isinstance(dom, Torus):
        return False
    steps = [displacement(dom, a, b) for a, b in zip(sites, sites[1:] + sites[:1])]
    return any(map(sum, zip(*steps)))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    dom=st.sampled_from([
        Box((0, 0), (5, 6)), Box((-1, 0, 2), (2, 3, 4)), Box((0,), (9,)),
        Torus((5, 5)), Torus((6, 4)), Torus((3, 4, 3)), Torus((7,)),
    ]),
)
def test_peel_matches_cycle_walk_and_backward_sets(seed, dom):
    # random_outmap drifts in a random direction half the time, so tori get
    # winding cycles as well as contractible ones
    g = random_outmap(dom, seed)
    lab = undirected_components(g)
    cycles = directed_cycles_reference(g)
    assert sorted(lab.labels[[c[0] for c in cycles]]) == list(np.flatnonzero(lab.cycle_len))
    for c in cycles:
        assert lab.cycle_len[lab.labels[c[0]]] == len(c)
    long = [dom.index_sites(c) for c in cycles if len(c) >= 3]
    rep = verify_theorem3_preconditions(g, labeling=lab)
    assert rep.wrapping_cycles == [c for c in long if _cycle_winds(c, dom)]
    assert rep.long_cycles == [c for c in long if not _cycle_winds(c, dom)]
    assert lab.backward.tolist() == [len(backward_set(x, g)) for x in dom.sites()]


@st.composite
def torus_edge_sets(draw):
    """A torus with sides 3..7 and some of its lattice edges as (src, dst)
    arrays, each edge pointing either way: every edge inside a random site
    set, only the seam-crossing edges, none, or each edge by a coin toss.
    The kind is returned with them."""
    dom = Torus((draw(st.integers(3, 7)), draw(st.integers(3, 7))))
    kind = draw(st.sampled_from(["induced", "seam", "empty", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    i = np.arange(dom.n_sites)
    src = np.concatenate([i, i])
    dst = np.concatenate([dom.neighbor_index(0, +1), dom.neighbor_index(1, +1)])
    x, y = np.unravel_index(i, dom.shape)
    if kind == "induced":
        member = rng.random(dom.n_sites) < rng.choice([0.4, 0.7, 1.0])
        keep = member[src] & member[dst]
    elif kind == "seam":
        keep = np.concatenate([x == dom.sides[0] - 1, y == dom.sides[1] - 1])
        keep &= rng.random(len(keep)) < rng.choice([0.5, 1.0])
    else:
        keep = rng.random(len(src)) < (0.0 if kind == "empty" else rng.random())
    src, dst = src[keep], dst[keep]
    flip = rng.random(len(src)) < 0.5
    return dom, kind, np.where(flip, dst, src), np.where(flip, src, dst)


@settings(max_examples=150, deadline=None)
@given(case=torus_edge_sets())
def test_torus_winding_matches_labels_and_lift_oracle(case):
    """One cut labeling with the seams merged gives label_components' labels,
    array for array, and per label the winding of a lift along the edges."""
    dom, kind, src, dst = case
    labels, winds = torus_winding(dom, src, dst)
    assert np.array_equal(labels, label_components(dom.n_sites, src, dst))
    assert len(winds) == labels.max() + 1
    adj: dict = {}
    for a, b in zip(dom.index_sites(src), dom.index_sites(dst)):
        adj.setdefault(a, []).append((b, displacement(dom, a, b)))
        adj.setdefault(b, []).append((a, displacement(dom, b, a)))
    for c in range(len(winds)):
        comp = dom.index_sites(np.flatnonzero(labels == c))
        assert winds[c] == lift_winds(comp[0], lambda u: adj.get(u, []), dom)
        if kind == "induced":
            assert winds[c] == component_wraps(comp, dom)


@settings(max_examples=200, deadline=None)
@given(dom=small_domains(), data=st.data())
def test_outmap_target_check_matches_neighbor_tables(dom, data):
    # Tori need sides >= 3, so side-1 and side-2 axes occur on boxes only.
    # Valid maps point at a random neighbor or nowhere; corrupted ones then
    # overwrite a few entries with arbitrary indices, which reach across box
    # faces, land on the site itself or leave the index range.
    n = dom.n_sites
    out = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        nbrs = dom.neighbors(dom.index_site(i))
        pick = data.draw(st.integers(-1, len(nbrs) - 1), label="pick")
        if pick >= 0:
            out[i] = dom.site_index(nbrs[pick])
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="corrupt"):
        out[i] = data.draw(st.integers(-2, n + 1), label="target")
    expect = check_targets_reference(dom, out)
    if expect is None:
        assert np.array_equal(OutMap(dom, out).out_index, out)
    else:
        with pytest.raises(DomainError) as err:
            OutMap(dom, out)
        assert str(err.value) == expect
    assert dom._nbr_cache == {}


def test_outmap_rejects_targets_below_minus_one():
    # -1 is the only "no out-edge" value; a -2 would make two unequal OutMaps
    # of one graph
    with pytest.raises(DomainError) as err:
        OutMap(Box((0,), (3,)), np.array([1, 0, -2, 2]))
    assert str(err.value) == "out-neighbor of (2,) is -2, not a site index or -1"


@pytest.mark.parametrize("make", [lambda: Box((-1, 0, 2), (3, 4, 5)), lambda: Torus((5, 4))],
                         ids=["box", "torus"])
def test_step_decoding_builds_no_neighbor_tables(make):
    # the out-array comes from an equal domain, so only the calls below touch dom
    g = build_nn_directed(sample_iid_uniform(make(), SeededRng(3)))
    dom = make()
    src, dst = OutMap(dom, g.out_index).edge_arrays()
    dom.edge_slots(src, dst)
    if dom.wraps:
        torus_winding(dom, src, dst)
    assert dom._nbr_cache == {}

def test_backward_forward_consistency():
    dom = Torus((4, 4))
    w = sample_iid_uniform(dom, SeededRng(12))
    g = build_nn_directed(w)
    for i in range(dom.n_sites):
        x = dom.index_site(i)
        for y in backward_set(x, g):
            assert x in [v for v in forward_path(y, g).vertices]


def test_monotone_decreasing_1d(path_graph_1d):
    dom, w = path_graph_1d
    g = build_nn_directed(w)
    assert check_monotone_decreasing(forward_path((3,), g), w)
    assert check_monotone_decreasing(forward_path((1,), g), w)  # length <= 1


def test_monotone_can_fail_on_foreign_outmap(path_graph_1d):
    dom, w = path_graph_1d
    g = OutMap(dom, {(0,): (1,), (1,): (0,), (2,): (3,), (3,): (2,)})
    tr = forward_path((2,), g)
    assert check_monotone_decreasing(tr, w) in (True, False)


def test_inf_sup_1d(path_graph_1d):
    dom, w = path_graph_1d
    g = build_nn_directed(w)
    assert infimum_supremum_along(forward_path((3,), g), w) == (0.1, 0.4)
    with pytest.raises(SpecError):
        infimum_supremum_along(forward_path((3,), OutMap(dom)), w)


def test_inf_sup_single_edge(path_graph_1d):
    dom, w = path_graph_1d
    g = OutMap(dom, {(0,): (1,)})
    lo, hi = infimum_supremum_along(forward_path((0,), g), w)
    assert lo == hi == 0.3


def test_r_descendant_1d(path_graph_1d):
    dom, w = path_graph_1d
    g = build_nn_directed(w)
    assert r_descendant((3,), 0.2, g, w) == (3,)
    assert r_descendant((3,), 0.9, g, w) is None
    # r = 0: the last vertex before the miniloop repeat
    assert r_descendant((3,), 0.0, g, w) == (1,)


def test_component_structure_1d(path_graph_1d):
    dom, w = path_graph_1d
    g = build_nn_directed(w)
    rep = verify_component_structure([(0,), (1,), (2,), (3,)], g)
    assert rep.ok and rep.is_tree and rep.miniloop_count == 1 and rep.orientation_ok


def test_component_structure_two_miniloops_fails():
    dom = Box((0,), (4,))
    g = OutMap(dom, {(0,): (1,), (1,): (0,), (2,): (1,), (3,): (4,), (4,): (3,)})
    rep = verify_component_structure([dom.index_site(i) for i in range(5)], g)
    assert rep.miniloop_count == 2
    assert not rep.ok


def test_whole_graph_verifier_iid_torus():
    dom = Torus((12, 12))
    w = sample_iid_uniform(dom, SeededRng(3))
    g = build_nn_directed(w)
    rep = verify_all_components(g, w)
    assert rep.ok
    assert rep.long_cycle_free
    assert rep.monotone_ok
    assert rep.pass_rate == 1.0
    assert rep.terminal_two_cycle_rate == 1.0


def test_all_components_pass_at_desk_scale():
    # 128 x 128 torus: every component is a tree with one miniloop, oriented
    dom = Torus((128, 128))
    w = sample_iid_uniform(dom, SeededRng(128128))
    g = build_nn_directed(w)
    rep = verify_all_components(g, w)
    assert rep.pass_rate == 1.0 and rep.ok


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_iid_torus_invariants(seed):
    dom = Torus((5, 5))
    w = sample_iid_uniform(dom, SeededRng(seed))
    g = build_nn_directed(w)
    assert np.all(g.out_index >= 0)  # out-degree one everywhere
    rep = verify_all_components(g, w)
    assert rep.ok
    # terminal dichotomy: every forward path ends in a miniloop
    for i in range(dom.n_sites):
        tr = forward_path(dom.index_site(i), g)
        assert isinstance(tr.terminal, TwoCycle)


def test_restricted_to_drops_exiting_edges():
    dom = Torus((8, 8))
    w = sample_iid_uniform(dom, SeededRng(2))
    g = build_nn_directed(w)
    sub = Box((1, 1), (5, 5))
    h = g.restricted_to(sub)
    for x, y in h.items():
        assert sub.contains(x) and sub.contains(y)
        assert g.out(x) == y


def test_duplicate_weights_rejected():
    from nnlab.weights import WeightField

    dom = Box((0,), (2,))
    vals = np.array([[0.5, 0.5, np.nan]])
    w = WeightField(dom, vals)
    with pytest.raises(StructureError):
        build_nn_directed(w)


def test_winding_components_are_not_judged():
    # Zerner-Merkl: two trees whose cycles wind around the torus
    g = gen_zerner_merkl(16, SeededRng(7))
    lab = undirected_components(g)
    assert lab.wrapping.all()
    rep = verify_all_components(g)
    assert rep.ok and rep.long_cycle_free and rep.components_checked == 0

    # a directed unit square on a torus winds nowhere and still fails
    rep = verify_all_components(_unit_square_on_torus())
    assert not rep.long_cycle_free and not rep.ok


def _unit_square_on_torus():
    dom = Torus((6, 6))
    g = build_nn_directed(sample_iid_uniform(dom, SeededRng(5)))
    for x, y in (((0, 0), (1, 0)), ((1, 0), (1, 1)), ((1, 1), (0, 1)), ((0, 1), (0, 0))):
        g.set_out(x, y)
    return g


def _check_wrapping_against_lift(g):
    lab = undirected_components(g)
    got = {frozenset(lab.vertices_of(c)) for c in np.flatnonzero(lab.wrapping)}
    want = outmap_wrapping_components(g)
    assert got == want
    # a component winds exactly when its directed cycle does
    comp_of = {x: comp for comp in map(frozenset, brute_force_components(g)) for x in comp}
    pre = verify_theorem3_preconditions(g)
    assert {comp_of[c[0]] for c in pre.wrapping_cycles} == want
    assert not {comp_of[c[0]] for c in pre.long_cycles} & want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), sides=st.sampled_from([(5, 5), (6, 6)]))
def test_wrapping_matches_lift_oracle_random(seed, sides):
    _check_wrapping_against_lift(random_outmap(Torus(sides), seed))


def test_wrapping_matches_lift_oracle_examples():
    _check_wrapping_against_lift(gen_zerner_merkl(16, SeededRng(7)))
    _check_wrapping_against_lift(_unit_square_on_torus())
