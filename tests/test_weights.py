"""Weight sampling, the realization constructor, and its precondition checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnlab.errors import ConstructionError
from nnlab.lattice import Box, Torus
from nnlab.nngraph import OutMap, build_nn_directed
from nnlab.rng import SeededRng
from nnlab.weights import (
    _dedupe,
    construct_weights,
    round_trip_matches,
    sample_iid_uniform,
    verify_theorem3_preconditions,
)

from conftest import vertex_priority_digraph
from oracles import backward_set


def test_same_seed_identical_fields():
    dom = Torus((4, 4))
    w1 = sample_iid_uniform(dom, SeededRng(42))
    w2 = sample_iid_uniform(dom, SeededRng(42))
    assert w1 == w2


def test_different_seeds_differ():
    dom = Torus((4, 4))
    w1 = sample_iid_uniform(dom, SeededRng(1))
    w2 = sample_iid_uniform(dom, SeededRng(2))
    assert w1 != w2


def test_torus_edge_count_and_distinctness():
    dom = Torus((64, 64))
    w = sample_iid_uniform(dom, SeededRng(5))
    assert w.n_edges == 2 * 64 * 64 == 8192
    assert w.all_distinct()
    vals = w.values()
    assert np.all((vals > 0) & (vals < 1))


def test_construct_weights_mutual_pair():
    # x <-> y in the middle of a 1D box; #C = 2 on the miniloop edge
    dom = Box((0,), (3,))
    g = OutMap(dom, {(1,): (2,), (2,): (1,)})
    w = construct_weights(g, rng=SeededRng(3))
    loop = w.weight(((1,), (2,)))
    assert 1 / 3 < loop < 1 / 2
    for e in [((0,), (1,)), ((2,), (3,))]:
        assert 1 < w.weight(e) < 2


def test_construct_weights_three_path():
    # a -> b, b -> c, c -> b: #C_a = 1, #C_b = #C_c = 3
    dom = Box((0,), (2,))
    g = OutMap(dom, {(0,): (1,), (1,): (2,), (2,): (1,)})
    w = construct_weights(g, rng=SeededRng(8))
    assert 1 / 2 < w.weight(((0,), (1,))) < 1
    assert 1 / 4 < w.weight(((1,), (2,))) < 1 / 3
    assert build_nn_directed(w) == g
    assert backward_set((1,), g) == {(0,), (1,), (2,)}


def test_weight_separation_and_nesting():
    dom = Torus((5, 5))
    g = vertex_priority_digraph(dom, 17)
    w = construct_weights(g, rng=SeededRng(17))
    carried = {(x, y) if x <= y else (y, x) for x, y in g.items()}
    for e, val in w.items():
        if e in carried:
            assert val < 1
        else:
            assert val > 1
    # adjacent edges of g strictly decrease: w({z,x}) > w({x,y})
    for z, x in g.items():
        y = g.out(x)
        if y is not None and y != z:
            ezx = (z, x) if z <= x else (x, z)
            exy = (x, y) if x <= y else (y, x)
            assert w.weight(ezx) > w.weight(exy)


def test_construct_weights_determinism():
    dom = Torus((4, 5))
    g = vertex_priority_digraph(dom, 9)
    w1 = construct_weights(g, rng=SeededRng(99))
    w2 = construct_weights(g, rng=SeededRng(99))
    assert w1 == w2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_round_trip_random_torus(seed):
    dom = Torus((4 + seed % 3, 5))
    g = vertex_priority_digraph(dom, seed)
    assert round_trip_matches(g, SeededRng(seed ^ 0xABCDEF))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_round_trip_random_box_3d(seed):
    dom = Box((0, 0, 0), (3, 3, 2))
    g = vertex_priority_digraph(dom, seed)
    assert round_trip_matches(g, SeededRng(seed ^ 0x123))


def test_preconditions_directed_square_cycle():
    dom = Box((0, 0), (2, 2))
    g = OutMap(dom, {(0, 0): (1, 0), (1, 0): (1, 1), (1, 1): (0, 1), (0, 1): (0, 0)})
    rep = verify_theorem3_preconditions(g)
    assert not rep.ok
    assert len(rep.long_cycles) == 1
    assert len(rep.long_cycles[0]) == 4
    with pytest.raises(ConstructionError):
        construct_weights(g, rng=SeededRng(0))


def test_preconditions_clean_on_dyadic():
    from nnlab.generators import gen_dyadic_window

    win = Box((0, 0), (15, 15))
    g = gen_dyadic_window(20, (3, 5), win)
    rep = verify_theorem3_preconditions(g)
    assert rep.ok and rep.strictly_acyclic


def test_preconditions_out_degree_violation():
    dom = Torus((4, 4))
    g = vertex_priority_digraph(dom, 3)
    g.set_out((1, 1), None)  # now an active vertex lacks an out-edge
    rep = verify_theorem3_preconditions(g)
    assert (1, 1) in rep.out_degree_violations
    with pytest.raises(ConstructionError):
        construct_weights(g, rng=SeededRng(0))


def test_wrapping_cycles_reported_not_violations():
    from nnlab.generators import gen_zerner_merkl

    g = gen_zerner_merkl(16, SeededRng(4))
    rep = verify_theorem3_preconditions(g)
    assert rep.ok
    assert not rep.strictly_acyclic
    assert rep.wrapping_cycles
    # but the constructor refuses: backward sets cannot nest around a cycle
    with pytest.raises(ConstructionError):
        construct_weights(g, rng=SeededRng(0))


def test_nn_graph_of_constructed_weights_matches_everywhere_on_torus():
    dom = Torus((6, 6))
    g = vertex_priority_digraph(dom, 123)
    w = construct_weights(g, rng=SeededRng(7))
    assert build_nn_directed(w) == g


def _first_redraw(rng, slot):
    return float(rng.child("dedupe", slot).uniform_open())


def test_dedupe_first_redraw_unchanged():
    # one tie: the later slot takes its first-attempt draw, as it always has,
    # and scalar bounds give the bytes that per-slot array bounds give
    rng = SeededRng(0)
    w = np.array([[0.5, 0.3, 0.5, 0.25, np.nan]])
    outs = [_dedupe(w.copy(), rng, bounds) for bounds in ((np.zeros(5), np.ones(5)), (0.0, 1.0))]
    for out in outs:
        assert out[0, 2] == _first_redraw(rng, 2)
        assert out[0, [0, 1, 3]].tolist() == [0.5, 0.3, 0.25]
    assert outs[0].tobytes() == outs[1].tobytes()


def test_dedupe_sort_finds_ties_apart_in_slot_order(monkeypatch):
    # two ties, apart in slot order and across an empty slot: the later slot
    # of each takes its first-attempt draw; once no tie is left, no argsort runs
    rng = SeededRng(0)
    w = np.array([[0.7, 0.2, np.nan, 0.4, 0.2, 0.7]])
    out = _dedupe(w.copy(), rng, (np.zeros(6), np.ones(6)))
    assert out[0, [4, 5]].tolist() == [_first_redraw(rng, 4), _first_redraw(rng, 5)]
    assert out[0, [0, 1, 3]].tolist() == [0.7, 0.2, 0.4]

    def no_argsort(*args, **kwargs):
        raise AssertionError("argsort without a collision")

    monkeypatch.setattr(np, "argsort", no_argsort)
    again = _dedupe(out.copy(), rng, (np.zeros(6), np.ones(6)))
    assert np.array_equal(again, out, equal_nan=True)


def test_dedupe_retry_draws_a_new_value():
    # slot 2 ties slot 0, and its first redraw lands on slot 1's value; the
    # retry must not repeat that redraw
    rng = SeededRng(0)
    u2 = _first_redraw(rng, 2)
    w = np.array([[0.5, u2, 0.5, 0.25, np.nan]])
    out = _dedupe(w.copy(), rng, (np.zeros(5), np.ones(5)))
    vals = out[0, :4]
    assert len(set(vals.tolist())) == 4
    assert vals[[0, 1, 3]].tolist() == [0.5, u2, 0.25]
    assert vals[2] not in (0.5, u2)
