"""The four digraph constructions and the type-(c) rewiring."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nnlab.errors import DomainError, SpecError, StructureError
from nnlab.lattice import Box, Torus
from nnlab.nngraph import (
    OutMap,
    forward_path,
    two_cycle_mask,
    undirected_components,
)
from nnlab.rng import SeededRng
from nnlab.generators import (
    GeneratorSpec,
    _dyadic_axis,
    dyadic_backward_size,
    dyadic_in_neighbors,
    fill_region,
    finite_k_membership,
    gen_dyadic_i,
    gen_dyadic_k,
    gen_dyadic_window,
    gen_finite_k,
    gen_layered,
    gen_zerner_merkl,
    modify_type_c,
    sample_dyadic_shift,
)
from nnlab.weights import verify_theorem3_preconditions

from oracles import (
    dyadic_axis_reference,
    dyadic_out,
    dyadic_valuations,
    forward_closure,
    gen_dyadic_window_reference,
    gen_finite_k_reference,
    stretched_segment_edges,
    zm_class_sites,
)


# ---- Zerner-Merkl -----------------------------------------------------------------


def _pinned_zm(L=8, b=None, shift=(0, 0)):
    m = L // 2
    field = np.zeros((m, m), dtype=bool)
    if b:
        for cell in b:
            field[cell] = True
    return gen_zerner_merkl(L, SeededRng(0), b_field=field, shift=shift)


def test_zm_b1_cell_edges():
    g = _pinned_zm(b=[(0, 0)])
    L = 8
    assert g.out((0, 0)) == (0, 1)
    assert g.out((0, 1)) == (0, 2)
    assert g.out((1, 0)) == (1, L - 1)  # (1, -1) on the torus
    assert g.out((1, 1)) == (1, 0)


def test_zm_b0_cell_edges():
    g = _pinned_zm(b=[])
    L = 8
    assert g.out((0, 0)) == (1, 0)
    assert g.out((1, 0)) == (2, 0)
    assert g.out((0, 1)) == (L - 1, 1)  # (-1, 1) on the torus
    assert g.out((1, 1)) == (0, 1)


def test_zm_shift_translates_edges():
    g0 = _pinned_zm(b=[(0, 0)], shift=(0, 0))
    g1 = _pinned_zm(b=[(0, 0)], shift=(1, 1))
    dom = g0.dom
    for x, y in g0.items():
        xs = dom.translate(x, (1, 1))
        ys = dom.translate(y, (1, 1))
        assert g1.out(xs) == ys


def test_zm_out_degree_one_many_seeds():
    for seed in range(50):
        g = gen_zerner_merkl(16, SeededRng(seed))
        assert np.all(g.out_index >= 0)


def test_zm_rejects_odd_small():
    with pytest.raises(SpecError):
        gen_zerner_merkl(15, SeededRng(0))
    with pytest.raises(SpecError):
        gen_zerner_merkl(4, SeededRng(0))


def test_zm_type_paths_disjoint():
    for seed in range(5):
        rng = SeededRng(seed)
        sx, sy = rng.child("zm-shift").integers(0, 2, 2)
        g = gen_zerner_merkl(12, rng)
        dom = g.dom
        up = forward_closure(g, zm_class_sites(dom, (int(sx), int(sy)), 0))
        down = forward_closure(g, zm_class_sites(dom, (int(sx), int(sy)), 1))
        assert not (up & down)


def test_zm_two_wrapping_systems():
    g = gen_zerner_merkl(32, SeededRng(11))
    lab = undirected_components(g)
    sys = g.meta["system"]
    wrap_sys = set()
    for cid in np.where(lab.wrapping)[0]:
        wrap_sys.add(int(sys[np.where(lab.labels == cid)[0][0]]))
    assert wrap_sys == {0, 1}


# ---- dyadic -----------------------------------------------------------------------


def test_dyadic_k_i_paper_values():
    assert (gen_dyadic_k((4, 8, 15)), gen_dyadic_i((4, 8, 15))) == (1, 3)
    assert (gen_dyadic_k((0, 8, 16)), gen_dyadic_i((0, 8, 16))) == (4, 2)


def test_dyadic_simple_values():
    assert gen_dyadic_i((1, 0)) == 1
    assert gen_dyadic_k((2, 2)) == 2
    assert gen_dyadic_k((6, 4)) == 2


@settings(max_examples=80, deadline=None)
@given(x=st.lists(st.integers(0, 2**40), min_size=1, max_size=4))
def test_dyadic_odd_coordinate_k1(x):
    if all(c == 0 for c in x):
        return
    if any(c % 2 == 1 for c in x):
        assert gen_dyadic_k(tuple(x)) == 1


def test_dyadic_domain_errors():
    with pytest.raises(DomainError):
        gen_dyadic_k((0, 0))
    with pytest.raises(DomainError):
        gen_dyadic_i((-1, 2))
    # the in-tree functions refuse negative sites; all four refuse a
    # coordinate that does not fit in int64
    for x in [(-1, 2), (3, -5), (-1,), (0, 0, -2), (2**63, 1), (1, 2**64 + 3), (-(2**63) - 1, 2)]:
        for fn in (gen_dyadic_k, gen_dyadic_i, dyadic_in_neighbors,
                   lambda v: dyadic_backward_size(v, cap=10)):
            with pytest.raises(DomainError):
                fn(x)
    assert gen_dyadic_k((2**63 - 1, 2**62)) == 1
    # an in-neighbor one step past the int64 maximum is refused, not wrapped
    with pytest.raises(DomainError):
        dyadic_in_neighbors((2**63 - 1, 0))
    assert dyadic_in_neighbors((2**63 - 2, 0)) == [(2**63 - 1, 0), (2**63 - 2, 1)]


# rows of up to 4 coordinates up to 2^62, each drawn as 0, a small value, or
# an odd number times a power of two, so that zeros and ties of valuation are common
_coordinate = st.one_of(st.just(0), st.integers(0, 64),
                        st.builds(lambda m, e: (2 * m + 1) << e, st.integers(0, 2**20),
                                  st.integers(0, 40)),
                        st.integers(0, 2**62))


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(_coordinate, min_size=d, max_size=d).filter(any), min_size=1, max_size=6)))
@example(rows=[[4, 8, 15], [0, 8, 16], [2**62, 2**62, 0], [0, 0, 1], [6, 2, 10]])
def test_dyadic_rule_matches_bit_arithmetic(rows):
    # the scalar accessors and the row kernel against the pure-Python rule
    for x in rows:
        k = min(dyadic_valuations(x)) + 1
        assert gen_dyadic_k(tuple(x)) == k
        assert gen_dyadic_i(tuple(x)) == dyadic_axis_reference(x) + 1
    axes = _dyadic_axis(np.array(rows, dtype=np.int64))
    assert axes.tolist() == [dyadic_axis_reference(x) for x in rows]


def _in_neighbors_reference(v):
    ups = [tuple(c + (i == a) for i, c in enumerate(v)) for a in range(len(v))]
    return [u for a, u in enumerate(ups) if dyadic_axis_reference(u) == a]


@settings(max_examples=80, deadline=None)
@given(v=st.lists(st.integers(0, 40), min_size=1, max_size=3), cap=st.integers(0, 400))
@example(v=[0, 0], cap=30)
@example(v=[1, 1], cap=10**4)
def test_dyadic_in_tree_matches_bit_arithmetic(v, cap):
    # the array in-tree against a depth-first search over the pure-Python rule
    v = tuple(v)
    assert dyadic_in_neighbors(v) == _in_neighbors_reference(v)
    seen, stack = {v}, [v]
    while stack and len(seen) <= cap:
        for u in _in_neighbors_reference(stack.pop()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    assert dyadic_backward_size(v, cap) == min(len(seen), cap + 1)


def test_dyadic_window_preconditions():
    win = Box((0, 0), (7, 7))
    with pytest.raises(SpecError):
        gen_dyadic_window(10, (0, 0), win)  # origin inside shifted window
    with pytest.raises(SpecError):
        gen_dyadic_window(10, (0, 0), Box((-3, 0), (4, 7)))  # leaves the orthant
    g = gen_dyadic_window(10, (2**9 - 1, 2**9 - 1), Box((0, 0), (2**8 - 1,) * 2))
    assert verify_theorem3_preconditions(g).ok
    # a level above MAX_LEVEL lets the shift pass int64
    with pytest.raises(SpecError, match=r"window \+ \(18446744073709551616, 1\) has a coordinate outside int64"):
        gen_dyadic_window(70, (2**64, 1), Box((0, 0), (3, 3)))


def test_dyadic_out_matches_window_rule():
    win = Box((0, 0, 0), (5, 5, 5))
    Z = (9, 17, 33)
    g = gen_dyadic_window(10, Z, win)
    for i in range(win.n_sites):
        x = win.index_site(i)
        shifted = tuple(c + z for c, z in zip(x, Z))
        expect = tuple(a - b for a, b in zip(dyadic_out(shifted), Z))
        assert g.out(x) == (expect if win.contains(expect) else None)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(2, 4), n=st.integers(1, 62))
def test_dyadic_window_matches_whole_window_reference(data, d, n):
    # the per-axis valuation tables give the rule computed on the window's
    # coordinate rows, on off-origin windows with any admissible shift
    side_max = {2: 40, 3: 12, 4: 6}[d]
    lo = data.draw(st.lists(st.integers(-6, 20), min_size=d, max_size=d), label="lo")
    sides = data.draw(st.lists(st.integers(1, side_max), min_size=d, max_size=d), label="sides")
    assume(all(2**n > -c for c in lo))
    Z = tuple(data.draw(st.integers(max(0, -c), 2**n - 1), label="Z") for c in lo)
    win = Box(tuple(lo), tuple(c + s - 1 for c, s in zip(lo, sides)))
    assume(not all(l + z <= 0 <= h + z for l, h, z in zip(win.lo, win.hi, Z)))
    g = gen_dyadic_window(n, Z, win)
    assert np.array_equal(g.out_index, gen_dyadic_window_reference(n, Z, win))
    assert np.array_equal(g.meta["system"], np.zeros(win.n_sites, dtype=np.int64))


def test_dyadic_k_box_reach_and_stay():
    # from any x in the 2^k-box at corner 2^k z, the orbit hits the corner
    # within d 2^k steps without leaving the box
    for d, k, z in [(2, 3, (1, 2)), (3, 2, (1, 1, 1))]:
        corner = tuple(2**k * c for c in z)
        hi = tuple(c + 2**k - 1 for c in corner)
        win = Box(corner, hi)
        g = gen_dyadic_window(20, (0,) * d, win)
        cap = d * 2**k
        for i in range(win.n_sites):
            x = win.index_site(i)
            tr = forward_path(x, g)
            verts = tr.vertices[: cap + 1]
            assert corner in verts
            for v in verts[: verts.index(corner) + 1]:
                assert win.contains(v)


def test_dyadic_coalescence_within_box():
    # any two sites of a common 2^k-box meet within d 2^k steps
    d, k = 2, 3
    win = Box((8, 8), (15, 15))
    g = gen_dyadic_window(20, (0, 0), win)
    cap = d * 2**k
    rng = SeededRng(5).child("pairs")
    sites = [win.index_site(int(i)) for i in rng.integers(0, win.n_sites, 30)]
    for a in sites:
        for b in sites[:5]:
            va = forward_path(a, g).vertices[: cap + 1]
            vb = forward_path(b, g).vertices[: cap + 1]
            assert set(va) & set(vb)


def test_dyadic_divisibility_along_paths():
    # once every coordinate is divisible by 2^k, at most one is not at any
    # later time
    win = Box((0, 0, 0), (15, 15, 15))
    Z = (32, 64, 96)
    g = gen_dyadic_window(10, Z, win)
    for i in range(0, win.n_sites, 7):
        tr = forward_path(win.index_site(i), g)
        path = [tuple(c + z for c, z in zip(v, Z)) for v in tr.vertices]
        for k in range(1, 5):
            started = False
            for v in path:
                divisible = sum(c % 2**k == 0 for c in v)
                if divisible == len(v):
                    started = True
                elif started:
                    assert divisible >= len(v) - 1


def test_dyadic_in_neighbors_inverse():
    for v in [(3, 4), (8, 8), (5, 0), (2, 3, 4)]:
        for u in dyadic_in_neighbors(v):
            assert dyadic_out(u) == v
        # and conversely every unit up-step that maps back is listed
        d = len(v)
        for a in range(d):
            u = tuple(c + 1 if i == a else c for i, c in enumerate(v))
            if dyadic_out(u) == v:
                assert u in dyadic_in_neighbors(v)


def test_dyadic_backward_size_cap():
    assert dyadic_backward_size((1, 1), cap=10) <= 11
    full = dyadic_backward_size((1, 1), cap=10**6)
    again = len(backward_set_via_chase((1, 1)))
    assert full == again


def backward_set_via_chase(v):
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in dyadic_in_neighbors(u):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


# ---- layered ----------------------------------------------------------------------


def test_layered_no_vertical_edges():
    base = gen_dyadic_window(20, (5, 9), Box((0, 0), (7, 7)))
    g3 = gen_layered(base, 4)
    for x, y in g3.items():
        assert x[2] == y[2]


def test_layered_layers_are_copies():
    base = gen_dyadic_window(20, (5, 9), Box((0, 0), (7, 7)))
    g3 = gen_layered(base, 3)
    for layer in range(3):
        for x, y in base.items():
            assert g3.out(x + (layer,)) == y + (layer,)


def test_layered_component_product():
    base = gen_dyadic_window(20, (5, 9), Box((0, 0), (5, 5)))
    nb = undirected_components(base).n_components
    g3 = gen_layered(base, 3)
    assert undirected_components(g3).n_components == 3 * nb


def test_layered_independent_mode():
    b1 = gen_dyadic_window(20, (5, 9), Box((0, 0), (7, 7)))
    b2 = gen_dyadic_window(20, (17, 33), Box((0, 0), (7, 7)))
    g3 = gen_layered([b1, b2], 2)
    assert g3.out((3, 3, 0)) == b1.out((3, 3)) + (0,)
    assert g3.out((3, 3, 1)) == b2.out((3, 3)) + (1,)


# ---- finite k ---------------------------------------------------------------------


def test_segment_case_a_paper_example():
    edges = stretched_segment_edges("a", 2, (0, 0, 0), 0)
    assert len(edges) == 8
    assert edges[0] == ((0, 0, 0), (1, 0, 0))
    assert edges[-1] == ((7, 0, 0), (8, 0, 0))


def test_segment_case_c_paper_example():
    edges = stretched_segment_edges("c", 2, (0, 0, 0), 0)
    assert len(edges) == 7
    back = [(((l, 0, 0)), ((l - 1, 0, 0))) for l in range(1, 5)]
    fwd = [(((l, 0, 0)), ((l + 1, 0, 0))) for l in range(5, 8)]
    assert edges == back + fwd
    touched = {frozenset([a[0], b[0]]) for a, b in [(e[0], e[1]) for e in edges]}
    assert frozenset([4, 5]) not in touched  # middle edge carries no orientation


def test_segment_case_b_reflection():
    edges = stretched_segment_edges("b", 2, (0, 0, 0), 1)
    assert edges[0] == ((0, 1, 0), (0, 0, 0))
    assert len(edges) == 8


def test_fill_region_pair():
    assert fill_region({(0, 0), (0, 1)}) == {(0, 1): (0, 0), (0, 0): (0, 1)}


def test_fill_region_singleton_raises():
    with pytest.raises(StructureError):
        fill_region({(0, 0), (5, 5)})


def test_fill_region_tree_plus_loop():
    sites = {(x, y) for x in range(3) for y in range(3)}
    out = fill_region(sites)
    g = OutMap(Box((0, 0), (2, 2)), out)
    assert np.all(g.out_index >= 0)
    assert two_cycle_mask(g).sum() == 2
    rep = verify_theorem3_preconditions(g)
    assert rep.ok and rep.strictly_acyclic


def test_finite_k_membership_residues():
    win = Box((0, 0, 0), (31, 31, 31))
    g = gen_finite_k(2, 20, win, SeededRng(2))
    mem = g.meta["system"]
    U = g.meta["U"]
    coords = win.index_coords() - np.asarray(U)
    for j in (1, 2):
        sel = mem == j
        res = (coords[sel] - 4 * (j - 1)) % 8
        assert np.all((res == 0).sum(axis=1) >= 2)  # d-1 of 3 coords on residue
    # V^(1) and V^(2) are disjoint by construction of the membership test
    assert set(np.unique(mem)) <= {0, 1, 2}


def test_finite_k_filler_properties():
    win = Box((0, 0, 0), (31, 31, 31))
    g = gen_finite_k(2, 20, win, SeededRng(4))
    mem = g.meta["system"]
    lab = undirected_components(g)
    coords = win.index_coords()
    o = g.out_index
    # no filler edge touches a sublattice vertex
    src = np.where((o >= 0) & (mem == 0))[0]
    assert np.all(mem[o[src]] == 0)
    two = two_cycle_mask(g)
    for cid in range(lab.n_components):
        sel = lab.labels == cid
        if lab.sizes[cid] == 1 or mem[np.where(sel)[0][0]] != 0:
            continue
        ext = coords[sel].max(axis=0) - coords[sel].min(axis=0)
        assert ext.max() <= 8  # L-infinity diameter at most 4k
        assert two[sel].sum() == 2  # exactly one miniloop


def test_finite_k_requires_d3_and_k2():
    with pytest.raises(SpecError):
        gen_finite_k(2, 20, Box((0, 0), (39, 39)), SeededRng(0))
    with pytest.raises(SpecError):
        gen_finite_k(1, 20, Box((0, 0, 0), (39,) * 3), SeededRng(0))
    with pytest.raises(SpecError):
        gen_finite_k(2, 20, Box((0, 0, 0), (7,) * 3), SeededRng(0))


def test_finite_k_segment_orientation_decodes_coarse_rule():
    win = Box((0, 0, 0), (47, 47, 47))
    g = gen_finite_k(2, 25, win, SeededRng(6))
    U = np.asarray(g.meta["U"])
    s = 8
    # decode a few full segments of V^(1): orientation must match one of the
    # three cases, and never mix directions within a segment
    coords = win.index_coords()
    o = g.out_index
    mem = g.meta["system"]
    checked = 0
    for axis in range(3):
        base = (np.asarray([16, 16, 16]) + U)  # corner inside the window
        for step in range(2):
            b = base + step * s * np.eye(3, dtype=int)[axis]
            dirs = []
            for l in range(1, s):
                site = tuple(int(c) for c in b + l * np.eye(3, dtype=int)[axis])
                if not win.contains(site):
                    break
                i = win.site_index(site)
                if o[i] < 0:
                    dirs.append(0)
                    continue
                tgt = win.index_site(int(o[i]))
                dirs.append(tgt[axis] - site[axis])
            if len(dirs) == s - 1:
                pos = dirs.count(1)
                neg = dirs.count(-1)
                assert (pos == s - 1) or (neg == s - 1) or (neg == 4 and pos == 3)
                checked += 1
    assert checked >= 4


@settings(max_examples=25, deadline=None)
@given(
    dk=st.sampled_from([(3, 2), (3, 3), (3, 4), (4, 2)]),
    lo=st.tuples(*[st.integers(-30, 30)] * 4),
    extra=st.tuples(*[st.integers(0, 9)] * 4),
    seed=st.integers(0, 10**6),
)
@example(dk=(3, 2), lo=(0, 0, 0, 0), extra=(0, 0, 0, 0), seed=0)
@example(dk=(3, 3), lo=(5, -7, 1, 0), extra=(0, 0, 0, 0), seed=1)
@example(dk=(3, 4), lo=(0, 0, 0, 0), extra=(0, 1, 0, 0), seed=2)
@example(dk=(4, 2), lo=(-3, 0, 11, 2), extra=(0, 0, 0, 0), seed=3)
@example(dk=(4, 3), lo=(1, -2, 0, 4), extra=(0, 0, 0, 0), seed=4)
def test_finite_k_matches_whole_window_reference(dk, lo, extra, seed):
    # per-axis residue lists give the same map, sublattice ids and final
    # shift as the whole-window residue arrays, down to windows that only
    # just hold one 4k-cell (extra = 0 on every axis); 4-d windows with
    # k >= 3 have 3*10^5 sites or more, so only one is run
    d, k = dk
    s = 4 * k
    win = Box(lo[:d], tuple(c + 2 * s - 1 + e for c, e in zip(lo[:d], extra)))
    g = gen_finite_k(k, 30, win, SeededRng(seed))
    out, U, system = gen_finite_k_reference(k, 30, win, SeededRng(seed))
    assert g.meta["U"] == U
    assert np.array_equal(g.out_index, out)
    assert np.array_equal(g.meta["system"], system)
    assert np.array_equal(finite_k_membership(g), system)


def test_finite_k_verifier_passes():
    win = Box((0, 0, 0), (31, 31, 31))
    g = gen_finite_k(2, 20, win, SeededRng(8))
    rep = verify_theorem3_preconditions(g)
    assert rep.ok and rep.strictly_acyclic


# ---- type-(c) rewiring --------------------------------------------------------------


def test_modify_type_c_single_leaf():
    dom = Box((0,), (2,))
    g = OutMap(dom, {(0,): (1,), (1,): (2,)})
    h = modify_type_c(g)
    # in-neighbor of (1,) is the leaf (0,): rewire creates the miniloop
    assert h.out((1,)) == (0,)
    assert h.out((0,)) == (1,)


def test_modify_type_c_no_in_neighbors_unchanged():
    dom = Box((0,), (2,))
    g = OutMap(dom, {(0,): (1,), (1,): (2,)})
    h = modify_type_c(g)
    assert h.out((0,)) == (1,)  # (0,) has no in-neighbors: kept


def test_modify_type_c_nonleaf_feeder_blocks():
    dom = Box((0,), (3,))
    g = OutMap(dom, {(0,): (1,), (1,): (2,), (2,): (3,)})
    h = modify_type_c(g)
    # (2,) is fed by (1,), whose own feeder (0,) makes it a non-leaf
    assert h.out((2,)) == (3,)
    assert h.out((1,)) == (0,)


def test_modify_type_c_zm_verifier_passes():
    for seed in range(20):
        g = gen_zerner_merkl(32, SeededRng(seed))
        h = modify_type_c(g)
        assert np.all(h.out_index >= 0)
        rep = verify_theorem3_preconditions(h)
        assert rep.ok
        assert not rep.long_cycles


# ---- generator specs ----------------------------------------------------------------


def test_spec_json_round_trip():
    spec = GeneratorSpec(
        "layered",
        base=GeneratorSpec("dyadic", window=Box((0, 0), (31, 31)), n=20),
        layers=3,
    )
    assert GeneratorSpec.from_json(spec.to_json()) == spec


def test_spec_build_deterministic():
    spec = GeneratorSpec("zerner_merkl", L=16)
    g1 = spec.build(5).graph
    g2 = spec.build(5).graph
    assert g1 == g2


def test_spec_unknown_variant():
    with pytest.raises(SpecError):
        GeneratorSpec("nope")


def test_all_generators_emit_admissible_windows():
    specs = [
        GeneratorSpec("iid", domain=Torus((8, 8))),
        GeneratorSpec("zerner_merkl", L=12),
        GeneratorSpec("dyadic", window=Box((0, 0), (11, 11)), n=20),
        GeneratorSpec(
            "layered", base=GeneratorSpec("dyadic", window=Box((0, 0), (7, 7)), n=20), layers=2
        ),
        GeneratorSpec("finite_k", k=2, n=20, window=Box((0, 0, 0), (23,) * 3)),
        GeneratorSpec("type_c", base=GeneratorSpec("zerner_merkl", L=12)),
    ]
    for spec in specs:
        for seed in (0, 1):
            g = spec.build(seed).graph
            active = g.active_mask()
            assert np.all(g.out_index[active] >= 0), spec.variant
            rep = verify_theorem3_preconditions(g)
            assert rep.ok, (spec.variant, rep)
