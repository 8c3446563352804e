"""Transport bookkeeping, censuses, decay curve, and tails."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from nnlab.errors import SpecError
from nnlab.lattice import Box, Torus
from nnlab.nngraph import OutMap, build_nn_directed, forward_path
from nnlab.rng import SeededRng
from nnlab.generators import GeneratorSpec, dyadic_backward_size, gen_zerner_merkl, modify_type_c
from nnlab.stats import (
    CensusRecord,
    RDescendant,
    TwoCycleEndpoint,
    backward_tail,
    binomial_upper_99,
    census_once,
    component_census,
    connection_probability_curve,
    default_descendant_threshold,
    dyadic_tail_samples,
    r_descendant_map,
    transport_balance,
)
from nnlab.weights import construct_weights, sample_iid_uniform

from conftest import vertex_priority_digraph
from oracles import backward_set, exhaustive_connection_check, r_descendant


def test_transport_requires_torus():
    dom = Box((0, 0), (4, 4))
    g = OutMap(dom, {(0, 0): (1, 0), (1, 0): (0, 0)})
    with pytest.raises(SpecError):
        transport_balance(g, None, TwoCycleEndpoint())


def test_two_cycle_transport_balances_exactly():
    dom = Torus((10, 10))
    w = sample_iid_uniform(dom, SeededRng(6))
    g = build_nn_directed(w)
    rep = transport_balance(g, w, TwoCycleEndpoint())
    assert rep.balanced
    assert rep.by_source == rep.by_target == 2 * dom.n_sites
    assert rep.max_out_mass == 2 and rep.bounds_ok


def test_two_cycle_transport_on_zm_degenerate():
    g = gen_zerner_merkl(12, SeededRng(2))
    rep = transport_balance(g, None, TwoCycleEndpoint())
    # wrapping orbits never absorb into a miniloop: zero mass both ways
    assert rep.by_source == rep.by_target == 0
    assert rep.bounds_ok


def test_two_cycle_transport_type_c_nontrivial():
    g = modify_type_c(gen_zerner_merkl(12, SeededRng(2)))
    rep = transport_balance(g, None, TwoCycleEndpoint())
    assert rep.balanced
    assert rep.by_source > 0
    assert rep.max_out_mass == 2


def test_two_cycle_out_mass_is_zero_or_two():
    # independent per-site check: an orbit deposits 2 units when it ends in a
    # miniloop and nothing otherwise (winding orbits deposit nothing)
    g = modify_type_c(gen_zerner_merkl(10, SeededRng(7)))
    rep = transport_balance(g, None, TwoCycleEndpoint())
    o = g.out_index
    expected = 0
    for i in range(g.dom.n_sites):
        seen = {}
        u = i
        while u not in seen and o[u] >= 0:
            seen[u] = len(seen)
            u = int(o[u])
        if u in seen and len(seen) - seen[u] == 2:
            expected += 2
    assert rep.by_source == expected > 0


def test_r_descendant_transport_balances():
    dom = Torus((12, 12))
    w = sample_iid_uniform(dom, SeededRng(9))
    g = build_nn_directed(w)
    r = default_descendant_threshold(g, w)
    rep = transport_balance(g, w, RDescendant(r))
    assert rep.balanced
    assert rep.max_out_mass <= 1


def test_r_descendant_map_matches_trace_version():
    dom = Torus((8, 8))
    w = sample_iid_uniform(dom, SeededRng(14))
    g = build_nn_directed(w)
    for r in (0.05, 0.2, 0.5, 0.9):
        vec = r_descendant_map(g, w, r)
        for i in range(dom.n_sites):
            x = dom.index_site(i)
            want = r_descendant(x, r, g, w)
            got = dom.index_site(int(vec[i])) if vec[i] >= 0 else None
            assert got == want, (x, r, got, want)


def test_r_descendant_shared_along_backward_sets():
    dom = Torus((10, 10))
    w = sample_iid_uniform(dom, SeededRng(25))
    g = build_nn_directed(w)
    r = default_descendant_threshold(g, w)
    for i in range(0, dom.n_sites, 7):
        x = dom.index_site(i)
        y = r_descendant(x, r, g, w)
        if y is None:
            continue
        tr = forward_path(x, g)
        vals = [w.weight(e) for e in tr.edges()]
        if not (min(vals) < r <= max(vals)):
            continue
        for up in backward_set(x, g):
            assert r_descendant(up, r, g, w) == y


def test_census_record_reproducible():
    spec = GeneratorSpec("zerner_merkl", L=16)
    r1 = census_once(spec, 3)
    r2 = census_once(spec, 3)
    assert r1.stable_json() == r2.stable_json()
    assert r1.runtime_s != 0  # wall time is reported but outside the identity


def test_census_zm_core_two():
    spec = GeneratorSpec("zerner_merkl", L=32)
    recs = component_census(spec, range(6))
    assert all(r.core_infinite_count == 2 for r in recs)
    assert all(r.system_span_count == 2 for r in recs)


def test_census_iid_zero_giants():
    spec = GeneratorSpec("iid", domain=Torus((24, 24)))
    recs = component_census(spec, range(4), verify_structure=True)
    assert all(r.system_span_count == 0 for r in recs)
    assert all(r.wrapping_count == 0 for r in recs)
    assert all(r.structure_pass_rate == 1.0 for r in recs)
    assert all(r.miniloop_count == r.n_components for r in recs)


def test_fk3_census_memory_per_site():
    # The generators enumerate sublattice members from per-axis residue
    # lists and the adjacency check builds no neighbor tables, so no
    # (n_sites, d) array or 2d-table cache is held; those took the peak to
    # about 230 bytes per site.
    win = Box((0, 0, 0), (63, 63, 63))
    spec = GeneratorSpec("finite_k", k=3, n=30, window=win)
    tracemalloc.start()
    try:
        census_once(spec, 1, verify_structure=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 110 * win.n_sites, peak / win.n_sites


def test_connection_curve_small():
    curve = connection_probability_curve(L=64, d=2, distances=[0, 1, 2], seeds=[1, 2], block=16)
    assert curve.p[0] == 1.0
    assert curve.p[0] > curve.p[1] > curve.p[2] > 0
    assert curve.effective_samples == 2 * 64 * 64


def test_connection_curve_block_must_divide_L():
    with pytest.raises(SpecError, match="divide"):
        connection_probability_curve(L=48, d=2, distances=[1], seeds=[1], block=32)


def test_connection_p1_matches_exhaustive_oracle():
    # the same statistic computed by brute-force argmin + union-find
    L, seeds = 16, [3, 4, 5]
    curve = connection_probability_curve(L=L, d=2, distances=[1], seeds=seeds, block=8)
    hit, total = exhaustive_connection_check(L, 1, seeds)
    assert abs(curve.p[0] - hit / total) < 1e-12


def test_backward_tail_monotone_zm():
    g = gen_zerner_merkl(64, SeededRng(5))
    tail = backward_tail(g, [1, 2, 4, 8, 16, 32])
    vals = [tail[m] for m in sorted(tail)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[0] < 1.0


def test_backward_sizes_consistent_with_constructed_weights():
    dom = Torus((6, 6))
    g = vertex_priority_digraph(dom, 3)
    w = construct_weights(g, rng=SeededRng(1))
    h = build_nn_directed(w)
    from nnlab.nngraph import backward_sizes

    assert np.array_equal(backward_sizes(g), backward_sizes(h))


def test_dyadic_tail_sampler_deterministic():
    s1 = dyadic_tail_samples(2, 40, cap=64, master_seed=7)
    s2 = dyadic_tail_samples(2, 40, cap=64, master_seed=7)
    assert np.array_equal(s1, s2)
    assert s1.min() >= 1


def test_dyadic_tail_redraws_the_origin_on_a_new_stream(monkeypatch):
    # at level 1 a draw is the origin with probability 1/4; redrawing from the
    # same stream would repeat it forever, so draws are counted and a repeat
    # fails the test instead of hanging it
    real_child, calls = SeededRng.child, []

    def counted(self, *labels):
        calls.append(labels)
        assert len(calls) < 10_000, "the origin is redrawn forever"
        return real_child(self, *labels)

    monkeypatch.setattr(SeededRng, "child", counted)
    samples = dyadic_tail_samples(2, 20, cap=50, master_seed=2026, level=1)
    monkeypatch.undo()
    rng = SeededRng(2026).child("dyadic-tail", 2)
    first = [tuple(int(c) for c in rng.child("site", i).integers(0, 2, 2)) for i in range(20)]
    assert (0, 0) in first
    for i, z in enumerate(first):
        if any(z):  # a first draw off the origin is kept: the stream is unchanged
            assert samples[i] == dyadic_backward_size(z, 50)
        else:
            assert ("site", i, 1) in calls
    assert samples.min() >= 1
    with pytest.raises(SpecError):
        dyadic_tail_samples(2, 5, cap=50, master_seed=2026, level=0)
    # a stream stuck on the origin runs out of attempts
    monkeypatch.setattr(SeededRng, "integers", lambda self, lo, hi, size=None: np.zeros(size, int))
    with pytest.raises(SpecError):
        dyadic_tail_samples(2, 5, cap=50, master_seed=2026, level=1)


def test_binomial_upper_bound_sane():
    assert binomial_upper_99(0, 100) < 0.05
    assert binomial_upper_99(100, 100) == 1.0
    assert 0.5 < binomial_upper_99(50, 100) < 0.65


def test_curve_csv_format():
    curve = connection_probability_curve(L=32, d=2, distances=[0, 1], seeds=[1], block=8)
    text = curve.to_csv()
    assert text.startswith("n,p,ci_lo,ci_hi\n0,1,")
    assert len(text.strip().splitlines()) == 3


def test_region_csv_format():
    from nnlab.topology import classify_regions
    from nnlab.nngraph import undirected_components

    g = gen_zerner_merkl(8, SeededRng(1))
    rc = classify_regions(undirected_components(g), g.dom)
    text = rc.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "site,tag,region"
    assert len(lines) == 1 + g.dom.n_sites
