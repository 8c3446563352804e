"""Acceptance gate: one test per criterion, exact tolerances pinned.

Each test writes a PASS/FAIL line to tests/_artifacts/acceptance_log.txt and
prints it, so a bare pytest run leaves a human-readable scoreboard behind.  The
first line of a session replaces what an earlier run left there.  Each line
ends with the criterion's wall seconds, fixtures included.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from nnlab.lattice import Box, Torus
from nnlab.nngraph import (
    OutMap,
    build_nn_directed,
    forward_path,
    two_cycle_mask,
    undirected_components,
    verify_all_components,
)
from nnlab.rng import SeededRng
from nnlab.generators import (
    GeneratorSpec,
    _dyadic_axis,
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
from nnlab.stats import (
    RDescendant,
    TwoCycleEndpoint,
    binomial_upper_99,
    component_census,
    connection_probability_curve,
    default_descendant_threshold,
    dyadic_tail_samples,
    transport_balance,
)
from nnlab.topology import (
    check_closure_idempotent,
    check_degree_two,
    check_neighbor_hole,
    classify_regions,
    star_boundary_path,
)
from nnlab.weights import (
    construct_weights,
    round_trip_matches,
    sample_iid_uniform,
    verify_theorem3_preconditions,
)

from conftest import vertex_priority_digraph

ARTIFACTS = Path(__file__).parent / "_artifacts"
_log_started = False
_criterion_started = 0.0


@pytest.fixture(autouse=True)
def _criterion_clock():
    """Start the criterion's wall clock; autouse, so before its other
    function-scoped fixtures are built."""
    global _criterion_started
    _criterion_started = time.perf_counter()


def _record(line: str):
    """Write the criterion's scoreboard line, with its wall seconds so far."""
    global _log_started
    line += f" [{time.perf_counter() - _criterion_started:.1f} s]"
    ARTIFACTS.mkdir(exist_ok=True)
    with (ARTIFACTS / "acceptance_log.txt").open("a" if _log_started else "w") as fh:
        fh.write(line + "\n")
    _log_started = True
    print(line)


# ---- criterion 1: exact round trip over 200 admissible digraphs ----------------------


def _roundtrip_instances():
    """200 admissible digraphs on domains of at most 500 vertices, covering
    random priority maps plus windows of all four constructions."""
    out = []
    rng = SeededRng(20260808)
    # 80 vertex-priority maps over mixed boxes and tori
    domains = [
        Box((0,), (199,)),
        Box((0, 0), (15, 15)),
        Box((0, 0), (21, 9)),
        Box((0, 0, 0), (7, 7, 6)),
        Torus((200,)),
        Torus((16, 16)),
        Torus((21, 9)),
        Torus((7, 8, 8)),
    ]
    for i in range(80):
        dom = domains[i % len(domains)]
        out.append(("priority", vertex_priority_digraph(dom, 1000 + i)))
    # 30 Zerner-Merkl torus samples restricted to box windows
    for i in range(30):
        g = gen_zerner_merkl(16, SeededRng(2000 + i))
        out.append(("zm-window", g.restricted_to(Box((1, 1), (14, 14)))))
    # 30 dyadic windows (half d=2, half d=3)
    for i in range(30):
        if i % 2:
            win = Box((0, 0), (19, 19))
        else:
            win = Box((0, 0, 0), (6, 6, 6))
        Z = sample_dyadic_shift(24, win, SeededRng(3000 + i))
        out.append(("dyadic", gen_dyadic_window(24, Z, win)))
    # 30 layered maps (dyadic base, three layers)
    for i in range(30):
        win = Box((0, 0), (11, 11))
        Z = sample_dyadic_shift(24, win, SeededRng(4000 + i))
        out.append(("layered", gen_layered(gen_dyadic_window(24, Z, win), 3)))
    # 30 finite-k assemblies restricted to sub-500-vertex boxes
    for i in range(30):
        g = gen_finite_k(2, 24, Box((0, 0, 0), (23,) * 3), SeededRng(5000 + i))
        out.append(("finite-k", g.restricted_to(Box((4, 4, 4), (11, 11, 10)))))
    return out


def test_criterion_1_round_trip_exact():
    t0 = time.perf_counter()
    instances = _roundtrip_instances()
    assert len(instances) == 200
    failures = []
    for idx, (kind, g) in enumerate(instances):
        assert g.dom.n_sites <= 500, (kind, g.dom.n_sites)
        rep = verify_theorem3_preconditions(g)
        if not (rep.ok and rep.strictly_acyclic):
            failures.append((idx, kind, "preconditions"))
            continue
        if not round_trip_matches(g, SeededRng(777000 + idx)):
            failures.append((idx, kind, "mismatch"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _record(
        f"ACCEPTANCE 1 round-trip: {'PASS' if ok else 'FAIL'} "
        f"(200/200 exact, {elapsed:.1f}s < 30s)"
        if ok
        else f"ACCEPTANCE 1 round-trip: FAIL {failures[:4]} elapsed={elapsed:.1f}s"
    )
    assert not failures
    assert elapsed < 30.0


# ---- criterion 2: structural facts on iid tori ---------------------------------------


def test_criterion_2_structural_facts():
    bad = []
    for d, L in ((2, 64), (3, 64)):
        dom = Torus((L,) * d)
        for seed in range(20):
            w = sample_iid_uniform(dom, SeededRng(91000 + 100 * d + seed))
            g = build_nn_directed(w)
            rep = verify_all_components(g, w)
            if not (
                rep.long_cycle_free
                and rep.pass_rate == 1.0
                and rep.monotone_ok
                and rep.terminal_two_cycle_rate == 1.0
            ):
                bad.append((d, seed, rep))
    _record(
        f"ACCEPTANCE 2 structural facts: {'PASS' if not bad else 'FAIL'} "
        f"(d=2,3 L=64, 20 seeds each: no long cycles, all components "
        f"tree+miniloop+oriented, strict monotonicity)"
    )
    assert not bad


# ---- criterion 3: mass-transport bookkeeping ------------------------------------------


def test_criterion_3_transport_balance():
    bad = []
    checked = 0

    def check(g, w, seed_tag):
        nonlocal checked, bad
        rep = transport_balance(g, w, TwoCycleEndpoint())
        checked += 1
        if not (rep.balanced and rep.bounds_ok):
            bad.append((seed_tag, "two-cycle", rep.by_source, rep.by_target))
        if w is not None:
            r = default_descendant_threshold(g, w)
            rep = transport_balance(g, w, RDescendant(r))
            checked += 1
            if not (rep.balanced and rep.bounds_ok):
                bad.append((seed_tag, "r-descendant", rep.by_source, rep.by_target))

    for seed in range(20):
        for d, L in ((2, 32), (3, 16)):
            dom = Torus((L,) * d)
            w = sample_iid_uniform(dom, SeededRng(37000 + 100 * d + seed))
            check(build_nn_directed(w), w, f"iid-d{d}-{seed}")
        g = gen_zerner_merkl(32, SeededRng(38000 + seed))
        check(g, None, f"zm-{seed}")
        check(modify_type_c(g), None, f"typec-{seed}")
    _record(
        f"ACCEPTANCE 3 transport balance: {'PASS' if not bad else 'FAIL'} "
        f"({checked} realizations, source total == target total exactly, "
        f"out-mass bounds 2/1 never exceeded)"
    )
    assert not bad


# ---- criterion 4: dyadic exhaustive box properties -------------------------------------


def _batch_orbit_check(d: int, k: int, z: tuple) -> tuple:
    """Step every site of the 2^k-box at corner 2^k z through the unshifted
    rule; return (all reach the corner in d*2^k steps, none leave the box)."""
    corner = np.asarray([2**k * c for c in z], dtype=np.int64)
    shape = (2**k,) * d
    offs = np.indices(shape).reshape(d, -1).T
    pos = offs + corner
    alive = np.ones(len(pos), dtype=bool)  # not yet at the corner
    stayed = np.ones(len(pos), dtype=bool)
    for _ in range(d * 2**k):
        at_corner = np.all(pos == corner, axis=1)
        alive &= ~at_corner
        if not alive.any():
            break
        ax = _dyadic_axis(pos[alive])
        nxt = pos[alive].copy()
        nxt[np.arange(len(nxt)), ax] -= 1
        pos[alive] = nxt
        inside = np.all((nxt >= corner) & (nxt < corner + 2**k), axis=1)
        stayed[np.where(alive)[0][~inside]] = False
    reached = ~alive
    return bool(reached.all()), bool(stayed.all())


def test_criterion_4_dyadic_box_properties():
    bad = []
    for d in (2, 3):
        for k in range(1, 6):
            for z in [(1,) * d, tuple(range(1, d + 1))]:
                reached, stayed = _batch_orbit_check(d, k, z)
                if not (reached and stayed):
                    bad.append((d, k, z, reached, stayed))
    # explicit pairwise coalescence on sampled pairs (d=3, k=4)
    d, k = 3, 4
    corner = tuple(2**k * c for c in (1, 1, 1))
    win = Box(corner, tuple(c + 2**k - 1 for c in corner))
    g = gen_dyadic_window(24, (0,) * d, win)
    cap = d * 2**k
    rng = SeededRng(5150).child("pairs")
    idx = rng.integers(0, win.n_sites, 60)
    sites = [win.index_site(int(i)) for i in idx]
    for a, b in zip(sites[::2], sites[1::2]):
        va = forward_path(a, g).vertices[: cap + 1]
        vb = forward_path(b, g).vertices[: cap + 1]
        if not set(va) & set(vb):
            bad.append(("pair", a, b))
    ok = not bad
    _record(
        f"ACCEPTANCE 4 dyadic exhaustive: {'PASS' if ok else 'FAIL'} "
        f"(d in {{2,3}}, k <= 5: all orbits reach the box corner within d*2^k "
        f"steps without leaving; sampled pairs coalesce)"
    )
    assert ok, bad[:4]


# ---- criterion 5: verbatim example values ---------------------------------------------


def test_criterion_5_paper_example_values():
    ok = True
    ok &= (gen_dyadic_k((4, 8, 15)), gen_dyadic_i((4, 8, 15))) == (1, 3)
    ok &= (gen_dyadic_k((0, 8, 16)), gen_dyadic_i((0, 8, 16))) == (4, 2)

    win = Box((-3, -2), (4, 3))
    v = [(x, y) for x in range(-3, 5) for y in range(1, 4) if (x, y) != (1, 1)]
    p = star_boundary_path(v, win)
    triples = {(p[i], p[i + 1], p[i + 2]) for i in range(len(p) - 2)}
    ok &= bool(
        triples & {((0, 0), (1, 0), (1, 1)), ((1, 1), (1, 0), (0, 0))}
    )

    m = 4
    field = np.zeros((m, m), dtype=bool)
    field[0, 0] = True
    g = gen_zerner_merkl(8, SeededRng(0), b_field=field, shift=(0, 0))
    ok &= g.out((0, 0)) == (0, 1)
    ok &= g.out((0, 1)) == (0, 2)
    ok &= g.out((1, 0)) == (1, 7)
    ok &= g.out((1, 1)) == (1, 0)
    _record(
        f"ACCEPTANCE 5 example values: {'PASS' if ok else 'FAIL'} "
        f"(dyadic depth/axis pairs, boundary insertion site, Zerner-Merkl cell edges)"
    )
    assert ok


# ---- criterion 6: component censuses ----------------------------------------------------


@pytest.fixture  # function-scoped, so criterion 6's seconds include it
def census_results():
    seeds = range(50)
    res = {}
    res["zm"] = component_census(GeneratorSpec("zerner_merkl", L=256), seeds)
    res["typec"] = component_census(
        GeneratorSpec("type_c", base=GeneratorSpec("zerner_merkl", L=256)), seeds
    )
    res["dyadic2"] = component_census(
        GeneratorSpec("dyadic", window=Box((0, 0), (255, 255)), n=30), seeds
    )
    res["dyadic3"] = component_census(
        GeneratorSpec("dyadic", window=Box((0, 0, 0), (63, 63, 63)), n=30), seeds
    )
    res["fk2"] = component_census(
        GeneratorSpec("finite_k", k=2, n=30, window=Box((0, 0, 0), (79,) * 3)), seeds
    )
    res["fk3"] = component_census(
        GeneratorSpec("finite_k", k=3, n=30, window=Box((0, 0, 0), (119,) * 3)), seeds
    )
    res["layered"] = component_census(
        GeneratorSpec(
            "layered",
            base=GeneratorSpec("dyadic", window=Box((0, 0), (127, 127)), n=30),
            layers=3,
        ),
        seeds,
    )
    res["iid2"] = component_census(GeneratorSpec("iid", domain=Torus((128, 128))), seeds)
    return res


def _fraction(recs, predicate) -> float:
    return sum(1 for r in recs if predicate(r)) / len(recs)


def test_criterion_6_component_censuses(census_results):
    res = census_results
    fr = {
        "zm=2": _fraction(res["zm"], lambda r: r.core_infinite_count == 2),
        "dyadic2=1": _fraction(res["dyadic2"], lambda r: r.system_span_count == 1),
        "dyadic3=1": _fraction(res["dyadic3"], lambda r: r.system_span_count == 1),
        "fk2=2": _fraction(res["fk2"], lambda r: r.system_span_count == 2),
        "fk3=3": _fraction(res["fk3"], lambda r: r.system_span_count == 3),
        "layered=3": _fraction(res["layered"], lambda r: r.system_span_count == 3),
    }
    modal_ok = all(v >= 0.95 for v in fr.values())
    # Theorem 2 proxy: every stationary d=2 model shows at most two
    # proxy-infinite systems, in every seed
    at_most_two = (
        all(r.system_span_count <= 2 for r in res["zm"])
        and all(r.system_span_count <= 2 for r in res["typec"])
        and all(r.core_infinite_count <= 2 for r in res["zm"])
        and all(r.core_infinite_count <= 2 for r in res["typec"])
        and all(r.system_span_count <= 2 for r in res["dyadic2"])
        and all(r.system_span_count <= 2 for r in res["iid2"])
    )
    ok = modal_ok and at_most_two
    detail = ", ".join(f"{k}:{v:.0%}" for k, v in fr.items())
    _record(
        f"ACCEPTANCE 6 censuses: {'PASS' if ok else 'FAIL'} ({detail}; "
        f"d=2 stationary models <= 2 in 100% of seeds: {at_most_two})"
    )
    assert ok


# ---- criterion 7: topology lemmas -------------------------------------------------------


def _topology_realizations():
    for seed in range(20):
        dom = Box((0, 0), (127, 127))
        w = sample_iid_uniform(dom, SeededRng(61000 + seed))
        yield "iid", undirected_components(build_nn_directed(w))
        win = Box((0, 0), (127, 127))
        Z = sample_dyadic_shift(30, win, SeededRng(62000 + seed))
        yield "dyadic", undirected_components(gen_dyadic_window(30, Z, win))
        g = gen_zerner_merkl(128, SeededRng(63000 + seed))
        yield "zm", undirected_components(g)
        yield "typec", undirected_components(modify_type_c(g))


def test_criterion_7_topology_lemmas():
    bad = []
    count = 0
    for name, lab in _topology_realizations():
        window = lab.dom
        rc = classify_regions(lab, window)
        if not rc.partition_complete():
            bad.append((name, "partition"))
        if name == "iid":
            # iid components stay small: no window-spanning type-(a) region
            spanning_a = [
                r for r in rc.regions
                if r.kind == "a" and lab.spanning[r.component_id]
            ]
            if spanning_a:
                bad.append((name, "iid-spanning-a"))
        order = np.argsort(lab.sizes)[::-1]
        rng = SeededRng(64000 + count).child("sample")
        sample = list(order[:8]) + list(
            rng.integers(0, lab.n_components, 8)
        )
        for cid in dict.fromkeys(int(c) for c in sample):
            sites = lab.vertices_of(cid)
            if not check_degree_two(sites, window):
                bad.append((name, cid, "degree2"))
            if not check_closure_idempotent(sites, window):
                bad.append((name, cid, "idempotent"))
            if not check_neighbor_hole(sites, window):
                bad.append((name, cid, "neighbor-hole"))
        count += 1
    ok = not bad
    _record(
        f"ACCEPTANCE 7 topology lemmas: {'PASS' if ok else 'FAIL'} "
        f"({count} realizations x 16 sampled components: boundary degree two, "
        f"closure idempotence, hole lemma, full partition)"
    )
    assert ok, bad[:4]


# ---- criterion 8: finite-k structure ------------------------------------------------------


def test_criterion_8_finite_k_structure():
    bad = []
    for k, side in ((2, 32), (3, 48)):
        s = 4 * k
        win = Box((0,) * 3, (side - 1,) * 3)
        g = gen_finite_k(k, 25, win, SeededRng(71000 + k))
        mem = g.meta["system"]
        U = np.asarray(g.meta["U"])
        coords = win.index_coords()
        Y = coords - U
        # residue disjointness, exhaustively: membership in two sublattices at
        # once would need d-1 coordinates on two different residues
        claim = np.zeros(len(Y), dtype=np.int64)
        for j in range(1, k + 1):
            res = (Y - 4 * (j - 1)) % s
            is_j = (res == 0).sum(axis=1) >= 2
            if np.any((claim > 0) & is_j):
                bad.append((k, "overlap"))
            claim[is_j] = j
        if not np.array_equal(claim, mem):
            bad.append((k, "membership"))
        o = g.out_index
        src = np.where((o >= 0) & (mem == 0))[0]
        if not np.all(mem[o[src]] == 0):
            bad.append((k, "filler-edge-touches-sublattice"))
        into_filler = np.where((o >= 0) & (mem > 0))[0]
        if np.any(mem[o[into_filler]] == 0):
            bad.append((k, "sublattice-edge-into-filler"))
        lab = undirected_components(g)
        two = two_cycle_mask(g)
        filler_margin = np.all((coords >= s) & (coords <= side - 1 - s), axis=1)
        for cid in range(lab.n_components):
            sel = lab.labels == cid
            first = np.where(sel)[0][0]
            if mem[first] != 0 or lab.sizes[cid] == 1:
                continue
            if not filler_margin[first]:
                continue  # cells cut by the window stay unfilled
            ext = coords[sel].max(axis=0) - coords[sel].min(axis=0)
            if ext.max() > s:
                bad.append((k, cid, "diameter"))
            if lab.sizes[cid] < 2:
                bad.append((k, cid, "singleton"))
            if two[sel].sum() != 2:
                bad.append((k, cid, "miniloop"))
    ok = not bad
    _record(
        f"ACCEPTANCE 8 finite-k structure: {'PASS' if ok else 'FAIL'} "
        f"(k=2,3: sublattice residues disjoint, filler components small with "
        f"one miniloop each, no filler/sublattice cross edges)"
    )
    assert ok, bad[:6]


# ---- criterion 9: decay diagnostic --------------------------------------------------------


def test_criterion_9_decay_diagnostic():
    distances = [0, 1, 2, 3, 4, 5]
    curve = connection_probability_curve(
        L=512, d=2, distances=distances, seeds=[101, 102, 103, 104], block=64
    )
    # thresholds fixed by the 2026-08-08 pilot (same seeds); recorded below
    min_ratio_gap = 0.01
    max_ratio_of_p = 0.7
    ratios = curve.ratios()
    p_ok = curve.p[0] == 1.0 and all(
        b < a * max_ratio_of_p for a, b in zip(curve.p, curve.p[1:])
    )
    r_ok = all(
        ratios[i] - ratios[i + 1] > min_ratio_gap for i in range(1, len(ratios) - 1)
    )
    n_ok = curve.effective_samples >= 10**5
    manifest = {
        "distances": distances,
        "p": curve.p,
        "ci_lo": curve.ci_lo,
        "ci_hi": curve.ci_hi,
        "ratios": ratios,
        "effective_samples": curve.effective_samples,
        "thresholds": {
            "min_ratio_gap": min_ratio_gap,
            "max_ratio_of_p": max_ratio_of_p,
            "pilot": "L=512 seeds 101-104, 2026-08-08",
        },
    }
    ARTIFACTS.mkdir(exist_ok=True)
    (ARTIFACTS / "decay_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    ok = p_ok and r_ok and n_ok
    _record(
        f"ACCEPTANCE 9 decay diagnostic: {'PASS' if ok else 'FAIL'} "
        f"(p(0)=1, p strictly decreasing, ratio r(n) strictly decreasing over "
        f"n=1..4 at {curve.effective_samples} samples)"
    )
    assert ok, manifest


# ---- criterion 10: dyadic tail bound --------------------------------------------------------


def test_criterion_10_dyadic_tail_bound():
    bad = []
    lambdas = [2**j for j in range(0, 11)]  # 1 .. 1024, spanning lambda <= 10^3
    for d in (2, 3):
        samples = dyadic_tail_samples(d, 3000, cap=1025, master_seed=2026)
        for lam in lambdas:
            k = int((samples > lam).sum())
            upper = binomial_upper_99(k, len(samples))
            bound = 2 * (d + 1) / lam ** (1 / d)
            if upper > bound:
                bad.append((d, lam, upper, bound))
    ok = not bad
    _record(
        f"ACCEPTANCE 10 dyadic tail bound: {'PASS' if ok else 'FAIL'} "
        f"(d in {{2,3}}, all lambda <= 1024: 99% upper confidence bound below "
        f"2(d+1)/lambda^(1/d))"
    )
    assert ok, bad
