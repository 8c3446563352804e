"""Monte Carlo censuses, transport bookkeeping, and decay diagnostics.

Transport balance realizes the stationary expectation identity as an exact
double-counting equality on tori: summing a transport function over sources
must equal summing it over targets, integer for integer.  The censuses turn
the structural theorems into reproducible per-seed records; the decay and
tail estimators overlay the quantitative bounds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SpecError
from .lattice import Torus
from .nngraph import (
    ComponentLabeling,
    OutMap,
    backward_sizes,
    first_stop,
    out_edge_weights,
    two_cycle_mask,
    undirected_components,
    verify_all_components,
)
from .rng import SeededRng


# ---- transport functions ------------------------------------------------------------


@dataclass(frozen=True)
class TwoCycleEndpoint:
    """m(x, y) = 1 when y sits on the miniloop ending the forward orbit of x."""


@dataclass(frozen=True)
class RDescendant:
    """m(x, y) = 1 when y is the last vertex on the orbit of x whose out-edge
    weighs at least r."""

    r: float


@dataclass
class TransportReport:
    by_source: int
    by_target: int
    max_out_mass: int
    out_mass_bound: int
    in_mass_histogram: dict

    @property
    def balanced(self) -> bool:
        return self.by_source == self.by_target

    @property
    def bounds_ok(self) -> bool:
        return self.max_out_mass <= self.out_mass_bound


def transport_balance(g: OutMap, w, m) -> TransportReport:
    """Source-major and target-major totals of the transport m on a torus.

    The two totals enumerate the same pair set from opposite ends, so a
    mismatch can only mean broken bookkeeping; the per-site out-mass bound is
    the structural content (<= 2 for miniloop endpoints, <= 1 for descendants).
    """
    if not isinstance(g.dom, Torus):
        raise SpecError("the transport identity needs exact translation invariance (torus)")
    n = g.dom.n_sites
    if isinstance(m, TwoCycleEndpoint):
        two = two_cycle_mask(g)
        o = g.out_index
        term, _ = first_stop(o, two | (o < 0))
        ok = (term >= 0) & two[np.clip(term, 0, n - 1)]
        # each absorbed orbit deposits one unit on both miniloop endpoints
        targets1 = term[ok]
        targets2 = o[targets1]
        by_source = int(2 * ok.sum())
        in_mass = np.bincount(targets1, minlength=n) + np.bincount(targets2, minlength=n)
        out_masses = np.where(ok, 2, 0)
        bound = 2
    elif isinstance(m, RDescendant):
        if w is None:
            raise SpecError("descendant transport needs the weight field")
        desc = r_descendant_map(g, w, m.r)
        ok = desc >= 0
        by_source = int(ok.sum())
        in_mass = np.bincount(desc[ok], minlength=n)
        out_masses = ok.astype(np.int64)
        bound = 1
    else:
        raise SpecError(f"unknown transport {m!r}")
    by_target = int(in_mass.sum())
    hist_vals, hist_counts = np.unique(in_mass, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(hist_vals, hist_counts)}
    return TransportReport(
        by_source=by_source,
        by_target=by_target,
        max_out_mass=int(out_masses.max(initial=0)),
        out_mass_bound=bound,
        in_mass_histogram=hist,
    )


def r_descendant_map(g: OutMap, w, r: float) -> np.ndarray:
    """Vectorized last-vertex-with-out-weight >= r along every orbit (-1 when
    none).  Weights strictly decrease along orbits, so the descendant is the
    unique threshold crossing, or the miniloop entry partner when the loop
    itself still weighs >= r."""
    n = g.dom.n_sites
    o = g.out_index
    wout = out_edge_weights(g, w)
    has = o >= 0
    next_w = np.full(n, np.nan)
    next_w[has] = wout[o[has]]
    crossing = has & (wout >= r) & (np.isnan(next_w) | (next_w < r))
    two = two_cycle_mask(g)
    landed, _ = first_stop(o, crossing | two | ~has)
    res = np.full(n, -1, dtype=np.int64)
    src = np.flatnonzero(landed >= 0)
    t = landed[src]
    land_cross = crossing[t]
    res[src[land_cross]] = t[land_cross]
    # orbit absorbed into a miniloop still weighing >= r: the descendant is the
    # partner of the entry vertex (last orbit vertex before the repeat)
    land_two = ~land_cross & two[t] & (wout[t] >= r)
    res[src[land_two]] = o[t[land_two]]
    # sources whose own out-edge already weighs < r transport nothing
    res[~has | (wout < r)] = -1
    return res


def default_descendant_threshold(g: OutMap, w) -> float:
    """Median out-edge weight along the orbit of the least site (a value the
    orbit's weights straddle)."""
    from .nngraph import forward_path

    x = g.dom.index_site(0)
    tr = forward_path(x, g)
    vals = [w.weight(e) for e in tr.edges()]
    if not vals:
        return 0.5
    return float(np.median(vals))


# ---- census --------------------------------------------------------------------------


@dataclass
class CensusRecord:
    """Per-seed component statistics; identical (spec, seed) reproduce every
    field except the runtime byte for byte."""

    spec_hash: str
    seed: int
    domain: str
    n_components: int
    wrapping_count: int
    spanning_count: int
    boundary_touching_count: int
    system_span_count: int
    core_infinite_count: Optional[int]
    miniloop_count: int
    size_histogram: dict
    max_backward_size: int
    structure_pass_rate: Optional[float]
    runtime_s: float

    def stable_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k != "runtime_s"}
        d["size_histogram"] = {str(k): v for k, v in sorted(self.size_histogram.items())}
        return d

    def stable_json(self) -> str:
        return json.dumps(self.stable_dict(), sort_keys=True)

    def to_json(self) -> str:
        d = self.stable_dict()
        d["runtime_s"] = round(self.runtime_s, 6)
        return json.dumps(d, sort_keys=True)


def _spec_hash(spec) -> str:
    import hashlib

    return hashlib.sha256(spec.to_json().encode()).hexdigest()[:16]


def system_span_count(g: OutMap, lab: ComponentLabeling) -> int:
    """Number of generator systems witnessing a proxy-infinite component.

    A finite window can shatter one unbounded component into several spanning
    shards; shards carrying the same system id (the same tree, layer, or
    sublattice of the construction) represent one component of the infinite
    graph and are counted once.  Constructions with a proven bound on their
    finite components additionally accept any component exceeding that bound
    as a witness (a stretched-sublattice chunk bigger than a filler cell can
    only belong to an unbounded component, even when boundary truncation
    keeps it off the window faces).  Without system metadata every component
    is its own system.
    """
    flags = (lab.wrapping if isinstance(g.dom, Torus) else lab.spanning).copy()
    meta = g.meta
    if "witness_size" in meta:
        flags |= lab.sizes > int(meta["witness_size"])
    ids = np.where(flags)[0]
    if not len(ids):
        return 0
    if "system" not in meta:
        return int(len(ids))
    system = np.asarray(meta["system"])
    return len(np.unique(system[lab.least_sites()[ids]]))


def core_infinite_count(g: OutMap, lab: ComponentLabeling) -> Optional[int]:
    """Proxy-infinite components meeting the central core cell (tori with a
    cell structure; the core is aligned to the generator's cell grid)."""
    if not isinstance(g.dom, Torus):
        return None
    cell = g.meta.get("cell", 1)
    shift = g.meta.get("shift", (0,) * g.dom.d)
    base = tuple(
        ((s // 2 - sh) // cell) * cell + sh for s, sh in zip(g.dom.sides, shift)
    )
    comps = set()
    for off in np.ndindex(*(cell,) * g.dom.d):
        x = g.dom.wrap(tuple(b + o for b, o in zip(base, off)))
        comps.add(lab.component_of(x))
    return sum(1 for c in comps if lab.wrapping[c])


def _sample_sites(dom) -> np.ndarray:
    """Flat indices of a deterministic low-discrepancy sublattice: every
    ~eighth site per axis."""
    axes = [np.arange(0, s, max(1, s // 8)) for s in dom.shape]
    return np.ravel_multi_index(np.meshgrid(*axes, indexing="ij"), dom.shape).reshape(-1)


def census_once(spec, seed: int, verify_structure: bool = False) -> CensusRecord:
    t0 = time.perf_counter()
    real = spec.build(seed)
    g, w = real.graph, real.weights
    lab = undirected_components(g)
    sizes_hist_vals, sizes_hist_counts = np.unique(lab.sizes, return_counts=True)
    back = lab.backward
    pass_rate = None
    if verify_structure:
        rep = verify_all_components(g, w, labeling=lab)
        pass_rate = rep.pass_rate
    return CensusRecord(
        spec_hash=_spec_hash(spec),
        seed=seed,
        domain=repr(g.dom),
        n_components=lab.n_components,
        wrapping_count=lab.count("wrapping"),
        spanning_count=lab.count("spanning"),
        boundary_touching_count=lab.count("boundary_touching"),
        system_span_count=system_span_count(g, lab),
        core_infinite_count=core_infinite_count(g, lab),
        miniloop_count=int((lab.cycle_len == 2).sum()),
        size_histogram={int(v): int(c) for v, c in zip(sizes_hist_vals, sizes_hist_counts)},
        max_backward_size=int(back[_sample_sites(g.dom)].max()),
        structure_pass_rate=pass_rate,
        runtime_s=time.perf_counter() - t0,
    )


def component_census(spec, seeds, verify_structure: bool = False) -> list:
    """One CensusRecord per seed, in seed order."""
    return [census_once(spec, int(s), verify_structure) for s in seeds]


# ---- connection probability curve ----------------------------------------------------


@dataclass
class DecayCurve:
    distances: list
    p: list
    ci_lo: list
    ci_hi: list
    effective_samples: int

    def ratios(self) -> list:
        return [
            self.p[i + 1] / self.p[i] if self.p[i] > 0 else float("nan")
            for i in range(len(self.p) - 1)
        ]

    def to_csv(self) -> str:
        lines = ["n,p,ci_lo,ci_hi"]
        for row in zip(self.distances, self.p, self.ci_lo, self.ci_hi):
            lines.append(f"{row[0]},{row[1]:.10g},{row[2]:.10g},{row[3]:.10g}")
        return "\n".join(lines) + "\n"


def connection_probability_curve(
    L: int,
    d: int,
    distances,
    seeds,
    block: int = 32,
    n_boot: int = 200,
) -> DecayCurve:
    """Torus-averaged probability that the origin connects to (n, 0, ...) in
    the iid nearest-neighbor graph, with block-bootstrap confidence bands over
    slabs of ``block`` rows along the first axis; ``block`` must divide L."""
    from .weights import sample_iid_uniform
    from .nngraph import build_nn_directed

    if block < 1 or L % block:
        raise SpecError(f"bootstrap block {block} must divide the torus side L={L}")
    dom = Torus((L,) * d)
    hits = {n: [] for n in distances}
    for seed in seeds:
        w = sample_iid_uniform(dom, SeededRng(int(seed)))
        g = build_nn_directed(w)
        lab = undirected_components(g)
        grid = lab.labels.reshape(dom.shape)
        for n in distances:
            same = grid == np.roll(grid, -n, axis=0)
            hits[n].append(same)
    p = []
    lo_ci = []
    hi_ci = []
    boot_rng = np.random.Generator(np.random.PCG64(12345))
    for n in distances:
        stacked = np.stack(hits[n])  # (seeds, L, L, ...)
        p.append(float(stacked.mean()))
        # block bootstrap over torus blocks to respect translate correlations
        nb = L // block
        blocks = stacked.reshape(stacked.shape[0], nb, block, -1).mean(axis=(2, 3))
        flat = blocks.reshape(-1)
        idx = boot_rng.integers(0, len(flat), size=(n_boot, len(flat)))
        means = flat[idx].mean(axis=1)
        lo_ci.append(float(np.quantile(means, 0.005)))
        hi_ci.append(float(np.quantile(means, 0.995)))
    total = len(hits[distances[0]]) * dom.n_sites
    return DecayCurve(list(distances), p, lo_ci, hi_ci, total)


# ---- backward tails -------------------------------------------------------------------


def backward_tail(g: OutMap, thresholds) -> dict:
    """Empirical fraction of sites with #C_x exceeding each threshold."""
    back = backward_sizes(g)
    n = len(back)
    return {int(m): float((back > m).sum() / n) for m in thresholds}


def dyadic_tail_samples(d: int, n_samples: int, cap: int, master_seed: int, level: int = 30) -> np.ndarray:
    """#C_Z (truncated at cap+1) for uniformly shifted dyadic sites, chasing
    in-neighbors directly in orthant coordinates so no window bias enters."""
    from .generators import dyadic_backward_size

    if level < 1:
        raise SpecError(f"dyadic tail samples need level >= 1, got {level}")
    rng = SeededRng(master_seed).child("dyadic-tail", d)
    out = np.empty(n_samples, dtype=np.int64)
    for i in range(n_samples):
        for attempt in range(256):  # the origin is redrawn on a stream of its own
            key = ("site", i, attempt) if attempt else ("site", i)
            Z = tuple(int(c) for c in rng.child(*key).integers(0, 2**level, d))
            if any(Z):
                break
        else:
            raise SpecError(f"could not draw a nonzero dyadic site at level {level}")
        out[i] = dyadic_backward_size(Z, cap)
    return out


def binomial_upper_99(successes: int, trials: int) -> float:
    """Clopper-Pearson one-sided 99% upper confidence bound."""
    from scipy.stats import beta

    if successes >= trials:
        return 1.0
    return float(beta.ppf(0.99, successes + 1, trials - successes))
