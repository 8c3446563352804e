"""Edge-weight fields and the exact digraph-realization constructor.

``construct_weights`` implements the weight recipe that turns an admissible
out-degree-one digraph into a field whose nearest-neighbor graph reproduces
the digraph edge for edge: an edge carried by the digraph gets weight
``1 / (#C_x + U)`` where ``#C_x`` counts the vertices whose forward orbit
passes through the edge's tail, and every other lattice edge gets ``1 + U``.
Backward-reachable sets strictly nest along directed edges, so the weights
strictly decrease along every orbit and each vertex's argmin is its own
out-edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConstructionError, SpecError, StructureError
from .lattice import UEdge, canonical_edge
from .nngraph import ComponentLabeling, OutMap, build_nn_directed, first_stop, undirected_components
from .rng import SeededRng


class WeightField:
    """Distinct real weights on every edge of a domain.

    Stored per (base site, axis) slot as a (d, n_sites) float array; slots
    without an edge hold NaN.
    """

    def __init__(self, dom, values: np.ndarray):
        d, n = dom.d, dom.n_sites
        if values.shape != (d, n):
            raise SpecError(f"weights must have shape ({d}, {n})")
        self.dom = dom
        self._w = values.astype(np.float64, copy=True)
        for a in range(d):
            missing = dom.neighbor_index(a, +1) < 0
            self._w[a, missing] = np.nan
            if np.any(np.isnan(self._w[a, ~missing])):
                raise SpecError("weight missing on a present edge")

    def axis_weights(self, axis: int) -> np.ndarray:
        return self._w[axis]

    def weight(self, e: UEdge) -> float:
        i, a = self.dom.edge_slot(e)
        return float(self._w[a, i])

    def values(self) -> np.ndarray:
        flat = self._w.reshape(-1)
        return flat[~np.isnan(flat)]

    @property
    def n_edges(self) -> int:
        return int(np.isfinite(self._w).sum())

    def all_distinct(self) -> bool:
        v = np.sort(self.values())
        return bool(np.all(v[1:] > v[:-1]))

    def items(self):
        dom = self.dom
        for a in range(dom.d):
            fwd = dom.neighbor_index(a, +1)
            for i in np.where(fwd >= 0)[0]:
                e = canonical_edge(dom.index_site(int(i)), dom.index_site(int(fwd[i])))
                yield e, float(self._w[a, i])

    def __eq__(self, other):
        if not isinstance(other, WeightField) or self.dom != other.dom:
            return False
        a, b = self._w, other._w
        return bool(np.all((np.isnan(a) & np.isnan(b)) | (a == b)))


def _dedupe(w: np.ndarray, rng: SeededRng, interval) -> np.ndarray:
    """Re-draw colliding slots from per-slot derived streams until distinct;
    each retry draws from a stream of its own, so a redraw that collides again
    gets a fresh value on the next attempt.  A redraw in slot s lands in
    (lo[s], hi[s]); scalar bounds hold for every slot.

    Collisions have probability ~0 for 64-bit draws; the loop keeps the
    distinctness invariant machine-checkable rather than merely almost-sure.
    """
    lo, hi = (np.broadcast_to(b, w.size) for b in interval)
    for attempt in range(64):
        flat = w.reshape(-1)
        valid = ~np.isnan(flat)
        vals = flat[valid]
        ranked = np.sort(vals)
        if not (ranked[1:] == ranked[:-1]).any():
            return w
        # only on a tie: the stable order picks which slot of it redraws
        order = np.argsort(vals, kind="stable")
        dup = np.zeros(len(vals), dtype=bool)
        eq = vals[order][1:] == vals[order][:-1]
        dup[order[1:][eq]] = True
        slots = np.where(valid)[0][dup]
        for s in slots:
            labels = ("dedupe", int(s)) if attempt == 0 else ("dedupe", int(s), attempt)
            u = float(rng.child(*labels).uniform_open())
            flat[s] = lo[s] + (hi[s] - lo[s]) * u
    raise StructureError("could not separate colliding weights")


def sample_iid_uniform(dom, rng: SeededRng) -> WeightField:
    """Independent uniform(0,1) weight per edge, reproducible from the seed."""
    w = WeightField(dom, rng.child("iid-weights").uniform_open((dom.d, dom.n_sites)))
    _dedupe(w._w, rng, (0.0, 1.0))
    return w


# ---- admissibility -------------------------------------------------------------


@dataclass
class PreconditionReport:
    """Findings of the realization-theorem hypothesis check."""

    out_degree_violations: list = field(default_factory=list)
    long_cycles: list = field(default_factory=list)
    wrapping_cycles: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Hypotheses hold in the finite-volume sense.

        Torus cycles with nonzero winding are the finite stand-in for infinite
        forward orbits, which the realization theorem allows; they are listed
        separately and do not fail the check.
        """
        return not (self.out_degree_violations or self.long_cycles)

    @property
    def strictly_acyclic(self) -> bool:
        return self.ok and not self.wrapping_cycles


def verify_theorem3_preconditions(
    g: OutMap, labeling: Optional[ComponentLabeling] = None
) -> PreconditionReport:
    """Report every obstruction to realizing g as a nearest-neighbor graph.

    Cycles of length three or more come in component order.  Each starts at
    the first cycle site on the orbit of its component's least site and runs
    in orbit order; it winds exactly when its component wraps, since the
    trees hanging off a cycle cannot wind."""
    dom = g.dom
    if labeling is None:
        labeling = undirected_components(g)
    rep = PreconditionReport()
    o = g.out_index
    missing = np.flatnonzero(g.active_mask() & (o < 0))
    rep.out_degree_violations = dom.index_sites(missing[:32])

    labels, cycle_len = labeling.labels, labeling.cycle_len
    long = np.flatnonzero(cycle_len >= 3)
    if not long.size:
        return rep
    on_cycle = labeling.on_cycle
    entry, _ = first_stop(o, on_cycle | (o < 0))
    start = np.zeros(len(o), dtype=bool)
    start[entry[labeling.least_sites()[long]]] = True
    _, hops = first_stop(o, start | (o < 0))
    cyc = np.flatnonzero(on_cycle & (cycle_len >= 3)[labels])
    length = cycle_len[labels[cyc]]
    # a cycle site `hops` steps before its cycle's start sits `length - hops`
    # steps after it
    cyc = cyc[np.lexsort(((length - hops[cyc]) % length, labels[cyc]))]
    sites = dom.index_sites(cyc)
    ends = np.cumsum(cycle_len[long]).tolist()
    for cid, lo, hi in zip(long.tolist(), [0] + ends, ends):
        (rep.wrapping_cycles if labeling.wrapping[cid] else rep.long_cycles).append(sites[lo:hi])
    return rep


# ---- the constructor ------------------------------------------------------------


def construct_weights(g: OutMap, rng: SeededRng) -> WeightField:
    """Weights whose nearest-neighbor graph is exactly g on its active set.

    Requires out-degree one at every active vertex and no directed cycles of
    length three or more (miniloops are fine); any cycle, wrapping included,
    breaks the strict nesting of backward sets that the recipe relies on.
    """
    dom = g.dom
    lab = undirected_components(g)
    rep = verify_theorem3_preconditions(g, labeling=lab)
    if rep.out_degree_violations:
        raise ConstructionError(
            f"active vertex {rep.out_degree_violations[0]} has no out-edge",
            witness=rep.out_degree_violations[0],
        )
    if rep.long_cycles or rep.wrapping_cycles:
        cyc = (rep.long_cycles + rep.wrapping_cycles)[0]
        raise ConstructionError(
            f"directed cycle of length {len(cyc)} through {cyc[0]}", witness=cyc
        )

    d, n = dom.d, dom.n_sites
    o = g.out_index
    src = np.flatnonzero(o >= 0)
    base, axis = dom.edge_slots(src, o[src])
    fwd = base == src  # the edge is directed base -> base+e_axis
    carried = np.zeros((d, n), dtype=bool)
    carried[axis, base] = True
    v_count = np.zeros((d, n), dtype=np.int64)
    for m in (~fwd, fwd):  # a miniloop's slot counts from its base site
        v_count[axis[m], base[m]] = lab.backward[src[m]]
    u = rng.child("construct-weights").uniform_open((d, n))
    w = WeightField(dom, np.where(carried, 1.0 / (v_count + u), 1.0 + u))
    lo = np.where(carried, 1.0 / (v_count + 1.0), 1.0).reshape(-1)
    hi = np.where(carried, 1.0 / np.maximum(v_count, 1), 2.0).reshape(-1)
    _dedupe(w._w, rng, (lo, hi))
    return w


def realizes(w: WeightField, g: OutMap) -> bool:
    """The nearest-neighbor graph of w agrees with g at every vertex where g
    has an out-edge."""
    if w.dom != g.dom:
        raise SpecError(f"weights on {w.dom} cannot realize a digraph on {g.dom}")
    go, ho = g.out_index, build_nn_directed(w).out_index
    has = go >= 0
    return bool(np.all(go[has] == ho[has]))


def round_trip_matches(g: OutMap, rng: SeededRng) -> bool:
    """construct weights from g, rebuild the nearest-neighbor graph, and demand
    agreement at every vertex where g has an out-edge."""
    return realizes(construct_weights(g, rng=rng), g)
