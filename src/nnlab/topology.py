"""Planar (d=2) structure: site-components, closure, dual boundaries, regions.

"Finite" and "infinite" are finite-volume proxies: on a box, a site set
counts as infinite when it touches the window boundary; on a torus, when it
wraps.  All dual-path degree assertions exempt window-edge dual vertices,
where clipping truncates the boundary.

Inside the module a set of sites is a boolean mask over flat site indices
(flat order is lexicographic order); site tuples appear only in arguments
and results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import SpecError, StructureError, UnsupportedDimensionError
from .lattice import Box, Torus, canonical_edge, primal_of
from .nngraph import ComponentLabeling, label_components, torus_winding


def _check_window(window):
    if window.d != 2:
        raise UnsupportedDimensionError("planar topology requires d=2")


# ---- site components ------------------------------------------------------------


class SubsetStructure:
    """Vectorized site-component labeling of a vertex subset, with the
    finite-volume unboundedness proxy per component: touching a box face, or
    winding around a torus."""

    def __init__(self, mask: np.ndarray, window):
        self.mask = mask
        src, dst = [], []
        for a in range(window.d):
            fwd = window.neighbor_index(a, +1)
            ok = (fwd >= 0) & mask & mask[fwd]
            src.append(np.flatnonzero(ok))
            dst.append(fwd[ok])
        src, dst = np.concatenate(src), np.concatenate(dst)
        self.labels = label_components(window.n_sites, src, dst)
        if isinstance(window, Box):  # touching a face
            self.unbounded = np.zeros(int(self.labels.max()) + 1, dtype=bool)
            self.unbounded[self.labels[(window.face_depths() == 1) & mask]] = True
        else:
            self.unbounded = torus_winding(window, src, dst, self.labels)

    def fill_mask(self) -> np.ndarray:
        """Member sites lying in proxy-finite components."""
        return self.mask & ~self.unbounded[self.labels]


def _sites_mask(V: Iterable, window) -> np.ndarray:
    """Boolean mask of a collection of sites; DomainError unless every entry is
    an integer site of the window."""
    _check_window(window)
    mask = np.zeros(window.n_sites, dtype=bool)
    mask[window.coords_index(list(V))] = True
    return mask


def _closure_mask(mask: np.ndarray, window) -> np.ndarray:
    """closure() on masks."""
    return mask | SubsetStructure(~mask, window).fill_mask()


def _site_set(mask: np.ndarray, window) -> set:
    return set(window.index_sites(np.flatnonzero(mask)))


def closure(V: Iterable, window) -> set:
    """V plus every complement site-component that is finite in the proxy
    sense (does not touch a box boundary; on a torus, does not wrap)."""
    return _site_set(_closure_mask(_sites_mask(V, window), window), window)


# ---- dual boundary ---------------------------------------------------------------


@dataclass
class DualPath:
    """Maximal run of dual edges; closed when it returns to its start."""

    edges: list
    closed: bool

    def vertices(self) -> list:
        if not self.edges:
            return []
        if len(self.edges) == 1:
            return list(self.edges[0])
        first, second = self.edges[0], self.edges[1]
        shared = first[0] if first[0] in second else first[1]
        start = first[1] if first[0] == shared else first[0]
        out = [start, shared]
        for e in self.edges[1:]:
            out.append(e[1] if e[0] == out[-1] else e[0])
        return out


def _crossed(clo: np.ndarray, window) -> list:
    """Per axis a, whether the window edge from each site to its forward
    neighbor along a has exactly one endpoint in clo."""
    fwd = [window.neighbor_index(a, +1) for a in range(2)]
    return [(f >= 0) & (clo != clo[f]) for f in fwd]


def _boundary_edges(clo: np.ndarray, window) -> list:
    """boundary_edges() of a closure mask: the dual of a crossed edge from
    (x, y) along axis a joins (x, y) + (1/2, 1/2) - e_(1-a) to (x, y) + (1/2, 1/2)."""
    coords = window.index_coords()
    out = []
    for a, crossed in enumerate(_crossed(clo, window)):
        v = coords[crossed] + 0.5
        u = v - np.eye(2)[1 - a]
        if isinstance(window, Torus):
            u %= window.sides  # exact on halves
        out += map(canonical_edge, map(tuple, u.tolist()), map(tuple, v.tolist()))
    return sorted(out)


def boundary_edges(V: Iterable, window) -> list:
    """Dual edges separating closure(V) from its complement, inside the window."""
    return _boundary_edges(_closure_mask(_sites_mask(V, window), window), window)


def dual_boundary(V: Iterable, window) -> list:
    """Decompose the dual edge boundary of V into maximal paths and circuits,
    each traversed from its lexicographically least vertex with the closure on
    the left."""
    clo = _closure_mask(_sites_mask(V, window), window)
    return _dual_paths(_boundary_edges(clo, window), _site_set(clo, window), window)


def _dual_paths(edges: list, clo: set, window) -> list:
    adj: dict = {}
    for e in edges:
        adj.setdefault(e[0], []).append(e)
        adj.setdefault(e[1], []).append(e)

    unused = set(edges)
    paths = []
    # open paths first: start at odd-degree vertices; then remaining circuits
    def walk(start_vertex, first_edge):
        run = [first_edge]
        unused.discard(first_edge)
        cur = _other_endpoint(first_edge, start_vertex)
        while True:
            nxt = [e for e in adj[cur] if e in unused]
            if not nxt:
                break
            e = nxt[0]
            run.append(e)
            unused.discard(e)
            cur = _other_endpoint(e, cur)
            if cur == start_vertex:
                break
        return run

    endpoints = sorted(v for v, es in adj.items() if len(es) % 2 == 1)
    for v in endpoints:
        for e in sorted(adj[v]):
            if e in unused:
                run = walk(v, e)
                paths.append(DualPath(run, closed=False))
    while unused:
        e0 = min(unused)
        v0 = min(e0)
        run = walk(v0, e0)
        closed = _other_endpoint(run[-1], _path_tail(run, v0)) == v0 if len(run) > 1 else False
        paths.append(DualPath(run, closed=len(run) > 2 and closed))
    for p in paths:
        _orient(p, clo, window)
    return paths


def _other_endpoint(e, v):
    return e[1] if e[0] == v else e[0]


def _path_tail(run, start):
    cur = start
    for e in run[:-1]:
        cur = _other_endpoint(e, cur)
    return cur


def _orient(p: DualPath, clo: set, window):
    """Normalize traversal: closure on the left; circuits additionally start
    at their least dual vertex (open paths' start is forced by the side rule).
    """
    verts = p.vertices()
    if len(verts) < 2:
        return
    if p.closed:
        cyc = verts[:-1] if verts[0] == verts[-1] else verts
        k = cyc.index(min(cyc))
        verts = cyc[k:] + cyc[:k] + [cyc[k]]
    if not _closure_on_left(verts[0], verts[1], clo, window):
        verts.reverse()  # circuits still start and end at the least vertex
    p.edges = [canonical_edge(a, b) for a, b in zip(verts, verts[1:])]


def _closure_on_left(u, v, clo: set, window) -> bool:
    """Whether the site on the left of the dual step u -> v, one end of the
    primal edge it bisects, is in the closure."""
    du = (v[0] - u[0], v[1] - u[1])
    if isinstance(window, Torus):
        du = tuple((t + s / 2) % s - s / 2 for t, s in zip(du, window.sides))
    x = (round(u[0] + (du[0] - du[1]) / 2), round(u[1] + (du[0] + du[1]) / 2))
    return (window.wrap(x) if isinstance(window, Torus) else x) in clo


def _plaquette_degrees(clo: np.ndarray, window) -> tuple:
    """Lower-left corners i of the plaquettes inside the window, and how many
    of each one's four sides cross the boundary of clo: the degree in B of the
    dual vertex i + (1/2, 1/2)."""
    f0, f1 = window.neighbor_index(0, +1), window.neighbor_index(1, +1)
    c0, c1 = _crossed(clo, window)
    ll = np.flatnonzero((f0 >= 0) & (f1 >= 0))
    deg = c0[ll].astype(np.int64) + c0[f1[ll]] + c1[ll] + c1[f0[ll]]
    return ll, deg


def interior_dual_degrees(V: Iterable, window) -> dict:
    """Degree of each dual vertex of B(V), restricted to dual vertices whose
    four surrounding primal sites all lie in the window, in sorted order."""
    ll, deg = _plaquette_degrees(_closure_mask(_sites_mask(V, window), window), window)
    on = deg > 0
    verts = (window.index_coords()[ll[on]] + 0.5).tolist()
    return {(x, y): k for (x, y), k in zip(verts, deg[on].tolist())}


# ---- star boundary path -----------------------------------------------------------


def star_boundary_path(component_sites: Iterable, window) -> list:
    """Site-connected enumeration of the outer *-boundary of a component's
    closure: outside endpoints of the boundary's bisected edges, with the
    common outside site-neighbor inserted between diagonal consecutive pairs.
    """
    mask = _closure_mask(_sites_mask(component_sites, window), window)
    clo = _site_set(mask, window)
    paths = _dual_paths(_boundary_edges(mask, window), clo, window)
    runs = [p for p in paths if len(p.edges) > 0]
    if len(runs) != 1:
        raise StructureError(
            f"expected a single boundary path, found {len(runs)}", witness=len(runs)
        )
    p = runs[0]
    tor = window if isinstance(window, Torus) else None
    xs = []
    for e in p.edges:
        a, b = primal_of(e, tor)
        outside = b if a in clo else a
        if a not in clo and b not in clo:
            raise StructureError(f"dual edge {e} does not border the closure")
        if not xs or xs[-1] != outside:
            xs.append(outside)
    pairs = list(zip(xs, xs[1:]))
    if p.closed and len(xs) > 1 and xs[0] != xs[-1]:
        pairs.append((xs[-1], xs[0]))  # circuits close back around
    out = [xs[0]]
    for x, y in pairs:
        d = _site_delta(x, y, window)
        if abs(d[0]) + abs(d[1]) == 1:
            out.append(y)
            continue
        if max(abs(d[0]), abs(d[1])) != 1:
            raise StructureError(f"boundary jump from {x} to {y} is not *-adjacent")
        cands = [(x[0] + d[0], x[1]), (x[0], x[1] + d[1])]
        if isinstance(window, Torus):
            cands = [window.wrap(c) for c in cands]
        pick = [c for c in cands if window.contains(c) and c not in clo]
        if len(pick) != 1:
            raise StructureError(f"no unique outside common neighbor between {x} and {y}")
        out.append(pick[0])
        out.append(y)
    return out


def _site_delta(x, y, window):
    d = (y[0] - x[0], y[1] - x[1])
    if isinstance(window, Torus):
        sx, sy = window.sides
        d = ((d[0] + sx // 2) % sx - sx // 2, (d[1] + sy // 2) % sy - sy // 2)
    return d


# ---- region classification ---------------------------------------------------------


@dataclass
class Region:
    kind: str  # 'a', 'b', or 'c'
    rid: int
    sites: list
    component_id: Optional[int] = None  # for type (a): the component it closes
    star_touches: list = field(default_factory=list)  # rids of (a)/(b) regions (type c)


@dataclass
class RegionClassification:
    window: object
    tags: dict  # site -> (kind, rid)
    regions: list

    def counts(self) -> dict:
        out = {"a": 0, "b": 0, "c": 0}
        for r in self.regions:
            out[r.kind] += 1
        return out

    def partition_complete(self) -> bool:
        n = self.window.n_sites
        return len(self.tags) == n and sum(len(r.sites) for r in self.regions) == n

    def to_csv(self) -> str:
        """site coordinates, type tag, region id; one row per window site."""
        lines = ["site,tag,region"]
        for site in sorted(self.tags):
            kind, rid = self.tags[site]
            coord = " ".join(str(c) for c in site)
            lines.append(f"{coord},{kind},{rid}")
        return "\n".join(lines) + "\n"


def infinite_component_ids(labeling: ComponentLabeling) -> list:
    """Proxy-infinite components: wrapping on a torus; on a box, touching the
    window face outright (the strict version keeps closures disjoint: a
    face-touching set can never sit inside another component's hole)."""
    if isinstance(labeling.dom, Torus):
        return [int(c) for c in np.where(labeling.wrapping)[0]]
    on_face = labeling.dom.face_depths() == 1
    return [int(c) for c in np.unique(labeling.labels[on_face])]


def classify_regions(labeling: ComponentLabeling, window) -> RegionClassification:
    """Partition the window into closures of proxy-infinite components (a),
    unbounded-proxy leftover site-components (b), and bounded leftovers (c).

    The complement of the union U of the type-(a) components is labeled once.
    A proxy-finite piece of it lies in closure(C) exactly when C is its only
    type-(a) neighbor: a second one would join it, in the complement of C, to
    an unbounded set.  So closures never overlap, and the other pieces are
    the (b)/(c) leftovers."""
    _check_window(window)
    if labeling.dom != window:
        raise SpecError("labeling and window disagree")
    a_ids = infinite_component_ids(labeling)
    a_rid = np.full(labeling.n_components, -1, dtype=np.int64)
    a_rid[a_ids] = np.arange(len(a_ids))
    rid = a_rid[labeling.labels]
    st = SubsetStructure(rid < 0, window)
    piece, a_nbr = _neighbor_pairs(np.where(rid < 0, st.labels, -1), rid, _AXIS_STEPS, window)
    piece, first, count = np.unique(piece, return_index=True, return_counts=True)
    sole = (count == 1) & ~st.unbounded[piece]
    piece_rid = np.full(window.n_sites, -1, dtype=np.int64)
    piece_rid[piece[sole]] = a_nbr[first[sole]]
    rid = np.where(rid < 0, piece_rid[st.labels], rid)

    left = np.flatnonzero(rid < 0)
    piece = np.unique(st.labels[left])  # labels follow each piece's least site
    piece_rid[piece] = len(a_ids) + np.arange(len(piece))
    rid[left] = piece_rid[st.labels[left]]
    kinds = ["a"] * len(a_ids) + ["b" if u else "c" for u in st.unbounded[piece]]

    sites = window.index_sites(np.argsort(rid, kind="stable"))
    ends = np.cumsum(np.bincount(rid)).tolist()
    regions, tags = [], {}
    for r, (kind, lo, hi) in enumerate(zip(kinds, [0, *ends], ends)):
        cid = a_ids[r] if kind == "a" else None
        regions.append(Region(kind, r, sites[lo:hi], component_id=cid))
        tags.update(dict.fromkeys(sites[lo:hi], (kind, r)))
    in_c = np.array([k == "c" for k in kinds])[rid]
    c_rid, ab_rid = _neighbor_pairs(np.where(in_c, rid, -1), np.where(in_c, -1, rid),
                                    _STAR_STEPS, window)
    for r, t in zip(c_rid.tolist(), ab_rid.tolist()):
        regions[r].star_touches.append(t)
    return RegionClassification(window, tags, regions)


_AXIS_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_STAR_STEPS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy)


def _neighbor_pairs(p: np.ndarray, q: np.ndarray, steps, window) -> tuple:
    """The distinct pairs (p[i], q[j]) over sites i and their neighbors j at
    the given steps, where both are >= 0 (p and q hold values below n_sites),
    as two arrays in sorted pair order."""
    n = window.n_sites
    keys = []
    for dx, dy in steps:
        j = window.neighbor_index(0, dx) if dx else np.arange(n)
        if dy:
            j = np.where(j >= 0, window.neighbor_index(1, dy)[j], -1)
        i = np.flatnonzero((p >= 0) & (j >= 0))
        i = i[q[j[i]] >= 0]
        keys.append(p[i] * n + q[j[i]])
    return np.divmod(np.unique(np.concatenate(keys)), n)


# ---- lemma checks -------------------------------------------------------------------


def check_closure_idempotent(V: Iterable, window) -> bool:
    c1 = _closure_mask(_sites_mask(V, window), window)
    return bool(np.array_equal(_closure_mask(c1, window), c1))


def check_neighbor_hole(V: Iterable, window) -> bool:
    """Sites of the closure with a neighbor outside it must belong to V."""
    vs = _sites_mask(V, window)
    clo = _closure_mask(vs, window)
    filled = clo & ~vs
    for a in range(2):
        for sgn in (+1, -1):
            nbr = window.neighbor_index(a, sgn)
            if np.any(filled & (nbr >= 0) & ~clo[nbr]):
                return False
    return True


def check_complement_unbounded(V: Iterable, window) -> bool:
    """Complement components of the closure are unbounded in the proxy sense."""
    clo = _closure_mask(_sites_mask(V, window), window)
    return not bool(SubsetStructure(~clo, window).fill_mask().any())


def check_degree_two(V: Iterable, window, margin: int = 2) -> bool:
    """Interior dual vertices of B(V) have degree exactly two, for
    site-connected V (window-edge dual vertices are exempt on boxes)."""
    ll, deg = _plaquette_degrees(_closure_mask(_sites_mask(V, window), window), window)
    if isinstance(window, Box):
        deg = deg[_clear(window.index_coords()[ll] + 0.5, window, margin)]
    return bool(np.all((deg == 0) | (deg == 2)))


def check_no_interior_circuits(V: Iterable, window, margin: int = 2) -> bool:
    """Unbounded-proxy V: boundary fragments clear of the window edge must not
    close up into contractible circuits."""
    for p in dual_boundary(V, window):
        if not p.closed:
            continue
        if isinstance(window, Torus):
            if not _dual_circuit_winds(p, window):
                return False
        elif _clear(np.array(p.vertices()), window, margin).all():
            return False
    return True


def _clear(v: np.ndarray, box: Box, margin) -> np.ndarray:
    """Which dual vertices (rows of v) lie at least margin inside the box corners."""
    return np.all((v >= np.add(box.lo, margin)) & (v <= np.subtract(box.hi, margin)), axis=1)


def _dual_circuit_winds(p: DualPath, window: Torus) -> bool:
    sides = np.asarray(window.sides)
    total = ((np.diff(p.vertices(), axis=0) + sides / 2) % sides - sides / 2).sum(axis=0)
    return bool(np.any(np.abs(total) > 0.25))
