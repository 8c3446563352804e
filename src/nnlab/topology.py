"""Planar (d=2) structure: site-components, closure, dual boundaries, regions.

"Finite" and "infinite" are finite-volume proxies: on a box, a site set
counts as infinite when it touches the window boundary; on a torus, when it
wraps.  All dual-path degree assertions exempt window-edge dual vertices,
where clipping truncates the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import SpecError, StructureError, UnsupportedDimensionError
from .lattice import Box, Torus, canonical_edge, dual_of, primal_of
from .nngraph import ComponentLabeling, label_components, torus_winding


def _check_window(window):
    if window.d != 2:
        raise UnsupportedDimensionError("planar topology requires d=2")


# ---- site components ------------------------------------------------------------


class SubsetStructure:
    """Vectorized site-component labeling of a vertex subset, with the two
    finite-volume unboundedness proxies per component."""

    def __init__(self, mask: np.ndarray, window):
        self.window = window
        self.mask = mask
        src, dst = [], []
        for a in range(window.d):
            fwd = window.neighbor_index(a, +1)
            ok = (fwd >= 0) & mask & mask[fwd]
            src.append(np.flatnonzero(ok))
            dst.append(fwd[ok])
        src, dst = np.concatenate(src), np.concatenate(dst)
        self.labels = label_components(window.n_sites, src, dst)
        ncomp = int(self.labels.max()) + 1
        self.touching = np.zeros(ncomp, dtype=bool)
        if isinstance(window, Box):
            self.touching[self.labels[(window.face_depths() == 1) & mask]] = True
            self.wrapping = np.zeros(ncomp, dtype=bool)
        else:
            self.wrapping = torus_winding(window, src, dst, self.labels)

    def unbounded(self) -> np.ndarray:
        return self.touching | self.wrapping

    def fill_mask(self) -> np.ndarray:
        """Member sites lying in proxy-finite components."""
        return self.mask & ~self.unbounded()[self.labels]


def _mask_of(V: Iterable, window) -> np.ndarray:
    mask = np.zeros(window.n_sites, dtype=bool)
    for x in V:
        mask[window.site_index(x)] = True
    return mask


def closure(V: Iterable, window) -> set:
    """V plus every complement site-component that is finite in the proxy
    sense (does not touch a box boundary; on a torus, does not wrap)."""
    _check_window(window)
    vs = set(V)
    st = SubsetStructure(~_mask_of(vs, window), window)
    out = set(vs)
    for i in np.where(st.fill_mask())[0]:
        out.add(window.index_site(int(i)))
    return out


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


def boundary_edges(V: Iterable, window) -> list:
    """Dual edges separating closure(V) from its complement, inside the window."""
    _check_window(window)
    clo = closure(V, window)
    out = []
    tor = window if isinstance(window, Torus) else None
    for x in sorted(clo):
        for a in range(2):
            for sgn in (+1, -1):
                y = window.axis_neighbor(x, a, sgn)
                if y is None or y in clo:
                    continue
                out.append(dual_of(canonical_edge(x, y), tor))
    return sorted(set(out))


def dual_boundary(V: Iterable, window) -> list:
    """Decompose the dual edge boundary of V into maximal paths and circuits,
    each traversed from its lexicographically least vertex with the closure on
    the left."""
    _check_window(window)
    edges = boundary_edges(V, window)
    clo = closure(V, window)
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
        prev, cur = start_vertex, _other_endpoint(first_edge, start_vertex)
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
    """Left side of the dual step u -> v holds the closure endpoint of the
    bisected primal edge."""
    du = (v[0] - u[0], v[1] - u[1])
    if isinstance(window, Torus):
        du = tuple((t + s / 2) % s - s / 2 for t, s in zip(du, window.sides))
    e = primal_of(canonical_edge(u, v), window if isinstance(window, Torus) else None)
    a, b = e
    mid = (u[0] + du[0] / 2, u[1] + du[1] / 2)
    left = (-du[1], du[0])
    pa = _torus_delta(a, mid, window)
    side = pa[0] * left[0] + pa[1] * left[1]
    return (a in clo) if side > 0 else (b in clo)


def _torus_delta(site, point, window):
    dx = site[0] - point[0]
    dy = site[1] - point[1]
    if isinstance(window, Torus):
        sx, sy = window.sides
        dx = (dx + sx / 2) % sx - sx / 2
        dy = (dy + sy / 2) % sy - sy / 2
    return dx, dy


def interior_dual_degrees(V: Iterable, window) -> dict:
    """Degree of each dual vertex of B(V), restricted to dual vertices whose
    four surrounding primal sites all lie in the window."""
    edges = boundary_edges(V, window)
    deg: dict = {}
    for e in edges:
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    if isinstance(window, Torus):
        return deg
    out = {}
    for v, k in deg.items():
        corners = [
            (int(np.floor(v[0])) + dx, int(np.floor(v[1])) + dy)
            for dx in (0, 1)
            for dy in (0, 1)
        ]
        if all(window.contains(c) for c in corners):
            out[v] = k
    return out


# ---- star boundary path -----------------------------------------------------------


def star_boundary_path(component_sites: Iterable, window) -> list:
    """Site-connected enumeration of the outer *-boundary of a component's
    closure: outside endpoints of the boundary's bisected edges, with the
    common outside site-neighbor inserted between diagonal consecutive pairs.
    """
    _check_window(window)
    vset = set(component_sites)
    clo = closure(vset, window)
    paths = dual_boundary(vset, window)
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
    unbounded-proxy leftover site-components (b), and bounded leftovers (c)."""
    _check_window(window)
    if labeling.dom != window:
        raise SpecError("labeling and window disagree")
    tags: dict = {}
    regions: list = []
    for cid in infinite_component_ids(labeling):
        sites = labeling.vertices_of(cid)
        clo = closure(sites, window)
        rid = len(regions)
        regions.append(Region("a", rid, sorted(clo), component_id=cid))
        for x in clo:
            if x in tags:
                raise StructureError(f"closures overlap at {x}")
            tags[x] = ("a", rid)
    leftover_mask = np.ones(window.n_sites, dtype=bool)
    for x in tags:
        leftover_mask[window.site_index(x)] = False
    st = SubsetStructure(leftover_mask, window)
    unbounded = st.unbounded()
    by_comp: dict = {}
    for i in np.where(leftover_mask)[0]:
        by_comp.setdefault(int(st.labels[i]), []).append(window.index_site(int(i)))
    for comp_label in sorted(by_comp, key=lambda c: by_comp[c][0]):
        comp = by_comp[comp_label]
        kind = "b" if unbounded[comp_label] else "c"
        rid = len(regions)
        regions.append(Region(kind, rid, sorted(comp)))
        for x in comp:
            tags[x] = (kind, rid)
    _fill_star_touches(regions, tags, window)
    return RegionClassification(window, tags, regions)


def _fill_star_touches(regions, tags, window):
    for r in regions:
        if r.kind != "c":
            continue
        seen = set()
        for x in r.sites:
            for y in window.star_neighbors(x):
                t = tags.get(y)
                if t and t[1] != r.rid and t[0] in ("a", "b"):
                    seen.add(t[1])
        r.star_touches = sorted(seen)


# ---- lemma checks -------------------------------------------------------------------


def check_closure_idempotent(V: Iterable, window) -> bool:
    c1 = closure(V, window)
    return closure(c1, window) == c1


def check_neighbor_hole(V: Iterable, window) -> bool:
    """Sites of the closure with a neighbor outside it must belong to V."""
    vs = set(V)
    clo = closure(vs, window)
    for x in clo:
        for y in window.neighbors(x):
            if y not in clo and x not in vs:
                return False
    return True


def check_complement_unbounded(V: Iterable, window) -> bool:
    """Complement components of the closure are unbounded in the proxy sense."""
    clo = closure(V, window)
    st = SubsetStructure(~_mask_of(clo, window), window)
    return not bool(st.fill_mask().any())


def check_degree_two(V: Iterable, window, margin: int = 2) -> bool:
    """Interior dual vertices of B(V) have degree exactly two, for
    site-connected V (window-edge dual vertices are exempt on boxes)."""
    degs = interior_dual_degrees(V, window)
    if isinstance(window, Box):
        lo, hi = window.lo, window.hi
        degs = {
            v: k
            for v, k in degs.items()
            if all(l + margin <= c <= h - margin for c, l, h in zip(v, lo, hi))
        }
    return all(k == 2 for k in degs.values())


def check_no_interior_circuits(V: Iterable, window, margin: int = 2) -> bool:
    """Unbounded-proxy V: boundary fragments clear of the window edge must not
    close up into contractible circuits."""
    paths = dual_boundary(V, window)
    for p in paths:
        if not p.closed:
            continue
        verts = p.vertices()
        if isinstance(window, Torus):
            if not _dual_circuit_winds(p, window):
                return False
        else:
            lo, hi = window.lo, window.hi
            if all(
                all(l + margin <= c <= h - margin for c, l, h in zip(v, lo, hi))
                for v in verts
            ):
                return False
    return True


def _dual_circuit_winds(p: DualPath, window: Torus) -> bool:
    verts = p.vertices()
    total = (0.0, 0.0)
    for u, v in zip(verts, verts[1:]):
        du = tuple(
            (b - a + s / 2) % s - s / 2 for a, b, s in zip(u, v, window.sides)
        )
        total = (total[0] + du[0], total[1] + du[1])
    return abs(total[0]) > 0.25 or abs(total[1]) > 0.25
