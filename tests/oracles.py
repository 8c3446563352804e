"""Per-site reference implementations that the tests compare the package against.

Each function here recomputes something the package computes with array code,
the slow and obvious way: union-find and flood fill over site tuples, forward
walks one edge at a time, lifts of a component to the covering lattice, the
planar dual lattice on float points with a dual-boundary walk over tuple
dicts and sets, and the generators computed on whole-window coordinate
arrays.  None of them is used by the package itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from nnlab.errors import DomainError, SpecError, StructureError, UnsupportedDimensionError
from nnlab.generators import fill_region
from nnlab.lattice import Box, Site, Torus, canonical_edge, flat_strides
from nnlab.nngraph import OutMap, PathTrace, TwoCycle, forward_path
from nnlab.rng import SeededRng
from nnlab.topology import DualPath, Region, RegionClassification


class UnionFind:
    """Small hashable-item union-find with path compression and union by size."""

    def __init__(self, items=()):
        self.parent = {}
        self.size = {}
        for it in items:
            self.add(it)

    def add(self, item):
        if item not in self.parent:
            self.parent[item] = item
            self.size[item] = 1

    def find(self, item):
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def groups(self) -> list:
        by_root = {}
        for item in self.parent:
            by_root.setdefault(self.find(item), []).append(item)
        return sorted(sorted(g) for g in by_root.values())


# ---- planar site components and closures -------------------------------------------


def site_components(V: Iterable, window) -> list:
    """Partition V into maximal site-connected (L1-adjacent) subsets."""
    sites = sorted(set(V))
    uf = UnionFind(sites)
    member = set(sites)
    for x in sites:
        for a in range(window.d):
            y = window.axis_neighbor(x, a, +1)
            if y is not None and y in member:
                uf.union(x, y)
    return uf.groups()


def flood_fill_components(V: Iterable, window) -> list:
    """BFS reference implementation; oracle for site_components."""
    member = set(V)
    out = []
    while member:
        start = min(member)
        comp = {start}
        queue = [start]
        while queue:
            u = queue.pop()
            for v in window.neighbors(u):
                if v in member and v not in comp:
                    comp.add(v)
                    queue.append(v)
        member -= comp
        out.append(sorted(comp))
    return sorted(out)


def face_depth(x: Site, box) -> int:
    """L-infinity distance from x to the complement of the box."""
    return 1 + min(min(c - l, h - c) for c, l, h in zip(x, box.lo, box.hi))


def touches_boundary(sites: Iterable, window) -> bool:
    if isinstance(window, Torus):
        return False
    return any(face_depth(x, window) == 1 for x in sites)


def displacement(dom: Torus, a: Site, b: Site) -> Site:
    """Minimal per-axis displacement taking a to b on a torus (sides >= 3 make
    it unique for adjacent pairs)."""
    out = []
    for ca, cb, s in zip(a, b, dom.sides):
        t = (cb - ca) % s
        out.append(t if t <= s - t else t - s)
    return tuple(out)


def translate_reference(x: Site, dv: Site, dom) -> Optional[Site]:
    """x + dv by coordinate arithmetic: reduced mod each side on a torus,
    None when it leaves a box."""
    y = tuple(c + t for c, t in zip(x, dv))
    if isinstance(dom, Torus):
        return tuple(c % s for c, s in zip(y, dom.sides))
    return y if all(l <= c <= h for c, l, h in zip(y, dom.lo, dom.hi)) else None


def star_neighbors_reference(x: Site, dom) -> list:
    """Every site of the domain whose offset from x, the short way round on a
    torus, has L-infinity norm one, in lexicographic order of that offset."""
    found = []
    for y in dom.sites():
        dv = displacement(dom, x, y) if isinstance(dom, Torus) else tuple(b - a for a, b in zip(x, y))
        if max(map(abs, dv)) == 1:
            found.append((dv, y))
    return [y for _, y in sorted(found)]


def lift_winds(start: Site, steps, window: Torus) -> bool:
    """Lift a connected site set to the covering lattice, walking from start;
    ``steps(u)`` lists the (neighbor, minimal displacement) pairs to follow
    from u.  Reaching a site at two different lifts means the set winds."""
    pos = {start: (0,) * window.d}
    stack = [start]
    while stack:
        u = stack.pop()
        for v, dv in steps(u):
            cand = tuple(p + t for p, t in zip(pos[u], dv))
            if v not in pos:
                pos[v] = cand
                stack.append(v)
            elif pos[v] != cand:
                return True
    return False


def component_wraps(comp: list, window: Torus) -> bool:
    """Lift a site component along its lattice adjacencies."""
    member = set(comp)

    def steps(u):
        for a in range(window.d):
            for sgn in (+1, -1):
                v = window.axis_neighbor(u, a, sgn)
                if v in member:
                    yield v, tuple(sgn if i == a else 0 for i in range(window.d))

    return lift_winds(comp[0], steps, window)


def closure_reference(V: Iterable, window) -> set:
    """Pure-python route to closure(V): V plus every complement site-component
    that neither touches a box face nor wraps around a torus."""
    vs = set(V)
    out = set(vs)
    comp_sites = [x for x in window.sites() if x not in vs]
    for comp in site_components(comp_sites, window):
        if isinstance(window, Torus):
            if not component_wraps(comp, window):
                out.update(comp)
        elif not touches_boundary(comp, window):
            out.update(comp)
    return out


def free_pieces_reference(free: np.ndarray, wraps) -> tuple:
    """Pure-python route to topology._free_pieces: breadth-first search over
    the True sites of a grid, stepping off a face only on an axis that wraps,
    which lands on the opposite face one side further along in the lift.
    Labels in flat order, each piece numbered by its least site, and False
    sites singletons; per label, whether it touches a face of an axis that
    does not wrap or reaches some site at two different lifts."""
    shape = free.shape
    labels = np.full(shape, -1, dtype=np.int64)
    unbounded = []
    for s in np.ndindex(shape):  # flat order
        if labels[s] >= 0:
            continue
        labels[s] = len(unbounded)
        lift, queue, out = {s: (0,) * len(shape)}, [s], False
        while free[s] and queue:
            x = queue.pop(0)
            for a, side in enumerate(shape):
                out |= not wraps[a] and x[a] in (0, side - 1)
                for sgn in (+1, -1):
                    c = x[a] + sgn
                    if not (0 <= c < side or wraps[a]):
                        continue
                    y = x[:a] + (c % side,) + x[a + 1:]
                    ly = lift[x][:a] + (lift[x][a] + sgn,) + lift[x][a + 1:]
                    if not free[y]:
                        continue
                    if y not in lift:
                        lift[y], labels[y] = ly, labels[s]
                        queue.append(y)
                    out |= lift[y] != ly
        unbounded.append(out)
    return labels.reshape(-1), np.array(unbounded, dtype=bool)


def _unbounded(comp: list, window) -> bool:
    if isinstance(window, Torus):
        return component_wraps(comp, window)
    return touches_boundary(comp, window)


def classify_regions_reference(labeling, window) -> RegionClassification:
    """classify_regions with one closure per type-(a) component: each closure
    is computed on its own, the leftover is flood-filled, and star touches come
    from a star_neighbors walk over every type-(c) site."""
    comps: dict = {}
    for x in window.sites():
        comps.setdefault(labeling.component_of(x), []).append(x)
    if isinstance(window, Torus):
        infinite = [c for c in sorted(comps) if labeling.wrapping[c]]
    else:
        infinite = [c for c in sorted(comps) if touches_boundary(comps[c], window)]
    tags: dict = {}
    regions: list = []
    for cid in infinite:
        clo = closure_reference(comps[cid], window)
        rid = len(regions)
        regions.append(Region("a", rid, sorted(clo), component_id=cid))
        for x in clo:
            if x in tags:
                raise StructureError(f"closures overlap at {x}")
            tags[x] = ("a", rid)
    leftover = [x for x in window.sites() if x not in tags]
    for comp in sorted(site_components(leftover, window)):
        kind = "b" if _unbounded(comp, window) else "c"
        rid = len(regions)
        regions.append(Region(kind, rid, comp))
        for x in comp:
            tags[x] = (kind, rid)
    fill_star_touches_reference(regions, tags, window)
    region_id = np.array([tags[x][1] for x in window.sites()], dtype=np.int64)
    return RegionClassification(window, region_id, regions)


def fill_star_touches_reference(regions: list, tags: dict, window) -> None:
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


# ---- the planar dual lattice, on float points ---------------------------------------
#
# A dual vertex is a pair of half-integers, exactly representable as floats; a
# dual edge is a canonically ordered pair of dual vertices.


def _require_d2(obj_len: int):
    if obj_len != 2:
        raise UnsupportedDimensionError("dual lattice operations require d=2")


def dual_of(e: tuple, dom=None) -> tuple:
    """The dual edge bisecting e.  For torus edges pass the domain so the step
    across the seam resolves to the right unit displacement."""
    a, b = e
    _require_d2(len(a))
    if isinstance(dom, Torus):
        dv = displacement(dom, a, b)
        if dv not in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            raise DomainError(f"{e} is not a lattice edge on {dom}")
        if dv in ((-1, 0), (0, -1)):
            a, dv = b, (-dv[0], -dv[1])
    else:
        dv = (b[0] - a[0], b[1] - a[1])
        if dv in ((-1, 0), (0, -1)):
            a, dv = b, (-dv[0], -dv[1])
        if dv not in ((1, 0), (0, 1)):
            raise DomainError(f"{e} is not a unit lattice edge")
    x, y = a
    if dv == (0, 1):  # vertical edge: dual runs horizontally through (x, y+1/2)
        u = (x - 0.5, y + 0.5)
        v = (x + 0.5, y + 0.5)
    else:  # horizontal edge: dual runs vertically through (x+1/2, y)
        u = (x + 0.5, y - 0.5)
        v = (x + 0.5, y + 0.5)
    if isinstance(dom, Torus):
        u = _wrap_dual(u, dom)
        v = _wrap_dual(v, dom)
    return canonical_edge(u, v)


def primal_of(f: tuple, dom=None) -> tuple:
    """Inverse of dual_of: the unique primal edge bisected by f."""
    u, v = f
    _require_d2(len(u))
    if isinstance(dom, Torus):
        du = displacement(dom, _dual_corner(u, dom), _dual_corner(v, dom))
        if du not in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            raise DomainError(f"{f} is not a dual edge on {dom}")
        if du in ((-1, 0), (0, -1)):
            u, du = v, (-du[0], -du[1])
    else:
        du = (v[0] - u[0], v[1] - u[1])
        if du in ((-1.0, 0.0), (0.0, -1.0)):
            u, du = v, (-du[0], -du[1])
        if du not in ((1.0, 0.0), (0.0, 1.0)):
            raise DomainError(f"{f} is not a unit dual edge")
    ux, uy = u
    if du[0]:  # horizontal dual edge bisects a vertical primal edge
        a = (int(round(ux + 0.5)), int(round(uy - 0.5)))
        b = (a[0], a[1] + 1)
    else:  # vertical dual edge bisects a horizontal primal edge
        a = (int(round(ux - 0.5)), int(round(uy + 0.5)))
        b = (a[0] + 1, a[1])
    if isinstance(dom, Torus):
        a, b = dom.wrap(a), dom.wrap(b)
    return canonical_edge(a, b)


def _wrap_dual(u: tuple, dom: Torus) -> tuple:
    # float mod of exact halves by an int side is exact
    return tuple(c % s for c, s in zip(u, dom.sides))


def _dual_corner(u: tuple, dom: Torus) -> Site:
    return tuple(int(round(c - 0.5)) % s for c, s in zip(u, dom.sides))


def boundary_edges_reference(V: Iterable, window) -> list:
    """Dual edges separating closure(V) from its complement, one primal edge
    at a time."""
    clo = closure_reference(V, window)
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


def interior_dual_degrees_reference(V: Iterable, window) -> dict:
    """Degrees of the dual vertices of boundary_edges_reference whose four
    surrounding sites lie in the window."""
    deg: dict = {}
    for e in boundary_edges_reference(V, window):
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    if isinstance(window, Torus):
        return deg
    out = {}
    for v, k in deg.items():
        corners = [(int(math.floor(v[0])) + dx, int(math.floor(v[1])) + dy)
                   for dx in (0, 1) for dy in (0, 1)]
        if all(window.contains(c) for c in corners):
            out[v] = k
    return out


def plaquette_degrees_reference(clo: np.ndarray, window) -> tuple:
    """Every plaquette inside the window, by lower-left corner i in flat
    order: its dual point i + (1/2, 1/2) as (m, 2) floats, and how many of
    its four sides have exactly one end in the mask clo."""
    f0, f1 = window.neighbor_index(0, +1), window.neighbor_index(1, +1)
    c0, c1 = ((f >= 0) & (clo != clo[f]) for f in (f0, f1))
    ll = np.flatnonzero((f0 >= 0) & (f1 >= 0))
    deg = c0[ll].astype(np.int64) + c0[f1[ll]] + c1[ll] + c1[f0[ll]]
    return window.index_coords()[ll] + 0.5, deg


def closure_on_left_reference(u, v, clo: set, window) -> bool:
    """Whether the end of the primal edge bisected by the dual step u -> v
    that lies on the left of the step is in clo, by the sign of a cross
    product."""
    tor = window if isinstance(window, Torus) else None
    a, b = primal_of(canonical_edge(u, v), tor)

    def delta(p, q):  # q - p, the short way round on a torus
        d = [y - x for x, y in zip(p, q)]
        return [(t + s / 2) % s - s / 2 for t, s in zip(d, window.sides)] if tor else d

    du = delta(u, v)
    rel = delta([p + t / 2 for p, t in zip(u, du)], a)  # from the step's midpoint to a
    a_left = du[0] * rel[1] - du[1] * rel[0] > 0
    return (a if a_left else b) in clo


def dual_boundary_reference(V: Iterable, window) -> list:
    """dual_boundary over float dual points: a walk over tuple dicts and sets.
    Open paths start at the odd-degree vertices in sorted order, circuits at
    the least unused edge; every walk takes the least unused edge at each
    vertex.  Circuits then start at their least vertex, and a walk is
    reversed unless the closure lies on the left of its first step."""
    clo = closure_reference(V, window)
    edges = boundary_edges_reference(V, window)
    adj: dict = {}
    for e in edges:
        adj.setdefault(e[0], []).append(e)
        adj.setdefault(e[1], []).append(e)
    unused = set(edges)

    def other(e, v):
        return e[1] if e[0] == v else e[0]

    def walk(start, first):
        run, cur = [first], other(first, start)
        unused.discard(first)
        while cur != start:
            nxt = [e for e in adj[cur] if e in unused]
            if not nxt:
                break
            run.append(nxt[0])
            unused.discard(nxt[0])
            cur = other(nxt[0], cur)
        return run, cur

    paths = []
    for v in sorted(v for v, es in adj.items() if len(es) % 2 == 1):
        for e in adj[v]:
            if e in unused:
                paths.append(DualPath(walk(v, e)[0], closed=False))
    while unused:
        e0 = min(unused)
        run, end = walk(e0[0], e0)
        paths.append(DualPath(run, closed=len(run) > 2 and end == e0[0]))
    for p in paths:
        verts = p.vertices()
        if p.closed:
            cyc = verts[:-1]
            k = cyc.index(min(cyc))
            verts = cyc[k:] + cyc[:k] + [cyc[k]]
        if not closure_on_left_reference(verts[0], verts[1], clo, window):
            verts.reverse()  # circuits still start and end at the least vertex
        p.edges = [canonical_edge(a, b) for a, b in zip(verts, verts[1:])]
    return paths


def star_boundary_path_reference(component_sites: Iterable, window) -> list:
    """star_boundary_path over dual_boundary_reference, primal_of and a set
    of closure sites."""
    clo = closure_reference(component_sites, window)
    paths = dual_boundary_reference(component_sites, window)
    if len(paths) != 1:
        raise StructureError(f"expected a single boundary path, found {len(paths)}")
    p = paths[0]
    tor = window if isinstance(window, Torus) else None
    xs = []
    for e in p.edges:
        a, b = primal_of(e, tor)
        outside = b if a in clo else a
        if not xs or xs[-1] != outside:
            xs.append(outside)
    pairs = list(zip(xs, xs[1:]))
    if p.closed and len(xs) > 1 and xs[0] != xs[-1]:
        pairs.append((xs[-1], xs[0]))
    out = [xs[0]]
    for x, y in pairs:
        d = (y[0] - x[0], y[1] - x[1])
        if tor:
            d = tuple((t + s // 2) % s - s // 2 for t, s in zip(d, window.sides))
        if abs(d[0]) + abs(d[1]) == 1:
            out.append(y)
            continue
        if max(abs(d[0]), abs(d[1])) != 1:
            raise StructureError(f"boundary jump from {x} to {y} is not *-adjacent")
        cands = [(x[0] + d[0], x[1]), (x[0], x[1] + d[1])]
        if tor:
            cands = [window.wrap(c) for c in cands]
        pick = [c for c in cands if window.contains(c) and c not in clo]
        if len(pick) != 1:
            raise StructureError(f"no unique outside common neighbor between {x} and {y}")
        out.append(pick[0])
        out.append(y)
    return out


def check_no_interior_circuits_reference(V: Iterable, window, margin: int = 2) -> bool:
    """A closed path of dual_boundary_reference fails the check when it winds
    around a torus zero times, or on a box when all of its vertices lie at
    least margin inside the box corners."""
    for p in dual_boundary_reference(V, window):
        if not p.closed:
            continue
        v = p.vertices()
        if isinstance(window, Torus):
            steps = [[(b - a + s / 2) % s - s / 2 for a, b, s in zip(x, y, window.sides)]
                     for x, y in zip(v, v[1:])]
            if all(abs(sum(t)) < 0.25 for t in zip(*steps)):
                return False
        elif all(l + margin <= c <= h - margin for x in v for c, l, h in zip(x, window.lo, window.hi)):
            return False
    return True


def check_degree_two_reference(V: Iterable, window, margin: int = 2) -> bool:
    degs = interior_dual_degrees_reference(V, window)
    if not isinstance(window, Torus):
        degs = {v: k for v, k in degs.items()
                if all(l + margin <= c <= h - margin for c, l, h in zip(v, window.lo, window.hi))}
    return all(k == 2 for k in degs.values())


def check_closure_idempotent_reference(V: Iterable, window) -> bool:
    c1 = closure_reference(V, window)
    return closure_reference(c1, window) == c1


def check_complement_unbounded_reference(V: Iterable, window) -> bool:
    """Complement components of the closure are unbounded in the proxy sense."""
    clo = closure_reference(V, window)
    comps = site_components([x for x in window.sites() if x not in clo], window)
    return all(_unbounded(comp, window) for comp in comps)


def check_neighbor_hole_reference(V: Iterable, window) -> bool:
    """Sites of the closure with a neighbor outside it must belong to V."""
    vs = set(V)
    clo = closure_reference(vs, window)
    for x in clo:
        for y in window.neighbors(x):
            if y not in clo and x not in vs:
                return False
    return True


def outmap_wrapping_components(g: OutMap) -> set:
    """Components of the undirected version of g on a torus that wind, each
    as a frozenset of sites, by lifting the component along its own edges."""
    dom = g.dom
    adj: dict = {}
    for x, y in g.items():
        adj.setdefault(x, []).append((y, displacement(dom, x, y)))
        adj.setdefault(y, []).append((x, displacement(dom, y, x)))
    seen: set = set()
    out = set()
    for x in dom.sites():
        if x in seen or x not in adj:
            continue
        comp = {x}
        stack = [x]
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        if lift_winds(x, lambda u: adj[u], dom):
            out.add(frozenset(comp))
    return out


# ---- backward sets -----------------------------------------------------------------


def backward_set(x: Site, g: OutMap) -> set:
    """All y whose forward orbit passes through x, including x itself."""
    dom = g.dom
    rev: dict = {}
    o = g.out_index
    for i in range(dom.n_sites):
        if o[i] >= 0:
            rev.setdefault(int(o[i]), []).append(i)
    start = dom.site_index(x)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in rev.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return {dom.index_site(i) for i in seen}


def directed_cycles_reference(g: OutMap) -> list:
    """Flat site indices of every directed cycle of g, miniloops included,
    each reported once: walk forward from every site in index order and
    record each cycle the first time a walk closes it.  The first walk into a
    component starts at its least site, so cycles come in component order,
    each starting at the first cycle site that walk reaches."""
    o = g.out_index
    color = [0] * len(o)  # 0 new, 1 on the current walk, 2 done
    cycles = []
    for s in range(len(o)):
        path = []
        u = s
        while u >= 0 and not color[u]:
            color[u] = 1
            path.append(u)
            u = int(o[u])
        if u >= 0 and color[u] == 1:
            cycles.append(path[path.index(u):])
        for i in path:
            color[i] = 2
    return cycles


# ---- iid connection probability -----------------------------------------------------


def exhaustive_connection_check(L: int, n: int, seeds) -> tuple:
    """Independent oracle for p(n): per seed, brute-force per-vertex argmin and
    union-find labeling, then translate-average by scanning all sites."""
    from nnlab.weights import sample_iid_uniform

    dom = Torus((L, L))
    total = 0
    hit = 0
    for seed in seeds:
        w = sample_iid_uniform(dom, SeededRng(int(seed)))
        uf = UnionFind(dom.sites())
        for x in dom.sites():
            best = None
            bw = None
            for y in dom.neighbors(x):
                wt = w.weight((x, y) if x <= y else (y, x))
                if bw is None or wt < bw:
                    bw, best = wt, y
            uf.union(x, best)
        for x in dom.sites():
            y = dom.wrap((x[0] + n, x[1]))
            total += 1
            hit += uf.find(x) == uf.find(y)
    return hit, total


# ---- generators ---------------------------------------------------------------------


def zm_class_sites(dom: Torus, shift: tuple, parity: int) -> list:
    """Sites of the up-right class (parity 0: both coords even before the
    shift) or the down-left class (parity 1)."""
    out = []
    for x in range(dom.sides[0]):
        for y in range(dom.sides[1]):
            if (x - shift[0]) % 2 == parity and (y - shift[1]) % 2 == parity:
                out.append((x, y))
    return out


def forward_closure(g: OutMap, starts: Sequence[Site]) -> set:
    """All sites reachable from the starts by following out-edges."""
    o = g.out_index
    seen = set(g.dom.site_index(x) for x in starts)
    stack = list(seen)
    while stack:
        i = stack.pop()
        j = int(o[i])
        if j >= 0 and j not in seen:
            seen.add(j)
            stack.append(j)
    return {g.dom.index_site(i) for i in seen}


def dyadic_valuations(x: Site) -> list:
    """Per coordinate, the number of trailing zero bits; inf at 0."""
    return [(c & -c).bit_length() - 1 if c else math.inf for c in x]


def dyadic_axis_reference(x: Site) -> int:
    """0-based axis the dyadic rule decrements at a nonzero orthant site: the
    last axis of least 2-adic valuation, from Python integer bit arithmetic."""
    tz = dyadic_valuations(x)
    return max(a for a, t in enumerate(tz) if t == min(tz))


def dyadic_axes_reference(X: np.ndarray) -> np.ndarray:
    """dyadic_axis_reference on each row of X."""
    return np.array([dyadic_axis_reference(r) for r in X.tolist()], dtype=np.int64)


def dyadic_out(v: Site) -> Site:
    """Out-neighbor of a nonzero orthant site under the unshifted rule."""
    ax = dyadic_axis_reference(v)
    return tuple(c - 1 if a == ax else c for a, c in enumerate(v))


def stretched_segment_edges(case: str, k: int, base: Site, axis: int) -> list:
    """Directed edges replacing one coarse edge {x, x+e_axis} under the
    4k-stretch; ``base`` is the lattice point 4k*x.  Case c leaves the middle
    edge unoriented, pointing each half toward its nearer segment endpoint."""
    s = 4 * k
    pts = [tuple(c + (l if a == axis else 0) for a, c in enumerate(base)) for l in range(s + 1)]
    if case == "a":
        return [(pts[l], pts[l + 1]) for l in range(s)]
    if case == "b":
        return [(pts[l + 1], pts[l]) for l in range(s)]
    if case == "c":
        back = [(pts[l], pts[l - 1]) for l in range(1, 2 * k + 1)]
        fwd = [(pts[l], pts[l + 1]) for l in range(2 * k + 1, s)]
        return back + fwd
    raise SpecError(f"unknown segment case {case!r}")


# ---- whole-window generator references ------------------------------------------------
#
# The generators before they were made separable: every per-site quantity is
# computed on (n_sites, d) coordinate arrays of the window.  The tests require
# the package's per-axis versions to give the same out-maps and metadata.


def gen_dyadic_window_reference(n: int, Z: Site, window: Box) -> np.ndarray:
    """Out-index array of the dyadic rule on window + Z, from the window's coordinates."""
    coords = window.index_coords()
    shifted = coords + np.asarray(Z, dtype=np.int64)
    ax = dyadic_axes_reference(shifted)
    tgt = coords.copy()
    tgt[np.arange(len(tgt)), ax] -= 1
    inside = np.all((tgt >= np.asarray(window.lo)) & (tgt <= np.asarray(window.hi)), axis=1)
    out = np.full(window.n_sites, -1, dtype=np.int64)
    flat_tgt = ((tgt - np.asarray(window.lo)) * flat_strides(window.shape)).sum(axis=1)
    out[inside] = flat_tgt[inside]
    return out


def _residue_class(Y: np.ndarray, k: int, j: int) -> tuple:
    """Masks for membership in V^(j): (on some segment, at a corner)."""
    s = 4 * k
    res = (Y - 4 * (j - 1)) % s
    zeros = (res == 0).sum(axis=1)
    d = Y.shape[1]
    return zeros >= d - 1, zeros == d


def finite_k_membership_reference(window: Box, U: Site, k: int) -> np.ndarray:
    """Per-site sublattice id from the residues of every coordinate row."""
    Y = window.index_coords() - np.asarray(U, dtype=np.int64)
    lab = np.zeros(window.n_sites, dtype=np.int64)
    for j in range(1, k + 1):
        member, _ = _residue_class(Y, k, j)
        lab[member] = j
    return lab


def gen_finite_k_reference(k: int, n: int, window: Box, rng: SeededRng) -> tuple:
    """(out-index array, U, system) of the 4k-stretch, drawing the same
    shifts from ``rng`` as ``gen_finite_k`` with its default coarse rule."""
    d = window.d
    s = 4 * k
    span = max(window.shape) // s + 3
    shifts = [
        tuple(int(c) for c in rng.child("finite-k-shift", j).integers(span + 1, 2**n, d))
        for j in range(1, k + 1)
    ]

    def coarse_out(j: int, X: np.ndarray) -> np.ndarray:
        shifted = X + np.asarray(shifts[j - 1], dtype=np.int64)
        ax = dyadic_axes_reference(shifted)
        tgt = X.copy()
        tgt[np.arange(len(tgt)), ax] -= 1
        return tgt

    U = tuple(int(c) for c in rng.child("finite-k-final-shift").integers(0, s - 1, d))
    coords = window.index_coords()
    Y = coords - np.asarray(U, dtype=np.int64)
    nsite = window.n_sites
    out_disp = np.zeros((nsite, d), dtype=np.int64)
    assigned = np.zeros(nsite, dtype=bool)
    for j in range(1, k + 1):
        member, corner = _residue_class(Y, k, j)
        r = 4 * (j - 1)
        cidx = np.where(corner)[0]
        X = (Y[cidx] - r) // s
        out_disp[cidx] = coarse_out(j, X) - X
        assigned[cidx] = True
        sidx = np.where(member & ~corner)[0]
        res = (Y[sidx] - r) % s
        free = np.argmax(res != 0, axis=1)
        ell = res[np.arange(len(sidx)), free]
        base = Y[sidx].copy()
        base[np.arange(len(sidx)), free] -= ell
        Xb = (base - r) // s
        e_free = np.zeros_like(Xb)
        e_free[np.arange(len(sidx)), free] = 1
        case_a = np.all(coarse_out(j, Xb) == Xb + e_free, axis=1)
        case_b = np.all(coarse_out(j, Xb + e_free) == Xb, axis=1) & ~case_a
        sign = np.where(case_a, 1, np.where(case_b, -1, 0))
        sign = np.where(sign != 0, sign, np.where(ell <= 2 * k, -1, 1))
        out_disp[sidx] = e_free * sign[:, None]
        assigned[sidx] = True

    # filler: a spanning forest of each whole cell's non-member sites
    rel_box = Box((-2 * k,) * d, (2 * k - 1,) * d)
    rel_coords = rel_box.index_coords()
    rel_member = np.zeros(len(rel_coords), dtype=bool)
    for j in range(1, k + 1):
        m, _ = _residue_class(rel_coords, k, j)
        rel_member |= m
    rel_out = fill_region({tuple(int(c) for c in row) for row in rel_coords[~rel_member]})
    lo = np.asarray(window.lo)
    strides = flat_strides(window.shape)
    out = np.full(nsite, -1, dtype=np.int64)
    src_rel = np.array(sorted(rel_out), dtype=np.int64)
    dst_rel = np.array([rel_out[tuple(r)] for r in src_rel.tolist()], dtype=np.int64)
    src_off = (src_rel * strides).sum(axis=1)
    dst_off = (dst_rel * strides).sum(axis=1)
    c_lo = np.ceil((lo - np.asarray(U) + 2 * k) / s).astype(np.int64)
    c_hi = np.floor((np.asarray(window.hi) - np.asarray(U) - (2 * k - 1)) / s).astype(np.int64)
    if np.all(c_hi >= c_lo):
        grid = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(c_lo, c_hi)], indexing="ij")
        for cell in np.stack([g.reshape(-1) for g in grid], axis=1):
            base_flat = ((cell * s + np.asarray(U) - lo) * strides).sum()
            out[base_flat + src_off] = base_flat + dst_off

    aidx = np.where(assigned)[0]
    tgt = coords[aidx] + out_disp[aidx]
    inside = np.all((tgt >= lo) & (tgt <= np.asarray(window.hi)), axis=1)
    out[aidx[inside]] = ((tgt[inside] - lo) * strides).sum(axis=1)
    return out, U, finite_k_membership_reference(window, U, k)


def check_targets_reference(dom, out: np.ndarray) -> Optional[str]:
    """The DomainError message ``OutMap`` raises for ``out``, or None if the
    map is admissible: the first site whose target is below -1, the first
    out-of-range target, then the first self-loop, then the first site whose
    target is not in its neighbor table."""
    for i in range(dom.n_sites):
        if out[i] < -1:
            return f"out-neighbor of {dom.index_site(i)} is {out[i]}, not a site index or -1"
    present = [i for i in range(dom.n_sites) if out[i] >= 0]
    if any(out[i] >= dom.n_sites for i in present):
        return "out-neighbor index outside domain"
    for i in present:
        if out[i] == i:
            return f"self-loop at {dom.index_site(i)}"
    for i in present:
        table = {dom.site_index(y) for y in dom.neighbors(dom.index_site(i))}
        if out[i] not in table:
            return f"out-neighbor of {dom.index_site(i)} is not adjacent"
    return None


# ---- per-site path and structure checks ---------------------------------------------


def check_monotone_decreasing(trace: PathTrace, w) -> bool:
    """Strict weight decrease along the self-avoiding part of the trace."""
    edges = trace.edges()
    if isinstance(trace.terminal, TwoCycle):
        edges = edges[:-1]  # final edge re-traverses the miniloop edge
    vals = [w.weight(e) for e in edges]
    return all(a > b for a, b in zip(vals, vals[1:]))


def infimum_supremum_along(trace: PathTrace, w) -> tuple:
    edges = trace.edges()
    if not edges:
        raise SpecError("trace has no edges; infimum/supremum undefined")
    vals = [w.weight(e) for e in edges]
    return min(vals), max(vals)


def r_descendant(x: Site, r: float, g: OutMap, w) -> Optional[Site]:
    """Last vertex along the forward orbit of x whose out-edge weighs >= r."""
    trace = forward_path(x, g)
    verts = trace.vertices[:-1] if isinstance(trace.terminal, TwoCycle) else trace.vertices
    wout = []
    for a, b in zip(trace.vertices, trace.vertices[1:]):
        wout.append(w.weight(canonical_edge(a, b)))
    best = None
    for v, wv in zip(verts, wout):
        if wv >= r:
            best = v
    return best


@dataclass
class ComponentStructureReport:
    size: int
    undirected_edges: int
    is_tree: bool
    miniloop_count: int
    orientation_ok: bool

    @property
    def ok(self) -> bool:
        return self.is_tree and self.miniloop_count == 1 and self.orientation_ok


def verify_component_structure(component_sites: Iterable, g: OutMap) -> ComponentStructureReport:
    """Check one component against the finite-cluster description: a tree whose
    directed edges all point toward its unique miniloop."""
    dom = g.dom
    idx = sorted(dom.site_index(x) for x in component_sites)
    members = set(idx)
    o = g.out_index
    und = set()
    directed = []
    for i in idx:
        j = int(o[i])
        if j >= 0 and j in members:
            und.add((min(i, j), max(i, j)))
            directed.append((i, j))
    two = sorted({(min(i, j), max(i, j)) for i, j in directed if int(o[j]) == i})
    is_tree = len(und) == len(idx) - 1
    orientation_ok = True
    if len(two) == 1:
        loop = set(two[0])
        for i in idx:
            tr = forward_path(dom.index_site(i), g)
            if not isinstance(tr.terminal, TwoCycle):
                orientation_ok = False
                break
            u, v = tr.terminal.u, tr.terminal.v
            if {dom.site_index(u), dom.site_index(v)} != loop:
                orientation_ok = False
                break
    else:
        orientation_ok = False
    return ComponentStructureReport(
        size=len(idx),
        undirected_edges=len(und),
        is_tree=is_tree,
        miniloop_count=len(two),
        orientation_ok=orientation_ok,
    )
