"""Planar (d=2) structure: site-components, closure, dual boundaries, regions.

"Finite" and "infinite" are finite-volume proxies: on a box, a site set
counts as infinite when it touches the window boundary; on a torus, when it
wraps.  All dual-path degree assertions exempt window-edge dual vertices,
where clipping truncates the boundary.

Inside the module a set of sites is a boolean mask over flat site indices
(flat order is lexicographic order).  A ``SiteSet`` of the window is read by
its indices, and the closure of one is computed once and kept on it; any
other collection of sites is parsed strictly.  Site tuples appear only in
arguments and results.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import DomainError, SpecError, StructureError, UnsupportedDimensionError
from .lattice import Box, SiteSet, Torus
from .nngraph import ComponentLabeling, merge_seams
from .serialize import format_rows


def _check_window(window):
    if window.d != 2:
        raise UnsupportedDimensionError("planar topology requires d=2")


# ---- site components ------------------------------------------------------------


def _free_pieces(free: np.ndarray, wraps) -> tuple:
    """Site-components of the True sites of a grid, and per component whether
    it is unbounded in the proxy sense: touching a face of the grid on an axis
    that does not wrap, or winding around one that does (through the seam
    pairs from its last row to its first).  Labels cover every grid site, in
    flat order, numbered by least site; False sites are singletons.

    The raster form of Hoshen-Kopelman labeling (He, Chao & Suzuki, IEEE TIP
    17(5):749, 2008; Wu, Otoo & Suzuki, Pattern Anal. Appl. 12:117, 2009):
    the graph labeled has one vertex per maximal run of True sites along the
    last axis and one per False site, numbered in flat order of their first
    sites, so that numbering its components by least vertex numbers them by
    least site.  Two runs in neighboring rows along axis 0 get one edge per
    overlap, at its first site pair; steps inside a run need none.  Seam
    edges join runs with their crossing codes: on a wrapping last axis, a
    row's last run to its first, or a fully True row to itself, which winds."""
    start = np.ones(free.shape, dtype=bool)
    np.logical_not(free[:, 1:] & free[:, :-1], out=start[:, 1:])
    vid = np.cumsum(start).reshape(free.shape) - 1
    # neighboring rows along axis 0, then the seam of each wrapping axis (last
    # row to first, last column to first), with its crossing code: two runs
    # that meet get one edge, where either site of a pair starts its run
    pairs = [(slice(None, -1), slice(1, None), 0)]
    if wraps[0]:
        pairs.append((-1, 0, 1))
    if wraps[1]:
        pairs.append(((slice(None), -1), (slice(None), 0), 2))
    src, dst, crossed = [], [], []
    for lo, hi, code in pairs:
        ok = free[lo] & free[hi] & (start[lo] | start[hi])
        src.append(vid[lo][ok])
        dst.append(vid[hi][ok])
        crossed.append(np.full(len(src[-1]), code, dtype=np.int8))
    run_labels, unbounded = merge_seams(int(vid[-1, -1]) + 1, *map(np.concatenate, (src, dst, crossed)))
    labels = run_labels[vid.reshape(-1)]
    for a, wrap in enumerate(wraps):
        if not wrap:
            faces = labels.reshape(free.shape).swapaxes(0, a)[[0, -1]]
            unbounded[faces[free.swapaxes(0, a)[[0, -1]]]] = True
    return labels, unbounded


def _site_set(V: Iterable, window) -> SiteSet:
    """V as a SiteSet of the window: V itself when it is one, else its entries
    parsed strictly, with DomainError unless each is an integer site of the
    window."""
    _check_window(window)
    if isinstance(V, SiteSet) and V.dom == window:
        return V
    return SiteSet(window, window.coords_index(list(V)))


def _sites_mask(V: Iterable, window) -> np.ndarray:
    """Boolean mask of a collection of sites (see _site_set)."""
    mask = np.zeros(window.n_sites, dtype=bool)
    mask[_site_set(V, window).idx] = True
    return mask


def _closure_of(V: Iterable, window) -> np.ndarray:
    """The closure mask of V: once per SiteSet of the window, kept read-only
    on the set, so that every check of one set shares it."""
    V = _site_set(V, window)
    if V.closure is None:
        V.closure = _closure_mask(_sites_mask(V, window), window)
        V.closure.flags.writeable = False
    return V.closure


def _closure_mask(mask: np.ndarray, window) -> np.ndarray:
    """closure() on masks, labeling the complement only inside a small box B
    around V, cropped from the window as a plain grid: per axis, V's projected
    run grown by one row on each side.

    On a box window B is bbox(V) grown by one and clipped to the window.  A
    window site outside bbox(V) lies in a V-free slab (say every site with
    x_a < min V_a), a sub-box that reaches a window face, so the site is
    unbounded; B's faces are in such slabs or on window faces.

    On a torus, V's run on an axis is the complement of the largest gap in
    its projection, and the rows just outside it are V-free lines x_a = c_a,
    which wind around the other axis, so any piece touching them is unbounded.
    When the gap is one residue, B has side + 1 rows, and the first and last
    are the same V-free line.  On an axis that V's projection covers, B is the
    whole axis, and a piece is unbounded when it winds through the seam.

    So a piece of B minus V is a hole exactly when it touches no face of B
    on an axis that does not wrap, and winds around none that does."""
    if not mask.any():
        return mask.copy()
    rows, wraps = [], []
    for p, side in zip(np.unravel_index(np.flatnonzero(mask), window.shape), window.shape):
        if isinstance(window, Box):
            rows.append(np.arange(max(p.min() - 1, 0), min(p.max() + 2, side)))
            wraps.append(False)
            continue
        r = np.flatnonzero(np.bincount(p, minlength=side))  # V's residues, sorted
        gap = np.diff(r, append=r[0] + side)  # from each residue to the next, cyclically
        k = int(np.argmax(gap))
        wraps.append(len(r) == side)
        rows.append(np.arange(side) if wraps[-1] else
                    (r[(k + 1) % len(r)] - 1 + np.arange(side - gap[k] + 3)) % side)
    grid = np.ix_(*rows)
    free = ~mask.reshape(window.shape)[grid]
    labels, unbounded = _free_pieces(free, wraps)
    out = mask.copy()
    out.reshape(window.shape)[grid] |= free & ~unbounded[labels].reshape(free.shape)
    return out


def closure(V: Iterable, window) -> set:
    """V plus every complement site-component that is finite in the proxy
    sense (does not touch a box boundary; on a torus, does not wrap)."""
    return set(window.index_sites(np.flatnonzero(_closure_of(V, window))))


# ---- dual boundary ---------------------------------------------------------------
#
# A dual vertex is an id on a row-major grid, so id order is lexicographic
# order.  On a torus the grid has the window's shape, with id 0 at
# (1/2, 1/2); on a box it is one longer on each axis, with id 0 at lo - 1/2.
# Float points are built only for returned values.


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


def _dual_shape(window) -> tuple:
    return window.shape if isinstance(window, Torus) else tuple(s + 1 for s in window.shape)


def _dual_points(ids, window) -> np.ndarray:
    """(m, 2) float coordinates of dual ids."""
    least = 0.5 if isinstance(window, Torus) else np.subtract(window.lo, 0.5)
    return np.stack(np.unravel_index(ids, _dual_shape(window)), axis=-1) + least


def _dual_pairs(lo: np.ndarray, hi: np.ndarray, window) -> list:
    """Dual edges with end ids lo < hi, as pairs of float points."""
    a, b = (map(tuple, _dual_points(v, window).tolist()) for v in (lo, hi))
    return list(zip(a, b))


def _dual_edges(clo: np.ndarray, window) -> tuple:
    """The boundary of clo as id pairs lo < hi in sorted order, with the site
    of each crossed edge outside clo, and whether clo lies on the left of the
    step lo -> hi.

    The crossed edge from site i along axis a is bisected by the step from
    i + 1/2 - e_(1-a) to i + 1/2, which has i on its left for a = 0 and on its
    right for a = 1; the side flips where a torus seam swaps the ends."""
    shape = _dual_shape(window)
    parts = []
    for a, crossed in enumerate(_crossed(clo, window)):
        i = np.flatnonzero(crossed)
        j = window.neighbor_index(a, +1)[i]
        r = np.stack(np.unravel_index(i, window.shape)) + isinstance(window, Box)
        v = np.ravel_multi_index(r, shape)  # the point i + 1/2
        r[1 - a] -= 1
        u = np.ravel_multi_index(r, shape, mode="wrap")
        left = clo[i] if a == 0 else clo[j]
        parts.append((np.minimum(u, v), np.maximum(u, v), np.where(clo[i], j, i), left ^ (u > v)))
    lo, hi, outside, left = map(np.concatenate, zip(*parts))
    order = np.lexsort((hi, lo))
    return lo[order], hi[order], outside[order], left[order]


def _dual_walks(clo: np.ndarray, window) -> tuple:
    """The boundary of clo (as _dual_edges) and its walks, each a triple
    (closed, edge indices, vertex ids) in traversal order.

    Open walks come first, from the odd-degree vertices in sorted order, then
    circuits, each from the least unused edge.  At every vertex a walk takes
    the least unused edge, and it stops where it started.  A circuit is then
    rotated to the first visit of its least vertex, and a walk is reversed
    unless clo lies on the left of its first step."""
    lo, hi, _, left = edges = _dual_edges(clo, window)
    m = len(lo)
    ends, inc = np.concatenate([lo, hi]), np.tile(np.arange(m), 2)
    deg = np.bincount(ends, minlength=math.prod(_dual_shape(window)))
    at = np.r_[0, np.cumsum(deg)].tolist()
    inc = inc[np.lexsort((inc, ends))].tolist()  # per vertex, its edges in order
    end_sum, used = (lo + hi).tolist(), [False] * m

    def walk(start, e):
        run, path = [], [start]
        while e >= 0:
            used[e] = True
            run.append(e)
            path.append(x := end_sum[e] - path[-1])
            e = -1 if x == start else next((f for f in inc[at[x] : at[x + 1]] if not used[f]), -1)
        return run, path

    walks = []
    for x in np.flatnonzero(deg % 2).tolist():
        for e in inc[at[x] : at[x + 1]]:
            if not used[e]:
                walks.append((False, *walk(x, e)))
    for e in range(m):
        if not used[e]:
            run, path = walk(int(lo[e]), e)
            walks.append((len(run) > 2 and path[-1] == path[0], run, path))
    out = []
    for closed, run, path in walks:
        if closed:
            k = path.index(min(path))
            path, run = path[k:-1] + path[: k + 1], run[k:] + run[:k]
        if left[run[0]] == (path[0] > path[1]):  # clo on the right of the first step
            path.reverse()
            run.reverse()
        out.append((closed, run, path))
    return edges, out


def boundary_edges(V: Iterable, window) -> list:
    """Dual edges separating closure(V) from its complement, inside the window."""
    lo, hi, _, _ = _dual_edges(_closure_of(V, window), window)
    return _dual_pairs(lo, hi, window)


def dual_boundary(V: Iterable, window) -> list:
    """Decompose the dual edge boundary of V into maximal paths and circuits,
    each traversed from its lexicographically least vertex with the closure on
    the left."""
    (lo, hi, _, _), walks = _dual_walks(_closure_of(V, window), window)
    pairs = _dual_pairs(lo, hi, window)
    return [DualPath([pairs[e] for e in run], closed) for closed, run, _ in walks]


def _plaquette_degrees(clo: np.ndarray, window) -> tuple:
    """The plaquettes inside the window with a corner in clo, in sorted order
    of their lower-left corner i: their dual points i + (1/2, 1/2) as (m, 2)
    floats, and how many of each one's four sides cross the boundary of clo,
    the point's degree in B.  A plaquette with no corner in clo has degree 0."""
    f0, f1 = window.neighbor_index(0, +1), window.neighbor_index(1, +1)
    near = clo.copy()  # grown to the lower-left corners of those plaquettes
    for a in range(2):
        j = window.neighbor_index(a, -1)[np.flatnonzero(near)]
        near[j[j >= 0]] = True
    ll = np.flatnonzero(near)
    ll = ll[(f0[ll] >= 0) & (f1[ll] >= 0)]
    c, c0, c1 = clo[ll], clo[f0[ll]], clo[f1[ll]]
    c01 = clo[f0[f1[ll]]]
    deg = (c != c0).astype(np.int64) + (c1 != c01) + (c != c1) + (c0 != c01)
    return window.index_coords(ll) + 0.5, deg


def interior_dual_degrees(V: Iterable, window) -> dict:
    """Degree of each dual vertex of B(V), restricted to dual vertices whose
    four surrounding primal sites all lie in the window, in sorted order."""
    verts, deg = _plaquette_degrees(_closure_of(V, window), window)
    on = deg > 0
    return {(x, y): k for (x, y), k in zip(verts[on].tolist(), deg[on].tolist())}


# ---- star boundary path -----------------------------------------------------------


def star_boundary_path(component_sites: Iterable, window) -> list:
    """Site-connected enumeration of the outer *-boundary of a component's
    closure: outside endpoints of the boundary's bisected edges, with the
    common outside site-neighbor inserted between diagonal consecutive pairs.
    """
    clo = _closure_of(component_sites, window)
    (_, _, outside, _), walks = _dual_walks(clo, window)
    if len(walks) != 1:
        n = len(walks)
        raise StructureError(f"expected a single boundary path, found {n}", witness=n)
    closed, run, _ = walks[0]
    xs = outside[run]
    xs = xs[np.r_[True, xs[1:] != xs[:-1]]]
    x, y = xs[:-1], xs[1:]
    if closed and len(xs) > 1 and xs[0] != xs[-1]:
        x, y = np.r_[x, xs[-1]], np.r_[y, xs[0]]  # circuits close back around
    d = np.subtract(np.unravel_index(y, window.shape), np.unravel_index(x, window.shape))
    if isinstance(window, Torus):
        s = np.asarray(window.sides)[:, None]
        d = (d + s // 2) % s - s // 2
    step = np.abs(d).sum(axis=0) == 1
    diag = ~step & (np.abs(d).max(axis=0) == 1)
    # the two common neighbors of a diagonal pair, and which lie outside clo
    cand = [np.where(d[a] > 0, window.neighbor_index(a, +1)[x], window.neighbor_index(a, -1)[x])
            for a in range(2)]
    free = [(c >= 0) & ~clo[c] for c in cand]
    bad = ~step & ~(diag & (free[0] != free[1]))
    if bad.any():
        k = int(np.argmax(bad))
        a, b = window.index_site(int(x[k])), window.index_site(int(y[k]))
        if not diag[k]:
            raise StructureError(f"boundary jump from {a} to {b} is not *-adjacent")
        raise StructureError(f"no unique outside common neighbor between {a} and {b}")
    rows = np.stack([np.where(free[0], *cand), y], axis=1)
    return window.index_sites(np.r_[xs[0], rows[np.stack([diag, np.ones_like(diag)], axis=1)]])


# ---- region classification ---------------------------------------------------------


@dataclass
class Region:
    kind: str  # 'a', 'b', or 'c'
    rid: int
    sites: Sequence  # a SiteSet from classify_regions
    component_id: Optional[int] = None  # for type (a): the component it closes
    star_touches: list = field(default_factory=list)  # rids of (a)/(b) regions (type c)


class RegionTags(Mapping):
    """Read-only site -> (kind, rid) view over a flat region-id array."""

    def __init__(self, window, region_id: np.ndarray, kinds: list):
        self._window, self._rid, self._kinds = window, region_id, kinds

    def __getitem__(self, site):
        try:
            x = tuple(int(c) for c in site)  # as a dict key, (1.0, 0) is (1, 0)
            if x != site:
                raise KeyError
            r = int(self._rid[self._window.site_index(x)])
        except (KeyError, DomainError, TypeError, ValueError, OverflowError):
            raise KeyError(site) from None
        return self._kinds[r], r

    def __iter__(self):
        return iter(self._window.index_sites(np.arange(len(self._rid))))

    def __len__(self):
        return len(self._rid)


@dataclass
class RegionClassification:
    window: object
    region_id: np.ndarray = field(compare=False)  # per site in flat order, its rid; the regions fix it
    regions: list

    @cached_property
    def tags(self) -> RegionTags:
        """site -> (kind, rid) for every window site."""
        return RegionTags(self.window, self.region_id, [r.kind for r in self.regions])

    def counts(self) -> dict:
        out = {"a": 0, "b": 0, "c": 0}
        for r in self.regions:
            out[r.kind] += 1
        return out

    def partition_complete(self) -> bool:
        """Every window site lies in exactly one region, and region_id gives
        each site the rid of that region."""
        try:
            sets = [_site_set(r.sites, self.window) for r in self.regions]
        except DomainError:  # a region holds a site outside the window
            return False
        ids = np.concatenate([s.idx for s in sets] + [np.empty(0, dtype=np.int64)])
        rids = np.repeat([r.rid for r in self.regions], [len(s) for s in sets])
        n = self.window.n_sites
        return (len(ids) == n and len(self.region_id) == n
                and bool((np.bincount(ids, minlength=n) == 1).all())
                and bool((self.region_id[ids] == rids).all()))

    def to_csv(self) -> str:
        """site coordinates, type tag, region id; one row per window site, in
        sorted site order, which is flat order."""
        kinds = np.array([r.kind for r in self.regions], dtype=object)[self.region_id]
        site = " ".join(["%d"] * self.window.d)
        rows = format_rows(f"{site},%s,%d\n", [*self.window.index_coords().T, kinds, self.region_id])
        return "site,tag,region\n" + "".join(rows)


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
    labels, unbounded = _free_pieces((rid < 0).reshape(window.shape), (window.wraps,) * 2)
    piece, a_nbr = _neighbor_pairs(np.where(rid < 0, labels, -1), rid, _AXIS_STEPS, window)
    piece, first, count = np.unique(piece, return_index=True, return_counts=True)
    sole = (count == 1) & ~unbounded[piece]
    piece_rid = np.full(window.n_sites, -1, dtype=np.int64)
    piece_rid[piece[sole]] = a_nbr[first[sole]]
    rid = np.where(rid < 0, piece_rid[labels], rid)

    left = np.flatnonzero(rid < 0)
    piece = np.unique(labels[left])  # labels follow each piece's least site
    piece_rid[piece] = len(a_ids) + np.arange(len(piece))
    rid[left] = piece_rid[labels[left]]
    kinds = ["a"] * len(a_ids) + ["b" if u else "c" for u in unbounded[piece]]

    rid.flags.writeable = False
    members = SiteSet(window, np.argsort(rid, kind="stable"))
    ends = np.cumsum(np.bincount(rid)).tolist()
    regions = []
    for r, (kind, lo, hi) in enumerate(zip(kinds, [0, *ends], ends)):
        cid = a_ids[r] if kind == "a" else None
        regions.append(Region(kind, r, members[lo:hi], component_id=cid))
    in_c = np.array([k == "c" for k in kinds])[rid]
    c_rid, ab_rid = _neighbor_pairs(np.where(in_c, rid, -1), np.where(in_c, -1, rid),
                                    _STAR_STEPS, window)
    for r, t in zip(c_rid.tolist(), ab_rid.tolist()):
        regions[r].star_touches.append(t)
    return RegionClassification(window, rid, regions)


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
    """The closure of V is its own closure: V's shared closure, and one more
    computed from it."""
    c1 = _closure_of(V, window)
    return bool(np.array_equal(_closure_mask(c1, window), c1))


def check_neighbor_hole(V: Iterable, window) -> bool:
    """Sites of the closure with a neighbor outside it must belong to V."""
    V = _site_set(V, window)
    vs, clo = _sites_mask(V, window), _closure_of(V, window)
    filled = np.flatnonzero(clo & ~vs)
    for a in range(2):
        for sgn in (+1, -1):
            nbr = window.neighbor_index(a, sgn)[filled]
            if np.any((nbr >= 0) & ~clo[nbr]):
                return False
    return True


def check_complement_unbounded(V: Iterable, window) -> bool:
    """Complement components of the closure are unbounded in the proxy sense,
    that is, the closure is its own closure."""
    return check_closure_idempotent(V, window)


def check_degree_two(V: Iterable, window, margin: int = 2) -> bool:
    """Interior dual vertices of B(V) have degree exactly two, for
    site-connected V (window-edge dual vertices are exempt on boxes)."""
    verts, deg = _plaquette_degrees(_closure_of(V, window), window)
    if isinstance(window, Box):
        deg = deg[_clear(verts, window, margin)]
    return bool(np.all((deg == 0) | (deg == 2)))


def check_no_interior_circuits(V: Iterable, window, margin: int = 2) -> bool:
    """Unbounded-proxy V: boundary fragments clear of the window edge must not
    close up into contractible circuits."""
    _, walks = _dual_walks(_closure_of(V, window), window)
    circuits = [np.asarray(ids) for closed, _, ids in walks if closed]
    if isinstance(window, Torus):
        # a torus's dual grid is the window's grid, so a dual circuit winds
        # exactly when its steps cross some seam a nonzero net number of times
        crossed = [window.seam_codes(v[:-1], v[1:]) for v in circuits]
        return all(np.bincount(np.abs(c), np.sign(c), window.d + 1)[1:].any() for c in crossed)
    return not any(_clear(_dual_points(v, window), window, margin).all() for v in circuits)


def _clear(v: np.ndarray, box: Box, margin) -> np.ndarray:
    """Which dual vertices (rows of v) lie at least margin inside the box corners."""
    return np.all((v >= np.add(box.lo, margin)) & (v <= np.subtract(box.hi, margin)), axis=1)
