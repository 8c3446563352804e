"""Directed nearest-neighbor graphs and their structural analysis.

An ``OutMap`` stores an out-degree-at-most-one digraph over a domain as a flat
int64 array (-1 marks "no out-edge"), which keeps whole-lattice operations
vectorized while the tuple-based accessors keep call sites readable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DomainError, SpecError, StructureError
from .lattice import Box, Site, SiteSet, Torus, canonical_edge


class OutMap:
    """Vertex -> optional out-neighbor, over a Box or Torus.

    ``active_margin`` widens the strip of box-boundary sites that are exempt
    from the out-degree-one expectation; generators whose rule needs a full
    surrounding cell (the 4k-stretch) declare a positive margin.
    """

    def __init__(self, dom, out=None, active_margin: int = 0):
        self.dom = dom
        self.active_margin = int(active_margin)
        # generator bookkeeping read by the census (system ids, cell grid, ...)
        self.meta: dict = {}
        n = dom.n_sites
        if out is None:
            self._out = np.full(n, -1, dtype=np.int64)
        elif isinstance(out, np.ndarray):
            if out.shape != (n,):
                raise SpecError(f"out array must have shape ({n},)")
            self._out = out.astype(np.int64, copy=True)
        else:
            self._out = np.full(n, -1, dtype=np.int64)
            self._out[dom.coords_index(list(out))] = dom.coords_index(list(out.values()))
        self._check_targets()

    def _check_targets(self):
        if (low := self._out < -1).any():
            i = int(np.argmax(low))
            raise DomainError(f"out-neighbor of {self.dom.index_site(i)} is {self._out[i]}, not a site index or -1")
        idx = np.flatnonzero(self._out >= 0)
        tgt = self._out[idx]
        if np.any(tgt >= self.dom.n_sites):
            raise DomainError("out-neighbor index outside domain")
        code = self.dom.step_codes(idx, tgt)
        if not code.all():
            loop = tgt == idx
            if loop.any():
                raise DomainError(f"self-loop at {self.dom.index_site(int(idx[np.argmax(loop)]))}")
            bad = int(idx[np.argmin(code != 0)])
            raise DomainError(
                f"out-neighbor of {self.dom.index_site(bad)} is not adjacent"
            )

    # ---- accessors -------------------------------------------------------------

    @property
    def out_index(self) -> np.ndarray:
        return self._out

    def out(self, x: Site) -> Optional[Site]:
        j = self._out[self.dom.site_index(x)]
        return self.dom.index_site(int(j)) if j >= 0 else None

    def set_out(self, x: Site, y: Optional[Site]):
        i = self.dom.site_index(x)
        if y is None:
            self._out[i] = -1
        else:
            if y not in self.dom.neighbors(x):
                raise DomainError(f"{y} is not adjacent to {x}")
            self._out[i] = self.dom.site_index(y)

    def items(self) -> Iterator[tuple]:
        for i, j in zip(*self.edge_arrays()):
            yield self.dom.index_site(int(i)), self.dom.index_site(int(j))

    def edge_arrays(self) -> tuple:
        """(src, dst) flat index arrays of every directed edge, ordered by source;
        flat-index order is lexicographic order on sites."""
        src = np.flatnonzero(self._out >= 0)
        return src, self._out[src]

    @property
    def n_edges(self) -> int:
        return int((self._out >= 0).sum())

    def active_mask(self) -> np.ndarray:
        """Sites where the digraph is expected to have out-degree exactly one."""
        if isinstance(self.dom, Torus):
            return np.ones(self.dom.n_sites, dtype=bool)
        return self.dom.face_depths() >= 2 + self.active_margin

    def copy(self) -> "OutMap":
        return OutMap(self.dom, self._out.copy(), self.active_margin)

    def restricted_to(self, box: Box) -> "OutMap":
        """Restriction to a sub-box; edges leaving the sub-box (or crossing a
        torus seam) are dropped."""
        coords = self.dom.index_coords()
        inside = np.all((coords >= box.lo) & (coords <= box.hi), axis=1)
        src, dst = self.edge_arrays()
        keep = inside[src] & inside[dst]
        s, t = box.coords_index(coords[src[keep]]), box.coords_index(coords[dst[keep]])
        step = box.step_codes(s, t) != 0  # a torus seam edge is no step of the box
        new_out = np.full(box.n_sites, -1, dtype=np.int64)
        new_out[s[step]] = t[step]
        return OutMap(box, new_out, self.active_margin)

    def __eq__(self, other):
        return (
            isinstance(other, OutMap)
            and self.dom == other.dom
            and np.array_equal(self._out, other._out)
        )

    def __repr__(self):
        return f"OutMap({self.dom}, {self.n_edges} edges)"


# ---- construction from weights ----------------------------------------------------


def build_nn_directed(w) -> "OutMap":
    """Point every positive-degree vertex at its minimum-weight incident edge.

    A running minimum over the directions +e_0, -e_0, +e_1, ...: strict <
    keeps the first of equal weights, and a missing edge weighs NaN, which
    never compares less."""
    dom = w.dom
    if not w.all_distinct():
        raise StructureError("weight field has duplicate values")
    best = np.full(dom.n_sites, np.inf)
    out = np.full(dom.n_sites, -1, dtype=np.int64)
    for a in range(dom.d):
        wa, bwd = w.axis_weights(a), dom.neighbor_index(a, -1)
        back = np.where(bwd >= 0, wa[bwd], np.nan)
        for nbr, cand in ((dom.neighbor_index(a, +1), wa), (bwd, back)):
            take = cand < best
            best[take], out[take] = cand[take], nbr[take]
    return OutMap(dom, out)


# ---- components ----------------------------------------------------------------


@dataclass
class ComponentLabeling:
    """Component labeling of the undirected version of an OutMap.

    Each component is a tree feeding one miniloop, longer cycle or sink;
    ``backward`` and ``cycle_len`` read that off one leaves-first peel, run
    the first time either is asked for."""

    dom: object
    out: np.ndarray  # the labeled map's out-array
    labels: np.ndarray
    sizes: np.ndarray
    boundary_touching: np.ndarray  # per component; boxes only
    spanning: np.ndarray  # per component: touches two opposite faces; boxes only
    wrapping: np.ndarray  # per component: winds around the torus; tori only

    @property
    def n_components(self) -> int:
        return len(self.sizes)

    def component_of(self, x: Site) -> int:
        return int(self.labels[self.dom.site_index(x)])

    def vertices_of(self, cid: int) -> SiteSet:
        return SiteSet(self.dom, np.flatnonzero(self.labels == cid))

    def count(self, kind: str) -> int:
        if kind == "total":
            return self.n_components
        return int(getattr(self, kind).sum())

    def least_sites(self) -> np.ndarray:
        """The least site of every component, in label order: labels are
        numbered by least site, so each one first appears where the running
        maximum of the labels steps up."""
        return np.flatnonzero(np.diff(np.maximum.accumulate(self.labels), prepend=-1))

    @cached_property
    def backward(self) -> np.ndarray:
        """#C_x for every site: how many sites have x on their forward orbit.

        Peel the in-forest leaves-first (Kahn's topological order), adding
        each subtree total into its parent.  The sites left unpeeled lie on a
        cycle, and the whole component drains into that cycle."""
        o = self.out
        n = len(o)
        t = np.ones(n, dtype=np.int64)
        valid = o >= 0
        deg = np.bincount(o[valid], minlength=n)
        claim = np.empty(n, dtype=np.int64)
        frontier = np.flatnonzero(deg == 0)
        while frontier.size:
            kids = frontier[valid[frontier]]
            parents = o[kids]
            np.add.at(t, parents, t[kids])
            np.subtract.at(deg, parents, 1)
            done = deg[parents] == 0
            kids, parents = kids[done], parents[done]
            # siblings peeled in one level: the kid whose claim lands keeps the parent
            claim[parents] = kids
            frontier = parents[claim[parents] == kids]
        cyc = deg > 0
        t[cyc] = self.sizes[self.labels[cyc]]
        return t

    @property
    def on_cycle(self) -> np.ndarray:
        """Mask of the sites on a directed cycle, miniloops included: the
        sites with an out-edge whose backward set is their whole component."""
        return (self.out >= 0) & (self.backward == self.sizes[self.labels])

    @cached_property
    def cycle_len(self) -> np.ndarray:
        """Per component, the length of its cycle: 0 when it ends in a sink,
        2 for a miniloop, 3 or more for a long or winding cycle."""
        return np.bincount(self.labels[self.on_cycle], minlength=self.n_components)


def undirected_components(g: OutMap) -> ComponentLabeling:
    """Label components of {{x, out(x)}}; isolated sites become singletons."""
    dom = g.dom
    src, dst = g.edge_arrays()
    if isinstance(dom, Torus):
        labels, wrapping = torus_winding(dom, src, dst)
    else:
        labels = label_components(dom.n_sites, src, dst)
    ncomp = int(labels.max()) + 1
    sizes = np.bincount(labels, minlength=ncomp)

    touching = np.zeros(ncomp, dtype=bool)
    spanning = np.zeros(ncomp, dtype=bool)
    if isinstance(dom, Box):
        touching[labels[dom.face_depths() <= 2]] = True
        grid = labels.reshape(dom.shape)
        for a in range(dom.d):
            spanning[np.intersect1d(grid.take(0, axis=a), grid.take(-1, axis=a))] = True
        wrapping = np.zeros(ncomp, dtype=bool)
    return ComponentLabeling(dom, g.out_index, labels, sizes, touching, spanning, wrapping)


# ---- functional-graph kernels ------------------------------------------------------


def label_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Labels 0..k-1 of the components of the undirected graph on n vertices
    with edges {src[i], dst[i]}, numbered in order of each component's least
    vertex, by scipy's graph traversal.

    The CSR arrays are int32, which scipy takes without checking or copying
    them: every domain has at most ``lattice.MAX_SITES`` < 2^31 sites, and
    every caller has fewer edges than twice that."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    order = np.argsort(src, kind="stable")
    mat = sp.csr_matrix((np.ones(len(src)), dst[order].astype(np.int32), indptr), shape=(n, n))
    return connected_components(mat, directed=False)[1].astype(np.int64)


def torus_winding(dom: Torus, src: np.ndarray, dst: np.ndarray) -> tuple:
    """Labels of the components of the lattice steps src[i] -> dst[i] on the
    torus, numbered by least site as ``label_components`` numbers them, and
    per label whether the component winds around the torus."""
    return merge_seams(dom.n_sites, src, dst, dom.seam_codes(src, dst))


def merge_seams(n: int, src: np.ndarray, dst: np.ndarray, crossed: np.ndarray) -> tuple:
    """Labels of the components of the graph on n vertices with edges
    {src[i], dst[i]}, numbered by least vertex as ``label_components`` numbers
    them, and per label whether the component winds: the step from src[i] to
    dst[i] crosses a seam along +e_a when crossed[i] is a + 1, along -e_a when
    it is -(a + 1), and no seam when it is 0.

    One labeling with every seam edge cut; a chase then walks the seam edges
    between its pieces with their lift offsets, and a piece reached at two
    different offsets means its component winds.  It starts from the pieces
    in increasing order, so each joined component is rooted at its least
    piece, which holds its least vertex."""
    seam = crossed != 0
    cut = label_components(n, src[~seam], dst[~seam])
    if not seam.any():
        return cut, np.zeros(int(cut.max()) + 1, dtype=bool)
    # Lift offsets, in sides per axis, packed into one integer in base 2k+1
    # for k seam edges: a tree path plus one more seam edge uses at most k of
    # them, so every offset compared stays in [-k, k] per axis.
    base = 2 * int(seam.sum()) + 1
    offs = [(1 if c > 0 else -1) * base ** (abs(c) - 1) for c in crossed[seam].tolist()]
    adj: dict = {}
    for cu, cv, off in zip(cut[src[seam]].tolist(), cut[dst[seam]].tolist(), offs):
        adj.setdefault(cu, []).append((cv, off))
        adj.setdefault(cv, []).append((cu, -off))

    n_pieces = int(cut.max()) + 1
    root = np.arange(n_pieces)
    winds = np.zeros(n_pieces, dtype=bool)
    pos: dict = {}
    for start in sorted(adj):
        if start in pos:
            continue
        pos[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            root[u] = start
            for v, off in adj[u]:
                if v not in pos:
                    pos[v] = pos[u] + off
                    stack.append(v)
                elif pos[v] != pos[u] + off:
                    winds[start] = True
    roots = root == np.arange(n_pieces)
    return (np.cumsum(roots) - 1)[root][cut], winds[roots]


def first_stop(out: np.ndarray, stop: np.ndarray) -> tuple:
    """For each site, the first site of its forward orbit (itself included)
    where ``stop`` holds, and how many steps it takes to get there; the site
    is -2 where the orbit never stops, which on a finite map means it feeds a
    cycle of non-stop sites.  Every site without an out-edge must be a stop.

    Pointer doubling with absorption: stops point at themselves after zero
    steps, and ceil(log2(4n)) squarings cover any orbit."""
    n = len(out)
    jump = np.where(stop, np.arange(n, dtype=np.int64), out)
    hops = (~stop).astype(np.int64)
    for _ in range(max(1, int(np.ceil(np.log2(max(2, 4 * n)))))):
        hops += hops[jump]
        jump = jump[jump]
    jump[~stop[jump]] = -2
    return jump, hops


# ---- forward paths -----------------------------------------------------------------


@dataclass(frozen=True)
class TwoCycle:
    u: Site
    v: Site


@dataclass(frozen=True)
class ExitedDomain:
    pass


@dataclass
class PathTrace:
    """The forward orbit of a site, with the reason it stopped."""

    vertices: list
    terminal: object

    def edges(self) -> list:
        return [
            canonical_edge(a, b) for a, b in zip(self.vertices, self.vertices[1:])
        ]


def forward_path(x: Site, g: OutMap) -> PathTrace:
    """Follow out-edges from x until a two-cycle closes or the orbit leaves
    the active map.  Revisiting any older vertex is a structure violation (it
    witnesses a directed cycle of length >= 3), so the walk ends within
    n_sites steps."""
    dom = g.dom
    o = g.out_index
    i = dom.site_index(x)
    trace = [i]
    seen = {i: 0}
    while True:
        j = int(o[trace[-1]])
        if j < 0:
            return PathTrace([dom.index_site(t) for t in trace], ExitedDomain())
        if j in seen:
            if len(trace) >= 2 and j == trace[-2]:
                verts = [dom.index_site(t) for t in trace] + [dom.index_site(j)]
                return PathTrace(verts, TwoCycle(verts[-1], verts[-2]))
            cycle = [dom.index_site(t) for t in trace[seen[j]:]]
            raise StructureError(
                f"directed cycle of length {len(cycle)} through {cycle[0]}",
                witness=cycle,
            )
        seen[j] = len(trace)
        trace.append(j)


def backward_sizes(g: OutMap) -> np.ndarray:
    """#C_x for every site at once (see ``ComponentLabeling.backward``)."""
    return undirected_components(g).backward


def two_cycle_mask(g: OutMap) -> np.ndarray:
    o = g.out_index
    return (o >= 0) & (o[o] == np.arange(len(o)))


# ---- per-edge weight views used by path analyses --------------------------------


def out_edge_weights(g: OutMap, w) -> np.ndarray:
    """Weight of each site's out-edge; NaN where there is none."""
    o = g.out_index
    src = np.flatnonzero(o >= 0)
    base, axis = g.dom.edge_slots(src, o[src])
    res = np.full(g.dom.n_sites, np.nan)
    for a in range(g.dom.d):
        on = np.flatnonzero(axis == a)
        res[src[on]] = w.axis_weights(a)[base[on]]
    return res


# ---- structure verification -------------------------------------------------------


@dataclass
class GraphStructureReport:
    n_components: int
    components_checked: int
    components_passed: int
    long_cycle_free: bool
    monotone_ok: Optional[bool]
    terminal_two_cycle_rate: float

    @property
    def pass_rate(self) -> float:
        if self.components_checked == 0:
            return 1.0
        return self.components_passed / self.components_checked

    @property
    def ok(self) -> bool:
        return (
            self.long_cycle_free
            and self.components_checked == self.components_passed
            and self.monotone_ok in (None, True)
        )


def verify_all_components(g: OutMap, w=None, labeling: Optional[ComponentLabeling] = None) -> GraphStructureReport:
    """Check every component against the finite-cluster description at once:
    a tree whose directed edges all point toward its unique miniloop.

    On a Box, only components made entirely of interior sites are judged (the
    boundary truncates argmins, so the theorem's description need not hold
    there).  On a Torus, components that wind are left out, as in
    ``PreconditionReport.ok``: a winding cycle is the finite stand-in for an
    infinite forward orbit, and a component winds exactly when its unique
    cycle does."""
    if labeling is None:
        labeling = undirected_components(g)
    labels, cycle_len = labeling.labels, labeling.cycle_len
    long_cycle_free = not np.any((cycle_len >= 3) & ~labeling.wrapping)

    judged = (labeling.sizes > 1) & ~labeling.wrapping
    if isinstance(g.dom, Box):
        judged[labels[g.dom.face_depths() == 1]] = False
    # with out-degree at most one, a component whose cycle is a miniloop is a
    # tree with every edge directed toward that miniloop
    miniloop = cycle_len == 2
    passed = judged & miniloop

    monotone = None
    if w is not None:
        monotone = bool(adjacent_pairs_monotone(g, w))

    has_out = g.out_index >= 0
    rate = float(miniloop[labels[has_out]].mean()) if has_out.any() else 1.0

    return GraphStructureReport(
        n_components=labeling.n_components,
        components_checked=int(judged.sum()),
        components_passed=int(passed.sum()),
        long_cycle_free=long_cycle_free,
        monotone_ok=monotone,
        terminal_two_cycle_rate=rate,
    )


def adjacent_pairs_monotone(g: OutMap, w) -> bool:
    """Every consecutive pair of directed edges <x,y>,<y,z> with z != x has
    strictly decreasing weight."""
    o = g.out_index
    wout = out_edge_weights(g, w)
    i = np.where(o >= 0)[0]
    j = o[i]
    chained = o[j] >= 0
    i, j = i[chained], j[chained]
    not_miniloop = o[j] != i
    i, j = i[not_miniloop], j[not_miniloop]
    return bool(np.all(wout[i] > wout[j]))
