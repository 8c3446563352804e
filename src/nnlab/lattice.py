"""Finite pieces of the cubic lattice: boxes, tori and adjacency.

Sites are plain tuples of ints.  A ``Box`` is an axis-aligned block with both
corners inclusive; a ``Torus`` wraps every axis.  Undirected edges are stored
as ordered pairs ``(a, b)`` with ``a`` lexicographically smallest, so that
``{a, b}`` and ``{b, a}`` produce the same value.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from typing import Iterator, Optional

import numpy as np

from .errors import DomainError, SpecError

Site = tuple
UEdge = tuple  # (site, site), canonically ordered
DEdge = tuple  # (from_site, to_site)


# The most sites a Box or Torus may have, 19x the largest domain in use (the
# 1.73M-site fk3 window, 120^3).  Domains come from reader headers, CLI flags
# and specs; a larger one raises SpecError before any per-site array exists.
MAX_SITES = 2**25


def _check_n_sites(shape: tuple):
    if math.prod(shape) > MAX_SITES:
        raise SpecError(f"a domain of shape {shape} has more than MAX_SITES = {MAX_SITES} sites")


def canonical_edge(a: Site, b: Site) -> UEdge:
    """Order the endpoint pair so both insertion orders collide."""
    return (a, b) if a <= b else (b, a)


def flat_strides(shape) -> np.ndarray:
    """Row-major strides matching the flat site indexing of a domain."""
    shape = np.asarray(shape, dtype=np.int64)
    return np.cumprod(np.concatenate([[1], shape[::-1][:-1]]))[::-1]


class _DomainBase:
    """Everything per site, written once from the least corner ``_lo``, the
    ``shape`` and whether every axis ``wraps``: flat indexing, membership,
    lattice steps, neighbor lists and tables, equality."""

    wraps: bool

    def __init__(self, lo: Site, shape: tuple):
        self._lo, self.shape, self.d = lo, shape, len(shape)
        _check_n_sites(shape)
        self._nbr_cache = {}

    def __eq__(self, other):
        return type(other) is type(self) and (self._lo, self.shape) == (other._lo, other.shape)

    def __hash__(self):
        return hash((type(self).__name__, self._lo, self.shape))

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.shape))

    # ---- flat index <-> site -------------------------------------------------

    def site_index(self, x: Site) -> int:
        if not self.contains(x):
            raise DomainError(f"site {x} not in {self}")
        idx = 0
        for c, lo, n in zip(x, self._lo, self.shape):
            idx = idx * n + (c - lo)
        return idx

    def index_site(self, i: int) -> Site:
        coords = []
        for n in reversed(self.shape):
            coords.append(i % n)
            i //= n
        return tuple(c + lo for c, lo in zip(reversed(coords), self._lo))

    def index_sites(self, idx) -> list:
        """Sites of an array of flat indices, as tuples in the same order."""
        rel = np.unravel_index(np.asarray(idx, dtype=np.int64), self.shape)
        return list(zip(*((r + lo).tolist() for r, lo in zip(rel, self._lo))))

    def index_coords(self, idx=None) -> np.ndarray:
        """(m, d) int64 coordinates of the sites at the flat indices idx, or
        of every site in flat-index order."""
        lo = np.asarray(self._lo, dtype=np.int64)
        if idx is None:
            return np.indices(self.shape, dtype=np.int64).reshape(self.d, -1).T + lo
        return np.stack(np.unravel_index(idx, self.shape), axis=-1) + lo

    def coords_index(self, coords) -> np.ndarray:
        """Flat indices of a sequence of integer sites; the inverse of index_coords.

        Raises DomainError unless every entry is a site of this domain.
        """
        try:
            c = np.asarray(coords)
        except ValueError:
            raise DomainError(f"sites of {self} need {self.d} integer coordinates each") from None
        if c.size == 0:
            return np.zeros(0, dtype=np.int64)
        if c.dtype.kind not in "iu" or c.ndim != 2 or c.shape[1] != self.d:
            raise DomainError(f"sites of {self} need {self.d} integer coordinates each")
        rel = c.astype(np.int64) - np.asarray(self._lo, dtype=np.int64)
        outside = np.any((rel < 0) | (rel >= np.asarray(self.shape)), axis=1)
        if outside.any():
            bad = tuple(int(t) for t in c[np.argmax(outside)])
            raise DomainError(f"site {bad} not in {self}")
        return rel @ flat_strides(self.shape)

    def sites(self) -> Iterator[Site]:
        for i in range(self.n_sites):
            yield self.index_site(i)

    # ---- neighbor tables -----------------------------------------------------

    def neighbor_index(self, axis: int, sign: int) -> np.ndarray:
        """Flat index of each site's neighbor along (axis, sign); -1 if absent."""
        key = (axis, sign)
        cache = self._nbr_cache
        if key not in cache:
            cache[key] = self._build_neighbor_index(axis, sign)
        return cache[key]

    def _build_neighbor_index(self, axis: int, sign: int) -> np.ndarray:
        n = self.n_sites
        idx = np.arange(n, dtype=np.int64).reshape(self.shape)
        moved = np.roll(idx, -sign, axis=axis)
        out = moved.reshape(-1).copy()
        if not self.wraps:
            face = [slice(None)] * self.d
            face[axis] = -1 if sign > 0 else 0
            mask = np.zeros(self.shape, dtype=bool)
            mask[tuple(face)] = True
            out[mask.reshape(-1)] = -1
        return out

    # ---- per-site operations ---------------------------------------------------

    def contains(self, x: Site) -> bool:
        return len(x) == self.d and all(0 <= c - lo < n for c, lo, n in zip(x, self._lo, self.shape))

    def translate(self, x: Site, dv: Site) -> Optional[Site]:
        """x + dv, wrapped on a torus; None when it leaves a box."""
        if self.wraps:
            return tuple(lo + (c + t - lo) % n for c, t, lo, n in zip(x, dv, self._lo, self.shape))
        y = tuple(c + t for c, t in zip(x, dv))
        return y if self.contains(y) else None

    def axis_neighbor(self, x: Site, axis: int, sign: int) -> Optional[Site]:
        """x + sign * e_axis, wrapped on a torus; None when it leaves a box."""
        y = list(x)
        y[axis] += sign
        if self.wraps:
            lo = self._lo[axis]
            y[axis] = lo + (y[axis] - lo) % self.shape[axis]
            return tuple(y)
        y = tuple(y)
        return y if self.contains(y) else None

    def neighbors(self, x: Site) -> list:
        """All sites at L1-distance one from x inside the domain, in the order
        +e_0, -e_0, +e_1, ..."""
        if not self.contains(x):
            raise DomainError(f"site {x} not in {self}")
        return [y for a in range(self.d) for s in (1, -1)
                if (y := self.axis_neighbor(x, a, s)) is not None]

    def star_neighbors(self, x: Site) -> list:
        """All sites at L-infinity distance one from x inside the domain, in
        lexicographic order of the offset."""
        if not self.contains(x):
            raise DomainError(f"site {x} not in {self}")
        return [y for dv in itertools.product((-1, 0, 1), repeat=self.d)
                if any(dv) and (y := self.translate(x, dv)) is not None]

    def edge(self, a: Site, b: Site) -> UEdge:
        if b not in self.neighbors(a):
            raise DomainError(f"{a} and {b} are not adjacent in {self}")
        return canonical_edge(a, b)

    def edges(self) -> Iterator[UEdge]:
        """All undirected edges, in (site, axis) flat order."""
        for i in range(self.n_sites):
            x = self.index_site(i)
            for a in range(self.d):
                j = int(self.neighbor_index(a, +1)[i])
                if j >= 0:
                    yield canonical_edge(x, self.index_site(j))

    @property
    def n_edges(self) -> int:
        return sum(int((self.neighbor_index(a, +1) >= 0).sum()) for a in range(self.d))

    def edge_slot(self, e: UEdge) -> tuple:
        """Map a canonical edge to its (base-site flat index, axis) storage slot."""
        a, b = e
        base, axis = self.edge_slots([self.site_index(a)], [self.site_index(b)])
        return int(base[0]), int(axis[0])

    def edge_slots(self, a, b) -> tuple:
        """Vectorized edge_slot over flat index arrays: the (base, axis) slot of
        each edge {a[k], b[k]}, in either endpoint order."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        code = self.step_codes(a, b)
        if not code.all():
            k = int(np.argmin(code != 0))
            e = (self.index_site(int(a[k])), self.index_site(int(b[k])))
            raise DomainError(f"{e} is not an edge of {self}")
        return np.where(code > 0, a, b), np.abs(code).astype(np.int64) - 1

    # ---- lattice steps ---------------------------------------------------------

    def step_codes(self, src, dst) -> np.ndarray:
        """Decode each pair of flat site indices src[k] -> dst[k] as a lattice
        step: int8 code a + 1 for a step along +e_a, -(a + 1) along -e_a, and
        0 when dst is not a neighbor of src.

        Index arithmetic only: a step along a keeps both ends in one block of
        side * stride consecutive indices, and moves by +-stride, or on a
        torus by -+(side - 1) * stride across the seam."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        diff = dst - src
        code = np.zeros(len(src), dtype=np.int8)
        block = self.n_sites
        for a, (side, stride) in enumerate(zip(self.shape, flat_strides(self.shape).tolist())):
            same = src // block == dst // block
            fwd, bwd = diff == stride, diff == -stride
            if self.wraps:
                fwd |= diff == -(side - 1) * stride
                bwd |= diff == (side - 1) * stride
            code += np.int8(a + 1) * ((fwd & same).view(np.int8) - (bwd & same).view(np.int8))
            block = stride
        return code

    def seam_codes(self, src, dst) -> np.ndarray:
        """step_codes of the steps src[k] -> dst[k] that wrap a torus seam, 0 for
        every other pair: a step wraps exactly when its sign and dst - src
        disagree."""
        code = self.step_codes(src, dst)
        return np.where((code > 0) != (np.asarray(dst) > np.asarray(src)), code, 0)


class Box(_DomainBase):
    """Axis-aligned block of Z^d with inclusive corners lo <= hi."""

    wraps = False

    def __init__(self, lo: Site, hi: Site):
        lo, hi = tuple(int(c) for c in lo), tuple(int(c) for c in hi)
        if len(lo) != len(hi) or not lo:
            raise SpecError("box corners need equal positive dimension")
        if any(l > h for l, h in zip(lo, hi)):
            raise SpecError(f"box corners must satisfy lo <= hi, got {lo} > {hi}")
        self.lo, self.hi = lo, hi
        super().__init__(lo, tuple(h - l + 1 for l, h in zip(lo, hi)))

    def face_depths(self) -> np.ndarray:
        """L-infinity distance from each site to the complement of the box, in
        flat-index order (1 on the faces, 2 on the sites next to them, ...),
        built one axis at a time."""
        depth = np.int64(np.iinfo(np.int64).max)
        for a, s in enumerate(self.shape):
            i = np.arange(s, dtype=np.int64)
            axis_depth = 1 + np.minimum(i, s - 1 - i)
            depth = np.minimum(depth, axis_depth.reshape([-1 if b == a else 1 for b in range(self.d)]))
        return depth.reshape(-1)

    def __repr__(self):
        return f"Box(lo={self.lo}, hi={self.hi})"


class Torus(_DomainBase):
    """Quotient Z^d / (sides Z)^d; sides below 3 would create loops or doubled edges."""

    wraps = True

    def __init__(self, sides):
        sides = tuple(int(s) for s in sides)
        if not sides:
            raise SpecError("torus needs at least one axis")
        if any(s < 3 for s in sides):
            raise SpecError(f"torus sides must all be >= 3, got {sides}")
        self.sides = sides
        super().__init__((0,) * len(sides), sides)

    def wrap(self, x: Site) -> Site:
        return tuple(c % s for c, s in zip(x, self.sides))

    def __repr__(self):
        return f"Torus(sides={self.sides})"


class SiteSet(Sequence):
    """Read-only sequence of the sites of a domain at an int64 array of flat
    indices, in the array's order.  Tuples are made only when the set is
    indexed or iterated; ``np.asarray`` gives the (m, d) coordinate array.
    DomainError unless every index is one of the domain's sites."""

    def __init__(self, dom, idx):
        self.dom = dom
        self.idx = np.array(idx, dtype=np.int64)
        if len(self.idx) and (self.idx.min() < 0 or self.idx.max() >= dom.n_sites):
            raise DomainError(f"flat site index outside 0..{dom.n_sites - 1} of {dom}")
        self.idx.flags.writeable = False
        self.closure = None  # the planar closure mask, once topology has read it

    def __len__(self):
        return len(self.idx)

    def __getitem__(self, k):
        if isinstance(k, slice):  # a read-only view of indices already checked
            part = object.__new__(SiteSet)
            part.dom, part.idx, part.closure = self.dom, self.idx[k], None
            return part
        return self.dom.index_site(int(self.idx[k]))

    def __iter__(self):
        return iter(self.dom.index_sites(self.idx))

    def __array__(self, dtype=None, copy=None):
        coords = self.dom.index_coords(self.idx)
        return coords if dtype is None else coords.astype(dtype, copy=False)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Sequence) else NotImplemented

    def __repr__(self):
        return f"SiteSet({self.dom}, {len(self)} sites)"


def neighbors(x: Site, dom) -> list:
    return dom.neighbors(x)


def star_neighbors(x: Site, dom) -> list:
    return dom.star_neighbors(x)
