"""Translation-invariant digraph constructions emitted on finite windows.

Four families, each realizable as a nearest-neighbor graph:

* ``gen_zerner_merkl`` -- two coalescing-walk trees on an even torus, from a
  Bernoulli field on the half-resolution cell grid plus a parity shift.
* ``gen_dyadic_window`` -- the 2-adic rule x -> x - e_i(x) on a shifted
  window of the positive orthant; one unbounded component.
* ``gen_layered`` -- stack d-dimensional samples on the hyperplanes of
  Z^(d+1) with no vertical edges; one component per layer.
* ``gen_finite_k`` -- k independent dyadic samples embedded on disjoint
  sublattices by stretching every lattice edge into 4k edges, with
  deterministic spanning-tree filler in the leftover cells; exactly k
  unbounded components.

Both window generators are separable: a site's role depends only on its
per-axis residues mod 4k (finite-k) or 2-adic valuations (dyadic).  The
sublattice members are enumerated from per-axis residue lists, and the dyadic
rule is reduced from per-axis valuation tables broadcast over the window, so
neither builds an (n_sites, d) coordinate array.

``modify_type_c`` rewires vertices fed only by leaves into fresh miniloops,
which carves finite separating components out of the Zerner-Merkl pair.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, SpecError, StructureError
from .lattice import Box, Site, Torus, flat_strides
from .nngraph import OutMap
from .rng import SeededRng
from .serialize import domain_from_dict, domain_to_dict

# ---- Zerner-Merkl ------------------------------------------------------------------


def gen_zerner_merkl(
    L: int,
    rng: SeededRng,
    b_field: Optional[np.ndarray] = None,
    shift: Optional[tuple] = None,
) -> OutMap:
    """Coalescing up-right / down-left pair on the (L, L) torus, L even.

    ``b_field`` and ``shift`` override the random draws so single cells can be
    pinned down in tests.
    """
    if L % 2 or L < 6:
        raise SpecError(f"Zerner-Merkl needs an even torus side >= 6, got {L}")
    dom = Torus((L, L))
    m = L // 2
    if b_field is None:
        b_field = rng.child("zm-bernoulli").bernoulli((m, m)).astype(bool)
    else:
        b_field = np.asarray(b_field, dtype=bool)
        if b_field.shape != (m, m):
            raise SpecError(f"b_field must have shape ({m}, {m})")
    if shift is None:
        sx, sy = rng.child("zm-shift").integers(0, 2, 2)
        shift = (int(sx), int(sy))

    # Per-vertex displacement before the shift.  In a B=1 cell the left column
    # chains upward and the right column downward; B=0 is the reflection.
    b_full = np.kron(b_field, np.ones((2, 2), dtype=bool))
    xpar = np.arange(L)[:, None] % 2 == 1
    ypar = np.arange(L)[None, :] % 2 == 1
    dx = np.where(b_full, 0, np.where(ypar, -1, 1))
    dy = np.where(b_full, np.where(xpar, -1, 1), 0)

    # Shifting the whole graph by U moves the rule: displacement at v is the
    # unshifted displacement at v - U.
    dx = np.roll(dx, shift, axis=(0, 1))
    dy = np.roll(dy, shift, axis=(0, 1))

    xs = np.arange(L)[:, None]
    ys = np.arange(L)[None, :]
    tgt = ((xs + dx) % L) * L + (ys + dy) % L
    g = OutMap(dom, tgt.reshape(-1).astype(np.int64))
    # system 0 = the up-right tree, 1 = the down-left tree; each vertex's own
    # step direction decides which tree it feeds
    system = np.where((dx + dy).reshape(-1) > 0, 0, 1).astype(np.int64)
    g.meta = {"shift": tuple(shift), "cell": 2, "system": system}
    return g


# ---- dyadic ------------------------------------------------------------------------


def _trailing_zeros(X: np.ndarray) -> np.ndarray:
    # 64 stands in for infinity at X == 0, where the uint64 cast sets all 64 bits
    return np.bitwise_count(((X & -X).astype(np.uint64)) - np.uint64(1)).astype(np.int8)


def _least_axis(tz) -> np.ndarray:
    """Per site, the axis a of least tz[a], later axes winning ties; tz's arrays broadcast."""
    best, ax = tz[0], np.zeros(np.shape(tz[0]), dtype=np.int8)
    for a, t in enumerate(tz[1:], 1):
        ax = np.where(t <= best, a, ax)
        best = np.minimum(best, t)
    return ax


def _dyadic_axis(X: np.ndarray) -> np.ndarray:
    """0-based axis the dyadic rule decrements, per row of X."""
    return _least_axis(_trailing_zeros(X).T)


def _orthant_row(x: Site, origin: bool = True) -> np.ndarray:
    """x as a (1, d) int64 row; DomainError off the orthant, or at the origin unless origin."""
    try:
        X = np.array([[operator.index(c) for c in x]], dtype=np.int64)
    except OverflowError:
        raise DomainError(f"{x} has a coordinate outside int64") from None
    if np.any(X < 0):
        raise DomainError(f"{x} lies outside the nonnegative orthant")
    if not (origin or X.any()):
        raise DomainError("the origin has no dyadic out-edge")
    return X


def gen_dyadic_k(x: Site) -> int:
    """Smallest k >= 1 with x / 2^k no longer integral."""
    return int(_trailing_zeros(_orthant_row(x, origin=False)).min()) + 1


def gen_dyadic_i(x: Site) -> int:
    """Largest axis (1-based) odd in x / 2^(k(x)-1)."""
    return int(_dyadic_axis(_orthant_row(x, origin=False))[0]) + 1


def _inadmissible(Z: tuple, window: Box) -> Optional[str]:
    """Why the dyadic rule cannot run on window + Z, or None when it can."""
    lo_shifted = [l + z for l, z in zip(window.lo, Z)]
    if min(lo_shifted) < 0:
        return f"window + {Z} leaves the nonnegative orthant"
    if not any(lo_shifted):
        return f"window + {Z} contains the origin"
    if max(h + z for h, z in zip(window.hi, Z)) > np.iinfo(np.int64).max:
        return f"window + {Z} has a coordinate outside int64"


def gen_dyadic_window(n: int, Z: Site, window: Box) -> OutMap:
    """The dyadic rule on window + Z, expressed in window coordinates.

    Every window site must land in the orthant minus the origin after the
    shift, so each one has out-degree one; edges whose head leaves the window
    are dropped.
    """
    Z = tuple(int(c) for c in Z)
    if len(Z) != window.d:
        raise SpecError("shift dimension mismatch")
    if any(c < 0 or c >= 2**n for c in Z):
        raise SpecError(f"shift {Z} not in [0, 2^{n})^{window.d}")
    if why := _inadmissible(Z, window):
        raise SpecError(why)

    # Per-axis valuation tables broadcast over the window give the axis; the
    # step leaves the window from the first layer of each block along it.
    tz = np.ix_(*[_trailing_zeros(np.arange(l + z, h + z + 1, dtype=np.int64))
                  for l, h, z in zip(window.lo, window.hi, Z)])
    ax = _least_axis(tz).reshape(-1)
    strides = flat_strides(window.shape)
    out = np.arange(window.n_sites, dtype=np.int64)
    leaves = out % (strides * window.shape)[ax] < strides[ax]
    out -= strides[ax]
    out[leaves] = -1
    g = OutMap(window, out)
    g.meta = {"Z": Z, "system": np.zeros(window.n_sites, dtype=np.int64)}
    return g


def sample_dyadic_shift(n: int, window: Box, rng: SeededRng) -> tuple:
    """Uniform shift in {0..2^n-1}^d, re-drawn on the (vanishing-probability)
    event that the shifted window hits the origin, leaves the orthant or
    passes the int64 maximum."""
    for attempt in range(256):
        Z = tuple(int(c) for c in rng.child("dyadic-shift", attempt).integers(0, 2**n, window.d))
        if _inadmissible(Z, window) is None:
            return Z
    raise SpecError("could not sample an admissible dyadic shift")


def _up_steps(V: np.ndarray) -> np.ndarray:
    """The rows v + e_a, over the rows v of V (in the orthant) and the axes a,
    at which the rule decrements a: every site pointing at a row of V."""
    d = V.shape[1]
    U = (V[:, None, :] + np.eye(d, dtype=np.int64)).reshape(-1, d)
    if U.min(initial=0) < 0:  # a coordinate wrapped past the int64 maximum
        raise DomainError("an in-neighbor has a coordinate outside int64")
    return U[_dyadic_axis(U) == np.arange(len(U)) % d]


def dyadic_in_neighbors(v: Site) -> list:
    """Sites pointing at v; lets backward trees grow without any window."""
    return [tuple(u) for u in _up_steps(_orthant_row(v)).tolist()]


def dyadic_backward_size(v: Site, cap: int) -> int:
    """#C_v in the full orthant graph, truncated at cap + 1, grown one level
    at a time: each site has one out-edge, so no site is reached twice."""
    level, size = _orthant_row(v), 1
    while len(level) and size <= cap:
        level = _up_steps(level)
        size += len(level)
    return min(size, cap + 1)


# ---- layered ----------------------------------------------------------------------


def gen_layered(base, n_layers: int) -> OutMap:
    """Stack base samples on the hyperplanes of one extra dimension.

    Pass one OutMap to replicate a single sample on every layer (the
    stationary construction), or a sequence of per-layer OutMaps for the
    independent-samples variant.
    """
    if n_layers < 1:
        raise SpecError("need at least one layer")
    if isinstance(base, (list, tuple)):
        bases = list(base)
        if len(bases) != n_layers:
            raise SpecError(f"got {len(bases)} base samples for {n_layers} layers")
    else:
        bases = [base]  # the one sample on every layer
    bdom = bases[0].dom
    if not isinstance(bdom, Box):
        raise SpecError("layered bases must live on boxes")
    if any(bg.dom != bdom for bg in bases):
        raise SpecError("all base samples must share one window")
    dom3 = Box(bdom.lo + (0,), bdom.hi + (n_layers - 1,))
    out3 = np.full(dom3.n_sites, -1, dtype=np.int64)
    for layer in range(n_layers):
        o2 = bases[layer % len(bases)].out_index
        src = np.where(o2 >= 0)[0]
        out3[src * n_layers + layer] = o2[src] * n_layers + layer
    margin = max(bg.active_margin for bg in bases)
    g = OutMap(dom3, out3, active_margin=margin)
    g.meta = {"system": (np.arange(dom3.n_sites, dtype=np.int64) % n_layers)}
    return g


# ---- finite-k stretch --------------------------------------------------------------


def fill_region(sites: set) -> dict:
    """Out-edges covering a finite site set: per site-component, a BFS
    spanning tree rooted at the lexicographically least vertex, all edges
    toward the root, plus the root's edge to its least child (one miniloop).

    Raises on singleton components; the stretch construction guarantees they
    cannot occur, so one appearing means the caller assembled R_x wrong."""
    remaining = set(sites)
    out: dict = {}
    d = len(next(iter(sites))) if sites else 0
    while remaining:
        root = min(remaining)
        comp = [root]
        seen = {root}
        qi = 0
        while qi < len(comp):
            u = comp[qi]
            qi += 1
            for a in range(d):
                for sgn in (1, -1):
                    v = tuple(c + (sgn if i == a else 0) for i, c in enumerate(u))
                    if v in remaining and v not in seen:
                        seen.add(v)
                        comp.append(v)
                        out[v] = u  # toward the root
        if len(comp) == 1:
            raise StructureError(f"singleton site-component at {root}", witness=root)
        children = sorted(v for v, p in out.items() if p == root)
        out[root] = children[0]
        remaining -= seen
    return out


def _product(lists: list) -> np.ndarray:
    """Rows of the Cartesian product of 1-D integer arrays, in lexicographic order."""
    grid = np.meshgrid(*lists, indexing="ij")
    return np.stack([g.reshape(-1) for g in grid], axis=1)


def _sublattice_rows(window: Box, U, k: int, j: int) -> tuple:
    """Window-relative coordinates of V^(j), the sites whose shifted
    coordinates Y = x - U have at least d-1 residues 4(j-1) mod 4k.

    Membership is a per-axis fact, so V^(j) is enumerated from each axis's
    lists of zero and nonzero residue positions.  Returns ``(corners,
    segments)``: the rows with every residue zero, and for each axis f the
    rows whose only nonzero residue is on f (the segment interiors along f).
    """
    s = 4 * k
    zero, nonzero = [], []
    for a in range(window.d):
        res = (np.arange(window.lo[a], window.hi[a] + 1) - U[a] - 4 * (j - 1)) % s
        zero.append(np.flatnonzero(res == 0))
        nonzero.append(np.flatnonzero(res))
    segments = [_product(zero[:f] + [nonzero[f]] + zero[f + 1 :]) for f in range(window.d)]
    return _product(zero), segments


def _sublattice_labels(window: Box, U, k: int) -> np.ndarray:
    """Per-site j in 1..k for V^(j), 0 elsewhere (the V^(j) are disjoint in d >= 3)."""
    strides = flat_strides(window.shape)
    lab = np.zeros(window.n_sites, dtype=np.int64)
    for j in range(1, k + 1):
        corners, segments = _sublattice_rows(window, U, k, j)
        for rows in (corners, *segments):
            lab[rows @ strides] = j
    return lab


@functools.lru_cache(maxsize=None)
def _filler_cell(k: int, d: int) -> tuple:
    """The filler's out-edges on one 4k-cell, as read-only (m, d) source and
    target offsets from the cell's center: fill_region over the cell's sites
    outside every sublattice."""
    rel_box = Box((-2 * k,) * d, (2 * k - 1,) * d)
    rel_free = np.flatnonzero(_sublattice_labels(rel_box, (0,) * d, k) == 0)
    rel_out = fill_region(set(rel_box.index_sites(rel_free)))
    src = np.array(sorted(rel_out), dtype=np.int64)
    dst = np.array([rel_out[tuple(r)] for r in src.tolist()], dtype=np.int64)
    src.flags.writeable = dst.flags.writeable = False
    return src, dst


def gen_finite_k(k: int, n: int, window: Box, rng: SeededRng) -> OutMap:
    """k unbounded components in d >= 3 via the 4k-stretch of k dyadic samples.

    The coarse rule of each sublattice is a dyadic sample with its own
    shift.  The assembled map is shifted by a uniform vector in [0, 4k-1)^d
    and declares an active margin of 4k (the filler needs whole cells, so a
    boundary collar stays silent).

    The members of each sublattice V^(j) are enumerated from per-axis
    residue lists (about 6% of the window for k = 3), and the corner and
    segment rules run on those rows only; no per-site coordinate array of
    the window is built.
    """
    d = window.d
    if d < 3:
        raise SpecError("the finite-k construction needs dimension >= 3")
    if k < 2:
        raise SpecError("finite-k needs k >= 2")
    s = 4 * k
    if any(sz < 2 * s for sz in window.shape):
        raise SpecError(f"window too small to hold a full {s}-cell")

    # keep every touched coarse vertex strictly inside the shifted orthant
    span = max(window.shape) // s + 3
    if 2**n <= span + 1:
        raise SpecError(f"level n={n} too small for this window")
    shifts = [rng.child("finite-k-shift", j).integers(span + 1, 2**n, d) for j in range(1, k + 1)]
    eye = np.eye(d, dtype=np.int64)

    def coarse_out(j: int, X: np.ndarray) -> np.ndarray:
        """Coarse out-neighbor of each row of X for sublattice j (dyadic)."""
        return X - eye[_dyadic_axis(X + shifts[j - 1])]

    U = tuple(int(c) for c in rng.child("finite-k-final-shift").integers(0, s - 1, d))

    lo = np.asarray(window.lo)
    shape = np.asarray(window.shape)
    strides = flat_strides(shape)
    out = np.full(window.n_sites, -1, dtype=np.int64)

    # filler: one cell pattern stamped on every whole cell at once
    src_rel, dst_rel = _filler_cell(k, d)
    c_lo = np.ceil((lo - np.asarray(U) + 2 * k) / s).astype(np.int64)
    c_hi = np.floor((np.asarray(window.hi) - np.asarray(U) - (2 * k - 1)) / s).astype(np.int64)
    cells = _product([np.arange(a, b + 1) for a, b in zip(c_lo, c_hi)])
    base = ((cells * s + U - lo) @ strides)[:, None]
    out[(base + src_rel @ strides).ravel()] = (base + dst_rel @ strides).ravel()

    # stretched edges, truncated at the window boundary; V^(j) never meets
    # the filler's sources, so the order of the writes does not matter
    for j in range(1, k + 1):
        r = 4 * (j - 1)
        corners, segments = _sublattice_rows(window, U, k, j)
        # corners: follow the coarse out-edge's first unit step
        X = (corners + lo - U - r) // s
        step = coarse_out(j, X) - X
        # segment interiors: orientation by case of the carrying coarse edge
        seg = np.concatenate(segments)
        rows = np.arange(len(seg))
        free = np.repeat(np.arange(d), [len(rel) for rel in segments])
        Y = seg + lo - U
        ell = (Y[rows, free] - r) % s
        Y[rows, free] -= ell
        Xb = (Y - r) // s
        e_free = eye[free]
        case_a = np.all(coarse_out(j, Xb) == Xb + e_free, axis=1)
        case_b = np.all(coarse_out(j, Xb + e_free) == Xb, axis=1) & ~case_a
        sign = np.where(case_a, 1, np.where(case_b, -1, 0))
        # case c: toward the nearer endpoint, middle edge left out
        sign = np.where(sign != 0, sign, np.where(ell <= 2 * k, -1, 1))
        src = np.concatenate([corners, seg])
        tgt = src + np.concatenate([step, e_free * sign[:, None]])
        inside = np.all((tgt >= 0) & (tgt < shape), axis=1)
        out[src[inside] @ strides] = tgt[inside] @ strides
    g = OutMap(window, out, active_margin=s)
    g.meta = {"U": U, "k": k}
    g.meta["system"] = finite_k_membership(g)
    # anything larger than a filler cell witnesses an unbounded component
    # (filler components have L-infinity diameter at most 4k)
    g.meta["witness_size"] = s**d
    return g


def finite_k_membership(g: OutMap) -> np.ndarray:
    """Per-site sublattice id: j in 1..k for V^(j), 0 for the filler set."""
    return _sublattice_labels(g.dom, g.meta["U"], g.meta["k"])


# ---- type-(c) rewiring --------------------------------------------------------------


def modify_type_c(g: OutMap) -> OutMap:
    """Redirect every vertex all of whose in-neighbors are leaves onto its
    least in-neighbor, creating a fresh miniloop there."""
    o = g.out_index
    n = len(o)
    src = np.where(o >= 0)[0]
    heads = o[src]
    total_in = np.bincount(heads, minlength=n)
    leaf = total_in == 0
    nonleaf_in = np.bincount(heads[~leaf[src]], minlength=n)
    min_in = np.full(n, n, dtype=np.int64)
    np.minimum.at(min_in, heads, src)
    qualify = (o >= 0) & (total_in >= 1) & (nonleaf_in == 0)
    new_out = o.copy()
    new_out[qualify] = min_in[qualify]
    res = OutMap(g.dom, new_out, active_margin=g.active_margin)
    res.meta = g.meta
    return res


# ---- generator specs ----------------------------------------------------------------


@dataclass(frozen=True)
class Realization:
    graph: OutMap
    weights: object  # WeightField or None
    meta: dict


# Shifts are drawn as int64 values in [0, 2^n), so the level n stops at 63.
MAX_LEVEL = 63


def _level(params: dict) -> int:
    n = params.get("n", 30)
    if type(n) is not int or not 0 <= n <= MAX_LEVEL:
        raise SpecError(f"level n must be an integer from 0 to {MAX_LEVEL}, got {n!r}")
    return n


# The parameters from_dict reads for each variant, and their kinds; a kind
# ending in "?" may be left out.  Other keys are kept as given.
_PARAMS = {
    "iid": {"domain": "domain"},
    "zerner_merkl": {"L": "int"},
    "dyadic": {"window": "box", "n": "int?", "Z": "ints?"},
    "layered": {"base": "spec", "layers": "int"},
    "finite_k": {"k": "int", "window": "box", "n": "int?"},
    "type_c": {"base": "spec"},
}


class GeneratorSpec:
    """JSON-round-trippable description of a random graph model."""

    VARIANTS = tuple(_PARAMS)

    def __init__(self, variant: str, /, **params):
        if variant not in self.VARIANTS:
            raise SpecError(f"unknown generator variant {variant!r}")
        self.variant = variant
        self.params = params

    # -- serialization --

    def to_dict(self) -> dict:
        def enc(v):
            if isinstance(v, GeneratorSpec):
                return v.to_dict()
            if isinstance(v, (Box, Torus)):
                return domain_to_dict(v)
            return v

        return {"variant": self.variant, **{k: enc(v) for k, v in self.params.items()}}

    @classmethod
    def from_dict(cls, doc: dict) -> "GeneratorSpec":
        """Decode a spec document; SpecError unless every parameter the
        variant reads is present (or optional) and of the right kind."""
        if not isinstance(doc, dict):
            raise SpecError(f"a generator spec must be a JSON object, got {doc!r}")
        doc = dict(doc)
        variant = doc.pop("variant", None)
        if variant is None:
            raise SpecError("generator document needs a 'variant' key")
        if variant not in cls.VARIANTS:
            raise SpecError(f"unknown generator variant {variant!r}")
        for key, kind in _PARAMS[variant].items():
            if key in doc:
                doc[key] = cls._decode(variant, key, kind.rstrip("?"), doc[key])
            elif not kind.endswith("?"):
                raise SpecError(f"{variant} spec needs {key!r}")
        return cls(variant, **doc)

    @classmethod
    def _decode(cls, variant: str, key: str, kind: str, v):
        if kind == "spec":
            if not isinstance(v, dict):
                raise SpecError(f"{variant} {key!r} must be a generator spec object, got {v!r}")
            return cls.from_dict(v)
        if kind in ("domain", "box"):
            dom = domain_from_dict(v)
            if kind == "box" and not isinstance(dom, Box):
                raise SpecError(f"{variant} {key!r} must be a box, got {v!r}")
            return dom
        if kind == "int" and type(v) is not int:
            raise SpecError(f"{variant} {key!r} must be an integer, got {v!r}")
        if kind == "ints" and not (isinstance(v, list) and all(type(c) is int for c in v)):
            raise SpecError(f"{variant} {key!r} must be a list of integers, got {v!r}")
        return v

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GeneratorSpec":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other):
        return isinstance(other, GeneratorSpec) and self.to_dict() == other.to_dict()

    def __repr__(self):
        return f"GeneratorSpec({self.to_json()})"

    # -- building --

    def build(self, seed: int) -> Realization:
        from .weights import sample_iid_uniform
        from .nngraph import build_nn_directed

        rng = SeededRng(seed).child("model", self.variant)
        p = self.params
        if self.variant == "iid":
            dom = p["domain"]
            w = sample_iid_uniform(dom, rng)
            return Realization(build_nn_directed(w), w, {})
        if self.variant == "zerner_merkl":
            g = gen_zerner_merkl(p["L"], rng)
            return Realization(g, None, {})
        if self.variant == "dyadic":
            n = _level(p)
            window = p["window"]
            Z = tuple(p["Z"]) if "Z" in p else sample_dyadic_shift(n, window, rng)
            return Realization(gen_dyadic_window(n, Z, window), None, {"Z": Z})
        if self.variant == "layered":
            base_spec: GeneratorSpec = p["base"]
            layers = p["layers"]
            mode = p.get("mode", "shared")
            if mode == "shared":
                base = base_spec.build(seed).graph
                g = gen_layered(base, layers)
            elif mode == "independent":
                bases = [
                    base_spec.build(int(SeededRng(seed).child("layer", l).integers(0, 2**62))).graph
                    for l in range(layers)
                ]
                g = gen_layered(bases, layers)
            else:
                raise SpecError(f"unknown layered mode {mode!r}")
            return Realization(g, None, {"mode": mode})
        if self.variant == "finite_k":
            g = gen_finite_k(p["k"], _level(p), p["window"], rng)
            return Realization(g, None, dict(g.meta))
        if self.variant == "type_c":
            inner = p["base"].build(seed)
            return Realization(modify_type_c(inner.graph), None, inner.meta)
        raise SpecError(f"unknown generator variant {self.variant!r}")
