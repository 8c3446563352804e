"""Reference computations the benchmark checks nnlab's outputs against.

Nothing here calls nnlab.  The file parsers, the nearest-neighbor argmin,
the dyadic rule, the cycle and component counts and the census aggregate are
all recomputed from the raw numbers, so a fault in the program cannot make
its own check pass.  Every check returns a list of problems; an empty list
means the output is right.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

SVG_NS = "{http://www.w3.org/2000/svg}"
SITE_DOT_RADIUS = "1.5"  # the export draws every lattice site as a dot of this radius


class Lattice:
    """A box or torus with row-major flat site indices."""

    def __init__(self, lo, shape, wraps: bool):
        self.lo = np.asarray(lo, dtype=np.int64)
        self.shape = np.asarray(shape, dtype=np.int64)
        self.wraps = wraps
        self.d = len(self.shape)
        self.n = int(np.prod(self.shape))
        self.strides = np.cumprod(np.concatenate([[1], self.shape[::-1][:-1]]))[::-1]
        self._coords = None

    @classmethod
    def from_doc(cls, doc: dict) -> "Lattice":
        if doc["kind"] == "torus":
            return cls([0] * len(doc["sides"]), doc["sides"], True)
        lo, hi = np.asarray(doc["lo"]), np.asarray(doc["hi"])
        return cls(lo, hi - lo + 1, False)

    def flat(self, coords: np.ndarray) -> np.ndarray:
        return ((np.asarray(coords, dtype=np.int64) - self.lo) * self.strides).sum(axis=-1)

    def coords(self) -> np.ndarray:
        """(n, d) coordinates in flat-index order."""
        if self._coords is None:
            self._coords = np.indices(tuple(self.shape)).reshape(self.d, -1).T + self.lo
        return self._coords

    def step(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Per pair of flat indices, the displacement src -> dst, reduced to the
        shortest representative on a torus."""
        c = self.coords()
        dv = c[dst] - c[src]
        if self.wraps:
            dv = (dv + self.shape // 2) % self.shape - self.shape // 2
        return dv

    def adjacent(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        return np.abs(self.step(src, dst)).sum(axis=1) == 1

    def n_edges(self) -> int:
        if self.wraps:
            return self.d * self.n
        return int(sum(self.n // s * (s - 1) for s in self.shape))

    def on_face(self) -> np.ndarray:
        c = self.coords() - self.lo
        return np.any((c == 0) | (c == self.shape - 1), axis=1)


# ---- files ---------------------------------------------------------------------------


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def parse_graph(path) -> tuple:
    """graph.jsonl -> (lattice, out) with out[i] the flat target of site i or -1.
    Raises ValueError on a site with two out-edges."""
    lines = Path(path).read_text().splitlines()
    lat = Lattice.from_doc(json.loads(lines[0])["domain"])
    edges = np.asarray(json.loads("[" + ",".join(ln for ln in lines[1:] if ln) + "]"),
                       dtype=np.int64).reshape(-1, 2, lat.d)
    src, dst = lat.flat(edges[:, 0]), lat.flat(edges[:, 1])
    if len(np.unique(src)) != len(src):
        raise ValueError("a site has two out-edges")
    out = np.full(lat.n, -1, dtype=np.int64)
    out[src] = dst
    return lat, out


def parse_weights(path) -> tuple:
    """weights.csv -> (lattice, a, b, w): flat endpoints and the exact weight of
    every edge listed."""
    lines = Path(path).read_text().splitlines()
    lat = Lattice.from_doc(json.loads(lines[0])["domain"])
    rows = [ln.split(",") for ln in lines[1:] if ln]
    d = lat.d
    ends = np.asarray([[int(c) for c in r[: 2 * d]] for r in rows], dtype=np.int64).reshape(-1, 2, d)
    w = np.asarray([float.fromhex(r[2 * d]) for r in rows])
    return lat, lat.flat(ends[:, 0]), lat.flat(ends[:, 1]), w


def svg_counts(path) -> tuple:
    """(number of <line> elements, number of site dots) of an SVG file; raises
    ET.ParseError when the file is not well-formed XML."""
    lines = dots = 0
    for _, el in ET.iterparse(path):
        if el.tag == SVG_NS + "line":
            lines += 1
        elif el.tag == SVG_NS + "circle" and el.get("r") == SITE_DOT_RADIUS:
            dots += 1
        el.clear()
    return lines, dots


# ---- graph rules -----------------------------------------------------------------------


def argmin_targets(lat: Lattice, a, b, w) -> np.ndarray:
    """Per site, the neighbor across its least incident weight (-1 if none)."""
    site = np.concatenate([a, b])
    other = np.concatenate([b, a])
    ww = np.concatenate([w, w])
    order = np.lexsort((ww, site))
    site, other = site[order], other[order]
    first = np.ones(len(site), dtype=bool)
    first[1:] = site[1:] != site[:-1]
    out = np.full(lat.n, -1, dtype=np.int64)
    out[site[first]] = other[first]
    return out


def dyadic_targets(lat: Lattice, Z) -> np.ndarray:
    """The dyadic rule x -> x - e_i on the window shifted by Z: i is the last
    axis among those where the shifted coordinate has the fewest trailing
    zero bits.  Targets outside the window are dropped (-1)."""
    c = lat.coords()
    y = c + np.asarray(Z, dtype=np.int64)
    low = y & -y  # lowest set bit; 0 for a zero coordinate
    tz = np.where(low > 0, np.log2(np.maximum(low, 1)).round().astype(np.int64), 10**6)
    least = tz == tz.min(axis=1, keepdims=True)
    axis = lat.d - 1 - np.argmax(least[:, ::-1], axis=1)
    tgt = c.copy()
    tgt[np.arange(lat.n), axis] -= 1
    inside = np.all((tgt >= lat.lo) & (tgt < lat.lo + lat.shape), axis=1)
    return np.where(inside, lat.flat(tgt), -1)


def weight_problems(lat: Lattice, a, b, w) -> list:
    """Every lattice edge weighted exactly once, all weights distinct."""
    probs = []
    key = np.minimum(a, b) * lat.n + np.maximum(a, b)
    if len(np.unique(key)) != len(key) or len(key) != lat.n_edges():
        probs.append(f"weights cover {len(np.unique(key))} distinct edges of {lat.n_edges()}")
    if not np.all(lat.adjacent(a, b)):
        probs.append("a weighted pair is not a lattice edge")
    if len(np.unique(w)) != len(w):
        probs.append("weights are not distinct")
    return probs


def cycle_summary(out: np.ndarray) -> dict:
    """Sinks, directed cycles (2-cycles included) and the cycle label of every
    site of an out-degree <= 1 map, by pointer doubling.

    A sink is treated as a fixed point, so every weak component of the map
    holds exactly one sink or one cycle.  After 2^k >= n doublings every site
    has reached its cycle; the least index met on the way labels the cycle.
    """
    n = len(out)
    idx = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)
    f = np.where(out >= 0, out, idx).astype(idx.dtype)
    reach = f.copy()
    least = np.minimum(idx, f)
    for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 1):
        least = np.minimum(least, least[reach])
        reach = reach[reach]
    on_cycle = np.zeros(n, dtype=bool)
    on_cycle[reach] = True
    label = np.where(on_cycle, least, -1)
    lengths = np.bincount(label[on_cycle], minlength=n)
    sinks = int((out < 0).sum())
    return {
        "sinks": sinks,
        "cycles": int((lengths > 0).sum()) - sinks,
        "two_cycles": int((lengths == 2).sum()),
        "on_cycle": on_cycle,
        "label": label,
    }


def winding_problems(lat: Lattice, out: np.ndarray) -> list:
    """Every directed cycle of a torus map must have nonzero total displacement."""
    cyc = cycle_summary(out)
    nodes = np.where(cyc["on_cycle"] & (out >= 0))[0]
    disp = lat.step(nodes, out[nodes])
    total = np.zeros((lat.n, lat.d), dtype=np.int64)
    np.add.at(total, cyc["label"][nodes], disp)
    heads = np.unique(cyc["label"][nodes])
    flat = heads[np.all(total[heads] == 0, axis=1)]
    return [f"{len(flat)} directed cycles do not wind"] if len(flat) else []


def components(out: np.ndarray) -> np.ndarray:
    """Weak-component label per site of an out-degree <= 1 map."""
    n = len(out)
    src = np.where(out >= 0)[0]
    mat = coo_matrix((np.ones(len(src), dtype=np.int8), (src, out[src])), shape=(n, n))
    return connected_components(mat, directed=False)[1]


# ---- census -------------------------------------------------------------------------------


def census_record_problems(rec: dict, n_sites: int, out: np.ndarray) -> list:
    """One census record against the realization it describes."""
    probs = []
    hist = {int(k): int(v) for k, v in rec["size_histogram"].items()}
    if sum(k * v for k, v in hist.items()) != n_sites:
        probs.append(f"seed {rec['seed']}: histogram covers {sum(k * v for k, v in hist.items())} "
                     f"sites of {n_sites}")
    if sum(hist.values()) != rec["n_components"]:
        probs.append(f"seed {rec['seed']}: histogram counts {sum(hist.values())} components, "
                     f"record says {rec['n_components']}")
    cyc = cycle_summary(out)
    if rec["n_components"] != cyc["sinks"] + cyc["cycles"]:
        probs.append(f"seed {rec['seed']}: {rec['n_components']} components, but "
                     f"{cyc['sinks']} sinks + {cyc['cycles']} cycles")
    if rec["miniloop_count"] != cyc["two_cycles"]:
        probs.append(f"seed {rec['seed']}: miniloop_count {rec['miniloop_count']}, "
                     f"counted {cyc['two_cycles']}")
    if rec["wrapping_count"] == 0 and rec["structure_pass_rate"] != 1.0:
        probs.append(f"seed {rec['seed']}: structure_pass_rate {rec['structure_pass_rate']} "
                     f"without winding components")
    return probs


def aggregate_of(records: list) -> dict:
    """The census summary recomputed from the per-seed records."""
    counts = Counter(r["system_span_count"] for r in records)
    top = max(counts.values())
    return {
        "seeds": len(records),
        "system_span_counts": {str(v): c for v, c in sorted(counts.items())},
        "modal_count": min(v for v, c in counts.items() if c == top),
        "modal_fraction": top / len(records),
        "max_wrapping": max(r["wrapping_count"] for r in records),
        "max_spanning": max(r["spanning_count"] for r in records),
    }


def unique_mode(values: list):
    """The strictly most frequent value, or None on a tie or no values."""
    ranked = Counter(values).most_common(2)
    if not ranked or (len(ranked) == 2 and ranked[0][1] == ranked[1][1]):
        return None
    return ranked[0][0]
