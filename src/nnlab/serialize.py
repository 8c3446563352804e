"""Deterministic on-disk formats: graphs as JSON lines, weights as hex-float
CSV (bit-exact reload), manifests with config hashes."""

from __future__ import annotations

import hashlib
import json
import re
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import SpecError
from .lattice import Box, Torus
from .nngraph import OutMap
from .weights import WeightField


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def domain_to_dict(dom) -> dict:
    if isinstance(dom, Box):
        return {"kind": "box", "lo": list(dom.lo), "hi": list(dom.hi)}
    if isinstance(dom, Torus):
        return {"kind": "torus", "sides": list(dom.sides)}
    raise SpecError(f"unknown domain {dom!r}")


def domain_from_dict(doc: dict):
    def ints(key):
        vals = doc.get(key)
        if not isinstance(vals, list) or not all(type(c) is int for c in vals):
            raise SpecError(f"domain field {key!r} must be a list of integers, got {vals!r}")
        return tuple(vals)

    if not isinstance(doc, dict):
        raise SpecError(f"unknown domain document {doc!r}")
    if doc.get("kind") == "box":
        return Box(ints("lo"), ints("hi"))
    if doc.get("kind") == "torus":
        return Torus(ints("sides"))
    raise SpecError(f"unknown domain document {doc!r}")


# ---- chunked line I/O ---------------------------------------------------------------

# Lines per read or formatted block: no file is ever held as one Python object
# per token, which keeps peak memory flat in the file size.
CHUNK = 4096


def format_rows(template: str, columns) -> Iterator[str]:
    """``template % row`` for each row of equal-length columns, CHUNK rows per
    yielded string."""
    for k in range(0, len(columns[0]), CHUNK):
        cols = [c[k : k + CHUNK] for c in columns]
        cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in cols]
        yield template * len(cols[0]) % tuple(chain.from_iterable(zip(*cols)))


def _read_header(fh, path) -> dict:
    try:
        header = json.loads(fh.readline())
    except json.JSONDecodeError as err:
        raise SpecError(f"{path}, line 1: bad header ({err})") from None
    if not isinstance(header, dict) or "domain" not in header:
        raise SpecError(f"{path}, line 1: header must be an object with a 'domain' field")
    return header


def _read_chunks(fh, path, parse, expected: str):
    """Yield ``parse(lines)`` over the non-blank lines of successive CHUNK-line
    blocks of fh.  ``parse`` raises ValueError or OverflowError on a malformed
    block; the first bad line is then found and named."""
    lineno = 2  # the header is line 1
    while lines := list(islice(fh, CHUNK)):
        kept = [ln for ln in lines if not ln.isspace()] if any(map(str.isspace, lines)) else lines
        if kept:
            try:
                parsed = parse(kept)
            except (ValueError, OverflowError):
                raise _bad_line(path, lines, lineno, parse, expected) from None
            yield parsed
        lineno += len(lines)


def _bad_line(path, lines, lineno, parse, expected) -> SpecError:
    for k, line in enumerate(lines):
        try:
            if not line.isspace():
                parse([line])
        except (ValueError, OverflowError):
            return SpecError(f"{path}, line {lineno + k}: expected {expected}, "
                             f"got {line.strip()[:60]!r}")
    return SpecError(f"{path}, lines {lineno}-{lineno + len(lines) - 1}: expected {expected}")


# ---- OutMap as JSON lines -----------------------------------------------------------


def _edge_template(d: int) -> str:
    site = ",".join(["%d"] * d)
    return f"[[{site}],[{site}]]\n"


_JSON_BLANKS = str.maketrans("", "", " \t\r")
_SPLIT_DIGITS = re.compile(r"[-\d][ \t\r]+\d")


def _parse_edge_lines(lines: list, d: int) -> np.ndarray:
    """(m, 2d) int64 coordinates of m edge lines.

    A line is accepted when, with JSON whitespace removed, it is exactly the
    writer's canonical ``[[x...],[y...]]`` for the integers it holds.
    """
    text = "".join(lines)
    if not text.endswith("\n"):
        text += "\n"
    if " " in text or "\t" in text or "\r" in text:
        if _SPLIT_DIGITS.search(text):
            raise ValueError("whitespace inside a number")
        text = text.translate(_JSON_BLANKS)
    tokens = text.replace("[", " ").replace("]", " ").replace(",", " ").split()
    if len(tokens) != 2 * d * len(lines):
        raise ValueError("wrong number of coordinates")
    cells = np.array(tokens, dtype=np.int64).reshape(-1, 2 * d)
    if "".join(format_rows(_edge_template(d), cells.T)) != text:
        raise ValueError("not an edge line")
    return cells


def write_outmap_jsonl(g: OutMap, path):
    """First line: the domain (and active margin); then one directed edge per
    line as [[from...], [to...]] in lexicographic order."""
    path = Path(path)
    dom = g.dom
    coords = dom.index_coords()
    src, dst = g.edge_arrays()
    template = _edge_template(dom.d)
    with path.open("w") as fh:
        header = {"domain": domain_to_dict(dom), "active_margin": g.active_margin}
        fh.write(canonical_json(header) + "\n")
        fh.writelines(format_rows(template, [*coords[src].T, *coords[dst].T]))


def read_outmap_jsonl(path) -> OutMap:
    """Strict reader: raises SpecError or DomainError on any line that is not an
    in-domain edge between adjacent sites, or on a site with two out-edges."""
    path = Path(path)
    with path.open() as fh:
        header = _read_header(fh, path)
        dom = domain_from_dict(header["domain"])
        margin = header.get("active_margin", 0)
        if type(margin) is not int or margin < 0:
            raise SpecError(f"{path}: active_margin must be a nonnegative integer")
        d = dom.d
        ends = [
            (dom.coords_index(c[:, :d]), dom.coords_index(c[:, d:]))
            for c in _read_chunks(fh, path, lambda ls: _parse_edge_lines(ls, d),
                                  f"an edge [[x1..x{d}],[y1..y{d}]] with integer coordinates")
        ]
    src = np.concatenate([np.zeros(0, dtype=np.int64)] + [a for a, _ in ends])
    dst = np.concatenate([np.zeros(0, dtype=np.int64)] + [b for _, b in ends])
    twice = np.bincount(src, minlength=dom.n_sites) > 1
    if twice.any():
        raise SpecError(f"vertex {dom.index_site(int(np.argmax(twice)))} has two out-edges in {path}")
    out = np.full(dom.n_sites, -1, dtype=np.int64)
    out[src] = dst
    return OutMap(dom, out, active_margin=margin)


# ---- WeightField as CSV --------------------------------------------------------------


def _parse_weight_rows(lines: list, d: int) -> tuple:
    """(m, 2d) int64 endpoint coordinates and the m weights of m CSV rows."""
    commas = np.fromiter(map(str.count, lines, repeat(",")), dtype=np.int64, count=len(lines))
    if np.any(commas != 2 * d):
        raise ValueError("wrong number of cells")
    text = "".join(lines)
    if not text.endswith("\n"):
        text += "\n"
    cells = text.replace("\n", ",").split(",")[:-1]
    hexes = cells[2 * d :: 2 * d + 1]
    del cells[2 * d :: 2 * d + 1]
    coords = np.array(cells, dtype=np.int64).reshape(-1, 2 * d)
    return coords, np.fromiter(map(float.fromhex, hexes), dtype=np.float64, count=len(hexes))


def write_weights_csv(w: WeightField, path):
    """Columns: 2d endpoint coordinates then the weight as a hex float, one row
    per edge in lexicographic order of the (smaller, larger) endpoint pair."""
    path = Path(path)
    dom = w.dom
    d = dom.d
    coords = dom.index_coords()
    lo, hi, vals = [], [], []
    for a in range(d):
        fwd = dom.neighbor_index(a, +1)
        base = np.flatnonzero(fwd >= 0)
        lo.append(np.minimum(base, fwd[base]))
        hi.append(np.maximum(base, fwd[base]))
        vals.append(w.axis_weights(a)[base])
    lo, hi, vals = np.concatenate(lo), np.concatenate(hi), np.concatenate(vals)
    order = np.lexsort((hi, lo))  # flat order of sites is lexicographic order
    site = ",".join(["%d"] * d)
    template = f"{site},{site},%s\n"
    with path.open("w") as fh:
        fh.write(canonical_json({"domain": domain_to_dict(dom)}) + "\n")
        for k in range(0, len(order), CHUNK):
            rows = order[k : k + CHUNK]
            hexes = list(map(float.hex, vals[rows].tolist()))
            fh.writelines(format_rows(template, [*coords[lo[rows]].T, *coords[hi[rows]].T, hexes]))


def read_weights_csv(path) -> WeightField:
    """Strict reader: every edge of the domain exactly once, with a finite weight."""
    path = Path(path)
    with path.open() as fh:
        dom = domain_from_dict(_read_header(fh, path)["domain"])
        d, n = dom.d, dom.n_sites
        values = np.full((d, n), np.nan)
        slots = []
        for coords, vals in _read_chunks(
            fh, path, lambda ls: _parse_weight_rows(ls, d),
            f"{2 * d} integer coordinates and a hex-float weight",
        ):
            a, b = dom.coords_index(coords[:, :d]), dom.coords_index(coords[:, d:])
            base, axis = dom.edge_slots(a, b)
            bad = ~np.isfinite(vals)
            if bad.any():
                k = int(np.argmax(bad))
                e = (tuple(coords[k, :d].tolist()), tuple(coords[k, d:].tolist()))
                raise SpecError(f"weight of edge {e} is not finite in {path}")
            values[axis, base] = vals
            slots.append(axis * n + base)
    counts = np.bincount(np.concatenate([np.zeros(0, dtype=np.int64)] + slots), minlength=d * n)
    if np.any(counts > 1):
        axis, base = divmod(int(np.argmax(counts > 1)), n)
        e = (dom.index_site(base), dom.index_site(int(dom.neighbor_index(axis, +1)[base])))
        raise SpecError(f"edge {e} has two weights in {path}")
    return WeightField(dom, values)


# ---- manifests -----------------------------------------------------------------------


def write_manifest(path, config: dict, outputs: dict, extra: dict | None = None):
    from . import __version__

    doc = {
        "config": config,
        "spec_hash": sha256_text(canonical_json(config)),
        "code_version": __version__,
        "outputs": outputs,
    }
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return doc


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
