"""Deterministic SVG rendering of d=2 graphs and region classifications."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import UnsupportedDimensionError
from .nngraph import OutMap, undirected_components
from .serialize import format_rows
from .topology import RegionClassification

_SCALE = 24
_PAD = 20


def _palette(i: int) -> str:
    hue = (i * 137) % 360
    return f"hsl({hue},65%,48%)"


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _geometry(dom):
    if dom.d != 2:
        raise UnsupportedDimensionError("SVG export renders d=2 only")
    w = dom.shape[0] * _SCALE + 2 * _PAD
    h = dom.shape[1] * _SCALE + 2 * _PAD

    def pos(idx):
        """Pixel positions of the sites at the flat indices idx."""
        col, row = np.unravel_index(idx, dom.shape)
        return col * _SCALE + _PAD, h - (row * _SCALE + _PAD)

    return w, h, pos


def _format_each(values: np.ndarray, fmt) -> np.ndarray:
    """fmt applied once per distinct value, spread back over the array's shape."""
    uniq, inv = np.unique(values, return_inverse=True)
    return np.array([fmt(v) for v in uniq.tolist()], dtype=object)[inv.reshape(values.shape)]


def _document(w, h, rows, defs: str = "") -> str:
    """An SVG document of the given size: defs, a white background, then rows."""
    return "".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n',
        defs,
        f'<rect width="{w}" height="{h}" fill="white"/>\n',
        *rows,
        "</svg>",
    ])


def render_outmap_svg(g: OutMap) -> str:
    """Arrows on the lattice, components colored by label; wrap edges dashed."""
    w, h, pos = _geometry(g.dom)
    return _document(w, h, _outmap_rows(g, pos))


def _outmap_rows(g: OutMap, pos) -> list:
    """The edge and site elements, as blocks of lines; the arrays behind them
    are freed before the caller joins the blocks."""
    dom = g.dom
    px, py = pos(np.arange(dom.n_sites))
    src, dst = g.edge_arrays()
    x0, y0 = px[src].astype(np.float64), py[src].astype(np.float64)
    x1, y1 = px[dst].astype(np.float64), py[dst].astype(np.float64)
    seam = dom.seam_codes(src, dst)
    dashed = seam != 0
    # seam edge: draw a stub in the step direction instead of a chord
    s = seam[dashed]
    x1[dashed] = x0[dashed] + np.sign(s) * (np.abs(s) == 1) * _SCALE * 0.45
    y1[dashed] = y0[dashed] - np.sign(s) * (np.abs(s) == 2) * _SCALE * 0.45
    mx, my = x0 + 0.75 * (x1 - x0), y0 + 0.75 * (y1 - y0)
    x0, y0, x1, y1, mx, my = _format_each(np.stack([x0, y0, x1, y1, mx, my]), _fmt)
    color = _format_each(undirected_components(g).labels[src], _palette)
    dash = np.array(["", ' stroke-dasharray="3 2"'], dtype=object)[dashed.astype(np.int64)]
    edge = ('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="1.6"%s/>\n'
            '<circle cx="%s" cy="%s" r="2.2" fill="%s"/>\n')
    dot = '<circle cx="%s" cy="%s" r="1.5" fill="#222"/>\n'
    return [
        *format_rows(edge, [x0, y0, x1, y1, color, dash, mx, my, color]),
        *format_rows(dot, list(_format_each(np.stack([px, py]), _fmt))),
    ]


_REGION_FILL = {"a": None, "b": "url(#hatch)", "c": "url(#crosshatch)"}
_HATCHES = (
    "<defs>"
    '<pattern id="hatch" width="6" height="6" patternUnits="userSpaceOnUse">'
    '<path d="M0,6 L6,0" stroke="#555" stroke-width="1"/></pattern>'
    '<pattern id="crosshatch" width="6" height="6" patternUnits="userSpaceOnUse">'
    '<path d="M0,6 L6,0 M0,0 L6,6" stroke="#555" stroke-width="1"/></pattern>'
    "</defs>\n"
)


def render_regions_svg(rc: RegionClassification) -> str:
    """Type (a) regions shaded per component, (b)/(c) hatched."""
    w, h, pos = _geometry(rc.window)
    order = np.argsort(rc.region_id, kind="stable")  # region by region, each in flat order
    fills = np.array([_REGION_FILL[r.kind] or _palette(r.rid) for r in rc.regions], dtype=object)
    fill = fills[rc.region_id[order]]
    x, y = _format_each(np.stack(pos(order)) - _SCALE // 2, _fmt)
    rect = (f'<rect x="%s" y="%s" width="{_SCALE}" height="{_SCALE}" '
            'fill="%s" fill-opacity="0.55"/>\n')
    return _document(w, h, format_rows(rect, [x, y, fill]), _HATCHES)


def write_svg(text: str, path):
    with Path(path).open("w") as fh:
        fh.write(text)
        fh.write("\n")
