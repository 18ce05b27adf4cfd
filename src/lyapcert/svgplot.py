"""Small standalone SVG writer for log-scale line plots and scatter panels.

Data line series map one-to-one onto <polyline> elements; axes, ticks and
legend swatches use <line>, scatter points use <circle class="pt">, so files
stay easy to assert on.  No external renderer is involved.  Pixel positions
are computed on whole series and each series is formatted with one ``%``;
non-finite points are left out and do not set the axis ranges.

A line keeps at most four points per pixel column: of each maximal run of
consecutive points whose x falls in one column (the floor of its pixel x),
the first, lowest, highest and last, in index order (the M4 rule of Jugel
et al., VLDB 2014), so the drawn line is the same at the plot's resolution.
A series over its index therefore keeps at most 4 * 383 points, whatever
its length.  Each panel is drawn once, also when it goes to its own file
and to a file of all panels.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._files import whole_file

_PANEL_WIDTH = 460
_PANEL_HEIGHT = 340
_FLOOR = 1e-16  # line-log panels draw values below this at this value
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass
class Series:
    """One named curve (line panels: y over x; scatter panels: x/y points)."""

    label: str
    y: np.ndarray
    x: Optional[np.ndarray] = None


@dataclass
class Panel:
    """A titled plot area; kind is 'line-log' or 'scatter'."""

    title: str
    series: Sequence[Series]
    kind: str = "line-log"
    xlabel: str = "iteration"
    ylabel: str = ""
    unit_circle: bool = False


def render_svg(panels: Sequence[Panel], path, panel_paths: Sequence = ()) -> None:
    """Render panels into one standalone SVG file, a grid two panels wide.

    ``panel_paths``, if given, names one more file per panel, which holds
    that panel alone.  Every panel is checked before any file is opened and
    then drawn once, its text written to ``path`` and to its own file; only
    one panel's text is held at a time, and the files appear only when all
    of them are complete.
    """
    panels = list(panels)
    panel_paths = list(panel_paths)
    if not panels:
        raise ValueError("at least one panel required")
    if not any(len(p.series) for p in panels):
        raise ValueError("at least one series required")
    if panel_paths and len(panel_paths) != len(panels):
        raise ValueError("panel_paths needs one path per panel")
    for p in panels:
        if p.kind not in ("line-log", "scatter"):
            raise ValueError(f"unknown panel kind {p.kind!r}")
        if any(s.x is not None and len(s.x) != len(s.y) for s in p.series):
            raise ValueError("a series needs as many x values as y values")
        if p.kind == "scatter" and any(s.x is None for s in p.series):
            raise ValueError("scatter series need explicit x values")
    cols = min(2, len(panels))
    with ExitStack() as files:
        fh = files.enter_context(whole_file(path))
        own = [files.enter_context(whole_file(p)) for p in panel_paths]
        print(_svg_open(cols, (len(panels) + cols - 1) // cols), file=fh)
        for i, p in enumerate(panels):
            draw = _line_log_panel if p.kind == "line-log" else _scatter_panel
            body = "\n".join(draw(p, _PANEL_WIDTH, _PANEL_HEIGHT))
            tx = (i % cols) * _PANEL_WIDTH
            ty = (i // cols) * _PANEL_HEIGHT
            print(f'<g class="panel" transform="translate({tx},{ty})">', body, "</g>",
                  sep="\n", file=fh)
            if own:
                print(_svg_open(1, 1), '<g class="panel" transform="translate(0,0)">', body,
                      "</g>", "</svg>", sep="\n", file=own[i])
        print("</svg>", file=fh)


def _svg_open(cols: int, rows: int) -> str:
    width = cols * _PANEL_WIDTH
    height = rows * _PANEL_HEIGHT
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}" font-family="Helvetica, Arial, sans-serif">\n'
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')


def _frame(p: Panel, w: int, h: int, left: int, right: int, top: int, bottom: int):
    x0, y0 = left, top
    x1, y1 = w - right, h - bottom
    out = [
        f'<text x="{w / 2:.1f}" y="18" text-anchor="middle" font-size="14">{_esc(p.title)}</text>',
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="#333" stroke-width="1"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#333" stroke-width="1"/>',
    ]
    if p.xlabel:
        out.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{h - 6}" text-anchor="middle" '
                   f'font-size="11" fill="#333">{_esc(p.xlabel)}</text>')
    if p.ylabel:
        out.append(f'<text x="14" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" font-size="11" '
                   f'fill="#333" transform="rotate(-90 14 {(y0 + y1) / 2:.1f})">{_esc(p.ylabel)}</text>')
    return out, (x0, y0, x1, y1)


def _legend(series, x1: int, y0: int):
    out = []
    for j, s in enumerate(series):
        color = _COLORS[j % len(_COLORS)]
        ly = y0 + 14 + 15 * j
        out.append(f'<line x1="{x1 - 120}" y1="{ly}" x2="{x1 - 102}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{x1 - 97}" y="{ly + 4}" font-size="11" fill="#333">'
                   f'{_esc(s.label)}</text>')
    return out


def _line_log_panel(p: Panel, w: int, h: int):
    out, box = _frame(p, w, h, left=64, right=14, top=28, bottom=40)
    x0, y0, x1, y1 = box
    ymin, ymax = math.inf, -math.inf
    xmax = 1.0
    clipped = []
    for s in p.series:
        y = np.asarray(s.y, dtype=float)
        x = np.arange(y.shape[0], dtype=float) if s.x is None else np.asarray(s.x, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)  # a non-finite point is not drawn
        x, y = x[keep], np.maximum(y[keep], _FLOOR)
        clipped.append((s.label, x, y))
        if y.size:
            ymin = min(ymin, float(y.min()))
            ymax = max(ymax, float(y.max()))
            xmax = max(xmax, float(x.max()))
    if not math.isfinite(ymin):
        ymin, ymax = _FLOOR, 1.0
    lo = math.floor(math.log10(ymin))
    hi = math.ceil(math.log10(ymax))
    if hi <= lo:
        hi = lo + 1
    decades = range(lo, hi + 1, max(1, (hi - lo + 7) // 8))
    for e, yy in zip(decades, _py(np.array([10.0 ** e for e in decades]), box, lo, hi)):
        out.append(f'<line x1="{x0 - 4}" y1="{yy:.2f}" x2="{x0}" y2="{yy:.2f}" stroke="#333"/>')
        out.append(f'<text x="{x0 - 7}" y="{yy + 4:.2f}" text-anchor="end" font-size="10" '
                   f'fill="#333">1e{e}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = xmax * frac
        xx = _px(xv, box, xmax)
        out.append(f'<line x1="{xx:.2f}" y1="{y1}" x2="{xx:.2f}" y2="{y1 + 4}" stroke="#333"/>')
        out.append(f'<text x="{xx:.2f}" y="{y1 + 15}" text-anchor="middle" font-size="10" '
                   f'fill="#333">{xv:.6g}</text>')
    for j, (label, x, y) in enumerate(clipped):
        color = _COLORS[j % len(_COLORS)]
        keep = _m4(np.floor(_px(x, box, xmax)), y)
        pts = _polyline_points(x[keep], y[keep], box, lo, hi, xmax)
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
    out.extend(_legend(p.series, x1, y0))
    return out


def _px(x, box, xmax: float):
    x0, _, x1, _ = box
    return x0 + (x1 - x0) * (x / max(xmax, 1e-300))


def _py(v: np.ndarray, box, lo: int, hi: int) -> np.ndarray:
    # math.log10 per value: np.log10 may differ in the last ulp
    _, y0, _, y1 = box
    logs = np.fromiter(map(math.log10, v.tolist()), dtype=float, count=v.shape[0])
    return y1 - (y1 - y0) * ((logs - lo) / (hi - lo))


def _m4(col: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the points a line keeps: of each maximal run of consecutive
    points with one pixel column ``col``, the first, lowest, highest and last
    (the first of equal values), in index order; a run of at most four points
    is kept whole."""
    n = col.shape[0]
    if n <= 4:
        return np.arange(n)
    starts = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
    lengths = np.diff(np.r_[starts, n])
    run = np.repeat(np.arange(starts.shape[0]), lengths)
    keep = np.repeat(lengths <= 4, lengths)
    keep[starts] = True
    keep[starts + lengths - 1] = True
    for extreme in (np.minimum, np.maximum):
        hits = np.flatnonzero(y == np.repeat(extreme.reduceat(y, starts), lengths))
        keep[hits[np.r_[True, run[hits[1:]] != run[hits[:-1]]]]] = True
    return np.flatnonzero(keep)


def _polyline_points(x: np.ndarray, y: np.ndarray, box, lo: int, hi: int, xmax: float) -> str:
    """``x,y`` pixel pairs of a log-y polyline, one ``%`` for the whole series."""
    xy = np.column_stack([_px(x, box, xmax), _py(y, box, lo, hi)])
    return " ".join(["%.2f,%.2f"] * x.shape[0]) % tuple(xy.ravel().tolist())


def _scatter_panel(p: Panel, w: int, h: int):
    out, (x0, y0, x1, y1) = _frame(p, w, h, left=64, right=14, top=28, bottom=40)
    r = 0.0
    points = []
    for s in p.series:
        xv = np.asarray(s.x, dtype=float)
        yv = np.asarray(s.y, dtype=float)
        keep = np.isfinite(xv) & np.isfinite(yv)  # a non-finite point is not drawn
        xv, yv = xv[keep], yv[keep]
        points.append((xv, yv))
        if xv.size:
            r = max(r, float(np.abs(xv).max()), float(np.abs(yv).max()))
    if p.unit_circle:
        r = max(r, 1.0)
    r = r * 1.1 if r > 0 else 1.0
    side = min(x1 - x0, y1 - y0)
    cx = x0 + (x1 - x0) / 2.0
    cy = y0 + (y1 - y0) / 2.0
    scale = side / (2.0 * r)

    def px(v):
        return cx + v * scale

    def py(v):
        return cy - v * scale

    out.append(f'<line x1="{px(-r):.2f}" y1="{cy:.2f}" x2="{px(r):.2f}" y2="{cy:.2f}" '
               f'stroke="#bbb" stroke-width="1"/>')
    out.append(f'<line x1="{cx:.2f}" y1="{py(-r):.2f}" x2="{cx:.2f}" y2="{py(r):.2f}" '
               f'stroke="#bbb" stroke-width="1"/>')
    if p.unit_circle:
        out.append(f'<circle class="ref" cx="{cx:.2f}" cy="{cy:.2f}" r="{scale:.2f}" '
                   f'fill="none" stroke="#999" stroke-dasharray="4 3"/>')
    for tick in (-1.0, -0.5, 0.5, 1.0):
        if abs(tick) <= r:
            out.append(f'<text x="{px(tick):.2f}" y="{cy + 14:.2f}" text-anchor="middle" '
                       f'font-size="10" fill="#333">{tick:g}</text>')
    for j, (xv, yv) in enumerate(points):
        if xv.size:
            out.append(_circles(xv, yv, cx, cy, scale, _COLORS[j % len(_COLORS)]))
    out.extend(_legend(p.series, x1, y0))
    return out


def _circles(x: np.ndarray, y: np.ndarray, cx: float, cy: float, scale: float, color: str) -> str:
    """The ``<circle class="pt">`` lines of a scatter series, one ``%`` for all."""
    circle = f'<circle class="pt" cx="%.2f" cy="%.2f" r="3" fill="{color}" fill-opacity="0.75"/>'
    xy = np.column_stack([cx + x * scale, cy - y * scale])
    return "\n".join([circle] * x.shape[0]) % tuple(xy.ravel().tolist())
