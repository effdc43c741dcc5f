"""Self-contained SVG line charts; a deterministic function of the data.

Non-finite points are dropped, and a chart with no finite point draws its
empty frame on [0, 1].  Each polyline's pixels come from the maps px and py
of the ticks applied to whole arrays, which gives each point the double the
map gives it alone; its points are written by _decimal.format_f2, an exact
'%.2f' on arrays, with ',' after each x and ' ' between points.  The title,
the axis labels and the series labels are XML-escaped.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ._decimal import format_f2

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f")
_W, _H = 880, 520
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _text(s: str) -> str:
    """s escaped for an XML text node."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_line_chart(series: Sequence[Tuple[np.ndarray, np.ndarray, str]],
                      title: str = "", xlabel: str = "t",
                      ylabel: str = "") -> str:
    """Render (x, y, label) triples as one SVG document string."""
    finite = []
    for xs, ys, _ in series:
        xs = np.asarray(xs, float)
        ys = np.asarray(ys, float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        finite.append((xs[ok], ys[ok]))
    xs_all = np.concatenate([np.zeros(0)] + [f[0] for f in finite])
    ys_all = np.concatenate([np.zeros(0)] + [f[1] for f in finite])
    if xs_all.size == 0:  # no finite point: the empty frame on [0, 1]
        xs_all = ys_all = np.array([0.0, 1.0])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x):  # a float or an array
        return _ML + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return _MT + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="16">{_text(title)}</text>')
    for xv in np.linspace(x_lo, x_hi, 6):
        xp = px(xv)
        parts.append(f'<line x1="{xp:.2f}" y1="{_MT + ph}" x2="{xp:.2f}" '
                     f'y2="{_MT + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{xp:.2f}" y="{_MT + ph + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_fmt(xv)}</text>')
    for yv in np.linspace(y_lo, y_hi, 6):
        yp = py(yv)
        parts.append(f'<line x1="{_ML - 5}" y1="{yp:.2f}" x2="{_ML}" '
                     f'y2="{yp:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{yp + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(yv)}</text>')
    parts.append(f'<text x="{_ML + pw / 2:.1f}" y="{_H - 10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{_text(xlabel)}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{_MT + ph / 2:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="13" '
                     f'transform="rotate(-90 16 {_MT + ph / 2:.1f})">{_text(ylabel)}</text>')
    legend_y = _MT + 14
    for i, ((xs, ys), (_, _, label)) in enumerate(zip(finite, series)):
        color = _PALETTE[i % len(_PALETTE)]
        if xs.size >= 2:
            xy = np.column_stack((px(xs), py(ys))).ravel()
            seps = np.frombuffer(b", " * (xs.size - 1) + b",\0", np.uint8)
            pts = format_f2(xy, seps).decode()
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="1.4"/>')
        if label:
            parts.append(f'<line x1="{_ML + pw - 150}" y1="{legend_y:.1f}" '
                         f'x2="{_ML + pw - 125}" y2="{legend_y:.1f}" '
                         f'stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{_ML + pw - 120}" y="{legend_y + 4:.1f}" '
                         f'font-family="sans-serif" font-size="11">{_text(label)}</text>')
            legend_y += 16
    parts.append("</svg>")
    return "\n".join(parts)
