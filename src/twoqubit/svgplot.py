"""Minimal dependency-free SVG 1.1 line plots of Schmidt strength against
an edge parameter.

Good enough for one-figure research plots: axes, tick labels, polylines
and a legend. Output is a deterministic function of the data.
"""
from __future__ import annotations

import numpy as np

from .linops import chunks

__all__ = ["line_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_DASHES = ("none", "6,4", "2,3", "8,3,2,3")

_WIDTH = 640
_HEIGHT = 480
_MARGIN_L = 64
_MARGIN_R = 24
_MARGIN_T = 36
_MARGIN_B = 48


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_plot(f, series, title: str) -> None:
    """Write (label, parameter array, Schmidt strength array) series as an SVG
    document into the open text file ``f``. Each curve's points are formatted
    and written ``linops.CHUNK`` at a time, so the document is never held whole."""
    series = [(label, np.asarray(x, dtype=float), np.asarray(y, dtype=float))
              for label, x, y in series]
    x_lo, x_hi = (float(op([op(x) for _, x, _ in series])) for op in (np.min, np.max))
    y_lo, y_hi = (float(op([op(y) for _, _, y in series])) for op in (np.min, np.max))
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # Pixel coordinates of values or arrays: numpy's float64 operations round
    # as Python's, so an array gives each value's pixel bit for bit.
    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    def put(line: str) -> None:
        f.write(line + "\n")

    put('<?xml version="1.0" encoding="UTF-8"?>')
    put(f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">')
    put(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    put(f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_esc(title)}</text>')
    # axes
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    put(f'<path d="M {x0} {_MARGIN_T} L {x0} {y0} L {x0 + plot_w} {y0}" '
        'fill="none" stroke="black" stroke-width="1"/>')
    for t in np.linspace(x_lo, x_hi, 5):
        x = px(t)
        put(f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 5}" stroke="black"/>')
        put(f'<text x="{x:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:.3g}</text>')
    for t in np.linspace(y_lo, y_hi, 5):
        y = py(t)
        put(f'<line x1="{x0 - 5}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="black"/>')
        put(f'<text x="{x0 - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:.3g}</text>')
    put(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        "parameter (rad)</text>")
    put(f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">Schmidt strength</text>')
    # curves, each written a chunk of points at a time
    for k, (label, x, y) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        dash = _DASHES[k % len(_DASHES)]
        f.write('<polyline points="')
        for r in chunks(len(x)):
            points = (" ".join(["%.2f,%.2f"] * (r.stop - r.start))
                      % tuple(np.column_stack([px(x[r]), py(y[r])]).ravel().tolist()))
            f.write(" " + points if r.start else points)
        dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
        put(f'" fill="none" stroke="{color}" stroke-width="1.5"{dash_attr}/>')
    # legend
    lx = _MARGIN_L + plot_w - 110
    ly = _MARGIN_T + 10
    for k, (label, _, _) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        y = ly + 16 * k
        put(f'<line x1="{lx}" y1="{y}" x2="{lx + 22}" y2="{y}" '
            f'stroke="{color}" stroke-width="1.5"/>')
        put(f'<text x="{lx + 28}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="11">{_esc(str(label))}</text>')
    put("</svg>")
