"""Minimal self-contained SVG line charts for quick-look figures.

Deliberately tiny: polylines on a linear or log-log frame with axis
ticks, enough to eyeball a sweep without any plotting dependency.  A log
axis plots values below 1e-16 at 1e-16, so a quantity that decays to
rounding noise or to zero still draws.
"""

from __future__ import annotations

import numpy as np

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_LOG_FLOOR = 1e-16
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def line_chart(path, series, *, title: str, x_label: str, y_label: str,
               log_x: bool, log_y: bool) -> None:
    """Write an SVG with one polyline per (label, x, y) triple in series."""
    def tx(v):
        return np.log10(v) if log_x else np.asarray(v, dtype=float)

    def ty(v):
        return (np.log10(np.maximum(v, _LOG_FLOOR)) if log_y
                else np.asarray(v, dtype=float))

    xs = np.concatenate([tx(np.asarray(s[1], dtype=float)) for s in series])
    ys = np.concatenate([ty(np.asarray(s[2], dtype=float)) for s in series])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 - x0 < 1e-12:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-12:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(v):
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
           f'height="{_H}" font-family="monospace" font-size="11">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle" '
           f'font-size="13">{title}</text>']
    # frame and ticks
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
               f'height="{_H - _MT - _MB}" fill="none" stroke="#444"/>')
    for v in np.linspace(x0, x1, 6):
        p = px(v)
        label = f"{10**v:.3g}" if log_x else f"{v:.3g}"
        out.append(f'<line x1="{p:.1f}" y1="{_H - _MB}" x2="{p:.1f}" '
                   f'y2="{_H - _MB + 5}" stroke="#444"/>')
        out.append(f'<text x="{p:.1f}" y="{_H - _MB + 18}" '
                   f'text-anchor="middle">{label}</text>')
    for v in np.linspace(y0, y1, 6):
        p = py(v)
        label = f"{10**v:.3g}" if log_y else f"{v:.3g}"
        out.append(f'<line x1="{_ML - 5}" y1="{p:.1f}" x2="{_ML}" '
                   f'y2="{p:.1f}" stroke="#444"/>')
        out.append(f'<text x="{_ML - 8}" y="{p + 4:.1f}" '
                   f'text-anchor="end">{label}</text>')
    out.append(f'<text x="{_W / 2:.0f}" y="{_H - 12}" '
               f'text-anchor="middle">{x_label}</text>')
    out.append(f'<text x="16" y="{_H / 2:.0f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {_H / 2:.0f})">{y_label}</text>')
    for idx, (label, x, y) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{px(a):.1f},{py(b):.1f}"
                       for a, b in zip(tx(np.asarray(x, dtype=float)),
                                       ty(np.asarray(y, dtype=float))))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        out.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 14 * idx}" '
                   f'text-anchor="end" fill="{color}">{label}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out))
