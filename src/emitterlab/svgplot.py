"""Minimal built-in SVG line and heatmap writer.

Plots are a viewing convenience, never an analysis surface; no external
renderer is used.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 36, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, n: int = 5) -> list:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s * mag for s in (1, 2, 2.5, 5, 10) if s * mag >= raw)
    first = np.ceil(lo / step) * step
    return list(np.arange(first, hi + 0.5 * step, step))


def _axes(xlo, xhi, ylo, yhi, title, xlabel, ylabel):
    pw, ph = _W - _ML - _MR, _H - _MT - _MB
    # a single point or a constant series gets a unit span around it
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5

    def sx(x):
        return _ML + (x - xlo) / (xhi - xlo) * pw

    def sy(y):
        return _MT + ph - (y - ylo) / (yhi - ylo) * ph

    parts = [
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#333" stroke-width="1"/>',
        f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_ML + pw / 2:.0f}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_MT + ph / 2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_MT + ph / 2:.0f})">{ylabel}</text>',
    ]
    for t in _ticks(xlo, xhi):
        parts.append(
            f'<line x1="{sx(t):.1f}" y1="{_MT + ph}" x2="{sx(t):.1f}" '
            f'y2="{_MT + ph + 4}" stroke="#333"/>'
            f'<text x="{sx(t):.1f}" y="{_MT + ph + 16}" text-anchor="middle" '
            f'font-size="10">{t:g}</text>'
        )
    for t in _ticks(ylo, yhi):
        parts.append(
            f'<line x1="{_ML - 4}" y1="{sy(t):.1f}" x2="{_ML}" y2="{sy(t):.1f}" '
            'stroke="#333"/>'
            f'<text x="{_ML - 6}" y="{sy(t):.1f}" text-anchor="end" '
            f'font-size="10" dy="3">{t:g}</text>'
        )
    return parts, sx, sy


def _document(parts, comment="") -> str:
    body = "\n".join(parts)
    head = f"<!-- {comment} -->\n" if comment else ""
    return (
        f"{head}"
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'font-family="sans-serif">\n<rect width="{_W}" height="{_H}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def line_plot(path, x, ys, labels=(), title="", xlabel="x", ylabel="y",
              comment="") -> None:
    """Write a polyline plot of one or more series sharing the x axis."""
    x = np.asarray(x, dtype=float)
    series = [np.asarray(y, dtype=float) for y in ys]
    ylo = min(float(np.min(y)) for y in series)
    yhi = max(float(np.max(y)) for y in series)
    pad = 0.05 * (yhi - ylo)
    parts, sx, sy = _axes(float(x[0]), float(x[-1]), ylo - pad, yhi + pad,
                          title, xlabel, ylabel)
    for k, y in enumerate(series):
        pts = " ".join(f"{sx(xi):.2f},{sy(yi):.2f}" for xi, yi in zip(x, y))
        color = _COLORS[k % len(_COLORS)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if k < len(labels):
            parts.append(
                f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 14 * k}" text-anchor="end" '
                f'font-size="11" fill="{color}">{labels[k]}</text>'
            )
    Path(path).write_text(_document(parts, comment), encoding="utf-8")


def heatmap(path, x, y, z, title="", xlabel="x", ylabel="y", comment="") -> None:
    """Write a grayscale-to-viridis-ish heatmap of z[i, j] over (y[i], x[j])."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    zlo, zhi = float(np.min(z)), float(np.max(z))
    span = zhi - zlo if zhi > zlo else 1.0
    parts, sx, sy = _axes(float(x[0]), float(x[-1]), float(y[0]), float(y[-1]),
                          title, xlabel, ylabel)
    # grid spacing; a single point or zero-width grid gets the unit span of _axes
    dx = (x[-1] - x[0]) / (len(x) - 1) if x[-1] != x[0] else 1.0
    dy = (y[-1] - y[0]) / (len(y) - 1) if y[-1] != y[0] else 1.0
    cells = []
    for i in range(len(y)):
        for j in range(len(x)):
            v = (z[i, j] - zlo) / span
            r = int(255 * min(1.0, 3.0 * v))
            g = int(255 * min(1.0, max(0.0, 3.0 * v - 1.0)))
            b = int(255 * min(1.0, max(0.0, 3.0 * v - 2.0)))
            x0 = sx(x[j] - 0.5 * dx)
            y0 = sy(y[i] + 0.5 * dy)
            cells.append(
                f'<rect x="{x0:.1f}" y="{y0:.1f}" '
                f'width="{abs(sx(dx) - sx(0)):.2f}" height="{abs(sy(0) - sy(dy)):.2f}" '
                f'fill="rgb({r},{g},{b})"/>'
            )
    parts = cells + parts
    Path(path).write_text(_document(parts, comment), encoding="utf-8")
