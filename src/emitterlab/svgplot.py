"""Minimal built-in SVG line and heatmap writer.

Plots are a viewing convenience, never an analysis surface; no external
renderer is used.  A heatmap embeds its grid as one PNG raster with one
pixel per grid cell, written with uncompressed (stored) zlib blocks so its
bytes do not depend on the zlib build.
"""

from __future__ import annotations

import base64
import struct
import zlib
from pathlib import Path

import numpy as np

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 36, 50


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


def line_plot(path, x, y, title="", xlabel="x", ylabel="y", comment="") -> None:
    """Write a polyline plot of y over x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ylo, yhi = float(np.min(y)), float(np.max(y))
    pad = 0.05 * (yhi - ylo)
    parts, sx, sy = _axes(float(x[0]), float(x[-1]), ylo - pad, yhi + pad,
                          title, xlabel, ylabel)
    pts = " ".join(f"{sx(xi):.2f},{sy(yi):.2f}" for xi, yi in zip(x, y))
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
    )
    Path(path).write_text(_document(parts, comment), encoding="utf-8")


def _png(rgb: np.ndarray) -> bytes:
    """An 8-bit RGB PNG of an (h, w, 3) uint8 array.

    The zlib stream's stored blocks are cut here: ``zlib.compress`` at level 0
    cuts them by buffer sizes that vary with the zlib build.
    """
    h, w, _ = rgb.shape
    # each scanline starts with filter byte 0 (none)
    raw = np.hstack([np.zeros((h, 1), np.uint8), rgb.reshape(h, 3 * w)]).tobytes()
    blocks = [raw[i:i + 0xFFFF] for i in range(0, len(raw), 0xFFFF)]
    stream = b"\x78\x01" + b"".join(
        struct.pack("<BHH", k == len(blocks) - 1, len(b), len(b) ^ 0xFFFF) + b
        for k, b in enumerate(blocks)
    ) + struct.pack(">I", zlib.adler32(raw))

    def chunk(kind: bytes, data: bytes) -> bytes:
        crc = zlib.crc32(kind + data)
        return struct.pack(">I", len(data)) + kind + data + struct.pack(">I", crc)

    return (b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", stream) + chunk(b"IEND", b""))


def heatmap(path, x, y, z, title="", xlabel="x", ylabel="y", comment="") -> None:
    """Write a black-red-yellow-white heatmap of z[i, j] over (y[i], x[j])."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    zlo, zhi = float(np.min(z)), float(np.max(z))
    span = zhi - zlo if zhi > zlo else 1.0
    # grid spacing; a single point or zero-width grid gets a unit cell
    dx = (x[-1] - x[0]) / (len(x) - 1) if x[-1] != x[0] else 1.0
    dy = (y[-1] - y[0]) / (len(y) - 1) if y[-1] != y[0] else 1.0
    # the axes reach half a cell past the end cells' centres, so the raster
    # fills the plot frame exactly
    parts, _, _ = _axes(x[0] - 0.5 * dx, x[-1] + 0.5 * dx, y[0] - 0.5 * dy,
                        y[-1] + 0.5 * dy, title, xlabel, ylabel)
    # channel k = floor(255 clip(3v - k, 0, 1)); PNG rows run down, y runs up
    v = (z[::-1, :, None] - zlo) / span
    rgb = np.floor(255 * np.clip(3.0 * v - np.arange(3.0), 0.0, 1.0)).astype(np.uint8)
    png = base64.b64encode(_png(rgb)).decode("ascii")
    image = (
        f'<image x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" preserveAspectRatio="none" '
        f'image-rendering="pixelated" href="data:image/png;base64,{png}"/>'
    )
    Path(path).write_text(_document([image] + parts, comment), encoding="utf-8")
