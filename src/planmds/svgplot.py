"""Minimal SVG scatter / band plots with a viridis-style ramp, no dependencies.

Colours are computed for a whole value array at once, and the mark lines are
formatted from one %-template per chunk of rows (core.CHUNK_ROWS).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .core import _chunks

SIZE = 640   # width and height of every plot, in pixels

_RAMP = np.array([
    (0x44, 0x01, 0x54),
    (0x47, 0x2d, 0x7b),
    (0x3b, 0x52, 0x8b),
    (0x2c, 0x72, 0x8e),
    (0x21, 0x91, 0x8c),
    (0x28, 0xae, 0x80),
    (0x5e, 0xc9, 0x62),
    (0xad, 0xdc, 0x30),
    (0xfd, 0xe7, 0x25),
], dtype=float)


def color_of(t) -> np.ndarray:
    """RGB channels (n, 3) of the 9-stop ramp at each value of t, clipped to [0, 1].

    Between two stops each channel is (1 - frac) * a + frac * b, rounded
    half to even.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    if np.isnan(t).any():
        raise ValueError("cannot colour NaN")
    pos = np.clip(t, 0.0, 1.0) * (len(_RAMP) - 1)
    lo = pos.astype(int)
    hi = np.minimum(lo + 1, len(_RAMP) - 1)
    frac = (pos - lo)[:, None]
    return np.rint((1 - frac) * _RAMP[lo] + frac * _RAMP[hi]).astype(int)


def _normalize(vals: np.ndarray) -> np.ndarray:
    lo = float(np.min(vals))
    hi = float(np.max(vals))
    if hi - lo < 1e-300:
        return np.full(vals.shape, 0.5)
    return (vals - lo) / (hi - lo)


def _cells(*columns) -> np.ndarray:
    """The columns side by side, each value a Python float or int: %02x takes only ints."""
    return np.array(columns, dtype=object).T


def _title(title: str, fill: str = "") -> list:
    if not title:
        return []
    return [f'<text x="{SIZE / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14"{fill}>{title}</text>\n']


def _write_svg(path, body) -> None:
    """Write one plot: the SIZE x SIZE <svg> frame on a white background around body,
    an iterable of text blocks of whole lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
                 f'viewBox="0 0 {SIZE} {SIZE}">\n'
                 f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>\n')
        fh.writelines(body)
        fh.write("</svg>\n")


def scatter_svg(path, points, values, title: str = "") -> None:
    """Scatter of 2-d points colored by a scalar value per point."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float).reshape(-1)
    pad = 0.08 * SIZE
    span = SIZE - 2 * pad
    lo = points.min(axis=0)
    extent = np.maximum(points.max(axis=0) - lo, 1e-12)
    scale = span / float(np.max(extent))
    xy = (points - lo) * scale + pad
    xy[:, 1] = SIZE - xy[:, 1]  # flip so larger x2 is up
    rgb = color_of(_normalize(values))
    circles = _chunks('<circle cx="%.2f" cy="%.2f" r="3.0" fill="#%02x%02x%02x"/>\n',
                      _cells(xy[:, 0], xy[:, 1], *rgb.T))
    _write_svg(path, chain(_title(title), circles))


def levelset_svg(path, grid, resolution: int, title: str = "") -> None:
    """Band rendering of a level-set grid: cells colored by the selected
    minimizer, nodes with multiple global minimizers marked in black."""
    lams = np.array([lam for _, lam, _ in grid])
    counts = np.array([count for _, _, count in grid])
    rgb = color_of(_normalize(lams))
    cell = SIZE / resolution
    k = np.arange(len(grid))
    px = k // resolution * cell              # x1 index (row-major over x1 then x2)
    py = SIZE - (k % resolution + 1) * cell  # x2 index
    rects = _chunks(f'<rect x="%.2f" y="%.2f" width="{cell + 0.5:.2f}" '
                    f'height="{cell + 0.5:.2f}" fill="#%02x%02x%02x"/>\n',
                    _cells(px, py, *rgb.T))
    multiple = counts >= 2
    marks = _chunks(f'<circle cx="%.2f" cy="%.2f" r="{max(cell / 4, 1.0):.2f}" fill="black"/>\n',
                    np.column_stack([px[multiple] + cell / 2, py[multiple] + cell / 2]))
    _write_svg(path, chain(rects, marks, _title(title, ' fill="white"')))
