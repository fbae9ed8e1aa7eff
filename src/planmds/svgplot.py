"""Minimal SVG scatter / band plots with a viridis-style ramp, no dependencies."""

from __future__ import annotations

import numpy as np

SIZE = 640   # width and height of every plot, in pixels

_RAMP = [
    (0x44, 0x01, 0x54),
    (0x47, 0x2d, 0x7b),
    (0x3b, 0x52, 0x8b),
    (0x2c, 0x72, 0x8e),
    (0x21, 0x91, 0x8c),
    (0x28, 0xae, 0x80),
    (0x5e, 0xc9, 0x62),
    (0xad, 0xdc, 0x30),
    (0xfd, 0xe7, 0x25),
]


def color_of(t: float) -> str:
    """Hex color from the 9-stop ramp, t clipped to [0, 1]."""
    t = min(max(float(t), 0.0), 1.0)
    pos = t * (len(_RAMP) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(_RAMP) - 1)
    frac = pos - lo
    rgb = [round((1 - frac) * a + frac * b) for a, b in zip(_RAMP[lo], _RAMP[hi])]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _normalize(vals: np.ndarray) -> np.ndarray:
    lo = float(np.min(vals))
    hi = float(np.max(vals))
    if hi - lo < 1e-300:
        return np.full(vals.shape, 0.5)
    return (vals - lo) / (hi - lo)


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
    t = _normalize(values)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]
    if title:
        lines.append(f'<text x="{SIZE / 2:.0f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title}</text>')
    for (px, py), tv in zip(xy, t):
        lines.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.0" '
                     f'fill="{color_of(tv)}"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def levelset_svg(path, grid, resolution: int, title: str = "") -> None:
    """Band rendering of a level-set grid: cells colored by the selected
    minimizer, nodes with multiple global minimizers marked in black."""
    lams = np.array([lam for _, lam, _ in grid])
    t = _normalize(lams)
    cell = SIZE / resolution
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]
    marks = []
    for k, ((_, _, count), tv) in enumerate(zip(grid, t)):
        r = k // resolution   # x1 index (row-major over x1 then x2)
        c = k % resolution    # x2 index
        px = r * cell
        py = SIZE - (c + 1) * cell
        lines.append(f'<rect x="{px:.2f}" y="{py:.2f}" width="{cell + 0.5:.2f}" '
                     f'height="{cell + 0.5:.2f}" fill="{color_of(tv)}"/>')
        if count >= 2:
            marks.append(f'<circle cx="{px + cell / 2:.2f}" cy="{py + cell / 2:.2f}" '
                         f'r="{max(cell / 4, 1.0):.2f}" fill="black"/>')
    lines.extend(marks)
    if title:
        lines.append(f'<text x="{SIZE / 2:.0f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14" fill="white">{title}</text>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
