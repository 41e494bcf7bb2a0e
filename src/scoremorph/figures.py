"""Interval-band figures: band computation plus a minimal SVG scatter plot.

A band takes its points' ``fam.loc_batch`` values, not their attributes;
the SVG is assembled by hand so identical inputs give byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import half_widths
from .transforms import TransformFamily


@dataclass(frozen=True)
class Band:
    """Interval band sampled at data points, sorted by the axis coordinate."""

    axis: np.ndarray
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    y: np.ndarray


def compute_band(fam: TransformFamily, center, locs, axis_values, y,
                 q_hat: float) -> Band:
    """Evaluate [f(x) - D(x), f(x) + D(x)] at every point, sorted by axis;
    ``center`` holds the point predictions f(x) at the points and ``locs``
    their localizer values ``fam.loc_batch``."""
    axis_values = np.asarray(axis_values, dtype=float)
    center = np.asarray(center, dtype=float)
    half = half_widths(fam, q_hat, locs)
    order = np.argsort(axis_values, kind="stable")
    return Band(axis_values[order], center[order], (center - half)[order],
                (center + half)[order], np.asarray(y, dtype=float)[order])


def band_csv(band: Band) -> str:
    lines = ["# scoremorph band format_version=1", "axis,center,lower,upper"]
    cells = np.column_stack([band.axis, band.center, band.lower, band.upper])
    lines.extend(",".join(map(repr, row)) for row in cells.tolist())
    return "\n".join(lines) + "\n"


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span <= 0:
        span = 1.0
    return out_lo + (values - lo) / span * (out_hi - out_lo)


def render_svg(band: Band, title: str) -> str:
    """640x480 scatter of (axis, y) with the shaded interval band, the
    center line and ``title``."""
    width, height = 640, 480
    ml, mr, mt, mb = 50, 15, 30, 40
    x_lo, x_hi = float(band.axis.min()), float(band.axis.max())
    y_all = np.concatenate([band.y, band.lower, band.upper])
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    pad = 0.05 * max(y_hi - y_lo, 1e-12)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    # one array pass per coordinate, formatted from Python floats
    def px(v):
        return _scale(np.asarray(v, dtype=float), x_lo, x_hi, ml,
                      width - mr).tolist()

    def py(v):
        return _scale(np.asarray(v, dtype=float), y_lo, y_hi, height - mb,
                      mt).tolist()

    def pts(xv, yv):
        return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px(xv), py(yv)))

    band_points = (pts(band.axis, band.upper) + " "
                   + pts(band.axis[::-1], band.lower[::-1]))
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<!-- scoremorph figure format_version=1 -->',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<polygon points="{band_points}" fill="#9ecae1" fill-opacity="0.6" '
        'stroke="none"/>',
        f'<polyline points="{pts(band.axis, band.center)}" fill="none" '
        'stroke="#08519c" stroke-width="1.5"/>',
    ]
    out.extend(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2" fill="#333333" '
               'fill-opacity="0.7"/>'
               for cx, cy in zip(px(band.axis), py(band.y)))
    # axes with min/max tick labels
    out.append(f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
               f'y2="{height - mb}" stroke="black"/>')
    out.append(f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
               'stroke="black"/>')
    out.append(f'<text x="{ml}" y="{height - mb + 16}" font-size="11" '
               f'text-anchor="middle">{x_lo:.3g}</text>')
    out.append(f'<text x="{width - mr}" y="{height - mb + 16}" font-size="11" '
               f'text-anchor="middle">{x_hi:.3g}</text>')
    out.append(f'<text x="{ml - 6}" y="{height - mb}" font-size="11" '
               f'text-anchor="end">{y_lo:.3g}</text>')
    out.append(f'<text x="{ml - 6}" y="{mt + 4}" font-size="11" '
               f'text-anchor="end">{y_hi:.3g}</text>')
    out.append(f'<text x="{width / 2:.1f}" y="18" font-size="13" '
               f'text-anchor="middle">{title}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
