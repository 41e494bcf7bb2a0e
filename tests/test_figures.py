import numpy as np
import pytest

from scoremorph.figures import Band, render_svg


def per_point_render_svg(band, title="", width=640, height=480):
    """Reference: the renderer that scales every coordinate on its own,
    one numpy scalar call per point."""
    ml, mr, mt, mb = 50, 15, 30, 40
    x_lo, x_hi = float(band.axis.min()), float(band.axis.max())
    y_all = np.concatenate([band.y, band.lower, band.upper])
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    pad = 0.05 * max(y_hi - y_lo, 1e-12)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def scale(values, lo, hi, out_lo, out_hi):
        span = hi - lo
        if span <= 0:
            span = 1.0
        return out_lo + (values - lo) / span * (out_hi - out_lo)

    def px(v):
        return scale(np.asarray(v, dtype=float), x_lo, x_hi, ml, width - mr)

    def py(v):
        return scale(np.asarray(v, dtype=float), y_lo, y_hi, height - mb, mt)

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
    for i in range(band.axis.shape[0]):
        out.append(f'<circle cx="{px(band.axis[i]):.2f}" '
                   f'cy="{py(band.y[i]):.2f}" r="2" fill="#333333" '
                   'fill-opacity="0.7"/>')
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
    if title:
        out.append(f'<text x="{width / 2:.1f}" y="18" font-size="13" '
                   f'text-anchor="middle">{title}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def make_band(axis, rng):
    axis = np.sort(np.asarray(axis, dtype=float))
    center = rng.normal(size=axis.size)
    half = rng.uniform(0.1, 2.0, size=axis.size)
    return Band(axis, center, center - half, center + half,
                center + rng.normal(size=axis.size))


@pytest.mark.parametrize("axis_kind", ["uniform", "wide", "constant"])
def test_render_svg_matches_per_point_renderer(axis_kind):
    # the coordinates are scaled as whole arrays; every byte must match the
    # renderer that scales each point alone. A constant axis takes the
    # span <= 0 branch of the scaling
    rng = np.random.default_rng(21)
    axis = {"uniform": rng.uniform(-1.0, 1.0, 3000),
            "wide": rng.normal(scale=1e6, size=500) + 1e9,
            "constant": np.full(200, 0.25)}[axis_kind]
    band = make_band(axis, rng)
    assert render_svg(band, "linear alpha=0.1") == per_point_render_svg(
        band, "linear alpha=0.1")
