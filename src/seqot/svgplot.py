"""Minimal SVG line plot emitter for experiment reports.

No plotting dependency: figures are inspection aids, not contracts.  Output is
a deterministic function of the input series.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 420
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, n: int = 5):
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


def line_plot_svg(series: dict, title: str = "") -> str:
    """Render named series as polylines with point markers, axes and a legend.

    ``series`` maps a label to a pair (xs, ys) of equal-length sequences.
    """
    margin_l, margin_r, margin_t, margin_b = 60, 20, 36, 44
    width, height = WIDTH, HEIGHT
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    pts = [(float(x), float(y)) for xs, ys in series.values()
           for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
    if pts:
        xlo = min(p[0] for p in pts)
        xhi = max(p[0] for p in pts)
        ylo = min(p[1] for p in pts)
        yhi = max(p[1] for p in pts)
    else:
        xlo, xhi, ylo, yhi = 0.0, 1.0, 0.0, 1.0
    if xhi <= xlo:
        xhi = xlo + 1.0
    if yhi <= ylo:
        yhi = ylo + 1.0
    pad = 0.04 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def sx(x):
        return margin_l + (x - xlo) / (xhi - xlo) * plot_w

    def sy(y):
        return margin_t + (1.0 - (y - ylo) / (yhi - ylo)) * plot_h

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    if title:
        out.append(f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" '
                   f'font-size="13">{title}</text>')
    # axes
    out.append(f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
               f'y2="{margin_t + plot_h}" stroke="black"/>')
    out.append(f'<line x1="{margin_l}" y1="{margin_t + plot_h}" '
               f'x2="{margin_l + plot_w}" y2="{margin_t + plot_h}" stroke="black"/>')
    for t in _ticks(xlo, xhi):
        out.append(f'<line x1="{sx(t):.1f}" y1="{margin_t + plot_h}" x2="{sx(t):.1f}" '
                   f'y2="{margin_t + plot_h + 4}" stroke="black"/>')
        out.append(f'<text x="{sx(t):.1f}" y="{margin_t + plot_h + 16}" '
                   f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(ylo, yhi):
        out.append(f'<line x1="{margin_l - 4}" y1="{sy(t):.1f}" x2="{margin_l}" '
                   f'y2="{sy(t):.1f}" stroke="black"/>')
        out.append(f'<text x="{margin_l - 8}" y="{sy(t) + 3:.1f}" '
                   f'text-anchor="end">{_fmt(t)}</text>')
    # series
    for idx, (label, (xs, ys)) in enumerate(series.items()):
        color = PALETTE[idx % len(PALETTE)]
        coords = [(sx(float(x)), sy(float(y))) for x, y in zip(xs, ys)
                  if math.isfinite(float(x)) and math.isfinite(float(y))]
        if len(coords) > 1:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        for x, y in coords:
            out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" fill="{color}"/>')
        out.append(f'<text x="{margin_l + plot_w - 6}" y="{margin_t + 14 + 14 * idx}" '
                   f'text-anchor="end" fill="{color}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out)
