"""Small deterministic SVG line/histogram plotter (no plotting dependency).

Renders polylines and step histograms with axes, 1-2-5 ticks and a text
legend.  Output is a pure function of the input data plus the package
version string in a comment, so replotting identical CSV data yields
identical files.
"""

from __future__ import annotations

import math

from . import __version__

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 34, 46


def _nice_ticks(lo: float, hi: float):
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo, hi]
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class Series:
    def __init__(self, x, y, label="", kind="line", dashed=False):
        self.x = list(map(float, x))
        self.y = list(map(float, y))
        self.label = label
        self.kind = kind  # "line" | "hist"
        self.dashed = dashed


def render(path, series, title="", xlabel="", ylabel=""):
    """Write a 720 x 480 SVG plot of the given series list to `path`."""
    width, height = 720, 480
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    if not xs:
        raise ValueError("nothing to plot")
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys + [0.0]), max(ys)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.04 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    pw = width - _MARGIN_L - _MARGIN_R
    ph = height - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - xlo) / (xhi - xlo) * pw

    def py(y):
        return _MARGIN_T + (yhi - y) / (yhi - ylo) * ph

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    out.append(f"<!-- trigcrystal {__version__} -->")
    out.append(f'<rect width="{width}" height="{height}" fill="white"/>')

    # axes box
    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>'
    )
    for t in _nice_ticks(xlo, xhi):
        if not xlo <= t <= xhi:
            continue
        x = px(t)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_T + ph}" x2="{x:.2f}" '
            f'y2="{_MARGIN_T + ph + 5}" stroke="#444444"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MARGIN_T + ph + 18}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{_fmt(t)}</text>'
        )
    for t in _nice_ticks(ylo, yhi):
        if not ylo <= t <= yhi:
            continue
        y = py(t)
        out.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" '
            f'y2="{y:.2f}" stroke="#444444"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{_fmt(t)}</text>'
        )

    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        dash = ' stroke-dasharray="5,4"' if s.dashed else ""
        if s.kind == "hist":
            pts = []
            for j in range(len(s.y)):
                pts.append((s.x[2 * j], s.y[j]))
                pts.append((s.x[2 * j + 1], s.y[j]))
        else:
            pts = list(zip(s.x, s.y))
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} '
            f'points="{coords}"/>'
        )

    if title:
        out.append(
            f'<text x="{width / 2:.0f}" y="20" font-size="14" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_L + pw / 2:.0f}" y="{height - 8}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="16" y="{_MARGIN_T + ph / 2:.0f}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'transform="rotate(-90 16 {_MARGIN_T + ph / 2:.0f})">{ylabel}</text>'
        )

    ly = _MARGIN_T + 14
    for i, s in enumerate(series):
        if not s.label:
            continue
        color = PALETTE[i % len(PALETTE)]
        lx = _MARGIN_L + pw - 10
        out.append(
            f'<text x="{lx}" y="{ly}" font-size="11" text-anchor="end" '
            f'font-family="sans-serif" fill="{color}">{s.label}</text>'
        )
        ly += 14

    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def hist_xy(edges, values):
    """Edge pairs for a step-histogram Series: x has 2*len(values) entries."""
    xs = []
    for j in range(len(values)):
        xs.append(edges[j])
        xs.append(edges[j + 1])
    return xs, list(values)
