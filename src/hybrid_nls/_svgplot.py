"""Tiny dependency-free SVG line plots.

Just enough for the command-line reports: polylines on a linear x axis
and a linear or log y axis, ticks, labels, and a legend.  Output is
deterministic text (no ids, no timestamps) so emitted files are
reproducible byte for byte.
"""

from __future__ import annotations

import math

__all__ = ["render_lines"]

_PALETTE = ("#1f6feb", "#d1242f", "#1a7f37", "#8250df", "#bf8700", "#57606a")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 40, 56  # margins: left, right, top, bottom


def _escape(text: str) -> str:
    """``xml.sax.saxutils.escape`` without its import chain: &, < and >."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_step(span: float, target: int = 5) -> float:
    raw = span / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0):
        if m * mag >= raw:
            return m * mag
    return 10.0 * mag


def _linear_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.ceil(math.log10(lo) - 1e-9)
    hi_e = math.floor(math.log10(hi) + 1e-9)
    exps = list(range(lo_e, hi_e + 1))
    while len(exps) > 8:  # keep decade labels readable
        exps = exps[::2]
    return [10.0**e for e in exps]


def _fmt_tick(v: float) -> str:
    if v != 0.0 and (abs(v) >= 1e4 or abs(v) < 1e-3):
        return f"{v:.0e}"
    return f"{v:g}"


def _fmt_coord(v: float) -> str:
    return f"{v:.2f}"


def render_lines(series, *, title: str = "", xlabel: str = "",
                 ylabel: str = "", ylog: bool = False) -> str:
    """Render labelled (x, y) polylines to an SVG document string.

    ``series`` is an iterable of ``(label, xs, ys)``; the x axis is
    linear.  On a log y axis, points with nonpositive y are dropped (the
    far tail of an exponentially decaying profile underflows to zero).
    """
    pts_by_series: list[tuple[str, list[tuple[float, float]]]] = []
    for label, xs, ys in series:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)
               if (not ylog or y > 0.0) and math.isfinite(x) and math.isfinite(y)]
        pts_by_series.append((str(label), pts))

    all_pts = [p for _, pts in pts_by_series for p in pts]
    if not all_pts:
        raise ValueError("nothing to plot after axis filtering")

    def span(vals, log):
        lo, hi = min(vals), max(vals)
        if hi <= lo:
            pad = abs(lo) * 0.5 + 1.0 if not log else None
            if log:
                lo, hi = lo / 2.0, hi * 2.0
            else:
                lo, hi = lo - pad, hi + pad
        elif not log:
            pad = 0.05 * (hi - lo)
            lo, hi = lo - pad, hi + pad
        return lo, hi

    x_lo, x_hi = span([p[0] for p in all_pts], False)
    y_lo, y_hi = span([p[1] for p in all_pts], ylog)

    def to_px(v, lo, hi, log, a, b):
        if log:
            t = (math.log10(v) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
        else:
            t = (v - lo) / (hi - lo)
        return a + t * (b - a)

    def px(x):
        return to_px(x, x_lo, x_hi, False, _ML, _W - _MR)

    def py(y):
        return to_px(y, y_lo, y_hi, ylog, _H - _MB, _MT)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{_W // 2}" y="24" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="15">{_escape(title)}</text>')

    # axes box
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
               f'height="{_H - _MT - _MB}" fill="none" stroke="#333" '
               f'stroke-width="1"/>')

    x_ticks = _linear_ticks(x_lo, x_hi)
    y_ticks = _log_ticks(y_lo, y_hi) if ylog else _linear_ticks(y_lo, y_hi)
    for t in x_ticks:
        X = px(t)
        out.append(f'<line x1="{_fmt_coord(X)}" y1="{_H - _MB}" '
                   f'x2="{_fmt_coord(X)}" y2="{_H - _MB + 5}" stroke="#333"/>')
        out.append(f'<text x="{_fmt_coord(X)}" y="{_H - _MB + 20}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt_tick(t)}</text>')
    for t in y_ticks:
        Y = py(t)
        out.append(f'<line x1="{_ML - 5}" y1="{_fmt_coord(Y)}" '
                   f'x2="{_ML}" y2="{_fmt_coord(Y)}" stroke="#333"/>')
        out.append(f'<text x="{_ML - 8}" y="{_fmt_coord(Y)}" text-anchor="end" '
                   f'dominant-baseline="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt_tick(t)}</text>')
    if xlabel:
        out.append(f'<text x="{(_ML + _W - _MR) // 2}" y="{_H - 14}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="13">{_escape(xlabel)}</text>')
    if ylabel:
        yc = (_MT + _H - _MB) // 2
        out.append(f'<text x="18" y="{yc}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="13" '
                   f'transform="rotate(-90 18 {yc})">{_escape(ylabel)}</text>')

    for k, (label, pts) in enumerate(pts_by_series):
        if not pts:
            continue
        color = _PALETTE[k % len(_PALETTE)]
        coords = " ".join(f"{_fmt_coord(px(x))},{_fmt_coord(py(y))}"
                          for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 18 * k
        out.append(f'<line x1="{_W - _MR - 130}" y1="{ly - 4}" '
                   f'x2="{_W - _MR - 106}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{_W - _MR - 100}" y="{ly}" '
                   f'font-family="sans-serif" font-size="12">'
                   f'{_escape(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
