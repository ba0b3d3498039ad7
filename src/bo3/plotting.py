"""Self-contained SVG line plots for experiment CSVs.  No renderer needed."""

from __future__ import annotations

import math
from pathlib import Path

from .snapshots import read_csv

__all__ = ["line_plot_svg", "plot_csv"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_COLORS = ("#1f6fb2", "#c23b22", "#2e8540", "#8e44ad", "#b8860b", "#444444")


def _escape(text: str) -> str:
    # text goes into XML elements, so &, < and > are escaped: what
    # html.escape(text, quote=False) does, without importing html, whose
    # entity table costs ~0.3 MB of RSS (xml.sax.saxutils imports
    # urllib.request, ~7 MB)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, loglog: bool):
    if loglog:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        return [10.0**e for e in range(lo_e, hi_e + 1)]
    span = hi - lo or 1.0
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= 6:
            step *= mult
            break
    # counted, not accumulated: adding a step to a large lo may not move it
    first, last = math.ceil(lo / step), math.floor((hi + 1e-12 * span) / step)
    return [i * step for i in range(first, last + 1)]


def _axes_and_lines(clean, loglog, pw, ph):
    """The SVG elements of the ticks and the paths of the ``(label, pairs)``
    series, scaled to fit every point into the ``pw`` x ``ph`` plot area."""
    def tx(v):
        return math.log10(v) if loglog else v

    xs = [tx(x) for _, pairs in clean for x, _ in pairs]
    ys = [tx(y) for _, pairs in clean for _, y in pairs]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def px(v):
        return _ML + (tx(v) - x0) / (x1 - x0) * pw

    def py(v):
        return _MT + ph - (tx(v) - y0) / (y1 - y0) * ph

    out = []
    inv = (lambda v: 10.0**v) if loglog else (lambda v: v)
    for t in _ticks(inv(x0), inv(x1), loglog):
        if inv(x0) <= t <= inv(x1) * (1 + 1e-9):
            X = px(t)
            out.append(f'<line x1="{X:.1f}" y1="{_MT + ph}" x2="{X:.1f}" y2="{_MT + ph + 5}" stroke="#333"/>')
            out.append(f'<text x="{X:.1f}" y="{_MT + ph + 18}" text-anchor="middle">{t:g}</text>')
    for t in _ticks(inv(y0), inv(y1), loglog):
        if inv(y0) <= t <= inv(y1) * (1 + 1e-9):
            Y = py(t)
            out.append(f'<line x1="{_ML - 5}" y1="{Y:.1f}" x2="{_ML}" y2="{Y:.1f}" stroke="#333"/>')
            out.append(f'<text x="{_ML - 8}" y="{Y + 4:.1f}" text-anchor="end">{t:g}</text>')
    for i, (label, pairs) in enumerate(clean):
        color = _COLORS[i % len(_COLORS)]
        d = " ".join(
            f"{'M' if j == 0 else 'L'}{px(x):.2f},{py(y):.2f}"
            for j, (x, y) in enumerate(pairs)
        )
        out.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(
            f'<text x="{_ML + 10}" y="{_MT + 16 + 14 * i}" fill="{color}">{label}</text>'
        )
    return out


def line_plot_svg(series, path, xlabel="x", ylabel="y", loglog=False,
                  title="", annotate=""):
    """Write a simple multi-series line plot.

    ``series`` is a list of (label, xs, ys).  With ``loglog`` both axes are
    logarithmic and nonpositive points are dropped.  A plot left with no
    point to draw is the empty frame with a "no finite points" note.
    """
    xlabel, ylabel, title, annotate = map(_escape, (xlabel, ylabel, title, annotate))
    clean = []
    for label, xs, ys in series:
        pairs = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if (not loglog or (x > 0 and y > 0)) and math.isfinite(x) and math.isfinite(y)
        ]
        if pairs:
            clean.append((_escape(label), pairs))
    pw, ph = _W - _ML - _MR, _H - _MT - _MB
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    if clean:
        out.extend(_axes_and_lines(clean, loglog, pw, ph))
    else:
        out.append(f'<text x="{_ML + pw / 2:.0f}" y="{_MT + ph / 2:.0f}" '
                   'text-anchor="middle">no finite points</text>')
    out.append(f'<text x="{_ML + pw / 2:.0f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>')
    out.append(
        f'<text x="16" y="{_MT + ph / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + ph / 2:.0f})">{ylabel}</text>'
    )
    if title:
        out.append(f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle">{title}</text>')
    if annotate:
        out.append(f'<text x="{_W - _MR - 8}" y="{_MT + 16}" text-anchor="end">{annotate}</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")


def plot_csv(csv_path, out_path, x: str, y, loglog=False, annotate=""):
    """Plot one or more CSV columns against another."""
    header, rows = read_csv(csv_path)
    if not rows:
        raise ValueError(f"{csv_path}: no data rows")
    if x not in header:
        raise KeyError(f"unknown column {x!r}; have {header}")
    ycols = [y] if isinstance(y, str) else list(y)
    for yc in ycols:
        if yc not in header:
            raise KeyError(f"unknown column {yc!r}; have {header}")
    xi = header.index(x)
    series = []
    for yc in ycols:
        yi = header.index(yc)
        xs, ys = [], []
        for row in rows:
            if isinstance(row[xi], float) and isinstance(row[yi], float):
                xs.append(row[xi])
                ys.append(row[yi])
        series.append((yc, xs, ys))
    try:
        line_plot_svg(series, out_path, xlabel=x, ylabel=",".join(ycols),
                      loglog=loglog, annotate=annotate)
    except ArithmeticError:  # values whose span or ticks leave the float range
        raise ValueError(f"{csv_path}: values too large to lay out") from None
    except OSError as exc:  # a missing directory, or no permission
        raise ValueError(f"cannot write {out_path}: {exc.strerror}") from None
