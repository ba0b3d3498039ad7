"""Self-contained SVG line plots for experiment CSVs.  No renderer needed."""

from __future__ import annotations

import math

import numpy as np

from .snapshots import read_csv, write_text

__all__ = ["line_plot_svg", "plot_csv"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_COLORS = ("#1f6fb2", "#c23b22", "#2e8540", "#8e44ad", "#b8860b", "#444444")
_CHUNK = 1024  # points of a path formatted per piece written


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


def _chunks(a):
    """The values of the float array ``a`` as lists of Python floats, at most
    ``_CHUNK`` at a time."""
    return (a[i:i + _CHUNK].tolist() for i in range(0, a.size, _CHUNK))


def _drawable(xs, ys, loglog):
    """The points of one series that can be drawn, as two float64 arrays:
    finite, and positive on ``loglog``.  Points past the shorter of xs and ys
    are dropped, as ``zip`` drops them."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    k = min(x.size, y.size)
    x, y = x[:k], y[:k]
    keep = np.isfinite(x) & np.isfinite(y)
    if loglog:
        keep &= (x > 0.0) & (y > 0.0)
    return (x, y) if keep.all() else (x[keep], y[keep])


def _extent(arrays, loglog):
    """The smallest and the largest of the values (on ``loglog`` of their
    log10, each taken by ``math.log10``, whose bits ``np.log10`` may not
    match) over nonempty arrays."""
    if not loglog:
        return min(float(np.min(a)) for a in arrays), max(float(np.max(a)) for a in arrays)
    lo, hi = math.inf, -math.inf
    for a in arrays:
        for chunk in _chunks(a):
            logs = list(map(math.log10, chunk))
            lo, hi = min(lo, min(logs)), max(hi, max(logs))
    return lo, hi


def _layout(drawn, loglog, pw, ph):
    """The SVG elements of the ticks and the maps ``px``, ``py`` from data to
    the ``pw`` x ``ph`` plot area, scaled to fit every point of the
    ``(label, x, y)`` series.  A value range or tick outside the float range,
    or a range that adding 1 cannot widen, is an ``ArithmeticError`` here,
    before any point is mapped."""
    x0, x1 = _extent([x for _, x, _ in drawn], loglog)
    y0, y1 = _extent([y for _, _, y in drawn], loglog)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    dx, dy = x1 - x0, y1 - y0

    if loglog:
        def px(v):
            return _ML + (math.log10(v) - x0) / dx * pw

        def py(v):
            return _MT + ph - (math.log10(v) - y0) / dy * ph
    else:
        def px(v):
            return _ML + (v - x0) / dx * pw

        def py(v):
            return _MT + ph - (v - y0) / dy * ph

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
    if dx == 0.0 or dy == 0.0:  # what px and py would raise at the first point
        raise ZeroDivisionError("float division by zero")
    return out, px, py


def _path(x, y, px, py):
    """The ``d`` attribute of one series' path, ``_CHUNK`` points a piece."""
    move = "M"
    for xc, yc in zip(_chunks(x), _chunks(y)):
        yield move + " L".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xc, yc))
        move = " L"


def line_plot_svg(series, path, xlabel="x", ylabel="y", loglog=False,
                  title="", annotate=""):
    """Write a simple multi-series line plot.

    ``series`` is a list of (label, xs, ys).  With ``loglog`` both axes are
    logarithmic and nonpositive points are dropped.  A plot left with no
    point to draw is the empty frame with a "no finite points" note.

    Each series is held as two float64 arrays of its drawable points, and the
    whole layout is done before the file is begun; the paths are then written
    a piece at a time, so the writer holds ``_CHUNK`` points as Python objects
    however long the series.
    """
    xlabel, ylabel, title, annotate = map(_escape, (xlabel, ylabel, title, annotate))
    drawn = []
    for label, xs, ys in series:
        x, y = _drawable(xs, ys, loglog)
        if x.size:
            drawn.append((_escape(label), x, y))
    pw, ph = _W - _ML - _MR, _H - _MT - _MB
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    if drawn:
        ticks, px, py = _layout(drawn, loglog, pw, ph)
        head.extend(ticks)
    else:
        head.append(f'<text x="{_ML + pw / 2:.0f}" y="{_MT + ph / 2:.0f}" '
                    'text-anchor="middle">no finite points</text>')
    tail = [
        f'<text x="{_ML + pw / 2:.0f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{_MT + ph / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MT + ph / 2:.0f})">{ylabel}</text>',
    ]
    if title:
        tail.append(f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle">{title}</text>')
    if annotate:
        tail.append(f'<text x="{_W - _MR - 8}" y="{_MT + 16}" text-anchor="end">{annotate}</text>')
    tail.append("</svg>")

    def pieces():
        yield "".join(f"{e}\n" for e in head)
        for i, (label, x, y) in enumerate(drawn):
            color = _COLORS[i % len(_COLORS)]
            yield '<path d="'
            yield from _path(x, y, px, py)
            yield (f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
                   f'<text x="{_ML + 10}" y="{_MT + 16 + 14 * i}" fill="{color}">{label}</text>\n')
        yield "".join(f"{e}\n" for e in tail)

    write_text(path, pieces())


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
