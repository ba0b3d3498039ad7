"""Independent slow oracles used to freeze expected values.

Most of what is here avoids the package's FFT/padding code paths: direct
O(n^2) DFT sums and explicit mode-pair convolutions, so agreement with the
fast implementations is a real check rather than a tautology.  The ``full_*``
operators are the Hilbert transform, derivatives, antiderivative, real
product and Airy propagator on the full n-point spectrum, with complex
``fft``/``ifft``: the reference for the half-spectrum operators.  The flow
right-hand sides at the end are the complex full-spectrum formulas, written
with ``spectral.dealiased_product``, ``hilbert`` and ``derivative``; they pin
the half-spectrum kernels of ``flows``.  Their nested products equal the
kernels' single-pass cubic products when the data is band-limited below n/6.
``rk4_step`` is the integrating-factor RK4 step written with a new array for
every stage, the reference for the stepper's in-place march.
``airy_residual`` measures the gauged band residual by differencing stored
frames, the independent check of ``normalform.band_residual_gauged``.
``b0`` and ``bk_lin`` are the low-block and linearized normal forms, which
only their cancellation tests use, and ``project_range`` the band-range
projection that ``bk_lin`` builds on.  ``bilinear_strichartz_ratio_oracle`` sums
every time sample on the full n-point grid, the reference for the kernel that
sums on the smallest alias-free grid.  ``decay_rows`` is the decay table of
``dispersion.decay_weights`` as first written: regions as an array of labels,
each ``delta`` placement spelled out.  ``energies_block`` is the tracker's
block of channels with phi^2 and its row-wise sums formed over the whole
block, the bitwise reference for the chunked ``invariants._energies``.
``write_csv_oracle`` and ``line_plot_svg_oracle`` are the table and plot
writers as first written, each holding the whole text before it writes: the
byte-for-byte reference for the writers that stream it.
"""

import math
from pathlib import Path

import numpy as np

from bo3 import flows, spectral
from bo3.dispersion import REGIONS, jbracket
from bo3.invariants import EnergySeries
from bo3.normalform import _check_band, band_transform, bk_bilinear
from bo3.spectral import (ComplexField, DyadicBand, RealField, antiderivative,
                          dealiased_product, derivative, hilbert, l2_norm, project_band,
                          require_mean_free, same_grid)


def slow_dft(values):
    n = len(values)
    j = np.arange(n)
    return np.array([np.sum(values * np.exp(-2j * np.pi * j * m / n)) for m in range(n)])


def slow_idft(spec):
    n = len(spec)
    j = np.arange(n)
    return np.array([np.sum(spec * np.exp(2j * np.pi * j * m / n)) for m in range(n)]) / n


def mode_index(grid):
    """Integer mode of each FFT bin, in FFT order."""
    n = grid.n
    m = np.arange(n)
    m[m >= n // 2] -= n
    return m


def slow_product_spectrum(grid, spec_u, spec_v):
    """Spectrum of the pointwise product via direct convolution.

    Exact mode-pair sum truncated to the resolved band (Nyquist dropped),
    matching what an ideal Galerkin product should produce.
    """
    n = grid.n
    modes = mode_index(grid)
    cu = {int(m): spec_u[i] / n for i, m in enumerate(modes)}
    cv = {int(m): spec_v[i] / n for i, m in enumerate(modes)}
    out = np.zeros(n, dtype=complex)
    half = n // 2
    for i, m_out in enumerate(modes):
        if m_out == -half:
            continue
        acc = 0.0 + 0.0j
        for m1, a in cu.items():
            if m1 == -half:
                continue
            m2 = int(m_out) - m1
            if -half < m2 < half:
                b = cv.get(m2)
                if b is not None:
                    acc += a * b
        out[i] = acc * n
    return out


def hilbert_spectrum(grid, spec):
    out = -1j * np.sign(grid.xi) * spec
    out[grid.nyquist_index] = 0.0
    return out


def quad(grid, values):
    return grid.spacing * np.sum(values)


# ---------------------------------------------------------------------------
# real-field operators on the full n-point spectrum: the complex fft/ifft
# formulas that the half-spectrum operators replaced, kept as their reference


def real_from_full_spectrum(grid, spectrum):
    """RealField of a Hermitian n-point spectrum, by one complex ifft."""
    s = np.asarray(spectrum, dtype=complex)
    v = np.fft.ifft(s)
    # absolute floor keeps all-roundoff (empty) spectra acceptable
    if np.max(np.abs(v.imag)) > 1e-8 * np.max(np.abs(v.real)) + 1e-13:
        raise ValueError("spectrum is not Hermitian-symmetric to tolerance")
    return RealField(grid, v.real)


def full_hilbert(f):
    grid = f.grid
    out = (-1j * np.sign(grid.xi)) * np.fft.fft(f.values)
    out[grid.nyquist_index] = 0.0
    return real_from_full_spectrum(grid, out)


def full_derivative(f, order=1):
    grid = f.grid
    out = (1j * grid.xi) ** order * np.fft.fft(f.values)
    if order % 2 == 1:
        out[grid.nyquist_index] = 0.0
    return real_from_full_spectrum(grid, out)


def full_antiderivative(f):
    require_mean_free(f)
    grid = f.grid
    out = np.zeros(grid.n, dtype=complex)
    nz = grid.xi != 0.0
    out[nz] = np.fft.fft(f.values)[nz] / (1j * grid.xi[nz])
    out[grid.nyquist_index] = 0.0
    return real_from_full_spectrum(grid, out)


def pad_spectrum(spec, n, factor):
    """Zero-pad an n-point spectrum to ``factor*n`` bins (drops the Nyquist)."""
    half = n // 2
    out = np.zeros(factor * n, dtype=complex)
    out[:half] = spec[:half] * factor
    out[-half + 1:] = spec[-half + 1:] * factor
    return out


def truncate_spectrum(spec, n, factor):
    """Inverse of pad_spectrum: keep the low ``n`` bins, zero the Nyquist."""
    half = n // 2
    out = np.zeros(n, dtype=complex)
    out[:half] = spec[:half] / factor
    out[-half + 1:] = spec[-half + 1:] / factor
    return out


def full_dealiased_product(f, g):
    """Product of two real fields with 2x zero-padding of their full spectra."""
    grid = same_grid(f, g)
    n = grid.n
    pu = np.fft.ifft(pad_spectrum(np.fft.fft(f.values), n, 2)).real
    pv = np.fft.ifft(pad_spectrum(np.fft.fft(g.values), n, 2)).real
    big = np.fft.fft(pu * pv)
    return real_from_full_spectrum(grid, truncate_spectrum(big, n, 2))


def full_airy_propagate(f, t):
    grid = f.grid
    sym = np.exp(-1j * grid.xi**3 * t)
    sym[grid.nyquist_index] = 0.0
    return real_from_full_spectrum(grid, sym * np.fft.fft(f.values))


# ---------------------------------------------------------------------------
# flow right-hand sides on the full spectrum


def _combine(*terms):
    """RealField of sum(c * f) over (c, f) pairs on one grid."""
    return RealField(terms[0][1].grid, sum(c * f.values for c, f in terms))


def tbo_rhs_oracle(phi):
    dp = dealiased_product
    px, pxx = derivative(phi), derivative(phi, 2)
    inner = _combine((1.0, dp(pxx, phi)), (1.0, dp(px, px)))
    return _combine((1.0, derivative(phi, 3)), (0.75, dp(px, hilbert(px))),
                    (0.75, dp(phi, hilbert(pxx))), (-0.75, dp(dp(phi, phi), px)),
                    (0.75, hilbert(inner)))


def tbo_rhs_conservative_oracle(phi):
    dp = dealiased_product
    px = derivative(phi)
    g = _combine((1.0, dp(phi, hilbert(px))), (1.0, hilbert(dp(phi, px))))
    return _combine((1.0, derivative(phi, 3)), (-0.25, derivative(dp(dp(phi, phi), phi))),
                    (0.75, derivative(g)))


def linearized_tbo_rhs_oracle(v, phi):
    dp = dealiased_product
    px, pxx, vx, vxx = derivative(phi), derivative(phi, 2), derivative(v), derivative(v, 2)
    inner = _combine((1.0, dp(vxx, phi)), (1.0, dp(pxx, v)), (2.0, dp(vx, px)))
    return _combine((1.0, derivative(v, 3)), (0.75, dp(vx, hilbert(px))),
                    (0.75, dp(px, hilbert(vx))), (0.75, dp(v, hilbert(pxx))),
                    (0.75, dp(phi, hilbert(vxx))), (-1.5, dp(dp(phi, px), v)),
                    (-0.75, dp(dp(phi, phi), vx)), (0.75, hilbert(inner)))


def adjoint_linearized_rhs_oracle(w, phi):
    dp = dealiased_product
    px, wx = derivative(phi), derivative(w)
    return _combine((1.0, derivative(w, 3)), (1.5, dp(dp(phi, px), w)),
                    (-0.75, derivative(dp(dp(phi, phi), w))), (0.75, dp(wx, hilbert(px))),
                    (0.75, derivative(hilbert(dp(wx, phi)))),
                    (0.75, dp(phi, hilbert(derivative(w, 2)))))


# ---------------------------------------------------------------------------
# time stepping


def rk4_step(s, h, efull, ehalf, nl):
    """One integrating-factor RK4 step of width h on the spectrum (or stack) s.

    Every stage is a new array; ``nl(s)`` returns the nonlinear part of s.
    The stepper's in-place march must agree with this to round-off.
    """
    n1 = nl(s)
    n2 = nl(ehalf * (s + 0.5 * h * n1))
    n3 = nl(ehalf * s + 0.5 * h * n2)
    n4 = nl(efull * s + h * ehalf * n3)
    return efull * s + (h / 6.0) * (efull * n1 + 2.0 * ehalf * (n2 + n3) + n4)


# ---------------------------------------------------------------------------
# normal form


def airy_residual(traj, k: int) -> EnergySeries:
    """Frame-differencing residual of the gauged variable along a trajectory.

    Uses centered differences on stored frames, so the snapshot spacing must
    put the O(dt^2) differencing error below the residual being measured.
    Returns the residual norm at every interior frame.
    """
    if len(traj.frames) < 3:
        raise ValueError("need at least three frames for centered differencing")
    grid = traj.grid
    psis = [band_transform(fld, k).psi for _, fld in traj.frames]
    times = traj.times
    out_t, out_r = [], []
    for i in range(1, len(psis) - 1):
        delta = times[i + 1] - times[i - 1]
        dpsi = (psis[i + 1].values - psis[i - 1].values) / delta
        d3 = np.fft.ifft((1j * grid.xi) ** 3 * psis[i].spectrum)
        out_t.append(times[i])
        out_r.append(l2_norm(ComplexField(grid, dpsi - d3)))
    return EnergySeries(np.asarray(out_t), {"residual": np.asarray(out_r)})


def b0(phi: RealField) -> RealField:
    """Low-frequency normal form: kills the quadratic terms that couple the
    low block to higher frequencies."""
    require_mean_free(phi)
    grid = phi.grid

    hi = RealField.from_spectrum(
        grid, ((1.0 - spectral.dyadic_bump(grid.xi)) * phi.spectrum)[: grid.n // 2 + 1]
    )
    dinv = antiderivative(hi)
    direct = project_band(dealiased_product(dinv, hilbert(phi)), 0).values
    twisted = hilbert(project_band(dealiased_product(dinv, phi), 0)).values
    return RealField(grid, 0.25 * (direct + twisted))


def range_multiplier(grid, k1: int, k2: int) -> np.ndarray:
    """Projector onto bands strictly between k1 and k2, a new array every call."""
    return spectral.below_multiplier(grid, k2) - spectral.below_multiplier(grid, k1 + 1)


def project_range(f, ks):
    """Projection onto bands strictly between ks[0] and ks[1], on f's own modes."""
    mask = range_multiplier(f.grid, *ks)
    return type(f).from_spectrum(f.grid, mask[: f.modes.size] * f.modes)


def bk_lin(phi: RealField, v: RealField, k: int) -> ComplexField:
    """Linearized band normal form.

    Polarizes the quadratic form and corrects with the band-0-free
    antiderivative of ``v``, which keeps every term bounded; the one
    low-frequency quadratic that would need a singular correction is left in
    the equation on purpose.
    """
    grid = phi.grid
    _check_band(grid, k)
    v_mid = project_range(v, (0, k))
    corr = dealiased_product(
        antiderivative(v_mid), project_band(phi, DyadicBand(k, "plus"))
    )
    vals = 2.0 * bk_bilinear(v, phi, k).values - 0.5j * corr.values
    return ComplexField(grid, vals)


# ---------------------------------------------------------------------------
# dispersion


def bilinear_strichartz_ratio_oracle(
    j: int,
    k: int,
    f: RealField,
    g: RealField,
    t_end: float,
    halves=("both", "both"),
    samples: int = 64,
) -> float:
    """Normalized space-time L2 norm of a product of two free waves.

    Computes ``||u_j u_k||_{L2([0,t_end] x R)} * 2**max(j,k) / (||P_j f|| ||P_k g||)``
    with exact propagation and composite-trapezoid time quadrature.  The two
    blocks need frequency separation: either ``|j - k| > 2`` or the same band
    split into opposite sign halves.
    """
    grid = same_grid(f, g)
    if abs(j - k) <= 2 and not (j == k and set(halves) == {"plus", "minus"}):
        raise ValueError(
            "bands must satisfy |j - k| > 2, or be equal with opposite halves"
        )
    if samples < 2:
        raise ValueError("need at least two time samples")
    pj = project_band(f, DyadicBand(j, halves[0]))
    pk = project_band(g, DyadicBand(k, halves[1]))
    nj, nk = l2_norm(pj), l2_norm(pk)
    if nj == 0.0 or nk == 0.0:
        return 0.0
    # the band masks vanish off their supports, so the Airy phase is formed
    # only on the union of the two (the Nyquist mode, where airy_symbol is
    # zero, left out) and scattered into zeroed buffers
    support = (pj.spectrum != 0.0) | (pk.spectrum != 0.0)
    support[grid.nyquist_index] = False
    idx = np.flatnonzero(support)
    cubed = -1j * grid.xi[idx] ** 3
    sj, sk = pj.spectrum[idx], pk.spectrum[idx]
    bj, bk = np.zeros(grid.n, dtype=complex), np.zeros(grid.n, dtype=complex)
    ts = np.linspace(0.0, t_end, samples)
    vals = []
    for t in ts:
        phase = np.exp(cubed * t)
        bj[idx] = phase * sj
        bk[idx] = phase * sk
        uj = np.fft.ifft(bj)
        uk = np.fft.ifft(bk)
        vals.append(grid.spacing * np.sum(np.abs(uj * uk) ** 2))
    integral = float(np.trapezoid(vals, ts))
    return float(np.sqrt(integral) * 2.0 ** max(j, k) / (nj * nk))


# ---------------------------------------------------------------------------
# Weighted decay table


def classify_labels(grid, t, c_region=1.0):
    """One region label per grid point; elliptic wins a tie."""
    edge = c_region * t ** (1.0 / 3.0)
    labels = np.full(grid.n, "self_similar", dtype=object)
    labels[grid.x >= edge] = "hyperbolic"
    labels[grid.x <= -edge] = "elliptic"
    return labels


def decay_rows(frames, delta=0.05, c_region=1.0):
    """Rows of ``dispersion.decay_weights`` for ``(t, field)`` frames."""
    rows = []
    for t, fld in frames:
        if t <= 0.0:
            continue
        grid = fld.grid
        labels = classify_labels(grid, t, c_region)
        fx = derivative(fld).values
        jb = jbracket(grid.x, t)
        phi_w = t**0.25 * jb ** (0.25 - delta) * np.abs(fld.values)
        phix_w = t**0.75 * jb ** (-0.25 - delta) * np.abs(fx)
        phi_w_alt = t**0.25 * jb ** (0.25 + delta) * np.abs(fld.values)
        phix_w_alt = t**0.75 * jb ** (-0.25 + delta) * np.abs(fx)
        logarg = t ** (-1.0 / 3.0) * jb
        loggable = logarg >= 2.0
        for region in REGIONS + ("global",):
            sel = np.ones(grid.n, dtype=bool) if region == "global" else labels == region
            if not np.any(sel):
                continue
            ell_phi = ell_phix = np.nan
            if region == "elliptic":
                esel = sel & loggable
                if np.any(esel):
                    logs = np.log(logarg[esel])
                    ell_phi = float(np.max(jb[esel] * np.abs(fld.values[esel]) / logs))
                    ell_phix = float(
                        np.max(t**0.5 * jb[esel] ** 0.5 * np.abs(fx[esel]) / logs))
            rows.append({"t": t, "region": region,
                         "weighted_phi_sup": float(np.max(phi_w[sel])),
                         "weighted_phix_sup": float(np.max(phix_w[sel])),
                         "elliptic_phi_over_log": ell_phi,
                         "elliptic_phix_over_log": ell_phix})
            rows.append({"t": t, "region": region + "+delta",
                         "weighted_phi_sup": float(np.max(phi_w_alt[sel])),
                         "weighted_phix_sup": float(np.max(phix_w_alt[sel])),
                         "elliptic_phi_over_log": np.nan,
                         "elliptic_phix_over_log": np.nan})
    return rows


# ---------------------------------------------------------------------------
# Energy channels of one block


def energies_block(grid, h) -> dict:
    """``invariants._energies`` on the whole block at once: phi^2 and every
    row-wise sum formed over all frames together, the bitwise reference for
    the chunked tracker."""
    n, half = grid.n, grid.n // 2
    scale = grid.length / n**2  # integral of |f|^2 = scale * sum over |f_k|^2
    weight = np.full(half + 1, 2.0)
    weight[0] = weight[half] = 1.0
    absk = flows.half_absk(grid)
    power = weight * (h.real**2 + h.imag**2)
    sq = spectral.half_product(h, h)

    def integral(a, b):  # integral of the product of two real fields, by their half spectra
        return scale * np.sum(weight * (a * b.conj()).real, axis=1)

    e0_ = scale * power.sum(axis=1)
    cubic = integral(sq, h)  # integral of phi^3
    cross = integral(sq, absk * h)  # integral of phi^2 H phi_x
    return {
        "E0": e0_,
        "E1": scale * np.sum(power * absk, axis=1) - cubic / 3.0,
        "E2": scale * np.sum(power * absk**2, axis=1) - 0.75 * cross + 0.125 * integral(sq, sq),
        "L2": np.sqrt(e0_),
        "H1": np.sqrt(scale * np.sum(power * (1.0 + grid.xi[: half + 1] ** 2), axis=1)),
    }


# ---------------------------------------------------------------------------
# Table and plot writers as first written: every row and point held as Python
# objects, the whole text joined, then written at once


_FMT = "%.17g"


def _fmt(v) -> str:
    return _FMT % v


def write_csv_oracle(path, rows) -> None:
    """Write rows (first row is the header) with full double precision."""
    path = Path(path)
    out = []
    for i, row in enumerate(rows):
        if i == 0:
            out.append(",".join(str(c) for c in row))
        else:
            out.append(",".join(
                c if isinstance(c, str) else _fmt(c) for c in row
            ))
    path.write_text("\n".join(out) + "\n")


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


def line_plot_svg_oracle(series, path, xlabel="x", ylabel="y", loglog=False,
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
