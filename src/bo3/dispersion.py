"""Region decomposition, weighted decay measurements and space-time bounds.

For positive times the line splits into a right-moving oscillatory region, a
self-similar core of width ``t**(1/3)`` and a left elliptic region with
enhanced decay.  This module gives each region's boolean mask on the grid,
measures the Airy-scaled weighted amplitudes of a trajectory (globally and
per region), fits the linear flow's sup-norm decay exponent, and evaluates
the bilinear space-time smoothing ratio for frequency-separated waves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral
from .flows import airy_propagate, xi_cubed
from .invariants import edge_fraction
from .spectral import DyadicBand, RealField, derivative, l2_norm, project_band, same_grid

__all__ = [
    "jbracket",
    "classify",
    "DecayReport",
    "decay_weights",
    "airy_decay_fit",
    "WrapAroundError",
    "bilinear_strichartz_ratio",
    "refined_sup",
]

REGIONS = ("hyperbolic", "self_similar", "elliptic")

# Share of the energy in the edge region above which airy_decay_fit takes a
# propagated field to have wrapped around the periodic seam.
WRAP_EDGE_TOL = 0.05


def jbracket(x, t: float):
    """Airy-scaled distance weight ``sqrt(x^2 + t^(2/3))``."""
    if t <= 0.0:
        raise ValueError(f"jbracket needs t > 0, got {t}")
    return np.sqrt(np.asarray(x, dtype=float) ** 2 + t ** (2.0 / 3.0))


def classify(grid: spectral.SpectralGrid, t: float, c_region: float = 1.0) -> dict:
    """Boolean masks of the ``REGIONS`` at time t, in that order; they
    partition the grid, as ``c_region > 0`` keeps the edges ``|x| = c t^(1/3)`` apart."""
    if t <= 0.0:
        raise ValueError(f"classify needs t > 0, got {t}")
    if c_region <= 0.0:
        raise ValueError(f"classify needs c_region > 0, got {c_region}")
    edge = c_region * t ** (1.0 / 3.0)
    hyp, ell = grid.x >= edge, grid.x <= -edge
    return {"hyperbolic": hyp, "self_similar": ~(hyp | ell), "elliptic": ell}


def refined_sup(values: np.ndarray) -> float:
    """Grid sup with a three-point parabolic refinement of the peak."""
    a = np.abs(values)
    j = int(np.argmax(a))
    n = a.size
    lo, mid, hi = a[(j - 1) % n], a[j], a[(j + 1) % n]
    denom = lo - 2.0 * mid + hi
    if denom < 0.0:
        return float(mid - 0.125 * (lo - hi) ** 2 / denom)
    return float(mid)


@dataclass
class DecayReport:
    """Weighted-amplitude suprema per frame and region, plus fitted exponents.

    ``rows`` carry, for each frame and nonempty region (then ``global``), the
    weighted sups of the state and of its derivative with the weight exponents
    lowered by ``delta``, then the same row suffixed ``+delta`` with them raised
    by it.  Plain elliptic rows add the log-normalized channels (NaN in every
    other row, or with no point at ``t^(-1/3) <x> >= 2``).  ``exponents`` holds
    fitted time exponents of the plain sups in the hyperbolic region.
    """

    rows: list
    exponents: dict


def _weighted_channels(fld: RealField, fx, t: float, delta: float, masks: dict):
    phi, phix = np.abs(fld.values), np.abs(fx)
    jb = jbracket(fld.grid.x, t)
    # the weight exponents lowered by delta (plain rows), then raised ("+delta")
    placements = [(suffix, t**0.25 * jb ** (0.25 + d) * phi, t**0.75 * jb ** (-0.25 + d) * phix)
                  for suffix, d in (("", -delta), ("+delta", delta))]
    logarg = t ** (-1.0 / 3.0) * jb
    loggable = logarg >= 2.0
    rows = []
    for region, sel in [*masks.items(), ("global", np.ones(fld.grid.n, dtype=bool))]:
        if not np.any(sel):
            continue
        esel = sel & loggable
        for suffix, phi_w, phix_w in placements:
            ell_phi = ell_phix = np.nan
            if region == "elliptic" and not suffix and np.any(esel):
                logs = np.log(logarg[esel])
                ell_phi = float(np.max(jb[esel] * phi[esel] / logs))
                ell_phix = float(np.max(t**0.5 * jb[esel] ** 0.5 * phix[esel] / logs))
            rows.append({
                "t": t,
                "region": region + suffix,
                "weighted_phi_sup": float(np.max(phi_w[sel])),
                "weighted_phix_sup": float(np.max(phix_w[sel])),
                "elliptic_phi_over_log": ell_phi,
                "elliptic_phix_over_log": ell_phix,
            })
    return rows


def decay_weights(frames, delta: float = 0.05, c_region: float = 1.0) -> DecayReport:
    """Measure the Airy-weighted amplitude channels along ``(t, field)`` frames,
    such as a trajectory's ``frames``.

    Frames at t = 0 are skipped (the weights are singular there).  Both
    placements of the small exponent ``delta`` are computed and labeled.
    """
    rows = []
    hyp_t, hyp_phi, hyp_phix = [], [], []
    for t, fld in frames:
        if t <= 0.0:
            continue
        masks = classify(fld.grid, t, c_region)
        fx = derivative(fld).values
        rows.extend(_weighted_channels(fld, fx, t, delta, masks))
        sel = masks["hyperbolic"]
        if np.any(sel):
            hyp_t.append(t)
            hyp_phi.append(np.max(np.abs(fld.values[sel])) + 1e-300)
            hyp_phix.append(np.max(np.abs(fx[sel])) + 1e-300)
    exponents = {}
    if len(hyp_t) >= 3:
        exponents["hyperbolic_phi"] = spectral.loglog_slope(hyp_t, hyp_phi)
        exponents["hyperbolic_phix"] = spectral.loglog_slope(hyp_t, hyp_phix)
    return DecayReport(rows, exponents)


class WrapAroundError(RuntimeError):
    """The evolution reached the periodic seam; the measurement stops."""

    def __init__(self, time: float, fraction: float):
        self.time = time
        self.fraction = fraction
        super().__init__(
            f"edge energy fraction {fraction:.2e} at t = {time:.6g}; "
            "domain too small for this horizon"
        )


def airy_decay_fit(f0: RealField, times):
    """Fitted slope of ``log sup|phi(t)|`` against ``log t`` for the linear flow.

    The data must be mean-free, bandlimited and centered; the domain has to be
    large enough that nothing reaches the seam.  Wrap-around is detected as
    edge energy growing beyond ``WRAP_EDGE_TOL`` (and beyond three times its
    initial share, so domain-filling data is not rejected); the first
    contaminated time aborts the fit.  Returns ``(slope, times, sups)``.
    """
    times = [float(t) for t in times]
    if len(times) < 2:
        raise ValueError("need at least two sample times")
    spectral.require_mean_free(f0)
    frac0 = edge_fraction(f0)
    threshold = max(WRAP_EDGE_TOL, 3.0 * frac0)
    sups = []
    for t in times:
        u = airy_propagate(f0, t)
        frac = edge_fraction(u)
        if frac > threshold:
            raise WrapAroundError(t, frac)
        sups.append(refined_sup(u.values))
    return spectral.loglog_slope(times, sups), np.asarray(times), np.asarray(sups)


def bilinear_strichartz_ratio(
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

    The space integral of ``|u_j u_k|^2`` is exact on any grid of m points
    with m above the frequency span of ``u_j u_k`` (its largest integer mode
    minus its smallest).  So each time sample is summed on the smallest power
    of two above that span and the two supports' joint range, at most n; at
    n it is the grid's own sum, aliases included.  Two real bands are transformed from their nonnegative modes
    with ``irfft``, any other pair with ``ifft``.
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
    # the band masks vanish off their supports, so the Airy phase is formed
    # only on the union of the two (the Nyquist mode, where airy_symbol is
    # zero, left out) and scattered into zeroed buffers
    n = grid.n
    modes = np.arange(n)
    modes[n // 2:] -= n
    spec_j, spec_k = pj.spectrum, pk.spectrum  # a real field derives it on every read
    live_j, live_k = spec_j != 0.0, spec_k != 0.0
    live_j[grid.nyquist_index] = live_k[grid.nyquist_index] = False
    if nj == 0.0 or nk == 0.0 or not (live_j.any() and live_k.any()):
        return 0.0
    qj, qk = modes[live_j], modes[live_k]
    span = int(qj.max() + qk.max() - qj.min() - qk.min())
    # both bands are scattered at the union's slots, so m must also exceed
    # the union's range or a mode of one band lands on a slot of the other
    hull = int(max(qj.max(), qk.max()) - min(qj.min(), qk.min()))
    m = min(n, 1 << max(span, hull).bit_length())
    real = isinstance(pj, RealField) and isinstance(pk, RealField)
    live = live_j | live_k
    if real:  # a real band is carried by its nonnegative modes
        live &= modes >= 0
    idx = np.flatnonzero(live)
    cubed = -1j * xi_cubed(grid)[idx]
    # the factor m/n (a power of two, so exact) makes a length-m inverse
    # transform give the n-point one's values at the coarse points
    sj, sk = (m / n) * spec_j[idx], (m / n) * spec_k[idx]
    pos = modes[idx] % m
    inverse = np.fft.irfft if real else np.fft.ifft
    width = m // 2 + 1 if real else m
    bj, bk = np.zeros(width, dtype=complex), np.zeros(width, dtype=complex)
    ts = np.linspace(0.0, t_end, samples)
    vals = []
    for t in ts:
        phase = np.exp(cubed * t)
        bj[pos] = phase * sj
        bk[pos] = phase * sk
        vals.append(grid.length / m * np.sum(np.abs(inverse(bj, m) * inverse(bk, m)) ** 2))
    integral = float(np.trapezoid(vals, ts))
    return float(np.sqrt(integral) * 2.0 ** max(j, k) / (nj * nk))
