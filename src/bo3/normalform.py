"""Band-localized normal form and gauge transformations.

The quadratic nonlinearity of the third-order flow is removed in two steps on
each positive-frequency dyadic block: a bounded quadratic correction (the
bilinear forms built here), then multiplication by a unimodular low-frequency
phase.  After both steps the block satisfies an Airy equation with a cubic
right-hand side; the residual experiments in this module measure exactly
that, which is the keystone check of the whole construction.

The forms were pinned by requiring exact cancellation of the quadratic terms
against the Airy commutator (see the cancellation tests):

* band form:    B_k(u,u) = -(1/4)[ i P_k+(u dx^-1 u) - P_k+(Hu dx^-1 u)
                                    - 2i dx^-1(P_<k u) P_k+ u ]
* gauge phase:  Phi = (1/2) dx^-1 phi, psi_k = (P_k+ phi + B_k) exp(-i Phi_<k)

The low-block form B_0 and the linearized form B_k^lin, which no experiment
uses, live with their cancellation tests as oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral, stepper
from .flows import FlowKind, tbo_rhs
from .spectral import (
    BandError,
    ComplexField,
    DyadicBand,
    RealField,
    antiderivative,
    dealiased_product,
    derivative,
    hilbert,
    l2_norm,
    project_band,
    project_below,
    refine,
    require_mean_free,
    same_grid,
)

__all__ = [
    "BandTransform",
    "gauge_phase",
    "bk_bilinear",
    "bk",
    "band_transform",
    "band_residual_raw",
    "band_residual_gauged",
    "ScalingResult",
    "cubic_scaling_test",
]

# The gauged band residual is evaluated on a grid this many times finer: the
# exponential products spread the band's spectrum.
RESIDUAL_REFINE = 2


def gauge_phase(phi: RealField) -> RealField:
    """Phase with ``2 d_x Phi = phi``; removes the paradifferential terms."""
    require_mean_free(phi)
    return RealField(phi.grid, 0.5 * antiderivative(phi).values)


def _check_band(grid, k: int) -> None:
    if k < 1:
        raise BandError(f"band normal form needs k >= 1, got {k}")
    spectral.check_band(grid, k)


def _band_products(x: RealField, dy: RealField, k: int) -> np.ndarray:
    """The band form's three products of ``x`` against ``dy = dx^-1 y``."""
    band = DyadicBand(k, "plus")
    return np.stack([
        project_band(dealiased_product(x, dy), band).values,
        project_band(dealiased_product(hilbert(x), dy), band).values,
        dealiased_product(project_below(dy, k), project_band(x, band)).values,
    ])


def _band_form(grid, s: np.ndarray) -> ComplexField:
    # s holds the three products, each summed over both orders
    return ComplexField(grid, -0.125 * (1j * s[0] + -s[1] + -2j * s[2]))


def bk_bilinear(u: RealField, v: RealField, k: int) -> ComplexField:
    """Symmetric bilinear polarization of the band normal form."""
    grid = same_grid(u, v)
    _check_band(grid, k)
    s = _band_products(u, antiderivative(v), k) + _band_products(v, antiderivative(u), k)
    return _band_form(grid, s)


def bk(phi: RealField, k: int) -> ComplexField:
    """Quadratic band normal form ``B_k(phi, phi)``, each product built once."""
    require_mean_free(phi)
    _check_band(phi.grid, k)
    # both orders of each product are the same array s, and 2 s is exactly s + s
    return _band_form(phi.grid, 2.0 * _band_products(phi, antiderivative(phi), k))


@dataclass(frozen=True)
class BandTransform:
    """All stages of the band-k reduction evaluated on one state."""

    k: int
    phi_k_plus: ComplexField
    b_k: ComplexField
    tilde_phi: ComplexField
    phase: RealField
    psi: ComplexField


def band_transform(phi: RealField, k: int) -> BandTransform:
    """Assemble the normal variable and its gauged version for band k."""
    require_mean_free(phi)
    phik = project_band(phi, DyadicBand(k, "plus"))
    b = bk(phi, k)
    tilde = ComplexField(phi.grid, phik.values + b.values)
    phase = RealField(phi.grid, project_below(gauge_phase(phi), k).values)
    psi = ComplexField(phi.grid, tilde.values * np.exp(-1j * phase.values))
    return BandTransform(k, phik, b, tilde, phase, psi)


# ---------------------------------------------------------------------------
# Residuals.  The time derivative entering each residual is evaluated
# algebraically by substituting the flow's right-hand side, so there is no
# differencing error; the tests check the gauged residual against the
# frame-differencing residual of a stored trajectory.


def band_residual_raw(phi: RealField, k: int) -> float:
    """L2 size of ``(d_t - d_x^3)`` applied to the bare band variable."""
    band = DyadicBand(k, "plus")
    dt_part = project_band(tbo_rhs(phi), band).values
    lin = derivative(project_band(phi, band), 3).values
    return l2_norm(ComplexField(phi.grid, dt_part - lin))


def _dt_band_transform(phi: RealField, k: int, F: RealField):
    """Exact time derivatives of the transform pieces along the flow."""
    band = DyadicBand(k, "plus")
    # B_k is symmetric term by term, so B_k(phi, F) is B_k(F, phi) to the bit
    b = bk_bilinear(F, phi, k).values
    dt_tilde = project_band(F, band).values + b + b
    dt_phase = project_below(RealField(phi.grid, 0.5 * antiderivative(F).values), k)
    return dt_tilde, dt_phase


def band_residual_gauged(phi: RealField, k: int) -> float:
    """L2 size of ``(d_t - d_x^3)`` applied to the gauged band variable.

    The exponential products spread the band's spectrum, so the residual is
    evaluated on the ``RESIDUAL_REFINE`` times finer grid to keep the
    measurement alias-free.
    """
    tr = band_transform(phi, k)
    F = tbo_rhs(phi)
    dt_tilde, dt_phase = _dt_band_transform(phi, k, F)
    tilde_f = refine(tr.tilde_phi, RESIDUAL_REFINE)
    dt_tilde_f = refine(ComplexField(phi.grid, dt_tilde), RESIDUAL_REFINE)
    phase_f = refine(tr.phase, RESIDUAL_REFINE)
    dt_phase_f = refine(dt_phase, RESIDUAL_REFINE)
    gauge = np.exp(-1j * phase_f.values)
    psi = tilde_f.values * gauge
    dt_psi = (dt_tilde_f.values - 1j * tilde_f.values * dt_phase_f.values) * gauge
    fine = tilde_f.grid
    d3 = np.fft.ifft((1j * fine.xi) ** 3 * np.fft.fft(psi))
    return l2_norm(ComplexField(fine, dt_psi - d3))


@dataclass(frozen=True)
class ScalingResult:
    k: int
    amplitudes: tuple
    raw: tuple
    gauged: tuple
    slope_raw: float
    slope_gauged: float

    EXACT = float("inf")


def _fit_slope(eps, vals):
    vals = np.asarray(vals)
    if np.all(vals < 1e-13):
        return ScalingResult.EXACT
    return spectral.loglog_slope(eps, vals)


def cubic_scaling_test(profile: RealField, amplitudes, k: int, t_probe: float,
                       dt: float = 1e-3) -> ScalingResult:
    """Amplitude sweep of the raw and gauged band residuals.

    For each amplitude the profile is scaled, evolved to ``t_probe``, and both
    residuals are measured there.  A raw slope near 2 with a gauged slope near
    3 demonstrates that the transformations trade the quadratic nonlinearity
    for a cubic one.
    """
    eps = [float(e) for e in amplitudes]
    if len(eps) < 4:
        raise ValueError("need at least four amplitudes")
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("amplitudes must increase")
    raws, gauges = [], []
    for e in eps:
        data = RealField(profile.grid, e * profile.values)
        if t_probe > 0.0:
            cfg = stepper.SolverConfig(dt=dt, t_end=t_probe, snapshot_stride=10**9)
            state = stepper.integrate(FlowKind("third_order_bo"), data, cfg).final()
        else:
            state = data
        raws.append(band_residual_raw(state, k))
        gauges.append(band_residual_gauged(state, k))
    scale = max(l2_norm(profile), 1.0)
    raw_arr = np.asarray(raws) / scale
    g_arr = np.asarray(gauges) / scale
    return ScalingResult(
        k,
        tuple(eps),
        tuple(raws),
        tuple(gauges),
        _fit_slope(eps, raw_arr),
        _fit_slope(eps, g_arr),
    )
