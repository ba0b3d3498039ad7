"""Right-hand sides and exact propagators for the evolution equations.

The nonlinear flow implemented here is the third-order Benjamin-Ono equation
in the convention that makes the classical energies of the hierarchy exact
invariants:

    phi_t = phi_xxx - (3/4) phi^2 phi_x
            + (3/4) [phi_x H phi_x + phi H phi_xx + H(phi_xx phi + phi_x^2)]

together with the Benjamin-Ono equation ``phi_t = -H phi_xx + phi phi_x``,
its linearization around a background, and the backward adjoint of that
linearization.  All quadratic and cubic products are dealiased by 2x
zero-padding; every right-hand side evaluates the expanded form, while the
conservative form of the third-order flow is kept as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    RealField,
    SpectralGrid,
    pad_spectrum,
    require_mean_free,
    truncate_spectrum,
)

__all__ = [
    "FlowKind",
    "FLOW_TAGS",
    "airy_propagate",
    "airy_symbol",
    "bo_rhs",
    "tbo_rhs",
    "tbo_rhs_conservative",
    "linearized_tbo_rhs",
    "adjoint_linearized_rhs",
    "spectral_tail_fraction",
]

FLOW_TAGS = ("airy", "benjamin_ono", "third_order_bo")


@dataclass(frozen=True)
class FlowKind:
    """Selects one of the flows that ``stepper.integrate`` marches.

    The linearized flow and its backward adjoint ride on a background state
    and are marched together with it by ``stepper.integrate_linearized_pair``
    and ``stepper.integrate_adjoint_pair``.
    """

    tag: str

    def __post_init__(self):
        if self.tag not in FLOW_TAGS:
            raise ValueError(f"unknown flow tag {self.tag!r}")


# ---------------------------------------------------------------------------
# Spectrum-level workspace.  The integrator spends essentially all of its time
# here, so the padded transforms are hand-rolled on raw arrays.


class _Workspace:
    __slots__ = ("grid", "n", "xi", "xi2", "xi3", "sgn", "xi_pad", "sgn_pad", "dealias")

    def __init__(self, grid: SpectralGrid, dealias: bool = True):
        self.grid = grid
        self.n = grid.n
        self.xi = grid.xi
        self.xi2 = grid.xi**2
        self.xi3 = grid.xi**3
        self.sgn = np.sign(grid.xi)
        self.dealias = dealias
        if dealias:
            fine = 2.0 * np.pi * np.fft.fftfreq(2 * grid.n, d=grid.spacing / 2.0)
            self.xi_pad = fine
            self.sgn_pad = np.sign(fine)
        else:
            self.xi_pad = grid.xi
            self.sgn_pad = self.sgn

    # physical samples on the product grid (2n points when dealiasing)
    def to_phys(self, spec):
        if self.dealias:
            return np.fft.ifft(pad_spectrum(spec, self.n, 2)).real
        return np.fft.ifft(spec).real

    def from_phys(self, vals):
        big = np.fft.fft(vals)
        if self.dealias:
            return truncate_spectrum(big, self.n, 2)
        half = self.n // 2
        big[half] = 0.0
        return big

    def from_phys_pair(self, direct, hilberted):
        """Spectrum of ``direct + H(hilberted)`` from product-grid samples."""
        big = np.fft.fft(direct) + (-1j * self.sgn_pad) * np.fft.fft(hilberted)
        if self.dealias:
            return truncate_spectrum(big, self.n, 2)
        half = self.n // 2
        big[half] = 0.0
        return big

    def dx(self, spec, order=1):
        out = (1j * self.xi) ** order * spec
        if order % 2 == 1:
            out[self.n // 2] = 0.0
        return out

    def hil(self, spec):
        out = (-1j * self.sgn) * spec
        out[self.n // 2] = 0.0
        return out


_WORKSPACES: dict = {}


def _workspace(grid: SpectralGrid, dealias: bool = True) -> _Workspace:
    key = (grid.n, grid.length, dealias)
    ws = _WORKSPACES.get(key)
    if ws is None:
        ws = _Workspace(grid, dealias)
        _WORKSPACES[key] = ws
    return ws


# ---------------------------------------------------------------------------
# Nonlinear parts (spectrum in, spectrum out).  The linear term phi_xxx is kept
# separate so the integrating-factor stepper can treat it exactly.


def _bo_nl(ws: _Workspace, s):
    # phi phi_x
    p = ws.to_phys(s)
    px = ws.to_phys(ws.dx(s))
    return ws.from_phys(p * px)


def product_fields(ws: _Workspace, s):
    """phi, phi_x, H phi_x, phi_xx and H phi_xx of the spectrum s on the product grid."""
    # The derivative spectra are rebuilt, not held: keeping them alive across
    # the transforms raised the minor page faults of a march that retains
    # its frames several-fold (the heap top is trimmed and refaulted).
    return (ws.to_phys(s), ws.to_phys(ws.dx(s)), ws.to_phys(ws.hil(ws.dx(s))),
            ws.to_phys(ws.dx(s, 2)), ws.to_phys(ws.hil(ws.dx(s, 2))))


def _tbo_nl(ws: _Workspace, fields):
    # -(3/4) phi^2 phi_x + (3/4)[phi_x H phi_x + phi H phi_xx + H(phi_xx phi + phi_x^2)]
    p, px, hx, pxx, hxx = fields
    direct = px * hx + p * hxx - p * p * px
    inner = pxx * p + px * px
    return 0.75 * ws.from_phys_pair(direct, inner)


def _lin_nl(ws: _Workspace, fields, s_v):
    # Gateaux derivative of _tbo_nl at phi (given by its fields) in direction v.
    p, px, hx, pxx, hxx = fields
    v, vx, vh, vxx, vhxx = product_fields(ws, s_v)
    direct = vx * hx + px * vh + v * hxx + p * vhxx - 2.0 * p * px * v - p * p * vx
    inner = vxx * p + pxx * v + 2.0 * vx * px
    return 0.75 * ws.from_phys_pair(direct, inner)


def _adj_nl(ws: _Workspace, fields, s_w):
    # w_t - w_xxx = (3/2) phi phi_x w - (3/4)(phi^2 w)_x
    #               + (3/4)[w_x H phi_x + H(w_x phi)_x + phi H w_xx]
    p, px, hx = fields[:3]
    w = ws.to_phys(s_w)
    wx = ws.to_phys(ws.dx(s_w))
    whxx = ws.to_phys(ws.hil(ws.dx(s_w, 2)))
    direct = 1.5 * p * px * w + 0.75 * (wx * hx + p * whxx)
    s_direct = ws.from_phys(direct)
    s_sq = ws.from_phys(p * p * w)
    s_wxp = ws.from_phys(wx * p)
    return s_direct - 0.75 * ws.dx(s_sq) + 0.75 * ws.dx(ws.hil(s_wxp))


def nonlinear_spectrum(tag: str, ws: _Workspace, s, fields=None):
    """Nonlinear part of a flow at spectrum level.

    ``fields`` are the ``product_fields`` of the state that the third-order
    terms are built on: ``s`` itself for ``third_order_bo`` (computed here
    when omitted), and the background for ``linearized_tbo`` and
    ``adjoint_linearized_tbo``, which need them.
    """
    if tag == "benjamin_ono":
        return _bo_nl(ws, s)
    if tag == "third_order_bo":
        return _tbo_nl(ws, product_fields(ws, s) if fields is None else fields)
    if tag == "linearized_tbo":
        return _lin_nl(ws, fields, s)
    if tag == "adjoint_linearized_tbo":
        return _adj_nl(ws, fields, s)
    raise ValueError(f"no nonlinear part for flow {tag!r}")


def linear_symbol(tag: str, grid: SpectralGrid) -> np.ndarray:
    """Exact symbol of the linear part (diagonal in Fourier)."""
    lam = (1j * grid.xi) ** 3
    if tag == "benjamin_ono":
        # linear part of phi_t = -H phi_xx + ...: symbol -(-i sgn)(i xi)^2 = -i xi|xi|
        lam = -(-1j * np.sign(grid.xi)) * (1j * grid.xi) ** 2
    lam[grid.nyquist_index] = 0.0
    return lam


def airy_symbol(grid: SpectralGrid, t: float) -> np.ndarray:
    """Unimodular multiplier ``exp(-i xi^3 t)`` with the Nyquist mode zeroed."""
    sym = np.exp(-1j * grid.xi**3 * t)
    sym[grid.nyquist_index] = 0.0
    return sym


# ---------------------------------------------------------------------------
# Public field-level operators


def airy_propagate(f, t: float):
    """Exact solution of ``phi_t = phi_xxx`` after time t."""
    grid = f.grid
    out = airy_symbol(grid, t) * f.spectrum
    if isinstance(f, RealField):
        return RealField.from_spectrum(grid, out)
    from .spectral import ComplexField

    return ComplexField.from_spectrum(grid, out)


def _check_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise ValueError("fields live on different grids")
    return g


def bo_rhs(phi: RealField) -> RealField:
    """Benjamin-Ono right-hand side ``-H phi_xx + phi phi_x`` (dealiased)."""
    require_mean_free(phi)
    ws = _workspace(phi.grid)
    s = phi.spectrum
    out = -ws.hil(ws.dx(s, 2)) + _bo_nl(ws, s)
    return RealField.from_spectrum(phi.grid, out)


def tbo_rhs(phi: RealField) -> RealField:
    """Third-order Benjamin-Ono right-hand side, expanded form (dealiased)."""
    require_mean_free(phi)
    ws = _workspace(phi.grid)
    out = ws.dx(phi.spectrum, 3) + _tbo_nl(ws, product_fields(ws, phi.spectrum))
    return RealField.from_spectrum(phi.grid, out)


def tbo_rhs_conservative(phi: RealField) -> RealField:
    """Cross-check form ``phi_xxx - (1/4)(phi^3)_x + (3/4) d_x[phi H phi_x + H(phi phi_x)]``."""
    require_mean_free(phi)
    ws = _workspace(phi.grid)
    s = phi.spectrum
    p = ws.to_phys(s)
    px = ws.to_phys(ws.dx(s))
    hx = ws.to_phys(ws.hil(ws.dx(s)))
    cubic = ws.from_phys(p * p * p)
    g = ws.from_phys_pair(p * hx, p * px)
    out = ws.dx(s, 3) - 0.25 * ws.dx(cubic) + 0.75 * ws.dx(g)
    return RealField.from_spectrum(phi.grid, out)


def linearized_tbo_rhs(v: RealField, phi: RealField) -> RealField:
    """Linearization of the third-order flow around ``phi`` in direction ``v``."""
    grid = _check_same_grid(v, phi)
    ws = _workspace(grid)
    out = ws.dx(v.spectrum, 3) + _lin_nl(ws, product_fields(ws, phi.spectrum), v.spectrum)
    return RealField.from_spectrum(grid, out)


def adjoint_linearized_rhs(w: RealField, phi: RealField) -> RealField:
    """Right-hand side of the backward adjoint of the linearized flow."""
    grid = _check_same_grid(w, phi)
    ws = _workspace(grid)
    out = ws.dx(w.spectrum, 3) + _adj_nl(ws, product_fields(ws, phi.spectrum), w.spectrum)
    return RealField.from_spectrum(grid, out)


def spectral_tail_fraction(f) -> float:
    """Fraction of spectral energy carried by the top third of wavenumbers."""
    grid = f.grid
    power = np.abs(f.spectrum) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    tail = np.abs(grid.xi) >= (2.0 / 3.0) * grid.xi_max
    return float(np.sum(power[tail])) / total
