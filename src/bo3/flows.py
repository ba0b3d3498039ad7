"""Right-hand sides and exact propagators for the evolution equations.

The nonlinear flow implemented here is the third-order Benjamin-Ono equation
in the convention that makes the classical energies of the hierarchy exact
invariants, written as the derivative of a flux:

    phi_t = phi_xxx + d_x [(3/4)(phi H phi_x + H(phi phi_x)) - (1/4) phi^3]

together with the Airy flow ``phi_t = phi_xxx`` (its linear part, solved
exactly), its linearization around a background, and the backward adjoint of
that linearization.  Every evolved field is real, so the kernels work on its
half spectrum, the n/2+1 nonnegative wavenumbers: one batched ``irfft`` takes
two rows (phi and H phi_x of a state, or their derivative pair for the
adjoint; multipliers cached once per grid) to the product grid of 2n points,
and one batched ``rfft`` brings two products back.  That 2x zero-padding
dealiases every quadratic and cubic product, and under it the flux form
equals the expanded one up to round-off: the aliases of a cubic product land
outside the kept band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import RealField, SpectralGrid, require_mean_free

__all__ = [
    "FlowKind",
    "FLOW_TAGS",
    "airy_propagate",
    "airy_symbol",
    "tbo_rhs",
    "linearized_tbo_rhs",
    "adjoint_linearized_rhs",
    "spectral_tail_fraction",
]

FLOW_TAGS = ("airy", "third_order_bo")


@dataclass(frozen=True)
class FlowKind:
    """Selects the flow that ``stepper.integrate`` marches.

    ``airy`` is the linear flow ``phi_t = phi_xxx``, propagated exactly, and
    ``third_order_bo`` the nonlinear one.  The linearized flow and its
    backward adjoint ride on a background state and are marched together
    with it by ``stepper.integrate_linearized_pair`` and
    ``stepper.integrate_adjoint_pair``.
    """

    tag: str

    def __post_init__(self):
        if self.tag not in FLOW_TAGS:
            raise ValueError(f"unknown flow tag {self.tag!r}")


# ---------------------------------------------------------------------------
# Half-spectrum workspace.  The integrator spends essentially all of its time
# here.  A real field is carried by its n/2+1 nonnegative wavenumbers; products
# are formed on the product grid of 2n points, which dealiases them.


class _Workspace:
    """Cached symbols and one padding buffer for one grid (not for concurrent use)."""

    __slots__ = ("grid", "n", "half", "big", "table", "ik", "absk", "pad")

    def __init__(self, grid: SpectralGrid):
        n = grid.n
        half = n // 2
        self.grid, self.n, self.half = grid, n, half
        self.big = 2 * n
        k = np.abs(grid.xi[: half + 1])
        odd = np.ones(half + 1)  # odd symbols zero the Nyquist mode
        odd[half] = 0.0
        self.ik = 1j * k * odd
        self.absk = k * odd
        # table rows (see _FIELDS and _DERIVS): phi = s, H phi_x = |k| s,
        # phi_x = ik s and H phi_xx = i k|k| s; the padding keeps the modes
        # below the Nyquist, and the 2 undoes the 1/big of the twice longer irfft
        table = np.stack((np.ones(half + 1), self.absk, self.ik, 1j * k * k))
        self.table = 2.0 * table[:, :half]
        self.pad = np.zeros((2, n + 1), dtype=complex)

    def to_phys(self, spec, rows):
        """Product-grid samples of the table rows ``rows`` (a slice) applied to a spectrum.

        Only the first n/2 coefficients of ``spec`` are read, so a full
        Hermitian spectrum serves as well as a half one.
        """
        table = self.table[rows]
        buf = self.pad[: len(table)]
        np.multiply(table, spec[: self.half], out=buf[:, : self.half])
        return np.fft.irfft(buf, self.big, axis=-1)

    def from_phys(self, *vals):
        """Half spectra of product-grid samples, truncated to the grid's band."""
        out = np.fft.rfft(np.array(vals), axis=-1)[:, : self.half + 1] * 0.5
        out[:, self.half] = 0.0
        return out

    def full(self, h):
        """Full Hermitian spectrum (last axis n) of a half spectrum (last axis n/2+1)."""
        out = np.empty(h.shape[:-1] + (self.n,), dtype=complex)
        out[..., : self.half + 1] = h
        out[..., self.half + 1:] = np.conj(h[..., self.half - 1: 0: -1])
        return out


_WORKSPACES: dict = {}


def _workspace(grid: SpectralGrid) -> _Workspace:
    ws = _WORKSPACES.get(grid)
    if ws is None:
        ws = _WORKSPACES[grid] = _Workspace(grid)
    return ws


# ---------------------------------------------------------------------------
# Nonlinear parts (half spectrum in, half spectrum out).  The linear term
# phi_xxx is kept separate so the integrating-factor stepper can treat it
# exactly.  Each evaluation is one batched irfft of at most two rows and one
# batched rfft of at most two products; H d_x has the symbol |k|.

_FIELDS = slice(0, 2)  # table rows phi, H phi_x
_DERIVS = slice(2, 4)  # table rows phi_x, H phi_xx


def product_fields(ws: _Workspace, s):
    """phi and H phi_x of the spectrum s on the product grid."""
    return ws.to_phys(s, _FIELDS)


def _tbo_nl(ws: _Workspace, fields):
    # d_x [phi ((3/4) H phi_x - (1/4) phi^2) + (3/8) H d_x (phi^2)]
    p, hx = fields
    sq = p * p
    flux, sq = ws.from_phys(p * (0.75 * hx - 0.25 * sq), sq)
    return ws.ik * (flux + 0.375 * ws.absk * sq)


def _lin_nl(ws: _Workspace, fields, s_v):
    # Gateaux derivative of _tbo_nl at phi (given by its fields) in direction v:
    # (3/4) d_x [v H phi_x + phi H v_x - phi^2 v + H d_x (phi v)]
    p, hx = fields
    v, vh = ws.to_phys(s_v, _FIELDS)
    flux, pv = ws.from_phys(v * hx + p * (vh - p * v), p * v)
    return 0.75 * ws.ik * (flux + ws.absk * pv)


def _adj_nl(ws: _Workspace, fields, s_w):
    # w_t - w_xxx = (3/2) phi phi_x w - (3/4)(phi^2 w)_x
    #               + (3/4)[w_x H phi_x + H(w_x phi)_x + phi H w_xx]
    #             = (3/4)[w_x (H phi_x - phi^2) + phi H w_xx + H d_x (w_x phi)]
    p, hx = fields
    wx, whxx = ws.to_phys(s_w, _DERIVS)
    direct, wxp = ws.from_phys(wx * (hx - p * p) + p * whxx, wx * p)
    return 0.75 * (direct + ws.absk * wxp)


def nonlinear_spectrum(tag: str, ws: _Workspace, s, fields=None):
    """Nonlinear part of a flow on the half spectrum.

    ``fields`` are the ``product_fields`` of the state that the third-order
    terms are built on: ``s`` itself for ``third_order_bo`` (computed here
    when omitted), and the background for ``linearized_tbo`` and
    ``adjoint_linearized_tbo``, which need them.
    """
    if tag == "third_order_bo":
        return _tbo_nl(ws, product_fields(ws, s) if fields is None else fields)
    if tag == "linearized_tbo":
        return _lin_nl(ws, fields, s)
    if tag == "adjoint_linearized_tbo":
        return _adj_nl(ws, fields, s)
    raise ValueError(f"no nonlinear part for flow {tag!r}")


def linear_symbol(grid: SpectralGrid) -> np.ndarray:
    """Exact symbol ``(i xi)^3`` of the linear part phi_xxx (diagonal in Fourier)."""
    lam = (1j * grid.xi) ** 3
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
    return type(f).from_spectrum(f.grid, airy_symbol(f.grid, t) * f.spectrum)


def _check_same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise ValueError("fields live on different grids")
    return g


def _with_linear(f, ws: _Workspace, nl) -> RealField:
    """Field of f_xxx plus the half spectrum nl.

    The linear part stays on the full spectrum, formed as
    ``spectral.derivative`` forms it.
    """
    out = linear_symbol(f.grid) * f.spectrum + ws.full(nl)
    return RealField.from_spectrum(f.grid, out)


def tbo_rhs(phi: RealField) -> RealField:
    """Third-order Benjamin-Ono right-hand side, flux form (dealiased)."""
    require_mean_free(phi)
    ws = _workspace(phi.grid)
    return _with_linear(phi, ws, _tbo_nl(ws, product_fields(ws, phi.spectrum)))


def linearized_tbo_rhs(v: RealField, phi: RealField) -> RealField:
    """Linearization of the third-order flow around ``phi`` in direction ``v``."""
    ws = _workspace(_check_same_grid(v, phi))
    nl = _lin_nl(ws, product_fields(ws, phi.spectrum), v.spectrum)
    return _with_linear(v, ws, nl)


def adjoint_linearized_rhs(w: RealField, phi: RealField) -> RealField:
    """Right-hand side of the backward adjoint of the linearized flow."""
    ws = _workspace(_check_same_grid(w, phi))
    nl = _adj_nl(ws, product_fields(ws, phi.spectrum), w.spectrum)
    return _with_linear(w, ws, nl)


def spectral_tail_fraction(f) -> float:
    """Fraction of spectral energy carried by the top third of wavenumbers.

    ``f`` is a real field or its half spectrum (the n/2+1 nonnegative
    wavenumbers).  The top third are the modes with ``|xi| >= (2/3) xi_max``,
    which on the half spectrum are the indices from n/3 up.
    """
    h = f.spectrum[: f.grid.n // 2 + 1] if hasattr(f, "grid") else f
    power = np.abs(h) ** 2
    power[1:-1] *= 2.0  # an interior mode stands for itself and its conjugate
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    n = 2 * (len(h) - 1)
    return float(np.sum(power[(n + 2) // 3:])) / total
