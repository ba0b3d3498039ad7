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
adjoint) to the product grid of 2n points, and one batched ``rfft`` brings
two products back, all in buffers and with multipliers cached once per grid
(see ``_Workspace``).  That 2x zero-padding
dealiases every quadratic and cubic product, and under it the flux form
equals the expanded one up to round-off: the aliases of a cubic product land
outside the kept band.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spectral import RealField, SpectralGrid, require_mean_free, same_grid

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

FLOW_TAGS = ("third_order_bo",)


@dataclass(frozen=True)
class FlowKind:
    """Selects the flow that ``stepper.integrate`` marches.  ``third_order_bo``
    is the only one; the kind stays because callers build it and read ``tag``.
    The Airy flow ``phi_t = phi_xxx`` has one exact path, ``airy_propagate``.
    The linearized flow and its backward adjoint ride on a background state
    and are marched together with it by ``stepper.integrate_linearized_pair``
    and ``stepper.integrate_adjoint_pair``.
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
    """Cached symbols and preallocated buffers for one grid.

    Every kernel writes into these buffers, so a workspace is not re-entrant
    and not thread-safe.  Each buffer has one role, so none is overwritten
    while another kernel still reads it:

    * ``pad``: the padded half spectrum that ``to_phys`` transforms, whose
      first n/2 modes ``pad_lo`` it fills;
    * ``bg``: phi and H phi_x of the background (``product_fields``);
    * ``sec``: the two rows of the second state of a pair;
    * ``prod``: the two products that go back to the half spectrum;
    * ``tmp``: one product-grid row of scratch;
    * ``spec``: the ``rfft`` of ``prod``, whose first n/2+1 modes are
      ``spec_lo``.

    ``table_fields`` and ``table_derivs`` are the two pairs of table rows
    that ``to_phys`` applies (see ``product_fields``, ``_lin_nl`` and
    ``_adj_nl``).  ``lam`` is the linear symbol on the half spectrum.
    ``out_tbo``, ``out_lin`` and ``out_adj`` are each flow's pair of output
    multipliers: the half spectrum of the flow's nonlinear part is
    ``mult[0] * rfft(prod[0]) + mult[1] * rfft(prod[1])`` on the first n/2+1
    modes.  Each pair folds in the 1/2 that undoes the twice longer
    ``rfft``, the flow's derivative and Hilbert symbols, and its zeroed
    Nyquist mode.
    """

    __slots__ = ("grid", "n", "half", "big", "table_fields", "table_derivs", "absk", "lam",
                 "pad", "pad_lo", "bg", "sec", "prod", "tmp", "spec", "spec_lo", "out_tbo",
                 "out_lin", "out_adj")

    def __init__(self, grid: SpectralGrid):
        n = grid.n
        half = n // 2
        self.grid, self.n, self.half = grid, n, half
        self.big = 2 * n
        k = np.abs(grid.xi[: half + 1])
        odd = np.ones(half + 1)  # odd symbols zero the Nyquist mode
        odd[half] = 0.0
        ik = 1j * k * odd
        self.absk = half_absk(grid)
        self.lam = linear_symbol(grid)[: half + 1].copy()
        # table rows: phi = s, H phi_x = |k| s, phi_x = ik s and
        # H phi_xx = i k|k| s; the padding keeps the modes below the Nyquist,
        # and the 2 undoes the 1/big of the twice longer irfft
        table = 2.0 * np.stack((np.ones(half + 1), self.absk, ik, 1j * k * k))[:, :half]
        self.table_fields, self.table_derivs = table[:2], table[2:]
        self.pad = np.zeros((2, n + 1), dtype=complex)
        self.pad_lo = self.pad[:, :half]
        self.bg, self.sec, self.prod = (np.empty((2, self.big)) for _ in range(3))
        self.tmp = np.empty(self.big)
        self.spec = np.empty((2, n + 1), dtype=complex)
        self.spec_lo = self.spec[:, : half + 1]
        # see _tbo_nl, _lin_nl and _adj_nl for the products they multiply;
        # _tbo_nl forms 4 times its flux, hence 1/8 where 1/2 would do
        self.out_tbo = np.stack((0.125 * ik, 0.1875 * ik * self.absk))
        self.out_lin = np.stack((0.375 * ik, 0.375 * ik * self.absk))
        self.out_adj = np.stack((0.375 * odd, 0.375 * self.absk)).astype(complex)

    def to_phys(self, spec, rows, out):
        """Product-grid samples of the table rows ``rows`` (``table_fields`` or
        ``table_derivs``) applied to a half spectrum, written into ``out`` (2, 2n).
        The Nyquist mode of ``spec`` is not read."""
        np.multiply(rows, spec[: self.half], out=self.pad_lo)
        return np.fft.irfft(self.pad, self.big, axis=-1, out=out)

    def from_prod(self, mult, out):
        """``mult[0]`` times the half spectrum of ``prod[0]`` plus ``mult[1]``
        times that of ``prod[1]``, written into ``out`` (n/2+1,)."""
        np.fft.rfft(self.prod, axis=-1, out=self.spec)
        spec = np.multiply(mult, self.spec_lo, out=self.spec_lo)
        return np.add(spec[0], spec[1], out=out)


@functools.cache
def _workspace(grid: SpectralGrid) -> _Workspace:
    return _Workspace(grid)


# ---------------------------------------------------------------------------
# Nonlinear parts (half spectrum in, half spectrum out).  The linear term
# phi_xxx is kept separate so the integrating-factor stepper can treat it
# exactly.  Each evaluation is one batched irfft of at most two rows and one
# batched rfft of two products, formed in the workspace's buffers; the
# result is written into ``out``.  H d_x has the symbol |k|.


def product_fields(ws: _Workspace, s, out=None):
    """phi and H phi_x of the spectrum s on the product grid, written into
    ``out`` (2, 2n), a new array when omitted."""
    return ws.to_phys(s, ws.table_fields, np.empty((2, ws.big)) if out is None else out)


def _tbo_nl(ws: _Workspace, fields, out):
    # d_x [phi ((3/4) H phi_x - (1/4) phi^2) + (3/8) H d_x (phi^2)]:
    # prod holds 4 times the flux, phi (3 H phi_x - phi^2), and phi^2; the 4,
    # a power of two, changes no bit of what out_tbo's 1/8 takes back out
    p, hx = fields
    flux, sq = ws.prod
    tmp = ws.tmp
    np.multiply(p, p, out=sq)
    np.multiply(hx, 3.0, out=tmp)
    np.subtract(tmp, sq, out=tmp)
    np.multiply(p, tmp, out=flux)
    return ws.from_prod(ws.out_tbo, out)


def _lin_nl(ws: _Workspace, fields, s_v, out):
    # Gateaux derivative of _tbo_nl at phi (given by its fields) in direction v:
    # (3/4) d_x [v H phi_x + phi H v_x - phi^2 v + H d_x (phi v)];
    # prod holds the flux v H phi_x + phi (H v_x - phi v) and phi v
    p, hx = fields
    v, vh = ws.to_phys(s_v, ws.table_fields, ws.sec)
    flux, pv = ws.prod
    tmp = ws.tmp
    np.multiply(p, v, out=pv)
    np.subtract(vh, pv, out=tmp)
    np.multiply(p, tmp, out=tmp)
    np.multiply(v, hx, out=flux)
    np.add(flux, tmp, out=flux)
    return ws.from_prod(ws.out_lin, out)


def _adj_nl(ws: _Workspace, fields, s_w, out):
    # w_t - w_xxx = (3/2) phi phi_x w - (3/4)(phi^2 w)_x
    #               + (3/4)[w_x H phi_x + H(w_x phi)_x + phi H w_xx]
    #             = (3/4)[w_x (H phi_x - phi^2) + phi H w_xx + H d_x (w_x phi)];
    # prod holds w_x (H phi_x - phi^2) + phi H w_xx and w_x phi
    p, hx = fields
    wx, whxx = ws.to_phys(s_w, ws.table_derivs, ws.sec)
    direct, wxp = ws.prod
    tmp = ws.tmp
    np.multiply(p, p, out=tmp)
    np.subtract(hx, tmp, out=tmp)
    np.multiply(wx, tmp, out=direct)
    np.multiply(p, whxx, out=tmp)
    np.add(direct, tmp, out=direct)
    np.multiply(wx, p, out=wxp)
    return ws.from_prod(ws.out_adj, out)


def nonlinear_spectrum(tag: str, ws: _Workspace, s, fields=None, out=None):
    """Nonlinear part of a flow on the half spectrum, written into ``out``
    (n/2+1,), a new array when omitted.

    ``fields`` are the ``product_fields`` of the state that the third-order
    terms are built on: ``s`` itself for ``third_order_bo`` (computed here
    into the workspace when omitted), and the background for
    ``linearized_tbo`` and ``adjoint_linearized_tbo``, which need them.
    """
    if out is None:
        out = np.empty(ws.half + 1, dtype=complex)
    if tag == "third_order_bo":
        return _tbo_nl(ws, product_fields(ws, s, ws.bg) if fields is None else fields, out)
    if tag == "linearized_tbo":
        return _lin_nl(ws, fields, s, out)
    if tag == "adjoint_linearized_tbo":
        return _adj_nl(ws, fields, s, out)
    raise ValueError(f"no nonlinear part for flow {tag!r}")


@functools.cache
def half_absk(grid: SpectralGrid) -> np.ndarray:
    """``|xi|`` on the half spectrum with the Nyquist mode zeroed: the symbol
    of ``H d_x`` on a real field's own modes.

    Built once per grid; the shared array is read-only.
    """
    k = np.abs(grid.xi[: grid.n // 2 + 1])
    k[-1] = 0.0
    k.setflags(write=False)
    return k


@functools.cache
def linear_symbol(grid: SpectralGrid) -> np.ndarray:
    """Exact symbol ``(i xi)^3`` of the linear part phi_xxx (diagonal in Fourier).

    Built once per grid; the shared array is read-only.
    """
    lam = (1j * grid.xi) ** 3
    lam[grid.nyquist_index] = 0.0
    lam.setflags(write=False)
    return lam


@functools.cache
def xi_cubed(grid: SpectralGrid) -> np.ndarray:
    """``grid.xi**3``, the Airy phase per unit time.

    Built once per grid; the shared array is read-only.
    """
    cube = grid.xi**3
    cube.setflags(write=False)
    return cube


def airy_symbol(grid: SpectralGrid, t: float, modes: int | None = None) -> np.ndarray:
    """Unimodular multiplier ``exp(-i xi^3 t)`` with the Nyquist mode zeroed, on
    the first ``modes`` wavenumbers in FFT order (all n when omitted)."""
    sym = np.exp(-1j * xi_cubed(grid)[:modes] * t)
    sym[grid.nyquist_index] = 0.0
    return sym


# ---------------------------------------------------------------------------
# Public field-level operators


def airy_propagate(f, t: float):
    """Exact solution of ``phi_t = phi_xxx`` after time t."""
    return type(f).from_spectrum(f.grid, airy_symbol(f.grid, t, f.modes.size) * f.modes)


def _with_linear(f, ws: _Workspace, kernel, *args) -> RealField:
    """Field of f_xxx plus the half spectrum ``kernel(ws, *args, out)``."""
    nl = kernel(ws, *args, np.empty(ws.half + 1, dtype=complex))
    return RealField.from_spectrum(f.grid, ws.lam * f.modes + nl)


def tbo_rhs(phi: RealField) -> RealField:
    """Third-order Benjamin-Ono right-hand side, flux form (dealiased)."""
    require_mean_free(phi)
    ws = _workspace(phi.grid)
    return _with_linear(phi, ws, _tbo_nl, product_fields(ws, phi.modes, ws.bg))


def linearized_tbo_rhs(v: RealField, phi: RealField) -> RealField:
    """Linearization of the third-order flow around ``phi`` in direction ``v``."""
    ws = _workspace(same_grid(v, phi))
    return _with_linear(v, ws, _lin_nl, product_fields(ws, phi.modes, ws.bg), v.modes)


def adjoint_linearized_rhs(w: RealField, phi: RealField) -> RealField:
    """Right-hand side of the backward adjoint of the linearized flow."""
    ws = _workspace(same_grid(w, phi))
    return _with_linear(w, ws, _adj_nl, product_fields(ws, phi.modes, ws.bg), w.modes)


def spectral_tail_fraction(h) -> float:
    """Fraction of spectral energy carried by the top third of wavenumbers.

    ``h`` is the half spectrum of a real field (its n/2+1 nonnegative
    wavenumbers).  The top third are the modes with ``|xi| >= (2/3) xi_max``,
    which on the half spectrum are the indices from n/3 up.
    """
    power = np.abs(h)
    power *= power
    power[1:-1] *= 2.0  # an interior mode stands for itself and its conjugate
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    n = 2 * (len(h) - 1)
    return float(np.sum(power[(n + 2) // 3:])) / total
