"""Conserved and almost-conserved functionals.

The three classical energies of the hierarchy, the linear vector field
``L = x + 3t d_xx`` and its nonlinear counterpart, and the modified
(quadratic plus cubic-corrected) energy used to monitor the linearized flow
at low regularity.  All x-weighted functionals use the centered coordinate
and are only meaningful while the state stays away from the periodic seam;
a support-leakage warning fires otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import flows, spectral
from .spectral import (
    RealField,
    dealiased_product,
    derivative,
    hilbert,
    l2_norm,
    same_grid,
)

__all__ = [
    "SupportLeakageWarning",
    "EDGE_TOL",
    "e0",
    "e1",
    "e2",
    "edge_fraction",
    "l_vector_field",
    "l_nonlinear",
    "ModifiedEnergy",
    "modified_energy",
    "fractional_derivative",
    "EnergySeries",
    "track",
    "track_bytes",
    "track_pair",
    "CHANNELS",
    "PAIR_CHANNELS",
]


class SupportLeakageWarning(UserWarning):
    """Too much of the field's energy sits near the periodic seam."""


# Fraction of ||phi||^2 allowed in the outer tenth of the domain before
# x-weighted functionals are flagged as untrustworthy.
EDGE_TOL = 1e-6

# The modified energy's cubic correction acts above the moving cutoff
# ``C_CUT * t**(-1/3)``.
C_CUT = 1.0


def _quad(f: RealField) -> float:
    return float(f.grid.spacing * np.sum(f.values))


def e0(phi: RealField) -> float:
    """integral of phi^2."""
    return float(phi.grid.spacing * np.sum(phi.values**2))


def e1(phi: RealField) -> float:
    """integral of phi H(phi_x) - phi^3 / 3."""
    cross = dealiased_product(phi, hilbert(derivative(phi)))
    cubic = dealiased_product(dealiased_product(phi, phi), phi)
    return _quad(cross) - _quad(cubic) / 3.0


def e2(phi: RealField) -> float:
    """integral of phi_x^2 - (3/4) phi^2 H(phi_x) + phi^4 / 8."""
    px = derivative(phi)
    sq = dealiased_product(phi, phi)
    cross = dealiased_product(sq, hilbert(px))
    quart = dealiased_product(sq, sq)
    return e0(px) - 0.75 * _quad(cross) + 0.125 * _quad(quart)


def edge_fraction(phi) -> float:
    """Share of ||phi||^2 in the outer 10 percent of the domain."""
    n = phi.grid.n
    k = n // 20
    power = np.abs(phi.values) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    return float(np.sum(power[:k]) + np.sum(power[-k:])) / total


def _warn_if_leaking(phi, what: str) -> None:
    frac = edge_fraction(phi)
    if frac > EDGE_TOL:
        warnings.warn(
            f"{what}: {frac:.2e} of the field's energy lies in the outer 10% "
            "of the domain; x-weighted values are unreliable",
            SupportLeakageWarning,
            stacklevel=3,
        )


def l_vector_field(phi: RealField, t: float) -> RealField:
    """``x phi + 3 t phi_xx`` with the centered coordinate."""
    _warn_if_leaking(phi, "l_vector_field")
    vals = phi.grid.x * phi.values + 3.0 * t * derivative(phi, 2).values
    return RealField(phi.grid, vals)


def l_nonlinear(phi: RealField, t: float) -> RealField:
    """Nonlinear companion of the vector field.

    ``x phi + 3t phi_xx - (3t/4) phi^3 + (9t/4)[phi H phi_x + H(phi phi_x)]``.
    The coefficients are pinned by requiring the result to solve the backward
    adjoint linearized equation exactly along the nonlinear flow (see the
    corresponding test), which is what makes its critical-norm boundedness a
    meaningful diagnostic.
    """
    _warn_if_leaking(phi, "l_nonlinear")
    px = derivative(phi)
    cubic = dealiased_product(dealiased_product(phi, phi), phi)
    g = dealiased_product(phi, hilbert(px)).values + hilbert(dealiased_product(phi, px)).values
    vals = (
        phi.grid.x * phi.values
        + 3.0 * t * derivative(phi, 2).values
        - 0.75 * t * cubic.values
        + 2.25 * t * g
    )
    return RealField(phi.grid, vals)


# ---------------------------------------------------------------------------
# Modified energy for the linearized flow at critical regularity


def fractional_derivative(v: RealField, power: float) -> RealField:
    """Apply ``|D|**power``: multiplier ``|xi|**power``, zero mode annihilated."""
    xi = v.wavenumbers
    out = np.zeros(xi.size, dtype=complex)
    nz = xi != 0.0
    out[nz] = np.abs(xi[nz]) ** power * v.modes[nz]
    return RealField.from_spectrum(v.grid, out)


def _high_cut(fld: RealField, t: float) -> RealField:
    """Smooth projection onto wavenumbers above ``C_CUT * t**(-1/3)``."""
    theta = C_CUT * t ** (-1.0 / 3.0)
    mask = 1.0 - spectral.dyadic_bump(fld.wavenumbers / theta)
    return RealField.from_spectrum(fld.grid, mask * fld.modes)


@dataclass(frozen=True)
class ModifiedEnergy:
    total: float
    quadratic: float
    cubic: float


def modified_energy(y: RealField, phi: RealField, t: float) -> ModifiedEnergy:
    """Quadratic energy of ``y`` plus its cubic high-frequency correction.

    The correction couples the pieces of ``y`` and ``phi`` above the moving
    cutoff ``C_CUT * t**(-1/3)`` and is built so that its time derivative
    cancels the leading quadratic growth of ``||y||^2`` along the linearized
    flow.  Requires t > 0 because of the cutoff.
    """
    if t <= 0.0:
        raise ValueError(f"modified energy needs t > 0, got {t}")
    same_grid(y, phi)
    quadratic = l2_norm(y) ** 2
    y_hi = _high_cut(y, t)
    phi_hi = _high_cut(phi, t)
    a = fractional_derivative(y_hi, -0.5)          # |D|^(-1/2) y_hi
    b = hilbert(fractional_derivative(y_hi, 0.5))  # H |D|^(1/2) y_hi
    c = hilbert(a)                            # H |D|^(-1/2) y_hi
    dinv = spectral.antiderivative(phi_hi)
    hphi = hilbert(phi_hi)
    up = fractional_derivative(y_hi, 0.5)          # |D|^(1/2) y_hi
    term1 = dealiased_product(a, dealiased_product(b, dinv))
    term2 = dealiased_product(a, dealiased_product(c, hphi))
    term3 = dealiased_product(up, dealiased_product(c, dinv))
    cubic = -0.125 * (_quad(term1) + _quad(term2) + _quad(term3))
    return ModifiedEnergy(quadratic + cubic, quadratic, cubic)


# ---------------------------------------------------------------------------
# Channel tracking


# Frames of an ``EnergySeries`` turned into Python floats at a time by ``to_rows``.
_TABLE_ROWS = 64


@dataclass
class EnergySeries:
    """Named diagnostic channels sampled along a trajectory."""

    times: np.ndarray
    channels: dict

    def __post_init__(self):
        for name, vals in self.channels.items():
            if len(vals) != len(self.times):
                raise ValueError(f"channel {name!r} length mismatch")

    @classmethod
    def join(cls, parts) -> "EnergySeries":
        """One series of consecutive parts that share their channels."""
        return cls(np.concatenate([p.times for p in parts]),
                   {name: np.concatenate([p.channels[name] for p in parts])
                    for name in parts[0].channels})

    def drift(self, name: str) -> float:
        """max |value - value(0)| / |value(0)|, or max |value| where value(0) is 0."""
        vals = np.asarray(self.channels[name], dtype=float)
        dev = float(np.max(np.abs(vals - vals[0])))
        return dev / abs(float(vals[0])) if vals[0] != 0.0 else dev

    def to_rows(self):
        """The header ``t`` and the channel names in order, then one row of
        Python floats a frame, taken from each channel ``_TABLE_ROWS`` frames
        at a time: a table writer that consumes the rows as they come holds
        no more than that many as Python objects."""
        names = sorted(self.channels)
        yield ["t"] + names
        cols = [np.asarray(self.times)] + [np.asarray(self.channels[n]) for n in names]
        for i in range(0, len(self.times), _TABLE_ROWS):
            yield from zip(*(c[i:i + _TABLE_ROWS].tolist() for c in cols))


CHANNELS = ("E0", "E1", "E2", "L2", "H1")


def _check_channels(channels, known) -> None:
    for name in channels:
        if name not in known:
            raise KeyError(f"unknown channel {name!r}")


# Product-grid points per phi^2 transform in ``_energies``: frames are
# squared this many points at a time, ~1 MiB of temporaries.
_CHUNK_POINTS = 2**14


def _chunk_rows(n: int) -> int:
    """Frames per phi^2 transform at n points: at least one."""
    return max(1, _CHUNK_POINTS // n)


def track_bytes(n: int, rows: int) -> float:
    """Bytes ``track`` allocates beyond ``rows`` half spectra at n points: the
    five channels, 40 B a frame, three mode weights, 24 B a mode, and one
    chunk of frames, at most ``max(n, _CHUNK_POINTS)`` points of 64 B (the
    padded spectrum, the product-grid samples, their square and its
    transform, 16 B a point each).  No division: ``experiments._run_bytes``
    calls it before the grid's n is checked."""
    return 40.0 * rows + 24.0 * (n // 2 + 1) + 64.0 * min(rows * n, max(n, _CHUNK_POINTS))


def _energies(grid, h) -> dict:
    """E0, E1, E2, L2 and H1 of frames of half spectra ``h`` (B, n/2+1).

    Quadratic terms are Parseval sums over the half spectrum, each interior
    mode weighted 2 for its conjugate.  The cubic and quartic terms are those
    of ``e1`` and ``e2``: phi^2 is the batched ``spectral.half_product`` that
    ``dealiased_product`` forms (its Nyquist mode dropped), and each integral
    against it is again a Parseval sum.  Cubic products of the band then
    integrate exactly, and E2's quartic term squares the truncated phi^2.

    Frames are taken ``_chunk_rows(n)`` at a time, so the temporaries stay
    near ``_CHUNK_POINTS`` points whatever the number of frames.  Every sum is
    a row-wise ``np.sum``, so each channel's bits depend only on its own frame:
    not on the chunks, the number of frames, or a BLAS kernel.
    """
    n, half = grid.n, grid.n // 2
    scale = grid.length / n**2  # integral of |f|^2 = scale * sum over |f_k|^2
    weight = np.full(half + 1, 2.0)
    weight[0] = weight[half] = 1.0
    absk = flows.half_absk(grid)
    absk2, sobolev = absk**2, 1.0 + grid.xi[: half + 1] ** 2

    def integral(a, b):  # integral of the product of two real fields, by their half spectra
        return scale * np.sum(weight * (a * b.conj()).real, axis=1)

    def weighted(power, w):  # scale * sum over power * w, frame by frame
        return scale * np.sum(power * w, axis=1)

    def chunk(rows):  # the CHANNELS of a few frames; their temporaries go on return
        power = weight * (rows.real**2 + rows.imag**2)
        sq = spectral.half_product(rows, rows)
        e0_ = scale * power.sum(axis=1)
        cubic = integral(sq, rows)  # integral of phi^3
        cross = integral(sq, absk * rows)  # integral of phi^2 H phi_x
        quart = integral(sq, sq)  # integral of phi^4
        return (e0_,
                weighted(power, absk) - cubic / 3.0,
                weighted(power, absk2) - 0.75 * cross + 0.125 * quart,
                np.sqrt(e0_),
                np.sqrt(weighted(power, sobolev)))

    out = {name: np.empty(len(h)) for name in CHANNELS}
    step = _chunk_rows(n)
    for i in range(0, len(h), step):
        for name, vals in zip(CHANNELS, chunk(h[i: i + step])):
            out[name][i: i + step] = vals
    return out


def track(traj, channels) -> EnergySeries:
    """Evaluate named channels of ``CHANNELS`` at every frame of a trajectory.

    All frames are evaluated from the trajectory's half spectra, with at most
    ``track_bytes`` of temporaries: one chunk of ``_energies`` (about 1 MiB
    from n = 2**14 on, less below) and 40 B a frame for the channels.  The
    values agree with ``e0``, ``e1``, ``e2``, ``l2_norm`` and
    ``sobolev_norm(., 1)`` frame by frame up to round-off.  Each frame's
    values depend on that frame alone, so a trajectory may be one block of a
    streamed march (``stepper.integrate`` with ``reduce``): joining the
    blocks' series with ``EnergySeries.join`` gives the bits of one whole-run
    call.
    """
    _check_channels(channels, CHANNELS)
    values = _energies(traj.grid, traj.spectra)
    return EnergySeries(traj.times, {name: values[name] for name in channels})


PAIR_CHANNELS = ("v_l2", "y_l2", "modified_energy", "modified_energy_cubic")


def track_pair(phi_traj, v_traj, channels) -> EnergySeries:
    """Evaluate coupled (background, linearized) channels frame by frame.

    Each frame computes ``y = |D|^(-1/2) v`` once, and the modified energy of
    y once if a requested channel reads it; at t = 0 the energy is NaN.
    """
    if len(phi_traj.frames) != len(v_traj.frames):
        raise ValueError("trajectories have different frame counts")
    _check_channels(channels, PAIR_CHANNELS)
    reads_energy = any(name.startswith("modified_energy") for name in channels)
    out = {name: [] for name in channels}
    for (t, phi), (_t2, v) in zip(phi_traj.frames, v_traj.frames):
        y = fractional_derivative(v, -0.5)
        energy = ModifiedEnergy(np.nan, np.nan, np.nan)
        if reads_energy and t > 0.0:
            energy = modified_energy(y, phi, t)
        values = {"v_l2": l2_norm(v), "y_l2": l2_norm(y),
                  "modified_energy": energy.total, "modified_energy_cubic": energy.cubic}
        for name in channels:
            out[name].append(values[name])
    series = {name: np.asarray(vals) for name, vals in out.items()}
    return EnergySeries(phi_traj.times, series)
