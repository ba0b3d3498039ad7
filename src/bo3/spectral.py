"""Periodic pseudo-spectral core.

Grids, grid functions with cached spectra, the Hilbert transform, derivatives
and antiderivatives, dealiased products, smooth dyadic (Littlewood-Paley)
projections, Sobolev norms and frequency envelopes.

Conventions
-----------
* The domain is ``[-L/2, L/2)`` sampled at ``n`` equispaced points; ``n`` is a
  power of two.  Wavenumbers are the exact integer multiples of ``2*pi/L`` in
  FFT order, with the Nyquist mode tracked explicitly.
* ``spectrum`` is the plain unnormalized DFT of ``values`` (numpy convention).
* Every multiplier with an odd symbol (and every symbol with nonzero imaginary
  part) zeroes the Nyquist mode so real fields stay real.
* Norms carry the quadrature weight ``L/n`` so that ``sobolev_norm(f, 0)``
  equals the continuum L2 norm over one period.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridError",
    "MeanError",
    "BandError",
    "SpectralGrid",
    "RealField",
    "ComplexField",
    "DyadicBand",
    "FrequencyEnvelope",
    "make_grid",
    "same_grid",
    "hilbert",
    "derivative",
    "antiderivative",
    "dealiased_product",
    "refine",
    "smoothstep",
    "dyadic_bump",
    "band_multiplier",
    "below_multiplier",
    "range_multiplier",
    "half_multiplier",
    "resolved_bands",
    "check_band",
    "project_band",
    "project_below",
    "project_range",
    "l2_norm",
    "sobolev_norm",
    "envelope",
]


class GridError(ValueError):
    """Invalid grid construction parameters."""


class MeanError(ValueError):
    """Operation requires a mean-free field; carries the offending mean."""

    def __init__(self, mean_value: float, tolerance: float):
        self.mean_value = mean_value
        self.tolerance = tolerance
        super().__init__(
            f"field mean {mean_value:.3e} exceeds tolerance {tolerance:.3e}"
        )


class BandError(ValueError):
    """Dyadic band outside the resolved range of the grid."""


# Relative tolerance used to decide whether a field counts as mean-free.
MEAN_RTOL = 1e-10


class SpectralGrid:
    """Uniform periodic grid on ``[-L/2, L/2)`` with cached wavenumbers."""

    __slots__ = ("n", "length", "spacing", "x", "xi", "nyquist_index", "_sgn")

    def __init__(self, n: int, length: float):
        if not isinstance(n, (int, np.integer)) or n < 8 or (n & (n - 1)) != 0:
            raise GridError(f"point count must be a power of two >= 8, got {n!r}")
        length = float(length)
        if not np.isfinite(length) or length <= 0.0:
            raise GridError(f"domain length must be positive and finite, got {length!r}")
        self.n = int(n)
        self.length = length
        self.spacing = length / n
        self.x = -0.5 * length + self.spacing * np.arange(n)
        self.x.setflags(write=False)
        self.xi = 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)
        self.xi.setflags(write=False)
        self.nyquist_index = n // 2
        self._sgn = np.sign(self.xi)
        self._sgn.setflags(write=False)

    @property
    def xi_max(self) -> float:
        """Largest resolved wavenumber magnitude, ``pi*n/L``."""
        return np.pi * self.n / self.length

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpectralGrid)
            and other.n == self.n
            and other.length == self.length
        )

    def __hash__(self):
        return hash((self.n, self.length))

    def __repr__(self):
        return f"SpectralGrid(n={self.n}, length={self.length:.6g})"


def make_grid(n: int, length: float) -> SpectralGrid:
    """Build a grid with the exact wavenumber ladder ``2*pi*m/L``."""
    return SpectralGrid(n, length)


class _Field:
    """Grid function with lazily cached spectrum.  Immutable after creation."""

    __slots__ = ("grid", "values", "_spectrum")

    def __init__(self, grid: SpectralGrid, values, spectrum=None):
        self.grid = grid
        v = np.asarray(values)
        if v.shape != (grid.n,):
            raise ValueError(f"expected {grid.n} samples, got shape {v.shape}")
        self.values = v
        self.values.setflags(write=False)
        self._spectrum = spectrum
        if spectrum is not None:
            self._spectrum.setflags(write=False)

    @property
    def spectrum(self):
        # Lazy DFT cache; safe under concurrent reads since the computed array
        # is identical regardless of which thread stores it first.
        if self._spectrum is None:
            s = np.fft.fft(self.values)
            s.setflags(write=False)
            self._spectrum = s
        return self._spectrum


class RealField(_Field):
    """Real-valued grid function; its spectrum is Hermitian-symmetric."""

    def __init__(self, grid, values, spectrum=None):
        v = np.asarray(values, dtype=float)
        super().__init__(grid, v, spectrum)

    @classmethod
    def from_spectrum(cls, grid: SpectralGrid, spectrum) -> "RealField":
        s = np.asarray(spectrum, dtype=complex)
        v = np.fft.ifft(s)
        # absolute floor keeps all-roundoff (empty) spectra acceptable
        if np.max(np.abs(v.imag)) > 1e-8 * np.max(np.abs(v.real)) + 1e-13:
            raise ValueError("spectrum is not Hermitian-symmetric to tolerance")
        return cls(grid, v.real, s.copy())


class ComplexField(_Field):
    """Complex-valued grid function (no symmetry constraint)."""

    def __init__(self, grid, values, spectrum=None):
        v = np.asarray(values, dtype=complex)
        super().__init__(grid, v, spectrum)

    @classmethod
    def from_spectrum(cls, grid: SpectralGrid, spectrum) -> "ComplexField":
        s = np.asarray(spectrum, dtype=complex)
        return cls(grid, np.fft.ifft(s), s.copy())


def l2_norm(f) -> float:
    """Continuum L2 norm over one period (trapezoid-exact for trig polys)."""
    return float(np.sqrt(f.grid.spacing * np.sum(np.abs(f.values) ** 2)))


def _mean_tolerance(f) -> float:
    return MEAN_RTOL * l2_norm(f)


def require_mean_free(f) -> None:
    m = abs(np.mean(np.asarray(f.values)))
    tol = _mean_tolerance(f)
    if m > tol:
        raise MeanError(float(m), tol)


def same_grid(*fields) -> SpectralGrid:
    """The grid the fields share; a ValueError if they live on different grids."""
    grid = fields[0].grid
    if any(f.grid != grid for f in fields[1:]):
        raise ValueError("fields live on different grids")
    return grid


# ---------------------------------------------------------------------------
# Multipliers


def hilbert(f: RealField) -> RealField:
    """Hilbert transform: multiplier ``-i*sgn(xi)``; kills the zero mode."""
    grid = f.grid
    out = (-1j * grid._sgn) * f.spectrum
    out[grid.nyquist_index] = 0.0
    return type(f).from_spectrum(grid, out)


def derivative(f, order: int = 1):
    """Spectral derivative of order 1..4; odd orders zero the Nyquist mode."""
    if order not in (1, 2, 3, 4):
        raise ValueError(f"derivative order must be in 1..4, got {order}")
    grid = f.grid
    out = (1j * grid.xi) ** order * f.spectrum
    if order % 2 == 1:
        out[grid.nyquist_index] = 0.0
    return type(f).from_spectrum(grid, out)


def antiderivative(f: RealField) -> RealField:
    """Zero-mean antiderivative: multiplier ``1/(i*xi)``, zero mode mapped to 0.

    Requires the input to be mean-free (relative tolerance ``MEAN_RTOL``);
    raises MeanError carrying the offending mean otherwise.
    """
    require_mean_free(f)
    grid = f.grid
    out = np.zeros(grid.n, dtype=complex)
    nz = grid.xi != 0.0
    out[nz] = f.spectrum[nz] / (1j * grid.xi[nz])
    out[grid.nyquist_index] = 0.0
    return type(f).from_spectrum(grid, out)


# ---------------------------------------------------------------------------
# Dealiased products and spectral refinement


def pad_spectrum(spec: np.ndarray, n: int, factor: int) -> np.ndarray:
    """Zero-pad an n-point spectrum to ``factor*n`` bins (drops the Nyquist)."""
    half = n // 2
    out = np.zeros(factor * n, dtype=complex)
    out[:half] = spec[:half] * factor
    out[-half + 1:] = spec[-half + 1:] * factor
    return out


def truncate_spectrum(spec: np.ndarray, n: int, factor: int) -> np.ndarray:
    """Inverse of pad_spectrum: keep the low ``n`` bins, zero the Nyquist."""
    half = n // 2
    out = np.zeros(n, dtype=complex)
    out[:half] = spec[:half] / factor
    out[-half + 1:] = spec[-half + 1:] / factor
    return out


def dealiased_product(f, g):
    """Pointwise product with 2x zero-padding.

    Quadratic interactions of resolved modes are computed exactly and then
    projected back onto the grid's band, which is the sharp version of the
    two-thirds rule.
    """
    grid = same_grid(f, g)
    n = grid.n
    pu = np.fft.ifft(pad_spectrum(f.spectrum, n, 2))
    pv = np.fft.ifft(pad_spectrum(g.spectrum, n, 2))
    real_out = isinstance(f, RealField) and isinstance(g, RealField)
    if isinstance(f, RealField):
        pu = pu.real
    if isinstance(g, RealField):
        pv = pv.real
    big = np.fft.fft(pu * pv)
    out = truncate_spectrum(big, n, 2)
    if real_out:
        return RealField.from_spectrum(grid, out)
    return ComplexField.from_spectrum(grid, out)


def refine(f, factor: int = 2):
    """Trigonometric interpolation of a field onto a ``factor`` times finer grid."""
    grid = f.grid
    fine = SpectralGrid(factor * grid.n, grid.length)
    return type(f).from_spectrum(fine, pad_spectrum(f.spectrum, grid.n, factor))


# ---------------------------------------------------------------------------
# Dyadic (Littlewood-Paley) machinery


def smoothstep(u):
    """C^3 polynomial step: 0 for u <= 0, 1 for u >= 1, fixed formula."""
    u = np.clip(u, 0.0, 1.0)
    return u**4 * (35.0 - 84.0 * u + 70.0 * u**2 - 20.0 * u**3)


def dyadic_bump(u):
    """Even bump: identically 1 on [-1, 1], supported on [-2, 2]."""
    return smoothstep(2.0 - np.abs(np.asarray(u, dtype=float)))


@dataclass(frozen=True)
class DyadicBand:
    """Dyadic frequency band ``|xi| ~ 2**k`` with an optional sign half."""

    k: int
    half: str = "both"

    def __post_init__(self):
        if self.k < 0:
            raise BandError(f"band index must be nonnegative, got {self.k}")
        if self.half not in ("both", "plus", "minus"):
            raise BandError(f"half must be both/plus/minus, got {self.half!r}")


def resolved_bands(grid: SpectralGrid) -> range:
    """Band indices k with 2**k within the grid's resolved range."""
    return range(0, int(np.floor(np.log2(grid.xi_max))) + 1)


def check_band(grid: SpectralGrid, k: int) -> None:
    """Raise BandError unless band k is one of the grid's ``resolved_bands``."""
    if k not in resolved_bands(grid):
        raise BandError(f"band {k} outside resolved range of {grid!r}")


@functools.cache
def band_multiplier(grid: SpectralGrid, k: int) -> np.ndarray:
    """Smooth projector onto the band ``|xi| ~ 2**k`` (block |xi|<~1 for k=0).

    Built once per grid and band; the shared array is read-only.
    """
    check_band(grid, k)
    if k == 0:
        mask = dyadic_bump(grid.xi)
    else:
        mask = dyadic_bump(grid.xi / 2.0**k) - dyadic_bump(grid.xi / 2.0 ** (k - 1))
    mask.setflags(write=False)
    return mask


@functools.cache
def below_multiplier(grid: SpectralGrid, k: int) -> np.ndarray:
    """Cumulative projector onto bands < k, built once per grid and k (read-only)."""
    mask = dyadic_bump(2.0 * grid.xi if k <= 0 else grid.xi / 2.0 ** (k - 1))
    mask.setflags(write=False)
    return mask


def range_multiplier(grid: SpectralGrid, k1: int, k2: int) -> np.ndarray:
    """Projector onto bands strictly between k1 and k2."""
    return below_multiplier(grid, k2) - below_multiplier(grid, k1 + 1)


def half_multiplier(grid: SpectralGrid, half: str) -> np.ndarray:
    if half == "both":
        return np.ones(grid.n)
    if half == "plus":
        return (grid.xi > 0.0).astype(float)
    return (grid.xi < 0.0).astype(float)


def _apply_mask(f, mask: np.ndarray, force_complex: bool):
    return (ComplexField if force_complex else type(f)).from_spectrum(f.grid, mask * f.spectrum)


def project_band(f, band):
    """Littlewood-Paley projection; half-projections return ComplexField."""
    if isinstance(band, int):
        band = DyadicBand(band)
    mask = band_multiplier(f.grid, band.k)
    if band.half != "both":
        mask = mask * half_multiplier(f.grid, band.half)
    return _apply_mask(f, mask, force_complex=band.half != "both")


def project_below(f, k: int):
    """Cumulative projection onto bands < k."""
    return _apply_mask(f, below_multiplier(f.grid, k), force_complex=False)


def project_range(f, ks):
    """Projection onto bands strictly between ks[0] and ks[1]."""
    k1, k2 = ks
    return _apply_mask(f, range_multiplier(f.grid, k1, k2), force_complex=False)


# ---------------------------------------------------------------------------
# Norms and envelopes


def sobolev_norm(f, s: float, homogeneous: bool = False) -> float:
    """Sobolev norm from the weighted Plancherel sum.

    Weight is ``|xi|`` (homogeneous) or ``sqrt(1 + xi^2)`` (inhomogeneous);
    the normalization makes s = 0 agree with the continuum L2 norm.  A
    homogeneous norm with s <= 0 requires a mean-free field.
    """
    grid = f.grid
    power = np.abs(f.spectrum) ** 2
    if homogeneous:
        if s <= 0.0:
            require_mean_free(f)
        nz = grid.xi != 0.0
        total = np.sum(np.abs(grid.xi[nz]) ** (2.0 * s) * power[nz])
    else:
        total = np.sum((1.0 + grid.xi**2) ** s * power)
    return float(np.sqrt(grid.length * total)) / grid.n


def band_l2_norms(f) -> np.ndarray:
    """L2 norms of every resolved Littlewood-Paley piece."""
    grid = f.grid
    power = np.abs(f.spectrum) ** 2
    scale = grid.length / grid.n**2
    out = []
    for k in resolved_bands(grid):
        m = band_multiplier(grid, k)
        out.append(np.sqrt(scale * np.sum(m**2 * power)))
    return np.asarray(out)


@dataclass(frozen=True)
class FrequencyEnvelope:
    """Slowly varying majorant of the dyadic L2 norms of a field."""

    delta: float
    c: np.ndarray


def envelope(f, delta: float) -> FrequencyEnvelope:
    """Minimal slowly varying envelope ``c_k = sup_j 2**(-delta|j-k|) ||P_j f||``."""
    if not (0.0 < delta <= 0.5):
        raise ValueError(f"delta must lie in (0, 1/2], got {delta}")
    norms = band_l2_norms(f)
    ks = np.arange(norms.size)
    weights = 2.0 ** (-delta * np.abs(ks[:, None] - ks[None, :]))
    c = np.max(weights * norms[None, :], axis=1)
    return FrequencyEnvelope(delta, c)
