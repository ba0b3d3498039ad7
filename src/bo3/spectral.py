"""Periodic pseudo-spectral core.

Grids, real and complex grid functions with their spectral modes, the Hilbert
transform, derivatives and antiderivatives, dealiased products, smooth dyadic
(Littlewood-Paley) projections, Sobolev norms and frequency envelopes.

Conventions
-----------
* The domain is ``[-L/2, L/2)`` sampled at ``n`` equispaced points; ``n`` is a
  power of two.  Wavenumbers are the exact integer multiples of ``2*pi/L`` in
  FFT order, with the Nyquist mode tracked explicitly.
* ``spectrum`` is the plain unnormalized DFT of ``values`` (numpy convention).
  A real field stores only its half spectrum, the n/2+1 nonnegative modes
  (``rfft``), and derives ``spectrum`` from it; multipliers act on those
  modes, and real products go through ``half_product`` on the 2n-point grid.
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
    "half_product",
    "refine",
    "smoothstep",
    "dyadic_bump",
    "band_multiplier",
    "below_multiplier",
    "half_multiplier",
    "resolved_bands",
    "check_band",
    "project_band",
    "project_below",
    "l2_norm",
    "sobolev_norm",
    "envelope",
    "loglog_slope",
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

    __slots__ = ("n", "length", "spacing", "x", "xi", "nyquist_index")

    def __init__(self, n: int, length: float):
        if not isinstance(n, (int, np.integer)) or n < 8 or (n & (n - 1)) != 0:
            raise GridError(f"point count must be a power of two >= 8, got {n!r}")
        length = float(length)
        if not np.isfinite(length) or length <= 0.0:
            raise GridError(f"domain length must be positive and finite, got {length!r}")
        if not np.isfinite(np.pi * n / length):
            raise GridError(f"domain length {length!r} is too short for {n} points: "
                            "the largest wavenumber pi*n/L is not finite")
        self.n = int(n)
        self.length = length
        self.spacing = length / n
        self.x = -0.5 * length + self.spacing * np.arange(n)
        self.x.setflags(write=False)
        self.xi = 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)
        self.xi.setflags(write=False)
        self.nyquist_index = n // 2

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
    """Grid function with lazily computed ``modes``, its spectrum in the field
    type's layout: the first n/2+1 (real) or all n (complex) entries in FFT
    order, at the ``wavenumbers``.  Immutable after creation."""

    __slots__ = ("grid", "values", "_modes")
    _dtype = complex

    def __init__(self, grid: SpectralGrid, values, modes=None):
        self.grid = grid
        self.values = np.asarray(values, dtype=self._dtype)
        if self.values.shape != (grid.n,):
            raise ValueError(f"expected {grid.n} samples, got shape {self.values.shape}")
        self.values.setflags(write=False)
        self._modes = modes
        if modes is not None:
            self._modes.setflags(write=False)

    @property
    def modes(self):
        # Lazy transform; safe under concurrent reads since the computed array
        # is identical regardless of which thread stores it first.
        if self._modes is None:
            s = self._forward(self.values)
            s.setflags(write=False)
            self._modes = s
        return self._modes

    @property
    def wavenumbers(self) -> np.ndarray:
        return self.grid.xi[: self.modes.size]

    @property
    def spectrum(self):
        return self.modes


class RealField(_Field):
    """Real-valued grid function carried by its half spectrum (``rfft``)."""

    _dtype = float

    @staticmethod
    def _forward(values):
        return np.fft.rfft(values)

    @property
    def spectrum(self):
        """The n-point spectrum, derived when read: exactly Hermitian."""
        h = self.modes
        return np.concatenate((h, np.conj(h[-2:0:-1])))

    @classmethod
    def from_spectrum(cls, grid: SpectralGrid, half) -> "RealField":
        """The real field with the half spectrum ``half`` (n/2+1 modes).  The field
        keeps a complex array as it is, read-only from then on; a writable view
        is copied, since its base could still change it."""
        h = np.asarray(half, dtype=complex)
        if h.flags.writeable and h.base is not None:
            h = h.copy()
        if h.shape != (grid.n // 2 + 1,):
            raise ValueError(f"expected a half spectrum of {grid.n // 2 + 1} modes, "
                             f"got shape {h.shape}")
        return cls(grid, np.fft.irfft(h, grid.n), h)


class ComplexField(_Field):
    """Complex-valued grid function (no symmetry constraint)."""

    @staticmethod
    def _forward(values):
        return np.fft.fft(values)

    @classmethod
    def from_spectrum(cls, grid: SpectralGrid, spectrum) -> "ComplexField":
        s = np.array(spectrum, dtype=complex)
        return cls(grid, np.fft.ifft(s), s)


def l2_norm(f) -> float:
    """Continuum L2 norm over one period (trapezoid-exact for trig polys)."""
    return float(np.sqrt(f.grid.spacing * np.sum(np.abs(f.values) ** 2)))


def require_mean_free(f) -> None:
    """Raise MeanError unless |mean| <= ``MEAN_RTOL`` * RMS: a scale-free test.

    Both sides are formed on the values over their largest magnitude, so the
    squares of tiny data do not underflow to a tolerance of 0.
    """
    peak = float(np.max(np.abs(f.values)))
    if peak == 0.0:
        return
    unit = f.values / peak
    m = abs(float(np.mean(unit)))
    tol = MEAN_RTOL * float(np.sqrt(np.mean(np.abs(unit) ** 2)))
    if m > tol:
        raise MeanError(m * peak, tol * peak)


def same_grid(*fields) -> SpectralGrid:
    """The grid the fields share; a ValueError if they live on different grids."""
    grid = fields[0].grid
    if any(f.grid != grid for f in fields[1:]):
        raise ValueError("fields live on different grids")
    return grid


# ---------------------------------------------------------------------------
# Multipliers.  Each acts on a field's own modes, so one code path serves the
# half spectrum of a real field and the full spectrum of a complex one.


def _with_modes(f, modes, odd: bool = False):
    """Field of f's type and grid with ``modes``; odd symbols zero the Nyquist."""
    if odd:
        modes[f.grid.nyquist_index] = 0.0
    return type(f).from_spectrum(f.grid, modes)


def hilbert(f: RealField) -> RealField:
    """Hilbert transform: multiplier ``-i*sgn(xi)``; kills the zero mode."""
    return _with_modes(f, -1j * np.sign(f.wavenumbers) * f.modes, odd=True)


def derivative(f, order: int = 1):
    """Spectral derivative of order 1..4; odd orders zero the Nyquist mode."""
    if order not in (1, 2, 3, 4):
        raise ValueError(f"derivative order must be in 1..4, got {order}")
    return _with_modes(f, (1j * f.wavenumbers) ** order * f.modes, odd=order % 2 == 1)


def antiderivative(f: RealField) -> RealField:
    """Zero-mean antiderivative: multiplier ``1/(i*xi)``, zero mode mapped to 0.

    Requires the input to be mean-free (relative tolerance ``MEAN_RTOL``);
    raises MeanError carrying the offending mean otherwise.
    """
    require_mean_free(f)
    xi = f.wavenumbers
    out = np.zeros(xi.size, dtype=complex)
    nz = xi != 0.0
    out[nz] = f.modes[nz] / (1j * xi[nz])
    return _with_modes(f, out, odd=True)


# ---------------------------------------------------------------------------
# Dealiased products and spectral refinement


def _regrid(spec: np.ndarray, n: int, m: int) -> np.ndarray:
    """Modes of an n-point grid on an m-point grid, in the same layout (last
    axis n/2+1 or n), scaled so the samples agree; only the modes below both
    Nyquists are kept."""
    half = min(n, m) // 2
    real = spec.shape[-1] == n // 2 + 1
    out = np.zeros(spec.shape[:-1] + (m // 2 + 1 if real else m,), dtype=complex)
    out[..., :half] = spec[..., :half] * (m / n)
    if not real:
        out[..., -half + 1:] = spec[..., -half + 1:] * (m / n)
    return out


def half_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half spectrum of the dealiased product of two real fields given by
    their half spectra (last axis n/2+1, batched): padded, one ``irfft`` each
    (one when ``b is a``) on 2n points, multiplied, and one ``rfft`` back,
    truncated with the Nyquist mode dropped."""
    n = 2 * (a.shape[-1] - 1)
    pa = np.fft.irfft(_regrid(a, n, 2 * n), 2 * n)
    pb = pa if b is a else np.fft.irfft(_regrid(b, n, 2 * n), 2 * n)
    return _regrid(np.fft.rfft(pa * pb), 2 * n, n)


def dealiased_product(f, g):
    """Pointwise product with 2x zero-padding.

    Quadratic interactions of resolved modes are computed exactly and then
    projected back onto the grid's band, which is the sharp version of the
    two-thirds rule.
    """
    grid = same_grid(f, g)
    if isinstance(f, RealField) and isinstance(g, RealField):
        return RealField.from_spectrum(grid, half_product(f.modes, g.modes))
    big = np.fft.fft(refine(f).values * refine(g).values)
    return ComplexField.from_spectrum(grid, _regrid(big, 2 * grid.n, grid.n))


def refine(f, factor: int = 2):
    """Trigonometric interpolation of a field onto a ``factor`` times finer grid."""
    grid = f.grid
    fine = SpectralGrid(factor * grid.n, grid.length)
    return type(f).from_spectrum(fine, _regrid(f.modes, grid.n, fine.n))


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


def half_multiplier(grid: SpectralGrid, half: str) -> np.ndarray:
    if half == "both":
        return np.ones(grid.n)
    if half == "plus":
        return (grid.xi > 0.0).astype(float)
    return (grid.xi < 0.0).astype(float)


def _apply_mask(f, mask: np.ndarray, force_complex: bool):
    # mask is in FFT order; a field's own modes are a prefix of it.  A half
    # projection is complex and spans negative wavenumbers, so it needs all n
    # modes, which a real field derives from its half spectrum.
    if force_complex:
        return ComplexField.from_spectrum(f.grid, mask * f.spectrum)
    return type(f).from_spectrum(f.grid, mask[: f.modes.size] * f.modes)


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


# ---------------------------------------------------------------------------
# Norms and envelopes


def _mode_power(f) -> np.ndarray:
    """|mode|^2 of each of f's own modes, each interior mode of a real field's
    half spectrum weighted 2 for its conjugate: a sum over ``f.modes`` with
    these weights is the Plancherel sum over the n-point spectrum."""
    power = np.abs(f.modes) ** 2
    if isinstance(f, RealField):
        power[1:-1] *= 2.0
    return power


def sobolev_norm(f, s: float, homogeneous: bool = False) -> float:
    """Sobolev norm from the weighted Plancherel sum.

    Weight is ``|xi|`` (homogeneous) or ``sqrt(1 + xi^2)`` (inhomogeneous);
    the normalization makes s = 0 agree with the continuum L2 norm.  A
    homogeneous norm with s <= 0 requires a mean-free field.
    """
    grid = f.grid
    power, xi = _mode_power(f), f.wavenumbers
    if homogeneous:
        if s <= 0.0:
            require_mean_free(f)
        nz = xi != 0.0
        total = np.sum(np.abs(xi[nz]) ** (2.0 * s) * power[nz])
    else:
        total = np.sum((1.0 + xi**2) ** s * power)
    return float(np.sqrt(grid.length * total)) / grid.n


def band_l2_norms(f) -> np.ndarray:
    """L2 norms of every resolved Littlewood-Paley piece."""
    grid = f.grid
    power = _mode_power(f)
    scale = grid.length / grid.n**2
    out = []
    for k in resolved_bands(grid):
        m = band_multiplier(grid, k)[: power.size]  # f's own modes are a prefix
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


# ---------------------------------------------------------------------------
# Scaling exponents


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x, in closed form.

    ``sum(dx * dy) / sum(dx * dx)`` over the logs centred on their means,
    built from elementwise operations and ``np.sum`` alone, so its bits do not
    depend on a BLAS or LAPACK kernel.  NaN, with no warning, when a sample is
    not positive and finite (it has no logarithm) or has under two distinct x.
    """
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if not (np.all(np.isfinite(x) & (x > 0.0)) and np.all(np.isfinite(y) & (y > 0.0))):
        return float("nan")
    dx = np.log(x)
    if dx.size == 0 or dx.min() == dx.max():  # distinct x of one logarithm: no slope either
        return float("nan")
    dx -= np.mean(dx)
    dy = np.log(y)
    dy -= np.mean(dy)
    return float(np.sum(dx * dy) / np.sum(dx * dx))
