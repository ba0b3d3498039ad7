"""Named initial-data profiles.

Every profile is mean-free, bandlimited with the same smooth spectral cutoff
used by the dyadic projections, normalized to unit sup, and centered unless
asked otherwise.  Formulas:

* gaussian_bump:     exp(-((x - c)/w)^2), zero mode removed, cutoff at Xi
* sech_bump:         sech((x - c)/w), same treatment
* two_mode:          sin(xi1 (x - c)) + sin(xi2 (x - c)) on exact grid modes
* random_bandlimited: seeded Hermitian coefficients with a smooth taper on
                      (0, Xi], zero mode empty
* airy_packet:       spectral envelope exp(-(w xi)^2 / 4) under the cutoff
                      with a 0.03 low cut, the reference data for linear
                      decay measurements
* odd_packet:        exp(-((x-c)/w)^2) sin(bandlimit (x-c) / 2), analytic
                      tails, exactly mean-free; for x-weighted functionals
"""

from __future__ import annotations

import numpy as np

from .spectral import RealField, SpectralGrid, dyadic_bump

__all__ = ["PROFILES", "make_profile"]


# Low-frequency cut for localized profiles.  Plain mean removal would leave a
# constant floor across the whole domain, which ruins every x-weighted
# functional; removing a smooth low block keeps the profile localized instead.
LOWCUT = 0.05


def _normalize(grid: SpectralGrid, values: np.ndarray) -> RealField:
    spec = np.fft.fft(values)
    spec[0] = 0.0
    vals = np.fft.ifft(spec).real
    peak = np.max(np.abs(vals))
    if peak == 0.0:
        raise ValueError("profile is identically zero after mean removal")
    return RealField(grid, vals / peak)


def _bandlimit(grid: SpectralGrid, values: np.ndarray, bandlimit: float,
               lowcut: float = LOWCUT) -> np.ndarray:
    # smooth cutoff: identically 1 below bandlimit/2, zero above bandlimit;
    # the low block |xi| <= lowcut is removed smoothly as well
    mask = dyadic_bump(2.0 * grid.xi / bandlimit)
    if lowcut > 0.0:
        mask = mask * (1.0 - dyadic_bump(grid.xi / lowcut))
    spec = np.fft.fft(values) * mask
    return np.fft.ifft(spec).real


def gaussian_bump(grid, center=0.0, width=4.0, bandlimit=1.0, seed=None):
    vals = np.exp(-(((grid.x - center) / width) ** 2))
    return _normalize(grid, _bandlimit(grid, vals, bandlimit))


def sech_bump(grid, center=0.0, width=4.0, bandlimit=1.0, seed=None):
    vals = 1.0 / np.cosh((grid.x - center) / width)
    return _normalize(grid, _bandlimit(grid, vals, bandlimit))


def two_mode(grid, center=0.0, width=4.0, bandlimit=1.0, seed=None):
    """Two exact grid modes at roughly bandlimit/2 and bandlimit."""
    base = 2.0 * np.pi / grid.length
    if not np.isfinite(bandlimit / base):
        raise ValueError(f"bandlimit {bandlimit:g} is no finite number of grid modes")
    m2 = max(2, int(round(bandlimit / base)))
    m1 = max(1, m2 // 2)
    y = grid.x - center
    vals = np.sin(m1 * base * y) + np.sin(m2 * base * y)
    return _normalize(grid, vals)


def random_bandlimited(grid, center=0.0, width=4.0, bandlimit=1.0, seed=0):
    rng = np.random.default_rng(seed)
    half = grid.n // 2
    spec = np.zeros(grid.n, dtype=complex)
    xi_pos = grid.xi[1:half]
    taper = dyadic_bump(2.0 * xi_pos / bandlimit)
    coeff = (rng.normal(size=half - 1) + 1j * rng.normal(size=half - 1)) * taper
    spec[1:half] = coeff
    spec[-(half - 1):] = np.conj(coeff[::-1])
    return _normalize(grid, np.fft.ifft(spec).real)


def airy_packet(grid, center=0.0, width=0.9, bandlimit=2.0, seed=None):
    """Wave packet with a Gaussian spectral envelope; decays like the free
    fundamental solution once dispersed.  Its low cut sits at 0.03 so the
    spectrum is flat across every frequency the self-similar peak draws from
    on a two-decade time window."""
    phase = np.exp(-1j * grid.xi * (center - grid.x[0]))
    spec = (np.exp(-(width**2) * grid.xi**2 / 4.0) * dyadic_bump(2.0 * grid.xi / bandlimit)
            * (1.0 - dyadic_bump(grid.xi / 0.03)) * phase)
    return _normalize(grid, np.fft.ifft(spec).real * grid.n)


def odd_packet(grid, center=0.0, width=6.0, bandlimit=1.0, seed=None):
    """Gaussian envelope times ``sin(xi0 (x - c))`` with ``xi0 = bandlimit/2``.

    Mean-free exactly by parity and analytic in space, so its tails decay
    like a Gaussian; the profile of choice whenever x-weighted functionals
    must hold to machine precision.
    """
    y = grid.x - center
    xi0 = 0.5 * bandlimit
    vals = np.exp(-((y / width) ** 2)) * np.sin(xi0 * y)
    return _normalize(grid, vals)


PROFILES = {
    "gaussian_bump": gaussian_bump,
    "sech_bump": sech_bump,
    "two_mode": two_mode,
    "random_bandlimited": random_bandlimited,
    "airy_packet": airy_packet,
    "odd_packet": odd_packet,
}


def make_profile(name: str, grid: SpectralGrid, amplitude: float = 1.0,
                 center: float = 0.0, width: float = 4.0,
                 bandlimit: float = 1.0, seed: int = 0) -> RealField:
    """Build a named profile scaled to the requested amplitude; it must be finite."""
    if name not in PROFILES:
        raise KeyError(f"unknown profile {name!r}; known: {sorted(PROFILES)}")
    with np.errstate(all="ignore"):  # the finiteness check below reports
        base = PROFILES[name](grid, center=center, width=width,
                              bandlimit=bandlimit, seed=seed)
        values = amplitude * base.values
    if not np.all(np.isfinite(values)):
        raise ValueError(f"profile {name!r} is not finite at these parameters")
    return RealField(grid, values)
