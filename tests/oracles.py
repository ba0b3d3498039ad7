"""Independent slow oracles used to freeze expected values.

Most of what is here avoids the package's FFT/padding code paths: direct
O(n^2) DFT sums and explicit mode-pair convolutions, so agreement with the
fast implementations is a real check rather than a tautology.  The flow
right-hand sides at the end are the complex full-spectrum formulas, written
with ``spectral.dealiased_product``, ``hilbert`` and ``derivative``; they pin
the half-spectrum kernels of ``flows``.  Their nested products equal the
kernels' single-pass cubic products when the data is band-limited below n/6.
``rk4_step`` is the integrating-factor RK4 step written with a new array for
every stage, the reference for the stepper's in-place march.
"""

import numpy as np

from bo3.spectral import RealField, dealiased_product, derivative, hilbert


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
