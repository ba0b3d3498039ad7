import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bo3.spectral import (
    BandError,
    ComplexField,
    DyadicBand,
    GridError,
    MeanError,
    RealField,
    antiderivative,
    band_l2_norms,
    band_multiplier,
    below_multiplier,
    dealiased_product,
    derivative,
    envelope,
    hilbert,
    l2_norm,
    loglog_slope,
    make_grid,
    project_band,
    project_below,
    refine,
    require_mean_free,
    resolved_bands,
    same_grid,
    sobolev_norm,
)

from bo3 import dispersion, flows, invariants, normalform, stepper
from bo3.flows import airy_propagate

import oracles
from conftest import random_bandlimited_field
from oracles import project_range, quad, range_multiplier, slow_dft, slow_product_spectrum


# ---------------------------------------------------------------------------
# grids


def test_make_grid_wavenumbers():
    grid = make_grid(8, 2.0 * np.pi)
    assert sorted(np.round(grid.xi).astype(int)) == [-4, -3, -2, -1, 0, 1, 2, 3]


def test_make_grid_spacing():
    grid = make_grid(1024, 256.0 * np.pi)
    assert grid.spacing == pytest.approx(np.pi / 4.0, rel=1e-15)


def test_make_grid_rejects_bad_n():
    with pytest.raises(GridError):
        make_grid(12, 2.0 * np.pi)


@given(n=st.integers(min_value=-4, max_value=2000),
       length=st.floats(allow_nan=True, allow_infinity=True))
@example(n=8, length=2.225073858507203e-309)  # pi n / L overflows
@settings(max_examples=60, deadline=None)
def test_make_grid_validation(n, length):
    valid_n = n >= 8 and (n & (n - 1)) == 0
    # the largest wavenumber pi n / L must be finite too
    valid_len = np.isfinite(length) and length > 0 and np.isfinite(np.pi * n / length)
    if valid_n and valid_len:
        grid = make_grid(n, length)
        assert grid.n == n
    else:
        with pytest.raises(GridError):
            make_grid(n, length)


# ---------------------------------------------------------------------------
# fields


def test_spectrum_matches_direct_dft():
    grid = make_grid(64, 2.0 * np.pi)
    f = random_bandlimited_field(grid, seed=1)
    ref = slow_dft(f.values)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(f.spectrum - ref)) <= 1e-12 * scale


def test_real_field_hermitian_spectrum():
    grid = make_grid(128, 4.0 * np.pi)
    f = random_bandlimited_field(grid, seed=2)
    s = f.spectrum
    conj_flip = np.conj(np.concatenate(([s[0]], s[:0:-1])))
    assert np.max(np.abs(s - conj_flip)) <= 1e-10 * np.max(np.abs(s))


@pytest.mark.parametrize("n", [128, 1024])
def test_half_spectrum_operators_match_the_full_spectrum_oracles(n):
    # full-band data: every mode below the Nyquist carries energy
    grid = make_grid(n, n * np.pi / 4.0)
    f = random_bandlimited_field(grid, seed=60, bandlimit=grid.xi_max)
    g = random_bandlimited_field(grid, seed=61, bandlimit=grid.xi_max)
    cases = [(hilbert(f), oracles.full_hilbert(f)),
             (antiderivative(f), oracles.full_antiderivative(f)),
             (dealiased_product(f, g), oracles.full_dealiased_product(f, g)),
             (airy_propagate(f, 0.37), oracles.full_airy_propagate(f, 0.37))]
    cases += [(derivative(f, k), oracles.full_derivative(f, k)) for k in (1, 2, 3, 4)]
    for got, want in cases:
        assert type(got) is RealField
        scale = np.max(np.abs(want.values))
        assert np.max(np.abs(got.values - want.values)) <= 1e-13 * scale
    # the n-point spectrum is derived from the half spectrum, so it is
    # Hermitian to the bit; a length-n spectrum is not a real field's
    s = f.spectrum
    assert s.shape == (n,) and np.array_equal(s[: n // 2 + 1], f.modes)
    assert np.array_equal(s[n // 2 + 1:], np.conj(s[1: n // 2])[::-1])
    with pytest.raises(ValueError, match="half spectrum"):
        RealField.from_spectrum(grid, s)


def test_a_field_built_from_a_spectrum_cannot_change():
    # from_spectrum keeps the array it is handed: neither the field's modes
    # nor that array can be written after the field is built, and a writable
    # view is copied, so writing its base leaves the field alone
    grid = make_grid(16, 2.0 * np.pi)
    modes = np.arange(grid.n // 2 + 1, dtype=complex)
    half, base = modes.copy(), np.stack([modes, modes])
    fields = [RealField.from_spectrum(grid, handed) for handed in (half, base[1])]
    values = fields[0].values.copy()
    for array in (half, *(a for f in fields for a in (f.modes, f.values))):
        with pytest.raises(ValueError, match="read-only"):
            array[1] = 7.0
    base[1] = 7.0
    for f in fields:
        assert np.array_equal(f.modes, modes) and np.array_equal(f.values, values)


def test_mean_free_check_is_scale_invariant():
    # |mean| against the RMS of the values: rescaling the field or its
    # domain moves neither side of the test
    for length in (1e-3, 2.0 * np.pi, 1e6):
        grid = make_grid(64, length)
        wave = np.sin(2.0 * np.pi * grid.x / length)
        for scale in (1e-100, 1.0, 1e100):
            require_mean_free(RealField(grid, scale * (wave + 1e-12)))
            with pytest.raises(MeanError):
                require_mean_free(RealField(grid, scale * (wave + 1e-9)))


def test_mean_free_check_takes_data_whose_squares_underflow():
    # the squares of 1e-300 underflow: the RMS, and with it the tolerance,
    # once read 0, and a march of such data stopped on its own mean
    grid = make_grid(64, 2.0 * np.pi)
    wave = 1e-300 * np.sin(grid.x)
    traj = stepper.integrate(flows.FlowKind("third_order_bo"), RealField(grid, wave),
                             stepper.SolverConfig(dt=1e-3, t_end=1e-2))
    assert np.all(np.isfinite(traj.final().values))
    with pytest.raises(MeanError):
        require_mean_free(RealField(grid, wave + 1e-309))
    require_mean_free(RealField(grid, np.zeros(grid.n)))


def test_fields_are_immutable():
    grid = make_grid(32, 2.0 * np.pi)
    f = RealField(grid, np.sin(grid.x))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


# ---------------------------------------------------------------------------
# Hilbert transform


def test_hilbert_on_trig_modes(grid2pi):
    x = grid2pi.x
    for k in (1, 2, 5):
        assert np.max(np.abs(hilbert(RealField(grid2pi, np.cos(k * x))).values
                             - np.sin(k * x))) <= 1e-12
        assert np.max(np.abs(hilbert(RealField(grid2pi, np.sin(k * x))).values
                             + np.cos(k * x))) <= 1e-12


def test_hilbert_kills_constants(grid2pi):
    f = RealField(grid2pi, np.full(grid2pi.n, 3.7))
    assert np.max(np.abs(hilbert(f).values)) <= 1e-14


def test_hilbert_squared_is_minus_identity_plus_mean(grid2pi):
    f = random_bandlimited_field(grid2pi, seed=5, mean_free=False)
    hh = hilbert(hilbert(f))
    expected = -(f.values - np.mean(f.values))
    assert np.max(np.abs(hh.values - expected)) <= 1e-12


def test_hilbert_skew_adjoint(grid2pi):
    for seed in range(100):
        u = random_bandlimited_field(grid2pi, seed=1000 + seed)
        v = random_bandlimited_field(grid2pi, seed=2000 + seed)
        lhs = quad(grid2pi, u.values * hilbert(v).values)
        rhs = quad(grid2pi, v.values * hilbert(u).values)
        assert abs(lhs + rhs) <= 1e-12 * (l2_norm(u) * l2_norm(v) + 1.0)


def test_hilbert_skew_identity(grid2pi):
    for seed in range(100):
        u = random_bandlimited_field(grid2pi, seed=3000 + seed)
        v = random_bandlimited_field(grid2pi, seed=4000 + seed)
        lhs = quad(grid2pi, hilbert(u).values * hilbert(v).values)
        rhs = quad(grid2pi, u.values * v.values)
        assert abs(lhs - rhs) <= 1e-12 * (l2_norm(u) * l2_norm(v) + 1.0)


def test_hilbert_convolution_identity(grid2pi):
    # H(u Hv + v Hu) = Hu Hv - u v on mean-free bandlimited fields
    for seed in range(25):
        u = random_bandlimited_field(grid2pi, seed=5000 + seed)
        v = random_bandlimited_field(grid2pi, seed=6000 + seed)
        hu, hv = hilbert(u), hilbert(v)
        lhs = hilbert(
            RealField(grid2pi,
                      dealiased_product(u, hv).values + dealiased_product(v, hu).values)
        )
        rhs = dealiased_product(hu, hv).values - dealiased_product(u, v).values
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-10


# ---------------------------------------------------------------------------
# derivative / antiderivative


def test_derivative_examples(grid2pi):
    x = grid2pi.x
    # roundoff is amplified by xi**order, so tolerances scale with xi_max**order
    d3 = derivative(RealField(grid2pi, np.sin(x)), 3)
    assert np.max(np.abs(d3.values + np.cos(x))) <= 1e-9
    d2 = derivative(RealField(grid2pi, np.cos(2 * x)), 2)
    assert np.max(np.abs(d2.values + 4.0 * np.cos(2 * x))) <= 1e-11
    const = derivative(RealField(grid2pi, np.ones(grid2pi.n)), 4)
    assert np.max(np.abs(const.values)) <= 1e-14


def test_derivative_order_bounds(grid2pi):
    f = RealField(grid2pi, np.sin(grid2pi.x))
    for bad in (0, 5, -1):
        with pytest.raises(ValueError):
            derivative(f, bad)


def test_antiderivative_examples(grid2pi):
    x = grid2pi.x
    a = antiderivative(RealField(grid2pi, np.sin(x)))
    assert np.max(np.abs(a.values + np.cos(x))) <= 1e-12
    b = antiderivative(RealField(grid2pi, np.cos(3 * x)))
    assert np.max(np.abs(b.values - np.sin(3 * x) / 3.0)) <= 1e-12


def test_antiderivative_rejects_nonzero_mean(grid2pi):
    f = RealField(grid2pi, np.ones(grid2pi.n) + np.sin(grid2pi.x))
    with pytest.raises(MeanError) as err:
        antiderivative(f)
    assert err.value.mean_value == pytest.approx(1.0, rel=1e-10)


def test_derivative_antiderivative_roundtrip(grid2pi):
    f = random_bandlimited_field(grid2pi, seed=7)
    back = derivative(antiderivative(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12


# ---------------------------------------------------------------------------
# dyadic projections


def test_band_separation():
    grid = make_grid(256, 2.0 * np.pi)
    x = grid.x
    f = RealField(grid, np.sin(x) + np.sin(16.0 * x))
    hi = project_band(f, 4)  # 16 sits on the plateau of band 4
    assert np.max(np.abs(hi.values - np.sin(16.0 * x))) <= 1e-12
    lo = project_band(f, 0)
    assert np.max(np.abs(lo.values - np.sin(x))) <= 1e-12


def test_half_band_projection():
    grid = make_grid(128, 2.0 * np.pi)
    f = RealField(grid, np.sin(grid.x))
    plus = project_band(f, DyadicBand(0, "plus"))
    expected = np.exp(1j * grid.x) / 2j
    assert np.max(np.abs(plus.values - expected)) <= 1e-12
    assert isinstance(plus, ComplexField)


def test_partition_of_unity():
    grid = make_grid(512, 2.0 * np.pi)
    f = random_bandlimited_field(grid, seed=8, bandlimit=100.0)
    total = np.zeros(grid.n)
    for k in resolved_bands(grid):
        total = total + project_band(f, k).values
    assert np.max(np.abs(total - f.values)) <= 1e-12


def test_below_plus_above_is_identity():
    grid = make_grid(512, 2.0 * np.pi)
    f = random_bandlimited_field(grid, seed=9, bandlimit=100.0)
    k = 4
    above = np.zeros(grid.n)
    for j in resolved_bands(grid):
        if j >= k:
            above = above + project_band(f, j).values
    recon = project_below(f, k).values + above
    assert np.max(np.abs(recon - f.values)) <= 1e-12


def test_project_range_excludes_low_block():
    grid = make_grid(512, 2.0 * np.pi)
    f = random_bandlimited_field(grid, seed=10, bandlimit=100.0)
    k = 6
    expected = project_below(f, k).values - project_band(f, 0).values
    got = project_range(f, (0, k)).values
    assert np.max(np.abs(got - expected)) <= 1e-12
    const = RealField(grid, np.full(grid.n, 2.0))
    assert np.max(np.abs(project_range(const, (0, k)).values)) <= 1e-14


def test_band_multipliers_are_shared_and_read_only():
    # built once per grid and band; an equal grid finds the same array
    grid = make_grid(256, 2.0 * np.pi)
    for build in (band_multiplier, below_multiplier):
        mask = build(grid, 3)
        assert build(make_grid(256, 2.0 * np.pi), 3) is mask
        with pytest.raises(ValueError):
            mask[0] = 0.0
    fresh = range_multiplier(grid, 0, 4)
    assert fresh is not range_multiplier(grid, 0, 4)
    fresh[0] = 1.0  # a new array on every call, the caller's to change


def test_band_beyond_resolution_rejected(grid2pi):
    f = random_bandlimited_field(grid2pi, seed=11)
    with pytest.raises(BandError):
        project_band(f, max(resolved_bands(grid2pi)) + 1)


def test_bernstein_inequality():
    # sup norm of a band piece against 2^(k/2) times its L2 norm, one constant
    grid = make_grid(1024, 2.0 * np.pi)
    worst = 0.0
    for seed in range(100):
        f = random_bandlimited_field(grid, seed=7000 + seed, bandlimit=400.0)
        for k in (2, 4, 6, 8):
            piece = project_band(f, k)
            nrm = l2_norm(piece)
            if nrm < 1e-12:
                continue
            ratio = np.max(np.abs(piece.values)) / (2.0 ** (k / 2.0) * nrm)
            worst = max(worst, ratio)
    assert worst <= 1.0


def test_projection_commutator_shifts_derivative():
    # ||[P_k, f] g|| <= C 2^-k ||f_x||_inf ||g||, low-frequency f, high-frequency g
    grid = make_grid(1024, 2.0 * np.pi)
    worst = 0.0
    for seed in range(100):
        f = random_bandlimited_field(grid, seed=8000 + seed, bandlimit=8.0)
        g = random_bandlimited_field(grid, seed=9000 + seed, bandlimit=300.0)
        k = 7
        fg = dealiased_product(f, g)
        comm = project_band(fg, k).values - dealiased_product(f, project_band(g, k)).values
        fx_sup = np.max(np.abs(derivative(f).values))
        bound = 2.0 ** (-k) * fx_sup * l2_norm(g)
        worst = max(worst, l2_norm(RealField(grid, comm)) / bound)
    assert worst <= 5.0


# ---------------------------------------------------------------------------
# products and refinement


def test_dealiased_product_matches_convolution_oracle():
    grid = make_grid(64, 2.0 * np.pi)
    u = random_bandlimited_field(grid, seed=12, bandlimit=20.0)
    v = random_bandlimited_field(grid, seed=13, bandlimit=20.0)
    got = dealiased_product(u, v).spectrum
    ref = slow_product_spectrum(grid, u.spectrum, v.spectrum)
    assert np.max(np.abs(got - ref)) <= 1e-10 * (np.max(np.abs(ref)) + 1.0)


# Every entry point that combines two fields refuses fields of two grids
# through ``same_grid``, in either argument order.
TWO_FIELD_CALLS = {
    "spectral.same_grid": same_grid,
    "spectral.dealiased_product": dealiased_product,
    "flows.linearized_tbo_rhs": flows.linearized_tbo_rhs,
    "stepper.integrate_linearized_pair": lambda f, g: stepper.integrate_linearized_pair(
        f, g, stepper.SolverConfig(dt=1e-3, t_end=1e-3)),
    "normalform.bk_bilinear": lambda f, g: normalform.bk_bilinear(f, g, 1),
    "dispersion.bilinear_strichartz_ratio": lambda f, g: dispersion.bilinear_strichartz_ratio(
        1, 5, f, g, 0.1),
    "invariants.modified_energy": lambda f, g: invariants.modified_energy(f, g, 0.1),
}


@pytest.mark.parametrize("name", sorted(TWO_FIELD_CALLS))
def test_fields_on_different_grids_are_refused(name):
    coarse, fine = make_grid(64, 16.0 * np.pi), make_grid(128, 16.0 * np.pi)
    f, g = RealField(coarse, np.zeros(64)), RealField(fine, np.zeros(128))
    for args in ((f, g), (g, f)):
        with pytest.raises(ValueError, match="fields live on different grids"):
            TWO_FIELD_CALLS[name](*args)
    assert same_grid(f, RealField(coarse, np.ones(64)), f) is coarse


def test_refine_preserves_samples():
    grid = make_grid(64, 2.0 * np.pi)
    f = random_bandlimited_field(grid, seed=14)
    fine = refine(f, 2)
    assert fine.grid.n == 128
    assert np.max(np.abs(fine.values[::2] - f.values)) <= 1e-12


# ---------------------------------------------------------------------------
# norms


# Every operator that rebuilds a field from a spectrum keeps the field's class.
SAME_CLASS_OPS = {
    "hilbert": hilbert,
    "derivative": lambda f: derivative(f, 3),
    "refine": refine,
    "project_band": lambda f: project_band(f, 3),
    "project_below": lambda f: project_below(f, 3),
    "project_range": lambda f: project_range(f, (1, 5)),
    "airy_propagate": lambda f: airy_propagate(f, 0.01),
}


@pytest.mark.parametrize("cls", [RealField, ComplexField])
@pytest.mark.parametrize("name", sorted(SAME_CLASS_OPS))
def test_operators_return_the_input_class(name, cls, grid2pi):
    op = SAME_CLASS_OPS[name]
    f = random_bandlimited_field(grid2pi, seed=3)
    out, ref = op(cls(grid2pi, f.values)), op(f).values
    assert type(out) is cls
    np.testing.assert_allclose(out.values, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


def test_l2_norm_of_sine(grid2pi):
    f = RealField(grid2pi, np.sin(grid2pi.x))
    assert sobolev_norm(f, 0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-12)


def test_h1_homogeneous_of_sin2x(grid2pi):
    f = RealField(grid2pi, np.sin(2.0 * grid2pi.x))
    assert sobolev_norm(f, 1.0, homogeneous=True) == pytest.approx(2.0 * np.sqrt(np.pi), rel=1e-12)


def test_hhalf_two_modes(grid2pi):
    f = RealField(grid2pi, np.sin(grid2pi.x) + np.sin(4.0 * grid2pi.x))
    # Plancherel: pi * (1 + 4) under the |xi| weight
    assert sobolev_norm(f, 0.5, homogeneous=True) == pytest.approx(np.sqrt(5.0 * np.pi), rel=1e-12)


def test_parseval(grid2pi):
    f = random_bandlimited_field(grid2pi, seed=15)
    assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f), rel=1e-12)


def test_norms_on_own_modes_equal_the_n_point_plancherel_sums():
    # white noise fills every mode, the Nyquist mode included: a half spectrum
    # weights its interior modes 2, a full one weights every mode 1
    grid = make_grid(256, 16.0 * np.pi)
    rng = np.random.default_rng(17)
    noise = rng.normal(size=(2, grid.n))
    real = RealField(grid, noise[0] - np.mean(noise[0]))
    cplx = ComplexField(grid, noise[0] + 1j * noise[1])
    for f in (real, cplx):
        power = np.abs(f.spectrum) ** 2
        for s in (-0.5, 0.0, 0.5, 1.0):
            full = np.sum((1.0 + grid.xi**2) ** s * power)
            assert sobolev_norm(f, s) == pytest.approx(
                np.sqrt(grid.length * full) / grid.n, rel=1e-14)
        nz = grid.xi != 0.0
        full = np.sum(np.abs(grid.xi[nz]) * power[nz])
        assert sobolev_norm(f, 0.5, homogeneous=True) == pytest.approx(
            np.sqrt(grid.length * full) / grid.n, rel=1e-14)
        bands = [np.sqrt(grid.length * np.sum(band_multiplier(grid, k) ** 2 * power)) / grid.n
                 for k in resolved_bands(grid)]
        np.testing.assert_allclose(band_l2_norms(f), bands, rtol=1e-14, atol=0.0)


def test_homogeneous_negative_norm_needs_mean_free(grid2pi):
    f = RealField(grid2pi, 1.0 + np.sin(grid2pi.x))
    with pytest.raises(MeanError):
        sobolev_norm(f, -0.5, homogeneous=True)


# ---------------------------------------------------------------------------
# envelopes


def test_envelope_zero_field(grid2pi):
    f = RealField(grid2pi, np.zeros(grid2pi.n))
    env = envelope(f, 0.25)
    assert np.all(env.c == 0.0)


def test_envelope_single_band_tent():
    grid = make_grid(256, 2.0 * np.pi)
    g = RealField(grid, np.sin(8.0 * grid.x))
    delta = 0.25
    env = envelope(g, delta)
    k0, nrm = 3, l2_norm(g)
    expected = nrm * 2.0 ** (-delta * np.abs(np.arange(env.c.size) - k0))
    assert np.max(np.abs(env.c - expected)) <= 1e-12 * nrm


def test_envelope_two_band_max_of_tents():
    grid = make_grid(256, 2.0 * np.pi)
    f = RealField(grid, 0.3 * np.sin(2.0 * grid.x) + np.sin(16.0 * grid.x))
    delta = 0.3
    env = envelope(f, delta)
    # direct sup evaluation of the definition
    norms = band_l2_norms(f)
    ks = np.arange(norms.size)
    expected = np.array([
        np.max(2.0 ** (-delta * np.abs(j - ks)) * norms) for j in ks
    ])
    assert np.max(np.abs(env.c - expected)) <= 1e-12


@given(delta=st.floats(min_value=0.01, max_value=0.5), seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_envelope_invariants(delta, seed):
    grid = make_grid(256, 2.0 * np.pi)
    f = random_bandlimited_field(grid, seed=seed, bandlimit=60.0)
    env = envelope(f, delta)
    # slowly varying: c_j <= 2**(delta |j - k|) c_k for every pair of bands
    ks = np.arange(env.c.size)
    bound = 2.0 ** (delta * np.abs(ks[:, None] - ks[None, :])) * env.c[None, :]
    assert np.all(env.c[:, None] <= bound * (1.0 + 1e-12))
    # a majorant of the band norms
    assert np.all(band_l2_norms(f) <= env.c * (1.0 + 1e-12) + 1e-300)


def test_envelope_rejects_bad_delta(grid2pi):
    f = random_bandlimited_field(grid2pi, seed=16)
    for bad in (0.0, 0.6, -0.1):
        with pytest.raises(ValueError):
            envelope(f, bad)


# ---------------------------------------------------------------------------
# scaling exponents


@pytest.mark.parametrize("seed", range(5))
def test_loglog_slope_matches_the_least_squares_fit(seed):
    # np.polyfit, a LAPACK least-squares solve, is the oracle here only
    rng = np.random.default_rng(seed)
    xs = rng.uniform(1e-3, 1e3, size=3 + seed)
    ys = rng.uniform(1e-8, 1e2, size=xs.size)
    want = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    assert loglog_slope(xs, ys) == pytest.approx(want, rel=1e-13)


def test_loglog_slope_is_exact_on_a_power_law():
    xs = 2.0 ** np.arange(-3, 4)
    for power in (-1.0, 2.0, 3.0, -0.5):
        assert loglog_slope(xs, 7.0 * xs**power) == power


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_loglog_slope_is_nan_without_a_logarithm(bad):
    good = [1.0, 2.0, 4.0]
    for xs, ys in (([bad, 2.0, 4.0], good), (good, [1.0, bad, 3.0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(loglog_slope(xs, ys))


@pytest.mark.parametrize("xs, ys", [
    ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]), ([2.0], [3.0]), ([], []),
    ([1e300, np.nextafter(1e300, np.inf)], [1.0, 2.0])])  # two x, one logarithm
def test_loglog_slope_is_nan_with_fewer_than_two_distinct_x(xs, ys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(loglog_slope(xs, ys))
