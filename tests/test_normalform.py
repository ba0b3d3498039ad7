import numpy as np
import pytest

from bo3 import normalform
from bo3.flows import FlowKind, airy_propagate
from bo3.normalform import (
    band_residual_gauged,
    band_residual_raw,
    band_transform,
    bk,
    bk_bilinear,
    cubic_scaling_test,
    gauge_phase,
)
from bo3.spectral import (
    BandError,
    ComplexField,
    DyadicBand,
    MeanError,
    RealField,
    antiderivative,
    dealiased_product,
    derivative,
    dyadic_bump,
    hilbert,
    l2_norm,
    make_grid,
    project_band,
    project_below,
)
from bo3.stepper import SolverConfig, integrate

from conftest import random_bandlimited_field, trajectory
from oracles import airy_residual, b0, bk_lin, project_range, slow_product_spectrum


@pytest.fixture
def grid():
    # headroom above the top band so normal-form outputs stay resolved
    return make_grid(1024, 64.0 * np.pi)


def field_with_bands(grid, seed=0, scale=1.0):
    f = random_bandlimited_field(grid, seed=seed, bandlimit=3.5)
    return RealField(grid, scale * f.values)


# ---------------------------------------------------------------------------
# gauge phase


def test_gauge_phase_single_mode(grid):
    eps = 0.3
    f = RealField(grid, eps * np.sin(grid.x))
    phase = gauge_phase(f)
    assert np.max(np.abs(phase.values + 0.5 * eps * np.cos(grid.x))) <= 1e-12


def test_gauge_phase_zero(grid):
    z = RealField(grid, np.zeros(grid.n))
    assert np.max(np.abs(gauge_phase(z).values)) == 0.0


def test_gauge_phase_roundtrip(grid):
    f = field_with_bands(grid, seed=1)
    phase = gauge_phase(f)
    back = 2.0 * derivative(phase).values
    assert np.max(np.abs(back - f.values)) <= 1e-12


def test_gauge_phase_mean_precondition(grid):
    with pytest.raises(MeanError):
        gauge_phase(RealField(grid, 1.0 + np.sin(grid.x)))


# ---------------------------------------------------------------------------
# band bilinear form


def test_bk_zero(grid):
    z = RealField(grid, np.zeros(grid.n))
    assert l2_norm(bk(z, 1)) == 0.0


def test_bk_band_disjointness(grid):
    # cos x lives at |xi| = 1; every product stays below band 2
    f = RealField(grid, np.cos(grid.x))
    for k in (2, 3):
        assert l2_norm(bk(f, k)) <= 1e-14


def test_bk_against_convolution_oracle():
    # two-mode input, band containing |xi| = 8, against a direct O(n^2)
    # mode-pair evaluation of each term
    grid = make_grid(128, 16.0 * np.pi)
    k = 3
    f = RealField(grid, np.cos(3.0 * grid.x) + np.cos(5.0 * grid.x))
    got = bk(f, k)
    assert l2_norm(got) > 1e-3

    xi = grid.xi
    plus = (xi > 0).astype(float)
    band = (dyadic_bump(xi / 2.0**k) - dyadic_bump(xi / 2.0 ** (k - 1))) * plus
    below = dyadic_bump(xi / 2.0 ** (k - 1))
    s = f.spectrum
    dinv = np.zeros_like(s)
    nz = xi != 0.0
    dinv[nz] = s[nz] / (1j * xi[nz])
    dinv[grid.nyquist_index] = 0.0
    hs = -1j * np.sign(xi) * s
    hs[grid.nyquist_index] = 0.0
    t1 = 1j * band * slow_product_spectrum(grid, s, dinv)
    t2 = -band * slow_product_spectrum(grid, hs, dinv)
    t3 = -2j * slow_product_spectrum(grid, below * dinv, band * s)
    expected = -0.25 * (t1 + t2 + t3)
    ref = ComplexField.from_spectrum(grid, expected)
    assert l2_norm(ComplexField(grid, got.values - ref.values)) <= 1e-10 * l2_norm(ref)


def test_bk_bilinearity(grid):
    u = field_with_bands(grid, seed=2)
    v = field_with_bands(grid, seed=3)
    w = field_with_bands(grid, seed=4)
    k = 2
    left = bk_bilinear(RealField(grid, u.values + 0.7 * v.values), w, k).values
    right = bk_bilinear(u, w, k).values + 0.7 * bk_bilinear(v, w, k).values
    assert np.max(np.abs(left - right)) <= 1e-12
    sym = bk_bilinear(u, v, k).values - bk_bilinear(v, u, k).values
    assert np.max(np.abs(sym)) <= 1e-14


def test_bk_builds_each_product_once(grid, monkeypatch):
    # B_k(phi, phi) sums two equal products in each term: it builds each once,
    # and its bits are those of the polarization of two equal, distinct fields
    phi = field_with_bands(grid, seed=5)
    twin = RealField(grid, phi.values.copy())
    calls = []

    def counted(f, g, _product=normalform.dealiased_product):
        calls.append((f, g))
        return _product(f, g)

    monkeypatch.setattr(normalform, "dealiased_product", counted)
    for k in (1, 2):
        calls.clear()
        same = bk(phi, k)
        assert len(calls) == 3
        calls.clear()
        pair = bk_bilinear(phi, twin, k)
        assert len(calls) == 6
        assert np.array_equal(same.values, pair.values)


def test_bk_size_constant_across_bands():
    # normalized size 2^(k/2) ||B_k|| / ||phi||^2 stays within one constant
    grid = make_grid(1024, 2.0 * np.pi)
    consts = []
    for seed in range(10):
        f = random_bandlimited_field(grid, seed=500 + seed, bandlimit=300.0)
        for k in range(1, 9):
            val = l2_norm(bk(f, k)) * 2.0 ** (0.5 * k) / l2_norm(f) ** 2
            if val > 0:
                consts.append(val)
    assert max(consts) <= 1.0  # single uniform constant for the whole suite
    assert max(consts) / min(consts) <= 50.0


def test_bk_band_out_of_range(grid):
    f = field_with_bands(grid, seed=5)
    with pytest.raises(BandError):
        bk(f, 20)
    with pytest.raises(BandError):
        bk(f, 0)


def test_bk_quadratic_cancellation(grid):
    # keystone algebra: the quadratic source, the Airy commutator of B_k and
    # the paradifferential terms cancel identically
    f = field_with_bands(grid, seed=6)
    for k in (1, 2):
        band = DyadicBand(k, "plus")
        px = derivative(f)
        g = dealiased_product(f, hilbert(px)).values + hilbert(dealiased_product(f, px)).values
        n2 = 0.75 * derivative(RealField(grid, g)).values
        n2_proj = project_band(RealField(grid, n2), band).values

        fxxx = derivative(f, 3)
        bkf = bk(f, k)
        dt_b = bk_bilinear(fxxx, f, k).values + bk_bilinear(f, fxxx, k).values
        d3_b = np.fft.ifft((1j * grid.xi) ** 3 * bkf.spectrum)

        phik = project_band(f, band)
        flo = project_below(f, k)
        para = (
            1.5j * dealiased_product(derivative(flo),
                                     ComplexField.from_spectrum(grid, 1j * grid.xi * phik.spectrum)).values
            + 1.5j * dealiased_product(flo,
                                       ComplexField.from_spectrum(grid, -grid.xi**2 * phik.spectrum)).values
        )
        residual = n2_proj + dt_b - d3_b + para
        scale = l2_norm(RealField(grid, n2))
        assert l2_norm(ComplexField(grid, residual)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# low block


def test_b0_zero_cases(grid):
    z = RealField(grid, np.zeros(grid.n))
    assert l2_norm(b0(z)) == 0.0
    low = RealField(grid, np.cos(0.5 * grid.x))  # entirely inside the low block
    assert l2_norm(b0(low)) <= 1e-13


def test_b0_two_mode_oracle():
    grid = make_grid(128, 16.0 * np.pi)
    f = RealField(grid, np.cos(0.5 * grid.x) + np.cos(2.0 * grid.x))
    got = b0(f)
    assert l2_norm(got) > 1e-6

    xi = grid.xi
    s = f.spectrum
    hi = (1.0 - dyadic_bump(xi)) * s
    dinv = np.zeros_like(s)
    nz = xi != 0.0
    dinv[nz] = hi[nz] / (1j * xi[nz])
    dinv[grid.nyquist_index] = 0.0
    hs = -1j * np.sign(xi) * s
    hs[grid.nyquist_index] = 0.0
    p0 = dyadic_bump(xi)
    direct = p0 * slow_product_spectrum(grid, dinv, hs)
    h_out = -1j * np.sign(xi) * (p0 * slow_product_spectrum(grid, dinv, s))
    h_out[grid.nyquist_index] = 0.0
    expected = 0.25 * (direct + h_out)
    ref = RealField.from_spectrum(grid, expected[: grid.n // 2 + 1])
    assert np.max(np.abs(got.values - ref.values)) <= 1e-10


def test_b0_quadratic_cancellation(grid):
    # B0 kills the quadratic coupling of the low block to high frequencies
    f = field_with_bands(grid, seed=7)
    s = f.spectrum
    m = grid.n // 2 + 1
    hi = RealField.from_spectrum(grid, ((1.0 - dyadic_bump(grid.xi)) * s)[:m])
    px, pxx = derivative(f), derivative(f, 2)
    hx = derivative(hi)

    def p0(v):
        return RealField.from_spectrum(grid, (dyadic_bump(grid.xi) * v.spectrum)[:m])

    target = 0.75 * (
        p0(dealiased_product(hi, hilbert(pxx))).values
        + p0(dealiased_product(hx, hilbert(px))).values
        + hilbert(p0(dealiased_product(hi, pxx))).values
        + hilbert(p0(dealiased_product(hx, px))).values
    )
    fxxx = derivative(f, 3)
    h_lin = 0.5 * (b0(RealField(grid, f.values + fxxx.values)).values
                   - b0(f).values - b0(fxxx).values)
    # polarized time derivative: B0(f_xxx, f) + B0(f, f_xxx) via polarization
    dt_b = 2.0 * h_lin
    d3_b = derivative(b0(f), 3).values
    residual = target + dt_b - d3_b
    assert l2_norm(RealField(grid, residual)) <= 1e-11 * l2_norm(RealField(grid, target))


# ---------------------------------------------------------------------------
# linearized band form


def test_bk_lin_zero_cases(grid):
    f = field_with_bands(grid, seed=8)
    z = RealField(grid, np.zeros(grid.n))
    assert l2_norm(bk_lin(f, z, 2)) == 0.0
    assert l2_norm(bk_lin(z, f, 2)) <= 1e-14


def test_bk_lin_polarization_identity(grid):
    f = field_with_bands(grid, seed=9)
    k = 2
    got = bk_lin(f, f, k).values
    corr = dealiased_product(
        antiderivative(project_range(f, (0, k))),
        project_band(f, DyadicBand(k, "plus")),
    ).values
    expected = 2.0 * bk(f, k).values - 0.5j * corr
    assert np.max(np.abs(got - expected)) <= 1e-13


def test_bk_lin_quadratic_cancellation(grid):
    # all linearized quadratic terms are removed except the one low-frequency
    # coupling whose correction would be singular
    f = field_with_bands(grid, seed=10)
    v = field_with_bands(grid, seed=11)
    k = 2
    band = DyadicBand(k, "plus")
    px, pxx = derivative(f), derivative(f, 2)
    vx, vxx = derivative(v), derivative(v, 2)
    n2 = 0.75 * (
        dealiased_product(vx, hilbert(px)).values
        + dealiased_product(px, hilbert(vx)).values
        + dealiased_product(v, hilbert(pxx)).values
        + dealiased_product(f, hilbert(vxx)).values
        + hilbert(RealField(grid,
                            dealiased_product(vxx, f).values
                            + dealiased_product(pxx, v).values
                            + 2.0 * dealiased_product(vx, px).values)).values
    )
    n2_proj = project_band(RealField(grid, n2), band).values

    fxxx, vxxx = derivative(f, 3), derivative(v, 3)
    blin = bk_lin(f, v, k)
    dt_b = bk_lin(fxxx, v, k).values + bk_lin(f, vxxx, k).values
    d3_b = np.fft.ifft((1j * grid.xi) ** 3 * blin.spectrum)

    vk = project_band(v, band)
    flo = project_below(f, k)
    para = (
        1.5j * dealiased_product(derivative(flo),
                                 ComplexField.from_spectrum(grid, 1j * grid.xi * vk.spectrum)).values
        + 1.5j * dealiased_product(flo,
                                   ComplexField.from_spectrum(grid, -grid.xi**2 * vk.spectrum)).values
    )
    v0 = project_band(v, 0)
    phik = project_band(f, band)
    surviving = -1.5j * (
        dealiased_product(derivative(v0),
                          ComplexField.from_spectrum(grid, 1j * grid.xi * phik.spectrum)).values
        + dealiased_product(v0,
                            ComplexField.from_spectrum(grid, -grid.xi**2 * phik.spectrum)).values
    )
    residual = n2_proj + dt_b - d3_b + para - surviving
    assert l2_norm(ComplexField(grid, residual)) <= 1e-12 * l2_norm(RealField(grid, n2))


# ---------------------------------------------------------------------------
# assembled transform


def test_band_transform_invariants(grid):
    f = field_with_bands(grid, seed=12, scale=0.1)
    tr = band_transform(f, 2)
    scale = np.max(np.abs(tr.tilde_phi.values))
    assert np.max(np.abs(tr.tilde_phi.values - tr.phi_k_plus.values - tr.b_k.values)) <= 1e-15 * scale
    recon = tr.tilde_phi.values * np.exp(-1j * tr.phase.values)
    assert np.max(np.abs(tr.psi.values - recon)) <= 1e-15 * scale
    assert abs(l2_norm(tr.psi) - l2_norm(tr.tilde_phi)) <= 1e-12 * l2_norm(tr.tilde_phi)


def test_band_transform_zero(grid):
    z = RealField(grid, np.zeros(grid.n))
    tr = band_transform(z, 1)
    assert l2_norm(tr.psi) == 0.0


# ---------------------------------------------------------------------------
# residuals


def test_airy_residual_zero_trajectory(grid):
    z = RealField(grid, np.zeros(grid.n))
    cfg = SolverConfig(dt=1e-3, t_end=6e-3, snapshot_stride=1)
    traj = integrate(FlowKind("third_order_bo"), z, cfg)
    series = airy_residual(traj, 1)
    assert np.all(series.channels["residual"] == 0.0)


def test_airy_residual_needs_three_frames(grid):
    f = field_with_bands(grid, seed=13, scale=0.05)
    cfg = SolverConfig(dt=1e-3, t_end=1e-3, snapshot_stride=1)
    traj = integrate(FlowKind("third_order_bo"), f, cfg)
    with pytest.raises(ValueError):
        airy_residual(traj, 1)


def test_airy_residual_stable_under_stride_refinement(grid):
    # the frame-differencing residual converges as the snapshot spacing drops
    f = field_with_bands(grid, seed=14, scale=0.2)
    k = 1
    vals = {}
    for stride in (8, 4):
        cfg = SolverConfig(dt=5e-4, t_end=0.02, snapshot_stride=stride)
        traj = integrate(FlowKind("third_order_bo"), f, cfg)
        series = airy_residual(traj, k)
        mid = len(series.times) // 2
        vals[stride] = series.channels["residual"][mid]
    exact = band_residual_gauged(
        integrate(FlowKind("third_order_bo"), f,
                  SolverConfig(dt=5e-4, t_end=0.01, snapshot_stride=10**9)).final(), k
    )
    err8 = abs(vals[8] - exact)
    err4 = abs(vals[4] - exact)
    assert err4 <= 0.5 * err8 + 1e-6 * exact


def test_airy_residual_on_linear_trajectory_is_reported(grid):
    # feeding a linear-flow trajectory through the transformations leaves the
    # transformation's own quadratic commutator content; measured, not asserted
    f = field_with_bands(grid, seed=21, scale=0.1)
    traj = trajectory([(t, airy_propagate(f, t)) for t in 1e-3 * np.arange(7)])
    series = airy_residual(traj, 1)
    vals = series.channels["residual"]
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= 0.0)


def test_raw_residual_is_projected_nonlinearity(grid):
    f = field_with_bands(grid, seed=15, scale=0.05)
    raw = band_residual_raw(f, 2)
    assert raw > 0.0
    gauged = band_residual_gauged(f, 2)
    assert gauged < raw  # quadratic content removed


def test_cubic_scaling_slopes(grid):
    profile = field_with_bands(grid, seed=16)
    res = cubic_scaling_test(profile, (0.01, 0.02, 0.04, 0.08), 2, t_probe=0.0)
    assert res.slope_raw == pytest.approx(2.0, abs=0.2)
    assert res.slope_gauged == pytest.approx(3.0, abs=0.3)


def test_cubic_scaling_validation(grid):
    profile = field_with_bands(grid, seed=18)
    with pytest.raises(ValueError):
        cubic_scaling_test(profile, (0.01, 0.02, 0.04), 1, 0.0)
    with pytest.raises(ValueError):
        cubic_scaling_test(profile, (0.08, 0.04, 0.02, 0.01), 1, 0.0)
