import numpy as np
import pytest

from bo3 import flows
from bo3.flows import (
    FlowKind,
    adjoint_linearized_rhs,
    airy_propagate,
    linearized_tbo_rhs,
    spectral_tail_fraction,
    tbo_rhs,
)
from bo3.spectral import (MeanError, RealField, dealiased_product, derivative, hilbert, l2_norm,
                          make_grid, sobolev_norm)

import oracles
from conftest import random_bandlimited_field
from oracles import quad


@pytest.fixture
def grid():
    return make_grid(256, 2.0 * np.pi)


# ---------------------------------------------------------------------------
# flow kinds


def test_flow_kind_validation():
    assert flows.FLOW_TAGS == ("third_order_bo",)
    FlowKind("third_order_bo")
    with pytest.raises(ValueError):
        FlowKind("airy")  # propagated exactly by airy_propagate, never marched
    with pytest.raises(ValueError):
        FlowKind("kdv")
    with pytest.raises(ValueError):
        FlowKind("linearized_tbo")  # marched only as a pair with its background
    with pytest.raises(ValueError):
        FlowKind("benjamin_ono")  # only the third-order flow of the hierarchy is modelled


# ---------------------------------------------------------------------------
# Airy propagator


def test_airy_plane_wave(grid):
    # e^{ikx} -> e^{i(kx - k^3 t)}
    k, t = 3, 0.7
    f = RealField(grid, np.cos(k * grid.x))
    out = airy_propagate(f, t)
    expected = np.cos(k * grid.x - k**3 * t)
    assert np.max(np.abs(out.values - expected)) <= 1e-12


def test_airy_identity_at_zero(grid):
    f = random_bandlimited_field(grid, seed=1)
    out = airy_propagate(f, 0.0)
    assert np.max(np.abs(out.values - f.values)) <= 1e-14


def test_airy_group_property_and_unitarity(grid):
    # phase arguments reach xi^3 t ~ 1e5, so composition agrees to ~1e-11
    f = random_bandlimited_field(grid, seed=2)
    a = airy_propagate(airy_propagate(f, 0.3), 0.5)
    b = airy_propagate(f, 0.8)
    assert np.max(np.abs(a.values - b.values)) <= 1e-10
    for s in (0.0, 0.5, 1.0):
        assert sobolev_norm(airy_propagate(f, 2.0), s) == pytest.approx(
            sobolev_norm(f, s), rel=1e-12
        )


def test_linear_symbol_is_shared_and_read_only(grid):
    # built once per grid; an equal grid finds the same array
    lam = flows.linear_symbol(grid)
    assert flows.linear_symbol(make_grid(256, 2.0 * np.pi)) is lam
    with pytest.raises(ValueError):
        lam[1] = 0.0
    assert np.array_equal(lam, (1j * grid.xi) ** 3 * (np.arange(grid.n) != grid.n // 2))


@pytest.mark.parametrize("n", [128, 4096])
def test_airy_symbol_reads_one_shared_cube(n):
    # xi**3 is built once per grid, read-only, and the Airy phase formed from
    # it, on all n modes or on a prefix, has the bits of the phase formed from
    # a fresh xi**3
    grid = make_grid(n, 0.1 * n)
    cube = flows.xi_cubed(grid)
    assert flows.xi_cubed(make_grid(n, 0.1 * n)) is cube
    with pytest.raises(ValueError):
        cube[1] = 0.0
    for t in (0.0, 0.37, 25.0):
        expected = np.exp(-1j * grid.xi**3 * t)
        expected[grid.nyquist_index] = 0.0
        assert np.array_equal(flows.airy_symbol(grid, t), expected)
        # a real field's n/2+1 modes: the same bits, Nyquist mode zeroed
        assert np.array_equal(flows.airy_symbol(grid, t, n // 2 + 1), expected[: n // 2 + 1])


# ---------------------------------------------------------------------------
# third-order right-hand side


def test_tbo_rhs_zero(grid):
    z = RealField(grid, np.zeros(grid.n))
    assert np.max(np.abs(tbo_rhs(z).values)) == 0.0


def test_tbo_rhs_rejects_mean(grid):
    with pytest.raises(MeanError):
        tbo_rhs(RealField(grid, 1.0 + np.sin(grid.x)))


def test_tbo_rhs_single_mode(grid):
    # symbolic oracle (H cos = sin, H sin 2x = -cos 2x):
    #   linear:    sin'''(x) = -cos x
    #   quadratic: +(3/4)[cos x sin x + sin x cos x + H(-sin^2 + cos^2)] = (3/2) sin 2x
    #   cubic:     -(3/4) sin^2 x cos x
    eps = 0.2
    x = grid.x
    f = RealField(grid, eps * np.sin(x))
    expected = (
        -eps * np.cos(x)
        + 1.5 * eps**2 * np.sin(2.0 * x)
        - 0.75 * eps**3 * np.sin(x) ** 2 * np.cos(x)
    )
    assert np.max(np.abs(tbo_rhs(f).values - expected)) <= 1e-10


def test_conservative_and_expanded_forms_agree():
    # tbo_rhs evaluates the flux form; both full-spectrum forms must agree with it
    grid = make_grid(512, 2.0 * np.pi)
    f = random_bandlimited_field(grid, seed=3, bandlimit=60.0)
    a = tbo_rhs(f).values
    for oracle in (oracles.tbo_rhs_oracle, oracles.tbo_rhs_conservative_oracle):
        b = oracle(f).values
        assert np.max(np.abs(a - b)) <= 1e-10 * (np.max(np.abs(a)) + 1.0)


def test_truncation_consistency_under_grid_doubling():
    # the projected right-hand side of bandlimited data is grid-independent
    coarse = make_grid(256, 2.0 * np.pi)
    fine = make_grid(512, 2.0 * np.pi)
    f_c = random_bandlimited_field(coarse, seed=4, bandlimit=40.0)
    spec_fine = np.zeros(fine.n // 2 + 1, dtype=complex)
    half = coarse.n // 2
    spec_fine[:half] = f_c.modes[:half] * 2.0
    f_f = RealField.from_spectrum(fine, spec_fine)
    r_c = tbo_rhs(f_c).spectrum / coarse.n
    r_f = tbo_rhs(f_f).spectrum / fine.n
    keep = half // 2
    diff = np.concatenate([r_f[:keep] - r_c[:keep], r_f[-keep:] - r_c[-keep:]])
    assert np.max(np.abs(diff)) <= 1e-10


# ---------------------------------------------------------------------------
# linearized flow


def test_linearized_reduces_to_airy_part(grid):
    v = random_bandlimited_field(grid, seed=5)
    zero = RealField(grid, np.zeros(grid.n))
    out = linearized_tbo_rhs(v, zero)
    expected = derivative(v, 3)
    assert np.max(np.abs(out.values - expected.values)) <= 1e-12
    assert np.max(np.abs(linearized_tbo_rhs(zero, v).values)) == 0.0


def test_linearized_is_gateaux_derivative(grid):
    # finite-difference directional derivative, step 1e-5
    phi = random_bandlimited_field(grid, seed=6, bandlimit=20.0)
    phi = RealField(grid, 0.5 * phi.values)
    v = random_bandlimited_field(grid, seed=7, bandlimit=20.0)
    h = 1e-5
    plus = tbo_rhs(RealField(grid, phi.values + h * v.values)).values
    minus = tbo_rhs(RealField(grid, phi.values - h * v.values)).values
    fd = (plus - minus) / (2.0 * h)
    lin = linearized_tbo_rhs(v, phi).values
    assert np.max(np.abs(fd - lin)) <= 1e-6 * np.max(np.abs(lin))


def test_linearized_at_phi_in_direction_phi(grid):
    # equals d/ds tbo_rhs((1+s) phi) at s = 0
    phi = random_bandlimited_field(grid, seed=8, bandlimit=20.0)
    h = 1e-5
    plus = tbo_rhs(RealField(grid, (1 + h) * phi.values)).values
    minus = tbo_rhs(RealField(grid, (1 - h) * phi.values)).values
    fd = (plus - minus) / (2.0 * h)
    lin = linearized_tbo_rhs(phi, phi).values
    assert np.max(np.abs(fd - lin)) <= 1e-6 * np.max(np.abs(lin))


def test_grid_mismatch_rejected(grid):
    other = make_grid(512, 2.0 * np.pi)
    v = random_bandlimited_field(grid, seed=9)
    phi = random_bandlimited_field(other, seed=10)
    with pytest.raises(ValueError):
        linearized_tbo_rhs(v, phi)


# ---------------------------------------------------------------------------
# adjoint flow


def test_adjoint_reduces_to_airy_part(grid):
    w = random_bandlimited_field(grid, seed=11)
    zero = RealField(grid, np.zeros(grid.n))
    out = adjoint_linearized_rhs(w, zero)
    assert np.max(np.abs(out.values - derivative(w, 3).values)) <= 1e-12
    assert np.max(np.abs(adjoint_linearized_rhs(zero, w).values)) == 0.0


def test_duality_pairing(grid):
    # <L v, w> + <v, L* w> = 0, the keystone identity of this module
    for seed in range(20):
        phi = random_bandlimited_field(grid, seed=100 + seed, bandlimit=30.0)
        v = random_bandlimited_field(grid, seed=200 + seed, bandlimit=30.0)
        w = random_bandlimited_field(grid, seed=300 + seed, bandlimit=30.0)
        lv = linearized_tbo_rhs(v, phi)
        aw = adjoint_linearized_rhs(w, phi)
        defect = abs(quad(grid, lv.values * w.values) + quad(grid, v.values * aw.values))
        scale = l2_norm(lv) * l2_norm(w) + l2_norm(v) * l2_norm(aw)
        assert defect <= 1e-9 * scale


def test_derivative_intertwines_adjoint_and_linearized(grid):
    # d_x (adjoint rhs of w) = linearized rhs of d_x w
    phi = random_bandlimited_field(grid, seed=12, bandlimit=30.0)
    w = random_bandlimited_field(grid, seed=13, bandlimit=30.0)
    lhs = linearized_tbo_rhs(derivative(w), phi).values
    rhs = derivative(adjoint_linearized_rhs(w, phi)).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (np.max(np.abs(lhs)) + 1.0)


# ---------------------------------------------------------------------------
# half-spectrum kernels against the full-spectrum formulas


@pytest.mark.parametrize("n", [128, 1024])
def test_rhs_kernels_match_full_spectrum_oracles(n):
    # data below n/6 keeps every cubic product inside the band, where the
    # oracles' nested dealiased products are exact; a single quadratic
    # product is exact for full-band data, whose products reach the dropped
    # Nyquist mode
    g = make_grid(n, 32.0 * np.pi)
    phi = random_bandlimited_field(g, seed=40)
    v = random_bandlimited_field(g, seed=41)
    full_band = random_bandlimited_field(g, seed=42, bandlimit=g.xi_max)
    ws = flows._workspace(g)
    p, hx = flows.product_fields(ws, full_band.spectrum)
    q, _ = flows.product_fields(ws, v.spectrum)
    np.multiply(p, q, out=ws.prod[0])
    np.multiply(p, hx, out=ws.prod[1])
    # multiplier pairs that pick one product each: the 1/2 of the padded
    # rfft and the dropped Nyquist mode
    pick = 0.5 * np.ones(g.n // 2 + 1, dtype=complex)
    pick[-1] = 0.0
    none = np.zeros_like(pick)
    halves = [ws.from_prod(mult, np.empty_like(pick)) for mult in ((pick, none), (none, pick))]
    products = [RealField.from_spectrum(g, h) for h in halves]
    cases = [
        (products[0], dealiased_product(full_band, v)),
        (products[1], dealiased_product(full_band, hilbert(derivative(full_band)))),
        (tbo_rhs(phi), oracles.tbo_rhs_oracle(phi)),
        (linearized_tbo_rhs(v, phi), oracles.linearized_tbo_rhs_oracle(v, phi)),
        (adjoint_linearized_rhs(v, phi), oracles.adjoint_linearized_rhs_oracle(v, phi)),
    ]
    for got, want in cases:
        scale = np.max(np.abs(want.values))
        assert np.max(np.abs(got.values - want.values)) <= 1e-13 * scale


def test_rhs_results_survive_later_calls(grid):
    # the kernels work in the grid's workspace buffers; a returned field is
    # never one of them
    phi, psi, v, w = (random_bandlimited_field(grid, seed=s, bandlimit=30.0)
                      for s in (50, 51, 52, 53))
    for rhs, first_args, second_args in ((tbo_rhs, (phi,), (psi,)),
                                         (linearized_tbo_rhs, (v, phi), (w, psi)),
                                         (adjoint_linearized_rhs, (v, phi), (w, psi))):
        first = rhs(*first_args)
        kept = first.values.copy(), first.spectrum.copy()
        second = rhs(*second_args)
        assert not np.array_equal(second.values, kept[0])
        assert np.array_equal(first.values, kept[0]) and np.array_equal(first.spectrum, kept[1])


# ---------------------------------------------------------------------------
# resolution guard


def test_tail_fraction(grid):
    low = random_bandlimited_field(grid, seed=14, bandlimit=10.0)
    assert spectral_tail_fraction(low.modes) <= 1e-20
    hot = RealField(grid, np.cos(120.0 * grid.x))
    assert spectral_tail_fraction(hot.modes) > 0.9
    zero = RealField(grid, np.zeros(grid.n))
    assert spectral_tail_fraction(zero.modes) == 0.0


def test_tail_fraction_of_a_half_spectrum_is_that_of_the_field(grid):
    # the full-spectrum definition: energy at |xi| >= (2/3) xi_max over all
    rng = np.random.default_rng(3)
    for f in (RealField(grid, rng.normal(size=grid.n)),
              random_bandlimited_field(grid, seed=15, bandlimit=90.0)):
        power = np.abs(f.spectrum) ** 2
        full = np.sum(power[np.abs(grid.xi) >= (2.0 / 3.0) * grid.xi_max]) / np.sum(power)
        half = spectral_tail_fraction(f.modes)
        assert half == pytest.approx(full, rel=1e-14, abs=1e-300)
