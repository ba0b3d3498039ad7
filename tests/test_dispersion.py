import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bo3 import experiments
from bo3.dispersion import (
    REGIONS,
    WrapAroundError,
    airy_decay_fit,
    bilinear_strichartz_ratio,
    classify,
    decay_weights,
    jbracket,
    refined_sup,
)
from bo3.flows import airy_propagate
from bo3.profiles import make_profile
from bo3.spectral import RealField, make_grid

from conftest import random_bandlimited_field, shipped_config
from oracles import bilinear_strichartz_ratio_oracle, decay_rows


# ---------------------------------------------------------------------------
# Japanese bracket


def test_jbracket_at_origin():
    for t in (0.5, 1.0, 27.0):
        assert jbracket(0.0, t) == pytest.approx(t ** (1.0 / 3.0), rel=1e-14)


def test_jbracket_arithmetic():
    assert jbracket(3.0, 27.0) == pytest.approx(np.sqrt(18.0), rel=1e-14)


def test_jbracket_asymptotics():
    t = 2.0
    x = 100.0
    rel_err = abs(jbracket(x, t) - x) / x
    assert rel_err <= t ** (2.0 / 3.0) / (2.0 * x**2) * 1.01


def test_jbracket_needs_positive_time():
    with pytest.raises(ValueError):
        jbracket(1.0, 0.0)


@given(
    x=st.floats(min_value=-1e3, max_value=1e3),
    t=st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=100, deadline=None)
def test_jbracket_dominates_both_scales(x, t):
    val = jbracket(x, t)
    assert val >= max(abs(x), t ** (1.0 / 3.0)) * (1.0 - 1e-12)
    # monotone in |x| and in t
    assert jbracket(2.0 * x, t) >= val * (1.0 - 1e-12)
    assert jbracket(x, 2.0 * t) >= val * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# region classification


def test_classify_boundaries():
    grid = make_grid(256, 64.0 * np.pi)
    masks = classify(grid, t=1.0, c_region=1.0)
    assert list(masks) == list(REGIONS)
    assert all(m.dtype == bool for m in masks.values())
    np.testing.assert_array_equal(masks["hyperbolic"], grid.x >= 1.0)
    np.testing.assert_array_equal(masks["elliptic"], grid.x <= -1.0)
    np.testing.assert_array_equal(masks["self_similar"], np.abs(grid.x) < 1.0)


def test_classify_scaled_boundary():
    grid = make_grid(256, 64.0 * np.pi)
    masks = classify(grid, t=8.0, c_region=2.0)  # boundary at |x| = 4
    np.testing.assert_array_equal(masks["self_similar"], np.abs(grid.x) < 4.0)
    np.testing.assert_array_equal(masks["hyperbolic"], grid.x >= 4.0)


def test_classify_huge_time_is_all_self_similar():
    grid = make_grid(128, 2.0 * np.pi)
    masks = classify(grid, t=1e9, c_region=1.0)
    assert np.all(masks["self_similar"])
    assert not np.any(masks["hyperbolic"] | masks["elliptic"])


@given(t=st.floats(min_value=1e-3, max_value=1e6),
       c=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_classify_partitions_grid(t, c):
    # the three masks are disjoint and cover the grid
    grid = make_grid(128, 32.0 * np.pi)
    masks = np.array(list(classify(grid, t, c).values()))
    np.testing.assert_array_equal(masks.sum(axis=0), np.ones(grid.n))


def test_classify_needs_positive_time():
    grid = make_grid(128, 2.0 * np.pi)
    with pytest.raises(ValueError):
        classify(grid, 0.0)


@pytest.mark.parametrize("c_region", [0.0, -1.0])
def test_classify_needs_positive_region_constant(c_region):
    # at c = 0 the hyperbolic and elliptic regions would share x = 0 and
    # leave no self-similar core
    grid = make_grid(128, 2.0 * np.pi)
    with pytest.raises(ValueError, match="c_region"):
        classify(grid, 1.0, c_region)


# ---------------------------------------------------------------------------
# weighted decay channels


def test_decay_weights_zero_trajectory():
    grid = make_grid(256, 64.0 * np.pi)
    zero = RealField(grid, np.zeros(grid.n))
    report = decay_weights([(t, airy_propagate(zero, t)) for t in (0.0, 0.5, 1.0, 1.5, 2.0)])
    assert report.rows
    for row in report.rows:
        assert row["weighted_phi_sup"] == 0.0
        assert row["weighted_phix_sup"] == 0.0


def test_decay_weights_skips_time_zero_and_labels_variants():
    grid = make_grid(512, 256.0 * np.pi)
    data = make_profile("odd_packet", grid, amplitude=0.1, width=6.0, bandlimit=1.0)
    report = decay_weights([(t, airy_propagate(data, t)) for t in 0.5 * np.arange(9)],
                           delta=0.05)
    times = {row["t"] for row in report.rows}
    assert 0.0 not in times
    regions = {row["region"] for row in report.rows}
    assert "global" in regions and "global+delta" in regions
    for row in report.rows:
        if np.isfinite(row["weighted_phi_sup"]):
            assert row["weighted_phi_sup"] >= 0.0


def test_decay_weights_rows_match_the_label_oracle_bit_for_bit():
    # with c = 0.5 at t = 8 the elliptic region is x <= -1, but its log
    # channels need t^(-1/3) <x> >= 2, that is |x| >= 2 sqrt(3), beyond this
    # domain's half-width pi: they are NaN.  At t = 1e6 the grid lies inside
    # the core: a self-similar frame only
    grid = make_grid(256, 2.0 * np.pi)
    data = make_profile("airy_packet", grid, amplitude=1.0, width=0.5, bandlimit=8.0)
    frames = [(t, airy_propagate(data, t)) for t in (0.0, 0.01, 0.1, 0.5, 8.0, 1e6)]
    rows = decay_weights(frames, delta=0.05, c_region=0.5).rows
    expected = decay_rows(frames, delta=0.05, c_region=0.5)
    assert [(r["t"], r["region"]) for r in rows] == [(r["t"], r["region"]) for r in expected]
    for row, ref in zip(rows, expected):
        assert row.keys() == ref.keys()
        for key, val in row.items():
            assert val == ref[key] or (np.isnan(val) and np.isnan(ref[key])), (row, key)
    regions_at = {t: {r["region"] for r in rows if r["t"] == t} for t, _ in frames[1:]}
    assert regions_at[1e6] == {"self_similar", "self_similar+delta", "global", "global+delta"}
    ell = next(r for r in rows if r["t"] == 8.0 and r["region"] == "elliptic")
    assert np.isnan(ell["elliptic_phi_over_log"])
    assert any(np.isfinite(r["elliptic_phi_over_log"]) for r in rows if r["region"] == "elliptic")


def test_decay_weights_fits_hyperbolic_exponents():
    grid = make_grid(2048, 512.0 * np.pi)
    data = make_profile("airy_packet", grid, amplitude=1.0, width=0.9, bandlimit=2.0)
    frames = []
    from bo3.flows import airy_propagate

    for t in np.geomspace(1.0, 60.0, 12):
        frames.append((float(t), airy_propagate(data, float(t))))
    report = decay_weights(frames)
    assert "hyperbolic_phi" in report.exponents
    assert -0.6 <= report.exponents["hyperbolic_phi"] <= -0.2


# ---------------------------------------------------------------------------
# linear decay fit


def test_airy_decay_plane_wave_has_no_decay():
    grid = make_grid(256, 2.0 * np.pi)
    f = RealField(grid, np.cos(3.0 * grid.x))
    slope, _, sups = airy_decay_fit(f, np.geomspace(1.0, 30.0, 10))
    assert abs(slope) <= 1e-6
    # parabolic peak refinement carries a small (k h)^4 bias per sample
    assert np.max(np.abs(sups - sups[0])) <= 1e-6


def test_airy_decay_smooth_packet_rate():
    grid = make_grid(4096, 1024.0 * np.pi)
    f = make_profile("airy_packet", grid, amplitude=1.0, width=0.9, bandlimit=2.0)
    slope, _, _ = airy_decay_fit(f, np.geomspace(1.0, 100.0, 40))
    assert slope == pytest.approx(-1.0 / 3.0, abs=0.02)


def test_airy_decay_needs_two_times():
    grid = make_grid(256, 2.0 * np.pi)
    f = RealField(grid, np.cos(grid.x))
    with pytest.raises(ValueError):
        airy_decay_fit(f, [1.0])


def test_airy_decay_wraparound_abort():
    # domain far too small for the horizon: the fast front wraps and the
    # measurement aborts with the contaminated time
    grid = make_grid(512, 16.0 * np.pi)
    f = make_profile("odd_packet", grid, amplitude=1.0, width=2.0, bandlimit=4.0)
    with pytest.raises(WrapAroundError) as err:
        airy_decay_fit(f, np.geomspace(1.0, 200.0, 20))
    assert err.value.time <= 200.0


def test_refined_sup_recovers_off_grid_peak():
    grid = make_grid(64, 2.0 * np.pi)
    shift = 0.37 * grid.spacing
    vals = np.cos(grid.x - shift)
    assert refined_sup(vals) == pytest.approx(1.0, abs=5e-4)
    assert refined_sup(vals) >= np.max(np.abs(vals))


# ---------------------------------------------------------------------------
# bilinear space-time smoothing


@pytest.fixture
def packet_pair():
    grid = make_grid(2048, 2.0 * np.pi)
    env = np.exp(-((grid.x / (grid.length / 16.0)) ** 2))
    f = random_bandlimited_field(grid, seed=1, bandlimit=grid.xi_max)
    g = random_bandlimited_field(grid, seed=2, bandlimit=grid.xi_max)
    fv = env * f.values
    gv = env * g.values
    return (RealField(grid, fv - fv.mean()), RealField(grid, gv - gv.mean()))


def test_bilinear_ratio_zero_projection(packet_pair):
    f, g = packet_pair
    grid = f.grid
    zero = RealField(grid, np.zeros(grid.n))
    assert bilinear_strichartz_ratio(2, 6, zero, g, 1e-4) == 0.0


def test_bilinear_ratio_symmetry(packet_pair):
    f, g = packet_pair
    t_end = f.grid.length * 4.0 ** (-7) / 8.0
    r1 = bilinear_strichartz_ratio(2, 7, f, g, t_end)
    r2 = bilinear_strichartz_ratio(7, 2, g, f, t_end)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_bilinear_ratio_separation_precondition(packet_pair):
    f, g = packet_pair
    with pytest.raises(ValueError):
        bilinear_strichartz_ratio(4, 5, f, g, 1e-4)
    # equal bands are fine with opposite halves
    t_end = f.grid.length * 4.0 ** (-6) / 8.0
    r = bilinear_strichartz_ratio(6, 6, f, g, t_end, halves=("plus", "minus"))
    assert r > 0.0


def test_bilinear_ratio_sweep_bounded(packet_pair):
    f, g = packet_pair
    grid = f.grid
    ratios = []
    for k in range(5, 10):
        t_end = grid.length * 4.0 ** (-k) / 8.0
        ratios.append(bilinear_strichartz_ratio(2, k, f, g, t_end))
    assert max(ratios) / min(ratios) <= 10.0


# The Strichartz kernel sums each time sample on the smallest power-of-two
# grid above the product's frequency span; bilinear_strichartz_ratio_oracle
# sums on the full grid.


@pytest.fixture
def inverse_lengths(monkeypatch):
    """(name, length) of every np.fft.irfft and np.fft.ifft call."""
    log = []
    for name in ("irfft", "ifft"):
        def logged(a, n=None, *args, _fft=getattr(np.fft, name), _name=name, **kwargs):
            log.append((_name, np.shape(a)[-1] if n is None else n))
            return _fft(a, n, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, logged)
    return log


def canonical_strichartz_rows():
    """The data and the (j, k, halves, t_end) rows of the canonical strichartz run."""
    (f, g), _ = experiments.validate_config(shipped_config("strichartz"))
    ks = experiments.STRICHARTZ_K
    k_eq = ks[len(ks) // 2]
    pairs = ([(experiments.STRICHARTZ_J, k, ("both", "both")) for k in ks]
             + [(k_eq, k_eq, ("plus", "minus"))])
    window = experiments.STRICHARTZ_WINDOW * f.grid.length
    return f, g, [(a, b, halves, window * 4.0 ** (-max(a, b))) for a, b, halves in pairs]


def test_bilinear_ratio_matches_the_full_grid_oracle_on_the_canonical_rows():
    f, g, rows = canonical_strichartz_rows()
    for j, k, halves, t_end in rows:
        got = bilinear_strichartz_ratio(j, k, f, g, t_end, halves=halves)
        want = bilinear_strichartz_ratio_oracle(j, k, f, g, t_end, halves=halves)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), (j, k, halves)


def test_bilinear_ratio_transform_lengths_on_the_canonical_rows(inverse_lengths):
    # the two band projections are n-point irfft for real bands and ifft for
    # complex halves; then two inverse transforms per time sample, of the
    # smallest power of two above the product's span:
    # band 2 (modes up to 7) against band k (up to 2**(k+1) - 1) spans
    # 2 (7 + 2**(k+1) - 1), which passes n = 4096 at k = 10; the halves of
    # band 8 (modes 129 to 511) span 764
    f, g, rows = canonical_strichartz_rows()
    n = f.grid.n
    lengths = [256, 512, 1024, 2048, 4096, 4096, 1024]
    for (j, k, halves, t_end), m in zip(rows, lengths):
        inverse_lengths.clear()
        bilinear_strichartz_ratio(j, k, f, g, t_end, halves=halves)
        name = "irfft" if halves == ("both", "both") else "ifft"
        assert inverse_lengths == [(name, n)] * 2 + [(name, m)] * 128, (j, k, halves)


def modes_field(grid, seed, top):
    """Seeded random real mean-free field on the modes 1..top and their
    negatives, with every other coefficient exactly zero."""
    rng = np.random.default_rng(seed)
    q = np.arange(1, top + 1)
    coeff = rng.normal(size=top) + 1j * rng.normal(size=top)
    spec = np.zeros(grid.n, dtype=complex)
    spec[q], spec[-q] = coeff, np.conj(coeff)
    return RealField.from_spectrum(grid, spec[: grid.n // 2 + 1])


@pytest.mark.parametrize("n, length, j, k, top, halves, m", [
    # band 2 (modes 3..7) against band 7 (65..127) spans 2 (7 + 127) = 268 > n:
    # the n-point sum, aliases and all
    (256, 2.0 * np.pi, 2, 7, 127, ("both", "both"), 256),
    # band 1 (modes 2, 3) against band 4 up to mode 28, then 29: spans 62 and 64
    (256, 2.0 * np.pi, 1, 4, 28, ("both", "both"), 64),
    (256, 2.0 * np.pi, 1, 4, 29, ("both", "both"), 128),
    # wavenumbers q/8: band 1 (modes 9..31) against band 4 up to mode 96 spans
    # 254, in either order, and 93 when band 4 keeps only its plus half
    (512, 16.0 * np.pi, 1, 4, 96, ("both", "both"), 256),
    (512, 16.0 * np.pi, 4, 1, 96, ("both", "both"), 256),
    (512, 16.0 * np.pi, 1, 4, 96, ("both", "plus"), 128),
    # supports of opposite sign with a gap between them: the product spans
    # less than the two supports together, whose range sets m so that no
    # mode of one band shares a slot with a mode of the other
    # band 1 (modes -31..31) against the plus half of band 4 (65..127): span
    # 124, range 158
    (512, 16.0 * np.pi, 1, 4, 127, ("both", "plus"), 256),
    # band 2 (modes -7..7) against the plus half of band 6 (33..127): span
    # 108, range 134, so the n-point sum
    (256, 2.0 * np.pi, 2, 6, 127, ("both", "plus"), 256),
    # the minus half of band 1 (-3, -2) against the plus half of band 5
    # (17..63): span 47, range 66
    (256, 2.0 * np.pi, 1, 5, 127, ("minus", "plus"), 128),
])
def test_bilinear_ratio_matches_the_full_grid_oracle(inverse_lengths, n, length, j, k, top,
                                                     halves, m):
    grid = make_grid(n, length)
    f, g = modes_field(grid, 1, top), modes_field(grid, 2, top)
    t_end = length * 4.0 ** (-max(j, k)) / 8.0
    want = bilinear_strichartz_ratio_oracle(j, k, f, g, t_end, halves=halves, samples=16)
    inverse_lengths.clear()
    got = bilinear_strichartz_ratio(j, k, f, g, t_end, halves=halves, samples=16)
    assert want > 0.1
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    name = "irfft" if halves == ("both", "both") else "ifft"
    projections = [("irfft" if half == "both" else "ifft", n) for half in halves]
    assert inverse_lengths == projections + [(name, m)] * 32


def test_bilinear_ratio_sizes_sampled_fields_by_their_content(inverse_lengths):
    # fields built from samples carry round-off in every mode; counted as
    # live, it would stretch band 4 to mode 31 and the span to 68, so m = 128.
    # Their content, band 1 (modes 2, 3) against band 4 up to mode 28, spans 62
    grid = make_grid(256, 2.0 * np.pi)
    f = random_bandlimited_field(grid, 1, bandlimit=28)
    g = random_bandlimited_field(grid, 2, bandlimit=28)
    t_end = 2.0 * np.pi * 4.0**-4 / 8.0
    want = bilinear_strichartz_ratio_oracle(1, 4, f, g, t_end, samples=16)
    inverse_lengths.clear()
    got = bilinear_strichartz_ratio(1, 4, f, g, t_end, samples=16)
    assert inverse_lengths == [("irfft", 256)] * 2 + [("irfft", 64)] * 32
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
