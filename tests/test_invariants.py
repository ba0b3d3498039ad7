import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bo3 import flows, invariants, stepper
from bo3.flows import FlowKind, airy_propagate
from bo3.invariants import (
    CHANNELS,
    EnergySeries,
    SupportLeakageWarning,
    e0,
    e1,
    e2,
    edge_fraction,
    fractional_derivative,
    l_nonlinear,
    l_vector_field,
    modified_energy,
    track,
    track_pair,
)
from bo3.profiles import make_profile
from bo3.spectral import RealField, derivative, l2_norm, make_grid, sobolev_norm
from bo3.stepper import SolverConfig, Trajectory, integrate, integrate_linearized_pair

import oracles
from conftest import random_bandlimited_field, shipped_config, trajectory


@pytest.fixture
def grid():
    return make_grid(256, 2.0 * np.pi)


# ---------------------------------------------------------------------------
# classical energies, frozen single-mode values


def test_e0_single_mode(grid):
    eps = 0.3
    f = RealField(grid, eps * np.sin(grid.x))
    assert e0(f) == pytest.approx(np.pi * eps**2, rel=1e-12)


def test_e1_single_mode(grid):
    # cross term integrates sin^2, the cubic term vanishes by parity
    eps = 0.3
    f = RealField(grid, eps * np.sin(grid.x))
    assert e1(f) == pytest.approx(np.pi * eps**2, rel=1e-12)


def test_e2_single_mode(grid):
    # pi eps^2 from the derivative, (3 pi / 32) eps^4 from the quartic term
    eps = 0.4
    f = RealField(grid, eps * np.sin(grid.x))
    expected = np.pi * eps**2 + 3.0 * np.pi / 32.0 * eps**4
    assert e2(f) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# linear vector field


def centered_packet(n=1024, length=256.0 * np.pi):
    # analytic tails: x-weighted identities hold to machine precision
    grid = make_grid(n, length)
    return make_profile("odd_packet", grid, amplitude=1.0, width=6.0, bandlimit=1.0)


def test_l_vector_field_at_zero_time():
    f = centered_packet()
    out = l_vector_field(f, 0.0)
    assert np.max(np.abs(out.values - f.grid.x * f.values)) == 0.0


def test_l_vector_field_commutator_identity():
    # d_x (L phi) - L (d_x phi) = phi
    f = centered_packet()
    t = 0.7
    lhs = derivative(l_vector_field(f, t)).values - l_vector_field(derivative(f), t).values
    assert np.max(np.abs(lhs - f.values)) <= 1e-10


def test_l_vector_field_norm_conserved_under_airy():
    f = centered_packet()
    ref = l2_norm(l_vector_field(f, 0.0))
    for t in (1.0, 3.0, 5.0):
        u = airy_propagate(f, t)
        val = l2_norm(l_vector_field(u, t))
        assert val == pytest.approx(ref, rel=1e-6)


def test_support_leakage_warning():
    grid = make_grid(512, 64.0 * np.pi)
    shifted = make_profile("gaussian_bump", grid, amplitude=1.0,
                           center=0.47 * grid.length, width=2.0, bandlimit=2.0)
    with pytest.warns(SupportLeakageWarning):
        l_vector_field(shifted, 0.0)
    assert edge_fraction(shifted) > 1e-6


# ---------------------------------------------------------------------------
# nonlinear vector field


def test_l_nonlinear_trivial_cases():
    f = centered_packet()
    out = l_nonlinear(f, 0.0)
    assert np.max(np.abs(out.values - f.grid.x * f.values)) == 0.0
    zero = RealField(f.grid, np.zeros(f.grid.n))
    assert np.max(np.abs(l_nonlinear(zero, 2.0).values)) == 0.0


def test_l_nonlinear_small_amplitude_slope():
    # || l_nonlinear - l_vector_field || scales quadratically in amplitude
    base = centered_packet()
    t = 1.5
    eps_list = (0.02, 0.04, 0.08)
    diffs = []
    for eps in eps_list:
        f = RealField(base.grid, eps * base.values)
        d = l_nonlinear(f, t).values - l_vector_field(f, t).values
        diffs.append(l2_norm(RealField(base.grid, d)))
    slope = np.polyfit(np.log(eps_list), np.log(diffs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_l_nonlinear_solves_adjoint_equation():
    # the defining property: w = l_nonlinear(phi(t), t) satisfies the backward
    # adjoint linearized equation along the nonlinear flow, checked with a
    # centered time difference on the interior window (the seam zone is
    # excluded per the x-weighting policy)
    from bo3.flows import adjoint_linearized_rhs

    grid = make_grid(1024, 128.0 * np.pi)
    data = make_profile("odd_packet", grid, amplitude=0.3, width=4.0, bandlimit=2.0)
    t0, h = 0.3, 1e-4
    cfg = lambda T: SolverConfig(dt=5e-4, t_end=T, snapshot_stride=10**9)
    phi_mid = integrate(FlowKind("third_order_bo"), data, cfg(t0)).final()
    phi_lo = integrate(FlowKind("third_order_bo"), data, cfg(t0 - h)).final()
    phi_hi = integrate(FlowKind("third_order_bo"), data, cfg(t0 + h)).final()
    dw_dt = (l_nonlinear(phi_hi, t0 + h).values - l_nonlinear(phi_lo, t0 - h).values) / (2 * h)
    rhs = adjoint_linearized_rhs(l_nonlinear(phi_mid, t0), phi_mid).values
    interior = np.abs(grid.x) <= 0.4 * grid.length
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(dw_dt - rhs)[interior]) <= 1e-4 * scale


# ---------------------------------------------------------------------------
# modified energy


def test_modified_energy_without_background(grid):
    y = random_bandlimited_field(grid, seed=1, bandlimit=20.0)
    zero = RealField(grid, np.zeros(grid.n))
    me = modified_energy(y, zero, t=1.0)
    assert me.cubic == pytest.approx(0.0, abs=1e-14)
    assert me.total == pytest.approx(l2_norm(y) ** 2, rel=1e-12)


def test_modified_energy_zero_state(grid):
    phi = random_bandlimited_field(grid, seed=2, bandlimit=20.0)
    zero = RealField(grid, np.zeros(grid.n))
    me = modified_energy(zero, phi, t=0.5)
    assert me.total == 0.0


def test_modified_energy_needs_positive_time(grid):
    y = random_bandlimited_field(grid, seed=3)
    with pytest.raises(ValueError):
        modified_energy(y, y, t=0.0)


def test_modified_energy_cubic_is_small_correction(grid):
    eps = 0.05
    phi = RealField(grid, eps * random_bandlimited_field(grid, seed=4, bandlimit=20.0).values)
    y = random_bandlimited_field(grid, seed=5, bandlimit=20.0)
    me = modified_energy(y, phi, t=1.0)
    assert abs(me.cubic) <= 10.0 * eps * me.quadratic


def test_fractional_derivative(grid):
    f = RealField(grid, np.sin(4.0 * grid.x))
    half = fractional_derivative(f, -0.5)
    assert np.max(np.abs(half.values - 0.5 * np.sin(4.0 * grid.x))) <= 1e-12
    const = RealField(grid, np.ones(grid.n))
    assert np.max(np.abs(fractional_derivative(const, 0.5).values)) <= 1e-14


# ---------------------------------------------------------------------------
# tracking


def test_track_zero_trajectory(grid):
    zero = RealField(grid, np.zeros(grid.n))
    cfg = SolverConfig(dt=1e-3, t_end=5e-3, snapshot_stride=1)
    traj = integrate(FlowKind("third_order_bo"), zero, cfg)
    series = track(traj, ["E0", "E1", "E2", "L2"])
    for name in ("E0", "E1", "E2", "L2"):
        assert np.all(series.channels[name] == 0.0)


def test_track_unknown_channel(grid):
    zero = RealField(grid, np.zeros(grid.n))
    cfg = SolverConfig(dt=1e-3, t_end=2e-3, snapshot_stride=1)
    traj = integrate(FlowKind("third_order_bo"), zero, cfg)
    with pytest.raises(KeyError):
        track(traj, ["E7"])


def test_track_single_frame(grid):
    f = RealField(grid, 0.1 * np.sin(grid.x))
    series = track(trajectory([(0.0, f)]), ["E0"])
    assert len(series.times) == 1
    assert series.channels["E0"][0] == pytest.approx(np.pi * 0.01, rel=1e-12)


def test_energy_series_validation():
    with pytest.raises(ValueError):
        EnergySeries(np.array([0.0, 1.0]), {"E0": np.array([1.0])})
    series = EnergySeries(np.array([0.0, 1.0]), {"E0": np.array([2.0, 3.0]),
                                                  "E1": np.array([0.0, -3.0]),
                                                  "E2": np.array([0.0, 0.0])})
    assert series.drift("E0") == 0.5
    # a channel that starts at zero reports its absolute drift
    assert series.drift("E1") == 3.0
    assert series.drift("E2") == 0.0


def test_track_pair_channels():
    grid = make_grid(256, 16.0 * np.pi)
    phi0 = RealField(grid, 0.05 * random_bandlimited_field(grid, seed=6, bandlimit=2.0).values)
    v0 = RealField(grid, 0.05 * random_bandlimited_field(grid, seed=7, bandlimit=2.0).values)
    cfg = SolverConfig(dt=1e-3, t_end=0.1, snapshot_stride=50)
    phi_traj, v_traj = integrate_linearized_pair(phi0, v0, cfg)
    series = track_pair(phi_traj, v_traj, ["y_l2", "modified_energy"])
    y = series.channels["y_l2"]
    assert np.all(y > 0.0)
    assert np.isnan(series.channels["modified_energy"][0])  # t = 0 frame
    assert np.isfinite(series.channels["modified_energy"][1:]).all()
    with pytest.raises(KeyError):
        track_pair(phi_traj, v_traj, ["nope"])


# ---------------------------------------------------------------------------
# batched channels against the per-frame functions


ORACLES = {"E0": e0, "E1": e1, "E2": e2, "L2": l2_norm, "H1": lambda f: sobolev_norm(f, 1.0)}


def _largest_channel_difference(traj, fields):
    """Largest |batched - per-frame| of each channel, relative to the channel's max."""
    series = track(traj, CHANNELS)
    out = {}
    for name in CHANNELS:
        ref = np.array([ORACLES[name](f) for f in fields])
        out[name] = np.max(np.abs(series.channels[name] - ref)) / np.max(np.abs(ref))
    return out


def test_batched_channels_match_per_frame_functions_on_canonical_data():
    # the conserve data, marched so that every channel moves; largest
    # difference measured: 1.1e-15 (E1)
    cfg = shipped_config("conserve")
    grid = make_grid(cfg.grid.n, cfg.grid.length)
    data = make_profile(cfg.data.profile, grid, amplitude=cfg.data.amplitude,
                        width=cfg.data.width, bandlimit=cfg.data.bandlimit)
    traj = integrate(FlowKind("third_order_bo"), data,
                     SolverConfig(dt=1e-3, t_end=0.05, snapshot_stride=5))
    diffs = _largest_channel_difference(traj, [f for _, f in traj.frames])
    assert max(diffs.values()) <= 1e-14, diffs


def test_batched_channels_match_per_frame_functions_on_full_band_data():
    # white noise fills every mode, the mean and the Nyquist mode included,
    # over more frames than one block; largest difference measured: 5.3e-16 (E2)
    grid = make_grid(1024, 256.0 * np.pi)
    rng = np.random.default_rng(0)
    fields = [RealField(grid, rng.normal(size=grid.n)) for _ in range(stepper.FRAME_BLOCK + 6)]
    traj = trajectory([(float(i), f) for i, f in enumerate(fields)])
    diffs = _largest_channel_difference(traj, fields)
    assert max(diffs.values()) <= 1e-14, diffs


def test_track_allocates_blocks_not_the_whole_trajectory():
    # 2001 frames at n = 1024 hold 16 MB of half spectra; one unchunked batch
    # would allocate about 125 MB of temporaries, and the tracker's working
    # set is one chunk of 16 frames whatever the number of frames
    grid = make_grid(1024, 256.0 * np.pi)
    rng = np.random.default_rng(1)
    spectra = rng.normal(size=(2001, 513)) + 1j * rng.normal(size=(2001, 513))
    traj = Trajectory(grid, np.arange(2001.0), spectra)
    flows.half_absk(grid)  # cached per grid, not part of the working set
    tracemalloc.start()
    try:
        track(traj, CHANNELS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= invariants.track_bytes(1024, 2001) < 2**21


def _noise_trajectory(n, frames, seed=2, length=256.0 * np.pi):
    """``frames`` half spectra of white noise at n points: every mode filled."""
    grid = make_grid(n, length)
    rng = np.random.default_rng(seed)
    spectra = np.fft.rfft(rng.normal(size=(frames, n)), axis=1)
    return Trajectory(grid, np.arange(float(frames)), spectra)


@pytest.mark.parametrize("n, frames", [(64, 64), (1024, 64), (1024, 1), (2**14, 64)])
def test_chunked_channels_equal_the_whole_block_oracle(n, frames):
    # one chunk covers the block at n = 64, four chunks of 16 rows at n = 1024,
    # and one row a chunk at n = 2**14: every channel keeps its bits
    traj = _noise_trajectory(n, frames)
    series = track(traj, CHANNELS)
    want = oracles.energies_block(traj.grid, traj.spectra)
    for name in CHANNELS:
        assert np.array_equal(series.channels[name], want[name]), name
    assert invariants._chunk_rows(n) == {64: 256, 1024: 16, 2**14: 1}[n]


@pytest.mark.parametrize("n", [1024, 2**14])
def test_track_working_set_is_bounded_by_its_estimate(n):
    # a full block: the temporaries are one chunk's, so the peak is about
    # 1 MiB (52 MiB against an 8 MiB block at n = 2**14 when phi^2 was formed
    # over the whole block, 8 MiB when its Parseval arrays were)
    traj = _noise_trajectory(n, stepper.FRAME_BLOCK)
    flows.half_absk(traj.grid)  # cached per grid, not part of the working set
    tracemalloc.start()
    try:
        track(traj, CHANNELS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * traj.spectra.nbytes + 2**20
    assert peak <= invariants.track_bytes(n, stepper.FRAME_BLOCK)


def test_track_builds_no_flow_workspace():
    # the tracker reads one cached |k| symbol: on a grid that has not marched
    # it builds none of the march's buffers (4.4 MiB at n = 2**14)
    traj = _noise_trajectory(2**10, 1, length=1.0 + np.pi)  # a grid no other test builds
    before = flows._workspace.cache_info().currsize
    track(traj, CHANNELS)
    assert flows._workspace.cache_info().currsize == before
    assert flows._workspace(traj.grid).absk is flows.half_absk(traj.grid)


_BITS_SOURCE = """
import hashlib
import numpy as np
from bo3 import invariants, spectral
from bo3.spectral import make_grid


def bits():
    rng = np.random.default_rng(5)
    grid = make_grid(1024, 256.0 * np.pi)
    spectra = np.fft.rfft(rng.normal(size=(64, grid.n)), axis=1)
    values = invariants._energies(grid, spectra)
    xs, ys = rng.uniform(0.1, 10.0, size=(2, 8))
    out = b"".join(values[name].tobytes() for name in invariants.CHANNELS)
    out += np.float64(spectral.loglog_slope(xs, ys)).tobytes()
    return hashlib.sha256(out).hexdigest()
"""


def test_channels_and_slopes_keep_their_bits_under_another_blas_kernel():
    # OPENBLAS_CORETYPE takes effect only when a process starts.  Under the
    # Prescott kernel E1, E2 and H1 took other bits when their quadratic sums
    # were matrix-vector products, and so did a slope fitted by np.polyfit
    namespace = {}
    exec(_BITS_SOURCE, namespace)
    src = str(Path(invariants.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _BITS_SOURCE + "print(bits())"], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == namespace["bits"]()


def test_track_pair_evaluates_the_modified_energy_once_per_frame(monkeypatch):
    grid = make_grid(256, 16.0 * np.pi)
    phi0 = RealField(grid, 0.05 * random_bandlimited_field(grid, seed=6, bandlimit=2.0).values)
    v0 = RealField(grid, 0.05 * random_bandlimited_field(grid, seed=7, bandlimit=2.0).values)
    cfg = SolverConfig(dt=1e-3, t_end=0.02, snapshot_stride=5)
    phi_traj, v_traj = integrate_linearized_pair(phi0, v0, cfg)
    calls = []

    def counted(y, phi, t):
        calls.append(t)
        return modified_energy(y, phi, t)

    monkeypatch.setattr(invariants, "modified_energy", counted)
    series = track_pair(phi_traj, v_traj, ["modified_energy", "modified_energy_cubic"])
    assert calls == [t for t, _ in phi_traj.frames if t > 0.0]
    for i, ((t, phi), (_, v)) in enumerate(zip(phi_traj.frames, v_traj.frames)):
        if t > 0.0:
            ref = modified_energy(fractional_derivative(v, -0.5), phi, t)
            assert series.channels["modified_energy"][i] == ref.total
            assert series.channels["modified_energy_cubic"][i] == ref.cubic
