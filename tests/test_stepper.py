import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from bo3 import flows, invariants, stepper
from bo3.flows import FlowKind, airy_propagate, tbo_rhs
from bo3.spectral import RealField, l2_norm, make_grid
from bo3.stepper import (
    BlowUpError,
    ResolutionWarning,
    SolverConfig,
    convergence_order,
    integrate,
    integrate_adjoint_pair,
    integrate_linearized_pair,
    study_solvers,
)

import oracles
from conftest import linear_march, random_bandlimited_field, trajectory
from oracles import quad


@pytest.fixture
def grid():
    return make_grid(256, 2.0 * np.pi)


@pytest.fixture
def wide():
    # nonlinear runs need eps * xi_max^2 * dt well inside the stability region
    return make_grid(256, 16.0 * np.pi)


# A test whose marches the tail guard flags, though it asserts on other
# things: its ResolutionWarnings are expected and not shown.
flagged = pytest.mark.filterwarnings("ignore::bo3.stepper.ResolutionWarning")


def small_state(grid, seed=1, eps=0.1, bandlimit=6.0):
    f = random_bandlimited_field(grid, seed=seed, bandlimit=bandlimit)
    return RealField(grid, eps * f.values)


# ---------------------------------------------------------------------------
# configuration and trajectory plumbing


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(snapshot_stride=0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            SolverConfig(dt=bad)
        with pytest.raises(ValueError):
            SolverConfig(t_end=bad)


def test_trajectory_requires_increasing_times(grid):
    f = small_state(grid)
    with pytest.raises(ValueError):
        trajectory([(0.0, f), (0.0, f)])


@flagged
def test_lazy_frames_match_fields_built_from_the_full_spectrum(wide):
    data = small_state(wide, seed=3, eps=0.2)
    cfg = SolverConfig(dt=1e-3, t_end=0.05, snapshot_stride=10)
    traj = integrate(FlowKind("third_order_bo"), data, cfg)
    for (t, fld), h in zip(traj.frames, traj.spectra):
        full = np.concatenate((h, np.conj(h[-2:0:-1])))  # the Hermitian extension
        old = np.fft.ifft(full).real
        assert isinstance(t, float) and isinstance(fld, RealField)
        assert np.array_equal(fld.modes, h) and np.array_equal(fld.spectrum, full)
        assert np.max(np.abs(fld.values - old)) <= 1e-14 * np.max(np.abs(old))


# (t_end, stride, the steps after which a frame is kept) at dt = 1e-3: a
# stride that leaves a remainder, divides the step count, exceeds it, is 1,
# and an empty span, which keeps the data alone
FRAME_CASES = [(0.025, 10, [0, 10, 20, 25]), (0.02, 10, [0, 10, 20]), (0.005, 10, [0, 5]),
               (0.003, 1, [0, 1, 2, 3]), (0.0, 10, [0])]


@flagged
def test_trajectory_len_at_and_final(wide):
    data = small_state(wide, seed=3)
    for t_end, stride, steps in FRAME_CASES:
        cfg = SolverConfig(dt=1e-3, t_end=t_end, snapshot_stride=stride)
        traj = integrate(FlowKind("third_order_bo"), data, cfg)
        dense = integrate(FlowKind("third_order_bo"), data,
                          dataclasses.replace(cfg, snapshot_stride=1))
        assert len(traj.frames) == len(steps) and len(dense.frames) == steps[-1] + 1
        assert [t for t, _ in traj.frames] == pytest.approx([1e-3 * j for j in steps], abs=1e-15)
        # each frame, the last one too, is the state after its step
        assert np.array_equal(traj.spectra, dense.spectra[steps])
        assert np.array_equal(traj.final().values, traj.frames[-1][1].values)
        assert np.max(np.abs(traj.frames[0][1].values - data.values)) <= 1e-15
        with pytest.raises(IndexError):
            traj.frames[len(steps)]
        with pytest.raises(ValueError):  # frames are immutable, and so is their storage
            traj.spectra[0, 1] = 0.0


def test_a_span_shorter_than_a_step_is_one_step(wide):
    data = small_state(wide, seed=3)
    cfg = SolverConfig(dt=1e-3, t_end=1e-20, snapshot_stride=10)
    assert stepper._snapshot_plan(cfg.t_end, cfg.dt) == (1, 1e-20)
    assert stepper._snapshot_plan(0.0, cfg.dt) == (0, 0.0)
    traj = integrate(FlowKind("third_order_bo"), data, cfg)
    assert list(traj.times) == [0.0, 1e-20]


@flagged
def test_adjoint_frames_run_forward_in_time(wide):
    phi_T = small_state(wide, seed=3)
    w_T = small_state(wide, seed=4)
    for t_end, stride, steps in FRAME_CASES:
        cfg = SolverConfig(dt=1e-3, t_end=t_end, snapshot_stride=stride)
        pair = integrate_adjoint_pair(phi_T, w_T, cfg)
        dense = integrate_adjoint_pair(phi_T, w_T, dataclasses.replace(cfg, snapshot_stride=1))
        # the march starts at t_end: backward step j is the frame at t_end - j dt,
        # and the frame at t = 0 is the state after the last step
        kept = [steps[-1] - j for j in reversed(steps)]
        for traj, full, data in zip(pair, dense, (phi_T, w_T)):
            assert len(traj.frames) == len(steps) and len(full.frames) == steps[-1] + 1
            assert list(traj.times) == pytest.approx(
                [t_end - 1e-3 * j for j in reversed(steps)], abs=1e-15)
            assert np.array_equal(traj.spectra, full.spectra[kept])
            # the final frames are the data themselves
            assert traj.times[-1] == cfg.t_end
            assert np.max(np.abs(traj.final().values - data.values)) <= 1e-15


# ---------------------------------------------------------------------------
# exact linear propagation


def test_airy_integration_is_exact(grid):
    # the integrating factor carries the linear part exactly: with the
    # nonlinear part switched off the march is the Airy flow at the frame
    # times of the nonlinear march, also when the stride does not divide
    # the number of steps
    f = small_state(grid, eps=1.0)
    zero = RealField(grid, np.zeros(grid.n))
    for cfg in (SolverConfig(dt=1e-2, t_end=0.5, snapshot_stride=10),
                SolverConfig(dt=0.1, t_end=1.0, snapshot_stride=3)):
        traj = linear_march(f, cfg)
        marched = integrate(FlowKind("third_order_bo"), zero, cfg)
        assert np.array_equal(traj.times, marched.times)
        for t, fld in traj.frames:
            ref = airy_propagate(f, t)
            assert np.max(np.abs(fld.values - ref.values)) <= 1e-12


# ---------------------------------------------------------------------------
# one-step oracle


def test_single_step_matches_stage_algebra(grid):
    # independent integrating-factor RK4 step written out by hand
    eps, dt = 0.01, 1e-3
    f = RealField(grid, eps * np.sin(grid.x))
    cfg = SolverConfig(dt=dt, t_end=dt, snapshot_stride=1)
    traj = integrate(FlowKind("third_order_bo"), f, cfg)
    got = traj.final().values

    lam = (1j * grid.xi) ** 3
    lam[grid.nyquist_index] = 0.0
    efull, ehalf = np.exp(lam * dt), np.exp(lam * dt / 2.0)

    def nl(spec):
        fld = RealField.from_spectrum(grid, spec[: grid.n // 2 + 1])
        return tbo_rhs(fld).spectrum - lam * spec

    s0 = f.spectrum
    n1 = nl(s0)
    n2 = nl(ehalf * (s0 + 0.5 * dt * n1))
    n3 = nl(ehalf * s0 + 0.5 * dt * n2)
    n4 = nl(efull * s0 + dt * ehalf * n3)
    s1 = efull * s0 + dt / 6.0 * (efull * n1 + 2.0 * ehalf * (n2 + n3) + n4)
    expected = np.fft.ifft(s1).real
    assert np.max(np.abs(got - expected)) <= 1e-12


def _reference_march(ws, s0, h, steps, tag):
    """``steps`` reference steps of width h from the half spectrum (or pair) s0."""
    lam = flows.linear_symbol(ws.grid)[: ws.half + 1]
    efull, ehalf = np.exp(lam * h), np.exp(lam * (h / 2.0))

    def nl(s):
        if s.ndim == 1:
            return flows.nonlinear_spectrum(tag, ws, s)
        fields = flows.product_fields(ws, s[0])
        return np.stack((flows.nonlinear_spectrum("third_order_bo", ws, s[0], fields),
                         flows.nonlinear_spectrum(tag, ws, s[1], fields)))

    s = s0
    for _ in range(steps):
        s = oracles.rk4_step(s, h, efull, ehalf, nl)
    return s


@pytest.mark.parametrize("n", [128, 1024])
def test_in_place_march_matches_the_reference_step(n):
    # the march writes its stages into buffers it owns; the reference step
    # builds every stage as a new array
    g = make_grid(n, n * np.pi / 4.0)
    m = n // 2 + 1
    phi0 = small_state(g, seed=30, eps=0.2, bandlimit=1.0)
    v0 = small_state(g, seed=31, eps=0.5, bandlimit=1.0)
    dt, steps = 1e-3, 40
    cfg = SolverConfig(dt=dt, t_end=steps * dt, snapshot_stride=10**9)
    ws = flows._workspace(g)
    pair0 = np.stack((phi0.modes, v0.modes))
    single = integrate(FlowKind("third_order_bo"), phi0, cfg)
    lin = integrate_linearized_pair(phi0, v0, cfg)
    adj = integrate_adjoint_pair(phi0, v0, cfg)  # marched from t_end down to 0
    cases = [
        ([single.spectra[-1]],
         _reference_march(ws, phi0.modes, dt, steps, "third_order_bo")),
        ([t.spectra[-1] for t in lin], _reference_march(ws, pair0, dt, steps, "linearized_tbo")),
        ([t.spectra[0] for t in adj],
         _reference_march(ws, pair0, -dt, steps, "adjoint_linearized_tbo")),
    ]
    for got, want in cases:
        for row, ref in zip(got, np.reshape(want, (-1, m))):
            assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref))


@flagged
def test_march_keeps_its_data_and_emits_distinct_frames(wide):
    # the state is updated in place: each emitted frame is a copy, and the
    # initial data are not touched
    phi0 = small_state(wide, seed=32, eps=0.2)
    v0 = small_state(wide, seed=33, eps=0.5)
    before = phi0.modes.copy(), v0.modes.copy()
    cfg = SolverConfig(dt=1e-3, t_end=0.03, snapshot_stride=10)
    runs = [([integrate(FlowKind("third_order_bo"), phi0, cfg)], 0),
            (integrate_linearized_pair(phi0, v0, cfg), 0),
            (integrate_adjoint_pair(phi0, v0, cfg), -1)]
    for trajs, start in runs:
        for traj, data in zip(trajs, (phi0, v0)):
            assert np.array_equal(traj.spectra[start], data.modes)
            frames = traj.spectra
            assert all(not np.array_equal(frames[i], frames[i + 1]) for i in range(len(frames) - 1))
    assert np.array_equal(phi0.modes, before[0]) and np.array_equal(v0.modes, before[1])


@flagged
def test_march_allocates_no_stage_temporaries():
    # the peak of a march is its own arrays (the state, the stepper's
    # buffers and multipliers, the trajectory) plus less than one half
    # spectrum: the frame guard's power spectrum and NumPy's views, but no
    # stage temporary
    n = 1024
    g = make_grid(n, n * np.pi / 4.0)
    m = n // 2 + 1
    half = 16 * m
    phi0 = small_state(g, seed=34, eps=0.2, bandlimit=1.0)
    kind = FlowKind("third_order_bo")
    cfg = SolverConfig(dt=1e-3, t_end=0.2, snapshot_stride=10**9)  # 200 steps, two frames
    integrate(kind, phi0, cfg)  # builds the grid's workspace
    ws = flows._workspace(g)
    tracemalloc.start()
    try:
        state = np.empty(m, dtype=complex)
        rk4 = stepper._IFRK4(state.shape, cfg.dt, ws.lam, None)
        buffers = tracemalloc.get_traced_memory()[0]
        del state, rk4
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        traj = integrate(kind, phi0, cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.times) == 2
    own = buffers + (kept - base)
    assert peak - base - own < half


# ---------------------------------------------------------------------------
# convergence


def test_self_convergence_fourth_order():
    # the dt ladder must sit inside the asymptotic regime of the highest
    # active mode, so the data is kept at low bandwidth
    grid = make_grid(128, 16.0 * np.pi)
    data = small_state(grid, seed=3, eps=0.5, bandlimit=2.0)
    res = convergence_order(data, study_solvers(0.5, (4e-3, 2e-3, 1e-3)))
    assert res.order == pytest.approx(4.0, abs=0.2)


def test_convergence_exact_sentinel(grid):
    # zero data stay zero at every dt: errors at round-off read as an
    # infinite order
    zero = RealField(grid, np.zeros(grid.n))
    res = convergence_order(zero, study_solvers(0.5, (4e-2, 2e-2, 1e-2)))
    assert math.isinf(res.order)
    assert res.errors == (0.0, 0.0, 0.0)


def test_convergence_needs_three_dts(grid):
    f = small_state(grid)
    with pytest.raises(ValueError):
        convergence_order(f, study_solvers(0.1, (1e-3, 2e-3)))


# ---------------------------------------------------------------------------
# conservation and reversal smoke checks (full-budget runs live in acceptance)


@flagged
def test_l2_is_conserved_on_short_run(wide):
    data = small_state(wide, seed=4, eps=0.1)
    cfg = SolverConfig(dt=5e-4, t_end=0.1, snapshot_stride=40)
    traj = integrate(FlowKind("third_order_bo"), data, cfg)
    n0 = l2_norm(data)
    # discretization error scales like dt^4; the acceptance suite runs the
    # tight-budget version at dt = 1e-4
    for _, fld in traj.frames:
        assert l2_norm(fld) == pytest.approx(n0, rel=1e-8)


@flagged
def test_time_reversal(wide):
    data = small_state(wide, seed=5, eps=0.2)
    t_end = 0.2
    cfg = SolverConfig(dt=1e-3, t_end=t_end, snapshot_stride=10**9)
    fwd = integrate(FlowKind("third_order_bo"), data, cfg)
    # with a zero adjoint row the phi row is the plain backward march
    zero = RealField(wide, np.zeros(wide.n))
    phi_back, _ = integrate_adjoint_pair(fwd.final(), zero, cfg)
    back = phi_back.frames[0][1]
    roundtrip = np.max(np.abs(back.values - data.values))

    fine = SolverConfig(dt=5e-4, t_end=t_end, snapshot_stride=10**9)
    ref = integrate(FlowKind("third_order_bo"), data, fine).final()
    one_way = np.max(np.abs(fwd.final().values - ref.values)) / (1.0 - 2.0**-4)
    assert roundtrip <= 10.0 * max(one_way, 1e-14)


def test_blowup_detection():
    grid = make_grid(64, 2.0 * np.pi)
    wild = RealField(grid, 50.0 * np.sin(grid.x) + 30.0 * np.sin(7.0 * grid.x))
    wild = RealField(grid, wild.values - np.mean(wild.values))
    cfg = SolverConfig(dt=0.5, t_end=10.0, snapshot_stride=1)
    with pytest.raises(BlowUpError) as err, np.errstate(over="ignore", invalid="ignore"):
        integrate(FlowKind("third_order_bo"), wild, cfg)
    assert 0.0 < err.value.time <= 10.0


def test_resolution_warnings_accumulate():
    grid = make_grid(64, 2.0 * np.pi)
    # top-third content from the start trips the tail guard at every kept
    # frame; the march warns once, at its caller, for all six
    hot = RealField(grid, 0.1 * np.sin(24.0 * grid.x))
    cfg = SolverConfig(dt=1e-4, t_end=5e-3, snapshot_stride=10)
    with pytest.warns(ResolutionWarning) as record:
        traj = integrate(FlowKind("third_order_bo"), hot, cfg)
    assert len(record) == 1 and record[0].filename == __file__
    warning = record[0].message
    assert (warning.count, warning.first) == (len(traj.times), 0.0) == (6, 0.0)
    assert "resolution" in str(warning) and "n = 64, dt = 0.0001" in str(warning)


def test_tail_guard_watches_every_stacked_row(wide):
    # a smooth background with a hot second row: the single march of phi
    # raises nothing, either pair flags every frame, the first where its
    # march starts
    phi0 = small_state(wide, seed=35, eps=0.1, bandlimit=2.0)
    hot = RealField(wide, 1e-3 * np.sin(14.0 * wide.x))  # 14 >= (2/3) xi_max = 10.7
    cfg = SolverConfig(dt=1e-4, t_end=2e-3, snapshot_stride=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrate(FlowKind("third_order_bo"), phi0, cfg)
    for pair, start in ((integrate_linearized_pair, 0.0), (integrate_adjoint_pair, cfg.t_end)):
        with pytest.warns(ResolutionWarning) as record:
            phi_traj, _ = pair(phi0, hot, cfg)
        assert len(record) == 1 and record[0].filename == __file__
        assert (record[0].message.count, record[0].message.first) == (len(phi_traj.times), start)


def test_streamed_march_warns_once_after_its_last_block():
    grid = make_grid(64, 2.0 * np.pi)
    hot = RealField(grid, 0.1 * np.sin(24.0 * grid.x))
    cfg = SolverConfig(dt=1e-4, t_end=0.02, snapshot_stride=1)  # 201 frames: 64, 64, 64, 9
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        seen = integrate(FlowKind("third_order_bo"), hot, cfg,
                         reduce=lambda block: (len(block.times), len(record)))
    assert seen == [(64, 0), (64, 0), (64, 0), (9, 0)]
    assert [w.category for w in record] == [ResolutionWarning]
    assert (record[0].message.count, record[0].message.first) == (201, 0.0)


# ---------------------------------------------------------------------------
# streamed marches: the frames handed to a reducer block by block


def _energies(block):
    return invariants.track(block, invariants.CHANNELS)


@flagged
@pytest.mark.parametrize("frames", [1, 64, 65, 201])
def test_streamed_energies_match_the_whole_trajectory_bit_for_bit(wide, frames):
    data = small_state(wide, seed=36, eps=0.2)
    cfg = SolverConfig(dt=1e-3, t_end=(frames - 1) * 1e-3, snapshot_stride=1)
    kind = FlowKind("third_order_bo")
    blocks = integrate(kind, data, cfg, reduce=_energies)
    assert [len(b.times) for b in blocks] == [
        min(stepper.FRAME_BLOCK, frames - i) for i in range(0, frames, stepper.FRAME_BLOCK)]
    streamed = invariants.EnergySeries.join(blocks)
    whole = invariants.track(integrate(kind, data, cfg), invariants.CHANNELS)
    assert np.array_equal(streamed.times, whole.times) and len(whole.times) == frames
    for name in invariants.CHANNELS:
        assert np.array_equal(streamed.channels[name], whole.channels[name]), name


@flagged
def test_streamed_blocks_hold_only_their_own_frames(wide):
    # a reducer that keeps every block sees each frame once, in its own block,
    # unchanged by the blocks that follow
    data = small_state(wide, seed=37, eps=0.2)
    cfg = SolverConfig(dt=1e-3, t_end=0.15, snapshot_stride=1)  # 151 frames: 64, 64, 23
    kind = FlowKind("third_order_bo")
    blocks = integrate(kind, data, cfg, reduce=lambda block: block)
    whole = integrate(kind, data, cfg)
    assert [len(b.times) for b in blocks] == [64, 64, 23]
    assert np.array_equal(np.concatenate([b.times for b in blocks]), whole.times)
    assert np.array_equal(np.concatenate([b.spectra for b in blocks]), whole.spectra)
    bases = [b.spectra.base if b.spectra.base is not None else b.spectra for b in blocks]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(bases) for b in bases[i + 1:])


def test_streamed_blowup_stops_at_the_same_time():
    grid = make_grid(64, 2.0 * np.pi)
    wild = RealField(grid, 50.0 * np.sin(grid.x) + 30.0 * np.sin(7.0 * grid.x))
    wild = RealField(grid, wild.values - np.mean(wild.values))
    cfg = SolverConfig(dt=0.5, t_end=10.0, snapshot_stride=1)
    times = []
    for reduce in (None, _energies):
        with pytest.raises(BlowUpError) as err, np.errstate(over="ignore", invalid="ignore"):
            integrate(FlowKind("third_order_bo"), wild, cfg, reduce=reduce)
        times.append(err.value.time)
    assert times[0] == times[1]


@flagged
def test_streamed_march_memory_does_not_grow_with_its_frames():
    # a stride-1 march reduced by track holds one block of frames: 2000
    # frames peak where 200 do, though the 1800 more half spectra are 3.7 MB
    g = make_grid(256, 16.0 * np.pi)
    data = small_state(g, seed=38, eps=0.1)
    kind = FlowKind("third_order_bo")
    integrate(kind, data, SolverConfig(dt=1e-4, t_end=1e-4))  # builds the grid's workspace
    peaks = []
    for steps in (200, 2000):
        cfg = SolverConfig(dt=1e-4, t_end=steps * 1e-4, snapshot_stride=1)
        tracemalloc.start()
        try:
            blocks = integrate(kind, data, cfg, reduce=_energies)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sum(len(b.times) for b in blocks) == steps + 1
    assert peaks[1] - peaks[0] < 0.25e6


def test_mean_precondition(grid):
    f = RealField(grid, 1.0 + np.sin(grid.x))
    with pytest.raises(Exception):
        integrate(FlowKind("third_order_bo"), f, SolverConfig(dt=1e-3, t_end=1e-2))


# ---------------------------------------------------------------------------
# coupled linearized integration


def test_pair_with_zero_background_is_airy(wide):
    v0 = small_state(wide, seed=6, eps=0.3)
    zero = RealField(wide, np.zeros(wide.n))
    cfg = SolverConfig(dt=1e-3, t_end=0.2, snapshot_stride=50)
    _, v_traj = integrate_linearized_pair(zero, v0, cfg)
    for t, fld in v_traj.frames:
        ref = airy_propagate(v0, t)
        assert np.max(np.abs(fld.values - ref.values)) <= 1e-10


@flagged
def test_pair_with_zero_direction_stays_zero(wide):
    phi0 = small_state(wide, seed=7, eps=0.2)
    zero = RealField(wide, np.zeros(wide.n))
    cfg = SolverConfig(dt=1e-3, t_end=0.2, snapshot_stride=50)
    _, v_traj = integrate_linearized_pair(phi0, zero, cfg)
    assert np.max(np.abs(v_traj.final().values)) == 0.0


@flagged
def test_pair_approximates_difference_quotient(wide):
    # v(t) tracks (phi^h(t) - phi(t)) / h with O(h) relative error
    phi0 = small_state(wide, seed=8, eps=0.2)
    v0 = small_state(wide, seed=9, eps=0.2)
    h = 1e-4
    cfg = SolverConfig(dt=1e-3, t_end=0.25, snapshot_stride=10**9)
    phi_traj, v_traj = integrate_linearized_pair(phi0, v0, cfg)
    pert = RealField(wide, phi0.values + h * v0.values)
    pert_traj = integrate(FlowKind("third_order_bo"), pert, cfg)
    diff = (pert_traj.final().values - phi_traj.final().values) / h
    v = v_traj.final().values
    rel = np.max(np.abs(diff - v)) / np.max(np.abs(v))
    assert rel <= 10.0 * h / 1e-4 * 1e-3  # O(h) with a generous constant


@flagged
def test_pair_phi_row_is_the_single_march(wide):
    phi0 = small_state(wide, seed=20, eps=0.15)
    v0 = small_state(wide, seed=21, eps=0.5)
    cfg = SolverConfig(dt=1e-3, t_end=0.1, snapshot_stride=25)
    phi_traj, _ = integrate_linearized_pair(phi0, v0, cfg)
    single = integrate(FlowKind("third_order_bo"), phi0, cfg)
    assert np.array_equal(phi_traj.times, single.times)
    for (_, a), (_, b) in zip(phi_traj.frames, single.frames):
        assert np.array_equal(a.values, b.values)


@flagged
def test_transform_budget_per_stage(wide, monkeypatch):
    # rows per batched transform: a third-order stage takes phi and H phi_x
    # to the product grid and brings two products back; a pair stage adds
    # two rows of the second state each way and shares the background's
    rows = {"irfft": [], "rfft": []}
    for name, log in rows.items():
        def counted(a, *args, _fft=getattr(np.fft, name), _log=log, **kwargs):
            _log.append(np.shape(a)[0] if np.ndim(a) == 2 else 1)
            return _fft(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)

    def budget(run):
        for log in rows.values():
            log.clear()
        run()
        return rows["irfft"], rows["rfft"]

    phi0 = small_state(wide, seed=23, eps=0.1)
    v0 = small_state(wide, seed=24, eps=0.5)
    ws = flows._workspace(wide)
    s = phi0.modes
    v0.modes  # the data's own rfft, which no stage makes
    assert budget(lambda: flows.nonlinear_spectrum("third_order_bo", ws, s)) == ([2], [2])
    one_step = SolverConfig(dt=1e-3, t_end=1e-3)
    assert budget(lambda: integrate(FlowKind("third_order_bo"), phi0, one_step)) == (
        [2] * 4, [2] * 4)
    for pair in (integrate_linearized_pair, integrate_adjoint_pair):
        assert budget(lambda: pair(phi0, v0, one_step)) == ([2, 2] * 4, [2, 2] * 4)


def test_linearized_background_validation(wide):
    phi0 = small_state(wide, seed=22, eps=0.1)
    cfg = SolverConfig(dt=1e-3, t_end=0.05, snapshot_stride=25)
    other = make_grid(128, 16.0 * np.pi)
    v_other = RealField(other, np.zeros(other.n))
    for pair in (integrate_linearized_pair, integrate_adjoint_pair):
        with pytest.raises(ValueError):
            pair(phi0, v_other, cfg)


@flagged
def test_adjoint_pairing_constant_along_flow(wide):
    # <v(t), w(t)> is invariant when w solves the backward adjoint equation
    phi0 = small_state(wide, seed=10, eps=0.15)
    v0 = small_state(wide, seed=11, eps=1.0)
    w_T = small_state(wide, seed=12, eps=1.0)
    t_end = 0.3
    cfg = SolverConfig(dt=2.5e-4, t_end=t_end, snapshot_stride=200)
    phi_traj, v_traj = integrate_linearized_pair(phi0, v0, cfg)
    _, w_traj = integrate_adjoint_pair(phi_traj.final(), w_T, cfg)
    pairings = []
    for (t, v), (t2, w) in zip(v_traj.frames, w_traj.frames):
        assert t == pytest.approx(t2, abs=1e-9)
        pairings.append(quad(wide, v.values * w.values))
    # the backward background march redoes the forward discretization error
    spread = np.max(np.abs(np.asarray(pairings) - pairings[0]))
    assert spread <= 1e-7 * abs(pairings[0])
