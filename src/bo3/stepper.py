"""Time integration with the stiff dispersive part handled exactly.

The scheme is integrating-factor RK4: the state is advanced in the frame of
the exact linear propagator (a pure phase multiplier), and classical RK4 is
applied to the transformed nonlinearity.  The state is the half spectrum of a
real field (its m = n/2+1 nonnegative wavenumbers); one march serves a single
state ``(m,)`` and the stacked ``(2, m)`` states of the linearized and
adjoint pairs, forward and backward in time.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import flows
from .spectral import RealField, SpectralGrid, require_mean_free

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowUpError",
    "integrate",
    "integrate_linearized_pair",
    "integrate_adjoint_pair",
    "convergence_order",
    "ConvergenceResult",
]


class BlowUpError(RuntimeError):
    """Non-finite values appeared during integration."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"solution lost finiteness at t = {time:.6g}")


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-4
    t_end: float = 1.0
    snapshot_stride: int = 1
    tail_tol: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.dt) and math.isfinite(self.t_end)):
            raise ValueError(f"dt and t_end must be finite, got {self.dt} and {self.t_end}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")


class _Frames(Sequence):
    """The ``(t, RealField)`` frames of a trajectory, each built when read."""

    __slots__ = ("_traj",)

    def __init__(self, traj: "Trajectory"):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.times)

    def __getitem__(self, i):
        traj = self._traj
        h = traj.spectra[i]  # an int index; IndexError ends iteration
        ws = flows._workspace(traj.grid)
        return float(traj.times[i]), RealField(traj.grid, np.fft.irfft(h, ws.n), ws.full(h))


@dataclass(eq=False)
class Trajectory:
    """Time-stamped frames of a real field, stored as half spectra.  Immutable
    after creation.

    ``spectra[i]`` holds the n/2+1 nonnegative wavenumbers of the frame at
    ``times[i]``.  ``frames`` reads them as ``(t, RealField)`` pairs, each
    field built by one ``irfft`` when it is read, so it is real by
    construction.
    """

    grid: SpectralGrid
    times: np.ndarray  # (F,), strictly increasing
    spectra: np.ndarray  # (F, n/2+1) complex
    config: SolverConfig
    warnings: list = field(default_factory=list)  # list of (time, kind)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("frame times must be strictly increasing")
        if self.spectra.shape != (len(self.times), self.grid.n // 2 + 1):
            raise ValueError(f"expected {len(self.times)} half spectra of {self.grid.n // 2 + 1} "
                             f"modes, got shape {self.spectra.shape}")
        self.times.setflags(write=False)
        self.spectra.setflags(write=False)

    @property
    def frames(self) -> _Frames:
        return _Frames(self)

    def final(self) -> RealField:
        return self.frames[-1][1]


class _IFRK4:
    """Integrating-factor RK4 steps of width h for one march, made in place.

    ``nl(s, out)`` writes the nonlinear part of the state s into out.  The
    stepper owns the phase multipliers of the linear symbol ``lam`` (m,),
    which broadcast over the rows of a stacked state, four stage buffers and
    two scratch buffers of the state's shape, so a step allocates nothing.
    """

    __slots__ = ("nl", "h", "efull", "ehalf", "hehalf", "e2half", "k1", "k2", "k3", "k4",
                 "u", "w")

    def __init__(self, shape, h: float, lam, nl):
        self.nl, self.h = nl, h
        self.efull, self.ehalf, self.hehalf, self.e2half = (
            np.empty(lam.shape, dtype=complex) for _ in range(4))
        np.exp(np.multiply(lam, h, out=self.efull), out=self.efull)
        np.exp(np.multiply(lam, h / 2.0, out=self.ehalf), out=self.ehalf)
        np.multiply(self.ehalf, h, out=self.hehalf)
        np.multiply(self.ehalf, 2.0, out=self.e2half)
        self.k1, self.k2, self.k3, self.k4, self.u, self.w = (
            np.empty(shape, dtype=complex) for _ in range(6))

    def step(self, s) -> None:
        """Advance s by one step:
        ``efull s + (h/6)(efull n1 + 2 ehalf (n2 + n3) + n4)``."""
        nl, h, efull, ehalf = self.nl, self.h, self.efull, self.ehalf
        k1, k2, k3, k4, u, w = self.k1, self.k2, self.k3, self.k4, self.u, self.w
        nl(s, k1)
        np.multiply(k1, 0.5 * h, out=u)  # ehalf (s + (h/2) n1)
        np.add(s, u, out=u)
        np.multiply(ehalf, u, out=u)
        nl(u, k2)
        np.multiply(k2, 0.5 * h, out=w)  # ehalf s + (h/2) n2
        np.multiply(ehalf, s, out=u)
        np.add(u, w, out=u)
        nl(u, k3)
        np.multiply(efull, s, out=w)  # efull s + h ehalf n3; w keeps efull s
        np.multiply(self.hehalf, k3, out=u)
        np.add(w, u, out=u)
        nl(u, k4)
        np.multiply(efull, k1, out=k1)
        np.add(k2, k3, out=k2)
        np.multiply(self.e2half, k2, out=k2)
        np.add(k1, k2, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(k1, h / 6.0, out=k1)
        np.add(w, k1, out=s)


def _snapshot_plan(t_end: float, dt: float):
    n_steps = max(1, int(round(t_end / dt)))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        n_steps = int(math.ceil(t_end / dt - 1e-12))
    return n_steps, t_end / n_steps


def _frame_plan(t_span: float, config: SolverConfig):
    """Signed step width of a march over t_span and the steps after which it
    emits a frame: every stride-th and the last, none for an empty span."""
    if t_span == 0.0:
        return 0.0, []
    n_steps, h = _snapshot_plan(abs(t_span), config.dt)
    stride = config.snapshot_stride
    steps = [j for j in range(1, n_steps + 1) if j % stride == 0 or j == n_steps]
    return math.copysign(h, t_span), steps


def _march(s0, t0, plan, lam, nl, emit):
    """March a state from t0 by the ``_frame_plan`` ``plan``, emitting frames.

    ``emit(i, t, s)`` receives frame i: the state at t0, then the state after
    each frame step; s is updated in place, so emit copies what it keeps.
    The state is one half spectrum ``(m,)`` or a stack ``(2, m)``; the
    ``(m,)`` multipliers built from the linear symbol ``lam`` broadcast over
    the rows.  ``nl(s, out)`` writes the nonlinear part of s into out.
    """
    h, frame_steps = plan
    s = np.array(s0, dtype=complex)
    emit(0, t0, s)
    if not frame_steps:
        return
    rk4 = _IFRK4(s.shape, h, lam, nl)
    frame_of = {j: i for i, j in enumerate(frame_steps, 1)}
    # a blowing-up state overflows before the finiteness check sees it; that
    # check, not NumPy's warnings, reports the blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, frame_steps[-1] + 1):
            rk4.step(s)
            t = t0 + j * h
            if not np.isfinite(s).all():
                raise BlowUpError(t)
            if j in frame_of:
                emit(frame_of[j], t, s)


def _recorded_march(ws, s0, t0, t_span, config, nl):
    """Run ``_march`` on the half spectra of s0, writing every frame into one array.

    Returns the frame times ``(F,)``, the half spectra ``(rows, F, m)`` with
    one row per stacked state, and the resolution warnings, which watch row
    0, the nonlinear state.
    """
    m = ws.half + 1
    s0 = np.asarray(s0)[..., :m]
    plan = _frame_plan(t_span, config)
    times = np.empty(len(plan[1]) + 1)
    spectra = np.empty((s0.size // m, len(times), m), dtype=complex)
    warns = []

    def emit(i, t, s):
        times[i] = t
        spectra[:, i] = s.reshape(-1, m)
        if flows.spectral_tail_fraction(spectra[0, i]) > config.tail_tol:
            warns.append((t, "resolution"))

    _march(s0, t0, plan, ws.lam, nl, emit)
    return times, spectra, warns


def integrate(kind: flows.FlowKind, f0: RealField, config: SolverConfig) -> Trajectory:
    """Integrate the flow ``kind`` from mean-free initial data ``f0``.

    Non-finite values abort with the blow-up time; under-resolution only
    accumulates warnings on the trajectory.
    """
    require_mean_free(f0)
    ws = flows._workspace(f0.grid)
    nl = lambda s, out: flows.nonlinear_spectrum(kind.tag, ws, s, out=out)
    times, (spectra,), warns = _recorded_march(ws, f0.spectrum, 0.0, config.t_end, config, nl)
    return Trajectory(f0.grid, times, spectra, config, warns)


def _pair_march(phi, sec, sec_tag, t0, t_span, config):
    """March the stacked state (phi, sec); the flow of sec rides on phi.

    The product-grid fields of phi are computed once per stage and serve
    both right-hand sides.
    """
    if phi.grid != sec.grid:
        raise ValueError("fields live on different grids")
    require_mean_free(phi)
    ws = flows._workspace(phi.grid)

    def nl(s, out):
        fields = flows.product_fields(ws, s[0], ws.bg)
        flows.nonlinear_spectrum("third_order_bo", ws, s[0], fields, out[0])
        flows.nonlinear_spectrum(sec_tag, ws, s[1], fields, out[1])

    s0 = np.stack((phi.spectrum, sec.spectrum))
    return _recorded_march(ws, s0, t0, t_span, config, nl)


def integrate_linearized_pair(phi0: RealField, v0: RealField, config: SolverConfig):
    """Co-evolve the nonlinear state and its linearization with shared stages."""
    times, (phi, v), warns = _pair_march(phi0, v0, "linearized_tbo", 0.0, config.t_end, config)
    return (Trajectory(phi0.grid, times, phi, config, list(warns)),
            Trajectory(phi0.grid, times, v, config, list(warns)))


def integrate_adjoint_pair(phi_T: RealField, w_T: RealField, config: SolverConfig):
    """March the nonlinear state and the backward adjoint from t_end down to 0.

    phi follows the third-order flow backward from ``phi_T``; w solves the
    adjoint of the flow linearized around it, from ``w_T``.  Both
    trajectories are returned in increasing time.
    """
    times, (phi, w), warns = _pair_march(phi_T, w_T, "adjoint_linearized_tbo",
                                         config.t_end, -config.t_end, config)
    times, warns = times[::-1], warns[::-1]
    return (Trajectory(phi_T.grid, times, phi[::-1], config, warns),
            Trajectory(phi_T.grid, times, w[::-1], config, list(warns)))


@dataclass(frozen=True)
class ConvergenceResult:
    order: float  # fitted slope; inf means errors at round-off; nan means non-monotone
    dts: tuple
    errors: tuple


def convergence_order(f0: RealField, t_end: float, dt_list) -> ConvergenceResult:
    """Self-convergence study of the third-order flow against a run at the
    finest dt / 8."""
    dts = sorted(float(d) for d in dt_list)
    if len(dts) < 3:
        raise ValueError("need at least three dt values")

    def final_state(dt):
        cfg = SolverConfig(dt=dt, t_end=t_end, snapshot_stride=10**9)
        return integrate(flows.FlowKind("third_order_bo"), f0, cfg).final()

    ref = final_state(dts[0] / 8.0)
    scale = np.max(np.abs(ref.values)) + 1e-300
    errors = []
    for dt in dts:
        fin = final_state(dt)
        errors.append(float(np.max(np.abs(fin.values - ref.values))))
    errors_arr = np.asarray(errors)
    if np.all(errors_arr < 1e-12 * scale):
        return ConvergenceResult(math.inf, tuple(dts), tuple(errors))
    if np.any(np.diff(errors_arr) <= 0.0):
        return ConvergenceResult(math.nan, tuple(dts), tuple(errors))
    slope = float(np.polyfit(np.log(dts), np.log(errors_arr), 1)[0])
    return ConvergenceResult(slope, tuple(dts), tuple(errors))
