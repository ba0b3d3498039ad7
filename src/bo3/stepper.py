"""Time integration with the stiff dispersive part handled exactly.

The scheme is integrating-factor RK4: the state is advanced in the frame of
the exact linear propagator (a pure phase multiplier), and classical RK4 is
applied to the transformed nonlinearity.  The state is the half spectrum of a
real field (its m = n/2+1 nonnegative wavenumbers); one march serves a single
state ``(m,)`` and the stacked ``(2, m)`` states of the linearized and
adjoint pairs, forward and backward in time.

``SolverConfig`` holds a march's settings; it is also the ``solver`` section
of an experiment config.  One march, ``_march``, steps the state and keeps
its frames: at the start, after every ``snapshot_stride``-th step and after
the last.  It keeps them all in one trajectory, or, given a reducer, hands
them over in blocks of ``FRAME_BLOCK`` frames and holds only the block it
fills.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import flows
from .spectral import RealField, SpectralGrid, loglog_slope, require_mean_free, same_grid

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowUpError",
    "integrate",
    "integrate_linearized_pair",
    "integrate_adjoint_pair",
    "convergence_order",
    "ConvergenceResult",
    "FRAME_BLOCK",
]

# Frames per block of a march handed to a reducer, and per batched transform
# of ``invariants.track``: at n = 1024 a block of half spectra is 0.5 MB.
FRAME_BLOCK = 64


class BlowUpError(RuntimeError):
    """Non-finite values appeared during integration."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"solution lost finiteness at t = {time:.6g}")


@dataclass(frozen=True)
class SolverConfig:
    dt: float = 1e-4
    t_end: float = 1.0
    snapshot_stride: int = 100
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
        return float(traj.times[i]), RealField.from_spectrum(traj.grid, h)


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
    if t_end == 0.0:
        return 0, 0.0
    n_steps = max(1, int(round(t_end / dt)))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        n_steps = max(1, int(math.ceil(t_end / dt - 1e-12)))  # a span below dt is one step
    return n_steps, t_end / n_steps


def _march(ws, s0, t0, t_span, config, nl, keep=None):
    """March the half spectra of s0 from t0 over t_span (of either sign).

    The state is one half spectrum ``(m,)`` or a stack ``(2, m)``;
    ``nl(s, out)`` writes the nonlinear part of s into out.  A frame is kept
    at t0, after every stride-th step and after the last, so a march of
    n_steps keeps ``1 + ceil(n_steps / stride)`` frames.  Each frame whose
    tail (``flows.spectral_tail_fraction``) exceeds ``config.tail_tol`` in
    any stacked row adds one resolution warning.

    Without ``keep``, returns the frame times ``(F,)``, the half spectra
    ``(rows, F, m)`` with one row per stacked state, and the warnings.  With
    ``keep``, the frames fill blocks of ``FRAME_BLOCK`` (the last may be
    shorter); each block goes to ``keep(times, spectra, warnings)`` as soon
    as it is full, and the next is newly allocated, so a block handed over
    is never written again.
    """
    m = ws.half + 1
    s = np.array(s0, dtype=complex)
    n_steps, h = _snapshot_plan(abs(t_span), config.dt)
    h = math.copysign(h, t_span)
    stride = config.snapshot_stride
    left = 1 + math.ceil(n_steps / stride)  # frames not yet in a block
    size = left if keep is None else FRAME_BLOCK

    def block():
        k = min(size, left)
        return np.empty(k), np.empty((s.size // m, k, m), dtype=complex), []

    times, spectra, warns = block()
    rk4 = _IFRK4(s.shape, h, ws.lam, nl)
    i, t = 0, t0
    # a blowing-up state overflows before the finiteness check sees it; that
    # check, not NumPy's warnings, reports the blow-up
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_steps + 1):
            if j > 0:
                rk4.step(s)
                t = t0 + j * h
                if not np.isfinite(s).all():
                    raise BlowUpError(t)
            if j % stride == 0 or j == n_steps:
                times[i] = t
                spectra[:, i] = s.reshape(-1, m)
                if any(flows.spectral_tail_fraction(row) > config.tail_tol
                       for row in spectra[:, i]):
                    warns.append((t, "resolution"))
                i += 1
                if keep is not None and i == len(times):
                    keep(times, spectra, warns)
                    left -= i
                    times, spectra, warns = block()
                    i = 0
    return times, spectra, warns


def integrate(kind: flows.FlowKind, f0: RealField, config: SolverConfig, reduce=None):
    """Integrate the flow ``kind`` from mean-free initial data ``f0``.

    Non-finite values abort with the blow-up time; under-resolution only
    accumulates warnings on the trajectory.  Returns the trajectory or, with
    ``reduce``, the list of ``reduce(block)`` over the march's consecutive
    blocks of ``FRAME_BLOCK`` frames, each a ``Trajectory`` of its own, so
    that no more than one block of frames is held at a time.
    """
    require_mean_free(f0)
    ws = flows._workspace(f0.grid)
    nl = lambda s, out: flows.nonlinear_spectrum(kind.tag, ws, s, out=out)

    def trajectory(times, spectra, warns):
        return Trajectory(f0.grid, times, spectra[0], warns)

    if reduce is None:
        return trajectory(*_march(ws, f0.modes, 0.0, config.t_end, config, nl))
    out = []
    _march(ws, f0.modes, 0.0, config.t_end, config, nl,
           keep=lambda *block: out.append(reduce(trajectory(*block))))
    return out


def _pair_march(phi, sec, tag, t_from, t_to, config):
    """March the stacked state (phi, sec) from t_from to t_to; the flow ``tag``
    of sec rides on phi.  Returns both trajectories in increasing time.

    The product-grid fields of phi are computed once per stage and serve
    both right-hand sides.
    """
    grid = same_grid(phi, sec)
    require_mean_free(phi)
    ws = flows._workspace(grid)

    def nl(s, out):
        fields = flows.product_fields(ws, s[0], ws.bg)
        flows.nonlinear_spectrum("third_order_bo", ws, s[0], fields, out[0])
        flows.nonlinear_spectrum(tag, ws, s[1], fields, out[1])

    s0 = np.stack((phi.modes, sec.modes))
    times, spectra, warns = _march(ws, s0, t_from, t_to - t_from, config, nl)
    order = slice(None, None, -1 if t_to < t_from else 1)
    return tuple(Trajectory(grid, times[order], rows[order], warns[order]) for rows in spectra)


def integrate_linearized_pair(phi0: RealField, v0: RealField, config: SolverConfig):
    """Co-evolve the nonlinear state and its linearization with shared stages."""
    return _pair_march(phi0, v0, "linearized_tbo", 0.0, config.t_end, config)


def integrate_adjoint_pair(phi_T: RealField, w_T: RealField, config: SolverConfig):
    """March the nonlinear state and the backward adjoint from t_end down to 0.

    phi follows the third-order flow backward from ``phi_T``; w solves the
    adjoint of the flow linearized around it, from ``w_T``.  Both
    trajectories are returned in increasing time.
    """
    return _pair_march(phi_T, w_T, "adjoint_linearized_tbo", config.t_end, 0.0, config)


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
    return ConvergenceResult(loglog_slope(dts, errors_arr), tuple(dts), tuple(errors))
