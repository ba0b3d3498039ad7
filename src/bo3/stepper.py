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
fills.  A march whose kept frames are under-resolved ends with one
``ResolutionWarning``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import typing
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import flows
from .spectral import RealField, SpectralGrid, loglog_slope, require_mean_free, same_grid

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowUpError",
    "ResolutionWarning",
    "integrate",
    "integrate_linearized_pair",
    "integrate_adjoint_pair",
    "final_only",
    "study_solvers",
    "convergence_order",
    "ConvergenceResult",
    "FRAME_BLOCK",
    "TAIL_TOL",
]

# Frames per block of a march handed to a reducer, and per batched transform
# of ``invariants.track``: at n = 1024 a block of half spectra is 0.5 MB.
FRAME_BLOCK = 64

# The largest share of a kept frame's spectral energy that may sit in the top
# third of the wavenumbers (``flows.spectral_tail_fraction``) before the frame
# counts as under-resolved.
TAIL_TOL = 1e-8


class BlowUpError(RuntimeError):
    """Non-finite values appeared during integration."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"solution lost finiteness at t = {time:.6g}")


class ResolutionWarning(UserWarning):
    """A march kept ``count`` frames whose tail exceeds ``TAIL_TOL`` in some
    stacked row, the first of them, in the march's order, at t = ``first``."""

    def __init__(self, count: int, first: float, n: int, dt: float):
        self.count, self.first = count, first
        super().__init__(f"{count} resolution flags along the march at n = {n}, dt = {dt:.6g} "
                         f"(first at t = {first:.4g})")


# The kinds and ranges a config field can declare, and their one checker:
# ``SolverConfig`` runs it as it is built, ``experiments.validate_config`` on
# every section of a config.
_KINDS = {int: "an integer", float: "a finite number"}
_RANGES = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0}


def _fits(x, kind) -> bool:
    """True for an integer or a finite number as kind asks: a bool is neither, and
    an integer beyond the float range is no number."""
    if isinstance(x, bool) or not isinstance(x, (int, float) if kind is float else int):
        return False
    return -sys.float_info.max <= x <= sys.float_info.max  # exact for an int; False for NaN


_hints = functools.cache(typing.get_type_hints)


def _check_fields(prefix: str, obj, names=None, error=ValueError) -> None:
    """Raise ``error`` unless each named field of a dataclass fits its annotation
    and its declared range; the message names the field after ``prefix``."""
    hints = _hints(type(obj))
    for fld in dataclasses.fields(obj):
        if names and fld.name not in names:
            continue
        name, rule = fld.name, fld.metadata.get("range")
        hint, value = hints[name], getattr(obj, name)
        if not _fits(value, hint):
            raise error(f"{prefix}{name} must be {_KINDS[hint]}, got {value!r}")
        if rule and not _RANGES[rule](value):
            raise error(f"{prefix}{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    dt: float = field(default=1e-4, metadata={"range": "positive"})
    # a march may end where it starts; experiments.validate_config refuses a
    # run whose plan holds a march of no step
    t_end: float = field(default=1.0, metadata={"range": "nonnegative"})
    snapshot_stride: int = field(default=100, metadata={"range": "positive"})

    def __post_init__(self):
        _check_fields("", self)


def final_only(dt: float, t_end: float) -> SolverConfig:
    """The settings of a march that keeps no frame between its first and last."""
    return SolverConfig(dt=dt, t_end=t_end, snapshot_stride=10**9)


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


def _march(ws, s0, t0, t_span, config, nl, keep=None, stacklevel=3):
    """March the half spectra of s0 from t0 over t_span (of either sign).

    The state is one half spectrum ``(m,)`` or a stack ``(2, m)``;
    ``nl(s, out)`` writes the nonlinear part of s into out.  A frame is kept
    at t0, after every stride-th step and after the last, so a march of
    n_steps keeps ``1 + ceil(n_steps / stride)`` frames.  A kept frame whose
    tail (``flows.spectral_tail_fraction``) exceeds ``TAIL_TOL`` in any
    stacked row is flagged; if any is, the march ends with one
    ``ResolutionWarning`` of their count and the first one's time, issued
    ``stacklevel`` frames up (3: the caller of the function that called
    ``_march``).

    Without ``keep``, returns the frame times ``(F,)`` and the half spectra
    ``(rows, F, m)`` with one row per stacked state.  With ``keep``, the
    frames fill blocks of ``FRAME_BLOCK`` (the last may be shorter); each
    block goes to ``keep(times, spectra)`` as soon as it is full, and the
    next is newly allocated, so a block handed over is never written again.
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
        return np.empty(k), np.empty((s.size // m, k, m), dtype=complex)

    times, spectra = block()
    rk4 = _IFRK4(s.shape, h, ws.lam, nl)
    i, t = 0, t0
    flagged, first = 0, None
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
                if any(flows.spectral_tail_fraction(row) > TAIL_TOL for row in spectra[:, i]):
                    flagged += 1
                    first = t if first is None else first
                i += 1
                if keep is not None and i == len(times):
                    keep(times, spectra)
                    left -= i
                    times, spectra = block()
                    i = 0
    if flagged:
        warnings.warn(ResolutionWarning(flagged, first, ws.grid.n, config.dt),
                      stacklevel=stacklevel)
    return times, spectra


def integrate(kind: flows.FlowKind, f0: RealField, config: SolverConfig, reduce=None):
    """Integrate the flow ``kind`` from mean-free initial data ``f0``.

    Non-finite values abort with the blow-up time.  Under-resolved frames
    do not stop the march: it ends with one ``ResolutionWarning``, raised
    at the caller, after the last block.  Returns the trajectory or, with
    ``reduce``, the list of ``reduce(block)`` over the march's consecutive
    blocks of ``FRAME_BLOCK`` frames, each a ``Trajectory`` of its own, so
    that no more than one block of frames is held at a time.
    """
    require_mean_free(f0)
    ws = flows._workspace(f0.grid)
    nl = lambda s, out: flows.nonlinear_spectrum(kind.tag, ws, s, out=out)

    def trajectory(times, spectra):
        return Trajectory(f0.grid, times, spectra[0])

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
    times, spectra = _march(ws, s0, t_from, t_to - t_from, config, nl, stacklevel=4)
    order = slice(None, None, -1 if t_to < t_from else 1)
    return tuple(Trajectory(grid, times[order], rows[order]) for rows in spectra)


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


def study_solvers(t_end: float, dt_list) -> list:
    """A convergence study's marches to t_end: the reference at the finest dt / 8, then each dt."""
    dts = sorted(float(d) for d in dt_list)
    return [final_only(dt, t_end) for dt in (dts[0] / 8.0, *dts)]


def convergence_order(f0: RealField, study) -> ConvergenceResult:
    """Self-convergence study of the third-order flow by the marches ``study``
    (``study_solvers``): the reference first, then one march per dt."""
    if len(study) < 4:  # a slope needs three errors, each against the reference
        raise ValueError("need the reference and at least three dt values")
    ref, *finals = (integrate(flows.FlowKind("third_order_bo"), f0, cfg).final() for cfg in study)
    scale = np.max(np.abs(ref.values)) + 1e-300
    dts = tuple(cfg.dt for cfg in study[1:])
    errors = tuple(float(np.max(np.abs(fin.values - ref.values))) for fin in finals)
    errors_arr = np.asarray(errors)
    if np.all(errors_arr < 1e-12 * scale):
        return ConvergenceResult(math.inf, dts, errors)
    if np.any(np.diff(errors_arr) <= 0.0):
        return ConvergenceResult(math.nan, dts, errors)
    return ConvergenceResult(loglog_slope(dts, errors_arr), dts, errors)
