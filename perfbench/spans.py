"""Spans and exact counts at bo3's layer boundaries, hooked from outside.

Tracing wraps public names as each caller's module sees them (for example
``bo3.experiments.integrate`` for the experiment bodies and
``bo3.stepper.integrate`` for ``convergence_order`` and the normal form).
Nothing in the package is edited; ``Hooks.uninstall`` puts every original
object back.  A hooked name that no longer exists raises ``HookError`` so a
traced run fails instead of reporting zero for a layer it cannot see.

A span's self time is its duration minus the durations of the spans nested
directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

from workloads import planned_steps

FFT_NAMES = ("fft", "ifft", "rfft", "irfft")
RHS_NAMES = (
    "flows.nonlinear_spectrum",
    "experiments.tbo_rhs",
    "experiments.linearized_tbo_rhs",
    "experiments.adjoint_linearized_rhs",
    "normalform.tbo_rhs",
)
STEP_NAMES = ("stepper.integrate", "stepper.integrate_linearized_pair",
              "experiments.integrate", "experiments.integrate_linearized_pair")

# (module, attribute, layer): the public name as the calling module sees it.
_HOOK_TARGETS = (
    ("bo3.experiments", "run_experiment", "experiments"),
    ("bo3.experiments", "integrate", "stepper"),
    ("bo3.experiments", "integrate_linearized_pair", "stepper"),
    ("bo3.experiments", "convergence_order", "stepper"),
    ("bo3.stepper", "integrate", "stepper"),
    ("bo3.stepper", "integrate_linearized_pair", "stepper"),
    ("bo3.flows", "nonlinear_spectrum", "flows"),
    ("bo3.flows", "spectral_tail_fraction", "emit"),
    ("bo3.experiments", "tbo_rhs", "flows"),
    ("bo3.experiments", "linearized_tbo_rhs", "flows"),
    ("bo3.experiments", "adjoint_linearized_rhs", "flows"),
    ("bo3.normalform", "tbo_rhs", "flows"),
    ("bo3.invariants", "track", "invariants"),
    ("bo3.invariants", "track_pair", "invariants"),
    ("bo3.invariants", "l_vector_field", "invariants"),
    ("bo3.invariants", "l_nonlinear", "invariants"),
    ("bo3.snapshots", "write_csv", "snapshots"),
    ("bo3.plotting", "line_plot_svg", "plotting"),
    ("bo3.normalform", "cubic_scaling_test", "normalform"),
    ("bo3.normalform", "band_transform", "normalform"),
    ("bo3.normalform", "bk", "normalform"),
    ("bo3.dispersion", "airy_decay_fit", "dispersion"),
    ("bo3.dispersion", "bilinear_strichartz_ratio", "dispersion"),
    ("bo3.dispersion", "decay_weights", "dispersion"),
) + tuple(("numpy.fft", name, "spectral") for name in FFT_NAMES)

# (module, attribute, layer, span name)
HOOKS = tuple(
    (module, attr, layer, f"{'numpy.fft' if module == 'numpy.fft' else module.split('.')[-1]}.{attr}")
    for module, attr, layer in _HOOK_TARGETS
)

# The per-layer metrics a traced workload call yields, with their units.
LAYER_METRICS = {
    "flows.rhs_calls": "count",
    "flows.rhs_s": "s",
    "flows.us_per_rhs": "us",
    "spectral.fft_calls": "count",
    "spectral.fft_points": "count",
    "spectral.fft_s": "s",
    "spectral.from_spectrum_calls": "count",
    "spectral.from_spectrum_s": "s",
    "stepper.steps": "count",
    "stepper.self_s": "s",
    "stepper.emit_s": "s",
    "invariants.channel_evals": "count",
    "invariants.eval_s": "s",
    "snapshots.bytes_written": "bytes",
    "snapshots.write_s": "s",
    "experiments.self_s": "s",
}
EXACT_COUNTS = tuple(k for k, unit in LAYER_METRICS.items() if unit in ("count", "bytes"))


class HookError(RuntimeError):
    """A name the tracer must hook does not exist."""


def fft_points(name: str, args, kwargs) -> int:
    """Transform length times batch size of one numpy.fft call."""
    a = args[0]
    n = args[1] if len(args) > 1 else kwargs.get("n")
    axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
    shape = a.shape
    m = shape[axis]
    batch = a.size // m if m else 0
    if n is None:
        n = 2 * (m - 1) if name == "irfft" else m
    return int(n) * batch


class Tracer:
    """In-memory span stack with per-name totals and exact counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # [name, layer, start, child_time]
        # name -> calls, inclusive, self, outermost-in-layer, directly under stepper
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self.step_depth = 0

    def enter(self, name: str, layer: str) -> None:
        self.stack.append([name, layer, self.clock(), 0.0])

    def exit(self) -> None:
        name, layer, start, child = self.stack.pop()
        dur = self.clock() - start
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if all(frame[1] != layer for frame in self.stack):
            st[3] += dur
        if self.stack:
            parent = self.stack[-1]
            parent[3] += dur
            if parent[1] == "stepper":
                st[4] += dur

    def metrics(self) -> dict:
        s = self.stats
        c = self.counts
        fft = [f"numpy.fft.{n}" for n in FFT_NAMES]

        def total(names, col):
            return sum(s[n][col] for n in names if n in s)

        rhs_calls = total(RHS_NAMES, 0)
        rhs_s = total(RHS_NAMES, 1)

        def layer_names(layer):
            return [name for _mod, _attr, lay, name in HOOKS if lay == layer]

        return {
            "flows.rhs_calls": rhs_calls,
            "flows.rhs_s": rhs_s,
            "flows.us_per_rhs": 1e6 * rhs_s / rhs_calls if rhs_calls else 0.0,
            "spectral.fft_calls": c["fft_calls"],
            "spectral.fft_points": c["fft_points"],
            "spectral.fft_s": total(fft, 1),
            "spectral.from_spectrum_calls": total(["RealField.from_spectrum"], 0),
            "spectral.from_spectrum_s": total(["RealField.from_spectrum"], 1),
            "stepper.steps": c["steps"],
            "stepper.self_s": total(layer_names("stepper"), 2),
            "stepper.emit_s": total(["RealField.from_spectrum", "flows.spectral_tail_fraction"], 4),
            "invariants.channel_evals": c["channel_evals"],
            "invariants.eval_s": total(layer_names("invariants"), 3),
            "snapshots.bytes_written": c["bytes_written"],
            "snapshots.write_s": total(["snapshots.write_csv"], 1),
            "experiments.self_s": total(["experiments.run_experiment"], 2),
        }

    def table(self) -> dict:
        """Every span name with calls, inclusive and self seconds."""
        return {name: {"calls": st[0], "incl_s": st[1], "self_s": st[2]}
                for name, st in sorted(self.stats.items())}


def _count(tracer: Tracer, name: str, args, kwargs) -> None:
    """Exact counters derived from a call's arguments."""
    attr = name.rsplit(".", 1)[-1]
    if name.startswith("numpy.fft."):
        tracer.counts["fft_calls"] += 1
        tracer.counts["fft_points"] += fft_points(attr, args, kwargs)
    elif name in STEP_NAMES:
        if tracer.step_depth == 0:
            config = kwargs.get("config", args[2] if len(args) > 2 else None)
            kind = args[0] if attr == "integrate" else None
            if kind is None or kind.tag != "airy":
                tracer.counts["steps"] += planned_steps(config.t_end, config.dt)
    elif attr == "track":
        tracer.counts["channel_evals"] += len(args[0].frames) * len(args[1])
    elif attr == "track_pair":
        tracer.counts["channel_evals"] += len(args[0].frames) * len(args[2])


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    is_step = name in STEP_NAMES
    is_csv = name == "snapshots.write_csv"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _count(tracer, name, args, kwargs)
        if is_step:
            tracer.step_depth += 1
        tracer.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
            if is_step:
                tracer.step_depth -= 1
        if is_csv:
            path = kwargs["path"] if "path" in kwargs else args[0]
            tracer.counts["bytes_written"] += os.path.getsize(path)
        return result

    return wrapper


class Hooks:
    """Installs the tracer's wrappers and restores the originals."""

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self.saved = []

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("hooks already installed")
        targets = []
        for module, attr, layer, name in self.hooks:
            mod = importlib.import_module(module)
            if not hasattr(mod, attr):
                raise HookError(f"cannot trace {module}.{attr}: no such name")
            targets.append((mod, attr, layer, name))
        from bo3.spectral import RealField

        if "from_spectrum" not in vars(RealField):
            raise HookError("cannot trace bo3.spectral.RealField.from_spectrum: no such name")
        for mod, attr, layer, name in targets:
            orig = getattr(mod, attr)
            self.saved.append((mod, attr, orig))
            setattr(mod, attr, _wrap(self.tracer, orig, name, layer))
        orig_cm = vars(RealField)["from_spectrum"]
        wrapped = _wrap(self.tracer, orig_cm.__func__, "RealField.from_spectrum", "spectral")
        self.saved.append((RealField, "from_spectrum", orig_cm))
        RealField.from_spectrum = classmethod(wrapped)

    def uninstall(self) -> None:
        while self.saved:
            obj, attr, orig = self.saved.pop()
            setattr(obj, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
