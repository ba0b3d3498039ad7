"""Canonical experiment suites with deterministic artifacts.

Each experiment maps one verifiable claim about the flows to a concrete
measurement: its body writes CSV tables and returns ``(metrics, outputs)``.
``run_experiment`` judges the metrics against the specs in ``TOLERANCES`` and
writes a JSON manifest (config echo, build version, warnings, verdicts,
metrics and the check behind each verdict, or the error that ended the body).
Given the same config and seed the CSV outputs are byte-identical.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import math
import subprocess
import typing
import warnings as _warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dispersion, invariants, normalform, plotting, profiles, snapshots
from .flows import (FlowKind, adjoint_linearized_rhs, airy_propagate, linearized_tbo_rhs,
                    tbo_rhs)
from .invariants import l2_norm
from .spectral import RealField, make_grid, project_band, sobolev_norm
from .spectral import envelope as spectral_envelope
from .stepper import (FRAME_BLOCK, BlowUpError, SolverConfig, _check_fields, _snapshot_plan,
                      final_only, integrate, integrate_linearized_pair, convergence_order,
                      study_solvers)

__all__ = [
    "ConfigError",
    "GridParams",
    "Experiment",
    "March",
    "ExperimentConfig",
    "ExperimentResult",
    "Check",
    "EXPERIMENTS",
    "TOLERANCES",
    "MEMORY_BUDGET",
    "WORK_BUDGET",
    "judge",
    "config_from_dict",
    "config_to_dict",
    "apply_override",
    "validate_config",
    "run_experiment",
    "build_version",
]


class ConfigError(ValueError):
    """Malformed experiment configuration."""


# ---------------------------------------------------------------------------
# Config sections.  ``grid`` and ``solver`` (``stepper.SolverConfig``) are
# shared; each experiment reads its initial data through one of the ``data``
# classes, whose profile is a class constant.  conserve and normalform_scaling
# read the one measurement setting they leave open through an ``analysis``
# class; their other settings are class constants there, and those of the
# other experiments are module constants next to TOLERANCES.  A field declares
# its range in its metadata, and ``stepper._check_fields`` checks it with the
# field's type.


@dataclass
class GridParams:
    n: int = 1024
    length: float = 256.0 * math.pi


@dataclass
class ShapeData:
    """Seeded random data of ``bandlimit`` at amplitude 1 (normalform_scaling sweeps it)."""
    bandlimit: float = 1.0
    # class constants, not fields
    profile = "random_bandlimited"
    amplitude = 1.0

    def build(self, grid, seed) -> RealField:
        return profiles.make_profile(self.profile, grid, amplitude=self.amplitude,
                                     bandlimit=self.bandlimit, seed=seed)


@dataclass
class ProfileData:
    """A Gaussian bump of ``width`` and ``bandlimit`` at ``amplitude``, centred at
    x = 0, the origin of every x-weighted measurement."""
    width: float = 4.0
    bandlimit: float = 1.0
    amplitude: float = 0.05
    profile = "gaussian_bump"  # a class constant, not a field

    def build(self, grid, seed) -> RealField:
        return profiles.make_profile(self.profile, grid, amplitude=self.amplitude,
                                     width=self.width, bandlimit=self.bandlimit, seed=seed)


@dataclass
class AiryData(ProfileData):
    """The wave packet of linear decay (``profiles.airy_packet``) at ``amplitude``."""
    profile = "airy_packet"


@dataclass
class PairData(ProfileData):
    """The data (phi0, v0) of the pair (phi, v): the profile, and v0 random of its size and band."""

    def build(self, grid, seed) -> tuple:
        phi0 = super().build(grid, seed)
        return phi0, profiles.make_profile("random_bandlimited", grid, amplitude=self.amplitude,
                                           bandlimit=self.bandlimit, seed=seed + 1)


@dataclass
class DualityData(PairData):
    """The pair's data (phi0, v0), then the fields v_0 .. v_19, w_0 .. w_19 of the
    duality test: random, of the data's amplitude, band 2.0."""

    def build(self, grid, seed) -> tuple:
        pair = super().build(grid, seed)
        try:
            fields = tuple(profiles.make_profile("random_bandlimited", grid,
                                                 amplitude=self.amplitude, bandlimit=2.0,
                                                 seed=seed + offset + trial)
                           for offset in (100, 200) for trial in range(20))
        except ValueError as exc:
            raise ValueError(f"the duality fields (bandlimit 2.0): {exc}") from None
        return (*pair, *fields)


@dataclass
class WindowedData(ShapeData):
    """Two fields of the random data (seeds seed, seed + 1) under a centred
    Gaussian window, made mean-free."""

    def build(self, grid, seed) -> tuple:
        envelope = np.exp(-((grid.x / (grid.length / 16.0)) ** 2))

        def windowed(seed):
            base = ShapeData.build(self, grid, seed).values
            return RealField(grid, envelope * base - np.mean(envelope * base))

        return windowed(seed), windowed(seed + 1)


@dataclass
class ConserveAnalysis:
    """The horizon of the convergence study; its steps, grid and data are fixed."""
    conv_t_end: float = field(default=0.5, metadata={"range": "positive"})
    # class constants, not fields
    conv_dts = (4e-3, 2e-3, 1e-3)
    conv_n = 128
    conv_length = 16.0 * math.pi
    conv_amplitude = 0.5


@dataclass
class NormalformAnalysis:
    """The time of the normal-form probe; its bands, amplitudes and step are fixed."""
    t_probe: float = field(default=0.1, metadata={"range": "nonnegative"})
    # class constants, not fields
    bands = (1, 2)
    amplitudes = (0.01, 0.02, 0.04, 0.08)
    residual_dt = 1e-3


@dataclass
class ExperimentConfig:
    """One experiment's settings.  ``data``, ``solver`` and ``analysis`` have the classes
    of the experiment's record in ``EXPERIMENTS``; a section it does not read is None."""
    experiment: str
    grid: GridParams
    data: object
    solver: SolverConfig | None
    analysis: object
    seed: int = field(default=0, metadata={"range": "nonnegative"})


# One judged verdict: ``margin`` is the signed distance of the metric's ``value``
# to ``bound`` under ``test``, >= 0 exactly when the verdict passed.
Check = collections.namedtuple("Check", "passed value bound margin metric test")


@dataclass
class ExperimentResult:
    """The record of one started run: its ``exit_code`` and ``manifest`` say how it ended."""
    name: str
    config: dict  # config_to_dict echo
    checks: dict  # verdict name -> Check
    metrics: dict
    warnings: list
    outputs: list  # the files the body wrote as its results
    error: Exception | None = None  # what ended the body; then no checks and no outputs

    @property
    def verdicts(self) -> dict:
        return {name: c.passed for name, c in self.checks.items()}

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    @property
    def exit_code(self) -> int:
        if self.error is not None:
            return 4
        if not self.passed:
            return 1
        return 2 if self.warnings else 0

    def manifest(self) -> dict:
        def number(v):  # JSON has no NaN or infinity
            return None if isinstance(v, float) and not math.isfinite(v) else v

        manifest = {
            "experiment": self.name,
            "config": self.config,
            "version": build_version(),
            "verdicts": self.verdicts,
            "metrics": {k: number(v) for k, v in self.metrics.items()},
            "checks": {name: {"metric": c.metric, "test": c.test, "bound": c.bound,
                              "value": number(c.value), "margin": number(c.margin)}
                       for name, c in self.checks.items()},
            "warnings": self.warnings,
            "outputs": [Path(p).name for p in self.outputs],
        }
        if self.error is not None:
            manifest["error"] = {"type": type(self.error).__name__, "message": str(self.error)}
        return manifest


# Every machine-checked verdict as (metric, test, bound).  A test is "<=" or
# ">=" a number, "in" a closed interval (lo, hi), or "near" a target within a
# tolerance (target, tol).  A band metric "<metric>_k<k>" gives the verdict
# "<name>_k<k>".  The bounds are fixed here, not configurable, so that a
# pass/fail is comparable across runs.
TOLERANCES = {
    "e0_drift": ("e0_drift", "<=", 1e-8),
    "e1_drift": ("e1_drift", "<=", 1e-6),
    "e2_drift": ("e2_drift", "<=", 1e-6),
    "convergence_order": ("convergence_order", "in", (3.8, 4.2)),
    "scaling_agreement": ("scaling_agreement", "<=", 1e-8),
    "airy_decay_slope": ("airy_decay_slope", "near", ((-1.0 / 3.0), 0.02)),
    "l_vf_conservation": ("l_vf_deviation", "<=", 1e-6),
    "strichartz_spread": ("strichartz_spread", "<=", 10.0),
    "raw_slope": ("raw_slope", "near", (2.0, 0.2)),
    "gauged_slope": ("gauged_slope", "near", (3.0, 0.3)),
    # quantified form of "the quadratic terms are removed"
    "slope_separation": ("slope_separation", ">=", 0.7),
    "gauge_unitarity": ("gauge_unitarity", "<=", 1e-12),
    # "uniform constant" means one C bounds 2^(k/2)||B_k|| / (||phi|| c_k)
    # across the whole dyadic ladder
    "bk_constant_max": ("bk_constant_max", "<=", 0.3),
    "duality_pairing": ("duality_pairing", "<=", 1e-9),
    "gateaux_relative": ("gateaux_relative", "<=", 1e-6),
    "growth_rate_cap": ("growth_rate", "<=", 1.0),
    "y_drift_over_eps": ("y_drift_over_eps", "<=", 1.0),
    "cubic_energy_bound": ("cubic_energy_bound", "<=", 10.0),
    "decay_phi_over_eps": ("decay_phi_over_eps", "<=", 6.0),
    "decay_phix_over_eps": ("decay_phix_over_eps", "<=", 6.0),
    "elliptic_log_over_eps": ("elliptic_log_over_eps", "<=", 6.0),
    "lnl_half_over_eps": ("lnl_half_over_eps", "<=", 20.0),
}

# What each experiment measures is fixed for the same reason: the band
# ladder, the fit windows, delta, c, lambda and the amplitude sweep.  Those of
# conserve and normalform_scaling are class constants of ConserveAnalysis and
# NormalformAnalysis; these are the others.
SCALE_FACTOR = 2.0  # scaling: lambda of the rescaled run
AIRY_FIT = (1.0, 100.0, 40)  # airy_decay: the sup fitted at 40 log-spaced t in [1, 100]
AIRY_VF = (20.0, 9)  # airy_decay: the vector-field norm at 9 t in [0, 20]
STRICHARTZ_J = 2  # strichartz: band j against each band k, then the halves of the middle k
STRICHARTZ_K = (5, 6, 7, 8, 9, 10)
STRICHARTZ_WINDOW = 0.125  # a pair (j, k) is sampled over t in [0, 0.125 L 4**-max(j, k)]
STRICHARTZ_SAMPLES = 64  # at this many times
DECAY_DELTA = 0.05  # decay_profile: the paper's small exponent delta
DECAY_C_REGION = 1.0  # the c of the regions' edge |x| = c t^(1/3)
DECAY_T_LO = 1.0  # the first time whose frame is judged

# Signed distance of a value v to a bound b, >= 0 exactly when v passes; a NaN
# value gives a NaN margin and fails every test.
_MARGINS = {
    "<=": lambda v, b: b - v,
    ">=": lambda v, b: v - b,
    "in": lambda v, b: min(v - b[0], b[1] - v),
    "near": lambda v, b: b[1] - abs(v - b[0]),
}


def judge(metrics: dict, specs=TOLERANCES) -> dict:
    """Map a metrics dict to ``{verdict: Check}`` for every metric a spec names."""
    by_metric = {metric: (name, test, bound) for name, (metric, test, bound) in specs.items()}
    checks = {}
    for key, value in metrics.items():
        base, _, band = key.rpartition("_k")
        if band.isdigit() and base in by_metric:
            name, test, bound = by_metric[base]
            name = f"{name}_k{band}"
        elif key in by_metric:
            name, test, bound = by_metric[key]
        else:
            continue
        margin = _MARGINS[test](value, bound)
        checks[name] = Check(bool(margin >= 0), value, bound, margin, key, test)
    return checks


# ---------------------------------------------------------------------------
# Config plumbing


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The config as JSON data, without the sections its experiment does not read."""
    return {k: v for k, v in dataclasses.asdict(cfg).items() if v is not None}


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build a config with the section classes of its experiment's record: a
    missing section takes its defaults, and a field the experiment does not
    read is a ConfigError that names both."""
    if not isinstance(d, dict):
        raise ConfigError("config must be a JSON object")
    d = dict(d)
    name = d.pop("experiment", None)
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(f"'experiment' must be one of {sorted(EXPERIMENTS)}, got {name!r}")

    def build(key, cls):
        sub = d.pop(key, {})
        if not isinstance(sub, dict):
            raise ConfigError(f"{key!r} must be an object")
        known = [f.name for f in dataclasses.fields(cls)] if cls else []
        unread = [f"{key}.{k}" for k in sub if k not in known]
        if unread:
            raise ConfigError(f"{name} reads no {', '.join(unread)}")
        try:
            return cls(**sub) if cls else None
        except ValueError as exc:  # SolverConfig checks its fields as it is built
            raise ConfigError(f"{key}.{exc}") from None

    sections = {key: build(key, cls) for key, cls in EXPERIMENTS[name].sections().items()}
    extra = set(d) - {"seed"}
    if extra:
        raise ConfigError(f"unknown config fields: {sorted(extra)}")
    return ExperimentConfig(experiment=name, seed=d.get("seed", 0), **sections)


def apply_override(cfg: ExperimentConfig, assignment: str) -> None:
    """Apply one ``path=value`` override, coercing via JSON.  The path is a
    top-level field or ``section.field``; config_from_dict rebuilds the config,
    so a field the experiment does not read is an error there."""
    if "=" not in assignment:
        raise ConfigError(f"override must look like path=value, got {assignment!r}")
    path, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    d = config_to_dict(cfg)
    section, _, leaf = path.rpartition(".")
    target = d.setdefault(section, {}) if section else d
    if not isinstance(target, dict):
        raise ConfigError(f"{cfg.experiment} reads no {path}")
    target[leaf] = value
    vars(cfg).update(vars(config_from_dict(d)))


def _check_data(data) -> None:
    """Raise ValueError unless each field of the data (one or a tuple) has a sum of
    squares, taken over its peak, of at least the smallest normal float: every quadratic
    quantity of other data is zero or underflows, so no verdict would measure anything."""
    for f in data if isinstance(data, tuple) else (data,):
        peak = float(np.max(np.abs(f.values)))
        if peak == 0.0:
            raise ValueError("the data are all zero")
        if np.sum((f.values / peak) ** 2) < np.finfo(float).tiny / peak / peak:
            raise ValueError("the data's sum of squares underflows")


# The most memory a run may ask for, in bytes as ``_run_bytes`` estimates them,
# and the most work, in point-steps: steps x stacked rows x n, summed over the
# run's marches.  The canonical runs plan at most 10 864 000 (conserve's).
MEMORY_BUDGET = 2**30
WORK_BUDGET = 10**10


class March(collections.namedtuple("March", "n length solver steps h rows streams")):
    """One march of a run by the settings ``solver`` on n points of a domain of ``length``:
    ``steps`` steps of width ``h`` (``stepper._snapshot_plan``) of ``rows`` stacked half
    spectra, keeping ``frames``, all held at once unless it ``streams`` them block by block."""

    @classmethod
    def of(cls, grid, sol, rows=1, streams=False) -> "March":
        return cls(grid.n, grid.length, sol, *_snapshot_plan(sol.t_end, sol.dt), rows, streams)

    dt = property(lambda m: m.solver.dt)
    frames = property(lambda m: 1 + math.ceil(m.steps / m.solver.snapshot_stride))
    held = property(lambda m: min(m.frames, FRAME_BLOCK) if m.streams else m.frames)
    work = property(lambda m: float(m.steps) * m.rows * m.n)  # point-steps


def _plan(cfg: ExperimentConfig) -> list:
    """The run's marches; ConfigError for one it cannot count or take, or of no step."""
    try:
        marches = EXPERIMENTS[cfg.experiment].plan(cfg)
    except OverflowError:  # t_end / dt beyond the floats
        raise ConfigError(f"{cfg.experiment} plans more steps than a float can count") from None
    except ValueError as exc:  # a step the solver refuses
        raise ConfigError(f"{cfg.experiment} cannot plan its marches: {exc}") from None
    for i, m in enumerate(marches):
        # on a march of no step the verdicts would judge the initial data alone; its
        # horizon is 0, and solver.t_end sets each horizon that can be 0
        if m.steps == 0:
            raise ConfigError(f"{cfg.experiment} plans a march of no step (march {i + 1} of "
                              f"{len(marches)}, n = {m.n}) at solver.t_end={cfg.solver.t_end!r}")
    return marches


def _run_bytes(cfg: ExperimentConfig, marches) -> float:
    """Estimated bytes of a run's largest arrays, in floats: 24 B a point of each
    grid size (``grid.n`` and the marches'), 16 B a mode of each half spectrum a
    march holds at once, and for a march that streams, the energy tracker's
    working set on one block (``invariants.track_bytes``) and 48 B a frame of
    reduced values: the time and five channels."""
    total = 24.0 * sum({cfg.grid.n, *(m.n for m in marches)})
    for m in marches:
        total += float(m.held) * m.rows * (m.n // 2 + 1) * 16.0
        if m.streams:
            total += invariants.track_bytes(m.n, m.held) + 48.0 * m.frames
    return total


def validate_config(cfg: ExperimentConfig):
    """Check every precondition knowable before any compute starts, by the same steps
    for every experiment: each section's field types and ranges, the plan (each march
    takes a step; the run fits the memory and work budgets), the grid, the data and
    the record's ``check``.  Returns the data and the plan it checked, which the body runs."""
    record = EXPERIMENTS[cfg.experiment]
    _check_fields("", cfg, ["seed"], ConfigError)
    for key, cls in record.sections().items():
        if cls is not None:
            _check_fields(f"{key}.", getattr(cfg, key), error=ConfigError)
    marches = _plan(cfg)
    need = _run_bytes(cfg, marches)
    if need > MEMORY_BUDGET:
        raise ConfigError(f"the run needs about {need / 2**30:.3g} GiB, over the "
                          f"{MEMORY_BUDGET / 2**30:g} GiB of experiments.MEMORY_BUDGET")
    work = sum(m.work for m in marches)
    if work > WORK_BUDGET:
        big = max(marches, key=lambda m: m.work)
        raise ConfigError(f"the run plans {work:.3g} point-steps (steps x rows x n), over the "
                          f"{WORK_BUDGET:.3g} of experiments.WORK_BUDGET; its largest march "
                          f"takes {float(big.steps):.3g} steps at n = {big.n}, dt = {big.dt:.3g}")
    shown = f"grid.n={cfg.grid.n!r}, grid.length={cfg.grid.length!r}"
    try:
        grid = make_grid(cfg.grid.n, cfg.grid.length)
    except ValueError as exc:  # a GridError, or NumPy refusing an array of n points
        raise ConfigError(f"{shown}: {exc}") from None
    try:
        data = cfg.data.build(grid, cfg.seed)
        _check_data(data)
        record.check(cfg, grid, data)
    except (ValueError, OverflowError) as exc:  # also a BandError or a GridError
        shown += "".join(f", data.{k}={v!r}" for k, v in dataclasses.asdict(cfg.data).items())
        raise ConfigError(f"{shown}: {exc}") from None
    return data, marches


@functools.cache
def build_version() -> str:
    """Package version plus ``git describe`` of the source tree, computed
    once per process."""
    here = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, cwd=here, timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"bo3-0.1.0+{out.stdout.strip()}"
    except Exception:
        pass
    return "bo3-0.1.0"


# ---------------------------------------------------------------------------
# Experiment bodies.  Each measures the data validate_config built, by the
# marches of the plan it returned, each on its march's grid and by its solver;
# it writes its tables into out_dir and returns (metrics, outputs).
# run_experiment judges the metrics against TOLERANCES and handles warning
# capture and the manifest.


def _exp_conserve(cfg, data, marches, out_dir):
    # the energies are taken block by block as the march goes, so the run
    # never holds more than one block of frames
    blocks = integrate(FlowKind("third_order_bo"), data, marches[0].solver,
                       reduce=lambda block: invariants.track(block, invariants.CHANNELS))
    series = invariants.EnergySeries.join(blocks)
    csv = out_dir / "energies.csv"
    snapshots.write_csv(csv, series.to_rows())
    metrics = {f"{name.lower()}_drift": series.drift(name) for name in ("E0", "E1", "E2")}

    f0 = profiles.make_profile("random_bandlimited", make_grid(marches[1].n, marches[1].length),
                               amplitude=cfg.analysis.conv_amplitude, bandlimit=2.0, seed=cfg.seed)
    conv = convergence_order(f0, [m.solver for m in marches[1:]])
    snapshots.write_csv(out_dir / "convergence.csv",
                        [["dt", "error"]] + [[d, e] for d, e in zip(conv.dts, conv.errors)])
    metrics["convergence_order"] = conv.order
    svg = out_dir / "energies.svg"
    drift_series = []
    for name in ("E0", "E1", "E2"):
        vals = series.channels[name]
        drift_series.append((name, series.times[1:],
                             np.abs(vals[1:] - vals[0]) / (abs(vals[0]) + 1e-300) + 1e-18))
    plotting.line_plot_svg(drift_series, svg, xlabel="t", ylabel="relative drift",
                           loglog=False, title="energy drift")
    return metrics, [csv, out_dir / "convergence.csv", svg]


def _rescaled(grid, solver) -> March:
    """The march of the run on ``grid`` by ``solver``, rescaled by ``SCALE_FACTOR``."""
    lam = SCALE_FACTOR  # the domain shrinks by lam and the times by lam**3
    return March.of(GridParams(grid.n, grid.length / lam),
                    dataclasses.replace(solver, dt=solver.dt / lam**3, t_end=solver.t_end / lam**3))


def _exp_scaling(cfg, data, marches, out_dir):
    lam = SCALE_FACTOR
    run, rescaled = marches
    base = integrate(FlowKind("third_order_bo"), data, run.solver)
    scaled = integrate(FlowKind("third_order_bo"),
                       RealField(make_grid(rescaled.n, rescaled.length), lam * data.values),
                       rescaled.solver)

    devs = []
    for (t1, f1), (t2, f2) in zip(base.frames, scaled.frames):
        ref = np.max(np.abs(lam * f1.values)) + 1e-300
        devs.append(float(np.max(np.abs(f2.values - lam * f1.values)) / ref))
    csv = out_dir / "scaling.csv"
    snapshots.write_csv(csv, [["t", "pointwise_deviation"]]
                        + [[t, d] for t, d in zip(base.times, devs)])
    return {"scaling_agreement": max(devs)}, [csv]


def _exp_airy_decay(cfg, data, marches, out_dir):
    slope, ts, sups = dispersion.airy_decay_fit(data, np.geomspace(*AIRY_FIT))
    csv = out_dir / "airy_decay.csv"
    snapshots.write_csv(csv, [["t", "sup_abs"]] + [[t, s] for t, s in zip(ts, sups)])
    svg = out_dir / "airy_decay.svg"
    guide = sups[0] * (ts / ts[0]) ** (-1.0 / 3.0)
    plotting.line_plot_svg(
        [("sup |phi|", ts, sups), ("t^(-1/3) guide", ts, guide)], svg,
        xlabel="t", ylabel="sup", loglog=True, title="free-flow decay",
        annotate=f"fitted slope {slope:.4f}")

    # conservation of the vector-field norm while the support stays interior
    ref = l2_norm(invariants.l_vector_field(data, 0.0))
    scale = ref if ref != 0.0 else 1.0  # x phi underflows on a tiny domain: absolute deviation
    vf_dev = 0.0
    vf_rows = [["t", "l_vf_norm"]]
    for t in np.linspace(0.0, *AIRY_VF):
        u = airy_propagate(data, float(t))
        val = l2_norm(invariants.l_vector_field(u, float(t)))
        vf_rows.append([float(t), val])
        vf_dev = max(vf_dev, abs(val - ref) / scale)
    vf_csv = out_dir / "vector_field_norm.csv"
    snapshots.write_csv(vf_csv, vf_rows)

    return {"airy_decay_slope": slope, "l_vf_deviation": vf_dev}, [csv, vf_csv, svg]


def _exp_strichartz(cfg, data, marches, out_dir):
    f, g = data
    j, ks = STRICHARTZ_J, STRICHARTZ_K
    k_eq = ks[len(ks) // 2]
    rows = [["j", "k", "halves", "t_end", "ratio"]]
    # band j against each band k, then the two halves of the middle band
    for a, b, halves in [(j, k, ("both", "both")) for k in ks] + [(k_eq, k_eq, ("plus", "minus"))]:
        t_end = STRICHARTZ_WINDOW * f.grid.length * 4.0 ** (-max(a, b))
        r = dispersion.bilinear_strichartz_ratio(a, b, f, g, t_end, halves=halves,
                                                 samples=STRICHARTZ_SAMPLES)
        rows.append([a, b, "/".join(halves), t_end, r])
    ratios = [row[-1] for row in rows[1:]]
    csv = out_dir / "strichartz.csv"
    snapshots.write_csv(csv, rows)
    return {"strichartz_spread": max(ratios) / min(ratios),
            "ratio_min": min(ratios), "ratio_max": max(ratios)}, [csv]


def _exp_normalform(cfg, profile, marches, out_dir):
    ana = cfg.analysis
    rows = [["epsilon", "k", "t", "residual_raw", "residual_gauged"]]
    metrics = {}
    probe = marches[0].solver if marches else None  # every probe marches alike
    for k in ana.bands:
        res = normalform.cubic_scaling_test(profile, ana.amplitudes, k, probe)
        for e, r, gv in zip(res.amplitudes, res.raw, res.gauged):
            rows.append([e, k, ana.t_probe, r, gv])
        metrics[f"raw_slope_k{k}"] = res.slope_raw
        metrics[f"gauged_slope_k{k}"] = res.slope_gauged
        metrics[f"slope_separation_k{k}"] = res.slope_gauged - res.slope_raw
    csv = out_dir / "residuals.csv"
    snapshots.write_csv(csv, rows)
    svg = out_dir / "residuals.svg"
    eps = list(ana.amplitudes)
    series = [(f"{label} k={k}", eps, [r[col] for r in rows[1:] if r[1] == k])
              for k in ana.bands for label, col in (("raw", 3), ("gauged", 4))]
    guide = [("slope 2 guide", eps, [rows[1][3] * (e / eps[0]) ** 2 for e in eps]),
             ("slope 3 guide", eps, [rows[1][4] * (e / eps[0]) ** 3 for e in eps])]
    plotting.line_plot_svg(
        series + guide, svg, xlabel="amplitude", ylabel="residual", loglog=True,
        title="band residual scaling",
        annotate=", ".join(f"k={k}: {metrics[f'raw_slope_k{k}']:.2f}/"
                           f"{metrics[f'gauged_slope_k{k}']:.2f}" for k in ana.bands),
    )

    # gauge unitarity on the largest-amplitude data
    state = RealField(profile.grid, ana.amplitudes[-1] * profile.values)
    tr = normalform.band_transform(state, ana.bands[0])
    uni = abs(l2_norm(tr.psi) - l2_norm(tr.tilde_phi)) / max(l2_norm(tr.tilde_phi), 1e-300)
    metrics["gauge_unitarity"] = uni

    # size constant of the band form across a deep dyadic ladder, normalized
    # by the minimal frequency envelope so the data's spectral shape divides out
    wide = make_grid(1024, 2.0 * math.pi)
    rich = profiles.make_profile("random_bandlimited", wide, amplitude=1.0,
                                 bandlimit=300.0, seed=cfg.seed + 7)
    env = spectral_envelope(rich, delta=0.25)
    consts = []
    for k in range(1, 9):
        b = normalform.bk(rich, k)
        consts.append(l2_norm(b) * 2.0 ** (0.5 * k) / (l2_norm(rich) * env.c[k]))
    const_rows = [["k", "normalized_size"]] + [[k + 1, c] for k, c in enumerate(consts)]
    const_csv = out_dir / "bk_constants.csv"
    snapshots.write_csv(const_csv, const_rows)
    # the spread across the ladder is reported, not judged
    metrics["bk_constant_max"] = float(max(consts))
    metrics["bk_constant_spread"] = float(max(consts) / min(consts))
    return metrics, [csv, const_csv, svg]


def _pairing(a: RealField, b: RealField) -> float:
    return float(a.grid.spacing * np.sum(a.values * b.values))


def _exp_linearized(cfg, data, marches, out_dir):
    phi0, v0, *fields = data
    phi_traj, v_traj = integrate_linearized_pair(phi0, v0, marches[0].solver)
    grid = phi0.grid

    # instantaneous duality of the linearized and adjoint right-hand sides
    duality = 0.0
    for v, w in zip(fields[:20], fields[20:]):
        lv = linearized_tbo_rhs(v, phi0)
        aw = adjoint_linearized_rhs(w, phi0)
        defect = abs(_pairing(lv, w) + _pairing(v, aw))
        scale = l2_norm(lv) * l2_norm(w) + l2_norm(v) * l2_norm(aw) + 1e-300
        duality = max(duality, defect / scale)

    # finite-difference directional derivative of the nonlinear flow
    h = 1e-5
    plus = RealField(grid, phi0.values + h * v0.values)
    minus = RealField(grid, phi0.values - h * v0.values)
    fd = (tbo_rhs(plus).values - tbo_rhs(minus).values) / (2.0 * h)
    lin = linearized_tbo_rhs(v0, phi0).values
    gateaux = float(np.max(np.abs(fd - lin)) / (np.max(np.abs(lin)) + 1e-300))

    series = invariants.track_pair(phi_traj, v_traj, ["v_l2"])
    growth = series.channels["v_l2"] / series.channels["v_l2"][0]
    c_max = float(np.max(growth))
    # growth starts at 1, so a rate <= K means c_max <= exp(K t_end)
    k_rate = math.log(max(c_max, 1.0)) / cfg.solver.t_end
    rows = [["t", "v_l2", "growth"]]
    for t, v, gr in zip(series.times, series.channels["v_l2"], growth):
        rows.append([t, v, gr])
    csv = out_dir / "linearized_growth.csv"
    snapshots.write_csv(csv, rows)

    return {"duality_pairing": duality, "gateaux_relative": gateaux,
            "growth_max": c_max, "growth_rate": k_rate}, [csv]


def _exp_lnl_conservation(cfg, data, marches, out_dir):
    phi_traj, v_traj = integrate_linearized_pair(*data, marches[0].solver)
    # eps is the size of the data: phi -> -phi is no symmetry of the flow, so a
    # negative amplitude is other data of the same size
    eps = abs(cfg.data.amplitude)
    series = invariants.track_pair(
        phi_traj, v_traj,
        ["y_l2", "modified_energy", "modified_energy_cubic"],
    )
    y = series.channels["y_l2"]
    y_drift = float(np.max(np.abs(y - y[0])) / y[0])
    c_y = y_drift / eps

    rows = [["t", "y_l2", "e_quad", "e_total", "e_cubic", "e_cubic_normalized"]]
    cubic_bound = 0.0
    for i, t in enumerate(series.times):
        equad = y[i] ** 2
        etot = series.channels["modified_energy"][i]
        ecub = series.channels["modified_energy_cubic"][i]
        norm = np.nan
        if t > 0.0 and np.isfinite(ecub):
            norm = abs(ecub) / (t ** (1.0 / 12.0) * eps * equad)
            cubic_bound = max(cubic_bound, norm)
        rows.append([t, y[i], equad, etot, ecub, norm])
    csv = out_dir / "almost_conservation.csv"
    snapshots.write_csv(csv, rows)

    return {"y_drift_over_eps": c_y, "cubic_energy_bound": cubic_bound}, [csv]


def _exp_decay_profile(cfg, data, marches, out_dir):
    # eps is the size of the data: phi -> -phi is no symmetry of the flow, so a
    # negative amplitude is other data of the same size
    eps = abs(cfg.data.amplitude)
    traj = integrate(FlowKind("third_order_bo"), data, marches[0].solver)
    frames = list(traj.frames)  # built once, read by both passes below
    report = dispersion.decay_weights(frames, delta=DECAY_DELTA, c_region=DECAY_C_REGION)
    cols = ["t", "region", "weighted_phi_sup", "weighted_phix_sup",
            "elliptic_phi_over_log", "elliptic_phix_over_log"]
    rows = [cols] + [[r[c] for c in cols] for r in report.rows]
    csv = out_dir / "decay_report.csv"
    snapshots.write_csv(csv, rows)
    svg = out_dir / "decay_report.svg"
    by_region = {}
    for r in report.rows:
        if not r["region"].endswith("+delta"):
            by_region.setdefault(r["region"], ([], []))
            by_region[r["region"]][0].append(r["t"])
            by_region[r["region"]][1].append(r["weighted_phi_sup"])
    plotting.line_plot_svg(
        [(reg, ts_, vs_) for reg, (ts_, vs_) in sorted(by_region.items())],
        svg, xlabel="t", ylabel="weighted sup", loglog=True,
        title="weighted amplitude channels")

    k_phi = k_phix = k_ell = 0.0
    lnl_max = 0.0
    for r in report.rows:
        if r["t"] < DECAY_T_LO or r["region"].endswith("+delta"):
            continue
        if r["region"] == "global":
            k_phi = max(k_phi, r["weighted_phi_sup"] / eps)
            k_phix = max(k_phix, r["weighted_phix_sup"] / eps)
        if r["region"] == "elliptic" and np.isfinite(r["elliptic_phi_over_log"]):
            k_ell = max(k_ell, r["elliptic_phi_over_log"] / eps,
                        r["elliptic_phix_over_log"] / eps)
    for t, fld in frames:
        if t >= DECAY_T_LO:
            val = sobolev_norm(invariants.l_nonlinear(fld, t), 0.5, homogeneous=True)
            lnl_max = max(lnl_max, val / eps)

    fit = {
        "exponents": report.exponents,
        "constants": {"weighted_phi": k_phi, "weighted_phix": k_phix,
                      "elliptic_log": k_ell, "lnl_half": lnl_max},
        "delta": DECAY_DELTA,
        "c_region": DECAY_C_REGION,
    }
    fit_path = out_dir / "decay_fit.json"
    fit_path.write_text(json.dumps(fit, indent=2) + "\n")

    metrics = {"decay_phi_over_eps": k_phi, "decay_phix_over_eps": k_phix,
               "elliptic_log_over_eps": k_ell, "lnl_half_over_eps": lnl_max}
    return metrics, [csv, fit_path, svg]


@dataclass(frozen=True)
class Experiment:
    """One experiment: its ``plan(cfg)``, the ``March`` of each march it takes, in order; its
    ``body(cfg, data, marches, out_dir)``, which runs that plan on the data; the classes of the
    ``data``, ``analysis`` and ``solver`` sections it reads (None: no such section); and its
    ``check(cfg, grid, data)``, a ValueError unless its fixed settings fit the rest."""
    body: typing.Callable
    data: type
    plan: typing.Callable
    analysis: type | None = None
    solver: type | None = SolverConfig
    check: typing.Callable = lambda cfg, grid, data: None

    def sections(self) -> dict:
        """The class of each section, None for a section the experiment does not read."""
        return {"grid": GridParams, "data": self.data, "solver": self.solver,
                "analysis": self.analysis}


def _plan_conserve(cfg):
    ana = cfg.analysis
    return [March.of(cfg.grid, cfg.solver, streams=True),
            *(March.of(GridParams(ana.conv_n, ana.conv_length), s)
              for s in study_solvers(ana.conv_t_end, ana.conv_dts))]


def _one_march(rows=1):
    return lambda cfg: [March.of(cfg.grid, cfg.solver, rows=rows)]


def _plan_probes(cfg):
    """One march to t_probe per band and amplitude; none at t_probe = 0."""
    ana = cfg.analysis
    probes = len(ana.bands) * len(ana.amplitudes) if ana.t_probe > 0.0 else 0
    return [March.of(cfg.grid, final_only(ana.residual_dt, ana.t_probe))] * probes


def _check_rescaled(cfg, grid, data):
    try:
        make_grid(*_rescaled(grid, cfg.solver)[:2])  # the march's n and length
    except ValueError as exc:  # a GridError
        raise ValueError(f"the run rescaled by {SCALE_FACTOR:g}: {exc}") from None


def _check_strichartz_bands(cfg, grid, data):
    """Each band holds some of each field (a BandError for a band the grid does not resolve)."""
    for k in (STRICHARTZ_J, *STRICHARTZ_K):
        if any(l2_norm(project_band(f, k)) == 0.0 for f in data):
            raise ValueError(f"the data have nothing in band {k}, so its ratio is 0")


def _check_probe_bands(cfg, grid, data):
    for k in NormalformAnalysis.bands:
        normalform._check_band(grid, k)


def _check_decay_horizon(cfg, grid, data):
    if cfg.solver.t_end < DECAY_T_LO:
        raise ValueError(f"solver.t_end={cfg.solver.t_end!r} ends before t = {DECAY_T_LO:g}, "
                         "where the decay report starts to judge")


EXPERIMENTS = {
    "conserve": Experiment(_exp_conserve, ProfileData, _plan_conserve, ConserveAnalysis),
    "scaling": Experiment(_exp_scaling, ProfileData, lambda cfg: [
        March.of(cfg.grid, cfg.solver), _rescaled(cfg.grid, cfg.solver)],
        check=_check_rescaled),
    "airy_decay": Experiment(_exp_airy_decay, AiryData, lambda cfg: [], solver=None),
    "strichartz": Experiment(_exp_strichartz, WindowedData, lambda cfg: [], solver=None,
                             check=_check_strichartz_bands),
    "normalform_scaling": Experiment(_exp_normalform, ShapeData, _plan_probes,
                                     NormalformAnalysis, solver=None, check=_check_probe_bands),
    "linearized_l2": Experiment(_exp_linearized, DualityData, _one_march(rows=2)),
    "lnl_conservation": Experiment(_exp_lnl_conservation, PairData, _one_march(rows=2)),
    "decay_profile": Experiment(_exp_decay_profile, ProfileData, _one_march(),
                                check=_check_decay_horizon),
}


# Each error that stops a measurement, with the (verdict, metric) of the one
# failed check that then ends the run; the metric is the time of the stop.
# ``finite``: the solution blew up.  ``interior``: the evolution reached the
# periodic seam, so the domain is too small for the horizon.
_STOPS = {BlowUpError: ("finite", "blowup_time"),
          dispersion.WrapAroundError: ("interior", "wraparound_time")}


def run_experiment(cfg: ExperimentConfig, base_dir="out") -> ExperimentResult:
    """Validate, run, and persist one experiment.

    A config error raises before ``<base_dir>/<experiment>/`` exists.  Every
    way out of a started run writes its record's manifest there: the metrics
    judged by ``judge``, one failed check from ``_STOPS`` for a run that stops
    early (blow-up, wrap-around), or the ``error`` of any other exception.
    """
    data, marches = validate_config(cfg)
    out_dir = Path(base_dir) / cfg.experiment
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"cannot make output directory {out_dir}: {exc.strerror}") from None

    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        try:
            metrics, outputs = EXPERIMENTS[cfg.experiment].body(cfg, data, marches, out_dir)
            checks, error = judge(metrics), None
        except tuple(_STOPS) as exc:
            name, metric = _STOPS[type(exc)]
            metrics, outputs, error = {metric: exc.time}, [], None
            checks = {name: Check(False, exc.time, None, math.nan, metric, name)}
        except Exception as exc:  # not BaseException: Ctrl-C still stops at once
            metrics, outputs, checks, error = {}, [], {}, exc
        collected = [f"{w.category.__name__}: {w.message}" for w in caught]

    result = ExperimentResult(cfg.experiment, config_to_dict(cfg), checks, metrics, collected,
                              [str(p) for p in outputs], error)
    (out_dir / "manifest.json").write_text(json.dumps(result.manifest(), indent=2) + "\n")
    return result
