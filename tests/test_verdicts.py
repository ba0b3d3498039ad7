"""The verdict table: TOLERANCES specs, the judge, and each experiment's verdicts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bo3 import experiments, profiles, stepper
from bo3.experiments import (
    EXPERIMENTS,
    TOLERANCES,
    apply_override,
    judge,
    run_experiment,
    validate_config,
)

from conftest import shipped_config

# Every spec with the bound it has always had.
PINNED_SPECS = {
    "e0_drift": ("e0_drift", "<=", 1e-8),
    "e1_drift": ("e1_drift", "<=", 1e-6),
    "e2_drift": ("e2_drift", "<=", 1e-6),
    "convergence_order": ("convergence_order", "in", (3.8, 4.2)),
    "scaling_agreement": ("scaling_agreement", "<=", 1e-8),
    "airy_decay_slope": ("airy_decay_slope", "near", (-1.0 / 3.0, 0.02)),
    "l_vf_conservation": ("l_vf_deviation", "<=", 1e-6),
    "strichartz_spread": ("strichartz_spread", "<=", 10.0),
    "raw_slope": ("raw_slope", "near", (2.0, 0.2)),
    "gauged_slope": ("gauged_slope", "near", (3.0, 0.3)),
    "slope_separation": ("slope_separation", ">=", 0.7),
    "gauge_unitarity": ("gauge_unitarity", "<=", 1e-12),
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

# The verdicts of each experiment under its canonical bands.
PINNED_VERDICTS = {
    "conserve": {"e0_drift", "e1_drift", "e2_drift", "convergence_order"},
    "scaling": {"scaling_agreement"},
    "airy_decay": {"airy_decay_slope", "l_vf_conservation"},
    "strichartz": {"strichartz_spread"},
    "normalform_scaling": {"raw_slope_k1", "gauged_slope_k1", "slope_separation_k1",
                           "raw_slope_k2", "gauged_slope_k2", "slope_separation_k2",
                           "gauge_unitarity", "bk_constant_max"},
    "linearized_l2": {"duality_pairing", "gateaux_relative", "growth_rate_cap"},
    "lnl_conservation": {"y_drift_over_eps", "cubic_energy_bound"},
    "decay_profile": {"decay_phi_over_eps", "decay_phix_over_eps", "elliptic_log_over_eps",
                      "lnl_half_over_eps"},
}

# Configs cut down until each body runs in a fraction of a second; only the
# names of the verdicts matter here, not whether they pass.
TINY = {
    "conserve": ["grid.n=256", "grid.length=201.06192982974676", "solver.dt=1e-3",
                 "solver.t_end=0.01", "solver.snapshot_stride=5", "analysis.conv_t_end=0.02"],
    "scaling": ["grid.n=256", "grid.length=201.06192982974676", "solver.dt=1e-3",
                "solver.t_end=0.01", "solver.snapshot_stride=5"],
    "airy_decay": [],  # the canonical runs take 0.02 s and 0.06 s
    "strichartz": [],
    "normalform_scaling": ["analysis.t_probe=0.005"],
    "linearized_l2": ["solver.dt=1e-3", "solver.t_end=0.005", "solver.snapshot_stride=5"],
    "lnl_conservation": ["solver.dt=1e-3", "solver.t_end=0.005", "solver.snapshot_stride=5"],
    # the decay report judges the frames from t = 1 on
    "decay_profile": ["grid.n=256", "grid.length=201.06192982974676", "solver.dt=5e-3",
                      "solver.t_end=1.0", "solver.snapshot_stride=2"],
}


def test_tolerances_keep_every_spec_and_bound():
    assert TOLERANCES == PINNED_SPECS


def test_every_tolerance_is_judged_by_exactly_one_experiment():
    assert set(PINNED_VERDICTS) == set(EXPERIMENTS)
    judged_by = {}
    for experiment, verdicts in PINNED_VERDICTS.items():
        for spec in {v.rpartition("_k")[0] if v[-1].isdigit() else v for v in verdicts}:
            judged_by.setdefault(spec, []).append(experiment)
    assert set(judged_by) == set(TOLERANCES)
    assert all(len(owners) == 1 for owners in judged_by.values()), judged_by


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_each_experiment_gives_its_pinned_verdicts(experiment, tmp_path):
    cfg = shipped_config(experiment)
    for ov in TINY[experiment]:
        apply_override(cfg, ov)
    res = run_experiment(cfg, base_dir=tmp_path)
    assert set(res.verdicts) == PINNED_VERDICTS[experiment]
    assert set(res.checks) == PINNED_VERDICTS[experiment]
    for check in res.checks.values():
        assert check.value == res.metrics[check.metric]


def _recording(key, section, seen, paused):
    """A copy of a config section that adds ``<key>.<field>`` to ``seen`` at
    every read of one of its fields, unless ``paused`` is non-empty."""
    names = [f.name for f in dataclasses.fields(section)]

    class Recording(type(section)):
        def __getattribute__(self, name):
            if name in names and not paused:
                seen.add(f"{key}.{name}")
            return super().__getattribute__(name)

    return Recording(**{name: getattr(section, name) for name in names})


@pytest.mark.filterwarnings("ignore::UserWarning")  # run_experiment would record them
@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_each_experiment_reads_every_field_it_declares(experiment, tmp_path, monkeypatch):
    # the reads that count are those of validation's build of the grid and the
    # data, and the body's; the checkers read every field, so theirs do not
    cfg = shipped_config(experiment)
    for ov in TINY[experiment]:
        apply_override(cfg, ov)
    paused = []

    def quiet(check):
        def wrapped(*args, **kwargs):
            paused.append(check)
            try:
                return check(*args, **kwargs)
            finally:
                paused.pop()
        return wrapped

    # the field checker runs in validate_config and in SolverConfig as it is built
    for module, name in ((experiments, "_check_fields"), (stepper, "_check_fields"),
                         (experiments, "_plan"), (experiments, "_run_bytes")):
        monkeypatch.setattr(module, name, quiet(getattr(module, name)))
    record = EXPERIMENTS[experiment]
    monkeypatch.setitem(EXPERIMENTS, experiment,
                        dataclasses.replace(record, check=quiet(record.check)))
    declared, seen = set(), set()
    for key, cls in EXPERIMENTS[experiment].sections().items():
        if cls is not None:
            declared |= {f"{key}.{f.name}" for f in dataclasses.fields(cls)}
            setattr(cfg, key, _recording(key, getattr(cfg, key), seen, paused))
    data = validate_config(cfg)
    EXPERIMENTS[experiment].body(cfg, data, tmp_path)
    assert seen == declared


def _bits(data) -> list:
    return [f.values.tobytes() for f in (data if isinstance(data, tuple) else (data,))]


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_each_data_field_changes_the_data(experiment):
    # a data field whose value the built data ignore is a knob that turns
    # nothing: each field, moved on the shipped config, must move the bits
    shipped = _bits(validate_config(shipped_config(experiment)))
    dead = []
    for fld in dataclasses.fields(EXPERIMENTS[experiment].data):
        cfg = shipped_config(experiment)
        apply_override(cfg, f"data.{fld.name}={0.75 * getattr(cfg.data, fld.name) + 0.1!r}")
        if _bits(validate_config(cfg)) == shipped:
            dead.append(fld.name)
    assert not dead, f"{experiment}: data fields that change nothing: {dead}"


@pytest.mark.parametrize("experiment, builds", [("linearized_l2", 42), ("conserve", 2)])
def test_a_run_builds_each_field_of_its_data_once(experiment, builds, tmp_path, monkeypatch):
    # linearized_l2: phi0, v0 and the 40 duality fields; conserve: phi0 and
    # the convergence study's fixed data
    calls = []

    def counted(*args, _make=profiles.make_profile, **kwargs):
        calls.append(args[0])
        return _make(*args, **kwargs)

    monkeypatch.setattr(profiles, "make_profile", counted)
    cfg = shipped_config(experiment)
    for ov in TINY[experiment]:
        apply_override(cfg, ov)
    run_experiment(cfg, base_dir=tmp_path)
    assert len(calls) == builds


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("experiment", ["decay_profile", "lnl_conservation"])
def test_the_over_eps_constants_divide_by_the_size_of_the_data(experiment, tmp_path):
    # phi -> -phi is no symmetry of the flow: a negative amplitude is data of
    # size |amplitude|, and its constants are positive like any other
    cfg = shipped_config(experiment)
    for ov in TINY[experiment] + ["data.amplitude=-0.05"]:
        apply_override(cfg, ov)
    res = run_experiment(cfg, base_dir=tmp_path)
    over_eps = {k: v for k, v in res.metrics.items() if k.endswith("_over_eps")}
    assert over_eps and all(v > 0 for v in over_eps.values()), over_eps


# The "near" edges sit where |v - target| is exact for the neighbouring floats.
SPECS = {"le": ("a", "<=", 1.0), "ge": ("b", ">=", 1.0),
         "in": ("c", "in", (1.0, 2.0)), "near": ("d", "near", (0.75, 0.25))}
# (metric, value at the bound, the direction that leaves the passing side)
EDGES = [("a", 1.0, math.inf), ("b", 1.0, -math.inf), ("c", 1.0, -math.inf),
         ("c", 2.0, math.inf), ("d", 1.0, math.inf), ("d", 0.5, -math.inf)]


@pytest.mark.parametrize("metric, edge, outward", EDGES)
def test_judge_at_just_inside_and_just_outside_each_bound(metric, edge, outward):
    name = {spec[0]: verdict for verdict, spec in SPECS.items()}[metric]
    for value, passed in ((edge, True), (np.nextafter(edge, -outward), True),
                          (np.nextafter(edge, outward), False)):
        check = judge({metric: value}, SPECS)[name]
        assert check.passed is passed, (metric, value)
        assert bool(check.margin >= 0) is passed
        assert (check.value, check.bound, check.metric, check.test) == (
            value, SPECS[name][2], metric, SPECS[name][1])


def test_judge_fails_nan_on_every_test():
    checks = judge({m: math.nan for m in "abcd"}, SPECS)
    assert set(checks) == set(SPECS)
    assert not any(c.passed for c in checks.values())
    assert all(math.isnan(c.margin) for c in checks.values())


def test_judge_names_band_verdicts_and_skips_unjudged_metrics():
    checks = judge({"a_k3": 0.5, "a_k12": 2.0, "a_kx": 0.0, "unjudged": 0.0}, SPECS)
    assert {name: c.passed for name, c in checks.items()} == {"le_k3": True, "le_k12": False}
    assert checks["le_k3"].metric == "a_k3"


@settings(max_examples=100, deadline=None)
@given(st.floats(), st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_judge_agrees_with_the_plain_comparisons(v, b, c):
    # the value may be NaN or infinite; a bound is always a finite number
    lo, hi = min(b, c), max(b, c)
    tol = abs(c)
    specs = {"le": ("le", "<=", b), "ge": ("ge", ">=", b),
             "in": ("in", "in", (lo, hi)), "near": ("near", "near", (b, tol))}
    checks = judge(dict.fromkeys(specs, v), specs)
    expected = {"le": v <= b, "ge": v >= b, "in": lo <= v <= hi, "near": abs(v - b) <= tol}
    for name, passed in expected.items():
        assert checks[name].passed == passed, (name, v, specs[name])
