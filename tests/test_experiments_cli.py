import dataclasses
import json
import math
import re
import tempfile
import warnings
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bo3 import experiments, stepper
from bo3.cli import main
from bo3.experiments import (
    EXPERIMENTS,
    ConfigError,
    apply_override,
    config_from_dict,
    config_to_dict,
    run_experiment,
    validate_config,
)

from conftest import CONFIG_DIR, shipped_config

FAST_OVERRIDES = {
    "conserve": ["grid.n=256", "grid.length=201.06192982974676", "solver.dt=1e-3",
                 "solver.t_end=0.05", "solver.snapshot_stride=10",
                 "analysis.conv_t_end=0.1"],
    "scaling": ["grid.n=256", "grid.length=201.06192982974676", "solver.dt=1e-3",
                "solver.t_end=0.05", "solver.snapshot_stride=50"],
    "airy_decay": [],  # the canonical runs take 0.02 s and 0.06 s
    "strichartz": [],
    "normalform_scaling": ["analysis.t_probe=0.02"],
    "linearized_l2": ["solver.dt=1e-3", "solver.t_end=0.1", "solver.snapshot_stride=20"],
    "lnl_conservation": ["solver.dt=1e-3", "solver.t_end=0.1", "solver.snapshot_stride=20"],
    "decay_profile": ["solver.dt=5e-3", "solver.t_end=2.0", "solver.snapshot_stride=100"],
}


def fast_config(name):
    cfg = shipped_config(name)
    for ov in FAST_OVERRIDES[name]:
        apply_override(cfg, ov)
    return cfg


# ---------------------------------------------------------------------------
# config plumbing


def test_shipped_configs_round_trip_and_validate():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    # one shipped config per experiment: the acceptance suite runs exactly these
    assert {path.stem for path in paths} == set(EXPERIMENTS)
    values = 0
    for path in paths:
        raw = json.loads(path.read_text())
        assert raw["experiment"] == path.stem
        cfg = config_from_dict(raw)
        validate_config(cfg)
        assert config_to_dict(cfg) == raw
        # test_hygiene checks that these are exactly the fields the experiment reads
        values += sum(len(v) if isinstance(v, dict) else 1
                      for k, v in raw.items() if k != "experiment")
    assert values == 61


# The measurement settings that are fixed, like TOLERANCES, by the analysis
# field each once was.
FIXED = {"conserve": ["conv_dts", "conv_n", "conv_length", "conv_amplitude"],
         "scaling": ["scale_factor"],
         "airy_decay": ["fit_t_lo", "fit_t_hi", "fit_points", "vf_t_hi", "vf_points"],
         "strichartz": ["j_band", "k_bands", "window_factor", "time_samples"],
         "normalform_scaling": ["bands", "amplitudes", "residual_dt"],
         "decay_profile": ["delta", "c_region", "report_t_lo"]}


@pytest.mark.parametrize("name, field", [(name, field) for name, fields in FIXED.items()
                                         for field in fields])
def test_a_fixed_measurement_setting_cannot_be_set(name, field, tmp_path, capsys):
    path = CONFIG_DIR / f"{name}.json"
    code = main(["run", str(path), "--set", f"analysis.{field}=1", "--out", str(tmp_path / "out")])
    assert code == 3
    assert f"config error: {name} reads no analysis.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "conserve", "grids": {}})
    with pytest.raises(ConfigError):
        config_from_dict({"experiment": "conserve", "grid": {"m": 4}})
    with pytest.raises(ConfigError):
        config_from_dict({"grid": {}})  # missing experiment


def test_validate_catches_bad_parameters():
    cfg = shipped_config("conserve")
    cfg.grid.n = 100
    with pytest.raises(ConfigError):
        validate_config(cfg)
    # a fixed setting that the settable ones cannot serve
    cfg = shipped_config("normalform_scaling")
    cfg.grid.n = 128  # resolves band 1 but not band 2
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = shipped_config("decay_profile")
    apply_override(cfg, "solver.t_end=0.5")  # before the first judged time
    with pytest.raises(ConfigError):
        validate_config(cfg)


def override_paths(experiment):
    """``seed`` and every section field the experiment's record declares."""
    return ["seed"] + [f"{key}.{f.name}"
                       for key, cls in EXPERIMENTS[experiment].sections().items() if cls
                       for f in dataclasses.fields(cls)]


# Every field of every experiment: a config file may name one its experiment
# does not read.
OVERRIDE_PATHS = sorted({path for name in EXPERIMENTS for path in override_paths(name)})
# Integers stay below 2**16 in size so that a power-of-two grid stays small,
# plus integers too large for a float.
SCALARS = st.one_of(st.integers(-2**16, 2**16), st.integers(2**1024, 2**1100), st.floats(),
                    st.booleans(), st.text(max_size=6))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(EXPERIMENTS)).flatmap(lambda experiment: st.tuples(
    st.just(experiment),
    st.lists(st.tuples(st.sampled_from(override_paths(experiment)),
                       st.one_of(SCALARS, st.lists(SCALARS, max_size=4))),
             min_size=1, max_size=2))))
def test_fuzzed_overrides_validate_or_raise_config_error(case):
    experiment, overrides = case
    cfg = shipped_config(experiment)
    try:
        for path, value in overrides:
            apply_override(cfg, f"{path}={json.dumps(value)}")
        validate_config(cfg)
    except ConfigError:
        pass


SOLVER_FIELDS = [f.name for f in dataclasses.fields(stepper.SolverConfig)]
CONSERVE = json.loads((CONFIG_DIR / "conserve.json").read_text())


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({name: st.one_of(SCALARS, st.lists(SCALARS, max_size=4))
                              for name in SOLVER_FIELDS}))
def test_solver_config_refuses_exactly_what_validation_refuses(values):
    # one checker: the constructor refuses a solver section exactly when
    # validation refuses it, for the same field
    assume(values["t_end"] != 0)  # a march of no step, which the plan refuses
    try:
        stepper.SolverConfig(**values)
        refused = None
    except ValueError as exc:
        refused = f"solver.{exc}".split(" must be ")[0]
    try:
        validate_config(config_from_dict({**CONSERVE, "solver": values}))
        named = None
    except ConfigError as exc:
        named = re.match(r"(solver\.\w+) must be ", str(exc))
        named = named and named[1]
    assert named == refused


def test_override_paths():
    cfg = shipped_config("conserve")
    apply_override(cfg, "solver.dt=0.5")
    assert cfg.solver.dt == 0.5
    apply_override(cfg, "data.width=2.5")
    assert cfg.data.width == 2.5
    cfg = shipped_config("normalform_scaling")
    apply_override(cfg, "analysis.t_probe=0.05")
    assert cfg.analysis.t_probe == 0.05
    with pytest.raises(ConfigError):
        apply_override(cfg, "solver.step=1")
    with pytest.raises(ConfigError):
        apply_override(cfg, "no-equals-sign")


# ---------------------------------------------------------------------------
# experiment artifacts


def test_reduced_conserve_writes_artifacts(tmp_path):
    res = run_experiment(fast_config("conserve"), base_dir=tmp_path)
    assert res.passed
    out = tmp_path / "conserve"
    assert (out / "energies.csv").exists()
    assert (out / "convergence.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verdicts"]["e0_drift"] is True
    assert manifest["config"]["grid"]["n"] == 256
    assert manifest["version"].startswith("bo3-")
    back = config_from_dict(manifest["config"])
    assert config_to_dict(back) == manifest["config"]  # full round trip


def test_build_version_asks_git_once_per_process(monkeypatch):
    calls = []
    run = experiments.subprocess.run
    monkeypatch.setattr(experiments.subprocess, "run",
                        lambda *args, **kwargs: calls.append(args) or run(*args, **kwargs))
    experiments.build_version.cache_clear()
    versions = {experiments.build_version() for _ in range(3)}
    assert len(versions) == 1 and len(calls) == 1


def test_experiments_emit_svg(tmp_path):
    res = run_experiment(fast_config("airy_decay"), base_dir=tmp_path)
    svg = tmp_path / "airy_decay" / "airy_decay.svg"
    assert svg.exists() and svg.read_text().startswith("<svg")


def test_deterministic_reruns_are_byte_identical(tmp_path):
    cfg = fast_config("normalform_scaling")
    run_experiment(cfg, base_dir=tmp_path / "a")
    run_experiment(cfg, base_dir=tmp_path / "b")
    for name in ("residuals.csv", "bk_constants.csv"):
        a = (tmp_path / "a" / "normalform_scaling" / name).read_bytes()
        b = (tmp_path / "b" / "normalform_scaling" / name).read_bytes()
        assert a == b


def test_seed_changes_random_experiment_output(tmp_path):
    cfg = fast_config("strichartz")
    run_experiment(cfg, base_dir=tmp_path / "a")
    cfg.seed = 1
    run_experiment(cfg, base_dir=tmp_path / "b")
    a = (tmp_path / "a" / "strichartz" / "strichartz.csv").read_bytes()
    b = (tmp_path / "b" / "strichartz" / "strichartz.csv").read_bytes()
    assert a != b


def test_under_resolved_run_is_degraded(tmp_path):
    # a narrow bump cut off at xi = 3.5 puts energy in the top third
    # (xi >= 2.67) of the fast grid: every kept frame of the main march is
    # flagged (at the shipped width 4 none is)
    cfg = fast_config("conserve")
    apply_override(cfg, "data.width=0.5")
    apply_override(cfg, "data.bandlimit=3.5")
    res = run_experiment(cfg, base_dir=tmp_path)
    assert res.passed
    assert res.exit_code == 2  # pass with warnings
    assert res.warnings == ["ResolutionWarning: 6 resolution flags along the march at n = 256, "
                            "dt = 0.001 (first at t = 0)"]
    manifest = json.loads((tmp_path / "conserve" / "manifest.json").read_text())
    assert manifest["warnings"] == res.warnings


@pytest.mark.parametrize("name, assignment, tail_tol, marches", [
    # the study's fixed data are resolved, so no tail is allowed: the main
    # march, then the study's reference at the finest dt / 8 and its three dts
    ("conserve", "analysis.conv_t_end=0.02", 0.0,
     ["n = 256, dt = 0.001", "n = 128, dt = 0.000125", "n = 128, dt = 0.001",
      "n = 128, dt = 0.002", "n = 128, dt = 0.004"]),
    # one probe march per band and amplitude
    ("normalform_scaling", "data.bandlimit=40", stepper.TAIL_TOL, ["n = 1024, dt = 0.001"] * 8)])
def test_every_march_of_a_run_reports_its_resolution(name, assignment, tail_tol, marches,
                                                     tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(stepper, "TAIL_TOL", tail_tol)
    path = write_fast_config(tmp_path, name)
    assert main(["run", str(path), "--set", assignment, "--out", str(tmp_path / "out")]) == 2
    manifest = json.loads((tmp_path / "out" / name / "manifest.json").read_text())
    assert [re.search(r"n = \d+, dt = [\d.e-]+", w)[0] for w in manifest["warnings"]] == marches
    assert all(w.startswith("ResolutionWarning: ") for w in manifest["warnings"])


# ---------------------------------------------------------------------------
# command line


def write_fast_config(tmp_path, name):
    cfg = fast_config(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return path


def test_cli_run_pass_exit_code(tmp_path, capsys):
    path = write_fast_config(tmp_path, "scaling")
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_cli_prints_value_test_and_bound_of_every_check(tmp_path, capsys):
    path = write_fast_config(tmp_path, "airy_decay")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) in (0, 2)
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("WARN")]
    assert len(lines) == 2
    assert re.fullmatch(r"PASS  airy_decay\.airy_decay_slope  \(\S+ near -0\.333333 \+- 0\.02\)",
                        lines[0])
    assert re.fullmatch(r"PASS  airy_decay\.l_vf_conservation  \(\S+ <= 1e-06\)", lines[1])
    manifest = json.loads((tmp_path / "out" / "airy_decay" / "manifest.json").read_text())
    assert manifest["checks"].keys() == manifest["verdicts"].keys()
    for name, check in manifest["checks"].items():
        assert check["value"] == manifest["metrics"][check["metric"]]
        assert (check["margin"] >= 0) is manifest["verdicts"][name]


def test_cli_run_with_set_override(tmp_path, capsys):
    path = write_fast_config(tmp_path, "scaling")
    code = main(["run", str(path), "--set", "solver.t_end=0.02",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "scaling" / "manifest.json").read_text())
    assert manifest["config"]["solver"]["t_end"] == 0.02


def test_cli_non_finite_solver_input_is_a_config_error(tmp_path, capsys):
    path = write_fast_config(tmp_path, "conserve")
    for assignment in ("solver.t_end=Infinity", "solver.dt=NaN"):
        code = main(["run", str(path), "--set", assignment, "--out", str(tmp_path / "out")])
        assert code == 3
        field = assignment.split("=")[0]
        assert f"config error: {field} must be a finite number" in capsys.readouterr().err


def test_cli_blowup_is_a_failed_verdict(tmp_path, capsys):
    path = write_fast_config(tmp_path, "conserve")
    code = main(["run", str(path), "--set", "data.amplitude=2000",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "FAIL  conserve.finite  (" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "out" / "conserve" / "manifest.json").read_text())
    assert manifest["verdicts"] == {"finite": False}
    assert 0.0 < manifest["metrics"]["blowup_time"] <= 0.05
    assert not [w for w in manifest["warnings"] if w.startswith("RuntimeWarning")]


def test_cli_wraparound_is_a_failed_verdict(tmp_path, capsys):
    # a quarter of the canonical domain: the packet reaches the seam before t = 100
    code = main(["run", str(CONFIG_DIR / "airy_decay.json"), "--set", "grid.n=1024",
                 "--set", "grid.length=804.247719318987", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "FAIL  airy_decay.interior  (wraparound_time " in capsys.readouterr().out
    manifest = json.loads((tmp_path / "out" / "airy_decay" / "manifest.json").read_text())
    assert manifest["verdicts"] == {"interior": False}
    assert 1.0 < manifest["metrics"]["wraparound_time"] <= 100.0
    assert manifest["checks"]["interior"]["metric"] == "wraparound_time"


def test_cli_bad_analysis_types_are_config_errors(tmp_path, capsys):
    # each field set on an experiment that reads it
    for name, assignment in (("conserve", "analysis.conv_t_end=[0.5]"),
                             ("conserve", "data.amplitude=abc"), ("conserve", "data.width=NaN"),
                             ("conserve", "seed=abc"),
                             ("conserve", "seed=1.5"), ("conserve", "seed=true"),
                             ("normalform_scaling", "analysis.t_probe=abc"),
                             ("conserve", "analysis.conv_t_end=Infinity"),
                             # once refused by SolverConfig's own checks, which named
                             # no field, or passed by them
                             ("conserve", 'solver.snapshot_stride="x"'),
                             ("conserve", "solver.dt=abc"), ("conserve", "solver.t_end=null"),
                             ("conserve", "solver.snapshot_stride=[1]")):
        path = write_fast_config(tmp_path, name)
        code = main(["run", str(path), "--set", assignment, "--out", str(tmp_path / "out")])
        assert code == 3
        field = assignment.split("=")[0]
        assert f"config error: {field} must be " in capsys.readouterr().err
    # values of the right type that no run can use are caught before compute too
    for name, assignment in (("conserve", "solver.dealias=3"),
                             ("conserve", "solver.snapshot_stride=1.5"),
                             # each of these used to fail in compute, or pass a
                             # verdict on no measurement
                             ("strichartz", "seed=-1"),
                             ("conserve", "analysis.conv_t_end=-1"),
                             ("conserve", "analysis.conv_t_end=0"),
                             ("decay_profile", "solver.t_end=0.5"),
                             # initial data that cannot be built, or is not finite
                             ("strichartz", "data.bandlimit=0"),
                             ("conserve", "data.width=0"),
                             ("conserve", "data.bandlimit=0"),
                             ("normalform_scaling", "analysis.t_probe=-1")):
        path = write_fast_config(tmp_path, name)
        code = main(["run", str(path), "--set", assignment, "--out", str(tmp_path / "out")])
        assert code == 3, assignment
        assert assignment.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_data_of_any_finite_size_are_checked_without_overflow(capsys):
    # the underflow test once squared the values, which overflowed above an
    # amplitude of about 1e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["validate", str(CONFIG_DIR / "conserve.json"),
                     "--set", "data.amplitude=1e300"])
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("name, assignments", [
    # data whose squares underflow: each once passed validation, made the
    # output directory and stopped in the run on a MeanError or, for
    # airy_decay, a ZeroDivisionError
    ("conserve", ["data.amplitude=1e-300"]),
    ("airy_decay", ["data.amplitude=1e-300", "grid.n=64"]),
    # data the pair experiments build, identically zero: phi0 and the
    # perturbation v0 below the grid's first mode, and the duality fields of
    # band 2.0 on a domain whose first mode is 2*pi/3
    ("linearized_l2", ["data.bandlimit=0.001"]),
    ("linearized_l2", ["grid.length=3", "grid.n=64", "data.bandlimit=100"])])
def test_data_no_run_can_use_is_a_config_error(name, assignments, tmp_path, capsys):
    args = ["run", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path / "out")]
    assert main(args + [arg for a in assignments for arg in ("--set", a)]) == 3
    err = capsys.readouterr().err
    assert assignments[0] in err and "cannot convert" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, assignments, message", [
    ("strichartz", ["grid.n=1024"], "band 10 outside resolved range"),
    ("normalform_scaling", ["grid.n=128"], "band 2 outside resolved range"),
    ("decay_profile", ["solver.t_end=0.5"], "ends before t = 1, where the decay report"),
    # the grid's largest wavenumber is finite, twice it is not
    ("scaling", ["grid.length=2e-305", "data.width=1e-306", "data.bandlimit=1e308"],
     "the run rescaled by 2: domain length 1e-305 is too short")])
def test_a_fixed_setting_the_config_cannot_serve_is_a_config_error(name, assignments, message,
                                                                   tmp_path, capsys):
    args = ["run", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path / "out")]
    assert main(args + [arg for a in assignments for arg in ("--set", a)]) == 3
    err = capsys.readouterr().err
    assert assignments[0] in err and message in err
    assert not (tmp_path / "out").exists()


def test_a_grid_with_no_finite_wavenumber_is_a_config_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # once an overflow in np.fft.fftfreq
        code = main(["validate", str(CONFIG_DIR / "conserve.json"),
                     "--set", "grid.length=1e-306"])
    assert code == 3
    assert ("grid.length=1e-306: domain length 1e-306 is too short for 1024 points"
            in capsys.readouterr().err)


@pytest.mark.parametrize("name", ["conserve", "scaling", "airy_decay", "linearized_l2",
                                  "lnl_conservation", "decay_profile"])
def test_all_zero_data_are_a_config_error(name, tmp_path, capsys):
    # zero data once stopped lnl_conservation and decay_profile on a
    # ZeroDivisionError after the output directory existed, failed airy_decay
    # on a NaN slope, and passed the others' verdicts on nothing
    args = ["run", str(CONFIG_DIR / f"{name}.json"), "--set", "data.amplitude=0",
            "--out", str(tmp_path / "out")]
    assert main(args) == 3
    assert "data.amplitude=0: the data are all zero" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# at solver.t_end=1e-323 the rescaled run's horizon t_end / 8 underflows to 0:
# scaling compared the two runs at t = 0 alone and passed
NO_STEP_HORIZONS = {"scaling": ["0", "1e-323"]}


@pytest.mark.parametrize("name", [name for name in sorted(EXPERIMENTS) if EXPERIMENTS[name].solver])
def test_a_march_of_no_step_is_a_config_error(name, tmp_path, capsys):
    # at solver.t_end=0 conserve's drifts and scaling's deviation were exactly
    # 0, lnl_conservation's constants 0 and linearized_l2's growth rate set to
    # 0: each run passed its verdicts on no step
    path, out = str(CONFIG_DIR / f"{name}.json"), str(tmp_path / "out")
    for t_end in NO_STEP_HORIZONS.get(name, ["0"]):
        for command in (["validate", path], ["run", path, "--out", out]):
            assert main(command + ["--set", f"solver.t_end={t_end}"]) == 3
            err = capsys.readouterr().err
            assert f"{name} plans a march of no step" in err
            assert f"at solver.t_end={t_end}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("factor", ["1e20", "1e100"])
def test_extreme_rescaling_ends_in_a_verdict_with_a_manifest(factor, tmp_path, capsys):
    # the shipped run rescaled by lam = factor: the domain and width shrink by
    # lam, the bandlimit and amplitude grow by lam, the times shrink by lam**3.
    # The mean-free test compares |mean| with the RMS of the values, which the
    # rescaling leaves alone; at 1e20 the rescaled run used to stop with a
    # MeanError after the output directory existed
    lam = float(factor)
    assignments = [f"grid.length={804.247719318987 / lam!r}", f"data.width={4.0 / lam!r}",
                   f"data.bandlimit={lam!r}", f"data.amplitude={0.05 * lam!r}",
                   f"solver.dt={2e-4 / lam**3!r}", f"solver.t_end={1e-2 / lam**3!r}"]
    args = ["run", str(CONFIG_DIR / "scaling.json"), "--set", "grid.n=64",
            "--out", str(tmp_path / "out")]
    code = main(args + [arg for a in assignments for arg in ("--set", a)])
    assert code in (0, 1, 2)
    assert (tmp_path / "out" / "scaling" / "manifest.json").is_file()


def test_data_is_checked_only_where_the_experiment_reads_it(tmp_path, capsys):
    # strichartz reads only data.bandlimit: setting a data field it never
    # builds is an error that names both, before any output is made
    path = write_fast_config(tmp_path, "strichartz")
    for assignment in ("data.width=0", "data.amplitude=7"):
        assert main(["run", str(path), "--set", assignment, "--out", str(tmp_path / "b")]) == 3
        assert f"strichartz reads no {assignment.split('=')[0]}" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()
    path = write_fast_config(tmp_path, "conserve")
    assert main(["run", str(path), "--set", "data.width=0", "--out", str(tmp_path / "c")]) == 3
    assert "data.width=0" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("name, path", [("strichartz", "analysis.conv_dts"),
                                        ("airy_decay", "solver.dt"),
                                        ("linearized_l2", "analysis.delta"),
                                        ("normalform_scaling", "data.amplitude"),
                                        # fields of the pinned profiles
                                        ("conserve", "data.profile"),
                                        ("airy_decay", "data.center"),
                                        ("normalform_scaling", "data.width"),
                                        ("normalform_scaling", "data.center")])
def test_unread_fields_are_config_errors(name, path, tmp_path, capsys):
    message = f"config error: {name} reads no {path}"
    config = CONFIG_DIR / f"{name}.json"
    # any value, such as the [1] and -1 that the first two cases once refused as out of range
    for value in ("[1]", "-1"):
        assert main(["validate", str(config), "--set", f"{path}={value}"]) == 3
        assert message in capsys.readouterr().err
    raw = json.loads(config.read_text())
    section, field = path.split(".")
    raw.setdefault(section, {})[field] = 1
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(raw))
    assert main(["validate", str(edited)]) == 3
    assert message in capsys.readouterr().err
    assert main(["run", str(edited), "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_run_bytes_counts_grids_and_trajectory_rows():
    # 24 B a point of each grid size; 16 B a half-spectrum mode per frame and
    # stacked row, the frames of the stepper's plan.  conserve streams its march
    # into the energies: it holds at most one block of frames, the tracker's
    # working set on that block (40 B a frame of the block, 24 B a mode and
    # 64 B a point of one chunk of max(1, 2**14 // n) rows), and 48 B a frame
    # of reduced values.  Its study's four marches at n = 128 keep two frames each
    block = stepper.FRAME_BLOCK

    def streamed(frames, n, m):
        rows = min(frames, block)
        tracker = 40 * rows + 24 * m + 64 * min(rows, max(1, 2**14 // n)) * n
        return rows * m * 16 + tracker + 48 * frames

    dense = ["solver.t_end=0.2", "solver.snapshot_stride=1"]  # 201 frames: over a block
    for name, rows, overrides in (("conserve", 1, []), ("conserve", 1, dense),
                                  ("scaling", 2, []), ("lnl_conservation", 2, [])):
        cfg = fast_config(name)
        for assignment in overrides:
            apply_override(cfg, assignment)
        n, m = cfg.grid.n, cfg.grid.n // 2 + 1
        n_steps = stepper._snapshot_plan(cfg.solver.t_end, cfg.solver.dt)[0]
        frames = 1 + math.ceil(n_steps / cfg.solver.snapshot_stride)
        if name == "conserve":
            expected = 24 * (n + 128) + streamed(frames, n, m) + 4 * 2 * 65 * 16
        else:
            expected = 24 * n + rows * frames * m * 16
        assert experiments._run_bytes(cfg, experiments._plan(cfg)) == expected, (name, overrides)
    streams = [name for name in EXPERIMENTS
               if any(m.streams for m in experiments._plan(shipped_config(name)))]
    assert streams == ["conserve"]
    cfg = shipped_config("strichartz")  # no march: the grid alone
    assert experiments._run_bytes(cfg, experiments._plan(cfg)) == 24 * cfg.grid.n


def test_oversized_runs_are_config_errors_before_any_grid(tmp_path, capsys, monkeypatch):
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(experiments, "make_grid", no_grid)
    conserve, scaling = (str(CONFIG_DIR / f"{name}.json") for name in ("conserve", "scaling"))
    dense = ["--set", "solver.snapshot_stride=1", "--set", "solver.t_end=20"]  # 200 001 frames
    # 2**30 points: 24 GiB of grid, one block of 64 frames of 8 GiB and the
    # tracker's 12 + 64 GiB on it; or two rows of 200 001 frames of 8 KB
    for path, assignments, gib in ((conserve, ["--set", "grid.n=1073741824"], "612"),
                                   (scaling, dense, "1.53")):
        for command in (["validate", path], ["run", path, "--out", str(tmp_path / "out")]):
            assert main(command + assignments) == 3
            assert f"the run needs about {gib} GiB" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # conserve holds one block of those frames, not all of them
    monkeypatch.undo()
    assert main(["validate", conserve] + dense) == 0


def test_output_dir_is_an_unknown_field(tmp_path, capsys):
    # the output directory is set by --out alone
    raw = json.loads((CONFIG_DIR / "scaling.json").read_text())
    raw["output_dir"] = "out"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(raw))
    assert main(["run", str(edited), "--out", str(tmp_path / "out")]) == 3
    assert "unknown config fields: ['output_dir']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bands_are_checked_only_by_the_experiment_that_reads_them():
    cfg = shipped_config("conserve")
    apply_override(cfg, "grid.n=256")  # xi_max = 1 resolves band 0 alone
    validate_config(cfg)
    cfg = shipped_config("normalform_scaling")
    apply_override(cfg, "grid.n=256")  # xi_max = 4 resolves its bands 1 and 2
    validate_config(cfg)
    apply_override(cfg, "grid.n=128")  # xi_max = 2 resolves band 1 alone
    with pytest.raises(ConfigError, match="grid.n=128, .*: band 2 outside"):
        validate_config(cfg)


# Fields with a lower bound, for the boundary values 0, -1 and 1.
BOUNDED_PATHS = ["seed", "solver.t_end", "solver.dt", "solver.snapshot_stride",
                 "analysis.conv_t_end", "analysis.t_probe"]
SHIPPED = [json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))]
FILE_VALUES = st.one_of(st.sampled_from([0, -1, 1, 0.0, -1.0, 1.0, 0.5]), st.none(),
                        st.booleans(), st.text(max_size=3),
                        st.lists(st.sampled_from([0, -1, 1, 0.5, 2.0]), max_size=4))
FILE_EDITS = st.one_of(
    st.tuples(st.just("set"), st.one_of(st.sampled_from(BOUNDED_PATHS + ["experiment"]),
                                         st.sampled_from(OVERRIDE_PATHS)), FILE_VALUES),
    st.tuples(st.just("section"), st.sampled_from(["grid", "data", "solver", "analysis"]),
              st.one_of(st.none(), st.integers(-1, 1), st.text(max_size=3), st.lists(
                  st.integers(-1, 1), max_size=2))),
    st.tuples(st.just("unknown"), st.sampled_from(["", "grid", "solver", "analysis"]),
              st.sampled_from(["scheme", "x"])),
)


def _edited(raw, edits):
    """A copy of a config dict with each edit applied: a field set, a section
    replaced, or an unknown key added (at the top level for the path "")."""
    raw = json.loads(json.dumps(raw))
    for kind, path, value in edits:
        if kind == "section":
            raw[path] = value
            continue
        parts = path.split(".") if path else []
        if kind == "unknown":
            parts, value = parts + [value], 1
        obj = raw
        for part in parts[:-1]:
            obj = obj.setdefault(part, {})
        if isinstance(obj, dict):  # a section edited into a non-object stays so
            obj[parts[-1]] = value
    return raw


def _accepts(raw) -> bool:
    try:
        validate_config(config_from_dict(raw))
    except ConfigError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SHIPPED), st.lists(FILE_EDITS, min_size=1, max_size=3))
def test_fuzzed_config_files_exit_0_or_3(raw, edits):
    raw = _edited(raw, edits)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(raw))
        code = main(["validate", str(path)])
        assert code == (0 if _accepts(raw) else 3)
        if code == 3:
            assert main(["run", str(path), "--out", str(out)]) == 3
            assert not out.exists()


def small_run(name, n=64):
    """The shipped config of ``name`` on n points at its own spacing, marching
    to t = 1 (decay_profile's first judged time) in steps of 5e-3, with
    conserve's study and the normal-form probe at 0.02."""
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw["grid"] = {"n": n, "length": raw["grid"]["length"] * n / raw["grid"]["n"]}
    if "solver" in raw:
        raw["solver"] = {"dt": 5e-3, "t_end": 1.0, "snapshot_stride": 50}
    if "analysis" in raw:
        raw["analysis"] = dict.fromkeys(raw["analysis"], 0.02)
    return raw


# Type-correct values for every field but grid.n, with the edge values: zero,
# tiny and negative amplitudes, a zero horizon, tiny and huge domains.
RUN_FIELDS = {
    "seed": st.integers(0, 2**32),
    "grid.length": st.one_of(st.floats(0.05, 1e3), st.sampled_from([1e-300, 1e-6, 1e6, 1e300])),
    "data.width": st.one_of(st.floats(-10.0, 10.0), st.sampled_from([1e-300, 1e300])),
    "data.bandlimit": st.one_of(st.floats(0.0, 1e4), st.just(1e308)),
    "data.amplitude": st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, 1e-300, -1e-300])),
    "solver.dt": st.floats(1e-4, 1.0),
    "solver.t_end": st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 1e-300])),
    "solver.snapshot_stride": st.integers(1, 10**9),
    "analysis.conv_t_end": st.floats(0.0, 0.05),
    "analysis.t_probe": st.floats(0.0, 0.05),
}


def run_configs():
    """A small run of one experiment with up to three of its fields set.  strichartz's
    bands need about 1000 modes, so it runs on its shipped grid (n = 4096, length
    2 pi): it marches nothing and takes about 35 ms."""
    def edits(name):
        paths = [path for path in override_paths(name) if path != "grid.n"]
        return st.lists(st.sampled_from(paths).flatmap(
            lambda path: st.tuples(st.just("set"), st.just(path), RUN_FIELDS[path])), max_size=3)

    def grids(name):
        return st.sampled_from([4096] if name == "strichartz" else [32, 64])

    return st.sampled_from(sorted(EXPERIMENTS)).flatmap(
        lambda name: st.tuples(st.just(name), grids(name))).flatmap(
        lambda base: edits(base[0]).map(lambda e: _edited(small_run(*base), e)))


def planned_steps(raw) -> int:
    """RK4 steps the plan of a run of the config takes, a coupled step counted as two."""
    cfg = config_from_dict(raw)
    return sum(m.steps * m.rows for m in EXPERIMENTS[cfg.experiment].plan(cfg))


@settings(max_examples=40, deadline=None)
@given(run_configs())
@example(small_run("strichartz", 4096))  # its shipped run, which reaches its body
# each of these once ended in a ZeroDivisionError (exit 4) after the output
# directory existed, or passed its verdicts on no step; strichartz on 64
# points has no grid mode in band 2, so its ratio there was 0
@example(small_run("strichartz"))
@example(_edited(small_run("lnl_conservation"), [("set", "data.amplitude", 0)]))
@example(_edited(small_run("decay_profile"), [("set", "data.amplitude", 0)]))
@example(_edited(small_run("conserve"), [("set", "solver.t_end", 0)]))
def test_fuzzed_runs_end_in_a_verdict_or_a_config_error(raw):
    assume(planned_steps(raw) <= 2000)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(raw))
        code = main(["run", str(path), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if out.exists():
            assert (out / raw["experiment"] / "manifest.json").is_file()
        if code == 3:
            assert not out.exists()


def test_cli_crash_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    def crash(cfg, base_dir=None):
        raise RuntimeError("boom")

    monkeypatch.setattr("bo3.cli.run_experiment", crash)
    path = write_fast_config(tmp_path, "conserve")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


@pytest.mark.parametrize("after_a_passing_run", [False, True])
def test_a_run_that_cannot_write_a_table_leaves_its_own_manifest(after_a_passing_run,
                                                                 tmp_path, capsys):
    path, out = str(CONFIG_DIR / "airy_decay.json"), tmp_path / "out"
    blocked = out / "airy_decay" / "vector_field_norm.csv"
    if after_a_passing_run:
        assert main(["run", path, "--out", str(out)]) == 0
        blocked.unlink()
    blocked.mkdir(parents=True)
    assert main(["run", path, "--set", "data.width=5", "--out", str(out)]) == 4
    manifest = json.loads((out / "airy_decay" / "manifest.json").read_text())
    assert manifest["error"]["type"] == "IsADirectoryError"
    assert manifest["config"]["data"]["width"] == 5  # this run's, not the earlier one's
    assert manifest["verdicts"] == manifest["checks"] == {} and manifest["outputs"] == []
    assert "IsADirectoryError" in capsys.readouterr().err


def test_an_error_in_a_body_ends_in_a_manifest_that_names_it(tmp_path, capsys, monkeypatch):
    def body(cfg, data, marches, out_dir):
        warnings.warn("half done")
        (out_dir / "partial.csv").write_text("t\n")
        raise ValueError("injected")

    monkeypatch.setitem(EXPERIMENTS, "airy_decay",
                        dataclasses.replace(EXPERIMENTS["airy_decay"], body=body))
    out = tmp_path / "out"
    assert main(["run", str(CONFIG_DIR / "airy_decay.json"), "--out", str(out)]) == 4
    manifest = json.loads((out / "airy_decay" / "manifest.json").read_text())
    assert manifest["error"] == {"type": "ValueError", "message": "injected"}
    assert manifest["warnings"] == ["UserWarning: half done"]
    assert manifest["outputs"] == []  # partial.csv is no result of this run
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: injected" in err


def test_cli_validate(tmp_path, capsys):
    path = write_fast_config(tmp_path, "conserve")
    assert main(["validate", str(path)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "conserve", "grid": {"n": 100}}')
    assert main(["validate", str(bad)]) == 3
    bad.write_text('{"experiment": "conserve", "analysis": {"bands": 3}}')
    assert main(["validate", str(bad)]) == 3
    bad.write_text('{"experiment": [1]}')
    assert main(["validate", str(bad)]) == 3
    assert main(["validate", str(tmp_path / "missing.json")]) == 3
    notjson = tmp_path / "broken.json"
    notjson.write_text("{oops")
    assert main(["validate", str(notjson)]) == 3


def test_cli_validate_applies_overrides(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = CONFIG_DIR / "conserve.json"
    assert main(["validate", str(path), "--set", "grid.n=100"]) == 3
    assert "grid.n=100" in capsys.readouterr().err
    assert main(["validate", str(path), "--set", "solver.dt=1e-3"]) == 0
    assert capsys.readouterr().out.startswith("ok:")
    assert main(["validate", str(path), "--set", "solver.step=1"]) == 3
    assert list(tmp_path.iterdir()) == []


def test_cli_plot(tmp_path):
    path = write_fast_config(tmp_path, "scaling")
    main(["run", str(path), "--out", str(tmp_path / "out")])
    csv = tmp_path / "out" / "scaling" / "scaling.csv"
    svg = tmp_path / "dev.svg"
    code = main(["plot", str(csv), "--x", "t", "--y", "pointwise_deviation",
                 "--out", str(svg)])
    assert code == 0
    assert svg.read_text().startswith("<svg")
    assert main(["plot", str(csv), "--x", "t", "--y", "nope",
                 "--out", str(svg)]) == 3


def test_cli_bad_paths_are_config_errors(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    path = write_fast_config(tmp_path, "airy_decay")
    assert main(["run", str(path), "--out", str(blocker)]) == 3
    assert "cannot make output directory" in capsys.readouterr().err
    assert main(["plot", str(tmp_path / "missing.csv"), "--x", "t", "--y", "a"]) == 3
    assert "missing.csv" in capsys.readouterr().err
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("t,a\n1\n")
    assert main(["plot", str(ragged), "--x", "t", "--y", "a"]) == 3
    assert f"{ragged}:2:" in capsys.readouterr().err
    table = tmp_path / "table.csv"
    table.write_text("t,a\n0,1\n1,2\n")
    nowhere = tmp_path / "nodir" / "x.svg"
    assert main(["plot", str(table), "--x", "t", "--y", "a", "--out", str(nowhere)]) == 3
    assert f"cannot write {nowhere}" in capsys.readouterr().err


CELLS = st.one_of(st.floats(), st.integers(-10, 10).map(float), st.sampled_from(["", "x", "nan"]),
                  st.text(alphabet="ab1.-e ", max_size=4))
# column names, with the characters that XML escapes
NAMES = st.text(alphabet="tab_<&>", min_size=1, max_size=3)
# a header and rows of its width
TABLES = st.lists(NAMES, min_size=1, max_size=3).flatmap(lambda header: st.tuples(
    st.just(header), st.lists(st.lists(CELLS, min_size=len(header), max_size=len(header)),
                              max_size=5)))


# tables whose layout once overflowed, divided by zero or never ended, and
# a name and an output directory that once crashed or broke the SVG
@example((["t"], [[1e308]]), "file", [], False, "t", False)
@example((["t", "a"], [[-1e308, 1.0], [1e308, 2.0]]), "file", [], False, "a", False)
@example((["t", "a"], [[1e-300, 1.0], [1.7976931348623157e308, 2.0]]), "file", [], True,
         "a", False)
@example((["t", "a"], [[1e16, 0.0], [1.0000000000000002e16, 1.0]]), "file", [], False, "a",
         False)
@example((["t", "a<b&c"], [[0.0, 1.0], [1.0, 2.0]]), "file", [], False, "a<b&c", False)
@example((["t", "a"], [[0.0, 1.0], [1.0, 2.0]]), "file", [], False, "a", True)
@settings(max_examples=200, deadline=None)
@given(TABLES, st.sampled_from(["file", "ragged", "empty", "missing"]),
       st.lists(CELLS, max_size=4), st.booleans(), NAMES, st.booleans())
def test_fuzzed_plot_exits_0_or_3(table, kind, extra_row, loglog, other, no_dir):
    """Random headers and cells, ragged rows, empty and missing files, a
    missing output directory: a table that cannot be plotted is a usage
    error, never a crash, and a plotted one is well-formed XML."""
    header, rows = table
    rows = rows + [extra_row] if kind == "ragged" else rows
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "table.csv"
        svg = Path(tmp) / "nodir" / "table.svg" if no_dir else Path(tmp) / "table.svg"
        if kind != "missing":
            csv.write_text("" if kind == "empty" else "\n".join(
                ",".join(str(c) for c in row) for row in [header] + rows) + "\n")
        args = ["plot", str(csv), "--x", header[0], "--y", header[-1], "--y", other,
                "--annotate", other, "--out", str(svg)] + ["--loglog"] * loglog
        code = main(args)
        assert code in (0, 3)
        if code == 0:
            ElementTree.parse(svg)


def test_cli_usage_error():
    assert main(["frobnicate"]) == 3
