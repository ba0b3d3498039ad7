"""Run plans: each experiment's marches, counted before any compute starts."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bo3 import experiments, stepper
from bo3.cli import main
from bo3.experiments import EXPERIMENTS, March, apply_override

from conftest import CONFIG_DIR, shipped_config

ROOT = Path(__file__).resolve().parent.parent

# (n, dt, steps, rows) of every march of the shipped configs, in the bodies' order
CANONICAL = {
    "conserve": [(1024, 1e-4, 10_000, 1),
                 # the convergence study: the reference at 1e-3 / 8, then each dt
                 (128, 1.25e-4, 4000, 1), (128, 1e-3, 500, 1), (128, 2e-3, 250, 1),
                 (128, 4e-3, 125, 1)],
    "decay_profile": [(1024, 5e-3, 10_000, 1)],
    "scaling": [(1024, 2e-4, 1250, 1), (1024, 2.5e-5, 1250, 1)],  # the rescaled run at dt / 8
    "linearized_l2": [(1024, 5e-4, 2000, 2)],
    "lnl_conservation": [(1024, 5e-4, 2000, 2)],
    "normalform_scaling": [(1024, 1e-3, 100, 1)] * 8,  # per band and amplitude
    "airy_decay": [],
    "strichartz": [],
}


def test_the_shipped_plans_are_the_canonical_marches():
    assert set(CANONICAL) == set(EXPERIMENTS)
    work = {}
    for name, marches in CANONICAL.items():
        plan = EXPERIMENTS[name].plan(shipped_config(name))
        assert [(m.n, m.dt, m.steps, m.rows) for m in plan] == marches, name
        work[name] = sum(m.work for m in plan)
    # point-steps: 10 000 x 1024 + 4875 x 128
    assert max(work.values()) == work["conserve"] == 10_864_000 < experiments.WORK_BUDGET


# Each run cut short, with the number of marches it takes.
SHORT = {
    "conserve": (5, ["grid.n=256", "grid.length=201.06192982974676", "solver.dt=1e-3",
                     "solver.t_end=0.01", "solver.snapshot_stride=5",
                     "analysis.conv_t_end=0.02"]),
    "scaling": (2, ["grid.n=256", "grid.length=201.06192982974676", "solver.dt=1e-3",
                    "solver.t_end=0.01", "solver.snapshot_stride=5"]),
    "airy_decay": (0, []),
    "strichartz": (0, []),
    "normalform_scaling": (8, ["analysis.t_probe=0.005"]),
    "linearized_l2": (1, ["solver.dt=1e-3", "solver.t_end=0.005", "solver.snapshot_stride=5"]),
    "lnl_conservation": (1, ["solver.dt=1e-3", "solver.t_end=0.005",
                             "solver.snapshot_stride=5"]),
    "decay_profile": (1, ["grid.n=256", "grid.length=201.06192982974676", "solver.dt=5e-3",
                          "solver.t_end=1.0", "solver.snapshot_stride=50"]),
}


def _count_marches(monkeypatch) -> list:
    """Count every march from now on: [n, length, dt, rows, h, steps, frames] of each,
    as the stepper takes it."""
    taken = []
    march = stepper._march

    def recorded(ws, s0, t0, t_span, config, nl, keep=None, **kwargs):
        entry = [ws.grid.n, ws.grid.length, config.dt, np.size(s0) // (ws.half + 1), None, 0, 0]
        taken.append(entry)

        def kept(times, spectra):  # a streamed march's frames, block by block
            entry[6] += len(times)
            keep(times, spectra)

        times, spectra = march(ws, s0, t0, t_span, config, nl, keep=keep and kept, **kwargs)
        entry[6] += len(times)
        return times, spectra

    class Counted(stepper._IFRK4):
        def __init__(self, shape, h, lam, nl):
            taken[-1][4] = h
            super().__init__(shape, h, lam, nl)

        def step(self, s):
            taken[-1][5] += 1
            super().step(s)

    monkeypatch.setattr(stepper, "_march", recorded)
    monkeypatch.setattr(stepper, "_IFRK4", Counted)
    return taken


def _short_config(name, overrides=None):
    cfg = shipped_config(name)
    for assignment in SHORT[name][1] if overrides is None else overrides:
        apply_override(cfg, assignment)
    return cfg


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name, marches, overrides", [
    *((name, *short) for name, short in SHORT.items()),
    ("normalform_scaling", 0, ["analysis.t_probe=0"])])  # the body marches nothing
def test_a_run_takes_exactly_the_marches_of_its_plan(name, marches, overrides, tmp_path,
                                                     monkeypatch):
    cfg = _short_config(name, overrides)
    taken = _count_marches(monkeypatch)
    plan = EXPERIMENTS[name].plan(cfg)
    experiments.run_experiment(cfg, base_dir=tmp_path)
    assert [[m.n, m.length, m.dt, m.rows, m.h, m.steps, m.frames] for m in plan] == taken
    assert len(taken) == marches


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name, halved", [
    ("scaling", slice(1, 2)),  # the rescaled run
    ("conserve", slice(1, 2)),  # the convergence study's reference
    ("conserve", slice(3, 4)),  # one of its dts
    ("normalform_scaling", slice(None))])  # every probe, as the probes march alike
def test_a_body_marches_the_plan_it_is_given(name, halved, tmp_path, monkeypatch):
    # a plan whose derived marches step at half their dt: the body must take
    # those settings, not derive its own again
    record = EXPERIMENTS[name]

    def plan(cfg):
        marches = record.plan(cfg)
        # a march has the grid's n and length, so it serves as its own grid
        marches[halved] = [March.of(m, dataclasses.replace(m.solver, dt=m.dt / 2), m.rows,
                                    m.streams) for m in marches[halved]]
        return marches

    monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(record, plan=plan))
    cfg = _short_config(name)
    taken = _count_marches(monkeypatch)
    experiments.run_experiment(cfg, base_dir=tmp_path)
    swapped = plan(cfg)
    assert swapped != record.plan(cfg)
    assert [[m.n, m.length, m.dt, m.rows, m.h, m.steps, m.frames] for m in swapped] == taken


def _workloads():
    """perfbench/workloads.py, loaded read-only."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload, steps", [("march", 695), ("diagnostics", 635)])
def test_the_plans_count_the_benchmark_steps(workload, steps):
    # a coupled step counts once, as at the stepper boundary of a traced run
    workloads = _workloads()
    configs = workloads.build_configs(ROOT, workload, 0)
    planned = sum(m.steps for cfg in configs for m in EXPERIMENTS[cfg.experiment].plan(cfg))
    assert planned == workloads.steps_per_call(configs) == steps


@pytest.mark.parametrize("name, assignments, largest", [
    # 8 probes of 10**9 steps
    ("normalform_scaling", ["analysis.t_probe=1e6"], "1e+09 steps at n = 1024, dt = 0.001"),
    # the study's reference march
    ("conserve", ["analysis.conv_t_end=1e6"], "8e+09 steps at n = 128, dt = 0.000125"),
    # few frames, so the memory budget lets these through
    ("conserve", ["solver.t_end=1e12", "solver.snapshot_stride=1000000000"],
     "1e+16 steps at n = 1024, dt = 0.0001"),
    ("lnl_conservation", ["solver.dt=1e-12", "solver.snapshot_stride=1000000000"],
     "1e+12 steps at n = 1024, dt = 1e-12")])
def test_a_run_over_the_work_budget_is_a_config_error(name, assignments, largest, tmp_path,
                                                      capsys):
    path, out = str(CONFIG_DIR / f"{name}.json"), str(tmp_path / "out")
    args = [arg for a in assignments for arg in ("--set", a)]
    for command in (["validate", path], ["run", path, "--out", out]):
        assert main(command + args) == 3
        err = capsys.readouterr().err
        assert "point-steps (steps x rows x n), over the 1e+10 of experiments.WORK_BUDGET" in err
        assert f"its largest march takes {largest}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, assignments, message", [
    # t_end / dt overflows the floats: the stepper's plan cannot count the steps
    ("conserve", ["solver.dt=5e-324"], "conserve plans more steps than a float can count"),
    ("conserve", ["analysis.conv_t_end=1e306"], "conserve plans more steps than a float can"),
    # a march of 1000 steps whose rescaled step dt / 8 underflows to 0
    ("scaling", ["solver.dt=1e-323", "solver.t_end=1e-320"],
     "scaling cannot plan its marches: dt must be positive, got 0.0")])
def test_a_march_the_stepper_cannot_plan_is_a_config_error(name, assignments, message, capsys):
    args = [arg for a in assignments for arg in ("--set", a)]
    assert main(["validate", str(CONFIG_DIR / f"{name}.json")] + args) == 3
    assert message in capsys.readouterr().err


def test_validate_prints_the_plan(capsys):
    for name, plan in (
            ("conserve", "marches: 5, steps: 14875; the largest: 10000 steps at n = 1024, "
                         "dt = 0.0001"),
            ("lnl_conservation", "marches: 1, steps: 2000; the largest: 2000 steps at "
                                 "n = 1024, dt = 0.0005"),
            ("strichartz", "marches: 0, steps: 0")):
        path = str(CONFIG_DIR / f"{name}.json")
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out == f"ok: {path} ({name}): {plan}\n"
