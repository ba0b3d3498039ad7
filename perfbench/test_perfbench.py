"""Tests of the benchmark's own machinery: spans, hooks, counts and workloads."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import EXACT_COUNTS, HOOKS, HookError, Hooks, Tracer, fft_points  # noqa: E402
from workloads import WORKLOADS, build_configs, planned_steps, steps_per_call  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_span_minus_children():
    # outer [0, 10] holds a [1, 3] and b [4, 5]; a holds a nested a2 [1.5, 2]
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 10.0]))
    tracer.enter("outer", "stepper")
    tracer.enter("a", "flows")
    tracer.enter("a2", "spectral")
    tracer.exit()
    tracer.exit()
    tracer.enter("b", "emit")
    tracer.exit()
    tracer.exit()
    calls, incl, self_s, _outer, under_stepper = tracer.stats["outer"]
    assert (calls, incl, self_s) == (1, 10.0, 10.0 - 2.0 - 1.0)
    assert tracer.stats["a"][1:3] == [2.0, 1.5]
    assert tracer.stats["a2"][2] == 0.5
    assert tracer.stats["b"][4] == 1.0  # directly under a stepper span
    assert tracer.stats["a2"][4] == 0.0  # nested deeper, not directly under it


def test_nested_spans_of_one_layer_count_once():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0]))
    tracer.enter("invariants.track", "invariants")
    tracer.enter("invariants.l_vector_field", "invariants")
    tracer.exit()
    tracer.exit()
    assert tracer.stats["invariants.track"][3] == 4.0
    assert tracer.stats["invariants.l_vector_field"][3] == 0.0
    assert tracer.metrics()["invariants.eval_s"] == 4.0


def test_fft_points_counts_length_times_batch():
    a = np.zeros((5, 16))
    assert fft_points("fft", (a,), {}) == 80
    assert fft_points("rfft", (a,), {}) == 80
    assert fft_points("irfft", (np.zeros((5, 9)),), {}) == 80
    assert fft_points("ifft", (np.zeros(8),), {"n": 32}) == 32


def test_missing_hook_fails_loudly_and_patches_nothing():
    import bo3.flows

    before = bo3.flows.nonlinear_spectrum
    bad = HOOKS + (("bo3.flows", "no_such_name", "flows", "flows.no_such_name"),)
    with pytest.raises(HookError, match="no_such_name"):
        Hooks(Tracer(), hooks=bad).install()
    assert bo3.flows.nonlinear_spectrum is before


def test_uninstall_restores_every_original():
    import importlib

    from bo3.spectral import RealField

    originals = [getattr(importlib.import_module(m), a) for m, a, _l, _n in HOOKS]
    from_spectrum = vars(RealField)["from_spectrum"]
    with Hooks(Tracer()):
        assert np.fft.fft is not originals[[a for _m, a, _l, _n in HOOKS].index("fft")]
        assert vars(RealField)["from_spectrum"] is not from_spectrum
    assert [getattr(importlib.import_module(m), a) for m, a, _l, _n in HOOKS] == originals
    assert vars(RealField)["from_spectrum"] is from_spectrum


def _tiny_conserve(tmp_path):
    from bo3.experiments import apply_override

    cfg = build_configs(ROOT, "march", 3)[0]
    for assignment in ("grid.n=128", "grid.length=100.0", "solver.dt=1e-3",
                       "solver.t_end=0.02", "solver.snapshot_stride=5",
                       "analysis.conv_t_end=0.02"):
        apply_override(cfg, assignment)
    return cfg


def test_exact_counts_repeat_across_traced_runs(tmp_path):
    from bo3 import experiments

    cfg = _tiny_conserve(tmp_path)
    counts = []
    for i in range(2):
        tracer = Tracer()
        with Hooks(tracer):
            experiments.run_experiment(cfg, base_dir=tmp_path / f"run{i}")
        metrics = tracer.metrics()
        counts.append({key: metrics[key] for key in EXACT_COUNTS})
    assert counts[0] == counts[1]
    c = counts[0]
    # single-flow marches only: four RHS evaluations per RK4 step
    assert c["stepper.steps"] == steps_per_call([cfg])
    assert c["flows.rhs_calls"] == 4 * c["stepper.steps"]
    # five frames of t_end/dt = 20 steps plus t = 0, five channels each
    assert c["invariants.channel_evals"] == 5 * 5
    assert c["spectral.fft_calls"] > 0 and c["snapshots.bytes_written"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_argument_reaches_cfg_seed(workload):
    for seed in (0, 7, 2**31 - 1):
        assert [cfg.seed for cfg in build_configs(ROOT, workload, seed)] == [seed] * len(
            WORKLOADS[workload])


def test_workload_overrides_are_applied():
    conserve, lnl = build_configs(ROOT, "march", 0)
    assert (conserve.experiment, lnl.experiment) == ("conserve", "lnl_conservation")
    assert (conserve.solver.snapshot_stride, conserve.solver.t_end) == (100, 0.03)
    assert steps_per_call([conserve]) == 300 + 5 + 10 + 20 + 160
    assert lnl.solver.t_end == 0.1 and steps_per_call([lnl]) == 200
    dense, *analysis = build_configs(ROOT, "diagnostics", 0)
    assert dense.experiment == "conserve"
    assert (dense.solver.snapshot_stride, dense.solver.t_end) == (1, 0.02)
    assert dense.analysis.conv_t_end == conserve.analysis.conv_t_end == 0.02
    assert [c.experiment for c in analysis] == ["normalform_scaling", "strichartz", "airy_decay"]
    assert analysis[0].analysis.t_probe == 0.03 and steps_per_call(analysis) == 2 * 4 * 30


def test_memory_probe_runs_dense_output_on_its_canonical_horizon():
    dense, *analysis = build_configs(ROOT, "diagnostics", 5, memory=True)
    assert (dense.solver.snapshot_stride, dense.solver.t_end, dense.seed) == (1, 0.2, 5)
    assert planned_steps(dense.solver.t_end, dense.solver.dt) + 1 == 2001  # frames
    assert analysis == build_configs(ROOT, "diagnostics", 5)[1:]
    assert build_configs(ROOT, "march", 5, memory=True) == build_configs(ROOT, "march", 5)


def test_planned_steps_matches_the_stepper():
    from bo3 import profiles, spectral
    from bo3.flows import FlowKind
    from bo3.stepper import SolverConfig, integrate, integrate_linearized_pair

    from kernels import SPACING

    grid = spectral.make_grid(64, 64 * SPACING)
    phi = profiles.make_profile("random_bandlimited", grid, amplitude=0.05, seed=0)
    runs = [(lambda c: integrate(FlowKind("third_order_bo"), phi, c), 4),
            (lambda c: integrate_linearized_pair(phi, phi, c), 8)]
    for t_end, dt in ((0.003, 1e-3), (0.0035, 1e-3)):
        for march, rhs_per_step in runs:
            tracer = Tracer()
            with Hooks(tracer):
                march(SolverConfig(dt=dt, t_end=t_end))
            # the RHS count comes from the flows hook, not from the step plan
            assert tracer.metrics()["flows.rhs_calls"] == rhs_per_step * planned_steps(t_end, dt)
    assert [planned_steps(t, 1e-3) for t in (0.003, 0.0035)] == [3, 4]


def test_kernel_data_holds_the_bands_the_kernels_use():
    from bo3 import profiles, spectral

    from kernels import SPACING, WIDE_BANDLIMIT, require_band

    grid = spectral.make_grid(128, 128 * SPACING)
    narrow = profiles.make_profile("random_bandlimited", grid, amplitude=0.05, bandlimit=1.0)
    wide = profiles.make_profile("random_bandlimited", grid, amplitude=0.05,
                                 bandlimit=WIDE_BANDLIMIT)
    for k in (1, 2):
        require_band(wide, k)
        with pytest.raises(RuntimeError, match=f"band {k} holds"):
            require_band(narrow, k)


def test_benchmark_json_lists_every_reported_metric():
    import run
    from kernels import KERNEL_METRICS, SIZES
    from spans import LAYER_METRICS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = {"wall_s": 1.0, "cpu_s": 0.9, "failed": [], "traced": False}
    e2e = run.end_to_end({"calls": [plain], "steps_per_call": 10}, [0.2], {"peak_rss_kb": 1024})
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        name: unit for name, (_value, unit) in e2e.items()}
    traced = {"wall_s": 1.1, "traced": True, "layers": dict.fromkeys(LAYER_METRICS, 1)}
    kernels = {f"{name}.n{n}": 1.0 for name in KERNEL_METRICS for n in SIZES}
    layers = run.per_layer({"calls": [plain, traced, plain], "kernels": kernels})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: unit for name, (_value, unit) in layers.items()}
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
