"""The benchmark's workloads: which canonical experiments each one runs.

Every workload is a closed loop with one client: one call runs the listed
experiments one after another through ``bo3.experiments.run_experiment`` and
the next call starts only when the previous one has finished.  The workload
seed becomes ``cfg.seed`` of every experiment; nothing else about the inputs
changes with it.

Why these two, and why each is a mix.  A run reports its fastest call.  On a
shared 2-vCPU Xeon VM the same code runs up to 1.6x slower in episodes that
last seconds to minutes, and now and then a whole minute passes without one
unhindered second.  The fastest call of a run only stays steady when the run
is long enough to meet an unhindered stretch: resampling a 12-minute record
of back-to-back calls, ten runs of 25 s had a spread (IQR / median of their
fastest calls) of 0.23 on average and above 0.25 one time in three, ten runs
of 50 s 0.14 and one time in ten.  An hour of benchmark runs (ten seeds per
workload, twice, plus traced runs) holds 50 s runs for only two workloads,
so the four loads of the canonical experiments are paired into two.  Each call stays near a second, the
canonical configs' horizons are cut to that, and the code paths and their
proportions stay those of the canonical runs.  The record line of a run gives
each part's fastest time, so the four loads stay apart there.

* ``march`` -- the two RK4 marches, where canonical runs spend their time:

  - ``conserve``: single-flow integrating-factor RK4 march at n = 1024 to
    t = 0.03 (300 steps) plus the n = 128 self-convergence study to t = 0.02
    (195 steps).  The flows right-hand side and its FFTs take most of the
    time, so RHS/FFT kernel work shows here first.
  - ``lnl_conservation``: coupled (phi, v) march, 8 RHS evaluations a step,
    plus modified-energy diagnostics, to t = 0.1 (200 coupled steps).  The
    only load on the coupled stepper.

* ``diagnostics`` -- everything around the RK4 loop:

  - ``conserve`` emitting every step, to t = 0.02 (201 frames).  Same
    stepper and invariants code in the opposite proportion: frame conversion
    and energy tracking take a large share of the time, and peak memory grows
    with the frames kept.  Memory is therefore measured on the canonical
    horizon t = 0.2 (2001 frames, about 100 MB against about 40 MB for
    ``march``), in a fresh process of its own: see ``MEMORY_WORKLOADS``.
  - ``normalform_scaling`` (amplitude sweep marched to t_probe = 0.03 instead
    of 0.1), ``strichartz`` and ``airy_decay``.  The only load on the normal
    form, dispersion and the exact Airy propagator, and the only one at
    n = 4096.

Which per-layer metrics (traced run) should move which end-to-end metric, and
on which workload:

=========== ==================================== ===================== ============
layer       per-layer metrics                    end-to-end            mainly on
=========== ==================================== ===================== ============
flows       rhs_calls, rhs_s, us_per_rhs         wall_s, steps_per_s   march
spectral    fft_calls, fft_points, fft_s         wall_s, steps_per_s   march
spectral    from_spectrum_calls, from_spectrum_s wall_s                diagnostics
stepper     steps, self_s                        steps_per_s, wall_s   march
stepper     emit_s                               wall_s                diagnostics
invariants  channel_evals, eval_s                wall_s                diagnostics
snapshots   bytes_written, write_s               wall_s, peak_rss_mb   diagnostics
experiments self_s (validation, manifest, git)   setup_s, wall_s       diagnostics
=========== ==================================== ===================== ============

Normal form, dispersion and plotting run only in ``diagnostics``, so their
span times would read zero in ``march``; the kernel table (``kernels.py``)
times them, and every other layer, at n = 128, 1024 and 4096 in every traced
run.  ``trace.overhead_s`` (traced minus untraced call time) qualifies the
table and should move with nothing.
"""

from __future__ import annotations

import json
from pathlib import Path

SHORT_STUDY = "analysis.conv_t_end=0.02"
CONSERVE = ("conserve", ("solver.t_end=0.03", SHORT_STUDY))
LNL_CONSERVATION = ("lnl_conservation", ("solver.t_end=0.1",))
ANALYSIS = (
    ("normalform_scaling", ("analysis.t_probe=0.03",)),
    ("strichartz", ()),
    ("airy_decay", ()),
)
WORKLOADS = {
    "march": (CONSERVE, LNL_CONSERVATION),
    "diagnostics": (
        ("conserve", ("solver.snapshot_stride=1", "solver.t_end=0.02", SHORT_STUDY)),
        *ANALYSIS,
    ),
}


# The call whose peak memory a workload reports, where it is not the timed call.
# A memory probe runs it once in a fresh process, so its horizon costs no
# measuring time.  Per-frame memory shows only over many frames.
MEMORY_WORKLOADS = {
    "diagnostics": (
        ("conserve", ("solver.snapshot_stride=1", "solver.t_end=0.2", SHORT_STUDY)),
        *ANALYSIS,
    ),
}


def build_configs(root: Path, workload: str, seed: int, memory: bool = False) -> list:
    """Load, override, seed and validate the configs of one workload call.

    ``memory`` gives the call of the memory probe instead of the timed one.
    """
    from bo3.experiments import apply_override, config_from_dict, validate_config

    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")
    calls = MEMORY_WORKLOADS.get(workload, WORKLOADS[workload]) if memory else WORKLOADS[workload]
    configs = []
    for experiment, overrides in calls:
        raw = json.loads((root / "configs" / f"{experiment}.json").read_text())
        cfg = config_from_dict(raw)
        for assignment in overrides:
            apply_override(cfg, assignment)
        cfg.seed = seed
        validate_config(cfg)
        configs.append(cfg)
    return configs


def planned_steps(t_end: float, dt: float) -> int:
    """RK4 steps the stepper takes for one (t_end, dt), from its own step plan."""
    from bo3.stepper import _snapshot_plan

    return _snapshot_plan(t_end, dt)[0]


def steps_per_call(configs) -> int:
    """RK4 steps one workload call takes; a coupled (phi, v) step counts once.

    Follows the marches of the experiment bodies: the conserve march plus the
    convergence study (three dts and a reference at the finest dt / 8), the
    lnl_conservation pair march, and one march to t_probe per band and
    amplitude in normalform_scaling.  strichartz and airy_decay propagate
    exactly.  A traced run counts the same total at the stepper boundary and
    fails if the two disagree.
    """
    total = 0
    for cfg in configs:
        sol, ana = cfg.solver, cfg.analysis
        if cfg.experiment == "conserve":
            dts = sorted(ana.conv_dts)
            total += planned_steps(sol.t_end, sol.dt)
            total += sum(planned_steps(ana.conv_t_end, d) for d in dts + [dts[0] / 8.0])
        elif cfg.experiment == "lnl_conservation":
            total += planned_steps(sol.t_end, sol.dt)
        elif cfg.experiment == "normalform_scaling":
            total += len(ana.bands) * len(ana.amplitudes) * planned_steps(
                ana.t_probe, ana.residual_dt)
    return total
