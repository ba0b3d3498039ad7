"""One fresh benchmark process: set up a workload, run its closed loop, report.

    python3 perfbench/child.py --root DIR --workload W --seed N --seconds S
                               --trace 0|1 --work DIR [--setup-only | --memory-probe]

It prints ``ready`` once imports, config loading and validation are done,
just before the first experiment call (``run.py`` times set-up by that line),
and, unless ``--setup-only``, one JSON object with the raw measurements as its
last line.  ``--memory-probe`` runs the workload's memory call
(``workloads.MEMORY_WORKLOADS``) once and reports the process's peak RSS and
the call's failures.  ``run.py`` starts it with single-threaded BLAS/OpenMP
and with ``<root>/src`` on ``PYTHONPATH``.

Every call of the loop runs the workload's experiments into its own
directory.  A call fails on an exception, a false verdict, an exit code other
than 0 or 2, or CSVs that differ from the first passing call's; each failure
is printed by name on stderr.  With ``--trace 1`` every second call runs with
the layer hooks installed; the others run untouched, which gives the tracing
overhead, and the kernel table follows the loop.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import build_configs, steps_per_call  # noqa: E402


def csv_bytes(out_dir: Path) -> dict:
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*.csv"))}


def run_call(experiments, configs, out_dir: Path, parts: dict) -> list:
    """Run one workload call; returns the names of every failed check.

    ``parts`` receives the wall seconds of each experiment.
    """
    failed = []
    for cfg in configs:
        t0 = time.perf_counter()
        try:
            result = experiments.run_experiment(cfg, base_dir=out_dir)
        except Exception as exc:  # any crash is a failed call, reported by name
            failed.append(f"{cfg.experiment}: {type(exc).__name__}: {exc}")
            continue
        finally:
            parts[cfg.experiment] = time.perf_counter() - t0
        failed += [f"{cfg.experiment}.{name}" for name, ok in result.verdicts.items() if not ok]
        if result.exit_code not in (0, 2):
            failed.append(f"{cfg.experiment}: exit code {result.exit_code}")
    return failed


def environment() -> dict:
    import numpy as np

    from bo3 import experiments

    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "fft_backend": "pocketfft" if hasattr(np.fft, "_pocketfft") else "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                env[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    env["build_version"] = experiments.build_version()  # carries git describe
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--work", required=True, type=Path)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--memory-probe", action="store_true")
    args = parser.parse_args(argv)
    root = args.root.resolve()

    import bo3
    from bo3 import experiments

    src = root / "src"
    if src not in Path(bo3.__file__).resolve().parents:
        raise SystemExit(f"bo3 was imported from {bo3.__file__}, not from {src}")
    configs = build_configs(root, args.workload, args.seed, memory=args.memory_probe)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.memory_probe:
        failed = run_call(experiments, configs, args.work / "memory", {})
        shutil.rmtree(args.work / "memory", ignore_errors=True)
        for name in failed:
            print(f"FAIL memory probe: {name}", file=sys.stderr)
        print(json.dumps({"failed": failed,
                          "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
        return 0

    from spans import EXACT_COUNTS, Hooks, Tracer

    steps = steps_per_call(configs)
    # two calls for the determinism check; a traced run alternates untraced
    # and traced calls and leaves out the first, cold one when it compares them
    min_calls = 3 if args.trace else 2
    calls = []
    reference_csvs = None
    start = time.perf_counter()
    while True:
        i = len(calls)
        traced = bool(args.trace) and i % 2 == 1
        out_dir = args.work / f"call{i}"
        tracer = Tracer() if traced else None
        with Hooks(tracer) if traced else contextlib.nullcontext():
            parts = {}
            c0, w0 = time.process_time(), time.perf_counter()
            failed = run_call(experiments, configs, out_dir, parts)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if traced and tracer.counts["steps"] != steps:
            failed.append(f"stepper counted {tracer.counts['steps']} steps, expected {steps}")
        if not failed:
            csvs = csv_bytes(out_dir)
            if reference_csvs is None:
                reference_csvs = csvs
            elif csvs != reference_csvs:
                names = sorted(set(csvs) | set(reference_csvs))
                failed += [f"csv differs from the first passing call: {name}"
                           for name in names if csvs.get(name) != reference_csvs.get(name)]
        shutil.rmtree(out_dir, ignore_errors=True)
        for name in failed:
            print(f"FAIL call {i}: {name}", file=sys.stderr)
        calls.append({
            "wall_s": wall, "cpu_s": cpu, "parts": parts, "traced": traced, "failed": failed,
            "layers": tracer.metrics() if tracer else None,
            "spans": tracer.table() if tracer else None,
        })
        elapsed = time.perf_counter() - start
        typical = statistics.median(c["wall_s"] for c in calls)
        if len(calls) >= min_calls and elapsed + typical > args.seconds:
            break

    report = {"calls": calls, "steps_per_call": steps}
    if args.trace:
        from kernels import kernel_table

        traced_layers = [c["layers"] for c in calls if c["traced"]]
        for key in EXACT_COUNTS:
            if len({layers[key] for layers in traced_layers}) != 1:
                calls[-1]["failed"].append(f"trace count {key} differs across traced calls")
                print(f"FAIL trace count {key} differs across traced calls", file=sys.stderr)
        kernel_dir = args.work / "kernels"
        kernel_dir.mkdir(parents=True, exist_ok=True)
        report["kernels"] = kernel_table(args.seed, kernel_dir)
    report["environment"] = environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
