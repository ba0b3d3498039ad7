"""bo3 benchmark: one command, one workload, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every run measures the program in a fresh
single-threaded process (``child.py``) and prints, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it is a JSON record of the environment, the
quartiles of the timings and every failure by name.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s`` / ``cpu_s`` -- wall / process CPU time of the fastest workload
  call of the run; the record line adds the median, quartiles, every call's
  time and the fastest time of each experiment in a call.  The fastest call
  is the statistic that stays steadiest on a shared 2-vCPU Xeon VM whose CPU
  slows by up to 1.6x for seconds to minutes at a time (see ``workloads.py``
  for the run length).  Dividing by a NumPy FFT timed around each call, on
  the same pinned vCPU, did not narrow the spread.
* ``steps_per_s`` -- RK4 steps of one call (a coupled step counts once) over
  ``wall_s``.
* ``setup_s`` -- median, over several fresh processes, of the time from
  interpreter launch to the first experiment call (imports, config load,
  validation).
* ``peak_rss_mb`` -- ``ru_maxrss`` of a fresh process that runs one workload
  call (for ``diagnostics`` with dense output on its canonical horizon, see
  ``workloads.MEMORY_WORKLOADS``).  That call is checked like the others and
  counts as attempted.

``--trace 1`` reports per-layer metrics: exact counts and span times of the
fastest traced call (see ``spans.py``), the tracing overhead (fastest traced
minus fastest untraced call), and the kernel table (see ``kernels.py``).

A run is correct when every call passes every verdict with exit code 0 or 2
and every call's CSVs match the first call's byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
CHILD_GRACE_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_child(root: Path, args, work: Path, mode: tuple = ()):
    """Start child.py with the extra ``mode`` flags; returns (process, seconds
    from launch to its ``ready``)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
           *mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, 30.0)
        raise SystemExit(f"benchmark process failed during set-up (exit {proc.returncode})")
    return proc, ready


def finish(proc, timeout: float) -> str:
    """Wait for a child, killing it after ``timeout``; returns its stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("benchmark process timed out")
    return out


def quartiles(values) -> dict:
    vals = sorted(values)
    if len(vals) == 1:
        return {"q1": vals[0], "median": vals[0], "q3": vals[0], "n": 1}
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3, "n": len(vals)}


def last_json(proc, out: str) -> dict:
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"benchmark process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(report: dict, setup: list, memory: dict) -> dict:
    calls = report["calls"]
    timed = [c for c in calls if not c["failed"]] or calls
    wall = min(c["wall_s"] for c in timed)
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (min(c["cpu_s"] for c in timed), "s"),
        "steps_per_s": (report["steps_per_call"] / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (memory["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(report: dict) -> dict:
    from kernels import KERNEL_METRICS, SIZES
    from spans import LAYER_METRICS

    calls = report["calls"]
    # the fastest traced call gives one consistent breakdown; the exact counts
    # are the same in every traced call (child.py checks)
    fastest = min((c for c in calls if c["traced"]), key=lambda c: c["wall_s"])
    plain = min(c["wall_s"] for c in calls[1:] if not c["traced"])  # call 0 warms caches
    out = {name: (fastest["layers"][name], unit) for name, unit in LAYER_METRICS.items()}
    out["trace.overhead_s"] = (fastest["wall_s"] - plain, "s")
    for name, unit in KERNEL_METRICS.items():
        for n in SIZES:
            out[f"{name}.n{n}"] = (report["kernels"][f"{name}.n{n}"], unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bo3 benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd().resolve()
    for needed in ("src/bo3", "configs"):
        if not (root / needed).is_dir():
            print(f"error: {root / needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup, memory = [], None
        if not args.trace:
            # the first process compiles bytecode; users do not pay that per run
            for i in range(SETUP_PROBES + 1):
                proc, ready = start_child(root, args, work, ("--setup-only",))
                finish(proc, 30.0)
                if i:
                    setup.append(ready)
            proc, _ready = start_child(root, args, work, ("--memory-probe",))
            memory = last_json(proc, finish(proc, CHILD_GRACE_S))
        proc, ready = start_child(root, args, work)
        setup.append(ready)
        report = last_json(proc, finish(proc, args.seconds + CHILD_GRACE_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    calls = report["calls"]
    plain_calls = [c for c in calls if not c["traced"]]
    failures = [name for c in calls for name in c["failed"]]
    failed = sum(1 for c in calls if c["failed"])
    attempted = len(calls)
    if memory is not None:
        failures += [f"memory probe: {name}" for name in memory["failed"]]
        failed += bool(memory["failed"])
        attempted += 1
    metrics = per_layer(report) if args.trace else end_to_end(report, setup, memory)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": report["environment"],
        "failed_frac": failed / attempted,
        "wall_s": quartiles([c["wall_s"] for c in calls]),
        "wall_s_calls": [c["wall_s"] for c in calls],
        # fastest untraced time of each experiment in a call
        "parts_s": {name: min(c["parts"][name] for c in plain_calls)
                    for name in plain_calls[0]["parts"]},
        "cpu_s": quartiles([c["cpu_s"] for c in calls]),
        "setup_s": quartiles(setup),
        "failures": failures,
    }
    if args.trace:
        record["spans"] = [c["spans"] for c in calls if c["traced"]][0]
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
