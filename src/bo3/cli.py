"""Command line front end.

    bo3 run <config.json> [--set path=value]... [--out DIR]
    bo3 plot <csv> --x COL --y COL [--y COL2 ...] [--loglog] [--out FILE]
    bo3 validate <config.json> [--set path=value]...

``bo3 run`` writes its artifacts into ``DIR/<experiment>/`` (DIR defaults to
``out``).  Exit codes: 0 pass, 1 fail, 2 degraded (pass with warnings), 3
usage or configuration error, refused before any output directory exists, 4
crash (any other exception; its traceback goes to stderr, and the manifest of a
started run names it).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from .experiments import (
    ConfigError,
    apply_override,
    config_from_dict,
    run_experiment,
    validate_config,
)
from .plotting import plot_csv

USAGE_ERROR = 3
CRASH = 4


_BOUND_FORMATS = {"in": "[{:.6g}, {:.6g}]", "near": "{:.6g} +- {:.6g}"}


def _shown(check) -> str:
    """Value, test and bound of one check, e.g. ``3.5e-16 <= 1e-08``."""
    if check.bound is None:  # a stopped run: the value is the time it stopped
        return f"{check.metric} {check.value:.6g}"
    fmt = _BOUND_FORMATS.get(check.test, "{:.6g}")
    bound = check.bound if isinstance(check.bound, tuple) else (check.bound,)
    return f"{check.value:.6g} {check.test} {fmt.format(*bound)}"


def _load_overridden(args):
    """The config of ``args.config`` with every ``--set`` override applied."""
    try:
        cfg = config_from_dict(json.loads(Path(args.config).read_text()))
    except FileNotFoundError:
        raise ConfigError(f"no such config file: {args.config}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config} is not valid JSON: {exc}")
    for assignment in args.set or []:
        apply_override(cfg, assignment)
    return cfg


def _cmd_run(args) -> int:
    result = run_experiment(_load_overridden(args), base_dir=args.out)
    for name, check in sorted(result.checks.items()):
        print(f"{'PASS' if check.passed else 'FAIL'}  {result.name}.{name}  ({_shown(check)})")
    for w in result.warnings:
        print(f"WARN  {w}")
    if result.error is not None:
        traceback.print_exception(result.error)
    return result.exit_code


def _cmd_validate(args) -> int:
    cfg = _load_overridden(args)
    _, marches = validate_config(cfg)
    plan = f"marches: {len(marches)}, steps: {sum(m.steps for m in marches)}"
    if marches:
        big = max(marches, key=lambda m: m.work)
        plan += f"; the largest: {big.steps} steps at n = {big.n}, dt = {big.dt:g}"
    print(f"ok: {args.config} ({cfg.experiment}): {plan}")
    return 0


def _cmd_plot(args) -> int:
    out = args.out or (Path(args.csv).with_suffix(".svg"))
    plot_csv(args.csv, out, x=args.x, y=args.y, loglog=args.loglog,
             annotate=args.annotate)
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bo3", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_val = sub.add_parser("validate", help="check a config without running it")
    for p in (p_run, p_val):
        p.add_argument("config")
        p.add_argument("--set", action="append", metavar="PATH=VALUE",
                       help="override one config field")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.set_defaults(func=_cmd_run)
    p_val.set_defaults(func=_cmd_validate)

    p_plot = sub.add_parser("plot", help="render an experiment CSV as SVG")
    p_plot.add_argument("csv")
    p_plot.add_argument("--x", required=True)
    p_plot.add_argument("--y", required=True, action="append")
    p_plot.add_argument("--loglog", action="store_true")
    p_plot.add_argument("--annotate", default="")
    p_plot.add_argument("--out", default=None)
    p_plot.set_defaults(func=_cmd_plot)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    # A started run's exit code is its record's; these map only the errors
    # raised before a run starts and those of ``bo3 plot``.
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:
        traceback.print_exc()
        return CRASH


if __name__ == "__main__":
    raise SystemExit(main())
