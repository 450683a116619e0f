"""Command-line front end.

Three subcommands cover the workflows: `run` simulates one scenario and
prints (or writes) its trace and summary, `sweep` repeats a scenario over a
grid of measurement-noise levels and seeds, and `table` prints or checks the
fuzzy look-up table. Failures exit with a stable per-category code and an
`error[category]: message` line on stderr so scripts can dispatch on either.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import replace

from .errors import EmitError, FfschedError
from .experiment import emit_traces, format_summary, format_trace_csv, run_experiment
from .fuzzy import compile_lookup_table, diff_report, format_table, load_golden_table
from .scenario import MODES, ScenarioConfig, default_scenario, load_scenario, validate_scenario

EXIT_CODES = {
    "scenario-syntax": 3,
    "scenario-semantic": 4,
    "infeasible-load": 5,
    "io": 6,
}
INTERNAL_EXIT = 7

DEFAULT_SEED = 1
DEFAULT_NOISE_GRID = (0.0, 0.02, 0.05, 0.1)
DEFAULT_SWEEP_SEEDS = 10


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the interpreter's final flush
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`ffsched run --trace | head`) and has what
        # it asked for; what is still buffered goes to the null device, quietly
        with open(os.devnull, "wb") as devnull, contextlib.suppress(OSError, ValueError):
            os.dup2(devnull.fileno(), sys.stdout.fileno())  # an in-process stand-in has no descriptor
        return 0
    except FfschedError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, INTERNAL_EXIT)
    except Exception as exc:  # a defect; the exit-code contract still holds
        print(f"error[internal]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffsched",
        description="co-simulation of feedback-scheduled control tasks on a shared CPU",
    )
    sub = parser.add_subparsers(required=True)

    run = sub.add_parser("run", help="simulate one scenario")
    _add_scenario_options(run)
    run.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED, help="random seed (default 1)")
    run.add_argument("--out", help="directory for trace.csv and summary.txt")
    run.add_argument("--trace", action="store_true", help="print the CSV trace to stdout")
    run.set_defaults(handler=_cmd_run)

    sweep = sub.add_parser("sweep", help="grid of measurement-noise levels x seeds")
    _add_scenario_options(sweep)
    sweep.add_argument(
        "--noise",
        type=_noise_grid,
        default=",".join(str(r) for r in DEFAULT_NOISE_GRID),
        help="comma-separated utilization-noise levels (default %(default)s)",
    )
    sweep.add_argument(
        "--seeds",
        type=_int_at_least(1),
        default=DEFAULT_SWEEP_SEEDS,
        help="seeds 1..N per level (default %(default)s)",
    )
    sweep.add_argument("--out", help="directory for sweep_summary.csv")
    sweep.set_defaults(handler=_cmd_sweep)

    table = sub.add_parser("table", help="print or check the fuzzy look-up table")
    table.add_argument("--compile", action="store_true", help="print the table compiled from the rule base")
    table.add_argument("--diff", action="store_true", help="compare the compiled table against the shipped one")
    table.add_argument("--out", help="write the output to this file instead of stdout")
    table.set_defaults(handler=_cmd_table)
    return parser


def _add_scenario_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", help="scenario file (omit for the built-in default)")
    sub.add_argument("--mode", choices=MODES, help="override the scheduling mode")
    sub.add_argument("--horizon", type=float, help="override the simulated horizon, seconds")
    sub.add_argument("--target", type=float, help="override the utilization set point")
    sub.add_argument("--fs-period", type=float, help="override the scheduler invocation period, seconds")


def _load_config(args) -> ScenarioConfig:
    cfg = load_scenario(args.scenario) if args.scenario else default_scenario()
    overrides = {}
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.horizon is not None:
        overrides["horizon_s"] = args.horizon
    if args.target is not None:
        overrides["target"] = args.target
    if getattr(args, "fs_period", None) is not None:
        overrides["fs_period_s"] = args.fs_period
    if overrides:
        cfg = replace(cfg, **overrides)
        validate_scenario(cfg)
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run_experiment(cfg, args.seed)
    if args.out:
        trace_path, summary_path = emit_traces(args.out, result)
        print(f"wrote {trace_path} and {summary_path}")
    if args.trace:
        sys.stdout.write(format_trace_csv(result))
    sys.stdout.write(format_summary(result.summary))
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    header = (
        "mode,noise_std,seed,mean_tracking_error,max_tracking_error,"
        "mean_utilization,mean_utilization_final,missed_total"
    )
    lines = [header]
    for level in args.noise:
        level_cfg = replace(cfg, util_std=level)
        for seed in range(1, args.seeds + 1):
            summary = run_experiment(level_cfg, seed).summary
            missed = sum(s.missed for s in summary.task_stats.values())
            lines.append(
                f"{summary.mode},{level!r},{seed},{summary.mean_tracking_error!r},"
                f"{summary.max_tracking_error!r},{summary.mean_utilization!r},"
                f"{summary.mean_utilization_final!r},{missed}"
            )
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(os.path.join(args.out, "sweep_summary.csv"), text, mkdir=args.out)
        print(f"wrote {os.path.join(args.out, 'sweep_summary.csv')}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_table(args) -> int:
    golden = load_golden_table()
    if args.diff:
        text = diff_report(compile_lookup_table(), golden)
    elif getattr(args, "compile"):
        text = format_table(compile_lookup_table())
    else:
        text = format_table(golden)
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _noise_grid(text: str) -> tuple[float, ...]:
    """argparse type of `sweep --noise`: a bad grid is a usage error (exit 2)."""

    try:
        levels = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    if not all(0 <= 40 * level < math.inf for level in levels):  # as validate_scenario bounds util_std
        raise argparse.ArgumentTypeError(f"levels must be non-negative with 40 * level finite, got {text!r}")
    return levels


def _int_at_least(minimum: int):
    """argparse type of an integer option: a smaller value is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _write_text(path: str, text: str, mkdir: str | None = None) -> None:
    try:
        if mkdir:
            os.makedirs(mkdir, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise EmitError(f"cannot write {path}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
