"""One benchmark sample, in a fresh interpreter started by run.py.

It imports ffsched from the checkout's src/, loads the workload's scenario
(the set-up) and times the reference computation (reference.py). Unless
`--mode setup`, it then calls the ffsched CLI once in-process with the
workload's arguments and times the reference again after the call (and, in
plain mode, after every simulation run inside it). The last stdout line is
a JSON report of the timings; run.py checks the output files itself.

    --mode plain    time the CLI call
    --mode traced   time the CLI call with per-layer spans (tracing.py)
    --mode setup    stop after the set-up
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from statistics import fmean


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("plain", "traced", "setup"), required=True)
    parser.add_argument("--spawn-ns", type=int, required=True, help="time.monotonic_ns() just before spawning")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)

    import numpy
    import ffsched.cli
    from ffsched.scenario import default_scenario, load_scenario

    import reference
    import workloads

    if not os.path.abspath(ffsched.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported ffsched from {ffsched.cli.__file__}, not from {src}")
    if args.workload == "open-quiet40":
        load_scenario(workloads.scenario_path(args.work))
    else:
        default_scenario()
    report = {
        "setup_ns": time.monotonic_ns() - args.spawn_ns,
        "numpy": numpy.__version__,
    }
    # Means, not medians: a call's time is a sum over time, so a slow spell
    # weighs on it as it weighs on the mean reference time over the same span.
    reference.reference()  # warm-up: the first run in a process is slower
    ref_samples: list[int] = []
    reference.time_reference(ref_samples)
    report["ref_setup_ns"] = fmean(ref_samples)
    if args.mode != "setup":
        report.update(_call_cli(args, workloads, ref_samples))
        reference.time_reference(ref_samples)
    report["ref_ns"] = fmean(ref_samples)
    if args.mode == "traced":
        import tracing

        report["trace"]["span_ns"] = tracing.span_cost_ns()
    print(json.dumps(report))
    return 0


def _call_cli(args, workloads, ref_samples: list[int]) -> dict:
    """Call the CLI once. In plain mode, one reference run follows every
    simulation run inside the call, so a sweep's reference time covers the
    whole call; those runs are taken out of its wall time."""

    import ffsched.cli
    import reference

    completed = [0]
    excluded_ns = [0]
    run_experiment = ffsched.cli.run_experiment

    def observed_run_experiment(cfg, seed):
        result = run_experiment(cfg, seed)
        completed[0] += sum(s.completed for s in result.summary.task_stats.values())
        if args.mode == "plain":
            start = time.perf_counter_ns()
            reference.reference()
            took = time.perf_counter_ns() - start
            ref_samples.append(took)
            excluded_ns[0] += took
        return result

    ffsched.cli.run_experiment = observed_run_experiment
    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    argv = workloads.cli_args(args.workload, args.seed, args.out, args.work, args.size)
    stdout = io.StringIO()
    start = time.perf_counter_ns()
    with contextlib.redirect_stdout(stdout):
        rc = ffsched.cli.main(argv)
    wall_ns = time.perf_counter_ns() - start - excluded_ns[0]

    # this process's peak plus the largest peak among its waited-for children
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "cli_rc": rc,
        "wall_ns": wall_ns,
        "peak_rss_bytes": kib * 1024,
        "jobs_completed": completed[0],
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    return report


if __name__ == "__main__":
    sys.exit(main())
